//! `tpch` — generate TPC-H data and manage persistent column archives.
//!
//! ```text
//! tpch archive <scale-factor> <out.lbca>   generate and write an archive
//! tpch info <file.lbca>                    open an archive (time and peak
//!                                          memory of the open), then print
//!                                          its contents
//! ```

use legobase_tpch::{archive, TpchData, TABLES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  tpch archive <scale-factor> <out.lbca>   generate and write an archive
  tpch info <file.lbca>                    open an archive, print what the open cost and its contents";

enum Cmd {
    Archive { scale_factor: f64, out: PathBuf },
    Info { path: PathBuf },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    match args {
        [cmd, sf, out] if cmd == "archive" => {
            let scale_factor: f64 = sf.parse().map_err(|_| format!("bad scale factor `{sf}`"))?;
            if !scale_factor.is_finite() || scale_factor <= 0.0 {
                return Err(format!("scale factor must be positive, got `{sf}`"));
            }
            Ok(Cmd::Archive { scale_factor, out: PathBuf::from(out) })
        }
        [cmd, path] if cmd == "info" => Ok(Cmd::Info { path: PathBuf::from(path) }),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Cmd::Archive { scale_factor, out } => {
            let t0 = std::time::Instant::now();
            let data = TpchData::generate(scale_factor);
            let gen_time = t0.elapsed();
            let t1 = std::time::Instant::now();
            if let Err(e) = archive::write(&data, &out) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!(
                "wrote {} (sf {scale_factor}): {bytes} bytes; generate {:.2?}, write {:.2?}",
                out.display(),
                gen_time,
                t1.elapsed()
            );
            for &name in &TABLES {
                println!("  {name:<9} {:>9} rows", data.rows(name));
            }
            ExitCode::SUCCESS
        }
        Cmd::Info { path } => {
            // `inspect` opens the archive as a server would (mapped, every
            // payload validated, nothing decoded): its duration and the
            // process's memory high-water mark right after are what an open
            // costs.
            let t0 = std::time::Instant::now();
            let info = archive::inspect(&path);
            let (open_ms, hwm) = (t0.elapsed().as_secs_f64() * 1e3, vm_hwm_bytes());
            match info {
                Ok(info) => {
                    print!("{}", render_info(&path.display().to_string(), &info));
                    let ratio = hwm as f64 / info.file_bytes as f64;
                    println!("open_ms {open_ms:.1}  VmHWM {hwm} bytes ({ratio:.2} x file)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// The process's peak resident set so far (0 where `/proc` reports none).
fn vm_hwm_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with("VmHWM:"));
    let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<usize>().ok());
    kb.unwrap_or(0) * 1024
}

/// Renders the `tpch info` report: archive version, scale factor, and per
/// column the encoding, bit width, and how many bytes a mapped load serves
/// zero-copy from the page cache vs materializes on the heap.
fn render_info(path: &str, info: &archive::ArchiveInfo) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: LBCA v{} (sf {}), {} bytes — {} mapped, {} resident",
        info.version,
        info.scale_factor,
        info.file_bytes,
        info.mappable_bytes(),
        info.resident_bytes(),
    );
    for t in &info.tables {
        let _ = writeln!(out, "  {:<9} {:>9} rows", t.name, t.rows);
        for c in &t.columns {
            let width = match c.bit_width {
                Some(w) => format!("{w:>2} bits"),
                None => "       ".to_string(),
            };
            let _ = writeln!(
                out,
                "    {:<16} {:<12} {width} {:>10} bytes ({} mapped)",
                c.name, c.encoding, c.payload_bytes, c.mappable_bytes,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_archive_and_info() {
        assert!(matches!(
            parse(&s(&["archive", "0.1", "out.lbca"])),
            Ok(Cmd::Archive { scale_factor, .. }) if scale_factor == 0.1
        ));
        assert!(matches!(parse(&s(&["info", "x.lbca"])), Ok(Cmd::Info { .. })));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse(&s(&[])).is_err());
        assert!(parse(&s(&["archive", "nope", "out"])).is_err());
        assert!(parse(&s(&["archive", "-1", "out"])).is_err());
        assert!(parse(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn info_reports_encodings_and_mapped_bytes() {
        let data = TpchData::generate(0.002);
        let bytes = archive::to_bytes(&data).expect("serialize");
        let info = archive::inspect_bytes(&bytes).expect("inspect");
        let report = render_info("x.lbca", &info);
        assert!(report.contains("LBCA v3"), "{report}");
        assert!(report.contains("lineitem"), "{report}");
        assert!(report.contains("-packed"), "{report}");
        assert!(report.contains("bits"), "{report}");
        assert!(report.contains("mapped"), "{report}");
    }
}
