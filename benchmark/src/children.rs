//! Child roles. A run is one measuring process plus short-lived children of
//! the same executable: work that is not the served program's — generating
//! data, the oracle, machine probes, the set-up repetitions — stays out of the
//! measuring process's memory high-water mark and CPU account.

use crate::driver::Backend;
use crate::templates::TEMPLATES;
use crate::workload::{self, Schedule};
use legobase::{Config, LegoBase, QueryRequest};
use std::process::Command;
use std::time::Instant;

/// Scale factor of the data the replies are checked on against the oracle.
pub const VERIFY_SF: f64 = 0.002;

/// Runs this executable in a child role and returns its standard output.
/// `output` waits for the child to end.
pub fn spawn(role: &str, args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--child")
        .arg(role)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {role} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {role} child failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// Reads `key value` pairs from a child's one-line answer.
pub fn answer(line: &str, key: &str) -> Result<f64, String> {
    let mut words = line.split_whitespace();
    while let Some(w) = words.next() {
        if w == key {
            return words
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("no number after `{key}` in `{line}`"));
        }
    }
    Err(format!("no `{key}` in `{line}`"))
}

/// Child role: generate TPC-H data and write the archive.
pub fn generate(args: &[String]) -> Result<(), String> {
    let [sf, path] = args else { return Err("generate wants <sf> <path>".into()) };
    let sf: f64 = sf.parse().map_err(|_| format!("bad scale factor `{sf}`"))?;
    let t = Instant::now();
    let system = LegoBase::generate(sf);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    system.write_archive(path).map_err(|e| e.to_string())?;
    println!("generate_s {generate_s} write_s {}", t.elapsed().as_secs_f64());
    Ok(())
}

/// Child role: machine probes. A fixed arithmetic loop and a buffer copy;
/// they move when the machine does, not when the program does.
pub fn machine_probes() -> Result<(), String> {
    use std::hint::black_box;
    let t = Instant::now();
    let mut x = 0x9E37_79B9u64;
    for i in 0..60_000_000u64 {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    black_box(x);
    let spin_ms = t.elapsed().as_secs_f64() * 1e3;
    let src = vec![1u64; 4 << 20];
    let mut dst = vec![0u64; 4 << 20];
    dst.copy_from_slice(&src); // touch every page before timing
    let t = Instant::now();
    const PASSES: usize = 6;
    for _ in 0..PASSES {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    let bytes = (PASSES * 2 * src.len() * 8) as f64;
    println!("spin_ms {spin_ms} membw_gbps {}", bytes / t.elapsed().as_secs_f64() / 1e9);
    Ok(())
}

/// Child role: every distinct text of the workload, at [`VERIFY_SF`],
/// through the measured configuration and through the unoptimized
/// interpreted engine; the two answers must agree to 1e-6.
pub fn verify(args: &[String]) -> Result<(), String> {
    let [name, seed] = args else { return Err("verify wants <workload> <seed>".into()) };
    let workload = workload::find(name).ok_or_else(|| format!("no workload `{name}`"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let schedule = Schedule::new(workload, seed);
    let oracle = LegoBase::generate(VERIFY_SF);
    let mut settings = Config::Dbx.settings();
    settings.optimize = false;
    let backend = Backend::start(LegoBase::generate(VERIFY_SF), workload.transport)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let mismatched: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (backend, oracle, schedule) = (&backend, &oracle, &schedule);
                scope.spawn(move || -> Result<usize, String> {
                    let mut conn = backend.connect()?;
                    let mut bad = 0;
                    for text in schedule.texts.iter().skip(t).step_by(threads) {
                        let label = format!("{}/{}", TEMPLATES[text.template].name, text.variant);
                        let want = oracle
                            .query(&QueryRequest::sql(text.sql.as_str()).with_settings(settings))
                            .map_err(|e| format!("{label}: oracle: {e}"))?;
                        match conn.query(&text.sql) {
                            Ok(got) => {
                                if let Some(diff) = got.result.diff(&want.result, 1e-6) {
                                    eprintln!("verify {label}: {diff}");
                                    bad += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("verify {label}: {e}");
                                bad += 1;
                            }
                        }
                    }
                    Ok(bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .sum::<Result<usize, String>>()
    })?;
    backend.shutdown();
    println!("verified {} mismatched {mismatched}", schedule.texts.len());
    Ok(())
}

/// What the machine probes measured.
pub struct Calibration {
    /// Milliseconds of a fixed arithmetic loop.
    pub spin_ms: f64,
    /// Gigabytes per second of a buffer copy.
    pub membw_gbps: f64,
}

/// Runs the machine probes in a child.
pub fn calibrate() -> Result<Calibration, String> {
    let line = spawn("calibrate", &[])?;
    Ok(Calibration { spin_ms: answer(&line, "spin_ms")?, membw_gbps: answer(&line, "membw_gbps")? })
}
