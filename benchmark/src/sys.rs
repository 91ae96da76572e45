//! What the harness reads from the operating system, and the JSON it prints.

use std::fmt::Write as _;

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line `{line}`"))?;
    Ok(kb / 1024.0)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU seconds of this process (all threads, children not
/// included) at nanosecond resolution — `/proc/self/stat` counts in 10 ms
/// ticks, coarser than a round of the faster workloads.
pub fn cpu_seconds() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the kernel writes one `timespec` into `t`. The call cannot
    // fail for this clock and a valid pointer.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// A CPU set as the kernel passes it: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

// The C library std already links; the build has no `libc` crate.
extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// While it lives, the thread that made it — and every thread and child
/// process started from it — runs on one CPU; dropping it gives the thread
/// its previous CPUs back.
pub struct Pinned {
    /// The CPU.
    pub cpu: usize,
    previous: CpuSet,
}

/// Pins the calling thread to the last CPU it may run on. A client and a
/// server thread that hand a request back and forth then share a core: no
/// wake-up of an idle virtual CPU and no inter-processor interrupt is part
/// of a request, and those are the host's costs, not the program's: on this
/// shared box one unpinned connection took 0.76 ms per request where the
/// pinned one takes 0.52 ms, and less again whenever a neighbour kept the
/// cores awake (README.md, `served-tcp`).
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut previous: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into a
    // buffer of exactly that size; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..1024)
        .rev()
        .find(|cpu| previous[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `one`.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(Pinned { cpu, previous })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: as above; a failure leaves the thread pinned, which is harmless.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous) };
    }
}

/// The `LEGOBASE_*` variables that change engine defaults. The harness
/// clears them so that its numbers are of the defaults, and reports which
/// were set.
pub const ENGINE_ENV: [&str; 5] = [
    "LEGOBASE_PARALLELISM",
    "LEGOBASE_OPTIMIZE",
    "LEGOBASE_ENCODING",
    "LEGOBASE_FEEDBACK",
    "LEGOBASE_MMAP",
];

/// Clears [`ENGINE_ENV`]; returns the names that were set. Call before any
/// thread starts.
pub fn clear_engine_env() -> Vec<&'static str> {
    let mut cleared = Vec::new();
    for name in ENGINE_ENV {
        if std::env::var_os(name).is_some() {
            std::env::remove_var(name);
            cleared.push(name);
        }
    }
    cleared
}

/// A JSON value; the build has no serde, and the harness only writes JSON.
#[derive(Clone, Debug)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(i64),
    /// A measured number, printed with all its digits.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // upstream, surfaced as null rather than as invalid JSON.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("writing to a String"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_gives_the_others_back() {
        let cpus = || std::thread::available_parallelism().unwrap().get();
        let before = cpus();
        let pinned = pin_to_one_cpu().unwrap();
        assert_eq!(cpus(), 1);
        let inherited = std::thread::spawn(cpus).join().unwrap();
        assert_eq!(inherited, 1, "threads started while pinned stay on the CPU");
        drop(pinned);
        assert_eq!(cpus(), before);
    }

    #[test]
    fn json_renders_one_line_and_escapes() {
        let j = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(-3)),
            ("x", Json::Num(1.2034)),
            ("s", Json::str("a\"b\\c\nd")),
            ("a", Json::Arr(vec![Json::Int(1), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"ok": true, "n": -3, "x": 1.2034, "s": "a\"b\\c\nd", "a": [1, null]}"#
        );
    }
}
