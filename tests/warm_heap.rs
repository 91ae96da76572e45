//! A serving process keeps the heap it warmed: once the seven join-heavy
//! TPC-H texts of the benchmark's `join-groupby` workload have run, running
//! them again faults in no fresh pages. `LegoBase::serve_with` pins glibc's
//! heap thresholds, so the megabytes of join-gather columns a query frees
//! stay in the heap for the next query instead of going back to the kernel
//! at the end of each execution and faulting in again, a page at a time.
//!
//! The count is the process's minor faults (`/proc/self/stat`), which every
//! thread adds to — which is why this test has a file (and a process) of its
//! own. The assertion reads the median of five rounds: the faults the pinned
//! thresholds remove recur in every round, while a warm heap still grows
//! now and then by a few dozen pages (a block freed in another order lands
//! elsewhere) and then holds. Without the thresholds every round read 513
//! faults (73 per query) at SF 0.025, the smallest scale factor tried at
//! which the heap top is trimmed after every query, and ≈ 150 per query at
//! SF 0.05; with them the median round reads 0.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use legobase::sql::tpch_sql;
use legobase::{EnvOverrides, LegoBase, QueryRequest, ServeOptions};

/// The texts of the benchmark's `join-groupby` workload.
const QUERIES: [usize; 7] = [3, 5, 9, 10, 13, 18, 21];
const ROUNDS: usize = 5;
const SF: f64 = 0.025;

/// Minor faults of this process so far: field 10 of `/proc/self/stat`,
/// the 8th after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (_, after_name) = stat.rsplit_once(')').expect("a command name in /proc/self/stat");
    after_name.split_whitespace().nth(7).and_then(|v| v.parse().ok()).expect("minflt field")
}

/// Set in the child this test starts to write the archive, to the path to
/// write it to.
const CHILD: &str = "WARM_HEAP_TEST_ARCHIVE";

#[test]
fn warm_join_queries_fault_no_pages() {
    if let Some(path) = std::env::var_os(CHILD) {
        LegoBase::generate(SF).write_archive(path).expect("write archive");
        return;
    }
    if EnvOverrides::from_env().parallelism.is_some_and(|n| n > 1) {
        // Scoped morsel workers start on fresh stacks every execution and
        // fault them in by design; the count is the serial engine's.
        println!("skipped: LEGOBASE_PARALLELISM runs every query on fresh worker stacks");
        return;
    }
    // Built the way a server starts: an archive written by another process,
    // opened, served. Generating here would free blocks large enough to
    // raise glibc's dynamic trim threshold for the rest of the process,
    // which a server that only opens its archive never does.
    let path = std::env::temp_dir().join(format!("warm-heap-{}.lbca", std::process::id()));
    let child = std::process::Command::new(std::env::current_exe().expect("test executable"))
        .args(["--exact", "warm_join_queries_fault_no_pages", "--test-threads=1"])
        .env(CHILD, &path)
        .output()
        .expect("start the archive-writing child");
    assert!(child.status.success(), "the archive-writing child failed: {child:?}");
    let service =
        LegoBase::from_archive(&path).expect("open archive").serve_with(ServeOptions::default());
    let session = service.session();
    let run = |n: usize| {
        session.query(&QueryRequest::sql(tpch_sql(n))).unwrap_or_else(|e| panic!("Q{n}: {e}"));
    };
    // Two rounds, as the benchmark's client warms up: the second settles
    // what the first left (a query's blocks land where an earlier query's
    // were freed), and from then on the heap holds its high-water mark.
    for _ in 0..2 {
        for &n in &QUERIES {
            run(n);
        }
    }

    let mut per_round: Vec<u64> = (0..ROUNDS)
        .map(|_| {
            let before = minor_faults();
            for &n in &QUERIES {
                run(n);
            }
            minor_faults() - before
        })
        .collect();
    service.shutdown();
    let _ = std::fs::remove_file(&path);

    println!("minor faults per round of {} warm queries: {per_round:?}", QUERIES.len());
    per_round.sort_unstable();
    let median = per_round[ROUNDS / 2] as f64 / QUERIES.len() as f64;
    assert!(median <= 1.0, "a warm query faulted in {median:.1} pages (median round)");
}
