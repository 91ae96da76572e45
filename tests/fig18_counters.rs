//! Fig. 18 proxy counters of the aggregation-heavy queries, pinned.
//!
//! The counters are process-global, so this suite holds exactly one test (its
//! own process) and is compiled only with `--features metrics`. The pinned
//! values were taken at the commit before aggregation went block-at-a-time:
//! the block fold counts `hash_probes` / `allocations` once per block instead
//! of once per row, and the totals must not move.
#![cfg(feature = "metrics")]

use legobase::storage::metrics;
use legobase::{Config, LegoBase};

#[test]
fn q1_and_q18_counters_are_unchanged_by_the_block_fold() {
    let system = LegoBase::generate(0.002);
    // Opt/C folds Q1 and Q18 into direct arrays and HyPer into generic-key
    // or lowered maps; the third leg reaches the generic hash map.
    let generic_maps = Config::OptC.settings().with(|s| {
        s.hashmap_lowering = false;
        s.code_motion = false;
    });
    let configs = [
        ("HyPer", Config::HyPerLike.settings()),
        ("Opt/C", Config::OptC.settings()),
        ("generic maps", generic_maps),
    ];
    let mut got = Vec::new();
    for n in [1, 18] {
        for (name, settings) in &configs {
            let loaded = system.load(&system.plan(n), settings);
            let (_, c) = metrics::measure(|| loaded.execute());
            got.push((n, *name, c.hash_probes, c.allocations));
        }
    }
    // (query, configuration, hash probes, allocations)
    let pinned = [
        (1, "HyPer", 11918, 4),
        (1, "Opt/C", 0, 0),
        (1, "generic maps", 11918, 4),
        (18, "HyPer", 15375, 0),
        (18, "Opt/C", 3300, 0),
        (18, "generic maps", 15375, 3000),
    ];
    assert_eq!(got, pinned);
}
