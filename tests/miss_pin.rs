//! The ad-hoc miss path's outputs, pinned: what an uncached SQL request
//! produces before it executes — the lowered plan, the optimized plan, the
//! optimizer's report (fingerprints included) and SC's output for the
//! optimized plan — is the oracle for "a faster miss changes nothing but
//! speed". The 22 TPC-H texts are planned against SF 0.002 statistics
//! (histograms and sketches included), so the estimates, the join orders
//! and the feedback fingerprints all come from the cost model's real
//! inputs. A change that moves any of it fails here; a PR that changes the
//! miss path's output on purpose regenerates the digests from the failure
//! message.

#[path = "../crates/sc/tests/pin/mod.rs"]
mod pin;

use legobase::engine::optimizer;
use legobase::sc::Pipeline;
use legobase::storage::Catalog;
use legobase::{Config, Settings, Specialization, TpchData};
use pin::{write_spec, Fnv};
use std::fmt::Write;

/// One text's digest: the lowered plan, the optimized plan and its report,
/// then SC over the optimized plan under `Config::ALL` × degree {1, 4} —
/// every phase's IR, the final IR, the C text and the specialization.
fn digest(sql: &str, cat: &Catalog) -> u64 {
    let mut h = Fnv::new();
    let lowered = legobase::sql::plan(sql, cat).expect("TPC-H text lowers");
    writeln!(h, "{lowered:?}").unwrap();
    let (plan, report) = optimizer::optimize(&lowered, cat);
    writeln!(h, "{plan:?}\n{report:?}").unwrap();
    for cfg in Config::ALL {
        for degree in [1, 4] {
            let settings: Settings = cfg.settings().with_parallelism(degree);
            writeln!(h, "{cfg:?}/{degree}").unwrap();
            let result = Pipeline::for_settings(&settings).run_observed(
                &plan,
                cat,
                &settings,
                |phase, prog| writeln!(h, "{}\n{prog:?}", phase.name).unwrap(),
            );
            writeln!(h, "{:?}\n{}", result.program, result.c_source).unwrap();
            write_spec(&mut h, &result.spec);
        }
    }
    h.0
}

/// Recorded on the parent of the change that took the copies out of the
/// miss path (the lowering, the join-order DP and SC's schemas, provenance
/// and C strings), which had to reproduce them. Q16's entry moved on
/// purpose when `COUNT(DISTINCT c)` began counting the deduplicated `c`
/// instead of its rows (a NULL `c` is not a value).
const PINNED: [u64; 22] = [
    0xa9a7ab039c732cfc,
    0xfb330b6993fc5880,
    0x5e8b0b91a693caae,
    0xb4a2d05a9bee4883,
    0xbd662f2fbc69822c,
    0xbc529616b51a687c,
    0x1c3aad039cbfd1a7,
    0x49244c10af487a9c,
    0x2dcff4b09de41849,
    0x864af1bdd667cd74,
    0x7129e4e1539b3cb7,
    0x9efe59b006d53fb5,
    0x4f34fe9d7b555bf2,
    0xf39b4ca91e3a5e1d,
    0x11103103bd9d5295,
    0xff87f1f7bdbb88f7,
    0xaf7d0798106235b8,
    0xa60a8d669e1a7d85,
    0x2c6a6838ed81f3e9,
    0x3cc4f6e508288fe6,
    0x32b30e61bcdafe88,
    0xc21ea331001e8e47,
];

#[test]
fn miss_path_output_is_pinned() {
    let data = TpchData::generate(0.002);
    let got: Vec<u64> =
        (1..=22).map(|n| digest(legobase::sql::tpch_sql(n), &data.catalog)).collect();
    let rendered: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(
        got,
        PINNED,
        "miss-path output moved; if on purpose, pin:\nconst PINNED: [u64; 22] = [{}];",
        rendered.join(", ")
    );
}
