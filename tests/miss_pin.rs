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
/// instead of its rows (a NULL `c` is not a value). Every entry moved on
/// purpose when the report lost its parallel decisions and unpack
/// strategies (the `Parallelize` phase, the parallel banners, the Encode
/// banner's wording and the report's fields).
const PINNED: [u64; 22] = [
    0xb7b66f935e2b48de,
    0xed7b67cce6a42fd5,
    0x8aff3f0c4f9a5052,
    0xb5dc16092cdb9f6b,
    0x1443899dbbd1c57f,
    0x9a12ead7e79d04e7,
    0x5257c23970f6f2de,
    0x29ca62a281fa0b30,
    0x047ad50d78002b75,
    0x25d59774bbe4aa51,
    0x0b065bc6c3843171,
    0x8acf4c4b47616513,
    0x1157c14c21e43a11,
    0x81283c3166aa26f4,
    0xa3e8afe07f44ecc0,
    0x3286a50dfdf6bc89,
    0x7b765f24e0c918de,
    0xcd3acd1c2cb86166,
    0x775d6f67fa9cb2c3,
    0x09ddc27a303ce0c4,
    0xbcf56bca0e1f8331,
    0x04ca66edfabbde52,
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
