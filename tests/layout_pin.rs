//! The structures each query loads, pinned: every column's layout (plain,
//! dictionary, packed, packed dictionary), every partition, PK index and
//! date index the loader asks the store for. SC's decisions choose them
//! (`sc::specialize`, no IR) and `engine::db::required_structures` turns
//! the report into store keys, exactly as a load does; a change to the
//! report that moves no layout leaves this green.
//!
//! Covered: the 22 TPC-H queries as hand-built plans and as optimized SQL
//! (planned against SF 0.002 statistics, as `miss_pin` does), each under
//! `Config::ALL` × degree {1, 4} × encoding on/off. The structures are read
//! without the `LEGOBASE_*` overrides, so the pin holds under every CI leg.

// Only the digest is used here, not `write_spec`.
#[path = "../crates/sc/tests/pin/mod.rs"]
#[allow(dead_code)]
mod pin;

use legobase::engine::db::required_structures;
use legobase::engine::optimizer;
use legobase::engine::QueryPlan;
use legobase::{Config, Settings, Specialization, TpchData};
use pin::Fnv;
use std::fmt::Write;

/// One plan's digest: the sorted store keys it loads under every
/// configuration, degree and encoding choice.
fn digest(plan: &QueryPlan, data: &TpchData) -> u64 {
    let mut h = Fnv::new();
    for cfg in Config::ALL {
        for degree in [1, 4] {
            for encoding in [true, false] {
                let settings: Settings =
                    cfg.settings().with_parallelism(degree).with(|s| s.encoding = encoding);
                let spec = legobase::sc::specialize(plan, &data.catalog, &settings);
                let mut keys: Vec<String> = required_structures(data, &spec, &settings)
                    .iter()
                    .map(|k| format!("{k:?}"))
                    .collect();
                keys.sort();
                writeln!(h, "{cfg:?}/{degree}/{encoding}: {}", keys.join(" ")).unwrap();
            }
        }
    }
    h.0
}

/// Recorded on the parent of the change that reduced the specialization
/// report to the decisions the loader and executor read (hand plan,
/// optimized SQL) per query.
const PINNED: [(u64, u64); 22] = [
    (0xa7a099fd4d400293, 0xa7a099fd4d400293),
    (0x176b6219653c27b1, 0x4cccd9198874022f),
    (0x8e439b04c78bd33d, 0x8e439b04c78bd33d),
    (0x6fda4aafe80d2dbf, 0x6fda4aafe80d2dbf),
    (0xe1fd02d9f4ec6d79, 0x77173d518ed1f35b),
    (0xf788bbe6e4f533e7, 0xf788bbe6e4f533e7),
    (0xc6355a8d27ccce37, 0xac5c0e8cb537e46d),
    (0x29015735ec05000f, 0x675c6d303f478195),
    (0x4b3717aa27586bd7, 0xd3646d552e8749cd),
    (0xf4334cbb1e7ca595, 0xc834e974995072b9),
    (0x9019e8b9d4cf0815, 0x694d4626d9636f39),
    (0x150f61285eb093a5, 0x150f61285eb093a5),
    (0x209edd8b004f3411, 0x209edd8b004f3411),
    (0x555991020c88c0d5, 0x555991020c88c0d5),
    (0x26e68b530a856def, 0x9ac8d3e5f05f5155),
    (0xb49e696f8b5e017d, 0xb4d1ffeff1f0211f),
    (0x3b428e0917286b21, 0x3b7a65bd4a4f9a6f),
    (0x7a2d18f7611356a3, 0x7a2d18f7611356a3),
    (0x5e2a00be59b5dfdd, 0x177827ac43398ffd),
    (0xb13318716934a579, 0x1cd687f20ca422b7),
    (0x044b5591bc335283, 0x00653daac044a529),
    (0xb6bb4fdd62e34fa9, 0xb6bb4fdd62e34fa9),
];

#[test]
fn loaded_structures_are_pinned() {
    let data = TpchData::generate(0.002);
    let cat = &data.catalog;
    let got: Vec<(u64, u64)> = (1..=22)
        .map(|n| {
            let lowered = legobase::sql::plan(legobase::sql::tpch_sql(n), cat).expect("lowers");
            let (optimized, _) = optimizer::optimize(&lowered, cat);
            (digest(&legobase::queries::query(cat, n), &data), digest(&optimized, &data))
        })
        .collect();
    let rendered: Vec<String> =
        got.iter().map(|(a, b)| format!("(0x{a:016x}, 0x{b:016x})")).collect();
    assert_eq!(
        got,
        PINNED,
        "loaded structures moved; if on purpose, pin:\nconst PINNED: [(u64, u64); 22] = [{}];",
        rendered.join(", ")
    );
}
