//! SC's output, pinned: what the compiler produces for the 22 hand plans is
//! the oracle for "same compiler output" (like `archive_v2`'s pin on the
//! archive bytes). A change that moves any phase's IR, the final IR, the C
//! text or the specialization report fails here; a PR that changes SC output
//! on purpose regenerates the digests from the failure message.

mod pin;

use legobase_engine::{Config, QueryPlan, Settings, Specialization};
use legobase_sc::Pipeline;
use legobase_storage::Catalog;
use pin::{write_spec, Fnv};
use std::fmt::Write;

/// One query's digest over `Config::ALL` × degree {1, 4} × encoding on/off:
/// every phase's IR (through the pipeline's hook), the final IR, the C text
/// and the report.
fn digest(q: &QueryPlan, cat: &Catalog) -> u64 {
    let mut h = Fnv::new();
    for cfg in Config::ALL {
        for degree in [1, 4] {
            for encoding in [true, false] {
                let settings: Settings =
                    cfg.settings().with_parallelism(degree).with(|s| s.encoding = encoding);
                writeln!(h, "{cfg:?}/{degree}/{encoding}").unwrap();
                let result = Pipeline::for_settings(&settings).run_observed(
                    q,
                    cat,
                    &settings,
                    |phase, prog| writeln!(h, "{}\n{prog:?}", phase.name).unwrap(),
                );
                writeln!(h, "{:?}\n{}", result.program, result.c_source).unwrap();
                write_spec(&mut h, &result.spec);
            }
        }
    }
    h.0
}

/// Recorded after the `FieldPromotion` numbering fix and before the
/// traversal framework moved to in-place rewriting (PR 21).
const PINNED: [u64; 22] = [
    0xaeb784bce75633ed,
    0xb269376f67d7b2f2,
    0x8cf8ac22c2c40657,
    0x4a7825311e7d92bb,
    0xd3b9e5e174fa97ed,
    0x4b870556ead1be59,
    0x88f7a854c94f9a75,
    0xc9f42fa51bdbd5b9,
    0x0274be8fc4912b7d,
    0x1023a6aee6d72f8b,
    0x82e522095758a981,
    0xd134284ecdec23a9,
    0x31191488618697dd,
    0x379420fb4f08b223,
    0x9b5a0174b28e60e3,
    0x3b82b8ba66f43a9f,
    0x653aa612bca7e199,
    0x9ac5b46efaf56dc3,
    0x20438acdb4d8281f,
    0x33807ea341122cc5,
    0x7ec53ffc924652f4,
    0xaf9ce6250f61ca8b,
];

#[test]
fn sc_output_is_pinned() {
    let cat = legobase_tpch::catalog();
    let got: Vec<u64> =
        legobase_queries::all_queries(&cat).iter().map(|q| digest(q, &cat)).collect();
    let rendered: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(
        got,
        PINNED,
        "SC output moved; if on purpose, pin:\nconst PINNED: [u64; 22] = [{}];",
        rendered.join(", ")
    );
}

/// Two compiles of one plan in one process give the same IR and C: nothing
/// the compiler emits may depend on a `HashMap`'s per-instance order.
#[test]
fn compiling_twice_gives_the_same_output() {
    let cat = legobase_tpch::catalog();
    for q in legobase_queries::all_queries(&cat) {
        for cfg in Config::ALL {
            let settings = cfg.settings();
            let a = legobase_sc::compile(&q, &cat, &settings);
            let b = legobase_sc::compile(&q, &cat, &settings);
            assert_eq!(
                format!("{:?}", a.program),
                format!("{:?}", b.program),
                "{} {cfg:?}",
                q.name
            );
            assert_eq!(a.c_source, b.c_source, "{} {cfg:?}", q.name);
        }
    }
}
