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
/// traversal framework moved to in-place rewriting. Moved on
/// purpose when the report lost its parallel decisions and unpack
/// strategies: the C lost its parallel banners, the Encode banner counts
/// packed columns only, and the report records `packed_columns`.
const PINNED: [u64; 22] = [
    0xfbb896294aad2787,
    0x8ad9bdff7964e9ed,
    0x918f0d22f40e3875,
    0x20613bad0cc9f261,
    0x0ec9a33120339831,
    0xac43af9d489674b1,
    0xcd9389921ba993f9,
    0xe8512077611e439d,
    0x5750d9d1d7fb9c7b,
    0xf72da9c718515543,
    0x9d4266a47a10d26b,
    0xcb6f6c527a20acc9,
    0xbbc3dc3b092ef2fb,
    0xdb5212ea4bf7328d,
    0x0dabafaa41207f2f,
    0xa707bbb2e447caad,
    0x9669de6c0dbcd9f9,
    0x58fb154e03464725,
    0x480e4b559534a18f,
    0xb0e81534e21c8575,
    0x990c43d51db4c81b,
    0x718843ad5b98be77,
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
