//! The paper's running example (Fig. 8): TPC-H Q12 across all eight system
//! configurations of Table III, with the optimizations the SC pipeline
//! selected for it (Section 3's per-optimization walkthroughs all use Q12).
//!
//! ```text
//! cargo run --release -p legobase --example tpch_q12
//! ```

use legobase::{Config, LegoBase, QueryRequest};

fn main() {
    let system = LegoBase::generate(0.02);

    println!("== Q12 under every configuration of Table III ==");
    println!("{:<26} {:>12} {:>12}", "configuration", "load", "execute");
    let q12 = QueryRequest::plan(system.plan(12));
    let run = |config| {
        let out = system.query(&q12.clone().with_config(config)).expect("Q12 runs");
        let detail = out.detail.expect("the facade reports its load and compilation");
        (out.result, out.exec_time, detail)
    };
    let (reference, ..) = run(Config::Dbx);
    for config in Config::ALL {
        // A cold load per configuration, as in the paper: without this the
        // later rows would reuse the structures the earlier ones built.
        system.reset_store();
        let (result, exec_time, detail) = run(config);
        assert!(
            result.approx_eq(&reference, 1e-6),
            "{config:?} diverges: {:?}",
            result.diff(&reference, 1e-6)
        );
        println!("{:<26} {:>12?} {:>12?}", config.name(), detail.load_time, exec_time);
    }

    let (result, _, detail) = run(Config::OptC);
    println!("\nresult (ship mode → high/low line counts):");
    println!("{}", result.display(10));

    println!("what the pipeline specialized for Q12 (cf. Section 3):");
    let spec = &detail.compilation.spec;
    println!("  partitions:   {:?}", spec.fk_partitions);
    println!("  pk indexes:   {:?}", spec.pk_indexes);
    println!("  date indexes: {:?}", spec.date_indexes);
    println!("  dictionaries: {:?}", spec.dictionaries);
    let total_attrs: usize = spec.used_columns.values().map(Vec::len).sum();
    println!("  attributes loaded: {total_attrs} of {} (unused-field removal, Sec. 3.6.1)", 9 + 16);
}
