//! The paper's running example (Fig. 8): TPC-H Q12 across all eight system
//! configurations of Table III, with the optimizations the SC pipeline
//! selected for it (Section 3's per-optimization walkthroughs all use Q12).
//!
//! ```text
//! cargo run --release -p legobase --example tpch_q12
//! ```

use legobase::{Config, LegoBase};

fn main() {
    let system = LegoBase::generate(0.02);

    println!("== Q12 under every configuration of Table III ==");
    println!("{:<26} {:>12} {:>12}", "configuration", "load", "execute");
    let reference = system.run(12, Config::Dbx);
    for config in Config::ALL {
        // A cold load per configuration, as in the paper: without this the
        // later rows would reuse the structures the earlier ones built.
        system.reset_store();
        let out = system.run(12, config);
        assert!(
            out.result.approx_eq(&reference.result, 1e-6),
            "{config:?} diverges: {:?}",
            out.result.diff(&reference.result, 1e-6)
        );
        println!("{:<26} {:>12?} {:>12?}", config.name(), out.load_time, out.exec_time);
    }

    let out = system.run(12, Config::OptC);
    println!("\nresult (ship mode → high/low line counts):");
    println!("{}", out.result.display(10));

    println!("what the pipeline specialized for Q12 (cf. Section 3):");
    let spec = &out.compilation.spec;
    println!("  partitions:   {:?}", spec.fk_partitions);
    println!("  pk indexes:   {:?}", spec.pk_indexes);
    println!("  date indexes: {:?}", spec.date_indexes);
    println!("  dictionaries: {:?}", spec.dictionaries);
    let total_attrs: usize = spec.used_columns.values().map(Vec::len).sum();
    println!("  attributes loaded: {total_attrs} of {} (unused-field removal, Sec. 3.6.1)", 9 + 16);
}
