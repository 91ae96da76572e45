//! Quickstart: generate TPC-H data, run one query under the interpreted
//! baseline and the fully optimized configuration, compare results and
//! timings.
//!
//! ```text
//! cargo run --release -p legobase --example quickstart
//! ```

use legobase::{Config, LegoBase, QueryRequest};

fn main() {
    // TPC-H at scale factor 0.01 (≈60k lineitems), deterministic.
    let system = LegoBase::generate(0.01);

    println!("running TPC-H Q6 under two configurations of Table III…\n");
    let q6 = QueryRequest::plan(system.plan(6));
    let baseline = system.query(&q6.clone().with_config(Config::Dbx)).expect("Q6 runs");
    let optimized = system.query(&q6.with_config(Config::OptC)).expect("Q6 runs");

    println!("DBX (interpreted row store):   {:?}", baseline.exec_time);
    println!("LegoBase(Opt/C) (specialized): {:?}", optimized.exec_time);
    println!(
        "speedup: {:.1}x\n",
        baseline.exec_time.as_secs_f64() / optimized.exec_time.as_secs_f64()
    );

    assert!(
        optimized.result.approx_eq(&baseline.result, 1e-6),
        "configurations disagree: {:?}",
        optimized.result.diff(&baseline.result, 1e-6)
    );
    println!("result (identical under both engines):");
    println!("{}", optimized.result.display(5));

    // What the SC pipeline decided for this query.
    let spec = optimized.detail.expect("the facade reports its compilation").compilation.spec;
    println!("specialization derived by the SC pipeline:");
    println!("  date indices:   {:?}", spec.date_indexes);
    println!("  used columns:   {:?}", spec.used_columns.get("lineitem"));
}
