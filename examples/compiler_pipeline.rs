//! The progressive-lowering walkthrough of Fig. 7: compile TPC-H Q6 with the
//! SC pipeline, print each phase's effect on the IR, and show the final
//! generated C.
//!
//! ```text
//! cargo run --release -p legobase --example compiler_pipeline
//! ```

use legobase::sc::Pipeline;
use legobase::{LegoBase, Settings};

fn main() {
    let system = LegoBase::generate(0.002);
    let query = system.plan(6);
    let settings = Settings::optimized();
    // The hook sees every stage; keep the operator-inlined one for Fig. 7c.
    let mut inlined = None;
    let result = Pipeline::for_settings(&settings).run_observed(
        &query,
        &system.data.catalog,
        &settings,
        |phase, prog| {
            if phase.name == "OperatorInlining" {
                inlined = Some(legobase::sc::scala::emit_scala(prog));
            }
        },
    );

    println!("== transformation pipeline for {} (Fig. 5b order) ==", query.name);
    println!("{:<38} {:>8} {:>12}", "phase", "IR size", "time");
    for phase in &result.trace {
        println!(
            "{:<38} {:>8} {:>9.2}ms",
            phase.name,
            phase.size,
            phase.duration.as_secs_f64() * 1e3
        );
    }

    println!("\n== specialization report (consumed by the loader/executor) ==");
    println!("fk partitions: {:?}", result.spec.fk_partitions);
    println!("pk indexes:    {:?}", result.spec.pk_indexes);
    println!("date indexes:  {:?}", result.spec.date_indexes);
    println!("dictionaries:  {:?}", result.spec.dictionaries);
    println!("used columns:  {:?}", result.spec.used_columns);

    println!("\n== operator-inlined program (Fig. 7c analog, Scala rendering) ==");
    println!("{}", inlined.expect("OperatorInlining is always the first phase"));

    println!("== fully lowered program (Scala rendering) ==");
    println!("{}", legobase::sc::scala::emit_scala(&result.program));

    println!("== generated C (Fig. 7g analog) ==");
    println!("{}", result.c_source);
}
