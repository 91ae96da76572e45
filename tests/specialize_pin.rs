//! SC's decisions alone are SC's decisions: `Pipeline::specialize` — every
//! transformer's plan-level `decide`, no IR, no C — gives the same
//! `Specialization` as the full compile (`Pipeline::run`), which also
//! builds, lowers and emits C. A served miss runs only the first, the facade
//! and `figures` the second, and the executor must not be able to tell.
//! Compared through `write_spec`, the digest the output pins use.
//!
//! Covered: the 22 TPC-H queries as hand-built plans, as lowered SQL and as
//! optimized SQL (planned against SF 0.002 statistics, as `miss_pin` does),
//! and the seeded random plans `random_plans.rs` runs — each under
//! `Config::ALL` × degree {1, 4}. At degree 4 the plan-level join and sort
//! clearances are also held to the join structures and keyed sorts the IR
//! holds where `Parallelize` runs, which is where they used to be counted.

#[path = "../crates/sc/tests/pin/mod.rs"]
mod pin;
mod plans;

use legobase::engine::optimizer;
use legobase::engine::QueryPlan;
use legobase::sc::ir::{Program, Stmt};
use legobase::sc::Pipeline;
use legobase::storage::Catalog;
use legobase::{Config, Specialization, TpchData};
use pin::{write_spec, Fnv};
use plans::arb_query;
use proptest::prelude::*;
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| TpchData::generate(0.002))
}

fn digest(spec: &Specialization) -> u64 {
    let mut h = Fnv::new();
    write_spec(&mut h, spec);
    h.0
}

/// The join structures and keyed sorts the program holds: what `Parallelize`
/// counted in the IR before it counted `HashJoin`s and keyed `Sort`s in the
/// plan — a join table in every lowering state (generic multi-map, chained
/// bucket array, load-time partition lookup).
fn ir_counts(prog: &Program) -> (usize, usize) {
    let (mut joins, mut sorts) = (0, 0);
    prog.walk(&mut |s| match s {
        Stmt::MultiMapNew { .. }
        | Stmt::BucketArrayNew { .. }
        | Stmt::PartitionLookupLoop { .. } => joins += 1,
        Stmt::SortEmitted { keys } if !keys.is_empty() => sorts += 1,
        _ => {}
    });
    (joins, sorts)
}

/// The first configuration where the decisions alone differ from the full
/// compile's — or, at degree 4, where the plan-level join/sort clearances
/// differ from what the IR holds when `Parallelize` runs — rendered; `None`
/// when they agree everywhere.
fn disagreement(plan: &QueryPlan, cat: &Catalog) -> Option<String> {
    for cfg in Config::ALL {
        for degree in [1, 4] {
            let settings = cfg.settings().with_parallelism(degree);
            let pipeline = Pipeline::for_settings(&settings);
            let decided = pipeline.specialize(plan, cat, &settings);
            let mut in_ir = None;
            let compiled = pipeline
                .run_observed(plan, cat, &settings, |phase, prog| {
                    if phase.name == "Parallelize" {
                        in_ir = Some(ir_counts(prog));
                    }
                })
                .spec;
            let label = format!("{} under {cfg:?} at degree {degree}", plan.name);
            if digest(&decided) != digest(&compiled) {
                return Some(format!(
                    "{label}:\n specialize: {decided:?}\n compile:    {compiled:?}"
                ));
            }
            let clearances = (decided.parallel_joins, decided.parallel_sorts);
            if in_ir.is_some_and(|counts| counts != clearances) {
                return Some(format!(
                    "{label}: the plan clears (joins, sorts) {clearances:?}, the IR holds {in_ir:?}"
                ));
            }
        }
    }
    None
}

#[test]
fn decisions_match_the_full_compile_on_tpch() {
    let cat = &data().catalog;
    for n in 1..=22 {
        let text = legobase::sql::tpch_sql(n);
        let lowered = legobase::sql::plan(text, cat).expect("TPC-H text lowers");
        let (optimized, _) = optimizer::optimize(&lowered, cat);
        for (form, plan) in [
            ("hand", legobase::queries::query(cat, n)),
            ("lowered", lowered),
            ("optimized", optimized),
        ] {
            if let Some(diff) = disagreement(&plan, cat) {
                panic!("Q{n} ({form} plan): {diff}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decisions_match_the_full_compile_on_random_plans(q in arb_query()) {
        let diff = disagreement(&q, &data().catalog);
        prop_assert!(diff.is_none(), "{}\non {:#?}", diff.unwrap_or_default(), q.root);
    }
}
