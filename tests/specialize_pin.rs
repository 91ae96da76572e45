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
//! `Config::ALL` × degree {1, 4}.

#[path = "../crates/sc/tests/pin/mod.rs"]
mod pin;
mod plans;

use legobase::engine::optimizer;
use legobase::engine::QueryPlan;
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

/// The first configuration where the decisions alone differ from the full
/// compile's, rendered; `None` when they agree everywhere.
fn disagreement(plan: &QueryPlan, cat: &Catalog) -> Option<String> {
    for cfg in Config::ALL {
        for degree in [1, 4] {
            let settings = cfg.settings().with_parallelism(degree);
            let pipeline = Pipeline::for_settings(&settings);
            let decided = pipeline.specialize(plan, cat, &settings);
            let compiled = pipeline.run(plan, cat, &settings).spec;
            let label = format!("{} under {cfg:?} at degree {degree}", plan.name);
            if digest(&decided) != digest(&compiled) {
                return Some(format!(
                    "{label}:\n specialize: {decided:?}\n compile:    {compiled:?}"
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
