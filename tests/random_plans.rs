//! Randomized cross-engine equivalence: property-based plan generation.
//!
//! The repo's strongest correctness oracle is that every engine
//! configuration computes identical results. The TPC-H queries and the
//! hand-written edge cases pin 22+10 plan shapes; this suite generates
//! *random* plans — scans, filters, joins along real key relationships,
//! grouped and global aggregations, sorts and limits — and checks that the
//! fully specialized executor (with partitioning, hash-map lowering,
//! dictionaries, column layout, code motion) agrees with the interpreted
//! Volcano baseline on every one of them.

mod plans;

use legobase::{Config, LegoBase, QueryRequest};
use plans::arb_query;
use proptest::prelude::*;
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.002))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random plan computes the same result under the interpreted
    /// Volcano baseline, both push-engine variants, the HyPer-style
    /// configuration, and the fully optimized specialized executor
    /// (compiled and interpreted variants).
    #[test]
    fn engines_agree_on_random_plans(q in arb_query()) {
        let sys = system();
        let reference = sys.query(&QueryRequest::plan(q.clone()).with_config(Config::Dbx)).unwrap().result;
        for cfg in [
            Config::NaiveC,
            Config::TpchC,
            Config::HyPerLike,
            Config::OptC,
            Config::OptScala,
        ] {
            let got = sys.query(&QueryRequest::plan(q.clone()).with_config(cfg)).unwrap().result;
            prop_assert!(
                got.approx_eq(&reference, 1e-6),
                "{:?} disagrees with DBX on {:#?}: {:?}",
                cfg,
                q.root,
                got.diff(&reference, 1e-6)
            );
        }
    }

    /// Morsel-driven parallelism must be invisible in the results of random
    /// plans too: every degree agrees with serial execution (1e-9 — only
    /// floating-point reassociation separates them), and degrees ≥ 2 are
    /// bit-identical to each other (fixed morsel boundaries, ordered
    /// merges). Runs under both the compiled and the interpreted executor.
    #[test]
    fn parallel_degrees_agree_on_random_plans(q in arb_query()) {
        let sys = system();
        for base in [Config::OptC, Config::OptScala] {
            let serial = sys.query(&QueryRequest::plan(q.clone()).with_config(base)).unwrap().result;
            let mut by_degree = Vec::new();
            for degree in [2usize, 4] {
                let got = sys.query(&QueryRequest::plan(q.clone()).with_settings(base.settings().with_parallelism(degree))).unwrap().result;
                prop_assert!(
                    got.approx_eq(&serial, 1e-9),
                    "{:?} degree {} disagrees with serial on {:#?}: {:?}",
                    base,
                    degree,
                    q.root,
                    got.diff(&serial, 1e-9)
                );
                by_degree.push(got);
            }
            prop_assert!(
                by_degree[0].sorted_rows() == by_degree[1].sorted_rows(),
                "{:?}: degrees 2 and 4 not bit-identical on {:#?}",
                base,
                q.root
            );
        }
    }
}
