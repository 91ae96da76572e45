//! Inter-operator optimization: eliminating redundant materializations
//! (Section 3.1, Fig. 9).
//!
//! The paper's motivating example removes the aggregate operator's own hash
//! table when a hash join immediately consumes the aggregation on its group
//! key: the aggregates are materialized directly in the join's structure.
//!
//! In this engine, the optimization lives inside the specialized executor
//! (`crate::specialized`): when a join's build side is `Agg` grouped by
//! exactly the join key, the aggregation's internal key→slot index (direct
//! array, lowered chained map, or hash map) *is* the join hash table, so no
//! second structure is built and no re-hashing of the aggregation output
//! happens. This module provides the plan-level pattern detector (useful for
//! the SC pipeline's reporting) and the correctness tests.

use crate::plan::{JoinKind, Plan};

/// True when the Fig. 9 pattern applies to this join node: an inner hash
/// join whose build (left) side is an aggregation grouped by a single key
/// that is exactly the join key.
pub fn agg_join_fusable(plan: &Plan) -> bool {
    match plan {
        Plan::HashJoin { left, left_keys, kind, .. } => {
            *kind == JoinKind::Inner
                && left_keys.as_slice() == [0]
                && matches!(left.as_ref(), Plan::Agg { group_by, .. } if group_by.len() == 1)
        }
        _ => false,
    }
}

/// Counts fusable join sites in a query plan (reported by the SC pipeline).
pub fn count_fusable(plan: &Plan) -> usize {
    let mut n = 0;
    plan.walk(&mut |p| {
        if agg_join_fusable(p) {
            n += 1;
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggKind, Expr};
    use crate::plan::{AggSpec, QueryPlan, SortOrder};
    use crate::settings::Config;
    use crate::spec::Specialization;
    use crate::{specialized, volcano, GenericDb, SpecializedDb};
    use legobase_tpch::TpchData;

    /// The motivating example of Fig. 2: aggregate orders per customer, join
    /// the aggregation with the customer relation.
    fn fig2_style_plan() -> QueryPlan {
        let agg = Plan::Agg {
            input: Box::new(Plan::scan("orders")),
            group_by: vec![1], // o_custkey
            aggs: vec![
                AggSpec::new(AggKind::Sum, Expr::col(3), "total_spent"),
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "n_orders"),
            ],
        };
        let join = Plan::HashJoin {
            left: Box::new(agg),
            right: Box::new(Plan::Select {
                input: Box::new(Plan::scan("customer")),
                predicate: Expr::gt(Expr::col(5), Expr::lit(0.0)), // c_acctbal > 0
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        };
        let agg2 = Plan::Agg {
            input: Box::new(join),
            group_by: vec![3 + 3], // c_nationkey (agg output arity is 3)
            aggs: vec![
                AggSpec::new(AggKind::Sum, Expr::col(1), "nation_total"),
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
            ],
        };
        QueryPlan::new(
            "fig2",
            Plan::Sort { input: Box::new(agg2), keys: vec![(0, SortOrder::Asc)] },
        )
    }

    #[test]
    fn pattern_detector() {
        let q = fig2_style_plan();
        assert_eq!(count_fusable(&q.root), 1);
        assert_eq!(count_fusable(&Plan::scan("orders")), 0);
    }

    /// Fusion must be semantically invisible: results match the Volcano
    /// reference and the unfused specialized run.
    #[test]
    fn fusion_preserves_results() {
        let data = TpchData::generate(0.002);
        let q = fig2_style_plan();
        let base = GenericDb::load(
            &data,
            &crate::BaseStore::new(),
            &Specialization::default().scanning_all_tables(),
            &Config::Dbx.settings(),
        );
        let reference = volcano::execute(&q, &base);

        // With a PK index on the probe side the partitioned probe serves the
        // join; without one the aggregation's own group index does (the
        // fused probe) — except under interpreted generic keys (Opt/Scala),
        // which have no coded index to probe and must join normally.
        let with_pk_index = [true, false];
        let configs = [Config::HyPerLike, Config::OptC, Config::OptScala];
        for (pk_index, base_cfg) in with_pk_index.into_iter().flat_map(|p| configs.map(|c| (p, c)))
        {
            let mut spec = Specialization::default();
            if pk_index {
                spec.add_pk_index("customer", 0);
            }
            let mut on = base_cfg.settings();
            on.interop_fusion = true;
            on.field_removal = false; // no used-column list in this test spec
            let mut off = on;
            off.interop_fusion = false;
            let db_on = SpecializedDb::load(&data, &crate::BaseStore::new(), &spec, &on);
            let db_off = SpecializedDb::load(&data, &crate::BaseStore::new(), &spec, &off);
            let r_on = specialized::execute(&q, &db_on, &on);
            let r_off = specialized::execute(&q, &db_off, &off);
            assert!(
                r_on.approx_eq(&reference, 1e-6),
                "{base_cfg:?} (pk index: {pk_index}) fused diverges: {:?}",
                r_on.diff(&reference, 1e-6)
            );
            assert!(
                r_off.approx_eq(&reference, 1e-6),
                "{base_cfg:?} (pk index: {pk_index}) unfused diverges: {:?}",
                r_off.diff(&reference, 1e-6)
            );
        }
    }
}
