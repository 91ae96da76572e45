//! Cross-engine edge-case tests: plan shapes and inputs the TPC-H queries do
//! not exercise. Every configuration of Table III must agree with the
//! Volcano reference on all of them — empty inputs, zero limits, duplicate
//! elimination, computed projections, and aggregates over filtered-out data.

use legobase::engine::expr::{AggKind, Expr};
use legobase::engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase::{Config, LegoBase, QueryRequest};
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.005))
}

/// Runs a plan under every configuration and checks agreement with DBX.
fn check_all(name: &str, plan: Plan) {
    let q = QueryPlan::new(name, plan);
    let sys = system();
    let reference =
        sys.query(&QueryRequest::plan(q.clone()).with_config(Config::Dbx)).unwrap().result;
    for cfg in Config::ALL {
        if cfg == Config::Dbx {
            continue;
        }
        let got = sys.query(&QueryRequest::plan(q.clone()).with_config(cfg)).unwrap().result;
        assert!(
            got.approx_eq(&reference, 1e-6),
            "{name}: {cfg:?} disagrees with DBX: {:?}",
            got.diff(&reference, 1e-6)
        );
    }
}

/// A predicate no region row satisfies (r_regionkey is 0..5).
fn impossible() -> Expr {
    Expr::lt(Expr::col(0), Expr::lit(0i64))
}

#[test]
fn limit_zero_returns_nothing() {
    check_all("limit0", Plan::Limit { input: Box::new(Plan::scan("region")), n: 0 });
}

#[test]
fn limit_beyond_input_is_identity() {
    check_all("limit_large", Plan::Limit { input: Box::new(Plan::scan("region")), n: 1_000_000 });
}

#[test]
fn distinct_collapses_duplicates() {
    // nation.n_regionkey has 5 distinct values over 25 rows.
    check_all(
        "distinct_regionkeys",
        Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::scan("nation")),
                exprs: vec![(Expr::col(2), "n_regionkey".into())],
            }),
        },
    );
}

#[test]
fn project_computed_expressions() {
    check_all(
        "computed_projection",
        Plan::Project {
            input: Box::new(Plan::scan("nation")),
            exprs: vec![
                (Expr::col(0), "key".into()),
                (Expr::add(Expr::mul(Expr::col(0), Expr::lit(3i64)), Expr::col(2)), "mix".into()),
                (
                    Expr::case(
                        Expr::lt(Expr::col(2), Expr::lit(2i64)),
                        Expr::lit(1i64),
                        Expr::lit(0i64),
                    ),
                    "flag".into(),
                ),
            ],
        },
    );
}

#[test]
fn select_nothing_then_global_aggregate() {
    // SQL: a global aggregate over an empty input still returns one row
    // (COUNT = 0, SUM/AVG/MIN/MAX = NULL).
    check_all(
        "empty_global_agg",
        Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("region")),
                predicate: impossible(),
            }),
            group_by: vec![],
            aggs: vec![
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                AggSpec::new(AggKind::Sum, Expr::col(0), "s"),
                AggSpec::new(AggKind::Min, Expr::col(0), "lo"),
                AggSpec::new(AggKind::Max, Expr::col(0), "hi"),
            ],
        },
    );
}

#[test]
fn select_nothing_then_grouped_aggregate() {
    // A grouped aggregate over an empty input returns zero rows.
    check_all(
        "empty_grouped_agg",
        Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("nation")),
                predicate: impossible(),
            }),
            group_by: vec![2],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        },
    );
}

#[test]
fn join_against_empty_side() {
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
        check_all(
            &format!("empty_build_{kind:?}"),
            Plan::Agg {
                input: Box::new(Plan::HashJoin {
                    left: Box::new(Plan::Select {
                        input: Box::new(Plan::scan("nation")),
                        predicate: impossible(),
                    }),
                    right: Box::new(Plan::scan("customer")),
                    left_keys: vec![0],
                    right_keys: vec![3],
                    kind,
                    residual: None,
                }),
                group_by: vec![],
                aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
            },
        );
    }
}

#[test]
fn sort_limit_composition() {
    // Top-3 nations by key, descending — exercises Sort+Limit interplay.
    check_all(
        "top3",
        Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::scan("nation")),
                keys: vec![(0, SortOrder::Desc)],
            }),
            n: 3,
        },
    );
}

#[test]
fn self_join_on_region() {
    // nation ⋈ nation on regionkey: checks key packing over a small
    // duplicate-heavy domain (25×25/5 = 125 pairs).
    check_all(
        "self_join",
        Plan::Agg {
            input: Box::new(Plan::HashJoin {
                left: Box::new(Plan::scan("nation")),
                right: Box::new(Plan::scan("nation")),
                left_keys: vec![2],
                right_keys: vec![2],
                kind: JoinKind::Inner,
                residual: None,
            }),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        },
    );
}

#[test]
fn multi_stage_query_with_view() {
    // A Q15-style staged query: materialize per-nation customer counts, then
    // join the stage back against nation. Exercises `#stage` buffer scans
    // through every engine (the one plan shape TPC-H queries use that the
    // random generator does not).
    let stage = Plan::Agg {
        input: Box::new(Plan::scan("customer")),
        group_by: vec![3], // c_nationkey
        aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n_customers")],
    };
    let root = Plan::Sort {
        input: Box::new(Plan::HashJoin {
            left: Box::new(Plan::scan("#counts")),
            right: Box::new(Plan::scan("nation")),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        }),
        keys: vec![(0, SortOrder::Asc)],
    };
    let q = QueryPlan::new("staged", root).with_stage("counts", stage);
    let sys = system();
    let reference =
        sys.query(&QueryRequest::plan(q.clone()).with_config(Config::Dbx)).unwrap().result;
    for cfg in Config::ALL {
        if cfg == Config::Dbx {
            continue;
        }
        let got = sys.query(&QueryRequest::plan(q.clone()).with_config(cfg)).unwrap().result;
        assert!(
            got.approx_eq(&reference, 1e-6),
            "staged: {cfg:?} disagrees with DBX: {:?}",
            got.diff(&reference, 1e-6)
        );
    }
}

#[test]
fn distinct_on_empty_input() {
    check_all(
        "distinct_empty",
        Plan::Distinct {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("region")),
                predicate: impossible(),
            }),
        },
    );
}

/// An integer `SUM` must stay exact above 2^53: 2^53 + 1 has no `f64`
/// representation, so an engine that adds integers through a float kernel
/// rounds every input to 2^53 and loses one unit per row. The compiled
/// specialized configurations fold integer-only arithmetic in `i64` (over a
/// plain or packed key column alike) and must match the interpreter exactly.
#[test]
fn integer_sum_is_exact_above_2_53() {
    const ODD: i64 = (1 << 53) + 1;
    let big = Expr::add(Expr::mul(Expr::col(0), Expr::lit(0i64)), Expr::lit(ODD));
    let q = QueryPlan::new(
        "exact_int_sum",
        Plan::Sort {
            input: Box::new(Plan::Agg {
                input: Box::new(Plan::scan("nation")),
                group_by: vec![2], // n_regionkey: five groups of five nations
                aggs: vec![
                    AggSpec::new(AggKind::Sum, big, "s"),
                    AggSpec::new(AggKind::Sum, Expr::col(0), "keys"),
                ],
            }),
            keys: vec![(0, SortOrder::Asc)],
        },
    );
    let sys = system();
    let reference =
        sys.query(&QueryRequest::plan(q.clone()).with_config(Config::Dbx)).unwrap().result;
    assert_eq!(reference.rows().len(), 5);
    for row in reference.rows() {
        assert_eq!(row[1], legobase::storage::Value::Int(5 * ODD));
    }
    for cfg in [Config::HyPerLike, Config::StrDictC, Config::OptC] {
        let got = sys.query(&QueryRequest::plan(q.clone()).with_config(cfg)).unwrap().result;
        assert_eq!(got.rows(), reference.rows(), "{cfg:?}: integer SUM lost exactness");
    }
}
