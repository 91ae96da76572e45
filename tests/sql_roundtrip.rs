//! Round-trip property of the SQL frontend: printing a physical plan with
//! `plan_to_sql` and parsing the text back must yield a plan that computes
//! the same result. Exercised two ways:
//!
//! * all 22 hand-built TPC-H plans (stages, semi/anti joins, residuals,
//!   string kernels, cross-join stages — the realistic shapes), and
//! * random plans in the spirit of `random_plans.rs` (joins of all four
//!   kinds with optional residuals, grouped/global aggregation, distinct
//!   projections, top-k), via proptest.
//!
//! Equality is on *results*: the printer materializes every operator as a
//! `WITH` stage, so the round-tripped plan is staged rather than nested —
//! a representation change the engines must not observe.

use legobase::engine::expr::{AggKind, CmpOp, Expr};
use legobase::engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase::sql::{plan_named, plan_to_sql};
use legobase::storage::{Date, Value};
use legobase::{Config, LegoBase, QueryRequest};
use proptest::prelude::*;
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.002))
}

fn roundtrip_matches(q: &QueryPlan, config: Config) -> Result<(), String> {
    let sys = system();
    let sql = plan_to_sql(q, &sys.data.catalog);
    let parsed = plan_named(&sql, &q.name, &sys.data.catalog)
        .map_err(|e| format!("printed SQL failed to parse:\n{}\n{}", sql, e.render(&sql)))?;
    let original = sys.query(&QueryRequest::plan(q.clone()).with_config(config)).unwrap().result;
    let reparsed =
        sys.query(&QueryRequest::plan(parsed.clone()).with_config(config)).unwrap().result;
    if reparsed.approx_eq(&original, 1e-6) {
        Ok(())
    } else {
        Err(format!(
            "round-trip diverges: {}\nSQL:\n{sql}",
            reparsed.diff(&original, 1e-6).unwrap_or_default()
        ))
    }
}

/// Every hand-built TPC-H plan survives print → parse → execute.
#[test]
fn tpch_hand_plans_roundtrip() {
    let sys = system();
    for n in 1..=22 {
        let q = sys.plan(n);
        roundtrip_matches(&q, Config::OptC).unwrap_or_else(|e| panic!("Q{n}: {e}"));
    }
}

// ---------------------------------------------------------------------
// Random plans (compact sibling of random_plans.rs).
// ---------------------------------------------------------------------

/// A filter menu entry: column plus a literal for it.
fn filter_expr(table: &str, pick: usize, frac: f64) -> Expr {
    let (col, value) = match table {
        "customer" => match pick % 2 {
            0 => (0, Value::Int(1 + (400.0 * frac) as i64)),
            _ => (5, Value::Float(-1000.0 + 11000.0 * frac)),
        },
        "orders" => match pick % 3 {
            0 => (1, Value::Int(1 + (400.0 * frac) as i64)),
            1 => (3, Value::Float(1000.0 + 399_000.0 * frac)),
            _ => (4, Value::Date(Date::from_ymd(1992 + (frac * 6.0) as i32, 6, 1))),
        },
        "nation" => (2, Value::Int((4.0 * frac) as i64)),
        _ => match pick % 3 {
            0 => (4, Value::Float(1.0 + 49.0 * frac)),
            1 => (6, Value::Float(0.1 * frac)),
            _ => (10, Value::Date(Date::from_ymd(1993 + (frac * 5.0) as i32, 3, 1))),
        },
    };
    let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][pick % 4];
    Expr::cmp(op, Expr::col(col), Expr::lit(value))
}

/// (left, right, lkey, rkey, left arity, residual column pair)
type JoinMenu = (&'static str, &'static str, usize, usize, usize, (usize, usize));

const JOINS: [JoinMenu; 3] = [
    ("customer", "orders", 0, 1, 8, (0, 0)),
    ("nation", "customer", 0, 3, 4, (0, 0)),
    ("orders", "lineitem", 0, 0, 9, (3, 5)),
];

/// Group/aggregate menu per left table: (group col, numeric agg col).
fn menu(table: &str) -> (usize, usize) {
    match table {
        "customer" => (3, 5),
        "orders" => (7, 3),
        "nation" => (2, 0),
        _ => (8, 4),
    }
}

fn arb_source() -> impl Strategy<Value = (Plan, &'static str)> {
    let single = (
        proptest::sample::select(vec!["customer", "orders", "nation", "lineitem"]),
        0usize..12,
        0.0f64..1.0,
        any::<bool>(),
    )
        .prop_map(|(t, pick, frac, filtered)| {
            let plan = if filtered {
                Plan::Select {
                    input: Box::new(Plan::scan(t)),
                    predicate: filter_expr(t, pick, frac),
                }
            } else {
                Plan::scan(t)
            };
            (plan, t)
        });
    let join = (0usize..3, 0usize..4, 0usize..3, 0usize..12, 0.0f64..1.0).prop_map(
        |(which, kind, residual, pick, frac)| {
            let (lt, rt, lk, rk, l_arity, res_cols) = JOINS[which];
            let kind = [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti][kind];
            let right = if residual == 1 {
                Plan::Select {
                    input: Box::new(Plan::scan(rt)),
                    predicate: filter_expr(rt, pick, frac),
                }
            } else {
                Plan::scan(rt)
            };
            let residual = (residual == 0)
                .then(|| Expr::lt(Expr::col(res_cols.0), Expr::col(l_arity + res_cols.1)));
            let plan = Plan::HashJoin {
                left: Box::new(Plan::scan(lt)),
                right: Box::new(right),
                left_keys: vec![lk],
                right_keys: vec![rk],
                kind,
                residual,
            };
            (plan, lt)
        },
    );
    prop_oneof![1 => single, 2 => join]
}

fn arb_query() -> impl Strategy<Value = QueryPlan> {
    (arb_source(), 0usize..3, any::<bool>(), 1usize..20).prop_map(
        |((src, table), consumer, grouped, limit)| {
            let (group_col, agg_col) = menu(table);
            let plan = match consumer {
                0 => {
                    let aggs = vec![
                        AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                        AggSpec::new(AggKind::Sum, Expr::col(agg_col), "s0"),
                        AggSpec::new(AggKind::Min, Expr::col(agg_col), "m"),
                    ];
                    let group_by = if grouped { vec![group_col] } else { vec![] };
                    let agg = Plan::Agg { input: Box::new(src), group_by, aggs };
                    if grouped {
                        Plan::Sort { input: Box::new(agg), keys: vec![(0, SortOrder::Asc)] }
                    } else {
                        agg
                    }
                }
                1 => Plan::Distinct {
                    input: Box::new(Plan::Project {
                        input: Box::new(src),
                        exprs: vec![(Expr::col(group_col), "k".into())],
                    }),
                },
                _ => Plan::Limit {
                    input: Box::new(Plan::Sort {
                        input: Box::new(Plan::Agg {
                            input: Box::new(src),
                            group_by: vec![group_col],
                            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
                        }),
                        keys: vec![(1, SortOrder::Desc), (0, SortOrder::Asc)],
                    }),
                    n: limit,
                },
            };
            QueryPlan::new("roundtrip", plan)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// print → parse → execute equals direct execution, under both a
    /// generic push configuration and the fully specialized executor.
    #[test]
    fn random_plans_roundtrip(q in arb_query()) {
        for config in [Config::NaiveC, Config::OptC] {
            if let Err(e) = roundtrip_matches(&q, config) {
                prop_assert!(false, "{:?} on {:#?}: {}", config, q.root, e);
            }
        }
    }
}
