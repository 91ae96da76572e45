//! Cross-crate property tests: for randomly generated predicates and
//! aggregations over the TPC-H data, the interpreted Volcano engine and the
//! fully specialized executor must agree. This exercises the whole stack —
//! plan construction, SC compilation (specialization derivation), loading
//! (dictionaries, partitions, indexes), kernels, and execution — on inputs
//! no hand-written test would think of.

use legobase::engine::expr::AggKind;
use legobase::engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase::engine::Expr;
use legobase::storage::{Date, Value};
use legobase::{Config, LegoBase, QueryRequest};
use proptest::prelude::*;
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.002))
}

/// A random predicate over lineitem attributes, always type-correct.
fn arb_lineitem_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        // l_quantity comparisons
        (0.0f64..55.0, 0usize..4).prop_map(|(v, op)| cmp(op, Expr::col(4), Expr::lit(v))),
        // l_discount range
        (0.0f64..0.11).prop_map(|v| Expr::ge(Expr::col(6), Expr::lit(v))),
        // l_shipdate ranges (date-index path)
        (1992i32..1999, 1u32..13)
            .prop_map(|(y, m)| { Expr::ge(Expr::col(10), Expr::lit(Date::from_ymd(y, m, 1))) }),
        (1992i32..1999)
            .prop_map(|y| { Expr::lt(Expr::col(10), Expr::lit(Date::from_ymd(y, 12, 28))) }),
        // string predicates on l_shipmode / l_returnflag (dictionary path)
        prop_oneof![Just("MAIL"), Just("SHIP"), Just("AIR"), Just("RAIL"), Just("NOPE")]
            .prop_map(|s| Expr::eq(Expr::col(14), Expr::lit(s))),
        prop_oneof![Just("R"), Just("N"), Just("A")]
            .prop_map(|s| Expr::ne(Expr::col(8), Expr::lit(s))),
        // l_shipinstruct prefix (ordered-dictionary path)
        prop_oneof![Just("DELIVER"), Just("TAKE"), Just("CO")]
            .prop_map(|p| Expr::starts_with(Expr::col(13), p)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::or(a, b)),
            inner.prop_map(Expr::not),
        ]
    })
}

fn cmp(op: usize, a: Expr, b: Expr) -> Expr {
    match op {
        0 => Expr::lt(a, b),
        1 => Expr::le(a, b),
        2 => Expr::gt(a, b),
        _ => Expr::ge(a, b),
    }
}

/// Builds a full query around the random predicate: filter, join with
/// orders, group, aggregate, sort.
fn query_for(pred: Expr, group_col: usize, join: bool) -> QueryPlan {
    let filtered = Plan::Select { input: Box::new(Plan::scan("lineitem")), predicate: pred };
    let input = if join {
        Plan::HashJoin {
            left: Box::new(filtered),
            right: Box::new(Plan::scan("orders")),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        }
    } else {
        filtered
    };
    let agg = Plan::Agg {
        input: Box::new(input),
        group_by: vec![group_col],
        aggs: vec![
            AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
            AggSpec::new(AggKind::Sum, Expr::col(5), "sum_price"),
            AggSpec::new(
                AggKind::Avg,
                Expr::mul(Expr::col(5), Expr::sub(Expr::lit(1.0), Expr::col(6))),
                "avg_disc_price",
            ),
        ],
    };
    QueryPlan::new("prop", Plan::Sort { input: Box::new(agg), keys: vec![(0, SortOrder::Asc)] })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Volcano (interpreted, generic) ≡ OptC (compiled, specialized) for
    /// random filter+group+agg queries over lineitem.
    #[test]
    fn random_aggregations_agree(pred in arb_lineitem_pred(), group in prop_oneof![Just(8usize), Just(9), Just(14)]) {
        let system = system();
        let q = query_for(pred, group, false);
        let reference = system.query(&QueryRequest::plan(q.clone()).with_config(Config::Dbx)).unwrap();
        for config in [Config::TpchC, Config::StrDictC, Config::OptC, Config::OptScala] {
            let got = system.query(&QueryRequest::plan(q.clone()).with_config(config)).unwrap();
            prop_assert!(
                got.result.approx_eq(&reference.result, 1e-6),
                "{config:?}: {}",
                got.result.diff(&reference.result, 1e-6).unwrap_or_default()
            );
        }
    }

    /// Same with a join against orders in the middle (partitioned-join and
    /// PK-index paths).
    #[test]
    fn random_join_aggregations_agree(pred in arb_lineitem_pred()) {
        let system = system();
        let q = query_for(pred, 14, true);
        let reference = system.query(&QueryRequest::plan(q.clone()).with_config(Config::Dbx)).unwrap();
        for config in [Config::HyPerLike, Config::OptC] {
            let got = system.query(&QueryRequest::plan(q.clone()).with_config(config)).unwrap();
            prop_assert!(
                got.result.approx_eq(&reference.result, 1e-6),
                "{config:?}: {}",
                got.result.diff(&reference.result, 1e-6).unwrap_or_default()
            );
        }
    }

    /// The SC pipeline's C output for random queries is always non-empty and
    /// structurally complete (one function per query).
    #[test]
    fn random_queries_compile_to_c(pred in arb_lineitem_pred()) {
        let system = system();
        let q = query_for(pred, 9, false);
        let result = legobase::sc::compile(&q, &system.data.catalog, &legobase::Settings::optimized());
        prop_assert!(result.c_source.contains("void prop(void)"));
        prop_assert!(result.trace.len() >= 8);
    }
}

/// Pin Value total-order invariants at the integration level (the engines
/// rely on them for sorting and grouping).
#[test]
fn value_order_hash_consistency() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let vals = [
        Value::Null,
        Value::Int(-3),
        Value::Int(3),
        Value::Float(3.0),
        Value::Float(3.5),
        Value::from("a"),
        Value::Date(Date::from_ymd(1995, 1, 1)),
        Value::Bool(true),
    ];
    for a in &vals {
        for b in &vals {
            if a == b {
                let h = |v: &Value| {
                    let mut s = DefaultHasher::new();
                    v.hash(&mut s);
                    s.finish()
                };
                assert_eq!(h(a), h(b), "{a:?} == {b:?} but hashes differ");
            }
            // Antisymmetry.
            assert_eq!(a.cmp(b), b.cmp(a).reverse());
        }
    }
}
