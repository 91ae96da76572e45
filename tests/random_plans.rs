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

use legobase::engine::expr::{AggKind, CmpOp, Expr};
use legobase::engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase::storage::{Date, Value};
use legobase::{Config, LegoBase, QueryRequest};
use proptest::prelude::*;
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.002))
}

/// A filterable column: (index, literal generator domain).
#[derive(Clone, Debug)]
enum Lit {
    Int(i64, i64),
    Float(f64, f64),
    Date(i32, i32), // years
}

/// Per-table filter and aggregation column menus (index, domain).
fn table_menu(table: &str) -> (Vec<(usize, Lit)>, Vec<usize>, Vec<usize>) {
    // (filter columns, group-by columns, numeric agg columns)
    match table {
        "customer" => (
            vec![(0, Lit::Int(1, 400)), (3, Lit::Int(0, 24)), (5, Lit::Float(-1000.0, 10000.0))],
            vec![3],
            vec![0, 5],
        ),
        "orders" => (
            vec![
                (0, Lit::Int(1, 1600)),
                (1, Lit::Int(1, 400)),
                (3, Lit::Float(1000.0, 400_000.0)),
                (4, Lit::Date(1992, 1999)),
                (7, Lit::Int(0, 1)),
            ],
            vec![1, 7],
            vec![3, 7],
        ),
        "nation" => (vec![(0, Lit::Int(0, 24)), (2, Lit::Int(0, 4))], vec![2], vec![0, 2]),
        "lineitem" => (
            vec![
                (0, Lit::Int(1, 1600)),
                (4, Lit::Float(1.0, 50.0)),
                (6, Lit::Float(0.0, 0.1)),
                (10, Lit::Date(1992, 1999)),
            ],
            vec![8, 9], // l_returnflag, l_linestatus (dictionary group keys)
            vec![4, 5],
        ),
        other => panic!("no menu for {other}"),
    }
}

fn arb_predicate(table: &'static str) -> impl Strategy<Value = Expr> {
    let (filters, _, _) = table_menu(table);
    let one = (0..filters.len(), 0usize..4, 0.0f64..1.0).prop_map(move |(i, op, frac)| {
        let (col, lit) = &filters[i];
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op];
        let value = match lit {
            Lit::Int(lo, hi) => Value::Int(lo + ((hi - lo) as f64 * frac) as i64),
            Lit::Float(lo, hi) => Value::Float(lo + (hi - lo) * frac),
            Lit::Date(lo, hi) => Value::Date(Date::from_ymd(
                lo + ((hi - lo) as f64 * frac) as i32,
                1 + (frac * 11.0) as u32,
                1,
            )),
        };
        Expr::cmp(op, Expr::col(*col), Expr::lit(value))
    });
    proptest::collection::vec(one, 1..3).prop_map(Expr::all)
}

/// A random source: a filtered scan of one table, or a join along a real
/// PK/FK relationship (with independent filters on both sides).
#[derive(Clone, Debug)]
struct Source {
    plan: Plan,
    /// Which base table's menu applies to the output prefix.
    agg_table: &'static str,
    /// Offset of that table's columns in the join output.
    offset: usize,
}

fn arb_source() -> impl Strategy<Value = Source> {
    let single = proptest::sample::select(vec!["customer", "orders", "nation", "lineitem"])
        .prop_flat_map(|t: &'static str| {
            (Just(t), arb_predicate(t), any::<bool>()).prop_map(|(t, pred, filtered)| Source {
                plan: if filtered {
                    Plan::Select { input: Box::new(Plan::scan(t)), predicate: pred }
                } else {
                    Plan::scan(t)
                },
                agg_table: t,
                offset: 0,
            })
        });
    // Join menu: (left, right, lkey, rkey, left arity, residual column pair).
    // The residual column pair is a numeric left column and a numeric right
    // column whose `<` comparison over the concatenated row makes a
    // non-trivial non-equi condition.
    let join = (
        proptest::sample::select(vec![
            ("customer", "orders", 0usize, 1usize, 8usize, (0usize, 0usize)),
            ("nation", "customer", 0usize, 3usize, 4usize, (0usize, 0usize)),
            ("orders", "lineitem", 0usize, 0usize, 9usize, (3usize, 5usize)),
        ]),
        any::<bool>(),
        0usize..4,
        0usize..3,
    )
        .prop_flat_map(
            |((lt, rt, lk, rk, l_arity, res_cols), filter_right, kind, residual)| {
                let kind =
                    [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti][kind];
                (
                    Just((lt, rt, lk, rk, l_arity, res_cols, kind, residual)),
                    arb_predicate(rt),
                    Just(filter_right),
                )
                    .prop_map(
                        |(
                            (lt, rt, lk, rk, l_arity, res_cols, kind, residual),
                            rpred,
                            filter_right,
                        )| {
                            let right: Plan = if filter_right {
                                Plan::Select { input: Box::new(Plan::scan(rt)), predicate: rpred }
                            } else {
                                Plan::scan(rt)
                            };
                            // A third of the joins carry a residual: left.col <
                            // right.col over the concatenated schema.
                            let residual = (residual == 0).then(|| {
                                Expr::lt(Expr::col(res_cols.0), Expr::col(l_arity + res_cols.1))
                            });
                            Source {
                                plan: Plan::HashJoin {
                                    left: Box::new(Plan::scan(lt)),
                                    right: Box::new(right),
                                    left_keys: vec![lk],
                                    right_keys: vec![rk],
                                    kind,
                                    residual,
                                },
                                // Semi/anti joins emit only left columns; inner and
                                // outer prepend them. Either way the left table's
                                // menu applies at offset 0.
                                agg_table: lt,
                                offset: 0,
                            }
                        },
                    )
            },
        );
    prop_oneof![3 => single, 2 => join]
}

/// Wraps a source in a random consumer: aggregate (grouped or global),
/// distinct projection, or sort+limit.
fn arb_query() -> impl Strategy<Value = QueryPlan> {
    (arb_source(), 0usize..3, any::<bool>(), 1usize..20).prop_map(
        |(src, consumer, grouped, limit)| {
            let (_, group_cols, agg_cols) = table_menu(src.agg_table);
            let plan = match consumer {
                // Aggregation.
                0 => {
                    let aggs = vec![
                        AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                        AggSpec::new(AggKind::Sum, Expr::col(src.offset + agg_cols[0]), "s0"),
                        AggSpec::new(
                            AggKind::Min,
                            Expr::col(src.offset + agg_cols[agg_cols.len() - 1]),
                            "m",
                        ),
                    ];
                    let group_by = if grouped { vec![src.offset + group_cols[0]] } else { vec![] };
                    let agg = Plan::Agg { input: Box::new(src.plan), group_by, aggs };
                    if grouped {
                        Plan::Sort { input: Box::new(agg), keys: vec![(0, SortOrder::Asc)] }
                    } else {
                        agg
                    }
                }
                // Distinct over a small projection.
                1 => Plan::Distinct {
                    input: Box::new(Plan::Project {
                        input: Box::new(src.plan),
                        exprs: vec![(Expr::col(src.offset + group_cols[0]), "k".into())],
                    }),
                },
                // Sort + limit (top-k) over the group column.
                _ => Plan::Limit {
                    input: Box::new(Plan::Sort {
                        input: Box::new(Plan::Agg {
                            input: Box::new(src.plan),
                            group_by: vec![src.offset + group_cols[0]],
                            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
                        }),
                        keys: vec![(1, SortOrder::Desc), (0, SortOrder::Asc)],
                    }),
                    n: limit,
                },
            };
            QueryPlan::new("random", plan)
        },
    )
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
