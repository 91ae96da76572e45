//! Stress and lifecycle properties of the query service: random plans fired
//! from random client-thread counts always match serial execution bit for
//! bit, and `shutdown()` drains in-flight queries and joins every worker —
//! no leaks, no deadlock, under repeated start/stop cycles.

use legobase::engine::expr::{AggKind, CmpOp, Expr};
use legobase::engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase::storage::Value;
use legobase::{Config, LegoBase, QueryError, QueryRequest, QueryService, ServeOptions, Settings};
use proptest::prelude::*;
use std::sync::OnceLock;

const SCALE: f64 = 0.002;

fn oracle_system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(SCALE))
}

fn service() -> &'static QueryService {
    static SERVICE: OnceLock<QueryService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2))
    })
}

/// A compact random-plan generator (a small cousin of `random_plans.rs`,
/// which test binaries cannot share): filtered scans of `orders` /
/// `lineitem`, an orders⋈lineitem PK/FK join, topped by a grouped
/// aggregation, a distinct projection, or a top-k sort — enough shape
/// variety to exercise scans, joins, aggregation, and sorts on the shared
/// pool.
fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    let source = (any::<bool>(), 0i64..1600, any::<bool>()).prop_map(|(join, okey, filtered)| {
        let orders = if filtered {
            Plan::Select {
                input: Box::new(Plan::scan("orders")),
                predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(Value::Int(okey))),
            }
        } else {
            Plan::scan("orders")
        };
        if join {
            Plan::HashJoin {
                left: Box::new(orders),
                right: Box::new(Plan::scan("lineitem")),
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
                residual: None,
            }
        } else {
            orders
        }
    });
    (source, 0usize..3, 1usize..15).prop_map(|(src, consumer, limit)| {
        // Column 7 (o_shippriority) is a low-cardinality group key; columns
        // 0/3 (o_orderkey, o_totalprice) are numeric aggregates — all in the
        // `orders` prefix, so the same indices work with and without the join.
        let plan = match consumer {
            0 => Plan::Sort {
                input: Box::new(Plan::Agg {
                    input: Box::new(src),
                    group_by: vec![7],
                    aggs: vec![
                        AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                        AggSpec::new(AggKind::Sum, Expr::col(3), "s"),
                    ],
                }),
                keys: vec![(0, SortOrder::Asc)],
            },
            1 => Plan::Distinct {
                input: Box::new(Plan::Project {
                    input: Box::new(src),
                    exprs: vec![(Expr::col(7), "k".into())],
                }),
            },
            _ => Plan::Limit {
                input: Box::new(Plan::Sort {
                    input: Box::new(src),
                    keys: vec![(0, SortOrder::Asc)],
                }),
                n: limit,
            },
        };
        QueryPlan::new("random", plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random plan, fired simultaneously from 2–5 client threads mixing
    /// serial and degree-4 settings, matches the single-process serial
    /// oracle bit for bit on every thread.
    #[test]
    fn concurrent_random_plans_match_serial(q in arb_plan(), threads in 2usize..6) {
        let serial = Config::OptC.settings();
        let parallel = serial.with_parallelism(4);
        let oracle_serial = oracle_system().query(&QueryRequest::plan(q.clone()).with_settings(serial)).unwrap().result;
        let oracle_parallel = oracle_system().query(&QueryRequest::plan(q.clone()).with_settings(parallel)).unwrap().result;
        let svc = service();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (q, oracle, settings): (&QueryPlan, &legobase::ResultTable, &Settings) =
                    if t % 2 == 0 {
                        (&q, &oracle_serial, &serial)
                    } else {
                        (&q, &oracle_parallel, &parallel)
                    };
                scope.spawn(move || {
                    let out = svc
                        .session()
                        .query(&QueryRequest::plan(q.clone()).with_settings(*settings))
                        .unwrap_or_else(|e| panic!("thread {t}: {e}"));
                    assert!(
                        out.result.rows() == oracle.rows(),
                        "thread {t}: concurrent result diverges from serial \
                         oracle on {:#?}",
                        q.root
                    );
                });
            }
        });
    }
}

/// `shutdown()` drains: a query in flight when shutdown begins either
/// completes with the correct result or was never admitted (typed
/// `ShuttingDown`) — it is never dropped, corrupted, or deadlocked. After
/// `shutdown()` returns, admission declines and the pool's workers are
/// joined; `into_system()` then restarts a fresh service over the same data.
/// Five start/stop cycles prove nothing leaks and nothing deadlocks.
#[test]
fn shutdown_drains_in_flight_queries_across_restart_cycles() {
    let oracle = oracle_system()
        .query(&QueryRequest::sql(legobase::sql::tpch_sql(6)))
        .expect("oracle Q6")
        .result;
    let mut system = LegoBase::generate(SCALE);
    for cycle in 0..5 {
        let service = system.serve_with(ServeOptions::default().with_workers(2));
        // Warm path proves the cycle's service works at all.
        let out = service
            .session()
            .query(&QueryRequest::sql(legobase::sql::tpch_sql(6)))
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        assert!(out.result.rows() == oracle.rows(), "cycle {cycle}");

        std::thread::scope(|scope| {
            let svc = &service;
            let oracle = &oracle;
            let in_flight = scope
                .spawn(move || svc.session().query(&QueryRequest::sql(legobase::sql::tpch_sql(6))));
            // Let the client race into admission, then shut down under it.
            std::thread::sleep(std::time::Duration::from_millis(1));
            svc.shutdown();
            match in_flight.join().expect("client must not panic") {
                Ok(out) => {
                    assert!(
                        out.result.rows() == oracle.rows(),
                        "cycle {cycle}: drained query returned a wrong result"
                    );
                }
                Err(QueryError::ShuttingDown) => {} // lost the admission race
                Err(e) => panic!("cycle {cycle}: expected a drained result, got: {e}"),
            }
        });

        // Post-shutdown: typed decline, never a hang.
        assert!(matches!(
            service.session().query(&QueryRequest::sql(legobase::sql::tpch_sql(6))),
            Err(QueryError::ShuttingDown)
        ));
        system = service.into_system();
    }
}
