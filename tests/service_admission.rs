//! Admission control and failure isolation: over-budget queries get a
//! *typed* rejection while concurrent tenants finish untouched; a panicking
//! kernel in one session comes back as a typed error and never poisons the
//! shared pool; a concurrency ceiling serializes admission without losing
//! queries; a shut-down service declines rather than deadlocks.

use legobase::engine::plan::{Plan, QueryPlan};
use legobase::sql::tpch_sql;
use legobase::{Config, LegoBase, QueryError, QueryRequest, ServeOptions};

const SCALE: f64 = 0.002;

/// A 1-byte budget rejects any real query with `OverBudget` — while an
/// unbudgeted session on the same service completes the same query
/// correctly, concurrently.
#[test]
fn over_budget_rejected_while_concurrent_queries_finish() {
    let oracle =
        LegoBase::generate(SCALE).query(&QueryRequest::sql(tpch_sql(6))).expect("oracle Q6");
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));

    std::thread::scope(|scope| {
        let svc = &service;
        let ok = scope.spawn(move || svc.session().query(&QueryRequest::sql(tpch_sql(6))));
        let rejected = scope.spawn(move || {
            svc.session().with_memory_budget(1).query(&QueryRequest::sql(tpch_sql(6)))
        });

        let out = ok.join().expect("no panic").expect("unbudgeted session must succeed");
        assert!(out.result.rows() == oracle.result.rows());
        match rejected.join().expect("no panic") {
            Err(QueryError::OverBudget { estimated_bytes, budget_bytes, query }) => {
                assert_eq!(budget_bytes, 1);
                assert!(estimated_bytes > budget_bytes);
                assert!(query.contains("lineitem"), "rejection names the query");
            }
            Ok(_) => panic!("1-byte budget admitted a full scan"),
            Err(e) => panic!("expected OverBudget, got: {e}"),
        }
    });

    let stats = service.stats();
    assert_eq!(stats.queries_rejected, 1);
    assert_eq!(stats.queries_ok, 1);

    // A generous budget admits the same query on the same service.
    let out = service
        .session()
        .with_memory_budget(1 << 32)
        .query(&QueryRequest::sql(tpch_sql(6)))
        .expect("generous budget");
    assert!(out.result.rows() == oracle.result.rows());
}

/// A plan that panics in the engine (unknown table) yields a typed
/// `QueryPanicked` — and the service keeps serving parallel queries through
/// the same shared pool afterwards, round after round.
#[test]
fn panicking_plan_is_typed_and_does_not_poison_the_pool() {
    let oracle_sys = LegoBase::generate(SCALE);
    let settings = Config::OptC.settings().with_parallelism(4);
    let oracle = oracle_sys
        .query(&QueryRequest::sql(tpch_sql(1)).with_settings(settings))
        .expect("oracle Q1");

    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));
    let bogus = QueryPlan::new("bogus", Plan::scan("no_such_table"));
    for round in 0..3 {
        match service.session().query(&QueryRequest::plan(bogus.clone())) {
            Err(QueryError::QueryPanicked { query, message }) => {
                assert_eq!(query, "bogus");
                assert!(message.contains("no_such_table"), "round {round}: payload lost");
            }
            Ok(_) => panic!("round {round}: unknown-table plan executed"),
            Err(e) => panic!("round {round}: expected QueryPanicked, got: {e}"),
        }
        // The pool still serves degree-4 work, bit-identical as ever.
        let out = service
            .session()
            .query(&QueryRequest::sql(tpch_sql(1)).with_settings(settings))
            .unwrap_or_else(|e| panic!("round {round}: pool poisoned? {e}"));
        assert!(out.result.rows() == oracle.result.rows(), "round {round}");
    }
    assert_eq!(service.stats().queries_panicked, 3);
    assert_eq!(service.stats().queries_ok, 3);
}

/// Panicking and healthy sessions interleaved *concurrently*: every healthy
/// query still matches the oracle while another tenant's kernel keeps
/// panicking on the same shared pool.
#[test]
fn concurrent_panics_and_healthy_queries_coexist() {
    let oracle_sys = LegoBase::generate(SCALE);
    let settings = Config::OptC.settings().with_parallelism(4);
    let oracle = oracle_sys
        .query(&QueryRequest::sql(tpch_sql(6)).with_settings(settings))
        .expect("oracle Q6");

    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));
    std::thread::scope(|scope| {
        let svc = &service;
        for _ in 0..2 {
            scope.spawn(move || {
                let bogus = QueryPlan::new("bogus", Plan::scan("no_such_table"));
                for _ in 0..4 {
                    let r = svc.session().query(&QueryRequest::plan(bogus.clone()));
                    assert!(matches!(r, Err(QueryError::QueryPanicked { .. })));
                }
            });
        }
        for _ in 0..2 {
            let oracle = &oracle;
            scope.spawn(move || {
                let session = svc.session();
                for _ in 0..4 {
                    let out = session
                        .query(&QueryRequest::sql(tpch_sql(6)).with_settings(settings))
                        .expect("healthy tenant");
                    assert!(out.result.rows() == oracle.result.rows());
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.queries_panicked, 8);
    assert_eq!(stats.queries_ok, 8);
}

/// `max_in_flight = 1` admits one query at a time; blocked sessions wait
/// (never error, never deadlock) and every query completes correctly.
#[test]
fn in_flight_ceiling_serializes_without_losing_queries() {
    let oracle = LegoBase::generate(SCALE).query(&QueryRequest::sql(tpch_sql(6))).expect("oracle");
    let service = LegoBase::generate(SCALE)
        .serve_with(ServeOptions::default().with_workers(1).with_max_in_flight(1));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let svc = &service;
            let oracle = &oracle;
            scope.spawn(move || {
                let out = svc.session().query(&QueryRequest::sql(tpch_sql(6))).expect("admitted");
                assert!(out.result.rows() == oracle.result.rows());
            });
        }
    });
    assert_eq!(service.stats().queries_ok, 4);
}

/// After `shutdown()`, new queries get the typed `ShuttingDown` — admission
/// declines rather than blocking forever. Shutdown stays idempotent.
#[test]
fn shut_down_service_declines_new_queries() {
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(1));
    service.session().query(&QueryRequest::sql(tpch_sql(6))).expect("before shutdown");
    service.shutdown();
    service.shutdown(); // idempotent
    match service.session().query(&QueryRequest::sql(tpch_sql(6))) {
        Err(QueryError::ShuttingDown) => {}
        Ok(_) => panic!("shut-down service served a query"),
        Err(e) => panic!("expected ShuttingDown, got: {e}"),
    }
}
