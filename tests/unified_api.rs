//! One front door: a `QueryRequest` in, a `QueryResponse` / `QueryError`
//! out, on every surface. The facade, a service session and a loopback TCP
//! client run the same request stages (`crates/core/src/request.rs`), so
//! the same request must get the same answer from each — the test that
//! fails if the stages ever fork again.

use legobase::client::{Client, ClientError};
use legobase::engine::plan::{Plan, QueryPlan};
use legobase::sql::tpch_sql;
use legobase::{wire, LegoBase, QueryError, QueryRequest, QueryResponse, ServeOptions};
use std::time::Duration;

const SCALE: f64 = 0.002;

/// Everything of an answer that must not depend on the surface: result
/// bytes, schema and explanation, or the error's variant with every field
/// but `elapsed`.
fn answer(outcome: Result<QueryResponse, QueryError>) -> String {
    match outcome {
        Ok(r) => format!(
            "ok: {:?} rows {:?} explanation {:?}",
            r.result.0.schema,
            wire::encode_batch(r.result.rows()),
            r.explanation
        ),
        Err(QueryError::DeadlineExceeded { query, deadline, elapsed: _ }) => {
            format!("deadline of {deadline:?} exceeded by `{query}`")
        }
        Err(QueryError::Sql(e)) => format!("sql: {} at {:?}", e.message, e.span),
        Err(e @ (QueryError::OverBudget { .. } | QueryError::QueryPanicked { .. })) => {
            format!("{e:?}")
        }
        Err(QueryError::ShuttingDown) => "shutting down".to_string(),
    }
}

/// The same six requests — SQL, a hand-built plan, explain, over budget, an
/// expired deadline, a misspelt table — through all three surfaces.
#[test]
fn surfaces_agree() {
    let facade = LegoBase::generate(SCALE);
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));
    let session = service.session();
    let server = LegoBase::generate(SCALE)
        .serve_tcp("127.0.0.1:0", ServeOptions::default().with_workers(2))
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let misspelt = "SELECT count(*) AS n FROM lineitme";
    let hand_plan = QueryRequest::plan(facade.plan(6));
    let requests = [
        ("sql", QueryRequest::sql(tpch_sql(6))),
        // Plans cross the wire as their SQL rendering, so that is the
        // request all three surfaces are compared on.
        ("hand plan", hand_plan.clone().rendered(&facade.data.catalog)),
        ("explain", QueryRequest::sql(tpch_sql(5)).with_explain(true)),
        ("over budget", QueryRequest::sql(tpch_sql(1)).with_memory_budget(16)),
        ("expired", QueryRequest::sql(tpch_sql(1)).with_deadline(Duration::from_nanos(1))),
        ("misspelt table", QueryRequest::sql(misspelt)),
    ];
    for (what, request) in &requests {
        let want = answer(facade.query(request));
        assert_eq!(answer(session.query(request)), want, "{what}: session diverges");
        let over_wire = client.run(request).map_err(|e| match e {
            ClientError::Query(e) => e,
            ClientError::Wire(e) => panic!("{what}: the conversation broke: {e}"),
        });
        assert_eq!(answer(over_wire), want, "{what}: wire diverges");
        let kind = match *what {
            "sql" | "hand plan" | "explain" => "ok: ",
            "over budget" => "OverBudget",
            "expired" => "deadline of 1ns",
            _ => "sql: ",
        };
        assert!(want.starts_with(kind), "{what}: {want}");
    }
    // An explain reply says which environment overrides it was planned
    // under, on both in-process surfaces.
    for explained in [facade.query(&requests[2].1), session.query(&requests[2].1)] {
        assert_eq!(explained.expect("explain").env.as_ref(), Some(facade.env()));
    }
    // The span of the misspelt name survives every surface.
    match facade.query(&requests[5].1) {
        Err(QueryError::Sql(e)) => assert_eq!(&misspelt[e.span.start..e.span.end], "lineitme"),
        _ => panic!("a misspelt table is a spanned SQL error"),
    }
    // In process the plan itself is a request too: never rewritten, never
    // cached, and the same rows as its rendering.
    let plan_answer = answer(facade.query(&hand_plan));
    assert_eq!(answer(session.query(&hand_plan)), plan_answer);
    assert_eq!(plan_answer, answer(facade.query(&requests[1].1)));
    server.shutdown();
    service.shutdown();
}

/// The one documented difference between the in-process surfaces: the
/// facade lets a kernel panic propagate, a session types it.
#[test]
fn kernel_panics_propagate_from_the_facade_and_are_typed_by_a_session() {
    let bogus = QueryRequest::plan(QueryPlan::new("bogus", Plan::scan("no_such_table")));
    let facade = LegoBase::generate(SCALE);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| facade.query(&bogus)));
    assert!(unwound.is_err(), "the facade must not swallow a kernel panic");
    let service = facade.serve_with(ServeOptions::default().with_workers(1));
    assert!(matches!(service.session().query(&bogus), Err(QueryError::QueryPanicked { .. })));
    service.shutdown();
}

/// A request-level memory budget overrides the session default (and the
/// other way around: a session budget applies when the request sets none).
#[test]
fn request_budget_overrides_session_budget() {
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));
    let session = service.session().with_memory_budget(1); // reject everything
    match session.query(&QueryRequest::sql(tpch_sql(6))) {
        Err(QueryError::OverBudget { budget_bytes: 1, .. }) => {}
        other => panic!(
            "session budget must apply: {:?}",
            other.map(|_| "ok").map_err(|e| e.to_string())
        ),
    }
    // The request's own (generous) budget wins over the session's.
    session
        .query(&QueryRequest::sql(tpch_sql(6)).with_memory_budget(usize::MAX))
        .expect("request budget overrides session budget");
    service.shutdown();
}

/// Facade deadline semantics: expiry is typed, completion is byte-stable.
#[test]
fn facade_deadlines_are_typed_and_nonintrusive() {
    let sys = LegoBase::generate(SCALE);
    match sys.query(&QueryRequest::sql(tpch_sql(1)).with_deadline(Duration::from_nanos(1))) {
        Err(QueryError::DeadlineExceeded { deadline, .. }) => {
            assert_eq!(deadline, Duration::from_nanos(1))
        }
        other => panic!(
            "expected DeadlineExceeded: {:?}",
            other.map(|_| "ok").map_err(|e| e.to_string())
        ),
    }
    let with = sys
        .query(&QueryRequest::sql(tpch_sql(6)).with_deadline(Duration::from_secs(300)))
        .expect("generous deadline");
    let without = sys.query(&QueryRequest::sql(tpch_sql(6))).expect("no deadline");
    assert_eq!(wire::encode_batch(with.result.rows()), wire::encode_batch(without.result.rows()));
}
