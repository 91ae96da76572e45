//! The frontend's correctness oracle: every TPC-H query parsed from its
//! embedded SQL text must produce the **same result as the hand-built
//! plan** under **every** engine configuration of Table III. The hand-built
//! plans are themselves pinned against each other by `tpch_equivalence`, so
//! agreement here proves the whole text → AST → resolution → lowering
//! pipeline end to end — including under `LEGOBASE_PARALLELISM=4`, which CI
//! uses to run this same suite through the morsel-parallel code paths.

use legobase::sql::{plan_named, tpch_sql};
use legobase::{Config, LegoBase, QueryError, QueryRequest};

const SCALE: f64 = 0.002;
const EPS: f64 = 1e-6;

fn check_sql_queries(range: impl Iterator<Item = usize>) {
    let system = LegoBase::generate(SCALE);
    for n in range {
        let sql = tpch_sql(n);
        let parsed = plan_named(sql, &format!("Q{n}"), &system.data.catalog)
            .unwrap_or_else(|e| panic!("Q{n} failed to lower:\n{}", e.render(sql)));
        let hand = system.plan(n);
        for config in Config::ALL {
            let from_sql =
                system.query(&QueryRequest::plan(parsed.clone()).with_config(config)).unwrap();
            let from_hand =
                system.query(&QueryRequest::plan(hand.clone()).with_config(config)).unwrap();
            assert!(
                from_sql.result.approx_eq(&from_hand.result, EPS),
                "Q{n} under {config:?}: SQL plan diverges from the hand-built plan: {}",
                from_sql.result.diff(&from_hand.result, EPS).unwrap_or_default()
            );
        }
    }
}

#[test]
fn q1_to_q6_sql_matches_hand_built() {
    check_sql_queries(1..=6);
}

#[test]
fn q7_to_q12_sql_matches_hand_built() {
    check_sql_queries(7..=12);
}

#[test]
fn q13_to_q17_sql_matches_hand_built() {
    check_sql_queries(13..=17);
}

#[test]
fn q18_to_q22_sql_matches_hand_built() {
    check_sql_queries(18..=22);
}

/// The SQL-lowered plans (which shape predicates and projections differently
/// from the hand-built ones, so the `Encode` transformer sees different
/// expression trees) must also be insensitive to the encoded-column
/// representation: bit-identical rows with encoding on vs forced off, under
/// the fully specialized configuration and at parallelism 4.
#[test]
fn sql_plans_encoded_match_plain() {
    let system = LegoBase::generate(SCALE);
    let optimized = legobase::Settings::optimized();
    for n in 1..=22 {
        let sql = tpch_sql(n);
        let parsed = plan_named(sql, &format!("Q{n}"), &system.data.catalog)
            .unwrap_or_else(|e| panic!("Q{n} failed to lower:\n{}", e.render(sql)));
        for settings in [optimized, optimized.with_parallelism(4)] {
            let on =
                system.query(&QueryRequest::plan(parsed.clone()).with_settings(settings)).unwrap();
            let off = system
                .query(
                    &QueryRequest::plan(parsed.clone())
                        .with_settings(settings.with(|s| s.encoding = false)),
                )
                .unwrap();
            assert_eq!(
                on.result.sorted_rows(),
                off.result.sorted_rows(),
                "Q{n} (SQL plan, degree {}): encoded diverges from plain",
                settings.parallelism
            );
        }
    }
}

/// The selective queries that are empty at the tiny default scale must stay
/// equal at a scale where they produce rows (mirrors the guard in
/// `tpch_equivalence`), so the oracle is not vacuous for them.
#[test]
fn selective_queries_match_at_larger_scale() {
    let system = LegoBase::generate(0.02);
    for n in [2usize, 8, 17, 18, 19] {
        let sql = tpch_sql(n);
        let parsed = plan_named(sql, &format!("Q{n}"), &system.data.catalog)
            .unwrap_or_else(|e| panic!("Q{n} failed to lower:\n{}", e.render(sql)));
        let reference = system.query(&QueryRequest::plan(system.plan(n))).unwrap();
        assert!(!reference.result.is_empty(), "Q{n} still empty at SF 0.02");
        let got = system.query(&QueryRequest::plan(parsed.clone())).unwrap();
        assert!(
            got.result.approx_eq(&reference.result, EPS),
            "Q{n}: {}",
            got.result.diff(&reference.result, EPS).unwrap_or_default()
        );
    }
}

/// A SQL request on the facade parses, runs, and reports spanned errors
/// instead of panicking.
#[test]
fn sql_requests_on_the_facade() {
    let system = LegoBase::generate(0.002);
    let sql = "SELECT l_returnflag, count(*) AS n FROM lineitem \
               GROUP BY l_returnflag ORDER BY l_returnflag";
    let out = system.query(&QueryRequest::sql(sql)).expect("valid SQL runs");
    assert!(!out.result.is_empty());
    assert_eq!(out.result.rows()[0].len(), 2);

    match system.query(&QueryRequest::sql("SELECT * FROM no_such_table")) {
        Err(QueryError::Sql(e)) => assert!(e.message.contains("no_such_table"), "{e}"),
        Err(e) => panic!("unknown table must be a frontend error, got {e}"),
        Ok(_) => panic!("unknown table must be a frontend error"),
    }
}

/// A CTE may be named like a stage the lowering generates for a subquery
/// (`__s1`, …): the generated names must avoid every CTE of the query, not
/// just the ones lowered so far, or a later CTE silently replaces the
/// subquery's stage and the query answers wrongly.
#[test]
fn cte_named_like_a_generated_stage() {
    let system = LegoBase::generate(SCALE);
    let text = |cte: &str| {
        format!(
            "WITH big AS (SELECT o_orderkey, o_totalprice FROM orders \
                          WHERE o_totalprice > (SELECT avg(o_totalprice) AS a FROM orders)), \
                  {cte} AS (SELECT n_nationkey FROM nation WHERE n_regionkey = 1) \
             SELECT count(*) AS c FROM big JOIN {cte} ON o_orderkey = n_nationkey"
        )
    };
    let (clash, plain) = (text("__s1"), text("nat"));
    let lowered = legobase::sql::plan(&clash, &system.data.catalog).expect("valid SQL lowers");
    let mut names: Vec<&str> = lowered.stages.iter().map(|(n, _)| n.as_str()).collect();
    let stages = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), stages, "stage names must be unique: {:?}", lowered.stages);
    let run = |sql: &str| system.query(&QueryRequest::sql(sql)).expect("valid SQL runs").result;
    assert_eq!(run(&clash).rows(), run(&plain).rows(), "the CTE's name changed the answer");
}
