//! The service's plan and prepared caches: hit/miss accounting, result and
//! optimizer-report equivalence between cached and uncached executions, key
//! canonicalization (whitespace and comments never miss), key structure
//! (settings split the prepared cache but not the plan cache), and
//! invalidation on a catalog statistics refresh.

use legobase::sql::tpch_sql;
use legobase::{Config, LegoBase, QueryRequest, ServeOptions, TpchData};

const SCALE: f64 = 0.002;

/// True when CI's `LEGOBASE_OPTIMIZE=0` leg forces the optimizer off — the
/// plan cache then keys every text identically and no `OptReport` exists.
fn optimizer_forced_off() -> bool {
    legobase::EnvOverrides::from_env().optimize_off
}

/// First execution misses both caches, second hits both; results and
/// optimizer reports are identical either way — and identical to the plain
/// per-query `LegoBase::query` oracle.
#[test]
fn hit_miss_counters_and_cached_equivalence() {
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(1));
    let session = service.session();
    let sql = tpch_sql(6);

    let first = session.query(&QueryRequest::sql(sql)).expect("Q6");
    assert!(!first.plan_cached && !first.prepared_cached);
    let s = service.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (1, 0));
    assert_eq!((s.prepared_cache_misses, s.prepared_cache_hits), (1, 0));

    let second = session.query(&QueryRequest::sql(sql)).expect("Q6 cached");
    assert!(second.plan_cached && second.prepared_cached);
    let s = service.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (1, 1));
    assert_eq!((s.prepared_cache_misses, s.prepared_cache_hits), (1, 1));

    assert!(first.result.rows() == second.result.rows(), "cached result differs");
    match (&first.opt, &second.opt) {
        (Some(a), Some(b)) => assert_eq!(a.summary(), b.summary(), "cached OptReport differs"),
        (None, None) => assert!(optimizer_forced_off(), "OptReport missing with optimizer on"),
        _ => panic!("cached and uncached disagree on OptReport presence"),
    }

    // The oracle agrees bit-for-bit, reports included.
    let oracle = LegoBase::generate(SCALE).query(&QueryRequest::sql(sql)).expect("oracle Q6");
    assert!(first.result.rows() == oracle.result.rows());
    if let (Some(a), Some(o)) = (&first.opt, &oracle.opt) {
        assert_eq!(a.summary(), o.summary(), "service OptReport differs from oracle");
    }
}

/// The cache key is the canonicalized token stream: reformatting the text
/// and adding `--` comments still hits; a different configuration hits the
/// plan cache (same text + optimize flag) but misses the prepared cache
/// (different settings).
#[test]
fn key_canonicalization_and_key_structure() {
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(1));
    let session = service.session();
    let sql = tpch_sql(6);

    session.query(&QueryRequest::sql(sql)).expect("Q6");
    let reformatted = format!("  -- reformatted copy\n{sql}\n  -- trailing comment");
    let out = session.query(&QueryRequest::sql(&reformatted)).expect("Q6 reformatted");
    assert!(out.plan_cached && out.prepared_cached, "reformatting must not miss");

    let other_config =
        session.query(&QueryRequest::sql(sql).with_config(Config::OptScala)).expect("Q6 OptScala");
    assert!(other_config.plan_cached, "plan cache is settings-independent");
    assert!(!other_config.prepared_cached, "prepared cache is keyed on full settings");
    let s = service.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (1, 2));
    assert_eq!((s.prepared_cache_misses, s.prepared_cache_hits), (2, 1));
}

/// Refreshing a table's statistics bumps the catalog version: previously
/// cached plans (optimized under the old statistics) are never served
/// again, and the re-planned query still computes the same result.
#[test]
fn stats_refresh_invalidates_cached_plans() {
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(1));
    let session = service.session();
    let sql = tpch_sql(3);

    let before = session.query(&QueryRequest::sql(sql)).expect("Q3");
    assert!(session.query(&QueryRequest::sql(sql)).expect("Q3 cached").plan_cached);

    // Re-attach the same analytic statistics: semantically a no-op, but a
    // *refresh* — the version bump must invalidate, not the value change.
    let fresh = TpchData::generate(SCALE);
    let stats = fresh.catalog.stats("lineitem").cloned().expect("lineitem stats");
    service.update_stats("lineitem", stats);

    let after = session.query(&QueryRequest::sql(sql)).expect("Q3 after refresh");
    assert!(!after.plan_cached, "stale plan served after a statistics refresh");
    assert!(!after.prepared_cached, "stale prepared query served after a refresh");
    assert!(before.result.rows() == after.result.rows(), "refresh changed the result");
    let s = service.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (2, 1));
}

/// Zero-capacity caches are disabled: every execution misses, and results
/// are still correct — caching is purely an amortization, never load-bearing.
#[test]
fn disabled_caches_still_serve_correctly() {
    let options = ServeOptions::default()
        .with_workers(1)
        .with_plan_cache_capacity(0)
        .with_prepared_cache_capacity(0);
    let service = LegoBase::generate(SCALE).serve_with(options);
    let session = service.session();
    let oracle = LegoBase::generate(SCALE).query(&QueryRequest::sql(tpch_sql(6))).expect("oracle");
    for _ in 0..2 {
        let out = session.query(&QueryRequest::sql(tpch_sql(6))).expect("Q6 uncached");
        assert!(!out.plan_cached && !out.prepared_cached);
        assert!(out.result.rows() == oracle.result.rows());
    }
    let s = service.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (2, 0));
    assert_eq!((s.prepared_cache_misses, s.prepared_cache_hits), (2, 0));
}
