//! The query service's headline guarantee: N client threads firing the
//! whole TPC-H workload concurrently through one shared service get results
//! **bit-identical** to the serial `LegoBase::query` oracle — for every query, under
//! every named configuration of Table III, and at every morsel-parallelism
//! degree (CI re-runs this suite under `LEGOBASE_PARALLELISM=4`, pushing all
//! of the concurrent executions through the shared morsel pool).
//!
//! Bit-identity (not approximate equality) is the right bar here: a service
//! query runs the *same* plan with the *same* effective settings as the
//! oracle, and the scheduling substrate — scoped threads vs the shared pool,
//! and whichever tenant's morsels interleave with ours — must be invisible
//! in the result (DESIGN.md §3d).

use legobase::sql::tpch_sql;
use legobase::{Config, LegoBase, QueryRequest, ResultTable, ServeOptions};

const SCALE: f64 = 0.002;

/// All 22 queries under all 8 configurations, fired from 8 concurrent
/// client threads (one per configuration, each starting at a staggered
/// query so distinct queries overlap in flight), every result compared
/// bit-for-bit against the serial oracle.
#[test]
fn all_configs_and_queries_bit_identical_under_concurrency() {
    let oracle_sys = LegoBase::generate(SCALE);
    let oracle: Vec<Vec<ResultTable>> = Config::ALL
        .iter()
        .map(|config| {
            (1..=22)
                .map(|n| {
                    oracle_sys
                        .query(&QueryRequest::sql(tpch_sql(n)).with_config(*config))
                        .unwrap_or_else(|e| panic!("oracle Q{n} {config:?}: {e}"))
                        .result
                })
                .collect()
        })
        .collect();

    // TPC-H generation is deterministic per scale factor, so the service
    // sees exactly the oracle's data.
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(3));
    std::thread::scope(|scope| {
        for (ci, config) in Config::ALL.into_iter().enumerate() {
            let oracle = &oracle;
            let service = &service;
            scope.spawn(move || {
                let session = service.session();
                for k in 0..22usize {
                    let n = 1 + (k + ci * 3) % 22;
                    let out = session
                        .query(&QueryRequest::sql(tpch_sql(n)).with_config(config))
                        .unwrap_or_else(|e| panic!("service Q{n} {config:?}: {e}"));
                    assert!(
                        out.result.rows() == oracle[ci][n - 1].rows(),
                        "Q{n} under {config:?}: concurrent service result diverges \
                         from the serial oracle"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.queries_ok, 176, "8 configs x 22 queries all served");
    assert_eq!(stats.queries_rejected + stats.queries_panicked, 0);
    // The plan cache is keyed on (text, catalog version, optimize flag), so
    // all 8 configurations share entries: at least the 22 distinct texts
    // miss once (concurrent first-misses on the same text may race — both
    // count), everything else hits.
    assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 176);
    assert!(stats.plan_cache_misses >= 22, "every distinct text misses once");
    service.shutdown();
}

/// Concurrency *and* intra-query parallelism at once: every client requests
/// degree 4, so all tenants' morsels interleave on the shared pool. Results
/// must still be bit-identical to a serial-process oracle running the same
/// degree-4 settings — the shared scheduler is invisible.
#[test]
fn parallel_degree_4_clients_bit_identical_to_oracle() {
    let oracle_sys = LegoBase::generate(SCALE);
    let configs = [Config::OptC, Config::OptScala, Config::HyPerLike];
    let queries = [1usize, 3, 6, 12, 14, 19];
    let oracle: Vec<Vec<ResultTable>> = configs
        .iter()
        .map(|config| {
            let settings = config.settings().with_parallelism(4);
            queries
                .iter()
                .map(|&n| {
                    oracle_sys
                        .query(&QueryRequest::sql(tpch_sql(n)).with_settings(settings))
                        .unwrap()
                        .result
                })
                .collect()
        })
        .collect();

    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));
    std::thread::scope(|scope| {
        for (ci, config) in configs.into_iter().enumerate() {
            let oracle = &oracle;
            let service = &service;
            scope.spawn(move || {
                let session = service.session();
                let settings = config.settings().with_parallelism(4);
                for (qi, &n) in queries.iter().enumerate() {
                    let out = session
                        .query(&QueryRequest::sql(tpch_sql(n)).with_settings(settings))
                        .unwrap_or_else(|e| panic!("service Q{n} {config:?} deg 4: {e}"));
                    assert!(
                        out.result.rows() == oracle[ci][qi].rows(),
                        "Q{n} under {config:?} at degree 4: shared-pool result \
                         diverges from the serial-process oracle"
                    );
                }
            });
        }
    });
    service.shutdown();
}
