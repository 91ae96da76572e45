//! The TCP front door's headline guarantee: a query served over loopback
//! `legobase-wire-v3` returns results **bit-identical** to the in-process
//! surfaces — all 22 TPC-H queries under all 8 named configurations of
//! Table III (CI re-runs the suite under `LEGOBASE_PARALLELISM=4`, pushing
//! every remote execution through the shared morsel pool).
//!
//! "Bit-identical" is checked on the wire encoding itself: floats travel as
//! raw IEEE bits, so comparing encoded batches is equality down to the last
//! mantissa bit — strictly stronger than `Value` equality, which treats
//! `Int(42)` and `Float(42.0)` as equal.

use legobase::client::Client;
use legobase::sql::tpch_sql;
use legobase::{wire, Config, LegoBase, QueryRequest, ServeOptions};

const SCALE: f64 = 0.002;

#[test]
fn all_queries_and_configs_bit_identical_over_loopback() {
    let oracle = LegoBase::generate(SCALE);
    let server = LegoBase::generate(SCALE)
        .serve_tcp("127.0.0.1:0", ServeOptions::default().with_workers(3))
        .expect("bind ephemeral port");

    // Two concurrent connections so distinct tenants interleave on the
    // shared pool while we compare — the substrate must stay invisible.
    std::thread::scope(|scope| {
        for (offset, stride) in [(0usize, 2usize), (1, 2)] {
            let oracle = &oracle;
            let addr = server.local_addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for ci in 0..Config::ALL.len() {
                    let config = Config::ALL[(ci + offset) % Config::ALL.len()];
                    for k in (offset..22).step_by(stride) {
                        let n = k + 1;
                        let expect = oracle
                            .query(&QueryRequest::sql(tpch_sql(n)).with_config(config))
                            .unwrap_or_else(|e| panic!("oracle Q{n} {config:?}: {e}"))
                            .result;
                        let got = client
                            .run(&QueryRequest::sql(tpch_sql(n)).with_config(config))
                            .unwrap_or_else(|e| panic!("wire Q{n} {config:?}: {e}"))
                            .result;
                        assert_eq!(
                            wire::encode_batch(got.rows()),
                            wire::encode_batch(expect.rows()),
                            "Q{n} under {config:?}: loopback result diverges from in-process"
                        );
                    }
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.queries_ok, 176, "8 configs x 22 queries all served over TCP");
    assert_eq!(stats.queries_panicked + stats.queries_rejected + stats.queries_expired, 0);
    server.shutdown();
}

/// The wire surface agrees with the *unified* in-process surfaces too: for
/// a sample of queries, facade `query()`, session `query()`, and the TCP
/// client produce the same bytes and consistent metadata.
#[test]
fn three_surfaces_one_result() {
    let facade = LegoBase::generate(SCALE);
    let service = LegoBase::generate(SCALE).serve_with(ServeOptions::default().with_workers(2));
    let session = service.session();
    let server = LegoBase::generate(SCALE)
        .serve_tcp("127.0.0.1:0", ServeOptions::default().with_workers(2))
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for n in [1usize, 6, 14, 19] {
        let req = QueryRequest::sql(tpch_sql(n));
        let a = facade.query(&req).unwrap_or_else(|e| panic!("facade Q{n}: {e}")).result;
        let b = session.query(&req).unwrap_or_else(|e| panic!("session Q{n}: {e}")).result;
        let c = client.run(&req).unwrap_or_else(|e| panic!("wire Q{n}: {e}")).result;
        let bytes = wire::encode_batch(a.rows());
        assert_eq!(wire::encode_batch(b.rows()), bytes, "Q{n}: session diverges");
        assert_eq!(wire::encode_batch(c.rows()), bytes, "Q{n}: wire diverges");
        assert_eq!(a.0.schema, c.0.schema, "Q{n}: schema must cross the wire intact");
    }
    // Second pass over the wire: the remote session's caches engage and the
    // cache flags propagate back through the response header.
    let resp = client.run(&QueryRequest::sql(tpch_sql(6))).unwrap();
    assert!(resp.plan_cached, "second run of the same text hits the remote plan cache");
    assert!(resp.prepared_cached, "…and the remote prepared cache");
    server.shutdown();
    service.shutdown();
}
