//! The base-structure store is a pure sharing change: every column,
//! dictionary, partition and index is built once per system and handed to
//! every query as an `Arc`. These tests pin what that must not change —
//! results, bit for bit, whatever the store already holds — and what it
//! must: one build per structure however many sessions miss at once, and
//! structures that outlive the prepared entries referencing them.
//!
//! The systems are loaded through [`LegoBase::from_archive`], so CI's
//! `LEGOBASE_MMAP=0` leg covers the gather-and-encode packed slots and the
//! default leg the archive-mapped ones; `LEGOBASE_ENCODING=0` and
//! `LEGOBASE_PARALLELISM=4` reach the loaders through the facade as usual.

use legobase::engine::db::{Layout, StructureKey, StructureKind};
use legobase::sql::tpch_sql;
use legobase::storage::Value;
use legobase::{Config, LegoBase, QueryError, QueryRequest, ResultTable, ServeOptions};
use std::collections::HashSet;
use std::sync::Barrier;

const SCALE: f64 = 0.002;

/// The configurations whose loaders take something from the store.
const CONFIGS: [Config; 5] =
    [Config::HyPerLike, Config::StrDictC, Config::TpchC, Config::OptC, Config::OptScala];

/// A system over a freshly written v3 archive. The `tag` keeps the temp
/// files of concurrently running tests apart.
fn archive_system(tag: &str) -> LegoBase {
    let dir = std::env::temp_dir().join("legobase-base-store");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("tpch-{tag}-{}.lbca", std::process::id()));
    LegoBase::generate(SCALE).write_archive(&path).expect("write archive");
    let system = LegoBase::from_archive(&path).expect("read archive");
    std::fs::remove_file(&path).ok();
    system
}

/// Rows rendered with floats as bit patterns: equality of these is
/// bit-identity, with no cross-type or tolerance leniency.
fn bits(result: &ResultTable) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    result.rows().iter().map(|row| row.iter().map(cell).collect()).collect()
}

/// Every query × configuration × {hand plan, SQL text}: the answer from a
/// long-lived system whose store every other query has already warmed is
/// bit-identical to the answer from a store emptied just before the run.
fn check_shared_matches_fresh(tag: &str, range: std::ops::RangeInclusive<usize>) {
    let shared = archive_system(tag);
    let fresh = archive_system(&format!("{tag}-fresh"));
    // Warm the shared store with the whole workload first, so the measured
    // pass below finds layouts other queries and configurations asked for.
    for n in 1..=22 {
        for config in CONFIGS {
            shared.query(&QueryRequest::plan(shared.plan(n)).with_config(config)).unwrap();
        }
    }
    for n in range {
        for config in CONFIGS {
            fresh.reset_store();
            let (a, b) = (
                shared.query(&QueryRequest::plan(shared.plan(n)).with_config(config)).unwrap(),
                fresh.query(&QueryRequest::plan(fresh.plan(n)).with_config(config)).unwrap(),
            );
            assert!(bits(&a.result) == bits(&b.result), "Q{n} hand plan under {config:?}");
            fresh.reset_store();
            let a = shared
                .query(&QueryRequest::sql(tpch_sql(n)).with_config(config))
                .expect("embedded SQL");
            let b = fresh
                .query(&QueryRequest::sql(tpch_sql(n)).with_config(config))
                .expect("embedded SQL");
            assert!(bits(&a.result) == bits(&b.result), "Q{n} SQL under {config:?}");
        }
    }
    // However many layouts the configurations asked for, no structure was
    // built twice.
    let stats = shared.store_stats();
    assert_eq!(stats.builds, stats.slots);
}

#[test]
fn q1_to_q6_shared_matches_fresh() {
    check_shared_matches_fresh("q1-6", 1..=6);
}

#[test]
fn q7_to_q12_shared_matches_fresh() {
    check_shared_matches_fresh("q7-12", 7..=12);
}

#[test]
fn q13_to_q17_shared_matches_fresh() {
    check_shared_matches_fresh("q13-17", 13..=17);
}

#[test]
fn q18_to_q22_shared_matches_fresh() {
    check_shared_matches_fresh("q18-22", 18..=22);
}

/// Distinct texts of one template: Q1 by cutoff day, Q6 by quantity bound.
fn variant(template: usize, k: usize) -> String {
    match template {
        1 => tpch_sql(1).replace("1998-09-02", &format!("1998-09-{:02}", 2 + k)),
        6 => tpch_sql(6).replace("24.0", &format!("{}.0", 24 + k)),
        _ => unreachable!("variants exist for Q1 and Q6"),
    }
}

/// Eight sessions miss at the same instant on eight different texts that
/// all need the same `lineitem` columns and date index, while a ninth keeps
/// sending a plan that panics: every structure is built exactly once, every
/// result matches a single-shot oracle, the panic comes back typed, and the
/// service loads new texts afterwards without building anything.
#[test]
fn concurrent_misses_build_each_structure_once() {
    let oracle = archive_system("once-oracle");
    let service =
        archive_system("once").serve_with(ServeOptions::default().with_prepared_cache_capacity(0));
    let texts: Vec<String> = (0..8).map(|k| variant(if k % 2 == 0 { 1 } else { 6 }, k)).collect();
    let barrier = Barrier::new(texts.len() + 1);
    std::thread::scope(|scope| {
        for text in &texts {
            let (service, oracle, barrier) = (&service, &oracle, &barrier);
            scope.spawn(move || {
                let session = service.session();
                barrier.wait();
                let got = session.query(&QueryRequest::sql(text.as_str())).expect("variant runs");
                assert!(!got.prepared_cached);
                let want = oracle.query(&QueryRequest::sql(text)).expect("oracle runs");
                assert!(bits(&got.result) == bits(&want.result), "{text}");
            });
        }
        let (service, barrier) = (&service, &barrier);
        scope.spawn(move || {
            let bogus = legobase::engine::QueryPlan::new(
                "bogus",
                legobase::engine::Plan::scan("no_such_table"),
            );
            barrier.wait();
            for _ in 0..4 {
                match service.session().query(&QueryRequest::plan(bogus.clone())) {
                    Err(QueryError::QueryPanicked { query, .. }) => assert_eq!(query, "bogus"),
                    Err(e) => panic!("expected QueryPanicked, got {e}"),
                    Ok(_) => panic!("unknown-table plan executed"),
                }
            }
        });
    });
    let stats = service.stats();
    assert_eq!((stats.queries_ok, stats.queries_panicked), (8, 4));
    assert!(stats.store_builds > 0 && stats.store_resident_bytes > 0);
    // A ninth text of each template is a miss that builds nothing.
    for template in [1, 6] {
        let late = service.session().query(&QueryRequest::sql(variant(template, 9))).expect("late");
        assert!(!late.prepared_cached && !late.structures.is_empty());
        assert!(late.structures.iter().all(|s| s.resident), "Q{template}: {:?}", late.structures);
    }
    assert_eq!(service.stats().store_builds, stats.store_builds);
    let system = service.into_system();
    assert_eq!(system.store_stats().builds, system.store_stats().slots, "a slot was built twice");
}

/// Opening an archive decodes nothing, and running the whole workload under
/// the default (specialized) configuration decodes only what it reads: no
/// relation is ever turned into rows, and no column outside the union of
/// the 22 specialization reports' used columns gets a plain slot.
#[test]
fn only_the_columns_the_workload_uses_are_ever_decoded() {
    let system = archive_system("lazy");
    assert_eq!(system.store_stats().slots, 0, "an open builds nothing");
    let mut used: HashSet<(String, usize)> = HashSet::new();
    for n in 1..=22 {
        let reply = system.query(&QueryRequest::sql(tpch_sql(n))).expect("embedded SQL");
        let spec = reply.detail.expect("facade replies carry the compilation").compilation.spec;
        for (table, columns) in &spec.used_columns {
            used.extend(columns.iter().map(|&c| (table.clone(), c)));
        }
    }
    let stats = system.store_stats();
    assert!(stats.slots > 0 && stats.resident.len() as u64 == stats.slots);
    for key in &stats.resident {
        assert_ne!(key.kind, StructureKind::Rows, "{key}: the specialized engine never sees a row");
        if key.kind == StructureKind::Column(Layout::Plain) {
            assert!(used.contains(&(key.table.clone(), key.column)), "{key} decoded but unused");
        }
    }
    // The workload leaves most of the wide relations' attributes untouched.
    let arity = |t: &str| system.data.catalog.table(t).schema.len();
    let total: usize = legobase::tpch::TABLES.into_iter().map(arity).sum();
    assert!(used.len() < total, "{} of {total} attributes used", used.len());
}

/// The row form is one more store slot, asked for by the generic engines
/// only and per relation the plan scans: one `Dbx` Q6 leaves exactly
/// lineitem's rows in the store, and eight sessions missing on it at the
/// same instant build it once.
#[test]
fn rows_are_a_store_slot_built_once_for_the_engines_that_ask() {
    let rows_of = |table: &str| StructureKey {
        table: table.to_string(),
        column: 0,
        kind: StructureKind::Rows,
    };
    let system = archive_system("rows");
    let dbx_q6 = QueryRequest::plan(system.plan(6)).with_config(Config::Dbx);
    let first = system.query(&dbx_q6).expect("Q6 under DBX");
    assert_eq!(system.store_stats().resident, [rows_of("lineitem")]);
    assert_eq!(first.structures.len(), 1);
    assert!(!first.structures[0].resident && first.structures[0].key == rows_of("lineitem"));
    let again = system.query(&dbx_q6).expect("Q6 under DBX");
    assert!(again.structures[0].resident && system.store_stats().builds == 1);
    assert!(bits(&again.result) == bits(&first.result));

    let service = archive_system("rows-once")
        .serve_with(ServeOptions::default().with_prepared_cache_capacity(0).with_workers(8));
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (service, barrier, first, dbx_q6) = (&service, &barrier, &first, &dbx_q6);
            scope.spawn(move || {
                let session = service.session();
                barrier.wait();
                let got = session.query(dbx_q6).expect("Q6 under DBX");
                assert!(bits(&got.result) == bits(&first.result));
            });
        }
    });
    let stats = service.into_system().store_stats();
    assert_eq!((stats.builds, stats.resident), (1, vec![rows_of("lineitem")]));
}

/// FIFO-evicting every prepared entry drops handles, not structures: the
/// evicted text misses the prepared cache again, finds everything resident
/// and answers as before; `EXPLAIN` says the same without loading.
#[test]
fn eviction_leaves_the_store_warm() {
    let service = archive_system("evict").serve_with(ServeOptions::default().with_workers(1));
    let capacity = service.options().prepared_cache_capacity;
    let session = service.session();
    let first_text = variant(6, 0);

    let cold = session.query(&QueryRequest::sql(first_text.as_str()).with_explain(true));
    let cold = cold.expect("explain");
    assert!(!cold.structures.is_empty() && cold.structures.iter().all(|s| !s.resident));
    assert_eq!(service.stats().store_builds, 0, "EXPLAIN builds nothing");

    let first = session.query(&QueryRequest::sql(first_text.as_str())).expect("Q6");
    assert!(first.structures.iter().all(|s| !s.resident), "the first miss is cold");
    assert_eq!(first.structures.len(), cold.structures.len());
    // At least: a structure may first build the plain column it derives from.
    let builds = service.stats().store_builds;
    assert!(builds >= first.structures.len() as u64);

    for k in 1..=capacity {
        let out = session.query(&QueryRequest::sql(variant(6, k))).expect("Q6 variant");
        assert!(!out.prepared_cached);
    }
    let again = session.query(&QueryRequest::sql(first_text.as_str())).expect("Q6 again");
    assert!(!again.prepared_cached, "{capacity} later entries evicted the first");
    assert!(again.structures.iter().all(|s| s.resident));
    assert!(bits(&again.result) == bits(&first.result));
    let warm = session.query(&QueryRequest::sql(first_text.as_str()).with_explain(true));
    assert!(warm.expect("explain").structures.iter().all(|s| s.resident));
    let hit = session.query(&QueryRequest::sql(first_text.as_str())).expect("Q6 cached");
    assert!(hit.prepared_cached && hit.structures.is_empty());

    let stats = service.stats();
    assert_eq!(stats.store_builds, builds, "no text after the first built anything");
    assert!(stats.store_hits >= (capacity + 1) as u64 * first.structures.len() as u64);
}
