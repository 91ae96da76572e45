#![warn(missing_docs)]
//! # LegoBase-rs
//!
//! A Rust reproduction of *“Building Efficient Query Engines in a High-Level
//! Language”* (Shaikhha, Klonatos, Koch — VLDB 2014): an in-memory analytical
//! query engine whose optimizations are expressed as transformation passes of
//! an optimizing compiler (SC), evaluated on the TPC-H workload.
//!
//! ```no_run
//! use legobase::{Config, LegoBase, QueryRequest};
//!
//! // Generate TPC-H data (dbgen substitute) and run Q6 under two
//! // configurations of Table III.
//! let system = LegoBase::generate(0.01);
//! let q6 = QueryRequest::plan(system.plan(6));
//! let baseline = system.query(&q6.clone().with_config(Config::Dbx))?;
//! let optimized = system.query(&q6.with_config(Config::OptC))?;
//! assert!(optimized.result.approx_eq(&baseline.result, 1e-6));
//! println!("{}", optimized.result.display(10));
//! let detail = optimized.detail.expect("facade responses carry the compilation");
//! println!("generated C:\n{}", detail.compilation.c_source);
//! # Ok::<(), legobase::QueryError>(())
//! ```
//!
//! [`LegoBase::query`] with a [`QueryRequest`] is the only way to run a
//! query in-process; a [`Session`] and the TCP [`client`] take the same
//! request and answer with the same [`QueryResponse`] / [`QueryError`].
//!
//! The facade wires the five layers in paper order — [`queries`] builds the
//! physical plan (§2.1), [`sc`] compiles it into a
//! [`Specialization`] report plus C source (§2.2–2.3), [`engine`] loads and
//! executes with exactly the structures the report selected (§3), [`storage`]
//! implements those structures, [`tpch`] generates the workload (§4). The
//! morsel-driven parallelism extension runs at the request's degree
//! (DESIGN.md §3).
//!
//! See `DESIGN.md` for the system inventory, the substitutions made for
//! artifacts that are not reproducible in this environment, and the §4
//! life-of-a-query walkthrough; `EXPERIMENTS.md` holds the
//! paper-vs-measured record.

pub mod client;
mod env;
mod request;
pub mod server;
mod service;
pub mod wire;

pub use env::EnvOverrides;
pub use legobase_engine as engine;
pub use legobase_queries as queries;
pub use legobase_sc as sc;
pub use legobase_sql as sql;
pub use legobase_storage as storage;
pub use legobase_tpch as tpch;
pub use request::{QueryError, QueryKind, QueryRequest, QueryResponse, RunDetail};
pub use service::{QueryService, ServeOptions, ServiceStats, Session};

pub use legobase_engine::{Config, OptReport, ResultTable, Settings, Specialization};
pub use legobase_sc::CompileResult;
pub use legobase_tpch::TpchData;

use legobase_engine::db::{required_structures, BaseStore, StoreStats, StructureKey, StructureUse};
use legobase_engine::settings::EngineKind;
use legobase_engine::{GenericDb, QueryPlan, SpecializedDb};

/// The LegoBase system façade: data plus the compile→load→execute path.
pub struct LegoBase {
    /// The generated TPC-H database.
    pub data: TpchData,
    /// Every structure derived from `data` — columns, dictionaries,
    /// partitions, indexes — built once on first demand and shared by every
    /// query this system loads (DESIGN.md §3d).
    store: BaseStore,
    env: EnvOverrides,
}

impl LegoBase {
    /// Generates a TPC-H database at the given scale factor.
    pub fn generate(scale_factor: f64) -> LegoBase {
        LegoBase::from_data(TpchData::generate(scale_factor))
    }

    /// Wraps pre-generated TPC-H data.
    pub fn from_data(data: TpchData) -> LegoBase {
        LegoBase::under(EnvOverrides::from_env(), data)
    }

    /// The one constructor: `env` is what the caller read from the
    /// environment, once, for this system.
    fn under(env: EnvOverrides, data: TpchData) -> LegoBase {
        LegoBase { data, store: BaseStore::new(), env }
    }

    /// The `LEGOBASE_*` overrides this system was constructed under — read
    /// from the environment once, then, and applied to every request since.
    pub fn env(&self) -> &EnvOverrides {
        &self.env
    }

    /// Builds, hits, slots and resident bytes of the base-structure store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// True when the store holds `table`'s row form (the generic engines'
    /// input) — what admission does not charge a request for again.
    pub(crate) fn rows_resident(&self, table: &str) -> bool {
        let kind = legobase_engine::db::StructureKind::Rows;
        self.store.is_resident(&StructureKey { table: table.to_string(), column: 0, kind })
    }

    /// Empties the base-structure store, so the next load rebuilds what it
    /// needs — how `figures -- fig20/fig21` time the paper's cold per-query
    /// load. Queries already loaded keep the structures they hold.
    pub fn reset_store(&self) {
        self.store.clear();
    }

    /// Opens a persistent column archive (`tpch archive` writes one; CI
    /// caches it between runs so the perf baseline never pays for
    /// regeneration). Opening verifies magic, version and every checksum and
    /// validates every column payload — anything wrong with the file is a
    /// typed error here, not at the first query — and decodes nothing: a
    /// column's values are materialized when a query first needs them, a
    /// column no query uses never is.
    ///
    /// The archive is `mmap`ed read-only: decodes read the page cache, and
    /// its bit-packed columns are never copied at all — the encoded-column
    /// loader adopts their words in place instead of re-encoding, with
    /// bit-identical results. A mapping failure falls back to reading the
    /// file onto the heap; set `LEGOBASE_MMAP=0` to force that path
    /// everywhere (CI runs the equivalence suites once this way). Archives
    /// older than v3 are refused with a typed `BadVersion`.
    ///
    /// ```no_run
    /// use legobase::{LegoBase, ServeOptions};
    /// let system = LegoBase::from_archive("tpch-sf0.1.lbca").expect("valid archive");
    /// let service = system.serve_with(ServeOptions::default());
    /// ```
    pub fn from_archive(
        path: impl AsRef<std::path::Path>,
    ) -> Result<LegoBase, tpch::archive::ArchiveError> {
        let env = EnvOverrides::from_env();
        let read = if env.mmap_off { tpch::archive::read } else { tpch::archive::read_mapped };
        Ok(LegoBase::under(env, read(path.as_ref())?))
    }

    /// Writes this database to a persistent column archive
    /// ([`LegoBase::from_archive`] loads it back losslessly).
    pub fn write_archive(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), tpch::archive::ArchiveError> {
        tpch::archive::write(&self.data, path.as_ref())
    }

    /// Builds the physical plan of TPC-H query `n` (1–22).
    pub fn plan(&self, n: usize) -> QueryPlan {
        legobase_queries::query(&self.data.catalog, n)
    }

    /// Decides a query and assembles its database from the store — what the
    /// executor needs and nothing more: SC's decisions
    /// ([`legobase_sc::specialize`], no IR, no C) select the structures, the
    /// loader takes exactly those from the store. This is what a service's
    /// prepared cache holds and what a served miss pays.
    ///
    /// The query then runs under the request's settings after the
    /// `LEGOBASE_*` overrides: the morsel-driven degree is
    /// `settings.parallelism` (`LEGOBASE_PARALLELISM` is how CI runs the
    /// whole suite parallel-enabled), and every operator of the specialized
    /// executor whose input is large enough to split runs at that degree.
    pub fn prepare(&self, query: &QueryPlan, settings: &Settings) -> PreparedQuery {
        let settings = &self.env.apply(settings);
        let spec = legobase_sc::specialize(query, &self.data.catalog, settings);
        self.assemble(query, settings, &spec)
    }

    /// [`LegoBase::prepare`] plus the inspection artifacts: the full SC
    /// compilation — the same decisions, then the lowered IR, its trace and
    /// the generated C — next to the same assembled database (for the
    /// facade's [`RunDetail`], benchmarks and examples, which report what
    /// the compiler emitted).
    pub fn load(&self, query: &QueryPlan, settings: &Settings) -> LoadedQuery {
        let settings = &self.env.apply(settings);
        let compilation = legobase_sc::compile(query, &self.data.catalog, settings);
        LoadedQuery { prepared: self.assemble(query, settings, &compilation.spec), compilation }
    }

    /// The one assembly: the database the engine asks the store for under
    /// `spec`'s decisions.
    fn assemble(
        &self,
        query: &QueryPlan,
        settings: &Settings,
        spec: &Specialization,
    ) -> PreparedQuery {
        let db = match settings.engine {
            EngineKind::Volcano | EngineKind::Push => {
                Db::Generic(GenericDb::load(&self.data, &self.store, spec, settings))
            }
            EngineKind::Specialized => {
                Db::Specialized(SpecializedDb::load(&self.data, &self.store, spec, settings))
            }
        };
        PreparedQuery { query: query.clone(), settings: *settings, db }
    }

    /// The store structures `query` would load under `settings`, each with
    /// whether it is already resident — the `EXPLAIN` answer to "would this
    /// request be a cold miss".
    pub(crate) fn structures_for(
        &self,
        query: &QueryPlan,
        settings: &Settings,
    ) -> Vec<StructureUse> {
        let settings = &self.env.apply(settings);
        let spec = legobase_sc::specialize(query, &self.data.catalog, settings);
        required_structures(&self.data, &spec, settings)
            .into_iter()
            .map(|key| StructureUse { resident: self.store.is_resident(&key), key })
            .collect()
    }
}

enum Db {
    Generic(GenericDb),
    Specialized(SpecializedDb),
}

/// A query decided and assembled, ready for repeated execution
/// ([`LegoBase::prepare`]).
pub struct PreparedQuery {
    /// The plan it executes.
    pub query: QueryPlan,
    /// The configuration it executes under: the request's, after the
    /// `LEGOBASE_*` overrides.
    pub settings: Settings,
    db: Db,
}

/// A prepared query together with its full SC compilation
/// ([`LegoBase::load`]); dereferences to the [`PreparedQuery`] it executes.
pub struct LoadedQuery {
    /// The executable form, identical to what [`LegoBase::prepare`] gives.
    pub prepared: PreparedQuery,
    /// SC pipeline output: specialization report, IR trace, generated C.
    pub compilation: CompileResult,
}

impl std::ops::Deref for LoadedQuery {
    type Target = PreparedQuery;

    fn deref(&self) -> &PreparedQuery {
        &self.prepared
    }
}

impl PreparedQuery {
    /// Executes the loaded query once.
    pub fn execute(&self) -> ResultTable {
        match (&self.db, self.settings.engine) {
            (Db::Generic(db), EngineKind::Volcano) => {
                legobase_engine::volcano::execute(&self.query, db)
            }
            (Db::Generic(db), _) => legobase_engine::push::execute(&self.query, db, &self.settings),
            (Db::Specialized(db), _) => {
                legobase_engine::specialized::execute(&self.query, db, &self.settings)
            }
        }
    }

    /// Load timing and memory accounting for this configuration.
    pub fn load_report(&self) -> legobase_engine::db::LoadReport {
        match &self.db {
            Db::Generic(db) => db.report,
            Db::Specialized(db) => db.report,
        }
    }

    /// The store structures this load asked for, each with whether it was
    /// already resident or built by this load.
    pub fn structures(&self) -> &[StructureUse] {
        match &self.db {
            Db::Generic(db) => &db.structures,
            Db::Specialized(db) => &db.structures,
        }
    }

    /// Approximate bytes of the structures this query references (Fig. 20).
    /// They live in the system's store and are shared with every other
    /// loaded query that references them, so summing this over queries
    /// overstates the resident total — [`LegoBase::store_stats`] has that.
    pub fn memory_bytes(&self) -> usize {
        match &self.db {
            Db::Generic(db) => db.approx_bytes(),
            Db::Specialized(db) => db.approx_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_storage::Column;
    use std::sync::Arc;
    use std::time::Duration;

    /// A warm load is assembly, independent of row count: at SF 0.05
    /// (300 k lineitems, where the first Q1 load gathers megabytes) a second
    /// literal variant of Q1 builds nothing, loads in well under a
    /// millisecond and shares the first variant's `l_extendedprice` payload.
    #[test]
    fn warm_load_is_constant_in_rows() {
        let system = LegoBase::generate(0.05);
        let load = |day: u32| {
            let text =
                legobase_sql::tpch_sql(1).replace("1998-09-02", &format!("1998-09-{day:02}"));
            let lowered = legobase_sql::plan(&text, &system.data.catalog).expect("Q1 variant");
            let (plan, _) = legobase_engine::optimizer::optimize(&lowered, &system.data.catalog);
            system.load(&plan, &Settings::optimized())
        };
        let first = load(2);
        assert!(first.structures().iter().all(|s| !s.resident));
        let builds = system.store_stats().builds;
        // Minimum of a few: one descheduled load must not fail the test.
        let warm: Vec<LoadedQuery> = (3..8).map(load).collect();
        assert_eq!(system.store_stats().builds, builds, "a literal variant builds nothing");
        let fastest = warm.iter().map(|l| l.load_report().duration).min().expect("five loads");
        assert!(fastest < Duration::from_millis(1), "warm load took {fastest:?}");
        assert!(fastest * 20 < first.load_report().duration, "cold load pays the gather");
        let price = |l: &LoadedQuery| match &l.db {
            Db::Specialized(db) => match db.table("lineitem").by_name("l_extendedprice") {
                Column::F64(v) => Arc::clone(v),
                other => panic!("l_extendedprice is {}", other.kind_name()),
            },
            Db::Generic(_) => panic!("Opt/C loads the specialized database"),
        };
        assert!(warm.iter().all(|l| l.structures().iter().all(|s| s.resident)));
        assert!(warm.iter().all(|l| Arc::ptr_eq(&price(l), &price(&first))));
        assert_eq!(first.memory_bytes(), warm[0].memory_bytes());
        assert_eq!(first.execute().len(), warm[0].execute().len());
    }
}
