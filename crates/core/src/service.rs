//! The multi-tenant query service: many sessions, one engine.
//!
//! Every [`LegoBase::query`] call is a complete, isolated pipeline —
//! parse, optimize, compile, load, execute — with its own scoped worker set.
//! That is the *oracle*: simple, deterministic, and measured throughout
//! `EXPERIMENTS.md`. A service handling many clients at once cannot afford
//! any of those per-call costs, so [`QueryService`] amortizes all of them
//! while preserving the oracle's results bit for bit (DESIGN.md §3d):
//!
//! * **Shared morsel scheduler** — one long-lived
//!   [`MorselPool`](legobase_engine::MorselPool) serves every in-flight
//!   query; sessions attach it around execution, and the engine's
//!   `run_morsels` primitive transparently schedules onto it. Which worker
//!   (or which tenant's session thread) processes a morsel never influences
//!   a result: morsel boundaries are fixed and results are assembled in
//!   morsel-index order, so service results are bit-identical to the serial
//!   path.
//! * **Plan cache** — parse + lower + optimize costs a few milliseconds per
//!   query text; the service pays it once per distinct text, keyed on the
//!   canonicalized SQL ([`legobase_sql::cache_text`]), the catalog version,
//!   and the optimize flag. A statistics refresh bumps the catalog version,
//!   so stale plans are never served.
//! * **Prepared cache** — the decided + assembled form of a cached plan
//!   ([`LegoBase::prepare`]: SC's specialization decisions, no IR or C),
//!   keyed additionally on the full [`Settings`], shared read-only across
//!   sessions. An entry holds `Arc` handles into the system's
//!   base-structure store (DESIGN.md §3d), not data: the columns,
//!   dictionaries, partitions and indexes are built once per dataset, so a
//!   miss assembles in microseconds once they are resident and an eviction
//!   frees handles. [`ServiceStats`] reports the store's builds, hits and
//!   resident bytes.
//! * **Admission control and budgets** — a session ceiling
//!   ([`ServeOptions::max_in_flight`]) and a per-query memory budget
//!   ([`Session::with_memory_budget`]) with *typed* rejection
//!   ([`QueryError::OverBudget`]) — the service never panics at a tenant;
//!   even a panicking kernel comes back as [`QueryError::QueryPanicked`]
//!   while every other session keeps serving. Budget estimates reuse the
//!   catalog's histograms and distinct sketches: packed and dictionary
//!   column widths are priced from the observed value domain, not from a
//!   fixed per-type guess.
//! * **Adaptive estimation feedback** — after a query executes, the session
//!   compares the optimizer's root estimate against the observed row count
//!   and, when they disagree by more than 2× (and [`Settings::feedback`] is
//!   on), absorbs the actual into the catalog's feedback store
//!   ([`Catalog::absorb_actuals`]). Feedback only sharpens estimates — it
//!   bumps the stats epoch, never the catalog version, so version-keyed
//!   cache entries stay valid and results stay bit-identical; reports
//!   served from the plan cache are patched with the corrected numbers on
//!   the way out.
//!
//!
//! [`Session::query`] runs the same request stages as [`LegoBase::query`]
//! (`request.rs`) — each stage exists once; this module adds only what
//! stands around them.
//!
//! ```no_run
//! use legobase::{LegoBase, QueryRequest, ServeOptions};
//!
//! let service = LegoBase::generate(0.01).serve_with(ServeOptions::default());
//! let session = service.session();
//! let out = session.query(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem"))?;
//! println!("{} ({} cached)", out.result.display(1), out.plan_cached);
//! service.shutdown();
//! # Ok::<(), legobase::QueryError>(())
//! ```

use crate::request::{
    Clock, InFlight, Panics, QueryError, QueryKind, QueryRequest, QueryResponse, ResolvedPlan,
};
use crate::{LegoBase, PreparedQuery};
use legobase_engine::plan::used_base_columns;
use legobase_engine::settings::EngineKind;
use legobase_engine::{MorselPool, QueryPlan, Settings};
use legobase_storage::stats::value_rank;
use legobase_storage::{Catalog, ColumnStats, TableStatistics, Type};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Configuration of a [`QueryService`] (see [`LegoBase::serve_with`]).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads in the shared morsel pool. `0` is valid (every query
    /// runs on its own session thread); the default leaves one hardware
    /// thread for the session threads themselves.
    pub workers: usize,
    /// Maximum concurrently *executing* queries; further sessions block in
    /// admission until a slot frees. `0` (the default) means unbounded.
    pub max_in_flight: usize,
    /// Default per-query memory budget in bytes applied to every session
    /// (individual sessions override it with
    /// [`Session::with_memory_budget`]). `None` (the default) admits
    /// everything.
    pub memory_budget: Option<usize>,
    /// Plan-cache entries kept (distinct SQL texts × settings variants)
    /// before FIFO eviction. `0` disables the cache.
    pub plan_cache_capacity: usize,
    /// Prepared-query cache entries kept (decided + assembled form) before
    /// FIFO eviction. `0` disables the cache.
    pub prepared_cache_capacity: usize,
    /// Default scheduling weight of every session in the shared pool's
    /// weighted deficit round-robin (individual sessions override it with
    /// [`Session::with_weight`]). Each tenant gets `weight` consecutive
    /// morsel-help grants per scheduler rotation; equal weights (the
    /// default, `1`) give plain round-robin across tenants, which for a
    /// single tenant is exactly the old FIFO behavior.
    pub default_weight: u32,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServeOptions {
            workers: hw.saturating_sub(1).max(1),
            max_in_flight: 0,
            memory_budget: None,
            plan_cache_capacity: 256,
            prepared_cache_capacity: 64,
            default_weight: 1,
        }
    }
}

impl ServeOptions {
    /// Sets the shared pool's worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> ServeOptions {
        self.workers = workers;
        self
    }

    /// Sets the concurrent-query ceiling (`0` = unbounded).
    pub fn with_max_in_flight(mut self, n: usize) -> ServeOptions {
        self.max_in_flight = n;
        self
    }

    /// Sets the default per-query memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> ServeOptions {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the plan-cache capacity (`0` disables it).
    pub fn with_plan_cache_capacity(mut self, n: usize) -> ServeOptions {
        self.plan_cache_capacity = n;
        self
    }

    /// Sets the prepared-query cache capacity (`0` disables it).
    pub fn with_prepared_cache_capacity(mut self, n: usize) -> ServeOptions {
        self.prepared_cache_capacity = n;
        self
    }

    /// Sets the default per-session scheduling weight (clamped to ≥ 1).
    pub fn with_default_weight(mut self, weight: u32) -> ServeOptions {
        self.default_weight = weight.max(1);
        self
    }
}

/// A point-in-time snapshot of the service's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Plan-cache lookups that found an entry.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to parse + optimize.
    pub plan_cache_misses: u64,
    /// Prepared-cache lookups that found a loaded query.
    pub prepared_cache_hits: u64,
    /// Prepared-cache lookups that had to decide + assemble.
    pub prepared_cache_misses: u64,
    /// Queries that completed successfully.
    pub queries_ok: u64,
    /// Queries rejected by admission control (over budget).
    pub queries_rejected: u64,
    /// Queries whose kernel panicked (contained, typed).
    pub queries_panicked: u64,
    /// Queries whose deadline fired before completion (cancelled, typed).
    pub queries_expired: u64,
    /// Base structures (columns, dictionaries, partitions, indexes) the
    /// system's store has built — each at most once per dataset.
    pub store_builds: u64,
    /// Structure requests the store answered from what it already held.
    pub store_hits: u64,
    /// Heap bytes of the structures the store holds, shared by every
    /// prepared query (archive-mapped words excluded).
    pub store_resident_bytes: u64,
}

#[derive(Default)]
struct Counters {
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    prepared_hits: AtomicU64,
    prepared_misses: AtomicU64,
    ok: AtomicU64,
    rejected: AtomicU64,
    panicked: AtomicU64,
    expired: AtomicU64,
}

/// A bounded FIFO cache: hits do not reorder (no LRU bookkeeping contention
/// on the hot path); when full, the oldest *inserted* entry is evicted.
struct Cache<K, V> {
    map: HashMap<K, Arc<V>>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> Cache<K, V> {
    fn new(capacity: usize) -> Cache<K, V> {
        Cache { map: HashMap::new(), order: VecDeque::new(), capacity }
    }

    fn get(&self, k: &K) -> Option<Arc<V>> {
        self.map.get(k).cloned()
    }

    fn insert(&mut self, k: K, v: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// The entry under `key`, made and inserted on a miss, and whether it was a
/// hit. Making happens outside the cache lock, so a slow parse or load never
/// stalls other tenants' lookups. A request without a key (a hand-built
/// plan) goes around the cache and its counters.
fn through<K: Eq + Hash + Clone, V>(
    cache: &Mutex<Cache<K, V>>,
    key: Option<K>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    make: impl FnOnce() -> Result<V, QueryError>,
) -> Result<(Arc<V>, bool), QueryError> {
    let Some(key) = key else { return Ok((Arc::new(make()?), false)) };
    let cached = cache.lock().unwrap().get(&key);
    if let Some(entry) = cached {
        hits.fetch_add(1, Ordering::Relaxed);
        return Ok((entry, true));
    }
    misses.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(make()?);
    cache.lock().unwrap().insert(key, Arc::clone(&entry));
    Ok((entry, false))
}

/// Plan-cache key: canonical SQL text, catalog version, optimize flag.
type PlanKey = (String, u64, bool);
/// Prepared-cache key: canonical SQL text, catalog version, full settings.
type PreparedKey = (String, u64, Settings);

struct Gate {
    in_flight: usize,
    accepting: bool,
}

/// Why admission declined — mapped to the caller's error type with the
/// query label attached.
enum AdmitDecline {
    ShuttingDown,
    Expired,
}

/// A long-lived query service over one TPC-H database: shared morsel pool,
/// plan + prepared caches, admission control. Construct with
/// [`LegoBase::serve_with`]; hand out [`Session`]s with [`QueryService::session`]
/// (one per client thread — sessions are cheap handles).
pub struct QueryService {
    system: RwLock<LegoBase>,
    pool: MorselPool,
    options: ServeOptions,
    gate: Mutex<Gate>,
    admit: Condvar,
    drained: Condvar,
    plans: Mutex<Cache<PlanKey, ResolvedPlan>>,
    prepared: Mutex<Cache<PreparedKey, PreparedQuery>>,
    counters: Counters,
    /// Monotonic tenant-id source: every session gets a fresh identity in
    /// the pool's weighted deficit round-robin. Starts at 1 — tenant 0 is
    /// the anonymous [`MorselPool::attach`] identity.
    next_tenant: AtomicU64,
}

impl LegoBase {
    /// Starts a [`QueryService`] over this database. The per-query
    /// [`LegoBase::query`] path remains available on other instances and is
    /// the service's correctness oracle.
    ///
    /// **Process-wide effect:** on Linux with glibc, the first thing this
    /// does is pin the C allocator's heap thresholds for the whole process
    /// (`keep_warm_heap`), so the heap a warm query frees stays mapped for
    /// the next one instead of going back to the kernel and faulting in
    /// again (DESIGN.md §3d). Results do not change; elsewhere it does
    /// nothing.
    pub fn serve_with(self, options: ServeOptions) -> QueryService {
        keep_warm_heap();
        QueryService {
            system: RwLock::new(self),
            pool: MorselPool::new(options.workers),
            gate: Mutex::new(Gate { in_flight: 0, accepting: true }),
            admit: Condvar::new(),
            drained: Condvar::new(),
            plans: Mutex::new(Cache::new(options.plan_cache_capacity)),
            prepared: Mutex::new(Cache::new(options.prepared_cache_capacity)),
            counters: Counters::default(),
            next_tenant: AtomicU64::new(1),
            options,
        }
    }
}

/// Pins glibc's two dynamic heap thresholds at the ceiling glibc's own rule
/// can reach on 64-bit: `M_MMAP_THRESHOLD` at 32 MiB
/// (`DEFAULT_MMAP_THRESHOLD_MAX`) and `M_TRIM_THRESHOLD` at twice that. Left
/// to the rule, the trim threshold sits wherever the process's largest
/// freed block put it — about 2 MB after an archive open — and a join that
/// frees 2.5–5 MB of gathered columns hands the heap top back to the kernel
/// on every execution, to re-fault it page by page on the next. Pinned, a
/// freed block stays in the heap for any later allocation of any type or
/// size, which typed buffer pools cannot offer (their buffers fit one
/// shape and cost resident memory while idle). Setting either threshold
/// turns glibc's dynamic rule off for both, so both are set.
///
/// A no-op off Linux glibc, where neither the thresholds nor `mallopt`
/// exist in this form.
fn keep_warm_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20)] {
            // SAFETY: `mallopt` takes two integers and only adjusts the
            // allocator's tuning under its own lock; both values are in the
            // range glibc accepts for these parameters. A rejected value
            // returns 0 and leaves the allocator as it was.
            unsafe { mallopt(param, value) };
        }
    }
}

/// Decrements the in-flight count (and wakes admission / drain waiters) when
/// a query finishes, however it finishes.
struct AdmissionSlot<'a> {
    service: &'a QueryService,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        let mut g = self.service.gate.lock().unwrap();
        g.in_flight -= 1;
        self.service.admit.notify_one();
        if g.in_flight == 0 {
            self.service.drained.notify_all();
        }
    }
}

impl QueryService {
    /// Opens a session. Sessions are lightweight borrows — open one per
    /// client thread; they inherit the service-wide default memory budget
    /// and scheduling weight, and each session is its own *tenant* in the
    /// shared pool's weighted deficit round-robin.
    pub fn session(&self) -> Session<'_> {
        Session {
            service: self,
            memory_budget: self.options.memory_budget,
            tenant: self.next_tenant.fetch_add(1, Ordering::Relaxed),
            weight: self.options.default_weight.max(1),
        }
    }

    /// The options the service was started with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Worker threads in the shared morsel pool.
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Snapshot of the cache and outcome counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        let store = self.read_system().store_stats();
        ServiceStats {
            plan_cache_hits: c.plan_hits.load(Ordering::Relaxed),
            plan_cache_misses: c.plan_misses.load(Ordering::Relaxed),
            prepared_cache_hits: c.prepared_hits.load(Ordering::Relaxed),
            prepared_cache_misses: c.prepared_misses.load(Ordering::Relaxed),
            queries_ok: c.ok.load(Ordering::Relaxed),
            queries_rejected: c.rejected.load(Ordering::Relaxed),
            queries_panicked: c.panicked.load(Ordering::Relaxed),
            queries_expired: c.expired.load(Ordering::Relaxed),
            store_builds: store.builds,
            store_hits: store.hits,
            store_resident_bytes: store.resident_bytes,
        }
    }

    /// Replaces a table's optimizer statistics. Bumps the catalog version,
    /// so every cached plan and prepared query keyed on the old version is
    /// stale from this point on (the caches are also cleared eagerly — the
    /// version key is the correctness mechanism, the clear is memory
    /// hygiene). The base-structure store is untouched: its structures are
    /// functions of the data, which statistics do not change.
    pub fn update_stats(&self, table: &str, stats: TableStatistics) {
        {
            let mut system = self.system.write().unwrap_or_else(|e| e.into_inner());
            system.data.catalog.set_stats(table, stats);
        }
        self.plans.lock().unwrap().clear();
        self.prepared.lock().unwrap().clear();
    }

    /// Stops admitting queries, waits for every in-flight query to finish,
    /// and joins the shared pool's workers. Idempotent. Sessions that were
    /// blocked in admission (or arrive later) get
    /// [`QueryError::ShuttingDown`].
    pub fn shutdown(&self) {
        {
            let mut g = self.gate.lock().unwrap();
            g.accepting = false;
            self.admit.notify_all();
            while g.in_flight > 0 {
                g = self.drained.wait(g).unwrap();
            }
        }
        self.pool.shutdown();
    }

    /// Shuts the service down and returns the database, e.g. to restart a
    /// service with different options over the same data.
    pub fn into_system(self) -> LegoBase {
        self.shutdown();
        self.system.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits for an admission slot. A request with an armed deadline stops
    /// waiting when the deadline passes — queueing time counts against the
    /// deadline, so a flooded service declines instead of blocking forever.
    fn admit_until(&self, deadline: Option<Instant>) -> Result<AdmissionSlot<'_>, AdmitDecline> {
        let mut g = self.gate.lock().unwrap();
        loop {
            if !g.accepting {
                return Err(AdmitDecline::ShuttingDown);
            }
            if self.options.max_in_flight == 0 || g.in_flight < self.options.max_in_flight {
                g.in_flight += 1;
                return Ok(AdmissionSlot { service: self });
            }
            match deadline {
                None => g = self.admit.wait(g).unwrap(),
                Some(t) => {
                    let now = Instant::now();
                    if now >= t {
                        return Err(AdmitDecline::Expired);
                    }
                    g = self.admit.wait_timeout(g, t - now).unwrap().0;
                }
            }
        }
    }

    fn read_system(&self) -> std::sync::RwLockReadGuard<'_, LegoBase> {
        self.system.read().unwrap_or_else(|e| e.into_inner())
    }
}

/// One client's handle on a [`QueryService`]. Sessions add per-client
/// policy (the memory budget and scheduling weight) on top of the shared
/// machinery; open as many as you have client threads. Each session is one
/// *tenant* of the shared pool's weighted deficit round-robin.
pub struct Session<'a> {
    service: &'a QueryService,
    memory_budget: Option<usize>,
    tenant: u64,
    weight: u32,
}

impl Session<'_> {
    /// Caps the estimated load-time memory of this session's queries;
    /// estimates above the cap get a typed [`QueryError::OverBudget`]
    /// rejection before any load work happens. A request's own
    /// [`QueryRequest::with_memory_budget`] takes precedence.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets this session's scheduling weight in the shared pool's weighted
    /// deficit round-robin (clamped to ≥ 1): the tenant gets `weight`
    /// consecutive morsel-help grants per scheduler rotation.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// This session's tenant id in the shared pool's scheduler.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Serves one [`QueryRequest`]: the request stages of
    /// [`LegoBase::query`] with the service's additions around them —
    /// deadline-aware admission, the plan and prepared caches (SQL requests
    /// only; hand-built plans are the oracle and load per call), this
    /// session's budget and tenant identity, estimate feedback — and every
    /// failure typed, a kernel panic included. The TCP server's connection
    /// loop calls exactly this.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        self.serve(request).inspect_err(|e| {
            let c = &self.service.counters;
            let counter = match e {
                QueryError::OverBudget { .. } => &c.rejected,
                QueryError::QueryPanicked { .. } => &c.panicked,
                QueryError::DeadlineExceeded { .. } => &c.expired,
                QueryError::Sql(_) | QueryError::ShuttingDown => return,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn serve(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let service = self.service;
        let clock = Clock::start(request);
        let _slot = service.admit_until(clock.deadline).map_err(|d| match d {
            AdmitDecline::ShuttingDown => QueryError::ShuttingDown,
            AdmitDecline::Expired => clock.expired(request),
        })?;
        let system = service.read_system();
        let run = InFlight::new(request, &system, clock, Panics::Contain);
        let (settings, version) = (run.settings, system.data.catalog.version());
        let c = &service.counters;

        // Resolve through the plan cache: parse + optimize are paid once
        // per distinct text. Hand-built plans have no text and no cache.
        let text = match request.kind() {
            QueryKind::Sql(sql) => Some(legobase_sql::cache_text(sql)),
            QueryKind::Plan(_) => None,
        };
        let plan_key = text.clone().map(|text| (text, version, settings.optimize));
        let (resolved, plan_cached) =
            through(&service.plans, plan_key, &c.plan_hits, &c.plan_misses, || run.resolve())?;
        if request.explain() {
            return Ok(QueryResponse { plan_cached, ..run.explain(&resolved) });
        }
        run.check_budget(&resolved.plan, self.memory_budget)?;

        // The decided + assembled form, through the prepared cache: SC's
        // decisions only — the executor never reads the IR or the C, so a
        // miss builds neither. Two sessions racing on the same key both
        // decide and assemble (the store builds each structure once), and
        // the loser's insert wins harmlessly (assembly is deterministic, so
        // the entries are identical).
        let prep_key = text.map(|text| (text, version, settings));
        let (prepared, prepared_cached) =
            through(&service.prepared, prep_key, &c.prepared_hits, &c.prepared_misses, || {
                run.prepare(&resolved.plan)
            })?;

        // Execute under this session's tenant identity (fair scheduling).
        let _pool = service.pool.attach_as(self.tenant, self.weight);
        let structures = if prepared_cached { Vec::new() } else { prepared.structures().to_vec() };
        let response = run.execute(&resolved, &prepared, structures)?;
        // The response reports the estimate as corrected by earlier runs;
        // only then is *this* run judged: a root estimate more than 2× off
        // from the observed cardinality is absorbed back into the catalog.
        // Absorbing bumps the stats epoch, never the catalog version —
        // feedback sharpens estimates without invalidating the
        // correctness-keyed caches (results are bit-identical either way).
        if settings.feedback && settings.optimize {
            if let Some(r) = &response.opt {
                let root = r.root();
                let est = root.est_rows.max(1.0);
                let actual = (response.result.len() as f64).max(1.0);
                if (est / actual).max(actual / est) > 2.0 {
                    let fp = root.fingerprint.clone();
                    drop(system);
                    let mut sys = service.system.write().unwrap_or_else(|e| e.into_inner());
                    sys.data.catalog.absorb_actuals(&[(fp, response.result.len() as f64)]);
                }
            }
        }
        c.ok.fetch_add(1, Ordering::Relaxed);
        Ok(QueryResponse { plan_cached, prepared_cached, ..response })
    }
}

/// Estimates the bytes the query's loaded data structures would occupy,
/// from the catalog statistics — the admission-control analog of the
/// paper's Fig. 20 memory accounting. Follows what the loaded forms
/// reference: the generic engines the row tuples of the relations the plan
/// scans — priced as what the request *adds*, so a relation whose row form
/// the store already holds (`rows_resident`) costs nothing — the
/// specialized engine typed columns (only the used ones when
/// unused-field removal is on, dictionary codes instead of strings when
/// dictionaries are on, plus a partitioning surcharge). Column widths reuse
/// the optimizer's histograms and sketches: an encodable int or date column
/// is priced at its frame-of-reference packed width (from the histogram's
/// value domain), a dictionary column at the code width its distinct count
/// needs — so admission tracks what the encoded store will really hold
/// instead of charging every column its full declared width. Unestimable
/// plans (unknown tables, tables without statistics) contribute zero:
/// admission is a resource gate, not a validator — execution reports such
/// plans through its own typed error.
pub(crate) fn estimate_memory_bytes(
    query: &QueryPlan,
    catalog: &Catalog,
    settings: &Settings,
    rows_resident: &dyn Fn(&str) -> bool,
) -> usize {
    let base_tables = query.base_tables();
    if base_tables.iter().any(|t| catalog.get(t).is_none()) {
        return 0;
    }
    // The `[min, max]` value domain of a column, preferring the histogram's
    // pinned extremes (exact for collected statistics) over the raw bounds.
    let domain = |col: &ColumnStats| -> Option<(f64, f64)> {
        if let Some(h) = &col.histogram {
            return Some((h.bounds[0], *h.bounds.last()?));
        }
        let lo = value_rank(col.min.as_ref()?)?;
        let hi = value_rank(col.max.as_ref()?)?;
        Some((lo, hi))
    };
    // Bytes per value after frame-of-reference packing of `[lo, hi]`.
    let packed_bytes = |lo: f64, hi: f64| -> usize {
        let span = (hi - lo).max(0.0) as u64;
        let bits = (64 - span.leading_zeros() as usize).max(1);
        bits.div_ceil(8)
    };
    // Bytes per dictionary code for `ndv` distinct values.
    let code_bytes = |ndv: usize| -> usize {
        let bits = (usize::BITS as usize - ndv.saturating_sub(1).leading_zeros() as usize).max(1);
        bits.div_ceil(8)
    };
    let col_bytes = |stats: Option<&TableStatistics>, c: usize, ty: Type| -> usize {
        let col = stats.and_then(|s| s.columns.get(c));
        match ty {
            Type::Int => match col.and_then(domain) {
                Some((lo, hi)) if settings.encoding => packed_bytes(lo, hi),
                _ => 8,
            },
            Type::Float => 8,
            Type::Date => match col.and_then(domain) {
                Some((lo, hi)) if settings.encoding => packed_bytes(lo, hi),
                _ => 4,
            },
            Type::Bool => 1,
            Type::Str => {
                if settings.string_dict {
                    let ndv = col.map_or(0, |c| {
                        if c.distinct > 0 {
                            c.distinct
                        } else {
                            c.sketch.as_ref().map_or(0, |s| s.estimate() as usize)
                        }
                    });
                    if ndv > 0 {
                        code_bytes(ndv)
                    } else {
                        8
                    }
                } else {
                    40
                }
            }
        }
    };
    match settings.engine {
        // The generic engines scan boxed-value row tuples, which the store
        // derives per relation the first time one of them asks.
        EngineKind::Volcano | EngineKind::Push => base_tables
            .iter()
            .filter(|t| !rows_resident(t))
            .map(|t| {
                let rows = catalog.stats(t).map_or(0, |s| s.rows);
                rows * (32 * catalog.table(t).schema.len() + 24)
            })
            .sum(),
        EngineKind::Specialized => {
            // Unused-field removal shrinks the load to the touched columns;
            // estimating it requires walking the plan's schemas, which can
            // fail on malformed hand-built plans — fall back to whole-table
            // columns rather than reject (or panic at) the tenant.
            let used = if settings.field_removal {
                catch_unwind(AssertUnwindSafe(|| {
                    used_base_columns(query, &|t| catalog.table(t).schema.len())
                }))
                .ok()
            } else {
                None
            };
            let mut bytes = 0usize;
            for t in &base_tables {
                let meta = catalog.table(t);
                let stats = catalog.stats(t);
                let rows = stats.map_or(0, |s| s.rows);
                let cols: Vec<usize> = match used.as_ref().and_then(|u| u.get(*t)) {
                    Some(keep) => keep.iter().copied().collect(),
                    None => (0..meta.schema.len()).collect(),
                };
                bytes += cols
                    .iter()
                    .map(|&c| rows * col_bytes(stats, c, meta.schema.ty(c)))
                    .sum::<usize>();
            }
            if settings.partitioning {
                // Partitioned copies + date indices: ~25% surcharge.
                bytes += bytes / 4;
            }
            bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FIFO cache honors its capacity and evicts oldest-inserted first.
    #[test]
    fn cache_fifo_eviction() {
        let mut c: Cache<u32, u32> = Cache::new(2);
        c.insert(1, Arc::new(10));
        c.insert(2, Arc::new(20));
        assert_eq!(c.get(&1).as_deref(), Some(&10));
        c.insert(3, Arc::new(30));
        assert!(c.get(&1).is_none(), "oldest entry evicted");
        assert_eq!(c.get(&2).as_deref(), Some(&20));
        assert_eq!(c.get(&3).as_deref(), Some(&30));
        // Re-inserting an existing key neither duplicates nor evicts.
        c.insert(2, Arc::new(21));
        assert_eq!(c.get(&2).as_deref(), Some(&21));
        assert_eq!(c.get(&3).as_deref(), Some(&30));
        c.clear();
        assert!(c.get(&2).is_none());
    }

    /// A zero-capacity cache stores nothing (the "disabled" setting).
    #[test]
    fn cache_capacity_zero_is_disabled() {
        let mut c: Cache<u32, u32> = Cache::new(0);
        c.insert(1, Arc::new(10));
        assert!(c.get(&1).is_none());
    }

    /// Generic engines are estimated at the row form of the relations the
    /// plan scans, minus what the store already holds; specialized with
    /// field removal at only the touched columns — and an unknown table is
    /// unestimable (zero), never a panic.
    #[test]
    fn memory_estimates_follow_the_loaders() {
        let data = legobase_tpch::TpchData::generate(0.002);
        let catalog = data.catalog.clone();
        let q6 = legobase_queries::query(&catalog, 6);
        let cold = |_: &str| false;
        let generic = estimate_memory_bytes(&q6, &catalog, &Settings::baseline(), &cold);
        let specialized = estimate_memory_bytes(&q6, &catalog, &Settings::optimized(), &cold);
        assert!(generic > 0 && specialized > 0);
        assert!(
            specialized < generic,
            "columnar used-only load ({specialized}) must undercut \
             lineitem as rows ({generic})"
        );
        // Q6 scans lineitem only: 16 boxed values and a tuple header a row.
        assert_eq!(generic, data.rows("lineitem") * (32 * 16 + 24));
        let q3 = legobase_queries::query(&catalog, 3);
        let q3_cold = estimate_memory_bytes(&q3, &catalog, &Settings::baseline(), &cold);
        let q3_warm =
            estimate_memory_bytes(&q3, &catalog, &Settings::baseline(), &|t| t == "lineitem");
        assert_eq!(q3_cold - q3_warm, generic, "resident rows are not charged again");
        let bogus = QueryPlan::new("bogus", legobase_engine::Plan::scan("no_such_table"));
        assert_eq!(estimate_memory_bytes(&bogus, &catalog, &Settings::optimized(), &cold), 0);
    }
}
