//! The query API: one request builder, one response, one error — and the one
//! set of request stages every surface runs.
//!
//! [`QueryRequest`] carries everything a query needs — text or plan,
//! settings, the explain flag, a memory budget, an optional deadline — and
//! every execution surface ([`LegoBase::query`],
//! [`Session::query`](crate::Session::query), and the TCP loop in
//! [`crate::server`]) answers with the same [`QueryResponse`] /
//! [`QueryError`] pair.
//!
//! A request passes through six stages, each written once in this module:
//! *resolve* (SQL → plan, optimize), *explain*, *budget check*, *prepare*
//! (SC's decisions + assembly from the store; the facade's *load* also
//! lowers and emits C for inspection), *deadline-armed execute*, and
//! *response assembly*. [`LegoBase::query`] is those stages in order; a
//! session wraps around them only what a service adds (admission, the plan
//! and prepared caches, tenant scheduling, panic containment, estimate
//! feedback, counters).

use crate::service::estimate_memory_bytes;
use crate::{EnvOverrides, LegoBase, LoadedQuery, PreparedQuery};
use legobase_engine::cancel::{self, Cancelled};
use legobase_engine::db::StructureUse;
use legobase_engine::{optimizer, Config, OptReport, QueryPlan, ResultTable, Settings};
use legobase_sql::SqlError;
use legobase_storage::Catalog;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What a [`QueryRequest`] asks to run: SQL text (the normal client path)
/// or a hand-built plan (the oracle path — never rewritten by the
/// optimizer, never cached).
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// A SQL query in the engine's dialect.
    Sql(String),
    /// A pre-built physical plan.
    Plan(QueryPlan),
}

/// One query, fully described: the single request type behind every
/// execution surface of the system — the facade, service sessions, and the
/// `legobase-wire-v3` TCP protocol all consume it unchanged.
///
/// ```no_run
/// use std::time::Duration;
/// use legobase::{Config, LegoBase, QueryRequest, Settings};
///
/// let system = LegoBase::generate(0.01);
/// let sql = "SELECT count(*) AS n FROM lineitem";
///
/// // SQL under a named configuration of Table III, or explicit settings.
/// let resp = system.query(&QueryRequest::sql(sql).with_config(Config::OptC))?;
/// let settings = Settings::optimized().with_parallelism(4);
/// let resp = system.query(&QueryRequest::sql(sql).with_settings(settings))?;
///
/// // EXPLAIN: the plan that would run, rendered back to SQL.
/// let explained = system.query(&QueryRequest::sql(sql).with_explain(true))?;
/// println!("{}", explained.explanation.expect("explain returns the rendering"));
///
/// // A hand-built plan (TPC-H Q6), never rewritten.
/// let resp = system.query(&QueryRequest::plan(system.plan(6)).with_settings(settings))?;
///
/// // Declined with a typed error when over budget or past the deadline.
/// let resp = system.query(
///     &QueryRequest::sql(sql)
///         .with_memory_budget(256 << 20)
///         .with_deadline(Duration::from_secs(2)),
/// )?;
/// # Ok::<(), legobase::QueryError>(())
/// ```
#[derive(Clone, Debug)]
pub struct QueryRequest {
    kind: QueryKind,
    settings: Settings,
    explain: bool,
    memory_budget: Option<usize>,
    deadline: Option<Duration>,
}

impl QueryRequest {
    fn new(kind: QueryKind) -> QueryRequest {
        QueryRequest {
            kind,
            settings: Config::OptC.settings(),
            explain: false,
            memory_budget: None,
            deadline: None,
        }
    }

    /// A request for a SQL query, with [`Config::OptC`] settings (every
    /// optimization on, serial) until overridden.
    pub fn sql(text: impl Into<String>) -> QueryRequest {
        QueryRequest::new(QueryKind::Sql(text.into()))
    }

    /// A request for a hand-built plan. Plan requests are the oracle path:
    /// they are never rewritten by the optimizer and never cached.
    pub fn plan(plan: QueryPlan) -> QueryRequest {
        QueryRequest::new(QueryKind::Plan(plan))
    }

    /// Replaces the settings with a named configuration of Table III.
    pub fn with_config(self, config: Config) -> QueryRequest {
        self.with_settings(config.settings())
    }

    /// Replaces the full settings.
    pub fn with_settings(mut self, settings: Settings) -> QueryRequest {
        self.settings = settings;
        self
    }

    /// Asks for the plan (optimized when the settings say so) rendered back
    /// to dialect SQL instead of executing — the system's `EXPLAIN`.
    pub fn with_explain(mut self, explain: bool) -> QueryRequest {
        self.explain = explain;
        self
    }

    /// Caps the estimated load-time memory of this query; estimates above
    /// the cap are declined with [`QueryError::OverBudget`] before any load
    /// work happens. On a session this overrides the session's own budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> QueryRequest {
        self.memory_budget = Some(bytes);
        self
    }

    /// Arms a deadline, measured from when the executor picks the request
    /// up. Expiry surfaces as [`QueryError::DeadlineExceeded`]; in-flight
    /// morsel-parallel work is cancelled cooperatively at morsel boundaries
    /// (DESIGN.md §3f), and a query that *does* complete returns bytes
    /// identical to an undeadlined run.
    pub fn with_deadline(mut self, deadline: Duration) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }

    /// What the request runs.
    pub fn kind(&self) -> &QueryKind {
        &self.kind
    }

    /// The requested settings.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// True when the request asks for an explanation instead of execution.
    pub fn explain(&self) -> bool {
        self.explain
    }

    /// The request's memory budget, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// The request's deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// A short label for error messages: the SQL text (as written) or the
    /// plan name.
    pub fn label(&self) -> String {
        match &self.kind {
            QueryKind::Sql(text) => legobase_sql::cache_text(text),
            QueryKind::Plan(plan) => plan.name.clone(),
        }
    }

    /// Converts a plan-kind request into an equivalent SQL-kind request by
    /// rendering the plan through [`legobase_sql::plan_to_sql`] (round-trip
    /// proven for the whole workload). This is how hand-built plans cross
    /// the wire: `legobase-wire-v3` transports SQL text only, and the
    /// rendering needs the catalog, which the remote server does not share.
    /// SQL-kind requests pass through unchanged.
    pub fn rendered(self, catalog: &Catalog) -> QueryRequest {
        match &self.kind {
            QueryKind::Sql(_) => self,
            QueryKind::Plan(plan) => {
                let text = legobase_sql::plan_to_sql(plan, catalog);
                QueryRequest { kind: QueryKind::Sql(text), ..self }
            }
        }
    }
}

/// In-process execution detail a [`QueryResponse`] carries when the query
/// ran through the facade's single-shot pipeline (compile + load per call).
/// Service sessions amortize these behind the prepared cache and the wire
/// protocol never transports them, so the field is optional.
pub struct RunDetail {
    /// SC pipeline output: specialization report, IR trace, generated C.
    pub compilation: legobase_sc::CompileResult,
    /// Wall-clock duration of data loading.
    pub load_time: Duration,
    /// Approximate memory held by the loaded database.
    pub memory_bytes: usize,
}

/// The single response type of the query API: every execution surface —
/// facade, session, TCP client — answers with this.
pub struct QueryResponse {
    /// The query result — bit-identical across all surfaces for the same
    /// request (DESIGN.md §3). Empty for explain requests.
    pub result: ResultTable,
    /// Wall-clock duration of query execution (zero for explain requests;
    /// excludes cache lookups and any load on a prepared-cache miss).
    pub exec_time: Duration,
    /// Wall-clock duration of the whole request, caches included. On the
    /// TCP client this is measured client-side and includes the network.
    pub total_time: Duration,
    /// True when a session served the plan from its plan cache.
    pub plan_cached: bool,
    /// True when a session served the decided + assembled form from its
    /// prepared cache.
    pub prepared_cached: bool,
    /// The cost-based optimizer's decision record (SQL path with
    /// [`Settings::optimize`] on). In-process surfaces only — the wire does
    /// not transport it.
    pub opt: Option<OptReport>,
    /// For explain requests: the would-be plan rendered to dialect SQL.
    pub explanation: Option<String>,
    /// For explain requests on in-process surfaces: the executable plan
    /// itself. Never crosses the wire (clients get the SQL rendering).
    pub plan: Option<QueryPlan>,
    /// Single-shot facade runs only: compilation and load accounting.
    pub detail: Option<RunDetail>,
    /// The base structures (columns per layout, partitions, indexes) the
    /// query's load took from the system's store, each marked resident or
    /// built by this request — a cold miss lists builds, a merely slow one
    /// does not. Empty when a session served the loaded form from its
    /// prepared cache (nothing was asked for); for explain requests, the
    /// structures the query *would* load, marked resident or not.
    /// In-process surfaces only — the wire does not transport it.
    pub structures: Vec<StructureUse>,
    /// For explain requests on in-process surfaces: the `LEGOBASE_*`
    /// overrides the system was constructed under. The explained plan and
    /// structures are the request's settings with these applied on top.
    pub env: Option<EnvOverrides>,
}

/// Why a query was declined or failed — the one error type of the API.
/// Every failure mode is a typed variant, none collapsed to a string (a
/// [`SqlError`] keeps its span; the wire carries each variant field for
/// field), so callers match a single enum end to end.
#[derive(Debug)]
pub enum QueryError {
    /// The SQL text failed to parse, resolve, or type-check. The spanned
    /// [`SqlError`] is carried whole — render it against the query text for
    /// a caret diagnostic.
    Sql(SqlError),
    /// The query's estimated load-time memory exceeds the effective budget
    /// (the request's, or the session's default).
    OverBudget {
        /// Estimated bytes the query's data structures would occupy.
        estimated_bytes: usize,
        /// The effective budget in bytes.
        budget_bytes: usize,
        /// The declined query (canonicalized text or plan name).
        query: String,
    },
    /// The service is shutting down and no longer admits queries.
    ShuttingDown,
    /// The query's kernel panicked during load or execution; the panic was
    /// contained and every other session keeps serving.
    QueryPanicked {
        /// The failing query (canonicalized text or plan name).
        query: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The request's deadline fired before the query completed. Partial
    /// morsel-parallel work was cancelled cooperatively; no result bytes
    /// were produced.
    DeadlineExceeded {
        /// The expired query (canonicalized text or plan name).
        query: String,
        /// The deadline the request asked for.
        deadline: Duration,
        /// Wall-clock time actually elapsed when expiry was observed.
        elapsed: Duration,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Sql(e) => write!(f, "SQL error: {e}"),
            QueryError::OverBudget { estimated_bytes, budget_bytes, query } => write!(
                f,
                "query `{query}` rejected: estimated {estimated_bytes} bytes exceeds \
                 the budget of {budget_bytes} bytes"
            ),
            QueryError::ShuttingDown => f.write_str("service is shutting down"),
            QueryError::QueryPanicked { query, message } => {
                write!(f, "query `{query}` panicked: {message}")
            }
            QueryError::DeadlineExceeded { query, deadline, elapsed } => write!(
                f,
                "query `{query}` exceeded its deadline of {deadline:?} (elapsed {elapsed:?})"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Sql(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SqlError> for QueryError {
    fn from(e: SqlError) -> QueryError {
        QueryError::Sql(e)
    }
}

// ---------------------------------------------------------------------------
// The request stages
// ---------------------------------------------------------------------------

/// When a surface picked a request up, and when the request must be done.
pub(crate) struct Clock {
    start: Instant,
    pub(crate) deadline: Option<Instant>,
}

impl Clock {
    pub(crate) fn start(request: &QueryRequest) -> Clock {
        let start = Instant::now();
        Clock { start, deadline: request.deadline().map(|d| start + d) }
    }

    /// The typed answer to a deadline that fired, wherever it was observed
    /// (waiting for admission, before execution, or at a morsel boundary).
    pub(crate) fn expired(&self, request: &QueryRequest) -> QueryError {
        QueryError::DeadlineExceeded {
            query: request.label(),
            deadline: request.deadline().unwrap_or_default(),
            elapsed: self.start.elapsed(),
        }
    }
}

/// What a surface does with a kernel panic — the one documented difference
/// between the in-process surfaces: the facade lets it propagate (the
/// behavior the oracle suites pin), a session types it as
/// [`QueryError::QueryPanicked`] so every other tenant keeps serving.
#[derive(Clone, Copy)]
pub(crate) enum Panics {
    Propagate,
    Contain,
}

/// An executable plan and, for optimized SQL, the optimizer's decision
/// record — what the resolve stage produces and the plan cache keeps.
pub(crate) struct ResolvedPlan {
    pub(crate) plan: QueryPlan,
    pub(crate) report: Option<OptReport>,
}

/// One request in flight on one system. Its methods are the request stages,
/// in the order a surface calls them.
pub(crate) struct InFlight<'a> {
    request: &'a QueryRequest,
    system: &'a LegoBase,
    /// The request's settings under the system's environment overrides.
    pub(crate) settings: Settings,
    clock: Clock,
    panics: Panics,
}

impl<'a> InFlight<'a> {
    pub(crate) fn new(
        request: &'a QueryRequest,
        system: &'a LegoBase,
        clock: Clock,
        panics: Panics,
    ) -> InFlight<'a> {
        let settings = system.env().apply(request.settings());
        InFlight { request, system, settings, clock, panics }
    }

    fn catalog(&self) -> &'a Catalog {
        &self.system.data.catalog
    }

    /// Stage 1: the plan the request runs. SQL is parsed, lowered and — when
    /// the settings say so — optimized; hand-built plans are the oracle and
    /// are never rewritten.
    pub(crate) fn resolve(&self) -> Result<ResolvedPlan, QueryError> {
        Ok(match self.request.kind() {
            QueryKind::Sql(text) => {
                let lowered = legobase_sql::plan(text, self.catalog())?;
                if self.settings.optimize {
                    let (plan, report) = optimizer::optimize(&lowered, self.catalog());
                    ResolvedPlan { plan, report: Some(report) }
                } else {
                    ResolvedPlan { plan: lowered, report: None }
                }
            }
            QueryKind::Plan(plan) => ResolvedPlan { plan: plan.clone(), report: None },
        })
    }

    /// A response with the fields every surface fills; cache flags and run
    /// detail are added by whoever has them. The decision record is a copy
    /// of the resolved one (which may sit in a plan cache, recorded before
    /// any feedback existed) with the observed row count and the catalog's
    /// absorbed actuals patched in.
    fn response(
        &self,
        resolved: &ResolvedPlan,
        result: ResultTable,
        exec_time: Duration,
        structures: Vec<StructureUse>,
    ) -> QueryResponse {
        let executed = (!self.request.explain()).then_some(result.len());
        let opt = resolved.report.clone().map(|mut r| {
            r.actual_rows = executed;
            r.apply_feedback(self.catalog());
            r
        });
        QueryResponse {
            result,
            exec_time,
            total_time: self.clock.start.elapsed(),
            plan_cached: false,
            prepared_cached: false,
            opt,
            explanation: None,
            plan: None,
            detail: None,
            structures,
            env: None,
        }
    }

    /// Stage 2 (explain requests end here): the plan rendered back to SQL,
    /// the decision record, and the base structures it would load.
    pub(crate) fn explain(&self, resolved: &ResolvedPlan) -> QueryResponse {
        let structures = self.system.structures_for(&resolved.plan, &self.settings);
        let empty = ResultTable(legobase_storage::RowTable::default());
        QueryResponse {
            explanation: Some(legobase_sql::plan_to_sql(&resolved.plan, self.catalog())),
            plan: Some(resolved.plan.clone()),
            env: Some(*self.system.env()),
            ..self.response(resolved, empty, Duration::ZERO, structures)
        }
    }

    /// Stage 3: declines a plan whose estimated load-time memory exceeds
    /// the request's budget (or `default`, a session's), before any load
    /// work happens.
    pub(crate) fn check_budget(
        &self,
        plan: &QueryPlan,
        default: Option<usize>,
    ) -> Result<(), QueryError> {
        let Some(budget_bytes) = self.request.memory_budget().or(default) else { return Ok(()) };
        let estimated_bytes =
            estimate_memory_bytes(plan, self.catalog(), &self.settings, &|table| {
                self.system.rows_resident(table)
            });
        if estimated_bytes <= budget_bytes {
            return Ok(());
        }
        Err(QueryError::OverBudget { estimated_bytes, budget_bytes, query: self.request.label() })
    }

    /// Runs a kernel (a load or an execution) and types how it unwound: the
    /// cancellation sentinel is the deadline firing; anything else is a
    /// panic, handled as the surface asked.
    fn guarded<T>(&self, kernel: impl FnOnce() -> T) -> Result<T, QueryError> {
        catch_unwind(AssertUnwindSafe(kernel)).map_err(|payload| {
            if payload.is::<Cancelled>() {
                return self.clock.expired(self.request);
            }
            match self.panics {
                Panics::Propagate => resume_unwind(payload),
                Panics::Contain => {
                    let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    QueryError::QueryPanicked { query: self.request.label(), message }
                }
            }
        })
    }

    /// Stage 4: SC's decisions plus assembly of the plan's database from
    /// the system's store — what a session executes and caches. Assembly
    /// can panic on malformed hand-built plans.
    pub(crate) fn prepare(&self, plan: &QueryPlan) -> Result<PreparedQuery, QueryError> {
        self.guarded(|| self.system.prepare(plan, &self.settings))
    }

    /// Stage 4 on the facade: [`InFlight::prepare`] plus the full SC
    /// compilation (lowered IR and C) its [`RunDetail`] reports.
    pub(crate) fn load(&self, plan: &QueryPlan) -> Result<LoadedQuery, QueryError> {
        self.guarded(|| self.system.load(plan, &self.settings))
    }

    /// Stage 5: one execution under the request's deadline — checked before
    /// starting, then armed for cooperative cancellation at morsel
    /// boundaries (`engine::cancel`) — and stage 6, the response.
    /// `structures` is what the assembly took from the store (empty when
    /// the prepared form came from a cache).
    pub(crate) fn execute(
        &self,
        resolved: &ResolvedPlan,
        prepared: &PreparedQuery,
        structures: Vec<StructureUse>,
    ) -> Result<QueryResponse, QueryError> {
        if self.clock.deadline.is_some_and(|t| Instant::now() >= t) {
            return Err(self.clock.expired(self.request));
        }
        let _armed = self.clock.deadline.map(cancel::deadline_scope);
        let t_exec = Instant::now();
        let result = self.guarded(|| prepared.execute())?;
        Ok(self.response(resolved, result, t_exec.elapsed(), structures))
    }
}

impl LegoBase {
    /// Runs one [`QueryRequest`] through the single-shot pipeline: every
    /// stage, every time — parse, optimize, SC compilation, load, execute —
    /// with nothing cached between calls but the base-structure store. The
    /// response carries the compilation and load accounting in
    /// [`QueryResponse::detail`]. For the amortized multi-tenant path, open
    /// a [`Session`](crate::Session) and call
    /// [`Session::query`](crate::Session::query) with the same request.
    ///
    /// Malformed SQL is a spanned [`QueryError::Sql`] (render it against
    /// the text for a caret diagnostic), never a panic; a panic inside a
    /// kernel — a malformed hand-built plan — propagates to the caller.
    ///
    /// ```no_run
    /// use legobase::{Config, LegoBase, QueryRequest};
    /// let system = LegoBase::generate(0.01);
    /// let sql = "SELECT l_returnflag, count(*) AS n FROM lineitem \
    ///            GROUP BY l_returnflag ORDER BY l_returnflag";
    /// let out = system.query(&QueryRequest::sql(sql).with_config(Config::OptC))?;
    /// println!("{}", out.result.display(10));
    /// # Ok::<(), legobase::QueryError>(())
    /// ```
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let run = InFlight::new(request, self, Clock::start(request), Panics::Propagate);
        let resolved = run.resolve()?;
        if request.explain() {
            return Ok(run.explain(&resolved));
        }
        run.check_budget(&resolved.plan, None)?;
        let loaded = run.load(&resolved.plan)?;
        let response = run.execute(&resolved, &loaded, loaded.structures().to_vec())?;
        let report = loaded.load_report();
        let detail = RunDetail {
            compilation: loaded.compilation,
            load_time: report.duration,
            memory_bytes: report.approx_bytes,
        };
        Ok(QueryResponse { detail: Some(detail), ..response })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let r = QueryRequest::sql("SELECT count(*) AS n FROM lineitem");
        assert_eq!(*r.settings(), Config::OptC.settings());
        assert!(!r.explain() && r.memory_budget().is_none() && r.deadline().is_none());
        let r = r
            .with_config(Config::Dbx)
            .with_explain(true)
            .with_memory_budget(1 << 20)
            .with_deadline(Duration::from_millis(5));
        assert_eq!(*r.settings(), Config::Dbx.settings());
        assert!(r.explain());
        assert_eq!(r.memory_budget(), Some(1 << 20));
        assert_eq!(r.deadline(), Some(Duration::from_millis(5)));
    }

    /// The label is the canonicalized text for SQL requests and the plan
    /// name for plan requests.
    #[test]
    fn labels_are_canonical_text_or_plan_name() {
        let r = QueryRequest::sql("SELECT   count(*) AS n\nFROM lineitem");
        assert_eq!(r.label(), legobase_sql::cache_text("SELECT count(*) AS n FROM lineitem"));
        let catalog = legobase_tpch::TpchData::generate(0.001).catalog;
        let plan = legobase_queries::query(&catalog, 6);
        assert_eq!(QueryRequest::plan(plan).label(), "Q6");
    }
}
