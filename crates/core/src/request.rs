//! The unified query API: one request builder, one response, one error.
//!
//! PR 6 left the facade with four near-duplicate entry points (`run_sql`,
//! `run_sql_with_settings`, `explain_sql`, `run_plan`) duplicated again on
//! [`Session`](crate::Session) — the wrong surface to freeze into a wire
//! protocol. [`QueryRequest`] replaces all of them with a single builder
//! that carries everything a query needs — text or plan, settings, the
//! explain flag, a memory budget, an optional deadline — and every
//! execution path ([`LegoBase::query`], [`Session::query`](crate::Session::query),
//! and the TCP loop in [`crate::server`]) answers with the same
//! [`QueryResponse`] / [`QueryError`] pair. The legacy entry points survive
//! as thin wrappers, so nothing built on them changes behavior.

use crate::service::{estimate_memory_bytes, ServiceError};
use crate::{requested_settings, LegoBase, RunOutcome};
use legobase_engine::db::StructureUse;
use legobase_engine::{optimizer, Config, OptReport, QueryPlan, ResultTable, Settings};
use legobase_sql::SqlError;
use legobase_storage::Catalog;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
/// `legobase-wire-v1` TCP protocol all consume it unchanged.
///
/// # Migrating from the legacy entry points
///
/// Each pre-PR-9 method maps onto one builder chain (the old methods still
/// work — they are thin wrappers over this type):
///
/// ```no_run
/// use std::time::Duration;
/// use legobase::{Config, LegoBase, QueryRequest, Settings};
///
/// let system = LegoBase::generate(0.01);
/// let sql = "SELECT count(*) AS n FROM lineitem";
///
/// // run_sql(sql, Config::OptC)
/// let resp = system.query(&QueryRequest::sql(sql).with_config(Config::OptC))?;
///
/// // run_sql_with_settings(sql, &settings)
/// let settings = Settings::optimized().with_parallelism(4);
/// let resp = system.query(&QueryRequest::sql(sql).with_settings(settings))?;
///
/// // explain_sql(sql, Config::OptC)
/// let explained = system.query(&QueryRequest::sql(sql).with_explain(true))?;
/// println!("{}", explained.explanation.expect("explain returns the rendering"));
///
/// // run_plan(&plan, &settings)
/// let plan = system.plan(6);
/// let resp = system.query(&QueryRequest::plan(plan).with_settings(settings))?;
///
/// // New capabilities with no legacy equivalent:
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
    /// A request for a SQL query, with [`Config::OptC`] settings (every
    /// optimization on, serial) until overridden.
    pub fn sql(text: impl Into<String>) -> QueryRequest {
        QueryRequest {
            kind: QueryKind::Sql(text.into()),
            settings: Config::OptC.settings(),
            explain: false,
            memory_budget: None,
            deadline: None,
        }
    }

    /// A request for a hand-built plan. Plan requests are the oracle path:
    /// they are never rewritten by the optimizer and never cached.
    pub fn plan(plan: QueryPlan) -> QueryRequest {
        QueryRequest {
            kind: QueryKind::Plan(plan),
            settings: Config::OptC.settings(),
            explain: false,
            memory_budget: None,
            deadline: None,
        }
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
    /// the wire: `legobase-wire-v1` transports SQL text only, and the
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

/// The single response type of the unified API: every execution surface —
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
    /// True when a session served the compiled + loaded form from its
    /// prepared cache.
    pub prepared_cached: bool,
    /// The cost-based optimizer's decision record (SQL path with
    /// [`Settings::optimize`] on). In-process surfaces only — wire v1 does
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
    /// In-process surfaces only — wire v1 does not transport it.
    pub structures: Vec<StructureUse>,
}

impl QueryResponse {
    pub(crate) fn from_run_outcome(
        outcome: RunOutcome,
        structures: Vec<StructureUse>,
        total_time: Duration,
    ) -> QueryResponse {
        QueryResponse {
            result: outcome.result,
            exec_time: outcome.exec_time,
            total_time,
            plan_cached: false,
            prepared_cached: false,
            opt: outcome.opt,
            explanation: None,
            plan: None,
            detail: Some(RunDetail {
                compilation: outcome.compilation,
                load_time: outcome.load_time,
                memory_bytes: outcome.memory_bytes,
            }),
            structures,
        }
    }

    pub(crate) fn explanation(
        plan: QueryPlan,
        sql: String,
        opt: Option<OptReport>,
        structures: Vec<StructureUse>,
        total_time: Duration,
    ) -> QueryResponse {
        QueryResponse {
            result: ResultTable(legobase_storage::RowTable::default()),
            exec_time: Duration::ZERO,
            total_time,
            plan_cached: false,
            prepared_cached: false,
            opt,
            explanation: Some(sql),
            plan: Some(plan),
            detail: None,
            structures,
        }
    }

    pub(crate) fn into_run_outcome(self) -> RunOutcome {
        let detail = self.detail.expect("single-shot facade responses carry run detail");
        RunOutcome {
            result: self.result,
            compilation: detail.compilation,
            load_time: detail.load_time,
            memory_bytes: detail.memory_bytes,
            exec_time: self.exec_time,
            opt: self.opt,
        }
    }
}

/// Why a query was declined or failed — the one error type of the unified
/// API. Every variant is typed and lossless: [`ServiceError`] and
/// [`SqlError`] convert in with no field dropped and no variant collapsed
/// to a string (spans included), so callers match a single enum end to end.
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

impl From<ServiceError> for QueryError {
    fn from(e: ServiceError) -> QueryError {
        match e {
            ServiceError::Sql(e) => QueryError::Sql(e),
            ServiceError::OverBudget { estimated_bytes, budget_bytes, query } => {
                QueryError::OverBudget { estimated_bytes, budget_bytes, query }
            }
            ServiceError::ShuttingDown => QueryError::ShuttingDown,
            ServiceError::QueryPanicked { query, message } => {
                QueryError::QueryPanicked { query, message }
            }
            ServiceError::DeadlineExceeded { query, deadline, elapsed } => {
                QueryError::DeadlineExceeded { query, deadline, elapsed }
            }
        }
    }
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> ServiceError {
        match e {
            QueryError::Sql(e) => ServiceError::Sql(e),
            QueryError::OverBudget { estimated_bytes, budget_bytes, query } => {
                ServiceError::OverBudget { estimated_bytes, budget_bytes, query }
            }
            QueryError::ShuttingDown => ServiceError::ShuttingDown,
            QueryError::QueryPanicked { query, message } => {
                ServiceError::QueryPanicked { query, message }
            }
            QueryError::DeadlineExceeded { query, deadline, elapsed } => {
                ServiceError::DeadlineExceeded { query, deadline, elapsed }
            }
        }
    }
}

impl LegoBase {
    /// Runs one [`QueryRequest`] through the single-shot pipeline — the
    /// facade implementation of the unified API, and the path every legacy
    /// entry point ([`LegoBase::run_sql`], [`LegoBase::run_sql_with_settings`],
    /// [`LegoBase::explain_sql`], [`LegoBase::run_plan`]) now wraps. For
    /// the amortized multi-tenant path, open a
    /// [`Session`](crate::Session) and call
    /// [`Session::query`](crate::Session::query) with the same request.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let t_total = Instant::now();
        let settings = requested_settings(request.settings());
        let (plan, report) = match request.kind() {
            QueryKind::Sql(text) => {
                let lowered = legobase_sql::plan(text, &self.data.catalog)?;
                if settings.optimize {
                    let (p, r) = optimizer::optimize(&lowered, &self.data.catalog);
                    (p, Some(r))
                } else {
                    (lowered, None)
                }
            }
            // Hand-built plans are the oracle: never rewritten.
            QueryKind::Plan(p) => (p.clone(), None),
        };
        if request.explain() {
            let sql = legobase_sql::plan_to_sql(&plan, &self.data.catalog);
            let structures = self.structures_for(&plan, &settings);
            return Ok(QueryResponse::explanation(
                plan,
                sql,
                report,
                structures,
                t_total.elapsed(),
            ));
        }
        if let Some(budget) = request.memory_budget() {
            let est = estimate_memory_bytes(&plan, &self.data.catalog, &settings);
            if est > budget {
                return Err(QueryError::OverBudget {
                    estimated_bytes: est,
                    budget_bytes: budget,
                    query: request.label(),
                });
            }
        }
        let (mut outcome, structures) = match request.deadline() {
            None => self.execute_plan(&plan, &settings),
            Some(d) => {
                let deadline = t_total + d;
                if Instant::now() >= deadline {
                    return Err(QueryError::DeadlineExceeded {
                        query: request.label(),
                        deadline: d,
                        elapsed: t_total.elapsed(),
                    });
                }
                let _armed = legobase_engine::cancel::deadline_scope(deadline);
                match catch_unwind(AssertUnwindSafe(|| self.execute_plan(&plan, &settings))) {
                    Ok(outcome) => outcome,
                    Err(payload) if payload.is::<legobase_engine::cancel::Cancelled>() => {
                        return Err(QueryError::DeadlineExceeded {
                            query: request.label(),
                            deadline: d,
                            elapsed: t_total.elapsed(),
                        });
                    }
                    // The facade keeps its panic semantics: only the typed
                    // cancellation sentinel becomes an error here (the
                    // service layer is where panics become typed).
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        };
        if let Some(mut r) = report {
            r.actual_rows = Some(outcome.result.len());
            outcome.opt = Some(r);
        }
        Ok(QueryResponse::from_run_outcome(outcome, structures, t_total.elapsed()))
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
    /// name for plan requests — the same strings the legacy errors carried.
    #[test]
    fn labels_match_legacy_error_strings() {
        let r = QueryRequest::sql("SELECT   count(*) AS n\nFROM lineitem");
        assert_eq!(r.label(), legobase_sql::cache_text("SELECT count(*) AS n FROM lineitem"));
        let catalog = legobase_tpch::TpchData::generate(0.001).catalog;
        let plan = legobase_queries::query(&catalog, 6);
        assert_eq!(QueryRequest::plan(plan).label(), "Q6");
    }
}
