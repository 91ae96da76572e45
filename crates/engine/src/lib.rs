#![warn(missing_docs)]
//! The LegoBase query engine.
//!
//! The paper's engine is written once at a high level of abstraction and then
//! specialized by the SC compiler. This crate contains both ends of that
//! spectrum plus everything in between (see DESIGN.md for the substitution
//! rationale):
//!
//! * [`expr`] / [`plan`] — the engine-independent physical algebra: every
//!   TPC-H query is written once as a [`plan::QueryPlan`] and can run under
//!   any configuration.
//! * [`interp`] — a tree-walking expression interpreter over generic tuples
//!   (the "no compilation" execution mode of the DBX baseline and the
//!   `*Scala` configurations).
//! * [`closure`] — expressions compiled to nested Rust closures (the
//!   "operator inlining" analog of query compilers).
//! * [`volcano`] — the classical pull-based iterator engine (DBX baseline).
//! * [`push`] — the push-style engine of Neumann-style compilers and of
//!   LegoBase's naive configuration, with optional row-level partitioned
//!   joins (the TPC-H-compliant configuration).
//! * [`kernel`] / [`specialized`] — the specialized executor standing in for
//!   the paper's generated C (§§3.1–3.5, DESIGN.md §2): typed column access,
//!   partitioned joins (Fig. 10), lowered hash maps (Fig. 11), dictionary
//!   integers (Table II), date-index scans (Fig. 12), hoisted allocations
//!   (§3.5), and — when the specialization report asks for it —
//!   morsel-driven parallel execution of scans, filters, pre-aggregation,
//!   hash-join build/probe, and sorts (beyond the paper, whose generated C
//!   is single-threaded; deterministic per DESIGN.md §3). The scheduling
//!   primitive itself lives in the crate-private `parallel` module.
//! * [`pool`] — a long-lived shared worker pool that schedules morsels from
//!   many in-flight queries at once: the scheduler substrate of the
//!   multi-tenant query service (`legobase::service`, DESIGN.md §3d). A
//!   session attaches the pool to its thread and every `run_morsels` call
//!   transparently shares the pool's workers instead of spawning its own.
//!   Help requests queue per tenant and are granted by weighted deficit
//!   round-robin, so one tenant's flood cannot starve another's point query
//!   (DESIGN.md §3f).
//! * [`cancel`] — cooperative deadline cancellation at morsel boundaries:
//!   the service arms a per-query deadline, every scheduling path re-checks
//!   it before claiming an item, and expiry unwinds with the
//!   [`cancel::Cancelled`] sentinel that the service maps to a typed error.
//! * [`settings`] — the optimization toggles and the named configurations of
//!   Table III.
//! * [`optimizer`] — the cost-based logical optimizer that sits between the
//!   SQL frontend's naive lowering and everything below: predicate pushdown,
//!   cross-conjunct inference, and join reordering driven by the catalog
//!   statistics, reported per query as an [`optimizer::OptReport`].
//! * [`spec`] — the per-query specialization report produced by the SC
//!   transformation pipeline and consumed at load/execution time: which
//!   structures to build (§§3.2–3.4), which columns to keep (§3.6.1), and
//!   which columns to pack (DESIGN.md §3e).
//! * [`db`] — the base-structure store (every column layout, dictionary,
//!   partition and index — and the row form the generic engines scan —
//!   derived once per dataset from its base columns) and the loaders that
//!   assemble each query's database from it, with timing and memory
//!   accounting (Figs. 20–21).
//! * [`interop`] — the inter-operator optimization of Fig. 9 (aggregation
//!   merged into the join's materialization).

#[cfg(test)]
mod block_tests;
pub mod cancel;
pub mod closure;
pub mod db;
pub mod expr;
#[cfg(test)]
mod fold_tests;
pub mod interop;
pub mod interp;
pub mod kernel;
pub mod optimizer;
pub(crate) mod parallel;
pub mod plan;
pub mod pool;
pub mod push;
pub mod result;
pub mod settings;
pub mod spec;
pub mod specialized;
pub mod volcano;

pub use db::{BaseStore, GenericDb, SpecializedDb};
pub use expr::{AggKind, ArithOp, CmpOp, Expr};
pub use optimizer::{OptReport, Passes};
pub use plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
pub use pool::MorselPool;
pub use result::ResultTable;
pub use settings::{Config, EngineKind, Settings};
pub use spec::Specialization;
