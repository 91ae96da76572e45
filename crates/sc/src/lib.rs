#![warn(missing_docs)]
//! SC — the optimizing compiler of LegoBase (Section 2.2 of the paper).
//!
//! SC's design principles, reproduced here:
//!
//! 1. **High-level rules, hidden IR internals** — optimizations are written
//!    as `analysis += rule { … }` / `rewrite += rule { … }` pattern matches
//!    over a typed IR ([`rules`]), never against code-generation templates.
//! 2. **Explicit transformation pipelines** — developers order transformers
//!    freely ([`pipeline`]), reproducing Fig. 5b: each LegoBase optimization
//!    is one pluggable transformer, cleanup passes (partial evaluation, DCE,
//!    CSE, scalar replacement) are re-run between domain-specific phases.
//! 3. **Progressive lowering** (Fig. 6/7) — the program starts as inlined
//!    query-operator code over generic collections ([`build`]), is lowered
//!    stage by stage (partitioned arrays, chained bucket arrays, dictionary
//!    integers, record-of-arrays, hoisted pools), and only the lowest level
//!    is stringified to C ([`cgen`]).
//!
//! The transformers live in [`transform`], one per paper optimization
//! (partitioning + date indices §§3.2.1/3.2.3, hash-map lowering §3.2.2,
//! column layout §3.3, string dictionaries §3.4, code motion §3.5, loop
//! fusion, field promotion), plus the beyond-the-paper
//! [`transform::Encode`], which chooses the columns that load bit-packed.
//!
//! The pipeline produces two artifacts per query:
//! * a [`legobase_engine::Specialization`] report — the load/execution
//!   decisions the specialized executor consumes (this is how compilation
//!   decisions become measurable end to end), and
//! * the C source of the specialized query (inspectable, compiled with the
//!   system `cc` in tests; DESIGN.md §4 walks one query through the whole
//!   path).
//!
//! The two are made by separate halves of every transformer
//! ([`rules::Transformer`]): `decide` reads the physical plan and records
//! the report, `run` lowers the IR under the finished report. [`specialize`]
//! runs only the decisions — what a served miss needs, since the executor
//! obeys the report and never reads the IR — while [`compile`] decides,
//! then builds, lowers and emits C for inspection (the facade's
//! `LegoBase::load`, `figures`, the examples).

pub mod build;
pub mod cgen;
pub mod eval;
pub mod ir;
pub mod pipeline;
pub mod rules;
pub mod scala;
pub mod transform;

pub use pipeline::{compile, specialize, CompileResult, Pipeline};
