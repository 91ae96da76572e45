//! Parallelize: derives the morsel-driven parallelism decisions per query.
//!
//! The paper's generated C executes queries single-threaded; this opt-in
//! transformer extends the same compiler-decides/executor-obeys discipline to
//! intra-query parallelism. Its decision reads the physical plan, not the
//! IR: when the query scans at least one relation (in practice always —
//! every plan bottoms out in scans, which the specialized engine cuts into
//! morsels), the requested worker-thread degree is recorded in the
//! [`Specialization`] report; a query with nothing morsel-partitionable is
//! pinned to serial execution.
//!
//! Beyond the degree, the transformer also decides **which join and sort
//! operators are safe to parallelize** and records those clearances in the
//! report (`parallel_joins` / `parallel_sorts`). Every `HashJoin` is
//! key-partitionable by construction — whatever its build side lowers to
//! later (a generic multi-map, a chained bucket array, a load-time partition
//! lookup) — so each one in a parallelizable plan is cleared for the
//! radix-partitioned build and the morsel-parallel probe. A `Sort` is
//! cleared when it actually orders by keys (a keyless sort is a no-op the
//! executor never parallelizes). These counts equal what the IR holds after
//! lowering: one join table per `HashJoin`, one `SortEmitted` per `Sort`.
//!
//! The transformer only *decides*; its IR pass just marks the decision with
//! a banner comment in the lowered program and the generated C. The
//! mechanics — fixed-size morsels over the shared columns, per-morsel
//! partial states, deterministic merge in morsel order, key-disjoint join
//! sub-tables, the tie-toward-earlier-run k-way sort merge — live in
//! `legobase_engine::specialized` and `legobase_storage::{morsel,
//! partition}`, documented in DESIGN.md §3.

use crate::ir::{Program, Stmt};
use crate::rules::{TransformCtx, Transformer};
use legobase_engine::plan::Plan;
use legobase_engine::Specialization;

/// Decides the per-query morsel-driven parallelism degree plus the join/sort
/// clearances and records them in the specialization report (a comment marks
/// the decisions in the lowered program and the generated C).
pub struct Parallelize;

impl Transformer for Parallelize {
    fn name(&self) -> &'static str {
        "Parallelize"
    }

    fn decide(&self, ctx: &mut TransformCtx<'_>) {
        let (mut scans, mut joins, mut sorts) = (0usize, 0usize, 0usize);
        for plan in ctx.query.plans() {
            plan.walk(&mut |p| match p {
                Plan::Scan { .. } => scans += 1,
                Plan::HashJoin { .. } => joins += 1,
                Plan::Sort { keys, .. } if !keys.is_empty() => sorts += 1,
                _ => {}
            });
        }
        record(&mut ctx.spec, ctx.settings.parallelism, scans, joins, sorts);
    }

    fn run(&self, prog: Program, ctx: &TransformCtx<'_>) -> Program {
        let spec = &ctx.spec;
        if spec.parallelism <= 1 {
            return prog;
        }
        let (joins, sorts) = (spec.parallel_joins, spec.parallel_sorts);
        let mut banner = format!("morsel-driven parallel execution, degree {}", spec.parallelism);
        if joins > 0 || sorts > 0 {
            banner.push_str(&format!(" ({joins} partitioned join(s), {sorts} merge sort(s))"));
        }
        let mut stmts = vec![Stmt::Comment(banner)];
        stmts.extend(prog.stmts);
        Program { stmts, ..prog }
    }
}

/// The decision from the plan's operator counts: the requested degree when
/// there is anything to cut into morsels, and the clearances only then.
fn record(spec: &mut Specialization, requested: usize, scans: usize, joins: usize, sorts: usize) {
    let degree = if scans > 0 { requested.max(1) } else { 1 };
    spec.parallelism = degree;
    spec.parallel_joins = if degree > 1 { joins } else { 0 };
    spec.parallel_sorts = if degree > 1 { sorts } else { 0 };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use legobase_engine::Settings;

    #[test]
    fn records_requested_degree_for_scanning_queries() {
        let cat = legobase_tpch::catalog();
        for n in [1usize, 6, 12] {
            let q = legobase_queries::query(&cat, n);
            let result = compile(&q, &cat, &Settings::optimized().with_parallelism(4));
            assert_eq!(result.spec.parallelism, 4, "Q{n} should parallelize");
            assert!(
                result.c_source.contains("morsel-driven parallel execution, degree 4"),
                "Q{n}: decision comment missing from generated C"
            );
        }
    }

    /// The transformer clears joins and sorts per query: join-heavy
    /// ORDER BY queries (Q3, Q10, Q12) get both; Q1 sorts but joins
    /// nothing; Q6 is a pure scan→aggregate with neither.
    #[test]
    fn records_join_and_sort_clearances_per_query() {
        let cat = legobase_tpch::catalog();
        let compiled = |n: usize| {
            compile(
                &legobase_queries::query(&cat, n),
                &cat,
                &Settings::optimized().with_parallelism(4),
            )
        };
        for n in [3usize, 10, 12] {
            let result = compiled(n);
            assert!(result.spec.parallel_joins > 0, "Q{n} must clear its joins");
            assert!(result.spec.parallel_sorts > 0, "Q{n} must clear its sort");
            assert!(
                result.c_source.contains("partitioned join(s)"),
                "Q{n}: join clearance missing from the generated-C banner"
            );
        }
        let q1 = compiled(1);
        assert_eq!(q1.spec.parallel_joins, 0, "Q1 has no join");
        assert!(q1.spec.parallel_sorts > 0, "Q1 orders by returnflag/linestatus");
        let q6 = compiled(6);
        assert_eq!(q6.spec.parallel_joins, 0);
        assert_eq!(q6.spec.parallel_sorts, 0);
    }

    #[test]
    fn serial_request_stays_serial_and_unmarked() {
        let cat = legobase_tpch::catalog();
        let q = legobase_queries::query(&cat, 6);
        let result = compile(&q, &cat, &Settings::optimized());
        assert_eq!(result.spec.parallelism, 1);
        assert_eq!(result.spec.parallel_joins, 0);
        assert_eq!(result.spec.parallel_sorts, 0);
        assert!(!result.c_source.contains("morsel-driven"));
        // The serial pipeline does not even include the phase.
        assert!(!result.trace.iter().any(|t| t.name == "Parallelize"));
    }

    #[test]
    fn scanless_program_pinned_to_serial() {
        let catalog = legobase_tpch::catalog();
        let q = legobase_queries::query(&catalog, 6);
        let settings = Settings::optimized().with_parallelism(8);
        let mut ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &q,
            spec: Default::default(),
        };
        // Every plan scans something, so the plan-level decision takes the
        // requested degree; with nothing to cut into morsels it would not.
        Parallelize.decide(&mut ctx);
        assert_eq!(ctx.spec.parallelism, 8);
        record(&mut ctx.spec, 8, 0, 2, 1);
        assert_eq!(
            (ctx.spec.parallelism, ctx.spec.parallel_joins, ctx.spec.parallel_sorts),
            (1, 0, 0)
        );
        // A serial decision leaves the program unmarked.
        let empty = Program { stmts: Vec::new(), ..crate::build::build_ir(&q, &catalog) };
        let out = Parallelize.run(empty, &ctx);
        assert!(out.stmts.is_empty());
    }
}
