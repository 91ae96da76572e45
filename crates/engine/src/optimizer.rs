//! The cost-based query optimizer.
//!
//! The paper treats join ordering as orthogonal (§2.1): its physical plans
//! arrive pre-optimized from a commercial optimizer, and our SQL frontend
//! initially mirrored that by lowering text in the user's written join
//! order. This module is the missing layer — the "abstraction without
//! regret" argument applied to *whole-plan* transformations: because the
//! engine's plans are ordinary high-level values, a rewriter can reshape
//! them freely before the SC pipeline specializes anything.
//!
//! The optimizer runs three passes over every stage of a [`QueryPlan`]:
//!
//! 1. **Predicate pushdown** ([`Passes::pushdown`]) — `WHERE` conjuncts
//!    sink through projections (by substitution), sorts, distincts, group
//!    keys, and join sides where semantics allow (never through the
//!    NULL-extending side of an outer join, never out of an anti join's
//!    residual).
//! 2. **Join-region rebuild** — single-use pure-join stages dissolve into
//!    their consumers, then maximal regions of inner hash joins (with
//!    their interleaved semi/anti joins lifted out as deferred filters)
//!    are flattened into a join graph of leaves, equi edges, and
//!    predicates. Cross-conjunct **inference** ([`Passes::inference`])
//!    copies literal predicates across join-key equivalence classes, and
//!    **join reordering** ([`Passes::join_reorder`]) picks a join tree —
//!    bushy shapes included — by exact dynamic programming over connected
//!    subsets (sequential greedy above [`DP_LIMIT`] relations). The cost
//!    is `C_out` priced in *bytes*: every operator's output volume
//!    (estimated rows × row width) plus every non-exempt hash-build's
//!    input volume, where a build is exempt when the engine serves it
//!    from a load-time primary/foreign-key partition. Semi/anti joins
//!    re-attach wherever pricing says — at the earliest subtree containing
//!    their keys, or deferred to the region root when thinning buys less
//!    than the early materialization costs. A final projection restores
//!    the original column order, so results are bit-compatible with the
//!    naive plan.
//! 3. **Estimation** — every decision is driven by cardinality estimation
//!    over the [`Catalog::stats`] collected at load time: row counts,
//!    per-column distinct-count sketches, `[min, max]` bounds, and
//!    equi-depth histograms that price range and equality predicates by
//!    bucket mass instead of uniform fractions. Estimates the runtime
//!    observed to be off by more than 2× come back through
//!    [`Catalog::absorb_actuals`] as per-stage feedback, so repeated
//!    queries re-plan from measured truth (the adaptive loop; disable
//!    with `LEGOBASE_FEEDBACK=0`).
//!
//! [`optimize`] returns the rewritten plan plus an [`OptReport`] — the
//! per-stage record of what moved (analogous to the SC pipeline's
//! [`Specialization`](crate::spec::Specialization) report): naive vs
//! chosen join order and shape, estimated costs, and the push/inference
//! counters. [`estimated_cost`] exposes the cost model for any plan,
//! which is how tests assert that the chosen order is at least as good
//! as the hand-built one.

use crate::expr::{CmpOp, Expr};
use crate::plan::{JoinKind, Plan, QueryPlan};
use legobase_storage::{Catalog, Fnv, Histogram, Schema, Type, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Exhaustive dynamic programming (over bushy join trees) is used up to
/// this many relations per join region; larger regions fall back to a
/// greedy left-deep construction.
pub const DP_LIMIT: usize = 10;

/// Column indices at or above this sentinel refer to the right side of a
/// deferred semi/anti join (the left side uses region-global positions).
const RIGHT_BASE: usize = 1 << 40;

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Which rewrite passes to run. [`Passes::all`] is the production setting;
/// the property tests toggle passes individually to pin each rule's
/// result-invariance on randomized plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Passes {
    /// Predicate pushdown.
    pub pushdown: bool,
    /// Cross-conjunct inference across join-key equivalence classes.
    pub inference: bool,
    /// Cost-based join reordering (off = keep the syntactic order, but
    /// still re-attach predicates at their best position in the region).
    pub join_reorder: bool,
}

impl Passes {
    /// Every pass enabled.
    pub fn all() -> Passes {
        Passes { pushdown: true, inference: true, join_reorder: true }
    }
}

/// What the optimizer did to one stage (or the root) of a query.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stage name (`#name`) or `"root"`.
    pub stage: String,
    /// Leaf order of the largest join region before optimization, in
    /// syntactic order.
    pub naive_order: Vec<String>,
    /// Leaf order the optimizer chose for that region.
    pub chosen_order: Vec<String>,
    /// Estimated `C_out` cost of the naive order of that region.
    pub naive_cost: f64,
    /// Estimated `C_out` cost of the chosen order.
    pub chosen_cost: f64,
    /// Parenthesized join-tree shape the optimizer chose (empty when the
    /// stage has no join region). Left-deep chains nest to the left;
    /// anything else is a bushy plan.
    pub chosen_shape: String,
    /// `WHERE` conjuncts relocated below the operator they started at.
    pub pushed_predicates: usize,
    /// Predicates copied across join-key equivalence classes.
    pub inferred_predicates: usize,
    /// Estimated output rows of the optimized stage.
    pub est_rows: f64,
    /// Stable identity of this stage's optimized plan (an FNV-1a digest
    /// over the stage lineage) — the key observed actuals are absorbed
    /// under in the catalog's feedback store.
    pub fingerprint: String,
    /// True when `est_rows` came from the feedback store (an observed
    /// actual of an earlier run) rather than the cost model.
    pub feedback_applied: bool,
}

impl StageReport {
    /// True when the optimizer changed the join order of this stage.
    pub fn reordered(&self) -> bool {
        self.naive_order != self.chosen_order
    }
}

/// The optimizer's decision record for one query — the logical-plan
/// counterpart of the SC pipeline's `Specialization` report.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// Query name.
    pub query: String,
    /// One entry per stage, in execution order, then the root.
    pub stages: Vec<StageReport>,
    /// Root-result row count observed at execution time (filled in by the
    /// facade after the run; `None` until then).
    pub actual_rows: Option<usize>,
}

impl OptReport {
    /// The root stage's report.
    pub fn root(&self) -> &StageReport {
        self.stages.last().expect("optimize always records the root")
    }

    /// True when any stage's join order changed.
    pub fn reordered(&self) -> bool {
        self.stages.iter().any(StageReport::reordered)
    }

    /// Total predicates pushed across all stages.
    pub fn pushed(&self) -> usize {
        self.stages.iter().map(|s| s.pushed_predicates).sum()
    }

    /// Total predicates inferred across all stages.
    pub fn inferred(&self) -> usize {
        self.stages.iter().map(|s| s.inferred_predicates).sum()
    }

    /// Estimated root output rows.
    pub fn est_rows(&self) -> f64 {
        self.root().est_rows
    }

    /// Patches stage estimates from the catalog's feedback store (observed
    /// actuals absorbed from earlier runs of the same stages). Returns
    /// true when any estimate changed. The facade calls this before
    /// reporting a run, so even plan-cache hits — whose reports were
    /// recorded before the feedback existed — surface corrected numbers.
    pub fn apply_feedback(&mut self, catalog: &Catalog) -> bool {
        let mut changed = false;
        for s in &mut self.stages {
            if let Some(rows) = catalog.feedback_rows(&s.fingerprint) {
                if rows != s.est_rows {
                    s.est_rows = rows;
                    s.feedback_applied = true;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Multi-line human-readable summary (used by `EXPLAIN`).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "optimizer report for {}: {} pushed, {} inferred predicate(s)\n",
            self.query,
            self.pushed(),
            self.inferred()
        ));
        for s in &self.stages {
            if s.naive_order.len() > 1 {
                out.push_str(&format!(
                    "  {}: {} -> {} (cost {:.0} -> {:.0}{})\n",
                    s.stage,
                    s.naive_order.join(" \u{22c8} "),
                    s.chosen_order.join(" \u{22c8} "),
                    s.naive_cost,
                    s.chosen_cost,
                    if s.reordered() { ", reordered" } else { "" },
                ));
                // Surface non-left-deep (bushy) shapes explicitly.
                let left_deep = s
                    .chosen_order
                    .iter()
                    .skip(1)
                    .fold(s.chosen_order.first().cloned().unwrap_or_default(), |acc, n| {
                        format!("({acc} \u{22c8} {n})")
                    });
                if !s.chosen_shape.is_empty() && s.chosen_shape != left_deep {
                    out.push_str(&format!("  {}: bushy shape {}\n", s.stage, s.chosen_shape));
                }
            }
        }
        let actual = match self.actual_rows {
            Some(n) => format!("{n}"),
            None => "?".to_string(),
        };
        let source = if self.root().feedback_applied { " (feedback-corrected)" } else { "" };
        out.push_str(&format!(
            "  estimated rows {:.0}{source}, actual rows {actual}\n",
            self.est_rows()
        ));
        out
    }
}

/// Optimizes a query with every pass enabled.
pub fn optimize(query: &QueryPlan, catalog: &Catalog) -> (QueryPlan, OptReport) {
    rewrite(query, catalog, Passes::all())
}

/// Optimizes a query with an explicit pass selection.
pub fn rewrite(query: &QueryPlan, catalog: &Catalog, passes: Passes) -> (QueryPlan, OptReport) {
    // Single-use pure-join stages dissolve into their consumer first, so
    // join reordering can cross the stage boundaries the frontend drew.
    let query = if passes.join_reorder { inline_pure_stages(query) } else { query.clone() };
    let mut ctx = Ctx::new(catalog);
    let mut stages = Vec::new();
    let mut reports = Vec::new();
    // Stage fingerprints accumulate into a lineage string so identical
    // subplans in *different* queries (or positions) never collide in the
    // feedback store.
    let mut lineage = String::new();
    for (name, plan) in &query.stages {
        let (p, rep) = rewrite_stage(plan, &ctx, passes, &format!("#{name}"), &lineage);
        ctx.register_stage(&format!("#{name}"), &p);
        // An observed actual from an earlier run of this stage overrides
        // the model for everything planned downstream of it.
        if rep.feedback_applied {
            if let Some(e) = ctx.stage_ests.get_mut(&format!("#{name}")) {
                e.rows = rep.est_rows.max(1.0);
            }
        }
        lineage.push_str(&rep.fingerprint);
        stages.push((name.clone(), p));
        reports.push(rep);
    }
    let (root, rep) = rewrite_stage(&query.root, &ctx, passes, "root", &lineage);
    reports.push(rep);
    let out = QueryPlan { name: query.name.clone(), stages, root };
    (out, OptReport { query: query.name.clone(), stages: reports, actual_rows: None })
}

/// Estimated `C_out` cost of a whole query plan: the sum of estimated
/// output cardinalities over every operator of every stage. The unit the
/// DP minimizes — exposed so tests can compare an optimized plan against
/// the hand-built plan under the *same* model.
pub fn estimated_cost(query: &QueryPlan, catalog: &Catalog) -> f64 {
    let mut ctx = Ctx::new(catalog);
    let mut total = 0.0;
    for (name, plan) in &query.stages {
        total += cost_walk(plan, &ctx);
        ctx.register_stage(&format!("#{name}"), plan);
    }
    total + cost_walk(&query.root, &ctx)
}

/// Estimated row count of the root of a query plan.
pub fn estimated_rows(query: &QueryPlan, catalog: &Catalog) -> f64 {
    let mut ctx = Ctx::new(catalog);
    for (name, plan) in &query.stages {
        ctx.register_stage(&format!("#{name}"), plan);
    }
    estimate(&query.root, &ctx).rows
}

/// Leaf order of the largest join region in a plan, flattening inner joins
/// the same way the optimizer does — lets tests express "the hand-built
/// join order" without hand-maintaining string lists.
pub fn join_order(plan: &Plan) -> Vec<String> {
    fn flatten_leaves(plan: &Plan, out: &mut Vec<String>) {
        match plan {
            Plan::HashJoin { left, right, kind: JoinKind::Inner, .. } => {
                flatten_leaves(left, out);
                flatten_leaves(right, out);
            }
            Plan::HashJoin { left, kind: JoinKind::Semi | JoinKind::Anti, .. } => {
                flatten_leaves(left, out)
            }
            Plan::Select { input, .. } => flatten_leaves(input, out),
            other => out.push(leaf_name(other)),
        }
    }
    let mut best: Vec<String> = Vec::new();
    let mut walk = |p: &Plan| {
        if let Plan::HashJoin { .. } = p {
            let mut here = Vec::new();
            flatten_leaves(p, &mut here);
            if here.len() > best.len() {
                best = here;
            }
        }
    };
    plan.walk(&mut walk);
    best
}

// ---------------------------------------------------------------------
// Context: schemas and estimates for base tables and stages
// ---------------------------------------------------------------------

struct Ctx<'a> {
    catalog: &'a Catalog,
    stage_schemas: HashMap<String, Schema>,
    stage_ests: HashMap<String, PlanEst>,
}

impl<'a> Ctx<'a> {
    fn new(catalog: &'a Catalog) -> Ctx<'a> {
        Ctx { catalog, stage_schemas: HashMap::new(), stage_ests: HashMap::new() }
    }

    fn schema(&self, table: &str) -> &Schema {
        match self.stage_schemas.get(table) {
            Some(s) => s,
            None => &self.catalog.table(table).schema,
        }
    }

    fn register_stage(&mut self, key: &str, plan: &Plan) {
        let est = estimate(plan, self);
        let schema = plan.schema(&|t: &str| self.schema(t).clone());
        self.stage_schemas.insert(key.to_string(), schema);
        self.stage_ests.insert(key.to_string(), est);
    }

    fn scan_est(&self, table: &str) -> PlanEst {
        if let Some(e) = self.stage_ests.get(table) {
            return e.clone();
        }
        let schema = self.schema(table);
        if let Some(stats) = self.catalog.stats(table) {
            let rows = (stats.rows as f64).max(1.0);
            let cols = stats
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| ColEst {
                    // An exact distinct count when the collector kept the
                    // value set; the sketch estimate otherwise.
                    ndv: if c.distinct > 0 {
                        c.distinct as f64
                    } else {
                        c.sketch.as_ref().map_or(1.0, |s| s.estimate())
                    }
                    .max(1.0),
                    lo: c.min.as_ref().and_then(value_ord),
                    hi: c.max.as_ref().and_then(value_ord),
                    width: schema.fields.get(i).map_or(8.0, |f| type_width(f.ty)),
                    hist: c.histogram.clone(),
                })
                .collect();
            return PlanEst { rows, cols };
        }
        // No statistics: degrade to fixed defaults.
        let cols = (0..schema.len())
            .map(|i| ColEst {
                ndv: 100.0,
                lo: None,
                hi: None,
                width: type_width(schema.ty(i)),
                hist: None,
            })
            .collect();
        PlanEst { rows: 1000.0, cols }
    }
}

// ---------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------

/// Estimated shape of one column: distinct count plus numeric-ordinal
/// bounds (integers and floats as themselves, dates as day counts,
/// booleans as 0/1; strings carry no bounds), the materialized width in
/// bytes, and — when load-time statistics kept one — the equi-depth
/// histogram of the column's base distribution.
#[derive(Clone, Debug)]
struct ColEst {
    ndv: f64,
    lo: Option<f64>,
    hi: Option<f64>,
    /// Bytes one value of this column occupies in a materialized
    /// intermediate (the byte-pricing input of the cost model).
    width: f64,
    /// Shared so narrowing a region-wide estimate never copies bucket
    /// arrays; `[lo, hi]` tracks the surviving range within it.
    hist: Option<Arc<Histogram>>,
}

impl ColEst {
    fn unknown(rows: f64) -> ColEst {
        ColEst { ndv: rows.max(1.0), lo: None, hi: None, width: 8.0, hist: None }
    }

    fn point(&self) -> Option<f64> {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    fn capped(&self, rows: f64) -> ColEst {
        ColEst { ndv: self.ndv.min(rows.max(1.0)), ..self.clone() }
    }

    /// Fraction of the histogram's population inside the current bounds —
    /// the denominator that renormalizes bucket masses after narrowing.
    fn hist_base(&self) -> Option<(&Histogram, f64)> {
        let h = self.hist.as_deref()?;
        let base = h.range_selectivity(self.lo, self.hi);
        if base > 0.0 {
            Some((h, base))
        } else {
            None
        }
    }
}

/// Materialized width of one value, in bytes. Strings price at a fixed
/// planning width (they materialize as pointers plus short payloads; the
/// exact heap size is unknowable at plan time).
fn type_width(ty: Type) -> f64 {
    match ty {
        Type::Int | Type::Float => 8.0,
        Type::Date => 4.0,
        Type::Bool => 1.0,
        Type::Str => 16.0,
    }
}

/// Estimated shape of a plan's output.
#[derive(Clone, Debug)]
struct PlanEst {
    rows: f64,
    cols: Vec<ColEst>,
}

impl PlanEst {
    /// Bytes per materialized row.
    fn row_width(&self) -> f64 {
        self.cols.iter().map(|c| c.width).sum::<f64>().max(1.0)
    }
}

fn value_ord(v: &Value) -> Option<f64> {
    match v {
        Value::Int(x) => Some(*x as f64),
        Value::Float(x) => Some(*x),
        Value::Date(d) => Some(d.0 as f64),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        Value::Str(_) | Value::Null => None,
    }
}

fn estimate(plan: &Plan, ctx: &Ctx) -> PlanEst {
    match plan {
        Plan::Scan { table } => ctx.scan_est(table),
        Plan::Select { input, predicate } => {
            let est = estimate(input, ctx);
            apply_predicate(&est, predicate)
        }
        Plan::Project { input, exprs } => {
            let est = estimate(input, ctx);
            let cols = exprs.iter().map(|(e, _)| expr_est(e, &est.cols, est.rows)).collect();
            PlanEst { rows: est.rows, cols }
        }
        Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => {
            let l = estimate(left, ctx);
            let r = estimate(right, ctx);
            join_est(&l, &r, left_keys, right_keys, *kind, residual.as_ref())
        }
        Plan::Agg { input, group_by, aggs } => {
            let est = estimate(input, ctx);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                group_by
                    .iter()
                    .map(|&g| est.cols.get(g).map(|c| c.ndv).unwrap_or(est.rows))
                    .product::<f64>()
                    .min(est.rows)
                    .max(1.0)
            };
            let mut cols: Vec<ColEst> =
                group_by.iter().map(|&g| est.cols[g].capped(groups)).collect();
            for _ in aggs {
                cols.push(ColEst::unknown(groups));
            }
            PlanEst { rows: groups, cols }
        }
        Plan::Sort { input, .. } => estimate(input, ctx),
        Plan::Limit { input, n } => {
            let est = estimate(input, ctx);
            let rows = est.rows.min(*n as f64);
            let cols = est.cols.iter().map(|c| c.capped(rows)).collect();
            PlanEst { rows, cols }
        }
        Plan::Distinct { input } => {
            let est = estimate(input, ctx);
            let rows = est.cols.iter().map(|c| c.ndv).product::<f64>().min(est.rows).max(1.0);
            let cols = est.cols.iter().map(|c| c.capped(rows)).collect();
            PlanEst { rows, cols }
        }
    }
}

/// Applies a predicate to an estimate: scales rows by the selectivity and
/// narrows the bounds of columns pinned by literal conjuncts.
fn apply_predicate(est: &PlanEst, predicate: &Expr) -> PlanEst {
    let mut out = est.clone();
    let mut conj = Vec::new();
    split_conjuncts(predicate, &mut conj);
    let mut sel = 1.0;
    for c in &conj {
        sel *= selectivity(c, &out.cols);
        narrow(&mut out.cols, c);
    }
    out.rows = (est.rows * sel.clamp(1e-7, 1.0)).max(1.0);
    let rows = out.rows;
    for c in &mut out.cols {
        c.ndv = c.ndv.min(rows);
    }
    out
}

/// Narrows column bounds for `col op literal` conjuncts.
fn narrow(cols: &mut [ColEst], conj: &Expr) {
    let lit = |e: &Expr| match e {
        Expr::Lit(v) => value_ord(v),
        _ => None,
    };
    match conj {
        Expr::Cmp(op, a, b) => {
            let (col, v, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), e) => match lit(e) {
                    Some(v) => (*i, v, *op),
                    None => return,
                },
                (e, Expr::Col(i)) => match lit(e) {
                    Some(v) => (*i, v, flip(*op)),
                    None => return,
                },
                _ => return,
            };
            let Some(c) = cols.get_mut(col) else { return };
            match op {
                CmpOp::Eq => {
                    c.ndv = 1.0;
                    c.lo = Some(v);
                    c.hi = Some(v);
                    // A pinned point no longer follows the base distribution.
                    c.hist = None;
                }
                CmpOp::Lt | CmpOp::Le => c.hi = Some(c.hi.map_or(v, |h| h.min(v))),
                CmpOp::Gt | CmpOp::Ge => c.lo = Some(c.lo.map_or(v, |l| l.max(v))),
                CmpOp::Ne => {}
            }
        }
        Expr::InList(e, vals) => {
            if let Expr::Col(i) = e.as_ref() {
                if let Some(c) = cols.get_mut(*i) {
                    c.ndv = c.ndv.min(vals.len().max(1) as f64);
                }
            }
        }
        _ => {}
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Estimated shape of a scalar expression over an input's column estimates
/// and row count.
fn expr_est(e: &Expr, cols: &[ColEst], rows: f64) -> ColEst {
    match e {
        Expr::Col(i) => cols.get(*i).cloned().unwrap_or_else(|| ColEst::unknown(rows)),
        Expr::Lit(v) => {
            let o = value_ord(v);
            let width = match v {
                Value::Int(_) | Value::Float(_) => 8.0,
                Value::Date(_) => 4.0,
                Value::Bool(_) | Value::Null => 1.0,
                Value::Str(_) => 16.0,
            };
            ColEst { ndv: 1.0, lo: o, hi: o, width, hist: None }
        }
        Expr::Year(a) => {
            let inner = expr_est(a, cols, rows);
            let year = |d: f64| 1970.0 + (d / 365.2425).floor();
            let lo = inner.lo.map(year);
            let hi = inner.hi.map(year);
            let ndv = match (lo, hi) {
                (Some(a), Some(b)) => (b - a + 1.0).max(1.0),
                _ => inner.ndv.min(8.0),
            };
            ColEst { ndv, lo, hi, width: 8.0, hist: None }
        }
        Expr::Arith(op, a, b) => {
            let (ea, eb) = (expr_est(a, cols, rows), expr_est(b, cols, rows));
            let ndv = (ea.ndv * eb.ndv).min(rows.max(1.0));
            let bounds = match (ea.lo, ea.hi, eb.lo, eb.hi) {
                (Some(al), Some(ah), Some(bl), Some(bh)) => {
                    use crate::expr::ArithOp::*;
                    match op {
                        Add => Some((al + bl, ah + bh)),
                        Sub => Some((al - bh, ah - bl)),
                        Mul => {
                            let p = [al * bl, al * bh, ah * bl, ah * bh];
                            Some((
                                p.iter().cloned().fold(f64::MAX, f64::min),
                                p.iter().cloned().fold(f64::MIN, f64::max),
                            ))
                        }
                        Div => None,
                    }
                }
                _ => None,
            };
            ColEst { ndv, lo: bounds.map(|b| b.0), hi: bounds.map(|b| b.1), width: 8.0, hist: None }
        }
        Expr::Case(_, t, f) => {
            let (et, ef) = (expr_est(t, cols, rows), expr_est(f, cols, rows));
            ColEst {
                ndv: (et.ndv + ef.ndv).min(rows.max(1.0)),
                lo: match (et.lo, ef.lo) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    _ => None,
                },
                hi: match (et.hi, ef.hi) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                },
                width: et.width.max(ef.width),
                hist: None,
            }
        }
        Expr::Substr(a, _, _) => {
            let inner = expr_est(a, cols, rows);
            ColEst { ndv: inner.ndv, lo: None, hi: None, width: 16.0, hist: None }
        }
        Expr::Cmp(..)
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Not(_)
        | Expr::StartsWith(..)
        | Expr::EndsWith(..)
        | Expr::Contains(..)
        | Expr::ContainsWordSeq(..)
        | Expr::InList(..)
        | Expr::IsNull(_) => {
            ColEst { ndv: 2.0, lo: Some(0.0), hi: Some(1.0), width: 1.0, hist: None }
        }
    }
}

/// Textbook selectivity of a boolean expression against column estimates
/// (of an input whose row count does not bound the expressions' NDVs).
fn selectivity(e: &Expr, cols: &[ColEst]) -> f64 {
    let s = match e {
        Expr::And(a, b) => selectivity(a, cols) * selectivity(b, cols),
        Expr::Or(a, b) => {
            let (x, y) = (selectivity(a, cols), selectivity(b, cols));
            x + y - x * y
        }
        Expr::Not(a) => 1.0 - selectivity(a, cols),
        Expr::Cmp(op, a, b) => cmp_selectivity(*op, a, b, cols),
        Expr::InList(a, vals) => {
            let est = expr_est(a, cols, f64::MAX);
            let uniform = 1.0 / est.ndv.max(1.0);
            match est.hist_base() {
                // Sum the histogram's per-value masses: heavy dictionary
                // values (a nation, a shipmode) count what they weigh, not
                // an even 1/ndv share.
                Some((h, base)) => vals
                    .iter()
                    .map(|v| {
                        value_ord(v).and_then(|x| h.point_mass(x)).map_or(uniform, |m| m / base)
                    })
                    .sum::<f64>()
                    .min(1.0),
                None => (vals.len() as f64 * uniform).min(1.0),
            }
        }
        Expr::StartsWith(..) | Expr::EndsWith(..) => 0.05,
        Expr::Contains(..) => 0.1,
        Expr::ContainsWordSeq(..) => 0.02,
        Expr::IsNull(_) => 0.02,
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        _ => 1.0 / 3.0,
    };
    s.clamp(1e-7, 1.0)
}

fn cmp_selectivity(op: CmpOp, a: &Expr, b: &Expr, cols: &[ColEst]) -> f64 {
    let (ea, eb) = (expr_est(a, cols, f64::MAX), expr_est(b, cols, f64::MAX));
    // Column-to-column comparisons.
    let a_is_col = !matches!(a, Expr::Lit(_));
    let b_is_col = !matches!(b, Expr::Lit(_));
    if a_is_col && b_is_col && eb.point().is_none() && ea.point().is_none() {
        return match op {
            CmpOp::Eq => 1.0 / ea.ndv.max(eb.ndv).max(1.0),
            CmpOp::Ne => 1.0 - 1.0 / ea.ndv.max(eb.ndv).max(1.0),
            _ => 1.0 / 3.0,
        };
    }
    // Normalize to column-vs-point.
    let (col, point, op) = if let Some(p) = eb.point() {
        (ea, p, op)
    } else if let Some(p) = ea.point() {
        (eb, p, flip(op))
    } else {
        return 1.0 / 3.0;
    };
    match op {
        CmpOp::Eq => match (col.lo, col.hi) {
            (Some(lo), Some(hi)) if point < lo || point > hi => 1e-7,
            _ => match col.hist_base() {
                Some((h, base)) => match h.point_mass(point) {
                    Some(mass) => (mass / base).clamp(1e-7, 1.0),
                    None => 1.0 / col.ndv.max(1.0),
                },
                None => 1.0 / col.ndv.max(1.0),
            },
        },
        CmpOp::Ne => 1.0 - 1.0 / col.ndv.max(1.0),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            // Equi-depth buckets give the true quantile of the cut point
            // (renormalized to the surviving `[lo, hi]` range); fall back
            // to uniform interpolation between the bounds without one.
            if let Some((h, base)) = col.hist_base() {
                let below_lo = col.lo.map_or(0.0, |l| h.fraction_below(l, false));
                let frac = match op {
                    CmpOp::Lt => h.fraction_below(point, false) - below_lo,
                    CmpOp::Le => h.fraction_below(point, true) - below_lo,
                    CmpOp::Gt => {
                        col.hi.map_or(1.0, |x| h.fraction_below(x, true))
                            - h.fraction_below(point, true)
                    }
                    _ => {
                        col.hi.map_or(1.0, |x| h.fraction_below(x, true))
                            - h.fraction_below(point, false)
                    }
                };
                return (frac / base).clamp(0.0, 1.0);
            }
            let (Some(lo), Some(hi)) = (col.lo, col.hi) else { return 1.0 / 3.0 };
            if hi <= lo {
                return 0.5;
            }
            let frac = ((point - lo) / (hi - lo)).clamp(0.0, 1.0);
            match op {
                CmpOp::Lt | CmpOp::Le => frac,
                _ => 1.0 - frac,
            }
        }
    }
}

/// Join cardinality: the standard `|L|·|R| / max(ndv(lk), ndv(rk))` for
/// inner joins, match-probability forms for semi/anti, and the
/// `max(inner, |L|)` floor for outer joins.
fn join_est(
    l: &PlanEst,
    r: &PlanEst,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
    residual: Option<&Expr>,
) -> PlanEst {
    // Composite-key NDV: the product of per-column NDVs, capped by the
    // side's row count (multiplying per-column selectivities would wildly
    // underestimate composite primary keys like partsupp's).
    let mut nl = 1.0f64;
    let mut nr = 1.0f64;
    for (&lk, &rk) in left_keys.iter().zip(right_keys) {
        nl *= l.cols.get(lk).map(|c| c.ndv).unwrap_or(l.rows);
        nr *= r.cols.get(rk).map(|c| c.ndv).unwrap_or(r.rows);
    }
    let key_sel = 1.0 / nl.min(l.rows.max(1.0)).max(nr.min(r.rows.max(1.0))).max(1.0);
    let res_sel = match residual {
        Some(e) => {
            let concat: Vec<ColEst> = l.cols.iter().chain(&r.cols).cloned().collect();
            selectivity(e, &concat)
        }
        None => 1.0,
    };
    match kind {
        JoinKind::Inner | JoinKind::LeftOuter => {
            let mut rows = (l.rows * r.rows * key_sel * res_sel).max(1.0);
            if kind == JoinKind::LeftOuter {
                rows = rows.max(l.rows);
            }
            let cols = l.cols.iter().chain(&r.cols).map(|c| c.capped(rows)).collect();
            PlanEst { rows, cols }
        }
        JoinKind::Semi | JoinKind::Anti => {
            // Expected matches per left row, under a Poisson approximation:
            // P(>=1 match) = 1 - e^-E. The saturating min(1, E) form it
            // replaces zeroes the anti-join survivor fraction as soon as
            // E >= 1, which underestimated Q21's anti join by 100x and made
            // a hash build over it look free.
            let expected = r.rows * key_sel * res_sel;
            let matches = 1.0 - (-expected).exp();
            let frac = if kind == JoinKind::Semi { matches } else { 1.0 - matches };
            let rows = (l.rows * frac.clamp(1e-3, 1.0)).max(1.0);
            let cols = l.cols.iter().map(|c| c.capped(rows)).collect();
            PlanEst { rows, cols }
        }
    }
}

/// One planning "word" of materialized data — costs are expressed in
/// 8-byte units so an all-integer single-column plan prices like plain
/// `C_out` row counts.
const WIDTH_UNIT: f64 = 8.0;

/// Byte-priced `C_out`: every operator contributes its estimated output
/// *volume* (rows × row width, in [`WIDTH_UNIT`]s), and hash joins
/// additionally pay to copy their build side into a hash table — unless a
/// key partition serves the probe directly ([`partition_serves`]), in
/// which case the build is free, exactly as the specialized engine
/// executes it.
fn cost_walk(plan: &Plan, ctx: &Ctx) -> f64 {
    let est = estimate(plan, ctx);
    let mut total = est.rows * est.row_width() / WIDTH_UNIT;
    if let Plan::HashJoin { right, right_keys, .. } = plan {
        if !partition_serves(right, right_keys, ctx.catalog) {
            let r = estimate(right, ctx);
            total += r.rows * r.row_width() / WIDTH_UNIT;
        }
    }
    for c in plan.children() {
        total += cost_walk(c, ctx);
    }
    total
}

/// True when the specialized engine would probe `right` through a
/// pre-built key partition instead of building a hash table at run time: a
/// (filtered/projected) base-table scan, joined on a single column that is
/// the table's single-column primary key or a declared foreign key.
/// Mirrors the partitioned-probe gate of the specialization pipeline.
fn partition_serves(right: &Plan, right_keys: &[usize], catalog: &Catalog) -> bool {
    if right_keys.len() != 1 {
        return false;
    }
    let Some((table, col)) = base_column(right, right_keys[0]) else { return false };
    let Some(meta) = catalog.get(table) else { return false };
    meta.primary_key == [col] || meta.foreign_keys.iter().any(|fk| fk.column == col)
}

/// Resolves an output column of a select/project spine over a base-table
/// scan back to the base column it carries.
/// When a plan's join-key columns trace to base columns forming exactly the
/// primary key of one base table, returns that table's base row count — the
/// key domain the other side's values are drawn from under PK–FK
/// containment.
fn pk_domain(plan: &Plan, locals: &[usize], catalog: &Catalog) -> Option<f64> {
    let mut table: Option<&str> = None;
    let mut cols: Vec<usize> = Vec::new();
    for &c in locals {
        let (t, bc) = base_column(plan, c)?;
        match table {
            Some(existing) if existing != t => return None,
            _ => table = Some(t),
        }
        if !cols.contains(&bc) {
            cols.push(bc);
        }
    }
    let t = table?;
    let meta = catalog.get(t)?;
    if meta.primary_key.is_empty() {
        return None;
    }
    let mut pk = meta.primary_key.clone();
    cols.sort_unstable();
    pk.sort_unstable();
    if cols != pk {
        return None;
    }
    Some((catalog.stats(t)?.rows as f64).max(1.0))
}

fn base_column(plan: &Plan, col: usize) -> Option<(&str, usize)> {
    match plan {
        Plan::Scan { table } if !table.starts_with('#') => Some((table, col)),
        Plan::Select { input, .. } => base_column(input, col),
        Plan::Project { input, exprs } => match &exprs.get(col)?.0 {
            Expr::Col(i) => base_column(input, *i),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Pass 1: predicate pushdown
// ---------------------------------------------------------------------

/// A predicate in flight, remembering whether it crossed an operator.
struct Pending {
    expr: Expr,
    moved: bool,
}

/// Pushes filter conjuncts as close to the scans as semantics allow
/// (`arity_of` resolves a scanned relation's column count). Returns the
/// rewritten plan and the number of conjuncts that ended up strictly below
/// the operator where they started.
pub fn push_predicates(plan: &Plan, arity_of: &impl Fn(&str) -> usize) -> (Plan, usize) {
    let mut moved = 0usize;
    let out = push(plan, Vec::new(), arity_of, &mut moved);
    (out, moved)
}

fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::And(a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e.clone());
    }
}

fn split_disjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Or(a, b) = e {
        split_disjuncts(a, out);
        split_disjuncts(b, out);
    } else {
        out.push(e.clone());
    }
}

/// OR-factoring: from a disjunction whose every branch holds at least one
/// conjunct over the requested join side alone, derives the implied
/// side-only predicate — the OR of each branch's side-only conjunct group.
/// A row failing the derived predicate falsifies one conjunct of every
/// branch, hence the whole disjunction, so pushing it below the join is
/// sound; the original stays behind as the exact filter.
///
/// TPC-H Q7's nation pair-OR is the canonical case: `(n1 = 'FRANCE' AND
/// n2 = 'GERMANY') OR (n1 = 'GERMANY' AND n2 = 'FRANCE')` yields
/// `n1 ∈ {FRANCE, GERMANY}` and `n2 ∈ {FRANCE, GERMANY}` for the two
/// nation leaves, collapsing the join's candidate pairs before the
/// residual ever runs.
fn factor_disjunction(e: &Expr, l_arity: usize, side_left: bool) -> Option<Expr> {
    let mut branches = Vec::new();
    split_disjuncts(e, &mut branches);
    if branches.len() < 2 {
        return None;
    }
    let mut derived: Vec<Expr> = Vec::new();
    for b in &branches {
        let mut conj = Vec::new();
        split_conjuncts(b, &mut conj);
        let side: Vec<Expr> = conj
            .into_iter()
            .filter(|c| {
                let mut cols = Vec::new();
                c.collect_cols(&mut cols);
                !cols.is_empty()
                    && cols.iter().all(|&x| if side_left { x < l_arity } else { x >= l_arity })
            })
            .collect();
        if side.is_empty() {
            return None; // this branch leaves the side unconstrained
        }
        derived.push(Expr::all(side));
    }
    derived.into_iter().reduce(Expr::or)
}

fn all_opt(preds: Vec<Expr>) -> Option<Expr> {
    if preds.is_empty() {
        None
    } else {
        Some(Expr::all(preds))
    }
}

/// Wraps `plan` with the still-pending predicates (in original order).
fn settle(plan: Plan, preds: Vec<Pending>, moved: &mut usize) -> Plan {
    *moved += preds.iter().filter(|p| p.moved).count();
    match all_opt(preds.into_iter().map(|p| p.expr).collect()) {
        Some(p) => Plan::filtered(plan, p),
        None => plan,
    }
}

fn mark(mut preds: Vec<Pending>) -> Vec<Pending> {
    for p in &mut preds {
        p.moved = true;
    }
    preds
}

fn push(
    plan: &Plan,
    mut preds: Vec<Pending>,
    arity_of: &impl Fn(&str) -> usize,
    moved: &mut usize,
) -> Plan {
    match plan {
        Plan::Select { input, predicate } => {
            let mut conj = Vec::new();
            split_conjuncts(predicate, &mut conj);
            preds.extend(conj.into_iter().map(|expr| Pending { expr, moved: false }));
            push(input, preds, arity_of, moved)
        }
        Plan::Project { input, exprs } => {
            // Substitute output expressions into the predicates: valid for
            // any pure projection, and lets the predicate keep sinking.
            let substituted = preds
                .into_iter()
                .map(|p| Pending { expr: substitute(&p.expr, exprs), moved: true })
                .collect();
            let inner = push(input, substituted, arity_of, moved);
            Plan::projected(inner, exprs.clone())
        }
        Plan::Sort { input, keys } => {
            // Filtering commutes with (stable) sorting.
            let inner = push(input, mark(preds), arity_of, moved);
            Plan::Sort { input: Box::new(inner), keys: keys.clone() }
        }
        Plan::Distinct { input } => {
            let inner = push(input, mark(preds), arity_of, moved);
            Plan::deduplicated(inner)
        }
        Plan::Limit { input, n } => {
            // Filtering does not commute with a row limit.
            let inner = push(input, Vec::new(), arity_of, moved);
            settle(Plan::limited(inner, *n), preds, moved)
        }
        Plan::Agg { input, group_by, aggs } => {
            // Conjuncts over group-key outputs filter groups exactly like
            // they filter input rows; aggregate outputs must stay above.
            let mut below = Vec::new();
            let mut above = Vec::new();
            for p in preds {
                let mut cols = Vec::new();
                p.expr.collect_cols(&mut cols);
                if !cols.is_empty() && cols.iter().all(|&c| c < group_by.len()) {
                    let remap = p.expr.map_cols(&|c| group_by[c]);
                    below.push(Pending { expr: remap, moved: true });
                } else {
                    above.push(p);
                }
            }
            let inner = push(input, below, arity_of, moved);
            settle(Plan::aggregated(inner, group_by.clone(), aggs.clone()), above, moved)
        }
        Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => {
            let l_arity = left.arity(arity_of);
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut above = Vec::new();
            let right_pushable = *kind == JoinKind::Inner;
            for p in preds {
                let mut cols = Vec::new();
                p.expr.collect_cols(&mut cols);
                let left_only = cols.iter().all(|&c| c < l_arity);
                let right_only = !cols.is_empty() && cols.iter().all(|&c| c >= l_arity);
                if left_only && !cols.is_empty() {
                    // Valid below every join kind: semi/anti/outer all
                    // preserve left rows and values.
                    left_preds.push(Pending { expr: p.expr, moved: true });
                } else if right_only && right_pushable {
                    let expr = p.expr.map_cols(&|c| c - l_arity);
                    right_preds.push(Pending { expr, moved: true });
                } else {
                    // OR-factoring: a straddling disjunction still implies
                    // weaker side-only disjunctions that can sink (inner
                    // joins only — the derived filters drop rows). The
                    // original stays above as the exact filter.
                    if *kind == JoinKind::Inner {
                        if let Some(d) = factor_disjunction(&p.expr, l_arity, true) {
                            left_preds.push(Pending { expr: d, moved: true });
                        }
                        if let Some(d) = factor_disjunction(&p.expr, l_arity, false) {
                            let expr = d.map_cols(&|c| c - l_arity);
                            right_preds.push(Pending { expr, moved: true });
                        }
                    }
                    above.push(p);
                }
            }
            // Residual conjuncts referencing one side only can sink too
            // (right side: every kind — non-matching rows never matched;
            // left side: inner and semi joins only — for anti joins a
            // false left conjunct *keeps* the row).
            let mut keep_residual = Vec::new();
            if let Some(res) = residual {
                let mut conj = Vec::new();
                split_conjuncts(res, &mut conj);
                for c in conj {
                    let mut cols = Vec::new();
                    c.collect_cols(&mut cols);
                    let left_only = !cols.is_empty() && cols.iter().all(|&x| x < l_arity);
                    let right_only = !cols.is_empty() && cols.iter().all(|&x| x >= l_arity);
                    if right_only && *kind != JoinKind::LeftOuter {
                        right_preds
                            .push(Pending { expr: c.map_cols(&|x| x - l_arity), moved: true });
                    } else if left_only && matches!(kind, JoinKind::Inner | JoinKind::Semi) {
                        left_preds.push(Pending { expr: c, moved: true });
                    } else {
                        // OR-factoring of straddling residual disjunctions,
                        // under the same side rules as plain conjuncts: a
                        // row (or build entry) failing every branch's
                        // side-only group can never satisfy the residual.
                        if *kind != JoinKind::LeftOuter {
                            if let Some(d) = factor_disjunction(&c, l_arity, false) {
                                right_preds.push(Pending {
                                    expr: d.map_cols(&|x| x - l_arity),
                                    moved: true,
                                });
                            }
                        }
                        if matches!(kind, JoinKind::Inner | JoinKind::Semi) {
                            if let Some(d) = factor_disjunction(&c, l_arity, true) {
                                left_preds.push(Pending { expr: d, moved: true });
                            }
                        }
                        keep_residual.push(c);
                    }
                }
            }
            let new_left = push(left, left_preds, arity_of, moved);
            let new_right = push(right, right_preds, arity_of, moved);
            let joined = Plan::hash_join(
                new_left,
                new_right,
                left_keys.clone(),
                right_keys.clone(),
                *kind,
                all_opt(keep_residual),
            );
            settle(joined, above, moved)
        }
        Plan::Scan { .. } => settle(plan.clone(), preds, moved),
    }
}

/// Replaces `Col(i)` with the `i`-th projection expression (valid for any
/// pure projection).
fn substitute(e: &Expr, exprs: &[(Expr, String)]) -> Expr {
    match e {
        Expr::Col(i) => exprs[*i].0.clone(),
        other => other.map_children(&|child| substitute(child, exprs)),
    }
}

// ---------------------------------------------------------------------
// Pass 2: join regions — flatten, infer, reorder, emit
// ---------------------------------------------------------------------

struct RegionSummary {
    naive_order: Vec<String>,
    chosen_order: Vec<String>,
    chosen_shape: String,
    naive_cost: f64,
    chosen_cost: f64,
}

#[derive(Default)]
struct PassStats {
    inferred: usize,
    regions: Vec<RegionSummary>,
}

fn leaf_name(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table } => table.clone(),
        Plan::Select { input, .. } => leaf_name(input),
        // A projection over a scan still *is* that relation for join-order
        // purposes (hand plans project dimension leaves early).
        Plan::Project { input, .. } => leaf_name(input),
        Plan::Agg { .. } => "(agg)".to_string(),
        Plan::Distinct { .. } => "(distinct)".to_string(),
        Plan::Sort { .. } => "(sort)".to_string(),
        Plan::Limit { .. } => "(limit)".to_string(),
        Plan::HashJoin { kind: JoinKind::LeftOuter, .. } => "(outerjoin)".to_string(),
        Plan::HashJoin { .. } => "(join)".to_string(),
    }
}

struct RegionLeaf {
    plan: Plan,
    schema: Schema,
    offset: usize,
    name: String,
}

struct UnaryJoin {
    kind: JoinKind,
    right: Plan,
    /// Global left-side key columns.
    left_keys: Vec<usize>,
    /// Right-side key columns (right-relative).
    right_keys: Vec<usize>,
    /// Residual with left columns global and right columns encoded as
    /// `RIGHT_BASE + c`.
    residual: Option<Expr>,
}

struct Region {
    leaves: Vec<RegionLeaf>,
    /// Predicates in global coordinates (over the concatenation of all
    /// leaves in syntactic order).
    preds: Vec<Expr>,
    /// Equi edges between global columns.
    edges: Vec<(usize, usize)>,
    unaries: Vec<UnaryJoin>,
}

impl Region {
    fn total_arity(&self) -> usize {
        self.leaves.last().map(|l| l.offset + l.schema.len()).unwrap_or(0)
    }

    fn leaf_of(&self, global: usize) -> usize {
        self.leaves
            .iter()
            .rposition(|l| l.offset <= global)
            .expect("global column below first leaf offset")
    }

    fn leaves_of_expr(&self, e: &Expr) -> Vec<usize> {
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        let mut ls: Vec<usize> =
            cols.iter().filter(|&&c| c < RIGHT_BASE).map(|&c| self.leaf_of(c)).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }
}

/// Transforms a plan bottom-up, rebuilding every join region it contains.
fn reorder_node(plan: &Plan, ctx: &Ctx, passes: Passes, stats: &mut PassStats) -> Plan {
    if region_root(plan) {
        if let Some(rebuilt) = rebuild_region(plan, ctx, passes, stats) {
            return rebuilt;
        }
        // Infeasible (disconnected graph): keep the node, optimize below.
    }
    structural(plan, ctx, passes, stats)
}

/// True when the node heads a join region: a select/join spine reaching an
/// inner, semi, or anti hash join.
fn region_root(plan: &Plan) -> bool {
    match plan {
        Plan::Select { input, .. } => region_root(input),
        Plan::HashJoin { kind, .. } => *kind != JoinKind::LeftOuter,
        _ => false,
    }
}

fn structural(plan: &Plan, ctx: &Ctx, passes: Passes, stats: &mut PassStats) -> Plan {
    let rec = |p: &Plan, stats: &mut PassStats| Box::new(reorder_node(p, ctx, passes, stats));
    match plan {
        Plan::Scan { .. } => plan.clone(),
        Plan::Select { input, predicate } => {
            Plan::Select { input: rec(input, stats), predicate: predicate.clone() }
        }
        Plan::Project { input, exprs } => {
            Plan::Project { input: rec(input, stats), exprs: exprs.clone() }
        }
        Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => Plan::HashJoin {
            left: rec(left, stats),
            right: rec(right, stats),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            kind: *kind,
            residual: residual.clone(),
        },
        Plan::Agg { input, group_by, aggs } => {
            Plan::Agg { input: rec(input, stats), group_by: group_by.clone(), aggs: aggs.clone() }
        }
        Plan::Sort { input, keys } => Plan::Sort { input: rec(input, stats), keys: keys.clone() },
        Plan::Limit { input, n } => Plan::Limit { input: rec(input, stats), n: *n },
        Plan::Distinct { input } => Plan::Distinct { input: rec(input, stats) },
    }
}

/// Flattens the region headed at `plan`; returns the subtree arity.
fn flatten(
    plan: &Plan,
    base: usize,
    region: &mut Region,
    ctx: &Ctx,
    passes: Passes,
    stats: &mut PassStats,
) -> usize {
    match plan {
        Plan::Select { input, predicate } => {
            let arity = flatten(input, base, region, ctx, passes, stats);
            let mut conj = Vec::new();
            split_conjuncts(predicate, &mut conj);
            for c in conj {
                region.preds.push(c.map_cols(&|i| i + base));
            }
            arity
        }
        Plan::HashJoin { left, right, left_keys, right_keys, kind: JoinKind::Inner, residual } => {
            let la = flatten(left, base, region, ctx, passes, stats);
            let ra = flatten(right, base + la, region, ctx, passes, stats);
            for (&lk, &rk) in left_keys.iter().zip(right_keys) {
                region.edges.push((base + lk, base + la + rk));
            }
            if let Some(res) = residual {
                let mut conj = Vec::new();
                split_conjuncts(res, &mut conj);
                for c in conj {
                    region.preds.push(c.map_cols(&|i| i + base));
                }
            }
            la + ra
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind: kind @ (JoinKind::Semi | JoinKind::Anti),
            residual,
        } => {
            let la = flatten(left, base, region, ctx, passes, stats);
            let right_opt = reorder_node(right, ctx, passes, stats);
            region.unaries.push(UnaryJoin {
                kind: *kind,
                right: right_opt,
                left_keys: left_keys.iter().map(|&k| base + k).collect(),
                right_keys: right_keys.clone(),
                residual: residual.as_ref().map(|r| {
                    r.map_cols(&|c| if c < la { base + c } else { RIGHT_BASE + (c - la) })
                }),
            });
            la
        }
        other => {
            let sub = reorder_node(other, ctx, passes, stats);
            let schema = sub.schema(&|t: &str| ctx.schema(t).clone());
            let arity = schema.len();
            region.leaves.push(RegionLeaf {
                name: leaf_name(&sub),
                plan: sub,
                schema,
                offset: base,
            });
            arity
        }
    }
}

/// Rebuilds one join region: leaf predicates re-attached, inferred
/// predicates added, join order chosen by DP (or kept syntactic), and
/// semi/anti joins re-applied at their earliest feasible point. Returns
/// `None` when the region's join graph cannot be emitted left-deep
/// (disconnected), in which case the caller keeps the original shape.
fn rebuild_region(plan: &Plan, ctx: &Ctx, passes: Passes, stats: &mut PassStats) -> Option<Plan> {
    let mut region =
        Region { leaves: Vec::new(), preds: Vec::new(), edges: Vec::new(), unaries: Vec::new() };
    flatten(plan, 0, &mut region, ctx, passes, stats);
    let n = region.leaves.len();
    if n >= 64 {
        // Subsets are u64 bitsets; a region this wide keeps its original
        // shape (the caller recurses into the children instead).
        return None;
    }
    let total = region.total_arity();

    // Promote cross-leaf equality predicates to edges.
    let mut preds = Vec::new();
    for p in std::mem::take(&mut region.preds) {
        if let Expr::Cmp(CmpOp::Eq, a, b) = &p {
            if let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) {
                if region.leaf_of(*x) != region.leaf_of(*y) {
                    region.edges.push((*x, *y));
                    continue;
                }
            }
        }
        // Dedup: re-optimizing an already-factored plan must not stack a
        // second copy of a derived disjunction.
        if !preds.contains(&p) {
            preds.push(p);
        }
    }
    region.preds = preds;

    // Cross-conjunct inference over join-key equivalence classes.
    if passes.inference {
        stats.inferred += infer_predicates(&mut region);
    }

    // Partition predicates: single-leaf ones attach to their leaf.
    let mut leaf_preds: Vec<Vec<Expr>> = vec![Vec::new(); n];
    let mut joint_preds: Vec<Expr> = Vec::new();
    for p in std::mem::take(&mut region.preds) {
        match region.leaves_of_expr(&p).as_slice() {
            [single] => {
                let off = region.leaves[*single].offset;
                leaf_preds[*single].push(p.map_cols(&|c| c - off));
            }
            _ => joint_preds.push(p),
        }
    }

    // Leaf estimates (with their attached predicates applied).
    let base_ests: Vec<PlanEst> = region
        .leaves
        .iter()
        .enumerate()
        .map(|(i, leaf)| {
            let mut est = estimate(&leaf.plan, ctx);
            for p in &leaf_preds[i] {
                est = apply_predicate(&est, p);
            }
            est
        })
        .collect();
    // Semi/anti unaries thin whatever subtree they re-attach to, and two
    // placements are legal (a semi/anti filter over left columns commutes
    // with the downstream inner joins): **early**, at the first subtree
    // containing the keys — for single-leaf keys, directly on that leaf —
    // which shrinks every later join but materializes the unary's output
    // up front; and **late**, at the region root, which runs the joins at
    // full cardinality but applies the unary to whatever little survives
    // them. Fold each single-leaf unary into a second estimate vector so
    // both placements can be priced: without the fold the enumeration
    // cannot see the thinning at all (Q21's anti join made a hash build
    // over its output look free), and without the late option the emitted
    // plan materializes a ~98%-survivor semi scan of lineitem that the
    // original query applied to a few dozen post-join rows.
    let mut folded_ests = base_ests.clone();
    // Per folded unary: its leaf, survivor fraction, and folded output rows.
    let mut folds: Vec<(usize, f64, f64)> = Vec::new();
    for u in &region.unaries {
        let mut key_leaves: Vec<usize> = u.left_keys.iter().map(|&k| region.leaf_of(k)).collect();
        key_leaves.sort_unstable();
        key_leaves.dedup();
        let [leaf] = key_leaves.as_slice() else { continue };
        let (off, l_arity) = (region.leaves[*leaf].offset, region.leaves[*leaf].schema.len());
        let res_local = match &u.residual {
            None => None,
            Some(r) => {
                let mut cols = Vec::new();
                r.collect_cols(&mut cols);
                if cols.iter().all(|&c| c >= RIGHT_BASE || (c >= off && c < off + l_arity)) {
                    Some(r.map_cols(&|c| {
                        if c >= RIGHT_BASE {
                            l_arity + (c - RIGHT_BASE)
                        } else {
                            c - off
                        }
                    }))
                } else {
                    // Residual touches other leaves: the unary attaches
                    // later; estimating its key selectivity alone is still
                    // better than ignoring it.
                    None
                }
            }
        };
        let left_keys: Vec<usize> = u.left_keys.iter().map(|&k| k - off).collect();
        let r_est = estimate(&u.right, ctx);
        let before = folded_ests[*leaf].rows.max(1.0);
        let est = join_est(
            &folded_ests[*leaf],
            &r_est,
            &left_keys,
            &u.right_keys,
            u.kind,
            res_local.as_ref(),
        );
        folds.push((*leaf, (est.rows / before).min(1.0), est.rows));
        folded_ests[*leaf] = est;
    }

    // Join graph from the equi edges (estimate-independent).
    let mut adj = vec![vec![false; n]; n];
    let mut pair_edges: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for &(a, b) in &region.edges {
        let (la, lb) = (region.leaf_of(a), region.leaf_of(b));
        if la == lb {
            continue;
        }
        adj[la][lb] = true;
        adj[lb][la] = true;
        let (key, cols) = if la < lb { ((la, lb), (a, b)) } else { ((lb, la), (b, a)) };
        pair_edges.entry(key).or_default().push(cols);
    }

    // One placement mode's selectivity model: per-pair join selectivities
    // plus joint-predicate selectivities, built from that mode's
    // leaf-estimate vector.
    struct SelModel {
        pair_sel: Vec<Vec<f64>>,
        joint: Vec<(Vec<usize>, f64)>,
    }

    // The selectivity model as a function of a leaf-estimate vector — each
    // placement mode builds its own. Per-pair selectivity follows the
    // composite-key rule: the product of per-column NDVs capped by the
    // side's row count (same as `join_est`); joint predicates contribute
    // selectivity once all their leaves meet.
    let build_model = |ests: &[PlanEst]| -> SelModel {
        let col_est = |g: usize| -> ColEst {
            let leaf = region.leaf_of(g);
            let local = g - region.leaves[leaf].offset;
            ests[leaf].cols.get(local).cloned().unwrap_or_else(|| ColEst::unknown(1.0))
        };
        let mut pair_sel = vec![vec![1.0f64; n]; n];
        for (&(la, lb), edges) in &pair_edges {
            let mut na = 1.0f64;
            let mut nb = 1.0f64;
            for &(a, b) in edges {
                na *= col_est(a).ndv;
                nb *= col_est(b).ndv;
            }
            let mut va = na.min(ests[la].rows.max(1.0));
            let mut vb = nb.min(ests[lb].rows.max(1.0));
            // PK–FK containment: when one side's key columns are exactly its
            // base table's primary key, the other side's values are drawn
            // from that key domain, so its distinct count cannot exceed the
            // base row count. Without this cap the composite-key NDV product
            // inflates the probe side and prices an N:1 lookup as if it
            // filtered — Q9's lineitem ⋈ partsupp produces one row per
            // lineitem (60k at SF 0.01), not the 8k the product implied.
            let locals = |leaf: usize, side: fn(&(usize, usize)) -> usize| -> Vec<usize> {
                edges.iter().map(|e| side(e) - region.leaves[leaf].offset).collect()
            };
            if let Some(dom) = pk_domain(&region.leaves[la].plan, &locals(la, |e| e.0), ctx.catalog)
            {
                vb = vb.min(dom);
            }
            if let Some(dom) = pk_domain(&region.leaves[lb].plan, &locals(lb, |e| e.1), ctx.catalog)
            {
                va = va.min(dom);
            }
            let s = 1.0 / va.max(vb).max(1.0);
            pair_sel[la][lb] = s;
            pair_sel[lb][la] = s;
        }
        let global_cols: Vec<ColEst> = (0..total).map(col_est).collect();
        let joint: Vec<(Vec<usize>, f64)> = joint_preds
            .iter()
            .map(|p| (region.leaves_of_expr(p), selectivity(p, &global_cols)))
            .collect();
        SelModel { pair_sel, joint }
    };

    /// Memoized subset cardinality under one mode's model: the product of
    /// its leaf rows, pair selectivities, and closed joint selectivities.
    fn subset_rows(
        set: u64,
        ests: &[PlanEst],
        pair_sel: &[Vec<f64>],
        joint: &[(Vec<usize>, f64)],
        memo: &mut SubsetMemo,
    ) -> f64 {
        if let Some(&c) = memo.get(&set) {
            return c;
        }
        let mut rows = 1.0f64;
        for (i, est) in ests.iter().enumerate() {
            if set & (1 << i) != 0 {
                rows *= est.rows;
            }
        }
        for (i, row) in pair_sel.iter().enumerate() {
            for (j, &sel) in row.iter().enumerate().skip(i + 1) {
                if set & (1 << i) != 0 && set & (1 << j) != 0 {
                    rows *= sel;
                }
            }
        }
        for (leaves, sel) in joint {
            if leaves.len() >= 2 && leaves.iter().all(|&l| set & (1 << l) != 0) {
                rows *= sel;
            }
        }
        let rows = rows.max(1.0);
        memo.insert(set, rows);
        rows
    }

    let early_model = build_model(&folded_ests);
    let card_early = |set: u64, memo: &mut SubsetMemo| -> f64 {
        subset_rows(set, &folded_ests, &early_model.pair_sel, &early_model.joint, memo)
    };

    let connected =
        |i: usize, set: u64| -> bool { (0..n).any(|j| set & (1 << j) != 0 && adj[i][j]) };

    // Byte pricing: a subset's row width is the sum of its leaves' widths
    // (widths are type-determined, so both modes share one vector).
    let leaf_width: Vec<f64> = base_ests.iter().map(PlanEst::row_width).collect();
    let width_of = |set: u64| -> f64 {
        (0..n).filter(|i| set & (1 << i) != 0).map(|i| leaf_width[i]).sum::<f64>().max(1.0)
    };
    let mut nbr = vec![0u64; n];
    for (i, row) in adj.iter().enumerate() {
        for (j, &a) in row.iter().enumerate() {
            if a {
                nbr[i] |= 1 << j;
            }
        }
    }
    let cross =
        |s1: u64, s2: u64| -> bool { (0..n).any(|i| s1 & (1 << i) != 0 && nbr[i] & s2 != 0) };
    // Build-side exemption: a single leaf probed from `probe` on exactly
    // one key column that resolves to a base-table primary/foreign key —
    // the specialized engine serves that probe from its load-time
    // partition without building a hash table.
    let edge_leaves: Vec<(usize, usize)> =
        region.edges.iter().map(|&(a, b)| (region.leaf_of(a), region.leaf_of(b))).collect();
    let exempt = |i: usize, probe: u64| -> bool {
        let mut key: Option<usize> = None;
        for (&(a, b), &(la, lb)) in region.edges.iter().zip(&edge_leaves) {
            let g = if la == i && probe & (1 << lb) != 0 {
                a
            } else if lb == i && probe & (1 << la) != 0 {
                b
            } else {
                continue;
            };
            match key {
                Some(k) if k != g => return false, // a second key column
                _ => key = Some(g),
            }
        }
        let Some(key) = key else { return false };
        let local = key - region.leaves[i].offset;
        match base_column(&region.leaves[i].plan, local) {
            Some((t, c)) => ctx.catalog.get(t).is_some_and(|m| {
                m.primary_key == [c] || m.foreign_keys.iter().any(|fk| fk.column == c)
            }),
            None => false,
        }
    };

    let naive_order: Vec<usize> = (0..n).collect();
    let naive_tree = JoinTree::left_deep(&naive_order);

    // Price one placement mode: the naive and best trees under its
    // cardinality model, with the naive-not-worse tie-break applied inside
    // the mode — when the syntactic order is feasible and not worse, keep
    // it; stable plans beat churn on ties.
    let plan_mode = |ests: &[PlanEst],
                     card: &dyn Fn(u64, &mut SubsetMemo) -> f64|
     -> Option<(Option<f64>, JoinTree, f64)> {
        let mut memo = SubsetMemo::default();
        let naive_cost = tree_cost(&naive_tree, &card, &width_of, &cross, &exempt, &mut memo);
        let chosen_tree: JoinTree = if n <= 1 || !passes.join_reorder {
            naive_tree.clone()
        } else if n <= DP_LIMIT {
            best_tree_dp(n, &card, &width_of, &cross, &exempt, &mut memo)?
        } else {
            JoinTree::left_deep(&best_order_greedy(n, ests, &card, &connected, &mut memo)?)
        };
        let chosen_cost = tree_cost(&chosen_tree, &card, &width_of, &cross, &exempt, &mut memo)?;
        match naive_cost {
            Some(nc) if nc <= chosen_cost => Some((naive_cost, naive_tree.clone(), nc)),
            _ => Some((naive_cost, chosen_tree, chosen_cost)),
        }
    };

    // Placement extras — the unary volumes each mode adds on top of its
    // join-tree cost. Early: each folded unary materializes its output at
    // its leaf's width. Late: each unary applies at the root, pricing its
    // output at the full region width over whatever survives the joins.
    // The unary's build side is identical either way and cancels out.
    let full = (1u64 << n) - 1;
    let early_extra: f64 =
        folds.iter().map(|&(leaf, _, rows_out)| rows_out * leaf_width[leaf] / WIDTH_UNIT).sum();
    let early = plan_mode(&folded_ests, &card_early);

    // The late model only differs from the early one when a unary folded.
    let (use_early, extra, (naive_cost, chosen_tree, chosen_cost)) = if folds.is_empty() {
        (true, 0.0, early?)
    } else {
        let late_model = build_model(&base_ests);
        let card_late = |set: u64, memo: &mut SubsetMemo| -> f64 {
            subset_rows(set, &base_ests, &late_model.pair_sel, &late_model.joint, memo)
        };
        let late_extra: f64 = {
            let mut memo = SubsetMemo::default();
            let mut rows = card_late(full, &mut memo);
            let w = width_of(full);
            folds
                .iter()
                .map(|&(_, frac, _)| {
                    rows = (rows * frac).max(1.0);
                    rows * w / WIDTH_UNIT
                })
                .sum()
        };
        let late = plan_mode(&base_ests, &card_late);
        match (early, late) {
            (Some(e), Some(l)) => {
                if e.2 + early_extra <= l.2 + late_extra {
                    (true, early_extra, e)
                } else {
                    (false, late_extra, l)
                }
            }
            (Some(e), None) => (true, early_extra, e),
            (None, Some(l)) => (false, late_extra, l),
            (None, None) => return None,
        }
    };

    let names: Vec<String> =
        region.leaves.iter_mut().map(|l| std::mem::take(&mut l.name)).collect();
    let emitted = emit_region(region, leaf_preds, joint_preds, &chosen_tree, use_early)?;
    let mut chosen_leaves = Vec::new();
    chosen_tree.leaves(&mut chosen_leaves);
    stats.regions.push(RegionSummary {
        chosen_order: chosen_leaves.iter().map(|&i| names[i].clone()).collect(),
        chosen_shape: chosen_tree.render(&names),
        naive_order: names,
        naive_cost: naive_cost.map_or(f64::INFINITY, |nc| nc + extra),
        chosen_cost: chosen_cost + extra,
    });
    Some(emitted)
}

/// A join tree over region leaves. The right child of every [`Join`] is
/// the build side. Left-deep trees are the special case where every right
/// child is a leaf; the DP explores the full bushy space.
///
/// [`Join`]: JoinTree::Join
#[derive(Clone, Debug)]
enum JoinTree {
    Leaf(usize),
    Join(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    fn set(&self) -> u64 {
        match self {
            JoinTree::Leaf(i) => 1 << i,
            JoinTree::Join(l, r) => l.set() | r.set(),
        }
    }

    fn leaves(&self, out: &mut Vec<usize>) {
        match self {
            JoinTree::Leaf(i) => out.push(*i),
            JoinTree::Join(l, r) => {
                l.leaves(out);
                r.leaves(out);
            }
        }
    }

    fn left_deep(order: &[usize]) -> JoinTree {
        let mut t = JoinTree::Leaf(order[0]);
        for &i in &order[1..] {
            t = JoinTree::Join(Box::new(t), Box::new(JoinTree::Leaf(i)));
        }
        t
    }

    /// Parenthesized rendering with leaf names — surfaces bushy shapes in
    /// `EXPLAIN` output.
    fn render(&self, names: &[String]) -> String {
        match self {
            JoinTree::Leaf(i) => names[*i].clone(),
            JoinTree::Join(l, r) => {
                format!("({} \u{22c8} {})", l.render(names), r.render(names))
            }
        }
    }
}

/// Byte-priced cost of a join tree under the region's cardinality model:
/// every join pays its output volume plus its build side's volume (unless
/// a key partition serves the build — see [`partition_serves`]). `None`
/// when any join in the tree would be a cross product.
fn tree_cost(
    tree: &JoinTree,
    card: &impl Fn(u64, &mut SubsetMemo) -> f64,
    width_of: &impl Fn(u64) -> f64,
    cross: &impl Fn(u64, u64) -> bool,
    exempt: &impl Fn(usize, u64) -> bool,
    memo: &mut SubsetMemo,
) -> Option<f64> {
    match tree {
        JoinTree::Leaf(_) => Some(0.0),
        JoinTree::Join(l, r) => {
            let (sl, sr) = (l.set(), r.set());
            if !cross(sl, sr) {
                return None;
            }
            let cl = tree_cost(l, card, width_of, cross, exempt, memo)?;
            let cr = tree_cost(r, card, width_of, cross, exempt, memo)?;
            let out = sl | sr;
            let mut cost = cl + cr + card(out, memo) * width_of(out) / WIDTH_UNIT;
            let build_free = match r.as_ref() {
                JoinTree::Leaf(i) => exempt(*i, sl),
                _ => false,
            };
            if !build_free {
                cost += card(sr, memo) * width_of(sr) / WIDTH_UNIT;
            }
            Some(cost)
        }
    }
}

/// Exhaustive DP over connected subsets, bushy trees included: every
/// subset's best tree is the cheapest (probe, build) split whose halves
/// are joinable. `O(3^n)` splits, bounded by [`DP_LIMIT`]. The table is
/// dense over the `2^n` subsets and keeps each one's cost and probe half;
/// only the winning tree is ever built, once the table is full.
fn best_tree_dp(
    n: usize,
    card: &impl Fn(u64, &mut SubsetMemo) -> f64,
    width_of: &impl Fn(u64) -> f64,
    cross: &impl Fn(u64, u64) -> bool,
    exempt: &impl Fn(usize, u64) -> bool,
    memo: &mut SubsetMemo,
) -> Option<JoinTree> {
    let full = (1u64 << n) - 1;
    // `best[set]`: the cheapest cost of `set` and the probe half of the
    // split that reaches it (0 for a single leaf); `None` while no split of
    // `set` is joinable.
    let mut best: Vec<Option<(f64, u64)>> = vec![None; 1 << n];
    for i in 0..n {
        best[1 << i] = Some((0.0, 0));
    }
    // A subset's output volume (rows × width), priced once.
    let mut volumes: Vec<Option<f64>> = vec![None; 1 << n];
    let mut volume = |set: u64, memo: &mut SubsetMemo| -> f64 {
        *volumes[set as usize].get_or_insert_with(|| card(set, memo) * width_of(set) / WIDTH_UNIT)
    };
    // Numeric order visits every proper subset before its supersets.
    for set in 1..=full {
        if set.count_ones() < 2 {
            continue;
        }
        let mut here: Option<(f64, u64)> = None;
        let mut s1 = (set - 1) & set;
        while s1 != 0 {
            let s2 = set ^ s1;
            // Both (s1, s2) and (s2, s1) orderings occur as `s1` walks the
            // subsets, so each half is tried as probe and as build. A split
            // counts when both halves are joinable and an edge joins them.
            if let (Some((c1, _)), Some((c2, _))) = (best[s1 as usize], best[s2 as usize]) {
                if cross(s1, s2) {
                    let exempt = s2.count_ones() == 1 && exempt(s2.trailing_zeros() as usize, s1);
                    let build = if exempt { 0.0 } else { volume(s2, memo) };
                    let cost = c1 + c2 + volume(set, memo) + build;
                    if here.is_none_or(|(c, _)| cost < c) {
                        here = Some((cost, s1));
                    }
                }
            }
            s1 = (s1 - 1) & set;
        }
        best[set as usize] = here;
    }
    fn tree(set: u64, best: &[Option<(f64, u64)>]) -> JoinTree {
        match best[set as usize] {
            Some((_, probe)) if probe != 0 => {
                JoinTree::Join(Box::new(tree(probe, best)), Box::new(tree(set ^ probe, best)))
            }
            _ => JoinTree::Leaf(set.trailing_zeros() as usize),
        }
    }
    best[full as usize].map(|_| tree(full, &best))
}

/// The subset-cardinality memo of one region: `u64` leaf-set keys under a
/// multiply-shift hash instead of SipHash (the keys are the planner's own,
/// and the DP looks one up for every split it prices).
type SubsetMemo = HashMap<u64, f64, BuildHasherDefault<SubsetHasher>>;

/// Multiply-shift hashing of a `u64`: the odd multiplier spreads every key
/// bit into the high bits of the product, and the rotation brings those
/// down to where the table takes its bucket index.
#[derive(Default)]
struct SubsetHasher(u64);

impl Hasher for SubsetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Greedy construction for oversized regions: start from the smallest
/// relation, repeatedly append the connected relation with the cheapest
/// intermediate result.
fn best_order_greedy(
    n: usize,
    leaf_ests: &[PlanEst],
    card: &impl Fn(u64, &mut SubsetMemo) -> f64,
    connected: &impl Fn(usize, u64) -> bool,
    memo: &mut SubsetMemo,
) -> Option<Vec<usize>> {
    let first = (0..n).min_by(|&a, &b| {
        leaf_ests[a].rows.partial_cmp(&leaf_ests[b].rows).expect("row estimates are finite")
    })?;
    let mut order = vec![first];
    let mut set = 1u64 << first;
    while order.len() < n {
        let next =
            (0..n).filter(|&i| set & (1 << i) == 0 && connected(i, set)).min_by(|&a, &b| {
                let ca = card(set | (1 << a), memo);
                let cb = card(set | (1 << b), memo);
                ca.partial_cmp(&cb).expect("cardinalities are finite")
            })?;
        set |= 1 << next;
        order.push(next);
    }
    Some(order)
}

/// Copies single-column literal predicates across join-key equivalence
/// classes; returns how many were added.
fn infer_predicates(region: &mut Region) -> usize {
    let total = region.total_arity();
    if total == 0 {
        return 0;
    }
    // Union-find over global columns.
    let mut parent: Vec<usize> = (0..total).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for &(a, b) in &region.edges.clone() {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let transferable = |p: &Expr| -> Option<usize> {
        match p {
            Expr::Cmp(_, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(_)) | (Expr::Lit(_), Expr::Col(i)) => Some(*i),
                _ => None,
            },
            Expr::InList(a, _) => match a.as_ref() {
                Expr::Col(i) => Some(*i),
                _ => None,
            },
            _ => None,
        }
    };
    let mut added = 0;
    let existing = region.preds.clone();
    let mut new_preds = Vec::new();
    for p in &existing {
        let Some(col) = transferable(p) else { continue };
        let root = find(&mut parent, col);
        for other in 0..total {
            if other == col || find(&mut parent, other) != root {
                continue;
            }
            if region.leaf_of(other) == region.leaf_of(col) {
                continue;
            }
            let copy = p.map_cols(&|_| other);
            if existing.contains(&copy) || new_preds.contains(&copy) {
                continue;
            }
            new_preds.push(copy);
            added += 1;
        }
    }
    region.preds.extend(new_preds);
    added
}

/// Emits the chosen join tree, re-attaching predicates at the earliest
/// subtree where their columns exist, and restoring the original column
/// order with a final projection. Joint predicates that straddle a join's
/// two subtrees ride as that join's residual. Semi/anti joins attach at
/// the earliest feasible subtree when `unaries_early` is set, and only at
/// the region root otherwise — `rebuild_region` prices both placements and
/// passes the cheaper one. Every leaf and every semi/anti right side is
/// emitted once, so they move out of `region` into the emitted plan.
fn emit_region(
    mut region: Region,
    leaf_preds: Vec<Vec<Expr>>,
    joint_preds: Vec<Expr>,
    tree: &JoinTree,
    unaries_early: bool,
) -> Option<Plan> {
    let total = region.total_arity();
    let take = |plan: &mut Plan| std::mem::replace(plan, Plan::Scan { table: String::new() });
    let mut leaf_plans: Vec<Option<Plan>> = region
        .leaves
        .iter_mut()
        .zip(leaf_preds)
        .map(|(leaf, preds)| {
            let plan = take(&mut leaf.plan);
            Some(match all_opt(preds) {
                Some(p) => Plan::filtered(plan, p),
                None => plan,
            })
        })
        .collect();
    // A unary's right side is still here until it attaches.
    let mut unary_rights: Vec<Option<Plan>> =
        region.unaries.iter_mut().map(|u| Some(take(&mut u.right))).collect();
    let mut joint_pending: Vec<Option<Expr>> = joint_preds.into_iter().map(Some).collect();

    /// Emits one subtree; returns its plan plus the global columns of its
    /// output, in output order.
    fn emit(
        tree: &JoinTree,
        region: &Region,
        leaf_plans: &mut [Option<Plan>],
        joint_pending: &mut [Option<Expr>],
        unary_rights: &mut [Option<Plan>],
        unaries_early: bool,
        at_root: bool,
    ) -> Option<(Plan, Vec<usize>)> {
        let total = region.total_arity();
        let (mut plan, globals) = match tree {
            JoinTree::Leaf(i) => {
                let leaf = &region.leaves[*i];
                let globals: Vec<usize> = (leaf.offset..leaf.offset + leaf.schema.len()).collect();
                (leaf_plans[*i].take().expect("a join tree holds each leaf once"), globals)
            }
            JoinTree::Join(l, r) => {
                let (pl, gl) =
                    emit(l, region, leaf_plans, joint_pending, unary_rights, unaries_early, false)?;
                let (pr, gr) =
                    emit(r, region, leaf_plans, joint_pending, unary_rights, unaries_early, false)?;
                let (pos_l, pos_r) = (Positions::new(&gl, total), Positions::new(&gr, total));
                // Keys: every edge between the two subtrees.
                let mut left_keys: Vec<usize> = Vec::new();
                let mut right_keys: Vec<usize> = Vec::new();
                for &(a, b) in &region.edges {
                    let (lk, rk) = match (pos_l.get(a), pos_r.get(b), pos_l.get(b), pos_r.get(a)) {
                        (Some(lk), Some(rk), _, _) | (_, _, Some(lk), Some(rk)) => (lk, rk),
                        _ => continue,
                    };
                    if !left_keys.iter().zip(&right_keys).any(|(&l, &r)| l == lk && r == rk) {
                        left_keys.push(lk);
                        right_keys.push(rk);
                    }
                }
                if left_keys.is_empty() {
                    return None; // cross product: caller keeps the original shape
                }
                let l_arity = gl.len();
                // Joint predicates straddling the two subtrees become this
                // join's residual.
                let mut residual = Vec::new();
                for slot in joint_pending.iter_mut() {
                    let Some(p) = slot else { continue };
                    let mut cols = Vec::new();
                    p.collect_cols(&mut cols);
                    let closed =
                        cols.iter().all(|&c| pos_l.get(c).is_some() || pos_r.get(c).is_some());
                    let uses_both = cols.iter().any(|&c| pos_l.get(c).is_some())
                        && cols.iter().any(|&c| pos_r.get(c).is_some());
                    if closed && uses_both {
                        residual.push(
                            p.map_cols(&|c| pos_l.get(c).unwrap_or_else(|| l_arity + pos_r.at(c))),
                        );
                        *slot = None;
                    }
                }
                let plan = Plan::hash_join(
                    pl,
                    pr,
                    left_keys,
                    right_keys,
                    JoinKind::Inner,
                    all_opt(residual),
                );
                let mut globals = gl;
                globals.extend(gr);
                (plan, globals)
            }
        };
        // Attach whatever this subtree newly closes: joint predicates whose
        // columns all live here (possible in bushy shapes, where a pred's
        // leaves meet inside one subtree), then semi/anti joins.
        let pos = Positions::new(&globals, total);
        let mut filters = Vec::new();
        for slot in joint_pending.iter_mut() {
            let Some(p) = slot else { continue };
            let mut cols = Vec::new();
            p.collect_cols(&mut cols);
            if !cols.is_empty() && cols.iter().all(|&c| pos.get(c).is_some()) {
                filters.push(p.map_cols(&|c| pos.at(c)));
                *slot = None;
            }
        }
        if let Some(p) = all_opt(filters) {
            plan = Plan::filtered(plan, p);
        }
        let arity = globals.len();
        for (u, right) in region.unaries.iter().zip(unary_rights.iter_mut()) {
            if right.is_none() || !(unaries_early || at_root) {
                continue;
            }
            let keys_ok = u.left_keys.iter().all(|&k| pos.get(k).is_some());
            let res_ok = u.residual.as_ref().is_none_or(|r| {
                let mut cols = Vec::new();
                r.collect_cols(&mut cols);
                cols.iter().all(|&c| c >= RIGHT_BASE || pos.get(c).is_some())
            });
            if !(keys_ok && res_ok) {
                continue;
            }
            let left_keys = u.left_keys.iter().map(|&k| pos.at(k)).collect();
            let residual = u.residual.as_ref().map(|r| {
                r.map_cols(&|c| if c >= RIGHT_BASE { arity + (c - RIGHT_BASE) } else { pos.at(c) })
            });
            plan = Plan::hash_join(
                plan,
                right.take().expect("checked above"),
                left_keys,
                u.right_keys.clone(),
                u.kind,
                residual,
            );
        }
        Some((plan, globals))
    }

    let (mut current, globals) = emit(
        tree,
        &region,
        &mut leaf_plans,
        &mut joint_pending,
        &mut unary_rights,
        unaries_early,
        true,
    )?;
    let pos = Positions::new(&globals, total);

    // Column-free predicates (constant folds) apply at the top; anything
    // else still pending could not be placed — keep the original shape.
    let mut leftovers = Vec::new();
    for slot in joint_pending.iter_mut() {
        let Some(p) = slot else { continue };
        let mut cols = Vec::new();
        p.collect_cols(&mut cols);
        if !cols.iter().all(|&c| pos.get(c).is_some()) {
            return None;
        }
        leftovers.push(p.map_cols(&|c| pos.at(c)));
        *slot = None;
    }
    if let Some(p) = all_opt(leftovers) {
        current = Plan::filtered(current, p);
    }
    if unary_rights.iter().any(Option::is_some) {
        return None; // a semi/anti join could not be re-attached
    }

    // Restore the original column order.
    let identity = (0..total).all(|g| pos.get(g) == Some(g));
    if !identity {
        let mut exprs: Vec<(Expr, String)> = Vec::with_capacity(total);
        for leaf in &mut region.leaves {
            for (c, f) in leaf.schema.fields.iter_mut().enumerate() {
                exprs.push((Expr::Col(pos.at(leaf.offset + c)), std::mem::take(&mut f.name)));
            }
        }
        current = Plan::projected(current, exprs);
    }
    Some(current)
}

/// Where each global column of a region sits in one subtree's output.
struct Positions(Vec<Option<usize>>);

impl Positions {
    fn new(globals: &[usize], total: usize) -> Positions {
        let mut pos = vec![None; total];
        for (p, &g) in globals.iter().enumerate() {
            pos[g] = Some(p);
        }
        Positions(pos)
    }

    /// The output position of global column `g`, if the subtree has it.
    fn get(&self, g: usize) -> Option<usize> {
        self.0.get(g).copied().flatten()
    }

    /// The output position of a column the subtree is known to have.
    fn at(&self, g: usize) -> usize {
        self.get(g).expect("column resolved in this subtree")
    }
}

// ---------------------------------------------------------------------
// Stage driver
// ---------------------------------------------------------------------

fn rewrite_stage(
    plan: &Plan,
    ctx: &Ctx,
    passes: Passes,
    label: &str,
    lineage: &str,
) -> (Plan, StageReport) {
    let arity_of = |t: &str| ctx.schema(t).len();
    let (plan, pushed) =
        if passes.pushdown { push_predicates(plan, &arity_of) } else { (plan.clone(), 0) };
    let mut stats = PassStats::default();
    let plan = reorder_node(&plan, ctx, passes, &mut stats);
    // The stable stage identity the feedback store keys on, hashed as the
    // plan is rendered instead of from a rendered copy.
    let mut digest = Fnv::new();
    write!(digest, "{lineage}|{label}|{plan:?}").expect("hashing cannot fail");
    let fingerprint = format!("{:016x}", digest.0);
    let model_rows = estimate(&plan, ctx).rows;
    let (est_rows, feedback_applied) = match ctx.catalog.feedback_rows(&fingerprint) {
        Some(rows) => (rows, true),
        None => (model_rows, false),
    };
    // Report the largest region of the stage (the interesting one).
    let main = stats.regions.into_iter().max_by_key(|r| r.naive_order.len());
    let (naive_order, chosen_order, chosen_shape, naive_cost, chosen_cost) = match main {
        Some(r) => (r.naive_order, r.chosen_order, r.chosen_shape, r.naive_cost, r.chosen_cost),
        None => (Vec::new(), Vec::new(), String::new(), 0.0, 0.0),
    };
    (
        plan,
        StageReport {
            stage: label.to_string(),
            naive_order,
            chosen_order,
            chosen_shape,
            naive_cost,
            chosen_cost,
            pushed_predicates: pushed,
            inferred_predicates: stats.inferred,
            est_rows,
            fingerprint,
            feedback_applied,
        },
    )
}

/// Inlines single-use stages that are pure join pipelines (scans, filters,
/// projections, inner joins — no aggregation, ordering, or truncation)
/// into their consumer, dissolving the stage boundary the SQL frontend
/// drew so join reordering can work across it. Pure substitution:
/// a stage's output schema equals its plan's, so consumer column indices
/// are unaffected.
fn inline_pure_stages(query: &QueryPlan) -> QueryPlan {
    let mut stages = query.stages.clone();
    let mut root = query.root.clone();
    loop {
        let mut refs: HashMap<String, usize> = HashMap::new();
        for p in stages.iter().map(|(_, p)| p).chain(std::iter::once(&root)) {
            p.walk(&mut |q| {
                if let Plan::Scan { table } = q {
                    if table.starts_with('#') {
                        *refs.entry(table.clone()).or_insert(0) += 1;
                    }
                }
            });
        }
        let Some(idx) = stages.iter().position(|(name, plan)| {
            pure_join_tree(plan) && refs.get(&format!("#{name}")).copied() == Some(1)
        }) else {
            break;
        };
        let (name, plan) = stages.remove(idx);
        let key = format!("#{name}");
        for (_, p) in &mut stages {
            *p = replace_scan(p, &key, &plan);
        }
        root = replace_scan(&root, &key, &plan);
    }
    QueryPlan { name: query.name.clone(), stages, root }
}

/// True for plans made only of scans, filters, projections, and inner
/// joins — the shapes `flatten` can absorb into a join region.
fn pure_join_tree(plan: &Plan) -> bool {
    match plan {
        Plan::Scan { .. } => true,
        Plan::Select { input, .. } | Plan::Project { input, .. } => pure_join_tree(input),
        Plan::HashJoin { left, right, kind: JoinKind::Inner, .. } => {
            pure_join_tree(left) && pure_join_tree(right)
        }
        _ => false,
    }
}

/// Substitutes every `Scan` of `key` with `replacement`.
fn replace_scan(plan: &Plan, key: &str, replacement: &Plan) -> Plan {
    let rec = |p: &Plan| Box::new(replace_scan(p, key, replacement));
    match plan {
        Plan::Scan { table } => {
            if table == key {
                replacement.clone()
            } else {
                plan.clone()
            }
        }
        Plan::Select { input, predicate } => {
            Plan::Select { input: rec(input), predicate: predicate.clone() }
        }
        Plan::Project { input, exprs } => Plan::Project { input: rec(input), exprs: exprs.clone() },
        Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => Plan::HashJoin {
            left: rec(left),
            right: rec(right),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            kind: *kind,
            residual: residual.clone(),
        },
        Plan::Agg { input, group_by, aggs } => {
            Plan::Agg { input: rec(input), group_by: group_by.clone(), aggs: aggs.clone() }
        }
        Plan::Sort { input, keys } => Plan::Sort { input: rec(input), keys: keys.clone() },
        Plan::Limit { input, n } => Plan::Limit { input: rec(input), n: *n },
        Plan::Distinct { input } => Plan::Distinct { input: rec(input) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggKind;
    use crate::plan::AggSpec;
    use legobase_storage::{ColumnStats, Field, TableMeta, TableStatistics, Type};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols, rows) in [
            ("big", vec![("b_id", Type::Int), ("b_fk", Type::Int), ("b_x", Type::Int)], 10_000),
            ("mid", vec![("m_id", Type::Int), ("m_fk", Type::Int), ("m_y", Type::Int)], 1_000),
            ("small", vec![("s_id", Type::Int), ("s_z", Type::Int)], 10),
        ] {
            let schema = Schema::new(cols.iter().map(|(n, t)| Field::new(n, *t)).collect());
            let arity = schema.len();
            cat.add(TableMeta::new(name, schema));
            let mut stats_cols =
                vec![ColumnStats::new(rows, Some(Value::Int(1)), Some(Value::Int(rows as i64)))];
            for _ in 1..arity {
                stats_cols.push(ColumnStats::new(
                    (rows / 10).max(2),
                    Some(Value::Int(0)),
                    Some(Value::Int(100)),
                ));
            }
            cat.set_stats(name, TableStatistics::analytic(rows, stats_cols));
        }
        cat
    }

    fn q(root: Plan) -> QueryPlan {
        QueryPlan::new("t", root)
    }

    #[test]
    fn estimates_follow_stats() {
        let cat = catalog();
        let scan = q(Plan::scan("big"));
        assert_eq!(estimated_rows(&scan, &cat), 10_000.0);
        // Equality on the unique key: one row.
        let filtered =
            q(Plan::filtered(Plan::scan("big"), Expr::eq(Expr::col(0), Expr::lit(5i64))));
        assert!(estimated_rows(&filtered, &cat) < 2.0);
        // Range halves.
        let half =
            q(Plan::filtered(Plan::scan("big"), Expr::lt(Expr::col(0), Expr::lit(5_000i64))));
        let rows = estimated_rows(&half, &cat);
        assert!((rows - 5_000.0).abs() < 500.0, "{rows}");
        // Out-of-bounds equality: nearly zero.
        let out =
            q(Plan::filtered(Plan::scan("big"), Expr::eq(Expr::col(0), Expr::lit(999_999i64))));
        assert!(estimated_rows(&out, &cat) <= 1.0);
    }

    #[test]
    fn join_estimate_uses_key_ndv() {
        let cat = catalog();
        // big.b_fk (ndv 1000) joins mid.m_id (ndv 1000): 10k * 1k / 1k.
        let join = q(Plan::hash_join(
            Plan::scan("mid"),
            Plan::scan("big"),
            vec![0],
            vec![1],
            JoinKind::Inner,
            None,
        ));
        let rows = estimated_rows(&join, &cat);
        assert!((rows - 10_000.0).abs() < 2_000.0, "{rows}");
    }

    #[test]
    fn pushdown_moves_filter_below_join() {
        let cat = catalog();
        let arity_of = |t: &str| cat.table(t).schema.len();
        // Select over join, predicate on the right side only.
        let join = Plan::hash_join(
            Plan::scan("mid"),
            Plan::scan("big"),
            vec![0],
            vec![1],
            JoinKind::Inner,
            None,
        );
        let plan = Plan::filtered(join, Expr::eq(Expr::col(3), Expr::lit(7i64)));
        let (pushed, n) = push_predicates(&plan, &arity_of);
        assert_eq!(n, 1);
        // The filter must now sit on the scan of `big`.
        let Plan::HashJoin { right, .. } = &pushed else { panic!("join expected: {pushed:?}") };
        let Plan::Select { input, predicate } = right.as_ref() else {
            panic!("pushed select expected: {pushed:?}")
        };
        assert_eq!(**input, Plan::scan("big"));
        assert_eq!(*predicate, Expr::eq(Expr::col(0), Expr::lit(7i64)));
    }

    #[test]
    fn pushdown_respects_outer_and_limit() {
        let cat = catalog();
        let arity_of = |t: &str| cat.table(t).schema.len();
        let join = Plan::hash_join(
            Plan::scan("mid"),
            Plan::scan("big"),
            vec![0],
            vec![1],
            JoinKind::LeftOuter,
            None,
        );
        let plan = Plan::filtered(join, Expr::eq(Expr::col(3), Expr::lit(7i64)));
        let (pushed, n) = push_predicates(&plan, &arity_of);
        assert_eq!(n, 0, "right side of an outer join must not receive filters");
        assert!(matches!(pushed, Plan::Select { .. }));

        let limited = Plan::limited(Plan::scan("big"), 5);
        let plan = Plan::filtered(limited, Expr::eq(Expr::col(0), Expr::lit(1i64)));
        let (pushed, n) = push_predicates(&plan, &arity_of);
        assert_eq!(n, 0, "filters must not cross LIMIT");
        assert!(matches!(pushed, Plan::Select { .. }));
    }

    #[test]
    fn reorder_puts_selective_side_first() {
        let cat = catalog();
        // Syntactic order big ⋈ mid ⋈ small; mid→small and big→mid edges.
        // Cost-wise the small end should start the chain.
        let j1 = Plan::hash_join(
            Plan::scan("big"),
            Plan::scan("mid"),
            vec![1],
            vec![0],
            JoinKind::Inner,
            None,
        );
        let j2 = Plan::hash_join(j1, Plan::scan("small"), vec![4], vec![0], JoinKind::Inner, None);
        let (opt, report) = optimize(&q(j2), &cat);
        let root = report.root();
        assert_eq!(root.naive_order, vec!["big", "mid", "small"]);
        assert!(root.chosen_cost <= root.naive_cost);
        // The optimized plan must compute the same schema (restored order).
        let lookup = |t: &str| cat.table(t).schema.clone();
        let orig_schema = q(Plan::hash_join(
            Plan::hash_join(
                Plan::scan("big"),
                Plan::scan("mid"),
                vec![1],
                vec![0],
                JoinKind::Inner,
                None,
            ),
            Plan::scan("small"),
            vec![4],
            vec![0],
            JoinKind::Inner,
            None,
        ))
        .root
        .schema(&lookup);
        assert_eq!(opt.root.schema(&lookup), orig_schema);
    }

    #[test]
    fn inference_copies_key_literals() {
        let cat = catalog();
        let join = Plan::hash_join(
            Plan::scan("mid"),
            Plan::scan("big"),
            vec![0],
            vec![1],
            JoinKind::Inner,
            None,
        );
        // m_id = 3 propagates to b_fk = 3 across the join key.
        let plan = Plan::filtered(join, Expr::eq(Expr::col(0), Expr::lit(3i64)));
        let (_, report) = optimize(&q(plan), &cat);
        assert_eq!(report.inferred(), 1);
    }

    #[test]
    fn semi_join_reattaches() {
        let cat = catalog();
        let inner = Plan::hash_join(
            Plan::scan("big"),
            Plan::scan("mid"),
            vec![1],
            vec![0],
            JoinKind::Inner,
            None,
        );
        let semi =
            Plan::hash_join(inner, Plan::scan("small"), vec![0], vec![0], JoinKind::Semi, None);
        let (opt, _) = optimize(&q(semi), &cat);
        let mut semis = 0;
        opt.root.walk(&mut |p| {
            if let Plan::HashJoin { kind: JoinKind::Semi, .. } = p {
                semis += 1;
            }
        });
        assert_eq!(semis, 1, "{:?}", opt.root);
    }

    /// Attaches a skewed histogram to `big.b_x` and checks that equality
    /// and range selectivities follow the distribution, not 1/ndv.
    #[test]
    fn histogram_sharpens_selectivity() {
        let mut cat = catalog();
        // 10k rows of b_x: 90% value 7, the rest spread over 0..100.
        let mut ranks: Vec<f64> = vec![7.0; 9_000];
        ranks.extend((0..1_000).map(|i| (i % 101) as f64));
        let hist = Histogram::build(ranks, 64).unwrap();
        let mut stats = cat.stats("big").unwrap().clone();
        stats.columns[2].histogram = Some(Arc::new(hist));
        cat.set_stats("big", stats);
        let hot = q(Plan::filtered(Plan::scan("big"), Expr::eq(Expr::col(2), Expr::lit(7i64))));
        let hot_rows = estimated_rows(&hot, &cat);
        assert!(hot_rows > 8_000.0, "heavy hitter must estimate heavy: {hot_rows}");
        let cold = q(Plan::filtered(Plan::scan("big"), Expr::lt(Expr::col(2), Expr::lit(5i64))));
        let cold_rows = estimated_rows(&cold, &cat);
        assert!(cold_rows < 1_000.0, "below-hitter range must estimate light: {cold_rows}");
    }

    /// A straddling OR whose branches each pin one side sinks derived
    /// disjunctions to both inputs while the exact filter stays above.
    #[test]
    fn or_factoring_pushes_side_disjunctions() {
        let cat = catalog();
        let arity_of = |t: &str| cat.table(t).schema.len();
        let join = Plan::hash_join(
            Plan::scan("mid"),
            Plan::scan("big"),
            vec![0],
            vec![1],
            JoinKind::Inner,
            None,
        );
        // (m_y = 1 AND b_x = 2) OR (m_y = 3 AND b_x = 4)
        let pair_or = Expr::or(
            Expr::and(
                Expr::eq(Expr::col(2), Expr::lit(1i64)),
                Expr::eq(Expr::col(5), Expr::lit(2i64)),
            ),
            Expr::and(
                Expr::eq(Expr::col(2), Expr::lit(3i64)),
                Expr::eq(Expr::col(5), Expr::lit(4i64)),
            ),
        );
        let plan = Plan::filtered(join, pair_or.clone());
        let (pushed, n) = push_predicates(&plan, &arity_of);
        assert_eq!(n, 2, "both derived disjunctions must sink: {pushed:?}");
        // Exact filter still on top; each side now holds a Select.
        let Plan::Select { input, predicate } = &pushed else {
            panic!("original OR must stay above: {pushed:?}")
        };
        assert_eq!(*predicate, pair_or);
        let Plan::HashJoin { left, right, .. } = input.as_ref() else {
            panic!("join expected: {pushed:?}")
        };
        assert!(matches!(left.as_ref(), Plan::Select { .. }), "{left:?}");
        assert!(matches!(right.as_ref(), Plan::Select { .. }), "{right:?}");
    }

    /// A single-use pure-join stage dissolves into its consumer, so the
    /// reorderer sees one region spanning the former boundary.
    #[test]
    fn pure_stages_inline_across_boundaries() {
        let cat = catalog();
        let sub = Plan::hash_join(
            Plan::scan("mid"),
            Plan::scan("small"),
            vec![2],
            vec![0],
            JoinKind::Inner,
            None,
        );
        let root = Plan::hash_join(
            Plan::scan("big"),
            Plan::scan("#sub"),
            vec![1],
            vec![0],
            JoinKind::Inner,
            None,
        );
        let query = QueryPlan::new("t", root).with_stage("sub", sub);
        let (opt, report) = optimize(&query, &cat);
        assert!(opt.stages.is_empty(), "stage must inline: {opt:?}");
        assert_eq!(report.root().naive_order, vec!["big", "mid", "small"]);
        // An aggregating stage must NOT inline.
        let agg_sub = Plan::aggregated(
            Plan::scan("mid"),
            vec![0],
            vec![AggSpec::new(AggKind::Sum, Expr::col(2), "s")],
        );
        let root = Plan::hash_join(
            Plan::scan("big"),
            Plan::scan("#sub"),
            vec![1],
            vec![0],
            JoinKind::Inner,
            None,
        );
        let query = QueryPlan::new("t", root).with_stage("sub", agg_sub);
        let (opt, _) = optimize(&query, &cat);
        assert_eq!(opt.stages.len(), 1, "aggregating stage must stay: {opt:?}");
    }

    /// Absorbed actuals override the model's estimate on the next plan of
    /// the same query, and the report says so.
    #[test]
    fn feedback_overrides_estimates() {
        let mut cat = catalog();
        let plan =
            || q(Plan::filtered(Plan::scan("big"), Expr::lt(Expr::col(0), Expr::lit(5_000i64))));
        let (_, report) = optimize(&plan(), &cat);
        let fp = report.root().fingerprint.clone();
        assert!(!report.root().feedback_applied);
        assert!(cat.absorb_actuals(&[(fp.clone(), 42.0)]));
        let (_, report) = optimize(&plan(), &cat);
        assert_eq!(report.root().fingerprint, fp, "fingerprint must be stable");
        assert!(report.root().feedback_applied);
        assert_eq!(report.root().est_rows, 42.0);
        assert!(report.summary().contains("feedback-corrected"));
        // apply_feedback patches a stale report the same way.
        let mut stale = OptReport {
            query: "t".into(),
            stages: vec![StageReport {
                stage: "root".into(),
                naive_order: vec![],
                chosen_order: vec![],
                chosen_shape: String::new(),
                naive_cost: 0.0,
                chosen_cost: 0.0,
                pushed_predicates: 0,
                inferred_predicates: 0,
                est_rows: 5_000.0,
                fingerprint: fp,
                feedback_applied: false,
            }],
            actual_rows: None,
        };
        assert!(stale.apply_feedback(&cat));
        assert_eq!(stale.root().est_rows, 42.0);
    }

    /// With a primary key declared, probing that dimension pays no build
    /// cost — the same join gets cheaper once the catalog knows the key.
    #[test]
    fn partitioned_builds_are_free() {
        let mut cat = catalog();
        let plan = q(Plan::hash_join(
            Plan::scan("big"),
            Plan::scan("mid"),
            vec![1],
            vec![0],
            JoinKind::Inner,
            None,
        ));
        let cost_unkeyed = estimated_cost(&plan, &cat);
        let schema = cat.table("mid").schema.clone();
        cat.add(TableMeta::new("mid", schema).with_primary_key(&["m_id"]));
        let cost_keyed = estimated_cost(&plan, &cat);
        assert!(
            cost_keyed < cost_unkeyed,
            "pk-partitioned build must be free: {cost_keyed} vs {cost_unkeyed}"
        );
    }

    #[test]
    fn cost_model_is_consistent() {
        let cat = catalog();
        let join = |l: Plan, r: Plan, lk: usize, rk: usize| {
            Plan::hash_join(l, r, vec![lk], vec![rk], JoinKind::Inner, None)
        };
        let naive =
            q(join(join(Plan::scan("big"), Plan::scan("mid"), 1, 0), Plan::scan("small"), 4, 0));
        let (opt, _) = optimize(&naive, &cat);
        assert!(estimated_cost(&opt, &cat) <= estimated_cost(&naive, &cat) * 1.01);
    }
}
