//! The specialized executor: the stand-in for LegoBase's generated C code.
//!
//! Every optimization of Section 3 appears here as a real execution-path
//! choice, selected by [`Settings`] (which the SC transformation pipeline
//! derives per query):
//!
//! * **partitioning** — joins against base tables dereference the load-time
//!   foreign-key partitions / primary-key 1D arrays (Fig. 10) instead of
//!   building hash tables;
//! * **date_indices** — range predicates on indexed date attributes scan
//!   year buckets and skip non-matching years wholesale (Fig. 12);
//! * **hashmap_lowering** — remaining joins and aggregations use the native
//!   chained-array structures of Fig. 11 instead of generic SipHash maps;
//! * **string_dict** — string predicates run on dictionary codes (Table II);
//! * **column_store** — operators materialize only the attributes their
//!   ancestors reference (late materialization); with the flag off, every
//!   intermediate carries all attributes, reproducing the row-layout cost;
//! * **code_motion** — aggregation stores over small key domains become
//!   dense pre-initialized arrays (Section 3.5.2) and output vectors are
//!   pre-sized from statistics (Section 3.5.1);
//! * **compiled_exprs** — off reproduces Opt/Scala: specialized data
//!   structures but per-tuple interpreted evaluation;
//! * **parallelism** — a degree > 1 runs the pipelines morsel-driven over
//!   worker threads: fixed-size contiguous row-range morsels over the shared
//!   `Arc` columns, thread-local partial states, deterministic merge in
//!   morsel-index order (DESIGN.md §3). Beyond the scan→filter→pre-aggregate
//!   pipelines of the first parallel milestone this now covers **joins**
//!   (radix-partitioned build into key-disjoint sub-tables, probe-side
//!   morsels — including the partitioned Fig. 10 probes and the Fig. 9 fused
//!   probe) and **sorts** (per-morsel local stable sort + deterministic
//!   k-way merge), both bit-identical to their serial paths. The degree and
//!   the join/sort clearances are specialization decisions recorded by the
//!   SC pipeline's `Parallelize` transformer, exactly like the
//!   data-structure choices.

use crate::expr::{CmpOp, Expr};
use crate::interp;
use crate::kernel::{
    self, AggFold, BoolK, Chunk, GroupResolver, KeyPacker, MaskedColumn, PairK, I64K,
};
use crate::parallel::{go_parallel, row_morsels, run_morsels};
use crate::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use crate::result::ResultTable;
use crate::settings::Settings;
use crate::SpecializedDb;
use legobase_storage::dateindex::RangeSegment;
use legobase_storage::morsel::{merge_sorted_runs, MORSEL_ROWS};
use legobase_storage::partition::{join_partition, JOIN_PARTITIONS};
use legobase_storage::specialized::{ChainedArrayMap, ChainedMultiMap};
use legobase_storage::{metrics, Column, Date, RowTable, Schema, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Maximum dense-domain width for the direct-array aggregation store. TPC-H
/// key domains are "typically up to a couple of thousand sequential values"
/// (Section 3.5.2); sparse keys such as Q18's O_ORDERKEY exceed this and
/// fall back to the lowered hash map (the paper's footnote 12).
const DIRECT_ARRAY_MAX: i64 = 1 << 16;

/// Column-need set: `None` = all columns required.
type Need = Option<BTreeSet<usize>>;

struct Exec<'a> {
    db: &'a SpecializedDb,
    settings: &'a Settings,
    temps: HashMap<String, Chunk>,
}

/// Executes a query under the specialized engine.
pub fn execute(query: &QueryPlan, db: &SpecializedDb, settings: &Settings) -> ResultTable {
    // Per-query sanity: the executor assumes a specialization-compatible
    // load; `SpecializedDb::load` is responsible for honoring `spec`.
    let mut exec = Exec { db, settings, temps: HashMap::new() };
    for (name, plan) in &query.stages {
        let chunk = exec.run(plan, &None);
        exec.temps.insert(format!("#{name}"), chunk);
    }
    let out = exec.run(&query.root, &None);
    ResultTable(chunk_to_rows(&out))
}

/// Converts a chunk to generic rows (result boundary).
pub fn chunk_to_rows(chunk: &Chunk) -> RowTable {
    let mut out = RowTable::with_capacity(chunk.schema.clone(), chunk.len());
    for i in 0..chunk.len() {
        out.push(chunk.row_values(i));
    }
    out
}

impl<'a> Exec<'a> {
    fn schema_of(&self, table: &str) -> Schema {
        if let Some(c) = self.temps.get(table) {
            c.schema.clone()
        } else {
            self.db.table(table).schema.clone()
        }
    }

    /// The compiled decision to run this query's joins morsel-parallel,
    /// gated on the operator input being large enough to split. Both factors
    /// are degree-independent for degrees ≥ 2, so every degree takes the
    /// same code path (half of the bit-identical-across-degrees contract).
    fn par_join(&self, rows: usize) -> bool {
        self.settings.parallel_joins && go_parallel(self.settings.parallelism, rows)
    }

    /// The compiled decision to run this query's sorts morsel-parallel.
    fn par_sort(&self, rows: usize) -> bool {
        self.settings.parallel_sorts && go_parallel(self.settings.parallelism, rows)
    }

    /// Compiles the fused unpack-filter for a base-scan predicate, when at
    /// least one referenced packed column can batch-unpack per morsel
    /// (PR 10).
    fn block_pred(&self, predicate: &Expr, chunk: &Chunk) -> Option<kernel::BlockPred> {
        chunk.base.as_deref()?;
        kernel::compile_block_pred(predicate, chunk)
    }

    // ---- operators ----

    fn run(&self, plan: &Plan, need: &Need) -> Chunk {
        // With the column layout disabled every intermediate carries all of
        // its attributes (early materialization).
        let need = if self.settings.column_store { need.clone() } else { None };
        match plan {
            Plan::Scan { table } => self.scan(table),
            Plan::Select { input, predicate } => self.select(input, predicate, &need),
            Plan::Project { input, exprs } => self.project(input, exprs, &need),
            Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => {
                self.join(left, right, left_keys, right_keys, *kind, residual.as_ref(), &need)
            }
            Plan::Agg { input, group_by, aggs } => self.aggregate(input, group_by, aggs),
            Plan::Sort { input, keys } => self.sort(input, keys, &need),
            Plan::Limit { input, n } => self.limit(input, *n, &need),
            Plan::Distinct { input } => self.distinct(input),
        }
    }

    fn scan(&self, table: &str) -> Chunk {
        if let Some(c) = self.temps.get(table) {
            return c.clone();
        }
        let t = self.db.table(table);
        Chunk {
            schema: t.schema.clone(),
            cols: t.columns.clone(),
            nulls: vec![None; t.columns.len()],
            sel: None,
            total: t.len,
            base: Some(table.to_string()),
        }
    }

    fn select(&self, input: &Plan, predicate: &Expr, need: &Need) -> Chunk {
        // Date-index path: a fresh base scan filtered by a date range on an
        // indexed attribute (Fig. 12).
        if self.settings.date_indices {
            if let Plan::Scan { table } = input {
                if let Some(chunk) = self.select_via_date_index(table, predicate) {
                    return chunk;
                }
            }
        }
        let mut chunk = self.run(input, &child_need_select(need, predicate));
        // Fused unpack-filter (PR 10): on a fresh base scan whose predicate
        // reads fused-strategy packed columns, batch-unpack each morsel into
        // per-worker scratch and filter there — the decoded column is never
        // materialized. Selects exactly the rows the per-row path selects,
        // so the selection vector (and every downstream result) is
        // bit-identical at any degree.
        if self.settings.compiled_exprs && chunk.sel.is_none() {
            if let Some(bp) = self.block_pred(predicate, &chunk) {
                let n = chunk.len();
                if go_parallel(self.settings.parallelism, n) {
                    let parts: Vec<Vec<u32>> = run_morsels(
                        self.settings.parallelism,
                        &row_morsels(n),
                        || bp.scratch(),
                        |scratch, m| {
                            let mut sel = Vec::new();
                            bp.eval(scratch, m.start, m.len(), &mut sel);
                            sel
                        },
                    );
                    chunk.sel = Some(Arc::new(parts.concat()));
                } else {
                    let mut sel = Vec::new();
                    if self.settings.code_motion {
                        sel.reserve(n);
                    }
                    let mut scratch = bp.scratch();
                    for m in row_morsels(n) {
                        bp.eval(&mut scratch, m.start, m.len(), &mut sel);
                    }
                    chunk.sel = Some(Arc::new(sel));
                }
                return chunk;
            }
        }
        let pred = kernel::pred(predicate, &chunk, self.settings.compiled_exprs);
        if go_parallel(self.settings.parallelism, chunk.len()) {
            // Morsel-driven filter: workers share the compiled predicate
            // (kernels are Sync) and evaluate disjoint logical-row ranges;
            // concatenating the per-morsel survivors in morsel order yields
            // exactly the selection vector the serial loop builds.
            let parts: Vec<Vec<u32>> = run_morsels(
                self.settings.parallelism,
                &row_morsels(chunk.len()),
                || (),
                |(), m| {
                    let mut sel = Vec::new();
                    for i in m.range() {
                        let p = chunk.phys(i);
                        metrics::branch_eval();
                        if pred(p) {
                            sel.push(p as u32);
                        }
                    }
                    sel
                },
            );
            // Concatenating in morsel-index order is the deterministic
            // assembly step of every parallel selection path.
            chunk.sel = Some(Arc::new(parts.concat()));
            return chunk;
        }
        let mut sel = Vec::new();
        if self.settings.code_motion {
            sel.reserve(chunk.len());
        }
        for p in chunk.physical_rows() {
            metrics::branch_eval();
            if pred(p) {
                sel.push(p as u32);
            }
        }
        chunk.sel = Some(Arc::new(sel));
        chunk
    }

    /// Tries to answer a base-table selection through the year index.
    fn select_via_date_index(&self, table: &str, predicate: &Expr) -> Option<Chunk> {
        if self.temps.contains_key(table) {
            return None;
        }
        let chunk = self.scan(table);
        let conjuncts = split_conjuncts(predicate);
        // Find an indexed date column constrained by the conjuncts.
        for (col_idx, col) in chunk.cols.iter().enumerate() {
            if !matches!(col, Column::Date(_) | Column::DatePacked(_)) {
                continue;
            }
            let Some(index) = self.db.date_indexes.get(&(table.to_string(), col_idx)) else {
                continue;
            };
            let (lo, hi, covered) = date_bounds(&conjuncts, col_idx);
            if lo.is_none() && hi.is_none() {
                continue;
            }
            let lo = lo.unwrap_or(Date(i32::MIN / 2));
            let hi = hi.unwrap_or(Date(i32::MAX / 2));
            // Residual = conjuncts not fully captured by the range.
            let residual: Vec<&Expr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(i, _)| !covered.contains(i))
                .map(|(_, e)| *e)
                .collect();
            let res_pred: Option<BoolK> = if residual.is_empty() {
                None
            } else {
                let combined =
                    residual.iter().fold(Expr::lit(true), |acc, e| Expr::and(acc, (*e).clone()));
                Some(kernel::pred(&combined, &chunk, self.settings.compiled_exprs))
            };
            let days = chunk.cols[col_idx].date_reader().expect("date-indexed column");
            let sel = self.date_index_scan(index, days, lo, hi, &res_pred);
            let mut out = chunk;
            out.sel = Some(Arc::new(sel));
            return Some(out);
        }
        None
    }

    /// Collects the rows a year index yields for `[lo, hi]` (plus an
    /// optional residual predicate), serially or morsel-parallel. The
    /// parallel path partitions the index's year buckets into bounded
    /// segments and concatenates per-segment survivors in segment order,
    /// reproducing the serial emission order bit for bit.
    fn date_index_scan(
        &self,
        index: &legobase_storage::dateindex::DateYearIndex,
        days: legobase_storage::DateReader<'_>,
        lo: Date,
        hi: Date,
        res_pred: &Option<BoolK>,
    ) -> Vec<u32> {
        let segments = index.range_segments(lo, hi);
        let candidates: usize = segments.iter().map(|s| s.end - s.start).sum();
        if go_parallel(self.settings.parallelism, candidates) {
            // Split each bucket into morsel-sized sub-segments (the split
            // depends only on the index and the range, never on the degree).
            let mut work: Vec<RangeSegment> = Vec::new();
            for s in &segments {
                let mut start = s.start;
                while start < s.end {
                    let end = (start + MORSEL_ROWS).min(s.end);
                    work.push(RangeSegment { start, end, full: s.full });
                    start = end;
                }
            }
            let row_ids = index.row_ids();
            let parts: Vec<Vec<u32>> = run_morsels(
                self.settings.parallelism,
                &work,
                || (),
                |(), seg: RangeSegment| {
                    let mut sel = Vec::new();
                    for &row in &row_ids[seg.start..seg.end] {
                        let in_range = seg.full || {
                            let d = days.get(row as usize);
                            d >= lo.0 && d <= hi.0
                        };
                        if in_range && res_pred.as_ref().is_none_or(|p| p(row as usize)) {
                            sel.push(row);
                        }
                    }
                    sel
                },
            );
            return parts.concat();
        }
        // Serial path: consuming the segments in order reproduces
        // `DateYearIndex::scan_range`'s emission order bit for bit (proven by
        // `segments_replay_scan_range_order` in the dateindex tests), and the
        // reader keeps the scan working over packed day counts.
        let row_ids = index.row_ids();
        let mut sel = Vec::new();
        for s in &segments {
            for &row in &row_ids[s.start..s.end] {
                let in_range = s.full || {
                    let d = days.get(row as usize);
                    d >= lo.0 && d <= hi.0
                };
                if in_range && res_pred.as_ref().is_none_or(|p| p(row as usize)) {
                    sel.push(row);
                }
            }
        }
        sel
    }

    fn project(&self, input: &Plan, exprs: &[(Expr, String)], need: &Need) -> Chunk {
        // Child needs: columns referenced by the needed output expressions.
        let mut child_need = BTreeSet::new();
        let mut keep = vec![false; exprs.len()];
        for (i, (e, _)) in exprs.iter().enumerate() {
            if need.as_ref().is_none_or(|n| n.contains(&i)) {
                keep[i] = true;
                let mut cols = Vec::new();
                e.collect_cols(&mut cols);
                child_need.extend(cols);
            }
        }
        let chunk = self.run(input, &Some(child_need));
        let schema = Plan::Project { input: Box::new(input.clone()), exprs: exprs.to_vec() }
            .schema(&|t: &str| self.schema_of(t));
        let n = chunk.len();
        let mut cols = Vec::with_capacity(exprs.len());
        let mut nulls = Vec::with_capacity(exprs.len());
        for (i, (e, _)) in exprs.iter().enumerate() {
            if !keep[i] {
                cols.push(Column::Absent);
                nulls.push(None);
                continue;
            }
            // Column pass-through shares the vector when no re-indexing is
            // needed.
            if let (Expr::Col(c), None) = (e, &chunk.sel) {
                cols.push(chunk.cols[*c].clone());
                nulls.push(chunk.nulls[*c].clone());
                continue;
            }
            if let Expr::Col(c) = e {
                let (col, mask) = gather_column(&chunk, *c, &sel_vec(&chunk));
                cols.push(col);
                nulls.push(mask);
                continue;
            }
            let (col, mask) = self.compute_column(e, &chunk, n);
            cols.push(col);
            nulls.push(mask);
        }
        Chunk { schema, cols, nulls, sel: None, total: n, base: None }
    }

    /// Materializes a computed expression as an owned column.
    fn compute_column(
        &self,
        e: &Expr,
        chunk: &Chunk,
        n: usize,
    ) -> (Column, Option<Arc<Vec<bool>>>) {
        use legobase_storage::Type;
        let compiled = self.settings.compiled_exprs;
        let ty = e.ty(&chunk.schema);
        // NULLs flow through expressions (outer joins, empty aggregates), so
        // the typed fast paths only apply when no referenced column carries a
        // validity mask.
        let mut refs = Vec::new();
        e.collect_cols(&mut refs);
        let nullable = refs.iter().any(|&c| chunk.nulls[c].is_some());
        match ty {
            Type::Float if !nullable => {
                (Column::F64(Arc::new(kernel::eval_f64_column(e, chunk, compiled))), None)
            }
            Type::Float => {
                let k = kernel::valk(e, chunk, compiled);
                let mut v = Vec::with_capacity(n);
                let mut mask = Vec::with_capacity(n);
                for p in chunk.physical_rows() {
                    let val = k(p);
                    mask.push(val.is_null());
                    v.push(if val.is_null() { 0.0 } else { val.as_float() });
                }
                let any = mask.iter().any(|&m| m);
                (Column::F64(Arc::new(v)), any.then(|| Arc::new(mask)))
            }
            Type::Int if !nullable => {
                (Column::I64(Arc::new(kernel::eval_i64_column(e, chunk, compiled))), None)
            }
            Type::Int => {
                let k = kernel::valk(e, chunk, compiled);
                let mut v = Vec::with_capacity(n);
                let mut mask = Vec::with_capacity(n);
                for p in chunk.physical_rows() {
                    let val = k(p);
                    mask.push(val.is_null());
                    v.push(if val.is_null() { 0 } else { val.as_int() });
                }
                let any = mask.iter().any(|&m| m);
                (Column::I64(Arc::new(v)), any.then(|| Arc::new(mask)))
            }
            Type::Bool => {
                let k = kernel::pred(e, chunk, compiled);
                let mut v = Vec::with_capacity(n);
                for p in chunk.physical_rows() {
                    v.push(k(p));
                }
                (Column::Bool(Arc::new(v)), None)
            }
            _ => {
                let k = kernel::valk(e, chunk, compiled);
                let mut vals = Vec::with_capacity(n);
                let mut mask = Vec::with_capacity(n);
                let mut any_null = false;
                for p in chunk.physical_rows() {
                    let v = k(p);
                    any_null |= v.is_null();
                    mask.push(v.is_null());
                    vals.push(v);
                }
                let col =
                    match ty {
                        Type::Str => Column::Str(Arc::new(
                            vals.into_iter()
                                .map(|v| {
                                    if v.is_null() {
                                        String::new()
                                    } else {
                                        v.as_str().to_string()
                                    }
                                })
                                .collect(),
                        )),
                        Type::Date => Column::Date(Arc::new(
                            vals.into_iter()
                                .map(|v| if v.is_null() { 0 } else { v.as_date().0 })
                                .collect(),
                        )),
                        _ => unreachable!("typed paths handled above"),
                    };
                (col, any_null.then(|| Arc::new(mask)))
            }
        }
    }

    fn sort(&self, input: &Plan, keys: &[(usize, SortOrder)], need: &Need) -> Chunk {
        let mut child_need = need.clone();
        if let Some(n) = &mut child_need {
            n.extend(keys.iter().map(|(c, _)| *c));
        }
        let mut chunk = self.run(input, &child_need);
        let n = chunk.len();
        if self.par_sort(n) {
            let sel = self.par_sort_sel(&chunk, keys);
            chunk.sel = Some(Arc::new(sel));
            return chunk;
        }
        // Gather key values once, argsort logical indices.
        let key_vals: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let p = chunk.phys(i);
                keys.iter().map(|(c, _)| chunk.value_at(*c, p)).collect()
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Serial and parallel sorts share one comparator: the bit-identical
        // contract between them is only as strong as this single source.
        order.sort_by(|&a, &b| cmp_key_rows(&key_vals[a as usize], &key_vals[b as usize], keys));
        let sel: Vec<u32> = order.into_iter().map(|i| chunk.phys(i as usize) as u32).collect();
        chunk.sel = Some(Arc::new(sel));
        chunk
    }

    /// Morsel-parallel ORDER BY: key gathering and local argsorts run per
    /// morsel; the per-morsel runs combine through the deterministic k-way
    /// merge of `storage::morsel` (ties break toward the earlier morsel).
    /// Because each local sort is stable and the merge favors earlier runs —
    /// which hold earlier logical positions — the result is exactly the
    /// serial stable argsort, bit for bit, at every degree (DESIGN.md §3).
    fn par_sort_sel(&self, chunk: &Chunk, keys: &[(usize, SortOrder)]) -> Vec<u32> {
        let degree = self.settings.parallelism;
        let ms = row_morsels(chunk.len());
        // One pass per morsel: gather that morsel's key tuples and
        // stable-argsort its logical indices against them — a second
        // worker-spawn round just to sort keys the same morsel gathered
        // would double the scheduling overhead for nothing.
        let parts: Vec<(Vec<Vec<Value>>, Vec<u32>)> = run_morsels(
            degree,
            &ms,
            || (),
            |(), m| {
                let local_keys: Vec<Vec<Value>> = m
                    .range()
                    .map(|i| {
                        let p = chunk.phys(i);
                        keys.iter().map(|(c, _)| chunk.value_at(*c, p)).collect::<Vec<Value>>()
                    })
                    .collect();
                let mut idx: Vec<u32> = (m.start as u32..m.end as u32).collect();
                // Stable within the morsel.
                idx.sort_by(|a, b| {
                    cmp_key_rows(
                        &local_keys[*a as usize - m.start],
                        &local_keys[*b as usize - m.start],
                        keys,
                    )
                });
                (local_keys, idx)
            },
        );
        let mut key_vals: Vec<Vec<Value>> = Vec::with_capacity(chunk.len());
        let mut runs: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        for (local_keys, idx) in parts {
            key_vals.extend(local_keys);
            runs.push(idx);
        }
        let cmp =
            |a: &u32, b: &u32| cmp_key_rows(&key_vals[*a as usize], &key_vals[*b as usize], keys);
        let order = merge_sorted_runs(runs, &cmp);
        order.into_iter().map(|i| chunk.phys(i as usize) as u32).collect()
    }

    fn limit(&self, input: &Plan, n: usize, need: &Need) -> Chunk {
        let mut chunk = self.run(input, need);
        let mut sel = sel_vec(&chunk);
        sel.truncate(n);
        chunk.sel = Some(Arc::new(sel));
        chunk
    }

    fn distinct(&self, input: &Plan) -> Chunk {
        let mut chunk = self.run(input, &None);
        let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        let mut sel = Vec::new();
        for i in 0..chunk.len() {
            let p = chunk.phys(i);
            metrics::hash_probe();
            if seen.insert(chunk.row_values(i)) {
                sel.push(p as u32);
            }
        }
        chunk.sel = Some(Arc::new(sel));
        chunk
    }

    // ---- joins ----

    #[allow(clippy::too_many_arguments)] // mirrors the Plan::HashJoin fields
    fn join(
        &self,
        left: &Plan,
        right: &Plan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
        residual: Option<&Expr>,
        need: &Need,
    ) -> Chunk {
        // Split needs for the two sides; keys and residual columns are
        // always needed.
        let lookup = |t: &str| self.schema_of(t);
        let l_arity = left.schema(&lookup).len();
        let r_arity = right.schema(&lookup).len();
        let (lneed, rneed) =
            split_join_need(need, l_arity, r_arity, left_keys, right_keys, residual, kind);

        // Inter-operator optimization (Fig. 9): when the build side is an
        // aggregation grouped exactly by the join key, reuse the
        // aggregation's group index as the join hash table instead of
        // materializing and re-hashing it.
        let fusable = self.settings.interop_fusion
            && kind == JoinKind::Inner
            && left_keys == [0]
            && matches!(left, Plan::Agg { group_by, .. } if group_by.len() == 1);
        let (lchunk, group_index) = if fusable {
            let Plan::Agg { input, group_by, aggs } = left else { unreachable!() };
            self.aggregate_impl(input, group_by, aggs)
        } else {
            (self.run(left, &lneed), None)
        };
        let rchunk = self.run(right, &rneed);

        // Key kernels (all TPC-H join keys are codeable: ints or dict codes).
        let lkeys: Option<Vec<I64K>> =
            left_keys.iter().map(|&c| kernel::code_kernel(c, &lchunk)).collect();
        let rkeys: Option<Vec<I64K>> =
            right_keys.iter().map(|&c| kernel::code_kernel(c, &rchunk)).collect();

        let res = residual.map(|r| self.residual_pred(r, &lchunk, &rchunk));

        // Fused probe: the aggregation's own key→slot structure answers the
        // join lookups; no second hash table is ever built. A load-time
        // partition on the probe side is cheaper still (a direct array
        // dereference per build row, Fig. 10), so the fused probe only runs
        // when no partition serves this join — matching the paper, where
        // partitioning already eliminates the intermediate structures of
        // most joins and fusion handles the rest.
        let partitioned_probe = self.settings.partitioning
            && right_keys.len() == 1
            && rchunk.base.as_ref().is_some_and(|t| {
                let key = (t.clone(), right_keys[0]);
                self.db.fk_partitions.contains_key(&key) || self.db.pk_indexes.contains_key(&key)
            });
        if let (false, Some(gi), Some(rk)) = (
            partitioned_probe,
            &group_index,
            right_keys.first().and_then(|&c| kernel::code_kernel(c, &rchunk)),
        ) {
            if right_keys.len() == 1 {
                let pairs = if self.par_join(rchunk.len()) {
                    // Parallel fused probe: the aggregation's key→slot index
                    // is shared read-only across workers; probe-side morsels
                    // flow through `run_morsels` and their matches
                    // concatenate in morsel-index order, reproducing the
                    // serial emission order exactly.
                    run_morsels(
                        self.settings.parallelism,
                        &row_morsels(rchunk.len()),
                        || (),
                        |(), m| {
                            let mut pairs = Vec::new();
                            for i in m.range() {
                                let rp = rchunk.phys(i);
                                if let Some(g) = gi.lookup(rk(rp)) {
                                    if res.as_ref().is_none_or(|f| f(g as usize, rp)) {
                                        pairs.push((g, rp as u32));
                                    }
                                }
                            }
                            pairs
                        },
                    )
                    .concat()
                } else {
                    let mut pairs = Vec::new();
                    for rp in rchunk.physical_rows() {
                        if let Some(g) = gi.lookup(rk(rp)) {
                            if res.as_ref().is_none_or(|f| f(g as usize, rp)) {
                                pairs.push((g, rp as u32));
                            }
                        }
                    }
                    pairs
                };
                return self.gather_join_output(&lchunk, &rchunk, pairs, kind, need);
            }
        }

        let pairs = match (lkeys, rkeys) {
            (Some(lk), Some(rk)) => {
                self.join_pairs_coded(&lchunk, &rchunk, &lk, &rk, right, right_keys, kind, &res)
            }
            _ => self.join_pairs_generic(&lchunk, &rchunk, left_keys, right_keys, kind, &res),
        };

        self.gather_join_output(&lchunk, &rchunk, pairs, kind, need)
    }

    fn residual_pred(&self, r: &Expr, lchunk: &Chunk, rchunk: &Chunk) -> PairK {
        // Residuals see the concatenated schema; evaluate over a gathered
        // mini-tuple (residuals are rare and cheap).
        let l_arity = lchunk.cols.len();
        let mut cols = Vec::new();
        r.collect_cols(&mut cols);
        let lcols = lchunk.cols.clone();
        let lnulls = lchunk.nulls.clone();
        let rcols = rchunk.cols.clone();
        let rnulls = rchunk.nulls.clone();
        let r = r.clone();
        let total = l_arity + rcols.len();
        Box::new(move |lp, rp| {
            let mut row = vec![Value::Null; total];
            for &c in &cols {
                row[c] = if c < l_arity {
                    kernel::value_from(&lcols, &lnulls, c, lp)
                } else {
                    kernel::value_from(&rcols, &rnulls, c - l_arity, rp)
                };
            }
            interp::eval_pred(&r, &row)
        })
    }

    /// Produces matched `(left_phys, right_phys)` pairs for coded keys.
    /// `right_phys == u32::MAX` marks a preserved-but-unmatched left row.
    #[allow(clippy::too_many_arguments)]
    fn join_pairs_coded(
        &self,
        lchunk: &Chunk,
        rchunk: &Chunk,
        lk: &[I64K],
        rk: &[I64K],
        right_plan: &Plan,
        right_keys: &[usize],
        kind: JoinKind,
        res: &Option<PairK>,
    ) -> Vec<(u32, u32)> {
        // Partitioned path (Fig. 10): the right side is a filtered base scan
        // with a load-time partition on the single join key.
        if self.settings.partitioning && right_keys.len() == 1 {
            if let Some(table) = rchunk.base.clone() {
                let key = (table, right_keys[0]);
                if self.db.fk_partitions.contains_key(&key) || self.db.pk_indexes.contains_key(&key)
                {
                    return self.join_pairs_partitioned(lchunk, rchunk, lk, &key, kind, res);
                }
            }
        }
        let _ = right_plan;
        // Hash build over the right side, serial or morsel-parallel
        // (DESIGN.md §3). Each side gates independently, so a small build
        // side under a large probe side still parallelizes the probe (and
        // vice versa); both gates depend only on row counts, never on the
        // degree, so every degree ≥ 2 takes the same path, and with both
        // gates false the functions below run the exact serial build+probe.
        let build_parallel = self.par_join(rchunk.len());
        let probe_parallel = self.par_join(lchunk.len());
        if self.settings.hashmap_lowering {
            self.join_pairs_lowered(
                lchunk,
                rchunk,
                lk,
                rk,
                kind,
                res,
                build_parallel,
                probe_parallel,
            )
        } else {
            self.join_pairs_generic_hash(
                lchunk,
                rchunk,
                lk,
                rk,
                kind,
                res,
                build_parallel,
                probe_parallel,
            )
        }
    }

    /// Radix-scatters the build side into per-morsel × per-partition
    /// `(packed key, physical row)` lists — phase one of the parallel build.
    /// The scatter is a pure function of the chunk and the keys; worker
    /// identity never shapes it.
    fn scatter_build_side(&self, rchunk: &Chunk, rk: &[I64K]) -> Vec<Vec<Vec<(u64, u32)>>> {
        run_morsels(
            self.settings.parallelism,
            &row_morsels(rchunk.len()),
            || (),
            |(), m| {
                let mut parts: Vec<Vec<(u64, u32)>> = vec![Vec::new(); JOIN_PARTITIONS];
                for i in m.range() {
                    let p = rchunk.phys(i);
                    let key = pack_keys(rk, p);
                    parts[join_partition(key)].push((key, p as u32));
                }
                parts
            },
        )
    }

    /// Lowered hash join (Fig. 11; no load-time partition applies), the
    /// single source for the serial *and* morsel-parallel paths — with both
    /// gates false this is exactly the serial whole-side build + probe loop.
    /// Parallel build: the build side is radix-partitioned into
    /// [`JOIN_PARTITIONS`] key-disjoint chained sub-tables — scatter over
    /// build-side morsels, then each sub-table filled by walking the
    /// scattered morsels in index order. A sub-table receives its rows in
    /// the same relative order as the serial whole-side build, so every
    /// per-key chain (and hence the match order a probe observes) is
    /// identical to serial. Parallel probe: probe-side morsels each probe
    /// exactly one sub-table per row, and results concatenate in
    /// morsel-index order. Every gate combination is therefore
    /// bit-identical to the serial lowered join.
    #[allow(clippy::too_many_arguments)]
    fn join_pairs_lowered(
        &self,
        lchunk: &Chunk,
        rchunk: &Chunk,
        lk: &[I64K],
        rk: &[I64K],
        kind: JoinKind,
        res: &Option<PairK>,
        build_parallel: bool,
        probe_parallel: bool,
    ) -> Vec<(u32, u32)> {
        let degree = self.settings.parallelism;
        let tables: Vec<ChainedMultiMap> = if build_parallel {
            let scattered = self.scatter_build_side(rchunk, rk);
            let pids: Vec<usize> = (0..JOIN_PARTITIONS).collect();
            run_morsels(
                degree,
                &pids,
                || (),
                |(), pid| {
                    let expected: usize = scattered.iter().map(|m| m[pid].len()).sum();
                    let mut mm = ChainedMultiMap::with_capacity(expected.max(1));
                    for morsel_parts in &scattered {
                        for &(key, row) in &morsel_parts[pid] {
                            mm.insert(key, row);
                        }
                    }
                    mm
                },
            )
        } else {
            // Build side too small to split: one whole-side table, shared
            // read-only by the parallel probe.
            let mut mm = ChainedMultiMap::with_capacity(rchunk.len().max(1));
            for p in rchunk.physical_rows() {
                mm.insert(pack_keys(rk, p), p as u32);
            }
            vec![mm]
        };
        let probe_one = |lp: usize, pairs: &mut Vec<(u32, u32)>| {
            let key = pack_keys(lk, lp);
            let mm = if tables.len() == 1 { &tables[0] } else { &tables[join_partition(key)] };
            let mut matched = false;
            let mut emit_break = false;
            mm.for_each_match(key, |rp| {
                if emit_break {
                    return;
                }
                if res.as_ref().is_none_or(|f| f(lp, rp as usize)) {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => pairs.push((lp as u32, rp)),
                        JoinKind::Semi | JoinKind::Anti => emit_break = true,
                    }
                }
            });
            finish_left_row(lp, matched, kind, pairs);
        };
        probe_pairs(lchunk, probe_parallel, degree, &probe_one)
    }

    /// Generic (SipHash, per-entry allocation) hash join — the unlowered
    /// analog of [`Exec::join_pairs_lowered`], also serving serial and
    /// parallel alike; per-partition `HashMap`s fill their per-key candidate
    /// vectors in global row order (the same order the serial build
    /// produces).
    #[allow(clippy::too_many_arguments)]
    fn join_pairs_generic_hash(
        &self,
        lchunk: &Chunk,
        rchunk: &Chunk,
        lk: &[I64K],
        rk: &[I64K],
        kind: JoinKind,
        res: &Option<PairK>,
        build_parallel: bool,
        probe_parallel: bool,
    ) -> Vec<(u32, u32)> {
        let degree = self.settings.parallelism;
        let tables: Vec<HashMap<u64, Vec<u32>>> = if build_parallel {
            let scattered = self.scatter_build_side(rchunk, rk);
            let pids: Vec<usize> = (0..JOIN_PARTITIONS).collect();
            run_morsels(
                degree,
                &pids,
                || (),
                |(), pid| {
                    let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
                    for morsel_parts in &scattered {
                        for &(key, row) in &morsel_parts[pid] {
                            metrics::hash_probe();
                            metrics::allocation();
                            table.entry(key).or_default().push(row);
                        }
                    }
                    table
                },
            )
        } else {
            let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
            for p in rchunk.physical_rows() {
                metrics::hash_probe();
                metrics::allocation();
                table.entry(pack_keys(rk, p)).or_default().push(p as u32);
            }
            vec![table]
        };
        let probe_one = |lp: usize, pairs: &mut Vec<(u32, u32)>| {
            metrics::hash_probe();
            let key = pack_keys(lk, lp);
            let table = if tables.len() == 1 { &tables[0] } else { &tables[join_partition(key)] };
            let mut matched = false;
            if let Some(cands) = table.get(&key) {
                metrics::chain_steps(cands.len() as u64);
                for &rp in cands {
                    if res.as_ref().is_none_or(|f| f(lp, rp as usize)) {
                        matched = true;
                        match kind {
                            JoinKind::Inner | JoinKind::LeftOuter => pairs.push((lp as u32, rp)),
                            JoinKind::Semi | JoinKind::Anti => break,
                        }
                    }
                }
            }
            finish_left_row(lp, matched, kind, pairs);
        };
        probe_pairs(lchunk, probe_parallel, degree, &probe_one)
    }

    fn join_pairs_partitioned(
        &self,
        lchunk: &Chunk,
        rchunk: &Chunk,
        lk: &[I64K],
        part_key: &(String, usize),
        kind: JoinKind,
        res: &Option<PairK>,
    ) -> Vec<(u32, u32)> {
        // The partition indexes *all* physical rows of the base table; the
        // chunk may carry a selection, so build a validity bitmap once.
        let valid: Option<Vec<bool>> = rchunk.sel.as_ref().map(|sel| {
            let mut v = vec![false; rchunk.total];
            for &p in sel.iter() {
                v[p as usize] = true;
            }
            v
        });
        let fk = self.db.fk_partitions.get(part_key);
        let pk = self.db.pk_indexes.get(part_key);
        // The per-probe-row body is shared between the serial loop and the
        // morsel-parallel probe: the load-time partition is immutable, so
        // workers dereference it concurrently and the per-morsel matches
        // concatenate in morsel-index order — identical to the serial
        // emission order (DESIGN.md §3).
        let probe_one = |lp: usize, pairs: &mut Vec<(u32, u32)>| {
            let key = lk[0](lp);
            let mut matched = false;
            let check = |rp: u32| {
                if valid.as_ref().is_some_and(|v| !v[rp as usize]) {
                    return false;
                }
                res.as_ref().is_none_or(|f| f(lp, rp as usize))
            };
            match (fk, pk) {
                (Some(fkp), _) => {
                    for &rp in fkp.bucket(key) {
                        if check(rp) {
                            matched = true;
                            match kind {
                                JoinKind::Inner | JoinKind::LeftOuter => {
                                    pairs.push((lp as u32, rp))
                                }
                                JoinKind::Semi | JoinKind::Anti => break,
                            }
                        }
                    }
                }
                (None, Some(pki)) => {
                    metrics::hash_probe();
                    if let Some(rp) = pki.lookup(key) {
                        if check(rp) {
                            matched = true;
                            if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                                pairs.push((lp as u32, rp));
                            }
                        }
                    }
                }
                (None, None) => unreachable!("partition presence checked by caller"),
            }
            finish_left_row(lp, matched, kind, pairs);
        };
        probe_pairs(lchunk, self.par_join(lchunk.len()), self.settings.parallelism, &probe_one)
    }

    /// Generic (Value-keyed) join for non-codeable keys. The build stays
    /// serial (generic keys never dominate a TPC-H plan); the probe runs
    /// morsel-parallel over the shared read-only table when the compiled
    /// degree and the probe-side size allow.
    fn join_pairs_generic(
        &self,
        lchunk: &Chunk,
        rchunk: &Chunk,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
        res: &Option<PairK>,
    ) -> Vec<(u32, u32)> {
        let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for p in rchunk.physical_rows() {
            let key: Vec<Value> = right_keys.iter().map(|&c| rchunk.value_at(c, p)).collect();
            metrics::hash_probe();
            table.entry(key).or_default().push(p as u32);
        }
        let probe_one = |lp: usize, pairs: &mut Vec<(u32, u32)>| {
            let key: Vec<Value> = left_keys.iter().map(|&c| lchunk.value_at(c, lp)).collect();
            metrics::hash_probe();
            let mut matched = false;
            if let Some(cands) = table.get(&key) {
                for &rp in cands {
                    if res.as_ref().is_none_or(|f| f(lp, rp as usize)) {
                        matched = true;
                        match kind {
                            JoinKind::Inner | JoinKind::LeftOuter => pairs.push((lp as u32, rp)),
                            JoinKind::Semi | JoinKind::Anti => break,
                        }
                    }
                }
            }
            finish_left_row(lp, matched, kind, pairs);
        };
        probe_pairs(lchunk, self.par_join(lchunk.len()), self.settings.parallelism, &probe_one)
    }

    fn gather_join_output(
        &self,
        lchunk: &Chunk,
        rchunk: &Chunk,
        pairs: Vec<(u32, u32)>,
        kind: JoinKind,
        need: &Need,
    ) -> Chunk {
        match kind {
            JoinKind::Semi | JoinKind::Anti => {
                // Output is a selection of the left chunk — zero copy.
                let sel: Vec<u32> = pairs.into_iter().map(|(lp, _)| lp).collect();
                let mut out = lchunk.clone();
                out.sel = Some(Arc::new(sel));
                out
            }
            JoinKind::Inner | JoinKind::LeftOuter => {
                let l_arity = lchunk.cols.len();
                let schema = lchunk.schema.concat(&rchunk.schema);
                let lrows: Vec<u32> = pairs.iter().map(|&(lp, _)| lp).collect();
                let rrows: Vec<u32> = pairs.iter().map(|&(_, rp)| rp).collect();
                let mut cols = Vec::with_capacity(schema.len());
                let mut nulls = Vec::with_capacity(schema.len());
                for c in 0..l_arity {
                    if need.as_ref().is_some_and(|n| !n.contains(&c)) {
                        cols.push(Column::Absent);
                        nulls.push(None);
                        continue;
                    }
                    let (col, mask) = gather_column(lchunk, c, &lrows);
                    cols.push(col);
                    nulls.push(mask);
                }
                for c in 0..rchunk.cols.len() {
                    if need.as_ref().is_some_and(|n| !n.contains(&(l_arity + c))) {
                        cols.push(Column::Absent);
                        nulls.push(None);
                        continue;
                    }
                    let (col, mask) = gather_column_nullable(rchunk, c, &rrows);
                    cols.push(col);
                    nulls.push(mask);
                }
                Chunk { schema, cols, nulls, sel: None, total: pairs.len(), base: None }
            }
        }
    }

    // ---- aggregation ----

    fn aggregate(&self, input: &Plan, group_by: &[usize], aggs: &[AggSpec]) -> Chunk {
        self.aggregate_impl(input, group_by, aggs).0
    }

    /// Aggregation core. Also returns the group resolver (key → slot) when
    /// the grouping is by a single coded key, so a parent join can reuse it
    /// as its hash table (Fig. 9 fusion).
    fn aggregate_impl(
        &self,
        input: &Plan,
        group_by: &[usize],
        aggs: &[AggSpec],
    ) -> (Chunk, Option<GroupResolver>) {
        let mut child_need: BTreeSet<usize> = group_by.iter().copied().collect();
        for a in aggs {
            let mut cols = Vec::new();
            a.expr.collect_cols(&mut cols);
            child_need.extend(cols);
        }
        let chunk = self.run(input, &Some(child_need));
        let (resolver, reprs, agg_cols) = aggregate_chunk(self.settings, &chunk, group_by, aggs);

        // Emit output: group columns gathered from representative rows, then
        // aggregate columns from the stores.
        let schema = Plan::Agg {
            input: Box::new(input.clone()),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
        }
        .schema(&|t: &str| self.schema_of(t));
        let (mut cols, mut nulls): (Vec<_>, Vec<_>) =
            group_by.iter().map(|&g| gather_column(&chunk, g, &reprs)).unzip();
        for (col, mask) in agg_cols {
            cols.push(col);
            nulls.push(mask);
        }
        let group_index = Some(resolver).filter(|r| group_by.len() == 1 && r.has_coded_keys());
        (Chunk { schema, cols, nulls, sel: None, total: reprs.len(), base: None }, group_index)
    }
}

/// Picks the aggregate store for this grouping (the compiled choice the
/// serial fold, every morsel partial and the merge all share): a single
/// slot without `GROUP BY`; for coded keys a direct array over small dense
/// domains (code motion, Section 3.5.2), else the lowered chained-array map
/// (Fig. 11), else a generic hash map; generic `Vec<Value>` keys for plain
/// strings, nullable keys and interpreted mode.
fn group_resolver(settings: &Settings, group_by: &[usize], chunk: &Chunk) -> GroupResolver {
    if group_by.is_empty() {
        return GroupResolver::Singleton;
    }
    let n = chunk.len();
    // Interpreted mode (Opt/Scala) always takes the generic-key path.
    match settings.compiled_exprs.then(|| KeyPacker::fit(group_by, chunk)).flatten() {
        Some(keys) => {
            let direct = settings.code_motion
                && keys.domain <= DIRECT_ARRAY_MAX
                && keys.domain <= (8 * n.max(128)) as i64;
            if direct {
                GroupResolver::Direct { slots: vec![-1; keys.domain as usize], keys }
            } else if settings.hashmap_lowering {
                GroupResolver::Lowered { keys, map: ChainedArrayMap::with_capacity(n.max(16)) }
            } else {
                GroupResolver::Hash { keys, map: HashMap::new() }
            }
        }
        None => GroupResolver::Generic { cols: group_by.to_vec(), map: HashMap::new() },
    }
}

/// Aggregates a chunk block-at-a-time (`kernel::AggFold`): returns the
/// resolver, each group's first-occurrence row and the aggregate output
/// columns. Serial execution folds the blocks in order into one running
/// state. Above the parallel threshold every fixed-size morsel folds into
/// its own partial, and the partials merge on the caller in morsel-index
/// order, which reproduces the serial slot numbering and fixes every
/// floating-point reassociation point at a morsel boundary — results are
/// bit-identical across degrees ≥ 2 (DESIGN.md §3). Both paths run the same
/// `fold_block`.
pub(crate) fn aggregate_chunk(
    settings: &Settings,
    chunk: &Chunk,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> (GroupResolver, Vec<u32>, Vec<MaskedColumn>) {
    let n = chunk.len();
    let fold = AggFold::compile(aggs, chunk, settings.compiled_exprs);
    let mut resolver = group_resolver(settings, group_by, chunk);
    let mut groups = fold.groups();
    let mut scratch = fold.scratch();
    if go_parallel(settings.parallelism, n) {
        let partials = run_morsels(
            settings.parallelism,
            &row_morsels(n),
            || (resolver.fresh(MORSEL_ROWS), fold.groups(), fold.scratch()),
            |(resolver, groups, scratch), m| {
                chunk.for_each_block(m.range(), |rows| {
                    fold.fold_block(chunk, &rows, resolver, groups, scratch)
                });
                fold.take_partial(resolver, groups, scratch)
            },
        );
        for part in &partials {
            fold.merge(chunk, &mut resolver, &mut groups, part, &mut scratch);
        }
    } else if n == 0 && group_by.is_empty() {
        fold.add_empty_group(&mut groups);
    } else {
        chunk.for_each_block(0..n, |rows| {
            fold.fold_block(chunk, &rows, &mut resolver, &mut groups, &mut scratch)
        });
    }
    let reprs = std::mem::take(&mut groups.reprs);
    (resolver, reprs, fold.finish(groups))
}

/// Compares two gathered sort-key tuples under the per-key directions.
fn cmp_key_rows(a: &[Value], b: &[Value], keys: &[(usize, SortOrder)]) -> std::cmp::Ordering {
    for (k, (_, dir)) in keys.iter().enumerate() {
        let ord = a[k].cmp(&b[k]);
        let ord = match dir {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Drives a join probe over the probe side, serially or morsel-parallel.
///
/// `probe_one` appends the matches of one probe row; it is shared read-only
/// across workers. Per-morsel outputs concatenate in morsel-index order, so
/// the parallel probe emits exactly the pair sequence of the serial loop —
/// the deterministic-assembly step shared by every parallel join path.
fn probe_pairs(
    lchunk: &Chunk,
    parallel: bool,
    degree: usize,
    probe_one: &(impl Fn(usize, &mut Vec<(u32, u32)>) + Sync),
) -> Vec<(u32, u32)> {
    if parallel {
        run_morsels(
            degree,
            &row_morsels(lchunk.len()),
            || (),
            |(), m| {
                let mut pairs = Vec::new();
                for i in m.range() {
                    probe_one(lchunk.phys(i), &mut pairs);
                }
                pairs
            },
        )
        .concat()
    } else {
        let mut pairs = Vec::new();
        for lp in lchunk.physical_rows() {
            probe_one(lp, &mut pairs);
        }
        pairs
    }
}

/// Emits the left-preserving row for outer/anti joins after probing.
#[inline]
fn finish_left_row(lp: usize, matched: bool, kind: JoinKind, pairs: &mut Vec<(u32, u32)>) {
    match kind {
        JoinKind::LeftOuter if !matched => pairs.push((lp as u32, u32::MAX)),
        JoinKind::Anti if !matched => pairs.push((lp as u32, u32::MAX)),
        JoinKind::Semi if matched => pairs.push((lp as u32, u32::MAX)),
        _ => {}
    }
}

/// Gathers `chunk.cols[c]` at the given physical rows into an owned column.
fn gather_column(chunk: &Chunk, c: usize, rows: &[u32]) -> (Column, Option<Arc<Vec<bool>>>) {
    let mask = chunk.nulls[c]
        .as_ref()
        .map(|m| Arc::new(rows.iter().map(|&p| m[p as usize]).collect::<Vec<bool>>()));
    let col = match &chunk.cols[c] {
        Column::I64(v) => Column::I64(Arc::new(rows.iter().map(|&p| v[p as usize]).collect())),
        Column::F64(v) => Column::F64(Arc::new(rows.iter().map(|&p| v[p as usize]).collect())),
        Column::Date(v) => Column::Date(Arc::new(rows.iter().map(|&p| v[p as usize]).collect())),
        Column::Bool(v) => Column::Bool(Arc::new(rows.iter().map(|&p| v[p as usize]).collect())),
        Column::Str(v) => {
            Column::Str(Arc::new(rows.iter().map(|&p| v[p as usize].clone()).collect()))
        }
        Column::Dict(codes, dict) => {
            Column::Dict(Arc::new(rows.iter().map(|&p| codes[p as usize]).collect()), dict.clone())
        }
        // Encoded at rest, plain intermediates: gathers out of a packed base
        // column decode the touched rows into an uncompressed column.
        Column::I64Packed(p) => {
            Column::I64(Arc::new(rows.iter().map(|&r| p.get(r as usize)).collect()))
        }
        Column::DatePacked(p) => {
            Column::Date(Arc::new(rows.iter().map(|&r| p.get(r as usize) as i32).collect()))
        }
        Column::DictPacked(p, dict) => Column::Dict(
            Arc::new(rows.iter().map(|&r| p.get(r as usize) as u32).collect()),
            dict.clone(),
        ),
        Column::Absent => Column::Absent,
    };
    (col, mask)
}

/// Like [`gather_column`] but `u32::MAX` rows become NULL (outer joins).
fn gather_column_nullable(
    chunk: &Chunk,
    c: usize,
    rows: &[u32],
) -> (Column, Option<Arc<Vec<bool>>>) {
    let has_null = rows.contains(&u32::MAX);
    if !has_null {
        return gather_column(chunk, c, rows);
    }
    let base_mask = chunk.nulls[c].as_deref();
    let mask: Vec<bool> =
        rows.iter().map(|&p| p == u32::MAX || base_mask.is_some_and(|m| m[p as usize])).collect();
    let col = match &chunk.cols[c] {
        Column::I64(v) => Column::I64(Arc::new(
            rows.iter().map(|&p| if p == u32::MAX { 0 } else { v[p as usize] }).collect(),
        )),
        Column::F64(v) => Column::F64(Arc::new(
            rows.iter().map(|&p| if p == u32::MAX { 0.0 } else { v[p as usize] }).collect(),
        )),
        Column::Date(v) => Column::Date(Arc::new(
            rows.iter().map(|&p| if p == u32::MAX { 0 } else { v[p as usize] }).collect(),
        )),
        Column::Bool(v) => {
            Column::Bool(Arc::new(rows.iter().map(|&p| p != u32::MAX && v[p as usize]).collect()))
        }
        Column::Str(v) => Column::Str(Arc::new(
            rows.iter()
                .map(|&p| if p == u32::MAX { String::new() } else { v[p as usize].clone() })
                .collect(),
        )),
        Column::Dict(codes, dict) => Column::Dict(
            Arc::new(
                rows.iter().map(|&p| if p == u32::MAX { 0 } else { codes[p as usize] }).collect(),
            ),
            dict.clone(),
        ),
        Column::I64Packed(pk) => Column::I64(Arc::new(
            rows.iter().map(|&p| if p == u32::MAX { 0 } else { pk.get(p as usize) }).collect(),
        )),
        Column::DatePacked(pk) => Column::Date(Arc::new(
            rows.iter()
                .map(|&p| if p == u32::MAX { 0 } else { pk.get(p as usize) as i32 })
                .collect(),
        )),
        Column::DictPacked(pk, dict) => Column::Dict(
            Arc::new(
                rows.iter()
                    .map(|&p| if p == u32::MAX { 0 } else { pk.get(p as usize) as u32 })
                    .collect(),
            ),
            dict.clone(),
        ),
        Column::Absent => Column::Absent,
    };
    (col, Some(Arc::new(mask)))
}

fn sel_vec(chunk: &Chunk) -> Vec<u32> {
    match &chunk.sel {
        Some(s) => s.as_ref().clone(),
        None => (0..chunk.total as u32).collect(),
    }
}

fn pack_keys(kks: &[I64K], p: usize) -> u64 {
    if kks.len() == 1 {
        kks[0](p) as u64
    } else {
        // Multi-key joins pack 32-bit halves (TPC-H keys are positive and
        // well below 2^32 at benchmark scales).
        let mut key = 0u64;
        for kk in kks {
            key = (key << 32) | (kk(p) as u64 & 0xFFFF_FFFF);
        }
        key
    }
}

fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::And(a, b) = e {
            rec(a, out);
            rec(b, out);
        } else {
            out.push(e);
        }
    }
    rec(e, &mut out);
    out
}

/// Extracts `[lo, hi]` bounds on `col` from comparison conjuncts; returns
/// the bounds plus the indices of conjuncts fully captured by them.
fn date_bounds(conjuncts: &[&Expr], col: usize) -> (Option<Date>, Option<Date>, BTreeSet<usize>) {
    let mut lo: Option<Date> = None;
    let mut hi: Option<Date> = None;
    let mut covered = BTreeSet::new();
    for (i, e) in conjuncts.iter().enumerate() {
        let Expr::Cmp(op, a, b) = e else { continue };
        let (c, d, op) = match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(Value::Date(d))) => (*c, *d, *op),
            (Expr::Lit(Value::Date(d)), Expr::Col(c)) => (*c, *d, flip(*op)),
            _ => continue,
        };
        if c != col {
            continue;
        }
        match op {
            CmpOp::Ge => {
                lo = Some(lo.map_or(d, |x| x.max(d)));
                covered.insert(i);
            }
            CmpOp::Gt => {
                let d = d.add_days(1);
                lo = Some(lo.map_or(d, |x| x.max(d)));
                covered.insert(i);
            }
            CmpOp::Le => {
                hi = Some(hi.map_or(d, |x| x.min(d)));
                covered.insert(i);
            }
            CmpOp::Lt => {
                let d = d.add_days(-1);
                hi = Some(hi.map_or(d, |x| x.min(d)));
                covered.insert(i);
            }
            CmpOp::Eq => {
                lo = Some(lo.map_or(d, |x| x.max(d)));
                hi = Some(hi.map_or(d, |x| x.min(d)));
                covered.insert(i);
            }
            CmpOp::Ne => {}
        }
    }
    (lo, hi, covered)
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn child_need_select(need: &Need, predicate: &Expr) -> Need {
    let mut n = need.clone()?;
    let mut cols = Vec::new();
    predicate.collect_cols(&mut cols);
    n.extend(cols);
    Some(n)
}

#[allow(clippy::too_many_arguments)]
fn split_join_need(
    need: &Need,
    l_arity: usize,
    r_arity: usize,
    left_keys: &[usize],
    right_keys: &[usize],
    residual: Option<&Expr>,
    kind: JoinKind,
) -> (Need, Need) {
    let mut ln: BTreeSet<usize> = left_keys.iter().copied().collect();
    let mut rn: BTreeSet<usize> = right_keys.iter().copied().collect();
    let all: BTreeSet<usize> = match kind {
        JoinKind::Inner | JoinKind::LeftOuter => (0..l_arity + r_arity).collect(),
        JoinKind::Semi | JoinKind::Anti => (0..l_arity).collect(),
    };
    for &c in need.as_ref().unwrap_or(&all) {
        if c < l_arity {
            ln.insert(c);
        } else {
            rn.insert(c - l_arity);
        }
    }
    if let Some(r) = residual {
        let mut cols = Vec::new();
        r.collect_cols(&mut cols);
        for c in cols {
            if c < l_arity {
                ln.insert(c);
            } else {
                rn.insert(c - l_arity);
            }
        }
    }
    // Semi/anti output the left chunk by selection: its full column set
    // remains reachable by ancestors, so keep the incoming need only.
    (Some(ln), Some(rn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggKind;
    use crate::settings::Config;
    use crate::spec::Specialization;
    use crate::volcano;
    use crate::GenericDb;
    use legobase_storage::DictKind;
    use legobase_tpch::TpchData;

    fn setup() -> (TpchData, Specialization) {
        let data = TpchData::generate(0.002);
        let mut spec = Specialization::default();
        spec.add_fk_partition("orders", 1); // o_custkey
        spec.add_fk_partition("lineitem", 0); // l_orderkey
        spec.add_pk_index("orders", 0);
        spec.add_pk_index("customer", 0);
        spec.add_date_index("lineitem", 10); // l_shipdate
        spec.add_dictionary("lineitem", 14, DictKind::Normal); // l_shipmode
        spec.add_dictionary("lineitem", 8, DictKind::Normal); // l_returnflag
        spec.add_dictionary("lineitem", 9, DictKind::Normal); // l_linestatus
        spec.add_dictionary("customer", 6, DictKind::Normal); // c_mktsegment
        (data, spec)
    }

    fn check_all_configs(q: &QueryPlan, data: &TpchData, spec: &Specialization) {
        let base = GenericDb::load(
            data,
            &crate::BaseStore::new(),
            &spec.clone().scanning_all_tables(),
            &Config::Dbx.settings(),
        );
        let reference = volcano::execute(q, &base);
        for cfg in [Config::HyPerLike, Config::StrDictC, Config::OptC, Config::OptScala] {
            let settings = cfg.settings();
            let db = crate::SpecializedDb::load(data, &crate::BaseStore::new(), spec, &settings);
            let got = execute(q, &db, &settings);
            assert!(
                got.approx_eq(&reference, 1e-6),
                "{cfg:?} mismatch on {}: {:?}",
                q.name,
                got.diff(&reference, 1e-6)
            );
        }
    }

    /// The morsel-parallel paths (filter, date-index scan, singleton and
    /// grouped pre-aggregation, generic keys) must agree with serial
    /// execution, and results must be *bit-identical across degrees ≥ 2*
    /// (fixed morsel boundaries + ordered merges — the determinism
    /// contract of DESIGN.md §3).
    #[test]
    fn parallel_execution_matches_serial() {
        let (data, mut spec) = setup();
        let li = data.catalog.table("lineitem").schema.clone();
        spec.used_columns.insert(
            "lineitem".into(),
            vec![
                li.col("l_shipdate"),
                li.col("l_discount"),
                li.col("l_quantity"),
                li.col("l_extendedprice"),
                li.col("l_returnflag"),
                li.col("l_linestatus"),
            ],
        );
        let select = Plan::Select {
            input: Box::new(Plan::scan("lineitem")),
            predicate: Expr::all(vec![
                Expr::ge(Expr::col(li.col("l_shipdate")), Expr::lit(Date::from_ymd(1993, 1, 1))),
                Expr::lt(Expr::col(li.col("l_shipdate")), Expr::lit(Date::from_ymd(1997, 1, 1))),
                Expr::lt(Expr::col(li.col("l_discount")), Expr::lit(0.09)),
            ]),
        };
        let singleton = QueryPlan::new(
            "par_singleton",
            Plan::Agg {
                input: Box::new(select.clone()),
                group_by: vec![],
                aggs: vec![
                    AggSpec::new(
                        AggKind::Sum,
                        Expr::mul(
                            Expr::col(li.col("l_extendedprice")),
                            Expr::col(li.col("l_discount")),
                        ),
                        "revenue",
                    ),
                    AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                ],
            },
        );
        let grouped = QueryPlan::new(
            "par_grouped",
            Plan::Sort {
                input: Box::new(Plan::Agg {
                    input: Box::new(select),
                    group_by: vec![li.col("l_returnflag"), li.col("l_linestatus")],
                    aggs: vec![
                        AggSpec::new(AggKind::Sum, Expr::col(li.col("l_quantity")), "sum_qty"),
                        AggSpec::new(
                            AggKind::Avg,
                            Expr::col(li.col("l_extendedprice")),
                            "avg_price",
                        ),
                        AggSpec::new(AggKind::Min, Expr::col(li.col("l_quantity")), "min_qty"),
                        AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                    ],
                }),
                keys: vec![(0, SortOrder::Asc), (1, SortOrder::Asc)],
            },
        );
        // OptC exercises the compiled/date-index/direct-array paths,
        // OptScala the interpreted generic-key path.
        for base in [Config::OptC, Config::OptScala] {
            for q in [&singleton, &grouped] {
                let serial_settings = base.settings();
                let db = crate::SpecializedDb::load(
                    &data,
                    &crate::BaseStore::new(),
                    &spec,
                    &serial_settings,
                );
                let serial = execute(q, &db, &serial_settings);
                let mut by_degree = Vec::new();
                for degree in [2usize, 4, 8] {
                    let settings = base.settings().with_parallelism(degree);
                    let got = execute(q, &db, &settings);
                    assert!(
                        got.approx_eq(&serial, 1e-9),
                        "{base:?} degree {degree} diverges on {}: {:?}",
                        q.name,
                        got.diff(&serial, 1e-9)
                    );
                    by_degree.push(got);
                }
                for other in &by_degree[1..] {
                    assert_eq!(
                        by_degree[0].sorted_rows(),
                        other.sorted_rows(),
                        "{base:?}: results must be bit-identical across degrees on {}",
                        q.name
                    );
                }
            }
        }
    }

    /// Joins and sorts carry no floating-point reassociation, so their
    /// parallel paths must reproduce the serial result **exactly** — same
    /// rows, same order — at every degree. Exercises the three join shapes
    /// (partitioned probe over a PK index, radix-partitioned lowered build,
    /// generic SipHash build) and the morsel-parallel sort + merge, at a
    /// scale where lineitem (~12k rows at SF 0.002) crosses the one-morsel
    /// parallelism threshold.
    #[test]
    fn parallel_joins_and_sorts_bit_identical_to_serial() {
        let (data, mut spec) = setup();
        let li = data.catalog.table("lineitem").schema.clone();
        spec.used_columns.insert(
            "lineitem".into(),
            vec![0, 1, li.col("l_quantity"), li.col("l_extendedprice"), li.col("l_shipdate")],
        );
        spec.used_columns.insert("orders".into(), vec![0, 4, 5]);
        spec.used_columns.insert("part".into(), vec![0, 3]);
        // (a) Partitioned probe: lineitem (large probe side) against the
        //     orders PK index, then a parallel ORDER BY with duplicate-heavy
        //     keys so merge tie-breaking is exercised, then LIMIT.
        let partitioned = QueryPlan::new(
            "par_join_pk",
            Plan::Limit {
                input: Box::new(Plan::Sort {
                    input: Box::new(Plan::HashJoin {
                        left: Box::new(Plan::scan("lineitem")),
                        right: Box::new(Plan::scan("orders")),
                        left_keys: vec![0],
                        right_keys: vec![0],
                        kind: JoinKind::Inner,
                        residual: None,
                    }),
                    keys: vec![
                        (li.col("l_shipdate"), SortOrder::Desc),
                        (li.col("l_quantity"), SortOrder::Asc),
                    ],
                }),
                n: 500,
            },
        );
        // (b) Hash build over the large side: part probes lineitem on
        //     l_partkey, which has no load-time partition, so the build side
        //     (~12k rows) takes the radix-partitioned parallel build.
        let p_arity = data.catalog.table("part").schema.len();
        let hash_build = QueryPlan::new(
            "par_join_hash",
            Plan::Sort {
                input: Box::new(Plan::HashJoin {
                    left: Box::new(Plan::scan("part")),
                    right: Box::new(Plan::scan("lineitem")),
                    left_keys: vec![0],
                    right_keys: vec![1],
                    kind: JoinKind::Inner,
                    residual: None,
                }),
                keys: vec![(0, SortOrder::Asc), (p_arity + li.col("l_quantity"), SortOrder::Desc)],
            },
        );
        for q in [&partitioned, &hash_build] {
            // Lowered chained sub-tables (OptC) and the generic SipHash maps
            // (hashmap_lowering off) must both stay exact.
            for lowered in [true, false] {
                let base = Config::OptC.settings().with(|s| s.hashmap_lowering = lowered);
                let db = crate::SpecializedDb::load(&data, &crate::BaseStore::new(), &spec, &base);
                let serial = execute(q, &db, &base);
                assert!(!serial.is_empty(), "{}: empty serial result", q.name);
                for degree in [2usize, 4, 8] {
                    let got = execute(q, &db, &base.with_parallelism(degree));
                    assert_eq!(
                        got.rows(),
                        serial.rows(),
                        "{} (lowered={lowered}) degree {degree}: parallel join/sort must \
                         reproduce the serial rows exactly, in order",
                        q.name
                    );
                }
            }
        }
    }

    /// Semi/anti/outer join semantics survive the parallel probe: the
    /// preserved-row bookkeeping is per probe row, so morsel concatenation
    /// must leave it untouched.
    #[test]
    fn parallel_outer_semantics_match_serial() {
        let (data, mut spec) = setup();
        spec.used_columns.insert("lineitem".into(), vec![0, 4]);
        spec.used_columns.insert("orders".into(), vec![0, 3]);
        for kind in [JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter] {
            let q = QueryPlan::new(
                &format!("par_{kind:?}"),
                Plan::HashJoin {
                    // lineitem probe side (large); orders filtered so many
                    // probe rows miss.
                    left: Box::new(Plan::scan("lineitem")),
                    right: Box::new(Plan::Select {
                        input: Box::new(Plan::scan("orders")),
                        predicate: Expr::gt(Expr::col(3), Expr::lit(150_000.0)),
                    }),
                    left_keys: vec![0],
                    right_keys: vec![0],
                    kind,
                    residual: None,
                },
            );
            let settings = Config::OptC.settings();
            let db = crate::SpecializedDb::load(&data, &crate::BaseStore::new(), &spec, &settings);
            let serial = execute(&q, &db, &settings);
            for degree in [2usize, 4] {
                let got = execute(&q, &db, &settings.with_parallelism(degree));
                assert_eq!(got.rows(), serial.rows(), "{kind:?} degree {degree}");
            }
        }
    }

    /// The compiled clearances gate the new paths: with `parallel_joins` /
    /// `parallel_sorts` off, a degree-4 request must leave joins and sorts
    /// on their serial code paths (still correct, still identical).
    #[test]
    fn join_sort_clearances_are_obeyed() {
        let (data, mut spec) = setup();
        spec.used_columns.insert("lineitem".into(), vec![0, 4, 10]);
        spec.used_columns.insert("orders".into(), vec![0]);
        let q = QueryPlan::new(
            "gated",
            Plan::Sort {
                input: Box::new(Plan::HashJoin {
                    left: Box::new(Plan::scan("lineitem")),
                    right: Box::new(Plan::scan("orders")),
                    left_keys: vec![0],
                    right_keys: vec![0],
                    kind: JoinKind::Inner,
                    residual: None,
                }),
                keys: vec![(10, SortOrder::Asc)],
            },
        );
        let serial_settings = Config::OptC.settings();
        let db =
            crate::SpecializedDb::load(&data, &crate::BaseStore::new(), &spec, &serial_settings);
        let serial = execute(&q, &db, &serial_settings);
        let gated = serial_settings.with_parallelism(4).with(|s| {
            s.parallel_joins = false;
            s.parallel_sorts = false;
        });
        let got = execute(&q, &db, &gated);
        assert_eq!(got.rows(), serial.rows());
    }

    #[test]
    fn q6_like_global_aggregate() {
        let (data, spec) = setup();
        let li = data.catalog.table("lineitem").schema.clone();
        let pred = Expr::all(vec![
            Expr::ge(Expr::col(li.col("l_shipdate")), Expr::lit(Date::from_ymd(1994, 1, 1))),
            Expr::lt(Expr::col(li.col("l_shipdate")), Expr::lit(Date::from_ymd(1995, 1, 1))),
            Expr::ge(Expr::col(li.col("l_discount")), Expr::lit(0.05)),
            Expr::le(Expr::col(li.col("l_discount")), Expr::lit(0.07)),
            Expr::lt(Expr::col(li.col("l_quantity")), Expr::lit(24.0)),
        ]);
        let plan = Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("lineitem")),
                predicate: pred,
            }),
            group_by: vec![],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::mul(Expr::col(li.col("l_extendedprice")), Expr::col(li.col("l_discount"))),
                "revenue",
            )],
        };
        let mut spec = spec;
        spec.used_columns.insert(
            "lineitem".into(),
            vec![
                li.col("l_shipdate"),
                li.col("l_discount"),
                li.col("l_quantity"),
                li.col("l_extendedprice"),
            ],
        );
        check_all_configs(&QueryPlan::new("q6like", plan), &data, &spec);
    }

    #[test]
    fn q1_like_grouped_aggregate_on_dict_keys() {
        let (data, mut spec) = setup();
        let li = data.catalog.table("lineitem").schema.clone();
        let plan = Plan::Sort {
            input: Box::new(Plan::Agg {
                input: Box::new(Plan::Select {
                    input: Box::new(Plan::scan("lineitem")),
                    predicate: Expr::le(
                        Expr::col(li.col("l_shipdate")),
                        Expr::lit(Date::from_ymd(1998, 9, 2)),
                    ),
                }),
                group_by: vec![li.col("l_returnflag"), li.col("l_linestatus")],
                aggs: vec![
                    AggSpec::new(AggKind::Sum, Expr::col(li.col("l_quantity")), "sum_qty"),
                    AggSpec::new(AggKind::Avg, Expr::col(li.col("l_extendedprice")), "avg_price"),
                    AggSpec::new(AggKind::Count, Expr::lit(1i64), "count_order"),
                ],
            }),
            keys: vec![(0, SortOrder::Asc), (1, SortOrder::Asc)],
        };
        spec.used_columns.insert(
            "lineitem".into(),
            vec![
                li.col("l_shipdate"),
                li.col("l_returnflag"),
                li.col("l_linestatus"),
                li.col("l_quantity"),
                li.col("l_extendedprice"),
            ],
        );
        check_all_configs(&QueryPlan::new("q1like", plan), &data, &spec);
    }

    #[test]
    fn joins_and_outer_semantics() {
        let (data, mut spec) = setup();
        spec.used_columns.insert("customer".into(), vec![0, 3, 5, 6]);
        spec.used_columns.insert("orders".into(), vec![0, 1, 3]);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter] {
            let join = Plan::HashJoin {
                left: Box::new(Plan::Select {
                    input: Box::new(Plan::scan("customer")),
                    predicate: Expr::eq(Expr::col(6), Expr::lit("BUILDING")),
                }),
                right: Box::new(Plan::Select {
                    input: Box::new(Plan::scan("orders")),
                    predicate: Expr::gt(Expr::col(3), Expr::lit(1000.0)),
                }),
                left_keys: vec![0],
                right_keys: vec![1],
                kind,
                residual: None,
            };
            let (gcols, aggs) = match kind {
                JoinKind::Inner | JoinKind::LeftOuter => (
                    vec![3usize],
                    vec![
                        AggSpec::new(AggKind::Count, Expr::col(8), "order_count"),
                        AggSpec::new(AggKind::Sum, Expr::col(5), "bal"),
                    ],
                ),
                _ => (vec![3usize], vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")]),
            };
            let plan = Plan::Sort {
                input: Box::new(Plan::Agg { input: Box::new(join), group_by: gcols, aggs }),
                keys: vec![(0, SortOrder::Asc)],
            };
            check_all_configs(&QueryPlan::new(&format!("join_{kind:?}"), plan), &data, &spec);
        }
    }

    #[test]
    fn sum_avg_skip_nulls_from_outer_join() {
        // SUM/AVG must skip NULL inputs (SQL semantics): aggregate a
        // right-side column of a left outer join, where unmatched customers
        // contribute NULL o_totalprice. A coercing kernel would fold 0.0
        // into the sum and count the row in AVG's denominator; groups whose
        // customers all lack orders must yield NULL, not 0.
        let (data, mut spec) = setup();
        spec.used_columns.insert("customer".into(), vec![0, 3, 6]);
        spec.used_columns.insert("orders".into(), vec![0, 1, 3]);
        let join = Plan::HashJoin {
            left: Box::new(Plan::scan("customer")),
            right: Box::new(Plan::Select {
                input: Box::new(Plan::scan("orders")),
                // Selective filter so many customers have zero matches.
                predicate: Expr::gt(Expr::col(3), Expr::lit(300_000.0)),
            }),
            left_keys: vec![0],
            right_keys: vec![1],
            kind: JoinKind::LeftOuter,
            residual: None,
        };
        // customer occupies cols 0..8; orders follow, so o_totalprice = 8+3.
        let plan = Plan::Sort {
            input: Box::new(Plan::Agg {
                input: Box::new(join),
                group_by: vec![3], // c_nationkey
                aggs: vec![
                    AggSpec::new(AggKind::Sum, Expr::col(8 + 3), "sum_price"),
                    AggSpec::new(AggKind::Avg, Expr::col(8 + 3), "avg_price"),
                    AggSpec::new(AggKind::Count, Expr::col(8 + 3), "n_orders"),
                ],
            }),
            keys: vec![(0, SortOrder::Asc)],
        };
        check_all_configs(&QueryPlan::new("outer_null_aggs", plan), &data, &spec);
    }

    #[test]
    fn residual_and_multi_key_joins() {
        let (data, mut spec) = setup();
        spec.used_columns.insert("partsupp".into(), vec![0, 1, 2]);
        spec.used_columns.insert("lineitem".into(), vec![0, 1, 2, 4]);
        // Multi-key join: lineitem (l_partkey, l_suppkey) ⋈ partsupp.
        let join = Plan::HashJoin {
            left: Box::new(Plan::scan("lineitem")),
            right: Box::new(Plan::scan("partsupp")),
            left_keys: vec![1, 2],
            right_keys: vec![0, 1],
            kind: JoinKind::Inner,
            residual: Some(Expr::gt(Expr::col(16 + 2), Expr::lit(100i64))), // ps_availqty > 100
        };
        let plan = Plan::Agg {
            input: Box::new(join),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        };
        check_all_configs(&QueryPlan::new("multikey", plan), &data, &spec);
    }

    #[test]
    fn date_index_equals_full_scan() {
        let (data, mut spec) = setup();
        let li = data.catalog.table("lineitem").schema.clone();
        spec.used_columns.insert(
            "lineitem".into(),
            vec![li.col("l_shipdate"), li.col("l_quantity"), li.col("l_extendedprice")],
        );
        let pred = Expr::all(vec![
            Expr::ge(Expr::col(li.col("l_shipdate")), Expr::lit(Date::from_ymd(1995, 1, 1))),
            Expr::lt(Expr::col(li.col("l_shipdate")), Expr::lit(Date::from_ymd(1996, 1, 1))),
            Expr::lt(Expr::col(li.col("l_quantity")), Expr::lit(30.0)),
        ]);
        let plan = Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("lineitem")),
                predicate: pred,
            }),
            group_by: vec![],
            aggs: vec![
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                AggSpec::new(AggKind::Sum, Expr::col(li.col("l_extendedprice")), "s"),
            ],
        };
        check_all_configs(&QueryPlan::new("dateidx", plan), &data, &spec);
    }

    #[test]
    fn distinct_stages_and_projection() {
        let (data, mut spec) = setup();
        spec.used_columns.insert("orders".into(), vec![1, 5]);
        let stage = Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::scan("orders")),
                exprs: vec![
                    (Expr::col(1), "custkey".to_string()),
                    (Expr::col(5), "prio".to_string()),
                ],
            }),
        };
        let root = Plan::Sort {
            input: Box::new(Plan::Agg {
                input: Box::new(Plan::scan("#pairs")),
                group_by: vec![1],
                aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
            }),
            keys: vec![(0, SortOrder::Asc)],
        };
        let q = QueryPlan::new("staged", root).with_stage("pairs", stage);
        check_all_configs(&q, &data, &spec);
    }
}
