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
//! * **code_motion** — aggregation stores and join build sides over small
//!   dense key domains become pre-initialized direct arrays (Section 3.5.2)
//!   and output vectors are pre-sized from statistics (Section 3.5.1);
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
//!   k-way merge), both bit-identical to their serial paths. The degree is
//!   the request's (after the `LEGOBASE_PARALLELISM` override): every
//!   operator goes parallel on `go_parallel(degree, rows)` alone.
//!
//! Every operator walks its input a block of at most `kernel::BLOCK_ROWS`
//! rows at a time (DESIGN.md §3 "Block-at-a-time"): predicates, join keys,
//! group keys and aggregate inputs are evaluated by `kernel`'s block program
//! into typed scratch vectors; its one per-row node interprets nullable
//! inputs and, with `compiled_exprs` off, every expression.

use crate::expr::{CmpOp, Expr};
use crate::kernel::{
    self, AggFold, Bitset, BlockSel, Chunk, DirectMultiMap, GroupResolver, JoinKeys, KeyPacker,
    MaskedColumn, PairPred, Rows, SortKeys, BLOCK_ROWS,
};
use crate::parallel::{go_parallel, row_morsels, run_morsels};
use crate::plan::{
    aggregated_schema, projected_schema, AggSpec, JoinKind, Plan, QueryPlan, SortOrder,
};
use crate::result::ResultTable;
use crate::settings::Settings;
use crate::SpecializedDb;
use legobase_storage::dateindex::{DateYearIndex, RangeSegment};
use legobase_storage::morsel::{merge_sorted_runs, Morsel, MORSEL_ROWS};
use legobase_storage::partition::{
    join_partition, ForeignKeyPartition, PrimaryKeyIndex, JOIN_PARTITIONS,
};
use legobase_storage::specialized::{ChainedArrayMap, ChainedMultiMap};
use legobase_storage::{metrics, Column, Date, RowTable, Schema, Value};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

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
    fn schema_of(&self, table: &str) -> &Schema {
        match self.temps.get(table) {
            Some(c) => &c.schema,
            None => &self.db.table(table).schema,
        }
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
        if let Plan::Scan { table } = input {
            if let Some(chunk) = self.select_via_date_index(table, predicate) {
                return chunk;
            }
        }
        let mut chunk = self.run(input, &child_need_select(need, predicate));
        chunk.sel = Some(Arc::new(select_chunk(self.settings, &chunk, predicate)));
        chunk
    }

    /// The year index over base table `table`'s first indexed date column the
    /// `conjuncts` bound, the bounded range `[lo, hi]` and the conjuncts the
    /// range captures; `None` with date indices off, for a stage result or
    /// when no indexed column is bounded.
    fn date_range(
        &self,
        table: &str,
        conjuncts: &[&Expr],
    ) -> Option<(&DateYearIndex, Date, Date, BTreeSet<usize>)> {
        if !self.settings.date_indices || self.temps.contains_key(table) {
            return None;
        }
        for (col_idx, col) in self.db.table(table).columns.iter().enumerate() {
            if !matches!(col, Column::Date(_) | Column::DatePacked(_)) {
                continue;
            }
            let Some(index) = self.db.date_indexes.get(&(table.to_string(), col_idx)) else {
                continue;
            };
            let (lo, hi, covered) = date_bounds(conjuncts, col_idx);
            if lo.is_none() && hi.is_none() {
                continue;
            }
            let lo = lo.unwrap_or(Date(i32::MIN / 2));
            let hi = hi.unwrap_or(Date(i32::MAX / 2));
            return Some((index, lo, hi, covered));
        }
        None
    }

    /// Tries to answer a base-table selection through the year index.
    fn select_via_date_index(&self, table: &str, predicate: &Expr) -> Option<Chunk> {
        let conjuncts = kernel::conjuncts(predicate);
        let (index, lo, hi, covered) = self.date_range(table, &conjuncts)?;
        let chunk = self.scan(table);
        let (whole, residual) = self.index_filters(&chunk, predicate, &conjuncts, &covered);
        let sel = self.date_index_scan(index, lo, hi, [Some(&whole), residual.as_ref()]);
        let mut out = chunk;
        out.sel = Some(Arc::new(sel));
        Some(out)
    }

    /// The filters of a year-index scan of `predicate`: the boundary buckets
    /// run the entire predicate, whose captured conjuncts *are* the range
    /// test; buckets the range covers whole run only the conjuncts it does
    /// not capture (`None` when it captures them all).
    fn index_filters(
        &self,
        chunk: &Chunk,
        predicate: &Expr,
        conjuncts: &[&Expr],
        covered: &BTreeSet<usize>,
    ) -> (BlockSel, Option<BlockSel>) {
        let compiled = self.settings.compiled_exprs;
        let residual = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !covered.contains(i))
            .map(|(_, e)| (*e).clone())
            .reduce(Expr::and)
            .map(|r| BlockSel::compile(&r, chunk, compiled));
        (BlockSel::compile(predicate, chunk, compiled), residual)
    }

    /// The base-table scan under a selection whose date range the year index
    /// says keeps at least half of the table, with the predicate's keep-mask
    /// over every physical row: an aggregate above folds such a table where
    /// it lies rather than through the index's year buckets. The index
    /// builds the mask once per execution, for every degree: rows of the
    /// years the range covers whole are set without a test (or under the
    /// conjuncts it does not capture), only boundary-year rows run the whole
    /// predicate, and the other years stay unset — exactly the rows
    /// [`Exec::select_via_date_index`] selects.
    fn dense_date_range(&self, input: &Plan) -> Option<(Chunk, Vec<bool>)> {
        let Plan::Select { input, predicate } = input else { return None };
        let Plan::Scan { table } = input.as_ref() else { return None };
        let conjuncts = kernel::conjuncts(predicate);
        let (index, lo, hi, covered) = self.date_range(table, &conjuncts)?;
        if 2 * index.range_candidates(lo, hi) < self.db.table(table).len {
            return None;
        }
        let chunk = self.scan(table);
        let (whole, residual) = self.index_filters(&chunk, predicate, &conjuncts, &covered);
        let filters = [Some(&whole), residual.as_ref()];
        let mut regs = filters.map(|f| f.map(BlockSel::scratch));
        let (row_ids, mut keep) = (index.row_ids(), vec![false; chunk.total]);
        for seg in index.range_segments(lo, hi) {
            let ids = &row_ids[seg.start..seg.end];
            match (filters[seg.full as usize], &mut regs[seg.full as usize]) {
                (Some(filter), Some(regs)) => {
                    for block in ids.chunks(BLOCK_ROWS) {
                        let mask = filter.mask(&Rows::Ids(block), regs);
                        block.iter().zip(mask).for_each(|(&id, &k)| keep[id as usize] = k);
                    }
                }
                _ => ids.iter().for_each(|&id| keep[id as usize] = true),
            }
        }
        Some((chunk, keep))
    }

    /// Collects the rows a year index yields for `[lo, hi]`: the ids of
    /// every bucket segment, filtered a block at a time by `filters[full]`
    /// (none = all pass). Morsel-parallel, the buckets split into bounded
    /// sub-segments — a split that depends only on the index and the range,
    /// never on the degree; per-segment survivors concatenate in segment
    /// order either way, which is `DateYearIndex::scan_range`'s emission
    /// order (`segments_replay_scan_range_order` in the dateindex tests).
    fn date_index_scan(
        &self,
        index: &DateYearIndex,
        lo: Date,
        hi: Date,
        filters: [Option<&BlockSel>; 2],
    ) -> Vec<u32> {
        let mut work = index.range_segments(lo, hi);
        let candidates: usize = work.iter().map(|s| s.end - s.start).sum();
        if go_parallel(self.settings.parallelism, candidates) {
            let split = |s: &RangeSegment| {
                let (end, full) = (s.end, s.full);
                (s.start..end).step_by(MORSEL_ROWS).map(move |start| RangeSegment {
                    start,
                    end: (start + MORSEL_ROWS).min(end),
                    full,
                })
            };
            work = work.iter().flat_map(split).collect();
        }
        let row_ids = index.row_ids();
        let parts = run_morsels(
            self.settings.parallelism,
            &work,
            || filters.map(|f| f.map(BlockSel::scratch)),
            |regs, seg: RangeSegment| {
                let ids = &row_ids[seg.start..seg.end];
                let mut sel = Vec::new();
                match (filters[seg.full as usize], &mut regs[seg.full as usize]) {
                    (Some(filter), Some(regs)) => ids
                        .chunks(BLOCK_ROWS)
                        .for_each(|block| filter.select(&Rows::Ids(block), regs, &mut sel)),
                    _ => sel.extend_from_slice(ids),
                }
                sel
            },
        );
        concat_parts(parts)
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
        // Output names and types come from the input chunk's own schema.
        let schema = projected_schema(&chunk.schema, exprs);
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
                let (col, mask) = gather_column(&chunk, *c, &phys_ids(&chunk, 0..n));
                cols.push(col);
                nulls.push(mask);
                continue;
            }
            let (col, mask) = self.compute_column(e, &chunk);
            cols.push(col);
            nulls.push(mask);
        }
        Chunk { schema, cols, nulls, sel: None, total: n, base: None }
    }

    /// Materializes a computed expression as an owned column.
    fn compute_column(&self, e: &Expr, chunk: &Chunk) -> (Column, Option<Arc<Vec<bool>>>) {
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
            Type::Int if !nullable => {
                (Column::I64(Arc::new(kernel::eval_i64_column(e, chunk, compiled))), None)
            }
            Type::Bool => {
                (Column::Bool(Arc::new(kernel::eval_bool_column(e, chunk, compiled))), None)
            }
            _ => {
                let vals = kernel::eval_value_column(e, chunk, compiled);
                let mask: Vec<bool> = vals.iter().map(Value::is_null).collect();
                // NULL cells hold the type's zero behind the mask.
                let live = vals.iter().zip(&mask);
                let col = match ty {
                    Type::Float => Column::F64(Arc::new(
                        live.map(|(v, &null)| if null { 0.0 } else { v.as_float() }).collect(),
                    )),
                    Type::Int => Column::I64(Arc::new(
                        live.map(|(v, &null)| if null { 0 } else { v.as_int() }).collect(),
                    )),
                    Type::Date => Column::Date(Arc::new(
                        live.map(|(v, &null)| if null { 0 } else { v.as_date().0 }).collect(),
                    )),
                    Type::Str => Column::Str(Arc::new(
                        live.map(|(v, &null)| if null { String::new() } else { v.as_str().into() })
                            .collect(),
                    )),
                    Type::Bool => unreachable!("predicates never yield NULL"),
                };
                (col, mask.contains(&true).then(|| Arc::new(mask)))
            }
        }
    }

    fn sort(&self, input: &Plan, keys: &[(usize, SortOrder)], need: &Need) -> Chunk {
        let mut child_need = need.clone();
        if let Some(n) = &mut child_need {
            n.extend(keys.iter().map(|(c, _)| *c));
        }
        let mut chunk = self.run(input, &child_need);
        chunk.sel = Some(Arc::new(sort_chunk(self.settings, &chunk, keys)));
        chunk
    }

    fn limit(&self, input: &Plan, n: usize, need: &Need) -> Chunk {
        let mut chunk = self.run(input, need);
        chunk.sel = Some(Arc::new(phys_ids(&chunk, 0..n.min(chunk.len()))));
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
        let arity_of = |t: &str| self.schema_of(t).len();
        let (l_arity, r_arity) = (left.arity(&arity_of), right.arity(&arity_of));
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

        // Coded keys (all TPC-H join keys are: ints or dictionary codes),
        // extracted a block at a time; anything else keys on generic values.
        let keys = JoinKeys::new(left_keys, &lchunk).zip(JoinKeys::new(right_keys, &rchunk));
        let res = residual.map(|r| PairPred::compile(r, &lchunk, &rchunk));
        let res = res.as_ref();
        let (s, partition) = (self.settings, self.partition(&rchunk, right_keys));
        let pairs = match (&keys, partition, &group_index) {
            (Some((lk, _)), Some(build), _) => probe_build(s, &lchunk, lk, &build, kind, res),
            // Fused probe (Fig. 9): the aggregation's own key→slot structure
            // answers the join lookups, probed by the right side; no second
            // table is ever built. A load-time partition on the probe side
            // is cheaper still (a direct array dereference per build row,
            // Fig. 10), so the fused probe only runs when no partition
            // serves this join — matching the paper, where partitioning
            // already eliminates the intermediate structures of most joins
            // and fusion handles the rest.
            (Some((_, rk)), None, Some(gi)) => {
                probe_pairs(s, &rchunk, Some(rk), gi, kind, res, true)
            }
            _ => join_pairs(s, &lchunk, &rchunk, keys.as_ref(), left_keys, right_keys, kind, res),
        };
        self.gather_join_output(&lchunk, &rchunk, pairs, kind, need)
    }

    /// The load-time partition (Fig. 10) that serves a join whose right side
    /// is a (filtered) base-table scan keyed on the single `right_keys`.
    fn partition(&self, rchunk: &Chunk, right_keys: &[usize]) -> Option<Build<'_>> {
        if !self.settings.partitioning || right_keys.len() != 1 {
            return None;
        }
        let key = (rchunk.base.clone()?, right_keys[0]);
        // The partition indexes *all* physical rows of the base table; a
        // selection on the chunk narrows it through a bitset.
        let valid = || rchunk.sel.as_ref().map(|sel| Bitset::from_ids(rchunk.total, sel));
        if let Some(fk) = self.db.fk_partitions.get(&key) {
            return Some(Build::Fk(fk, valid()));
        }
        self.db.pk_indexes.get(&key).map(|pk| Build::Pk(pk, valid()))
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
                let unmatched = rrows.contains(&u32::MAX);
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
                    let (col, mask) = gather_column_nullable(rchunk, c, &rrows, unmatched);
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
        let (chunk, keep) = match self.dense_date_range(input) {
            Some((chunk, keep)) => (chunk, Some(keep)),
            None => (self.run(input, &Some(child_need)), None),
        };
        let fold = AggFold::compile(aggs, &chunk, self.settings.compiled_exprs);
        let (resolver, reprs, agg_cols) =
            aggregate_chunk(self.settings, &chunk, group_by, &fold, keep.as_deref());

        // Emit output: group columns gathered from representative rows, then
        // aggregate columns from the stores, named from the input chunk.
        let schema = aggregated_schema(&chunk.schema, group_by, aggs);
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
        Some(keys) if settings.code_motion && kernel::dense(keys.domain, n) => {
            GroupResolver::Direct { slots: vec![-1; keys.domain as usize], keys }
        }
        Some(keys) if settings.hashmap_lowering => {
            GroupResolver::Lowered { keys, map: ChainedArrayMap::with_capacity(n.max(16)) }
        }
        Some(keys) => GroupResolver::Hash { keys, map: HashMap::new() },
        None => GroupResolver::generic(group_by, chunk, settings.compiled_exprs),
    }
}

/// Aggregates a chunk block-at-a-time with `fold` (`kernel::AggFold`):
/// returns the resolver, each group's first-occurrence row and the aggregate
/// output columns. Serial execution folds the blocks in order into one
/// running state. Above the parallel threshold every fixed-size morsel folds
/// into its own partial, and the partials merge on the caller in
/// morsel-index order, which reproduces the serial slot numbering and fixes
/// every floating-point reassociation point at a morsel boundary — results
/// are bit-identical across degrees ≥ 2 (DESIGN.md §3). Both paths run the
/// same `fold_block`.
///
/// With `keep` (`chunk` is a base-table scan without a selection, `keep`
/// one entry per physical row) each physical block folds under its slice of
/// the mask: dropped rows take no slot, nothing is gathered and no selection
/// vector exists. The partials then cut where [`kept_morsels`] says the
/// selected chunk's morsels would, so the result is the one the selected
/// chunk gives, bit for bit, at every degree.
pub(crate) fn aggregate_chunk(
    settings: &Settings,
    chunk: &Chunk,
    group_by: &[usize],
    fold: &AggFold,
    keep: Option<&[bool]>,
) -> (GroupResolver, Vec<u32>, Vec<MaskedColumn>) {
    let n = chunk.len();
    let mut resolver = group_resolver(settings, group_by, chunk);
    let mut groups = fold.groups();
    let mut scratch = fold.scratch();
    let fold_range = |range, resolver: &mut _, groups: &mut _, scratch: &mut _| {
        chunk.for_each_block(range, |rows| {
            // A masked chunk has no selection: its rows are physical.
            let mask = keep.map(|k| &k[rows.phys(0)..][..rows.len()]);
            fold.fold_block(chunk, &rows, mask, resolver, groups, scratch)
        })
    };
    let parallel = match keep {
        None => go_parallel(settings.parallelism, n).then(|| row_morsels(n)),
        Some(keep) => kept_morsels(settings, keep),
    };
    if let Some(morsels) = parallel {
        let partials = run_morsels(
            settings.parallelism,
            &morsels,
            || (resolver.fresh(MORSEL_ROWS), fold.groups(), fold.scratch()),
            |(resolver, groups, scratch), m| {
                fold_range(m.range(), resolver, groups, scratch);
                fold.take_partial(resolver, groups, scratch)
            },
        );
        for part in &partials {
            fold.merge(chunk, &mut resolver, &mut groups, part, &mut scratch);
        }
    } else {
        fold_range(0..n, &mut resolver, &mut groups, &mut scratch);
    }
    if group_by.is_empty() && groups.reprs.is_empty() {
        fold.add_empty_group(&mut groups);
    }
    let reprs = std::mem::take(&mut groups.reprs);
    (resolver, reprs, fold.finish(groups))
}

/// The morsels of a masked fold above the parallel threshold: each is the
/// physical row range holding [`MORSEL_ROWS`] kept rows, the rows
/// `row_morsels` puts in one morsel of the selected chunk. One pass over
/// the keep-mask counts it 64 entries at a time and cuts before every
/// `MORSEL_ROWS`-th kept row. `None` when the kept rows stay below the
/// threshold.
fn kept_morsels(settings: &Settings, keep: &[bool]) -> Option<Vec<Morsel>> {
    if !go_parallel(settings.parallelism, keep.len()) {
        return None;
    }
    let (mut starts, mut seen) = (vec![0], 0);
    for (c, word) in keep.chunks(64).enumerate() {
        let kept = word.iter().filter(|&&k| k).count();
        // While the next morsel's first kept row (by rank) lies in this word.
        while starts.len() * MORSEL_ROWS < seen + kept {
            let rank = starts.len() * MORSEL_ROWS - seen;
            let kept = word.iter().enumerate().filter(|(_, &k)| k);
            starts.push(64 * c + kept.map(|(i, _)| i).nth(rank).expect("rank < kept"));
        }
        seen += kept;
    }
    if !go_parallel(settings.parallelism, seen) {
        return None;
    }
    let ends = starts[1..].iter().copied().chain([keep.len()]);
    Some(starts.iter().zip(ends).map(|(&start, end)| Morsel { start, end }).collect())
}

/// The selection vector of `predicate` over `chunk`: one block loop for
/// every chunk shape and degree. Workers share the compiled filter and
/// evaluate disjoint logical-row ranges; per-morsel survivors concatenate in
/// morsel order, so the vector is the one a serial per-row loop builds.
pub(crate) fn select_chunk(settings: &Settings, chunk: &Chunk, predicate: &Expr) -> Vec<u32> {
    let filter = BlockSel::compile(predicate, chunk, settings.compiled_exprs);
    let (n, presize) = (chunk.len(), settings.code_motion);
    collect_rows(
        settings.parallelism,
        go_parallel(settings.parallelism, n),
        n,
        || filter.scratch(),
        |regs, range, sel| {
            if presize {
                sel.reserve(range.len());
            }
            metrics::branch_evals(range.len() as u64);
            chunk.for_each_block(range, |rows| filter.select(&rows, regs, sel));
        },
    )
}

/// The selection vector that orders `chunk` by `keys`: a stable argsort of
/// the physical ids (they start in logical order) over the key columns read
/// in place — whole, or, morsel-parallel, one run per morsel combined by the
/// deterministic k-way merge of `storage::morsel`. Each local sort is stable
/// and the merge breaks ties toward the earlier run, which holds earlier
/// logical positions, so both are the serial stable sort bit for bit
/// (DESIGN.md §3); they share the one comparator.
pub(crate) fn sort_chunk(
    settings: &Settings,
    chunk: &Chunk,
    keys: &[(usize, SortOrder)],
) -> Vec<u32> {
    let n = chunk.len();
    let by = SortKeys::new(chunk, keys);
    let parallel = go_parallel(settings.parallelism, n);
    let runs = run_morsels(
        settings.parallelism,
        &work_items(parallel, n),
        || (),
        |(), m| {
            let mut ids = phys_ids(chunk, m.range());
            ids.sort_by(|&a, &b| by.cmp(a, b));
            ids
        },
    );
    merge_sorted_runs(runs, &|a: &u32, b: &u32| by.cmp(*a, *b))
}

/// The pairs of a join no load-time structure and no fused aggregation
/// serves: a table built over the right side, probed by the left.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_pairs(
    settings: &Settings,
    lchunk: &Chunk,
    rchunk: &Chunk,
    keys: Option<&(JoinKeys, JoinKeys)>,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
    res: Option<&PairPred>,
) -> Vec<(u32, u32)> {
    let Some((lk, rk)) = keys else {
        // Non-codeable keys: generic values. The build stays serial (generic
        // keys never dominate a TPC-H plan).
        let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        rchunk.for_each_block(0..rchunk.len(), |rows| {
            rows.for_each(|_, p| {
                metrics::hash_probe();
                let key = right_keys.iter().map(|&c| rchunk.value_at(c, p)).collect();
                table.entry(key).or_default().push(p as u32);
            })
        });
        return probe_pairs(settings, lchunk, None, &(table, left_keys), kind, res, false);
    };
    let key_only = res.is_none() && matches!(kind, JoinKind::Semi | JoinKind::Anti);
    let build = hash_build(settings, rchunk, rk, right_keys, key_only);
    probe_build(settings, lchunk, lk, &build, kind, res)
}

/// Builds the join table over the right side — the `Settings` decision of
/// Fig. 19's ablation. Lowered (Fig. 11): a direct array (a key bitset when
/// the probe only asks whether a key exists, `key_only`) over a small dense
/// single-key domain, by the rule and under the flag of the aggregate's
/// direct store (Section 3.5.2), else chained tables; unlowered: generic
/// SipHash maps with per-entry allocation. Every structure yields a key's
/// build rows in one fixed order, so the pair sequence depends on no degree.
pub(crate) fn hash_build(
    s: &Settings,
    rchunk: &Chunk,
    rk: &JoinKeys,
    right_keys: &[usize],
    key_only: bool,
) -> Build<'static> {
    let n = rchunk.len();
    let dense = (s.hashmap_lowering && s.code_motion && right_keys.len() == 1)
        .then(|| KeyPacker::fit(right_keys, rchunk))
        .flatten()
        .filter(|fit| kernel::dense(fit.domain, n));
    if let Some(fit) = dense {
        let (min, domain) = (fit.mins[0], fit.domain as usize);
        metrics::hash_probes(n as u64);
        return if key_only {
            let mut bits = Bitset::new(domain);
            rk.for_each(rchunk, 0..n, |key, _| bits.set((key - min) as usize));
            Build::Bits(min, bits)
        } else {
            let mut table = DirectMultiMap::new(min, domain, n);
            rk.for_each(rchunk, 0..n, |key, p| table.insert(key, p as u32));
            Build::Direct(table)
        };
    }
    // Each side gates independently, so a small build side under a large
    // probe side still parallelizes the probe (and vice versa).
    let parallel = go_parallel(s.parallelism, n);
    if s.hashmap_lowering {
        let new = |expected: usize| ChainedMultiMap::with_capacity(expected.max(1));
        Build::Chained(build_tables(s, rchunk, rk, parallel, new, |t, key, row| t.insert(key, row)))
    } else {
        let new = |_| HashMap::<u64, Vec<u32>>::new();
        Build::Hash(build_tables(s, rchunk, rk, parallel, new, |t, key, row| {
            metrics::hash_probe();
            metrics::allocation();
            t.entry(key).or_default().push(row);
        }))
    }
}

/// Fills one table with the whole build side or, morsel-parallel,
/// [`JOIN_PARTITIONS`] key-disjoint sub-tables: the build side is
/// radix-scattered per morsel (a pure function of the chunk and the keys;
/// worker identity never shapes it), then each sub-table is filled by
/// walking the scattered morsels in index order. A sub-table receives its
/// rows in the same relative order as the serial whole-side build, so the
/// match order a probe observes per key is identical to serial (DESIGN.md
/// §3).
fn build_tables<T: Send>(
    settings: &Settings,
    rchunk: &Chunk,
    rk: &JoinKeys,
    parallel: bool,
    new: impl Fn(usize) -> T + Sync,
    insert: impl Fn(&mut T, u64, u32) + Sync,
) -> Vec<T> {
    let n = rchunk.len();
    if !parallel {
        let mut table = new(n);
        rk.for_each(rchunk, 0..n, |key, p| insert(&mut table, key as u64, p as u32));
        return vec![table];
    }
    let degree = settings.parallelism;
    let scattered = run_morsels(
        degree,
        &row_morsels(n),
        || (),
        |(), m| {
            let mut parts: Vec<Vec<(u64, u32)>> = vec![Vec::new(); JOIN_PARTITIONS];
            rk.for_each(rchunk, m.range(), |key, p| {
                parts[join_partition(key as u64)].push((key as u64, p as u32))
            });
            parts
        },
    );
    let pids: Vec<usize> = (0..JOIN_PARTITIONS).collect();
    run_morsels(
        degree,
        &pids,
        || (),
        |(), pid| {
            let mut table = new(scattered.iter().map(|m| m[pid].len()).sum());
            for morsel_parts in &scattered {
                for &(key, row) in &morsel_parts[pid] {
                    insert(&mut table, key, row);
                }
            }
            table
        },
    )
}

/// Probes a coded-key build side in whichever structure it is: each gets its
/// own statically dispatched copy of the probe loop.
fn probe_build(
    s: &Settings,
    probe: &Chunk,
    keys: &JoinKeys,
    build: &Build<'_>,
    kind: JoinKind,
    res: Option<&PairPred>,
) -> Vec<(u32, u32)> {
    let keys = Some(keys);
    match build {
        Build::Fk(fk, valid) => probe_pairs(s, probe, keys, &(*fk, valid), kind, res, false),
        Build::Pk(pk, valid) => probe_pairs(s, probe, keys, &(*pk, valid), kind, res, false),
        Build::Direct(table) => probe_pairs(s, probe, keys, table, kind, res, false),
        Build::Bits(min, bits) => probe_pairs(s, probe, keys, &(*min, bits), kind, res, false),
        Build::Chained(tables) => probe_pairs(s, probe, keys, tables, kind, res, false),
        Build::Hash(tables) => probe_pairs(s, probe, keys, tables, kind, res, false),
    }
}

/// Probes `build` with every row of `probe`, serially or morsel-parallel,
/// and returns the matched `(left_phys, right_phys)` pairs; `right_phys ==
/// u32::MAX` marks a preserved-but-unmatched (or, for semi/anti, the
/// emitted) left row. The one emit path of every join shape: keys arrive a
/// block at a time, candidates come from the build structure in its fixed
/// order, the residual filters them, and per-morsel outputs concatenate in
/// morsel-index order — the pair sequence of the serial loop at every
/// degree. `flip`: the probe side is the join's *right* input (the fused
/// probe).
fn probe_pairs(
    settings: &Settings,
    probe: &Chunk,
    keys: Option<&JoinKeys>,
    build: &impl BuildSide,
    kind: JoinKind,
    res: Option<&PairPred>,
    flip: bool,
) -> Vec<(u32, u32)> {
    let n = probe.len();
    // Inner and outer joins emit every match; semi and anti joins stop at
    // the first.
    let all = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
    collect_rows(
        settings.parallelism,
        go_parallel(settings.parallelism, n),
        n,
        || (),
        |(), range, pairs| {
            let mut one = |key: i64, p: usize| {
                let mut matched = false;
                build.candidates(key, probe, p, |b| {
                    let (lp, rp) = if flip { (b, p as u32) } else { (p as u32, b) };
                    if res.is_some_and(|f| !f.test(lp as usize, rp as usize)) {
                        return false;
                    }
                    matched = true;
                    if all {
                        pairs.push((lp, rp));
                    }
                    !all
                });
                finish_left_row(p, matched, kind, pairs);
            };
            match keys {
                Some(keys) => keys.for_each(probe, range, one),
                None => probe.for_each_block(range, |rows| rows.for_each(|_, p| one(0, p))),
            }
        },
    )
}

/// The build side of a coded-key join, in the structure `Settings` selected.
pub(crate) enum Build<'a> {
    /// Load-time foreign-key partition of the right side's base table
    /// (Fig. 10), narrowed to the chunk's selection.
    Fk(&'a ForeignKeyPartition, Option<Bitset>),
    /// Load-time primary-key array, likewise.
    Pk(&'a PrimaryKeyIndex, Option<Bitset>),
    /// Direct array over a small dense key domain.
    Direct(DirectMultiMap),
    /// Which keys of a small dense domain (from the given minimum) exist:
    /// semi/anti joins without residual.
    Bits(i64, Bitset),
    /// Lowered chained tables (Fig. 11): one, or key-disjoint radix
    /// partitions.
    Chained(Vec<ChainedMultiMap>),
    /// Generic hash maps, likewise one or radix-partitioned.
    Hash(Vec<HashMap<u64, Vec<u32>>>),
}

/// What a probe asks of a build side. Each structure gets its own copy of
/// the probe loop (static dispatch), all share the one emit path in
/// [`probe_pairs`].
trait BuildSide: Sync {
    /// Calls `f` with the build rows matching probe row `p` (coded key
    /// `key`), in the structure's fixed order, until `f` returns true.
    fn candidates(&self, key: i64, probe: &Chunk, p: usize, f: impl FnMut(u32) -> bool);
}

/// Whether the chunk's selection kept base row `rp`.
#[inline(always)]
fn kept(valid: &Option<Bitset>, rp: u32) -> bool {
    valid.as_ref().is_none_or(|v| v.get(rp as usize))
}

impl BuildSide for (&ForeignKeyPartition, &Option<Bitset>) {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, mut f: impl FnMut(u32) -> bool) {
        for &rp in self.0.bucket(key) {
            if kept(self.1, rp) && f(rp) {
                break;
            }
        }
    }
}

impl BuildSide for (&PrimaryKeyIndex, &Option<Bitset>) {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, mut f: impl FnMut(u32) -> bool) {
        metrics::hash_probe();
        if let Some(rp) = self.0.lookup(key).filter(|&rp| kept(self.1, rp)) {
            f(rp);
        }
    }
}

/// The group index of the fused aggregation on the left (Fig. 9).
impl BuildSide for GroupResolver {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, mut f: impl FnMut(u32) -> bool) {
        if let Some(g) = self.lookup(key) {
            f(g);
        }
    }
}

impl BuildSide for DirectMultiMap {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, f: impl FnMut(u32) -> bool) {
        metrics::hash_probe();
        self.for_each_match(key, f);
    }
}

impl BuildSide for (i64, &Bitset) {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, mut f: impl FnMut(u32) -> bool) {
        metrics::hash_probe();
        // A key below the minimum wraps far beyond the set: absent.
        if self.1.get(key.wrapping_sub(self.0) as usize) {
            f(u32::MAX);
        }
    }
}

impl BuildSide for Vec<ChainedMultiMap> {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, mut f: impl FnMut(u32) -> bool) {
        let mut done = false;
        radix_table(self, key).for_each_match(key as u64, |rp| done = done || f(rp));
    }
}

impl BuildSide for Vec<HashMap<u64, Vec<u32>>> {
    #[inline(always)]
    fn candidates(&self, key: i64, _: &Chunk, _: usize, mut f: impl FnMut(u32) -> bool) {
        metrics::hash_probe();
        if let Some(cands) = radix_table(self, key).get(&(key as u64)) {
            metrics::chain_steps(cands.len() as u64);
            let _ = cands.iter().any(|&rp| f(rp));
        }
    }
}

/// Generic values of the given probe-side columns (non-codeable keys).
impl BuildSide for (HashMap<Vec<Value>, Vec<u32>>, &[usize]) {
    fn candidates(&self, _: i64, probe: &Chunk, p: usize, mut f: impl FnMut(u32) -> bool) {
        metrics::hash_probe();
        let key: Vec<Value> = self.1.iter().map(|&c| probe.value_at(c, p)).collect();
        if let Some(cands) = self.0.get(&key) {
            let _ = cands.iter().any(|&rp| f(rp));
        }
    }
}

/// The table holding `key`: the only one, or its radix partition.
#[inline(always)]
fn radix_table<T>(tables: &[T], key: i64) -> &T {
    if tables.len() == 1 {
        &tables[0]
    } else {
        &tables[join_partition(key as u64)]
    }
}

/// Runs `work` over the logical rows `0..rows` of an operator's input and
/// returns what it emitted, in row order. A serial operator is one work item
/// over all rows; a morsel-parallel one hands the fixed morsels of the
/// determinism contract to `run_morsels` and concatenates their outputs in
/// morsel-index order — the deterministic assembly step every parallel
/// selection and probe shares, around one loop body.
fn collect_rows<S, T: Clone + Send>(
    degree: usize,
    parallel: bool,
    rows: usize,
    setup: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>, &mut Vec<T>) + Sync,
) -> Vec<T> {
    concat_parts(run_morsels(degree, &work_items(parallel, rows), setup, |state, m: Morsel| {
        let mut out = Vec::new();
        work(state, m.range(), &mut out);
        out
    }))
}

/// The work items over `rows` logical rows: the fixed morsels of the
/// determinism contract when the operator runs parallel, else all rows as one.
fn work_items(parallel: bool, rows: usize) -> Vec<Morsel> {
    if parallel {
        row_morsels(rows)
    } else {
        vec![Morsel { start: 0, end: rows }]
    }
}

/// Concatenates per-item outputs in item order (a single one moves).
fn concat_parts<T: Clone>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        parts.concat()
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
/// `unmatched` says whether `rows` holds any `u32::MAX`; the caller scans
/// for it once per join, not once per column.
fn gather_column_nullable(
    chunk: &Chunk,
    c: usize,
    rows: &[u32],
    unmatched: bool,
) -> (Column, Option<Arc<Vec<bool>>>) {
    if !unmatched {
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

/// The physical ids of the logical rows `range`.
fn phys_ids(chunk: &Chunk, range: Range<usize>) -> Vec<u32> {
    match &chunk.sel {
        Some(s) => s[range].to_vec(),
        None => (range.start as u32..range.end as u32).collect(),
    }
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
            (Expr::Lit(Value::Date(d)), Expr::Col(c)) => (*c, *d, op.flip()),
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

    /// A Q1-shaped aggregate over a date range that keeps more than half of
    /// `lineitem` folds the base table in place under the keep-mask the year
    /// index builds; its answer is the one the full scan gives (date indices
    /// off), bit for bit, at degree 1 and across morsels at degrees 2 and 4.
    /// Cases: a residual conjunct beside a range cut at both ends, a residual
    /// under a one-sided range (whole years run only the residual), a range
    /// cutting a year at both ends with nothing else (two boundary buckets,
    /// every other year set untested), and a dense range that keeps no row.
    #[test]
    fn dense_date_range_equals_full_scan() {
        let (data, mut spec) = setup();
        let li = data.catalog.table("lineitem").schema.clone();
        let c = |name: &str| Expr::col(li.col(name));
        spec.used_columns.insert(
            "lineitem".into(),
            [
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_returnflag",
                "l_linestatus",
                "l_shipdate",
            ]
            .map(|n| li.col(n))
            .to_vec(),
        );
        let ship = || c("l_shipdate");
        let day = |y, m, d| Expr::lit(Date::from_ymd(y, m, d));
        let select = |conjuncts: Vec<Expr>| Plan::Select {
            input: Box::new(Plan::scan("lineitem")),
            predicate: Expr::all(conjuncts),
        };
        let cases = [
            (
                "range and residual",
                select(vec![
                    Expr::ge(ship(), day(1992, 6, 1)),
                    Expr::le(ship(), day(1998, 9, 2)),
                    Expr::lt(c("l_quantity"), Expr::lit(45.0)),
                ]),
            ),
            (
                "one-sided range and residual",
                select(vec![
                    Expr::le(ship(), day(1998, 9, 2)),
                    Expr::lt(c("l_quantity"), Expr::lit(24.0)),
                ]),
            ),
            (
                "two boundary years",
                select(vec![
                    Expr::ge(ship(), day(1992, 3, 15)),
                    Expr::le(ship(), day(1998, 6, 30)),
                ]),
            ),
            (
                "keeps no row",
                select(vec![
                    Expr::le(ship(), day(1998, 12, 31)),
                    Expr::lt(c("l_quantity"), Expr::lit(0.0)),
                ]),
            ),
        ];
        let disc_price =
            || Expr::mul(c("l_extendedprice"), Expr::sub(Expr::lit(1.0), c("l_discount")));
        let plan = |input: &Plan, group_by: Vec<usize>| Plan::Agg {
            input: Box::new(input.clone()),
            group_by,
            aggs: vec![
                AggSpec::new(AggKind::Sum, c("l_quantity"), "sum_qty"),
                AggSpec::new(AggKind::Sum, c("l_extendedprice"), "sum_base_price"),
                AggSpec::new(AggKind::Sum, disc_price(), "sum_disc_price"),
                AggSpec::new(
                    AggKind::Sum,
                    Expr::mul(disc_price(), Expr::add(Expr::lit(1.0), c("l_tax"))),
                    "sum_charge",
                ),
                AggSpec::new(AggKind::Avg, c("l_quantity"), "avg_qty"),
                AggSpec::new(AggKind::Avg, c("l_discount"), "avg_disc"),
                AggSpec::new(AggKind::Min, c("l_extendedprice"), "min_price"),
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "count_order"),
            ],
        };
        let bits = |r: &ResultTable| -> Vec<Vec<String>> {
            let cell = |v: &Value| match v {
                Value::Float(f) => format!("{:#x}", f.to_bits()),
                v => format!("{v:?}"),
            };
            r.rows().iter().map(|row| row.iter().map(cell).collect()).collect()
        };
        let settings = Config::OptC.settings();
        let db = crate::SpecializedDb::load(&data, &crate::BaseStore::new(), &spec, &settings);
        let exec = Exec { db: &db, settings: &settings, temps: HashMap::new() };
        for (case, dense) in &cases {
            // Every case takes the masked path.
            assert!(exec.dense_date_range(dense).is_some(), "{case}");
            let grouped = QueryPlan::new(
                case,
                Plan::Sort {
                    input: Box::new(plan(
                        dense,
                        vec![li.col("l_returnflag"), li.col("l_linestatus")],
                    )),
                    keys: vec![(0, SortOrder::Asc), (1, SortOrder::Asc)],
                },
            );
            let global = QueryPlan::new(case, plan(dense, vec![]));
            for q in [&grouped, &global] {
                check_all_configs(q, &data, &spec);
                for cfg in [Config::HyPerLike, Config::StrDictC, Config::OptC, Config::OptScala] {
                    for degree in [1, 2, 4] {
                        let settings = cfg.settings().with_parallelism(degree);
                        let full_scan = settings.with(|s| s.date_indices = false);
                        let db = crate::SpecializedDb::load(
                            &data,
                            &crate::BaseStore::new(),
                            &spec,
                            &settings,
                        );
                        let got = execute(q, &db, &settings);
                        assert_eq!(
                            bits(&got),
                            bits(&execute(q, &db, &full_scan)),
                            "{cfg:?} degree {degree} on {case}"
                        );
                    }
                }
            }
            let got = execute(&global, &db, &settings);
            if *case == "keeps no row" {
                // The one row of an empty global aggregate: COUNT 0, SUM NULL.
                assert_eq!(got.rows()[0][0], Value::Null);
                assert_eq!(got.rows()[0][7], Value::Int(0));
            } else {
                assert!(matches!(got.rows()[0][7], Value::Int(n) if n > 0), "{case}");
            }
        }
        // Q6's one year does not take the masked path.
        let one_year =
            select(vec![Expr::ge(ship(), day(1994, 1, 1)), Expr::le(ship(), day(1994, 12, 31))]);
        assert!(exec.dense_date_range(&one_year).is_none());
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
