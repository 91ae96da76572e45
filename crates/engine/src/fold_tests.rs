//! Property test of the block-at-a-time aggregation: for random chunks the
//! block fold must equal a naive per-row reference **bit for bit**, across
//! selection shapes, column layouts, every aggregate kind, every group
//! resolver, block- and morsel-boundary sizes, and parallelism degrees.
//!
//! The reference interprets every aggregate argument row by row over generic
//! tuples, numbers groups by first occurrence and adds in row order; where
//! the engine splits the input into morsels (more than one morsel of rows at
//! a degree ≥ 2) it adds per-morsel partials in morsel order, which is the
//! determinism contract of DESIGN.md §3.

use crate::expr::{AggKind, Expr};
use crate::interp;
use crate::kernel::{AggFold, Chunk, GroupResolver, REGISTER_SLOTS};
use crate::plan::AggSpec;
use crate::settings::{Config, Settings};
use crate::specialized::aggregate_chunk;
use legobase_storage::column::ColumnTable;
use legobase_storage::morsel::MORSEL_ROWS;
use legobase_storage::{Column, Date, DictKind, PackedInts, Schema, Type, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) const K: usize = 0; // small dense int key
pub(crate) const W: usize = 1; // wide sparse int key
pub(crate) const S: usize = 2; // dictionary string
pub(crate) const X: usize = 3; // float
pub(crate) const Y: usize = 4; // float in [0, 0.1)
pub(crate) const I: usize = 5; // small signed int
pub(crate) const D: usize = 6; // date
pub(crate) const BIG: usize = 7; // ints of magnitude just above 2^53
pub(crate) const T: usize = 8; // plain string
pub(crate) const O: usize = 9; // ordered-dictionary string: two words
pub(crate) const WT: usize = 10; // word-token-dictionary string: three words

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Layout {
    Plain,
    Packed,
    /// `X`, `I`, `T`, `O` and `WT` carry validity masks, as below the
    /// NULL-extended side of an outer join. (`S` and `D` stay valid: they
    /// key the direct and lowered groupings, which a nullable key turns
    /// generic.)
    Nullable,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum Selection {
    None,
    Ascending,
    /// Three ascending runs back to back — the shape a date-index scan
    /// emits (year buckets).
    Buckets,
}

/// The two words of an [`O`] value: prefixes of one another's first words
/// make neighbouring code ranges.
pub(crate) const ORDERED: ([&str; 4], [&str; 3]) =
    (["PROMO", "PROMOTED", "SMALL", "STANDARD"], ["BRASS", "STEEL", "TIN"]);
/// The vocabulary of [`WT`] values.
pub(crate) const TOKENS: [&str; 5] = ["special", "requests", "pending", "deposits", "final"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A chunk of `rows` logical rows.
pub(crate) fn chunk(rng: &mut TestRng, rows: usize, layout: Layout, selection: Selection) -> Chunk {
    let schema = Schema::of(&[
        ("k", Type::Int),
        ("w", Type::Int),
        ("s", Type::Str),
        ("x", Type::Float),
        ("y", Type::Float),
        ("i", Type::Int),
        ("d", Type::Date),
        ("big", Type::Int),
        ("t", Type::Str),
        ("o", Type::Str),
        ("wt", Type::Str),
    ]);
    let total = if matches!(selection, Selection::None) { rows } else { 2 * rows + 3 };
    let words = ["AIR", "MAIL", "RAIL", "SHIP"];
    let mut ct = ColumnTable::with_capacity(schema.clone(), total);
    for _ in 0..total {
        ct.push([
            Value::Int(rng.below(5) as i64),
            Value::Int(rng.below(10_000_000) as i64),
            Value::from(words[rng.below(4) as usize]),
            Value::Float((rng.below(2_000_000) as f64 - 1_000_000.0) / 7.0),
            Value::Float(rng.below(1000) as f64 / 10_000.0),
            Value::Int(rng.below(2001) as i64 - 1000),
            Value::Date(Date::from_ymd(1992 + rng.below(7) as i32, 1 + rng.below(12) as u32, 1)),
            // Random signs keep even a 9000-row sum far inside `i64`.
            Value::Int(((1 << 53) + rng.below(1000) as i64) * (2 * rng.below(2) as i64 - 1)),
            Value::from(words[rng.below(3) as usize]),
            Value::from(format!("{} {}", pick(rng, &ORDERED.0), pick(rng, &ORDERED.1))),
            Value::from(format!(
                "{} {} {}",
                pick(rng, &TOKENS),
                pick(rng, &TOKENS),
                pick(rng, &TOKENS)
            )),
        ]);
    }
    let mut cols = ct.columns;
    cols[S] = cols[S].dict_encoded(DictKind::Normal);
    cols[O] = cols[O].dict_encoded(DictKind::Ordered);
    cols[WT] = cols[WT].dict_encoded(DictKind::WordToken);
    let mut nulls = vec![None; cols.len()];
    match layout {
        Layout::Plain => {}
        Layout::Packed => {
            for c in cols.iter_mut() {
                *c = match &*c {
                    Column::I64(v) => Column::I64Packed(Arc::new(PackedInts::from_values(v))),
                    Column::Date(v) => {
                        let days: Vec<i64> = v.iter().map(|&d| d as i64).collect();
                        Column::DatePacked(Arc::new(PackedInts::from_values(&days)))
                    }
                    Column::Dict(codes, dict) => {
                        let wide: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
                        Column::DictPacked(Arc::new(PackedInts::from_values(&wide)), dict.clone())
                    }
                    other => other.clone(),
                };
            }
        }
        Layout::Nullable => {
            for c in [X, I, T, O, WT] {
                nulls[c] = Some(Arc::new((0..total).map(|_| rng.below(4) == 0).collect()));
            }
        }
    }
    let sel = match selection {
        Selection::None => None,
        Selection::Ascending => Some((0..total as u32).filter(|r| r % 2 == 1).collect::<Vec<_>>()),
        Selection::Buckets => {
            Some((0..3u32).flat_map(|b| (0..total as u32).filter(move |r| r % 3 == b)).collect())
        }
    };
    let sel = sel.map(|mut s| {
        s.truncate(rows);
        assert_eq!(s.len(), rows);
        Arc::new(s)
    });
    Chunk { schema, cols, nulls, sel, total, base: None }
}

/// Every aggregate kind over block nodes, shared subexpressions, `CASE`,
/// `YEAR`, integer-only arithmetic and generic values.
fn aggregates() -> Vec<AggSpec> {
    let disc_price = || Expr::mul(Expr::col(X), Expr::sub(Expr::lit(1i64), Expr::col(Y)));
    vec![
        AggSpec::new(AggKind::Sum, Expr::col(X), "sum_x"),
        AggSpec::new(AggKind::Avg, Expr::col(X), "avg_x"),
        AggSpec::new(AggKind::Sum, disc_price(), "sum_disc"),
        AggSpec::new(
            AggKind::Sum,
            Expr::mul(disc_price(), Expr::add(Expr::lit(1.0), Expr::col(Y))),
            "sum_charge",
        ),
        AggSpec::new(AggKind::Avg, Expr::col(Y), "avg_y"),
        AggSpec::new(AggKind::Count, Expr::lit(1i64), "count_star"),
        AggSpec::new(AggKind::Count, Expr::col(X), "count_x"),
        AggSpec::new(AggKind::Count, Expr::add(Expr::col(I), Expr::lit(0i64)), "count_i_expr"),
        AggSpec::new(AggKind::Sum, Expr::col(I), "sum_i"),
        AggSpec::new(AggKind::Avg, Expr::col(I), "avg_i"),
        AggSpec::new(
            AggKind::Sum,
            Expr::add(Expr::mul(Expr::col(K), Expr::lit(3i64)), Expr::col(W)),
            "sum_int_arith",
        ),
        AggSpec::new(
            AggKind::Sum,
            Expr::case(Expr::lt(Expr::col(I), Expr::lit(0i64)), Expr::col(X), Expr::lit(0.0)),
            "sum_case",
        ),
        AggSpec::new(AggKind::Sum, Expr::year(Expr::col(D)), "sum_year"),
        AggSpec::new(AggKind::Min, Expr::col(X), "min_x"),
        AggSpec::new(AggKind::Max, Expr::col(D), "max_d"),
        AggSpec::new(AggKind::Min, Expr::col(T), "min_t"),
        AggSpec::new(AggKind::Max, Expr::col(I), "max_i"),
    ]
}

/// `SUM(big)` needs the exact `i64` fold of the block path; interpreted mode
/// (Opt/Scala) still adds integers through `f64`.
fn exact_big_sum() -> AggSpec {
    AggSpec::new(AggKind::Sum, Expr::col(BIG), "sum_big")
}

enum Acc {
    SumF(Option<f64>),
    SumI(Option<i64>),
    Count(i64),
    Avg(f64, i64),
    Extreme(Option<Value>, bool),
}

impl Acc {
    fn new(spec: &AggSpec, schema: &Schema) -> Acc {
        match spec.kind {
            AggKind::Sum if spec.expr.ty(schema) == Type::Int => Acc::SumI(None),
            AggKind::Sum => Acc::SumF(None),
            AggKind::Count => Acc::Count(0),
            AggKind::Avg => Acc::Avg(0.0, 0),
            AggKind::Min => Acc::Extreme(None, true),
            AggKind::Max => Acc::Extreme(None, false),
        }
    }

    fn add(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            Acc::SumF(s) => *s = Some(s.unwrap_or(0.0) + v.as_float()),
            Acc::SumI(s) => *s = Some(s.unwrap_or(0) + v.as_int()),
            Acc::Count(c) => *c += 1,
            Acc::Avg(s, c) => {
                *s += v.as_float();
                *c += 1;
            }
            Acc::Extreme(cur, is_min) => {
                let better = cur.as_ref().is_none_or(|c| if *is_min { v < *c } else { v > *c });
                if better {
                    *cur = Some(v);
                }
            }
        }
    }

    /// Adds a later morsel's partial.
    fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::SumF(s), Acc::SumF(Some(o))) => *s = Some(s.unwrap_or(0.0) + o),
            (Acc::SumI(s), Acc::SumI(Some(o))) => *s = Some(s.unwrap_or(0) + o),
            (Acc::Count(c), Acc::Count(o)) => *c += o,
            (Acc::Avg(s, c), Acc::Avg(os, oc)) => {
                *s += os;
                *c += oc;
            }
            (acc @ Acc::Extreme(..), Acc::Extreme(Some(v), _)) => acc.add(v),
            _ => {}
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::SumF(s) => s.map_or(Value::Null, Value::Float),
            Acc::SumI(s) => s.map_or(Value::Null, Value::Int),
            Acc::Count(c) => Value::Int(c),
            Acc::Avg(_, 0) => Value::Null,
            Acc::Avg(s, c) => Value::Float(s / c as f64),
            Acc::Extreme(v, _) => v.unwrap_or(Value::Null),
        }
    }
}

/// Groups in first-occurrence order with one accumulator per aggregate.
struct RefGroups {
    index: HashMap<Vec<Value>, usize>,
    groups: Vec<(Vec<Value>, Vec<Acc>)>,
}

impl RefGroups {
    fn new() -> RefGroups {
        RefGroups { index: HashMap::new(), groups: Vec::new() }
    }

    fn slot(&mut self, key: Vec<Value>, chunk: &Chunk, aggs: &[AggSpec]) -> &mut Vec<Acc> {
        let next = self.groups.len();
        let g = *self.index.entry(key.clone()).or_insert(next);
        if g == next {
            self.groups.push((key, aggs.iter().map(|a| Acc::new(a, &chunk.schema)).collect()));
        }
        &mut self.groups[g].1
    }
}

/// The naive reference: `(group key ++ aggregate values)` per group.
fn reference(
    chunk: &Chunk,
    group_by: &[usize],
    aggs: &[AggSpec],
    morsel: usize,
) -> Vec<Vec<Value>> {
    let mut total = RefGroups::new();
    for start in (0..chunk.len()).step_by(morsel) {
        let mut part = RefGroups::new();
        for i in start..start.saturating_add(morsel).min(chunk.len()) {
            let row = chunk.row_values(i);
            let key: Vec<Value> = group_by.iter().map(|&c| row[c].clone()).collect();
            for (acc, spec) in part.slot(key, chunk, aggs).iter_mut().zip(aggs) {
                acc.add(interp::eval(&spec.expr, &row));
            }
        }
        for (key, accs) in part.groups {
            for (into, acc) in total.slot(key, chunk, aggs).iter_mut().zip(accs) {
                into.merge(acc);
            }
        }
    }
    if group_by.is_empty() && total.groups.is_empty() {
        total.slot(Vec::new(), chunk, aggs);
    }
    total
        .groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.into_iter().map(Acc::finish));
            key
        })
        .collect()
}

/// The engine's answer in the same shape.
fn engine(
    settings: &Settings,
    chunk: &Chunk,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> (GroupResolver, Vec<Vec<Value>>) {
    let fold = AggFold::compile(aggs, chunk, settings.compiled_exprs);
    fold_with(settings, chunk, group_by, &fold, None)
}

/// [`engine`] with a compiled `fold`, under an optional keep-mask (one
/// entry per physical row).
fn fold_with(
    settings: &Settings,
    chunk: &Chunk,
    group_by: &[usize],
    fold: &AggFold,
    keep: Option<&[bool]>,
) -> (GroupResolver, Vec<Vec<Value>>) {
    let (resolver, _, rows) = fold_reprs(settings, chunk, group_by, fold, keep);
    (resolver, rows)
}

/// [`fold_with`], also returning each group's representative row.
fn fold_reprs(
    settings: &Settings,
    chunk: &Chunk,
    group_by: &[usize],
    fold: &AggFold,
    keep: Option<&[bool]>,
) -> (GroupResolver, Vec<u32>, Vec<Vec<Value>>) {
    let (resolver, reprs, cols) = aggregate_chunk(settings, chunk, group_by, fold, keep);
    let rows = reprs
        .iter()
        .enumerate()
        .map(|(g, &repr)| {
            let keys = group_by.iter().map(|&c| chunk.value_at(c, repr as usize));
            let vals = cols.iter().map(|(col, mask)| {
                if mask.as_ref().is_some_and(|m| m[g]) {
                    Value::Null
                } else {
                    col.value_at(g)
                }
            });
            keys.chain(vals).collect()
        })
        .collect();
    (resolver, reprs, rows)
}

/// Bit-for-bit equality (`Value`'s own `==` is not bitwise on floats).
fn same(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let cell = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| cell(x, y)))
}

fn resolver_name(r: &GroupResolver) -> &'static str {
    match r {
        GroupResolver::Singleton => "singleton",
        GroupResolver::Direct { .. } => "direct",
        GroupResolver::Lowered { .. } => "lowered",
        GroupResolver::Hash { .. } => "hash",
        GroupResolver::Generic { .. } => "generic",
    }
}

proptest! {
    // One case walks the whole matrix below (≈ 650 engine runs against the
    // reference); `PROPTEST_SEED` varies the data.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn block_fold_equals_per_row_reference(seed in any::<u64>()) {
        let opt = Config::OptC.settings();
        let no_motion = opt.with(|s| s.code_motion = false);
        let plain_maps = no_motion.with(|s| s.hashmap_lowering = false);
        let interpreted = Config::OptScala.settings();
        // (group-by columns, settings, the resolver they must select)
        let groupings: [(&[usize], Settings, &str); 12] = [
            (&[], opt, "singleton"),
            (&[K], opt, "direct"),
            // Both sides of the register bound: `REGISTER_SLOTS` key values
            // sum in registers, one more in memory.
            (&[AT_BOUND], opt, "direct"),
            (&[PAST_BOUND], opt, "direct"),
            (&[S, K], opt, "direct"),
            (&[W], opt, "lowered"),
            (&[K, D], no_motion, "lowered"),
            (&[W], plain_maps, "hash"),
            (&[T, K], opt, "generic"),
            (&[S, K], interpreted, "generic"),
            // Generic keys hash in place and verify by reference: rows that
            // agree on the coded prefix (`I`) but differ in the string, NULL
            // keys (`I` under the nullable layout), float keys.
            (&[I, T], opt, "generic"),
            (&[Y, K], opt, "generic"),
        ];
        let sizes = [0, 1, 1023, 1024, 1025, 2 * 1024 + 1, MORSEL_ROWS + 1, 2 * MORSEL_ROWS + 1025];
        let mut aggs = aggregates();
        aggs.push(exact_big_sum());
        let mut rng = TestRng::from_seed(seed);
        for rows in sizes {
            for selection in [Selection::None, Selection::Ascending, Selection::Buckets] {
                for layout in [Layout::Plain, Layout::Packed, Layout::Nullable] {
                    let base = chunk(&mut rng, rows, layout, selection);
                    let chunk = extended(&mut rng, &base);
                    let mut references = HashMap::new();
                    for (group_by, settings, resolver) in &groupings {
                        let (serial, morsels) = references.entry(*group_by).or_insert_with(|| {
                            let serial = reference(&chunk, group_by, &aggs, usize::MAX);
                            let split = rows > MORSEL_ROWS;
                            let morsels = split.then(|| reference(&chunk, group_by, &aggs, MORSEL_ROWS));
                            (serial, morsels)
                        });
                        for degree in [1, 2, 4] {
                            let settings = settings.with_parallelism(degree);
                            let mut expected = match morsels {
                                Some(m) if degree > 1 => m.clone(),
                                _ => serial.clone(),
                            };
                            // Interpreted mode is measured without the exact sum.
                            let aggs = if settings.compiled_exprs {
                                &aggs[..]
                            } else {
                                expected.iter_mut().for_each(|row| {
                                    row.pop();
                                });
                                &aggs[..aggs.len() - 1]
                            };
                            let (used, got) = engine(&settings, &chunk, group_by, aggs);
                            prop_assert!(
                                same(&got, &expected),
                                "rows {rows} {selection:?} {layout:?} group by {group_by:?} \
                                 ({resolver}) degree {degree}:\n got      {got:?}\n expected {expected:?}"
                            );
                            // Two random wide keys already span more than
                            // the direct-array limit; fewer rows do not.
                            if rows > 1 || !group_by.contains(&W) {
                                prop_assert_eq!(resolver_name(&used), *resolver);
                            }
                            // Every key value occurs once a block is full.
                            if let (true, [c @ (AT_BOUND | PAST_BOUND)]) = (rows > 1023, group_by) {
                                prop_assert_eq!(used.register_slots().is_some(), *c == AT_BOUND);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn masked_fold_equals_compacted_ids_and_reference(seed in any::<u64>()) {
        let opt = Config::OptC.settings();
        let plain_maps = opt.with(|s| {
            s.code_motion = false;
            s.hashmap_lowering = false;
        });
        let groupings: [(&[usize], Settings, &str); 8] = [
            (&[], opt, "singleton"),
            (&[K], opt, "direct"),
            (&[PAST_BOUND], opt, "direct"),
            (&[W], opt, "lowered"),
            (&[W], plain_maps, "hash"),
            (&[T, K], opt, "generic"),
            (&[S, K], Config::OptScala.settings(), "generic"),
            (&[I, T], opt, "generic"),
        ];
        let mut rng = TestRng::from_seed(seed);
        for rows in [0, 1, 1025, 2 * MORSEL_ROWS + 1025] {
            for layout in [Layout::Plain, Layout::Packed, Layout::Nullable] {
                let base = chunk(&mut rng, rows, layout, Selection::None);
                let random: Vec<bool> = (0..rows).map(|_| rng.below(2) == 0).collect();
                let masks: [(&str, Vec<bool>); 4] = [
                    ("drop all", vec![false; rows]),
                    ("keep all", vec![true; rows]),
                    ("alternate", (0..rows).map(|r| r % 2 == 0).collect()),
                    ("random", random),
                ];
                for (mask, keep) in &masks {
                    let masked = extended(&mut rng, &base);
                    let ids = (0..rows as u32).filter(|&r| keep[r as usize]).collect::<Vec<_>>();
                    let kept = ids.len();
                    let compacted = Chunk { sel: Some(Arc::new(ids)), ..masked.clone() };
                    for (group_by, settings, resolver) in &groupings {
                        for degree in [1, 4] {
                            let settings = settings.with_parallelism(degree);
                            let mut aggs = aggregates();
                            if settings.compiled_exprs {
                                aggs.push(exact_big_sum());
                            }
                            let morsel = if degree > 1 { MORSEL_ROWS } else { usize::MAX };
                            let expected = reference(&compacted, group_by, &aggs, morsel);
                            let (_, by_ids) = engine(&settings, &compacted, group_by, &aggs);
                            let fold = AggFold::compile(&aggs, &masked, settings.compiled_exprs);
                            let (used, got) =
                                fold_with(&settings, &masked, group_by, &fold, Some(keep));
                            let case = format!(
                                "rows {rows} ({kept} kept, {mask}) {layout:?} group by {group_by:?} \
                                 ({resolver}) degree {degree}"
                            );
                            prop_assert!(same(&got, &by_ids), "{case}:\n got {got:?}\n ids {by_ids:?}");
                            prop_assert!(same(&got, &expected), "{case}:\n got {got:?}\n ref {expected:?}");
                            if rows > 1 {
                                prop_assert_eq!(resolver_name(&used), *resolver);
                            }
                            if group_by.is_empty() && kept == 0 {
                                // One row: COUNT(*) 0, SUM(x) NULL.
                                prop_assert_eq!(got.len(), 1);
                                prop_assert_eq!(&got[0][5], &Value::Int(0));
                                prop_assert_eq!(&got[0][0], &Value::Null);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A global aggregate's one slot folds without the slot sort: the kept
    /// positions of a block, or all its rows, in row order. Over unmasked
    /// physical blocks, masked ones and selected ids, for the fused lanes
    /// alone, `COUNT(*)` alone and aggregates folded in loops of their own
    /// beside the lanes, it equals the per-row reference bit for bit.
    #[test]
    fn one_slot_fold_equals_per_row_reference(seed in any::<u64>()) {
        let disc_price = || Expr::mul(Expr::col(X), Expr::sub(Expr::lit(1i64), Expr::col(Y)));
        let lanes = vec![
            AggSpec::new(AggKind::Sum, Expr::col(X), "sum_x"),
            AggSpec::new(AggKind::Avg, Expr::col(X), "avg_x"),
            AggSpec::new(AggKind::Sum, disc_price(), "sum_disc"),
            AggSpec::new(AggKind::Avg, Expr::col(Y), "avg_y"),
        ];
        let mut own = lanes.clone();
        own.extend([
            // Nullable under `Layout::Nullable`: its own loop behind a mask.
            AggSpec::new(AggKind::Sum, Expr::col(I), "sum_i"),
            AggSpec::new(AggKind::Count, Expr::col(X), "count_x"),
            AggSpec::new(AggKind::Count, Expr::add(Expr::col(I), Expr::lit(0i64)), "count_i_expr"),
            AggSpec::new(AggKind::Min, Expr::col(X), "min_x"),
            AggSpec::new(AggKind::Max, Expr::col(D), "max_d"),
            exact_big_sum(),
        ]);
        let count_star = vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "count_star")];
        let sets = [("lanes", lanes), ("count(*)", count_star), ("own", own)];
        let mut rng = TestRng::from_seed(seed);
        for rows in [0, 1, 1025, 2 * MORSEL_ROWS + 1025] {
            for layout in [Layout::Plain, Layout::Packed, Layout::Nullable] {
                let base = chunk(&mut rng, rows, layout, Selection::None);
                let random: Vec<bool> = (0..rows).map(|_| rng.below(2) == 0).collect();
                let masks: [(&str, Vec<bool>); 4] = [
                    ("drop all", vec![false; rows]),
                    ("keep all", vec![true; rows]),
                    ("alternate", (0..rows).map(|r| r % 2 == 0).collect()),
                    ("random", random),
                ];
                for (mask, keep) in &masks {
                    let ids = (0..rows as u32).filter(|&r| keep[r as usize]).collect::<Vec<_>>();
                    let kept = ids.len();
                    let compacted = Chunk { sel: Some(Arc::new(ids)), ..base.clone() };
                    for (set, aggs) in &sets {
                        for degree in [1, 4] {
                            let settings = Config::OptC.settings().with_parallelism(degree);
                            let case = format!(
                                "rows {rows} ({kept} kept, {mask}) {layout:?} {set} degree {degree}"
                            );
                            let morsel = if degree > 1 { MORSEL_ROWS } else { usize::MAX };
                            let expected = reference(&compacted, &[], aggs, morsel);
                            let fold = AggFold::compile(aggs, &base, true);
                            let (used, masked) = fold_with(&settings, &base, &[], &fold, Some(keep));
                            prop_assert_eq!(resolver_name(&used), "singleton");
                            prop_assert!(same(&masked, &expected), "{case} masked:\n got {masked:?}\n ref {expected:?}");
                            let (_, by_ids) = engine(&settings, &compacted, &[], aggs);
                            prop_assert!(same(&by_ids, &expected), "{case} ids:\n got {by_ids:?}\n ref {expected:?}");
                            if kept == rows {
                                let (_, whole) = engine(&settings, &base, &[], aggs);
                                prop_assert!(same(&whole, &expected), "{case} range:\n got {whole:?}\n ref {expected:?}");
                            }
                            if kept == 0 {
                                // One row: every COUNT 0, every other aggregate NULL.
                                prop_assert_eq!(masked.len(), 1);
                                for (spec, v) in aggs.iter().zip(&masked[0]) {
                                    let empty = match spec.kind {
                                        AggKind::Count => Value::Int(0),
                                        _ => Value::Null,
                                    };
                                    prop_assert_eq!(v, &empty, "{} ({})", spec.name, case);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Appended by [`extended`]: keys of `REGISTER_SLOTS` and one more values —
/// both sides of the register bound.
const AT_BOUND: usize = 11;
const PAST_BOUND: usize = 12;

/// `chunk` with random [`AT_BOUND`] / [`PAST_BOUND`] keys.
fn extended(rng: &mut TestRng, chunk: &Chunk) -> Chunk {
    let extra = Schema::of(&[("at", Type::Int), ("past", Type::Int)]);
    let mut ch = Chunk { schema: chunk.schema.concat(&extra), ..chunk.clone() };
    let keys =
        |rng: &mut TestRng, n: usize| (0..ch.total).map(|_| rng.below(n as u64) as i64).collect();
    let (at, past) = (keys(rng, REGISTER_SLOTS), keys(rng, REGISTER_SLOTS + 1));
    for col in [at, past] {
        ch.cols.push(Column::I64(Arc::new(col)));
        ch.nulls.push(None);
    }
    ch
}

/// The layouts a coded group key comes in.
#[derive(Clone, Copy, Debug)]
enum KeyKind {
    Dict,
    DictPacked,
    I64,
    I64Packed,
    Date,
    DatePacked,
    Bool,
}

const KEY_KINDS: [KeyKind; 7] = [
    KeyKind::Dict,
    KeyKind::DictPacked,
    KeyKind::I64,
    KeyKind::I64Packed,
    KeyKind::Date,
    KeyKind::DatePacked,
    KeyKind::Bool,
];

/// A key column of `kind` over `total` rows with `card` values (a boolean
/// has two); the first rows take every value once, so a dictionary or a
/// packed frame of reference spans exactly `card` codes.
fn key_column(rng: &mut TestRng, kind: KeyKind, card: usize, total: usize) -> (Column, Type) {
    let draw =
        |rng: &mut TestRng, r: usize| if r < card { r } else { rng.below(card as u64) as usize };
    let offsets: Vec<usize> = (0..total).map(|r| draw(rng, r)).collect();
    let base = rng.below(2001) as i64 - 1000;
    let packed = |v: Vec<i64>| Arc::new(PackedInts::from_values(&v));
    match kind {
        KeyKind::Dict | KeyKind::DictPacked => {
            let words = offsets.iter().map(|&o| format!("v{o:03}")).collect();
            let col = Column::Str(Arc::new(words)).dict_encoded(DictKind::Normal);
            let col = match (kind, col) {
                (KeyKind::DictPacked, Column::Dict(codes, dict)) => {
                    Column::DictPacked(packed(codes.iter().map(|&c| c as i64).collect()), dict)
                }
                (_, col) => col,
            };
            (col, Type::Str)
        }
        KeyKind::I64 | KeyKind::I64Packed => {
            let v: Vec<i64> = offsets.iter().map(|&o| base + o as i64).collect();
            let col = match kind {
                KeyKind::I64 => Column::I64(Arc::new(v)),
                _ => Column::I64Packed(packed(v)),
            };
            (col, Type::Int)
        }
        KeyKind::Date | KeyKind::DatePacked => {
            let v: Vec<i32> = offsets.iter().map(|&o| 8000 + base as i32 + o as i32).collect();
            let col = match kind {
                KeyKind::Date => Column::Date(Arc::new(v)),
                _ => Column::DatePacked(packed(v.iter().map(|&d| d as i64).collect())),
            };
            (col, Type::Date)
        }
        KeyKind::Bool => {
            (Column::Bool(Arc::new(offsets.iter().map(|&o| o % 2 == 1).collect())), Type::Bool)
        }
    }
}

/// The integer code the key packing reads at physical row `p`.
fn key_code(col: &Column, p: usize) -> i64 {
    match col {
        Column::Dict(codes, _) => codes[p] as i64,
        Column::I64(v) => v[p],
        Column::Date(v) => v[p] as i64,
        Column::Bool(v) => v[p] as i64,
        Column::I64Packed(pk) | Column::DatePacked(pk) | Column::DictPacked(pk, _) => pk.get(p),
        _ => unreachable!("key columns are coded"),
    }
}

/// The span of a key's codes as the packing sees them: the dictionary, the
/// frame of reference, a boolean's two values, or the logical rows' codes.
fn key_width(chunk: &Chunk, c: usize) -> i64 {
    match &chunk.cols[c] {
        Column::Dict(_, dict) | Column::DictPacked(_, dict) => dict.len() as i64,
        Column::I64Packed(pk) | Column::DatePacked(pk) => pk.max() - pk.base() + 1,
        Column::Bool(_) => 2,
        col => {
            let codes = (0..chunk.len()).map(|i| key_code(col, chunk.phys(i)));
            codes.clone().max().map_or(1, |hi| hi - codes.min().unwrap() + 1)
        }
    }
}

/// The first physical row of every group, in first-occurrence order.
fn first_rows(chunk: &Chunk, group_by: &[usize]) -> Vec<u32> {
    let mut seen = std::collections::HashSet::new();
    (0..chunk.len())
        .filter(|&i| {
            seen.insert(
                group_by.iter().map(|&c| chunk.value_at(c, chunk.phys(i))).collect::<Vec<_>>(),
            )
        })
        .map(|i| chunk.phys(i) as u32)
        .collect()
}

/// A chunk of `keys` (kind, values) columns, then `x` (float) and `i`
/// (integer); `total` physical rows, an optional selection of about half.
fn keyed_chunk(rng: &mut TestRng, keys: &[(KeyKind, usize)], total: usize, select: bool) -> Chunk {
    let mut fields = Vec::new();
    let mut cols = Vec::new();
    for (k, &(kind, card)) in keys.iter().enumerate() {
        let (col, ty) = key_column(rng, kind, card, total);
        fields.push(legobase_storage::Field::new(&format!("k{k}"), ty));
        cols.push(col);
    }
    fields.push(legobase_storage::Field::new("x", Type::Float));
    cols.push(Column::F64(Arc::new(
        (0..total).map(|_| (rng.below(2_000_000) as f64 - 1_000_000.0) / 7.0).collect(),
    )));
    fields.push(legobase_storage::Field::new("i", Type::Int));
    cols.push(Column::I64(Arc::new((0..total).map(|_| rng.below(2001) as i64 - 1000).collect())));
    let sel = select.then(|| Arc::new((0..total as u32).filter(|_| rng.below(2) == 0).collect()));
    let nulls = vec![None; cols.len()];
    Chunk { schema: Schema::new(fields), cols, nulls, sel, total, base: None }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The keyed fold — a direct store of 2 to `REGISTER_SLOTS` slots, which
    /// buckets rows by packed key — against the per-row reference: random
    /// 1–3 key columns of every coded layout with padded domains on both
    /// sides of 64, unmasked, under a selection and under a random
    /// keep-mask, lanes beside aggregates of their own. Group order, each
    /// group's representative row and every output bit match at degree 1
    /// and 4, the packing takes bit fields exactly when the padded domain
    /// fits, and the fused probe answers each key's slot. A shape whose
    /// exact domain fits 64 but whose padded one does not (3 × 3 × 7) folds
    /// by key over the exact mixed radix.
    #[test]
    fn keyed_fold_equals_per_row_reference(seed in any::<u64>()) {
        let aggs = [
            AggSpec::new(AggKind::Sum, Expr::col(0), "sum_x"),
            AggSpec::new(AggKind::Avg, Expr::col(0), "avg_x"),
            AggSpec::new(AggKind::Count, Expr::lit(1i64), "count_star"),
            AggSpec::new(AggKind::Sum, Expr::col(1), "sum_i"),
            AggSpec::new(AggKind::Min, Expr::col(0), "min_x"),
        ];
        let opt = Config::OptC.settings();
        let lowered = opt.with(|s| s.code_motion = false);
        let cards = [1usize, 2, 3, 4, 5, 8, 9, 17, 33, 65];
        let mut rng = TestRng::from_seed(seed);
        let mut shapes: Vec<Vec<(KeyKind, usize)>> = vec![vec![
            (KeyKind::Dict, 3),
            (KeyKind::DictPacked, 3),
            (KeyKind::Dict, 7),
        ]];
        for _ in 0..12 {
            let n = 1 + rng.below(3) as usize;
            shapes.push(
                (0..n)
                    .map(|_| {
                        let kind = KEY_KINDS[rng.below(KEY_KINDS.len() as u64) as usize];
                        (kind, cards[rng.below(cards.len() as u64) as usize])
                    })
                    .collect(),
            );
        }
        for (s, shape) in shapes.iter().enumerate() {
            let group_by: Vec<usize> = (0..shape.len()).collect();
            // The aggregates read `x` and `i` behind the keys.
            let aggs: Vec<AggSpec> = aggs
                .iter()
                .map(|a| {
                    let Expr::Col(c) = a.expr else { return a.clone() };
                    AggSpec::new(a.kind.clone(), Expr::col(c + shape.len()), &a.name)
                })
                .collect();
            for total in [1, 1025, 2 * MORSEL_ROWS + 700] {
                for (mode, select) in [("all", false), ("selected", true), ("masked", false)] {
                    let chunk = keyed_chunk(&mut rng, shape, total, select);
                    let keep: Option<Vec<bool>> =
                        (mode == "masked").then(|| (0..total).map(|_| rng.below(3) != 0).collect());
                    let folded = match &keep {
                        Some(keep) => {
                            let ids = (0..total as u32).filter(|&r| keep[r as usize]).collect();
                            Chunk { sel: Some(Arc::new(ids)), ..chunk.clone() }
                        }
                        None => chunk.clone(),
                    };
                    let widths: Vec<i64> = group_by.iter().map(|&c| key_width(&chunk, c)).collect();
                    let padded: u32 =
                        widths.iter().map(|&w| u64::BITS - (w as u64 - 1).leading_zeros()).sum();
                    let exact: i64 = widths.iter().product();
                    let reprs_expected = first_rows(&folded, &group_by);
                    for settings in [opt, lowered] {
                        for degree in [1, 4] {
                            let settings = settings.with_parallelism(degree);
                            let case = format!(
                                "shape {s} {shape:?} rows {total} {mode} degree {degree} \
                                 motion {}", settings.code_motion
                            );
                            let morsel = if degree > 1 { MORSEL_ROWS } else { usize::MAX };
                            let expected = reference(&folded, &group_by, &aggs, morsel);
                            let fold = AggFold::compile(&aggs, &chunk, true);
                            let (resolver, reprs, got) =
                                fold_reprs(&settings, &chunk, &group_by, &fold, keep.as_deref());
                            prop_assert!(same(&got, &expected), "{case}:\n got {got:?}\n ref {expected:?}");
                            prop_assert_eq!(&reprs, &reprs_expected, "{}", case);
                            let bit_fields = 1usize << padded.min(63) <= REGISTER_SLOTS;
                            let domain = if bit_fields { 1 << padded } else { exact };
                            match &resolver {
                                GroupResolver::Direct { keys, .. } => {
                                    prop_assert!(settings.code_motion, "{}", case);
                                    prop_assert_eq!(keys.domain, domain, "{}", case);
                                    let registers = (domain <= REGISTER_SLOTS as i64).then_some(domain as usize);
                                    prop_assert_eq!(resolver.register_slots(), registers, "{}", case);
                                }
                                GroupResolver::Lowered { keys, .. } => {
                                    prop_assert!(!settings.code_motion, "{}", case);
                                    prop_assert_eq!(keys.domain, domain, "{}", case);
                                }
                                _ => prop_assert!(false, "{case}: {}", resolver_name(&resolver)),
                            }
                            if s == 0 && total > 1 {
                                prop_assert!(!bit_fields && domain == 63, "{}", case);
                            }
                            if let [c] = group_by[..] {
                                let col = &chunk.cols[c];
                                let codes: Vec<i64> = (0..total).map(|p| key_code(col, p)).collect();
                                let (lo, hi) = (codes.iter().min().unwrap(), codes.iter().max().unwrap());
                                for v in lo - 2..=hi + 2 {
                                    let slot = reprs
                                        .iter()
                                        .position(|&r| key_code(col, r as usize) == v)
                                        .map(|g| g as u32);
                                    prop_assert_eq!(resolver.lookup(v), slot, "{} key {}", case, v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
