//! Encode (DESIGN.md §3e): clears the base-table columns a query touches
//! for packed storage — frame-of-reference bit-packed integers and dates,
//! and bit-packed dictionary codes.
//!
//! Like `Parallelize`, this transformer is a pure decision pass: its
//! `decide` records which `(table, column)` pairs the loader should
//! re-encode after the partition/index/dictionary builds, and its IR pass
//! only adds a banner (the kernels already scan packed columns without
//! decompressing). Only
//! integer, date, and dictionary-coded string attributes are cleared —
//! floats, booleans, and raw strings always stay plain — and the loader's
//! profitability check ([`legobase_storage::Column::encode`]) may still
//! keep a cleared column plain when packing would not shrink it.
use super::plan_info::*;
use crate::ir::{Program, Stmt};
use crate::rules::{TransformCtx, Transformer};
use legobase_engine::expr::Expr as PExpr;
use legobase_engine::plan::Plan;
use legobase_engine::UnpackStrategy;
use legobase_storage::Type;
use std::collections::{HashMap, HashSet};

/// Clears touched Int/Date/dictionary base columns for packed storage.
pub struct Encode;

impl Transformer for Encode {
    fn name(&self) -> &'static str {
        "Encode"
    }

    fn decide(&self, ctx: &mut TransformCtx<'_>) {
        // ---- analysis: every base (table, column) the query reads, via the
        // same plan-level provenance the other decision passes use — split
        // into the three usage classes that price the scan side of the
        // representation (PR 10, DESIGN.md §3e):
        //
        // * `lit` — literal comparisons in selection predicates: kernels
        //   compare pre-encoded raw offsets and never decode at all;
        // * `pred` — predicate uses that need decoded values (column-vs-
        //   column comparisons, arithmetic, string-flag lookups);
        // * `heavy` — everything outside selection predicates (projections,
        //   join keys and residuals, aggregates, group/sort keys): the
        //   decoded values are read repeatedly downstream.
        let mut lit: HashSet<(&str, usize)> = HashSet::new();
        let mut pred: HashSet<(&str, usize)> = HashSet::new();
        let mut heavy: HashSet<(&str, usize)> = HashSet::new();
        let mut touched: Vec<(&str, usize)> = Vec::new();
        let mut scans: HashMap<&str, usize> = HashMap::new();
        walk_plans(ctx, |plan, inputs| match plan {
            Plan::Scan { table } if !table.starts_with('#') => {
                *scans.entry(table).or_insert(0) += 1;
            }
            Plan::Select { predicate, .. } => {
                collect_col_refs(predicate, &inputs[0], &mut touched);
                classify_pred(predicate, &inputs[0], &mut lit, &mut pred);
            }
            Plan::Project { exprs, .. } => {
                for (e, _) in exprs {
                    collect_col_refs(e, &inputs[0], &mut touched);
                    collect_into(e, &inputs[0], &mut heavy);
                }
            }
            Plan::HashJoin { left_keys, right_keys, residual, .. } => {
                let (l, r) = (&inputs[0], &inputs[1]);
                for &k in left_keys {
                    push_prov(l, k, &mut touched);
                    insert_prov(l, k, &mut heavy);
                }
                for &k in right_keys {
                    push_prov(r, k, &mut touched);
                    insert_prov(r, k, &mut heavy);
                }
                if let Some(res) = residual {
                    let p = [&l[..], &r[..]].concat();
                    collect_col_refs(res, &p, &mut touched);
                    collect_into(res, &p, &mut heavy);
                }
            }
            Plan::Agg { group_by, aggs, .. } => {
                let p = &inputs[0];
                for a in aggs {
                    collect_col_refs(&a.expr, p, &mut touched);
                    collect_into(&a.expr, p, &mut heavy);
                }
                for &g in group_by {
                    push_prov(p, g, &mut touched);
                    insert_prov(p, g, &mut heavy);
                }
            }
            Plan::Sort { keys, .. } => {
                for (k, _) in keys {
                    push_prov(&inputs[0], *k, &mut touched);
                    insert_prov(&inputs[0], *k, &mut heavy);
                }
            }
            _ => {}
        });

        // ---- decision: ints and dates pack directly; strings pack their
        // codes only when a dictionary decision exists (StringDictionary runs
        // earlier in the pipeline); everything else stays plain. Each cleared
        // column also gets the cheapest scan strategy that covers every one
        // of its uses (add_encoded_column_with downgrades toward safety when
        // a column shows up in several classes). The classes are final once
        // the walk is done, so a column is decided at its first use.
        let mut decided: HashSet<(&str, usize)> = HashSet::new();
        for key @ (t, c) in touched {
            if !decided.insert(key) {
                continue;
            }
            let ty = ctx.catalog.table(t).schema.ty(c);
            let encodable = matches!(ty, Type::Int | Type::Date)
                || (ty == Type::Str && ctx.spec.dict_kind(t, c).is_some());
            if !encodable {
                continue;
            }
            let multi_scan = scans.get(t).copied().unwrap_or(0) > 1;
            let strategy = if heavy.contains(&key) {
                UnpackStrategy::ScratchUnpack
            } else if pred.contains(&key) {
                // Decoded predicate values: dictionary-coded string tests
                // (ordering flags, LIKE, word sequences) index per-distinct
                // flags by the code — batch-unpacked per morsel in block
                // filters, a shift/mask per row elsewhere, never a string
                // decode — so they stay in the code domain. Int/date
                // predicates fuse the unpack into the filter on a singly
                // scanned table; a table scanned several times (Q21's
                // lineitem passes) keeps the column plain instead — see the
                // scratch-strategy pricing note below.
                if ty == Type::Str {
                    UnpackStrategy::WordCompare
                } else if multi_scan {
                    UnpackStrategy::ScratchUnpack
                } else {
                    UnpackStrategy::FusedUnpack
                }
            } else {
                UnpackStrategy::WordCompare
            };
            ctx.spec.add_encoded_column_with(t, c, strategy);
        }
    }

    fn run(&self, mut prog: Program, ctx: &TransformCtx<'_>) -> Program {
        let n = ctx.spec.encoded_columns.len();
        if n > 0 {
            // The banner lands in the generated C, like Parallelize's; the
            // per-strategy split documents the scan pricing (DESIGN.md
            // §3e). Every cleared column has exactly one recorded strategy.
            let count = |s: UnpackStrategy| {
                ctx.spec.unpack_strategies.values().filter(|&&u| u == s).count()
            };
            prog.stmts.insert(
                0,
                Stmt::Comment(format!(
                    "encoded column scan: {n} column(s) cleared ({} word-compare, {} fused-unpack, {} scratch-unpack/plain)",
                    count(UnpackStrategy::WordCompare),
                    count(UnpackStrategy::FusedUnpack),
                    count(UnpackStrategy::ScratchUnpack),
                )),
            );
        }
        prog
    }
}

/// Classifies the column references of a selection predicate: literal
/// comparisons (and pre-encodable membership/equality tests) go to `lit`,
/// everything else that reads a column goes to `pred`.
fn classify_pred<'q>(
    e: &PExpr,
    prov: &Prov<'q>,
    lit: &mut HashSet<(&'q str, usize)>,
    pred: &mut HashSet<(&'q str, usize)>,
) {
    match e {
        PExpr::And(a, b) | PExpr::Or(a, b) => {
            classify_pred(a, prov, lit, pred);
            classify_pred(b, prov, lit, pred);
        }
        PExpr::Not(a) => classify_pred(a, prov, lit, pred),
        PExpr::Cmp(_, a, b) => match (a.as_ref(), b.as_ref()) {
            (PExpr::Col(i), PExpr::Lit(_)) | (PExpr::Lit(_), PExpr::Col(i)) => {
                insert_prov(prov, *i, lit)
            }
            _ => {
                collect_into(a, prov, pred);
                collect_into(b, prov, pred);
            }
        },
        // Membership over a bare column pre-encodes the list into the frame
        // of reference (integers) or dictionary codes — no decode.
        PExpr::InList(a, _) if matches!(a.as_ref(), PExpr::Col(_)) => collect_into(a, prov, lit),
        _ => collect_into(e, prov, pred),
    }
}

fn insert_prov<'q>(prov: &Prov<'q>, idx: usize, out: &mut HashSet<(&'q str, usize)>) {
    if let Some(Some(base)) = prov.get(idx) {
        out.insert(*base);
    }
}

fn collect_into<'q>(e: &PExpr, prov: &Prov<'q>, out: &mut HashSet<(&'q str, usize)>) {
    let mut v = Vec::new();
    collect_col_refs(e, prov, &mut v);
    out.extend(v);
}

fn push_prov<'q>(prov: &Prov<'q>, idx: usize, out: &mut Vec<(&'q str, usize)>) {
    if let Some(Some(base)) = prov.get(idx) {
        out.push(*base);
    }
}

fn collect_col_refs<'q>(e: &PExpr, prov: &Prov<'q>, out: &mut Vec<(&'q str, usize)>) {
    match e {
        PExpr::Col(i) => push_prov(prov, *i, out),
        PExpr::Lit(_) => {}
        PExpr::Cmp(_, a, b) | PExpr::Arith(_, a, b) | PExpr::And(a, b) | PExpr::Or(a, b) => {
            collect_col_refs(a, prov, out);
            collect_col_refs(b, prov, out);
        }
        PExpr::Case(c, t, f) => {
            collect_col_refs(c, prov, out);
            collect_col_refs(t, prov, out);
            collect_col_refs(f, prov, out);
        }
        PExpr::Not(a)
        | PExpr::StartsWith(a, _)
        | PExpr::EndsWith(a, _)
        | PExpr::Contains(a, _)
        | PExpr::ContainsWordSeq(a, _, _)
        | PExpr::Substr(a, _, _)
        | PExpr::InList(a, _)
        | PExpr::IsNull(a)
        | PExpr::Year(a) => collect_col_refs(a, prov, out),
    }
}
