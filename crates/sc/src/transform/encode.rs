//! Encode (DESIGN.md §3e): chooses the base-table columns a query reads
//! packed — frame-of-reference bit-packed integers and dates, and
//! bit-packed dictionary codes.
//!
//! This transformer is a pure decision pass: its `decide` records which
//! `(table, column)` pairs the loader takes packed, and its IR pass only
//! adds a banner (the kernels scan packed columns without decompressing).
//! Only integer, date, and dictionary-coded string attributes can pack —
//! floats, booleans, and raw strings always stay plain — and the loader's
//! profitability check ([`legobase_storage::Column::encode`]) may still
//! keep a chosen column plain when packing would not shrink it.
use super::plan_info::*;
use crate::ir::{Program, Stmt};
use crate::rules::{TransformCtx, Transformer};
use legobase_engine::expr::Expr as PExpr;
use legobase_engine::plan::Plan;
use legobase_storage::Type;
use std::collections::{HashMap, HashSet};

/// Packs the touched Int/Date/dictionary base columns no use reads decoded
/// values of repeatedly.
pub struct Encode;

impl Transformer for Encode {
    fn name(&self) -> &'static str {
        "Encode"
    }

    fn decide(&self, ctx: &mut TransformCtx<'_>) {
        // ---- analysis: every base (table, column) the query reads, via the
        // same plan-level provenance the other decision passes use — split
        // into the usage classes that price the scan side of the
        // representation (DESIGN.md §3e):
        //
        // * literal comparisons in selection predicates: kernels compare
        //   pre-encoded raw offsets and never decode at all;
        // * `pred` — predicate uses that need decoded values (column-vs-
        //   column comparisons, arithmetic, string-flag lookups);
        // * `heavy` — everything outside selection predicates (projections,
        //   join keys and residuals, aggregates, group/sort keys): the
        //   decoded values are read repeatedly downstream.
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
                classify_pred(predicate, &inputs[0], &mut pred);
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
        // earlier in the pipeline); everything else stays plain. A column
        // packs unless its decoded values dominate: a heavy use, or an
        // int/date predicate that needs decoded values on a table scanned
        // more than once (Q21's lineitem passes would each unpack the same
        // words). Dictionary-coded string predicates (ordering flags, LIKE,
        // word sequences) index per-distinct flags by the code, so they stay
        // in the code domain and pack.
        for key @ (t, c) in touched {
            let ty = ctx.catalog.table(t).schema.ty(c);
            let encodable = matches!(ty, Type::Int | Type::Date)
                || (ty == Type::Str && ctx.spec.dict_kind(t, c).is_some());
            let multi_scan = scans.get(t).copied().unwrap_or(0) > 1;
            let decoded =
                heavy.contains(&key) || (ty != Type::Str && multi_scan && pred.contains(&key));
            if encodable && !decoded {
                ctx.spec.add_packed_column(t, c);
            }
        }
    }

    fn run(&self, mut prog: Program, ctx: &TransformCtx<'_>) -> Program {
        let n = ctx.spec.packed_columns.len();
        if n > 0 {
            // The banner lands in the generated C.
            prog.stmts
                .insert(0, Stmt::Comment(format!("encoded column scan: {n} column(s) packed")));
        }
        prog
    }
}

/// Collects into `pred` the column references of a selection predicate
/// that need decoded values: everything but literal comparisons and
/// pre-encodable membership/equality tests.
fn classify_pred<'q>(e: &PExpr, prov: &Prov<'q>, pred: &mut HashSet<(&'q str, usize)>) {
    match e {
        PExpr::And(a, b) | PExpr::Or(a, b) => {
            classify_pred(a, prov, pred);
            classify_pred(b, prov, pred);
        }
        PExpr::Not(a) => classify_pred(a, prov, pred),
        PExpr::Cmp(_, a, b) => match (a.as_ref(), b.as_ref()) {
            (PExpr::Col(_), PExpr::Lit(_)) | (PExpr::Lit(_), PExpr::Col(_)) => {}
            _ => {
                collect_into(a, prov, pred);
                collect_into(b, prov, pred);
            }
        },
        // Membership over a bare column pre-encodes the list into the frame
        // of reference (integers) or dictionary codes — no decode.
        PExpr::InList(a, _) if matches!(a.as_ref(), PExpr::Col(_)) => {}
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
