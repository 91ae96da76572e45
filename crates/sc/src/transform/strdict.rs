//! StringDictionary (Section 3.4, Table II): string operations become
//! integer operations through per-attribute dictionaries.
use super::plan_info::*;
use crate::ir::*;
use crate::rules::{rewrite_exprs, TransformCtx, Transformer};
use legobase_engine::expr::{CmpOp, Expr as PExpr};
use legobase_engine::plan::Plan;
use legobase_storage::{DictKind, Type};

// --------------------------------------------------------------------------
// StringDictionary (Section 3.4, Table II)
// --------------------------------------------------------------------------

/// String-dictionary lowering (Section 3.4, Table II): decides a
/// dictionary kind per string attribute and rewrites string operations to
/// integer operations on codes.
pub struct StringDictionary;

impl Transformer for StringDictionary {
    fn name(&self) -> &'static str {
        "StringDictionary"
    }

    fn run(&self, prog: Program, ctx: &mut TransformCtx<'_>) -> Program {
        // ---- analysis: find string operations over base attributes and
        // string-typed group keys; decide dictionary kinds.
        let mut dicts: Vec<(&str, usize, DictKind)> = Vec::new();
        let catalog = ctx.catalog;
        walk_plans(ctx, |plan, inputs| {
            let out = &mut dicts;
            match plan {
                Plan::Select { predicate, .. } => collect_string_ops(predicate, &inputs[0], out),
                Plan::Project { exprs, .. } => {
                    for (e, _) in exprs {
                        collect_string_ops(e, &inputs[0], out);
                    }
                }
                // Residuals of every join kind see the concatenated schema.
                Plan::HashJoin { residual: Some(r), .. } => {
                    collect_string_ops(r, &[&inputs[0][..], &inputs[1][..]].concat(), out)
                }
                Plan::Agg { group_by, aggs, .. } => {
                    let p = &inputs[0];
                    for a in aggs {
                        collect_string_ops(&a.expr, p, out);
                    }
                    // String-typed group keys become dictionary codes so the
                    // executor can pack them (Q1's return flag / line status).
                    for &g in group_by {
                        if let Some((t, c)) = p[g] {
                            if catalog.table(t).schema.ty(c) == Type::Str {
                                out.push((t, c, DictKind::Normal));
                            }
                        }
                    }
                }
                _ => {}
            }
        });
        for (t, c, k) in dicts {
            ctx.spec.add_dictionary(t, c, k);
        }

        // ---- IR rewriting: string ops become integer ops (Table II).
        rewrite_exprs(prog, &|e| match e {
            Expr::StrOp(op, arg, lit) => {
                Some(Expr::DictOp { op: *op, code: arg.clone(), lit: lit.clone() })
            }
            _ => None,
        })
    }
}

fn collect_string_ops<'q>(e: &PExpr, prov: &Prov<'q>, out: &mut Vec<(&'q str, usize, DictKind)>) {
    let mut record = |inner: &PExpr, kind: DictKind| {
        if let PExpr::Col(i) = inner {
            if let Some(Some((t, c))) = prov.get(*i) {
                out.push((t, *c, kind));
            }
        }
    };
    match e {
        PExpr::Cmp(op, a, b) => {
            if let PExpr::Lit(legobase_storage::Value::Str(_)) = b.as_ref() {
                let kind = match op {
                    CmpOp::Eq | CmpOp::Ne => DictKind::Normal,
                    _ => DictKind::Ordered,
                };
                record(a, kind);
            }
            collect_string_ops(a, prov, out);
            collect_string_ops(b, prov, out);
        }
        PExpr::StartsWith(a, _) | PExpr::EndsWith(a, _) => {
            record(a, DictKind::Ordered);
            collect_string_ops(a, prov, out);
        }
        PExpr::Contains(a, _) => {
            record(a, DictKind::Normal);
            collect_string_ops(a, prov, out);
        }
        PExpr::ContainsWordSeq(a, _, _) => {
            record(a, DictKind::WordToken);
            collect_string_ops(a, prov, out);
        }
        PExpr::InList(a, vals) => {
            if vals.iter().any(|v| matches!(v, legobase_storage::Value::Str(_))) {
                record(a, DictKind::Normal);
            }
            collect_string_ops(a, prov, out);
        }
        PExpr::And(a, b) | PExpr::Or(a, b) | PExpr::Arith(_, a, b) => {
            collect_string_ops(a, prov, out);
            collect_string_ops(b, prov, out);
        }
        PExpr::Case(c, t, f) => {
            collect_string_ops(c, prov, out);
            collect_string_ops(t, prov, out);
            collect_string_ops(f, prov, out);
        }
        PExpr::Not(a) | PExpr::Substr(a, _, _) | PExpr::IsNull(a) | PExpr::Year(a) => {
            collect_string_ops(a, prov, out);
        }
        _ => {}
    }
}
