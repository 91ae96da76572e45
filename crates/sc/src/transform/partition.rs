//! PartitioningAndDateIndices (Sections 3.2.1 and 3.2.3): lowers join
//! MultiMaps with annotated keys to load-time partition dereferences
//! (Fig. 10) and date-filtered scans to year-bucket loops (Fig. 12).
use super::plan_info::*;
use crate::ir::*;
use crate::rules::{rewrite_stmts, TransformCtx, Transformer};
use legobase_engine::expr::{CmpOp, Expr as PExpr};
use legobase_engine::plan::Plan;
use legobase_storage::Type;
use std::collections::HashMap;

// --------------------------------------------------------------------------
// PartitioningAndDateIndices (Section 3.2.1, 3.2.3)
// --------------------------------------------------------------------------

/// Data partitioning (Section 3.2.1, Fig. 10) and automatic date indices
/// (Section 3.2.3, Fig. 12): join MultiMaps keyed by annotated PK/FK
/// attributes become load-time partition dereferences; date-range-filtered
/// scans become year-bucket loops.
pub struct PartitioningAndDateIndices;

impl Transformer for PartitioningAndDateIndices {
    fn name(&self) -> &'static str {
        "PartitioningAndDateIndices"
    }

    fn run(&self, prog: Program, ctx: &mut TransformCtx<'_>) -> Program {
        // ---- analysis (plan level): which partitions to build at load time.
        let mut decisions: Vec<(String, usize, bool)> = Vec::new(); // (table, col, is_pk)
        let mut date_cols: Vec<(String, usize)> = Vec::new();
        walk_plans(ctx, |plan, _| {
            if let Plan::HashJoin { right, right_keys, .. } = plan {
                if right_keys.len() == 1 {
                    if let Some(table) = base_table(right) {
                        let meta = ctx.catalog.table(table);
                        let col = right_keys[0];
                        if meta.schema.ty(col) == Type::Int {
                            let is_single_pk =
                                meta.primary_key.len() == 1 && meta.primary_key[0] == col;
                            decisions.push((table.to_string(), col, is_single_pk));
                        }
                    }
                }
            }
            if let Plan::Select { input, predicate } = plan {
                if let Some(table) = base_table(input) {
                    if matches!(input.as_ref(), Plan::Scan { .. }) {
                        let schema = &ctx.catalog.table(table).schema;
                        for (i, c) in date_range_columns(predicate) {
                            let _ = i;
                            if schema.ty(c) == Type::Date {
                                date_cols.push((table.to_string(), c));
                            }
                        }
                    }
                }
            }
        });
        for (table, col, is_pk) in &decisions {
            if *is_pk {
                ctx.spec.add_pk_index(table, *col);
            } else {
                ctx.spec.add_fk_partition(table, *col);
            }
        }
        for (table, col) in &date_cols {
            ctx.spec.add_date_index(table, *col);
        }

        // ---- IR rewriting: lower MultiMaps with annotated keys to direct
        // partition dereferences (Fig. 10), and date-filtered scans to
        // year-bucket loops (Fig. 12).
        let mut partitioned_maps: HashMap<Sym, (String, String)> = HashMap::new();
        prog.walk(&mut |s| {
            if let Stmt::MultiMapNew { sym, key } = s {
                if let (Some(t), Some(c)) = (&key.table, &key.column) {
                    if ctx.catalog.get(t).is_some() {
                        partitioned_maps.insert(*sym, (t.clone(), c.clone()));
                    }
                }
            }
        });
        let prog = rewrite_stmts(prog, &|s| match s {
            Stmt::MultiMapNew { sym, .. } if partitioned_maps.contains_key(sym) => {
                Some(vec![Stmt::Comment("partition built at load time (Section 3.2.1)".into())])
            }
            Stmt::MultiMapInsert { map, .. } if partitioned_maps.contains_key(map) => Some(vec![]),
            Stmt::MultiMapLookup { map, key, row, body } => {
                partitioned_maps.get(map).map(|(t, c)| {
                    vec![Stmt::PartitionLookupLoop {
                        table: t.clone(),
                        column: c.clone(),
                        key: key.clone(),
                        row: *row,
                        body: body.clone(),
                    }]
                })
            }
            _ => None,
        });
        // Date-index loops.
        rewrite_stmts(prog, &|s| {
            let Stmt::ScanLoop { row, table, body } = s else { return None };
            if table.starts_with('#') || body.len() != 1 {
                return None;
            }
            let Stmt::If { cond, then_b, else_b } = &body[0] else { return None };
            if !else_b.is_empty() {
                return None;
            }
            let (col, lo, hi, rest) = extract_date_range(cond, *row)?;
            if !ctx.spec.has_date_index(table, ctx.catalog.table(table).schema.col(&col)) {
                return None;
            }
            let inner = if let Some(rest) = rest {
                vec![Stmt::If { cond: rest, then_b: then_b.clone(), else_b: vec![] }]
            } else {
                then_b.clone()
            };
            Some(vec![Stmt::DateIndexLoop {
                row: *row,
                table: table.clone(),
                column: col,
                lo,
                hi,
                body: inner,
            }])
        })
    }
}

/// Columns constrained by date-range comparisons in a plan predicate.
fn date_range_columns(predicate: &PExpr) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    fn rec(e: &PExpr, out: &mut Vec<(usize, usize)>) {
        match e {
            PExpr::And(a, b) => {
                rec(a, out);
                rec(b, out);
            }
            PExpr::Cmp(op, a, b) => {
                if matches!(op, CmpOp::Ge | CmpOp::Gt | CmpOp::Le | CmpOp::Lt) {
                    if let (PExpr::Col(c), PExpr::Lit(legobase_storage::Value::Date(_))) =
                        (a.as_ref(), b.as_ref())
                    {
                        out.push((0, *c));
                    }
                }
            }
            _ => {}
        }
    }
    rec(predicate, &mut out);
    out
}

/// Extracts `[lo, hi]` day bounds on a date field of `row` from an IR
/// condition, returning the column, bounds, and the residual condition.
fn extract_date_range(cond: &Expr, row: Sym) -> Option<(String, i32, i32, Option<Expr>)> {
    let mut conjuncts = Vec::new();
    fn split(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Bin(BinOp::And, a, b) = e {
            split(a, out);
            split(b, out);
        } else {
            out.push(e.clone());
        }
    }
    split(cond, &mut conjuncts);
    let mut col: Option<String> = None;
    let mut lo = i32::MIN / 2;
    let mut hi = i32::MAX / 2;
    let mut rest = Vec::new();
    for c in conjuncts {
        let mut captured = false;
        if let Expr::Bin(op, a, b) = &c {
            if let (Expr::Field(r, f), Expr::Date(d)) = (a.as_ref(), b.as_ref()) {
                if *r == row && (col.is_none() || col.as_deref() == Some(f.as_str())) {
                    match op {
                        BinOp::Ge => {
                            col = Some(f.clone());
                            lo = lo.max(*d);
                            captured = true;
                        }
                        BinOp::Gt => {
                            col = Some(f.clone());
                            lo = lo.max(*d + 1);
                            captured = true;
                        }
                        BinOp::Le => {
                            col = Some(f.clone());
                            hi = hi.min(*d);
                            captured = true;
                        }
                        BinOp::Lt => {
                            col = Some(f.clone());
                            hi = hi.min(*d - 1);
                            captured = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        if !captured {
            rest.push(c);
        }
    }
    let col = col?;
    let rest = if rest.is_empty() { None } else { Some(Expr::conj(rest)) };
    Some((col, lo, hi, rest))
}
