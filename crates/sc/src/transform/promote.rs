//! FieldPromotion — "Flattening Nested Structs" / parameter promotion on
//! records (Table IV; Section 3.6.2): repeatedly-read row fields become
//! locals loaded once per iteration.
use crate::ir::*;
use crate::rules::{walk_mut, TransformCtx, Transformer};
use legobase_storage::Type;
use std::collections::HashMap;

// --------------------------------------------------------------------------
// FieldPromotion — "Flattening Nested Structs" / parameter promotion on
// records (Table IV; Section 3.6.2)
// --------------------------------------------------------------------------

/// Promotes repeatedly-accessed row fields to local variables: a field of a
/// loop row that is read two or more times inside the loop body is loaded
/// once into a local at the top of the body, and every use refers to the
/// local. This is the record flavor of the paper's parameter promotion: the
/// struct access (one memory dereference per use) is flattened to a local
/// variable the C compiler can keep in a register.
pub struct FieldPromotion;

impl Transformer for FieldPromotion {
    fn name(&self) -> &'static str {
        "FieldPromotion"
    }

    fn run(&self, mut prog: Program, ctx: &mut TransformCtx<'_>) -> Program {
        promote_block(&mut prog.stmts, ctx.catalog, &mut prog.next_sym);
        prog
    }
}

fn promote_block(stmts: &mut [Stmt], catalog: &legobase_storage::Catalog, next: &mut u32) {
    for s in stmts {
        for body in s.bodies_mut() {
            promote_block(body, catalog, next);
        }
        promote_loop(s, catalog, next);
    }
}

/// Promotes the repeatedly read fields of one loop's row; loops binding a
/// base-table row are the promotion sites.
fn promote_loop(s: &mut Stmt, catalog: &legobase_storage::Catalog, next: &mut u32) {
    let (row, table, body) = match s {
        Stmt::ScanLoop { row, table, body }
        | Stmt::TiledScanLoop { row, table, body, .. }
        | Stmt::DateIndexLoop { row, table, body, .. }
        | Stmt::PartitionLookupLoop { row, table, body, .. } => (*row, &*table, body),
        _ => return,
    };
    let Some(meta) = catalog.get(table) else { return };
    // Count field reads of this row in the whole body (both the row-layout
    // `Field` form and the columnar `ColumnLoad` form, remembering which form
    // the body uses so the hoisted load keeps the same layout).
    let mut counts: HashMap<String, (usize, bool)> = HashMap::new();
    for st in body.iter() {
        count_field_reads(st, row, &mut counts);
    }
    // Number the candidates in field order, not in `HashMap` order: the
    // symbols land in the IR and the C text.
    let mut candidates: Vec<(String, bool)> = counts
        .into_iter()
        .filter(|(field, (n, _))| *n >= 2 && meta.schema.index_of(field).is_some())
        .map(|(field, (_, columnar))| (field, columnar))
        .collect();
    if candidates.is_empty() {
        return;
    }
    candidates.sort();
    let mut vars = Vec::with_capacity(candidates.len());
    let mut renames: Vec<(String, Sym)> = Vec::with_capacity(candidates.len());
    for (field, columnar) in candidates {
        let sym = Sym(*next);
        *next += 1;
        let i = meta.schema.index_of(&field).expect("checked above");
        let ty = match meta.schema.ty(i) {
            Type::Int => crate::ir::Ty::I64,
            Type::Float => crate::ir::Ty::F64,
            // Columnar string vectors hold dictionary codes (integers) by
            // this stage; row-layout strings stay pointers.
            Type::Str if columnar => crate::ir::Ty::I64,
            Type::Str => crate::ir::Ty::Str,
            Type::Date => crate::ir::Ty::Date,
            Type::Bool => crate::ir::Ty::Bool,
        };
        let init = if columnar {
            Expr::ColumnLoad { table: table.clone(), column: field.clone(), idx: row }
        } else {
            Expr::Field(row, field.clone())
        };
        // `Var`, not `Let`: scalar replacement substitutes trivial `Let`s
        // back into their uses, which would undo the promotion.
        vars.push(Stmt::Var { sym, ty, init });
        renames.push((field, sym));
    }
    walk_mut(body, &mut |st| {
        st.exprs_mut(&mut |e| {
            e.rewrite(&|e| {
                let field = match e {
                    Expr::Field(r, f) if *r == row => f,
                    Expr::ColumnLoad { idx, column, .. } if *idx == row => column,
                    _ => return None,
                };
                renames.iter().find(|(f, _)| f == field).map(|(_, sym)| Expr::Sym(*sym))
            })
        })
    });
    body.splice(0..0, vars);
}

fn count_field_reads(s: &Stmt, row: Sym, counts: &mut HashMap<String, (usize, bool)>) {
    s.exprs(&mut |e| {
        e.visit(&mut |x| match x {
            Expr::Field(r, f) if *r == row => counts.entry(f.clone()).or_default().0 += 1,
            Expr::ColumnLoad { column, idx, .. } if *idx == row => {
                let entry = counts.entry(column.clone()).or_default();
                entry.0 += 1;
                entry.1 = true;
            }
            _ => {}
        });
    });
    for b in s.bodies() {
        for st in b {
            count_field_reads(st, row, counts);
        }
    }
}
