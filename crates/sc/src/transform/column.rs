//! ColumnStore (Section 3.3) + unused-field removal (Section 3.6.1):
//! array-of-records becomes record-of-arrays; unreferenced attributes are
//! never loaded.
use crate::ir::*;
use crate::rules::{TransformCtx, Transformer};

// --------------------------------------------------------------------------
// ColumnStore (Section 3.3) + unused-field removal (Section 3.6.1)
// --------------------------------------------------------------------------

/// Row→column layout change (Section 3.3, Fig. 13) plus unused-field
/// removal (Section 3.6.1): field accesses on base rows become direct
/// column-vector loads, and unreferenced attributes are never loaded.
pub struct ColumnStore;

impl Transformer for ColumnStore {
    fn name(&self) -> &'static str {
        "ColumnStore"
    }

    fn decide(&self, ctx: &mut TransformCtx<'_>) {
        // ---- analysis: referenced attributes per base table (the same
        // analysis powers unused-field removal).
        let used = legobase_engine::plan::used_base_columns(ctx.query, &|t: &str| {
            ctx.catalog.table(t).schema.len()
        });
        for (table, cols) in used {
            ctx.spec.used_columns.entry(table).or_default().extend(cols.iter().copied());
        }
        for cols in ctx.spec.used_columns.values_mut() {
            cols.sort_unstable();
            cols.dedup();
        }
    }

    fn run(&self, mut prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        // ---- IR rewriting: row-field access on base rows becomes a direct
        // column-vector load (array of records → record of arrays, Fig. 13).
        // `env` is a stack of the base-row binders in scope: a loop's row is
        // visible to its own expressions, its body, and its later siblings,
        // and leaves scope with the enclosing block.
        fn rewrite_with_env(stmts: &mut [Stmt], env: &mut Vec<(Sym, String)>) {
            let scope = env.len();
            for s in stmts {
                match s {
                    Stmt::ScanLoop { row, table, .. } if !table.starts_with('#') => {
                        env.push((*row, table.clone()))
                    }
                    Stmt::DateIndexLoop { row, table, .. }
                    | Stmt::PartitionLookupLoop { row, table, .. } => {
                        env.push((*row, table.clone()))
                    }
                    _ => {}
                }
                for body in s.bodies_mut() {
                    rewrite_with_env(body, env);
                }
                let env = &*env;
                s.exprs_mut(&mut |e| {
                    e.rewrite(&|e| match e {
                        Expr::Field(r, f) => {
                            env.iter().rev().find(|(bound, _)| bound == r).map(|(_, t)| {
                                Expr::ColumnLoad { table: t.clone(), column: f.clone(), idx: *r }
                            })
                        }
                        _ => None,
                    })
                });
            }
            env.truncate(scope);
        }
        rewrite_with_env(&mut prog.stmts, &mut Vec::new());
        prog
    }
}
