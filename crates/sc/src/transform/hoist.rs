//! HashMapHoisting + MallocHoisting (Section 3.5): allocations and
//! data-structure initialization move off the critical path into load
//! time.
use crate::ir::*;
use crate::rules::{rewrite_exprs, rewrite_stmts, TransformCtx, Transformer};

// --------------------------------------------------------------------------
// HashMapHoisting + MallocHoisting (Section 3.5)
// --------------------------------------------------------------------------

/// HashMapHoisting + MallocHoisting (Section 3.5): marks stores as
/// pool-backed and pre-initialized so allocation and initialization leave
/// the critical path.
pub struct CodeMotionHoisting;

impl Transformer for CodeMotionHoisting {
    fn name(&self) -> &'static str {
        "HashMapHoisting+MallocHoisting"
    }

    fn run(&self, prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        // Mark every remaining store as hoisted (pool pre-allocated at load
        // time, sized by worst-case analysis) and upgrade dense aggregation
        // stores to direct arrays with hoisted initialization.
        let prog = rewrite_stmts(prog, &|s| match s {
            Stmt::AggMapNew { sym, key, naggs, store, hoisted: false } => {
                let store = match store {
                    // A single provenance-tracked key can be pre-initialized
                    // over its domain (Section 3.5.2).
                    AggStoreKind::LoweredArray if key.table.is_some() => AggStoreKind::DirectArray,
                    other => *other,
                };
                Some(vec![Stmt::AggMapNew {
                    sym: *sym,
                    key: key.clone(),
                    naggs: *naggs,
                    store,
                    hoisted: true,
                }])
            }
            Stmt::BucketArrayNew { sym, entry, size_hint: _, hoisted: false } => {
                Some(vec![Stmt::BucketArrayNew {
                    sym: *sym,
                    entry: entry.clone(),
                    size_hint: SizeHint::Rows(0), // sized from statistics at load
                    hoisted: true,
                }])
            }
            _ => None,
        });
        // Malloc hoisting: record construction inside loops draws from the
        // pre-allocated pool instead of malloc.
        rewrite_exprs(prog, &|e| match e {
            Expr::Call(name, args) if name == "record" => {
                Some(Expr::Call("pool_record".into(), args.clone()))
            }
            _ => None,
        })
    }
}
