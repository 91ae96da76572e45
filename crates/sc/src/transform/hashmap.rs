//! HashMapLowering (Section 3.2.2, Fig. 11): generic hash maps become
//! native bucket arrays with intrusive chaining.
use crate::ir::*;
use crate::rules::{rewrite_stmts, TransformCtx, Transformer};

// --------------------------------------------------------------------------
// HashMapLowering (Section 3.2.2, Fig. 11)
// --------------------------------------------------------------------------

/// Lowers generic hash maps to native bucket arrays with intrusive
/// chaining (Section 3.2.2, Fig. 11 / Fig. 7e).
pub struct HashMapLowering;

impl Transformer for HashMapLowering {
    fn name(&self) -> &'static str {
        "HashMapLowering"
    }

    fn run(&self, prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        rewrite_stmts(prog, &|s| match s {
            Stmt::MultiMapNew { sym, .. } => Some(vec![Stmt::BucketArrayNew {
                sym: *sym,
                entry: "rec".into(),
                size_hint: SizeHint::Unknown,
                hoisted: false,
            }]),
            Stmt::MultiMapInsert { map, key, row } => {
                Some(vec![Stmt::BucketArrayInsert { arr: *map, key: key.clone(), row: *row }])
            }
            Stmt::MultiMapLookup { map, key, row, body } => Some(vec![Stmt::BucketArrayLookup {
                arr: *map,
                key: key.clone(),
                row: *row,
                body: body.clone(),
            }]),
            Stmt::AggMapNew { sym, key, naggs, store: AggStoreKind::GenericHashMap, hoisted } => {
                Some(vec![Stmt::AggMapNew {
                    sym: *sym,
                    key: key.clone(),
                    naggs: *naggs,
                    store: AggStoreKind::LoweredArray,
                    hoisted: *hoisted,
                }])
            }
            _ => None,
        })
    }
}
