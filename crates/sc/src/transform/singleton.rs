//! SingletonHashMapToValue (Section 3.2.2): an aggregation map whose every
//! update uses a constant key collapses to a single global slot (Q6).
use crate::ir::*;
use crate::rules::{rewrite_stmts, TransformCtx, Transformer};
use std::collections::HashMap;

// --------------------------------------------------------------------------
// SingletonHashMapToValue (Section 3.2.2)
// --------------------------------------------------------------------------

/// Collapses aggregation maps whose every update uses a constant key into
/// a single global slot (Section 3.2.2; Q6's `"Total"` key).
pub struct SingletonHashMapToValue;

impl Transformer for SingletonHashMapToValue {
    fn name(&self) -> &'static str {
        "SingletonHashMapToValue"
    }

    fn run(&self, prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        // An aggregation map whose every update uses a constant key is a
        // single global aggregate (e.g. Q6's key "Total").
        let mut constant_key: HashMap<Sym, bool> = HashMap::new();
        prog.walk(&mut |s| {
            if let Stmt::AggUpdate { map, key, .. } = s {
                let is_const = matches!(key, Expr::Int(_) | Expr::Str(_) | Expr::Bool(_));
                *constant_key.entry(*map).or_insert(true) &= is_const;
            }
        });
        rewrite_stmts(prog, &|s| match s {
            Stmt::AggMapNew { sym, key, naggs, store: AggStoreKind::GenericHashMap, hoisted }
                if constant_key.get(sym).copied().unwrap_or(false) =>
            {
                Some(vec![Stmt::AggMapNew {
                    sym: *sym,
                    key: key.clone(),
                    naggs: *naggs,
                    store: AggStoreKind::SingleValue,
                    hoisted: *hoisted,
                }])
            }
            _ => None,
        })
    }
}
