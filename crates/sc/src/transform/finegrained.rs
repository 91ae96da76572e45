//! Fine-grained optimizations (Section 3.6.3): `x && y → x & y` when both
//! operands are cheap and pure.
use crate::ir::*;
use crate::rules::{rewrite_exprs, TransformCtx, Transformer};

// --------------------------------------------------------------------------
// Fine-grained optimizations (Section 3.6.3)
// --------------------------------------------------------------------------

/// The fine-grained `x && y → x & y` rewrite (Section 3.6.3): improves
/// branch prediction when both operands are pure and cheap.
pub struct FineGrained;

impl Transformer for FineGrained {
    fn name(&self) -> &'static str {
        "FineGrained(&&→&)"
    }

    fn run(&self, prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        // `x && y → x & y` when the right operand is pure and cheap (no
        // string loop, no call): improves branch prediction.
        rewrite_exprs(prog, &|e| match e {
            Expr::Bin(BinOp::And, a, b) if cheap_bool(a) && cheap_bool(b) => {
                Some(Expr::bin(BinOp::BitAnd, a.as_ref().clone(), b.as_ref().clone()))
            }
            _ => None,
        })
    }
}

fn cheap_bool(e: &Expr) -> bool {
    match e {
        Expr::Bin(op, a, b) if op.is_comparison() => a.is_pure() && b.is_pure(),
        Expr::Bin(BinOp::BitAnd, a, b) => cheap_bool(a) && cheap_bool(b),
        Expr::DictOp { .. } => true,
        Expr::Bool(_) => true,
        _ => false,
    }
}
