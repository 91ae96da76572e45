//! ScalaToCLowering — the final validation/lowering marker (Section 2.3).
use crate::ir::*;
use crate::rules::{TransformCtx, Transformer};

// --------------------------------------------------------------------------
// ScalaToCLowering — the final validation/lowering marker (Section 2.3)
// --------------------------------------------------------------------------

/// The explicit boundary after which code generation runs (Section 2.3):
/// every surviving construct has a one-to-one C rendering.
pub struct ScalaToCLowering;

impl Transformer for ScalaToCLowering {
    fn name(&self) -> &'static str {
        "ScalaToCLowering"
    }

    fn run(&self, prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        // All remaining constructs have a one-to-one C rendering; this pass
        // is the explicit boundary after which the code generator runs
        // ("generation of the final code becomes a trivial and naive
        // stringification", Section 2.3).
        prog
    }
}
