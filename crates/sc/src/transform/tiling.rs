//! LoopTiling (Section 3.6.3): the opt-in, *instructed* blocked-iteration
//! pass, demonstrating pipeline extension.
use crate::ir::*;
use crate::rules::{rewrite_stmts, TransformCtx, Transformer};

// --------------------------------------------------------------------------
// LoopTiling (Section 3.6.3) — opt-in, demonstrating pipeline extension
// --------------------------------------------------------------------------

/// Tiles base-table scans into fixed-size blocks ("the compiler can be
/// instructed to apply tiling to for loops whose range are known at compile
/// time"). Base-table sizes are known when the query is compiled (load
/// happens first), so every non-buffer `ScanLoop` qualifies. This pass is
/// not part of the default pipeline — it is the paper's example of an
/// *instructed* optimization, plugged in by the developer:
///
/// ```
/// use legobase_engine::Settings;
/// use legobase_sc::transform::LoopTiling;
/// use legobase_sc::Pipeline;
///
/// let settings = Settings::optimized();
/// let mut p = Pipeline::for_settings(&settings);
/// p.add(LoopTiling::default());
/// ```
pub struct LoopTiling {
    /// Block size (rows per tile).
    pub tile: usize,
}

impl Default for LoopTiling {
    fn default() -> Self {
        LoopTiling { tile: 1024 }
    }
}

impl Transformer for LoopTiling {
    fn name(&self) -> &'static str {
        "LoopTiling"
    }

    fn run(&self, prog: Program, ctx: &TransformCtx<'_>) -> Program {
        let tile = self.tile.max(1);
        rewrite_stmts(prog, &|s| match s {
            Stmt::ScanLoop { row, table, body } if ctx.catalog.get(table).is_some() => {
                Some(vec![Stmt::TiledScanLoop {
                    row: *row,
                    table: table.clone(),
                    tile,
                    body: body.clone(),
                }])
            }
            _ => None,
        })
    }
}
