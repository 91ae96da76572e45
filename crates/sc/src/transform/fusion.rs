//! HorizontalFusion (Table IV; footnote 18): adjacent loops over the same
//! range fuse into one loop when their bodies are independent.
use crate::ir::*;
use crate::rules::{walk_mut, TransformCtx, Transformer};
use std::mem;

// --------------------------------------------------------------------------
// HorizontalFusion (Table IV; footnote 18)
// --------------------------------------------------------------------------

/// Fuses adjacent loops that iterate the same range into one loop
/// ("horizontal loop fusion, in which different loops iterating over the
/// same range are fused into one loop", footnote 18). Two adjacent
/// `ScanLoop`s over the same relation — or two `DateIndexLoop`s over the
/// same index with identical bounds — are merged when their bodies are
/// independent: neither body reads or writes scalar state or collections
/// the other writes, and at most one of them emits result tuples (so the
/// output order is preserved).
pub struct HorizontalFusion;

impl Transformer for HorizontalFusion {
    fn name(&self) -> &'static str {
        "HorizontalFusion"
    }

    fn run(&self, prog: Program, _ctx: &TransformCtx<'_>) -> Program {
        horizontal_fuse(prog)
    }
}

/// The fusion pass as a plain function (it is purely structural and needs no
/// compilation context) — used by the semantics property tests.
pub fn horizontal_fuse(mut prog: Program) -> Program {
    fuse_block(&mut prog.stmts);
    prog
}

fn fuse_block(stmts: &mut Vec<Stmt>) {
    // Bottom-up: fuse inside nested bodies first, then adjacent siblings.
    for s in stmts.iter_mut() {
        for body in s.bodies_mut() {
            fuse_block(body);
        }
    }
    let mut i = 0;
    while i + 1 < stmts.len() {
        if can_fuse(&stmts[i], &stmts[i + 1]) {
            let mut second = stmts.remove(i + 1);
            let (from, body) = loop_parts(&mut second).expect("can_fuse matched a loop");
            let mut moved = mem::take(body);
            let (to, fused) = loop_parts(&mut stmts[i]).expect("can_fuse matched a loop");
            subst_sym(&mut moved, from, to);
            fused.append(&mut moved);
            // Stay at i: the fused loop may merge with the next one too.
        } else {
            i += 1;
        }
    }
}

/// True when `a` and `b` are loops over the same range with independent
/// bodies.
fn can_fuse(a: &Stmt, b: &Stmt) -> bool {
    let same_range = match (a, b) {
        (Stmt::ScanLoop { table: t1, .. }, Stmt::ScanLoop { table: t2, .. }) => t1 == t2,
        (
            Stmt::DateIndexLoop { table: t1, column: c1, lo: l1, hi: h1, .. },
            Stmt::DateIndexLoop { table: t2, column: c2, lo: l2, hi: h2, .. },
        ) => t1 == t2 && c1 == c2 && l1 == l2 && h1 == h2,
        _ => false,
    };
    let effects = |s: &Stmt| body_effects(s.bodies().next().expect("a loop has a body"));
    same_range && fusable(&effects(a), &effects(b))
}

/// The row binder and body of a loop this pass fuses.
fn loop_parts(s: &mut Stmt) -> Option<(Sym, &mut Vec<Stmt>)> {
    match s {
        Stmt::ScanLoop { row, body, .. } | Stmt::DateIndexLoop { row, body, .. } => {
            Some((*row, body))
        }
        _ => None,
    }
}

/// Read/write footprint of a loop body, used as the fusion safety check.
#[derive(Default)]
struct Effects {
    /// Scalar symbols read (free uses; locally-bound symbols are unique
    /// program-wide so cross-body aliasing through locals is impossible).
    reads: Vec<Sym>,
    /// Scalar symbols assigned.
    writes: Vec<Sym>,
    /// Collections probed.
    map_reads: Vec<Sym>,
    /// Collections inserted into / updated.
    map_writes: Vec<Sym>,
    /// Emits result tuples (or sorts/limits the emit buffer).
    emits: bool,
    /// Contains an opaque call — treated as arbitrary effects.
    opaque: bool,
}

fn body_effects(stmts: &[Stmt]) -> Effects {
    fn rec(stmts: &[Stmt], e: &mut Effects) {
        for s in stmts {
            s.exprs(&mut |x| {
                x.syms(&mut e.reads);
                x.visit(&mut |sub| e.opaque |= matches!(sub, Expr::Call(..)));
            });
            match s {
                Stmt::Assign { sym, .. } => e.writes.push(*sym),
                Stmt::MultiMapInsert { map, row, .. }
                | Stmt::BucketArrayInsert { arr: map, row, .. } => {
                    e.map_writes.push(*map);
                    e.reads.push(*row);
                }
                Stmt::AggUpdate { map, .. } => e.map_writes.push(*map),
                Stmt::MultiMapLookup { map, .. }
                | Stmt::BucketArrayLookup { arr: map, .. }
                | Stmt::AggForeach { map, .. } => e.map_reads.push(*map),
                Stmt::Emit { .. } | Stmt::SortEmitted { .. } | Stmt::LimitEmitted { .. } => {
                    e.emits = true
                }
                // Partitions are load-time data: immutable.
                Stmt::Comment(_)
                | Stmt::Let { .. }
                | Stmt::Var { .. }
                | Stmt::If { .. }
                | Stmt::ScanLoop { .. }
                | Stmt::TiledScanLoop { .. }
                | Stmt::DateIndexLoop { .. }
                | Stmt::PartitionLookupLoop { .. }
                | Stmt::MultiMapNew { .. }
                | Stmt::BucketArrayNew { .. }
                | Stmt::AggMapNew { .. } => {}
            }
            for b in s.bodies() {
                rec(b, e);
            }
        }
    }
    let mut e = Effects::default();
    rec(stmts, &mut e);
    e
}

fn fusable(a: &Effects, b: &Effects) -> bool {
    let disjoint = |x: &[Sym], y: &[Sym]| x.iter().all(|s| !y.contains(s));
    if a.opaque || b.opaque || (a.emits && b.emits) {
        return false;
    }
    disjoint(&a.writes, &b.reads)
        && disjoint(&b.writes, &a.reads)
        && disjoint(&a.writes, &b.writes)
        && disjoint(&a.map_writes, &b.map_reads)
        && disjoint(&b.map_writes, &a.map_reads)
        && disjoint(&a.map_writes, &b.map_writes)
}

/// Renames every free use of `from` to `to` in a statement list (loop-row
/// substitution for fusion). Binders are never renamed: symbols are unique
/// program-wide, so `from` cannot be re-bound inside `stmts`.
fn subst_sym(stmts: &mut [Stmt], from: Sym, to: Sym) {
    walk_mut(stmts, &mut |s| {
        s.exprs_mut(&mut |e| {
            e.rewrite(&|e| match e {
                Expr::Sym(x) if *x == from => Some(Expr::Sym(to)),
                Expr::Field(x, f) if *x == from => Some(Expr::Field(to, f.clone())),
                Expr::ColumnLoad { table, column, idx } if *idx == from => {
                    Some(Expr::ColumnLoad { table: table.clone(), column: column.clone(), idx: to })
                }
                _ => None,
            })
        });
        // Row-valued statement operands are symbols outside expressions.
        match s {
            Stmt::MultiMapInsert { row, .. } | Stmt::BucketArrayInsert { row, .. }
                if *row == from =>
            {
                *row = to;
            }
            _ => {}
        }
    });
}
