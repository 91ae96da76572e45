//! ParamPromDCEAndPartiallyEvaluate — the cleanup pass re-run after every
//! domain-specific phase (Fig. 5b): partial evaluation, CSE, scalar
//! replacement (parameter promotion), and dead code elimination
//! (Sections 3.6.2–3.6.3).
use crate::ir::*;
use crate::rules::{rewrite_exprs, rewrite_stmts, TransformCtx, Transformer};
use legobase_storage::Date;
use std::collections::{HashMap, HashSet};

// --------------------------------------------------------------------------
// ParamPromDCEAndPartiallyEvaluate — the cleanup pass re-run after every
// domain-specific phase (Fig. 5b).
// --------------------------------------------------------------------------

/// Partial evaluation + scalar replacement (parameter promotion) + dead code
/// elimination (Sections 3.6.2–3.6.3).
pub struct Cleanup;

impl Transformer for Cleanup {
    fn name(&self) -> &'static str {
        "ParamPromDCEAndPartiallyEvaluate"
    }

    fn run(&self, mut prog: Program, _ctx: &mut TransformCtx<'_>) -> Program {
        for _ in 0..4 {
            let before = prog.size();
            prog = constant_fold(prog);
            prog = common_subexpression_eliminate(prog);
            prog = scalar_replace(prog);
            prog = dead_code_eliminate(prog);
            if prog.size() == before {
                break;
            }
        }
        prog
    }
}

/// Common subexpression elimination: the paper's motivating example shares
/// `1 - S.B` between aggregation expressions once the whole engine is
/// compiled together (Fig. 2). Within each block (and its nested bodies,
/// which inherit the available expressions), a pure non-trivial expression
/// bound by a `Let` replaces later occurrences of the same expression.
/// Mutation of any symbol an expression reads invalidates its cache entry.
pub fn common_subexpression_eliminate(mut prog: Program) -> Program {
    cse_block(&mut prog.stmts, &mut Vec::new());
    prog
}

/// True for expressions worth caching: pure, non-leaf, and loop-free cost.
fn cse_candidate(e: &Expr) -> bool {
    e.is_pure() && matches!(e, Expr::Bin(..) | Expr::Not(_) | Expr::YearOf(_)) && {
        let mut syms = Vec::new();
        e.syms(&mut syms);
        !syms.is_empty() // constant expressions are the folder's job
    }
}

fn cse_block(stmts: &mut [Stmt], available: &mut Vec<(Expr, Sym)>) {
    for s in stmts {
        // Substitute already-available expressions in this statement. Only
        // candidate-shaped nodes can equal a cached expression.
        let avail = &*available;
        s.exprs_mut(&mut |e| {
            e.rewrite(&|e| {
                if !matches!(e, Expr::Bin(..) | Expr::Not(_) | Expr::YearOf(_)) {
                    return None;
                }
                avail.iter().find(|(cached, _)| cached == e).map(|(_, sym)| Expr::Sym(*sym))
            })
        });
        // Recurse into bodies with an inherited (branch-local) table.
        for body in s.bodies_mut() {
            cse_block(body, &mut available.clone());
        }
        // Record new definitions / invalidate on mutation.
        match s {
            Stmt::Let { sym, value, .. } if cse_candidate(value) => {
                available.push((value.clone(), *sym));
            }
            Stmt::Assign { sym, .. } | Stmt::Var { sym, .. } => {
                // Any cached expression reading the mutated symbol is stale.
                let dead = *sym;
                let mut syms = Vec::new();
                available.retain(|(e, s2)| {
                    syms.clear();
                    e.syms(&mut syms);
                    !syms.contains(&dead) && *s2 != dead
                });
            }
            _ => {}
        }
    }
}

/// Folds constant sub-expressions (partial evaluation).
pub fn constant_fold(prog: Program) -> Program {
    let prog = rewrite_exprs(prog, &fold_expr);
    // If-with-constant-condition simplification.
    rewrite_stmts(prog, &|s| match s {
        Stmt::If { cond: Expr::Bool(true), then_b, .. } => Some(then_b.clone()),
        Stmt::If { cond: Expr::Bool(false), else_b, .. } => Some(else_b.clone()),
        Stmt::If { cond, then_b, else_b }
            if then_b.is_empty() && else_b.is_empty() && cond.is_pure() =>
        {
            Some(vec![])
        }
        _ => None,
    })
}

fn fold_expr(e: &Expr) -> Option<Expr> {
    use BinOp::*;
    match e {
        Expr::Bin(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Int(x), Expr::Int(y)) => Some(match op {
                Add => Expr::Int(x + y),
                Sub => Expr::Int(x - y),
                Mul => Expr::Int(x * y),
                Div if *y != 0 => Expr::Int(x / y),
                Div => return None,
                Eq => Expr::Bool(x == y),
                Ne => Expr::Bool(x != y),
                Lt => Expr::Bool(x < y),
                Le => Expr::Bool(x <= y),
                Gt => Expr::Bool(x > y),
                Ge => Expr::Bool(x >= y),
                And | Or | BitAnd => return None,
            }),
            (Expr::Float(x), Expr::Float(y)) => Some(match op {
                Add => Expr::Float(x + y),
                Sub => Expr::Float(x - y),
                Mul => Expr::Float(x * y),
                Div => Expr::Float(x / y),
                Eq => Expr::Bool(x == y),
                Ne => Expr::Bool(x != y),
                Lt => Expr::Bool(x < y),
                Le => Expr::Bool(x <= y),
                Gt => Expr::Bool(x > y),
                Ge => Expr::Bool(x >= y),
                And | Or | BitAnd => return None,
            }),
            // Boolean identities only apply to boolean-typed operands: the
            // evaluator coerces non-boolean operands of And/Or by truthiness,
            // so `x && true → x` would change the result type otherwise.
            (Expr::Bool(x), rhs) if *op == And && produces_bool(rhs) => {
                Some(if *x { rhs.clone() } else { Expr::Bool(false) })
            }
            (lhs, Expr::Bool(y)) if *op == And && produces_bool(lhs) => {
                Some(if *y { lhs.clone() } else { Expr::Bool(false) })
            }
            (Expr::Bool(x), rhs) if *op == Or && produces_bool(rhs) => {
                Some(if *x { Expr::Bool(true) } else { rhs.clone() })
            }
            (lhs, Expr::Bool(y)) if *op == Or && produces_bool(lhs) => {
                Some(if *y { Expr::Bool(true) } else { lhs.clone() })
            }
            _ => None,
        },
        Expr::Not(a) => match a.as_ref() {
            Expr::Bool(b) => Some(Expr::Bool(!b)),
            Expr::Not(inner) => Some(inner.as_ref().clone()),
            _ => None,
        },
        Expr::YearOf(a) => match a.as_ref() {
            Expr::Date(d) => Some(Expr::Int(Date(*d).year() as i64)),
            _ => None,
        },
        _ => None,
    }
}

/// True when an expression statically produces a boolean.
fn produces_bool(e: &Expr) -> bool {
    match e {
        Expr::Bool(_) | Expr::Not(_) | Expr::StrOp(..) | Expr::DictOp { .. } => true,
        Expr::Bin(op, _, _) => {
            op.is_comparison() || matches!(op, BinOp::And | BinOp::Or | BinOp::BitAnd)
        }
        _ => false,
    }
}

/// Scalar replacement: `val x = <trivial>` is substituted into its uses.
pub fn scalar_replace(prog: Program) -> Program {
    let mut subst: HashMap<Sym, Expr> = HashMap::new();
    prog.walk(&mut |s| {
        if let Stmt::Let { sym, value, .. } = s {
            let trivial = matches!(
                value,
                Expr::Sym(_)
                    | Expr::Int(_)
                    | Expr::Float(_)
                    | Expr::Bool(_)
                    | Expr::Date(_)
                    | Expr::Field(..)
            );
            if trivial {
                subst.insert(*sym, value.clone());
            }
        }
    });
    if subst.is_empty() {
        return prog;
    }
    // Resolve chains (x = y; z = x).
    let resolve = |mut e: Expr| {
        for _ in 0..subst.len() + 1 {
            let mut next = e.clone();
            next.rewrite(&|x| match x {
                Expr::Sym(s) => subst.get(s).cloned(),
                _ => None,
            });
            if next == e {
                break;
            }
            e = next;
        }
        e
    };
    let prog = rewrite_exprs(prog, &|e| match e {
        Expr::Sym(s) if subst.contains_key(s) => Some(resolve(e.clone())),
        _ => None,
    });
    // Drop the now-dead trivial lets (DCE would too, but do it eagerly).
    rewrite_stmts(prog, &|s| match s {
        Stmt::Let { sym, .. } if subst.contains_key(sym) => Some(vec![]),
        _ => None,
    })
}

/// Removes pure definitions whose symbol is never used, empty loops, and
/// unused collections.
pub fn dead_code_eliminate(mut prog: Program) -> Program {
    for _ in 0..4 {
        let mut used: HashSet<Sym> = HashSet::new();
        let mut maps_used: HashSet<Sym> = HashSet::new();
        prog.walk(&mut |s| {
            // An assignment keeps its own target alive only if the target is
            // read elsewhere: its expressions are the value alone.
            s.exprs(&mut |e| e.syms(&mut used));
            match s {
                Stmt::MultiMapInsert { map, row, .. }
                | Stmt::BucketArrayInsert { arr: map, row, .. } => {
                    maps_used.insert(*map);
                    used.insert(*row);
                }
                Stmt::MultiMapLookup { map, .. }
                | Stmt::BucketArrayLookup { arr: map, .. }
                | Stmt::AggUpdate { map, .. }
                | Stmt::AggForeach { map, .. } => {
                    maps_used.insert(*map);
                }
                _ => {}
            }
        });
        let before = prog.size();
        prog = rewrite_stmts(prog, &|s| match s {
            Stmt::Let { sym, value, .. } if value.is_pure() && !used.contains(sym) => Some(vec![]),
            Stmt::Var { sym, init, .. } if init.is_pure() && !used.contains(sym) => Some(vec![]),
            Stmt::Assign { sym, value } if value.is_pure() && !used.contains(sym) => Some(vec![]),
            Stmt::MultiMapNew { sym, .. }
            | Stmt::AggMapNew { sym, .. }
            | Stmt::BucketArrayNew { sym, .. }
                if !maps_used.contains(sym) =>
            {
                Some(vec![])
            }
            Stmt::ScanLoop { body, .. }
            | Stmt::TiledScanLoop { body, .. }
            | Stmt::DateIndexLoop { body, .. }
                if body.is_empty() =>
            {
                Some(vec![])
            }
            _ => None,
        });
        if prog.size() == before {
            break;
        }
    }
    prog
}
