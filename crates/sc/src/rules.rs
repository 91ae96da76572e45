//! The transformer framework: SC's `analysis += rule` / `rewrite += rule`
//! API (Fig. 5a), in Rust.
//!
//! A [`Transformer`] is a black box over [`Program`]s (Section 2.2: "SC
//! transformers act as black boxes, which can be plugged in at any stage in
//! the pipeline"). Rules are closures pattern-matching on IR nodes; the
//! framework owns the traversal so optimization authors never touch
//! scheduling or code-generation internals.

use crate::ir::{Expr, Program, Stmt};
use legobase_engine::{Settings, Specialization};
use legobase_storage::Catalog;
use std::mem;

/// Shared compilation context: schema annotations in, specialization
/// decisions out.
pub struct TransformCtx<'a> {
    /// Schema catalog (annotations in).
    pub catalog: &'a Catalog,
    /// The optimization flag set being compiled under.
    pub settings: &'a Settings,
    /// The physical plan being compiled (plan-level analyses read it; the
    /// paper's transformers read the same information from operator objects
    /// still present at the higher IR levels).
    pub query: &'a legobase_engine::QueryPlan,
    /// Decision record consumed by the loader/executor.
    pub spec: Specialization,
}

/// A pipeline stage.
pub trait Transformer {
    /// Display name, shown in the pipeline trace.
    fn name(&self) -> &'static str;
    /// Transforms the program, optionally recording decisions in `ctx.spec`.
    fn run(&self, prog: Program, ctx: &mut TransformCtx<'_>) -> Program;
}

/// Applies a statement rewriter bottom-up over the whole program. The rule
/// returns `Some(replacement)` to rewrite a statement (possibly to several
/// statements, possibly to none) or `None` to keep it. It sees each
/// statement after its bodies were rewritten, and replacements are not
/// rewritten again. Statements are moved, never copied.
pub fn rewrite_stmts(mut prog: Program, rule: &impl Fn(&Stmt) -> Option<Vec<Stmt>>) -> Program {
    fn rec(stmts: Vec<Stmt>, rule: &impl Fn(&Stmt) -> Option<Vec<Stmt>>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for mut s in stmts {
            for body in s.bodies_mut() {
                *body = rec(mem::take(body), rule);
            }
            match rule(&s) {
                Some(replacement) => out.extend(replacement),
                None => out.push(s),
            }
        }
        out
    }
    prog.stmts = rec(mem::take(&mut prog.stmts), rule);
    prog
}

/// Applies an expression rewriter to every expression in the program, in
/// place: bodies before their statement, bottom-up within each expression.
pub fn rewrite_exprs(mut prog: Program, rule: &impl Fn(&Expr) -> Option<Expr>) -> Program {
    walk_mut(&mut prog.stmts, &mut |s| s.exprs_mut(&mut |e| e.rewrite(rule)));
    prog
}

/// Post-order visit of every statement, mutably: a statement's bodies are
/// visited before the statement itself.
pub(crate) fn walk_mut(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in stmts {
        for body in s.bodies_mut() {
            walk_mut(body, f);
        }
        f(s);
    }
}

/// Runs an analysis visitor over every statement.
pub fn analyze(prog: &Program, mut visit: impl FnMut(&Stmt)) {
    prog.walk(&mut visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AggOp, BinOp, Sym, Ty};

    fn prog() -> Program {
        Program {
            name: "t".into(),
            next_sym: 3,
            stmts: vec![
                Stmt::Var { sym: Sym(0), ty: Ty::I64, init: Expr::Int(0) },
                Stmt::ScanLoop {
                    row: Sym(1),
                    table: "r".into(),
                    body: vec![Stmt::If {
                        cond: Expr::Bool(true),
                        then_b: vec![Stmt::Assign {
                            sym: Sym(0),
                            value: Expr::bin(BinOp::Add, Expr::sym(Sym(0)), Expr::Int(1)),
                        }],
                        else_b: vec![],
                    }],
                },
            ],
        }
    }

    #[test]
    fn stmt_rewriter_reaches_nested_bodies() {
        // Drop every Assign, wherever it is.
        let out = rewrite_stmts(prog(), &|s| match s {
            Stmt::Assign { .. } => Some(vec![]),
            _ => None,
        });
        assert_eq!(out.count(|s| matches!(s, Stmt::Assign { .. })), 0);
        assert_eq!(out.count(|s| matches!(s, Stmt::ScanLoop { .. })), 1);
    }

    #[test]
    fn stmt_rewriter_can_expand() {
        let out = rewrite_stmts(prog(), &|s| match s {
            Stmt::Var { sym, ty, init } => Some(vec![
                Stmt::Comment("hoisted".into()),
                Stmt::Var { sym: *sym, ty: ty.clone(), init: init.clone() },
            ]),
            _ => None,
        });
        assert_eq!(out.count(|s| matches!(s, Stmt::Comment(_))), 1);
        assert_eq!(out.stmts.len(), 3);
    }

    #[test]
    fn expr_rewriter_reaches_nested_exprs() {
        let out = rewrite_exprs(prog(), &|e| match e {
            Expr::Int(1) => Some(Expr::Int(42)),
            _ => None,
        });
        let mut found = false;
        out.walk(&mut |s| {
            if let Stmt::Assign { value, .. } = s {
                value.visit(&mut |e| {
                    if *e == Expr::Int(42) {
                        found = true;
                    }
                });
            }
        });
        assert!(found);
    }

    /// The framework contract every transformer relies on: bodies first,
    /// each original statement exactly once, replacements never revisited,
    /// and a rule sees its statement's bodies already rewritten.
    #[test]
    fn stmt_rule_sees_rewritten_bodies_in_post_order() {
        let c = |t: &str| Stmt::Comment(t.into());
        let prog = Program {
            name: "order".into(),
            next_sym: 1,
            stmts: vec![
                c("a"),
                Stmt::ScanLoop {
                    row: Sym(0),
                    table: "outer".into(),
                    body: vec![
                        c("b"),
                        Stmt::If {
                            cond: Expr::Bool(true),
                            then_b: vec![c("c")],
                            else_b: vec![c("d")],
                        },
                    ],
                },
                c("e"),
            ],
        };
        let texts = |b: &[Stmt]| -> Vec<String> {
            b.iter()
                .map(|s| match s {
                    Stmt::Comment(t) => t.clone(),
                    _ => "if".into(),
                })
                .collect()
        };
        let log = std::cell::RefCell::new(Vec::new());
        let out = rewrite_stmts(prog, &|s| {
            let entry = match s {
                Stmt::Comment(t) => t.clone(),
                Stmt::If { then_b, else_b, .. } => {
                    format!("if {:?} {:?}", texts(then_b), texts(else_b))
                }
                Stmt::ScanLoop { table, body, .. } => format!("{table} {:?}", texts(body)),
                other => panic!("unexpected {other:?}"),
            };
            log.borrow_mut().push(entry);
            match s {
                Stmt::Comment(t) => Some(vec![c(&t.to_uppercase())]),
                _ => None,
            }
        });
        assert_eq!(
            log.into_inner(),
            ["a", "b", "c", "d", r#"if ["C"] ["D"]"#, r#"outer ["B", "if"]"#, "e"]
        );
        assert_eq!(texts(&out.stmts), ["A", "if", "E"]);
    }

    #[test]
    fn replacement_by_zero_or_several_statements_at_depth_three() {
        let deep = vec![
            Stmt::Assign { sym: Sym(0), value: Expr::Int(1) },
            Stmt::Let { sym: Sym(3), ty: Ty::I64, value: Expr::Int(2) },
            Stmt::Emit { values: vec![Expr::sym(Sym(0))] },
        ];
        let prog = Program {
            name: "deep".into(),
            next_sym: 4,
            stmts: vec![Stmt::ScanLoop {
                row: Sym(1),
                table: "r".into(),
                body: vec![Stmt::If {
                    cond: Expr::Bool(true),
                    then_b: vec![Stmt::ScanLoop { row: Sym(2), table: "s".into(), body: deep }],
                    else_b: vec![],
                }],
            }],
        };
        let out = rewrite_stmts(prog, &|s| match s {
            Stmt::Assign { .. } => Some(vec![]),
            Stmt::Let { .. } => Some(vec![Stmt::Comment("x".into()), Stmt::Comment("y".into())]),
            _ => None,
        });
        let Stmt::ScanLoop { body, .. } = &out.stmts[0] else { panic!("{out:?}") };
        let Stmt::If { then_b, .. } = &body[0] else { panic!("{out:?}") };
        let Stmt::ScanLoop { body: inner, .. } = &then_b[0] else { panic!("{out:?}") };
        assert_eq!(
            *inner,
            vec![
                Stmt::Comment("x".into()),
                Stmt::Comment("y".into()),
                Stmt::Emit { values: vec![Expr::sym(Sym(0))] },
            ]
        );
        assert_eq!(out.size(), 6);
    }

    #[test]
    fn expr_rewriter_reaches_agg_updates_emits_and_conditions_inside_loops() {
        let one = || Expr::Int(1);
        let prog = Program {
            name: "exprs".into(),
            next_sym: 3,
            stmts: vec![Stmt::ScanLoop {
                row: Sym(0),
                table: "r".into(),
                body: vec![Stmt::If {
                    cond: Expr::bin(BinOp::Eq, Expr::sym(Sym(0)), one()),
                    then_b: vec![Stmt::BucketArrayLookup {
                        arr: Sym(1),
                        key: Expr::sym(Sym(0)),
                        row: Sym(2),
                        body: vec![
                            Stmt::AggUpdate {
                                map: Sym(1),
                                key: one(),
                                updates: vec![(AggOp::SumI, one()), (AggOp::Count, one())],
                            },
                            Stmt::Emit { values: vec![one(), Expr::sym(Sym(2))] },
                        ],
                    }],
                    else_b: vec![],
                }],
            }],
        };
        let count = |p: &Program, lit: i64| {
            let mut n = 0;
            p.walk(&mut |s| {
                s.exprs(&mut |e| {
                    e.visit(&mut |x| n += (*x == Expr::Int(lit)) as usize);
                })
            });
            n
        };
        assert_eq!(count(&prog, 1), 5);
        let out = rewrite_exprs(prog, &|e| match e {
            Expr::Int(1) => Some(Expr::Int(42)),
            _ => None,
        });
        assert_eq!((count(&out, 1), count(&out, 42)), (0, 5));
    }

    #[test]
    fn analyze_visits_all() {
        let mut n = 0;
        analyze(&prog(), |_| n += 1);
        assert_eq!(n, prog().size());
    }
}
