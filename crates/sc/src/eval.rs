//! A reference evaluator for the scalar subset of the IR.
//!
//! Transformations must preserve semantics; this evaluator executes
//! straight-line scalar programs (`Let`/`Var`/`Assign`/`If` over arithmetic,
//! comparison, and boolean expressions) so the cleanup passes (constant
//! folding, scalar replacement, DCE) can be property-tested: for random
//! programs, the environment of live variables after transformation must
//! equal the original.
//!
//! [`eval_with_tables`] extends the subset with scan loops over synthetic
//! relations (rows are field→value maps), which lets the loop-shape
//! transformers — horizontal fusion, field promotion, tiling — be
//! property-tested the same way: random loops over random tables must
//! compute the same accumulators and emit the same tuples after the pass.

use crate::ir::{BinOp, Expr, Program, Stmt, Sym};
use std::collections::HashMap;

/// Synthetic relations for loop evaluation: table name → rows, each row a
/// field→value map.
pub type Tables = HashMap<String, Vec<HashMap<String, V>>>;

/// Result of [`eval_with_tables`]: the final scalar environment plus the
/// emitted tuples in emission order.
pub type LoopEvalResult = (HashMap<Sym, V>, Vec<Vec<V>>);

/// A scalar runtime value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum V {
    /// Integer.
    I(i64),
    /// Float.
    F(f64),
    /// Boolean.
    B(bool),
}

impl V {
    fn as_f(self) -> f64 {
        match self {
            V::I(v) => v as f64,
            V::F(v) => v,
            V::B(b) => b as i64 as f64,
        }
    }

    fn as_b(self) -> bool {
        match self {
            V::B(b) => b,
            V::I(v) => v != 0,
            V::F(v) => v != 0.0,
        }
    }
}

/// Evaluates a scalar expression in an environment.
pub fn eval_expr(e: &Expr, env: &HashMap<Sym, V>) -> Option<V> {
    eval_expr_rows(e, env, &HashMap::new())
}

/// Like [`eval_expr`], additionally resolving `Field` reads against the
/// current row bindings of enclosing loops.
pub fn eval_expr_rows(
    e: &Expr,
    env: &HashMap<Sym, V>,
    rows: &HashMap<Sym, HashMap<String, V>>,
) -> Option<V> {
    Some(match e {
        Expr::Int(v) => V::I(*v),
        Expr::Float(v) => V::F(*v),
        Expr::Bool(b) => V::B(*b),
        Expr::Date(d) => V::I(*d as i64),
        Expr::Sym(s) => *env.get(s)?,
        Expr::Field(r, f) => *rows.get(r)?.get(f)?,
        Expr::ColumnLoad { column, idx, .. } => *rows.get(idx)?.get(column)?,
        Expr::Not(a) => V::B(!eval_expr_rows(a, env, rows)?.as_b()),
        Expr::Bin(op, a, b) => {
            let (va, vb) = (eval_expr_rows(a, env, rows)?, eval_expr_rows(b, env, rows)?);
            match op {
                BinOp::And => V::B(va.as_b() && vb.as_b()),
                BinOp::Or => V::B(va.as_b() || vb.as_b()),
                BinOp::BitAnd => V::B(va.as_b() & vb.as_b()),
                BinOp::Eq => V::B(va.as_f() == vb.as_f()),
                BinOp::Ne => V::B(va.as_f() != vb.as_f()),
                BinOp::Lt => V::B(va.as_f() < vb.as_f()),
                BinOp::Le => V::B(va.as_f() <= vb.as_f()),
                BinOp::Gt => V::B(va.as_f() > vb.as_f()),
                BinOp::Ge => V::B(va.as_f() >= vb.as_f()),
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match (va, vb) {
                    (V::I(x), V::I(y)) => match op {
                        BinOp::Add => V::I(x.wrapping_add(y)),
                        BinOp::Sub => V::I(x.wrapping_sub(y)),
                        BinOp::Mul => V::I(x.wrapping_mul(y)),
                        BinOp::Div => {
                            if y == 0 {
                                return None;
                            }
                            V::I(x.wrapping_div(y))
                        }
                        _ => unreachable!(),
                    },
                    _ => {
                        let (x, y) = (va.as_f(), vb.as_f());
                        match op {
                            BinOp::Add => V::F(x + y),
                            BinOp::Sub => V::F(x - y),
                            BinOp::Mul => V::F(x * y),
                            BinOp::Div => V::F(x / y),
                            _ => unreachable!(),
                        }
                    }
                },
            }
        }
        Expr::YearOf(a) => {
            let d = eval_expr_rows(a, env, rows)?;
            V::I(legobase_storage::Date(d.as_f() as i32).year() as i64)
        }
        // Collection/record expressions are outside the scalar subset.
        _ => return None,
    })
}

/// Executes the scalar subset of a program, returning the final environment.
/// Returns `None` if the program leaves the scalar subset.
pub fn eval_scalar(prog: &Program) -> Option<HashMap<Sym, V>> {
    let mut env = HashMap::new();
    exec_block(&prog.stmts, &mut env)?;
    Some(env)
}

/// Executes the scalar-plus-loops subset over synthetic tables, returning
/// the final environment and the emitted tuples in emission order. Returns
/// `None` if the program leaves the subset (collections, calls) or scans a
/// table not present in `tables`.
pub fn eval_with_tables(prog: &Program, tables: &Tables) -> Option<LoopEvalResult> {
    let mut env = HashMap::new();
    let mut rows = HashMap::new();
    let mut emitted = Vec::new();
    exec_block_t(&prog.stmts, &mut env, &mut rows, tables, &mut emitted)?;
    Some((env, emitted))
}

fn exec_block_t(
    stmts: &[Stmt],
    env: &mut HashMap<Sym, V>,
    rows: &mut HashMap<Sym, HashMap<String, V>>,
    tables: &Tables,
    emitted: &mut Vec<Vec<V>>,
) -> Option<()> {
    for s in stmts {
        match s {
            Stmt::Comment(_) => {}
            Stmt::Let { sym, value, .. } | Stmt::Var { sym, init: value, .. } => {
                let v = eval_expr_rows(value, env, rows)?;
                env.insert(*sym, v);
            }
            Stmt::Assign { sym, value } => {
                let v = eval_expr_rows(value, env, rows)?;
                env.insert(*sym, v);
            }
            Stmt::If { cond, then_b, else_b } => {
                if eval_expr_rows(cond, env, rows)?.as_b() {
                    exec_block_t(then_b, env, rows, tables, emitted)?;
                } else {
                    exec_block_t(else_b, env, rows, tables, emitted)?;
                }
            }
            Stmt::Emit { values } => {
                let row = values
                    .iter()
                    .map(|v| eval_expr_rows(v, env, rows))
                    .collect::<Option<Vec<V>>>()?;
                emitted.push(row);
            }
            // A tiled scan visits the same rows in the same order as the
            // plain scan — tiling must be observationally invisible.
            Stmt::ScanLoop { row, table, body } | Stmt::TiledScanLoop { row, table, body, .. } => {
                let data = tables.get(table)?;
                for r in data {
                    rows.insert(*row, r.clone());
                    exec_block_t(body, env, rows, tables, emitted)?;
                }
                rows.remove(row);
            }
            _ => return None, // outside the loop subset
        }
    }
    Some(())
}

fn exec_block(stmts: &[Stmt], env: &mut HashMap<Sym, V>) -> Option<()> {
    for s in stmts {
        match s {
            Stmt::Comment(_) => {}
            Stmt::Let { sym, value, .. } | Stmt::Var { sym, init: value, .. } => {
                let v = eval_expr(value, env)?;
                env.insert(*sym, v);
            }
            Stmt::Assign { sym, value } => {
                let v = eval_expr(value, env)?;
                env.insert(*sym, v);
            }
            Stmt::If { cond, then_b, else_b } => {
                if eval_expr(cond, env)?.as_b() {
                    exec_block(then_b, env)?;
                } else {
                    exec_block(else_b, env)?;
                }
            }
            Stmt::Emit { values } => {
                for v in values {
                    eval_expr(v, env)?;
                }
            }
            _ => return None, // outside the scalar subset
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Ty;
    use crate::transform::{
        common_subexpression_eliminate, constant_fold, dead_code_eliminate, scalar_replace,
    };
    use proptest::prelude::*;

    fn lit_i(v: i64) -> Expr {
        Expr::Int(v)
    }

    #[test]
    fn evaluator_basics() {
        let mut p = Program { name: "t".into(), stmts: vec![], next_sym: 0 };
        let a = p.fresh();
        let b = p.fresh();
        p.stmts = vec![
            Stmt::Let { sym: a, ty: Ty::I64, value: lit_i(4) },
            Stmt::Var { sym: b, ty: Ty::I64, init: Expr::bin(BinOp::Mul, Expr::sym(a), lit_i(3)) },
            Stmt::If {
                cond: Expr::bin(BinOp::Gt, Expr::sym(b), lit_i(10)),
                then_b: vec![Stmt::Assign { sym: b, value: lit_i(10) }],
                else_b: vec![],
            },
        ];
        let env = eval_scalar(&p).unwrap();
        assert_eq!(env[&b], V::I(10));
        assert_eq!(env[&a], V::I(4));
    }

    /// Strategy: random scalar straight-line programs over a few symbols.
    fn arb_expr(depth: u32, nsyms: u32) -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            (-50i64..50).prop_map(Expr::Int),
            (0u32..nsyms).prop_map(|s| Expr::sym(Sym(s))),
            any::<bool>().prop_map(Expr::Bool),
        ];
        leaf.prop_recursive(depth, 24, 2, |inner| {
            (inner.clone(), inner, 0usize..8).prop_map(|(a, b, op)| {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::And,
                    BinOp::Or,
                ];
                Expr::bin(ops[op], a, b)
            })
        })
        .boxed()
    }

    fn arb_program() -> impl Strategy<Value = Program> {
        // Symbols 0..4 are pre-seeded; statements define 4..12.
        proptest::collection::vec((4u32..12, arb_expr(3, 4), any::<bool>()), 1..10).prop_map(
            |defs| {
                let mut stmts: Vec<Stmt> = (0..4)
                    .map(|i| Stmt::Var { sym: Sym(i), ty: Ty::I64, init: Expr::Int(i as i64 + 1) })
                    .collect();
                for (sym, e, cond) in defs {
                    if cond {
                        stmts.push(Stmt::If {
                            cond: e.clone(),
                            then_b: vec![Stmt::Assign { sym: Sym(sym % 4), value: Expr::Int(9) }],
                            else_b: vec![],
                        });
                    }
                    stmts.push(Stmt::Let { sym: Sym(sym + 100), ty: Ty::I64, value: e });
                }
                // Emit the observable variables so DCE cannot remove them.
                stmts.push(Stmt::Emit { values: (0..4).map(|i| Expr::sym(Sym(i))).collect() });
                Program { name: "prop".into(), stmts, next_sym: 200 }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Constant folding, scalar replacement, and DCE preserve the values
        /// of the observable (emitted) variables.
        #[test]
        fn cleanup_passes_preserve_semantics(p in arb_program()) {
            let original = eval_scalar(&p);
            prop_assume!(original.is_some());
            let original = original.unwrap();
            for (name, transformed) in [
                ("fold", constant_fold(p.clone())),
                ("cse", common_subexpression_eliminate(p.clone())),
                ("scalar", scalar_replace(p.clone())),
                ("dce", dead_code_eliminate(p.clone())),
                (
                    "all",
                    dead_code_eliminate(scalar_replace(common_subexpression_eliminate(
                        constant_fold(p.clone()),
                    ))),
                ),
            ] {
                let after = eval_scalar(&transformed)
                    .unwrap_or_else(|| panic!("{name} left scalar subset"));
                // Observable symbols: the pre-seeded vars 0..4.
                for i in 0..4u32 {
                    prop_assert_eq!(
                        after.get(&Sym(i)),
                        original.get(&Sym(i)),
                        "{} changed x{}", name, i
                    );
                }
            }
        }

        /// DCE only ever removes statements.
        #[test]
        fn dce_never_grows(p in arb_program()) {
            prop_assert!(dead_code_eliminate(p.clone()).size() <= p.size());
        }
    }

    // ---- loop-shape transformers over synthetic tables --------------------

    /// A loop body: fold an expression over a field of the row into an
    /// accumulator, optionally guarded, optionally emitting.
    #[derive(Clone, Debug)]
    struct LoopSpec {
        acc: u32,
        field: &'static str,
        guarded: bool,
        emits: bool,
    }

    fn arb_loop() -> impl Strategy<Value = LoopSpec> {
        (0u32..4, 0usize..2, any::<bool>(), any::<bool>()).prop_map(|(acc, f, guarded, emits)| {
            LoopSpec { acc, field: ["l_quantity", "l_tax"][f], guarded, emits }
        })
    }

    /// Builds a program of accumulator loops over the `lineitem` table.
    /// Loops that touch the same accumulator are flow-dependent; fusion must
    /// leave them alone, and everything it does fuse must be invisible.
    fn loops_program(specs: &[LoopSpec]) -> Program {
        let mut stmts: Vec<Stmt> = (0..4)
            .map(|i| Stmt::Var { sym: Sym(i), ty: Ty::F64, init: Expr::Float(0.0) })
            .collect();
        for (i, spec) in specs.iter().enumerate() {
            let row = Sym(100 + i as u32);
            let acc = Sym(spec.acc);
            let update = Stmt::Assign {
                sym: acc,
                value: Expr::bin(BinOp::Add, Expr::sym(acc), Expr::Field(row, spec.field.into())),
            };
            let mut body = vec![if spec.guarded {
                Stmt::If {
                    cond: Expr::bin(
                        BinOp::Lt,
                        Expr::Field(row, "l_quantity".into()),
                        Expr::Float(24.0),
                    ),
                    then_b: vec![update],
                    else_b: vec![],
                }
            } else {
                update
            }];
            if spec.emits {
                body.push(Stmt::Emit { values: vec![Expr::Field(row, spec.field.into())] });
            }
            stmts.push(Stmt::ScanLoop { row, table: "lineitem".into(), body });
        }
        stmts.push(Stmt::Emit { values: (0..4).map(|i| Expr::sym(Sym(i))).collect() });
        Program { name: "loops".into(), stmts, next_sym: 300 }
    }

    fn arb_table() -> impl Strategy<Value = Tables> {
        proptest::collection::vec((0.0f64..50.0, 0.0f64..0.09), 1..20).prop_map(|rows| {
            let rows = rows
                .into_iter()
                .map(|(q, t)| {
                    HashMap::from([
                        ("l_quantity".to_string(), V::F(q)),
                        ("l_tax".to_string(), V::F(t)),
                    ])
                })
                .collect();
            HashMap::from([("lineitem".to_string(), rows)])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Horizontal fusion preserves accumulators and the emitted tuple
        /// sequence for random loop nests over random tables.
        #[test]
        fn horizontal_fusion_preserves_semantics(
            specs in proptest::collection::vec(arb_loop(), 2..5),
            tables in arb_table(),
        ) {
            let p = loops_program(&specs);
            let original = eval_with_tables(&p, &tables).expect("in subset");
            let fused = crate::transform::horizontal_fuse(p.clone());
            prop_assert!(fused.size() <= p.size());
            let after = eval_with_tables(&fused, &tables).expect("fusion stays in subset");
            for i in 0..4u32 {
                prop_assert_eq!(after.0.get(&Sym(i)), original.0.get(&Sym(i)), "acc x{}", i);
            }
            prop_assert_eq!(&after.1, &original.1, "emitted tuples must match");
        }

        /// Field promotion and loop tiling — run after fusion, as in the
        /// pipeline — are also observationally invisible.
        #[test]
        fn promotion_and_tiling_preserve_semantics(
            specs in proptest::collection::vec(arb_loop(), 1..4),
            tables in arb_table(),
            tile in 1usize..8,
        ) {
            use crate::rules::{Transformer, TransformCtx};
            let catalog = legobase_tpch::catalog();
            let settings = legobase_engine::Settings::optimized();
            let query = legobase_engine::QueryPlan::new(
                "t",
                legobase_engine::plan::Plan::scan("lineitem"),
            );
            let ctx = TransformCtx {
                catalog: &catalog,
                settings: &settings,
                query: &query,
                spec: Default::default(),
            };
            let p = loops_program(&specs);
            let original = eval_with_tables(&p, &tables).expect("in subset");
            let promoted = crate::transform::FieldPromotion.run(p.clone(), &ctx);
            let tiled = crate::transform::LoopTiling { tile }.run(promoted, &ctx);
            let after = eval_with_tables(&tiled, &tables)
                .expect("promotion+tiling stay in subset");
            for i in 0..4u32 {
                prop_assert_eq!(after.0.get(&Sym(i)), original.0.get(&Sym(i)), "acc x{}", i);
            }
            prop_assert_eq!(&after.1, &original.1, "emitted tuples must match");
        }
    }
}
