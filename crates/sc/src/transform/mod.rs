//! The LegoBase transformation library: one [`Transformer`](crate::rules::Transformer) per entry of the
//! Fig. 5b pipeline, one module per transformer (the per-transformer line
//! counts are the Table IV productivity experiment — see `figures table4`).
//!
//! Each transformer does up to two things, matching the paper's
//! architecture, in two methods:
//!
//! 1. **Specialization decisions** (`decide`) — record the load-time
//!    decisions (partitions to build, date attributes to index, dictionary
//!    kinds, attributes to keep, columns to pack) in
//!    the [`crate::rules::TransformCtx`]'s
//!    [`legobase_engine::Specialization`], which the specialized executor
//!    consumes. Analyses run over the physical plan's operator structure,
//!    exactly as the paper's high-level transformers pattern-match on
//!    operator objects — no IR is needed, which is how a served miss
//!    decides without lowering anything;
//! 2. **IR rewriting** (`run`) — replace high-level nodes with their
//!    lowered form (the progressive lowering of Fig. 7), reading the
//!    decisions but never adding to them.

mod plan_info;

mod cleanup;
mod column;
mod encode;
mod finegrained;
mod fusion;
mod hashmap;
mod hoist;
mod partition;
mod promote;
mod scala_lowering;
mod singleton;
mod strdict;
mod tiling;

pub use cleanup::{
    common_subexpression_eliminate, constant_fold, dead_code_eliminate, scalar_replace, Cleanup,
};
pub use column::ColumnStore;
pub use encode::Encode;
pub use finegrained::FineGrained;
pub use fusion::{horizontal_fuse, HorizontalFusion};
pub use hashmap::HashMapLowering;
pub use hoist::CodeMotionHoisting;
pub use partition::PartitioningAndDateIndices;
pub use promote::FieldPromotion;
pub use scala_lowering::ScalaToCLowering;
pub use singleton::SingletonHashMapToValue;
pub use strdict::StringDictionary;
pub use tiling::LoopTiling;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Expr, Stmt};
    use crate::ir::{Program, Sym, Ty};
    use crate::rules::{TransformCtx, Transformer};
    use legobase_engine::plan::Plan;

    fn ctx_parts(
    ) -> (legobase_storage::Catalog, legobase_engine::Settings, legobase_engine::QueryPlan) {
        (
            legobase_tpch::catalog(),
            legobase_engine::Settings::optimized(),
            legobase_engine::QueryPlan::new("t", Plan::scan("lineitem")),
        )
    }

    /// A scan loop accumulating one field into `acc`.
    fn sum_loop(row: Sym, acc: Sym, table: &str, field: &str) -> Stmt {
        Stmt::ScanLoop {
            row,
            table: table.into(),
            body: vec![Stmt::Assign {
                sym: acc,
                value: Expr::bin(BinOp::Add, Expr::sym(acc), Expr::Field(row, field.into())),
            }],
        }
    }

    #[test]
    fn horizontal_fusion_merges_independent_scans() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        let prog = Program {
            name: "hf".into(),
            next_sym: 10,
            stmts: vec![
                Stmt::Var { sym: Sym(0), ty: Ty::F64, init: Expr::Float(0.0) },
                Stmt::Var { sym: Sym(1), ty: Ty::F64, init: Expr::Float(0.0) },
                sum_loop(Sym(2), Sym(0), "lineitem", "l_quantity"),
                sum_loop(Sym(3), Sym(1), "lineitem", "l_extendedprice"),
                Stmt::Emit { values: vec![Expr::sym(Sym(0)), Expr::sym(Sym(1))] },
            ],
        };
        let out = HorizontalFusion.run(prog, &ctx);
        assert_eq!(out.count(|s| matches!(s, Stmt::ScanLoop { .. })), 1, "loops must fuse");
        // The second body's row was renamed to the surviving binder.
        let mut saw_renamed = false;
        out.walk(&mut |s| {
            if let Stmt::Assign { sym: _, value } = s {
                value.visit(&mut |e| {
                    if matches!(e, Expr::Field(r, f) if *r == Sym(2) && f == "l_extendedprice") {
                        saw_renamed = true;
                    }
                });
            }
        });
        assert!(saw_renamed, "row symbol of the second loop must be substituted");
    }

    #[test]
    fn horizontal_fusion_respects_flow_dependencies() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        // Loop 2 reads the accumulator loop 1 writes: the original program
        // sees the *final* total in every iteration; fusing would interleave.
        let prog = Program {
            name: "dep".into(),
            next_sym: 10,
            stmts: vec![
                Stmt::Var { sym: Sym(0), ty: Ty::F64, init: Expr::Float(0.0) },
                Stmt::Var { sym: Sym(1), ty: Ty::F64, init: Expr::Float(0.0) },
                sum_loop(Sym(2), Sym(0), "lineitem", "l_quantity"),
                Stmt::ScanLoop {
                    row: Sym(3),
                    table: "lineitem".into(),
                    body: vec![Stmt::Assign {
                        sym: Sym(1),
                        value: Expr::bin(BinOp::Add, Expr::sym(Sym(1)), Expr::sym(Sym(0))),
                    }],
                },
                Stmt::Emit { values: vec![Expr::sym(Sym(1))] },
            ],
        };
        let out = HorizontalFusion.run(prog, &ctx);
        assert_eq!(
            out.count(|s| matches!(s, Stmt::ScanLoop { .. })),
            2,
            "dependent loops must not fuse"
        );
    }

    #[test]
    fn horizontal_fusion_rejects_double_emit_and_different_tables() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        let emit_loop = |row: u32, table: &str| Stmt::ScanLoop {
            row: Sym(row),
            table: table.into(),
            body: vec![Stmt::Emit { values: vec![Expr::Field(Sym(row), "l_tax".into())] }],
        };
        // Both loops emit: fusing would interleave the output order.
        let prog = Program {
            name: "emits".into(),
            next_sym: 10,
            stmts: vec![emit_loop(0, "lineitem"), emit_loop(1, "lineitem")],
        };
        let out = HorizontalFusion.run(prog, &ctx);
        assert_eq!(out.count(|s| matches!(s, Stmt::ScanLoop { .. })), 2);
        // Different relations: never fusable.
        let prog = Program {
            name: "tables".into(),
            next_sym: 10,
            stmts: vec![emit_loop(0, "lineitem"), emit_loop(1, "orders")],
        };
        let out = HorizontalFusion.run(prog, &ctx);
        assert_eq!(out.count(|s| matches!(s, Stmt::ScanLoop { .. })), 2);
    }

    #[test]
    fn horizontal_fusion_chains_three_loops() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        let mut stmts: Vec<Stmt> = (0..3)
            .map(|i| Stmt::Var { sym: Sym(i), ty: Ty::F64, init: Expr::Float(0.0) })
            .collect();
        for i in 0..3u32 {
            stmts.push(sum_loop(Sym(10 + i), Sym(i), "lineitem", "l_discount"));
        }
        stmts.push(Stmt::Emit { values: (0..3).map(|i| Expr::sym(Sym(i))).collect() });
        let prog = Program { name: "chain".into(), next_sym: 20, stmts };
        let out = HorizontalFusion.run(prog, &ctx);
        assert_eq!(out.count(|s| matches!(s, Stmt::ScanLoop { .. })), 1, "all three loops fuse");
    }

    #[test]
    fn field_promotion_hoists_repeated_reads() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        let row = Sym(0);
        // l_quantity is read twice, l_tax once.
        let prog = Program {
            name: "fp".into(),
            next_sym: 10,
            stmts: vec![
                Stmt::Var { sym: Sym(1), ty: Ty::F64, init: Expr::Float(0.0) },
                Stmt::ScanLoop {
                    row,
                    table: "lineitem".into(),
                    body: vec![Stmt::If {
                        cond: Expr::bin(
                            BinOp::Lt,
                            Expr::Field(row, "l_quantity".into()),
                            Expr::Float(24.0),
                        ),
                        then_b: vec![Stmt::Assign {
                            sym: Sym(1),
                            value: Expr::bin(
                                BinOp::Add,
                                Expr::Field(row, "l_quantity".into()),
                                Expr::Field(row, "l_tax".into()),
                            ),
                        }],
                        else_b: vec![],
                    }],
                },
                Stmt::Emit { values: vec![Expr::sym(Sym(1))] },
            ],
        };
        let out = FieldPromotion.run(prog, &ctx);
        // Exactly one Var was inserted inside the loop, initialized from the
        // promoted field; the two uses now reference the local.
        let mut promoted_vars = 0;
        let mut field_reads = 0;
        out.walk(&mut |s| {
            if let Stmt::Var { init: Expr::Field(_, f), .. } = s {
                if f == "l_quantity" {
                    promoted_vars += 1;
                }
            }
            s.exprs(&mut |e| {
                e.visit(&mut |x| {
                    if matches!(x, Expr::Field(_, f) if f == "l_quantity") {
                        field_reads += 1;
                    }
                });
            });
        });
        assert_eq!(promoted_vars, 1, "one hoisted local for l_quantity");
        assert_eq!(field_reads, 1, "only the hoisted load reads the field");
        // The single-use field is left alone.
        assert_eq!(
            out.count(|s| matches!(s, Stmt::Var { init: Expr::Field(_, f), .. } if f == "l_tax")),
            0
        );
    }

    #[test]
    fn field_promotion_keeps_columnar_access_form() {
        // After ColumnStore, repeated reads are `ColumnLoad`s; the hoisted
        // local must load through the column vector too (not regress to a
        // struct access), and a dictionary-coded string column promotes as
        // an integer local.
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        let row = Sym(0);
        let load =
            |col: &str| Expr::ColumnLoad { table: "lineitem".into(), column: col.into(), idx: row };
        let prog = Program {
            name: "colform".into(),
            next_sym: 10,
            stmts: vec![Stmt::ScanLoop {
                row,
                table: "lineitem".into(),
                body: vec![Stmt::Emit {
                    values: vec![
                        Expr::bin(BinOp::Add, load("l_quantity"), load("l_quantity")),
                        Expr::bin(BinOp::Eq, load("l_shipmode"), load("l_shipmode")),
                    ],
                }],
            }],
        };
        let out = FieldPromotion.run(prog, &ctx);
        let mut qty_init_columnar = false;
        let mut shipmode_ty_int = false;
        out.walk(&mut |s| {
            if let Stmt::Var { ty, init: Expr::ColumnLoad { column, .. }, .. } = s {
                if column == "l_quantity" {
                    qty_init_columnar = true;
                }
                if column == "l_shipmode" {
                    shipmode_ty_int = *ty == Ty::I64;
                }
            }
        });
        assert!(qty_init_columnar, "hoisted load must stay columnar");
        assert!(shipmode_ty_int, "dictionary-coded string promotes as an integer local");
    }

    #[test]
    fn field_promotion_skips_unknown_rows() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        // Buffer rows have no schema: nothing to promote.
        let row = Sym(0);
        let prog = Program {
            name: "buf".into(),
            next_sym: 10,
            stmts: vec![Stmt::ScanLoop {
                row,
                table: "#stage1".into(),
                body: vec![Stmt::Emit {
                    values: vec![Expr::Field(row, "a".into()), Expr::Field(row, "a".into())],
                }],
            }],
        };
        let before = prog.clone();
        let out = FieldPromotion.run(prog, &ctx);
        assert_eq!(out, before);
    }

    #[test]
    fn loop_tiling_wraps_base_scans_only() {
        let (catalog, settings, query) = ctx_parts();
        let ctx = TransformCtx {
            catalog: &catalog,
            settings: &settings,
            query: &query,
            spec: Default::default(),
        };
        let prog = Program {
            name: "tile".into(),
            next_sym: 10,
            stmts: vec![
                sum_loop(Sym(0), Sym(5), "lineitem", "l_quantity"),
                Stmt::ScanLoop {
                    row: Sym(1),
                    table: "#stage1".into(),
                    body: vec![Stmt::Emit { values: vec![Expr::sym(Sym(1))] }],
                },
            ],
        };
        let out = LoopTiling { tile: 256 }.run(prog, &ctx);
        assert_eq!(out.count(|s| matches!(s, Stmt::TiledScanLoop { tile: 256, .. })), 1);
        assert_eq!(
            out.count(|s| matches!(s, Stmt::ScanLoop { table, .. } if table == "#stage1")),
            1,
            "buffer scans have unknown compile-time range and stay untiled"
        );
    }

    /// The motivating example of Fig. 2: once the aggregations are compiled
    /// together, `1 - S.B` is shared between them.
    #[test]
    fn cse_shares_fig2_subexpression() {
        let row = Sym(0);
        let one_minus_b = Expr::bin(BinOp::Sub, Expr::Float(1.0), Expr::Field(row, "b".into()));
        let prog = Program {
            name: "fig2".into(),
            next_sym: 10,
            stmts: vec![
                Stmt::Let { sym: Sym(1), ty: Ty::F64, value: one_minus_b.clone() },
                Stmt::Let {
                    sym: Sym(2),
                    ty: Ty::F64,
                    value: Expr::bin(BinOp::Mul, Expr::Field(row, "a".into()), one_minus_b.clone()),
                },
                Stmt::Let {
                    sym: Sym(3),
                    ty: Ty::F64,
                    value: Expr::bin(
                        BinOp::Mul,
                        Expr::bin(BinOp::Mul, Expr::Field(row, "a".into()), one_minus_b),
                        Expr::bin(BinOp::Add, Expr::Float(1.0), Expr::Field(row, "c".into())),
                    ),
                },
            ],
        };
        let out = common_subexpression_eliminate(prog);
        // The second and third aggregations now reference x1 / x2.
        let Stmt::Let { value: v2, .. } = &out.stmts[1] else { panic!() };
        assert_eq!(*v2, Expr::bin(BinOp::Mul, Expr::Field(row, "a".into()), Expr::sym(Sym(1))));
        let Stmt::Let { value: v3, .. } = &out.stmts[2] else { panic!() };
        // `a * (1-b)` itself was bound to x2 and is reused.
        assert_eq!(
            *v3,
            Expr::bin(
                BinOp::Mul,
                Expr::sym(Sym(2)),
                Expr::bin(BinOp::Add, Expr::Float(1.0), Expr::Field(row, "c".into()))
            )
        );
    }

    /// Mutation invalidates cached expressions.
    #[test]
    fn cse_invalidated_by_assignment() {
        let e = Expr::bin(BinOp::Add, Expr::sym(Sym(0)), Expr::Int(1));
        let prog = Program {
            name: "inv".into(),
            next_sym: 10,
            stmts: vec![
                Stmt::Var { sym: Sym(0), ty: Ty::I64, init: Expr::Int(1) },
                Stmt::Let { sym: Sym(1), ty: Ty::I64, value: e.clone() },
                Stmt::Assign { sym: Sym(0), value: Expr::Int(5) },
                Stmt::Let { sym: Sym(2), ty: Ty::I64, value: e.clone() },
            ],
        };
        let out = common_subexpression_eliminate(prog);
        let Stmt::Let { value, .. } = &out.stmts[3] else { panic!() };
        assert_eq!(*value, e, "stale cache entry must not be reused after mutation");
    }

    /// Branch-local definitions do not leak out of their `if`.
    #[test]
    fn cse_respects_branch_scope() {
        let e = Expr::bin(BinOp::Mul, Expr::sym(Sym(0)), Expr::sym(Sym(0)));
        let prog = Program {
            name: "scope".into(),
            next_sym: 10,
            stmts: vec![
                Stmt::Var { sym: Sym(0), ty: Ty::I64, init: Expr::Int(3) },
                Stmt::If {
                    cond: Expr::Bool(true),
                    then_b: vec![Stmt::Let { sym: Sym(1), ty: Ty::I64, value: e.clone() }],
                    else_b: vec![],
                },
                Stmt::Let { sym: Sym(2), ty: Ty::I64, value: e.clone() },
            ],
        };
        let out = common_subexpression_eliminate(prog);
        let Stmt::Let { value, .. } = &out.stmts[2] else { panic!() };
        assert_eq!(*value, e, "definition inside a branch must not be visible after it");
    }
}
