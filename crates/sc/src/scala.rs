//! Scala-like rendering of IR programs.
//!
//! SC "is not particularly aware of C and can be used to generate programs
//! in other languages as well (e.g. optimized Scala)" (footnote 6 of the
//! paper). This backend stringifies any IR level — including the *high*
//! levels — so the progressive lowering of Fig. 7 can be displayed stage by
//! stage (see the `compiler_pipeline` example).

use crate::ir::{AggOp, AggStoreKind, BinOp, Expr, Program, Stmt, StrFn};
use std::fmt::Write;

/// Renders a program as Scala-like pseudo-code.
pub fn emit_scala(prog: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "def {}(): Unit = {{",
        prog.name.replace(|c: char| !c.is_alphanumeric(), "_")
    );
    emit_block(&mut out, &prog.stmts, 1);
    out.push_str("}\n");
    out
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn emit_block(out: &mut String, stmts: &[Stmt], indent: usize) {
    for s in stmts {
        emit_stmt(out, s, indent);
    }
}

fn emit_stmt(out: &mut String, s: &Stmt, indent: usize) {
    pad(out, indent);
    match s {
        Stmt::Comment(c) => {
            let _ = writeln!(out, "// {c}");
        }
        Stmt::Let { sym, value, .. } => {
            let _ = writeln!(out, "val {sym} = {}", expr(value));
        }
        Stmt::Var { sym, init, .. } => {
            let _ = writeln!(out, "var {sym} = {}", expr(init));
        }
        Stmt::Assign { sym, value } => {
            let _ = writeln!(out, "{sym} = {}", expr(value));
        }
        Stmt::If { cond, then_b, else_b } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond));
            emit_block(out, then_b, indent + 1);
            if else_b.is_empty() {
                pad(out, indent);
                out.push_str("}\n");
            } else {
                pad(out, indent);
                out.push_str("} else {\n");
                emit_block(out, else_b, indent + 1);
                pad(out, indent);
                out.push_str("}\n");
            }
        }
        Stmt::ScanLoop { row, table, body } => {
            let _ = writeln!(out, "for ({row} <- {}) {{", table.replace('#', "stage_"));
            emit_block(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::TiledScanLoop { row, table, tile, body } => {
            let _ = writeln!(
                out,
                "for (block <- {}.grouped({tile}); {row} <- block) {{ // tiled (Sec. 3.6.3)",
                table.replace('#', "stage_")
            );
            emit_block(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::DateIndexLoop { row, table, column, lo, hi, body } => {
            let _ = writeln!(
                out,
                "for ({row} <- dateIndex({table}.{column}).range({lo}, {hi})) {{ // Fig. 12"
            );
            emit_block(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::MultiMapNew { sym, key } => {
            let note = match (&key.table, &key.column) {
                (Some(t), Some(c)) => format!(" // keyed by {t}.{c}"),
                _ => String::new(),
            };
            let _ = writeln!(out, "val {sym} = new MultiMap[Int, Record]{note}");
        }
        Stmt::MultiMapInsert { map, key, row } => {
            let _ = writeln!(out, "{map}.addBinding({}, {row})", expr(key));
        }
        Stmt::MultiMapLookup { map, key, row, body } => {
            let _ = writeln!(out, "{map}.get({}).foreach {{ {row} =>", expr(key));
            emit_block(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::PartitionLookupLoop { table, column, key, row, body } => {
            let _ = writeln!(
                out,
                "for ({row} <- partition_{table}_{column}({})) {{ // Fig. 10",
                expr(key)
            );
            emit_block(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::BucketArrayNew { sym, hoisted, .. } => {
            let note = if *hoisted { " // pool hoisted to load time" } else { "" };
            let _ = writeln!(out, "val {sym} = new Array[Record](BUCKETSZ){note} // Fig. 7e");
        }
        Stmt::BucketArrayInsert { arr, key, row } => {
            let _ = writeln!(out, "{row}.next = {arr}(h({})); {arr}(h({0})) = {row}", expr(key));
        }
        Stmt::BucketArrayLookup { arr, key, row, body } => {
            let _ = writeln!(out, "var {row} = {arr}(h({})); while ({row} != null) {{", expr(key));
            emit_block(out, body, indent + 1);
            pad(out, indent + 1);
            let _ = writeln!(out, "{row} = {row}.next");
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::AggMapNew { sym, naggs, store, .. } => {
            let repr = match store {
                AggStoreKind::GenericHashMap => format!("new HashMap[K, Array[Double]]({naggs})"),
                AggStoreKind::LoweredArray => {
                    format!("new Array[Array[Double]](BUCKETSZ) /* {naggs} aggs, lowered */")
                }
                AggStoreKind::DirectArray => {
                    format!("Array.fill(DOMAIN)(zeros({naggs})) /* pre-initialized, Sec. 3.5.2 */")
                }
                AggStoreKind::SingleValue => "0.0 /* singleton map → value */".to_string(),
            };
            let _ = writeln!(out, "val {sym} = {repr}");
        }
        Stmt::AggUpdate { map, key, updates } => {
            let _ = writeln!(out, "val aggs = {map}.getOrElseUpdate({}, zeros)", expr(key));
            for (i, (op, e)) in updates.iter().enumerate() {
                pad(out, indent);
                let upd = match op {
                    AggOp::SumF | AggOp::SumI => format!("aggs({i}) += {}", expr(e)),
                    AggOp::Count => format!("aggs({i}) += 1"),
                    AggOp::Min => format!("aggs({i}) = min(aggs({i}), {})", expr(e)),
                    AggOp::Max => format!("aggs({i}) = max(aggs({i}), {})", expr(e)),
                };
                let _ = writeln!(out, "{upd}");
            }
        }
        Stmt::AggForeach { map, key_sym, aggs_sym, body } => {
            let _ = writeln!(out, "{map}.foreach {{ case ({key_sym}, {aggs_sym}) =>");
            emit_block(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::Emit { values } => {
            let vals: Vec<String> = values.iter().map(expr).collect();
            let _ = writeln!(out, "emit({})", vals.join(", "));
        }
        Stmt::SortEmitted { keys } => {
            let _ = writeln!(out, "sortBuffer({keys:?})");
        }
        Stmt::LimitEmitted { n } => {
            let _ = writeln!(out, "limitBuffer({n})");
        }
    }
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => format!("{v}"),
        Expr::Bool(b) => b.to_string(),
        Expr::Str(s) => format!("{s:?}"),
        Expr::Date(d) => format!("date({d})"),
        Expr::Sym(s) => s.to_string(),
        Expr::Field(r, f) => format!("{r}.{f}"),
        Expr::ColumnLoad { table, column, idx } => format!("{table}_{column}({idx})"),
        Expr::Bin(op, a, b) => format!("({} {} {})", expr(a), scala_op(*op), expr(b)),
        Expr::Not(a) => format!("(!{})", expr(a)),
        Expr::StrOp(f, a, lit) => format!("{}.{}({lit:?})", expr(a), strfn(*f)),
        Expr::DictOp { op, code, lit } => {
            format!("dict_{}({}, {lit:?}) /* int op, Table II */", strfn(*op), expr(code))
        }
        Expr::YearOf(a) => format!("{}.year", expr(a)),
        Expr::Call(name, args) => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", rendered.join(", "))
        }
    }
}

fn scala_op(op: BinOp) -> &'static str {
    match op {
        BinOp::BitAnd => "&",
        other => other.c_token(),
    }
}

fn strfn(f: StrFn) -> &'static str {
    match f {
        StrFn::Eq => "equals",
        StrFn::Ne => "notEquals",
        StrFn::StartsWith => "startsWith",
        StrFn::EndsWith => "endsWith",
        StrFn::Contains => "contains",
        StrFn::WordSeq => "indexOfSlice",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use legobase_engine::{Config, Settings};

    #[test]
    fn high_level_stage_reads_like_fig7c() {
        let cat = legobase_tpch::catalog();
        let q = legobase_queries::query(&cat, 12);
        // Stage 0 = the operator-inlined program before any lowering.
        let settings = Config::NaiveC.settings();
        let mut scala = String::new();
        Pipeline::for_settings(&settings).run_observed(&q, &cat, &settings, |t, p| {
            if t.name == "OperatorInlining" {
                scala = emit_scala(p);
            }
        });
        assert!(scala.contains("new MultiMap[Int, Record]"), "{scala}");
        assert!(scala.contains(".addBinding("));
        assert!(scala.contains("getOrElseUpdate"));
        assert!(scala.contains("for ("));
    }

    #[test]
    fn lowered_stage_shows_specialized_structures() {
        let cat = legobase_tpch::catalog();
        let q = legobase_queries::query(&cat, 12);
        let settings = Settings::optimized();
        let result = Pipeline::for_settings(&settings).run(&q, &cat, &settings);
        let scala = emit_scala(&result.program);
        assert!(scala.contains("partition_"), "partitioned access expected:\n{scala}");
        assert!(scala.contains("dict_"), "dictionary int ops expected");
        assert!(!scala.contains("new MultiMap"), "no generic multimap after lowering");
    }

    #[test]
    fn every_query_renders_at_every_stage() {
        let cat = legobase_tpch::catalog();
        let settings = Settings::optimized();
        for q in legobase_queries::all_queries(&cat) {
            Pipeline::for_settings(&settings).run_observed(&q, &cat, &settings, |t, stage| {
                let text = emit_scala(stage);
                assert!(
                    text.lines().count() >= 3,
                    "{} after {}: degenerate rendering",
                    q.name,
                    t.name
                );
            });
        }
    }
}
