//! Operator inlining: translating a physical plan into the top-level IR.
//!
//! This is the first pipeline entry of Fig. 5b. The plan's operator tree is
//! inlined into data-centric loop nests over generic collections — exactly
//! the shape of Fig. 7c: scans become loops, selections become `if`s inside
//! their producer's loop, joins become a `MultiMap` build loop plus a probe
//! loop, aggregations become `getOrElseUpdate` maps. Pipeline breakers
//! (sorts, limits, stage boundaries) materialize into named buffers.

use crate::ir::{AggOp, BinOp, Expr, KeyMeta, Program, Stmt, StrFn, Ty};
use legobase_engine::expr::{AggKind, ArithOp, CmpOp, Expr as PExpr};
use legobase_engine::plan::{JoinKind, Plan, QueryPlan};
use legobase_storage::{Catalog, Schema, Type, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// One visible column of the operator currently being inlined. Names and
/// provenance borrow the plan, the catalog and the stage schemas (`'a`), so
/// passing a binding up through the operators copies no strings.
#[derive(Clone, Debug)]
struct BindItem<'a> {
    name: Cow<'a, str>,
    expr: Expr,
    ty: Type,
    /// Base-table provenance (table, column), when the value is a raw field
    /// of a scanned relation (drives the partitioning/date-index/dictionary
    /// analyses).
    prov: Option<(&'a str, &'a str)>,
}

type Binding<'a> = Vec<BindItem<'a>>;

/// The code an operator runs at its innermost point, given its output.
type Consume<'c, 'a> = dyn FnMut(&mut Builder<'a>, &Binding<'a>) -> Vec<Stmt> + 'c;

struct Builder<'a> {
    catalog: &'a Catalog,
    stage_schemas: &'a HashMap<String, Schema>,
    prog: Program,
    buffer_counter: usize,
}

/// Translates a query plan into the unoptimized, operator-inlined IR.
pub fn build_ir(query: &QueryPlan, catalog: &Catalog) -> Program {
    let (stage_schemas, _) = query.schemas(&|t: &str| catalog.table(t).schema.clone());
    let mut b = Builder {
        catalog,
        stage_schemas: &stage_schemas,
        prog: Program { name: query.name.clone(), stmts: Vec::new(), next_sym: 0 },
        buffer_counter: 0,
    };
    for (name, plan) in &query.stages {
        b.prog.stmts.push(Stmt::Comment(format!("stage #{name}")));
        let stmts = b.materialize_into(plan, &format!("#{name}"));
        b.prog.stmts.extend(stmts);
    }
    b.prog.stmts.push(Stmt::Comment("main query".to_string()));
    let root_binding_emit = |_: &mut Builder, binding: &Binding| {
        vec![Stmt::Emit { values: binding.iter().map(|i| i.expr.clone()).collect() }]
    };
    let stmts = b.produce(&query.root, &mut { root_binding_emit });
    b.prog.stmts.extend(stmts);
    b.prog
}

impl<'a> Builder<'a> {
    fn schema_of(&self, table: &str) -> &'a Schema {
        match self.stage_schemas.get(table) {
            Some(s) => s,
            None => &self.catalog.table(table).schema,
        }
    }

    /// Produces loop code for `plan`, calling `consume` at the innermost
    /// point with the operator's output binding.
    fn produce(&mut self, plan: &'a Plan, consume: &mut Consume<'_, 'a>) -> Vec<Stmt> {
        match plan {
            Plan::Scan { table } => {
                let row = self.prog.fresh();
                let is_base = !table.starts_with('#');
                let binding: Binding = self
                    .schema_of(table)
                    .fields
                    .iter()
                    .map(|f| BindItem {
                        name: Cow::Borrowed(&f.name),
                        expr: Expr::Field(row, f.name.clone()),
                        ty: f.ty,
                        prov: is_base.then_some((table.as_str(), f.name.as_str())),
                    })
                    .collect();
                let body = consume(self, &binding);
                vec![Stmt::ScanLoop { row, table: table.clone(), body }]
            }
            Plan::Select { input, predicate } => self.produce(input, &mut |b, binding| {
                let cond = b.tr(predicate, binding);
                vec![Stmt::If { cond, then_b: consume(b, binding), else_b: vec![] }]
            }),
            Plan::Project { input, exprs } => self.produce(input, &mut |b, binding| {
                let mut stmts = Vec::new();
                let mut out = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let ir = b.tr(e, binding);
                    let ty = e.ty_of(&|i| binding[i].ty);
                    // Column pass-through keeps provenance; computed columns
                    // are bound to fresh symbols (later cleaned by scalar
                    // replacement if trivial).
                    let (expr, prov) = match e {
                        PExpr::Col(i) => (ir, binding[*i].prov),
                        _ => {
                            let sym = b.prog.fresh();
                            stmts.push(Stmt::Let { sym, ty: ir_ty(ty), value: ir });
                            (Expr::sym(sym), None)
                        }
                    };
                    out.push(BindItem { name: Cow::Borrowed(name), expr, ty, prov });
                }
                stmts.extend(consume(b, &out));
                stmts
            }),
            Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => self
                .produce_join(
                    left,
                    right,
                    left_keys,
                    right_keys,
                    *kind,
                    residual.as_ref(),
                    consume,
                ),
            Plan::Agg { input, group_by, aggs } => self.produce_agg(input, group_by, aggs, consume),
            Plan::Sort { input, keys } => {
                let name = self.fresh_buffer();
                let mut stmts = self.materialize_into(input, &name);
                stmts.push(Stmt::SortEmitted {
                    keys: keys
                        .iter()
                        .map(|(c, o)| (*c, *o == legobase_engine::plan::SortOrder::Asc))
                        .collect(),
                });
                stmts.extend(self.scan_buffer(&name, input, consume));
                stmts
            }
            Plan::Limit { input, n } => {
                let name = self.fresh_buffer();
                let mut stmts = self.materialize_into(input, &name);
                stmts.push(Stmt::LimitEmitted { n: *n });
                stmts.extend(self.scan_buffer(&name, input, consume));
                stmts
            }
            Plan::Distinct { input } => {
                // Modeled as an aggregation on all columns with no aggregates.
                let schema = plan.schema(&|t: &str| self.schema_of(t).clone());
                let map = self.prog.fresh();
                let mut stmts = vec![Stmt::AggMapNew {
                    sym: map,
                    key: KeyMeta::default(),
                    naggs: 0,
                    store: crate::ir::AggStoreKind::GenericHashMap,
                    hoisted: false,
                }];
                stmts.extend(self.produce(input, &mut |b, binding| {
                    let key = pack_key(binding.iter().map(|i| i.expr.clone()).collect());
                    let _ = b;
                    vec![Stmt::AggUpdate { map, key, updates: vec![] }]
                }));
                let key_sym = self.prog.fresh();
                let aggs_sym = self.prog.fresh();
                let binding: Binding = schema
                    .fields
                    .into_iter()
                    .map(|f| BindItem {
                        expr: Expr::Field(key_sym, f.name.clone()),
                        name: Cow::Owned(f.name),
                        ty: f.ty,
                        prov: None,
                    })
                    .collect();
                let body = consume(self, &binding);
                stmts.push(Stmt::AggForeach { map, key_sym, aggs_sym, body });
                stmts
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn produce_join(
        &mut self,
        left: &'a Plan,
        right: &'a Plan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
        residual: Option<&PExpr>,
        consume: &mut Consume<'_, 'a>,
    ) -> Vec<Stmt> {
        // Inner joins build over the left input and stream the right one
        // (Fig. 7c). Left-preserving joins (semi/anti/outer) build over the
        // right input and stream the left one, so the preserved binding is
        // in scope where the consumer runs.
        let (build_plan, build_keys, stream_plan, stream_keys) = match kind {
            JoinKind::Inner => (left, left_keys, right, right_keys),
            _ => (right, right_keys, left, left_keys),
        };
        let map = self.prog.fresh();
        let mut stmts = Vec::new();
        let mut key_meta = KeyMeta::default();
        let mut build_binding_saved: Option<Binding> = None;

        let build = self.produce(build_plan, &mut |b, binding| {
            if build_binding_saved.is_none() {
                build_binding_saved = Some(binding.clone());
                // The partitioned-join rewrite replaces the stored records
                // with direct base-table rows (Fig. 10), which is only valid
                // when the build side *is* a (filtered) base-table binding.
                let pure_base = binding.iter().all(|i| {
                    i.prov.is_some_and(|(t, c)| {
                        c == i.name && Some(t) == binding[0].prov.map(|(t0, _)| t0)
                    })
                });
                if pure_base && build_keys.len() == 1 {
                    if let Some((t, c)) = binding[build_keys[0]].prov {
                        key_meta = KeyMeta { table: Some(t.into()), column: Some(c.into()) };
                    }
                }
            }
            let key = pack_key(build_keys.iter().map(|&k| binding[k].expr.clone()).collect());
            let rec = b.prog.fresh();
            vec![
                Stmt::Let {
                    sym: rec,
                    ty: Ty::Row("rec".into()),
                    value: Expr::Call(
                        "record".into(),
                        binding.iter().map(|i| i.expr.clone()).collect(),
                    ),
                },
                Stmt::MultiMapInsert { map, key: key.clone(), row: rec },
            ]
        });
        stmts.push(Stmt::MultiMapNew { sym: map, key: key_meta });
        stmts.extend(build);

        let build_binding = build_binding_saved.unwrap_or_default();

        // Stream phase.
        let probe = self.produce(stream_plan, &mut |b, sbinding| {
            let key = pack_key(stream_keys.iter().map(|&k| sbinding[k].expr.clone()).collect());
            let mrow = b.prog.fresh();
            // Fields of the matched (build-side) record.
            let matched = build_binding.iter().map(|i| BindItem {
                name: i.name.clone(),
                expr: Expr::Field(mrow, i.name.to_string()),
                ty: i.ty,
                prov: None,
            });
            // The plan-level joined schema is always left ++ right.
            let joined: Binding = match kind {
                JoinKind::Inner => matched.chain(sbinding.iter().cloned()).collect(),
                _ => sbinding.iter().cloned().chain(matched).collect(),
            };
            let residual_cond = residual.map(|r| b.tr(r, &joined));
            match kind {
                JoinKind::Inner => {
                    let mut body = consume(b, &joined);
                    if let Some(cond) = residual_cond {
                        body = vec![Stmt::If { cond, then_b: body, else_b: vec![] }];
                    }
                    vec![Stmt::MultiMapLookup { map, key, row: mrow, body }]
                }
                JoinKind::Semi | JoinKind::Anti => {
                    // Existence probe with a flag; the output binding is the
                    // preserved (streamed) side only.
                    let found = b.prog.fresh();
                    let mut inner = vec![Stmt::Assign { sym: found, value: Expr::Bool(true) }];
                    if let Some(cond) = residual_cond {
                        inner = vec![Stmt::If { cond, then_b: inner, else_b: vec![] }];
                    }
                    let emit = consume(b, sbinding);
                    let cond = if kind == JoinKind::Semi {
                        Expr::sym(found)
                    } else {
                        Expr::Not(Box::new(Expr::sym(found)))
                    };
                    vec![
                        Stmt::Var { sym: found, ty: Ty::Bool, init: Expr::Bool(false) },
                        Stmt::MultiMapLookup { map, key, row: mrow, body: inner },
                        Stmt::If { cond, then_b: emit, else_b: vec![] },
                    ]
                }
                JoinKind::LeftOuter => {
                    // Emit per match inside the loop; emit once with NULL
                    // right attributes when no match was found.
                    let found = b.prog.fresh();
                    let mut inner = vec![Stmt::Assign { sym: found, value: Expr::Bool(true) }];
                    inner.extend(consume(b, &joined));
                    if let Some(cond) = residual_cond {
                        inner = vec![Stmt::If { cond, then_b: inner, else_b: vec![] }];
                    }
                    let null_joined: Binding = sbinding
                        .iter()
                        .cloned()
                        .chain(build_binding.iter().map(|i| BindItem {
                            name: i.name.clone(),
                            expr: Expr::Call("null".into(), vec![]),
                            ty: i.ty,
                            prov: None,
                        }))
                        .collect();
                    let emit_null = consume(b, &null_joined);
                    vec![
                        Stmt::Var { sym: found, ty: Ty::Bool, init: Expr::Bool(false) },
                        Stmt::MultiMapLookup { map, key, row: mrow, body: inner },
                        Stmt::If {
                            cond: Expr::Not(Box::new(Expr::sym(found))),
                            then_b: emit_null,
                            else_b: vec![],
                        },
                    ]
                }
            }
        });
        stmts.extend(probe);
        stmts
    }

    fn produce_agg(
        &mut self,
        input: &'a Plan,
        group_by: &[usize],
        aggs: &'a [legobase_engine::plan::AggSpec],
        consume: &mut Consume<'_, 'a>,
    ) -> Vec<Stmt> {
        let map = self.prog.fresh();
        let mut key_meta = KeyMeta::default();
        let mut naggs = 0usize;
        let mut group_items: Vec<(Cow<'a, str>, Type)> = Vec::new();

        let update_code = self.produce(input, &mut |b, binding| {
            if group_items.is_empty() {
                for &g in group_by {
                    group_items.push((binding[g].name.clone(), binding[g].ty));
                }
                if group_by.len() == 1 {
                    if let Some((t, c)) = binding[group_by[0]].prov {
                        key_meta = KeyMeta { table: Some(t.into()), column: Some(c.into()) };
                    }
                }
            }
            let key = pack_key(group_by.iter().map(|&g| binding[g].expr.clone()).collect());
            let mut updates = Vec::new();
            for a in aggs {
                let e = b.tr(&a.expr, binding);
                match a.kind {
                    AggKind::Sum => {
                        let ty = a.expr.ty_of(&|i| binding[i].ty);
                        let op = if ty == Type::Int { AggOp::SumI } else { AggOp::SumF };
                        updates.push((op, e));
                    }
                    AggKind::Count => updates.push((AggOp::Count, e)),
                    AggKind::Avg => {
                        updates.push((AggOp::SumF, e));
                        updates.push((AggOp::Count, Expr::Int(1)));
                    }
                    AggKind::Min => updates.push((AggOp::Min, e)),
                    AggKind::Max => updates.push((AggOp::Max, e)),
                }
            }
            naggs = updates.len();
            vec![Stmt::AggUpdate { map, key, updates }]
        });

        let mut stmts = vec![Stmt::AggMapNew {
            sym: map,
            key: key_meta,
            naggs,
            store: crate::ir::AggStoreKind::GenericHashMap,
            hoisted: false,
        }];
        stmts.extend(update_code);

        let key_sym = self.prog.fresh();
        let aggs_sym = self.prog.fresh();
        let binding: Binding = group_items
            .into_iter()
            .map(|(name, ty)| BindItem {
                expr: Expr::Field(key_sym, name.to_string()),
                name,
                ty,
                prov: None,
            })
            .chain(aggs.iter().map(|a| BindItem {
                name: Cow::Borrowed(&a.name),
                expr: Expr::Field(aggs_sym, a.name.clone()),
                // The IR's aggregate slots are counts or doubles.
                ty: if matches!(a.kind, AggKind::Count) { Type::Int } else { Type::Float },
                prov: None,
            }))
            .collect();
        let body = consume(self, &binding);
        stmts.push(Stmt::AggForeach { map, key_sym, aggs_sym, body });
        stmts
    }

    /// Runs `plan` with an `Emit` consumer targeting buffer `name`.
    fn materialize_into(&mut self, plan: &'a Plan, name: &str) -> Vec<Stmt> {
        let mut stmts = vec![Stmt::Comment(format!("materialize into {name}"))];
        let inner = self.produce(plan, &mut |_, binding| {
            vec![Stmt::Emit { values: binding.iter().map(|i| i.expr.clone()).collect() }]
        });
        stmts.extend(inner);
        stmts
    }

    /// Scans a materialized buffer with the schema of `source`.
    fn scan_buffer(
        &mut self,
        name: &str,
        source: &Plan,
        consume: &mut Consume<'_, 'a>,
    ) -> Vec<Stmt> {
        let schema = source.schema(&|t: &str| self.schema_of(t).clone());
        let row = self.prog.fresh();
        let binding: Binding = schema
            .fields
            .into_iter()
            .map(|f| BindItem {
                expr: Expr::Field(row, f.name.clone()),
                name: Cow::Owned(f.name),
                ty: f.ty,
                prov: None,
            })
            .collect();
        let body = consume(self, &binding);
        vec![Stmt::ScanLoop { row, table: name.to_string(), body }]
    }

    fn fresh_buffer(&mut self) -> String {
        self.buffer_counter += 1;
        format!("__buf{}", self.buffer_counter)
    }

    /// Translates a plan expression against the current binding.
    fn tr(&mut self, e: &PExpr, binding: &Binding) -> Expr {
        match e {
            PExpr::Col(i) => binding[*i].expr.clone(),
            PExpr::Lit(v) => lit(v),
            PExpr::Cmp(op, a, b) => {
                // String comparisons against literals stay string ops until
                // the dictionary transformer lowers them (Table II).
                if let PExpr::Lit(Value::Str(s)) = b.as_ref() {
                    let fa = self.tr(a, binding);
                    let f = match op {
                        CmpOp::Eq => Some(StrFn::Eq),
                        CmpOp::Ne => Some(StrFn::Ne),
                        _ => None,
                    };
                    if let Some(f) = f {
                        return Expr::StrOp(f, Box::new(fa), s.clone());
                    }
                    return Expr::Call(
                        format!("strcmp_{op:?}").to_lowercase(),
                        vec![fa, Expr::Str(s.clone())],
                    );
                }
                let (fa, fb) = (self.tr(a, binding), self.tr(b, binding));
                Expr::bin(cmp_op(*op), fa, fb)
            }
            PExpr::Arith(op, a, b) => {
                let ir = match op {
                    ArithOp::Add => BinOp::Add,
                    ArithOp::Sub => BinOp::Sub,
                    ArithOp::Mul => BinOp::Mul,
                    ArithOp::Div => BinOp::Div,
                };
                Expr::bin(ir, self.tr(a, binding), self.tr(b, binding))
            }
            PExpr::And(a, b) => Expr::bin(BinOp::And, self.tr(a, binding), self.tr(b, binding)),
            PExpr::Or(a, b) => Expr::bin(BinOp::Or, self.tr(a, binding), self.tr(b, binding)),
            PExpr::Not(a) => Expr::Not(Box::new(self.tr(a, binding))),
            PExpr::StartsWith(a, p) => {
                Expr::StrOp(StrFn::StartsWith, Box::new(self.tr(a, binding)), p.clone())
            }
            PExpr::EndsWith(a, p) => {
                Expr::StrOp(StrFn::EndsWith, Box::new(self.tr(a, binding)), p.clone())
            }
            PExpr::Contains(a, p) => {
                Expr::StrOp(StrFn::Contains, Box::new(self.tr(a, binding)), p.clone())
            }
            PExpr::ContainsWordSeq(a, w1, w2) => {
                Expr::StrOp(StrFn::WordSeq, Box::new(self.tr(a, binding)), format!("{w1} {w2}"))
            }
            PExpr::Substr(a, s, l) => Expr::Call(
                "substr".into(),
                vec![self.tr(a, binding), Expr::Int(*s as i64), Expr::Int(*l as i64)],
            ),
            PExpr::InList(a, vals) => {
                let fa = self.tr(a, binding);
                let parts: Vec<Expr> = vals
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Expr::StrOp(StrFn::Eq, Box::new(fa.clone()), s.clone()),
                        other => Expr::bin(BinOp::Eq, fa.clone(), lit(other)),
                    })
                    .collect();
                parts
                    .into_iter()
                    .reduce(|a, b| Expr::bin(BinOp::Or, a, b))
                    .unwrap_or(Expr::Bool(false))
            }
            PExpr::Case(c, t, f) => Expr::Call(
                "ternary".into(),
                vec![self.tr(c, binding), self.tr(t, binding), self.tr(f, binding)],
            ),
            PExpr::IsNull(a) => Expr::Call("is_null".into(), vec![self.tr(a, binding)]),
            PExpr::Year(a) => Expr::YearOf(Box::new(self.tr(a, binding))),
        }
    }
}

fn cmp_op(op: CmpOp) -> BinOp {
    match op {
        CmpOp::Eq => BinOp::Eq,
        CmpOp::Ne => BinOp::Ne,
        CmpOp::Lt => BinOp::Lt,
        CmpOp::Le => BinOp::Le,
        CmpOp::Gt => BinOp::Gt,
        CmpOp::Ge => BinOp::Ge,
    }
}

fn lit(v: &Value) -> Expr {
    match v {
        Value::Int(i) => Expr::Int(*i),
        Value::Float(f) => Expr::Float(*f),
        Value::Str(s) => Expr::Str(s.clone()),
        Value::Date(d) => Expr::Date(d.0),
        Value::Bool(b) => Expr::Bool(*b),
        Value::Null => Expr::Call("null".into(), vec![]),
    }
}

fn ir_ty(t: Type) -> Ty {
    match t {
        Type::Int => Ty::I64,
        Type::Float => Ty::F64,
        Type::Str => Ty::Str,
        Type::Date => Ty::Date,
        Type::Bool => Ty::Bool,
    }
}

/// Packs one or more key expressions into a single key expression.
fn pack_key(mut keys: Vec<Expr>) -> Expr {
    match keys.len() {
        0 => Expr::Int(0),
        1 => keys.pop().expect("non-empty"),
        _ => Expr::Call("pack".into(), keys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_queries::query;

    #[test]
    fn q6_builds_single_scan_with_global_agg() {
        let cat = legobase_tpch::catalog();
        let prog = build_ir(&query(&cat, 6), &cat);
        assert_eq!(prog.count(|s| matches!(s, Stmt::ScanLoop { .. })), 1);
        assert_eq!(prog.count(|s| matches!(s, Stmt::AggMapNew { .. })), 1);
        assert_eq!(prog.count(|s| matches!(s, Stmt::AggUpdate { .. })), 1);
        // No joins in Q6.
        assert_eq!(prog.count(|s| matches!(s, Stmt::MultiMapNew { .. })), 0);
    }

    #[test]
    fn q12_has_join_and_string_ops() {
        let cat = legobase_tpch::catalog();
        let prog = build_ir(&query(&cat, 12), &cat);
        assert_eq!(prog.count(|s| matches!(s, Stmt::MultiMapNew { .. })), 1);
        // The group key (l_shipmode) has provenance.
        let mut meta = None;
        prog.walk(&mut |s| {
            if let Stmt::AggMapNew { key, .. } = s {
                meta = Some(key.clone());
            }
        });
        let meta = meta.expect("agg map present");
        assert_eq!(meta.table.as_deref(), Some("lineitem"));
        assert_eq!(meta.column.as_deref(), Some("l_shipmode"));
        // String operations still in raw form before dictionary lowering.
        let mut str_ops = 0;
        prog.walk(&mut |s| {
            let count_in = |e: &Expr, n: &mut usize| {
                e.visit(&mut |x| {
                    if matches!(x, Expr::StrOp(..)) {
                        *n += 1;
                    }
                });
            };
            if let Stmt::If { cond, .. } = s {
                count_in(cond, &mut str_ops);
            }
        });
        assert!(str_ops > 0, "Q12 must contain string predicates");
    }

    #[test]
    fn all_queries_translate() {
        let cat = legobase_tpch::catalog();
        for q in legobase_queries::all_queries(&cat) {
            let prog = build_ir(&q, &cat);
            assert!(prog.size() > 3, "{} produced a trivial program", q.name);
            assert!(
                prog.count(|s| matches!(s, Stmt::Emit { .. })) >= 1,
                "{} emits nothing",
                q.name
            );
        }
    }

    #[test]
    fn join_provenance_recorded() {
        let cat = legobase_tpch::catalog();
        // Q4: orders semi-join lineitem on orderkey. Semi joins build over
        // the right (filtered lineitem) side, so the build key is
        // l_orderkey of lineitem.
        let prog = build_ir(&query(&cat, 4), &cat);
        let mut metas = Vec::new();
        prog.walk(&mut |s| {
            if let Stmt::MultiMapNew { key, .. } = s {
                metas.push(key.clone());
            }
        });
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].table.as_deref(), Some("lineitem"));
        assert_eq!(metas[0].column.as_deref(), Some("l_orderkey"));
    }
}
