//! A small plan-builder DSL.
//!
//! Mirrors how the paper's Scala plans are written (Fig. 4a / Fig. 8):
//! operator constructors chained bottom-up, with attribute names resolved to
//! positions at plan-construction time.

use legobase_engine::expr::AggKind;
use legobase_engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase_engine::Expr;
use legobase_storage::{Catalog, Schema};
use std::collections::HashMap;

/// Build context: resolves base and stage schemas. Borrows the catalog —
/// a lowering reads a few table schemas, never the statistics beside them.
pub struct Ctx<'a> {
    catalog: &'a Catalog,
    stages: Vec<(String, Plan)>,
    stage_schemas: HashMap<String, Schema>,
}

impl<'a> Ctx<'a> {
    /// Creates a builder context over a catalog.
    pub fn new(catalog: &'a Catalog) -> Ctx<'a> {
        Ctx { catalog, stages: Vec::new(), stage_schemas: HashMap::new() }
    }

    fn schema_of(&self, table: &str) -> Schema {
        if let Some(s) = self.stage_schemas.get(table) {
            s.clone()
        } else {
            self.catalog.table(table).schema.clone()
        }
    }

    /// Scans a base table or a previously registered stage (`#name`).
    pub fn scan(&self, table: &str) -> Node {
        Node { plan: Plan::scan(table), schema: self.schema_of(table) }
    }

    /// Materializes `node` as stage `name`; later scans refer to `#name`.
    pub fn stage(&mut self, name: &str, node: Node) {
        self.stage_schemas.insert(format!("#{name}"), node.schema);
        self.stages.push((name.to_string(), node.plan));
    }

    /// Finishes the query.
    pub fn build(self, name: &str, root: Node) -> QueryPlan {
        let mut q = QueryPlan::new(name, root.plan);
        for (n, p) in self.stages {
            q = q.with_stage(&n, p);
        }
        q
    }
}

/// A plan under construction together with its output schema.
#[derive(Clone)]
pub struct Node {
    /// The physical plan built so far.
    pub plan: Plan,
    /// Output schema of `plan`.
    pub schema: Schema,
}

impl Node {
    /// Column reference by name.
    pub fn c(&self, name: &str) -> Expr {
        Expr::Col(self.schema.col(name))
    }

    /// Column position by name.
    pub fn i(&self, name: &str) -> usize {
        self.schema.col(name)
    }

    /// Appends a filter.
    pub fn filter(&self, predicate: Expr) -> Node {
        Node {
            plan: Plan::Select { input: Box::new(self.plan.clone()), predicate },
            schema: self.schema.clone(),
        }
    }

    /// Projection; the closure receives `self` for name resolution.
    pub fn project(&self, exprs: Vec<(Expr, &str)>) -> Node {
        let fields = exprs
            .iter()
            .map(|(e, n)| legobase_storage::Field::new(n, e.ty(&self.schema)))
            .collect();
        Node {
            plan: Plan::Project {
                input: Box::new(self.plan.clone()),
                exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
            },
            schema: Schema::new(fields),
        }
    }

    /// Equi-join by attribute names; for inner/outer joins the output schema
    /// is `self ++ right`.
    pub fn join(&self, right: Node, lk: &[&str], rk: &[&str], kind: JoinKind) -> Node {
        self.join_residual(right, lk, rk, kind, None)
    }

    /// Hash join with an additional residual predicate.
    pub fn join_residual(
        &self,
        right: Node,
        lk: &[&str],
        rk: &[&str],
        kind: JoinKind,
        residual: Option<Expr>,
    ) -> Node {
        let left_keys = lk.iter().map(|n| self.schema.col(n)).collect();
        let right_keys = rk.iter().map(|n| right.schema.col(n)).collect();
        let schema = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => self.schema.concat(&right.schema),
            JoinKind::Semi | JoinKind::Anti => self.schema.clone(),
        };
        Node {
            plan: Plan::HashJoin {
                left: Box::new(self.plan.clone()),
                right: Box::new(right.plan),
                left_keys,
                right_keys,
                kind,
                residual,
            },
            schema,
        }
    }

    /// Grouped aggregation; output schema = group columns then aggregates.
    pub fn agg(&self, group: &[&str], aggs: Vec<(AggKind, Expr, &str)>) -> Node {
        let group_by: Vec<usize> = group.iter().map(|n| self.schema.col(n)).collect();
        let mut fields: Vec<legobase_storage::Field> =
            group_by.iter().map(|&i| self.schema.fields[i].clone()).collect();
        let specs: Vec<AggSpec> = aggs
            .into_iter()
            .map(|(k, e, n)| {
                let ty = match k {
                    AggKind::Count => legobase_storage::Type::Int,
                    AggKind::Avg => legobase_storage::Type::Float,
                    _ => e.ty(&self.schema),
                };
                fields.push(legobase_storage::Field::new(n, ty));
                AggSpec::new(k, e, n)
            })
            .collect();
        let plan = Plan::Agg { input: Box::new(self.plan.clone()), group_by, aggs: specs };
        Node { plan, schema: Schema::new(fields) }
    }

    /// Appends a sort by named columns.
    pub fn sort(&self, keys: &[(&str, SortOrder)]) -> Node {
        let keys = keys.iter().map(|(n, o)| (self.schema.col(n), *o)).collect();
        Node {
            plan: Plan::Sort { input: Box::new(self.plan.clone()), keys },
            schema: self.schema.clone(),
        }
    }

    /// Appends a row limit.
    pub fn limit(self, n: usize) -> Node {
        Node { plan: Plan::limited(self.plan, n), schema: self.schema }
    }

    /// Appends duplicate elimination.
    pub fn distinct(self) -> Node {
        Node { plan: Plan::deduplicated(self.plan), schema: self.schema }
    }

    /// Cross join with a (typically single-row) node, implemented as an
    /// equi-join on an appended constant key — how flattened scalar
    /// subqueries (Q11, Q15, Q17, Q22) consume their aggregate stage.
    pub fn cross_join(self, right: Node) -> Node {
        let (l, r) = (self.append_const_key(), right.append_const_key());
        let (lk, rk) = (l.schema.len() - 1, r.schema.len() - 1);
        let schema = l.schema.concat(&r.schema);
        let joined = Plan::hash_join(l.plan, r.plan, vec![lk], vec![rk], JoinKind::Inner, None);
        // Drop the two helper keys.
        let (keep, fields): (Vec<(Expr, String)>, Vec<_>) = schema
            .fields
            .into_iter()
            .enumerate()
            .filter(|(_, f)| f.name != "__k")
            .map(|(i, f)| ((Expr::Col(i), f.name.clone()), f))
            .unzip();
        Node { plan: Plan::projected(joined, keep), schema: Schema::new(fields) }
    }

    fn append_const_key(self) -> Node {
        let mut exprs: Vec<(Expr, String)> = self
            .schema
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (Expr::Col(i), f.name.clone()))
            .collect();
        exprs.push((Expr::lit(1i64), "__k".to_string()));
        let mut fields = self.schema.fields;
        fields.push(legobase_storage::Field::new("__k", legobase_storage::Type::Int));
        Node { plan: Plan::projected(self.plan, exprs), schema: Schema::new(fields) }
    }
}

/// Resolves a column name over a *concatenated* join schema: looks in `l`
/// first, then in `r` (offset by `l`'s arity). Used for residual predicates.
pub fn jcol(l: &Node, r: &Node, name: &str) -> Expr {
    if let Some(i) = l.schema.index_of(name) {
        Expr::Col(i)
    } else {
        Expr::Col(l.schema.len() + r.schema.col(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_engine::plan::SortOrder;
    use legobase_engine::CmpOp;

    #[test]
    fn names_resolve_through_operators() {
        let cat = legobase_tpch::catalog();
        let c = Ctx::new(&cat);
        let n = c
            .scan("orders")
            .filter(Expr::cmp(CmpOp::Gt, Expr::Col(3), Expr::lit(0.0)))
            .agg(&["o_orderpriority"], vec![(AggKind::Count, Expr::lit(1i64), "n")])
            .sort(&[("n", SortOrder::Desc)]);
        assert_eq!(n.schema.fields[0].name, "o_orderpriority");
        assert_eq!(n.i("n"), 1);
    }

    #[test]
    fn join_concat_and_jcol() {
        let cat = legobase_tpch::catalog();
        let c = Ctx::new(&cat);
        let l = c.scan("orders");
        let r = c.scan("customer");
        assert_eq!(jcol(&l, &r, "o_custkey"), Expr::Col(1));
        assert_eq!(jcol(&l, &r, "c_name"), Expr::Col(9 + 1));
        let j = l.join(r, &["o_custkey"], &["c_custkey"], JoinKind::Inner);
        assert_eq!(j.schema.len(), 9 + 8);
        assert_eq!(j.i("c_custkey"), 9);
    }

    #[test]
    fn cross_join_drops_helper_key() {
        let cat = legobase_tpch::catalog();
        let c = Ctx::new(&cat);
        let l = c.scan("region");
        let r = c.scan("nation").agg(&[], vec![(AggKind::Count, Expr::lit(1i64), "n_nations")]);
        let x = l.cross_join(r);
        assert_eq!(x.schema.len(), 4);
        assert!(x.schema.index_of("__k").is_none());
        assert_eq!(x.i("n_nations"), 3);
    }

    #[test]
    fn stages_register() {
        let cat = legobase_tpch::catalog();
        let mut c = Ctx::new(&cat);
        let s = c.scan("nation").agg(&[], vec![(AggKind::Count, Expr::lit(1i64), "n")]);
        c.stage("counts", s);
        let root = c.scan("#counts");
        assert_eq!(root.schema.fields[0].name, "n");
        let q = c.build("t", root);
        assert_eq!(q.stages.len(), 1);
    }
}
