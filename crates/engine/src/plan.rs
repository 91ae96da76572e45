//! The physical query algebra.
//!
//! A [`QueryPlan`] is what the paper's Fig. 4a / Fig. 8 show in Scala: an
//! operator tree built after traditional query optimization (join ordering is
//! considered orthogonal, Section 2.1). Every TPC-H query is expressed once
//! as a `QueryPlan` and executed by all engine configurations.
//!
//! Plans may consist of multiple *stages*: scalar and correlated subqueries
//! are expressed by materializing intermediate results under `#name` and
//! scanning them from later stages — the same flattening the paper's plans
//! obtained from the commercial optimizer perform.

use crate::expr::{AggKind, Expr};
use legobase_storage::{Field, Schema, Type};
use std::collections::{BTreeSet, HashMap};

/// Join variants used by the TPC-H workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinKind {
    /// Matches emit the concatenated left+right row.
    Inner,
    /// Preserves unmatched left rows with NULL right attributes (Q13).
    LeftOuter,
    /// Emits left rows with at least one match (EXISTS).
    Semi,
    /// Emits left rows with no match (NOT EXISTS).
    Anti,
}

/// Sort direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One aggregate function in an [`Plan::Agg`] node.
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    /// Aggregate function.
    pub kind: AggKind,
    /// Input expression over the child row.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Creates an aggregate column specification.
    pub fn new(kind: AggKind, expr: Expr, name: &str) -> AggSpec {
        AggSpec { kind, expr, name: name.to_string() }
    }
}

/// A physical operator tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Scan of a base table or of a materialized stage (`#name`).
    Scan {
        /// Relation (or `#stage` buffer) name.
        table: String,
    },
    /// Filter.
    Select {
        /// Child operator.
        input: Box<Plan>,
        /// Row predicate.
        predicate: Expr,
    },
    /// Projection with computed expressions.
    Project {
        /// Child operator.
        input: Box<Plan>,
        /// `(expression, output name)` pairs, one per output column.
        exprs: Vec<(Expr, String)>,
    },
    /// Hash equi-join; `residual` is evaluated over the concatenated
    /// left++right schema for non-equi conditions (Q21's `<> l_suppkey`).
    HashJoin {
        /// Build side (hashed).
        left: Box<Plan>,
        /// Probe side.
        right: Box<Plan>,
        /// Join-key columns of the left input.
        left_keys: Vec<usize>,
        /// Join-key columns of the right input.
        right_keys: Vec<usize>,
        /// Join semantics.
        kind: JoinKind,
        /// Non-equi residual predicate over the concatenated row.
        residual: Option<Expr>,
    },
    /// Grouped aggregation; output schema is group columns then aggregates.
    Agg {
        /// Child operator.
        input: Box<Plan>,
        /// Grouping columns (empty = one global group).
        group_by: Vec<usize>,
        /// Aggregate columns.
        aggs: Vec<AggSpec>,
    },
    /// Sort by `(column, order)` keys.
    Sort {
        /// Child operator.
        input: Box<Plan>,
        /// Sort keys, highest priority first.
        keys: Vec<(usize, SortOrder)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Child operator.
        input: Box<Plan>,
        /// Maximum rows kept.
        n: usize,
    },
    /// Full-row duplicate elimination.
    Distinct {
        /// Child operator.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Shorthand for [`Plan::Scan`].
    pub fn scan(table: &str) -> Plan {
        Plan::Scan { table: table.to_string() }
    }

    // The boxing constructors below are the public building API of the
    // algebra — used by the plan-builder DSL in `legobase_queries` and by
    // the SQL frontend's lowering, which assemble operators positionally.

    /// Filter `input` by `predicate` ([`Plan::Select`]).
    pub fn filtered(input: Plan, predicate: Expr) -> Plan {
        Plan::Select { input: Box::new(input), predicate }
    }

    /// Compute `(expression, output name)` columns over `input`
    /// ([`Plan::Project`]).
    pub fn projected(input: Plan, exprs: Vec<(Expr, String)>) -> Plan {
        Plan::Project { input: Box::new(input), exprs }
    }

    /// Hash equi-join with positional keys and an optional residual over
    /// the concatenated left++right row ([`Plan::HashJoin`]).
    pub fn hash_join(
        left: Plan,
        right: Plan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
        residual: Option<Expr>,
    ) -> Plan {
        Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys,
            right_keys,
            kind,
            residual,
        }
    }

    /// Grouped aggregation over positional keys ([`Plan::Agg`]).
    pub fn aggregated(input: Plan, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Plan {
        Plan::Agg { input: Box::new(input), group_by, aggs }
    }

    /// Sort by positional `(column, order)` keys ([`Plan::Sort`]).
    pub fn sorted(input: Plan, keys: Vec<(usize, SortOrder)>) -> Plan {
        Plan::Sort { input: Box::new(input), keys }
    }

    /// Keep the first `n` rows ([`Plan::Limit`]).
    pub fn limited(input: Plan, n: usize) -> Plan {
        Plan::Limit { input: Box::new(input), n }
    }

    /// Full-row duplicate elimination ([`Plan::Distinct`]).
    pub fn deduplicated(input: Plan) -> Plan {
        Plan::Distinct { input: Box::new(input) }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Agg { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Pre-order traversal.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// Number of operators in the tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Output arity given a resolver for table arities: what
    /// [`Plan::schema`]`.len()` returns, without building a schema — the
    /// walk stops at the nearest projection or aggregation, which fix their
    /// own width.
    pub fn arity(&self, arity_of: &impl Fn(&str) -> usize) -> usize {
        match self {
            Plan::Scan { table } => arity_of(table),
            Plan::Select { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input } => input.arity(arity_of),
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::HashJoin { left, right, kind, .. } => match kind {
                JoinKind::Inner | JoinKind::LeftOuter => {
                    left.arity(arity_of) + right.arity(arity_of)
                }
                JoinKind::Semi | JoinKind::Anti => left.arity(arity_of),
            },
            Plan::Agg { group_by, aggs, .. } => group_by.len() + aggs.len(),
        }
    }

    /// Computes the output schema given a resolver for table names.
    pub fn schema(&self, lookup: &impl Fn(&str) -> Schema) -> Schema {
        match self {
            Plan::Scan { table } => lookup(table),
            Plan::Select { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input } => input.schema(lookup),
            Plan::Project { input, exprs } => projected_schema(&input.schema(lookup), exprs),
            Plan::HashJoin { left, right, kind, .. } => {
                let l = left.schema(lookup);
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => l.concat(&right.schema(lookup)),
                    JoinKind::Semi | JoinKind::Anti => l,
                }
            }
            Plan::Agg { input, group_by, aggs } => {
                aggregated_schema(&input.schema(lookup), group_by, aggs)
            }
        }
    }
}

/// Output schema of a [`Plan::Project`] over an input of schema `input`.
pub fn projected_schema(input: &Schema, exprs: &[(Expr, String)]) -> Schema {
    Schema::new(exprs.iter().map(|(e, name)| Field::new(name, e.ty(input))).collect())
}

/// Output schema of a [`Plan::Agg`] over an input of schema `input`: the
/// group columns, then one column per aggregate.
pub fn aggregated_schema(input: &Schema, group_by: &[usize], aggs: &[AggSpec]) -> Schema {
    let mut fields: Vec<Field> = group_by.iter().map(|&i| input.fields[i].clone()).collect();
    for a in aggs {
        let ty = match a.kind {
            AggKind::Count => Type::Int,
            AggKind::Avg => Type::Float,
            AggKind::Sum | AggKind::Min | AggKind::Max => a.expr.ty(input),
        };
        fields.push(Field::new(&a.name, ty));
    }
    Schema::new(fields)
}

/// A complete query: materialized stages plus the final plan.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Query name (Q1–Q22 or a custom label).
    pub name: String,
    /// Stages executed in order; stage `i` may scan `#name` of stages `< i`.
    pub stages: Vec<(String, Plan)>,
    /// The root operator tree.
    pub root: Plan,
}

impl QueryPlan {
    /// Creates a single-stage query plan.
    pub fn new(name: &str, root: Plan) -> QueryPlan {
        QueryPlan { name: name.to_string(), stages: Vec::new(), root }
    }

    /// Adds a named stage evaluated before the root (Q15-style views).
    pub fn with_stage(mut self, name: &str, plan: Plan) -> QueryPlan {
        self.stages.push((name.to_string(), plan));
        self
    }

    /// All plans in execution order (stages then root).
    pub fn plans(&self) -> impl Iterator<Item = &Plan> {
        self.stages.iter().map(|(_, p)| p).chain(std::iter::once(&self.root))
    }

    /// The base relations the query scans, stage results (`#name`) excluded.
    pub fn base_tables(&self) -> BTreeSet<&str> {
        let mut tables = BTreeSet::new();
        for plan in self.plans() {
            plan.walk(&mut |node| {
                if let Plan::Scan { table } = node {
                    if !table.starts_with('#') {
                        tables.insert(table.as_str());
                    }
                }
            });
        }
        tables
    }

    /// Resolves the schema of every stage and the root. `base` resolves base
    /// tables; stage results are made available as `#name`.
    pub fn schemas(&self, base: &impl Fn(&str) -> Schema) -> (HashMap<String, Schema>, Schema) {
        let mut stage_schemas: HashMap<String, Schema> = HashMap::new();
        for (name, plan) in &self.stages {
            let s = plan.schema(&|t: &str| resolve(t, base, &stage_schemas));
            stage_schemas.insert(format!("#{name}"), s);
        }
        let root = self.root.schema(&|t: &str| resolve(t, base, &stage_schemas));
        (stage_schemas, root)
    }

    /// Total operator count across all stages.
    pub fn size(&self) -> usize {
        self.plans().map(Plan::size).sum()
    }
}

fn resolve(
    table: &str,
    base: &impl Fn(&str) -> Schema,
    stages: &HashMap<String, Schema>,
) -> Schema {
    if let Some(s) = stages.get(table) {
        s.clone()
    } else {
        base(table)
    }
}

/// Which columns of which *base* tables a query touches. Drives unused-field
/// removal (Section 3.6.1) and the column-layout loader.
/// `base_arity` resolves a base table's column count.
pub fn used_base_columns(
    query: &QueryPlan,
    base_arity: &impl Fn(&str) -> usize,
) -> HashMap<String, BTreeSet<usize>> {
    let mut stage_arity: HashMap<String, usize> = HashMap::new();
    for (name, plan) in &query.stages {
        let arity =
            plan.arity(&|t: &str| stage_arity.get(t).copied().unwrap_or_else(|| base_arity(t)));
        stage_arity.insert(format!("#{name}"), arity);
    }
    let arity_of = |t: &str| stage_arity.get(t).copied().unwrap_or_else(|| base_arity(t));
    let mut used: HashMap<String, BTreeSet<usize>> = HashMap::new();
    for plan in query.plans() {
        collect_used(plan, None, &arity_of, &mut used);
    }
    used
}

/// Recursively propagates "needed output columns" (`None` = all) down the
/// tree and records base-table column usage.
fn collect_used(
    plan: &Plan,
    need: Option<&BTreeSet<usize>>,
    arity_of: &impl Fn(&str) -> usize,
    used: &mut HashMap<String, BTreeSet<usize>>,
) {
    match plan {
        Plan::Scan { table } => {
            if table.starts_with('#') {
                return; // stage results analyzed via their own plan
            }
            let entry = used.entry(table.clone()).or_default();
            match need {
                Some(cols) => entry.extend(cols.iter().copied()),
                None => entry.extend(0..arity_of(table)),
            }
        }
        Plan::Select { input, predicate } => {
            let mut n = need.cloned().unwrap_or_else(|| all_cols(input, arity_of));
            let mut cols = Vec::new();
            predicate.collect_cols(&mut cols);
            n.extend(cols);
            collect_used(input, Some(&n), arity_of, used);
        }
        Plan::Project { input, exprs } => {
            let mut n = BTreeSet::new();
            for (i, (e, _)) in exprs.iter().enumerate() {
                if need.is_none_or(|s| s.contains(&i)) {
                    let mut cols = Vec::new();
                    e.collect_cols(&mut cols);
                    n.extend(cols);
                }
            }
            collect_used(input, Some(&n), arity_of, used);
        }
        Plan::HashJoin { left, right, left_keys, right_keys, residual, kind } => {
            let l_arity = left.arity(arity_of);
            let mut ln: BTreeSet<usize> = left_keys.iter().copied().collect();
            let mut rn: BTreeSet<usize> = right_keys.iter().copied().collect();
            let out_arity = match kind {
                JoinKind::Inner | JoinKind::LeftOuter => l_arity + right.arity(arity_of),
                JoinKind::Semi | JoinKind::Anti => l_arity,
            };
            let need_all: BTreeSet<usize> = (0..out_arity).collect();
            for &c in need.unwrap_or(&need_all) {
                if c < l_arity {
                    ln.insert(c);
                } else {
                    rn.insert(c - l_arity);
                }
            }
            if let Some(r) = residual {
                let mut cols = Vec::new();
                r.collect_cols(&mut cols);
                for c in cols {
                    if c < l_arity {
                        ln.insert(c);
                    } else {
                        rn.insert(c - l_arity);
                    }
                }
            }
            collect_used(left, Some(&ln), arity_of, used);
            collect_used(right, Some(&rn), arity_of, used);
        }
        Plan::Agg { input, group_by, aggs } => {
            let mut n: BTreeSet<usize> = group_by.iter().copied().collect();
            for a in aggs {
                let mut cols = Vec::new();
                a.expr.collect_cols(&mut cols);
                n.extend(cols);
            }
            collect_used(input, Some(&n), arity_of, used);
        }
        Plan::Sort { input, keys } => {
            let mut n = need.cloned().unwrap_or_else(|| all_cols(input, arity_of));
            n.extend(keys.iter().map(|(i, _)| *i));
            collect_used(input, Some(&n), arity_of, used);
        }
        Plan::Limit { input, .. } => collect_used(input, need, arity_of, used),
        // Distinct compares whole rows, so every column is needed.
        Plan::Distinct { input } => collect_used(input, None, arity_of, used),
    }
}

fn all_cols(plan: &Plan, arity_of: &impl Fn(&str) -> usize) -> BTreeSet<usize> {
    (0..plan.arity(arity_of)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use legobase_storage::Value;

    fn base(t: &str) -> Schema {
        match t {
            "r" => Schema::of(&[("a", Type::Int), ("b", Type::Float), ("c", Type::Str)]),
            "s" => Schema::of(&[("x", Type::Int), ("y", Type::Str)]),
            _ => panic!("unknown table {t}"),
        }
    }

    fn sample_plan() -> Plan {
        // SELECT a, sum(b) FROM r JOIN s ON a = x WHERE y = 'k' GROUP BY a
        let join = Plan::HashJoin {
            left: Box::new(Plan::scan("r")),
            right: Box::new(Plan::Select {
                input: Box::new(Plan::scan("s")),
                predicate: Expr::eq(Expr::col(1), Expr::lit("k")),
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        };
        Plan::Agg {
            input: Box::new(join),
            group_by: vec![0],
            aggs: vec![AggSpec::new(AggKind::Sum, Expr::col(1), "total")],
        }
    }

    /// The boxing constructors build exactly the variants they name.
    #[test]
    fn constructors_build_the_variants() {
        let p = Plan::limited(
            Plan::sorted(
                Plan::aggregated(
                    Plan::deduplicated(Plan::projected(
                        Plan::filtered(Plan::scan("r"), Expr::gt(Expr::col(0), Expr::lit(1i64))),
                        vec![(Expr::col(0), "a".to_string())],
                    )),
                    vec![0],
                    vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
                ),
                vec![(1, SortOrder::Desc)],
            ),
            5,
        );
        assert_eq!(p.size(), 7);
        let s = p.schema(&base);
        assert_eq!(s.fields[1].name, "n");
        let j = Plan::hash_join(
            Plan::scan("r"),
            Plan::scan("s"),
            vec![0],
            vec![0],
            JoinKind::Inner,
            None,
        );
        assert_eq!(j.schema(&base).len(), 5);
    }

    #[test]
    fn schema_propagation() {
        let plan = sample_plan();
        let s = plan.schema(&base);
        assert_eq!(s.fields[0].name, "a");
        assert_eq!(s.fields[1].name, "total");
        assert_eq!(s.ty(1), Type::Float);
        assert_eq!(plan.size(), 5);
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let p = Plan::HashJoin {
            left: Box::new(Plan::scan("r")),
            right: Box::new(Plan::scan("s")),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Semi,
            residual: None,
        };
        assert_eq!(p.schema(&base).len(), 3);
        let outer = Plan::HashJoin {
            left: Box::new(Plan::scan("r")),
            right: Box::new(Plan::scan("s")),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::LeftOuter,
            residual: None,
        };
        assert_eq!(outer.schema(&base).len(), 5);
    }

    #[test]
    fn used_columns_pruned() {
        let q = QueryPlan::new("t", sample_plan());
        let used = used_base_columns(&q, &|t: &str| base(t).len());
        // r: a (key + group), b (agg). c unused.
        assert_eq!(used["r"], BTreeSet::from([0, 1]));
        // s: x (key), y (predicate).
        assert_eq!(used["s"], BTreeSet::from([0, 1]));
    }

    #[test]
    fn stages_resolve_hash_names() {
        let stage = Plan::Agg {
            input: Box::new(Plan::scan("r")),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Avg, Expr::col(1), "avg_b")],
        };
        let root = Plan::Select {
            input: Box::new(Plan::scan("#threshold")),
            predicate: Expr::gt(Expr::col(0), Expr::lit(Value::Float(0.0))),
        };
        let q = QueryPlan::new("t", root).with_stage("threshold", stage);
        let (stages, root_schema) = q.schemas(&base);
        assert_eq!(stages["#threshold"].fields[0].name, "avg_b");
        assert_eq!(root_schema.fields[0].name, "avg_b");
        assert_eq!(q.size(), 4);
    }
}
