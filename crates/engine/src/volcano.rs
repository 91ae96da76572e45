//! The classical Volcano-style pull engine (the DBX baseline).
//!
//! Every operator implements `next()` behind a vtable, tuples are generic
//! boxed values cloned between operators, expressions are interpreted per
//! tuple, and all intermediate structures are `std` hash maps with SipHash —
//! the cost model of a classical interpreted row store with no compilation.

use crate::expr::Expr;
use crate::interp::{eval, eval_pred};
use crate::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use crate::result::{Acc, ResultTable};
use crate::GenericDb;
use legobase_storage::{metrics, RowTable, Schema, Tuple, Value};
use std::collections::HashMap;

/// The Volcano operator interface (Fig. 4b's `Operator` in pull form).
trait Operator {
    fn next(&mut self) -> Option<Tuple>;
}

type BoxOp = Box<dyn Operator>;

struct ScanOp {
    rows: std::vec::IntoIter<Tuple>,
}

impl Operator for ScanOp {
    fn next(&mut self) -> Option<Tuple> {
        let t = self.rows.next();
        if t.is_some() {
            metrics::tuple_materialized();
        }
        t
    }
}

struct SelectOp {
    child: BoxOp,
    predicate: Expr,
}

impl Operator for SelectOp {
    fn next(&mut self) -> Option<Tuple> {
        loop {
            let t = self.child.next()?;
            metrics::branch_eval();
            if eval_pred(&self.predicate, &t) {
                return Some(t);
            }
        }
    }
}

struct ProjectOp {
    child: BoxOp,
    exprs: Vec<Expr>,
}

impl Operator for ProjectOp {
    fn next(&mut self) -> Option<Tuple> {
        let t = self.child.next()?;
        metrics::tuple_materialized();
        Some(self.exprs.iter().map(|e| eval(e, &t)).collect())
    }
}

/// Hash join: builds a generic hash table over the **right** input, streams
/// the left input. Building on the right keeps left-outer/semi/anti emission
/// local to the streaming side.
struct HashJoinOp {
    left: BoxOp,
    table: HashMap<Vec<Value>, Vec<Tuple>>,
    left_keys: Vec<usize>,
    kind: JoinKind,
    residual: Option<Expr>,
    right_arity: usize,
    /// Matches buffered for the current left tuple.
    pending: Vec<Tuple>,
}

impl HashJoinOp {
    fn build(
        left: BoxOp,
        mut right: BoxOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
        residual: Option<Expr>,
        right_arity: usize,
    ) -> HashJoinOp {
        let mut table: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        while let Some(t) = right.next() {
            let key: Vec<Value> = right_keys.iter().map(|&k| t[k].clone()).collect();
            metrics::hash_probe();
            metrics::allocation();
            table.entry(key).or_default().push(t);
        }
        HashJoinOp { left, table, left_keys, kind, residual, right_arity, pending: Vec::new() }
    }

    fn matches(&self, lt: &Tuple) -> Vec<Tuple> {
        let key: Vec<Value> = self.left_keys.iter().map(|&k| lt[k].clone()).collect();
        metrics::hash_probe();
        let mut out = Vec::new();
        if let Some(cands) = self.table.get(&key) {
            metrics::chain_steps(cands.len() as u64);
            for rt in cands {
                let ok = match &self.residual {
                    None => true,
                    Some(r) => {
                        let mut joined = lt.clone();
                        joined.extend(rt.iter().cloned());
                        eval_pred(r, &joined)
                    }
                };
                if ok {
                    out.push(rt.clone());
                }
            }
        }
        out
    }
}

impl Operator for HashJoinOp {
    fn next(&mut self) -> Option<Tuple> {
        loop {
            if let Some(t) = self.pending.pop() {
                return Some(t);
            }
            let lt = self.left.next()?;
            let matches = self.matches(&lt);
            metrics::branch_eval();
            match self.kind {
                JoinKind::Inner => {
                    for rt in matches {
                        let mut joined = lt.clone();
                        joined.extend(rt);
                        metrics::tuple_materialized();
                        self.pending.push(joined);
                    }
                }
                JoinKind::LeftOuter => {
                    if matches.is_empty() {
                        let mut joined = lt.clone();
                        joined.extend(std::iter::repeat_n(Value::Null, self.right_arity));
                        metrics::tuple_materialized();
                        return Some(joined);
                    }
                    for rt in matches {
                        let mut joined = lt.clone();
                        joined.extend(rt);
                        metrics::tuple_materialized();
                        self.pending.push(joined);
                    }
                }
                JoinKind::Semi => {
                    if !matches.is_empty() {
                        return Some(lt);
                    }
                }
                JoinKind::Anti => {
                    if matches.is_empty() {
                        return Some(lt);
                    }
                }
            }
        }
    }
}

struct AggOp {
    results: std::vec::IntoIter<Tuple>,
}

impl AggOp {
    fn build(mut child: BoxOp, group_by: &[usize], aggs: &[AggSpec]) -> AggOp {
        // Insertion-ordered grouping: a map to slot index plus a dense store.
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
        while let Some(t) = child.next() {
            let key: Vec<Value> = group_by.iter().map(|&k| t[k].clone()).collect();
            metrics::hash_probe();
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                metrics::allocation();
                groups.push((key, aggs.iter().map(|a| Acc::new(&a.kind)).collect()));
                groups.len() - 1
            });
            for (acc, spec) in groups[slot].1.iter_mut().zip(aggs) {
                acc.update(eval(&spec.expr, &t));
            }
        }
        if groups.is_empty() && group_by.is_empty() {
            // Global aggregate over an empty input still yields one row.
            groups.push((Vec::new(), aggs.iter().map(|a| Acc::new(&a.kind)).collect()));
        }
        let rows: Vec<Tuple> = groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                key
            })
            .collect();
        AggOp { results: rows.into_iter() }
    }
}

impl Operator for AggOp {
    fn next(&mut self) -> Option<Tuple> {
        self.results.next()
    }
}

struct DrainedOp {
    rows: std::vec::IntoIter<Tuple>,
}

impl Operator for DrainedOp {
    fn next(&mut self) -> Option<Tuple> {
        self.rows.next()
    }
}

/// Sorts tuples by the given keys and orders.
pub(crate) fn sort_rows(rows: &mut [Tuple], keys: &[(usize, SortOrder)]) {
    rows.sort_by(|a, b| {
        for (col, order) in keys {
            let ord = a[*col].cmp(&b[*col]);
            let ord = match order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

struct LimitOp {
    child: BoxOp,
    remaining: usize,
}

impl Operator for LimitOp {
    fn next(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.child.next()
    }
}

struct DistinctOp {
    child: BoxOp,
    seen: std::collections::HashSet<Tuple>,
}

impl Operator for DistinctOp {
    fn next(&mut self) -> Option<Tuple> {
        loop {
            let t = self.child.next()?;
            metrics::hash_probe();
            if self.seen.insert(t.clone()) {
                return Some(t);
            }
        }
    }
}

struct Exec<'a> {
    db: &'a GenericDb,
    temps: HashMap<String, RowTable>,
}

impl<'a> Exec<'a> {
    fn schema_of(&self, table: &str) -> Schema {
        if let Some(t) = self.temps.get(table) {
            t.schema.clone()
        } else {
            self.db.table(table).schema.clone()
        }
    }

    fn build(&self, plan: &Plan) -> BoxOp {
        match plan {
            Plan::Scan { table } => {
                let rows = if let Some(t) = self.temps.get(table) {
                    t.rows.clone()
                } else {
                    self.db.table(table).rows.clone()
                };
                Box::new(ScanOp { rows: rows.into_iter() })
            }
            Plan::Select { input, predicate } => {
                Box::new(SelectOp { child: self.build(input), predicate: predicate.clone() })
            }
            Plan::Project { input, exprs } => Box::new(ProjectOp {
                child: self.build(input),
                exprs: exprs.iter().map(|(e, _)| e.clone()).collect(),
            }),
            Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => {
                let right_arity = right.arity(&|t: &str| self.schema_of(t).len());
                Box::new(HashJoinOp::build(
                    self.build(left),
                    self.build(right),
                    left_keys.clone(),
                    right_keys.clone(),
                    *kind,
                    residual.clone(),
                    right_arity,
                ))
            }
            Plan::Agg { input, group_by, aggs } => {
                Box::new(AggOp::build(self.build(input), group_by, aggs))
            }
            Plan::Sort { input, keys } => {
                let mut child = self.build(input);
                let mut rows = Vec::new();
                while let Some(t) = child.next() {
                    rows.push(t);
                }
                sort_rows(&mut rows, keys);
                Box::new(DrainedOp { rows: rows.into_iter() })
            }
            Plan::Limit { input, n } => {
                Box::new(LimitOp { child: self.build(input), remaining: *n })
            }
            Plan::Distinct { input } => Box::new(DistinctOp {
                child: self.build(input),
                seen: std::collections::HashSet::new(),
            }),
        }
    }

    fn run(&self, plan: &Plan) -> RowTable {
        let schema = plan.schema(&|t: &str| self.schema_of(t));
        let mut op = self.build(plan);
        let mut out = RowTable::new(schema);
        while let Some(t) = op.next() {
            out.push(t);
        }
        out
    }
}

/// Executes a query under the Volcano engine.
pub fn execute(query: &QueryPlan, db: &GenericDb) -> ResultTable {
    let mut exec = Exec { db, temps: HashMap::new() };
    for (name, plan) in &query.stages {
        let result = exec.run(plan);
        exec.temps.insert(format!("#{name}"), result);
    }
    ResultTable(exec.run(&query.root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggKind, Expr};
    use crate::settings::Config;
    use crate::spec::Specialization;
    use legobase_tpch::TpchData;

    fn db() -> GenericDb {
        let data = TpchData::generate(0.002);
        GenericDb::load(
            &data,
            &crate::BaseStore::new(),
            &Specialization::default().scanning_all_tables(),
            &Config::Dbx.settings(),
        )
    }

    #[test]
    fn scan_select_count() {
        let db = db();
        // SELECT COUNT(*) FROM nation WHERE n_regionkey = 0
        let plan = Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("nation")),
                predicate: Expr::eq(Expr::col(2), Expr::lit(0i64)),
            }),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "cnt")],
        };
        let r = execute(&QueryPlan::new("t", plan), &db);
        assert_eq!(r.rows()[0][0], Value::Int(5)); // 5 African nations
    }

    #[test]
    fn join_agg_sort_limit() {
        let db = db();
        // Region name with most nations.
        let join = Plan::HashJoin {
            left: Box::new(Plan::scan("nation")),
            right: Box::new(Plan::scan("region")),
            left_keys: vec![2],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        };
        let agg = Plan::Agg {
            input: Box::new(join),
            group_by: vec![5], // r_name
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        };
        let sorted = Plan::Sort {
            input: Box::new(agg),
            keys: vec![(1, SortOrder::Desc), (0, SortOrder::Asc)],
        };
        let plan = Plan::Limit { input: Box::new(sorted), n: 2 };
        let r = execute(&QueryPlan::new("t", plan), &db);
        assert_eq!(r.len(), 2);
        // Counts are non-increasing.
        assert!(r.rows()[0][1] >= r.rows()[1][1]);
        let total: i64 = {
            let full = Plan::Agg {
                input: Box::new(Plan::scan("nation")),
                group_by: vec![],
                aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
            };
            execute(&QueryPlan::new("t", full), &db).rows()[0][0].as_int()
        };
        assert_eq!(total, 25);
    }

    #[test]
    fn outer_semi_anti_joins() {
        let db = db();
        let mk = |kind| Plan::HashJoin {
            left: Box::new(Plan::scan("customer")),
            right: Box::new(Plan::scan("orders")),
            left_keys: vec![0],
            right_keys: vec![1],
            kind,
            residual: None,
        };
        let n_cust = db.table("customer").len();
        let semi = execute(&QueryPlan::new("s", mk(JoinKind::Semi)), &db).len();
        let anti = execute(&QueryPlan::new("a", mk(JoinKind::Anti)), &db).len();
        assert_eq!(semi + anti, n_cust);
        assert!(semi > 0 && anti > 0);
        // Left outer join: matched customers appear once per order, unmatched
        // once with NULL padding.
        let outer = execute(&QueryPlan::new("o", mk(JoinKind::LeftOuter)), &db);
        let n_orders = db.table("orders").len();
        assert_eq!(outer.len(), n_orders + anti);
        let c_arity = db.table("customer").schema.len();
        assert!(outer.rows().iter().any(|r| r[c_arity].is_null()));
    }

    #[test]
    fn distinct_and_stages() {
        let db = db();
        let stage = Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::scan("nation")),
                exprs: vec![(Expr::col(2), "rk".to_string())],
            }),
        };
        let root = Plan::Agg {
            input: Box::new(Plan::scan("#regions")),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        };
        let q = QueryPlan::new("t", root).with_stage("regions", stage);
        let r = execute(&q, &db);
        assert_eq!(r.rows()[0][0], Value::Int(5));
    }

    #[test]
    fn global_agg_over_empty_input() {
        let db = db();
        let plan = Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("nation")),
                predicate: Expr::lit(false),
            }),
            group_by: vec![],
            aggs: vec![
                AggSpec::new(AggKind::Sum, Expr::col(0), "s"),
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
            ],
        };
        let r = execute(&QueryPlan::new("t", plan), &db);
        assert_eq!(r.len(), 1);
        assert!(r.rows()[0][0].is_null());
        assert_eq!(r.rows()[0][1], Value::Int(0));
    }
}
