//! The push-style engine.
//!
//! Data flows from scans towards the root as in Neumann-style compiled
//! engines and LegoBase's push interface (Section 2.1): operators are
//! data-centric loops over materialized tuple vectors instead of per-tuple
//! virtual `next()` calls. Expressions run either as compiled closures
//! (operator inlining analog, `Settings::compiled_exprs`) or interpreted
//! (the `Naive/Scala` configuration).
//!
//! With `Settings::partitioning`, joins against (optionally filtered) base
//! table scans use the load-time foreign-key partitions / primary-key arrays
//! instead of building a hash table — the TPC-H-compliant configuration
//! LegoBase(TPC-H/C) (Section 3.2.1, Fig. 10).

use crate::closure::{compile, compile_pred};
use crate::expr::Expr;
use crate::interp::{eval, eval_pred};
use crate::plan::{AggSpec, JoinKind, Plan, QueryPlan};
use crate::result::{Acc, ResultTable};
use crate::settings::Settings;
use crate::volcano::sort_rows;
use crate::GenericDb;
use legobase_storage::{metrics, RowTable, Schema, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// Expression evaluation mode of this engine run.
enum Eval<'p> {
    Compiled(crate::closure::Compiled),
    Interp(&'p Expr),
}

impl<'p> Eval<'p> {
    fn of(expr: &'p Expr, settings: &Settings) -> Eval<'p> {
        if settings.compiled_exprs {
            Eval::Compiled(compile(expr))
        } else {
            Eval::Interp(expr)
        }
    }

    #[inline]
    fn value(&self, row: &[Value]) -> Value {
        match self {
            Eval::Compiled(f) => f(row),
            Eval::Interp(e) => eval(e, row),
        }
    }
}

enum Pred<'p> {
    Compiled(crate::closure::CompiledPred),
    Interp(&'p Expr),
}

impl<'p> Pred<'p> {
    fn of(expr: &'p Expr, settings: &Settings) -> Pred<'p> {
        if settings.compiled_exprs {
            Pred::Compiled(compile_pred(expr))
        } else {
            Pred::Interp(expr)
        }
    }

    #[inline]
    fn test(&self, row: &[Value]) -> bool {
        metrics::branch_eval();
        match self {
            Pred::Compiled(f) => f(row),
            Pred::Interp(e) => eval_pred(e, row),
        }
    }
}

struct Exec<'a> {
    db: &'a GenericDb,
    settings: &'a Settings,
    temps: HashMap<String, RowTable>,
}

/// A base-table access that partitioned joins can exploit: the table name
/// plus an optional residual filter (from a `Select` directly above the
/// scan).
struct BaseAccess<'p> {
    table: &'p str,
    filter: Option<&'p Expr>,
}

fn as_base_access(plan: &Plan) -> Option<BaseAccess<'_>> {
    match plan {
        Plan::Scan { table } if !table.starts_with('#') => Some(BaseAccess { table, filter: None }),
        Plan::Select { input, predicate } => match input.as_ref() {
            Plan::Scan { table } if !table.starts_with('#') => {
                Some(BaseAccess { table, filter: Some(predicate) })
            }
            _ => None,
        },
        _ => None,
    }
}

impl<'a> Exec<'a> {
    fn schema_of(&self, table: &str) -> Schema {
        if let Some(t) = self.temps.get(table) {
            t.schema.clone()
        } else {
            self.db.table(table).schema.clone()
        }
    }

    fn rows_of(&self, table: &str) -> &[Tuple] {
        if let Some(t) = self.temps.get(table) {
            &t.rows
        } else {
            &self.db.table(table).rows
        }
    }

    fn run(&self, plan: &Plan) -> Vec<Tuple> {
        match plan {
            Plan::Scan { table } => self.rows_of(table).to_vec(),
            Plan::Select { input, predicate } => {
                let pred = Pred::of(predicate, self.settings);
                self.run(input).into_iter().filter(|t| pred.test(t)).collect()
            }
            Plan::Project { input, exprs } => {
                let evals: Vec<Eval<'_>> =
                    exprs.iter().map(|(e, _)| Eval::of(e, self.settings)).collect();
                self.run(input)
                    .into_iter()
                    .map(|t| {
                        metrics::tuple_materialized();
                        evals.iter().map(|e| e.value(&t)).collect()
                    })
                    .collect()
            }
            Plan::HashJoin { left, right, left_keys, right_keys, kind, residual } => {
                self.join(left, right, left_keys, right_keys, *kind, residual.as_ref())
            }
            Plan::Agg { input, group_by, aggs } => self.aggregate(self.run(input), group_by, aggs),
            Plan::Sort { input, keys } => {
                let mut rows = self.run(input);
                sort_rows(&mut rows, keys);
                rows
            }
            Plan::Limit { input, n } => {
                let mut rows = self.run(input);
                rows.truncate(*n);
                rows
            }
            Plan::Distinct { input } => {
                let mut seen: HashSet<Tuple> = HashSet::new();
                self.run(input).into_iter().filter(|t| seen.insert(t.clone())).collect()
            }
        }
    }

    fn aggregate(&self, rows: Vec<Tuple>, group_by: &[usize], aggs: &[AggSpec]) -> Vec<Tuple> {
        let evals: Vec<Eval<'_>> = aggs.iter().map(|a| Eval::of(&a.expr, self.settings)).collect();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
        for t in &rows {
            let key: Vec<Value> = group_by.iter().map(|&k| t[k].clone()).collect();
            metrics::hash_probe();
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                metrics::allocation();
                groups.push((key, aggs.iter().map(|a| Acc::new(&a.kind)).collect()));
                groups.len() - 1
            });
            for (acc, ev) in groups[slot].1.iter_mut().zip(&evals) {
                acc.update(ev.value(t));
            }
        }
        if groups.is_empty() && group_by.is_empty() {
            groups.push((Vec::new(), aggs.iter().map(|a| Acc::new(&a.kind)).collect()));
        }
        groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                key
            })
            .collect()
    }

    /// Returns the partitioned-access row lookup for a single-column integer
    /// key over a base table, if the load phase built one.
    fn partition_of(&self, table: &str, col: usize) -> Option<PartitionAccess<'_>> {
        if !self.settings.partitioning {
            return None;
        }
        let key = (table.to_string(), col);
        if let Some(p) = self.db.fk_partitions.get(&key) {
            return Some(PartitionAccess::Fk(p));
        }
        if let Some(p) = self.db.pk_indexes.get(&key) {
            return Some(PartitionAccess::Pk(p));
        }
        None
    }

    fn join(
        &self,
        left: &Plan,
        right: &Plan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
        residual: Option<&Expr>,
    ) -> Vec<Tuple> {
        // Partitioned path: the probe (right) side is a base-table access with
        // a partition on the single join key.
        if right_keys.len() == 1 {
            if let Some(access) = as_base_access(right) {
                if let Some(part) = self.partition_of(access.table, right_keys[0]) {
                    return self.join_partitioned(left, access, part, left_keys[0], kind, residual);
                }
            }
        }
        // Symmetric partitioned path for inner joins: iterate the right input
        // and probe the left base table through its partition (Fig. 10 scans
        // the smaller relation and indexes into the partitioned one).
        if kind == JoinKind::Inner && left_keys.len() == 1 {
            if let Some(access) = as_base_access(left) {
                if let Some(part) = self.partition_of(access.table, left_keys[0]) {
                    return self.join_partitioned_left(
                        access,
                        right,
                        part,
                        right_keys[0],
                        residual,
                    );
                }
            }
        }
        self.join_hash(left, right, left_keys, right_keys, kind, residual)
    }

    fn join_hash(
        &self,
        left: &Plan,
        right: &Plan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
        residual: Option<&Expr>,
    ) -> Vec<Tuple> {
        let left_rows = self.run(left);
        let right_rows = self.run(right);
        let right_arity = right.arity(&|t: &str| self.schema_of(t).len());
        let res = residual.map(|r| Pred::of(r, self.settings));
        let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
        for t in &right_rows {
            let key: Vec<Value> = right_keys.iter().map(|&k| t[k].clone()).collect();
            metrics::hash_probe();
            table.entry(key).or_default().push(t);
        }
        let mut out = Vec::new();
        for lt in &left_rows {
            let key: Vec<Value> = left_keys.iter().map(|&k| lt[k].clone()).collect();
            metrics::hash_probe();
            let matches = table.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            emit_joined(lt, matches.iter().copied(), kind, right_arity, &res, &mut out);
        }
        out
    }

    fn join_partitioned(
        &self,
        left: &Plan,
        access: BaseAccess<'_>,
        part: PartitionAccess<'_>,
        left_key: usize,
        kind: JoinKind,
        residual: Option<&Expr>,
    ) -> Vec<Tuple> {
        let left_rows = self.run(left);
        let base = self.rows_of(access.table);
        let right_arity = base.first().map_or(0, Vec::len);
        let filter = access.filter.map(|f| Pred::of(f, self.settings));
        let res = residual.map(|r| Pred::of(r, self.settings));
        let mut out = Vec::new();
        let mut bucket: Vec<&Tuple> = Vec::new();
        for lt in &left_rows {
            let key = lt[left_key].as_int();
            bucket.clear();
            part.for_each(key, |row| {
                let rt = &base[row as usize];
                if filter.as_ref().is_none_or(|f| f.test(rt)) {
                    bucket.push(rt);
                }
            });
            emit_joined(lt, bucket.iter().copied(), kind, right_arity, &res, &mut out);
        }
        out
    }

    /// Inner join where the *left* side is the partitioned base table: iterate
    /// the right input, fetch matching left rows, emit `left ++ right`.
    fn join_partitioned_left(
        &self,
        access: BaseAccess<'_>,
        right: &Plan,
        part: PartitionAccess<'_>,
        right_key: usize,
        residual: Option<&Expr>,
    ) -> Vec<Tuple> {
        let right_rows = self.run(right);
        let base = self.rows_of(access.table);
        let filter = access.filter.map(|f| Pred::of(f, self.settings));
        let res = residual.map(|r| Pred::of(r, self.settings));
        let mut out = Vec::new();
        for rt in &right_rows {
            let key = rt[right_key].as_int();
            part.for_each(key, |row| {
                let lt = &base[row as usize];
                if filter.as_ref().is_none_or(|f| f.test(lt)) {
                    let mut joined = lt.clone();
                    joined.extend(rt.iter().cloned());
                    if res.as_ref().is_none_or(|r| r.test(&joined)) {
                        metrics::tuple_materialized();
                        out.push(joined);
                    }
                }
            });
        }
        out
    }
}

enum PartitionAccess<'a> {
    Fk(&'a legobase_storage::partition::ForeignKeyPartition),
    Pk(&'a legobase_storage::partition::PrimaryKeyIndex),
}

impl PartitionAccess<'_> {
    #[inline]
    fn for_each(&self, key: i64, mut f: impl FnMut(u32)) {
        match self {
            PartitionAccess::Fk(p) => {
                for &row in p.bucket(key) {
                    f(row);
                }
            }
            PartitionAccess::Pk(p) => {
                if let Some(row) = p.lookup(key) {
                    f(row);
                }
            }
        }
    }
}

fn emit_joined<'t>(
    lt: &Tuple,
    matches: impl Iterator<Item = &'t Tuple>,
    kind: JoinKind,
    right_arity: usize,
    residual: &Option<Pred<'_>>,
    out: &mut Vec<Tuple>,
) {
    let mut any = false;
    for rt in matches {
        let ok = match residual {
            None => true,
            Some(r) => {
                let mut joined = lt.clone();
                joined.extend(rt.iter().cloned());
                r.test(&joined)
            }
        };
        if !ok {
            continue;
        }
        any = true;
        match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                let mut joined = lt.clone();
                joined.extend(rt.iter().cloned());
                metrics::tuple_materialized();
                out.push(joined);
            }
            JoinKind::Semi => {
                out.push(lt.clone());
                return;
            }
            JoinKind::Anti => return,
        }
    }
    if !any {
        match kind {
            JoinKind::LeftOuter => {
                let mut joined = lt.clone();
                joined.extend(std::iter::repeat_n(Value::Null, right_arity));
                metrics::tuple_materialized();
                out.push(joined);
            }
            JoinKind::Anti => out.push(lt.clone()),
            _ => {}
        }
    }
}

/// Executes a query under the push engine.
pub fn execute(query: &QueryPlan, db: &GenericDb, settings: &Settings) -> ResultTable {
    let mut exec = Exec { db, settings, temps: HashMap::new() };
    for (name, plan) in &query.stages {
        let schema = plan.schema(&|t: &str| exec.schema_of(t));
        let rows = exec.run(plan);
        let mut table = RowTable::with_capacity(schema, rows.len());
        for r in rows {
            table.push(r);
        }
        exec.temps.insert(format!("#{name}"), table);
    }
    let schema = query.root.schema(&|t: &str| exec.schema_of(t));
    let rows = exec.run(&query.root);
    let mut table = RowTable::with_capacity(schema, rows.len());
    for r in rows {
        table.push(r);
    }
    ResultTable(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggKind;
    use crate::plan::{AggSpec, SortOrder};
    use crate::settings::Config;
    use crate::spec::Specialization;
    use crate::volcano;
    use legobase_tpch::TpchData;

    fn dbs() -> (GenericDb, GenericDb) {
        let data = TpchData::generate(0.002);
        let mut spec = Specialization::default();
        let cat = &data.catalog;
        spec.add_fk_partition("orders", cat.table("orders").schema.col("o_custkey"));
        spec.add_pk_index("customer", 0);
        spec.add_pk_index("orders", 0);
        spec.add_fk_partition("lineitem", 0);
        let spec = spec.scanning_all_tables();
        let plain =
            GenericDb::load(&data, &crate::BaseStore::new(), &spec, &Config::Dbx.settings());
        let part =
            GenericDb::load(&data, &crate::BaseStore::new(), &spec, &Config::TpchC.settings());
        (plain, part)
    }

    fn join_count_query(kind: JoinKind) -> QueryPlan {
        // customers (filtered) joined with their orders
        let left = Plan::Select {
            input: Box::new(Plan::scan("customer")),
            predicate: Expr::eq(Expr::col(6), Expr::lit("BUILDING")),
        };
        let right = Plan::Select {
            input: Box::new(Plan::scan("orders")),
            predicate: Expr::gt(Expr::col(3), Expr::lit(1000.0)),
        };
        let join = Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![0],
            right_keys: vec![1],
            kind,
            residual: None,
        };
        let agg = Plan::Agg {
            input: Box::new(join),
            group_by: vec![3], // c_nationkey
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        };
        QueryPlan::new("t", Plan::Sort { input: Box::new(agg), keys: vec![(0, SortOrder::Asc)] })
    }

    /// The push engine (all modes) must agree with the Volcano engine.
    #[test]
    fn agrees_with_volcano_all_join_kinds() {
        let (plain, part) = dbs();
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti, JoinKind::LeftOuter] {
            let q = join_count_query(kind);
            let reference = volcano::execute(&q, &plain);
            for config in [Config::NaiveC, Config::NaiveScala, Config::TpchC] {
                let settings = config.settings();
                let db = if settings.partitioning { &part } else { &plain };
                let got = execute(&q, db, &settings);
                assert!(
                    got.approx_eq(&reference, 1e-9),
                    "{config:?} mismatch for {kind:?}: {:?}",
                    got.diff(&reference, 1e-9)
                );
            }
        }
    }

    /// Joins keyed on a primary key must take the 1D-array path and agree.
    #[test]
    fn pk_indexed_join_agrees() {
        let (plain, part) = dbs();
        // lineitem ⋈ orders on o_orderkey (PK of orders).
        let join = Plan::HashJoin {
            left: Box::new(Plan::scan("lineitem")),
            right: Box::new(Plan::scan("orders")),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        };
        let agg = Plan::Agg {
            input: Box::new(join),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        };
        let q = QueryPlan::new("t", agg);
        let reference = volcano::execute(&q, &plain);
        let got = execute(&q, &part, &Config::TpchC.settings());
        assert!(got.approx_eq(&reference, 1e-9), "{:?}", got.diff(&reference, 1e-9));
        // Every lineitem has an order.
        let data_len = plain.table("lineitem").len() as i64;
        assert_eq!(reference.rows()[0][0].as_int(), data_len);
    }

    #[test]
    fn residual_predicates_respected() {
        let (plain, part) = dbs();
        // Semi join with an inequality on the joined row
        // (c_acctbal < o_totalprice).
        let join = Plan::HashJoin {
            left: Box::new(Plan::scan("orders")),
            right: Box::new(Plan::scan("customer")),
            left_keys: vec![1],
            right_keys: vec![0],
            kind: JoinKind::Semi,
            residual: Some(Expr::lt(Expr::col(9 + 5), Expr::col(3))),
        };
        let agg = Plan::Agg {
            input: Box::new(join),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        };
        let q = QueryPlan::new("t", agg);
        let reference = volcano::execute(&q, &plain);
        for cfg in [Config::NaiveC, Config::TpchC] {
            let settings = cfg.settings();
            let db = if settings.partitioning { &part } else { &plain };
            let got = execute(&q, db, &settings);
            assert!(got.approx_eq(&reference, 1e-9), "{cfg:?}: {:?}", got.diff(&reference, 1e-9));
        }
    }
}
