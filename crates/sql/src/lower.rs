//! Name resolution and lowering: AST → [`QueryPlan`].
//!
//! The lowering is syntax-directed and produces a **naive canonical plan**
//! — it performs *no* optimization; the cost-based optimizer in
//! `legobase_engine::optimizer` (predicate pushdown, cross-conjunct
//! inference, join reordering) runs between this lowering and execution:
//!
//! * `FROM a JOIN b ON …` chains become left-deep [`Plan::HashJoin`] trees
//!   in *syntactic* order — whatever order the author wrote, however bad.
//! * `ON` conjuncts split into hash keys (`left = right` equalities),
//!   right-only filters (applied to the right input, which for outer joins
//!   is a semantic requirement, not an optimization — `ON` governs
//!   *matching*, not row survival), and residual predicates over the
//!   concatenated row.
//! * `WHERE` conjuncts stay **un-pushed**: one [`Plan::Select`] above the
//!   whole join tree, in source order. Conjuncts containing subqueries are
//!   lowered to the same flattened forms `queries.rs` builds by hand:
//!   `EXISTS`/`IN (SELECT …)` become semi/anti joins, scalar subqueries
//!   become materialized stages — grouped by their correlation columns when
//!   correlated — joined back and compared.
//! * Aggregation lowers to [`Plan::Agg`], with a pre-projection when group
//!   keys are computed expressions, and `COUNT(DISTINCT c)` lowers to the
//!   project→distinct→count shape of Q16.
//! * `WITH` CTEs become materialized stages via [`Ctx::stage`].
//!
//! Every error is a spanned [`SqlError`]; the lowering never panics on user
//! input (unknown tables and columns, type mismatches, and unsupported
//! constructs are all reported with their source location).

use crate::ast::{self, Ast, AstKind, JoinType, Select, SelectItem, TableRef};
use crate::error::{Result, Span, SqlError};
use crate::parser;
use legobase_engine::expr::{AggKind, CmpOp, Expr};
use legobase_engine::plan::{projected_schema, AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase_queries::builder::{Ctx, Node};
use legobase_storage::{Catalog, Field, Schema, Type};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Parses and lowers `sql` against `catalog` into an executable plan named
/// `"sql"`.
pub fn plan(sql: &str, catalog: &Catalog) -> Result<QueryPlan> {
    plan_named(sql, "sql", catalog)
}

/// Like [`plan`], with an explicit query name (used for the embedded TPC-H
/// texts, so reports read `Q3` rather than `sql`).
pub fn plan_named(sql: &str, name: &str, catalog: &Catalog) -> Result<QueryPlan> {
    let query = parser::parse_query(sql)?;
    // Generated stage names avoid every CTE of the query, including the
    // ones not lowered yet: a later `WITH __s1 AS …` must not collide with
    // the stage an earlier subquery was given.
    let reserved = query.ctes.iter().map(|c| c.name.name.as_str()).collect();
    let mut lw =
        Lowerer { catalog, ctx: Ctx::new(catalog), ctes: Vec::new(), reserved, next_stage: 0 };
    for cte in &query.ctes {
        if lw.ctes.contains(&cte.name.name) {
            return Err(SqlError::new(
                format!("duplicate CTE name `{}`", cte.name.name),
                cte.name.span,
            ));
        }
        if catalog.get(&cte.name.name).is_some() {
            return Err(SqlError::new(
                format!("CTE `{}` shadows a base table", cte.name.name),
                cte.name.span,
            ));
        }
        let node = lw.lower_select(&cte.select)?;
        lw.ctx.stage(&cte.name.name, node);
        lw.ctes.push(cte.name.name.clone());
    }
    let root = lw.lower_select(&query.body)?;
    Ok(lw.ctx.build(name, root))
}

/// One range variable of a `FROM` clause.
#[derive(Clone)]
struct Item {
    /// Explicit alias; replaces the table name for qualified lookups.
    alias: Option<String>,
    /// Table (or CTE) name.
    table: String,
    /// Shared, so the per-join `ON` scopes copy an item without its fields.
    schema: Rc<Schema>,
    /// Column offset in the concatenated row (`usize::MAX` when invisible).
    offset: usize,
    /// Columns participate in unqualified/qualified lookups. Semi/anti join
    /// right sides are visible only inside their `ON` clause.
    visible: bool,
}

impl Item {
    fn matches_qualifier(&self, q: &str) -> bool {
        match &self.alias {
            Some(a) => a == q,
            None => self.table == q,
        }
    }
}

/// The visible range variables of one `SELECT`.
#[derive(Clone, Default)]
struct Scope {
    items: Vec<Item>,
    /// Total visible arity (columns of the concatenated row).
    arity: usize,
}

enum Lookup {
    NotFound,
    Ambiguous,
    Found { pos: usize, ty: Type, item: usize },
}

impl Scope {
    fn from_schema(schema: Schema) -> Scope {
        let arity = schema.len();
        Scope {
            items: vec![Item {
                alias: None,
                table: String::new(),
                schema: Rc::new(schema),
                offset: 0,
                visible: true,
            }],
            arity,
        }
    }

    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Lookup {
        let mut found: Option<(usize, Type, usize)> = None;
        for (idx, item) in self.items.iter().enumerate() {
            if !item.visible {
                continue;
            }
            if let Some(q) = qualifier {
                if !item.matches_qualifier(q) {
                    continue;
                }
            }
            if let Some(pos) = item.schema.index_of(name) {
                if found.is_some() {
                    return Lookup::Ambiguous;
                }
                found = Some((item.offset + pos, item.schema.ty(pos), idx));
            }
        }
        match found {
            Some((pos, ty, item)) => Lookup::Found { pos, ty, item },
            None => Lookup::NotFound,
        }
    }
}

/// Resolution environment: the innermost scope (shifted by `offset` in the
/// produced positional expressions) plus, inside subqueries, the outer
/// scope at offset 0 — together they describe the `outer ++ inner`
/// concatenated layout that correlated predicates are lowered against.
struct Env<'a> {
    scope: &'a Scope,
    offset: usize,
    outer: Option<&'a Scope>,
}

/// Which parts of the environment an expression referenced.
#[derive(Default)]
struct Refs {
    items: BTreeSet<usize>,
    outer: bool,
}

/// A subquery conjunct, applied to the plan after the plain predicates.
enum SubqOp<'a> {
    In { lhs: &'a Ast, select: &'a Select, negated: bool },
    Exists { select: &'a Select, negated: bool, span: Span },
    Scalar { op: CmpOp, lhs: &'a Ast, select: &'a Select, span: Span },
}

/// One aggregate call extracted from a select list or `HAVING` clause.
struct AggCall {
    kind: AggKind,
    arg: Option<Ast>,
    distinct: bool,
    /// Output column name (`AS` alias for whole-item aggregates, a generated
    /// `__aggN` for aggregates buried inside larger expressions).
    name: String,
    span: Span,
}

struct Lowerer<'a> {
    catalog: &'a Catalog,
    ctx: Ctx<'a>,
    /// CTEs lowered so far (the ones a table reference may resolve to).
    ctes: Vec<String>,
    /// Every CTE name of the query, which generated stage names avoid.
    reserved: Vec<&'a str>,
    next_stage: usize,
}

impl<'a> Lowerer<'a> {
    fn gen_stage(&mut self) -> String {
        loop {
            self.next_stage += 1;
            let name = format!("__s{}", self.next_stage);
            if !self.reserved.contains(&name.as_str()) {
                return name;
            }
        }
    }

    /// Lowers an uncorrelated `SELECT` completely.
    fn lower_select(&mut self, sel: &Select) -> Result<Node> {
        let (node, scope, corr, ops) = self.lower_from_where(sel, None)?;
        debug_assert!(corr.is_empty(), "no outer scope, no correlation");
        let node = self.apply_subq_ops(node, &scope, ops)?;
        self.finish_select(sel, node, scope)
    }

    // ------------------------------------------------------------------
    // FROM + WHERE
    // ------------------------------------------------------------------

    /// Builds the `FROM` tree and applies the plain `WHERE` conjuncts.
    /// Returns the node, its scope, the correlated conjuncts (lowered over
    /// the `outer ++ inner` concatenated layout), and the subquery conjuncts
    /// (unlowered, in source order).
    fn lower_from_where<'s>(
        &mut self,
        sel: &'s Select,
        outer: Option<&Scope>,
    ) -> Result<(Node, Scope, Vec<Expr>, Vec<SubqOp<'s>>)> {
        let outer_arity = outer.map(|s| s.arity).unwrap_or(0);
        let from = &sel.from;

        // Pass A: resolve relations and assign concatenation offsets.
        let mut scope = Scope::default();
        let mut resolved: Vec<String> = Vec::new(); // scan name per item
        let add_item = |scope: &mut Scope,
                        resolved: &mut Vec<String>,
                        tr: &TableRef,
                        kind: Option<JoinType>|
         -> Result<()> {
            let (scan_name, schema) = self.resolve_table(tr)?;
            let visible = !matches!(kind, Some(JoinType::Semi) | Some(JoinType::Anti));
            let offset = if visible { scope.arity } else { usize::MAX };
            if visible {
                scope.arity += schema.len();
            }
            scope.items.push(Item {
                alias: tr.alias.as_ref().map(|a| a.name.clone()),
                table: tr.name.name.clone(),
                schema,
                offset,
                visible,
            });
            resolved.push(scan_name);
            Ok(())
        };
        add_item(&mut scope, &mut resolved, &from.first, None)?;
        for join in &from.joins {
            add_item(&mut scope, &mut resolved, &join.table, Some(join.kind))?;
        }

        // Pass B: type-check the WHERE conjuncts. Un-pushed by design — the
        // plain ones become one filter above the join tree (the cost-based
        // optimizer relocates them later); correlated and subquery conjuncts
        // are extracted for the flattening lowerings.
        let mut post: Vec<Expr> = Vec::new();
        let mut corr: Vec<Expr> = Vec::new();
        let mut ops: Vec<SubqOp<'s>> = Vec::new();
        if let Some(w) = &sel.where_clause {
            for conjunct in w.conjuncts() {
                if conjunct.has_subquery() {
                    ops.push(classify_subq(conjunct)?);
                    continue;
                }
                if conjunct.has_aggregate() {
                    return Err(SqlError::new(
                        "aggregates are not allowed in WHERE (use HAVING)",
                        conjunct.span,
                    ));
                }
                let mut refs = Refs::default();
                let env = Env { scope: &scope, offset: outer_arity, outer };
                let (expr, ty) = self.lower_expr(conjunct, &env, &mut refs)?;
                if ty != Type::Bool {
                    return Err(SqlError::new(
                        format!("WHERE predicate must be boolean, found {ty}"),
                        conjunct.span,
                    ));
                }
                if refs.outer {
                    corr.push(expr);
                } else {
                    post.push(expr.map_cols(&|c| c - outer_arity));
                }
            }
        }

        // Pass C: build the left-deep tree in syntactic order, classifying
        // each ON clause.
        let mut arity_so_far = scope.items[0].schema.len();
        let mut node = self.scan_item(&resolved[0], Vec::new());
        for (j, join) in from.joins.iter().enumerate() {
            let idx = j + 1;
            let scan_name = &resolved[idx];
            let right_arity = scope.items[idx].schema.len();
            let mut right_filters: Vec<Expr> = Vec::new();
            let mut keys: Vec<(usize, usize)> = Vec::new();
            let mut residual: Vec<Expr> = Vec::new();
            if let Some(on) = &join.on {
                // The ON clause sees the left side plus the joined relation,
                // laid out as the concatenated row (left ++ right).
                let mut on_scope =
                    Scope { items: scope.items[..=j].to_vec(), arity: arity_so_far + right_arity };
                for item in on_scope.items.iter_mut() {
                    // Semi/anti right sides of *earlier* joins stay hidden.
                    if item.offset == usize::MAX {
                        item.visible = false;
                    }
                }
                let mut right_item = scope.items[idx].clone();
                right_item.offset = arity_so_far;
                right_item.visible = true;
                on_scope.items.push(right_item);
                for conjunct in on.conjuncts() {
                    if conjunct.has_subquery() {
                        return Err(SqlError::new(
                            "subqueries are not supported in ON clauses",
                            conjunct.span,
                        ));
                    }
                    let mut refs = Refs::default();
                    let env = Env { scope: &on_scope, offset: 0, outer };
                    let (expr, ty) = self.lower_expr(conjunct, &env, &mut refs)?;
                    if refs.outer {
                        return Err(SqlError::new(
                            "correlated ON conditions are not supported",
                            conjunct.span,
                        ));
                    }
                    if ty != Type::Bool {
                        return Err(SqlError::new(
                            format!("ON condition must be boolean, found {ty}"),
                            conjunct.span,
                        ));
                    }
                    match split_equi_key(&expr, arity_so_far) {
                        Some(pair) => keys.push(pair),
                        None => {
                            let right_only =
                                refs.items.iter().all(|&i| i == idx) && !refs.items.is_empty();
                            if right_only {
                                right_filters.push(expr.map_cols(&|c| c - arity_so_far));
                            } else {
                                residual.push(expr);
                            }
                        }
                    }
                }
            }
            let right = self.scan_item(scan_name, right_filters);
            match join.kind {
                JoinType::Cross => {
                    if !keys.is_empty() || !residual.is_empty() {
                        return Err(SqlError::new("CROSS JOIN takes no ON clause", join.span));
                    }
                    node = node.cross_join(right);
                }
                kind => {
                    if keys.is_empty() {
                        return Err(SqlError::new(
                            "join needs at least one `left = right` equality in ON",
                            join.span,
                        ));
                    }
                    let kind = match kind {
                        JoinType::Inner => JoinKind::Inner,
                        JoinType::Left => JoinKind::LeftOuter,
                        JoinType::Semi => JoinKind::Semi,
                        JoinType::Anti => JoinKind::Anti,
                        JoinType::Cross => unreachable!("handled above"),
                    };
                    let (lk, rk) = keys.into_iter().unzip();
                    node = join_nodes(node, right, lk, rk, kind, all_opt(residual));
                }
            }
            if scope.items[idx].visible {
                arity_so_far += right_arity;
            }
        }
        if let Some(p) = all_opt(post) {
            node = filter_node(node, p);
        }
        Ok((node, scope, corr, ops))
    }

    /// Scans a base table or stage, applying the right-side `ON` filters of
    /// the join that introduces it (outer-join matching semantics).
    fn scan_item(&mut self, scan_name: &str, filters: Vec<Expr>) -> Node {
        let node = self.ctx.scan(scan_name);
        match all_opt(filters) {
            Some(p) => filter_node(node, p),
            None => node,
        }
    }

    /// Resolves a table reference to its scan name (`#name` for CTEs) and
    /// schema.
    fn resolve_table(&self, tr: &TableRef) -> Result<(String, Rc<Schema>)> {
        if self.ctes.contains(&tr.name.name) {
            let scan = format!("#{}", tr.name.name);
            let schema = self.ctx.scan(&scan).schema;
            return Ok((scan, Rc::new(schema)));
        }
        match self.catalog.get(&tr.name.name) {
            Some(meta) => Ok((tr.name.name.clone(), Rc::new(meta.schema.clone()))),
            None => Err(SqlError::new(format!("unknown table `{}`", tr.name.name), tr.name.span)),
        }
    }

    // ------------------------------------------------------------------
    // Subquery conjuncts
    // ------------------------------------------------------------------

    /// Applies subquery conjuncts in source order. Each op preserves the
    /// node's schema, so `scope` stays valid throughout.
    fn apply_subq_ops(&mut self, mut node: Node, scope: &Scope, ops: Vec<SubqOp>) -> Result<Node> {
        for op in ops {
            node = match op {
                SubqOp::In { lhs, select, negated } => {
                    self.lower_in_select(node, scope, lhs, select, negated)?
                }
                SubqOp::Exists { select, negated, span } => {
                    self.lower_exists(node, scope, select, negated, span)?
                }
                SubqOp::Scalar { op, lhs, select, span } => {
                    self.lower_scalar_cmp(node, scope, op, lhs, select, span)?
                }
            };
        }
        Ok(node)
    }

    /// `x [NOT] IN (SELECT …)` → semi/anti join against the (uncorrelated)
    /// subquery, materialized as a stage when it aggregates — the flattening
    /// Q18 and Q20 use.
    fn lower_in_select(
        &mut self,
        node: Node,
        scope: &Scope,
        lhs: &Ast,
        select: &Select,
        negated: bool,
    ) -> Result<Node> {
        let mut refs = Refs::default();
        let env = Env { scope, offset: 0, outer: None };
        let (lhs_expr, lhs_ty) = self.lower_expr(lhs, &env, &mut refs)?;
        let Expr::Col(lhs_pos) = lhs_expr else {
            return Err(SqlError::new(
                "IN (SELECT …) requires a plain column on the left",
                lhs.span,
            ));
        };
        let sub = self.lower_select(select)?;
        if sub.schema.len() != 1 {
            return Err(SqlError::new(
                format!("IN subquery must produce one column, got {}", sub.schema.len()),
                lhs.span,
            ));
        }
        check_comparable(lhs_ty, sub.schema.ty(0), lhs.span)?;
        let right = if select_has_aggregation(select) {
            let stage = self.gen_stage();
            self.ctx.stage(&stage, sub);
            self.ctx.scan(&format!("#{stage}"))
        } else {
            sub
        };
        let kind = if negated { JoinKind::Anti } else { JoinKind::Semi };
        Ok(join_nodes(node, right, vec![lhs_pos], vec![0], kind, None))
    }

    /// `[NOT] EXISTS (SELECT …)` → semi/anti join. Equality correlations
    /// become hash keys; other correlated conjuncts become the join residual
    /// (Q21's `l2.l_suppkey <> l1.l_suppkey`).
    fn lower_exists(
        &mut self,
        node: Node,
        scope: &Scope,
        select: &Select,
        negated: bool,
        span: Span,
    ) -> Result<Node> {
        if select_has_aggregation(select)
            || select.having.is_some()
            || !select.order_by.is_empty()
            || select.limit.is_some()
            || select.distinct
        {
            return Err(SqlError::new("EXISTS subqueries support only FROM and WHERE", span));
        }
        let (sub, sub_scope, corr, sub_ops) = self.lower_from_where(select, Some(scope))?;
        let sub = self.apply_subq_ops(sub, &sub_scope, sub_ops)?;
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut residual: Vec<Expr> = Vec::new();
        for expr in corr {
            match split_equi_key(&expr, scope.arity) {
                Some(pair) => keys.push(pair),
                None => residual.push(expr),
            }
        }
        if keys.is_empty() {
            return Err(SqlError::new(
                "EXISTS must correlate with at least one `outer = inner` equality",
                span,
            ));
        }
        let kind = if negated { JoinKind::Anti } else { JoinKind::Semi };
        let (lk, rk) = keys.into_iter().unzip();
        Ok(join_nodes(node, sub, lk, rk, kind, all_opt(residual)))
    }

    /// `expr CMP (SELECT agg …)` → the subquery becomes a materialized
    /// stage; correlated subqueries are decorrelated by grouping on the
    /// correlation columns and joining back (the Q2/Q17/Q20 flattening),
    /// uncorrelated ones are cross-joined as a single-row stage (Q11/Q15/
    /// Q22). The comparison itself becomes a filter, and the borrowed stage
    /// columns are projected away again, so the node's schema is preserved.
    fn lower_scalar_cmp(
        &mut self,
        node: Node,
        scope: &Scope,
        op: CmpOp,
        lhs: &Ast,
        select: &Select,
        span: Span,
    ) -> Result<Node> {
        if !select.order_by.is_empty() || select.limit.is_some() || select.distinct {
            return Err(SqlError::new(
                "scalar subqueries cannot use ORDER BY, LIMIT, or DISTINCT",
                span,
            ));
        }
        if !select.group_by.is_empty() {
            return Err(SqlError::new(
                "scalar subqueries cannot use GROUP BY (correlate instead)",
                span,
            ));
        }
        let item = match select.items.as_slice() {
            [SelectItem::Expr { expr, .. }] => expr,
            _ => {
                return Err(SqlError::new(
                    "scalar subqueries must select exactly one expression",
                    span,
                ));
            }
        };
        if !item.has_aggregate() {
            return Err(SqlError::new(
                "scalar subqueries must aggregate (a single-row guarantee)",
                span,
            ));
        }
        let mut refs = Refs::default();
        let env = Env { scope, offset: 0, outer: None };
        let (lhs_expr, lhs_ty) = self.lower_expr(lhs, &env, &mut refs)?;

        let (sub, sub_scope, corr, sub_ops) = self.lower_from_where(select, Some(scope))?;
        let sub = self.apply_subq_ops(sub, &sub_scope, sub_ops)?;

        let before = node.schema.len();
        let restore: Vec<(Expr, String)> = node
            .schema
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (Expr::Col(i), f.name.clone()))
            .collect();

        if corr.is_empty() {
            // Uncorrelated: a global aggregate — one row — cross-joined in.
            let value = self.finish_select(select, sub, sub_scope)?;
            debug_assert_eq!(value.schema.len(), 1, "single select item");
            let val_ty = value.schema.ty(0);
            check_comparable(lhs_ty, val_ty, span)?;
            let stage = self.gen_stage();
            self.ctx.stage(&stage, value);
            let joined = node.cross_join(self.ctx.scan(&format!("#{stage}")));
            let filtered = filter_node(joined, Expr::cmp(op, lhs_expr, Expr::Col(before)));
            Ok(project_node(filtered, restore))
        } else {
            // Correlated: group the subquery by its correlation columns,
            // stage it, join back on those columns, then compare.
            let mut outer_keys = Vec::new();
            let mut inner_keys = Vec::new();
            for expr in &corr {
                match split_equi_key(expr, scope.arity) {
                    Some((o, i)) => {
                        outer_keys.push(o);
                        inner_keys.push(i);
                    }
                    None => {
                        return Err(SqlError::new(
                            "scalar subqueries support only `outer = inner` equality correlation",
                            span,
                        ));
                    }
                }
            }
            // Aggregate the subquery per correlation-key group.
            let mut aggs = Vec::new();
            let rewritten = extract_aggs(item, &mut aggs);
            if aggs.iter().any(|a| matches!(a.kind, AggKind::Count)) {
                // Decorrelation joins back on the correlation keys, which
                // drops outer rows whose group is empty — but SQL's COUNT
                // returns 0 (not NULL) for them, so those rows must survive
                // a `COUNT(…) < n` comparison. Refuse instead of being
                // silently wrong; SUM/AVG/MIN/MAX return NULL for empty
                // groups, where the dropped rows match SQL's
                // NULL-comparison semantics.
                return Err(SqlError::new(
                    "COUNT in a correlated scalar subquery is not supported \
                     (empty groups would need COUNT = 0 rows that the \
                     decorrelating join cannot produce)",
                    span,
                ));
            }
            let sub_env_scope = sub_scope;
            let mut specs = Vec::new();
            let mut agg_fields: Vec<Field> =
                inner_keys.iter().map(|&i| sub.schema.fields[i].clone()).collect();
            for call in &aggs {
                let (input, ty) = self.lower_agg_input(call, &sub_env_scope)?;
                agg_fields.push(Field::new(&call.name, agg_ty(&call.kind, ty)));
                specs.push(AggSpec {
                    kind: call.kind.clone(),
                    expr: input,
                    name: call.name.clone(),
                });
            }
            let g = inner_keys.len();
            let agg_node = Node {
                plan: Plan::aggregated(sub.plan, inner_keys, specs),
                schema: Schema::new(agg_fields),
            };
            // Compute the scalar value over the aggregates and rename all
            // columns to collision-free names.
            let agg_scope = Scope::from_schema(agg_node.schema.clone());
            let mut vrefs = Refs::default();
            let venv = Env { scope: &agg_scope, offset: 0, outer: None };
            let (value_expr, val_ty) = self.lower_expr(&rewritten, &venv, &mut vrefs)?;
            check_comparable(lhs_ty, val_ty, span)?;
            let stage = self.gen_stage();
            let mut shaped: Vec<(Expr, String)> =
                (0..g).map(|k| (Expr::Col(k), format!("{stage}_k{k}"))).collect();
            shaped.push((value_expr, format!("{stage}_v")));
            let staged = project_node(agg_node, shaped);
            self.ctx.stage(&stage, staged);
            let stage_scan = self.ctx.scan(&format!("#{stage}"));
            let joined =
                join_nodes(node, stage_scan, outer_keys, (0..g).collect(), JoinKind::Inner, None);
            let filtered = filter_node(joined, Expr::cmp(op, lhs_expr, Expr::Col(before + g)));
            Ok(project_node(filtered, restore))
        }
    }

    // ------------------------------------------------------------------
    // Aggregation, HAVING, projection, ORDER BY, LIMIT
    // ------------------------------------------------------------------

    /// Everything after FROM/WHERE: grouping, `HAVING`, the select list,
    /// `DISTINCT`, `ORDER BY`, and `LIMIT`.
    fn finish_select(&mut self, sel: &Select, node: Node, scope: Scope) -> Result<Node> {
        let has_agg = select_has_aggregation(sel);
        if let (false, Some(h)) = (has_agg, &sel.having) {
            // Without this check the predicate would be silently dropped —
            // the non-aggregate path below never reads `having`.
            return Err(SqlError::new(
                "HAVING requires GROUP BY or an aggregate (use WHERE for row filters)",
                h.span,
            ));
        }

        let (node, outputs) = if has_agg {
            self.lower_aggregate(sel, node, &scope)?
        } else {
            let outputs = self.lower_plain_items(sel, &node, &scope)?;
            (node, outputs)
        };

        let mut node =
            if is_identity(&outputs, &node.schema) { node } else { project_node(node, outputs) };
        if sel.distinct {
            node = node.distinct();
        }
        if !sel.order_by.is_empty() {
            let mut keys = Vec::new();
            for (entry, desc) in &sel.order_by {
                let AstKind::Column { qualifier: None, name } = &entry.kind else {
                    return Err(SqlError::new(
                        "ORDER BY must reference output columns by name",
                        entry.span,
                    ));
                };
                let pos = node.schema.index_of(name).ok_or_else(|| {
                    SqlError::new(
                        format!("ORDER BY column `{name}` is not in the select list"),
                        entry.span,
                    )
                })?;
                keys.push((pos, if *desc { SortOrder::Desc } else { SortOrder::Asc }));
            }
            node = Node { plan: Plan::sorted(node.plan, keys), schema: node.schema };
        }
        if let Some(n) = sel.limit {
            node = node.limit(n);
        }
        Ok(node)
    }

    /// Non-aggregate select list.
    fn lower_plain_items(
        &mut self,
        sel: &Select,
        node: &Node,
        scope: &Scope,
    ) -> Result<Vec<(Expr, String)>> {
        if let [SelectItem::Wildcard(_)] = sel.items.as_slice() {
            return Ok(node
                .schema
                .fields
                .iter()
                .enumerate()
                .map(|(i, f)| (Expr::Col(i), f.name.clone()))
                .collect());
        }
        let mut outputs = Vec::new();
        for item in &sel.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(SqlError::new(
                    "`*` cannot be combined with other select items",
                    sel.items.iter().find_map(wildcard_span).unwrap_or_default(),
                ));
            };
            let mut refs = Refs::default();
            let env = Env { scope, offset: 0, outer: None };
            let (lowered, _) = self.lower_expr(expr, &env, &mut refs)?;
            outputs.push((lowered, self.output_name(expr, alias)?));
        }
        Ok(outputs)
    }

    /// Aggregate path: optional pre-projection for computed group keys, the
    /// `Agg` node, `HAVING`, and the rewritten select list.
    fn lower_aggregate(
        &mut self,
        sel: &Select,
        node: Node,
        scope: &Scope,
    ) -> Result<(Node, Vec<(Expr, String)>)> {
        // Group keys: column names, or aliases of select items.
        let mut group: Vec<(Ast, String)> = Vec::new();
        for entry in &sel.group_by {
            let AstKind::Column { qualifier, name } = &entry.kind else {
                return Err(SqlError::new(
                    "GROUP BY keys must be column names or select-item aliases",
                    entry.span,
                ));
            };
            let aliased = qualifier.is_none().then(|| self.find_alias(sel, name)).flatten();
            match aliased {
                Some(expr) => {
                    if expr.has_aggregate() {
                        return Err(SqlError::new(
                            format!("GROUP BY key `{name}` refers to an aggregate"),
                            entry.span,
                        ));
                    }
                    group.push((expr.clone(), name.clone()));
                }
                None => group.push((entry.clone(), name.clone())),
            }
        }
        let env = Env { scope, offset: 0, outer: None };
        let mut group_lowered: Vec<(Expr, Type, String)> = Vec::new();
        for (ast, name) in &group {
            let mut refs = Refs::default();
            let (e, ty) = self.lower_expr(ast, &env, &mut refs)?;
            group_lowered.push((e, ty, name.clone()));
        }

        // Aggregate calls from the select list and HAVING.
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut rewritten_items: Vec<(Ast, String)> = Vec::new();
        for item in &sel.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(SqlError::new(
                    "`*` is not allowed in an aggregating select",
                    sel.items.iter().find_map(wildcard_span).unwrap_or_default(),
                ));
            };
            let name = self.output_name(expr, alias)?;
            if let AstKind::Agg { kind, arg, distinct } = &expr.kind {
                aggs.push(AggCall {
                    kind: kind.clone(),
                    arg: arg.as_deref().cloned(),
                    distinct: *distinct,
                    name: name.clone(),
                    span: expr.span,
                });
                rewritten_items.push((
                    Ast::new(AstKind::Column { qualifier: None, name: name.clone() }, expr.span),
                    name,
                ));
            } else {
                let rewritten = extract_aggs(expr, &mut aggs);
                rewritten_items.push((rewritten, name));
            }
        }
        let rewritten_having = sel.having.as_ref().map(|h| extract_aggs(h, &mut aggs));

        // COUNT(DISTINCT c) lowers through project → distinct → COUNT(c):
        // the deduplicated key column is counted, so a NULL `c` is not a
        // value.
        let distinct_count = aggs.iter().any(|a| a.distinct);
        if distinct_count && aggs.len() != 1 {
            let span = aggs.iter().find(|a| a.distinct).expect("present").span;
            return Err(SqlError::new(
                "COUNT(DISTINCT …) cannot be combined with other aggregates",
                span,
            ));
        }

        let g = group_lowered.len();
        let (agg_node, agg_schema) = if distinct_count {
            let call = &aggs[0];
            let arg = call.arg.as_ref().expect("parser enforces COUNT(DISTINCT col)");
            let mut refs = Refs::default();
            let (arg_expr, _) = self.lower_expr(arg, &env, &mut refs)?;
            let mut shaped: Vec<(Expr, String)> =
                group_lowered.iter().map(|(e, _, n)| (e.clone(), n.clone())).collect();
            shaped.push((arg_expr, "__dk".to_string()));
            let deduped = project_node(node, shaped).distinct();
            let mut fields: Vec<Field> =
                group_lowered.iter().map(|(_, ty, n)| Field::new(n, *ty)).collect();
            fields.push(Field::new(&call.name, Type::Int));
            let schema = Schema::new(fields);
            let plan = Plan::aggregated(
                deduped.plan,
                (0..g).collect(),
                vec![AggSpec::new(AggKind::Count, Expr::col(g), &call.name)],
            );
            (Node { plan, schema: schema.clone() }, schema)
        } else if group_lowered.iter().all(|(e, _, _)| matches!(e, Expr::Col(_))) {
            // Direct aggregation over the input node (Q1, Q3, …).
            let group_by: Vec<usize> = group_lowered
                .iter()
                .map(|(e, _, _)| match e {
                    Expr::Col(i) => *i,
                    _ => unreachable!("all checked as columns"),
                })
                .collect();
            let mut fields: Vec<Field> =
                group_lowered.iter().map(|(_, ty, n)| Field::new(n, *ty)).collect();
            let mut specs = Vec::new();
            for call in &aggs {
                let (input, ty) = self.lower_agg_input_env(call, &env)?;
                fields.push(Field::new(&call.name, agg_ty(&call.kind, ty)));
                specs.push(AggSpec {
                    kind: call.kind.clone(),
                    expr: input,
                    name: call.name.clone(),
                });
            }
            let schema = Schema::new(fields);
            let plan = Plan::aggregated(node.plan, group_by, specs);
            (Node { plan, schema: schema.clone() }, schema)
        } else {
            // Computed group keys (Q7's l_year, Q22's cntrycode): project
            // the keys and aggregate inputs first, as the hand plans do.
            let mut shaped: Vec<(Expr, String)> =
                group_lowered.iter().map(|(e, _, n)| (e.clone(), n.clone())).collect();
            let mut specs = Vec::new();
            let mut fields: Vec<Field> =
                group_lowered.iter().map(|(_, ty, n)| Field::new(n, *ty)).collect();
            for (i, call) in aggs.iter().enumerate() {
                let (input, ty) = self.lower_agg_input_env(call, &env)?;
                let input = match input {
                    lit @ Expr::Lit(_) => lit,
                    e => {
                        shaped.push((e, format!("__in{i}")));
                        Expr::Col(shaped.len() - 1)
                    }
                };
                fields.push(Field::new(&call.name, agg_ty(&call.kind, ty)));
                specs.push(AggSpec {
                    kind: call.kind.clone(),
                    expr: input,
                    name: call.name.clone(),
                });
            }
            let pre = project_node(node, shaped);
            let schema = Schema::new(fields);
            let plan = Plan::aggregated(pre.plan, (0..g).collect(), specs);
            (Node { plan, schema: schema.clone() }, schema)
        };

        // HAVING over the aggregate output.
        let agg_scope = Scope::from_schema(agg_schema.clone());
        let mut node = agg_node;
        if let Some(h) = &rewritten_having {
            let mut plain = Vec::new();
            let mut ops = Vec::new();
            for conjunct in h.conjuncts() {
                if conjunct.has_subquery() {
                    ops.push(classify_subq(conjunct)?);
                    continue;
                }
                let mut refs = Refs::default();
                let env = Env { scope: &agg_scope, offset: 0, outer: None };
                let (e, ty) = self.lower_expr(conjunct, &env, &mut refs)?;
                if ty != Type::Bool {
                    return Err(SqlError::new(
                        format!("HAVING predicate must be boolean, found {ty}"),
                        conjunct.span,
                    ));
                }
                plain.push(e);
            }
            if let Some(p) = all_opt(plain) {
                node = filter_node(node, p);
            }
            node = self.apply_subq_ops(node, &agg_scope, ops)?;
        }

        // The select list over the aggregate output.
        let mut outputs = Vec::new();
        for (rewritten, name) in &rewritten_items {
            if let Some(pos) = agg_schema.index_of(name) {
                // Group keys and whole-item aggregates pass through.
                outputs.push((Expr::Col(pos), name.clone()));
            } else {
                let mut refs = Refs::default();
                let env = Env { scope: &agg_scope, offset: 0, outer: None };
                let (e, _) = self.lower_expr(rewritten, &env, &mut refs)?;
                outputs.push((e, name.clone()));
            }
        }
        Ok((node, outputs))
    }

    /// The select-item expression a bare-alias `GROUP BY` / `ORDER BY` name
    /// refers to.
    fn find_alias<'s>(&self, sel: &'s Select, name: &str) -> Option<&'s Ast> {
        sel.items.iter().find_map(|item| match item {
            SelectItem::Expr { expr, alias: Some(a) } if a.name == name => Some(expr),
            _ => None,
        })
    }

    fn lower_agg_input(&mut self, call: &AggCall, scope: &Scope) -> Result<(Expr, Type)> {
        let env = Env { scope, offset: 0, outer: None };
        self.lower_agg_input_env(call, &env)
    }

    /// Lowers one aggregate's input expression (`COUNT(*)` counts a literal).
    fn lower_agg_input_env(&mut self, call: &AggCall, env: &Env) -> Result<(Expr, Type)> {
        let Some(arg) = &call.arg else {
            return Ok((Expr::lit(1i64), Type::Int));
        };
        if arg.has_aggregate() {
            return Err(SqlError::new("aggregates cannot be nested", call.span));
        }
        let mut refs = Refs::default();
        let (e, ty) = self.lower_expr(arg, env, &mut refs)?;
        if matches!(call.kind, AggKind::Sum | AggKind::Avg) && !is_numeric(ty) {
            return Err(SqlError::new(
                format!("{:?} expects a numeric argument, found {ty}", call.kind),
                call.span,
            ));
        }
        Ok((e, ty))
    }

    /// Output name of a select item: the alias, or the column name for plain
    /// column references.
    fn output_name(&self, expr: &Ast, alias: &Option<ast::Ident>) -> Result<String> {
        if let Some(a) = alias {
            return Ok(a.name.clone());
        }
        match &expr.kind {
            AstKind::Column { name, .. } => Ok(name.clone()),
            _ => Err(SqlError::new("computed select items need an AS alias", expr.span)),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Lowers a scalar expression, resolving names against `env` and
    /// recording which range variables (and whether the outer scope) were
    /// referenced. Returns the positional expression and its static type.
    fn lower_expr(&self, ast: &Ast, env: &Env, refs: &mut Refs) -> Result<(Expr, Type)> {
        match &ast.kind {
            AstKind::Column { qualifier, name } => {
                match env.scope.lookup(qualifier.as_deref(), name) {
                    Lookup::Found { pos, ty, item } => {
                        refs.items.insert(item);
                        Ok((Expr::Col(env.offset + pos), ty))
                    }
                    Lookup::Ambiguous => Err(SqlError::new(
                        format!("ambiguous column `{}` (qualify it with a range variable)", name),
                        ast.span,
                    )),
                    Lookup::NotFound => {
                        if let Some(outer) = env.outer {
                            if let Lookup::Found { pos, ty, .. } =
                                outer.lookup(qualifier.as_deref(), name)
                            {
                                refs.outer = true;
                                return Ok((Expr::Col(pos), ty));
                            }
                        }
                        Err(SqlError::new(
                            format!("unknown column `{}`", display_col(qualifier, name)),
                            ast.span,
                        ))
                    }
                }
            }
            AstKind::Int(v) => Ok((Expr::lit(*v), Type::Int)),
            AstKind::Float(v) => Ok((Expr::lit(*v), Type::Float)),
            AstKind::Str(s) => Ok((Expr::lit(s.as_str()), Type::Str)),
            AstKind::DateLit(d) => Ok((Expr::lit(*d), Type::Date)),
            AstKind::Bool(b) => Ok((Expr::lit(*b), Type::Bool)),
            AstKind::Cmp(op, a, b) => {
                let (ea, ta) = self.lower_expr(a, env, refs)?;
                let (eb, tb) = self.lower_expr(b, env, refs)?;
                check_comparable(ta, tb, ast.span)?;
                Ok((Expr::cmp(*op, ea, eb), Type::Bool))
            }
            AstKind::Arith(op, a, b) => {
                let (ea, ta) = self.lower_expr(a, env, refs)?;
                let (eb, tb) = self.lower_expr(b, env, refs)?;
                if !is_numeric(ta) || !is_numeric(tb) {
                    return Err(SqlError::new(
                        format!("arithmetic needs numeric operands, found {ta} and {tb}"),
                        ast.span,
                    ));
                }
                let ty = if ta == Type::Int && tb == Type::Int { Type::Int } else { Type::Float };
                Ok((Expr::Arith(*op, Box::new(ea), Box::new(eb)), ty))
            }
            AstKind::And(a, b) | AstKind::Or(a, b) => {
                let (ea, ta) = self.lower_expr(a, env, refs)?;
                let (eb, tb) = self.lower_expr(b, env, refs)?;
                if ta != Type::Bool || tb != Type::Bool {
                    return Err(SqlError::new(
                        format!("AND/OR need boolean operands, found {ta} and {tb}"),
                        ast.span,
                    ));
                }
                let e = if matches!(ast.kind, AstKind::And(..)) {
                    Expr::and(ea, eb)
                } else {
                    Expr::or(ea, eb)
                };
                Ok((e, Type::Bool))
            }
            AstKind::Not(a) => {
                let (ea, ta) = self.lower_expr(a, env, refs)?;
                if ta != Type::Bool {
                    return Err(SqlError::new(
                        format!("NOT needs a boolean, found {ta}"),
                        ast.span,
                    ));
                }
                Ok((Expr::not(ea), Type::Bool))
            }
            AstKind::Between { expr, lo, hi, negated } => {
                let (e, te) = self.lower_expr(expr, env, refs)?;
                let (el, tl) = self.lower_expr(lo, env, refs)?;
                let (eh, th) = self.lower_expr(hi, env, refs)?;
                check_comparable(te, tl, ast.span)?;
                check_comparable(te, th, ast.span)?;
                let between = Expr::and(Expr::ge(e.clone(), el), Expr::le(e, eh));
                Ok((if *negated { Expr::not(between) } else { between }, Type::Bool))
            }
            AstKind::InList { expr, list, negated } => {
                let (e, te) = self.lower_expr(expr, env, refs)?;
                let mut values = Vec::new();
                for element in list {
                    let (le, lt) = self.lower_expr(element, env, refs)?;
                    check_comparable(te, lt, element.span)?;
                    match le {
                        Expr::Lit(v) => values.push(v),
                        _ => {
                            return Err(SqlError::new(
                                "IN list elements must be literals",
                                element.span,
                            ));
                        }
                    }
                }
                let e = Expr::in_list(e, values);
                Ok((if *negated { Expr::not(e) } else { e }, Type::Bool))
            }
            AstKind::Like { expr, pattern, negated } => {
                let (e, te) = self.lower_expr(expr, env, refs)?;
                if te != Type::Str {
                    return Err(SqlError::new(
                        format!("LIKE needs a string, found {te}"),
                        ast.span,
                    ));
                }
                let e = like_to_expr(e, pattern, ast.span)?;
                Ok((if *negated { Expr::not(e) } else { e }, Type::Bool))
            }
            AstKind::Case { when, then, otherwise } => {
                let (ec, tc) = self.lower_expr(when, env, refs)?;
                let (et, tt) = self.lower_expr(then, env, refs)?;
                let (ee, te) = self.lower_expr(otherwise, env, refs)?;
                if tc != Type::Bool {
                    return Err(SqlError::new(
                        format!("CASE condition must be boolean, found {tc}"),
                        when.span,
                    ));
                }
                if tt != te {
                    return Err(SqlError::new(
                        format!("CASE branches must have the same type, found {tt} and {te}"),
                        ast.span,
                    ));
                }
                Ok((Expr::case(ec, et, ee), tt))
            }
            AstKind::ExtractYear(a) => {
                let (e, ty) = self.lower_expr(a, env, refs)?;
                if ty != Type::Date {
                    return Err(SqlError::new(
                        format!("EXTRACT(YEAR FROM …) needs a date, found {ty}"),
                        ast.span,
                    ));
                }
                Ok((Expr::year(e), Type::Int))
            }
            AstKind::Substring { expr, start, len } => {
                let (e, ty) = self.lower_expr(expr, env, refs)?;
                if ty != Type::Str {
                    return Err(SqlError::new(
                        format!("SUBSTRING needs a string, found {ty}"),
                        ast.span,
                    ));
                }
                Ok((Expr::substr(e, *start, *len), Type::Str))
            }
            AstKind::IsNull { expr, negated } => {
                let (e, _) = self.lower_expr(expr, env, refs)?;
                let e = Expr::is_null(e);
                Ok((if *negated { Expr::not(e) } else { e }, Type::Bool))
            }
            AstKind::Agg { .. } => Err(SqlError::new(
                "aggregates are only allowed in the select list and HAVING",
                ast.span,
            )),
            AstKind::InSelect { .. } | AstKind::Exists { .. } | AstKind::Scalar(_) => {
                Err(SqlError::new(
                    "subqueries are only supported as top-level WHERE/HAVING conjuncts",
                    ast.span,
                ))
            }
        }
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Positional hash join between two builder nodes.
fn join_nodes(
    left: Node,
    right: Node,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    kind: JoinKind,
    residual: Option<Expr>,
) -> Node {
    let schema = match kind {
        JoinKind::Inner | JoinKind::LeftOuter => left.schema.concat(&right.schema),
        JoinKind::Semi | JoinKind::Anti => left.schema,
    };
    Node {
        plan: Plan::hash_join(left.plan, right.plan, left_keys, right_keys, kind, residual),
        schema,
    }
}

/// Positional projection node.
fn project_node(input: Node, exprs: Vec<(Expr, String)>) -> Node {
    let schema = projected_schema(&input.schema, &exprs);
    Node { plan: Plan::projected(input.plan, exprs), schema }
}

/// Filter node; the schema passes through.
fn filter_node(input: Node, predicate: Expr) -> Node {
    Node { plan: Plan::filtered(input.plan, predicate), schema: input.schema }
}

/// `Some(conjunction)` unless the list is empty.
fn all_opt(preds: Vec<Expr>) -> Option<Expr> {
    if preds.is_empty() {
        None
    } else {
        Some(Expr::all(preds))
    }
}

/// Detects `left-col = right-col` equalities over a concatenated layout
/// split at `boundary`; returns (left position, right-relative position).
fn split_equi_key(expr: &Expr, boundary: usize) -> Option<(usize, usize)> {
    let Expr::Cmp(CmpOp::Eq, a, b) = expr else { return None };
    match (a.as_ref(), b.as_ref()) {
        (Expr::Col(x), Expr::Col(y)) if *x < boundary && *y >= boundary => {
            Some((*x, *y - boundary))
        }
        (Expr::Col(x), Expr::Col(y)) if *y < boundary && *x >= boundary => {
            Some((*y, *x - boundary))
        }
        _ => None,
    }
}

/// True when a lowered select list is exactly the identity over `schema`
/// (both positions and names), making a projection node redundant.
fn is_identity(outputs: &[(Expr, String)], schema: &Schema) -> bool {
    outputs.len() == schema.len()
        && outputs
            .iter()
            .enumerate()
            .all(|(i, (e, n))| matches!(e, Expr::Col(c) if *c == i) && n == &schema.fields[i].name)
}

fn wildcard_span(item: &SelectItem) -> Option<Span> {
    match item {
        SelectItem::Wildcard(s) => Some(*s),
        SelectItem::Expr { .. } => None,
    }
}

/// The one definition of "does this select aggregate": a `GROUP BY`, an
/// aggregate call in a select item, or an aggregate call in `HAVING`.
/// Shared by the `finish_select` grouping decision, the `IN (SELECT …)`
/// staging heuristic, and the `EXISTS` restriction — keeping a single
/// predicate is what stops those call sites from drifting apart (a
/// `HAVING`-only variant of this check once let a predicate vanish).
fn select_has_aggregation(sel: &Select) -> bool {
    !sel.group_by.is_empty()
        || sel.having.as_ref().is_some_and(Ast::has_aggregate)
        || sel.items.iter().any(|i| match i {
            SelectItem::Wildcard(_) => false,
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
        })
}

/// Classifies a WHERE/HAVING conjunct containing a subquery.
fn classify_subq(conjunct: &Ast) -> Result<SubqOp<'_>> {
    match &conjunct.kind {
        AstKind::InSelect { expr, select, negated } => {
            Ok(SubqOp::In { lhs: expr, select, negated: *negated })
        }
        AstKind::Exists { select, negated } => {
            Ok(SubqOp::Exists { select, negated: *negated, span: conjunct.span })
        }
        AstKind::Cmp(op, a, b) => match (&a.kind, &b.kind) {
            (_, AstKind::Scalar(select)) if !a.has_subquery() => {
                Ok(SubqOp::Scalar { op: *op, lhs: a, select, span: conjunct.span })
            }
            (AstKind::Scalar(select), _) if !b.has_subquery() => {
                Ok(SubqOp::Scalar { op: flip(*op), lhs: b, select, span: conjunct.span })
            }
            _ => Err(SqlError::new(
                "scalar subqueries must appear on one side of a comparison",
                conjunct.span,
            )),
        },
        _ => Err(SqlError::new(
            "subqueries are only supported as top-level WHERE/HAVING conjuncts \
             (EXISTS, IN, or one side of a comparison)",
            conjunct.span,
        )),
    }
}

/// Mirrors a comparison when its operands are swapped.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

fn is_numeric(ty: Type) -> bool {
    matches!(ty, Type::Int | Type::Float)
}

/// Comparison type check: numerics compare cross-type, everything else only
/// with itself.
fn check_comparable(a: Type, b: Type, span: Span) -> Result<()> {
    if a == b || (is_numeric(a) && is_numeric(b)) {
        Ok(())
    } else {
        Err(SqlError::new(format!("type mismatch: cannot compare {a} to {b}"), span))
    }
}

/// Result type of an aggregate.
fn agg_ty(kind: &AggKind, input: Type) -> Type {
    match kind {
        AggKind::Count => Type::Int,
        AggKind::Avg => Type::Float,
        AggKind::Sum | AggKind::Min | AggKind::Max => input,
    }
}

fn display_col(qualifier: &Option<String>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// Maps a `LIKE` pattern onto the engine's string kernels — the same four
/// shapes the paper's string dictionaries specialize (§3.4): prefix,
/// suffix, infix, and two-word sequence.
fn like_to_expr(e: Expr, pattern: &str, span: Span) -> Result<Expr> {
    if pattern.contains('_') {
        return Err(SqlError::new(
            "unsupported LIKE pattern: `_` wildcards are not implemented",
            span,
        ));
    }
    let segments: Vec<&str> = pattern.split('%').collect();
    match segments.as_slice() {
        [s] => Ok(Expr::eq(e, Expr::lit(*s))),
        ["", s] if !s.is_empty() => Ok(Expr::EndsWith(Box::new(e), s.to_string())),
        [s, ""] if !s.is_empty() => Ok(Expr::StartsWith(Box::new(e), s.to_string())),
        ["", s, ""] if !s.is_empty() => Ok(Expr::Contains(Box::new(e), s.to_string())),
        ["", a, b, ""] if !a.is_empty() && !b.is_empty() => {
            Ok(Expr::ContainsWordSeq(Box::new(e), a.to_string(), b.to_string()))
        }
        _ => Err(SqlError::new(
            format!(
                "unsupported LIKE pattern `{pattern}` (supported: exact, 'p%', '%s', \
                 '%infix%', and '%w1%w2%')"
            ),
            span,
        )),
    }
}

/// Replaces aggregate calls with references to generated output columns and
/// collects them; does not descend into subqueries (their aggregates belong
/// to their own select).
fn extract_aggs(ast: &Ast, aggs: &mut Vec<AggCall>) -> Ast {
    let rebuild = |a: &Ast, aggs: &mut Vec<AggCall>| Box::new(extract_aggs(a, aggs));
    let kind = match &ast.kind {
        AstKind::Agg { kind, arg, distinct } => {
            let name = format!("__agg{}", aggs.len());
            aggs.push(AggCall {
                kind: kind.clone(),
                arg: arg.as_deref().cloned(),
                distinct: *distinct,
                name: name.clone(),
                span: ast.span,
            });
            AstKind::Column { qualifier: None, name }
        }
        AstKind::Cmp(op, a, b) => AstKind::Cmp(*op, rebuild(a, aggs), rebuild(b, aggs)),
        AstKind::Arith(op, a, b) => AstKind::Arith(*op, rebuild(a, aggs), rebuild(b, aggs)),
        AstKind::And(a, b) => AstKind::And(rebuild(a, aggs), rebuild(b, aggs)),
        AstKind::Or(a, b) => AstKind::Or(rebuild(a, aggs), rebuild(b, aggs)),
        AstKind::Not(a) => AstKind::Not(rebuild(a, aggs)),
        AstKind::Between { expr, lo, hi, negated } => AstKind::Between {
            expr: rebuild(expr, aggs),
            lo: rebuild(lo, aggs),
            hi: rebuild(hi, aggs),
            negated: *negated,
        },
        AstKind::InList { expr, list, negated } => AstKind::InList {
            expr: rebuild(expr, aggs),
            list: list.iter().map(|e| extract_aggs(e, aggs)).collect(),
            negated: *negated,
        },
        AstKind::Like { expr, pattern, negated } => {
            AstKind::Like { expr: rebuild(expr, aggs), pattern: pattern.clone(), negated: *negated }
        }
        AstKind::Case { when, then, otherwise } => AstKind::Case {
            when: rebuild(when, aggs),
            then: rebuild(then, aggs),
            otherwise: rebuild(otherwise, aggs),
        },
        AstKind::ExtractYear(a) => AstKind::ExtractYear(rebuild(a, aggs)),
        AstKind::Substring { expr, start, len } => {
            AstKind::Substring { expr: rebuild(expr, aggs), start: *start, len: *len }
        }
        AstKind::IsNull { expr, negated } => {
            AstKind::IsNull { expr: rebuild(expr, aggs), negated: *negated }
        }
        other => other.clone(),
    };
    Ast::new(kind, ast.span)
}
