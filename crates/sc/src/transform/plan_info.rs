//! Plan-level provenance shared by the analysis phases: which base
//! (table, column) feeds each output column of an operator. The paper's
//! transformers read the same information from the operator objects still
//! present at high IR levels.
use crate::rules::TransformCtx;
use legobase_engine::expr::Expr as PExpr;
use legobase_engine::plan::{JoinKind, Plan};
use legobase_storage::Catalog;
use std::collections::HashMap;

// --------------------------------------------------------------------------
// Plan-level provenance: which base (table, column) feeds each output column
// of an operator. The paper's transformers read the same information from
// the operator objects still present at high IR levels.
// --------------------------------------------------------------------------

/// Per output column, the base (table, column) it carries unchanged; the
/// table names borrow the plan's own scans.
pub(crate) type Prov<'q> = Vec<Option<(&'q str, usize)>>;

/// Runs `visit(plan, inputs)` over every operator of the query, stages
/// first, each plan in pre-order. `inputs` holds the provenance of the
/// operator's inputs: none for a scan, the left then the right side for a
/// join, the one input otherwise. One bottom-up walk derives every
/// operator's provenance once, from its inputs'.
pub(crate) fn walk_plans<'q>(ctx: &TransformCtx<'q>, mut visit: impl FnMut(&'q Plan, &[Prov<'q>])) {
    let (query, catalog) = (ctx.query, ctx.catalog);
    let mut stages: HashMap<String, Prov<'q>> = HashMap::new();
    let mut visits: Vec<(&'q Plan, Vec<Prov<'q>>)> = Vec::new();
    for (name, plan) in &query.stages {
        let prov = provenance(plan, catalog, &stages, &mut visits);
        stages.insert(format!("#{name}"), prov);
    }
    provenance(&query.root, catalog, &stages, &mut visits);
    for (plan, inputs) in &visits {
        visit(plan, inputs);
    }
}

/// The provenance of `plan`'s output. Appends `plan` and its subtree to
/// `visits` in pre-order, each with its inputs' provenance.
fn provenance<'q>(
    plan: &'q Plan,
    catalog: &Catalog,
    stages: &HashMap<String, Prov<'q>>,
    visits: &mut Vec<(&'q Plan, Vec<Prov<'q>>)>,
) -> Prov<'q> {
    let slot = visits.len();
    visits.push((plan, Vec::new()));
    let inputs: Vec<Prov<'q>> =
        plan.children().into_iter().map(|c| provenance(c, catalog, stages, visits)).collect();
    let out = match plan {
        Plan::Scan { table } => match stages.get(table) {
            Some(p) => p.clone(),
            None => (0..catalog.table(table).schema.len()).map(|i| Some((&**table, i))).collect(),
        },
        Plan::Select { .. } | Plan::Sort { .. } | Plan::Limit { .. } | Plan::Distinct { .. } => {
            inputs[0].clone()
        }
        Plan::Project { exprs, .. } => exprs
            .iter()
            .map(|(e, _)| match e {
                PExpr::Col(i) => inputs[0][*i],
                _ => None,
            })
            .collect(),
        Plan::HashJoin { kind, .. } => match kind {
            JoinKind::Inner | JoinKind::LeftOuter => [&inputs[0][..], &inputs[1][..]].concat(),
            JoinKind::Semi | JoinKind::Anti => inputs[0].clone(),
        },
        Plan::Agg { group_by, aggs, .. } => {
            let mut out: Prov = group_by.iter().map(|&g| inputs[0][g]).collect();
            out.extend(std::iter::repeat_n(None, aggs.len()));
            out
        }
    };
    visits[slot].1 = inputs;
    out
}

/// The base table a plan node scans, seen through filters (the executor's
/// `chunk.base` propagation).
pub(crate) fn base_table(plan: &Plan) -> Option<&str> {
    match plan {
        Plan::Scan { table } if !table.starts_with('#') => Some(table),
        Plan::Select { input, .. } => base_table(input),
        _ => None,
    }
}
