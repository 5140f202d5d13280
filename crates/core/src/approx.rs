//! Resource-bounded approximation.
//!
//! When a user can only afford a data-access budget smaller than a bounded
//! plan's deduced bound (or the query is not boundedly evaluable at all),
//! BEAS "offers resource bounded approximation ... which guarantees a
//! deterministic accuracy lower bound on approximate answers computed, and
//! accesses a bounded number of tuples in the entire process" (§3).  The
//! details are deferred to a later publication; the scheme implemented here
//! is the natural instantiation over bounded plans:
//!
//! * execute the bounded plan, but cap the number of distinct keys each fetch
//!   step may look up so that the *worst-case* data access stays within the
//!   budget;
//! * every answer produced is a genuine answer (soundness — answers come from
//!   real fetched tuples);
//! * the reported `coverage` is the product of the per-step fractions of keys
//!   processed, a deterministic lower bound on the fraction of the exact
//!   answer set that was explored.

use crate::executor::retain_matching;
use crate::graph::QueryGraph;
use crate::plan::{BoundedPlan, KeySource};
use beas_access::AccessIndexes;
use beas_common::{BeasError, Result, Row, Value};
use beas_engine::{aggregate, ExecutionMetrics};
use beas_obs::clock;
use beas_sql::{evaluate, BoundExpr, BoundQuery};
use std::collections::{HashMap, HashSet};

/// The result of a resource-bounded approximate execution.
#[derive(Debug, Clone)]
pub struct ApproximateExecution {
    /// The (sound) answers produced within the budget.
    pub rows: Vec<Row>,
    /// Output schema of the answer rows.
    pub schema: beas_common::Schema,
    /// Tuples fetched through constraint indices (guaranteed ≤ budget).
    pub tuples_accessed: u64,
    /// Deterministic lower bound on the fraction of the exact answer set
    /// explored (1.0 means the answer is exact).
    pub coverage: f64,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
}

/// Execute a bounded plan under a hard budget on fetched tuples.
pub fn execute_with_budget(
    plan: &BoundedPlan,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &AccessIndexes,
    budget: u64,
) -> Result<ApproximateExecution> {
    if budget == 0 {
        return Err(BeasError::invalid_argument(
            "approximation budget must be positive",
        ));
    }
    let start = clock::now();
    let mut metrics = ExecutionMetrics::new();
    let mut schema = beas_common::Schema::empty();
    let mut rows: Vec<Row> = vec![vec![]];
    let mut tuples_accessed: u64 = 0;
    let mut coverage = 1.0f64;
    // Split the budget evenly across the fetch steps; each step may also use
    // budget left over by earlier steps.
    let per_step = (budget / plan.fetches.len().max(1) as u64).max(1);
    let mut remaining_budget = budget;

    for (step_no, fetch) in plan.fetches.iter().enumerate() {
        let t = clock::now();
        let index = indexes.for_constraint(&fetch.constraint).ok_or_else(|| {
            BeasError::execution(format!("no index for constraint {}", fetch.constraint))
        })?;
        let atom_schema = &query.tables[fetch.atom].schema;
        let key_types: Vec<beas_common::DataType> = fetch
            .constraint
            .x
            .iter()
            .map(|c| {
                atom_schema
                    .column(c)
                    .map(|col| col.data_type)
                    .unwrap_or(beas_common::DataType::Str)
            })
            .collect();

        // Resolve ctx key positions.
        let mut ctx_key_indices: Vec<Option<usize>> = Vec::new();
        for k in &fetch.keys {
            match k {
                KeySource::Ctx(atom, col) => {
                    let alias = &query.tables[*atom].alias;
                    ctx_key_indices.push(schema.index_of_origin(alias, col));
                }
                _ => ctx_key_indices.push(None),
            }
        }

        // Distinct keys in first-seen order.
        let mut distinct_keys: Vec<Vec<Value>> = Vec::new();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut row_keys: Vec<Vec<Vec<Value>>> = Vec::new();
        for row in &rows {
            let mut alts: Vec<Vec<Value>> = vec![vec![]];
            for ((k, ci), kt) in fetch.keys.iter().zip(&ctx_key_indices).zip(&key_types) {
                let opts: Vec<Value> = match (k, ci) {
                    (KeySource::Constant(v), _) => vec![v.clone()],
                    (KeySource::Constants(vs), _) => vs.clone(),
                    (KeySource::Ctx(_, _), Some(i)) => vec![row[*i].clone()],
                    (KeySource::Ctx(_, _), None) => vec![Value::Null],
                };
                // NULL key values are dropped, matching the exact bounded
                // executor: SQL equality never matches NULL, so a NULL key
                // fetches nothing (the index's NULL bucket groups rows the
                // baseline joins exclude).
                let opts: Vec<Value> = opts
                    .into_iter()
                    .filter(|v| !v.is_null())
                    .map(|v| beas_common::canonical_key_value(&v.cast(*kt).unwrap_or(v)))
                    .collect();
                let mut next = Vec::new();
                for a in &alts {
                    for o in &opts {
                        let mut key = a.clone();
                        key.push(o.clone());
                        next.push(key);
                    }
                }
                alts = next;
            }
            for key in &alts {
                if seen.insert(key.clone()) {
                    distinct_keys.push(key.clone());
                }
            }
            row_keys.push(alts);
        }

        // Cap the keys so that worst-case fetched tuples stay within this
        // step's share of the budget, and additionally stop as soon as the
        // next bucket would push the total over the global budget (hard
        // guarantee: tuples_accessed ≤ budget).
        let step_budget = per_step.max(remaining_budget / (plan.fetches.len() - step_no) as u64);
        let max_keys = (step_budget / fetch.constraint.n).max(1) as usize;
        let mut buckets: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        let mut step_accessed: u64 = 0;
        let mut processed = 0usize;
        for key in distinct_keys.iter().take(max_keys) {
            let bucket = index.fetch(key);
            if tuples_accessed + step_accessed + bucket.len() as u64 > budget {
                break;
            }
            step_accessed += bucket.len() as u64;
            buckets.insert(key.clone(), bucket.to_vec());
            processed += 1;
        }
        if !distinct_keys.is_empty() {
            coverage *= processed as f64 / distinct_keys.len() as f64;
        }
        let allowed: HashSet<Vec<Value>> = distinct_keys.iter().take(processed).cloned().collect();
        tuples_accessed += step_accessed;
        remaining_budget = budget.saturating_sub(tuples_accessed);

        // Extend the schema and join, exactly as the exact executor does.
        let mut new_fields = schema.fields().to_vec();
        for col in fetch.constraint.x.iter().chain(fetch.constraint.y.iter()) {
            let dt = atom_schema
                .column(col)
                .map(|c| c.data_type)
                .unwrap_or(beas_common::DataType::Str);
            new_fields.push(beas_common::Field::base(
                fetch.alias.clone(),
                col.clone(),
                dt,
            ));
        }
        let new_schema = beas_common::Schema::new(new_fields);
        let x_len = fetch.constraint.x.len();
        let mut new_rows = Vec::new();
        for (row, keys) in rows.iter().zip(&row_keys) {
            for key in keys {
                if !allowed.contains(key) {
                    continue;
                }
                let Some(bucket) = buckets.get(key) else {
                    continue;
                };
                for partial in bucket {
                    let mut out = row.clone();
                    out.extend(key.iter().take(x_len).cloned());
                    out.extend(partial.iter().cloned());
                    new_rows.push(out);
                }
            }
        }
        for pred in &fetch.post_filters {
            let rewritten = crate::plan::rewrite_to_ctx(pred, query, graph, &new_schema)?;
            new_rows = retain_matching(new_rows, &rewritten)?;
        }
        new_rows = beas_common::dedupe(new_rows);
        metrics.record(
            format!("ApproxFetch({})", fetch.constraint.id()),
            new_rows.len() as u64,
            step_accessed,
            t.elapsed(),
        );
        schema = new_schema;
        rows = new_rows;
    }

    // Finalization (same semantics as the exact bounded executor, including
    // predicate-error propagation).
    for pred in &plan.residual_predicates {
        let rewritten = crate::plan::rewrite_to_ctx(pred, query, graph, &schema)?;
        rows = retain_matching(rows, &rewritten)?;
    }
    let mut out: Vec<Row>;
    if query.is_aggregate {
        let group_by: Vec<BoundExpr> = query
            .group_by
            .iter()
            .map(|g| crate::plan::rewrite_to_ctx(g, query, graph, &schema))
            .collect::<Result<_>>()?;
        let mut aggs = query.aggregates.clone();
        for a in &mut aggs {
            if let Some(arg) = &a.arg {
                a.arg = Some(crate::plan::rewrite_to_ctx(arg, query, graph, &schema)?);
            }
        }
        let mut agg_rows = aggregate(&rows, &group_by, &aggs)?;
        if let Some(h) = &query.having {
            agg_rows = retain_matching(agg_rows, h)?;
        }
        out = Vec::new();
        for r in &agg_rows {
            let mut p = Vec::new();
            for (e, _) in &query.output {
                p.push(evaluate(e, r)?);
            }
            out.push(p);
        }
    } else {
        let outputs: Vec<BoundExpr> = query
            .output
            .iter()
            .map(|(e, _)| crate::plan::rewrite_to_ctx(e, query, graph, &schema))
            .collect::<Result<_>>()?;
        out = Vec::new();
        let mut seen = HashSet::new();
        for r in &rows {
            let mut p = Vec::new();
            for e in &outputs {
                p.push(evaluate(e, r)?);
            }
            if seen.insert(p.clone()) {
                out.push(p);
            }
        }
    }
    if !query.order_by.is_empty() {
        out.sort_by(|a, b| {
            for (idx, asc) in &query.order_by {
                let o = a[*idx].total_cmp(&b[*idx]);
                let o = if *asc { o } else { o.reverse() };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(l) = query.limit {
        out.truncate(l as usize);
    }
    metrics.elapsed = start.elapsed();

    Ok(ApproximateExecution {
        rows: out,
        schema: query.output_schema.clone(),
        tuples_accessed,
        coverage,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::planner::generate_bounded_plan;
    use beas_access::{build_indexes, AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema};
    use beas_sql::{parse_select, Binder};
    use beas_storage::Database;

    fn setup() -> (Database, AccessSchema, AccessIndexes) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for p in 0..20 {
            for r in 0..5 {
                db.insert(
                    "call",
                    vec![
                        Value::str(format!("p{p}")),
                        Value::str(format!("r{p}_{r}")),
                        Value::str("2016-07-04"),
                    ],
                )
                .unwrap();
            }
        }
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum", "date"],
            &["recnum"],
            5,
        )
        .unwrap()]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn prepare(sql: &str) -> (BoundedPlan, BoundQuery, QueryGraph, AccessIndexes) {
        let (db, schema, indexes) = setup();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        (plan, bound, graph, indexes)
    }

    const SQL: &str = "select recnum from call where \
        pnum in ('p0','p1','p2','p3','p4','p5','p6','p7') and date = '2016-07-04'";

    #[test]
    fn full_budget_gives_exact_answers() {
        let (plan, query, graph, indexes) = prepare(SQL);
        let result = execute_with_budget(&plan, &query, &graph, &indexes, 1_000_000).unwrap();
        assert_eq!(result.rows.len(), 40); // 8 keys x 5 recnums
        assert!((result.coverage - 1.0).abs() < 1e-9);
        assert_eq!(result.tuples_accessed, 40);
    }

    #[test]
    fn tight_budget_bounds_access_and_reports_coverage() {
        let (plan, query, graph, indexes) = prepare(SQL);
        let result = execute_with_budget(&plan, &query, &graph, &indexes, 20).unwrap();
        assert!(result.tuples_accessed <= 20);
        assert!(result.coverage < 1.0);
        assert!(result.coverage >= 0.25); // at least budget/need of the keys
                                          // soundness: every approximate answer is a genuine answer
        let (plan2, query2, graph2, indexes2) = prepare(SQL);
        let exact = crate::executor::execute_bounded(&plan2, &query2, &graph2, &indexes2).unwrap();
        let exact_set: HashSet<Row> = exact.rows.into_iter().collect();
        for r in &result.rows {
            assert!(exact_set.contains(r));
        }
    }

    #[test]
    fn zero_budget_is_rejected() {
        let (plan, query, graph, indexes) = prepare(SQL);
        assert!(execute_with_budget(&plan, &query, &graph, &indexes, 0).is_err());
    }
}
