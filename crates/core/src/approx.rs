//! Resource-bounded approximation.
//!
//! When a user can only afford a data-access budget smaller than a covered
//! query's deduced bound, BEAS "offers resource bounded approximation ...
//! which guarantees a deterministic accuracy lower bound on approximate
//! answers computed, and accesses a bounded number of tuples in the entire
//! process" (§3).  The details are deferred to a later publication; the
//! scheme implemented here is the exact bounded plan with a smaller budget:
//!
//! * run the query's compiled program through the bounded executor, but
//!   let each fetch step look up only its first distinct keys (in
//!   first-seen order), as many as the `KeyCap` allows, so that the
//!   *worst-case* data access stays within the budget;
//! * every answer produced is a genuine answer (soundness — answers come from
//!   real fetched tuples);
//! * the reported `coverage` is the product of the per-step fractions of keys
//!   processed, a deterministic lower bound on the fraction of the exact
//!   answer set that was explored.
//!
//! A query the access schema does not cover has no bounded plan, so it
//! cannot be approximated: fetching only its covered atoms would return
//! answers no uncovered atom was checked against.

use crate::executor::{execute_program, FetchConfig};
use crate::plan::FetchProgram;
use beas_access::AccessIndexes;
use beas_common::{BeasError, QuotaTracker, Result, Row, Schema};
use beas_engine::ExecutionMetrics;

/// The result of a resource-bounded approximate execution.
#[derive(Debug, Clone)]
pub struct ApproximateExecution {
    /// The (sound) answers produced within the budget.
    pub rows: Vec<Row>,
    /// Output schema of the answer rows.
    pub schema: Schema,
    /// Tuples fetched through constraint indices (guaranteed ≤ budget).
    pub tuples_accessed: u64,
    /// Deterministic lower bound on the fraction of the exact answer set
    /// explored (1.0 means the answer is exact).
    pub coverage: f64,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
}

/// Run a compiled bounded program under a hard budget on fetched tuples.
/// The optional quota is checkpointed and charged per fetch step, exactly
/// as on the exact bounded path.
pub(crate) fn execute_with_budget(
    program: &FetchProgram,
    schema: &Schema,
    indexes: &AccessIndexes,
    budget: u64,
    quota: Option<&QuotaTracker>,
) -> Result<ApproximateExecution> {
    if budget == 0 {
        return Err(BeasError::invalid_argument(
            "approximation budget must be positive",
        ));
    }
    let mut cap = KeyCap::new(budget, program.fetches.steps.len());
    let result = execute_program(
        program,
        indexes,
        FetchConfig::default(),
        quota,
        Some(&mut cap),
    )?;
    Ok(ApproximateExecution {
        rows: result.rows,
        schema: schema.clone(),
        tuples_accessed: result.tuples_accessed,
        coverage: cap.coverage,
        metrics: result.metrics,
    })
}

/// The per-step key cap of a budgeted run.
///
/// The budget is split evenly across the fetch steps, and each step may
/// also use budget left over by earlier steps.  A step looks up at most
/// `share / N` of its keys (at least one), `N` being its constraint's
/// cardinality bound, and stops before the bucket that would push the total
/// past the budget — the hard guarantee `tuples_accessed ≤ budget`.
#[derive(Debug)]
pub(crate) struct KeyCap {
    budget: u64,
    per_step: u64,
    steps: usize,
    /// Steps run so far.
    step: usize,
    /// Tuples accessed so far.
    accessed: u64,
    /// Product of processed/distinct keys over the steps run so far.
    coverage: f64,
}

impl KeyCap {
    fn new(budget: u64, steps: usize) -> Self {
        KeyCap {
            budget,
            per_step: (budget / steps.max(1) as u64).max(1),
            steps,
            step: 0,
            accessed: 0,
            coverage: 1.0,
        }
    }

    /// The next step's limits, for a constraint with cardinality bound `n`:
    /// how many of its first keys it may look up, and how many tuples it may
    /// access.
    pub(crate) fn limits(&self, n: u64) -> (usize, u64) {
        let remaining = self.budget - self.accessed;
        let share = self
            .per_step
            .max(remaining / (self.steps - self.step) as u64);
        ((share / n).max(1) as usize, remaining)
    }

    /// Record that the step looked up `processed` of its `distinct` keys
    /// and accessed `accessed` tuples.
    pub(crate) fn record(&mut self, processed: usize, distinct: usize, accessed: u64) {
        if distinct > 0 {
            self.coverage *= processed as f64 / distinct as f64;
        }
        self.accessed += accessed;
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::graph::QueryGraph;
    use crate::plan::BoundedPlan;
    use crate::planner::generate_bounded_plan;
    use beas_access::{build_indexes, AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
    use beas_sql::{parse_select, Binder, BoundQuery};
    use beas_storage::Database;
    use std::collections::HashSet;

    /// Compile `plan` and run it under `budget`.
    fn execute_with_budget(
        plan: &BoundedPlan,
        query: &BoundQuery,
        graph: &QueryGraph,
        indexes: &AccessIndexes,
        budget: u64,
    ) -> Result<ApproximateExecution> {
        let program = FetchProgram::compile(plan, query, graph)?;
        super::execute_with_budget(&program, &query.output_schema, indexes, budget, None)
    }

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
        let exact = crate::executor::execute_bounded_with(
            &plan2,
            &query2,
            &graph2,
            &indexes2,
            crate::executor::FetchConfig::default(),
            None,
        )
        .unwrap();
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
