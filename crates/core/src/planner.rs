//! The BE Plan Generator: turns a successful coverage check into a
//! [`BoundedPlan`] with per-fetch bound annotations.

use crate::checker::CoverageResult;
use crate::graph::{QueryGraph, Term};
use crate::plan::{BoundedPlan, KeySource, PlannedFetch};
use beas_common::{BeasError, Result};
use beas_sql::ast::BinaryOperator;
use beas_sql::{BoundExpr, BoundQuery};
use std::collections::{BTreeMap, BTreeSet};

/// Generate a bounded plan from a coverage result.
///
/// Fails if the coverage result is not covered — callers should consult the
/// checker first (or use partially bounded planning, see
/// [`crate::partial`]).
pub fn generate_bounded_plan(
    query: &BoundQuery,
    graph: &QueryGraph,
    coverage: &CoverageResult,
) -> Result<BoundedPlan> {
    if !coverage.covered {
        return Err(BeasError::not_bounded(format!(
            "query is not covered by the access schema: {}",
            coverage.reasons.join("; ")
        )));
    }
    generate_plan_for_steps(query, graph, coverage, None)
}

/// Generate a plan for a subset of atoms (used by partially bounded
/// evaluation); `None` means all fetch steps.
pub fn generate_plan_for_steps(
    query: &BoundQuery,
    graph: &QueryGraph,
    coverage: &CoverageResult,
    only_atoms: Option<&BTreeSet<usize>>,
) -> Result<BoundedPlan> {
    let classes = graph.equivalence_classes();
    let mut ctx_columns: BTreeSet<Term> = BTreeSet::new();
    let mut assigned_filters = vec![false; graph.filters.len()];
    let mut fetches = Vec::new();

    // The seed bound accounts for IN-list expansions used as keys.
    let seed_bound: u64 = graph
        .in_lists
        .values()
        .map(|v| v.len() as u64)
        .product::<u64>()
        .max(1);

    // Candidate steps from the checker, optionally restricted to a subset of
    // atoms (partially bounded planning).
    let mut remaining: Vec<&crate::checker::FetchStep> = coverage
        .fetch_sequence
        .iter()
        .filter(|s| only_atoms.map(|a| a.contains(&s.atom)).unwrap_or(true))
        .collect();

    // Greedy ordering: among the steps whose keys are already available, fire
    // the one with the smallest cardinality bound first.  This is what turns
    // the checker's arbitrary firing order into the plan of Example 2
    // (business ψ3, then package ψ2, then call ψ1) and minimises the deduced
    // bound.
    while !remaining.is_empty() {
        let ready: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.constraint.x.iter().all(|x| {
                    resolve_key_source(graph, &classes, &ctx_columns, &(s.atom, x.clone())).is_ok()
                })
            })
            .map(|(i, _)| i)
            .collect();
        let pick = match ready.iter().min_by_key(|&&i| remaining[i].constraint.n) {
            Some(&i) => i,
            // Defensive: should not happen for checker-produced sequences,
            // but keep the given order rather than looping forever.
            None => 0,
        };
        let step = remaining.remove(pick);
        let atom = &graph.atoms[step.atom];
        // Resolve each key attribute of X to a source.
        let mut keys = Vec::new();
        for x in &step.constraint.x {
            let term: Term = (step.atom, x.clone());
            keys.push(resolve_key_source(graph, &classes, &ctx_columns, &term)?);
        }

        // Which predicates become checkable after this fetch?
        let mut post_filters = Vec::new();
        // (a) equality/IN constraints on the newly fetched attributes.
        for col in step.constraint.x.iter().chain(step.constraint.y.iter()) {
            let term = (step.atom, col.clone());
            let global = global_index(query, step.atom, col)?;
            if let Some(v) = graph.constants.get(&term) {
                post_filters.push(BoundExpr::Binary {
                    op: BinaryOperator::Eq,
                    left: Box::new(BoundExpr::Column(global)),
                    right: Box::new(BoundExpr::Literal(v.clone())),
                });
            }
            if let Some(vs) = graph.in_lists.get(&term) {
                post_filters.push(BoundExpr::InList {
                    expr: Box::new(BoundExpr::Column(global)),
                    list: vs.iter().cloned().map(BoundExpr::Literal).collect(),
                    negated: false,
                });
            }
        }

        // Update the context columns.
        for col in step.constraint.x.iter().chain(step.constraint.y.iter()) {
            ctx_columns.insert((step.atom, col.clone()));
        }

        // (b) single-atom filters whose columns are all now in the context.
        for (i, f) in graph.filters.iter().enumerate() {
            if assigned_filters[i] {
                continue;
            }
            let refs = f.predicate.referenced_columns();
            let all_available = refs.iter().all(|&c| {
                let (a, _) = crate::graph::atom_of_column(query, c);
                let name = query.input_schema.field(c).name.clone();
                ctx_columns.contains(&(a, name))
            });
            if all_available {
                post_filters.push(f.predicate.clone());
                assigned_filters[i] = true;
            }
        }

        fetches.push(PlannedFetch {
            atom: step.atom,
            alias: atom.alias.clone(),
            constraint: step.constraint.clone(),
            keys,
            bound: 0,
            post_filters,
        });
    }

    let mut fetches = prune_redundant_fetches(fetches, graph, &classes);
    // Bound deduction: |keys| ≤ ctx_bound, each key fetches ≤ N tuples.
    let mut ctx_bound: u64 = seed_bound;
    let mut total_bound: u64 = 0;
    for fetch in &mut fetches {
        fetch.bound = ctx_bound.saturating_mul(fetch.constraint.n);
        total_bound = total_bound.saturating_add(fetch.bound);
        ctx_bound = fetch.bound;
    }

    // Residual predicates: only those whose columns are all in the context
    // (always true for fully covered queries; partially bounded plans keep
    // the rest for the DBMS residue).
    let mut residual_predicates = Vec::new();
    for p in &graph.residual_predicates {
        let refs = p.referenced_columns();
        let available = refs.iter().all(|&c| {
            let (a, _) = crate::graph::atom_of_column(query, c);
            let name = query.input_schema.field(c).name.clone();
            ctx_columns.contains(&(a, name))
        });
        if available {
            residual_predicates.push(p.clone());
        }
    }
    // Any single-atom filter not assignable to a step (possible in partial
    // plans) is also deferred to the residual stage if its columns are
    // available.
    for (i, f) in graph.filters.iter().enumerate() {
        if assigned_filters[i] {
            continue;
        }
        let refs = f.predicate.referenced_columns();
        let available = refs.iter().all(|&c| {
            let (a, _) = crate::graph::atom_of_column(query, c);
            let name = query.input_schema.field(c).name.clone();
            ctx_columns.contains(&(a, name))
        });
        if available {
            residual_predicates.push(f.predicate.clone());
        }
    }

    let constraints_used = {
        let mut ids: Vec<String> = fetches.iter().map(|f| f.constraint.id()).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    };

    Ok(BoundedPlan {
        fetches,
        residual_predicates,
        total_bound,
        constraints_used,
        finalization: describe_finalization(query),
    })
}

/// Drop the fetch steps that add nothing to the answer, once the greedy
/// order and every key source are fixed.
///
/// The checker's fixpoint fires every constraint that yields a new term,
/// including terms the query never reads: TLC Q4/Q10 fetch `customer` a
/// second time through `pnum → name, …` after `(region, segment) → pnum,
/// city, …` has supplied every `c` attribute they use.  A step is dropped
/// only when both hold:
///
/// * every key attribute is read from the atom's *own* context column, and
///   one earlier step first fetched all of them (context columns resolve to
///   the first step that fetched them).  The key is then a projection of
///   one tuple of the relation, so the lookup finds at least that tuple: it
///   filters nothing and enforces no join.  A step keyed by a constant or by
///   another atom's column is never dropped — its lookup may be the only
///   check of a selection or of a join;
/// * none of its new terms (attributes no earlier step fetched for the atom)
///   is used: not by an output, predicate, group-by or aggregate argument
///   (the atom's needed attributes, judged per equivalence class so a term
///   read through an equated column counts), and not as a key by a later
///   kept step.
///
/// The dropped step's post-filters are redundant: a check on a column an
/// earlier step fetched reads that step's copy and runs there too, and a
/// selection on a new term would make the term needed.  What changes is
/// only how many unused `Y` values a context row is repeated with, which
/// set-semantics answers and the distinct-safe aggregates the checker
/// admits do not see.  Walking backwards lets a dropped step's keys stop
/// counting as uses of the steps before it.
fn prune_redundant_fetches(
    fetches: Vec<PlannedFetch>,
    graph: &QueryGraph,
    classes: &[BTreeSet<Term>],
) -> Vec<PlannedFetch> {
    let mut first: BTreeMap<Term, usize> = BTreeMap::new();
    for (i, f) in fetches.iter().enumerate() {
        for col in f.constraint.x.iter().chain(&f.constraint.y) {
            first.entry((f.atom, col.clone())).or_insert(i);
        }
    }
    let mut used: BTreeSet<Term> = graph
        .atoms
        .iter()
        .flat_map(|a| a.needed.iter().map(move |c| (a.idx, c.clone())))
        .collect();
    let is_used = |t: &Term, used: &BTreeSet<Term>| match classes.iter().find(|c| c.contains(t)) {
        Some(class) => class.iter().any(|m| used.contains(m)),
        None => used.contains(t),
    };
    let mut keep = vec![true; fetches.len()];
    for (i, f) in fetches.iter().enumerate().rev() {
        let sources: Option<BTreeSet<usize>> = f
            .keys
            .iter()
            .zip(&f.constraint.x)
            .map(|(key, x)| match key {
                KeySource::Ctx(atom, col) if *atom == f.atom && col == x => {
                    first.get(&(f.atom, x.clone())).copied()
                }
                _ => None,
            })
            .collect();
        let restates_one_tuple =
            matches!(sources, Some(s) if s.len() == 1 && s.iter().all(|&j| j < i));
        let adds_used_term = f.constraint.y.iter().any(|y| {
            let term = (f.atom, y.clone());
            first.get(&term) == Some(&i) && is_used(&term, &used)
        });
        if restates_one_tuple && !adds_used_term {
            keep[i] = false;
        } else {
            for key in &f.keys {
                if let KeySource::Ctx(atom, col) = key {
                    used.insert((*atom, col.clone()));
                }
            }
        }
    }
    fetches
        .into_iter()
        .zip(keep)
        .filter_map(|(f, k)| k.then_some(f))
        .collect()
}

fn resolve_key_source(
    graph: &QueryGraph,
    classes: &[BTreeSet<Term>],
    ctx_columns: &BTreeSet<Term>,
    term: &Term,
) -> Result<KeySource> {
    // 1. a constant bound to the term (directly or through its class)
    if let Some(v) = graph.constant_for(term, classes) {
        return Ok(KeySource::Constant(v));
    }
    // 2. an IN-list on the term or a class member
    if let Some(vs) = graph.in_lists.get(term) {
        return Ok(KeySource::Constants(vs.clone()));
    }
    if let Some(class) = classes.iter().find(|c| c.contains(term)) {
        for member in class {
            if let Some(vs) = graph.in_lists.get(member) {
                return Ok(KeySource::Constants(vs.clone()));
            }
        }
        // 3. a context column (the term itself or an equated attribute
        //    fetched by an earlier step)
        if ctx_columns.contains(term) {
            return Ok(KeySource::Ctx(term.0, term.1.clone()));
        }
        for member in class {
            if ctx_columns.contains(member) {
                return Ok(KeySource::Ctx(member.0, member.1.clone()));
            }
        }
    } else if ctx_columns.contains(term) {
        return Ok(KeySource::Ctx(term.0, term.1.clone()));
    }
    Err(BeasError::plan(format!(
        "internal error: key attribute {}.{} is not available when its fetch fires",
        graph.atoms[term.0].alias, term.1
    )))
}

/// Flat input-schema index of `(atom, column)`.
pub fn global_index(query: &BoundQuery, atom: usize, column: &str) -> Result<usize> {
    let t = &query.tables[atom];
    t.schema
        .column_index(column)
        .map(|i| t.offset + i)
        .ok_or_else(|| {
            BeasError::plan(format!(
                "column {column:?} not found in table {:?}",
                t.table
            ))
        })
}

fn describe_finalization(query: &BoundQuery) -> String {
    let mut parts = Vec::new();
    if query.is_aggregate {
        let groups: Vec<String> = query.group_by.iter().map(|g| g.to_string()).collect();
        let aggs: Vec<String> = query.aggregates.iter().map(|a| a.display.clone()).collect();
        parts.push(format!(
            "aggregate group=[{}] aggs=[{}]",
            groups.join(", "),
            aggs.join(", ")
        ));
        if query.having.is_some() {
            parts.push("having".to_string());
        }
    }
    let outs: Vec<String> = query.output.iter().map(|(_, n)| n.clone()).collect();
    parts.push(format!("project [{}]", outs.join(", ")));
    parts.push("distinct".to_string());
    if !query.order_by.is_empty() {
        parts.push("sort".to_string());
    }
    if let Some(l) = query.limit {
        parts.push(format!("limit {l}"));
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use beas_access::{AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
    use beas_sql::{parse_select, Binder};
    use beas_storage::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "package",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("pid", DataType::Int),
                    ColumnDef::new("start_month", DataType::Int),
                    ColumnDef::new("end_month", DataType::Int),
                    ColumnDef::new("year", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn a0() -> AccessSchema {
        AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new(
                "package",
                &["pnum", "year"],
                &["pid", "start_month", "end_month"],
                12,
            )
            .unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ])
    }

    fn plan_for(sql: &str, schema: &AccessSchema) -> Result<BoundedPlan> {
        let db = db();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(schema).check(&bound, &graph);
        generate_bounded_plan(&bound, &graph, &coverage)
    }

    fn example2_sql() -> &'static str {
        "select call.region from call, package, business \
         where business.type = 't0' and business.region = 'r0' and \
         business.pnum = call.pnum and call.date = '2016-07-04' and \
         call.pnum = package.pnum and package.year = 2016 \
         and package.start_month <= 7 and package.end_month >= 7 and package.pid = 3"
    }

    #[test]
    fn example2_plan_reproduces_paper_bounds() {
        // Example 2: 2000 business + 24000 package + 12,000,000 call tuples.
        let plan = plan_for(example2_sql(), &a0()).unwrap();
        assert_eq!(plan.fetches.len(), 3);
        assert_eq!(plan.constraints_used, 3);
        assert_eq!(plan.fetches[0].bound, 2000);
        assert_eq!(plan.fetches[1].bound, 24_000);
        assert_eq!(plan.fetches[2].bound, 12_000_000);
        assert_eq!(plan.total_bound, 2000 + 24_000 + 12_000_000);
        assert!(plan.fits_budget(13_000_000));
        assert!(!plan.fits_budget(1_000_000));
        let s = plan.explain();
        assert!(s.contains("≤ 2000 tuples"));
        assert!(s.contains("≤ 12000000 tuples"));
    }

    #[test]
    fn example2_key_sources_follow_the_paper_plan() {
        let plan = plan_for(example2_sql(), &a0()).unwrap();
        // step 1: business keyed by two constants
        assert!(matches!(plan.fetches[0].keys[0], KeySource::Constant(_)));
        assert!(matches!(plan.fetches[0].keys[1], KeySource::Constant(_)));
        // step 2: package keyed by (ctx pnum, constant 2016)
        assert!(matches!(plan.fetches[1].keys[0], KeySource::Ctx(_, _)));
        assert_eq!(
            plan.fetches[1].keys[1],
            KeySource::Constant(Value::Int(2016))
        );
        // step 3: call keyed by (ctx pnum, constant date)
        assert!(matches!(plan.fetches[2].keys[0], KeySource::Ctx(_, _)));
        assert!(matches!(plan.fetches[2].keys[1], KeySource::Constant(_)));
        // the pid / start / end selections are attached to the package step
        assert!(plan.fetches[1].post_filters.len() >= 3);
        // finalization mentions the projection
        assert!(plan.finalization.contains("project"));
    }

    #[test]
    fn in_list_keys_expand_the_bound() {
        let schema = a0();
        let plan = plan_for(
            "select recnum from call where pnum in ('a', 'b', 'c') and date = '2016-07-04'",
            &schema,
        )
        .unwrap();
        assert_eq!(plan.fetches.len(), 1);
        assert_eq!(plan.fetches[0].bound, 3 * 500);
        assert!(matches!(plan.fetches[0].keys[0], KeySource::Constants(ref v) if v.len() == 3));
    }

    #[test]
    fn uncovered_query_cannot_be_planned() {
        let err = plan_for("select recnum from call where pnum = 'x'", &a0()).unwrap_err();
        assert_eq!(err.kind(), "not_bounded");
    }

    #[test]
    fn partial_plan_for_subset_of_atoms() {
        // Without a call constraint, only business+package can be fetched.
        let mut schema = a0();
        let call_ids: Vec<String> = schema
            .constraints()
            .iter()
            .filter(|c| c.table == "call")
            .map(|c| c.id())
            .collect();
        for id in call_ids {
            schema.remove(&id);
        }
        let db = db();
        let bound = Binder::new(&db)
            .bind(&parse_select(example2_sql()).unwrap())
            .unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(!coverage.covered);
        let plan =
            generate_plan_for_steps(&bound, &graph, &coverage, Some(&coverage.covered_atoms))
                .unwrap();
        assert_eq!(plan.fetches.len(), 2);
        assert!(plan.total_bound >= 2000);
        assert!(plan.fetches.iter().all(|f| f.atom != 0));
    }

    /// The TLC schema and the plan of `sql` under the TLC access schema.
    fn tlc_plan(sql: &str) -> BoundedPlan {
        let mut db = Database::new();
        for table in beas_tlc::schema::all_tables() {
            db.create_table(table).unwrap();
        }
        let schema = beas_tlc::tlc_access_schema();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        generate_bounded_plan(&bound, &graph, &coverage).unwrap()
    }

    fn tlc_query(id: &str) -> String {
        beas_tlc::all_queries()
            .into_iter()
            .find(|q| q.id == id)
            .unwrap()
            .sql
    }

    #[test]
    fn tlc_q4_and_q10_fetch_customer_once() {
        // (region, segment) -> pnum, city, credit_score supplies every
        // customer attribute Q4/Q10 read; the fixpoint's second customer
        // fetch through pnum -> name, ... is pruned, and the bound with it.
        let cases: [(&str, &str, &[&str], u64); 2] = [
            ("Q4", "billing", &["pnum", "year"], 12),
            ("Q10", "device", &["pnum"], 3),
        ];
        for (id, table, x, n) in cases {
            let plan = tlc_plan(&tlc_query(id));
            let steps: Vec<(&str, Vec<&str>)> = plan
                .fetches
                .iter()
                .map(|f| {
                    let x = f.constraint.x.iter().map(String::as_str).collect();
                    (f.constraint.table.as_str(), x)
                })
                .collect();
            assert_eq!(
                steps,
                vec![("customer", vec!["region", "segment"]), (table, x.to_vec())],
                "{id}"
            );
            assert_eq!(plan.total_bound, 50_000 + 50_000 * n, "{id}");
            assert_eq!(plan.constraints_used, 2, "{id}");
        }
        // a query that reads a customer attribute only pnum -> ... fetches
        // keeps the second step
        let named = tlc_plan(
            "SELECT DISTINCT c.name FROM customer c, billing bl \
             WHERE c.region = 'east' AND c.segment = 'vip' \
             AND c.pnum = bl.pnum AND bl.year = 2016 AND bl.paid = FALSE",
        );
        assert_eq!(named.fetches.len(), 3);
        assert_eq!(
            named
                .fetches
                .iter()
                .filter(|f| f.constraint.table == "customer")
                .count(),
            2
        );
    }

    #[test]
    fn a_join_enforcing_second_fetch_of_an_atom_is_kept() {
        // The checker fires customer (region, segment) -> pnum, … then
        // pnum -> name, … and business last; greedy ordering runs business
        // first (n = 2000), so pnum -> … is keyed by business.pnum and is the
        // only check of c.pnum = b.pnum.  It must survive pruning even
        // though it adds no customer attribute the query reads.
        let plan = tlc_plan(
            "SELECT b.name FROM customer c, business b \
             WHERE c.region = 'east' AND c.segment = 'vip' \
             AND b.type = 'x' AND b.region = 'east' AND c.pnum = b.pnum",
        );
        let steps: Vec<(&str, Vec<&str>, Vec<String>)> = plan
            .fetches
            .iter()
            .map(|f| {
                let x = f.constraint.x.iter().map(String::as_str).collect();
                let keys = f.keys.iter().map(|k| k.to_string()).collect();
                (f.constraint.table.as_str(), x, keys)
            })
            .collect();
        assert_eq!(
            steps,
            vec![
                (
                    "business",
                    vec!["type", "region"],
                    vec!["'x'".into(), "'east'".into()]
                ),
                ("customer", vec!["pnum"], vec!["T.#1.pnum".into()]),
                (
                    "customer",
                    vec!["region", "segment"],
                    vec!["'east'".into(), "'vip'".into()]
                ),
            ]
        );
        assert_eq!(plan.total_bound, 2000 + 2000 + 2000 * 50_000);
    }

    #[test]
    fn second_fetch_of_an_atom_is_pruned_only_when_it_adds_nothing() {
        // (pnum -> recnum) fetches the atom; a second constraint keyed by
        // recnum alone restates a fetched column and adds only `region`,
        // which the query never reads: pruned, and its bound with it.
        let restating = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum"], &["recnum"], 10).unwrap(),
            AccessConstraint::new("call", &["recnum"], &["region"], 5).unwrap(),
        ]);
        let plan = plan_for("select recnum from call where pnum = 'x'", &restating).unwrap();
        assert_eq!(plan.fetches.len(), 1);
        assert_eq!(plan.fetches[0].constraint.x, vec!["pnum"]);
        assert_eq!(plan.total_bound, 10);
        assert_eq!(plan.constraints_used, 1);
        // reading `region` keeps the second step
        let plan = plan_for("select region from call where pnum = 'x'", &restating).unwrap();
        assert_eq!(plan.fetches.len(), 2);
        assert_eq!(plan.total_bound, 10 + 50);
        // a key attribute no earlier step fetched (`date`, a constant) makes
        // the second lookup a real filter on the atom: kept
        let filtering = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum"], &["recnum"], 10).unwrap(),
            AccessConstraint::new("call", &["recnum", "date"], &["region"], 5).unwrap(),
        ]);
        let plan = plan_for(
            "select recnum from call where pnum = 'x' and date = '2016-07-04'",
            &filtering,
        )
        .unwrap();
        assert_eq!(plan.fetches.len(), 2);
        // a key whose attributes two different steps first fetched is not
        // known to be one tuple's projection: kept
        let split = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["recnum"], &["pnum"], 10).unwrap(),
            AccessConstraint::new("call", &["pnum"], &["date"], 3).unwrap(),
            AccessConstraint::new("call", &["pnum", "date"], &["region"], 5).unwrap(),
        ]);
        let plan = plan_for("select date from call where recnum = 'r'", &split).unwrap();
        assert_eq!(plan.fetches.len(), 3, "{}", plan.explain());
    }

    #[test]
    fn global_index_resolves_columns() {
        let db = db();
        let bound = Binder::new(&db)
            .bind(&parse_select(example2_sql()).unwrap())
            .unwrap();
        assert_eq!(global_index(&bound, 0, "pnum").unwrap(), 0);
        assert_eq!(global_index(&bound, 1, "pid").unwrap(), 5);
        assert!(global_index(&bound, 0, "nope").is_err());
    }
}
