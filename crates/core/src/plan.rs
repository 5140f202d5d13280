//! Bounded query plans.
//!
//! A bounded plan answers a query by a sequence of `fetch(X ∈ T, Y, R)`
//! operations, each controlled by an access constraint, followed by ordinary
//! relational operators over the (small) fetched intermediates.  Every fetch
//! is annotated with an upper bound on the number of tuples it may access,
//! deduced from the cardinality constraints *before execution* — this is what
//! the demo's budget check (scenario 1(a)) and Fig. 2(B)'s annotated plans
//! show.

use crate::graph::{QueryGraph, Term};
use beas_access::AccessConstraint;
use beas_common::{
    canonical_key_value, joinable, BeasError, DataType, Field, Result, Schema, Value,
};
use beas_sql::{BoundAggregate, BoundExpr, BoundQuery};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// Where the key values of a fetch come from.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySource {
    /// A single constant from the query (e.g. `type = 't0'`).
    Constant(Value),
    /// A small set of constants from an `IN (...)` predicate.
    Constants(Vec<Value>),
    /// A column of the running context relation: `(atom index, column name)`
    /// of an attribute fetched by an earlier step (or equated to one).
    Ctx(usize, String),
}

impl fmt::Display for KeySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeySource::Constant(v) => write!(f, "{v}"),
            KeySource::Constants(vs) => {
                let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                write!(f, "{{{}}}", items.join(", "))
            }
            KeySource::Ctx(atom, col) => write!(f, "T.#{atom}.{col}"),
        }
    }
}

/// One planned fetch operation.
#[derive(Debug, Clone)]
pub struct PlannedFetch {
    /// The query atom (FROM-clause position) being fetched.
    pub atom: usize,
    /// Alias of the atom.
    pub alias: String,
    /// The access constraint whose index performs the fetch.
    pub constraint: AccessConstraint,
    /// Key sources, one per attribute of the constraint's `X`, in `X` order.
    pub keys: Vec<KeySource>,
    /// Upper bound on the number of (partial) tuples this fetch accesses.
    pub bound: u64,
    /// Predicates that become checkable right after this fetch (single-atom
    /// selections and equality with constants on fetched attributes), bound
    /// over the query's flat input schema.
    pub post_filters: Vec<BoundExpr>,
}

/// A complete bounded plan.
#[derive(Debug, Clone)]
pub struct BoundedPlan {
    /// Fetch steps in execution order.
    pub fetches: Vec<PlannedFetch>,
    /// Residual predicates (spanning several atoms, non-equality) applied
    /// after all fetches, over the flat input schema.
    pub residual_predicates: Vec<BoundExpr>,
    /// Total upper bound on tuples accessed by the whole plan
    /// (`Σ` per-fetch bounds), deduced before execution.
    pub total_bound: u64,
    /// Number of distinct access constraints employed.
    pub constraints_used: usize,
    /// Human-readable description of the finalization stage
    /// (aggregation / projection / distinct / order / limit).
    pub finalization: String,
}

impl BoundedPlan {
    /// Render the plan with per-fetch bound annotations, in the style of the
    /// demo UI (Fig. 2(B)).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "BoundedPlan: {} fetch steps, {} access constraints, total bound {} tuples\n",
            self.fetches.len(),
            self.constraints_used,
            self.total_bound
        ));
        for (i, f) in self.fetches.iter().enumerate() {
            let keys: Vec<String> = f.keys.iter().map(|k| k.to_string()).collect();
            out.push_str(&format!(
                "  {}. fetch({} ∈ [{}], {{{}}}, {}) via {}   ≤ {} tuples\n",
                i + 1,
                f.constraint.x.join(","),
                keys.join(", "),
                f.constraint.y.join(","),
                f.alias,
                f.constraint,
                f.bound
            ));
            for p in &f.post_filters {
                out.push_str(&format!("       then filter {p}\n"));
            }
        }
        for p in &self.residual_predicates {
            out.push_str(&format!("  residual filter {p}\n"));
        }
        out.push_str(&format!("  finalize: {}\n", self.finalization));
        out
    }

    /// Whether the plan's deduced bound fits within `budget` tuples.
    pub fn fits_budget(&self, budget: u64) -> bool {
        self.total_bound <= budget
    }
}

impl fmt::Display for BoundedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// A [`BoundedPlan`] compiled against its query: every fact execution needs
/// that depends only on the plan, derived once.
///
/// `BeasSystem::prepare` compiles a covered query's plan and caches
/// the program with it, so a plan-cache hit pays only for what depends on
/// the data — index lookups, the fetch join and the answer-level
/// finalization.  The program holds positions, values and expressions, never
/// an index or bucket reference: it stays valid on every snapshot on which
/// its prepared query is live, and the executor resolves the constraint
/// indices of the snapshot it runs on.
#[derive(Debug, Clone)]
pub(crate) struct FetchProgram {
    pub(crate) fetches: FetchSteps,
    pub(crate) finalize: Finalize,
}

/// The compiled fetch steps of a plan: they produce the context relation
/// and nothing else.  Partially bounded plans run only these — their
/// answer stage runs on the conventional engine and may read columns the
/// context lacks.
#[derive(Debug, Clone)]
pub(crate) struct FetchSteps {
    pub(crate) steps: Vec<CompiledFetch>,
    /// Schema of the context relation after the last step.
    pub(crate) schema: Schema,
}

/// One compiled fetch step.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFetch {
    /// The constraint whose index performs the fetch.
    pub(crate) constraint: AccessConstraint,
    /// `constraint.id()`: the index lookup key.
    pub(crate) constraint_id: String,
    /// Metric label, `Fetch(<constraint id>)`.
    pub(crate) label: String,
    /// One part per attribute of the constraint's `X`, in `X` order.
    pub(crate) keys: Vec<KeyPart>,
    /// Predicates checkable after this step, over its output positions.
    pub(crate) post_filters: Vec<BoundExpr>,
}

/// Where one key attribute of a compiled fetch reads its values.
#[derive(Debug, Clone)]
pub(crate) enum KeyPart {
    /// Constant options, cast to the key type, canonicalized, with NULL and
    /// NaN dropped and duplicates removed (`IN (7, 7.0)` is one option).
    /// Empty when no option can ever match.
    Options(Vec<Value>),
    /// A context column, cast to `ty` and canonicalized per row.
    Ctx { pos: usize, ty: DataType },
    /// A constant that does not cast to the key type.  The error is raised
    /// when the step builds the keys of its first context row, which is when
    /// an uncompiled fetch would have met it.
    Invalid(BeasError),
}

/// The answer stage, rewritten to context positions.
#[derive(Debug, Clone)]
pub(crate) struct Finalize {
    /// Residual predicates spanning several atoms.
    pub(crate) residual: Vec<BoundExpr>,
    pub(crate) shape: FinalShape,
    /// `(output column, ascending)` sort keys.
    pub(crate) order_by: Vec<(usize, bool)>,
    pub(crate) limit: Option<u64>,
}

/// Aggregation or plain projection.
#[derive(Debug, Clone)]
pub(crate) enum FinalShape {
    Aggregate {
        group_by: Vec<BoundExpr>,
        aggregates: Vec<BoundAggregate>,
        /// Over the aggregate rows, as bound.
        having: Option<BoundExpr>,
        /// Over the aggregate rows, as bound.
        outputs: Vec<BoundExpr>,
    },
    Project {
        outputs: Vec<BoundExpr>,
    },
}

impl FetchProgram {
    /// Compile `plan` for `query`: its fetch steps (see
    /// [`FetchSteps::compile`]), then the residual predicates and every
    /// finalization expression rewritten to context positions.  The only
    /// place bounded execution consults the query graph's equivalence
    /// classes.
    pub(crate) fn compile(
        plan: &BoundedPlan,
        query: &BoundQuery,
        graph: &QueryGraph,
    ) -> Result<Self> {
        let classes = graph.equivalence_classes();
        let fetches = FetchSteps::compile_with_classes(plan, query, graph, &classes)?;
        let rewrite =
            |e: &BoundExpr| rewrite_with_classes(e, query, graph, &classes, &fetches.schema);
        let residual = plan
            .residual_predicates
            .iter()
            .map(rewrite)
            .collect::<Result<_>>()?;
        let shape = if query.is_aggregate {
            let mut aggregates = query.aggregates.clone();
            for agg in &mut aggregates {
                if let Some(arg) = &agg.arg {
                    agg.arg = Some(rewrite(arg)?);
                }
            }
            FinalShape::Aggregate {
                group_by: query.group_by.iter().map(rewrite).collect::<Result<_>>()?,
                aggregates,
                having: query.having.clone(),
                outputs: query.output.iter().map(|(e, _)| e.clone()).collect(),
            }
        } else {
            FinalShape::Project {
                outputs: query
                    .output
                    .iter()
                    .map(|(e, _)| rewrite(e))
                    .collect::<Result<_>>()?,
            }
        };
        let finalize = Finalize {
            residual,
            shape,
            order_by: query.order_by.clone(),
            limit: query.limit,
        };
        Ok(FetchProgram { fetches, finalize })
    }
}

impl FetchSteps {
    /// Compile the fetch steps of `plan`: resolve key types and context
    /// positions, cast and canonicalize constant keys, build each step's
    /// schema, and rewrite the post-filters to context positions.
    pub(crate) fn compile(
        plan: &BoundedPlan,
        query: &BoundQuery,
        graph: &QueryGraph,
    ) -> Result<Self> {
        Self::compile_with_classes(plan, query, graph, &graph.equivalence_classes())
    }

    fn compile_with_classes(
        plan: &BoundedPlan,
        query: &BoundQuery,
        graph: &QueryGraph,
        classes: &[BTreeSet<Term>],
    ) -> Result<Self> {
        let mut schema = Schema::empty();
        let mut steps = Vec::with_capacity(plan.fetches.len());
        for fetch in &plan.fetches {
            let table = &query.tables[fetch.atom].schema;
            let column_type = |col: &String, what: &str| {
                table.column(col).map(|c| c.data_type).ok_or_else(|| {
                    BeasError::execution(format!(
                        "constraint {what} {col:?} missing from table {:?}",
                        table.name
                    ))
                })
            };
            let mut keys = Vec::with_capacity(fetch.keys.len());
            for (source, x) in fetch.keys.iter().zip(&fetch.constraint.x) {
                let ty = column_type(x, "key")?;
                keys.push(match source {
                    KeySource::Constant(v) => constant_options(std::slice::from_ref(v), ty),
                    KeySource::Constants(vs) => constant_options(vs, ty),
                    KeySource::Ctx(atom, col) => {
                        let alias = &query.tables[*atom].alias;
                        let pos = schema.index_of_origin(alias, col).ok_or_else(|| {
                            BeasError::execution(format!(
                                "context column {alias}.{col} missing during fetch"
                            ))
                        })?;
                        KeyPart::Ctx { pos, ty }
                    }
                });
            }
            let mut fields = schema.fields().to_vec();
            for col in fetch.constraint.x.iter().chain(&fetch.constraint.y) {
                let ty = column_type(col, "column")?;
                fields.push(Field::base(fetch.alias.clone(), col.clone(), ty));
            }
            schema = Schema::new(fields);
            let post_filters = fetch
                .post_filters
                .iter()
                .map(|p| rewrite_with_classes(p, query, graph, classes, &schema))
                .collect::<Result<_>>()?;
            let constraint_id = fetch.constraint.id();
            steps.push(CompiledFetch {
                constraint: fetch.constraint.clone(),
                label: format!("Fetch({constraint_id})"),
                constraint_id,
                keys,
                post_filters,
            });
        }
        Ok(FetchSteps { steps, schema })
    }
}

/// The key options of constant sources: NULL and NaN never equal anything
/// and contribute none; the rest are cast to the key type, canonicalized
/// through `beas_common::key` (so the lookup agrees with the index and the
/// baseline joins) and deduplicated in first-seen order.
fn constant_options(values: &[Value], ty: DataType) -> KeyPart {
    let mut seen = HashSet::with_capacity(values.len());
    let mut options = Vec::with_capacity(values.len());
    for v in values.iter().filter(|v| joinable(v)) {
        match v.cast(ty) {
            Ok(c) => {
                let key = canonical_key_value(&c);
                if seen.insert(key.clone()) {
                    options.push(key);
                }
            }
            Err(e) => return KeyPart::Invalid(e),
        }
    }
    KeyPart::Options(options)
}

/// Rewrite an expression bound over the query's flat input schema so that it
/// reads from the context relation instead.  Columns not present in the
/// context are substituted through their equivalence class (`classes`: an
/// equated context column or a constant).
fn rewrite_with_classes(
    expr: &BoundExpr,
    query: &BoundQuery,
    graph: &QueryGraph,
    classes: &[BTreeSet<Term>],
    ctx_schema: &Schema,
) -> Result<BoundExpr> {
    let mut substitutions: HashMap<usize, BoundExpr> = HashMap::new();
    for col in expr.referenced_columns() {
        let field = query.input_schema.field(col);
        let alias = field.table.clone().ok_or_else(|| {
            BeasError::execution(format!("column {} has no table origin", field.name))
        })?;
        // direct hit
        if let Some(i) = ctx_schema.index_of_origin(&alias, &field.name) {
            substitutions.insert(col, BoundExpr::Column(i));
            continue;
        }
        // through the equivalence class
        let (atom_idx, _) = crate::graph::atom_of_column(query, col);
        let term = (atom_idx, field.name.clone());
        let mut found = None;
        if let Some(class) = classes.iter().find(|c| c.contains(&term)) {
            for member in class {
                let member_alias = &query.tables[member.0].alias;
                if let Some(i) = ctx_schema.index_of_origin(member_alias, &member.1) {
                    found = Some(BoundExpr::Column(i));
                    break;
                }
            }
            if found.is_none() {
                if let Some(v) = graph.constant_for(&term, classes) {
                    found = Some(BoundExpr::Literal(v));
                }
            }
        } else if let Some(v) = graph.constants.get(&term) {
            found = Some(BoundExpr::Literal(v.clone()));
        }
        let replacement = found.ok_or_else(|| {
            BeasError::execution(format!(
                "column {}.{} is not available in the bounded context {ctx_schema}",
                alias, field.name
            ))
        })?;
        substitutions.insert(col, replacement);
    }
    Ok(substitute(expr, &substitutions))
}

fn substitute(expr: &BoundExpr, subs: &HashMap<usize, BoundExpr>) -> BoundExpr {
    match expr {
        BoundExpr::Column(i) => subs.get(i).cloned().unwrap_or_else(|| expr.clone()),
        BoundExpr::Literal(_) => expr.clone(),
        BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(substitute(left, subs)),
            right: Box::new(substitute(right, subs)),
        },
        BoundExpr::Not(e) => BoundExpr::Not(Box::new(substitute(e, subs))),
        BoundExpr::Negate(e) => BoundExpr::Negate(Box::new(substitute(e, subs))),
        BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(substitute(expr, subs)),
            negated: *negated,
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(substitute(expr, subs)),
            list: list.iter().map(|e| substitute(e, subs)).collect(),
            negated: *negated,
        },
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(substitute(expr, subs)),
            low: Box::new(substitute(low, subs)),
            high: Box::new(substitute(high, subs)),
            negated: *negated,
        },
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(substitute(expr, subs)),
            pattern: Box::new(substitute(pattern, subs)),
            negated: *negated,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> BoundedPlan {
        let psi3 = AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap();
        BoundedPlan {
            fetches: vec![PlannedFetch {
                atom: 2,
                alias: "business".into(),
                constraint: psi3,
                keys: vec![
                    KeySource::Constant(Value::str("t0")),
                    KeySource::Constant(Value::str("r0")),
                ],
                bound: 2000,
                post_filters: vec![],
            }],
            residual_predicates: vec![],
            total_bound: 2000,
            constraints_used: 1,
            finalization: "project business.pnum, distinct".into(),
        }
    }

    #[test]
    fn explain_contains_bounds_and_keys() {
        let plan = sample_plan();
        let s = plan.explain();
        assert!(s.contains("total bound 2000 tuples"));
        assert!(s.contains("'t0'"));
        assert!(s.contains("≤ 2000 tuples"));
        assert!(s.contains("finalize: project"));
        assert_eq!(format!("{plan}"), s);
    }

    #[test]
    fn budget_check() {
        let plan = sample_plan();
        assert!(plan.fits_budget(2000));
        assert!(plan.fits_budget(1_000_000));
        assert!(!plan.fits_budget(1999));
    }

    #[test]
    fn key_source_display() {
        assert_eq!(KeySource::Constant(Value::Int(7)).to_string(), "7");
        assert_eq!(
            KeySource::Constants(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "{1, 2}"
        );
        assert_eq!(KeySource::Ctx(0, "pnum".into()).to_string(), "T.#0.pnum");
    }
}
