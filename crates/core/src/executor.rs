//! The BE Plan Executor: runs bounded plans against the access-constraint
//! indices.
//!
//! Execution maintains a single growing *context* relation `T` (the
//! intermediate results `T1, T2, ...` of Example 2).  Each `fetch` step looks
//! up the distinct key values present in `T`, retrieves the associated
//! partial tuples through the constraint's modified hash index, joins them
//! back onto `T`, and applies the predicates that have become checkable.
//! Base data is touched **only** inside `fetch`; every other operator works
//! on the bounded intermediates.
//!
//! Answers are produced under set semantics (distinct rows): constraint
//! indices store distinct partial tuples, which is also why the checker only
//! admits distinct-safe aggregates.
//!
//! The executor runs a `FetchProgram` (`crate::plan`): the plan compiled
//! once against its query (key types and positions, cast constants, step
//! schemas, rewritten predicates and finalization expressions).
//! [`crate::BeasSystem`] caches the program with the prepared query, so a
//! plan-cache hit pays only for index lookups, the fetch join and the
//! answer-level finalization; the plan-taking entry points
//! ([`execute_bounded_with`], [`execute_ctx_with`]) compile and then run.
//! Resource-bounded approximation (`crate::approx`) runs the same program
//! with a per-step cap on the keys each fetch looks up.

use crate::approx::KeyCap;
use crate::graph::QueryGraph;
use crate::plan::{
    BoundedPlan, CompiledFetch, FetchProgram, FetchSteps, FinalShape, Finalize, KeyPart,
};
use beas_access::AccessIndexes;
use beas_common::{
    canonical_key_value, dedupe, is_canonical_key_value, joinable, BeasError, QuotaTracker, Result,
    Row, RowRef, Schema, Value, ValueRow,
};
use beas_engine::{aggregate, ExecutionMetrics};
use beas_obs::clock;
use beas_sql::{evaluate, evaluate_predicate, BoundExpr, BoundQuery};
use beas_storage::ConstraintIndex;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Minimum number of distinct fetch keys before the key set is partitioned
/// across scoped worker threads.  Spawning a scope's worth of OS threads
/// costs on the order of 100µs, and each key is only a canonicalized hash
/// lookup (~100ns), so parallelism pays for itself only on key sets in the
/// thousands — typical TLC fetches (tens to hundreds of keys) stay serial.
pub const PARALLEL_FETCH_MIN_KEYS: usize = 1024;

/// Upper bound on fetch worker threads.
pub const PARALLEL_FETCH_MAX_WORKERS: usize = 8;

/// Tuning knobs of the bounded fetch stage.
///
/// The defaults are [`PARALLEL_FETCH_MIN_KEYS`] and
/// [`PARALLEL_FETCH_MAX_WORKERS`], which [`crate::BeasSystem`] always uses;
/// the plan-taking entry points ([`execute_bounded_with`],
/// [`execute_ctx_with`]) accept other values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Minimum distinct fetch keys before the key set is partitioned across
    /// worker threads (see [`PARALLEL_FETCH_MIN_KEYS`]).
    pub parallel_min_keys: usize,
    /// Upper bound on fetch worker threads.
    pub max_workers: usize,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            parallel_min_keys: PARALLEL_FETCH_MIN_KEYS,
            max_workers: PARALLEL_FETCH_MAX_WORKERS,
        }
    }
}

/// The context relation after all fetch steps.
///
/// Context rows are pipelined [`RowRef`]s whose segments borrow the partial
/// tuples straight out of the constraint-index buckets (lifetime `'a` is the
/// index's) — each fetch extends rows by appending segments instead of
/// cloning every value through every stage.
#[derive(Debug, Clone)]
pub struct CtxResult<'a> {
    /// Schema of the context relation (fields carry their atom alias).
    pub schema: Schema,
    /// Distinct context rows.
    pub rows: Vec<RowRef<'a>>,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
    /// Total (partial) tuples fetched through constraint indices.
    pub tuples_accessed: u64,
}

/// The result of a full bounded execution.
#[derive(Debug, Clone)]
pub struct BoundedExecution {
    /// Output rows (set semantics).
    pub rows: Vec<Row>,
    /// Per-operator metrics, including the finalization operators.
    pub metrics: ExecutionMetrics,
    /// Total tuples fetched through constraint indices.
    pub tuples_accessed: u64,
}

/// Execute the fetch stages of a bounded plan, producing the context
/// relation, under explicit fetch tuning and an optional session quota.
/// The quota is charged once per fetch step with the partial tuples that
/// step accessed — fetch steps are the only place bounded plans touch base
/// data — so an in-flight bounded query whose actual access exceeds its
/// budget stops at the next step boundary with a structured quota error.
///
/// Compiles the plan's fetch steps and runs them.  Partially bounded
/// evaluation uses the context relation directly.
pub fn execute_ctx_with<'a>(
    plan: &BoundedPlan,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &'a AccessIndexes,
    fetch_config: FetchConfig,
    quota: Option<&QuotaTracker>,
) -> Result<CtxResult<'a>> {
    let fetches = FetchSteps::compile(plan, query, graph)?;
    let (rows, metrics, tuples_accessed) =
        run_fetches(&fetches, indexes, fetch_config, quota, None)?;
    Ok(CtxResult {
        schema: fetches.schema,
        rows,
        metrics,
        tuples_accessed,
    })
}

/// Execute a bounded plan end to end (fetch stages plus finalization)
/// under explicit fetch tuning and an optional session quota (see
/// [`execute_ctx_with`] for the charging discipline).  Compiles the plan
/// and runs it; a cached prepared query runs its compiled program instead
/// ([`crate::BeasSystem::execute_prepared`]).
pub fn execute_bounded_with(
    plan: &BoundedPlan,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &AccessIndexes,
    fetch_config: FetchConfig,
    quota: Option<&QuotaTracker>,
) -> Result<BoundedExecution> {
    let start = clock::now();
    let program = FetchProgram::compile(plan, query, graph)?;
    let mut execution = execute_program(&program, indexes, fetch_config, quota, None)?;
    execution.metrics.elapsed = start.elapsed();
    Ok(execution)
}

/// Run a compiled program end to end: its fetch steps, the residual
/// predicates, and the answer-level finalization.
///
/// With a [`KeyCap`] each fetch step looks up only as many of its keys as
/// the cap allows — resource-bounded approximation (`crate::approx`).
/// Without one every key is looked up: the exact bounded answer.
pub(crate) fn execute_program(
    program: &FetchProgram,
    indexes: &AccessIndexes,
    fetch_config: FetchConfig,
    quota: Option<&QuotaTracker>,
    cap: Option<&mut KeyCap>,
) -> Result<BoundedExecution> {
    let start = clock::now();
    let (rows, mut metrics, tuples_accessed) =
        run_fetches(&program.fetches, indexes, fetch_config, quota, cap)?;
    let rows = finalize(rows, &program.finalize, &mut metrics)?;
    metrics.elapsed = start.elapsed();
    Ok(BoundedExecution {
        rows,
        metrics,
        tuples_accessed,
    })
}

/// The answer stage over the context rows: residual predicates, then
/// aggregation / projection / distinct / order / limit, mirroring the
/// baseline engine's semantics.
fn finalize(
    mut rows: Vec<RowRef<'_>>,
    stage: &Finalize,
    metrics: &mut ExecutionMetrics,
) -> Result<Vec<Row>> {
    // Residual predicates spanning several atoms; errors propagate like the
    // baseline's Filter operator.
    if !stage.residual.is_empty() {
        let t = clock::now();
        for pred in &stage.residual {
            rows = retain_matching(rows, pred)?;
        }
        metrics.record("ResidualFilter", rows.len() as u64, 0, t.elapsed());
    }

    // This dedupe of the projected answer is the only one on the bounded
    // path (context rows are distinct by construction, see `run_step`).
    let t = clock::now();
    let mut out: Vec<Row> = match &stage.shape {
        FinalShape::Aggregate {
            group_by,
            aggregates,
            having,
            outputs,
        } => {
            let mut agg_rows = aggregate(&rows, group_by, aggregates)?;
            if let Some(h) = having {
                agg_rows = retain_matching(agg_rows, h)?;
            }
            project(&agg_rows, outputs)?
        }
        FinalShape::Project { outputs } => dedupe(project(&rows, outputs)?),
    };
    if !stage.order_by.is_empty() {
        out.sort_by(|a, b| {
            for (idx, asc) in &stage.order_by {
                let ord = a[*idx].total_cmp(&b[*idx]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(limit) = stage.limit {
        out.truncate(limit as usize);
    }
    metrics.record("Finalize", out.len() as u64, 0, t.elapsed());
    Ok(out)
}

/// Evaluate `outputs` over every row.
fn project<R: ValueRow>(rows: &[R], outputs: &[BoundExpr]) -> Result<Vec<Row>> {
    rows.iter()
        .map(|r| outputs.iter().map(|e| evaluate(e, r)).collect())
        .collect()
}

/// Keep the rows satisfying `pred`, propagating evaluation errors — the
/// baseline engine's Filter semantics.
fn retain_matching<R: ValueRow>(rows: Vec<R>, pred: &BoundExpr) -> Result<Vec<R>> {
    let mut kept = Vec::with_capacity(rows.len());
    for r in rows {
        if evaluate_predicate(pred, &r)? {
            kept.push(r);
        }
    }
    Ok(kept)
}

/// Run every step of `fetches`, under `cap` if given: the context rows, the
/// per-step metrics, and the partial tuples accessed.
fn run_fetches<'a>(
    fetches: &FetchSteps,
    indexes: &'a AccessIndexes,
    fetch_config: FetchConfig,
    quota: Option<&QuotaTracker>,
    mut cap: Option<&mut KeyCap>,
) -> Result<(Vec<RowRef<'a>>, ExecutionMetrics, u64)> {
    let start_all = clock::now();
    let mut metrics = ExecutionMetrics::new();
    let mut tuples_accessed: u64 = 0;
    let mut rows: Vec<RowRef<'a>> = vec![RowRef::empty()];
    for step in &fetches.steps {
        let start = clock::now();
        if let Some(q) = quota {
            q.checkpoint()?;
        }
        let index = indexes.get(&step.constraint_id).ok_or_else(|| {
            BeasError::execution(format!(
                "no index built for access constraint {}",
                step.constraint
            ))
        })?;
        let (new_rows, accessed) = run_step(step, index, &rows, fetch_config, cap.as_deref_mut())?;
        tuples_accessed += accessed;
        if let Some(q) = quota {
            q.charge_tuples(accessed)?;
        }
        metrics.record(
            step.label.as_str(),
            new_rows.len() as u64,
            accessed,
            start.elapsed(),
        );
        rows = new_rows;
    }
    metrics.elapsed = start_all.elapsed();
    Ok((rows, metrics, tuples_accessed))
}

/// The distinct keys of one fetch step, numbered in first-seen order, and
/// each context row's key ids.
///
/// Row `r`'s ids are `ids[ends[r - 1]..ends[r]]` (from 0 for the first
/// row).  A candidate key is hashed and compared in place — context values
/// are borrowed, not cloned — and only a key not seen before is copied into
/// a shared block, which later becomes the X-prefix segment of every row it
/// joins.
#[derive(Debug, Default)]
struct StepKeys {
    keys: Vec<Arc<Row>>,
    ids: Vec<usize>,
    ends: Vec<usize>,
}

/// End of a [`StepKeys`] hash chain.
const NO_KEY: usize = usize::MAX;

/// Hasher for keys that already are hashes: the key-id table is keyed by
/// the candidate key's (randomly seeded) hash, so hashing it again would
/// only cost time.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl StepKeys {
    /// Collect the keys of `rows` for `parts`.
    ///
    /// Keys are canonicalized through the shared key module
    /// (`beas_common::key`) so the lookup agrees with the index and with the
    /// baseline joins on numeric/date coercion.  NULL (and NaN) key values
    /// are *dropped*: a fetch key stands for an equi-join (or equality
    /// predicate) on the constraint's X attributes, and SQL equality never
    /// matches NULL — whereas the index groups NULLs with DISTINCT
    /// semantics, so looking NULL up would resurrect exactly the rows the
    /// baseline joins exclude.  A key position with no option leaves the
    /// row keyless: it joins nothing, exactly like a NULL join key in the
    /// baseline.
    fn collect(parts: &[KeyPart], rows: &[RowRef<'_>]) -> Result<Self> {
        let mut out = StepKeys {
            ids: Vec::with_capacity(rows.len()),
            ends: Vec::with_capacity(rows.len()),
            ..StepKeys::default()
        };
        // hash of a key -> its latest id; `chain[id]` is the previous id
        // with the same hash
        let mut heads: HashMap<u64, usize, BuildHasherDefault<PreHashed>> = HashMap::default();
        let mut chain: Vec<usize> = Vec::new();
        let seed = RandomState::new();
        // per row: each context part's canonical value, then an odometer
        // over the parts' options
        let mut slots: Vec<Cow<'_, Value>> = vec![Cow::Owned(Value::Null); parts.len()];
        let mut digits: Vec<usize> = vec![0; parts.len()];
        for row in rows {
            let mut keyless = false;
            for (part, slot) in parts.iter().zip(&mut slots) {
                match part {
                    KeyPart::Options(options) => keyless |= options.is_empty(),
                    KeyPart::Invalid(e) => return Err(e.clone()),
                    KeyPart::Ctx { pos, ty } => {
                        let v = row
                            .get(*pos)
                            .ok_or_else(|| BeasError::execution("context key out of bounds"))?;
                        if !joinable(v) {
                            keyless = true;
                        } else if v.data_type() == Some(*ty) && is_canonical_key_value(v) {
                            *slot = Cow::Borrowed(v);
                        } else {
                            *slot = Cow::Owned(canonical_key_value(&v.cast(*ty)?));
                        }
                    }
                }
            }
            if !keyless {
                let value = |p: usize, digit: usize| match &parts[p] {
                    KeyPart::Options(options) => &options[digit],
                    _ => slots[p].as_ref(),
                };
                let options = |p: usize| match &parts[p] {
                    KeyPart::Options(options) => options.len(),
                    _ => 1,
                };
                digits.fill(0);
                'keys: loop {
                    let mut hasher = seed.build_hasher();
                    for (p, &d) in digits.iter().enumerate() {
                        value(p, d).hash(&mut hasher);
                    }
                    let hash = hasher.finish();
                    let mut id = heads.get(&hash).copied().unwrap_or(NO_KEY);
                    while id != NO_KEY
                        && !out.keys[id]
                            .iter()
                            .zip(digits.iter().enumerate())
                            .all(|(k, (p, &d))| k == value(p, d))
                    {
                        id = chain[id];
                    }
                    if id == NO_KEY {
                        id = out.keys.len();
                        let key: Row = digits
                            .iter()
                            .enumerate()
                            .map(|(p, &d)| value(p, d).clone())
                            .collect();
                        out.keys.push(Arc::new(key));
                        chain.push(heads.insert(hash, id).unwrap_or(NO_KEY));
                    }
                    out.ids.push(id);
                    // advance the odometer, last part fastest
                    let mut p = parts.len();
                    loop {
                        if p == 0 {
                            break 'keys;
                        }
                        p -= 1;
                        digits[p] += 1;
                        if digits[p] < options(p) {
                            break;
                        }
                        digits[p] = 0;
                    }
                }
            }
            out.ends.push(out.ids.len());
        }
        Ok(out)
    }
}

/// Fetch the bucket of every key, positionally aligned with `keys`,
/// partitioning the key set across scoped worker threads when it is large
/// enough to pay for them.
///
/// The merge is deterministic: workers own contiguous chunks of the key
/// list and return buckets positionally aligned with their chunk, so the
/// assembled list and the total access count are identical to a serial
/// fetch over the whole list regardless of thread scheduling.
fn fetch_buckets_keyed<'a>(
    index: &'a ConstraintIndex,
    keys: &[Arc<Row>],
    config: FetchConfig,
) -> (Vec<&'a [Row]>, u64) {
    let workers = beas_common::default_workers(config.max_workers);
    if keys.len() < config.parallel_min_keys || workers < 2 {
        return index.fetch_buckets(keys.iter().map(|k| k.as_slice()));
    }
    let chunk = keys.len().div_ceil(workers);
    let fetched: Vec<(Vec<&'a [Row]>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| s.spawn(move || index.fetch_buckets(part.iter().map(|k| k.as_slice()))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fetch worker panicked"))
            .collect()
    });
    let mut buckets = Vec::with_capacity(keys.len());
    let mut accessed = 0u64;
    for (chunk_buckets, chunk_accessed) in fetched {
        buckets.extend(chunk_buckets);
        accessed += chunk_accessed;
    }
    (buckets, accessed)
}

/// Fetch the buckets of `keys[..max_keys]` in order, stopping before the
/// bucket that would take the step past `room` tuples: the buckets
/// (positionally aligned with `keys`, empty for every key not looked up, so
/// the join skips it), the tuples accessed, and the number of keys looked
/// up.
fn fetch_buckets_capped<'a>(
    index: &'a ConstraintIndex,
    keys: &[Arc<Row>],
    max_keys: usize,
    room: u64,
) -> (Vec<&'a [Row]>, u64, usize) {
    let mut buckets: Vec<&'a [Row]> = vec![&[]; keys.len()];
    let mut accessed = 0u64;
    let mut processed = 0;
    for (slot, key) in buckets.iter_mut().zip(keys).take(max_keys) {
        let bucket = index.fetch(key);
        if accessed + bucket.len() as u64 > room {
            break;
        }
        accessed += bucket.len() as u64;
        *slot = bucket;
        processed += 1;
    }
    (buckets, accessed, processed)
}

/// A candidate output row of the fetch join, read in place: the context
/// row, then the key's X-values, then the fetched partial tuple.  Lets the
/// post-filters run before the row is assembled.
struct Joined<'r, 'a> {
    row: &'r RowRef<'a>,
    row_len: usize,
    prefix: &'r [Value],
    tuple: &'r [Value],
}

impl ValueRow for Joined<'_, '_> {
    fn arity(&self) -> usize {
        self.row_len + self.prefix.len() + self.tuple.len()
    }

    fn value_at(&self, i: usize) -> Option<&Value> {
        if i < self.row_len {
            return self.row.get(i);
        }
        let i = i - self.row_len;
        match self.prefix.get(i) {
            Some(v) => Some(v),
            None => self.tuple.get(i - self.prefix.len()),
        }
    }
}

/// Run one fetch step: the joined, filtered rows and the number of partial
/// tuples accessed.  Under a [`KeyCap`] only the step's first keys (in
/// first-seen order) are looked up, and rows keyed by the rest join nothing.
///
/// Each context row is joined with the bucket of each of its keys; every
/// output row is the context row's segments plus one shared segment for the
/// key's X-values plus one segment borrowing the partial tuple straight out
/// of the index bucket.  The post-filters run on the candidate in place, so
/// only surviving rows are assembled.  Evaluation errors (e.g. a type error
/// in a predicate) propagate, matching the baseline engine, instead of
/// silently dropping rows.
///
/// No per-step dedupe: the output is distinct by construction.  By
/// induction the input context rows are distinct (the first step starts
/// from the single empty row).  A row's keys are distinct (constant options
/// are deduplicated at compile time and a context part contributes one
/// value per row), and a bucket holds distinct partial tuples (the index
/// deduplicates `Y` values under the same `Eq`/`Hash` as rows).  Two
/// outputs that agree on every position therefore agree on the context
/// prefix, the key and the tuple — they are the same output.  Filtering
/// keeps distinctness.  Answers are still deduplicated once, after
/// projection, in [`execute_program`].
fn run_step<'a>(
    step: &CompiledFetch,
    index: &'a ConstraintIndex,
    rows: &[RowRef<'a>],
    config: FetchConfig,
    cap: Option<&mut KeyCap>,
) -> Result<(Vec<RowRef<'a>>, u64)> {
    let keys = StepKeys::collect(&step.keys, rows)?;
    let (buckets, accessed) = match cap {
        None => fetch_buckets_keyed(index, &keys.keys, config),
        Some(cap) => {
            let (max_keys, room) = cap.limits(step.constraint.n);
            let (buckets, accessed, processed) =
                fetch_buckets_capped(index, &keys.keys, max_keys, room);
            cap.record(processed, keys.keys.len(), accessed);
            (buckets, accessed)
        }
    };
    let mut out = Vec::new();
    let mut first = 0;
    for (row, &end) in rows.iter().zip(&keys.ends) {
        let row_len = row.len();
        for &id in &keys.ids[first..end] {
            let prefix = &keys.keys[id];
            for tuple in buckets[id] {
                let candidate = Joined {
                    row,
                    row_len,
                    prefix,
                    tuple,
                };
                if !passes(&step.post_filters, &candidate)? {
                    continue;
                }
                out.push(row.extended(Arc::clone(prefix), tuple));
            }
        }
        first = end;
    }
    Ok((out, accessed))
}

/// Whether `row` satisfies every filter, evaluated in order and stopping at
/// the first that rejects it.
fn passes<R: ValueRow + ?Sized>(filters: &[BoundExpr], row: &R) -> Result<bool> {
    for f in filters {
        if !evaluate_predicate(f, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::graph::QueryGraph;
    use crate::planner::generate_bounded_plan;
    use beas_access::{build_indexes, AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema};
    use beas_sql::{parse_select, Binder};
    use beas_storage::Database;

    /// A small instance of the Example 1 schema with known answers.
    fn setup() -> (Database, AccessSchema, AccessIndexes) {
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

        // businesses: two banks in r0 (b1, b2), one hospital (b3)
        for (p, t, r) in [
            ("b1", "bank", "r0"),
            ("b2", "bank", "r0"),
            ("b3", "hospital", "r0"),
        ] {
            db.insert(
                "business",
                vec![Value::str(p), Value::str(t), Value::str(r)],
            )
            .unwrap();
        }
        // packages: b1 in package 7 covering month 7 of 2016; b2 in package 9
        for (p, pid, s, e, y) in [
            ("b1", 7, 1, 12, 2016),
            ("b2", 9, 6, 8, 2016),
            ("b1", 7, 1, 12, 2015),
        ] {
            db.insert(
                "package",
                vec![
                    Value::str(p),
                    Value::Int(pid),
                    Value::Int(s),
                    Value::Int(e),
                    Value::Int(y),
                ],
            )
            .unwrap();
        }
        // calls on 2016-07-04: b1 calls x (east) and y (west); b2 calls z (east);
        // b3 calls w (north); b1 also calls q on another date
        for (p, r, d, reg) in [
            ("b1", "x", "2016-07-04", "east"),
            ("b1", "y", "2016-07-04", "west"),
            ("b2", "z", "2016-07-04", "east"),
            ("b3", "w", "2016-07-04", "north"),
            ("b1", "q", "2016-08-01", "south"),
        ] {
            db.insert(
                "call",
                vec![Value::str(p), Value::str(r), Value::str(d), Value::str(reg)],
            )
            .unwrap();
        }

        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new(
                "package",
                &["pnum", "year"],
                &["pid", "start_month", "end_month"],
                12,
            )
            .unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn run(sql: &str) -> BoundedExecution {
        let (db, schema, indexes) = setup();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn example2_style_query_returns_exact_answer() {
        // regions of numbers called by banks in r0 on 2016-07-04 that were in
        // package 7 of 2016 covering month 7 -> only b1 qualifies -> east, west
        let result = run("select call.region from call, package, business \
             where business.type = 'bank' and business.region = 'r0' and \
             business.pnum = call.pnum and call.date = '2016-07-04' and \
             call.pnum = package.pnum and package.year = 2016 \
             and package.start_month <= 7 and package.end_month >= 7 and package.pid = 7");
        let mut regions: Vec<String> = result
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        regions.sort();
        assert_eq!(regions, vec!["east", "west"]);
        // tuples accessed: 2 business partial tuples (b1, b2), 2+1 packages
        // (one per year key hit), 2+1 calls
        assert!(result.tuples_accessed > 0);
        assert!(result.tuples_accessed <= 10);
        assert!(result.metrics.render().contains("Fetch"));
    }

    #[test]
    fn single_table_fetch() {
        let result =
            run("select recnum, region from call where pnum = 'b1' and date = '2016-07-04'");
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.tuples_accessed, 2);
    }

    #[test]
    fn fetch_with_in_list_keys() {
        let result = run(
            "select recnum from call where pnum in ('b1', 'b2') and date = '2016-07-04' order by recnum",
        );
        let names: Vec<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn aggregates_over_bounded_context() {
        let result = run(
            "select call.region, count(distinct call.recnum) from call, business \
             where business.type = 'bank' and business.region = 'r0' \
             and business.pnum = call.pnum and call.date = '2016-07-04' \
             group by call.region order by call.region",
        );
        // banks b1, b2 called: east x (b1), west y (b1), east z (b2)
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0], vec![Value::str("east"), Value::Int(2)]);
        assert_eq!(result.rows[1], vec![Value::str("west"), Value::Int(1)]);
    }

    #[test]
    fn limit_and_order_are_applied() {
        let result = run(
            "select recnum from call where pnum = 'b1' and date = '2016-07-04' \
             order by recnum desc limit 1",
        );
        assert_eq!(result.rows, vec![vec![Value::str("y")]]);
    }

    #[test]
    fn empty_key_produces_empty_answer() {
        let result = run("select recnum from call where pnum = 'unknown' and date = '2016-07-04'");
        assert!(result.rows.is_empty());
        assert_eq!(result.tuples_accessed, 0);
    }

    #[test]
    fn missing_index_is_an_error() {
        let (db, schema, _) = setup();
        let bound = Binder::new(&db)
            .bind(
                &parse_select("select recnum from call where pnum = 'b1' and date = '2016-07-04'")
                    .unwrap(),
            )
            .unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let empty = AccessIndexes::new();
        assert!(
            execute_bounded_with(&plan, &bound, &graph, &empty, FetchConfig::default(), None)
                .is_err()
        );
    }

    #[test]
    fn type_error_predicates_propagate_like_the_baseline() {
        // `region` is a Str column; comparing it to an Int is a runtime type
        // error.  The bounded executor used to swallow it via
        // `unwrap_or(false)` and silently return an empty answer while the
        // baseline errored — the two engines must fail identically instead.
        let (db, schema, indexes) = setup();
        let sql = "select recnum from call \
                   where pnum = 'b1' and date = '2016-07-04' and region > 5";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            None,
        );
        let baseline = beas_engine::Engine::default().run(&db, sql);
        let bounded_err = bounded.expect_err("bounded must propagate the type error");
        let baseline_err = baseline.expect_err("baseline must propagate the type error");
        assert_eq!(bounded_err.kind(), baseline_err.kind());
        assert_eq!(bounded_err.kind(), "type");
    }

    #[test]
    fn null_fetch_keys_join_nothing_like_the_baseline() {
        // business.pnum is nullable; the fetch of `call` is keyed on the
        // context's pnum values.  The constraint index groups NULLs
        // (DISTINCT semantics), but SQL equality never matches NULL — a NULL
        // context key must fetch nothing, exactly like the baseline join.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::nullable("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::nullable("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // one bank with a NULL pnum — it must not join the NULL-pnum call
        for (p, t, r) in [
            (Value::str("b1"), "bank", "r0"),
            (Value::Null, "bank", "r0"),
        ] {
            db.insert("business", vec![p, Value::str(t), Value::str(r)])
                .unwrap();
        }
        for (p, rec) in [
            (Value::str("b1"), "x"),
            (Value::Null, "null-call"),
            (Value::str("b2"), "y"),
        ] {
            db.insert("call", vec![p, Value::str(rec), Value::str("2016-07-04")])
                .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 500).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let sql = "select distinct call.recnum from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            None,
        )
        .unwrap();
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        assert_eq!(canon(bounded.rows.clone()), canon(baseline.rows));
        // only the b1 call qualifies; the NULL-keyed call must be absent
        assert_eq!(bounded.rows, vec![vec![Value::str("x")]]);
    }

    #[test]
    fn parallel_fetch_over_many_keys_matches_baseline() {
        // Enough distinct context keys to cross PARALLEL_FETCH_MIN_KEYS, so
        // the second fetch partitions its key set across worker threads.
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
        let n = PARALLEL_FETCH_MIN_KEYS * 3;
        for i in 0..n {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str("bank"),
                    Value::str("r0"),
                ],
            )
            .unwrap();
            for r in 0..2 {
                db.insert(
                    "call",
                    vec![
                        Value::str(format!("p{i}")),
                        Value::str(format!("rec{i}_{r}")),
                        Value::str("2016-07-04"),
                    ],
                )
                .unwrap();
            }
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 10).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 5000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let sql = "select distinct call.recnum from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(bounded.rows.len(), n * 2);
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        assert_eq!(canon(bounded.rows), canon(baseline.rows));
        // every (pnum, date) bucket was fetched exactly once
        assert_eq!(bounded.tuples_accessed, (n + n * 2) as u64);
    }

    #[test]
    fn bounded_quota_charges_fetches_and_trips_early() {
        let (db, schema, indexes) = setup();
        let sql = "select recnum, region from call where pnum = 'b1' and date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        // a generous quota: the execution succeeds and the tracker accounts
        // for exactly the tuples the metrics report
        let tracker = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(100)
            .tracker();
        let ok = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            Some(&tracker),
        )
        .unwrap();
        assert_eq!(tracker.tuples_used(), ok.tuples_accessed);
        // a 1-tuple quota trips on the 2-tuple fetch with a structured error
        let tight = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(1)
            .tracker();
        let err = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            Some(&tight),
        )
        .expect_err("fetch exceeds the 1-tuple quota");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(tight.is_tripped());
    }

    #[test]
    fn fetch_config_min_keys_forces_the_parallel_path_without_changing_answers() {
        // parallel_min_keys = 1 partitions even this query's handful of
        // fetch keys across worker threads; rows, order and accounting must
        // equal the serial fetch exactly (deterministic positional merge).
        let (db, schema, indexes) = setup();
        let sql = "select recnum from call where pnum in ('b1', 'b2') \
                   and date = '2016-07-04' order by recnum";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let serial = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            None,
        )
        .unwrap();
        let forced = FetchConfig {
            parallel_min_keys: 1,
            max_workers: 4,
        };
        let parallel = execute_bounded_with(&plan, &bound, &graph, &indexes, forced, None).unwrap();
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.tuples_accessed, parallel.tuples_accessed);
    }

    #[test]
    fn bounded_answers_match_baseline_engine() {
        let (db, schema, indexes) = setup();
        let sql = "select distinct call.region from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded_with(
            &plan,
            &bound,
            &graph,
            &indexes,
            FetchConfig::default(),
            None,
        )
        .unwrap();
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let mut a = bounded.rows.clone();
        let mut b = baseline.rows.clone();
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);
        // and the bounded run touched far fewer tuples than the full scans
        assert!(bounded.tuples_accessed < baseline.metrics.total_tuples_accessed());
    }
}
