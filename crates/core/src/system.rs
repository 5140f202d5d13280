//! The BEAS system facade: the online services (BE Query Planner + BE Plan
//! Executor) wired to a database, an access schema and its indices.
//!
//! This is the API an application uses:
//!
//! 1. load (or generate) data into a [`Database`];
//! 2. register an access schema — hand-written, parsed from text, or
//!    discovered from a workload — and build its indices;
//! 3. submit SQL.  BEAS checks coverage; covered queries run as bounded
//!    plans, everything else runs as a partially bounded plan over the
//!    conventional engine, exactly as described in §3 of the paper.

use crate::analyzer::{BaselineAnalysis, QueryAnalysis, SystemMeasurement};
use crate::approx::{execute_with_budget, ApproximateExecution};
use crate::checker::{Checker, CoverageResult};
use crate::executor::{execute_program, FetchConfig};
use crate::graph::QueryGraph;
use crate::partial::{execute_partially_bounded, PartialOptions, DEFAULT_REDUCTION_MIN_SAVINGS};
use crate::plan::{BoundedPlan, FetchProgram};
use crate::planner::generate_bounded_plan;
use beas_access::{
    build_indexes, discover, AccessIndexes, AccessSchema, DiscoveryConfig, Maintainer,
    MaintenanceOutcome, MaintenancePolicy,
};
use beas_common::{BeasError, QuotaTracker, Result, Row, Schema};
use beas_engine::{Engine, ExecutionMetrics, OptimizerProfile, PlanCacheStats};
use beas_sql::{parse_select, Binder, BoundQuery};
use beas_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a query was ultimately evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationMode {
    /// Fully bounded plan: every data access went through an access
    /// constraint index.
    Bounded,
    /// Partially bounded: covered sub-queries were fetched boundedly, the
    /// residue ran on the conventional engine.
    PartiallyBounded,
    /// Pure conventional evaluation (nothing was covered).
    Conventional,
}

/// The outcome of executing a query through BEAS.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// Answer rows.
    pub rows: Vec<Row>,
    /// Output schema.
    pub schema: Schema,
    /// Whether the query ran as a fully bounded plan.
    pub bounded: bool,
    /// The evaluation mode used.
    pub mode: EvaluationMode,
    /// Tuples accessed (fetched through indices plus scanned by any residue).
    pub tuples_accessed: u64,
    /// Deduced bound on data access (fully bounded plans only).
    pub deduced_bound: Option<u64>,
    /// Number of access constraints employed.
    pub constraints_used: usize,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
}

/// A coverage / budget check result returned without executing the query
/// (demo scenario 1(a)).
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Whether the query is boundedly evaluable (covered).
    pub covered: bool,
    /// The deduced bound on tuples accessed, when covered.
    pub deduced_bound: Option<u64>,
    /// The bounded plan (when covered), with per-fetch bound annotations.
    pub plan: Option<BoundedPlan>,
    /// The raw coverage result (fetch sequence, reasons when uncovered).
    pub coverage: CoverageResult,
}

/// A fully prepared query — the output of parse → bind → graph → check →
/// plan → compile (a `FetchProgram`), pinned at the database write
/// generation it was computed against.
/// Cached entries are shared (`Arc`), so a cache hit costs one hash lookup
/// and no cloning.
///
/// The struct is deliberately opaque: callers obtain one from
/// [`BeasSystem::prepare`] and hand it back to
/// [`BeasSystem::execute_prepared`] /
/// [`BeasSystem::approximate_prepared`] /
/// [`BeasSystem::estimate_conventional_tuples_prepared`], so one cache
/// acquisition serves a whole admission → execution round trip.
#[derive(Debug)]
pub struct PreparedQuery {
    /// `Database::generation()` at preparation time.  Used only to order
    /// entries in time (eviction policy); *liveness* is decided by the
    /// per-table read set below.
    generation: u64,
    /// Every table the query reads, pinned at that table's write
    /// generation.  Generation equality implies identical table contents
    /// (generations are lineage-unique), so an entry stays live — and is
    /// served as a cache hit — as long as none of *its* tables moved, no
    /// matter how many writes landed elsewhere in the database.
    read_set: Vec<(String, u64)>,
    query: BoundQuery,
    graph: QueryGraph,
    coverage: CoverageResult,
    /// The bounded plan and its compiled program, when the query is
    /// covered.
    bounded: Option<CompiledPlan>,
}

/// A covered query's bounded plan, compiled once at preparation.
#[derive(Debug)]
struct CompiledPlan {
    plan: BoundedPlan,
    /// What execution runs.  A compile error is kept and raised when the
    /// query executes, so preparing (and the checks served from it) behaves
    /// as for any other covered query.
    program: Result<FetchProgram>,
}

impl PreparedQuery {
    /// Whether the registered access schema covers the query (a bounded
    /// plan exists).
    pub fn covered(&self) -> bool {
        self.bounded.is_some()
    }

    /// The deduced bound on tuples accessed, when covered.
    pub fn deduced_bound(&self) -> Option<u64> {
        self.plan().map(|p| p.total_bound)
    }

    /// The bounded plan, when covered.
    fn plan(&self) -> Option<&BoundedPlan> {
        self.bounded.as_ref().map(|b| &b.plan)
    }

    /// The tables the query reads, each pinned at the per-table write
    /// generation it was prepared against.
    pub fn read_set(&self) -> &[(String, u64)] {
        &self.read_set
    }
}

/// The tables `query` reads (deduplicated), each pinned at its current
/// per-table write generation.
fn read_set_of(db: &Database, query: &BoundQuery) -> Vec<(String, u64)> {
    let mut set: Vec<(String, u64)> = Vec::new();
    for t in &query.tables {
        let name = t.table.to_ascii_lowercase();
        if set.iter().any(|(n, _)| *n == name) {
            continue;
        }
        let table_generation = db.table_generation(&name).unwrap_or(0);
        set.push((name, table_generation));
    }
    set
}

/// Keyed plan cache: normalized SQL text → prepared query.
///
/// TLC-style workloads repeat a handful of query shapes endlessly; without
/// the cache every submission re-runs parse → bind → check → plan
/// (`budget_check_q1` in `BENCH_micro.json` shows that cost).  Entries are
/// validated against the database write generation on every lookup, so
/// maintenance writes (inserts/deletes through the [`Maintainer`])
/// invalidate them without any explicit hook.
#[derive(Debug, Default)]
struct PlanCache {
    entries: Mutex<HashMap<String, Arc<PreparedQuery>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// Bound on cached entries; prevents unbounded growth under ad-hoc
/// workloads (repeating workloads hold far fewer shapes than this).
const PLAN_CACHE_CAP: usize = 256;

impl PlanCache {
    /// Fetch a live entry for `key`, counting the lookup.  Liveness is a
    /// *read-set* check: the entry is served as a hit when every table it
    /// reads still sits at the per-table generation it was prepared
    /// against — a write batch that never touched the entry's tables keeps
    /// it live, no matter how far the database-wide generation advanced.
    /// A mismatched entry is evicted and counted as an invalidation only
    /// when it is *older* than the caller's database; an entry *newer*
    /// than the caller — the caller is a reader pinned on an old snapshot
    /// while the cache has moved on — is left in place for the
    /// current-generation sessions and merely misses.
    fn lookup(&self, key: &str, db: &Database) -> Option<Arc<PreparedQuery>> {
        let mut entries = self.entries.lock().expect("plan cache lock");
        let Some(entry) = entries.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let live = entry
            .read_set
            .iter()
            .all(|(table, table_generation)| db.table_generation(table) == Some(*table_generation));
        if live {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(entry));
        }
        if entry.generation < db.generation() {
            entries.remove(key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert `entry`, never replacing a strictly newer one: a reader on an
    /// old snapshot re-preparing a shape must not evict the entry the
    /// current-generation sessions are hitting (that ping-pong would turn
    /// one old in-flight query into a miss-per-query for everyone).
    fn insert(&self, key: String, entry: Arc<PreparedQuery>) {
        let mut entries = self.entries.lock().expect("plan cache lock");
        if let Some(existing) = entries.get(&key) {
            if existing.generation > entry.generation {
                return;
            }
        }
        if entries.len() >= PLAN_CACHE_CAP {
            entries.clear();
        }
        entries.insert(key, entry);
    }

    fn clear(&self) {
        self.entries.lock().expect("plan cache lock").clear();
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Normalize SQL text into a cache key: `--` line comments are dropped,
/// whitespace runs collapse to one space, and everything *outside*
/// single-quoted literals and double-quoted identifiers is ASCII-lowercased
/// (as the lexer does), so reformatted or re-cased submissions of the same
/// query share an entry.  Literal contents are preserved byte-for-byte —
/// `'East'` and `'east'` are different queries.  Quoted identifiers keep
/// their whitespace and any `--` and are only ASCII-lowercased, again as the
/// lexer reads them — `"a  b"` and `"a b"` are different columns.
/// Comments must be stripped, not kept: an apostrophe inside one would
/// otherwise flip the literal tracking and let different queries collide
/// on one cache key.
fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    // The closing quote of the literal or identifier being copied.
    let mut quoted: Option<char> = None;
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if let Some(close) = quoted {
            out.push(if close == '"' {
                c.to_ascii_lowercase()
            } else {
                c
            });
            if c == close {
                quoted = None;
            }
            continue;
        }
        if c == '-' && chars.peek() == Some(&'-') {
            // line comment (same rule as the lexer): acts as whitespace
            for skipped in chars.by_ref() {
                if skipped == '\n' {
                    break;
                }
            }
            pending_space = true;
            continue;
        }
        if c.is_ascii_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        if c == '\'' || c == '"' {
            quoted = Some(c);
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// The BEAS system.
///
/// The struct is `Sync`: every read path (`check`, `execute_sql`,
/// `approximate`, the plan cache) works through `&self` with interior
/// mutability limited to atomics and short-lived mutexes, so an
/// `Arc<BeasSystem>` can serve concurrent reader threads — the property the
/// `beas_service` snapshot model builds on.  Maintenance writes still take
/// `&mut self` and therefore serialize by construction.
#[derive(Debug)]
pub struct BeasSystem {
    db: Database,
    schema: AccessSchema,
    indexes: AccessIndexes,
    /// Shared across [`BeasSystem::fork`]ed copies: forks of one lineage
    /// serve one logical cache (entries are validated against the
    /// per-table generations in their read set, so a fork at an older
    /// generation never serves a newer snapshot's plan or vice versa) and
    /// its counters aggregate across all of them.
    plan_cache: Arc<PlanCache>,
    maintenance_policy: MaintenancePolicy,
    reduction_min_savings: f64,
}

impl BeasSystem {
    /// Assemble a system from a database, an access schema and pre-built
    /// indices (see [`beas_access::build_indexes`]).
    pub fn new(db: Database, schema: AccessSchema, indexes: AccessIndexes) -> Self {
        BeasSystem {
            db,
            schema,
            indexes,
            plan_cache: Arc::new(PlanCache::default()),
            maintenance_policy: MaintenancePolicy::Strict,
            reduction_min_savings: DEFAULT_REDUCTION_MIN_SAVINGS,
        }
    }

    /// A copy-on-write fork: clones the database, access schema and indices
    /// *structurally* — tables are `Arc`-shared row segments and constraint
    /// indices `Arc`-shared hash shards, so the fork costs O(tables +
    /// segment handles), not O(rows); a subsequent write to either copy
    /// copies only the segment or shard it touches.  The plan cache is
    /// *shared*, so cached prepared queries and their hit/miss counters
    /// survive across forks of one system lineage.  This is the snapshot
    /// primitive of `beas_service`: a writer forks the current snapshot,
    /// applies a maintenance batch to the fork (paying only for the rows
    /// the batch moves), and publishes it; readers keep executing against
    /// the old snapshot until the swap, and the old generation's private
    /// segments are freed when its last reader drops.
    ///
    /// Sharing the cache across forks is sound even if several forks are
    /// mutated independently: clones of one [`Database`] draw their write
    /// generations from a lineage-shared allocator, so two forks can never
    /// reach the same generation with different contents — a cached entry's
    /// generation identifies exactly one database state.
    pub fn fork(&self) -> BeasSystem {
        BeasSystem {
            db: self.db.clone(),
            schema: self.schema.clone(),
            indexes: self.indexes.clone(),
            plan_cache: Arc::clone(&self.plan_cache),
            maintenance_policy: self.maintenance_policy,
            reduction_min_savings: self.reduction_min_savings,
        }
    }

    /// Assemble a system, building the constraint indices in the process.
    pub fn with_schema(db: Database, schema: AccessSchema) -> Result<Self> {
        let indexes = build_indexes(&db, &schema)?;
        Ok(BeasSystem::new(db, schema, indexes))
    }

    /// Assemble a system by discovering an access schema from a workload.
    pub fn from_discovery(
        db: Database,
        workload: &[String],
        config: &DiscoveryConfig,
    ) -> Result<Self> {
        let (schema, _) = discover(&db, workload, config)?;
        BeasSystem::with_schema(db, schema)
    }

    /// The bounded fetch stage's tuning: always [`FetchConfig::default`].
    pub fn fetch_config(&self) -> FetchConfig {
        FetchConfig::default()
    }

    /// Set the partial-reduction cost gate threshold: a covered relation is
    /// only swapped for its bounded subset when the *predicted* savings
    /// ratio clears `threshold` (and the whole bounded stage is skipped
    /// when the total predicted savings are below that fraction of the base
    /// rows the residual must process).  `0.0` disables the gate; the
    /// default is [`DEFAULT_REDUCTION_MIN_SAVINGS`].
    pub fn with_partial_reduction_threshold(mut self, threshold: f64) -> Self {
        self.reduction_min_savings = threshold;
        self
    }

    /// The partial-reduction cost gate threshold.
    pub fn partial_reduction_threshold(&self) -> f64 {
        self.reduction_min_savings
    }

    fn partial_options(&self) -> PartialOptions {
        PartialOptions {
            reduction_min_savings: self.reduction_min_savings,
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The registered access schema.
    pub fn access_schema(&self) -> &AccessSchema {
        &self.schema
    }

    /// The constraint indices.
    pub fn indexes(&self) -> &AccessIndexes {
        &self.indexes
    }

    /// Parse and bind a SQL query.
    fn bind(&self, sql: &str) -> Result<BoundQuery> {
        let stmt = parse_select(sql)?;
        Binder::new(&self.db).bind(&stmt)
    }

    /// Prepare `sql` — parse → bind → graph → coverage check → bounded plan
    /// — through the keyed plan cache.  Repeated submissions of the same
    /// (normalized) SQL reuse the cached result as long as every table the
    /// query reads is unchanged (per-table generation match); a write to
    /// one of those tables evicts the stale entry and re-prepares.
    ///
    /// Public so a service can acquire the prepared query *once* per
    /// submission and thread the same `Arc` through admission
    /// ([`BeasSystem::deduced_bound`]-style checks via
    /// [`PreparedQuery::deduced_bound`]) and execution
    /// ([`BeasSystem::execute_prepared`]).
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedQuery>> {
        Ok(self.prepare_traced(sql)?.0)
    }

    /// [`BeasSystem::prepare`] plus whether the result was served from the
    /// plan cache.  Still exactly one cache acquisition — the service uses
    /// this to stamp the hit/miss into a submission's trace without racing
    /// the shared cache counters against concurrent sessions.
    pub fn prepare_traced(&self, sql: &str) -> Result<(Arc<PreparedQuery>, bool)> {
        let key = normalize_sql(sql);
        if let Some(entry) = self.plan_cache.lookup(&key, &self.db) {
            return Ok((entry, true));
        }
        let entry = Arc::new(self.prepare_bound(self.bind(sql)?)?);
        self.plan_cache.insert(key, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Graph → coverage check → bounded plan → compiled program for an
    /// already-bound query, pinned at the current generations.
    fn prepare_bound(&self, query: BoundQuery) -> Result<PreparedQuery> {
        let graph = QueryGraph::build(&query)?;
        let coverage = Checker::new(&self.schema).check(&query, &graph);
        let bounded = if coverage.covered {
            let plan = generate_bounded_plan(&query, &graph, &coverage)?;
            let program = FetchProgram::compile(&plan, &query, &graph);
            Some(CompiledPlan { plan, program })
        } else {
            None
        };
        Ok(PreparedQuery {
            generation: self.db.generation(),
            read_set: read_set_of(&self.db, &query),
            query,
            graph,
            coverage,
            bounded,
        })
    }

    /// Hit/miss/invalidation counters of the plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drop every cached plan (maintenance that changes the *access schema*
    /// — e.g. bound adjustment — calls this; data writes are caught by the
    /// write-generation check instead).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Check whether `sql` is boundedly evaluable under the registered access
    /// schema, without executing it.  When it is, the report carries the
    /// bounded plan and its deduced bound.  Served from the plan cache.
    pub fn check(&self, sql: &str) -> Result<CheckReport> {
        let prepared = self.prepare(sql)?;
        Ok(match prepared.plan() {
            Some(plan) => CheckReport {
                covered: true,
                deduced_bound: Some(plan.total_bound),
                plan: Some(plan.clone()),
                coverage: prepared.coverage.clone(),
            },
            None => CheckReport {
                covered: false,
                deduced_bound: None,
                plan: None,
                coverage: prepared.coverage.clone(),
            },
        })
    }

    /// The deduced bound on tuples accessed when `sql` is covered, `None`
    /// when it is not — the admission-control fast path: cache-served and,
    /// unlike [`BeasSystem::check`], clones no plan.
    pub fn deduced_bound(&self, sql: &str) -> Result<Option<u64>> {
        Ok(self.prepare(sql)?.deduced_bound())
    }

    /// Estimated tuples a conventional (or partially bounded) evaluation of
    /// a prepared query would access.  A planner *estimate*, not a
    /// guarantee — admission control uses it to route uncovered queries
    /// against a session budget; the runtime quota is what actually
    /// enforces the budget.
    ///
    /// Two components, the larger wins:
    ///
    /// * **scan floor** — Σ base rows across the query's distinct tables: a
    ///   conventional plan scans each of them at least once, so no
    ///   evaluation can touch less;
    /// * **join cardinality** — per join-connected component of the query
    ///   graph, the product of the atoms' base cardinalities with each
    ///   equi-join edge dividing by the join column's distinct count
    ///   (`|R ⋈ S| ≈ |R|·|S| / max(d(R.a), d(S.b))`).  Atoms with *no*
    ///   join edge between them sit in different components whose
    ///   cardinalities multiply — so a cross product's intermediate blow-up
    ///   shows up in the estimate and admission control can reject it
    ///   before the runtime quota has to trip mid-scan.
    pub fn estimate_conventional_tuples_prepared(&self, prepared: &PreparedQuery) -> Result<u64> {
        let atoms = &prepared.graph.atoms;
        // Scan floor over distinct tables (self-joins scan the table once).
        let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let mut scan_floor: u64 = 0;
        let mut rows: Vec<u64> = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let count = self.db.table(&atom.table)?.row_count() as u64;
            rows.push(count);
            if seen.insert(atom.table.as_str()) {
                scan_floor += count;
            }
        }
        if atoms.is_empty() {
            return Ok(0);
        }
        // Union-find over atoms: each equality edge joins two components
        // and records a divisor (the join column's distinct count).
        let mut parent: Vec<usize> = (0..atoms.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        // Product of all atom cardinalities, with every *merging* edge
        // (spanning-forest edges only — a redundant edge inside an
        // already-joined component would double-divide) applying the
        // |R|·|S|/d reduction.
        let mut estimate: u64 = 1;
        for r in &rows {
            estimate = estimate.saturating_mul((*r).max(1));
        }
        for ((la, lc), (ra, rc)) in &prepared.graph.equalities {
            let (rl, rr) = (find(&mut parent, *la), find(&mut parent, *ra));
            if rl == rr {
                continue;
            }
            parent[rl] = rr;
            let d_left = self.distinct_count(&atoms[*la].table, lc);
            let d_right = self.distinct_count(&atoms[*ra].table, rc);
            let divisor = d_left.max(d_right).max(1);
            estimate = (estimate / divisor).max(1);
        }
        Ok(scan_floor.max(estimate))
    }

    /// Distinct count of `column` in `table` from the statistics cache,
    /// `1` when unknown (unknown must not shrink an estimate).
    fn distinct_count(&self, table: &str, column: &str) -> u64 {
        self.db
            .statistics(table)
            .ok()
            .and_then(|s| s.column(column).map(|c| c.distinct_count as u64))
            .filter(|&d| d > 0)
            .unwrap_or(1)
    }

    /// Whether `sql` can be answered by accessing at most `budget` tuples,
    /// decided before execution (demo scenario 1(a)).
    pub fn can_answer_within(&self, sql: &str, budget: u64) -> Result<bool> {
        let report = self.check(sql)?;
        Ok(match report.deduced_bound {
            Some(bound) => bound <= budget,
            None => false,
        })
    }

    /// The bounded plan for `sql` rendered with per-fetch bounds, or the
    /// coverage failure reasons when the query is not covered.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let report = self.check(sql)?;
        Ok(match report.plan {
            Some(plan) => plan.explain(),
            None => format!("{}", report.coverage),
        })
    }

    /// Execute `sql`: bounded when covered, partially bounded otherwise.
    /// The parse → bind → check → plan stage is served from the plan cache.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::new(
    ///     "call",
    ///     vec![
    ///         ColumnDef::new("pnum", DataType::Str),
    ///         ColumnDef::new("recnum", DataType::Str),
    ///     ],
    /// )?)?;
    /// db.insert("call", vec![Value::str("p1"), Value::str("r1")])?;
    /// let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
    ///     "call", &["pnum"], &["recnum"], 100,
    /// )?]);
    /// let system = BeasSystem::with_schema(db, schema)?;
    ///
    /// let outcome = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p1'")?;
    /// assert!(outcome.bounded, "the constraint covers the query");
    /// assert_eq!(outcome.rows, vec![vec![Value::str("r1")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn execute_sql(&self, sql: &str) -> Result<ExecutionOutcome> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, None)
    }

    /// Execute a prepared (possibly cached) query under an optional session
    /// [`QuotaTracker`]: every base-data access — bounded fetches, partial
    /// residues, conventional scans — is charged against the tracker as it
    /// happens, and a trip terminates the query early with
    /// [`BeasError::QuotaExceeded`].  This is the runtime half of the
    /// budget contract; the up-front half is
    /// [`BeasSystem::can_answer_within`] / the service's admission control.
    /// A service that already prepared the query for admission control
    /// executes the same `Arc` without a second plan-cache acquisition.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        quota: Option<&QuotaTracker>,
    ) -> Result<ExecutionOutcome> {
        let query = &prepared.query;
        let graph = &prepared.graph;
        let coverage = &prepared.coverage;
        if let Some(CompiledPlan { plan, program }) = &prepared.bounded {
            let program = program.as_ref().map_err(Clone::clone)?;
            let result =
                execute_program(program, &self.indexes, FetchConfig::default(), quota, None)?;
            return Ok(ExecutionOutcome {
                rows: result.rows,
                schema: query.output_schema.clone(),
                bounded: true,
                mode: EvaluationMode::Bounded,
                tuples_accessed: result.tuples_accessed,
                deduced_bound: Some(plan.total_bound),
                constraints_used: plan.constraints_used,
                metrics: result.metrics,
            });
        }
        // Partially bounded (or conventional) evaluation.
        let partial = execute_partially_bounded(
            &self.db,
            &Engine::default(),
            query,
            graph,
            coverage,
            &self.indexes,
            self.partial_options(),
            quota,
        )?;
        let mode = if partial.reduced_relations.is_empty() {
            EvaluationMode::Conventional
        } else {
            EvaluationMode::PartiallyBounded
        };
        let mut metrics = partial.bounded_metrics.clone();
        for op in &partial.residual_metrics.operators {
            metrics.operators.push(op.clone());
        }
        metrics.elapsed = partial.bounded_metrics.elapsed + partial.residual_metrics.elapsed;
        let tuples_accessed = partial.total_tuples_accessed();
        Ok(ExecutionOutcome {
            rows: partial.rows,
            schema: query.output_schema.clone(),
            bounded: false,
            mode,
            tuples_accessed,
            deduced_bound: None,
            constraints_used: coverage.constraints_used().len(),
            metrics,
        })
    }

    /// Choose the policy applied when maintenance writes would violate a
    /// cardinality bound (default: [`MaintenancePolicy::Strict`]).
    pub fn with_maintenance_policy(mut self, policy: MaintenancePolicy) -> Self {
        self.maintenance_policy = policy;
        self
    }

    /// Insert rows through the maintenance module: the base table and every
    /// affected constraint index are updated together, and the write bumps
    /// the database generation, so cached plans for this system re-prepare
    /// on their next use.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::new(
    ///     "call",
    ///     vec![
    ///         ColumnDef::new("pnum", DataType::Str),
    ///         ColumnDef::new("recnum", DataType::Str),
    ///     ],
    /// )?)?;
    /// let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
    ///     "call", &["pnum"], &["recnum"], 100,
    /// )?]);
    /// let mut system = BeasSystem::with_schema(db, schema)?;
    ///
    /// // The write maintains the constraint index and invalidates cached
    /// // plans, so the next query sees the new row through a bounded fetch.
    /// system.insert_rows("call", vec![vec![Value::str("p2"), Value::str("r9")]])?;
    /// let outcome = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p2'")?;
    /// assert_eq!(outcome.rows, vec![vec![Value::str("r9")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<MaintenanceOutcome> {
        let maintainer = Maintainer::new(self.maintenance_policy);
        let outcome = maintainer.insert_rows(
            &mut self.db,
            &mut self.schema,
            &mut self.indexes,
            table,
            rows,
        )?;
        // AutoAdjust may have raised constraint bounds, which changes
        // deduced plan bounds — drop the entries rather than serve them.
        if !outcome.adjusted.is_empty() {
            self.clear_plan_cache();
        }
        Ok(outcome)
    }

    /// Delete the rows of `table` matching `predicate`, keeping every
    /// affected constraint index consistent.  Bumps the database
    /// generation, invalidating cached plans.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::new(
    ///     "call",
    ///     vec![
    ///         ColumnDef::new("pnum", DataType::Str),
    ///         ColumnDef::new("recnum", DataType::Str),
    ///     ],
    /// )?)?;
    /// db.insert("call", vec![Value::str("p1"), Value::str("r1")])?;
    /// db.insert("call", vec![Value::str("p1"), Value::str("r2")])?;
    /// let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
    ///     "call", &["pnum"], &["recnum"], 100,
    /// )?]);
    /// let mut system = BeasSystem::with_schema(db, schema)?;
    ///
    /// let outcome = system.delete_rows("call", |row| row[1] == Value::str("r1"))?;
    /// assert_eq!(outcome.rows_affected, 1);
    /// let remaining = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p1'")?;
    /// assert_eq!(remaining.rows, vec![vec![Value::str("r2")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn delete_rows(
        &mut self,
        table: &str,
        predicate: impl FnMut(&Row) -> bool,
    ) -> Result<MaintenanceOutcome> {
        let maintainer = Maintainer::new(self.maintenance_policy);
        maintainer.delete_rows(
            &mut self.db,
            &self.schema,
            &mut self.indexes,
            table,
            predicate,
        )
    }

    /// Tighten (or relax) every constraint bound to the observed
    /// cardinality times `headroom`.  Changes deduced plan bounds, so the
    /// plan cache is cleared (the data itself did not move, hence no
    /// generation bump to catch it).
    pub fn adjust_bounds(&mut self, headroom: f64) -> Result<Vec<(String, u64, u64)>> {
        let maintainer = Maintainer::new(self.maintenance_policy);
        let changes = maintainer.adjust_bounds(&self.db, &mut self.schema, headroom)?;
        if !changes.is_empty() {
            self.clear_plan_cache();
        }
        Ok(changes)
    }

    /// Resource-bounded approximation: answer a covered `sql` while
    /// fetching at most `budget` tuples, reporting a deterministic coverage
    /// lower bound.  The query runs its cached compiled program with a
    /// per-step cap on the keys each fetch looks up.  A query the access
    /// schema does not cover is a `not_bounded` error: it has no bounded
    /// plan to cap.
    pub fn approximate(&self, sql: &str, budget: u64) -> Result<ApproximateExecution> {
        let prepared = self.prepare(sql)?;
        self.approximate_prepared(&prepared, budget, None)
    }

    /// [`BeasSystem::approximate`] over an already-prepared query, under an
    /// optional session quota — the approximation half of the
    /// single-acquisition service path.  The quota is checkpointed and
    /// charged per fetch step, exactly as on the bounded path.
    pub fn approximate_prepared(
        &self,
        prepared: &PreparedQuery,
        budget: u64,
        quota: Option<&QuotaTracker>,
    ) -> Result<ApproximateExecution> {
        let Some(CompiledPlan { program, .. }) = &prepared.bounded else {
            return Err(BeasError::not_bounded(
                "the access schema does not cover this query; approximation needs a bounded plan",
            ));
        };
        let program = program.as_ref().map_err(Clone::clone)?;
        execute_with_budget(
            program,
            &prepared.query.output_schema,
            &self.indexes,
            budget,
            quota,
        )
    }

    /// The Fig. 3 report: execute `sql` through BEAS (bounded when
    /// covered, partially bounded / conventional otherwise) and run
    /// `EXPLAIN ANALYZE` on the conventional engine under every
    /// [`OptimizerProfile`], returning the BEAS fetch pipeline flat and each
    /// baseline as its per-operator tree (including `Exchange(..)` /
    /// `Vectorized(..)` annotations when those physical paths ran).
    ///
    /// Timing on the baselines is forced per-pipeline, not by flipping the
    /// global [`beas_obs::TraceLevel`], so concurrent sessions keep their
    /// configured level; the BEAS executor's fetch/finalize stages time
    /// their blocking phases unconditionally.
    pub fn explain_analyze(&self, sql: &str) -> Result<QueryAnalysis> {
        let outcome = self.execute_sql(sql)?;
        let baselines = OptimizerProfile::all()
            .into_iter()
            .map(|profile| {
                let run = Engine::new(profile).explain_analyze(&self.db, sql)?;
                Ok(BaselineAnalysis {
                    measurement: SystemMeasurement::new(
                        SystemMeasurement::baseline_label(profile),
                        run.result.metrics,
                        run.result.rows.len() as u64,
                    ),
                    tree: run.tree,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(QueryAnalysis {
            sql: sql.to_string(),
            mode: outcome.mode,
            deduced_bound: outcome.deduced_bound,
            constraints_used: outcome.constraints_used,
            beas: SystemMeasurement::new("BEAS", outcome.metrics, outcome.rows.len() as u64),
            baselines,
        })
    }

    /// Validate the whole system state: the database catalog and tables
    /// ([`Database::check_invariants`]), every constraint index against the
    /// table it indexes, and the shared plan cache.  O(total rows) —
    /// compiled only into debug builds and `--features validate` builds;
    /// the MVCC and concurrency test suites call it after every mutation
    /// step.
    ///
    /// Plan-cache checks (the cache is shared across forks, so entries may
    /// be newer *or* older than this system's snapshot):
    /// 1. the cache respects its capacity bound,
    /// 2. cache keys are normalized SQL (normalization is idempotent),
    /// 3. an entry caches a plan exactly when its coverage check passed,
    /// 4. a *live* entry — every read-set table still at the generation it
    ///    was prepared against — re-derives the identical read set from its
    ///    bound query, so a cache hit can never serve a plan whose table
    ///    set drifted.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn check_invariants(&self) -> Result<()> {
        self.db.check_invariants()?;
        for (id, index) in self.indexes.iter() {
            let table = self.db.table(index.table()).map_err(|e| {
                BeasError::storage(format!(
                    "constraint index {id:?} covers a table the database lost: {e}"
                ))
            })?;
            index.check_against_table(table)?;
        }
        let fail = |msg: String| {
            Err(BeasError::storage(format!(
                "plan cache invariant violated: {msg}"
            )))
        };
        let entries = self.plan_cache.entries.lock().expect("plan cache lock");
        if entries.len() > PLAN_CACHE_CAP {
            return fail(format!(
                "{} entries exceed the {PLAN_CACHE_CAP}-entry cap",
                entries.len()
            ));
        }
        for (key, entry) in entries.iter() {
            if *key != normalize_sql(key) {
                return fail(format!("cache key {key:?} is not normalized"));
            }
            if entry.covered() != entry.coverage.covered {
                return fail(format!(
                    "entry {key:?} caches a plan but its coverage check disagrees"
                ));
            }
            let live = entry
                .read_set
                .iter()
                .all(|(t, g)| self.db.table_generation(t) == Some(*g));
            if live && read_set_of(&self.db, &entry.query) != entry.read_set {
                return fail(format!(
                    "live entry {key:?} re-derives a different read set than it caches"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::AccessConstraint;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};

    fn system() -> BeasSystem {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
                    ColumnDef::new("duration", DataType::Int),
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
        for i in 0..50 {
            db.insert(
                "call",
                vec![
                    Value::str(format!("p{}", i % 10)),
                    Value::str(format!("r{i}")),
                    Value::str("2016-07-04"),
                    Value::str(if i % 2 == 0 { "east" } else { "west" }),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        for i in 0..10 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str(if i % 2 == 0 { "bank" } else { "shop" }),
                    Value::str("r0"),
                ],
            )
            .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        BeasSystem::with_schema(db, schema).unwrap()
    }

    const COVERED: &str = "select distinct call.region from call, business \
        where business.type = 'bank' and business.region = 'r0' \
        and business.pnum = call.pnum and call.date = '2016-07-04'";

    const UNCOVERED: &str = "select call.region, sum(call.duration) as total from call, business \
        where business.type = 'bank' and business.region = 'r0' \
        and business.pnum = call.pnum and call.date = '2016-07-04' \
        group by call.region order by call.region";

    #[test]
    fn covered_query_runs_bounded() {
        let beas = system();
        let report = beas.check(COVERED).unwrap();
        assert!(report.covered);
        assert!(report.deduced_bound.unwrap() >= 2000);
        let outcome = beas.execute_sql(COVERED).unwrap();
        assert!(outcome.bounded);
        assert_eq!(outcome.mode, EvaluationMode::Bounded);
        assert_eq!(outcome.constraints_used, 2);
        assert!(outcome.tuples_accessed < 60);
        // Banks are the even-numbered pnums and even-numbered calls are all
        // in the east, so the answer is exactly {east}.
        assert_eq!(outcome.rows, vec![vec![Value::str("east")]]);
        assert!(beas.explain(COVERED).unwrap().contains("fetch("));
    }

    #[test]
    fn bounded_answers_match_baseline() {
        let beas = system();
        let outcome = beas.execute_sql(COVERED).unwrap();
        let baseline = Engine::default().run(beas.database(), COVERED).unwrap();
        let mut a = outcome.rows.clone();
        let mut b = baseline.rows.clone();
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);
    }

    #[test]
    fn uncovered_query_runs_partially_bounded_with_exact_answers() {
        // gate disabled: this test pins the reduction machinery itself
        let beas = system().with_partial_reduction_threshold(0.0);
        let report = beas.check(UNCOVERED).unwrap();
        assert!(!report.covered);
        let outcome = beas.execute_sql(UNCOVERED).unwrap();
        assert!(!outcome.bounded);
        assert_eq!(outcome.mode, EvaluationMode::PartiallyBounded);
        let baseline = Engine::default().run(beas.database(), UNCOVERED).unwrap();
        assert_eq!(outcome.rows, baseline.rows);
        assert!(beas.explain(UNCOVERED).unwrap().contains("covered: no"));
    }

    #[test]
    fn default_cost_gate_falls_back_when_predicted_savings_are_small() {
        // Under the default threshold the same uncovered query is not worth
        // the partial machinery (the covered `business` is 10 of 60 base
        // rows): the system must route it to pure conventional evaluation —
        // with identical answers — and report the mode honestly.
        let beas = system();
        assert_eq!(
            beas.partial_reduction_threshold(),
            crate::partial::DEFAULT_REDUCTION_MIN_SAVINGS
        );
        let outcome = beas.execute_sql(UNCOVERED).unwrap();
        assert_eq!(outcome.mode, EvaluationMode::Conventional);
        let baseline = Engine::default().run(beas.database(), UNCOVERED).unwrap();
        assert_eq!(outcome.rows, baseline.rows);
        // the gated run fetched nothing through constraint indices
        assert!(outcome.metrics.render().contains("PartialGate(skip"));
    }

    #[test]
    fn fork_shares_the_plan_cache_and_isolates_the_data() {
        let beas = system();
        let first = beas.execute_sql(COVERED).unwrap();
        assert_eq!(beas.plan_cache_stats().misses, 1);
        // the fork sees the cached plan (shared cache, same generation) ...
        let mut fork = beas.fork();
        let again = fork.execute_sql(COVERED).unwrap();
        assert_eq!(again.rows, first.rows);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(fork.plan_cache_stats(), stats);
        // ... and writes to the fork never leak into the original
        fork.insert_rows(
            "call",
            vec![vec![
                Value::str("p0"),
                Value::str("rF"),
                Value::str("2016-07-04"),
                Value::str("forked"),
                Value::Int(1),
            ]],
        )
        .unwrap();
        assert!(fork.database().generation() > beas.database().generation());
        assert_eq!(beas.execute_sql(COVERED).unwrap().rows, first.rows);
        let forked_regions = fork.execute_sql(COVERED).unwrap().rows.len();
        assert_eq!(forked_regions, first.rows.len() + 1);
    }

    #[test]
    fn old_snapshot_readers_do_not_evict_newer_cache_entries() {
        // A reader pinned on a pre-write fork re-preparing a shape must not
        // displace the entry the current generation is hitting (and its own
        // insert must not overwrite it) — otherwise one old in-flight
        // session turns the shared cache into a miss-per-query ping-pong.
        let old = system();
        let mut fresh = old.fork();
        fresh
            .insert_rows(
                "business",
                vec![vec![
                    Value::str("p88"),
                    Value::str("bank"),
                    Value::str("r0"),
                ]],
            )
            .unwrap();
        // the newer fork caches the shape at its generation
        fresh.execute_sql(COVERED).unwrap();
        let misses_after_fresh = fresh.plan_cache_stats().misses;
        // the old snapshot misses (its generation is older) but leaves the
        // newer entry alone ...
        old.execute_sql(COVERED).unwrap();
        // ... so the newer fork still hits
        let before = fresh.plan_cache_stats().hits;
        fresh.execute_sql(COVERED).unwrap();
        let stats = fresh.plan_cache_stats();
        assert_eq!(stats.hits, before + 1, "newer entry must survive: {stats}");
        assert_eq!(
            stats.misses,
            misses_after_fresh + 1,
            "old reader misses only once"
        );
    }

    #[test]
    fn quota_enforced_on_both_engines_through_the_system() {
        use beas_common::ResourceQuota;
        let beas = system();
        // bounded path: generous quota passes and accounts exactly
        let covered = beas.prepare(COVERED).unwrap();
        let tracker = ResourceQuota::unlimited().with_max_tuples(1000).tracker();
        let outcome = beas.execute_prepared(&covered, Some(&tracker)).unwrap();
        assert!(outcome.bounded);
        assert_eq!(tracker.tuples_used(), outcome.tuples_accessed);
        // bounded path: tight quota trips mid-flight
        let tight = ResourceQuota::unlimited().with_max_tuples(2).tracker();
        let err = beas
            .execute_prepared(&covered, Some(&tight))
            .expect_err("2 tuples cannot cover the bounded fetches");
        assert_eq!(err.kind(), "quota_exceeded");
        // fallback (conventional) path: the baseline scan trips too
        let tight = ResourceQuota::unlimited().with_max_tuples(5).tracker();
        let err = beas
            .execute_prepared(&beas.prepare(UNCOVERED).unwrap(), Some(&tight))
            .expect_err("5 tuples cannot cover the 60-row scans");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(tight.is_tripped());
    }

    #[test]
    fn budget_checks() {
        let beas = system();
        assert!(beas.can_answer_within(COVERED, 10_000_000).unwrap());
        assert!(!beas.can_answer_within(COVERED, 10).unwrap());
        assert!(!beas.can_answer_within(UNCOVERED, 10_000_000).unwrap());
    }

    #[test]
    fn approximation_respects_budget() {
        let beas = system();
        let approx = beas.approximate(COVERED, 12).unwrap();
        assert!(approx.tuples_accessed <= 12);
        assert!(approx.coverage > 0.0 && approx.coverage < 1.0);
        assert!(beas
            .approximate("select region from call where region = 'east'", 100)
            .is_err());
        // only `business` is covered (no `call.date` to key `call` by):
        // fetching it alone would answer every bank, unchecked against the
        // join with `call`
        let err = beas
            .approximate(
                "select distinct business.pnum from business, call \
                 where business.type = 'bank' and business.region = 'r0' \
                 and business.pnum = call.pnum",
                100,
            )
            .expect_err("uncovered query");
        assert_eq!(err.kind(), "not_bounded");
    }

    #[test]
    fn explain_analyze_reports_beas_against_every_baseline() {
        // The EXPLAIN text of a tree: one label per line, two spaces of
        // indentation per level.
        fn labels(node: &beas_engine::AnalyzeNode, depth: usize, out: &mut String) {
            out.push_str(&format!("{}{}\n", "  ".repeat(depth), node.label));
            for child in &node.children {
                labels(child, depth + 1, out);
            }
        }
        let beas = system();
        // Covered: bounded fetch pipeline vs every baseline operator tree.
        let covered = beas.explain_analyze(COVERED).unwrap();
        assert!(covered.bounded());
        assert_eq!(covered.mode, EvaluationMode::Bounded);
        assert_eq!(covered.baselines.len(), 3);
        let text = covered.render();
        for needle in [
            "evaluation: bounded",
            "Fetch(",
            "EXPLAIN ANALYZE",
            "SeqScan(call",
            "BEAS",
            "PostgreSQL",
            "tuples accessed",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        for (profile, baseline) in OptimizerProfile::all().into_iter().zip(&covered.baselines) {
            // BEAS touches strictly less data than every conventional profile
            assert!(covered.beas.tuples_accessed < baseline.measurement.tuples_accessed);
            assert!(covered.access_reduction_over(&baseline.measurement) > 1.0);
            // each tree has exactly the shape of its profile's plan
            let mut tree = String::new();
            labels(&baseline.tree, 0, &mut tree);
            let explain = Engine::new(profile).explain(beas.database(), COVERED);
            assert_eq!(tree, explain.unwrap(), "{profile:?}");
            let heading = format!("-- {} EXPLAIN ANALYZE --", baseline.measurement.system);
            assert!(text.contains(&heading), "missing {heading:?}");
        }
        // Uncovered: falls through to partial/conventional, still analyzed.
        let uncovered = beas.explain_analyze(UNCOVERED).unwrap();
        assert!(!uncovered.bounded());
        assert!(uncovered.render().contains("evaluation: conventional"));
        // Answers agree between the timed runs.
        for baseline in &uncovered.baselines {
            assert_eq!(uncovered.beas.rows, baseline.measurement.rows);
        }
    }

    #[test]
    fn discovery_constructor_works_end_to_end() {
        let base = system();
        let db = base.database().clone();
        let beas =
            BeasSystem::from_discovery(db, &[COVERED.to_string()], &DiscoveryConfig::default())
                .unwrap();
        assert!(!beas.access_schema().is_empty());
        let outcome = beas.execute_sql(COVERED).unwrap();
        let baseline = Engine::default().run(beas.database(), COVERED).unwrap();
        assert_eq!(outcome.rows.len(), baseline.rows.len());
    }

    #[test]
    fn errors_surface_for_bad_sql() {
        let beas = system();
        assert!(beas.execute_sql("not sql").is_err());
        assert!(beas.check("select x from nosuch").is_err());
    }

    #[test]
    fn normalize_sql_collapses_case_and_whitespace_outside_literals() {
        assert_eq!(
            normalize_sql("SELECT  x\n FROM   t WHERE r = 'East  WING'"),
            "select x from t where r = 'East  WING'"
        );
        assert_eq!(normalize_sql("  select 1  "), "select 1");
        // literal case is preserved, so these are distinct keys
        assert_ne!(
            normalize_sql("select * from t where r = 'east'"),
            normalize_sql("select * from t where r = 'EAST'")
        );
        // differently formatted versions of one query share a key
        assert_eq!(
            normalize_sql("Select Region\tFrom call"),
            normalize_sql("select region from call")
        );
        // line comments are stripped — an apostrophe inside one must not
        // flip literal tracking and make different literals collide
        assert_eq!(
            normalize_sql("select x from t -- note\nwhere r = 'East'"),
            "select x from t where r = 'East'"
        );
        assert_ne!(
            normalize_sql("select x from t -- it's a probe\nwhere r = 'East'"),
            normalize_sql("select x from t -- it's a probe\nwhere r = 'east'")
        );
        // a comment at the very end (no trailing newline) is dropped too
        assert_eq!(normalize_sql("select 1 -- tail"), "select 1");
        // quoted identifiers keep their whitespace and `--`, and are only
        // ASCII-lowercased, as the lexer reads them
        assert_ne!(
            normalize_sql(r#"SELECT "a  b" FROM t"#),
            normalize_sql(r#"SELECT "a b" FROM t"#)
        );
        assert_eq!(
            normalize_sql("select \"A  B--c\" from t"),
            "select \"a  b--c\" from t"
        );
        assert_eq!(
            normalize_sql(r#"select "x'y" from t"#),
            r#"select "x'y" from t"#
        );
        assert_eq!(
            normalize_sql(r#"select 'x"y' from t"#),
            r#"select 'x"y' from t"#
        );
        // lowercasing is ASCII only, inside quotes and out (so is the
        // lexer's): `Ä` and `ä` stay distinct
        assert_ne!(
            normalize_sql("select \"Ä\" from t"),
            normalize_sql("select \"ä\" from t")
        );
        assert_ne!(
            normalize_sql("select Ä from t"),
            normalize_sql("select ä from t")
        );
    }

    #[test]
    fn quoted_identifiers_that_differ_in_whitespace_are_distinct_plans() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a  b", DataType::Int),
                    ColumnDef::new("a b", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("t", vec![Value::Int(1), Value::Int(2)]).unwrap();
        let beas = BeasSystem::with_schema(db, AccessSchema::default()).unwrap();
        let first = beas.execute_sql(r#"SELECT "a  b" FROM t"#).unwrap();
        assert_eq!(first.rows, vec![vec![Value::Int(1)]]);
        let second = beas.execute_sql(r#"SELECT "a b" FROM t"#).unwrap();
        assert_eq!(second.rows, vec![vec![Value::Int(2)]]);
        assert_eq!(beas.plan_cache_stats().hits, 0);
    }

    #[test]
    fn plan_cache_hits_on_repeated_queries() {
        let beas = system();
        assert_eq!(beas.plan_cache_stats().lookups(), 0);
        let first = beas.execute_sql(COVERED).unwrap();
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        // repeated + reformatted submissions hit the cache
        let again = beas.execute_sql(COVERED).unwrap();
        let reformatted = COVERED
            .to_uppercase()
            .replace("'BANK'", "'bank'")
            .replace("'R0'", "'r0'");
        let third = beas.execute_sql(&reformatted).unwrap();
        assert_eq!(first.rows, again.rows);
        assert_eq!(first.rows, third.rows);
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!(stats.hit_rate() > 0.6);
        // check() shares the same cache
        assert!(beas.check(COVERED).unwrap().covered);
        assert_eq!(beas.plan_cache_stats().hits, 3);
    }

    #[test]
    fn maintenance_writes_invalidate_cached_plans_and_answers_stay_fresh() {
        let mut beas = system();
        let before = beas.execute_sql(COVERED).unwrap();
        assert_eq!(before.rows, vec![vec![Value::str("east")]]);
        assert_eq!(beas.execute_sql(COVERED).unwrap().rows, before.rows);
        assert_eq!(beas.plan_cache_stats().hits, 1);

        // Insert a bank whose call lands in a brand-new region: the cached
        // plan must not be reused against the stale generation.
        beas.insert_rows(
            "business",
            vec![vec![
                Value::str("p77"),
                Value::str("bank"),
                Value::str("r0"),
            ]],
        )
        .unwrap();
        beas.insert_rows(
            "call",
            vec![vec![
                Value::str("p77"),
                Value::str("r999"),
                Value::str("2016-07-04"),
                Value::str("north"),
                Value::Int(1),
            ]],
        )
        .unwrap();
        let after = beas.execute_sql(COVERED).unwrap();
        let mut regions: Vec<String> = after
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        regions.sort();
        assert_eq!(regions, vec!["east".to_string(), "north".to_string()]);
        let stats = beas.plan_cache_stats();
        assert!(stats.invalidations >= 1, "stale entry must be evicted");
        // and the fresh answer matches the baseline engine
        let baseline = Engine::default().run(beas.database(), COVERED).unwrap();
        let mut a: Vec<Row> = after.rows.clone();
        let mut b = baseline.rows;
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);

        // deletes invalidate too
        beas.delete_rows("call", |r| r[1] == Value::str("r999"))
            .unwrap();
        let reverted = beas.execute_sql(COVERED).unwrap();
        assert_eq!(reverted.rows, vec![vec![Value::str("east")]]);
    }

    #[test]
    fn writes_to_unrelated_tables_keep_cached_plans_live() {
        // Read-set validation: a write batch that never touches a plan's
        // tables must keep the entry serving hits — only writes to the
        // tables the plan actually reads may invalidate it.
        let mut beas = system();
        let single = "select distinct region from call where pnum = 'p1' and date = '2016-07-04'";
        let first = beas.execute_sql(single).unwrap();
        assert_eq!(beas.plan_cache_stats().misses, 1);
        // write to `business` — the cached `call` plan is untouched
        beas.insert_rows(
            "business",
            vec![vec![
                Value::str("p99"),
                Value::str("shop"),
                Value::str("r9"),
            ]],
        )
        .unwrap();
        assert!(beas.database().generation() > 0);
        let again = beas.execute_sql(single).unwrap();
        assert_eq!(again.rows, first.rows);
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.hits, 1, "unrelated write must not evict: {stats}");
        assert_eq!(stats.invalidations, 0);
        // a write to `call` itself does invalidate
        beas.delete_rows("call", |r| r[0] == Value::str("p1"))
            .unwrap();
        let after = beas.execute_sql(single).unwrap();
        assert!(after.rows.is_empty());
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn prepared_query_roundtrip_uses_one_cache_acquisition() {
        let beas = system();
        let prepared = beas.prepare(COVERED).unwrap();
        assert!(prepared.covered());
        assert!(prepared.deduced_bound().unwrap() >= 2000);
        let tables: Vec<&str> = prepared
            .read_set()
            .iter()
            .map(|(t, _)| t.as_str())
            .collect();
        assert_eq!(tables, vec!["call", "business"]);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // admission estimate + execution off the same Arc: no new lookups
        let estimate = beas
            .estimate_conventional_tuples_prepared(&prepared)
            .unwrap();
        assert!(estimate >= 60);
        let outcome = beas.execute_prepared(&prepared, None).unwrap();
        assert!(outcome.bounded);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "no extra acquisitions");
    }

    #[test]
    fn join_estimate_flags_cross_products_but_not_keyed_joins() {
        let beas = system();
        // call (50 rows) × business (10 rows) with no join predicate: the
        // estimate must reflect the 500-row cross product, not the 60-row
        // scan floor.
        let cross = "select call.region from call, business where business.type = 'bank'";
        let estimate = |sql| {
            beas.estimate_conventional_tuples_prepared(&beas.prepare(sql).unwrap())
                .unwrap()
        };
        let cross_est = estimate(cross);
        assert_eq!(cross_est, 500);
        // the same pair joined on pnum (10 distinct) stays near the scan
        // floor: 50 * 10 / 10 = 50 → floor 60 wins
        let keyed = "select call.region from call, business \
            where business.pnum = call.pnum and business.type = 'bank'";
        let keyed_est = estimate(keyed);
        assert_eq!(keyed_est, 60);
        // single-table queries remain the plain row count
        assert_eq!(estimate("select region from call"), 50);
    }

    #[test]
    fn adjust_bounds_clears_cached_deduced_bounds() {
        let mut beas = system().with_maintenance_policy(MaintenancePolicy::AutoAdjust);
        let loose = beas.check(COVERED).unwrap().deduced_bound.unwrap();
        let changes = beas.adjust_bounds(1.0).unwrap();
        assert!(!changes.is_empty());
        let tight = beas.check(COVERED).unwrap().deduced_bound.unwrap();
        assert!(
            tight < loose,
            "tightened bounds must re-plan, not serve the cached bound ({tight} vs {loose})"
        );
    }
}
