//! The traced run: the workload's operation sequence replayed through each
//! layer's public functions, with a span around every call.
//!
//! Spans are kept in memory (name, start, end, parent, request id) and
//! written out at the end with their self time: the span's duration minus
//! the durations of its children.  The per-layer metrics are computed from
//! the same calls.

use crate::env::{write_service, write_system, Env};
use crate::run::{check_read, timed_loop, top_up_writes, Exec, Limit, Untraced};
use crate::stats::{json_escape, mean, median, quantile, ratio, us, Metric};
use crate::verify::{Answered, Verifier};
use crate::workload::{Read, WriteBatch};
use crate::{Options, Report};
use beas_common::{BeasError, ResourceQuota, Result};
use beas_core::{
    execute_bounded_with, execute_ctx_with, generate_bounded_plan, BeasSystem, Checker, QueryGraph,
};
use beas_obs::clock;
use beas_service::{admit_prepared, Decision, QueryService};
use beas_sql::{parse_select, Binder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Conventional-engine reads every traced run times at least; on
/// workloads whose sequence issues fewer (`tlc_hot`), pooled uncovered
/// reads run after the loop.
const MIN_ENGINE_READS: usize = 16;
/// Requests whose individual spans are written out (all are summarized).
const WRITTEN_REQUESTS: u32 = 500;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request (operation) the span belongs to.
    pub request: u32,
    /// Index of the parent span; `None` for a request's root.
    pub parent: Option<usize>,
    /// Layer call, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open request: its root span.
#[derive(Debug)]
pub struct Request {
    root: usize,
    request: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every recorded span, in start order.
    pub spans: Vec<Span>,
    requests: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: clock::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a request with root span `name`.
    pub fn begin(&mut self, name: &'static str) -> Request {
        let start_ns = self.now_ns();
        let request = self.requests;
        self.requests += 1;
        self.spans.push(Span {
            request,
            parent: None,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Request {
            root: self.spans.len() - 1,
            request,
        }
    }

    /// Time `f` as child span `name` of `req`; returns its result and
    /// duration in ns.
    pub fn time<T>(
        &mut self,
        req: &Request,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            request: req.request,
            parent: Some(req.root),
            name,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// Close `req`; returns its duration in ns.
    pub fn end(&mut self, req: Request) -> u64 {
        let end_ns = self.now_ns();
        let root = &mut self.spans[req.root];
        root.end_ns = end_ns;
        root.duration()
    }

    /// Self time of every span: its duration minus its children's.  `None`
    /// when some span's children outlast it (they overlap or escape it).
    pub fn self_times(&self) -> Option<Vec<u64>> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, &c)| span.duration().checked_sub(c))
            .collect()
    }

    /// Whether, for every request, the self times of its spans sum to its
    /// root span's duration.
    pub fn self_times_sum_to_requests(&self) -> bool {
        let Some(selfs) = self.self_times() else {
            return false;
        };
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for (span, s) in self.spans.iter().zip(&selfs) {
            *sums.entry(span.request).or_default() += s;
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .all(|root| sums.get(&root.request) == Some(&root.duration()))
    }

    /// Spans as JSON lines: the first requests span by span, then one
    /// summary line per span name with the total and median self time.
    pub fn to_json_lines(&self) -> String {
        let selfs = self
            .self_times()
            .unwrap_or_else(|| vec![0; self.spans.len()]);
        let mut out = String::new();
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (i, (span, &s)) in self.spans.iter().zip(&selfs).enumerate() {
            by_name.entry(span.name).or_default().push(us(s));
            if span.request < WRITTEN_REQUESTS {
                let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"span\": {i}, \"request\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                     \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {s}}}",
                    span.request,
                    json_escape(span.name),
                    span.start_ns,
                    span.end_ns
                );
            }
        }
        for (name, selfs) in by_name {
            let _ = writeln!(
                out,
                "{{\"summary\": \"{}\", \"count\": {}, \"self_total_us\": {}, \"self_p50_us\": {}}}",
                json_escape(name),
                selfs.len(),
                selfs.iter().sum::<f64>(),
                median(&selfs)
            );
        }
        out
    }
}

/// Per-layer samples of the traced run.
#[derive(Debug, Default)]
struct Layers {
    parse: Vec<f64>,
    bind: Vec<f64>,
    graph: Vec<f64>,
    check: Vec<f64>,
    plan: Vec<f64>,
    prepare_hit: Vec<f64>,
    prepare_miss: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    fetch: Vec<f64>,
    fetch_steps: Vec<f64>,
    fetch_tuples: Vec<f64>,
    fetch_ns_total: u64,
    fetch_tuples_total: u64,
    finalize: Vec<f64>,
    slack: Vec<f64>,
    admit: Vec<f64>,
    bounded_path: Vec<f64>,
    baseline_path: Vec<f64>,
    decisions_bounded: u64,
    decisions_baseline: u64,
    engine: Vec<f64>,
    engine_tuples: Vec<f64>,
    engine_rows_total: u64,
    engine_tuples_total: u64,
    fork: Vec<f64>,
    insert: Vec<f64>,
    delete: Vec<f64>,
    publish: Vec<f64>,
    statistics: Vec<f64>,
}

/// The traced path.  `counted` is off during warm-up and top-ups, whose
/// calls give unit costs but do not belong to the workload's mix.
#[derive(Debug, Default)]
struct Traced {
    tracer: Tracer,
    layers: Layers,
    counted: bool,
}

impl Traced {
    fn read_spans(&mut self, req: &Request, system: &BeasSystem, read: &Read) -> Result<Answered> {
        let (t, l) = (&mut self.tracer, &mut self.layers);
        let (stmt, ns) = t.time(req, "sql.parse", || parse_select(&read.sql));
        l.parse.push(us(ns));
        let (query, ns) = t.time(req, "sql.bind", || {
            Binder::new(system.database()).bind(&stmt?)
        });
        l.bind.push(us(ns));
        let query = query?;
        let (graph, ns) = t.time(req, "core.graph", || QueryGraph::build(&query));
        l.graph.push(us(ns));
        let graph = graph?;
        let (coverage, ns) = t.time(req, "core.check", || {
            Checker::new(system.access_schema()).check(&query, &graph)
        });
        l.check.push(us(ns));
        let plan = if coverage.covered {
            let (plan, ns) = t.time(req, "core.plan", || {
                generate_bounded_plan(&query, &graph, &coverage)
            });
            l.plan.push(us(ns));
            Some(plan?)
        } else {
            None
        };
        let (prepared, prepare_ns) =
            t.time(req, "core.prepare", || system.prepare_traced(&read.sql));
        let (prepared, hit) = prepared?;
        if hit {
            l.prepare_hit.push(us(prepare_ns));
        } else {
            l.prepare_miss.push(us(prepare_ns));
        }
        if self.counted {
            *if hit {
                &mut l.cache_hits
            } else {
                &mut l.cache_misses
            } += 1;
        }
        let (decision, admit_ns) = t.time(req, "service.admit", || {
            admit_prepared(system, &prepared, &ResourceQuota::unlimited(), false)
        });
        l.admit.push(us(admit_ns));
        let generation = system.database().generation();
        match decision? {
            Decision::Bounded { deduced_bound } => {
                let plan = plan.ok_or_else(|| {
                    BeasError::execution("the service planned a read the checker left uncovered")
                })?;
                let (ctx, fetch_ns) = t.time(req, "core.fetch", || {
                    execute_ctx_with(
                        &plan,
                        &query,
                        &graph,
                        system.indexes(),
                        system.fetch_config(),
                        None,
                    )
                    .map(|ctx| (ctx.metrics.operators.len(), ctx.tuples_accessed))
                });
                let (steps, fetched) = ctx?;
                l.fetch.push(us(fetch_ns));
                l.fetch_steps.push(steps as f64);
                l.fetch_tuples.push(fetched as f64);
                l.fetch_ns_total += fetch_ns;
                l.fetch_tuples_total += fetched;
                let (out, exec_ns) = t.time(req, "core.execute", || {
                    execute_bounded_with(
                        &plan,
                        &query,
                        &graph,
                        system.indexes(),
                        system.fetch_config(),
                        None,
                    )
                });
                let out = out?;
                // Finalize is what the full execution spends beyond its own
                // fetch steps (the executor times each step it runs).
                let refetch: u64 = out
                    .metrics
                    .operators
                    .iter()
                    .filter(|op| op.operator.starts_with("Fetch("))
                    .map(|op| op.elapsed.as_nanos() as u64)
                    .sum();
                l.finalize.push(us(exec_ns.saturating_sub(refetch)));
                l.slack
                    .push(deduced_bound as f64 / out.tuples_accessed.max(1) as f64);
                l.bounded_path.push(us(prepare_ns + admit_ns + exec_ns));
                if self.counted {
                    l.decisions_bounded += 1;
                }
                Ok(Answered {
                    rows: out.rows,
                    tuples: out.tuples_accessed,
                    bound: Some(deduced_bound),
                    generation,
                })
            }
            Decision::Baseline { .. } => {
                let (out, ns) = t.time(req, "engine.execute", || {
                    system.execute_prepared(&prepared, None)
                });
                let out = out?;
                l.engine.push(us(ns));
                l.engine_tuples.push(out.tuples_accessed as f64);
                l.engine_tuples_total += out.tuples_accessed;
                l.engine_rows_total += out.rows.len() as u64;
                l.baseline_path.push(us(prepare_ns + admit_ns + ns));
                if self.counted {
                    l.decisions_baseline += 1;
                }
                Ok(Answered {
                    rows: out.rows,
                    tuples: out.tuples_accessed,
                    bound: None,
                    generation,
                })
            }
            other => Err(BeasError::execution(format!(
                "unexpected admission decision under an unlimited quota: {other}"
            ))),
        }
    }

    fn write_spans(
        &mut self,
        req: &Request,
        service: &QueryService,
        batch: WriteBatch,
    ) -> Result<usize> {
        let (t, l) = (&mut self.tracer, &mut self.layers);
        let insert = matches!(batch, WriteBatch::Insert(_));
        let shadow_batch = batch.clone();
        // The fork and maintenance the service performs, on a fork that is
        // dropped afterwards; then the service's own write.
        let (mut shadow, fork_ns) = t.time(req, "core.fork", || service.snapshot().fork());
        let name = if insert {
            "access.insert"
        } else {
            "access.delete"
        };
        let (applied, maintain_ns) = t.time(req, name, || write_system(&mut shadow, shadow_batch));
        applied?;
        drop(shadow);
        let (rows, write_ns) = t.time(req, "service.write", || write_service(service, batch));
        let rows = rows?;
        let (stats, statistics_ns) = t.time(req, "storage.statistics", || {
            service.snapshot().database().statistics("call").map(drop)
        });
        stats?;
        l.fork.push(us(fork_ns));
        if insert { &mut l.insert } else { &mut l.delete }.push(us(maintain_ns));
        l.publish
            .push((write_ns as f64 - fork_ns as f64 - maintain_ns as f64) / 1_000.0);
        l.statistics.push(us(statistics_ns));
        Ok(rows)
    }
}

impl Exec for Traced {
    fn read(&mut self, env: &Env, read: &Read) -> Result<Answered> {
        let snapshot = env.service.snapshot();
        let req = self.tracer.begin("read");
        let out = self.read_spans(&req, &snapshot, read);
        self.tracer.end(req);
        out
    }

    fn write(&mut self, service: &QueryService, batch: WriteBatch) -> Result<usize> {
        let req = self.tracer.begin("write");
        let out = self.write_spans(&req, service, batch);
        self.tracer.end(req);
        out
    }
}

fn per_layer_metrics(l: &Layers, overhead_frac: f64, invalidations: u64) -> Vec<Metric> {
    vec![
        Metric::new("sql.parse_us", median(&l.parse), "us"),
        Metric::new("sql.bind_us", median(&l.bind), "us"),
        Metric::new("core.graph_us", median(&l.graph), "us"),
        Metric::new("core.check_us", median(&l.check), "us"),
        Metric::new("core.plan_us", median(&l.plan), "us"),
        Metric::new("core.prepare_hit_us", median(&l.prepare_hit), "us"),
        Metric::new("core.prepare_miss_us", median(&l.prepare_miss), "us"),
        Metric::new(
            "core.plan_cache_hit_rate",
            ratio(l.cache_hits as f64, (l.cache_hits + l.cache_misses) as f64),
            "frac",
        ),
        Metric::new(
            "core.plan_cache_invalidations",
            invalidations as f64,
            "count",
        ),
        Metric::new("core.fetch_p50_us", median(&l.fetch), "us"),
        Metric::new("core.fetch_p99_us", quantile(&l.fetch, 0.99), "us"),
        Metric::new("core.fetch_steps_per_read", mean(&l.fetch_steps), "count"),
        Metric::new(
            "core.fetch_tuples_per_read",
            mean(&l.fetch_tuples),
            "tuples",
        ),
        Metric::new(
            "core.fetch_ns_per_tuple",
            ratio(l.fetch_ns_total as f64, l.fetch_tuples_total as f64),
            "ns",
        ),
        Metric::new("core.finalize_us", median(&l.finalize), "us"),
        Metric::new("core.bound_slack", median(&l.slack), "ratio"),
        Metric::new("service.admit_us", median(&l.admit), "us"),
        Metric::new("service.bounded_p50_us", median(&l.bounded_path), "us"),
        Metric::new("service.baseline_p50_us", median(&l.baseline_path), "us"),
        Metric::new(
            "service.decisions.bounded",
            l.decisions_bounded as f64,
            "count",
        ),
        Metric::new(
            "service.decisions.baseline",
            l.decisions_baseline as f64,
            "count",
        ),
        Metric::new("engine.execute_p50_us", median(&l.engine), "us"),
        Metric::new("engine.execute_p99_us", quantile(&l.engine, 0.99), "us"),
        Metric::new(
            "engine.tuples_scanned_per_read",
            mean(&l.engine_tuples),
            "tuples",
        ),
        Metric::new(
            "engine.rows_out_per_tuple",
            ratio(l.engine_rows_total as f64, l.engine_tuples_total as f64),
            "ratio",
        ),
        Metric::new("core.fork_us", median(&l.fork), "us"),
        Metric::new("access.insert_us", median(&l.insert), "us"),
        Metric::new("access.delete_us", median(&l.delete), "us"),
        Metric::new("service.publish_us", median(&l.publish), "us"),
        Metric::new("storage.statistics_us", median(&l.statistics), "us"),
        Metric::new("obs.trace_overhead_frac", overhead_frac, "frac"),
    ]
}

fn write_spans_file(opts: &Options, tracer: &Tracer) -> std::io::Result<()> {
    let Some(dir) = &opts.out_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(tracer.to_json_lines().as_bytes())?;
    file.flush()
}

/// The traced run.  Half the run measures untraced throughput on a fresh
/// set-up; the other half replays the same sequence traced, then tops up
/// write and conventional-engine samples.
pub fn run(opts: &Options) -> Result<Report> {
    let mut env = Env::build(opts.workload, opts.scale, opts.seed)?;
    env.warm()?;
    let mut verifier = Verifier::new(opts.seed);
    let untraced = timed_loop(
        &mut env,
        &mut Untraced,
        &mut verifier,
        Limit::of(opts, 0.5),
        None,
    );
    drop(env);

    let mut env = Env::build(opts.workload, opts.scale, opts.seed)?;
    let mut traced = Traced::default();
    verifier.forget();
    let warmup = env.stream.warmup();
    for read in &warmup {
        let out = traced.read(&env, read);
        check_read(&env, &mut verifier, read, out, false);
    }
    let invalidations_before = env.service.plan_cache_stats().invalidations;
    traced.counted = true;
    let mut stats = timed_loop(
        &mut env,
        &mut traced,
        &mut verifier,
        Limit::of(opts, 0.5),
        opts.plant_wrong_answer_at,
    );
    traced.counted = false;
    let invalidations = env.service.plan_cache_stats().invalidations - invalidations_before;
    let writes_before = stats.write_ns.len();
    top_up_writes(&mut env, &mut traced, &mut verifier, &mut stats);
    let mut pooled = 0;
    while traced.layers.engine.len() < MIN_ENGINE_READS {
        let read = env.stream.pooled_uncovered(pooled);
        pooled += 1;
        let out = traced.read(&env, &read);
        stats.attempted += 1;
        check_read(&env, &mut verifier, &read, out, false);
    }
    if !traced.tracer.self_times_sum_to_requests() {
        verifier.fail("span self times do not sum to their request's duration".to_string());
    }
    write_spans_file(opts, &traced.tracer)
        .map_err(|e| BeasError::storage(format!("writing spans: {e}")))?;

    let overhead = 1.0 - ratio(stats.throughput(), untraced.throughput());
    let metrics = per_layer_metrics(&traced.layers, overhead, invalidations);
    let attempted = untraced.attempted + warmup.len() as u64 + stats.attempted;
    let mut report = Report::new(opts, metrics, &verifier, attempted);
    report.fingerprint = stats.fingerprint;
    report.meta.extend([
        ("untraced_ops", untraced.ops.to_string()),
        ("traced_ops", stats.ops.to_string()),
        (
            "untraced_throughput_ops_s",
            untraced.throughput().to_string(),
        ),
        ("traced_throughput_ops_s", stats.throughput().to_string()),
        (
            "top_up_writes",
            (stats.write_ns.len() - writes_before).to_string(),
        ),
        ("top_up_engine_reads", pooled.to_string()),
        ("spans", traced.tracer.spans.len().to_string()),
    ]);
    Ok(report)
}
