//! The untraced run: end-to-end metrics through `Session::execute` and
//! `QueryService::insert_rows`/`delete_rows` with tracing off.

use crate::env::{write_service, Env};
use crate::stats::{median, peak_rss_mb, quantile, ratio, us, Metric};
use crate::verify::{Answered, Verifier};
use crate::workload::{Op, Read, WriteBatch};
use crate::{Options, Report};
use beas_common::{BeasError, Result, Row, Value};
use beas_obs::clock;
use beas_service::{Decision, QueryService};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Write batches every run times at least.  On workloads whose stream
/// issues no writes they go to the side service, spread evenly over the
/// loop; where a writing stream issues fewer, the rest run after the loop.
const MIN_WRITES: usize = 64;
/// The timed loop is cut into this many equal rounds; throughput and read
/// latency are the median over rounds, so a burst of load from outside the
/// process that covers less than half of them does not move the result.
const ROUNDS: usize = 10;

/// When a timed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this much measured time (answer checks and side writes
    /// excluded).
    Time(Duration),
    /// After exactly this many operations.
    Ops(u64),
}

impl Limit {
    /// The limit `opts` asks for, with the time share `share` of the run.
    pub fn of(opts: &Options, share: f64) -> Limit {
        match opts.max_ops {
            Some(n) => Limit::Ops(n),
            None => Limit::Time(Duration::from_secs_f64(opts.seconds * share)),
        }
    }

    /// How far a loop that ran `ops` operations in `measured` is: 1.0 when
    /// done.
    pub fn progress(self, ops: u64, measured: Duration) -> f64 {
        match self {
            Limit::Time(t) => measured.as_secs_f64() / t.as_secs_f64(),
            Limit::Ops(n) => ops as f64 / n as f64,
        }
    }
}

/// One round of a timed loop.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Operations issued in the round.
    pub ops: u64,
    /// Measured time of the round.
    pub measured: Duration,
    /// Wall time per read, ns.
    pub read_ns: Vec<u64>,
}

/// What one timed loop observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// The loop's rounds.
    pub rounds: Vec<Round>,
    /// Write wall time per batch, ns.
    pub write_ns: Vec<u64>,
    /// Operations issued by the stream.
    pub ops: u64,
    /// Tuples accessed summed over answered reads.
    pub tuples: u64,
    /// Answered reads.
    pub answered: u64,
    /// Operations attempted, writes outside the stream included.
    pub attempted: u64,
    /// The loop's measured time: wall time minus answer checks and writes
    /// outside the stream.
    pub measured: Duration,
    /// Hash of the issued operation sequence.
    pub fingerprint: u64,
}

impl LoopStats {
    /// Reads issued.
    pub fn reads(&self) -> usize {
        self.rounds.iter().map(|r| r.read_ns.len()).sum()
    }

    /// Operations per measured second of each round that ran.
    pub fn round_throughputs(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| r.ops > 0)
            .map(|r| ratio(r.ops as f64, r.measured.as_secs_f64()))
            .collect()
    }

    /// The `q`-quantile of read time of each round that read, us.
    pub fn round_read_us(&self, q: f64) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| !r.read_ns.is_empty())
            .map(|r| quantile(&us_samples(&r.read_ns), q))
            .collect()
    }

    /// Median over rounds of the round's operations per measured second.
    pub fn throughput(&self) -> f64 {
        median(&self.round_throughputs())
    }

    /// Median over rounds of the round's `q`-quantile of read time, us.
    pub fn read_us(&self, q: f64) -> f64 {
        median(&self.round_read_us(q))
    }
}

/// Fold `op` into a running hash of the operation sequence.
pub fn fingerprint(hasher: &mut DefaultHasher, op: &Op) {
    match op {
        Op::Read(read) => read.sql.hash(hasher),
        Op::Write(batch) => format!("{batch:?}").hash(hasher),
    }
}

/// Corrupt an answer: drop its last row, or invent one when it is empty.
pub fn plant_wrong_answer(rows: &mut Vec<Row>) {
    if rows.pop().is_none() {
        rows.push(vec![Value::Int(-1)]);
    }
}

/// How a loop executes operations.
pub trait Exec {
    /// Execute one read.
    fn read(&mut self, env: &Env, read: &Read) -> Result<Answered>;
    /// Apply one write batch through `service`; returns the rows affected.
    fn write(&mut self, service: &QueryService, batch: WriteBatch) -> Result<usize>;
}

/// The untraced path: `Session::execute` and the service's writes.
#[derive(Debug, Default)]
pub struct Untraced;

impl Exec for Untraced {
    fn read(&mut self, env: &Env, read: &Read) -> Result<Answered> {
        let outcome = env.session.execute(&read.sql)?;
        let bound = match outcome.decision {
            Decision::Bounded { deduced_bound } => Some(deduced_bound),
            _ => None,
        };
        let answer = outcome
            .answer
            .ok_or_else(|| BeasError::invalid_argument(format!("refused: {}", outcome.decision)))?;
        Ok(Answered {
            rows: answer.rows,
            tuples: answer.tuples_accessed,
            bound,
            generation: outcome.generation,
        })
    }

    fn write(&mut self, service: &QueryService, batch: WriteBatch) -> Result<usize> {
        write_service(service, batch)
    }
}

/// Check one read; returns the tuples it accessed when it passed.
pub fn check_read(
    env: &Env,
    verifier: &mut Verifier,
    read: &Read,
    out: Result<Answered>,
    plant: bool,
) -> Option<u64> {
    let mut answer = match out {
        Ok(answer) => answer,
        Err(e) => {
            verifier.fail(format!("read failed ({e}): {}", read.sql));
            return None;
        }
    };
    if plant {
        plant_wrong_answer(&mut answer.rows);
    }
    let snapshot = env.service.snapshot();
    if snapshot.database().generation() != answer.generation {
        verifier.fail(format!("snapshot moved under a closed loop: {}", read.sql));
        return None;
    }
    let tuples = answer.tuples;
    verifier
        .read(snapshot.database(), &read.sql, answer, plant)
        .then_some(tuples)
}

/// Apply one write through `service` and check the rows it affected.
fn timed_write(
    service: &QueryService,
    exec: &mut impl Exec,
    verifier: &mut Verifier,
    stats: &mut LoopStats,
    batch: WriteBatch,
) {
    let expected = batch.expected_rows();
    let what: String = format!("{batch:?}").chars().take(80).collect();
    let start = clock::now();
    let out = exec.write(service, batch);
    stats.write_ns.push(start.elapsed().as_nanos() as u64);
    stats.attempted += 1;
    match out {
        Ok(n) if n == expected => {}
        Ok(n) => verifier.fail(format!(
            "write affected {n} rows, expected {expected}: {what}"
        )),
        Err(e) => verifier.fail(format!("write refused ({e}): {what}")),
    }
}

/// Run the closed loop until `limit`.  `plant_at` corrupts the answer of
/// that read (0-based read index) before it is checked.
pub fn timed_loop(
    env: &mut Env,
    exec: &mut impl Exec,
    verifier: &mut Verifier,
    limit: Limit,
    plant_at: Option<u64>,
) -> LoopStats {
    let mut stats = LoopStats {
        rounds: vec![Round::default(); ROUNDS],
        ..LoopStats::default()
    };
    let mut hasher = DefaultHasher::new();
    let mut reads: u64 = 0;
    let mut side_writes = 0;
    let mut round = 0;
    let mut round_start = Duration::ZERO;
    // Time that is not the workload's: answer checks and side writes.
    let mut excluded = Duration::ZERO;
    let start = clock::now();
    loop {
        let measured = start.elapsed().saturating_sub(excluded);
        let progress = limit.progress(stats.ops, measured);
        if progress >= 1.0 {
            stats.rounds[round].measured = measured - round_start;
            stats.measured = measured;
            break;
        }
        let now_round = ((progress * ROUNDS as f64) as usize).min(ROUNDS - 1);
        while round < now_round {
            stats.rounds[round].measured = measured - round_start;
            round_start = measured;
            round += 1;
        }
        if let Some(side) = &env.side {
            if side_writes < MIN_WRITES && progress * MIN_WRITES as f64 >= side_writes as f64 {
                let t = clock::now();
                let batch = env.stream.next_write();
                timed_write(side, exec, verifier, &mut stats, batch);
                side_writes += 1;
                excluded += t.elapsed();
                continue;
            }
        }
        let op = env.stream.next_op();
        fingerprint(&mut hasher, &op);
        stats.ops += 1;
        stats.rounds[round].ops += 1;
        match op {
            Op::Read(read) => {
                let t = clock::now();
                let out = exec.read(env, &read);
                stats.rounds[round]
                    .read_ns
                    .push(t.elapsed().as_nanos() as u64);
                stats.attempted += 1;
                let c = clock::now();
                let plant = plant_at == Some(reads);
                reads += 1;
                if let Some(tuples) = check_read(env, verifier, &read, out, plant) {
                    stats.tuples += tuples;
                    stats.answered += 1;
                }
                excluded += c.elapsed();
            }
            // A write's check is a row count: nothing to exclude.
            Op::Write(batch) => timed_write(&env.service, exec, verifier, &mut stats, batch),
        }
    }
    stats.fingerprint = hasher.finish();
    stats
}

/// Top write samples up to `MIN_WRITES` after the loop.
pub fn top_up_writes(
    env: &mut Env,
    exec: &mut impl Exec,
    verifier: &mut Verifier,
    stats: &mut LoopStats,
) {
    while stats.write_ns.len() < MIN_WRITES {
        let batch = env.stream.next_write();
        timed_write(env.write_target(), exec, verifier, stats, batch);
    }
}

fn us_samples(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| us(n)).collect()
}

/// The untraced run: several set-ups (median reported), then one timed
/// loop on the last.
pub fn run(opts: &Options) -> Result<Report> {
    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut env: Option<Env> = None;
    for _ in 0..opts.setups.max(1) {
        // Free the previous set-up first, so peak memory is one system's.
        drop(env.take());
        let start = clock::now();
        let built = Env::build(opts.workload, opts.scale, opts.seed)?;
        built.warm()?;
        setup_s.push(start.elapsed().as_secs_f64());
        env = Some(built);
    }
    let mut env = env.expect("at least one set-up ran");
    let mut verifier = Verifier::new(opts.seed);
    let mut stats = timed_loop(
        &mut env,
        &mut Untraced,
        &mut verifier,
        Limit::of(opts, 1.0),
        opts.plant_wrong_answer_at,
    );
    top_up_writes(&mut env, &mut Untraced, &mut verifier, &mut stats);
    let writes = us_samples(&stats.write_ns);
    let ok_frac = 1.0 - ratio(verifier.failed as f64, stats.attempted as f64);
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("throughput_ops_s", stats.throughput(), "1/s"),
        Metric::new("read_p50_us", stats.read_us(0.5), "us"),
        Metric::new("read_p99_us", stats.read_us(0.99), "us"),
        Metric::new("write_p50_us", median(&writes), "us"),
        Metric::new("write_p90_us", quantile(&writes, 0.90), "us"),
        Metric::new(
            "tuples_per_read",
            ratio(stats.tuples as f64, stats.answered as f64),
            "tuples",
        ),
        Metric::new("ok_frac", ok_frac, "frac"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let mut report = Report::new(opts, metrics, &verifier, stats.attempted);
    report.fingerprint = stats.fingerprint;
    report.meta.extend([
        ("setups", opts.setups.to_string()),
        ("setup_s_all", format!("{setup_s:?}")),
        ("measured_s", stats.measured.as_secs_f64().to_string()),
        ("loop_ops", stats.ops.to_string()),
        ("reads", stats.reads().to_string()),
        ("writes", stats.write_ns.len().to_string()),
        ("compared_reads", verifier.compared.to_string()),
        ("round_ops_s", format!("{:.0?}", stats.round_throughputs())),
        (
            "round_read_p50_us",
            format!("{:.1?}", stats.round_read_us(0.5)),
        ),
    ]);
    Ok(report)
}
