#![forbid(unsafe_code)]
//! # svcbench
//!
//! The service-level TLC benchmark: seeded workloads through the public
//! `QueryService`/`Session` API, with every answer checked.
//!
//! * [`run::run`] — the untraced run: end-to-end metrics with tracing off;
//! * [`trace::run`] — the traced run: the same operation sequence replayed
//!   through each layer's public functions, timed by spans kept in memory.
//!
//! See `README.md` for the workloads, the metrics and what each should move.

pub mod env;
pub mod run;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;

use stats::{json_escape, Metric};
use std::path::PathBuf;
use verify::Verifier;
use workload::Workload;

/// TLC scale factor of the benchmark (≈93k rows).
const DEFAULT_SCALE: u32 = 16;
/// Set-ups per untraced run; `setup_s` is their median.
const DEFAULT_SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the data and of the operation stream.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// TLC scale factor.
    pub scale: u32,
    /// Set-ups of the untraced run.
    pub setups: usize,
    /// Stop after this many operations instead of after `seconds`.
    pub max_ops: Option<u64>,
    /// Corrupt the answer of this read before checking it (tests only).
    pub plant_wrong_answer_at: Option<u64>,
    /// Where the traced run writes its spans; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl Options {
    /// The benchmark's defaults for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            scale: DEFAULT_SCALE,
            setups: DEFAULT_SETUPS,
            max_ops: None,
            plant_wrong_answer_at: None,
            out_dir: None,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: errors, refusals, wrong answers, violated bounds.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: Vec<Metric>,
    /// Run metadata (printed next to the metrics).
    pub meta: Vec<(&'static str, String)>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Hash of the issued operation sequence.
    pub fingerprint: u64,
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Report {
    /// A report of `metrics` with the failures `verifier` counted.
    pub fn new(
        opts: &Options,
        metrics: Vec<Metric>,
        verifier: &Verifier,
        attempted: u64,
    ) -> Report {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Report {
            correct: verifier.failed == 0,
            attempted: attempted.max(1),
            failed: verifier.failed,
            metrics,
            meta: vec![
                ("workload", opts.workload.name().to_string()),
                ("seed", opts.seed.to_string()),
                ("scale_factor", opts.scale.to_string()),
                ("nproc", nproc.to_string()),
                ("git_commit", git_commit()),
                ("trace", u8::from(opts.trace).to_string()),
                ("obs_trace_level", beas_obs::trace_level().to_string()),
                ("run_seconds", opts.seconds.to_string()),
            ],
            failures: verifier.failures.clone(),
            fingerprint: 0,
        }
    }

    /// The metadata as one JSON object line.
    pub fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }

    /// The result line the benchmark prints last.
    pub fn result_line(&self) -> String {
        stats::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run the benchmark as `opts` asks: the untraced or the traced run, with
/// the global trace level off.
pub fn run(opts: &Options) -> beas_common::Result<Report> {
    beas_obs::set_trace_level(beas_obs::TraceLevel::Off);
    if opts.trace {
        trace::run(opts)
    } else {
        run::run(opts)
    }
}
