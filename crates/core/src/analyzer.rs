//! The performance analyzer.
//!
//! After a query plan is carried out, the demo shows a performance analysis
//! (Fig. 3): the overall execution time, the acceleration ratio compared to
//! commercial DBMSs, the total number of tuples fetched and the number of
//! access constraints employed, plus a per-operation cost breakdown for both
//! BEAS and the conventional plans.  This module renders exactly that report
//! from the metrics the executors already collect.

use crate::system::EvaluationMode;
use beas_engine::{format_duration, AnalyzeNode, ExecutionMetrics, OptimizerProfile};
use std::fmt;
use std::time::Duration;

/// The measurements of one system (BEAS or one baseline profile) on a query.
#[derive(Debug, Clone)]
pub struct SystemMeasurement {
    /// Display name, e.g. `BEAS`, `pg-like (PostgreSQL)`.
    pub system: String,
    /// Total execution time.
    pub elapsed: Duration,
    /// Total tuples accessed (fetched or scanned).
    pub tuples_accessed: u64,
    /// Number of answer rows produced.
    pub rows: u64,
    /// Per-operator breakdown.
    pub metrics: ExecutionMetrics,
}

impl SystemMeasurement {
    /// Build a measurement from execution metrics.
    pub fn new(system: impl Into<String>, metrics: ExecutionMetrics, rows: u64) -> Self {
        SystemMeasurement {
            system: system.into(),
            elapsed: metrics.elapsed,
            tuples_accessed: metrics.total_tuples_accessed(),
            rows,
            metrics,
        }
    }

    /// Label for a baseline profile.
    pub fn baseline_label(profile: OptimizerProfile) -> String {
        format!("{} ({})", profile.name(), profile.stands_in_for())
    }
}

/// One baseline engine's run in a [`QueryAnalysis`]: its measurement and
/// its per-operator `EXPLAIN ANALYZE` tree.
#[derive(Debug, Clone)]
pub struct BaselineAnalysis {
    /// Time, tuples accessed, answers and the flat metrics of the run.
    pub measurement: SystemMeasurement,
    /// The plan tree with runtime metrics attached to every operator,
    /// including `Exchange(..)` / `Vectorized(..)` annotations when those
    /// physical paths ran.
    pub tree: AnalyzeNode,
}

/// The Fig. 3 report of one query, the output of
/// [`crate::BeasSystem::explain_analyze`]: one timed run through BEAS
/// (bounded when covered, partial/conventional otherwise) and one timed
/// `EXPLAIN ANALYZE` run per baseline optimizer profile.
///
/// The BEAS breakdown stays flat — a bounded plan is a fetch *pipeline*
/// (`Fetch(ψ1) → Fetch(ψ2) → …`), not an operator tree — while each
/// baseline carries its per-operator tree.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// The SQL text analysed.
    pub sql: String,
    /// How BEAS evaluated the query.
    pub mode: EvaluationMode,
    /// Deduced upper bound on tuples accessed (fully bounded plans only).
    pub deduced_bound: Option<u64>,
    /// Number of access constraints employed.
    pub constraints_used: usize,
    /// The BEAS measurement (flat fetch-pipeline breakdown).
    pub beas: SystemMeasurement,
    /// One run per baseline profile, in [`OptimizerProfile::all`] order.
    pub baselines: Vec<BaselineAnalysis>,
}

impl QueryAnalysis {
    /// Whether BEAS answered the query with a fully bounded plan.
    pub fn bounded(&self) -> bool {
        self.mode == EvaluationMode::Bounded
    }

    /// Speed-up of BEAS over a baseline (baseline time / BEAS time).
    pub fn speedup_over(&self, baseline: &SystemMeasurement) -> f64 {
        let beas = self.beas.elapsed.as_secs_f64().max(1e-9);
        baseline.elapsed.as_secs_f64() / beas
    }

    /// Data-access reduction factor over a baseline
    /// (baseline tuples / BEAS tuples).
    pub fn access_reduction_over(&self, baseline: &SystemMeasurement) -> f64 {
        baseline.tuples_accessed as f64 / self.beas.tuples_accessed.max(1) as f64
    }

    /// Render the report: one table comparing BEAS with every baseline,
    /// then the BEAS breakdown, then each baseline's `EXPLAIN ANALYZE` tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query: {}\n", self.sql));
        out.push_str(&format!(
            "evaluation: {}   access constraints used: {}   deduced bound: {}\n",
            match self.mode {
                EvaluationMode::Bounded => "bounded",
                EvaluationMode::PartiallyBounded => "partially bounded",
                EvaluationMode::Conventional => "conventional",
            },
            self.constraints_used,
            self.deduced_bound
                .map(|b| b.to_string())
                .unwrap_or_else(|| "n/a".to_string()),
        ));
        out.push_str(&format!(
            "{:<28} {:>14} {:>16} {:>12} {:>12}\n",
            "system", "time", "tuples accessed", "answers", "speed-up"
        ));
        let rows = std::iter::once(&self.beas).chain(self.baselines.iter().map(|b| &b.measurement));
        for m in rows {
            out.push_str(&format!(
                "{:<28} {:>14} {:>16} {:>12} {:>11.1}x\n",
                m.system,
                format_duration(m.elapsed),
                m.tuples_accessed,
                m.rows,
                self.speedup_over(m),
            ));
        }
        out.push_str("\n-- BEAS per-operation breakdown --\n");
        out.push_str(&self.beas.metrics.render());
        for b in &self.baselines {
            out.push_str(&format!(
                "\n-- {} EXPLAIN ANALYZE --\n",
                b.measurement.system
            ));
            out.push_str(&b.tree.render());
        }
        out
    }
}

impl fmt::Display for QueryAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn metrics(ms: u64, tuples: u64) -> ExecutionMetrics {
        let mut m = ExecutionMetrics::new();
        m.record("op", 10, tuples, Duration::from_millis(ms));
        m.elapsed = Duration::from_millis(ms);
        m
    }

    fn baseline(system: &str, metrics: ExecutionMetrics, rows: u64) -> BaselineAnalysis {
        let tree = AnalyzeNode {
            label: "SeqScan(t)".into(),
            metric: metrics.operators[0].clone(),
            annotations: Vec::new(),
            children: Vec::new(),
        };
        BaselineAnalysis {
            measurement: SystemMeasurement::new(system, metrics, rows),
            tree,
        }
    }

    #[test]
    fn speedups_and_render() {
        let analysis = QueryAnalysis {
            sql: "SELECT 1 FROM t".into(),
            mode: EvaluationMode::Bounded,
            constraints_used: 3,
            deduced_bound: Some(12_024_000),
            beas: SystemMeasurement::new("BEAS", metrics(1, 100), 5),
            baselines: vec![
                baseline(
                    &SystemMeasurement::baseline_label(OptimizerProfile::PgLike),
                    metrics(1953, 1_000_000),
                    5,
                ),
                baseline(
                    &SystemMeasurement::baseline_label(OptimizerProfile::MySqlLike),
                    metrics(6562, 1_000_000),
                    5,
                ),
            ],
        };
        let speedup = analysis.speedup_over(&analysis.baselines[0].measurement);
        assert!((speedup - 1953.0).abs() < 1.0);
        assert!(analysis.access_reduction_over(&analysis.baselines[0].measurement) > 9_000.0);
        let s = analysis.render();
        assert!(s.contains("BEAS"));
        assert!(s.contains("pg-like (PostgreSQL)"));
        assert!(s.contains("deduced bound: 12024000"));
        assert!(s.contains("1953.0x"));
        assert!(s.contains("per-operation breakdown"));
        assert!(s.contains("-- mysql-like (MySQL) EXPLAIN ANALYZE --"));
        assert_eq!(format!("{analysis}"), s);
    }

    #[test]
    fn handles_zero_division_gracefully() {
        let analysis = QueryAnalysis {
            sql: "q".into(),
            mode: EvaluationMode::Conventional,
            constraints_used: 0,
            deduced_bound: None,
            beas: SystemMeasurement::new("BEAS", ExecutionMetrics::new(), 0),
            baselines: vec![baseline("base", metrics(10, 10), 0)],
        };
        let base = &analysis.baselines[0].measurement;
        assert!(analysis.speedup_over(base).is_finite());
        assert!(analysis.access_reduction_over(base).is_finite());
        assert!(analysis.speedup_over(&analysis.beas).is_finite());
        assert!(analysis.render().contains("n/a"));
    }
}
