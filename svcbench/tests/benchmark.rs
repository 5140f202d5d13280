//! Tests of the benchmark itself, at a tiny scale and a fixed op count.

use svcbench::trace::Tracer;
use svcbench::workload::Workload;
use svcbench::{run, Options, Report};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
    let mut opts = Options::new(workload, seed);
    opts.scale = 1;
    opts.setups = 1;
    opts.max_ops = Some(240);
    opts.trace = trace;
    opts
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn contract_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("entry has the key")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("a string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    let end_to_end = contract_metrics("end_to_end");
    let per_layer = contract_metrics("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in Workload::ALL {
        let report = run(&tiny(workload, 1, false)).expect("untraced run");
        assert!(report.correct, "{workload}: {:?}", report.failures);
        assert_eq!(emitted(&report), end_to_end, "{workload}");
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{workload}: end-to-end {} is {}",
                m.name,
                m.value
            );
        }
        let line = report.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );

        let report = run(&tiny(workload, 1, true)).expect("traced run");
        assert!(report.correct, "{workload} traced: {:?}", report.failures);
        assert_eq!(emitted(&report), per_layer, "{workload} traced");
    }
}

#[test]
fn a_planted_wrong_answer_is_caught() {
    for trace in [false, true] {
        let mut opts = tiny(Workload::Hot, 3, trace);
        opts.plant_wrong_answer_at = Some(17);
        let report = run(&opts).expect("run");
        assert!(!report.correct, "trace={trace}");
        assert_eq!(report.failed, 1, "trace={trace}: {:?}", report.failures);
        assert!(
            report.failures[0].starts_with("wrong answer"),
            "{:?}",
            report.failures
        );
        assert!(report.metric("ok_frac").is_none_or(|f| f < 1.0));
    }
}

#[test]
fn the_same_seed_issues_the_same_operations_and_tuples() {
    for workload in Workload::ALL {
        let a = run(&tiny(workload, 5, false)).expect("run");
        let b = run(&tiny(workload, 5, false)).expect("run");
        let c = run(&tiny(workload, 6, false)).expect("run");
        assert_eq!(a.fingerprint, b.fingerprint, "{workload}");
        assert_ne!(a.fingerprint, c.fingerprint, "{workload}");
        assert_eq!(
            a.metric("tuples_per_read"),
            b.metric("tuples_per_read"),
            "{workload}"
        );
        // The traced run replays the same sequence.
        let traced = run(&tiny(workload, 5, true)).expect("traced run");
        assert_eq!(a.fingerprint, traced.fingerprint, "{workload}");
    }
}

#[test]
fn self_times_sum_to_the_request() {
    let mut tracer = Tracer::default();
    let req = tracer.begin("read");
    let (_, a) = tracer.time(&req, "sql.parse", || {
        std::hint::black_box((0..1000).sum::<u64>())
    });
    let (_, b) = tracer.time(&req, "core.fetch", || {
        std::hint::black_box((0..5000).sum::<u64>())
    });
    let total = tracer.end(req);
    let selfs = tracer.self_times().expect("children nest in their root");
    assert_eq!(selfs[0], total - a - b);
    assert_eq!(selfs.iter().sum::<u64>(), total);
    assert!(tracer.self_times_sum_to_requests());
}
