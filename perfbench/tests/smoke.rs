//! A tiny run of every workload, untraced and traced: every check passes
//! and each mode prints exactly the metrics `BENCHMARK.json` names.

use std::collections::BTreeSet;
use std::path::Path;

use perfbench::plan::{Plan, WORKLOADS};
use perfbench::run::run;

/// The metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let trace_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-traces");
    for workload in WORKLOADS {
        let plan = Plan::new(workload, 0.2).expect("known workload");
        for traced in [false, true] {
            let report = run(&plan, 7, traced, &trace_dir).expect("run completes");
            assert!(
                report.correct(),
                "{workload} traced={traced}: {:#?}",
                report.notes
            );
            let metrics = if traced {
                &report.per_layer
            } else {
                &report.end_to_end
            };
            let printed: BTreeSet<String> = metrics.iter().map(|m| m.0.to_string()).collect();
            let section = if traced { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, declared(section), "{workload} traced={traced}");
            let json = report.json(traced);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
        let trace = trace_dir.join(format!("trace-{workload}-7.jsonl"));
        let spans = std::fs::read_to_string(trace).expect("traced run wrote its spans");
        for layer in [
            "bench.",
            "problems.",
            "model.",
            "parallel.",
            "resilience.",
            "service.",
            "perfmodel.",
        ] {
            assert!(
                spans.contains(&format!("\"name\":\"{layer}")),
                "{workload}: no {layer} spans"
            );
        }
    }
}

#[test]
fn unknown_workloads_have_no_plan() {
    assert_eq!(Plan::new("no-such-workload", 1.0), None);
}
