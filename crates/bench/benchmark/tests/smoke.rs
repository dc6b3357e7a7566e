//! Runs `mfpa-benchmark --smoke` on a tiny fleet, untraced and traced,
//! and checks its last output line against `BENCHMARK.json`: every
//! metric is present and finite, every check passed, and the traced
//! spans cover the timed wall.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

fn catalog(key: &str) -> Vec<String> {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    root[key]
        .as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry["name"].as_str().expect("a name").to_owned())
        .collect()
}

fn smoke(extra: &[&str], out: &str) -> Value {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_mfpa-benchmark"))
        .arg("--smoke")
        .args(extra)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "the benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("the benchmark printed");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// Every `workload/metric` value of the result, checked present and finite.
fn values(result: &Value, metrics: &str) -> Vec<(String, f64)> {
    assert_eq!(result["correct"], Value::Bool(true), "{result}");
    assert_eq!(result["failed"].as_f64(), Some(0.0));
    assert!(result["attempted"].as_f64().is_some_and(|n| n >= 1.0));
    let mut out = Vec::new();
    for workload in catalog("workloads") {
        for metric in catalog(metrics) {
            let key = format!("{workload}/{metric}");
            let value = result["metrics"][key.as_str()]["value"].as_f64();
            assert!(value.is_some_and(f64::is_finite), "{key} = {value:?}");
            out.push((key, value.unwrap_or(f64::NAN)));
        }
    }
    out
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    let result = smoke(&[], "smoke-untraced");
    for (key, value) in values(&result, "end_to_end") {
        assert!(value > 0.0, "{key} = {value}");
    }
}

#[test]
fn traced_smoke_reports_every_layer_and_covers_the_wall() {
    let result = smoke(&["--traced"], "smoke-traced");
    let values = values(&result, "per_layer");
    for workload in catalog("workloads") {
        let key = format!("{workload}/trace.coverage");
        let coverage = values.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        assert!(coverage.is_some_and(|c| c >= 0.95), "{key} = {coverage:?}");
    }
}
