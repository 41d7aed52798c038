//! Self-test: every workload, at tiny scale, prints every metric that
//! `BENCHMARK.json` names, with the unit it names, and nothing else; the
//! output checks pass.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rtm-benchmark");
const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn object(v: &Value) -> &BTreeMap<String, Value> {
    match v {
        Value::Object(o) => o,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text(v: Option<&Value>) -> String {
    v.and_then(Value::as_text).expect("a string or number")
}

/// `(name, unit)` of every metric listed under `section` of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let raw = std::fs::read_to_string(format!("{MANIFEST_DIR}/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = json::parse(&raw).expect("BENCHMARK.json parses");
    let Some(Value::Array(list)) = object(&doc).get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    list.iter()
        .map(|m| {
            let m = object(m);
            (text(m.get("name")), text(m.get("unit")))
        })
        .collect()
}

/// The workloads `BENCHMARK.json` lists, plus `compact-churn3`, which the
/// benchmark keeps for manual runs (see README.md).
fn workloads() -> Vec<String> {
    let raw = std::fs::read_to_string(format!("{MANIFEST_DIR}/../BENCHMARK.json")).unwrap();
    let doc = json::parse(&raw).unwrap();
    let Some(Value::Array(list)) = object(&doc).get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    list.iter()
        .map(|w| text(object(w).get("name")))
        .chain(["compact-churn3".to_string()])
        .collect()
}

/// Runs the benchmark on a tiny trace and returns its result object.
fn run(workload: &str, trace: u8) -> BTreeMap<String, Value> {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    object(&json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}")))
        .clone()
}

fn assert_prints(section: &str, trace: u8) {
    let want = declared(section);
    assert!(!want.is_empty());
    for workload in workloads() {
        let result = run(&workload, trace);
        assert_eq!(
            text(result.get("correct")),
            "true",
            "{workload}: {result:?}"
        );
        assert_eq!(text(result.get("failed")), "0", "{workload}");
        let attempted: u64 = text(result.get("attempted")).parse().unwrap();
        assert!(attempted >= 1, "{workload}");
        let metrics = object(result.get("metrics").expect("a metrics object"));
        for (name, unit) in &want {
            let m = object(
                metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} does not print {name}")),
            );
            assert_eq!(&text(m.get("unit")), unit, "{workload}: unit of {name}");
            let value: f64 = text(m.get("value")).parse().unwrap();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        assert_eq!(metrics.len(), want.len(), "{workload} prints extra metrics");
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    assert_prints("end_to_end", 0);
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    assert_prints("per_layer", 1);
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
