//! Smoke test of the benchmark itself: one short run of each workload with
//! its correctness checks, and one traced run whose per-layer set covers
//! every layer. Both check the result line against `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use marshal_trace::Json;

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = spec.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark briefly; returns `(name, value, unit)` per metric
/// after checking that every output check passed.
fn run(workload: &str, trace: &str) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}:\n{stdout}\n{stderr}");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let Some(Json::Num(value)) = m.get("value") else {
                panic!("{name}: no numeric value");
            };
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), *value, unit.to_owned())
        })
        .collect()
}

fn names_and_units(metrics: &[(String, f64, String)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for workload in ["fig6", "devloop", "funcfleet"] {
        let metrics = run(workload, "0");
        assert_eq!(names_and_units(&metrics), declared, "{workload}");
        for (name, value, _) in &metrics {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_run_reports_every_layer() {
    let metrics = run("devloop", "1");
    assert_eq!(names_and_units(&metrics), declared("per_layer"));
    let value = |name: &str| metrics.iter().find(|(n, _, _)| n == name).unwrap().1;
    assert_eq!(value("error_rate"), 0.0);
    for layer in [
        "config.",
        "core.",
        "depgraph.",
        "image.",
        "sim_functional.",
        "sim_rtl.",
        "script.",
        "trace.",
    ] {
        assert!(
            metrics
                .iter()
                .any(|(n, v, _)| n.starts_with(layer) && *v > 0.0),
            "no non-zero per-layer metric for `{layer}`"
        );
    }
}
