//! The benchmark's own tests: a smoke-sized run of every workload passes
//! every check and prints every metric `BENCHMARK.json` names, with its
//! unit; a planted defect is counted as a failed operation and fails the
//! run.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["rm1_train", "rm1_lowdup", "tail_exactly_once"];

/// Runs the benchmark binary; returns its exit code and the last line of
/// its standard output.
fn perfbench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> (i32, String) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    perfbench(&args)
}

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        entry[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_reports(line: &str, section: &str) {
    for (name, unit) in declared(section) {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + needle.len()..];
        let metric = &rest[..rest.find('}').expect("metric closes")];
        let (value, unit_field) = metric.split_once(',').expect("value, then unit");
        let value: f64 = value.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(unit_field.trim(), format!("\"unit\": \"{unit}\""), "{name}");
    }
}

#[test]
fn every_workload_passes_and_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (code, line) = smoke(workload, "0", &[]);
        assert_eq!(code, 0, "{workload}: {line}");
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
        assert_reports(&line, "end_to_end");
    }
}

#[test]
fn every_workload_traces_every_per_layer_metric() {
    for workload in WORKLOADS {
        let (code, line) = smoke(workload, "1", &[]);
        assert_eq!(code, 0, "{workload}: {line}");
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert_reports(&line, "per_layer");
    }
}

#[test]
fn a_lost_sample_fails_the_run() {
    let (code, line) = smoke("rm1_train", "0", &["--inject", "lost-sample"]);
    assert_eq!(code, 1, "{line}");
    assert!(line.starts_with("{\"correct\": false,"), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
}

#[test]
fn an_altered_loss_digest_fails_the_run() {
    let (code, line) = smoke("tail_exactly_once", "0", &["--inject", "loss-digest"]);
    assert_eq!(code, 1, "{line}");
    assert!(
        line.contains("\"correct\": false, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 1,"), "{line}");
}

#[test]
fn bad_flags_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "rm1_train", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let (code, line) = perfbench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(line.is_empty(), "{line}");
    }
}
