//! Drives the real binary end to end on a tiny world: fixture, server
//! child, all four workloads over the socket, verification, metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field `{name}`"))
}

/// The `name` of every entry of the contract's list `list`.
fn names(contract: &Value, list: &str) -> Vec<String> {
    field(contract, list)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|entry| match field(entry, "name") {
            Value::Str(name) => name.clone(),
            other => panic!("name is {other:?}"),
        })
        .collect()
}

/// Run `benchmark <mode> --smoke --out FILE`; return its metric lines as
/// `(workload, metric) → occurrences` and the result file's path.
fn smoke(mode: &str) -> (HashMap<(String, String), usize>, PathBuf) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{mode}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([mode, "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "benchmark {mode} --smoke failed: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut printed = HashMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let mut words = line.split(' ');
        let (workload, metric) = (words.next().unwrap(), words.next().unwrap());
        let value: f64 = words.next().unwrap().parse().expect("a numeric value");
        assert!(value.is_finite(), "{line}");
        assert!(words.next().is_some(), "no unit in `{line}`");
        *printed
            .entry((workload.to_owned(), metric.to_owned()))
            .or_insert(0) += 1;
    }
    (printed, out)
}

#[test]
fn smoke_run_and_trace_print_every_contract_metric_exactly_once() {
    let contract: Value = serde_json::from_str(BENCHMARK_JSON).expect("parse BENCHMARK.json");
    let workloads = names(&contract, "workloads");
    assert_eq!(workloads.len(), 4);

    for (mode, list) in [("run", "end_to_end"), ("trace", "per_layer")] {
        let (printed, out) = smoke(mode);
        for workload in &workloads {
            for metric in names(&contract, list) {
                let key = (workload.clone(), metric);
                assert_eq!(
                    printed.get(&key).copied().unwrap_or(0),
                    1,
                    "{mode}: {key:?} printed other than exactly once"
                );
            }
        }
        // The result file parses, holds every workload, and renders back to
        // the very bytes on disk.
        let text = std::fs::read_to_string(&out).expect("read --out file");
        let parsed: Value = serde_json::from_str(&text).expect("parse --out file");
        assert_eq!(field(&parsed, "results").as_seq().unwrap().len(), 4);
        assert_eq!(
            format!("{}\n", serde_json::to_string_pretty(&parsed).unwrap()),
            text
        );
    }

    // `compare` of a set with itself finds nothing regressed.
    let run_file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-run.json");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("compare")
        .args([&run_file, &run_file])
        .status()
        .expect("run compare");
    assert!(status.success());
}

#[test]
fn bad_arguments_print_no_result_and_exit_nonzero() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--workload", "answer_hot", "--trace", "2"][..],
        &["run", "--seconds", "0"][..],
        &["compare", "only-one.json"][..],
        &[][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
