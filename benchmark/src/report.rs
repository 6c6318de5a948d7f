//! What the benchmark prints and stores: one `workload metric value unit`
//! line per metric, the driver's one-line JSON result, the `--out` result
//! file, and `compare` over two such files.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::run::Outcome;
use crate::spec::{extra_end_to_end, MetricSpec, Spec};

/// One metric of one workload in a result file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StoredMetric {
    pub value: f64,
    pub unit: String,
    /// Scatter (IQR over median) of the measurements `value` is the median
    /// of — the repeats of the run, the start-ups behind `setup_s`; absent
    /// for a metric that is one measurement.
    #[serde(default)]
    pub spread: Option<f64>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StoredWorkload {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind each percentile.
    pub samples: u64,
    pub metrics: BTreeMap<String, StoredMetric>,
}

/// A result file: one set of runs, all workloads, one seed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// `run` (end-to-end metrics) or `trace` (per-layer metrics).
    pub kind: String,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub results: Vec<StoredWorkload>,
}

/// The metrics a run of `kind` must report, from `BENCHMARK.json`.
pub fn required(spec: &Spec, traced: bool) -> &[MetricSpec] {
    if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

/// Check `outcome` against the contract and turn it into its stored form.
/// Fails when a metric `BENCHMARK.json` names is missing or not finite.
pub fn store(
    spec: &Spec,
    workload: &str,
    traced: bool,
    outcome: &Outcome,
) -> Result<StoredWorkload, String> {
    let mut metrics = BTreeMap::new();
    for m in required(spec, traced) {
        let found = outcome
            .values
            .get(&m.name)
            .ok_or_else(|| format!("{workload}: metric {} was not measured", m.name))?;
        if !found.value.is_finite() {
            return Err(format!(
                "{workload}: metric {} is not finite ({})",
                m.name, found.value
            ));
        }
        metrics.insert(
            m.name.clone(),
            StoredMetric {
                value: found.value,
                unit: m.unit.clone(),
                spread: found.spread,
            },
        );
    }
    if !traced {
        // Not in BENCHMARK.json, but part of every result set and of `compare`.
        for m in extra_end_to_end() {
            let found = outcome
                .values
                .get(&m.name)
                .ok_or_else(|| format!("{workload}: metric {} was not measured", m.name))?;
            metrics.insert(
                m.name,
                StoredMetric {
                    value: found.value,
                    unit: m.unit,
                    spread: found.spread,
                },
            );
        }
    }
    Ok(StoredWorkload {
        workload: workload.to_owned(),
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        samples: outcome.samples,
        metrics,
    })
}

/// Print `workload metric value unit` for every stored metric.
pub fn print_lines(stored: &StoredWorkload) {
    for (name, m) in &stored.metrics {
        let spread = m
            .spread
            .map_or_else(String::new, |s| format!(" spread={s:.4}"));
        println!(
            "{} {} {} {} samples={}{}",
            stored.workload, name, m.value, m.unit, stored.samples, spread
        );
    }
}

/// The driver's result: the last line of standard output.
pub fn driver_line(stored: &StoredWorkload, spec: &Spec, traced: bool) -> String {
    let metrics: Vec<String> = required(spec, traced)
        .iter()
        .map(|m| {
            let stored = &stored.metrics[&m.name];
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, stored.value, stored.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        stored.correct,
        stored.attempted.max(1),
        stored.failed,
        metrics.join(", ")
    )
}

pub fn write_result_file(path: &Path, file: &ResultFile) -> Result<(), String> {
    let json = serde_json::to_string_pretty(file).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_result_file(path: &Path) -> Result<ResultFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// How one metric of one workload compares between two result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Worse than the bound allows, but either side's own scatter is wider
    /// than the bound: the difference is not resolved.
    Unresolved,
}

/// Judge `b` against `a`. `bound` is relative, or absolute when `absolute`.
pub fn judge(
    a: &StoredMetric,
    b: &StoredMetric,
    higher_is_better: bool,
    bound: f64,
    absolute: bool,
) -> (f64, Verdict) {
    let scale = if absolute { 1.0 } else { a.value.abs() };
    let worse_by = if higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    } / scale;
    let verdict = if worse_by.is_nan() || worse_by > bound {
        let noisy = |m: &StoredMetric| m.spread.is_some_and(|s| s > bound);
        if noisy(a) || noisy(b) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// `compare A.json B.json`: print a row per workload and metric; `Ok(true)`
/// when nothing regressed.
pub fn compare(spec: &Spec, a: &ResultFile, b: &ResultFile) -> Result<bool, String> {
    if a.kind != "run" || b.kind != "run" {
        return Err("compare wants two `run` result files".into());
    }
    if a.seed != b.seed || a.seconds != b.seconds {
        println!(
            "note: sets differ in seed or length (A: seed {} {} s, B: seed {} {} s)",
            a.seed, a.seconds, b.seed, b.seconds
        );
    }
    println!("workload metric A B worse_by bound verdict");
    let mut clean = true;
    for wa in &a.results {
        let wb = b
            .results
            .iter()
            .find(|w| w.workload == wa.workload)
            .ok_or_else(|| format!("B has no workload {}", wa.workload))?;
        let extra = extra_end_to_end();
        for m in spec.end_to_end.iter().chain(&extra) {
            let get = |w: &StoredWorkload, side: &str| {
                w.metrics
                    .get(&m.name)
                    .cloned()
                    .ok_or_else(|| format!("{side} has no {} for {}", m.name, w.workload))
            };
            let (ma, mb) = (get(wa, "A")?, get(wb, "B")?);
            let Some(bound) = m.bound else {
                // Shown for the reader; nothing is held to it.
                let (worse_by, _) = judge(&ma, &mb, m.higher_is_better(), f64::INFINITY, false);
                println!(
                    "{} {} {} {} {:+.4} - unbounded",
                    wa.workload, m.name, ma.value, mb.value, worse_by
                );
                continue;
            };
            let absolute = m.name == "failed_share";
            let (worse_by, verdict) = judge(&ma, &mb, m.higher_is_better(), bound, absolute);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{} {} {} {} {:+.4}{} {} {}",
                wa.workload,
                m.name,
                ma.value,
                mb.value,
                worse_by,
                if absolute { " abs" } else { "" },
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, spread: Option<f64>) -> StoredMetric {
        StoredMetric {
            value,
            unit: "us".into(),
            spread,
        }
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        // Lower is better, bound 10 %.
        let a = metric(100.0, Some(0.02));
        assert_eq!(
            judge(&a, &metric(109.0, None), false, 0.1, false).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &metric(50.0, None), false, 0.1, false).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &metric(111.0, Some(0.03)), false, 0.1, false).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &metric(111.0, Some(0.3)), false, 0.1, false).1,
            Verdict::Unresolved
        );
        // Higher is better.
        let (worse_by, verdict) = judge(&a, &metric(80.0, None), true, 0.1, false);
        assert!((worse_by - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        // An absolute bound works from a zero base.
        let zero = metric(0.0, None);
        assert_eq!(
            judge(&zero, &metric(0.0005, None), false, 0.001, true).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&zero, &metric(0.002, None), false, 0.001, true).1,
            Verdict::Regressed
        );
        // A value that is not a number never passes.
        assert_eq!(
            judge(&a, &metric(f64::NAN, None), false, 0.1, false).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn driver_line_is_one_json_object_with_exactly_the_contract_keys() {
        let spec = Spec::load();
        let mut outcome = Outcome {
            attempted: 1000,
            failed: 0,
            correct: true,
            samples: 1000,
            ..Outcome::default()
        };
        for m in spec.end_to_end.iter().chain(&extra_end_to_end()) {
            outcome.values.insert(
                m.name.clone(),
                crate::run::Reading {
                    value: 1.203_4,
                    spread: None,
                },
            );
        }
        let stored = store(&spec, "answer_hot", false, &outcome).unwrap();
        let line = driver_line(&stored, &spec, false);
        assert!(!line.contains('\n'));
        let parsed: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.as_map().unwrap()[3].1.as_map().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let wanted: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, wanted, "every end-to-end metric and nothing else");
        assert!(line.contains("\"setup_s\": {\"value\": 1.2034, \"unit\": \"s\"}"));

        // A metric the contract names but the run did not measure: no result.
        outcome.values.remove("setup_s");
        assert!(store(&spec, "answer_hot", false, &outcome).is_err());
        outcome.values.insert(
            "setup_s".into(),
            crate::run::Reading {
                value: f64::NAN,
                spread: None,
            },
        );
        assert!(store(&spec, "answer_hot", false, &outcome).is_err());
    }

    #[test]
    fn result_files_round_trip() {
        let file = ResultFile {
            kind: "run".into(),
            seed: 7,
            seconds: 1.5,
            nproc: 2,
            results: vec![StoredWorkload {
                workload: "answer_hot".into(),
                correct: true,
                attempted: 10,
                failed: 0,
                samples: 10,
                metrics: BTreeMap::from([
                    ("latency_p50_us".to_owned(), metric(61.25, Some(0.011))),
                    ("setup_s".to_owned(), metric(0.31, None)),
                ]),
            }],
        };
        let dir = crate::fixture::output_root().join(format!("report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        write_result_file(&path, &file).unwrap();
        assert_eq!(read_result_file(&path).unwrap(), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
