//! `BENCHMARK.json` as the binary sees it: the single source of workload
//! names, metric names, units, directions and regression bounds.

use serde::Deserialize;

/// The repo-root contract file, baked in at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

#[derive(Debug, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Relative worsening that counts as a regression; per-layer metrics
    /// carry none.
    #[serde(default)]
    pub bound: Option<f64>,
}

impl MetricSpec {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// `failed / attempted` may worsen by this much, absolutely, before it is a
/// regression.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// The end-to-end metrics every `run` reports and `compare` shows, but which
/// `BENCHMARK.json` cannot hold. `failed_share` is 0 on a healthy run and the
/// contract wants metrics that never are (every result carries `attempted`
/// and `failed` instead); `compare` holds it to its bound. `latency_p99_us`
/// does not repeat within the largest bound the contract allows on the build
/// box (README, "Where this departs"), so it carries none: the driver bounds
/// `latency_p90_us` in its place.
pub fn extra_end_to_end() -> [MetricSpec; 2] {
    [
        MetricSpec {
            name: "latency_p99_us".into(),
            unit: "us".into(),
            better: "lower".into(),
            bound: None,
        },
        MetricSpec {
            name: "failed_share".into(),
            unit: "ratio".into(),
            better: "lower".into(),
            bound: Some(FAILED_SHARE_BOUND),
        },
    ]
}

impl Spec {
    pub fn load() -> Self {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json matches the Spec schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn contract_file_names_every_workload_the_binary_runs() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, known);
        assert!(spec.workloads.iter().all(|w| w.why.len() <= 200));
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
