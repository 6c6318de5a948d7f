//! The fixed pipeline-stage taxonomy and its per-stage statistics.
//!
//! Stages mirror the BFQ answering pipeline (paper Eq. 7) plus the serving
//! edges around it: request parse on the way in, serialization on the way
//! out. The set is a closed enum — stage-attributed telemetry lives in
//! fixed-size arrays indexed by discriminant, so recording never allocates
//! and never hashes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// One stage of the answering pipeline, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Tokenization and request decode.
    Parse = 0,
    /// Entity mention detection + grounding to KB entities.
    NerGrounding = 1,
    /// Entity → concept lookup through the taxonomy (isA).
    Conceptualize = 2,
    /// Question-form + concept-slot → template resolution.
    TemplateMatch = 3,
    /// Template → predicate distribution scoring (θ guard).
    PredicateScore = 4,
    /// KB object lookup / path traversal for scored predicates.
    ValueLookup = 5,
    /// Contribution aggregation, top-k selection, answer materialization.
    RankTopK = 6,
    /// Response serialization to the wire format.
    Serialize = 7,
}

impl Stage {
    /// Number of stages (array dimension for stage-indexed storage).
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::NerGrounding,
        Stage::Conceptualize,
        Stage::TemplateMatch,
        Stage::PredicateScore,
        Stage::ValueLookup,
        Stage::RankTopK,
        Stage::Serialize,
    ];

    /// Stable snake_case name, used as the Prometheus `stage` label value
    /// and as the frame name in folded-stack dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::NerGrounding => "ner_grounding",
            Stage::Conceptualize => "conceptualize",
            Stage::TemplateMatch => "template_match",
            Stage::PredicateScore => "predicate_score",
            Stage::ValueLookup => "value_lookup",
            Stage::RankTopK => "rank_topk",
            Stage::Serialize => "serialize",
        }
    }
}

/// Per-stage microseconds for one request — the structured form carried on
/// explained responses and slow-query records. Named fields (not a map) so
/// the vendored serde renders a flat, stable JSON object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// µs in [`Stage::Parse`].
    #[serde(default)]
    pub parse_us: u64,
    /// µs in [`Stage::NerGrounding`].
    #[serde(default)]
    pub ner_grounding_us: u64,
    /// µs in [`Stage::Conceptualize`].
    #[serde(default)]
    pub conceptualize_us: u64,
    /// µs in [`Stage::TemplateMatch`].
    #[serde(default)]
    pub template_match_us: u64,
    /// µs in [`Stage::PredicateScore`].
    #[serde(default)]
    pub predicate_score_us: u64,
    /// µs in [`Stage::ValueLookup`].
    #[serde(default)]
    pub value_lookup_us: u64,
    /// µs in [`Stage::RankTopK`].
    #[serde(default)]
    pub rank_topk_us: u64,
    /// µs in [`Stage::Serialize`].
    #[serde(default)]
    pub serialize_us: u64,
}

impl StageBreakdown {
    /// Build from a nanosecond accumulator array (as kept by `StageTrace`),
    /// rounding each stage to whole microseconds.
    pub fn from_ns(accum_ns: &[u64; Stage::COUNT]) -> Self {
        let mut b = StageBreakdown::default();
        for stage in Stage::ALL {
            b.set(stage, accum_ns[stage as usize] / 1_000);
        }
        b
    }

    /// The µs recorded for `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Parse => self.parse_us,
            Stage::NerGrounding => self.ner_grounding_us,
            Stage::Conceptualize => self.conceptualize_us,
            Stage::TemplateMatch => self.template_match_us,
            Stage::PredicateScore => self.predicate_score_us,
            Stage::ValueLookup => self.value_lookup_us,
            Stage::RankTopK => self.rank_topk_us,
            Stage::Serialize => self.serialize_us,
        }
    }

    /// Set the µs recorded for `stage`.
    pub fn set(&mut self, stage: Stage, us: u64) {
        match stage {
            Stage::Parse => self.parse_us = us,
            Stage::NerGrounding => self.ner_grounding_us = us,
            Stage::Conceptualize => self.conceptualize_us = us,
            Stage::TemplateMatch => self.template_match_us = us,
            Stage::PredicateScore => self.predicate_score_us = us,
            Stage::ValueLookup => self.value_lookup_us = us,
            Stage::RankTopK => self.rank_topk_us = us,
            Stage::Serialize => self.serialize_us = us,
        }
    }

    /// Sum across all stages, µs.
    pub fn total_us(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.get(s)).sum()
    }
}

/// Per-stage latency histograms shared by every traced request. One
/// instance per service/server, recording is wait-free.
#[derive(Debug, Default)]
pub struct StageStats {
    histograms: [LatencyHistogram; Stage::COUNT],
    traced_requests: AtomicU64,
}

impl StageStats {
    /// Fresh, all-zero stage statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `us` microseconds spent in `stage`.
    pub fn record_us(&self, stage: Stage, us: u64) {
        self.histograms[stage as usize].record_us(us);
    }

    /// Record a whole per-request breakdown (one observation per stage)
    /// and count the request as traced. Stages the request skipped (a
    /// refusal short-circuits the pipeline; a caller that keeps the owned
    /// response never serializes) still record a 0µs observation so
    /// per-stage counts stay comparable.
    pub fn record_breakdown(&self, breakdown: &StageBreakdown) {
        for stage in Stage::ALL {
            self.record_us(stage, breakdown.get(stage));
        }
        self.traced_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The histogram for one stage.
    pub fn histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.histograms[stage as usize]
    }

    /// How many requests have flushed a breakdown here.
    pub fn traced_requests(&self) -> u64 {
        self.traced_requests.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every stage histogram.
    pub fn snapshot(&self) -> StageStatsSnapshot {
        StageStatsSnapshot {
            traced_requests: self.traced_requests(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| StageLatencySnapshot {
                    stage: stage.as_str().to_string(),
                    latency: self.histogram(stage).snapshot(),
                })
                .collect(),
        }
    }
}

/// One stage's histogram in a [`StageStatsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageLatencySnapshot {
    /// Stage name ([`Stage::as_str`]).
    pub stage: String,
    /// The stage's latency histogram.
    pub latency: HistogramSnapshot,
}

/// A serializable view of [`StageStats`], embedded in the server's
/// `/metrics` JSON snapshot.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStatsSnapshot {
    /// Requests that flushed a per-stage breakdown (sampled subset of all
    /// requests when `sample_every > 1`).
    pub traced_requests: u64,
    /// Per-stage histograms, in pipeline order.
    pub stages: Vec<StageLatencySnapshot>,
}

/// The tracing sink a service installs to activate stage timing.
///
/// Tracing is *pull*-gated: a `ScratchSpace`'s `StageTrace` only arms when
/// the owning service holds an `Observability` and [`should_trace`]
/// (sampled 1-in-N, wait-free) or the request asked for `explain` timings.
/// Engines driven without a sink — kernel benchmarks, equivalence tests,
/// the CI perf gate — never arm a trace and pay nothing.
///
/// [`should_trace`]: Observability::should_trace
#[derive(Debug)]
pub struct Observability {
    stats: Arc<StageStats>,
    sample_every: u64,
    counter: AtomicU64,
}

impl Observability {
    /// A sink recording into `stats`, arming every `sample_every`-th
    /// request (clamped to ≥ 1).
    pub fn new(stats: Arc<StageStats>, sample_every: u64) -> Self {
        Self {
            stats,
            sample_every: sample_every.max(1),
            counter: AtomicU64::new(0),
        }
    }

    /// A sink that traces every request (`sample_every = 1`).
    pub fn always(stats: Arc<StageStats>) -> Self {
        Self::new(stats, 1)
    }

    /// The shared per-stage histograms this sink records into.
    pub fn stats(&self) -> &Arc<StageStats> {
        &self.stats
    }

    /// The configured sampling period.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether the next request should arm its trace. Wait-free: one
    /// relaxed `fetch_add` when sampling, no atomics at all when tracing
    /// every request.
    pub fn should_trace(&self) -> bool {
        self.sample_every == 1
            || self
                .counter
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Stage::COUNT);
        assert_eq!(names[0], "parse");
        assert_eq!(names[Stage::COUNT - 1], "serialize");
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
    }

    #[test]
    fn breakdown_get_set_roundtrip() {
        let mut b = StageBreakdown::default();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            b.set(stage, (i as u64 + 1) * 10);
        }
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(b.get(stage), (i as u64 + 1) * 10);
        }
        assert_eq!(b.total_us(), (1..=8).map(|i| i * 10).sum::<u64>());
        let json = serde_json::to_string(&b).unwrap();
        let restored: StageBreakdown = serde_json::from_str(&json).unwrap();
        assert_eq!(b, restored);
    }

    #[test]
    fn breakdown_from_ns_rounds_down_to_us() {
        let mut accum = [0u64; Stage::COUNT];
        accum[Stage::Parse as usize] = 1_999; // 1.999µs → 1
        accum[Stage::ValueLookup as usize] = 42_000;
        let b = StageBreakdown::from_ns(&accum);
        assert_eq!(b.parse_us, 1);
        assert_eq!(b.value_lookup_us, 42);
        assert_eq!(b.ner_grounding_us, 0);
    }

    #[test]
    fn stage_stats_records_and_snapshots() {
        let stats = StageStats::new();
        let mut b = StageBreakdown::default();
        b.set(Stage::ValueLookup, 120);
        stats.record_breakdown(&b);
        stats.record_us(Stage::Serialize, 45);
        assert_eq!(stats.traced_requests(), 1);
        let snap = stats.snapshot();
        assert_eq!(snap.stages.len(), Stage::COUNT);
        let lookup = snap
            .stages
            .iter()
            .find(|s| s.stage == "value_lookup")
            .unwrap();
        assert_eq!(lookup.latency.count, 1);
        assert_eq!(lookup.latency.total_us, 120);
        let ser = snap.stages.iter().find(|s| s.stage == "serialize").unwrap();
        // The breakdown's 0µs observation plus the direct record.
        assert_eq!(ser.latency.count, 2);
        assert_eq!(ser.latency.total_us, 45);
        let json = serde_json::to_string(&snap).unwrap();
        let restored: StageStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, restored);
    }

    #[test]
    fn sampling_arms_one_in_n() {
        let obs = Observability::new(Arc::new(StageStats::new()), 4);
        let armed = (0..16).filter(|_| obs.should_trace()).count();
        assert_eq!(armed, 4);
        let every = Observability::always(Arc::new(StageStats::new()));
        assert!((0..10).all(|_| every.should_trace()));
        // sample_every = 0 clamps to 1 rather than dividing by zero.
        let clamped = Observability::new(Arc::new(StageStats::new()), 0);
        assert!(clamped.should_trace());
    }
}
