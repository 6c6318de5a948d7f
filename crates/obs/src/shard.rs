//! Per-shard serving telemetry: one lane of counters + stage histograms per
//! shard, and the scatter-gather fan-out distribution.
//!
//! The shard router (in `kbqa-core`) owns a [`ShardObs`] sized to its plan.
//! Every answered question attributes its whole-pipeline stage breakdown to
//! the **primary shard** — the shard owning the first grounded entity the
//! kernel routed to — and bumps one [fan-out](ShardObs::record_fanout)
//! bucket with how many distinct shards the question's lookups touched.
//! Recording is wait-free (fixed arrays of atomics), so the lanes can sit
//! on the hot path next to the engine's sampled stage tracer.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::prom::PromWriter;
use crate::stage::{StageBreakdown, StageStats, StageStatsSnapshot};

/// Fan-out histogram buckets: exactly 0..=7 shards touched, last bucket is
/// "8 or more".
pub const FANOUT_BUCKETS: usize = 9;

/// Telemetry lane of one shard: query/failure counters and the shard's own
/// stage histograms.
#[derive(Debug, Default)]
pub struct ShardLane {
    queries: AtomicU64,
    failures: AtomicU64,
    stages: StageStats,
}

impl ShardLane {
    /// Count one question attributed to this shard.
    pub fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one isolated shard failure (panic caught by the router).
    pub fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Attribute a traced request's stage breakdown to this shard.
    pub fn record_breakdown(&self, breakdown: &StageBreakdown) {
        self.stages.record_breakdown(breakdown);
    }

    /// Questions attributed to this shard.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Isolated failures on this shard.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// This shard's stage histograms.
    pub fn stages(&self) -> &StageStats {
        &self.stages
    }

    /// Point-in-time copy for `/metrics`.
    pub fn snapshot(&self, shard: usize) -> ShardLaneSnapshot {
        ShardLaneSnapshot {
            shard,
            queries: self.queries(),
            failures: self.failures(),
            stages: self.stages.snapshot(),
        }
    }
}

/// Telemetry for a whole shard router: one [`ShardLane`] per shard plus the
/// fan-out distribution.
#[derive(Debug)]
pub struct ShardObs {
    lanes: Vec<ShardLane>,
    fanout: [AtomicU64; FANOUT_BUCKETS],
}

impl ShardObs {
    /// Telemetry for `shards` lanes.
    pub fn new(shards: usize) -> Self {
        Self {
            lanes: (0..shards).map(|_| ShardLane::default()).collect(),
            fanout: Default::default(),
        }
    }

    /// Number of lanes.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// The lane of shard `i`.
    pub fn lane(&self, i: usize) -> &ShardLane {
        &self.lanes[i]
    }

    /// All lanes, indexed by shard id.
    pub fn lanes(&self) -> &[ShardLane] {
        &self.lanes
    }

    /// Record that a question's lookups touched `shards_touched` distinct
    /// shards (the `shard_fanout` stat; bucketed, last bucket = 8+).
    pub fn record_fanout(&self, shards_touched: usize) {
        let b = shards_touched.min(FANOUT_BUCKETS - 1);
        self.fanout[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Total isolated failures across all lanes.
    pub fn total_failures(&self) -> u64 {
        self.lanes.iter().map(ShardLane::failures).sum()
    }

    /// Point-in-time copy for `/metrics`.
    pub fn snapshot(&self) -> ShardObsSnapshot {
        ShardObsSnapshot {
            lanes: self
                .lanes
                .iter()
                .enumerate()
                .map(|(i, lane)| lane.snapshot(i))
                .collect(),
            fanout: self
                .fanout
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl ShardObsSnapshot {
    /// Render the per-shard metric families into a Prometheus exposition.
    /// Stage histograms stay JSON-only (8 histograms × N shards would bloat
    /// the exposition); the counters and the fan-out distribution are
    /// exported.
    pub fn write_prometheus(&self, w: &mut PromWriter) {
        let snap = self;
        w.family(
            "kbqa_shard_queries_total",
            "Questions attributed to each shard (by primary grounded entity).",
            "counter",
        );
        for lane in &snap.lanes {
            let shard = lane.shard.to_string();
            w.sample(
                "kbqa_shard_queries_total",
                &[("shard", shard.as_str())],
                lane.queries as f64,
            );
        }
        w.family(
            "kbqa_shard_failures_total",
            "Shard panics isolated by the router, per shard.",
            "counter",
        );
        for lane in &snap.lanes {
            let shard = lane.shard.to_string();
            w.sample(
                "kbqa_shard_failures_total",
                &[("shard", shard.as_str())],
                lane.failures as f64,
            );
        }
        w.family(
            "kbqa_shard_fanout_total",
            "Questions by number of distinct shards their lookups touched (label `shards`, last bucket 8+).",
            "counter",
        );
        for (b, &count) in snap.fanout.iter().enumerate() {
            let label = if b == FANOUT_BUCKETS - 1 {
                "8+".to_string()
            } else {
                b.to_string()
            };
            w.sample(
                "kbqa_shard_fanout_total",
                &[("shards", label.as_str())],
                count as f64,
            );
        }
    }
}

/// Serializable view of one [`ShardLane`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardLaneSnapshot {
    /// Shard id.
    #[serde(default)]
    pub shard: usize,
    /// Questions attributed to this shard.
    #[serde(default)]
    pub queries: u64,
    /// Isolated failures on this shard.
    #[serde(default)]
    pub failures: u64,
    /// This shard's stage histograms.
    #[serde(default)]
    pub stages: StageStatsSnapshot,
}

/// Serializable view of a [`ShardObs`], embedded in the server's `/metrics`
/// JSON snapshot.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardObsSnapshot {
    /// Per-shard lanes, indexed by shard id.
    #[serde(default)]
    pub lanes: Vec<ShardLaneSnapshot>,
    /// Fan-out distribution: `fanout[k]` questions touched exactly `k`
    /// shards (last bucket 8+).
    #[serde(default)]
    pub fanout: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_exposition;

    #[test]
    fn lanes_count_and_snapshot() {
        let obs = ShardObs::new(3);
        obs.lane(0).record_query();
        obs.lane(0).record_query();
        obs.lane(2).record_failure();
        obs.record_fanout(1);
        obs.record_fanout(12);
        let snap = obs.snapshot();
        assert_eq!(snap.lanes.len(), 3);
        assert_eq!(snap.lanes[0].queries, 2);
        assert_eq!(snap.lanes[2].failures, 1);
        assert_eq!(snap.fanout[1], 1);
        assert_eq!(snap.fanout[FANOUT_BUCKETS - 1], 1);
        assert_eq!(obs.total_failures(), 1);
    }

    #[test]
    fn prometheus_export_validates() {
        let obs = ShardObs::new(2);
        obs.lane(0).record_query();
        obs.record_fanout(1);
        let mut w = PromWriter::new();
        obs.snapshot().write_prometheus(&mut w);
        let text = w.finish();
        validate_exposition(&text).expect("shard exposition must validate");
        assert!(text.contains("kbqa_shard_queries_total{shard=\"0\"} 1"));
        assert!(text.contains("kbqa_shard_fanout_total{shards=\"8+\"} 0"));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let obs = ShardObs::new(2);
        obs.lane(1).record_query();
        let snap = obs.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let restored: ShardObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.lanes.len(), 2);
        assert_eq!(restored.lanes[1].queries, 1);
    }
}
