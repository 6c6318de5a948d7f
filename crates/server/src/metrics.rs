//! Lock-free server telemetry: atomic counters and fixed-bucket latency
//! histograms, exported as JSON (and Prometheus text format) at
//! `GET /metrics`.
//!
//! Recording is wait-free (`fetch_add` on relaxed atomics) so the hot path
//! never serializes behind telemetry. Snapshots are taken field-by-field
//! without stopping writers, so a snapshot racing live traffic can be off by
//! in-flight increments — fine for operational counters, which only ever
//! move forward.
//!
//! The histogram machinery lives in [`kbqa_obs`] (shared with the engine's
//! per-stage tracer) and is re-exported here for compatibility.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use kbqa_core::service::Refusal;
use kbqa_obs::{StageStats, StageStatsSnapshot};

pub use kbqa_obs::{BucketCount, HistogramSnapshot, LatencyHistogram, BUCKET_BOUNDS_US};

use crate::cache::CacheStats;

/// All server counters. One instance per server, shared by every worker.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    answer_requests: AtomicU64,
    batch_requests: AtomicU64,
    batch_questions: AtomicU64,
    batch_stream_requests: AtomicU64,
    batch_stream_chunks: AtomicU64,
    answered: AtomicU64,
    refused: AtomicU64,
    refused_no_entity: AtomicU64,
    refused_no_template: AtomicU64,
    refused_no_predicate: AtomicU64,
    refused_empty_values: AtomicU64,
    requests_shed: AtomicU64,
    admin_reloads: AtomicU64,
    open_connections: AtomicU64,
    epoll_wakeups: AtomicU64,
    request_ids: AtomicU64,
    /// Per-pipeline-stage latency histograms, shared with the engine's
    /// [`kbqa_obs::Observability`] sink.
    stage: Arc<StageStats>,
    /// `POST /answer` end-to-end latency (decode → rendered body).
    pub answer_latency: LatencyHistogram,
    /// `POST /batch` end-to-end latency (whole batch).
    pub batch_latency: LatencyHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            answer_requests: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            batch_questions: AtomicU64::new(0),
            batch_stream_requests: AtomicU64::new(0),
            batch_stream_chunks: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            refused_no_entity: AtomicU64::new(0),
            refused_no_template: AtomicU64::new(0),
            refused_no_predicate: AtomicU64::new(0),
            refused_empty_values: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            admin_reloads: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            epoll_wakeups: AtomicU64::new(0),
            request_ids: AtomicU64::new(0),
            stage: Arc::new(StageStats::new()),
            answer_latency: LatencyHistogram::new(),
            batch_latency: LatencyHistogram::new(),
        }
    }

    /// Count one parsed HTTP request (any route).
    pub fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one response by status class.
    pub fn record_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `POST /answer`.
    pub fn record_answer_request(&self) {
        self.answer_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `POST /batch` carrying `questions` requests.
    pub fn record_batch_request(&self, questions: usize) {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
        self.batch_questions
            .fetch_add(questions as u64, Ordering::Relaxed);
    }

    /// Count one `POST /batch?stream=1` served over chunked transfer (also
    /// counted in `batch_requests`; this tracks the streamed subset).
    pub fn record_batch_stream_request(&self) {
        self.batch_stream_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one chunk shipped by a streamed `/batch` (the `0\r\n\r\n`
    /// terminator is framing, not a chunk, and is not counted).
    pub fn record_batch_stream_chunk(&self) {
        self.batch_stream_chunks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection shed by admission control (answered 429 at
    /// accept time, before any request was parsed — so it moves
    /// `requests_shed` and the 4xx class, never `requests_total`).
    pub fn record_shed(&self) {
        self.requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful `POST /admin/reload` model swap.
    pub fn record_reload(&self) {
        self.admin_reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Track a connection entering the event loop (gauge up).
    pub fn connection_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Track a connection leaving the event loop (gauge down).
    pub fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// The open-connection gauge (accept-time admission reads this).
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Count one `epoll_wait` return that carried at least one event.
    pub fn record_epoll_wakeup(&self) {
        self.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// The next server-assigned request ID (a process-local monotonic
    /// counter, starting at 1).
    pub fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The per-stage latency histograms, shared with the engine's
    /// observability sink.
    pub fn stage_stats(&self) -> Arc<StageStats> {
        Arc::clone(&self.stage)
    }

    /// Classify one engine outcome: answered (`None`) or refused, by cause.
    pub fn record_outcome(&self, refusal: Option<Refusal>) {
        let Some(refusal) = refusal else {
            self.answered.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.refused.fetch_add(1, Ordering::Relaxed);
        let by_cause = match refusal {
            Refusal::NoEntityGrounded => &self.refused_no_entity,
            Refusal::NoTemplateMatched => &self.refused_no_template,
            Refusal::NoPredicateAboveTheta => &self.refused_no_predicate,
            Refusal::EmptyValueSet => &self.refused_empty_values,
        };
        by_cause.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy, as served at `/metrics`.
    ///
    /// Deployment-level fields that counters cannot know — cache stats, the
    /// store gauges, the model epoch — are left at their defaults; the HTTP
    /// layer fills them in before serializing (see `http::metrics_snapshot`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            requests_total: self.requests_total.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            answer_requests: self.answer_requests.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            batch_questions: self.batch_questions.load(Ordering::Relaxed),
            batch_stream_requests: self.batch_stream_requests.load(Ordering::Relaxed),
            batch_stream_chunks: self.batch_stream_chunks.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            refused_no_entity: self.refused_no_entity.load(Ordering::Relaxed),
            refused_no_template: self.refused_no_template.load(Ordering::Relaxed),
            refused_no_predicate: self.refused_no_predicate.load(Ordering::Relaxed),
            refused_empty_values: self.refused_empty_values.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            requests_shed_by_route: 0,
            admin_reloads: self.admin_reloads.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            epoll_wakeups: self.epoll_wakeups.load(Ordering::Relaxed),
            answer_latency: self.answer_latency.snapshot(),
            batch_latency: self.batch_latency.snapshot(),
            stage: self.stage.snapshot(),
            cache: CacheStats::default(),
            store_backend: String::new(),
            store_triples: 0,
            model_epoch: 0,
        }
    }
}

/// A serializable view of [`Metrics`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Parsed HTTP requests, any route.
    pub requests_total: u64,
    /// Responses with 2xx status.
    pub responses_2xx: u64,
    /// Responses with 4xx status.
    pub responses_4xx: u64,
    /// Responses with 5xx status.
    pub responses_5xx: u64,
    /// `POST /answer` requests.
    pub answer_requests: u64,
    /// `POST /batch` requests.
    pub batch_requests: u64,
    /// Questions carried inside `/batch` bodies.
    pub batch_questions: u64,
    /// `POST /batch?stream=1` requests served over chunked transfer (a
    /// subset of `batch_requests`).
    #[serde(default)]
    pub batch_stream_requests: u64,
    /// Chunks shipped by streamed `/batch` responses (terminator excluded).
    #[serde(default)]
    pub batch_stream_chunks: u64,
    /// Engine outcomes that produced at least one answer.
    pub answered: u64,
    /// Engine outcomes that refused.
    pub refused: u64,
    /// Refusals at entity grounding (pipeline step 1).
    #[serde(default)]
    pub refused_no_entity: u64,
    /// Refusals at template matching (pipeline step 2).
    #[serde(default)]
    pub refused_no_template: u64,
    /// Refusals at predicate scoring — nothing above θ (pipeline step 3).
    #[serde(default)]
    pub refused_no_predicate: u64,
    /// Refusals at value lookup — empty `V(e, p)` (pipeline step 4).
    #[serde(default)]
    pub refused_empty_values: u64,
    /// Connections shed with 429 by **connection-level** admission control
    /// at accept time (also counted in `responses_4xx`, never in
    /// `requests_total`: no request was parsed).
    #[serde(default)]
    pub requests_shed: u64,
    /// Always 0: route-level shedding is gone (every request runs on the
    /// loop that read it, and nothing queues). Kept so that readers of
    /// older snapshots still deserialize.
    #[serde(default)]
    pub requests_shed_by_route: u64,
    /// Successful `POST /admin/reload` model swaps.
    #[serde(default)]
    pub admin_reloads: u64,
    /// Connections currently owned by the event loops (gauge).
    #[serde(default)]
    pub open_connections: u64,
    /// `epoll_wait` returns that carried at least one event (counter).
    #[serde(default)]
    pub epoll_wakeups: u64,
    /// `/answer` latency histogram.
    pub answer_latency: HistogramSnapshot,
    /// `/batch` latency histogram.
    pub batch_latency: HistogramSnapshot,
    /// Per-pipeline-stage latency histograms (traced requests only).
    #[serde(default)]
    pub stage: StageStatsSnapshot,
    /// Answer-cache effectiveness (filled by the HTTP layer).
    #[serde(default)]
    pub cache: CacheStats,
    /// Store backing, `"in_memory"` or `"mapped"` (`BackendKind::as_str`;
    /// filled by the HTTP layer; previously only visible at `/healthz`).
    #[serde(default)]
    pub store_backend: String,
    /// Triples in the serving store (filled by the HTTP layer).
    #[serde(default)]
    pub store_triples: u64,
    /// Current model epoch (filled by the HTTP layer).
    #[serde(default)]
    pub model_epoch: u64,
}

impl MetricsSnapshot {
    /// Render as Prometheus text exposition (format 0.0.4), served at
    /// `GET /metrics?format=prometheus` (or via `Accept: text/plain`).
    ///
    /// Families and labels are documented in the "Telemetry reference"
    /// section of `docs/OPERATIONS.md`; the output always passes
    /// [`kbqa_obs::validate_exposition`].
    pub fn to_prometheus(&self) -> String {
        use kbqa_obs::PromWriter;
        let mut w = PromWriter::new();
        w.gauge(
            "kbqa_uptime_seconds",
            "Seconds since the server started.",
            self.uptime_secs,
        );
        w.counter(
            "kbqa_http_requests_total",
            "Parsed HTTP requests, any route.",
            self.requests_total,
        );
        w.family(
            "kbqa_http_responses_total",
            "Responses by status class.",
            "counter",
        );
        for (class, count) in [
            ("2xx", self.responses_2xx),
            ("4xx", self.responses_4xx),
            ("5xx", self.responses_5xx),
        ] {
            w.sample(
                "kbqa_http_responses_total",
                &[("class", class)],
                count as f64,
            );
        }
        w.counter(
            "kbqa_answer_requests_total",
            "POST /answer requests.",
            self.answer_requests,
        );
        w.counter(
            "kbqa_batch_requests_total",
            "POST /batch requests.",
            self.batch_requests,
        );
        w.counter(
            "kbqa_batch_questions_total",
            "Questions carried inside /batch bodies.",
            self.batch_questions,
        );
        w.counter(
            "kbqa_batch_stream_requests_total",
            "POST /batch requests served over chunked transfer.",
            self.batch_stream_requests,
        );
        w.counter(
            "kbqa_batch_stream_chunks_total",
            "Chunks shipped by streamed /batch responses.",
            self.batch_stream_chunks,
        );
        w.family(
            "kbqa_outcomes_total",
            "Engine outcomes (answered vs refused).",
            "counter",
        );
        w.sample(
            "kbqa_outcomes_total",
            &[("outcome", "answered")],
            self.answered as f64,
        );
        w.sample(
            "kbqa_outcomes_total",
            &[("outcome", "refused")],
            self.refused as f64,
        );
        w.family(
            "kbqa_refusals_total",
            "Refusals by pipeline cause.",
            "counter",
        );
        for (cause, count) in [
            ("no_entity_grounded", self.refused_no_entity),
            ("no_template_matched", self.refused_no_template),
            ("no_predicate_above_theta", self.refused_no_predicate),
            ("empty_value_set", self.refused_empty_values),
        ] {
            w.sample("kbqa_refusals_total", &[("cause", cause)], count as f64);
        }
        w.family(
            "kbqa_requests_shed_total",
            "Requests shed by admission control, by level.",
            "counter",
        );
        w.sample(
            "kbqa_requests_shed_total",
            &[("level", "connection")],
            self.requests_shed as f64,
        );
        w.counter(
            "kbqa_admin_reloads_total",
            "Successful POST /admin/reload model swaps.",
            self.admin_reloads,
        );
        w.gauge(
            "kbqa_open_connections",
            "Connections currently owned by the event loops.",
            self.open_connections as f64,
        );
        w.counter(
            "kbqa_epoll_wakeups_total",
            "epoll_wait returns that carried at least one event.",
            self.epoll_wakeups,
        );
        w.family(
            "kbqa_request_latency_seconds",
            "End-to-end request latency by route.",
            "histogram",
        );
        w.histogram_series(
            "kbqa_request_latency_seconds",
            &[("route", "answer")],
            &self.answer_latency,
        );
        w.histogram_series(
            "kbqa_request_latency_seconds",
            &[("route", "batch")],
            &self.batch_latency,
        );
        w.counter(
            "kbqa_traced_requests_total",
            "Requests that flushed a per-stage trace.",
            self.stage.traced_requests,
        );
        w.family(
            "kbqa_stage_latency_seconds",
            "Per-pipeline-stage latency, traced requests only.",
            "histogram",
        );
        for stage in &self.stage.stages {
            w.histogram_series(
                "kbqa_stage_latency_seconds",
                &[("stage", stage.stage.as_str())],
                &stage.latency,
            );
        }
        w.family("kbqa_cache_events_total", "Answer-cache events.", "counter");
        for (event, count) in [
            ("hit", self.cache.hits),
            ("miss", self.cache.misses),
            ("eviction", self.cache.evictions),
            ("insertion", self.cache.insertions),
        ] {
            w.sample("kbqa_cache_events_total", &[("event", event)], count as f64);
        }
        w.gauge(
            "kbqa_cache_entries",
            "Answer-cache entries currently resident.",
            self.cache.entries as f64,
        );
        w.gauge(
            "kbqa_cache_capacity",
            "Answer-cache maximum resident entries.",
            self.cache.capacity as f64,
        );
        w.gauge(
            "kbqa_cache_hit_ratio",
            "Fraction of cache lookups served from cache.",
            self.cache.hit_rate(),
        );
        w.gauge(
            "kbqa_store_triples",
            "Triples in the serving store.",
            self.store_triples as f64,
        );
        w.family(
            "kbqa_store_info",
            "Store backend as a label; the value is always 1.",
            "gauge",
        );
        w.sample("kbqa_store_info", &[("backend", &self.store_backend)], 1.0);
        w.gauge(
            "kbqa_model_epoch",
            "Current model epoch.",
            self.model_epoch as f64,
        );
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = Metrics::new();
        m.record_request();
        m.record_response(200);
        m.record_answer_request();
        m.record_batch_request(7);
        m.answer_latency.record(Duration::from_micros(123));
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let restored: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, restored);
        assert_eq!(restored.requests_total, 1);
        assert_eq!(restored.batch_questions, 7);
        assert_eq!(restored.answer_latency.count, 1);
    }

    #[test]
    fn pre_stage_snapshots_still_deserialize() {
        // A snapshot serialized before the per-stage / per-cause / cache
        // fields existed must load with defaults (the rolling-deploy
        // contract).
        let hist = r#"{"count":0,"total_us":0,"mean_us":0.0,"p50_us":0,"p95_us":0,"p99_us":0,"buckets":[]}"#;
        let legacy = format!(
            concat!(
                r#"{{"uptime_secs":1.5,"requests_total":9,"responses_2xx":9,"#,
                r#""responses_4xx":0,"responses_5xx":0,"answer_requests":5,"#,
                r#""batch_requests":0,"batch_questions":0,"answered":4,"#,
                r#""refused":1,"answer_latency":{hist},"batch_latency":{hist}}}"#
            ),
            hist = hist
        );
        let restored: MetricsSnapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(restored.requests_total, 9);
        assert_eq!(restored.refused, 1);
        assert_eq!(restored.refused_no_entity, 0);
        assert_eq!(restored.stage.traced_requests, 0);
        assert_eq!(restored.cache, CacheStats::default());
        assert_eq!(restored.store_backend, "");
    }

    #[test]
    fn outcome_classification() {
        let m = Metrics::new();
        m.record_outcome(None);
        for refusal in [
            Refusal::NoEntityGrounded,
            Refusal::NoEntityGrounded,
            Refusal::NoTemplateMatched,
            Refusal::NoPredicateAboveTheta,
            Refusal::EmptyValueSet,
        ] {
            m.record_outcome(Some(refusal));
        }
        let snap = m.snapshot();
        assert_eq!((snap.answered, snap.refused), (1, 5));
        assert_eq!(snap.refused_no_entity, 2);
        assert_eq!(snap.refused_no_template, 1);
        assert_eq!(snap.refused_no_predicate, 1);
        assert_eq!(snap.refused_empty_values, 1);
    }

    #[test]
    fn request_ids_are_monotonic_from_one() {
        let m = Metrics::new();
        assert_eq!(m.next_request_id(), 1);
        assert_eq!(m.next_request_id(), 2);
    }

    #[test]
    fn prometheus_exposition_validates_and_names_every_family() {
        use kbqa_obs::{validate_exposition, Stage};
        let m = Metrics::new();
        m.record_request();
        m.record_response(200);
        m.answer_latency.record(Duration::from_micros(900));
        m.record_outcome(Some(Refusal::NoTemplateMatched));
        m.stage_stats().record_us(Stage::ValueLookup, 75);
        let mut snap = m.snapshot();
        snap.store_backend = kbqa_rdf::BackendKind::Mapped.as_str().to_string();
        snap.store_triples = 1234;
        let text = snap.to_prometheus();
        validate_exposition(&text).expect("exposition must be valid");
        for family in [
            "kbqa_http_requests_total",
            "kbqa_refusals_total{cause=\"no_template_matched\"} 1",
            "kbqa_request_latency_seconds_bucket{route=\"answer\",le=\"+Inf\"} 1",
            "kbqa_stage_latency_seconds_bucket{stage=\"value_lookup\",le=\"0.0001\"} 1",
            "kbqa_cache_events_total{event=\"hit\"} 0",
            "kbqa_store_info{backend=\"mapped\"} 1",
            "kbqa_store_triples 1234",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
    }

    #[test]
    fn stage_stats_surface_in_the_snapshot() {
        use kbqa_obs::Stage;
        let m = Metrics::new();
        m.stage_stats().record_us(Stage::Parse, 40);
        let snap = m.snapshot();
        assert_eq!(snap.stage.stages.len(), Stage::COUNT);
        let parse = &snap.stage.stages[Stage::Parse as usize];
        assert_eq!(parse.stage, "parse");
        assert_eq!(parse.latency.count, 1);
    }
}
