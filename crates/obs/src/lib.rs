#![warn(missing_docs)]

//! Pipeline-depth observability for the KBQA stack.
//!
//! The paper's claim is *online* BFQ answering, and operating an online
//! system means attributing every microsecond and every refusal to a
//! pipeline stage. This crate is the shared telemetry core the engine,
//! server, and bench binaries all report through:
//!
//! - [`Stage`] — the fixed eight-stage pipeline taxonomy (parse →
//!   NER/grounding → conceptualize → template-match → predicate-score →
//!   value-lookup → rank/top-k → serialize), mirroring Eq. 7's factor chain
//!   plus the serving edges around it.
//! - [`StageTrace`] — a wait-free per-request lap timer that lives inside
//!   the engine's `ScratchSpace`. One `Instant::now()` per stage boundary,
//!   a fixed `[u64; 8]` accumulator, **zero heap allocations** in steady
//!   state. An inactive trace costs a single predicted branch per lap.
//! - [`LatencyHistogram`] / [`StageStats`] — fixed-bucket atomic
//!   histograms (moved here from `kbqa-server` so every layer can record
//!   into them), one per stage, with wait-free recording.
//! - [`Observability`] — the sink handle a service installs to turn
//!   tracing on, with 1-in-N atomic sampling so kernel-granularity
//!   tracing stays under the overhead budget.
//! - [`SlowQueryLog`] — a fixed-slot, near-lock-free capture of the N
//!   slowest requests (question, stage breakdown, cache/backend/epoch,
//!   refusal cause), exposed by the server at token-gated `GET /debug/slow`.
//! - [`prom`] — Prometheus text exposition (counters, gauges, histograms
//!   with cumulative `le` buckets) plus a line-format validator the test
//!   suite uses to keep `/metrics?format=prometheus` honest.

pub mod histogram;
pub mod prom;
pub mod slow;
pub mod stage;
pub mod trace;

pub use histogram::{BucketCount, HistogramSnapshot, LatencyHistogram, BUCKET_BOUNDS_US};
pub use prom::{validate_exposition, PromWriter};
pub use slow::{SlowQuery, SlowQueryLog};
pub use stage::{
    Observability, Stage, StageBreakdown, StageLatencySnapshot, StageStats, StageStatsSnapshot,
};
pub use trace::StageTrace;
