#![warn(missing_docs)]

//! The network face of the KBQA reproduction: a dependency-free HTTP/1.1
//! server over [`kbqa_core::service::KbqaService`].
//!
//! The paper frames KBQA as an *online* QA system over a billion-scale KB;
//! PR 1 gave the engine an owned, `Send + Sync`, batch-first serving API,
//! and this crate puts that API on a socket. Three design constraints shape
//! everything here:
//!
//! 1. **`std` only.** The build environment is offline, so instead of
//!    hyper/tokio the server is a hand-rolled HTTP/1.1 implementation:
//!    a small pool of **event-loop threads** on raw epoll readiness
//!    ([`epoll`] declares `epoll_create1`/`epoll_ctl`/`epoll_wait` directly
//!    against the libc `std` already links), nonblocking accept,
//!    per-connection state machines with incremental parse/write buffers,
//!    and timer-wheel deadlines. Every request runs on the loop that read
//!    it — a `/batch` as resumable 16-question lanes — so thousands of idle
//!    keep-alive connections cost buffers, not threads. The vendored
//!    `serde_json` stand-in handles the wire format.
//! 2. **Repeated questions dominate real QA traffic** ("QA Is the New KR",
//!    Chen et al., 2022), so a sharded, lock-striped LRU [`cache`] sits in
//!    front of the engine, holding each answer as the bytes it is served
//!    as. It is keyed by [`kbqa_core::service::QaRequest::cache_key`] —
//!    normalized question + effective engine config — so a hit is
//!    *guaranteed* to be byte-identical to what the engine would have
//!    produced.
//! 3. **A server you cannot observe is a server you cannot operate**:
//!    atomic counters and fixed-bucket latency histograms ([`metrics`]) are
//!    exported as JSON *and* as Prometheus text exposition
//!    (`GET /metrics?format=prometheus`), including per-pipeline-stage
//!    latency histograms fed by the engine's sampled stage tracer
//!    ([`kbqa_obs`]), per-refusal-cause counters, and inline cache/store
//!    gauges. The N slowest requests — question, stage breakdown, refusal
//!    cause, cache/backend/epoch — are captured in a lock-free ring and
//!    served at the token-gated `GET /debug/slow`.
//! 4. **Live operations are routes, not restarts.** The model hot-swaps
//!    through `POST /admin/reload` (token-gated, reading the persist layer);
//!    every reload swaps in a new service at the next
//!    [model epoch](kbqa_core::service::KbqaService::model_epoch), which
//!    prefixes every cache key, so a swap invalidates stale answers without
//!    a flush; and **admission control** sheds overload with `429` +
//!    `Retry-After` instead of queueing without bound — whole connections
//!    at accept time past the open-connection bound. Health, metrics and
//!    admin stay reachable under a batch load because batches yield their
//!    loop after every lane. `docs/OPERATIONS.md` is the runbook for all of
//!    it.
//! 5. **One topology.** One process serves one mapped store
//!    ([`kbqa_core::persist::ServingArtifacts`]); every request's `O(|P|)`
//!    value lookups run on the event loop that read it, against the same
//!    page cache, and a reload swaps in the next epoch's service in one
//!    step.
//!
//! # Routes
//!
//! | Route                | Body                | Response                  |
//! |----------------------|---------------------|---------------------------|
//! | `POST /answer`       | `QaRequest` JSON    | `QaResponse` JSON         |
//! | `POST /batch`        | `[QaRequest]` JSON  | `[QaResponse]` JSON       |
//! | `POST /admin/reload` | — (token header)    | `{reloaded, model_epoch}` |
//! | `GET /healthz`       | —                   | liveness + model epoch + store gauges |
//! | `GET /metrics`       | —                   | [`metrics::MetricsSnapshot`] JSON, or Prometheus text via `?format=prometheus` / `Accept: text/plain` |
//! | `GET /cache/stats`   | —                   | [`cache::CacheStats`]     |
//! | `GET /debug/slow`    | — (token header)    | `[`[`SlowQuery`]`]`, slowest first |
//!
//! Any route may instead answer `429 Too Many Requests` (with `Retry-After`)
//! when admission control sheds the connection at accept time.
//!
//! # Quickstart
//!
//! ```no_run
//! use kbqa_server::{serve, ServerConfig};
//! # fn service() -> kbqa_core::service::KbqaService { unimplemented!() }
//!
//! // ServerConfig::from_env reads the KBQA_* knobs (admin token, model
//! // path, admission bound, cache sizing); Default works fine for tests.
//! let handle = serve(service(), "127.0.0.1:0", ServerConfig::from_env()).unwrap();
//! println!("listening on http://{}", handle.local_addr());
//! // … hot-swap the model at any point:
//! // curl -XPOST -H "X-Admin-Token: $KBQA_ADMIN_TOKEN" host:port/admin/reload
//! // … later:
//! handle.shutdown();
//! ```

pub mod cache;
pub mod epoll;
pub mod http;
pub mod metrics;

pub use cache::{AnswerCache, BatchLane, CacheConfig, CacheStats, RenderedAnswer, RenderedCache};
pub use http::{serve, ServerConfig, ServerHandle};
pub use kbqa_obs::{
    validate_exposition, SlowQuery, SlowQueryLog, StageBreakdown, StageStatsSnapshot,
};
pub use metrics::{HistogramSnapshot, LatencyHistogram, Metrics, MetricsSnapshot};
