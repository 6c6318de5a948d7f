//! An event-driven HTTP/1.1 server on raw epoll readiness — no async
//! runtime, no external HTTP crate.
//!
//! Architecture: a small fixed pool of **event-loop threads** each runs a
//! level-triggered [`crate::epoll`] instance. The shared listener is
//! registered in every loop with `EPOLLEXCLUSIVE`, so accepts spread across
//! loops without a thundering herd. Each accepted connection is owned by
//! exactly one loop and driven through a nonblocking state machine, and
//! **every request runs on the loop that read it** — there is no second
//! thread to hand it to:
//!
//! ```text
//!            ┌──────── every other route: run to completion ───────┐
//!            │                                                      ▼
//! Idle ── first byte ──▶ Reading ── full request ──▶ Computing ──▶ Writing
//!  ▲                                (POST /batch)  one lane a turn    │
//!  └────────────────────────── keep-alive ◀──────────────────────────┘
//! ```
//!
//! A route other than `/batch` **runs to completion**: parse, cache probe,
//! kernel, serialize and the socket write all happen before the loop
//! returns to `epoll_wait`, so a keep-alive question costs one thread and
//! three syscalls (`epoll_wait`, `read`, `write`) — the work is 2–10 µs,
//! less than a cross-thread handoff would cost. Every loop thread owns a
//! thread-local [`kbqa_core::engine::ScratchSpace`], so the allocation-free
//! kernel path is untouched. `/healthz`, `/metrics`, `/cache/stats` and
//! `/debug/slow` are microseconds, and never wait on a reload. A model
//! reload is under a millisecond and a full-bundle reload a few hundred,
//! at operator rate.
//!
//! `POST /batch`, in both framings, is decoded and admitted at once and then
//! **runs as resumable lanes** of `STREAM_LANE_QUESTIONS` (16) questions: each
//! loop turn answers one lane per computing connection, and `epoll_wait`
//! does not sleep while one can run. So an `/answer`, a `/healthz` or an
//! accept on the same loop waits for at most one lane per running batch,
//! never for a whole batch. A streamed batch ships a chunk whenever
//! [`ServerConfig::stream_flush_bytes`] have accumulated; a connection with
//! unwritten bytes runs no lane until `EPOLLOUT` drains them, so a peer
//! that stops reading stops its batch instead of buffering it.
//!
//! Deadlines are a **timer wheel** per loop (granularity
//! [`ServerConfig::timer_granularity`]) instead of blocking read timeouts:
//! an idle keep-alive connection closes silently after
//! [`ServerConfig::read_timeout`], a request that trickles past
//! [`ServerConfig::request_timeout`] is answered `408` (anti-slowloris),
//! and a peer that stops reading mid-response is dropped on the same
//! budget.
//!
//! Admission control is connection-level, at accept time: once
//! `open connections ≥ max_pending`, new connections are shed with
//! `429 Too Many Requests` + `Retry-After`. Nothing is shed per route: the
//! control plane stays reachable under a batch load because batches yield
//! the loop after every lane.
//!
//! Protocol coverage is unchanged from the blocking server and pinned
//! byte-identical by the test suite: request line + headers
//! (case-insensitive names, per-line and count bounds), `Content-Length`
//! bodies, `Connection` semantics with an HTTP/1.1 keep-alive default,
//! per-connection request caps, `501` on `Transfer-Encoding`, `400` on
//! conflicting `Content-Length`s, `413`/`431` size guards. Pipelined
//! requests are served in order (the parse buffer simply carries the next
//! request; the loop iterates over it, however many requests it holds).
//!
//! The serving edge is bytes in, bytes out: request bodies decode straight
//! into typed requests (`serde_json::from_slice`, whose derived
//! `Deserialize` streams off the body with no `Value` tree), a plain answer
//! renders from the kernel's ranked ids
//! ([`kbqa_core::service::KbqaService::answer_into`]), and the answer
//! cache stores each response as the bytes it is served as — a hit is one
//! copy, never a re-serialization (see [`crate::cache`]). HTTP heads and
//! chunk framing are appended straight into each connection's write
//! buffer. `POST /batch?stream=1` switches the response to HTTP/1.1
//! **chunked transfer**: answers are rendered in compute lanes and flushed
//! once [`ServerConfig::stream_flush_bytes`] accumulate, riding the same
//! write state machine. De-chunked, the streamed body is byte-identical to
//! the buffered one, and one stream serves exactly one model epoch.
//!
//! Live operations: `POST /admin/reload` (token-gated, PR 3) hot-swaps the
//! model, and with a bundle dir configured (`?mode=bundle`, the default
//! then) remaps the **full serving bundle** — store, taxonomy, model. Either
//! way one reload path builds the next epoch's service and swaps it into
//! the one service slot, while in-flight requests finish on the service
//! they started on.
//!
//! Graceful shutdown: [`ServerHandle::shutdown`] flips an atomic flag that
//! every loop reads after each `epoll_wait`, so shutdown begins within one
//! [`ServerConfig::timer_granularity`]. Loops stop accepting, close idle
//! connections, and finish in-flight requests — running batches included —
//! before they exit (reading connections may finish their current request,
//! bounded by the request deadline).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kbqa_common::decimal::push_u64;
use kbqa_common::hash::splitmix64;
use kbqa_core::service::{KbqaService, QaRequest};
use kbqa_obs::{Observability, SlowQuery, SlowQueryLog};

use crate::cache::{BatchLane, CacheConfig, RenderedAnswer, RenderedCache};
use crate::epoll::{
    Epoll, EpollEvent, EPOLLERR, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::metrics::{Metrics, MetricsSnapshot};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Event-loop threads: connection I/O *and* every request's compute,
    /// which runs on the loop that read it. `0` means auto:
    /// `available_parallelism`, clamped to `[1, 8]`.
    pub event_loops: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Requests served per connection before it is closed (keep-alive cap).
    pub keep_alive_requests: usize,
    /// An idle keep-alive connection is closed after this long with no
    /// request bytes.
    pub read_timeout: Duration,
    /// Wall-clock budget for one *whole* request (first byte → parsed) and,
    /// separately, for writing one response. A client trickling bytes
    /// (slowloris) is answered `408` when the reading budget expires; a
    /// client that stops reading its response is dropped when the writing
    /// budget does. Enforced by the timer wheel.
    pub request_timeout: Duration,
    /// Timer-wheel tick. Deadlines fire within one tick of their nominal
    /// instant, and an idle loop sees a shutdown within one tick; smaller
    /// ticks cost more idle wakeups per loop.
    pub timer_granularity: Duration,
    /// Answer cache sizing.
    pub cache: CacheConfig,
    /// Admission control: new connections are shed at accept time with
    /// `429` + `Retry-After` once `open connections ≥ max_pending`. `0`
    /// disables shedding.
    pub max_pending: usize,
    /// The `Retry-After` value (seconds) sent with shed responses.
    pub retry_after_secs: u64,
    /// Shared secret gating `POST /admin/reload`. `None` (the default)
    /// disables the admin surface entirely (403). Typically supplied via
    /// the `KBQA_ADMIN_TOKEN` environment variable through
    /// [`ServerConfig::from_env`].
    pub admin_token: Option<String>,
    /// Where `POST /admin/reload` loads the model from (a
    /// [`kbqa_core::persist::save_model`] JSON file). `None` makes reload
    /// answer 409.
    pub model_path: Option<PathBuf>,
    /// Stage-trace sampling period: every Nth request arms a per-stage
    /// trace (requests with `explain` always do). `1` traces everything;
    /// values are clamped to ≥ 1.
    pub trace_sample_every: u64,
    /// Slots in the slow-query log served at `GET /debug/slow` (clamped to
    /// ≥ 1).
    pub slow_log_capacity: usize,
    /// Directory of the serving bundle ([`kbqa_core::persist::ServingArtifacts`])
    /// `POST /admin/reload?mode=bundle` remaps — store, taxonomy, model and
    /// pattern index. With it set and holding a `manifest.json`, bundle mode
    /// is the reload default.
    pub bundle_dir: Option<PathBuf>,
    /// Upper bound of the deterministic per-connection jitter added to the
    /// `Retry-After` of shed responses: clients see `retry_after_secs +
    /// hash(connection) % (jitter + 1)`, spreading the retry herd instead
    /// of synchronizing it. `0` (the default) keeps the exact configured
    /// value.
    pub retry_after_jitter_secs: u64,
    /// Streamed-batch (`POST /batch?stream=1`) flush threshold, bytes:
    /// serialized answers accumulate until at least this many bytes are
    /// pending, then ship as one HTTP chunk. Smaller values lower
    /// time-to-first-answer; larger values amortize per-chunk framing and
    /// syscalls. Clamped to ≥ 1.
    pub stream_flush_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            event_loops: 0,
            max_body_bytes: 1 << 20,
            keep_alive_requests: 128,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            timer_granularity: Duration::from_millis(25),
            cache: CacheConfig::default(),
            max_pending: 1024,
            retry_after_secs: 1,
            admin_token: None,
            model_path: None,
            trace_sample_every: 16,
            slow_log_capacity: 16,
            bundle_dir: None,
            retry_after_jitter_secs: 0,
            stream_flush_bytes: 8 << 10,
        }
    }
}

impl ServerConfig {
    /// Defaults overlaid with the `KBQA_*` environment knobs:
    ///
    /// | Variable                   | Field                |
    /// |----------------------------|----------------------|
    /// | `KBQA_EVENT_LOOPS`         | `event_loops`        |
    /// | `KBQA_MAX_BODY_BYTES`      | `max_body_bytes`     |
    /// | `KBQA_MAX_PENDING`         | `max_pending`        |
    /// | `KBQA_RETRY_AFTER_SECS`    | `retry_after_secs`   |
    /// | `KBQA_TIMER_GRANULARITY_MS`| `timer_granularity`  |
    /// | `KBQA_CACHE_CAPACITY`      | `cache.capacity`     |
    /// | `KBQA_CACHE_SHARDS`        | `cache.shards`       |
    /// | `KBQA_ADMIN_TOKEN`         | `admin_token`        |
    /// | `KBQA_MODEL_PATH`          | `model_path`         |
    /// | `KBQA_TRACE_SAMPLE_EVERY`  | `trace_sample_every` |
    /// | `KBQA_SLOW_LOG_CAPACITY`   | `slow_log_capacity`  |
    /// | `KBQA_BUNDLE_DIR`          | `bundle_dir`         |
    /// | `KBQA_RETRY_AFTER_JITTER_SECS` | `retry_after_jitter_secs` |
    /// | `KBQA_STREAM_FLUSH_BYTES`  | `stream_flush_bytes` |
    ///
    /// Unset or unparsable variables keep the default; an empty
    /// `KBQA_ADMIN_TOKEN` stays disabled (an empty shared secret would gate
    /// nothing). See `docs/OPERATIONS.md` for the full runbook.
    pub fn from_env() -> Self {
        fn parsed<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        let mut config = Self::default();
        if let Some(v) = parsed("KBQA_EVENT_LOOPS") {
            config.event_loops = v;
        }
        if let Some(v) = parsed("KBQA_MAX_BODY_BYTES") {
            config.max_body_bytes = v;
        }
        if let Some(v) = parsed("KBQA_MAX_PENDING") {
            config.max_pending = v;
        }
        if let Some(v) = parsed("KBQA_RETRY_AFTER_SECS") {
            config.retry_after_secs = v;
        }
        if let Some(v) = parsed::<u64>("KBQA_TIMER_GRANULARITY_MS") {
            config.timer_granularity = Duration::from_millis(v.max(1));
        }
        if let Some(v) = parsed("KBQA_CACHE_CAPACITY") {
            config.cache.capacity = v;
        }
        if let Some(v) = parsed("KBQA_CACHE_SHARDS") {
            config.cache.shards = v;
        }
        if let Some(v) = parsed("KBQA_TRACE_SAMPLE_EVERY") {
            config.trace_sample_every = v;
        }
        if let Some(v) = parsed("KBQA_SLOW_LOG_CAPACITY") {
            config.slow_log_capacity = v;
        }
        if let Some(v) = parsed("KBQA_RETRY_AFTER_JITTER_SECS") {
            config.retry_after_jitter_secs = v;
        }
        if let Some(v) = parsed::<usize>("KBQA_STREAM_FLUSH_BYTES") {
            config.stream_flush_bytes = v.max(1);
        }
        for (var, field) in [
            ("KBQA_BUNDLE_DIR", &mut config.bundle_dir),
            ("KBQA_MODEL_PATH", &mut config.model_path),
        ] {
            if let Ok(path) = std::env::var(var) {
                if !path.trim().is_empty() {
                    *field = Some(PathBuf::from(path.trim()));
                }
            }
        }
        if let Ok(token) = std::env::var("KBQA_ADMIN_TOKEN") {
            if !token.trim().is_empty() {
                config.admin_token = Some(token.trim().to_string());
            }
        }
        config
    }

    fn effective_event_loops(&self) -> usize {
        if self.event_loops > 0 {
            return self.event_loops;
        }
        // Loops carry all compute, so they scale with the CPUs.
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    }
}

/// The `Retry-After` (seconds) for one shed response: the configured base
/// plus a deterministic per-connection jitter in `[0, jitter]` hashed from
/// `seed` — no wall-clock randomness, same connection same answer, but a
/// herd of shed clients spreads instead of retrying in lockstep.
fn jittered_retry_after(config: &ServerConfig, seed: u64) -> u64 {
    let base = config.retry_after_secs.max(1);
    if config.retry_after_jitter_secs == 0 {
        return base;
    }
    base + splitmix64(seed) % (config.retry_after_jitter_secs + 1)
}

/// The serving service: the one swap point. Every `POST /admin/reload`, of
/// either mode, builds the next [`KbqaService`] at the next model epoch and
/// swaps it in here. Routes take one `Arc` clone per request, so a swap
/// never blocks in-flight requests — they finish on the service they
/// started on.
struct ServiceSlot(RwLock<Arc<KbqaService>>);

impl ServiceSlot {
    fn new(service: KbqaService) -> Self {
        Self(RwLock::new(Arc::new(service)))
    }

    /// The current service. Lock poisoning is tolerated: the slot only ever
    /// holds a fully-built `Arc`, so a panicking swapper cannot leave it
    /// half-written.
    fn load(&self) -> Arc<KbqaService> {
        Arc::clone(&self.0.read().unwrap_or_else(|poison| poison.into_inner()))
    }

    fn swap(&self, next: KbqaService) {
        let mut slot = self.0.write().unwrap_or_else(|poison| poison.into_inner());
        *slot = Arc::new(next);
    }
}

/// Everything the request handlers share.
struct AppState {
    service: ServiceSlot,
    cache: RenderedCache,
    metrics: Metrics,
    slow: SlowQueryLog,
    /// The serving-side observability sink, installed onto every service
    /// [`place`] readies, so stage histograms and explain traces survive a
    /// full-bundle reload.
    observability: Arc<Observability>,
}

/// What the event loops share.
struct Shared {
    state: AppState,
    shutdown: AtomicBool,
    config: ServerConfig,
    /// Serializes reloads: each one reads the slot and swaps the next epoch
    /// in under it.
    reload: Mutex<()>,
}

impl Shared {
    /// Everything [`serve`] shares between its threads, sized from `config`,
    /// serving-side observability included.
    fn new(service: KbqaService, config: ServerConfig) -> Self {
        // The server owns serving-side observability: stage traces land in the
        // metrics' histograms, and requests asking to `explain` always arm
        // regardless of sampling.
        let metrics = Metrics::new();
        let observability = Arc::new(Observability::new(
            metrics.stage_stats(),
            config.trace_sample_every,
        ));
        let service = place(service, &observability);
        Shared {
            state: AppState {
                service: ServiceSlot::new(service),
                cache: RenderedCache::new(config.cache.clone()),
                metrics,
                slow: SlowQueryLog::new(config.slow_log_capacity),
                observability,
            },
            shutdown: AtomicBool::new(false),
            config,
            reload: Mutex::new(()),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Ready a freshly built service — the one [`serve`] was given, or one a
/// full-bundle reload loaded — to serve: install the server's
/// observability sink, replacing any the caller installed.
fn place(service: KbqaService, observability: &Arc<Observability>) -> KbqaService {
    service.with_observability(Arc::clone(observability))
}

/// A running server: its address plus the thread handles needed to stop it.
///
/// Dropping the handle shuts the server down (blocking until every thread
/// exits); call [`ServerHandle::shutdown`] to do it explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_threads: Vec<JoinHandle<()>>,
}

/// Bind `addr` and serve `service` until [`ServerHandle::shutdown`].
///
/// Pass port `0` to bind an ephemeral port; read it back from
/// [`ServerHandle::local_addr`].
pub fn serve(
    service: KbqaService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let shared = Arc::new(Shared::new(service, config));
    let loops = shared.config.effective_event_loops();
    let mut loop_threads = Vec::with_capacity(loops);
    for idx in 0..loops {
        let shared = Arc::clone(&shared);
        let listener = Arc::clone(&listener);
        loop_threads.push(
            std::thread::Builder::new()
                .name(format!("kbqa-http-loop-{idx}"))
                .spawn(move || EventLoop::new(shared, listener).run())?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        loop_threads,
    })
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    /// Idempotent.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every loop sees the flag within one timer tick; they stop
        // accepting, close idle connections and finish in-flight requests.
        for handle in self.loop_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// [`route`] with panic containment: a panic while routing (engine bug,
/// broken invariant) must cost one request, not the event loop, which is
/// never respawned. The connection still gets a response (500).
fn route_contained(shared: &Shared, request: &Request) -> Routed {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(shared, request)))
        .unwrap_or_else(|_| Routed::Done(internal_error(&shared.state.metrics)))
}

/// The `500` a contained panic answers, counted.
fn internal_error(metrics: &Metrics) -> Response {
    metrics.record_response(500);
    Response::error(500, "internal error")
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const READ_CHUNK: usize = 16 << 10;
const WHEEL_SLOTS: usize = 256;
/// Grown parse/write buffers above this are shrunk once drained, so one
/// large body does not pin its high-water mark for the connection's life.
const BUF_SHRINK_THRESHOLD: usize = 256 << 10;

fn conn_token(slot: u32, generation: u64) -> u64 {
    ((generation & 0xFFFF_FFFF) << 32) | u64::from(slot)
}

/// What a fired deadline means for the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineKind {
    /// Idle keep-alive expiry: close silently.
    Idle,
    /// Whole-request reading budget: answer `408`, then close.
    Request,
    /// Response writing budget: the peer stopped reading; close.
    Write,
}

enum ConnState {
    /// Keep-alive, no request bytes yet.
    Idle,
    /// Accumulating one request's bytes.
    Reading,
    /// A `/batch` is being answered, one lane per loop turn. A streamed
    /// one's head and chunks drain to the socket meanwhile.
    Computing(Box<BatchRun>),
    /// Response bytes are draining to the socket.
    Writing,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Currently-registered epoll interest (avoids redundant `EPOLL_CTL_MOD`).
    interest: u32,
    /// Inbound bytes; `buf[buf_start..]` is the unparsed remainder (and the
    /// start of the next pipelined request once one completes).
    buf: Vec<u8>,
    buf_start: usize,
    /// Outbound response bytes; `out[out_pos..]` still needs writing.
    out: Vec<u8>,
    out_pos: usize,
    requests_served: usize,
    generation: u64,
    deadline: Option<Instant>,
    deadline_kind: DeadlineKind,
    /// This connection's one wheel entry is scheduled and has not fired.
    /// [`EventLoop::arm`] only moves `deadline` while it is set; the entry
    /// chases the current deadline when it fires.
    timer_pending: bool,
    /// Peer half-closed its write side (`EPOLLRDHUP`): serve what is in
    /// flight, then close instead of keeping alive.
    peer_closed: bool,
    /// Whether the response being written allows another request after it.
    keep_alive_after_write: bool,
}

/// A `/batch` admitted on one connection and answered on its loop, one
/// `STREAM_LANE_QUESTIONS` lane at a time.
struct BatchRun {
    setup: BatchSetup,
    /// Questions answered so far.
    next: usize,
    /// Rendered answers not yet written: the whole body of a buffered
    /// batch, the next chunk of a stream.
    pending: Vec<u8>,
    /// Chunked framing (`?stream=1`): the head is already out, and
    /// `pending` ships whenever it reaches `stream_flush_bytes`.
    stream: bool,
    /// What the request's `Connection` semantics asked for; a buffered
    /// batch folds it into its head when the body is complete.
    keep_alive_requested: bool,
    started: Instant,
}

/// A hashed timer wheel: deadlines land in `(deadline - now) / granularity`
/// slots ahead (clamped to the horizon), and entries past the horizon are
/// simply rescheduled when their slot fires. Entries are `(slot, gen)` pairs
/// validated against live connections on expiry, so cancellation is free: a
/// dead generation is dropped when it fires.
///
/// A connection holds **one** entry no matter how many requests it serves:
/// re-arming only moves [`Conn::deadline`], and the entry, when it fires
/// early, reschedules itself to the deadline then current. That is sound
/// because an entry is never scheduled further out than the shortest
/// deadline budget (`max_delay`), so it always fires at or before any
/// deadline armed after it was scheduled.
struct TimerWheel {
    slots: Vec<Vec<(u32, u64)>>,
    granularity: Duration,
    /// The shortest budget any deadline is armed with.
    max_delay: Duration,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    fn new(granularity: Duration, max_delay: Duration) -> Self {
        Self {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_millis(1)),
            max_delay,
            cursor: 0,
            last_tick: Instant::now(),
        }
    }

    fn schedule(&mut self, slot: u32, generation: u64, deadline: Instant, now: Instant) {
        let delta = deadline.saturating_duration_since(now).min(self.max_delay);
        let ticks = (delta.as_nanos() / self.granularity.as_nanos().max(1)) as usize;
        let offset = (ticks + 1).min(WHEEL_SLOTS - 1);
        let index = (self.cursor + offset) % WHEEL_SLOTS;
        self.slots[index].push((slot, generation));
    }

    /// Entries scheduled and not yet fired.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Advance the cursor to `now`, draining every fired slot into `due`.
    fn advance(&mut self, now: Instant, due: &mut Vec<(u32, u64)>) {
        let elapsed = now.saturating_duration_since(self.last_tick);
        let mut ticks = (elapsed.as_nanos() / self.granularity.as_nanos().max(1)) as usize;
        if ticks == 0 {
            return;
        }
        if ticks >= WHEEL_SLOTS {
            // A long stall: one full rotation visits every slot.
            ticks = WHEEL_SLOTS;
            self.last_tick = now;
        } else {
            self.last_tick += self.granularity * ticks as u32;
        }
        for _ in 0..ticks {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            due.append(&mut self.slots[self.cursor]);
        }
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    epoll: Epoll,
    listener: Arc<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    live: usize,
    next_generation: u64,
    wheel: TimerWheel,
    due: Vec<(u32, u64)>,
    draining: bool,
    /// `(slot, generation)` of every connection in [`ConnState::Computing`]
    /// (entries of closed connections drop out on the next pass).
    computing: Vec<(u32, u64)>,
    /// Answers every batch lane this loop runs, its buffers reused.
    lane: BatchLane,
}

impl EventLoop {
    fn new(shared: Arc<Shared>, listener: Arc<TcpListener>) -> Self {
        let config = &shared.config;
        let wheel = TimerWheel::new(
            config.timer_granularity,
            config.read_timeout.min(config.request_timeout),
        );
        Self {
            shared,
            epoll: Epoll::new().expect("epoll_create1"),
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_generation: 0,
            wheel,
            due: Vec::new(),
            draining: false,
            computing: Vec::new(),
            lane: BatchLane::default(),
        }
    }

    fn metrics(&self) -> &Metrics {
        &self.shared.state.metrics
    }

    fn run(mut self) {
        self.register_sources();
        let mut events = vec![EpollEvent::default(); 256];
        while self.turn(&mut events) {}
    }

    fn register_sources(&mut self) {
        self.epoll
            .add(
                self.listener.as_raw_fd(),
                EPOLLIN | EPOLLEXCLUSIVE,
                TOKEN_LISTENER,
            )
            .expect("register listener");
    }

    /// One pass: wait for readiness (at most a timer tick, not at all while
    /// a batch lane can run), serve it, run one lane per computing
    /// connection, then deadlines. `false` once shutdown has drained every
    /// connection.
    fn turn(&mut self, events: &mut [EpollEvent]) -> bool {
        let timeout = if self.lane_runnable() {
            Duration::ZERO
        } else {
            self.wheel.granularity
        };
        let n = self.epoll.wait(events, Some(timeout)).unwrap_or(0);
        if n > 0 {
            self.metrics().record_epoll_wakeup();
        }
        for &event in events.iter().take(n) {
            match event.token() {
                TOKEN_LISTENER => self.accept_ready(),
                token => {
                    let slot = (token & 0xFFFF_FFFF) as u32;
                    let generation = token >> 32;
                    self.conn_event(slot, generation, event.readiness());
                }
            }
        }
        self.run_lanes();
        self.expire_timers();
        if self.shared.is_shutdown() {
            self.begin_drain();
            if self.live == 0 {
                return false;
            }
        }
        true
    }

    /// First shutdown pass: stop accepting and close idle connections.
    /// Reading/computing/writing connections finish their current request
    /// (bounded by their deadlines) and then close.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        let idle: Vec<u32> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| match conn {
                Some(c) if matches!(c.state, ConnState::Idle) => Some(slot as u32),
                _ => None,
            })
            .collect();
        for slot in idle {
            self.close(slot);
        }
    }

    // -- accept path --------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.is_shutdown() {
                        // Raced past shutdown: drop without a response, the
                        // same outcome as the old acceptor breaking its loop.
                        continue;
                    }
                    let open = self.metrics().open_connections();
                    let max_pending = self.shared.config.max_pending;
                    if max_pending > 0 && open as usize >= max_pending {
                        shed(&self.shared, stream);
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer reset mid-handshake) are not
                // fatal to the listener.
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                (self.conns.len() - 1) as u32
            }
        };
        self.next_generation += 1;
        let generation = self.next_generation;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(stream.as_raw_fd(), interest, conn_token(slot, generation))
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        let now = Instant::now();
        let deadline = now + self.shared.config.read_timeout;
        self.conns[slot as usize] = Some(Conn {
            stream,
            state: ConnState::Idle,
            interest,
            buf: Vec::new(),
            buf_start: 0,
            out: Vec::new(),
            out_pos: 0,
            requests_served: 0,
            generation,
            deadline: Some(deadline),
            deadline_kind: DeadlineKind::Idle,
            timer_pending: true,
            peer_closed: false,
            keep_alive_after_write: false,
        });
        self.wheel.schedule(slot, generation, deadline, now);
        self.live += 1;
        self.metrics().connection_opened();
    }

    // -- connection plumbing ------------------------------------------------

    fn conn(&mut self, slot: u32, generation_low: u64) -> Option<&mut Conn> {
        match self.conns.get_mut(slot as usize) {
            Some(Some(conn)) if conn.generation & 0xFFFF_FFFF == generation_low & 0xFFFF_FFFF => {
                Some(conn)
            }
            _ => None,
        }
    }

    fn close(&mut self, slot: u32) {
        if let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            drop(conn);
            self.free.push(slot);
            self.live -= 1;
            self.metrics().connection_closed();
        }
    }

    fn set_interest(&mut self, slot: u32, interest: u32) {
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        let token = conn_token(slot, conn.generation);
        let fd = conn.stream.as_raw_fd();
        conn.interest = interest;
        let _ = self.epoll.modify(fd, interest, token);
    }

    fn arm(&mut self, slot: u32, kind: DeadlineKind, budget: Duration) {
        let now = Instant::now();
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        let deadline = now + budget;
        conn.deadline = Some(deadline);
        conn.deadline_kind = kind;
        if !conn.timer_pending {
            conn.timer_pending = true;
            let generation = conn.generation;
            self.wheel.schedule(slot, generation, deadline, now);
        }
    }

    // -- readiness events ---------------------------------------------------

    fn conn_event(&mut self, slot: u32, generation: u64, readiness: u32) {
        let Some(conn) = self.conn(slot, generation) else {
            return;
        };
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot);
            return;
        }
        if readiness & EPOLLRDHUP != 0 {
            conn.peer_closed = true;
        }
        match conn.state {
            ConnState::Idle | ConnState::Reading if readiness & (EPOLLIN | EPOLLRDHUP) != 0 => {
                self.do_read(slot)
            }
            // A computing connection only ever waits on `EPOLLOUT` for its
            // stream's bytes; its next lane runs once they are drained.
            ConnState::Computing(_) | ConnState::Writing if readiness & EPOLLOUT != 0 => {
                self.do_write(slot);
                self.serve_buffered(slot, false);
            }
            _ => {}
        }
    }

    fn do_read(&mut self, slot: u32) {
        let mut saw_eof = false;
        loop {
            let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
                return;
            };
            let start = conn.buf.len();
            conn.buf.resize(start + READ_CHUNK, 0);
            match conn.stream.read(&mut conn.buf[start..]) {
                Ok(0) => {
                    conn.buf.truncate(start);
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.truncate(start + n);
                    if n < READ_CHUNK {
                        // A short read drained the socket. Epoll is
                        // level-triggered, so anything that arrives later
                        // (more bytes, EOF) is reported again: no second
                        // `read` just to see `WouldBlock`.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.buf.truncate(start);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    conn.buf.truncate(start);
                }
                Err(_) => {
                    conn.buf.truncate(start);
                    self.close(slot);
                    return;
                }
            }
        }
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        let has_bytes = conn.buf.len() > conn.buf_start;
        if matches!(conn.state, ConnState::Idle) {
            if has_bytes {
                // First byte of a new request: the whole-request budget
                // starts here.
                conn.state = ConnState::Reading;
                let budget = self.shared.config.request_timeout;
                self.arm(slot, DeadlineKind::Request, budget);
            } else if saw_eof {
                // Clean close between requests.
                self.close(slot);
                return;
            }
        }
        self.serve_buffered(slot, saw_eof);
    }

    /// Serve the requests already in the connection's buffer, one after
    /// another, until one is incomplete, is a batch still computing, or
    /// blocks on the socket. Pipelined requests iterate here: a response
    /// that is written out whole puts the connection back into `Reading` (see
    /// [`EventLoop::finish_response`]) and the loop takes the next request,
    /// so stack depth does not grow with the number of pipelined requests.
    /// `saw_eof` applies to the bytes as read, so only to the first parse.
    fn serve_buffered(&mut self, slot: u32, mut saw_eof: bool) {
        while matches!(
            self.conns.get(slot as usize),
            Some(Some(conn)) if matches!(conn.state, ConnState::Reading)
        ) && self.try_parse(slot, saw_eof)
        {
            saw_eof = false;
        }
    }

    /// Attempt to parse one request out of the connection's buffer; drives
    /// dispatch, protocol errors, and EOF handling. `false` when the buffer
    /// holds no complete request to act on.
    fn try_parse(&mut self, slot: u32, saw_eof: bool) -> bool {
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return false;
        };
        // Consume the tolerated leading blank lines *now*, not just inside
        // the parser: a peer streaming endless CRLFs must not grow the
        // buffer (or force quadratic rescans) until the request deadline —
        // the blocking reader discarded them as it went, and so do we.
        while conn.buf[conn.buf_start..].starts_with(b"\r\n")
            || conn.buf[conn.buf_start..].starts_with(b"\n")
        {
            conn.buf_start += if conn.buf[conn.buf_start] == b'\r' {
                2
            } else {
                1
            };
        }
        let max_body = self.shared.config.max_body_bytes;
        match parse_request(&conn.buf[conn.buf_start..], max_body) {
            Parsed::Incomplete => {
                if saw_eof {
                    let rest = &conn.buf[conn.buf_start..];
                    if rest.iter().all(|&b| b == b'\r' || b == b'\n') {
                        // EOF with nothing but blank lines pending: clean.
                        self.close(slot);
                        return false;
                    }
                    // EOF mid-request is malformed, not a clean close.
                    self.respond_error(slot, 400);
                    return false;
                }
                // Free the consumed prefix immediately — waiting for
                // `finish_response` would let discarded bytes pile up.
                if conn.buf_start > 0 {
                    let len = conn.buf.len();
                    conn.buf.copy_within(conn.buf_start.., 0);
                    conn.buf.truncate(len - conn.buf_start);
                    conn.buf_start = 0;
                }
                false
            }
            Parsed::Error(status) => {
                self.respond_error(slot, status);
                true
            }
            Parsed::Request(request, consumed) => {
                conn.buf_start += consumed;
                self.dispatch(slot, *request);
                true
            }
        }
    }

    /// Route one parsed request on this loop: a whole response is written
    /// at once; an admitted `/batch` enters [`ConnState::Computing`] (a
    /// stream's head goes out first) and [`EventLoop::run_lanes`] answers
    /// it from the next pass on.
    fn dispatch(&mut self, slot: u32, request: Request) {
        let setup = match route_contained(&self.shared, &request) {
            Routed::Done(response) => {
                let keep_alive = self.response_keep_alive(slot, request.keep_alive());
                self.start_response(slot, &response, keep_alive);
                return;
            }
            Routed::Batch(setup) => setup,
        };
        let stream = request.stream_requested();
        let keep_alive_requested = request.keep_alive();
        let mut pending = Vec::with_capacity(if stream {
            self.shared.config.stream_flush_bytes.max(1) * 2
        } else {
            256 * setup.requests.len().max(1)
        });
        pending.push(b'[');
        // A stream's head goes out now, so its keep-alive is settled now; a
        // buffered batch settles it when its body is complete.
        let head_keep_alive = stream.then(|| {
            self.metrics().record_batch_stream_request();
            self.metrics().record_response(200);
            self.response_keep_alive(slot, keep_alive_requested)
        });
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        conn.state = ConnState::Computing(Box::new(BatchRun {
            setup,
            next: 0,
            pending,
            stream,
            keep_alive_requested,
            started: Instant::now(),
        }));
        conn.deadline = None;
        conn.out.clear();
        conn.out_pos = 0;
        self.computing.push((slot, conn.generation));
        match head_keep_alive {
            Some(keep_alive) => {
                write_stream_head(&mut conn.out, keep_alive);
                conn.keep_alive_after_write = keep_alive;
                let budget = self.shared.config.request_timeout;
                self.arm(slot, DeadlineKind::Write, budget);
                self.do_write(slot);
            }
            None => self.set_interest(slot, EPOLLRDHUP),
        }
    }

    /// Fold the keep-alive cap, shutdown, and peer half-close into the
    /// request's own `Connection` semantics, counting the response.
    fn response_keep_alive(&mut self, slot: u32, requested: bool) -> bool {
        let shutdown = self.shared.is_shutdown();
        let cap = self.shared.config.keep_alive_requests.max(1);
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return false;
        };
        conn.requests_served += 1;
        requested && conn.requests_served < cap && !shutdown && !conn.peer_closed
    }

    fn respond_error(&mut self, slot: u32, status: u16) {
        self.metrics().record_response(status);
        let response = Response {
            status,
            body: Body::Owned(format!("{{\"error\":\"{}\"}}", reason(status)).into_bytes()),
            retry_after: None,
            content_type: "application/json",
        };
        self.start_response(slot, &response, false);
    }

    fn start_response(&mut self, slot: u32, response: &Response, keep_alive: bool) {
        let budget = self.shared.config.request_timeout;
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        conn.out.clear();
        conn.out_pos = 0;
        write_response(&mut conn.out, response, keep_alive);
        conn.state = ConnState::Writing;
        conn.keep_alive_after_write = keep_alive;
        self.arm(slot, DeadlineKind::Write, budget);
        self.do_write(slot);
    }

    fn do_write(&mut self, slot: u32) {
        loop {
            let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                if matches!(conn.state, ConnState::Computing(_)) {
                    // A stream's bytes are drained: its next lane may run
                    // (no deadline meanwhile — a lane is bounded work).
                    conn.out.clear();
                    conn.out_pos = 0;
                    conn.deadline = None;
                    self.set_interest(slot, EPOLLRDHUP);
                    return;
                }
                self.finish_response(slot);
                return;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(slot, EPOLLOUT);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Mid-write disconnect: the peer is gone; nothing to report.
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    fn finish_response(&mut self, slot: u32) {
        let shutdown = self.shared.is_shutdown();
        let read_timeout = self.shared.config.read_timeout;
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return;
        };
        if !conn.keep_alive_after_write || shutdown || conn.peer_closed {
            self.close(slot);
            return;
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.out.capacity() > BUF_SHRINK_THRESHOLD {
            conn.out.shrink_to(READ_CHUNK);
        }
        // Compact the consumed prefix; pipelined bytes (the next request)
        // slide to the front.
        if conn.buf_start > 0 {
            let len = conn.buf.len();
            conn.buf.copy_within(conn.buf_start.., 0);
            conn.buf.truncate(len - conn.buf_start);
            conn.buf_start = 0;
        }
        if conn.buf.is_empty() && conn.buf.capacity() > BUF_SHRINK_THRESHOLD {
            conn.buf.shrink_to(READ_CHUNK);
        }
        let pipelined = !conn.buf.is_empty();
        conn.state = if pipelined {
            ConnState::Reading
        } else {
            ConnState::Idle
        };
        self.set_interest(slot, EPOLLIN | EPOLLRDHUP);
        if pipelined {
            // The next request's bytes are already here; whoever drove this
            // write goes on to parse them ([`EventLoop::serve_buffered`]).
            let budget = self.shared.config.request_timeout;
            self.arm(slot, DeadlineKind::Request, budget);
        } else {
            self.arm(slot, DeadlineKind::Idle, read_timeout);
        }
    }

    // -- batch lanes and timers ---------------------------------------------

    /// Whether a computing connection can run its next lane now (it has no
    /// unwritten bytes), so `epoll_wait` must not sleep.
    fn lane_runnable(&self) -> bool {
        self.computing.iter().any(|&(slot, generation)| {
            matches!(
                self.conns.get(slot as usize),
                Some(Some(conn)) if conn.generation == generation
                    && matches!(conn.state, ConnState::Computing(_))
                    && conn.out_pos >= conn.out.len()
            )
        })
    }

    /// Answer one lane of every computing connection that can run one.
    fn run_lanes(&mut self) {
        if self.computing.is_empty() {
            return;
        }
        let mut computing = std::mem::take(&mut self.computing);
        computing.retain(|&(slot, generation)| self.run_lane(slot, generation));
        // A finished batch may have uncovered a pipelined one meanwhile.
        computing.append(&mut self.computing);
        self.computing = computing;
    }

    /// Run the next lane of the batch computing on `slot`, and ship what it
    /// rendered: a stream's chunk once `stream_flush_bytes` are pending, a
    /// buffered batch's whole response once it is complete. `false` once the
    /// batch is no longer computing (finished, failed, or its connection
    /// gone).
    fn run_lane(&mut self, slot: u32, generation: u64) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some(Some(conn)) = self.conns.get_mut(slot as usize) else {
            return false;
        };
        if conn.generation != generation {
            return false;
        }
        let ConnState::Computing(run) = &mut conn.state else {
            return false;
        };
        if conn.out_pos < conn.out.len() {
            // Backpressure: the peer has not taken the last chunk yet.
            return true;
        }
        let lane = &mut self.lane;
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.step(lane, &shared.state)
        }));
        let metrics = &shared.state.metrics;
        let Ok(done) = stepped else {
            if run.stream {
                // The 200 head is out: a truncated chunked body must not
                // look complete, so the connection closes without the
                // terminal chunk.
                self.close(slot);
            } else {
                let requested = run.keep_alive_requested;
                let keep_alive = self.response_keep_alive(slot, requested);
                self.start_response(slot, &internal_error(metrics), keep_alive);
                self.serve_buffered(slot, false);
            }
            return false;
        };
        if done {
            metrics.batch_latency.record(run.started.elapsed());
        }
        if !run.stream {
            if !done {
                return true;
            }
            run.pending.push(b']');
            let body = std::mem::take(&mut run.pending);
            let requested = run.keep_alive_requested;
            metrics.record_response(200);
            let keep_alive = self.response_keep_alive(slot, requested);
            self.start_response(slot, &Response::ok_bytes(body), keep_alive);
            self.serve_buffered(slot, false);
            return false;
        }
        let flush_bytes = shared.config.stream_flush_bytes.max(1);
        if run.pending.len() >= flush_bytes {
            metrics.record_batch_stream_chunk();
            write_chunk(&mut conn.out, &run.pending);
            run.pending.clear();
        }
        if done {
            run.pending.push(b']');
            metrics.record_batch_stream_chunk();
            write_chunk(&mut conn.out, &run.pending);
            write_stream_end(&mut conn.out);
            conn.state = ConnState::Writing;
        }
        if !conn.out.is_empty() {
            // Every chunk re-arms the write deadline: progress resets the
            // clock, but a peer that stops reading is still dropped.
            self.arm(slot, DeadlineKind::Write, shared.config.request_timeout);
            self.do_write(slot);
        }
        if done {
            self.serve_buffered(slot, false);
        }
        !done
    }

    fn expire_timers(&mut self) {
        let now = Instant::now();
        let mut due = std::mem::take(&mut self.due);
        self.wheel.advance(now, &mut due);
        for (slot, generation) in due.drain(..) {
            let Some(conn) = self.conn(slot, generation) else {
                continue;
            };
            if conn.generation != generation {
                // Dead connection: drop the entry.
                continue;
            }
            let Some(deadline) = conn.deadline else {
                // Computing, no deadline: the next `arm` schedules.
                conn.timer_pending = false;
                continue;
            };
            if deadline > now {
                // Fired early (the deadline moved since, or lies beyond the
                // horizon): chase the current deadline.
                self.wheel.schedule(slot, generation, deadline, now);
                continue;
            }
            conn.timer_pending = false;
            match conn.deadline_kind {
                DeadlineKind::Idle => self.close(slot),
                DeadlineKind::Request => self.respond_error(slot, 408),
                DeadlineKind::Write => self.close(slot),
            }
        }
        self.due = due;
    }
}

/// Refuse one connection with `429 Too Many Requests` + `Retry-After` at
/// accept time.
///
/// Runs on an event-loop thread, so it must never block on a slow peer: the
/// freshly-accepted stream is still in blocking mode, the write is bounded
/// by a short timeout, and failures are ignored (the client sees a reset
/// instead of a 429 — it was going to be turned away either way).
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared.state.metrics.record_shed();
    shared.state.metrics.record_response(429);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let body = "{\"error\":\"server overloaded, retry later\"}";
    // No connection slot exists yet at accept time, so the jitter seed is
    // the peer address — still per-connection (the ephemeral port varies),
    // still free of wall-clock randomness.
    let seed = stream
        .peer_addr()
        .map(|addr| {
            let ip = match addr.ip() {
                std::net::IpAddr::V4(v4) => u64::from(u32::from(v4)),
                std::net::IpAddr::V6(v6) => {
                    let octets = v6.octets();
                    let hi = u64::from_le_bytes(octets[..8].try_into().unwrap());
                    let lo = u64::from_le_bytes(octets[8..].try_into().unwrap());
                    hi ^ lo
                }
            };
            ip ^ (u64::from(addr.port()) << 48)
        })
        .unwrap_or(0);
    let head = format!(
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: {}\r\nRetry-After: {}\r\nConnection: close\r\n\r\n",
        body.len(),
        jittered_retry_after(&shared.config, seed),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Incremental HTTP parsing
// ---------------------------------------------------------------------------

/// One parsed request. Only the pieces the router needs survive parsing.
struct Request {
    method: String,
    /// Path with any query string stripped.
    path: String,
    /// Raw query string (without the `?`), when present.
    query: Option<String>,
    http11: bool,
    connection: Option<String>,
    /// Raw `Authorization` header value, when present.
    authorization: Option<String>,
    /// Raw `X-Admin-Token` header value, when present.
    x_admin_token: Option<String>,
    /// Raw `Accept` header value, when present.
    accept: Option<String>,
    body: Vec<u8>,
}

impl Request {
    /// HTTP/1.1 defaults to keep-alive; `Connection: close` (either
    /// version) and bare HTTP/1.0 do not.
    fn keep_alive(&self) -> bool {
        match self.connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The admin credential the client presented: `X-Admin-Token: <secret>`
    /// or `Authorization: Bearer <secret>` (scheme case-insensitive per
    /// RFC 7235).
    fn admin_credential(&self) -> Option<&str> {
        if let Some(token) = self.x_admin_token.as_deref() {
            return Some(token);
        }
        let auth = self.authorization.as_deref()?;
        let (scheme, credential) = auth.split_once(' ')?;
        if !scheme.eq_ignore_ascii_case("bearer") {
            return None;
        }
        Some(credential.trim())
    }

    /// Whether the client opted into chunked streaming (`?stream=1`).
    /// Only honoured on `POST /batch`.
    fn stream_requested(&self) -> bool {
        self.query
            .as_deref()
            .is_some_and(|query| query.split('&').any(|pair| pair == "stream=1"))
    }

    /// Whether the client asked for Prometheus text exposition: either
    /// `?format=prometheus` or an `Accept` header preferring `text/plain`
    /// (what a Prometheus scraper sends).
    fn wants_prometheus(&self) -> bool {
        if let Some(query) = self.query.as_deref() {
            if query.split('&').any(|pair| pair == "format=prometheus") {
                return true;
            }
        }
        self.accept
            .as_deref()
            .is_some_and(|accept| accept.contains("text/plain"))
    }
}

const MAX_HEADER_LINE: usize = 8 << 10;
const MAX_HEADERS: usize = 64;

/// Outcome of one incremental parse attempt over buffered bytes.
enum Parsed {
    /// Not enough bytes yet; read more.
    Incomplete,
    /// Protocol violation to answer with this status before closing.
    Error(u16),
    /// One complete request and how many input bytes it consumed.
    /// Boxed: a parsed request (path, query, header fields, body vec) is an
    /// order of magnitude larger than the other variants.
    Request(Box<Request>, usize),
}

/// Take one CRLF-terminated line starting at `pos`. `Ok(None)` means the
/// line is not complete yet (and within bounds); `Err` is the status for a
/// violated bound or malformed bytes.
fn take_line(input: &[u8], pos: usize) -> Result<Option<(&str, usize)>, u16> {
    let rest = &input[pos..];
    match rest.iter().position(|&b| b == b'\n') {
        None => {
            if rest.len() > MAX_HEADER_LINE {
                Err(431)
            } else {
                Ok(None)
            }
        }
        Some(i) => {
            let mut line = &rest[..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.len() > MAX_HEADER_LINE {
                return Err(431);
            }
            let line = std::str::from_utf8(line).map_err(|_| 400u16)?;
            Ok(Some((line, pos + i + 1)))
        }
    }
}

/// Parse one request from `input`. Identical acceptance/rejection behaviour
/// to the old blocking reader: leading blank lines tolerated (RFC 9112
/// §2.2), per-line and header-count bounds (431), `Content-Length` framing
/// only (501 on `Transfer-Encoding`), conflicting duplicates rejected
/// (400), bodies bounded (413).
fn parse_request(input: &[u8], max_body: usize) -> Parsed {
    let mut pos = 0usize;
    let line = loop {
        match take_line(input, pos) {
            Ok(None) => return Parsed::Incomplete,
            Ok(Some((line, next))) => {
                pos = next;
                if line.is_empty() {
                    continue;
                }
                break line;
            }
            Err(status) => return Parsed::Error(status),
        }
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Parsed::Error(400),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Parsed::Error(400);
    }

    let mut connection = None;
    let mut authorization = None;
    let mut x_admin_token = None;
    let mut accept = None;
    let mut content_length: Option<usize> = None;
    let mut headers_done = false;
    for _ in 0..MAX_HEADERS {
        let header = match take_line(input, pos) {
            Ok(None) => return Parsed::Incomplete,
            Ok(Some((line, next))) => {
                pos = next;
                line
            }
            Err(status) => return Parsed::Error(status),
        };
        if header.is_empty() {
            headers_done = true;
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Parsed::Error(400);
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = match value.parse() {
                Ok(v) => v,
                Err(_) => return Parsed::Error(400),
            };
            // Conflicting duplicates desync keep-alive framing (request
            // smuggling); identical repeats are legal to collapse.
            if content_length.is_some_and(|prev| prev != parsed) {
                return Parsed::Error(400);
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("authorization") {
            authorization = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("x-admin-token") {
            x_admin_token = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("accept") {
            accept = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // We only frame by Content-Length. Silently ignoring chunked
            // bodies would desync the connection (and is the classic
            // smuggling vector behind a proxy), so refuse loudly.
            return Parsed::Error(501);
        }
    }
    if !headers_done {
        // Header section never ended within the cap.
        return Parsed::Error(431);
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Parsed::Error(413);
    }
    if input.len() < pos + content_length {
        return Parsed::Incomplete;
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query.to_string())),
        None => (target, None),
    };
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        http11: version == "HTTP/1.1",
        connection,
        authorization,
        x_admin_token,
        accept,
        body: input[pos..pos + content_length].to_vec(),
    };
    Parsed::Request(Box::new(request), pos + content_length)
}

// ---------------------------------------------------------------------------
// Responses and routing (unchanged handler logic)
// ---------------------------------------------------------------------------

/// The Prometheus text exposition content type (format version 0.0.4).
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A response ready for the wire. Bodies are JSON unless `content_type`
/// says otherwise (the Prometheus exposition is plain text). Bodies are raw
/// bytes: the hot routes fill them with rendered answers and never pass
/// through an intermediate `String` or serde `Value` tree.
struct Response {
    status: u16,
    body: Body,
    /// `Retry-After` seconds, set only on admission-control sheds.
    retry_after: Option<u64>,
    /// `Content-Type` header value.
    content_type: &'static str,
}

/// A response body: bytes built for this response, or a cached answer
/// served as stored — the write buffer copies it once, straight from the
/// cache entry.
enum Body {
    Owned(Vec<u8>),
    Cached(RenderedAnswer),
}

impl Body {
    fn bytes(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Cached(answer) => answer.body(),
        }
    }
}

impl Response {
    fn ok(body: String) -> Self {
        Self::ok_bytes(body.into_bytes())
    }

    fn ok_bytes(body: Vec<u8>) -> Self {
        Self::ok_body(Body::Owned(body))
    }

    fn ok_body(body: Body) -> Self {
        Self {
            status: 200,
            body,
            retry_after: None,
            content_type: "application/json",
        }
    }

    fn ok_text(body: String, content_type: &'static str) -> Self {
        Self {
            status: 200,
            body: Body::Owned(body.into_bytes()),
            retry_after: None,
            content_type,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        // `message` may echo request bytes (a decode error, a query value),
        // so it is rendered as a JSON string: quotes, backslashes and every
        // control character escaped.
        let message = serde_json::to_string(message).expect("a string always serializes");
        Self {
            status,
            body: Body::Owned(format!("{{\"error\":{message}}}").into_bytes()),
            retry_after: None,
            content_type: "application/json",
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        _ => "Internal Server Error",
    }
}

/// Append a lowercase hexadecimal integer to `out` (HTTP chunk-size field).
fn write_hex(out: &mut Vec<u8>, mut v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = HEX[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

fn connection_header(out: &mut Vec<u8>, keep_alive: bool) {
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
}

/// Append head + body with `Content-Length` framing (the buffered path) to
/// a connection's write buffer: byte appends only — no `format!`, no
/// intermediate `String` per response.
fn write_response(out: &mut Vec<u8>, response: &Response, keep_alive: bool) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_u64(out, u64::from(response.status));
    out.push(b' ');
    out.extend_from_slice(reason(response.status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(response.content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_u64(out, response.body.bytes().len() as u64);
    out.extend_from_slice(b"\r\n");
    if let Some(seconds) = response.retry_after {
        out.extend_from_slice(b"Retry-After: ");
        push_u64(out, seconds);
        out.extend_from_slice(b"\r\n");
    }
    connection_header(out, keep_alive);
    out.extend_from_slice(response.body.bytes());
}

/// Append the head of a chunked `200` JSON stream.
fn write_stream_head(out: &mut Vec<u8>, keep_alive: bool) {
    out.extend_from_slice(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n",
    );
    connection_header(out, keep_alive);
}

/// Append one framed chunk: `{len:x}\r\n … \r\n`. Empty chunks are
/// skipped — a zero-length chunk would terminate the stream.
fn write_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    write_hex(out, bytes.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Append the terminal chunk.
fn write_stream_end(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

const ROUTES: [(&str, &str); 7] = [
    ("POST", "/answer"),
    ("POST", "/batch"),
    ("POST", "/admin/reload"),
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/cache/stats"),
    ("GET", "/debug/slow"),
];

/// What routing one request produced.
enum Routed {
    /// A whole response, ready to write.
    Done(Response),
    /// An admitted `/batch`, to be answered lane by lane on the loop.
    Batch(BatchSetup),
}

fn route(shared: &Shared, request: &Request) -> Routed {
    let state = &shared.state;
    state.metrics.record_request();
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/answer") => handle_answer(state, &request.body),
        ("POST", "/batch") => match batch_setup(state, &request.body) {
            Ok(setup) => return Routed::Batch(setup),
            Err(response) => response,
        },
        ("POST", "/admin/reload") => handle_reload(shared, request),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/metrics") => handle_metrics(shared, request),
        ("GET", "/debug/slow") => handle_slow(shared, request),
        ("GET", "/cache/stats") => {
            let mut stats = state.cache.stats();
            stats.model_epoch = state.service.load().model_epoch();
            match serde_json::to_string(&stats) {
                Ok(body) => Response::ok(body),
                Err(e) => Response::error(500, &e.to_string()),
            }
        }
        (_, path) if ROUTES.iter().any(|(_, p)| *p == path) => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "not found"),
    };
    state.metrics.record_response(response.status);
    Routed::Done(response)
}

/// `GET /healthz`: liveness plus the served model epoch and store gauges.
/// A server that can answer this is healthy: `"status"` is always `"ok"`.
fn handle_healthz(shared: &Shared) -> Response {
    let service = shared.state.service.load();
    let store = service.store();
    Response::ok(format!(
        "{{\"status\":\"ok\",\"model_epoch\":{},\"store_triples\":{},\"store_backend\":\"{}\"}}",
        service.model_epoch(),
        store.len(),
        store.backend_kind().as_str()
    ))
}

/// Constant-time string comparison for the admin token: a timing oracle on
/// a shared secret is a cheap thing to not have.
fn token_matches(presented: &str, expected: &str) -> bool {
    let (a, b) = (presented.as_bytes(), expected.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

/// `POST /admin/reload`: hot-swap serving artifacts under traffic. Two
/// modes, selected by `?mode=model` / `?mode=bundle`, defaulting to the
/// widest configured one (bundle when `KBQA_BUNDLE_DIR` holds a
/// `manifest.json`, which a bundle save writes last, else model). Both run
/// [`reload`], which builds the next service at `old_epoch + 1` and swaps it
/// into the [`ServiceSlot`]; the epoch bump re-keys the answer cache, so no
/// pre-swap entry is ever served again — no flush needed.
///
/// Gating: 403 when no admin token is configured (the surface is off), 401
/// on a missing/wrong credential, 400 on an unknown mode, 409 when the
/// selected mode has no configured source, 500 when loading fails (the
/// previous artifacts keep serving).
fn handle_reload(shared: &Shared, request: &Request) -> Response {
    let Some(expected) = shared.config.admin_token.as_deref() else {
        return Response::error(403, "admin interface disabled: no admin token configured");
    };
    let authorized = request
        .admin_credential()
        .is_some_and(|presented| token_matches(presented, expected));
    if !authorized {
        return Response::error(401, "missing or invalid admin token");
    }
    let bundle = match request
        .query
        .as_deref()
        .and_then(|query| query.split('&').find_map(|pair| pair.strip_prefix("mode=")))
    {
        Some("model") => false,
        Some("bundle") => true,
        Some(other) => {
            return Response::error(400, &format!("unknown reload mode `{other}`"));
        }
        None => shared
            .config
            .bundle_dir
            .as_deref()
            .is_some_and(kbqa_core::persist::ServingArtifacts::present_in),
    };
    reload(shared, bundle)
}

/// What a reload read from disk.
enum Loaded {
    /// The model file: served by the current service's
    /// [`KbqaService::with_model`].
    Model(Arc<kbqa_core::learner::LearnedModel>),
    /// The whole [`ServingArtifacts`] bundle — store (an mmap, so an epoch
    /// swap is a file remap, not a parse), taxonomy, model and pattern
    /// index — served by a new service readied by [`place`].
    ///
    /// [`ServingArtifacts`]: kbqa_core::persist::ServingArtifacts
    Bundle(kbqa_core::persist::ServingArtifacts),
}

/// The one reload path, for the model file (`bundle == false`) or the whole
/// bundle. Reads the file(s) outside the reload lock; then, under it, reads
/// the slot, builds the next service at `old_epoch + 1` and swaps it in, so
/// concurrent reloads of either mode each get an epoch of their own and
/// each one's service serves.
fn reload(shared: &Shared, bundle: bool) -> Response {
    let config = &shared.config;
    let (source, unconfigured) = if bundle {
        (
            &config.bundle_dir,
            "no bundle dir configured for full-bundle reload",
        )
    } else {
        (&config.model_path, "no model path configured for reload")
    };
    let Some(path) = source.as_deref() else {
        return Response::error(409, unconfigured);
    };
    // Load outside the reload lock: mmap + manifest verification can take a
    // while on a big bundle, and a concurrent reload waits on the lock.
    let loaded = if bundle {
        kbqa_core::persist::ServingArtifacts::load(path)
            .map(Loaded::Bundle)
            .map_err(|e| format!("bundle reload failed, old artifacts keep serving: {e}"))
    } else {
        kbqa_core::persist::load_model(path)
            .map(|model| Loaded::Model(Arc::new(model)))
            .map_err(|e| format!("model reload failed: {e}"))
    };
    let loaded = match loaded {
        Ok(loaded) => loaded,
        Err(message) => return Response::error(500, &message),
    };
    let serialized = shared
        .reload
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let old = shared.state.service.load();
    let epoch = old.model_epoch() + 1;
    let next = match loaded {
        Loaded::Model(model) => old.with_model(model),
        Loaded::Bundle(artifacts) => place(
            artifacts.into_service_at_epoch(epoch),
            &shared.state.observability,
        ),
    };
    let store_triples = next.store().len();
    shared.state.service.swap(next);
    drop(serialized);
    shared.state.metrics.record_reload();
    let path =
        serde_json::to_string(&path.display().to_string()).unwrap_or_else(|_| "\"?\"".to_string());
    Response::ok(if bundle {
        format!(
            "{{\"reloaded\":true,\"mode\":\"bundle\",\"model_epoch\":{epoch},\
             \"store_triples\":{store_triples},\"bundle_dir\":{path}}}"
        )
    } else {
        format!("{{\"reloaded\":true,\"mode\":\"model\",\"model_epoch\":{epoch},\"model_path\":{path}}}")
    })
}

/// The counter snapshot enriched with everything only the serving layer
/// knows: cache stats (with the epoch stamped, as at `/cache/stats`), the
/// store gauges previously visible only at `/healthz`, and the model epoch.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let state = &shared.state;
    let service = state.service.load();
    let mut snapshot = state.metrics.snapshot();
    snapshot.cache = state.cache.stats();
    snapshot.cache.model_epoch = service.model_epoch();
    let store = service.store();
    snapshot.store_backend = store.backend_kind().as_str().to_string();
    snapshot.store_triples = store.len() as u64;
    snapshot.model_epoch = service.model_epoch();
    snapshot
}

/// `GET /metrics`: the JSON snapshot by default; Prometheus text exposition
/// when the client asks via `?format=prometheus` or `Accept: text/plain`.
fn handle_metrics(shared: &Shared, request: &Request) -> Response {
    let snapshot = metrics_snapshot(shared);
    if request.wants_prometheus() {
        return Response::ok_text(snapshot.to_prometheus(), PROMETHEUS_CONTENT_TYPE);
    }
    match serde_json::to_string(&snapshot) {
        Ok(body) => Response::ok(body),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `GET /debug/slow`: the N slowest requests with per-stage breakdowns,
/// slowest first. Question text can be sensitive, so the route is gated by
/// the same admin token as `/admin/reload`: 403 when no token is
/// configured, 401 on a missing/wrong credential.
fn handle_slow(shared: &Shared, request: &Request) -> Response {
    let Some(expected) = shared.config.admin_token.as_deref() else {
        return Response::error(403, "debug interface disabled: no admin token configured");
    };
    let authorized = request
        .admin_credential()
        .is_some_and(|presented| token_matches(presented, expected));
    if !authorized {
        return Response::error(401, "missing or invalid admin token");
    }
    match serde_json::to_string(&shared.state.slow.snapshot()) {
        Ok(body) => Response::ok(body),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

thread_local! {
    /// Per-thread buffers for `POST /answer`: the cache key every request
    /// builds, and the rendering of a miss before it becomes an entry.
    static ANSWER_BUFS: std::cell::RefCell<(String, Vec<u8>)> =
        const { std::cell::RefCell::new((String::new(), Vec::new())) };
}

/// `POST /answer`: one `QaRequest` in, one `QaResponse` out, consulting the
/// cache first. A hit is the decoded request, a key built in a reused
/// buffer, a probe, and one copy of the stored bytes into the write buffer;
/// a miss renders once and copies those bytes into its entry, so the body
/// is byte-identical either way.
///
/// Key and computation both come from the one service loaded from the
/// slot, so the cache entry's epoch-versioned key always matches the epoch
/// of the model that produced the value — even when a hot swap lands
/// mid-request.
fn handle_answer(state: &AppState, body: &[u8]) -> Response {
    let started = Instant::now();
    let mut request = match serde_json::from_slice::<QaRequest>(body) {
        Ok(request) => request,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    #[cfg(test)]
    assert_ne!(
        request.question,
        tests::PANIC_QUESTION,
        "panic injected by the test suite"
    );
    state.metrics.record_answer_request();
    if request.request_id.is_none() {
        // Deliberately after cache_key's inputs are fixed: the ID is
        // excluded from the key, so assigning it cannot split cache entries.
        request.request_id = Some(state.metrics.next_request_id());
    }
    let service = state.service.load();
    // Read-your-reload: a client that just drove `/admin/reload` may pin a
    // floor epoch; a replica still serving below it answers 409 instead of
    // silently serving stale answers.
    if let Some(min_epoch) = request.min_epoch {
        if service.model_epoch() < min_epoch {
            return Response::error(
                409,
                &format!(
                    "serving model epoch {} is below requested min_epoch {min_epoch}",
                    service.model_epoch()
                ),
            );
        }
    }
    let (answer, cache_hit, stages) = ANSWER_BUFS.with(|bufs| {
        let (key, rendering) = &mut *bufs.borrow_mut();
        key.clear();
        service.cache_key_into(&request, key);
        if let Some(cached) = state.cache.get(key) {
            return (cached, true, None);
        }
        rendering.clear();
        let rendered = service.answer_into(&request, rendering);
        let answer = RenderedAnswer::new(rendered.refusal, rendering);
        state.cache.insert(key.as_str(), answer.clone());
        (answer, false, rendered.stages)
    });
    let refusal = answer.refusal();
    state.metrics.record_outcome(refusal);
    let total_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.slow.offer(total_us, || SlowQuery {
        request_id: request.request_id.unwrap_or(0),
        question: request.question.clone(),
        total_us,
        stages: stages.unwrap_or_default(),
        refusal: refusal.map(|r| r.to_string()),
        cache_hit,
        model_epoch: service.model_epoch(),
        store_backend: service.store().backend_kind().as_str().to_string(),
        traced: stages.is_some(),
    });
    state.metrics.answer_latency.record(started.elapsed());
    Response::ok_body(Body::Cached(answer))
}

/// The decoded-and-admitted prefix of a `/batch` request, in either
/// framing: the requests and the service every key and answer of the batch
/// comes from.
struct BatchSetup {
    requests: Vec<QaRequest>,
    service: Arc<KbqaService>,
}

/// Decode and admit one `/batch` body. `Err` carries the early response
/// (decode error or `min_epoch` 409).
fn batch_setup(state: &AppState, body: &[u8]) -> Result<BatchSetup, Response> {
    let requests = serde_json::from_slice::<Vec<QaRequest>>(body)
        .map_err(|e| Response::error(400, &e.to_string()))?;
    state.metrics.record_batch_request(requests.len());
    let service = state.service.load();
    // The whole batch runs under one model epoch, so one member pinning a
    // floor the service cannot meet rejects the whole batch — mixed-epoch
    // partial batches are exactly what `min_epoch` exists to prevent.
    if let Some(min_epoch) = requests.iter().filter_map(|r| r.min_epoch).max() {
        if service.model_epoch() < min_epoch {
            return Err(Response::error(
                409,
                &format!(
                    "serving model epoch {} is below requested min_epoch {min_epoch}",
                    service.model_epoch()
                ),
            ));
        }
    }
    Ok(BatchSetup { requests, service })
}

/// Questions answered per batch lane: a loop turn runs at most one lane
/// per computing connection, so this bounds how long a batch holds its loop
/// at a time, and a stream's first chunk leaves after one lane.
const STREAM_LANE_QUESTIONS: usize = 16;

impl BatchRun {
    /// `POST /batch`, one lane: answer the next `STREAM_LANE_QUESTIONS`
    /// questions through `lane` — hits copied from the cache, misses
    /// rendered by the service's `answer_batch_into` and inserted — and
    /// append them to `pending` as elements of the body's JSON array.
    /// `true` once every question is answered.
    ///
    /// Every lane answers under the one service loaded when the batch was
    /// admitted, so a `/admin/reload` landing mid-batch never mixes epochs.
    /// Lane by lane, the body is byte-identical whatever the framing: a
    /// stream's de-chunked body equals the buffered one (pinned by
    /// `crates/server/tests/streaming.rs`).
    fn step(&mut self, lane: &mut BatchLane, state: &AppState) -> bool {
        let requests = &self.setup.requests;
        let end = (self.next + STREAM_LANE_QUESTIONS).min(requests.len());
        let run = &requests[self.next..end];
        #[cfg(test)]
        assert!(
            run.iter().all(|r| r.question != tests::PANIC_QUESTION),
            "panic injected by the test suite"
        );
        lane.answer(
            &state.cache,
            &self.setup.service,
            run,
            self.next > 0,
            &mut self.pending,
            |refusal| state.metrics.record_outcome(refusal),
        );
        self.next = end;
        end == requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Parsed {
        parse_request(bytes, 1 << 20)
    }

    #[test]
    fn parser_is_incremental() {
        let full = b"POST /answer HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi";
        for cut in 0..full.len() {
            assert!(
                matches!(parse(&full[..cut]), Parsed::Incomplete),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        match parse(full) {
            Parsed::Request(request, consumed) => {
                assert_eq!(consumed, full.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/answer");
                assert_eq!(request.body, b"hi");
                assert!(request.http11);
            }
            _ => panic!("complete request must parse"),
        }
    }

    #[test]
    fn parser_consumes_exactly_one_pipelined_request() {
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let Parsed::Request(first, consumed) = parse(two) else {
            panic!("first request must parse");
        };
        assert_eq!(first.path, "/healthz");
        let Parsed::Request(second, rest) = parse(&two[consumed..]) else {
            panic!("second request must parse");
        };
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn parser_rejections_match_the_blocking_reader() {
        assert!(matches!(parse(b"garbage\r\n\r\n"), Parsed::Error(400)));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n"),
            Parsed::Error(400)
        ));
        assert!(matches!(
            parse(b"POST /answer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Parsed::Error(501)
        ));
        assert!(matches!(
            parse(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n"),
            Parsed::Error(400)
        ));
        assert!(matches!(
            parse(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok"),
            Parsed::Request(_, _)
        ));
        let oversized = format!("POST /a HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert!(matches!(parse(oversized.as_bytes()), Parsed::Error(413)));
        let long_line = vec![b'x'; MAX_HEADER_LINE + 2];
        assert!(matches!(parse(&long_line), Parsed::Error(431)));
        let mut many_headers = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            many_headers.extend_from_slice(format!("X-{i}: y\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&many_headers), Parsed::Error(431)));
    }

    #[test]
    fn parser_tolerates_leading_blank_lines() {
        match parse(b"\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n") {
            Parsed::Request(request, _) => assert_eq!(request.path, "/healthz"),
            _ => panic!("blank lines before the request line are legal"),
        }
    }

    #[test]
    fn timer_wheel_fires_once_per_deadline() {
        let mut wheel = TimerWheel::new(Duration::from_millis(1), Duration::from_secs(1));
        let now = Instant::now();
        wheel.schedule(3, 1, now + Duration::from_millis(2), now);
        wheel.schedule(4, 1, now + Duration::from_millis(200), now);
        let mut due = Vec::new();
        wheel.advance(now + Duration::from_millis(10), &mut due);
        assert!(due.contains(&(3, 1)), "short deadline fired: {due:?}");
        assert!(!due.contains(&(4, 1)), "long deadline still pending");
        due.clear();
        wheel.advance(now + Duration::from_millis(600), &mut due);
        assert!(due.contains(&(4, 1)), "long deadline fired: {due:?}");
    }

    #[test]
    fn timer_wheel_never_schedules_past_the_shortest_budget() {
        // What lets a connection keep one entry: an entry scheduled for a
        // far deadline still fires within `max_delay`, so it is never late
        // for a nearer deadline armed after it.
        let mut wheel = TimerWheel::new(Duration::from_millis(1), Duration::from_millis(20));
        let now = Instant::now();
        wheel.schedule(5, 1, now + Duration::from_millis(200), now);
        let mut due = Vec::new();
        wheel.advance(now + Duration::from_millis(19), &mut due);
        assert!(due.is_empty(), "not before the cap: {due:?}");
        wheel.advance(now + Duration::from_millis(22), &mut due);
        assert_eq!(due, [(5, 1)], "fires at the cap, one tick of slack");
        assert_eq!(wheel.len(), 0);
    }

    fn empty_service() -> KbqaService {
        KbqaService::new(
            Arc::new(kbqa_rdf::GraphBuilder::new().build()),
            Arc::new(kbqa_taxonomy::Conceptualizer::new(
                kbqa_taxonomy::NetworkBuilder::new().build(),
            )),
            Arc::new(kbqa_core::learner::LearnedModel::default()),
        )
    }

    fn post_request(path: &str, body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    fn post_answer(stream: &mut TcpStream, body: &[u8]) -> (u16, Vec<u8>) {
        post(stream, "/answer", body)
    }

    fn post(stream: &mut TcpStream, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        // One write: head and body in two would trip Nagle + delayed ACK.
        stream
            .write_all(&post_request(path, body))
            .expect("write request");
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response head");
            raw.push(byte[0]);
        }
        let head = String::from_utf8(raw).expect("utf8 head");
        let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok());
        let mut body = vec![0u8; length.expect("content-length")];
        stream.read_exact(&mut body).expect("response body");
        (status.expect("status line"), body)
    }

    /// A question `/answer` and a batch lane panic on (under `cfg(test)`
    /// only): there is no input that makes the real routes panic, and
    /// containment on the event loop must be pinned anyway.
    pub(super) const PANIC_QUESTION: &str = "panic, please";
    const PANIC_BODY: &[u8] = b"{\"question\":\"panic, please\"}";

    #[test]
    fn a_panic_while_answering_on_the_loop_costs_one_request_not_the_loop() {
        let config = ServerConfig {
            event_loops: 1,
            ..ServerConfig::default()
        };
        let server = serve(empty_service(), "127.0.0.1:0", config).expect("serve");
        let addr = server.local_addr();
        let question: &[u8] = b"{\"question\":\"why is the sky blue\"}";

        // A bystander the one loop already owns when the panic happens.
        let mut bystander = TcpStream::connect(addr).expect("connect bystander");
        assert_eq!(post_answer(&mut bystander, question).0, 200);

        let mut victim = TcpStream::connect(addr).expect("connect victim");
        let (status, body) = post_answer(&mut victim, PANIC_BODY);
        assert_eq!(status, 500);
        assert_eq!(body, b"{\"error\":\"internal error\"}");

        // The loop survived: the victim's own connection, the bystander and
        // a fresh connection are all still served by it.
        assert_eq!(post_answer(&mut victim, question).0, 200);
        assert_eq!(post_answer(&mut bystander, question).0, 200);
        let mut fresh = TcpStream::connect(addr).expect("connect fresh");
        assert_eq!(post_answer(&mut fresh, question).0, 200);
        assert_eq!(server.shared.state.metrics.snapshot().responses_5xx, 1);
        server.shutdown();
    }

    #[test]
    fn a_panic_in_a_batch_lane_costs_one_batch_not_the_loop() {
        let config = ServerConfig {
            event_loops: 1,
            // Every lane ships its own chunk.
            stream_flush_bytes: 1,
            ..ServerConfig::default()
        };
        let server = serve(empty_service(), "127.0.0.1:0", config).expect("serve");
        let addr = server.local_addr();
        let question: &[u8] = b"{\"question\":\"why is the sky blue\"}";
        // Forty questions, the 40th the one a lane panics on: the first two
        // lanes answer, the third panics.
        let mut batch: Vec<String> = (0..40)
            .map(|i| format!("{{\"question\":\"why is the sky blue {i}\"}}"))
            .collect();
        batch[39] = format!("{{\"question\":\"{PANIC_QUESTION}\"}}");
        let batch = format!("[{}]", batch.join(","));

        // A bystander the one loop already owns when the panics happen.
        let mut bystander = TcpStream::connect(addr).expect("connect bystander");
        assert_eq!(post_answer(&mut bystander, question).0, 200);

        // Buffered: nothing was written yet, so the batch answers 500 and
        // its connection stays usable.
        let mut victim = TcpStream::connect(addr).expect("connect victim");
        let (status, body) = post(&mut victim, "/batch", batch.as_bytes());
        assert_eq!(status, 500);
        assert_eq!(body, b"{\"error\":\"internal error\"}");
        assert_eq!(post_answer(&mut victim, question).0, 200);

        // Streamed: the head and the first lanes' chunks are out, so the
        // connection closes without the terminal chunk — a truncated body
        // must not look complete.
        let mut streamed = TcpStream::connect(addr).expect("connect streamed");
        streamed
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        streamed
            .write_all(&post_request("/batch?stream=1", batch.as_bytes()))
            .expect("write request");
        let mut raw = Vec::new();
        streamed.read_to_end(&mut raw).expect("read until closed");
        let raw = String::from_utf8(raw).expect("utf8 stream");
        let (head, chunks) = raw.split_once("\r\n\r\n").expect("stream head");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert!(chunks.contains("\"refusal\""), "no chunk: {chunks:?}");
        assert!(!chunks.ends_with("0\r\n\r\n"), "{chunks:?}");

        // The loop survived: the bystander and a fresh connection are
        // served, and only the buffered batch counted as a 5xx.
        assert_eq!(post_answer(&mut bystander, question).0, 200);
        let mut fresh = TcpStream::connect(addr).expect("connect fresh");
        assert_eq!(post_answer(&mut fresh, question).0, 200);
        assert_eq!(server.shared.state.metrics.snapshot().responses_5xx, 1);
        server.shutdown();
    }

    #[test]
    fn wheel_occupancy_stays_within_live_connections_after_10_000_requests() {
        // Drive one loop by hand so its wheel can be inspected.
        let config = ServerConfig {
            event_loops: 1,
            keep_alive_requests: usize::MAX,
            ..ServerConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let shared = Arc::new(Shared::new(empty_service(), config));
        let mut event_loop = EventLoop::new(shared, Arc::new(listener));
        event_loop.register_sources();

        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for _ in 0..10_000 {
                let (status, _) = post_answer(&mut stream, b"{\"question\":\"hi\"}");
                assert_eq!(status, 200);
            }
            // Handed back open: the connection must still be live below.
            stream
        });
        let mut events = vec![EpollEvent::default(); 16];
        while !client.is_finished() {
            assert!(event_loop.turn(&mut events));
        }
        let _stream = client.join().expect("client");

        assert_eq!(event_loop.live, 1);
        assert!(
            event_loop.wheel.len() <= event_loop.live,
            "{} wheel entries for {} live connection(s): every request armed \
             three deadlines and none may have left an entry behind",
            event_loop.wheel.len(),
            event_loop.live
        );
    }

    #[test]
    fn conn_tokens_roundtrip_slot_and_generation() {
        let token = conn_token(42, 0x1_0000_0007);
        assert_eq!((token & 0xFFFF_FFFF) as u32, 42);
        assert_eq!(token >> 32, 0x7);
    }

    #[test]
    fn retry_after_jitter_is_off_by_default_and_bounded_when_on() {
        let mut config = ServerConfig {
            retry_after_secs: 9,
            ..ServerConfig::default()
        };
        // Default: the exact configured value, whatever the seed.
        for seed in 0..64 {
            assert_eq!(jittered_retry_after(&config, seed), 9);
        }
        // With jitter: deterministic per seed, bounded to [base, base+jitter],
        // and actually spread across connections.
        config.retry_after_jitter_secs = 30;
        let values: Vec<u64> = (0..64).map(|s| jittered_retry_after(&config, s)).collect();
        for (seed, &v) in values.iter().enumerate() {
            assert!((9..=39).contains(&v), "seed {seed}: {v} outside [9, 39]");
            assert_eq!(
                v,
                jittered_retry_after(&config, seed as u64),
                "deterministic"
            );
        }
        let distinct: std::collections::BTreeSet<u64> = values.iter().copied().collect();
        assert!(distinct.len() > 8, "jitter spreads the herd: {distinct:?}");
        // Zero-base configs still send at least 1 second.
        config.retry_after_secs = 0;
        for seed in 0..16 {
            assert!(jittered_retry_after(&config, seed) >= 1);
        }
    }
}
