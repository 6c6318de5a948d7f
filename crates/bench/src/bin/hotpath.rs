//! `hotpath` — record the BFQ hot-path perf trajectory (`BENCH_*.json`)
//! and gate CI against regressions.
//!
//! ```text
//! hotpath [--scale quick|full] [--questions N] [--out PATH]
//!         [--baseline PATH] [--tolerance F] [--stages] [--folded PATH]
//!         [--shards N] [--server] [--server-tolerance F]
//! ```
//!
//! Builds the standard KBA-like session, drives the question set through
//! the retained pre-PR reference kernel ("before") and the optimized kernel
//! ("after", cold = fresh scratch per call, warm = reused scratch), a batch
//! fan-out pass, and — since PR 5 — the **event-driven HTTP server**
//! end-to-end (real sockets, concurrent keep-alive clients), writing the
//! latency/throughput summary as JSON. Each PR commits its report at the
//! repo root (`BENCH_PR4.json`, `BENCH_PR5.json`, …) so the trajectory is
//! diffable.
//!
//! # Per-stage costs (`--stages`, PR 7)
//!
//! `--stages` arms the engine's stage tracer ([`kbqa_obs::StageTrace`]) on
//! the serving scratch and sweeps the question set twice per round —
//! tracer disarmed (the production default for unsampled requests) and
//! armed — so the report carries both a per-stage cost table
//! (`stage_costs`: calls, total, mean, share of pipeline time) and the
//! measured `tracing_overhead_pct` of arming the tracer, min-over-rounds
//! on both sides. `--folded PATH` additionally dumps the table as folded
//! stacks (`kbqa;<stage> <total_us>`), the input format flamegraph
//! renderers like inferno consume.
//!
//! # Sharded serving (`--shards N`, PR 8)
//!
//! `--shards N` (N > 1) partitions the session store through a
//! [`kbqa_core::ShardPlan`] and runs the serving, batch, and HTTP passes
//! through the scatter-gather router, so the report records the sharded
//! figures for this machine. `--shards 1` (the default) is **exactly** the
//! pre-PR 8 single-store path — no router on the hot path — which is why
//! the CI gate pins its baseline through `--shards 1`.
//!
//! # The server-in-the-loop gate (`--server`, PR 10)
//!
//! `--server` adds the chunked-streaming `/batch` pass (a real chunked
//! decoder on the client side, `server_batch_stream_questions_per_sec` in
//! the report) and — when combined with `--baseline` — gates the
//! **end-to-end server throughput** (`server_{cold,cached}_questions_per_sec`)
//! against the baseline with the same hardware-normalizing ratio-of-ratios
//! as the kernel gate: each server figure is divided by the in-run
//! reference-kernel throughput before comparing, so a faster CI box doesn't
//! mask a serving-edge regression and a slower one doesn't fake one.
//! `--server-tolerance F` (default 0.80 — sockets are noisier than
//! kernels) is the server gate's own knob, independent of `--tolerance`.
//!
//! # The CI regression gate (`--baseline` + `--tolerance`)
//!
//! With `--baseline BENCH_PR4.json --tolerance 0.85`, the bin exits
//! nonzero when the **cache-cold serving speedup** (`speedup_cold`:
//! optimized-serving vs the reference kernel, both measured *in this run,
//! on this machine*) drops below `tolerance ×` the baseline's recorded
//! `speedup_cold`. Comparing the in-run *ratio* rather than absolute
//! questions/sec makes the gate hardware-independent: CI boxes and dev
//! laptops measure different absolute numbers, but the reference kernel is
//! the control group in both. Absolute throughputs are printed alongside
//! for human eyes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use kbqa_bench::{session::Scale, Session};
use kbqa_core::engine::{QaEngine, ScratchSpace};
use kbqa_core::service::QaRequest;
use kbqa_nlp::tokenize;
use kbqa_obs::StageStats;
use kbqa_server::{serve, ServerConfig};

/// Report layout version. Bumped to 2 in PR 7 when the per-stage cost
/// table and tracing-overhead fields landed, to 3 in PR 10 when the
/// streamed-batch server figure landed; older reports (implicit version 0)
/// still parse because every addition defaults.
const BENCH_SCHEMA_VERSION: u32 = 3;

/// Latency profile of one mode over the question set.
#[derive(Serialize, Deserialize)]
struct Profile {
    /// What was measured.
    mode: String,
    /// Median per-question latency, microseconds.
    p50_us: f64,
    /// 95th-percentile per-question latency, microseconds.
    p95_us: f64,
    /// Mean per-question latency, microseconds (per-call samples; noisier
    /// than the throughput field).
    mean_us: f64,
    /// Questions per second from the best whole-set sweep (min over
    /// rounds — robust to scheduler/frequency noise).
    questions_per_sec: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    /// Which PR recorded this file.
    pr: String,
    /// Session preset and scale.
    world: String,
    /// Number of distinct questions driven (each timed over `rounds`).
    questions: usize,
    /// Timed rounds over the question set per mode.
    rounds: usize,
    /// Per-mode latency profiles. "reference_kernel" is the pre-PR 4
    /// enumeration retained as `QaEngine::bfq_kernel_reference`;
    /// "optimized_serving" is a cache-cold single question on a per-worker
    /// reused scratch (how every server worker and batch chunk runs);
    /// "optimized_one_shot" constructs a fresh `ScratchSpace` per question
    /// (the synthetic worst case a one-off caller pays).
    profiles: Vec<Profile>,
    /// Cold single-question speedup on the serving path: reference best
    /// sweep / optimized-serving best sweep. "Cold" = no answer cache in
    /// front; every question runs the full kernel. **This is the CI gate
    /// metric** — a ratio of two in-run measurements, so it transfers
    /// across hardware.
    speedup_cold: f64,
    /// One-shot speedup: reference / optimized-one-shot (pays scratch
    /// construction per question).
    speedup_one_shot: f64,
    /// `answer_batch` throughput over the full set, questions/sec.
    batch_questions_per_sec: f64,
    /// End-to-end HTTP throughput through the event-driven server (PR 5):
    /// first pass over the distinct question set, every request a cache
    /// miss, over concurrent keep-alive connections. Absent in pre-PR 5
    /// baselines.
    #[serde(default)]
    server_cold_questions_per_sec: f64,
    /// Same driver, best of the repeat rounds — every request an answer
    /// cache hit (the steady state repeated traffic actually sees).
    #[serde(default)]
    server_cached_questions_per_sec: f64,
    /// Chunked-streaming `POST /batch?stream=1` throughput (PR 10): the
    /// question set split over concurrent streaming clients, each decoding
    /// real chunked transfer, best of the repeat rounds. Absent (0) in
    /// pre-PR 10 baselines and when `--server` was not passed.
    #[serde(default)]
    server_batch_stream_questions_per_sec: f64,
    /// Report layout version ([`BENCH_SCHEMA_VERSION`]); 0 in pre-PR 7
    /// reports that predate the field.
    #[serde(default)]
    schema_version: u32,
    /// Per-stage cost table from the `--stages` pass; empty when the pass
    /// was not requested.
    #[serde(default)]
    stage_costs: Vec<StageCost>,
    /// Cache-cold serving cost of stage tracing at the production default
    /// sample rate (1 in 16 requests armed, `KBQA_TRACE_SAMPLE_EVERY`),
    /// percent: `(sampled_sweep / disarmed_sweep − 1) × 100`,
    /// min-over-rounds on both sides. **This is the ≤ 2 % budget the PR 7
    /// acceptance criteria pin.** Zero when `--stages` was not requested.
    #[serde(default)]
    tracing_overhead_pct: f64,
    /// Worst case: every request armed (what `explain` or
    /// `trace_sample_every = 1` pays). Individual stages on this engine
    /// run in single-digit microseconds, so eleven clock reads plus eight
    /// histogram updates per request are a visible fraction of the
    /// request itself — which is exactly why tracing samples by default.
    #[serde(default)]
    tracing_overhead_armed_pct: f64,
    /// Shard count the serving/batch/server passes ran under (`--shards`);
    /// 0 or 1 in reports that predate (or don't use) sharding — both mean
    /// the plain single-store path.
    #[serde(default)]
    shards: usize,
}

/// The serving default for `KBQA_TRACE_SAMPLE_EVERY` (keep in sync with
/// `kbqa_server::ServerConfig`): 1 in this many requests is traced.
const TRACE_SAMPLE_EVERY: usize = 16;

/// One row of the `--stages` cost table.
#[derive(Serialize, Deserialize)]
struct StageCost {
    /// Pipeline stage name (see [`kbqa_obs::Stage`]).
    stage: String,
    /// Traced observations folded into the row.
    calls: u64,
    /// Sum of observed stage latency, microseconds.
    total_us: u64,
    /// Mean observed stage latency, microseconds.
    mean_us: f64,
    /// This stage's share of the whole pipeline's traced time, percent.
    share_pct: f64,
}

/// Sweep the question set three ways per round — stage tracer disarmed,
/// sampled at the production default (1 in [`TRACE_SAMPLE_EVERY`]), and
/// armed on every request — min-over-rounds each, filling the stage cost
/// table from the always-armed sweeps. Every sweep renders the response's
/// JSON too (`QaEngine::render_request_into`, the serving path, which laps
/// the write as the `serialize` stage), so the comparison stays symmetric
/// and the deltas isolate the tracer. Returns (stage cost table, sampled
/// overhead percent, armed overhead percent).
fn stage_pass(
    engine: &QaEngine<'_>,
    questions: &[String],
    scratch: &mut ScratchSpace,
    rounds: usize,
) -> (Vec<StageCost>, f64, f64) {
    let requests: Vec<QaRequest> = questions.iter().map(QaRequest::new).collect();
    let stats = StageStats::new();
    let sampled_stats = StageStats::new(); // sampled sweep's sink, kept out of the table
    let mut body = Vec::with_capacity(4 << 10);
    let mut render = |request: &QaRequest, scratch: &mut ScratchSpace| {
        body.clear();
        std::hint::black_box(engine.render_request_into(request, scratch, 0, &mut body));
        std::hint::black_box(&body);
    };
    let mut disarmed_total = f64::INFINITY;
    let mut sampled_total = f64::INFINITY;
    let mut armed_total = f64::INFINITY;
    for _ in 0..rounds {
        let round = Instant::now();
        for request in &requests {
            scratch.trace.begin(false);
            render(request, scratch);
        }
        disarmed_total = disarmed_total.min(round.elapsed().as_secs_f64());

        let round = Instant::now();
        for (j, request) in requests.iter().enumerate() {
            scratch.trace.begin(j % TRACE_SAMPLE_EVERY == 0);
            render(request, scratch);
            let _ = scratch.trace.finish(&sampled_stats);
        }
        sampled_total = sampled_total.min(round.elapsed().as_secs_f64());

        let round = Instant::now();
        for request in &requests {
            scratch.trace.begin(true);
            render(request, scratch);
            let _ = scratch.trace.finish(&stats);
        }
        armed_total = armed_total.min(round.elapsed().as_secs_f64());
    }

    let snapshot = stats.snapshot();
    let grand_total: u64 = snapshot.stages.iter().map(|s| s.latency.total_us).sum();
    let costs = snapshot
        .stages
        .iter()
        .map(|s| StageCost {
            stage: s.stage.clone(),
            calls: s.latency.count,
            total_us: s.latency.total_us,
            mean_us: s.latency.mean_us,
            share_pct: 100.0 * s.latency.total_us as f64 / (grand_total.max(1)) as f64,
        })
        .collect();
    let sampled_pct = (sampled_total / disarmed_total.max(1e-12) - 1.0) * 100.0;
    let armed_pct = (armed_total / disarmed_total.max(1e-12) - 1.0) * 100.0;
    (costs, sampled_pct, armed_pct)
}

fn profile(mode: &str, mut samples_us: Vec<f64>) -> Profile {
    samples_us.sort_by(|a, b| a.total_cmp(b));
    let n = samples_us.len().max(1);
    let pct = |p: f64| samples_us[(((n - 1) as f64) * p).round() as usize];
    let mean = samples_us.iter().sum::<f64>() / n as f64;
    Profile {
        mode: mode.to_string(),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        mean_us: mean,
        questions_per_sec: 1e6 / mean.max(1e-9),
    }
}

/// Drive one keep-alive pass over `bodies` against `POST /answer`,
/// panicking on any non-200 (a bench with failing requests is meaningless).
fn http_pass(addr: SocketAddr, bodies: &[String]) {
    let mut stream = TcpStream::connect(addr).expect("connect bench client");
    stream.set_nodelay(true).ok();
    let mut response = Vec::with_capacity(16 << 10);
    for (i, body) in bodies.iter().enumerate() {
        let last = i + 1 == bodies.len();
        write!(
            stream,
            "POST /answer HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\nContent-Length: {}\r\n\r\n{body}",
            if last { "close" } else { "keep-alive" },
            body.len(),
        )
        .expect("write request");
        // Read one response: headers byte-wise, then Content-Length body.
        response.clear();
        let mut byte = [0u8; 1];
        while !response.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(1) => response.push(byte[0]),
                _ => panic!("server closed mid-response"),
            }
        }
        let head = String::from_utf8_lossy(&response);
        assert!(
            head.starts_with("HTTP/1.1 200"),
            "bench request failed: {head}"
        );
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length");
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).expect("read body");
    }
}

/// End-to-end throughput through the event-driven server: `clients`
/// concurrent keep-alive connections split the question set. Returns
/// (cold qps, best cached qps over `rounds`).
fn http_throughput(
    service: kbqa_core::service::KbqaService,
    questions: &[String],
    rounds: usize,
) -> (f64, f64) {
    let config = ServerConfig {
        event_loops: 2,
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("bind bench server");
    let addr = server.local_addr();
    let bodies: Vec<String> = questions
        .iter()
        .map(|q| serde_json::to_string(&QaRequest::new(q)).expect("serialize request"))
        .collect();
    let clients = 8.min(bodies.len().max(1));
    let chunk = bodies.len().div_ceil(clients);
    let run_pass = || {
        std::thread::scope(|scope| {
            for part in bodies.chunks(chunk) {
                scope.spawn(move || http_pass(addr, part));
            }
        });
    };

    // Cold: the very first pass — every request misses the answer cache.
    let start = Instant::now();
    run_pass();
    let cold_qps = bodies.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);

    // Cached: repeat passes hit; min-over-rounds as everywhere else.
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        run_pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    let cached_qps = bodies.len() as f64 / best.max(1e-12);
    server.shutdown();
    (cold_qps, cached_qps)
}

/// Send one `POST /batch?stream=1` and fully decode the chunked response,
/// returning the number of de-chunked body bytes. Panics on a non-200 or a
/// `Content-Length` response (the stream must actually stream).
fn stream_batch_pass(addr: SocketAddr, body: &str) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect stream client");
    stream.set_nodelay(true).ok();
    write!(
        stream,
        "POST /batch?stream=1 HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len(),
    )
    .expect("write request");
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => panic!("server closed mid-head"),
        }
    }
    let head = String::from_utf8_lossy(&head);
    assert!(head.starts_with("HTTP/1.1 200"), "stream failed: {head}");
    assert!(
        head.contains("Transfer-Encoding: chunked"),
        "batch did not stream: {head}"
    );
    // Minimal chunked decoder: hex size line, payload, CRLF, until the
    // zero-size terminator.
    let mut raw = Vec::with_capacity(64 << 10);
    stream.read_to_end(&mut raw).expect("read stream");
    let mut rest: &[u8] = &raw;
    let mut total = 0usize;
    loop {
        let nl = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&rest[..nl]).expect("utf8 size").trim(),
            16,
        )
        .expect("hex chunk size");
        rest = &rest[nl + 2..];
        if size == 0 {
            break;
        }
        total += size;
        rest = &rest[size + 2..];
    }
    total
}

/// Chunked-streaming `/batch` throughput: the question set split over
/// concurrent streaming clients, each sending its part as one streamed
/// batch and decoding real chunked transfer. Returns the best q/s over
/// `rounds` (first pass warms the answer cache and is discarded).
fn stream_batch_throughput(
    service: kbqa_core::service::KbqaService,
    questions: &[String],
    rounds: usize,
) -> f64 {
    let config = ServerConfig {
        event_loops: 2,
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("bind bench server");
    let addr = server.local_addr();
    let clients = 4.min(questions.len().max(1));
    let chunk = questions.len().div_ceil(clients);
    let bodies: Vec<String> = questions
        .chunks(chunk)
        .map(|part| {
            let requests: Vec<QaRequest> = part.iter().map(QaRequest::new).collect();
            serde_json::to_string(&requests).expect("serialize batch")
        })
        .collect();
    let run_pass = || {
        std::thread::scope(|scope| {
            for body in &bodies {
                scope.spawn(move || {
                    assert!(stream_batch_pass(addr, body) > 2, "empty stream body");
                });
            }
        });
    };
    run_pass(); // warmup: fills the answer cache, grows every buffer
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        run_pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    server.shutdown();
    questions.len() as f64 / best.max(1e-12)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut out = "BENCH_PR7.json".to_owned();
    let mut question_count = 200usize;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.85f64;
    let mut stages = false;
    let mut folded: Option<String> = None;
    let mut shards = 1usize;
    let mut server_gate = false;
    let mut server_tolerance = 0.80f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!(
                            "usage: hotpath [--scale quick|full] [--questions N] [--out PATH] \
                             [--baseline PATH] [--tolerance F] [--stages] [--folded PATH] \
                             [--shards N] [--server] [--server-tolerance F]"
                        );
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or(out);
            }
            "--questions" => {
                i += 1;
                question_count = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(200);
            }
            "--baseline" => {
                i += 1;
                baseline = args.get(i).cloned();
            }
            "--tolerance" => {
                i += 1;
                tolerance = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0.85);
            }
            "--stages" => stages = true,
            "--server" => server_gate = true,
            "--server-tolerance" => {
                i += 1;
                server_tolerance = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0.80);
                server_gate = true; // a tolerance implies the gate
            }
            "--shards" => {
                i += 1;
                shards = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(1);
            }
            "--folded" => {
                i += 1;
                folded = args.get(i).cloned();
                stages = true; // the folded dump is rendered from the stage table
            }
            other => {
                eprintln!("[hotpath] unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!("[hotpath] building KBA-like session…");
    let session = Session::standard(scale, "kba");
    let questions: Vec<String> = session
        .corpus
        .pairs
        .iter()
        .take(question_count)
        .map(|p| p.question.clone())
        .collect();
    let tokenized: Vec<_> = questions.iter().map(|q| tokenize(q)).collect();
    // `--shards N` (N > 1): partition the store and route the serving,
    // batch, and server passes through the scatter-gather router. At 1 the
    // service and engine below are exactly the pre-PR 8 single-store path.
    let sharded_service = (shards > 1).then(|| {
        eprintln!("[hotpath] partitioning into {shards} shards…");
        session
            .service()
            .with_shards(kbqa_core::ShardPlan::new(shards))
    });
    let mut engine = QaEngine::with_shared(
        &session.world.store,
        &session.world.conceptualizer,
        &session.model,
        session.service().ner(),
    );
    if let Some(router) = sharded_service.as_ref().and_then(|s| s.shard_router()) {
        engine = engine.with_shards(router);
    }
    let engine = engine;
    let rounds = 5usize;

    // Warmup passes (also validates both kernels agree on answerability).
    let mut warm_scratch = ScratchSpace::new();
    let mut answered = 0usize;
    for tokens in &tokenized {
        let reference = engine.bfq_kernel_reference(tokens);
        let optimized = engine.answer_bfq_tokens_with(tokens, &mut warm_scratch);
        assert_eq!(reference.is_ok(), !optimized.is_empty(), "kernels disagree");
        answered += usize::from(!optimized.is_empty());
    }
    eprintln!(
        "[hotpath] {} questions, {} answerable; timing {} rounds…",
        tokenized.len(),
        answered,
        rounds
    );

    // Per-question samples feed the (informational) percentiles; per-round
    // whole-set totals feed the throughput/speedup numbers. Speedups use
    // the **minimum** round total per mode — the classic noise-robust
    // estimator: scheduler and frequency-scaling interference only ever add
    // time, so the fastest sweep is the closest to the machine's truth.
    // Modes are interleaved within each round so drift hits all equally.
    let mut reference_us = Vec::new();
    let mut one_shot_us = Vec::new();
    let mut serving_us = Vec::new();
    let mut reference_total = f64::INFINITY;
    let mut one_shot_total = f64::INFINITY;
    let mut serving_total = f64::INFINITY;
    for _ in 0..rounds {
        let round = Instant::now();
        for tokens in &tokenized {
            let start = Instant::now();
            let _ = std::hint::black_box(engine.bfq_kernel_reference(tokens));
            reference_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        reference_total = reference_total.min(round.elapsed().as_secs_f64());

        let round = Instant::now();
        for tokens in &tokenized {
            // One-shot: a fresh scratch per question — scratch construction
            // and buffer growth are inside the measurement.
            let start = Instant::now();
            let mut scratch = ScratchSpace::new();
            let _ = std::hint::black_box(engine.answer_bfq_tokens_with(tokens, &mut scratch));
            one_shot_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        one_shot_total = one_shot_total.min(round.elapsed().as_secs_f64());

        let round = Instant::now();
        for tokens in &tokenized {
            // Serving: cache-cold question on the per-worker reused scratch
            // (how every server worker and batch chunk actually runs).
            let start = Instant::now();
            let _ = std::hint::black_box(engine.answer_bfq_tokens_with(tokens, &mut warm_scratch));
            serving_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        serving_total = serving_total.min(round.elapsed().as_secs_f64());
    }

    // Batch fan-out throughput over the whole set.
    let requests: Vec<QaRequest> = questions.iter().map(QaRequest::new).collect();
    let service = sharded_service
        .as_ref()
        .unwrap_or_else(|| session.service());
    let _ = std::hint::black_box(service.answer_batch(&requests)); // warmup
    let start = Instant::now();
    for _ in 0..rounds {
        let _ = std::hint::black_box(service.answer_batch(&requests));
    }
    let batch_qps = (rounds * requests.len()) as f64 / start.elapsed().as_secs_f64();

    // End-to-end through the event-driven server, over real sockets.
    eprintln!("[hotpath] driving the HTTP server end-to-end…");
    let (server_cold_qps, server_cached_qps) = http_throughput(service.clone(), &questions, rounds);
    let server_stream_qps = if server_gate {
        eprintln!("[hotpath] driving chunked-streaming /batch…");
        stream_batch_throughput(service.clone(), &questions, rounds)
    } else {
        0.0
    };

    // Per-stage cost table + tracer overhead, on request.
    let (stage_costs, tracing_overhead_pct, tracing_overhead_armed_pct) = if stages {
        eprintln!("[hotpath] measuring per-stage costs (tracer disarmed vs sampled vs armed)…");
        stage_pass(&engine, &questions, &mut warm_scratch, rounds)
    } else {
        (Vec::new(), 0.0, 0.0)
    };

    let n = tokenized.len() as f64;
    let mut reference = profile("reference_kernel", reference_us);
    let mut one_shot = profile("optimized_one_shot", one_shot_us);
    let mut serving = profile("optimized_serving", serving_us);
    // Throughput from the best whole-set sweep, not the per-call mean.
    reference.questions_per_sec = n / reference_total.max(1e-12);
    one_shot.questions_per_sec = n / one_shot_total.max(1e-12);
    serving.questions_per_sec = n / serving_total.max(1e-12);
    let report = Report {
        pr: "PR10".to_string(),
        world: format!("KBA-like ({scale:?})"),
        questions: tokenized.len(),
        rounds,
        shards,
        speedup_cold: reference_total / serving_total.max(1e-12),
        speedup_one_shot: reference_total / one_shot_total.max(1e-12),
        batch_questions_per_sec: batch_qps,
        server_cold_questions_per_sec: server_cold_qps,
        server_cached_questions_per_sec: server_cached_qps,
        server_batch_stream_questions_per_sec: server_stream_qps,
        schema_version: BENCH_SCHEMA_VERSION,
        stage_costs,
        tracing_overhead_pct,
        tracing_overhead_armed_pct,
        profiles: vec![reference, serving, one_shot],
    };

    println!(
        "reference: p50 {:.1}µs p95 {:.1}µs ({:.0} q/s)",
        report.profiles[0].p50_us, report.profiles[0].p95_us, report.profiles[0].questions_per_sec
    );
    println!(
        "optimized serving (cache-cold, per-worker scratch): p50 {:.1}µs p95 {:.1}µs \
         ({:.0} q/s) — {:.2}× vs reference",
        report.profiles[1].p50_us,
        report.profiles[1].p95_us,
        report.profiles[1].questions_per_sec,
        report.speedup_cold
    );
    println!(
        "optimized one-shot (fresh scratch per question): p50 {:.1}µs p95 {:.1}µs \
         ({:.0} q/s) — {:.2}× vs reference",
        report.profiles[2].p50_us,
        report.profiles[2].p95_us,
        report.profiles[2].questions_per_sec,
        report.speedup_one_shot
    );
    if shards > 1 {
        println!("batch ({shards} shards, scatter-gather): {batch_qps:.0} q/s");
    } else {
        println!("batch: {batch_qps:.0} q/s");
    }
    println!(
        "server (epoll, 8 keep-alive clients): cold {server_cold_qps:.0} q/s, \
         cached {server_cached_qps:.0} q/s"
    );
    if server_gate {
        println!(
            "server streamed /batch (chunked transfer, 4 streaming clients): \
             {server_stream_qps:.0} q/s"
        );
    }
    if !report.stage_costs.is_empty() {
        println!("per-stage costs (cache-cold, tracer armed):");
        println!(
            "  {:<16} {:>9} {:>12} {:>9} {:>7}",
            "stage", "calls", "total_us", "mean_us", "share"
        );
        for row in &report.stage_costs {
            println!(
                "  {:<16} {:>9} {:>12} {:>9.2} {:>6.1}%",
                row.stage, row.calls, row.total_us, row.mean_us, row.share_pct
            );
        }
        println!(
            "tracing overhead vs disarmed sweep: sampled 1/{TRACE_SAMPLE_EVERY} \
             (production default) {:+.2}%, every request armed {:+.2}%",
            report.tracing_overhead_pct, report.tracing_overhead_armed_pct
        );
    }
    if let Some(folded_path) = &folded {
        // One folded stack per stage under a common root — what inferno's
        // `flamegraph.pl`-compatible collapsers consume.
        let mut dump = String::new();
        for row in &report.stage_costs {
            dump.push_str(&format!("kbqa;{} {}\n", row.stage, row.total_us));
        }
        std::fs::write(folded_path, dump).expect("write folded stacks");
        eprintln!("[hotpath] wrote folded stacks to {folded_path}");
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let mut file = std::fs::File::create(&out).expect("create output file");
    file.write_all(json.as_bytes()).expect("write report");
    file.write_all(b"\n").ok();
    eprintln!("[hotpath] wrote {out}");

    // ---- CI regression gate ------------------------------------------------
    if let Some(baseline_path) = baseline {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("[hotpath] cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let recorded: Report = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("[hotpath] cannot parse baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let ratio = report.speedup_cold / recorded.speedup_cold.max(1e-12);
        println!(
            "[gate] cache-cold serving speedup vs in-run reference: \
             baseline ({}) {:.3}×, current {:.3}×, ratio {:.3}, tolerance {:.2}",
            recorded.pr, recorded.speedup_cold, report.speedup_cold, ratio, tolerance
        );
        println!(
            "[gate] (ratio-of-ratios, so the gate is hardware-independent; \
             absolute serving throughput this run: {:.0} q/s)",
            report.profiles[1].questions_per_sec
        );
        if ratio < tolerance {
            eprintln!(
                "[hotpath] PERF REGRESSION: cache-cold serving speedup fell to {ratio:.3} of \
                 the {} baseline (tolerance {tolerance}). The serving path got slower relative \
                 to the reference kernel measured in this same run — see docs/PERFORMANCE.md \
                 (\"Reading the CI gate\").",
                recorded.pr
            );
            std::process::exit(1);
        }
        println!("[gate] OK");

        // ---- Server-in-the-loop gate (--server) ---------------------------
        // Same hardware normalization, applied to the end-to-end figures:
        // each server throughput is divided by the in-run reference-kernel
        // throughput (the control group on both machines) before comparing.
        if server_gate {
            let baseline_ref_qps = recorded
                .profiles
                .iter()
                .find(|p| p.mode == "reference_kernel")
                .map(|p| p.questions_per_sec)
                .unwrap_or(0.0);
            let current_ref_qps = report.profiles[0].questions_per_sec;
            let mut failed = false;
            for (name, current, recorded_qps) in [
                (
                    "server_cold",
                    report.server_cold_questions_per_sec,
                    recorded.server_cold_questions_per_sec,
                ),
                (
                    "server_cached",
                    report.server_cached_questions_per_sec,
                    recorded.server_cached_questions_per_sec,
                ),
            ] {
                if recorded_qps <= 0.0 || baseline_ref_qps <= 0.0 {
                    println!(
                        "[server-gate] {name}: baseline {} predates server figures, skipping",
                        recorded.pr
                    );
                    continue;
                }
                let baseline_norm = recorded_qps / baseline_ref_qps;
                let current_norm = current / current_ref_qps.max(1e-12);
                let ratio = current_norm / baseline_norm.max(1e-12);
                println!(
                    "[server-gate] {name}: baseline ({}) {recorded_qps:.0} q/s \
                     (normalized {baseline_norm:.4}), current {current:.0} q/s \
                     (normalized {current_norm:.4}), ratio {ratio:.3}, \
                     tolerance {server_tolerance:.2}",
                    recorded.pr
                );
                if ratio < server_tolerance {
                    eprintln!(
                        "[hotpath] SERVER PERF REGRESSION: {name} fell to {ratio:.3} of the \
                         {} baseline hardware-normalized (tolerance {server_tolerance}). \
                         The serving edge got slower relative to the reference kernel \
                         measured in this same run — see docs/PERFORMANCE.md \
                         (\"The serving edge\").",
                        recorded.pr
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!("[server-gate] OK");
        }
    }
}
