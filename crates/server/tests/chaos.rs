//! Chaos suite for the multi-process shard-worker tier (PR 9).
//!
//! A healthy fleet of `kbqa-shardd` workers must be **byte-identical** to
//! the unsharded service over the full 300+-question benchmark mix; an
//! unhealthy one must degrade *typed* (every affected question answers
//! `Refusal::ShardUnavailable` inside the lookup deadline, a batch never
//! wedges) and recover to byte-identity once the supervisor restarts the
//! worker. The faults injected here, in escalating nastiness:
//!
//! * `kill -9` mid-workload — crash detection, fast-fail, backoff restart;
//! * `SIGSTOP` — a hung-not-dead worker: per-lookup deadlines bound
//!   latency until heartbeat age trips the hang kill;
//! * corrupted and truncated reply frames (worker-side chaos hooks) —
//!   checksum detection plus bounded retry hide them entirely;
//! * crash-looping worker — the breaker parks the shard and `/healthz`
//!   turns 503 `degraded`;
//! * two-phase `/admin/reload` under continuous batches — no batch ever
//!   merges answers from two model epochs, `min_epoch` gates with 409;
//! * shutdown under load — in-flight requests drain, worker processes are
//!   reaped.
//!
//! Plus placement checks: a service loaded from the sharded bundle and
//! served with `shard_workers` spawns the worker tier, `/answer` on a
//! remote-lane fleet is served on the event loop that read it, a hung
//! worker delays `/healthz` only by the bounded lookups ahead of it, and
//! not at all by a reload it stalls.
//!
//! Worker-spawning tests serialize on one lock: chaos hooks travel through
//! process-global environment variables that spawned workers inherit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use kbqa_core::persist::ServingArtifacts;
use kbqa_core::service::{KbqaService, QaRequest, QaResponse, Refusal};
use kbqa_core::{RemoteOptions, RemoteShard, ShardPlan};
use kbqa_corpus::{benchmark, CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use kbqa_server::{
    serve, BackoffPolicy, MetricsSnapshot, ServerConfig, Supervisor, SupervisorConfig,
};

const SHARDS: usize = 3;

// ---------------------------------------------------------------------------
// Fixture: one learned service, one saved sharded bundle
// ---------------------------------------------------------------------------

struct Fixture {
    world: World,
    corpus: QaCorpus,
    /// The unsharded service (global store; supervisors attach routers to
    /// clones of this) — the byte-identity baseline.
    service: KbqaService,
    /// Bundle directory holding `manifest.json` + `store.shard-{i}.snap`.
    bundle: PathBuf,
}

fn chaos_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbqa-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("chaos temp root");
    dir
}

fn build_fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let learner = kbqa_core::Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = learner.learn(&pairs, &kbqa_core::LearnerConfig::default());
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();
    let bundle = chaos_root().join("bundle");
    ServingArtifacts {
        shard_plan: Some(ShardPlan::new(SHARDS)),
        ..ServingArtifacts::from_service(&service)
    }
    .save(&bundle)
    .expect("save sharded bundle");
    Fixture {
        world,
        corpus,
        service,
        bundle,
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

/// ≥300 requests spanning corpus questions, QALD-like and
/// WebQuestions-like benchmarks, the complex suite and refusal probes,
/// cycling per-request overrides. `explain` stays off: stage timings are
/// wall-clock and would break byte-comparison.
fn request_set(f: &Fixture) -> Vec<QaRequest> {
    let mut questions: Vec<String> = f
        .corpus
        .pairs
        .iter()
        .map(|p| p.question.clone())
        .take(160)
        .collect();
    let qald = benchmark::qald_like(&f.world, "chaos-qald", 120, 90, 0.3, 7);
    questions.extend(qald.questions.into_iter().map(|q| q.question));
    let webq = benchmark::webquestions_like(&f.world, 120, 11);
    questions.extend(webq.questions.into_iter().map(|q| q.question));
    for complex in benchmark::complex_suite(&f.world) {
        questions.push(complex.question);
    }
    questions.extend(
        [
            "",
            "why is the sky blue",
            "please enumerate the inhabitant count of somewhere",
            "what is the meaning of life",
        ]
        .into_iter()
        .map(str::to_owned),
    );
    assert!(questions.len() >= 300, "floor: {}", questions.len());
    questions
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let mut request = QaRequest::new(q);
            match i % 4 {
                1 => request.top_k = Some(1),
                2 => {
                    request.top_k = Some(12);
                    request.min_theta = Some(0.0);
                }
                3 => request.decompose = Some(false),
                _ => {}
            }
            request
        })
        .collect()
}

/// Baseline answers from the unsharded service, serialized — the
/// byte-identity reference every chaos test compares against.
fn baselines() -> &'static Vec<String> {
    static BASELINES: OnceLock<Vec<String>> = OnceLock::new();
    BASELINES.get_or_init(|| {
        let f = fixture();
        f.service
            .answer_batch(&request_set(f))
            .iter()
            .map(|r| serde_json::to_string(r).expect("serialize baseline"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Worker-spawning tests serialize here (chaos env vars are process-global)
// ---------------------------------------------------------------------------

fn spawn_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid as i32, sig);
    }
}

fn pid_alive(pid: u32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe { kill(pid as i32, 0) == 0 }
}

/// A fast-twitch supervisor config: millisecond heartbeats and deadlines
/// so chaos detection fits a test's time budget.
fn fast_config(tag: &str) -> SupervisorConfig {
    SupervisorConfig {
        bundle_dir: fixture().bundle.clone(),
        worker_binary: PathBuf::from(env!("CARGO_BIN_EXE_kbqa-shardd")),
        socket_dir: chaos_root().join(format!("sock-{tag}")),
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(250),
        hang_grace: Duration::from_millis(500),
        backoff: BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_millis(500),
        },
        breaker_window: Duration::from_secs(30),
        breaker_max_restarts: 8,
        lookup_deadline: Duration::from_millis(300),
        lookup_retries: 1,
        startup_deadline: Duration::from_secs(15),
        terminate_grace: Duration::from_secs(2),
    }
}

/// Start a supervised worker fleet and attach its remote router to a clone
/// of the fixture service. Panics if the fleet is not fully up.
fn start_remote(config: SupervisorConfig) -> (Supervisor, KbqaService) {
    let f = fixture();
    let supervisor = Supervisor::start(config, f.service.model_epoch()).expect("start supervisor");
    wait_until_healthy(&supervisor, Duration::from_secs(20));
    let service = f.service.with_shard_router(supervisor.router());
    (supervisor, service)
}

fn wait_until_healthy(supervisor: &Supervisor, budget: Duration) {
    let deadline = Instant::now() + budget;
    while supervisor.degraded() > 0 {
        assert!(
            Instant::now() < deadline,
            "fleet not healthy within {budget:?}: {:?}",
            supervisor.status()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Every response must be the baseline byte-for-byte or a typed
/// `ShardUnavailable` refusal; returns how many degraded.
fn assert_baseline_or_degraded(responses: &[QaResponse], expected: &[String]) -> usize {
    let mut degraded = 0;
    for (i, response) in responses.iter().enumerate() {
        if response.refusal == Some(Refusal::ShardUnavailable) {
            degraded += 1;
            continue;
        }
        let rendered = serde_json::to_string(response).expect("serialize");
        assert_eq!(
            rendered, expected[i],
            "request {i}: response is neither baseline nor a typed shard refusal"
        );
    }
    degraded
}

// ---------------------------------------------------------------------------
// Supervisor-level chaos
// ---------------------------------------------------------------------------

#[test]
fn healthy_multi_process_fleet_is_byte_identical_to_the_unsharded_service() {
    let _guard = spawn_lock();
    let (supervisor, remote) = start_remote(fast_config("equivalence"));
    let requests = request_set(fixture());
    let expected = baselines();

    // The batch path (the scatter-gather scheduler over remote lanes).
    let batch = remote.answer_batch(&requests);
    assert_eq!(batch.len(), expected.len());
    for (i, response) in batch.iter().enumerate() {
        assert_eq!(
            serde_json::to_string(response).expect("serialize"),
            expected[i],
            "batch request {i} diverged across the process boundary"
        );
    }
    // And the single-question path, over a slice.
    for (i, request) in requests.iter().take(40).enumerate() {
        assert_eq!(
            serde_json::to_string(&remote.answer(request)).expect("serialize"),
            expected[i],
            "single request {i} diverged across the process boundary"
        );
    }
    assert_eq!(
        supervisor.degraded(),
        0,
        "equivalence run left the fleet degraded"
    );
    supervisor.shutdown();
}

#[test]
fn kill_nine_mid_workload_degrades_typed_within_deadline_then_recovers() {
    let _guard = spawn_lock();
    // Slow backoff: the dead worker must stay down through the mid-crash
    // batch so the degraded window is observable, not racy.
    let mut config = fast_config("kill9");
    config.backoff = BackoffPolicy {
        base: Duration::from_millis(1500),
        max: Duration::from_secs(3),
    };
    let (supervisor, remote) = start_remote(config);
    let requests = request_set(fixture());
    let expected = baselines();
    let slice = &requests[..120];

    let victim = supervisor.worker_pid(1).expect("shard 1 worker pid");
    signal(victim, 9); // SIGKILL, no goodbye

    // Mid-crash batch: bounded, never wedged, every response baseline or
    // typed refusal — and the dead shard's questions do refuse.
    let started = Instant::now();
    let batch = remote.answer_batch(slice);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "mid-crash batch took {elapsed:?}: lookups are not deadline-bounded"
    );
    let degraded = assert_baseline_or_degraded(&batch, &expected[..120]);
    assert!(
        degraded > 0,
        "killed a shard worker mid-workload but no question refused ShardUnavailable"
    );

    // The supervisor restarts the worker with backoff; once the fleet is
    // healthy the full suite is byte-identical again.
    wait_until_healthy(&supervisor, Duration::from_secs(20));
    let recovered = remote.answer_batch(&requests);
    for (i, response) in recovered.iter().enumerate() {
        assert_eq!(
            serde_json::to_string(response).expect("serialize"),
            expected[i],
            "request {i} still degraded after restart"
        );
    }
    assert!(
        supervisor.status()[1].restarts >= 1,
        "shard 1 recovered without the supervisor counting a restart"
    );
    supervisor.shutdown();
}

#[test]
fn sigstopped_worker_hits_lookup_deadlines_then_hang_kill_then_recovers() {
    let _guard = spawn_lock();
    let mut config = fast_config("sigstop");
    config.backoff = BackoffPolicy {
        base: Duration::from_millis(1000),
        max: Duration::from_secs(3),
    };
    let (supervisor, remote) = start_remote(config);
    let requests = request_set(fixture());
    let expected = baselines();
    let slice = &requests[..90];

    let victim = supervisor.worker_pid(0).expect("shard 0 worker pid");
    signal(victim, 19); // SIGSTOP: alive, silent — the nastiest failure mode

    // Hung-worker lookups burn the per-lookup deadline (not forever) until
    // heartbeat age trips the hang kill and the lane fails fast.
    let started = Instant::now();
    let batch = remote.answer_batch(slice);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "batch against a hung worker took {elapsed:?}: deadlines are not bounding"
    );
    let degraded = assert_baseline_or_degraded(&batch, &expected[..90]);
    assert!(
        degraded > 0,
        "a SIGSTOPped worker should have degraded its owned questions"
    );

    // The hang kill SIGKILLs the stopped process; restart recovers it.
    wait_until_healthy(&supervisor, Duration::from_secs(20));
    let recovered = remote.answer_batch(&requests);
    for (i, response) in recovered.iter().enumerate() {
        assert_eq!(
            serde_json::to_string(response).expect("serialize"),
            expected[i],
            "request {i} still degraded after the hang kill + restart"
        );
    }
    supervisor.shutdown();
}

#[test]
fn corrupted_and_truncated_reply_frames_are_retried_to_byte_identity() {
    let _guard = spawn_lock();
    // Shard 1 corrupts the checksum trailer of every 5th reply on a
    // connection; shard 2 sends half of every 7th and hangs up. Both are
    // transient wire faults: detection (Fx-64 checksum / EOF) plus one
    // retry, which takes a fresh connection, must hide them completely.
    // Generous hang grace keeps sporadic failed pings from escalating to a
    // hang kill mid-test.
    std::env::set_var("KBQA_SHARDD_CORRUPT_EVERY", "1:5");
    std::env::set_var("KBQA_SHARDD_TRUNCATE_EVERY", "2:7");
    let mut config = fast_config("wire-chaos");
    config.hang_grace = Duration::from_secs(10);
    config.lookup_retries = 2;
    let result = std::panic::catch_unwind(|| {
        let (supervisor, remote) = start_remote(config);
        let requests = request_set(fixture());
        let expected = baselines();
        let slice = &requests[..150];
        let batch = remote.answer_batch(slice);
        for (i, response) in batch.iter().enumerate() {
            assert_eq!(
                serde_json::to_string(response).expect("serialize"),
                expected[i],
                "request {i}: wire-level corruption leaked past checksum + retry"
            );
        }
        // The hooks do fire: with no retry, one pooled connection sees
        // shard 1's 5th reply fail its checksum and shard 2's 7th arrive
        // truncated.
        for (shard, nth, symptom) in [(1, 5, "checksum"), (2, 7, "failed to fill whole buffer")] {
            let lane = RemoteShard::new(
                shard,
                supervisor.router().lanes()[shard].socket(),
                RemoteOptions {
                    deadline: Duration::from_secs(5),
                    retries: 0,
                    max_idle: 1,
                },
            );
            for ping in 1..nth {
                if let Err(e) = lane.ping(ping, Duration::from_secs(5)) {
                    panic!("shard {shard}: ping {ping} of a fresh connection failed: {e}");
                }
            }
            let err = lane
                .ping(nth, Duration::from_secs(5))
                .expect_err("the hook faults the nth reply of a connection");
            assert!(err.to_string().contains(symptom), "shard {shard}: {err}");
        }
        supervisor.shutdown();
    });
    std::env::remove_var("KBQA_SHARDD_CORRUPT_EVERY");
    std::env::remove_var("KBQA_SHARDD_TRUNCATE_EVERY");
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

// ---------------------------------------------------------------------------
// HTTP-level chaos (full serve() stack)
// ---------------------------------------------------------------------------

fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
    body: &str,
) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .ok()?;
    read_reply(&mut stream)
}

/// One `Content-Length`-framed reply off `stream`: (status, head, body).
fn read_reply(stream: &mut TcpStream) -> Option<(u16, String, String)> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            _ => return None,
        }
    }
    let head = String::from_utf8(raw).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).ok()?;
    Some((status, head, String::from_utf8(body).ok()?))
}

fn must_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
    body: &str,
) -> (u16, String, String) {
    http_request(addr, method, path, headers, body).expect("complete HTTP response")
}

/// Extract `"key":<u64>` from a flat JSON body without a full parser.
fn extract_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap_or_else(|| {
        panic!("no {key} in {body}");
    }) + needle.len();
    body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("number")
}

/// Per-lane `queries` of the `/metrics` shard section (empty when the
/// service serves unsharded).
fn shard_queries(addr: SocketAddr) -> Vec<u64> {
    let (status, _, body) = must_request(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200, "{body}");
    let metrics: MetricsSnapshot = serde_json::from_str(&body).expect("metrics JSON");
    metrics
        .shards
        .map(|shards| shards.lanes.iter().map(|lane| lane.queries).collect())
        .unwrap_or_default()
}

/// Every `"pid":<n>` in a healthz body.
fn extract_pids(body: &str) -> Vec<u32> {
    let mut pids = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("\"pid\":") {
        rest = &rest[at + 6..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(pid) = digits.parse() {
            pids.push(pid);
        }
    }
    pids
}

/// The first `/healthz` body that lists all `SHARDS` workers `up`.
fn healthz_with_every_worker_up(addr: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = must_request(addr, "GET", "/healthz", "", "");
        if status == 200 && body.matches("\"state\":\"up\"").count() == SHARDS {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "healthz never listed {SHARDS} shard workers up: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The service a warm start loads from the sharded bundle: no router —
/// `serve` attaches the supervised worker tier.
fn bundle_service() -> KbqaService {
    ServingArtifacts::load(&fixture().bundle)
        .expect("load bundle")
        .into_service()
}

fn shard_server_config(tag: &str) -> ServerConfig {
    ServerConfig {
        // Two loops: two requests can wait on a shard worker at once.
        event_loops: 2,
        shard_workers: SHARDS,
        bundle_dir: Some(fixture().bundle.clone()),
        shardd_path: Some(PathBuf::from(env!("CARGO_BIN_EXE_kbqa-shardd"))),
        worker_socket_dir: Some(chaos_root().join(format!("sock-http-{tag}"))),
        worker_heartbeat_ms: 50,
        worker_deadline_ms: 300,
        worker_retries: 1,
        worker_breaker_max_restarts: 8,
        worker_breaker_window_ms: 30_000,
        worker_terminate_grace_ms: 2_000,
        ..ServerConfig::default()
    }
}

#[test]
fn crash_looping_worker_is_parked_and_healthz_reports_degraded_503() {
    let _guard = spawn_lock();
    // Shard 1's worker exits right after binding, every time: a crash loop
    // the breaker must contain by parking the shard, not by restarting
    // forever. Conceded restarts: breaker_max_restarts 2 → parked on the
    // 3rd crash inside the window.
    std::env::set_var("KBQA_SHARDD_EXIT_ON_START", "1");
    let result = std::panic::catch_unwind(|| {
        let mut config = shard_server_config("crash-loop");
        config.worker_breaker_max_restarts = 2;
        let handle =
            serve(bundle_service(), "127.0.0.1:0", config).expect("serve with shard workers");
        let addr = handle.local_addr();

        // The breaker parks shard 1 within a few backoff rounds.
        let deadline = Instant::now() + Duration::from_secs(30);
        let (status, body) = loop {
            let (status, _, body) = must_request(addr, "GET", "/healthz", "", "");
            if body.contains("\"state\":\"parked\"") {
                break (status, body);
            }
            assert!(
                Instant::now() < deadline,
                "crash-looping shard never parked; last healthz: {body}"
            );
            std::thread::sleep(Duration::from_millis(100));
        };
        assert_eq!(status, 503, "a parked shard must flip healthz to 503");
        assert!(
            body.contains("\"status\":\"degraded\""),
            "healthz body not degraded: {body}"
        );
        assert!(
            extract_u64(&body, "degraded_shards") >= 1,
            "degraded_shards not counted: {body}"
        );

        // Data plane: healthy shards answer, the parked shard refuses
        // typed — the server serves degraded rather than wedging.
        let requests = request_set(fixture());
        let expected = baselines();
        let payload = serde_json::to_string(&requests[..120]).expect("payload");
        let (status, _, body) = must_request(addr, "POST", "/batch", "", &payload);
        assert_eq!(status, 200);
        let responses: Vec<QaResponse> = serde_json::from_str(&body).expect("batch body");
        let degraded = assert_baseline_or_degraded(&responses, &expected[..120]);
        assert!(degraded > 0, "parked shard produced no typed refusals");
        let answered = responses
            .iter()
            .filter(|r| r.refusal != Some(Refusal::ShardUnavailable))
            .count();
        assert!(answered > 0, "healthy shards stopped answering too");

        // Prometheus exposition carries the worker families.
        let (_, _, metrics) = must_request(addr, "GET", "/metrics?format=prometheus", "", "");
        for family in [
            "kbqa_shard_worker_restarts_total",
            "kbqa_shard_worker_heartbeat_age_seconds",
            "kbqa_shard_worker_up",
            "kbqa_shard_worker_parked",
        ] {
            assert!(metrics.contains(family), "missing {family} in exposition");
        }
        handle.shutdown();
    });
    std::env::remove_var("KBQA_SHARDD_EXIT_ON_START");
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn a_loaded_sharded_bundle_served_with_shard_workers_spawns_them() {
    // The documented setup: load the bundle `KBQA_BUNDLE_DIR` names, then
    // serve it with `KBQA_SHARD_WORKERS`. Loading maps no shard store, so
    // the supervisor spawns one worker per shard and every lookup goes
    // through them.
    let _guard = spawn_lock();
    let handle = serve(
        bundle_service(),
        "127.0.0.1:0",
        shard_server_config("bundle"),
    )
    .expect("serve with shard workers");
    let addr = handle.local_addr();
    let health = healthz_with_every_worker_up(addr);
    assert_eq!(extract_pids(&health).len(), SHARDS, "{health}");

    let requests = request_set(fixture());
    let expected = baselines();
    let payload = serde_json::to_string(&requests[..120]).expect("payload");
    let (status, _, body) = must_request(addr, "POST", "/batch", "", &payload);
    assert_eq!(status, 200, "{body}");
    let responses: Vec<QaResponse> = serde_json::from_str(&body).expect("batch body");
    assert_eq!(responses.len(), 120);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            serde_json::to_string(response).expect("serialize"),
            expected[i],
            "request {i} diverged through the spawned workers"
        );
    }
    let queries = shard_queries(addr);
    assert_eq!(queries.len(), SHARDS);
    assert!(
        queries.iter().sum::<u64>() > 0,
        "no lookup reached a worker"
    );
    handle.shutdown();
}

#[test]
fn two_phase_reload_never_mixes_epochs_and_min_epoch_gates_with_409() {
    let _guard = spawn_lock();
    let service = bundle_service();
    let model_path = chaos_root().join("reload-model.json");
    kbqa_core::persist::save_model(&service.model(), &model_path).expect("save model");
    let mut config = shard_server_config("reload");
    config.admin_token = Some("chaos-secret".to_string());
    config.model_path = Some(model_path);
    let handle = serve(service, "127.0.0.1:0", config).expect("serve with shard workers");
    let addr = handle.local_addr();

    // Hammer /batch from a side thread while reloads flip epochs: every
    // batch must carry ONE model epoch across all its members — the
    // two-phase stage/commit means no batch ever straddles a flip.
    let questions: Vec<QaRequest> = request_set(fixture()).into_iter().take(24).collect();
    let payload = serde_json::to_string(&questions).expect("payload");
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let Some((status, _, body)) = http_request(addr, "POST", "/batch", "", &payload)
                else {
                    continue;
                };
                assert_eq!(status, 200, "batch failed mid-reload: {body}");
                let responses: Vec<QaResponse> = serde_json::from_str(&body).expect("batch body");
                let epochs: std::collections::BTreeSet<u64> =
                    responses.iter().map(|r| r.model_epoch).collect();
                assert!(
                    epochs.len() <= 1,
                    "one batch straddled model epochs {epochs:?}"
                );
                batches += 1;
            }
            batches
        })
    };

    let token_header = "X-Admin-Token: chaos-secret\r\n";
    let mut last_epoch = 0;
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(150));
        let (status, _, body) = must_request(addr, "POST", "/admin/reload", token_header, "");
        assert_eq!(status, 200, "two-phase reload failed: {body}");
        let epoch = extract_u64(&body, "model_epoch");
        assert!(epoch > last_epoch, "reload did not advance the epoch");
        last_epoch = epoch;
    }
    stop.store(true, Ordering::Relaxed);
    let batches = hammer.join().expect("hammer thread");
    assert!(
        batches > 0,
        "the hammer never landed a batch during the reloads"
    );

    // The bundle reloads kept the workers' router: every lane still
    // reports, and questions new at this epoch add to its queries.
    let before = shard_queries(addr);
    assert_eq!(before.len(), SHARDS, "a bundle reload dropped the shards");
    let fresh = serde_json::to_string(&request_set(fixture())[24..72]).expect("payload");
    let (status, _, body) = must_request(addr, "POST", "/batch", "", &fresh);
    assert_eq!(status, 200, "{body}");
    let after = shard_queries(addr);
    assert_eq!(after.len(), SHARDS, "a bundle reload dropped the shards");
    assert!(
        after.iter().sum::<u64>() > before.iter().sum::<u64>(),
        "no lookup reached the workers after the reloads: {before:?} → {after:?}"
    );

    // min_epoch: read-your-reload honored at the served epoch, 409 above.
    let mut pinned = QaRequest::new("what is the population of nowhere");
    pinned.min_epoch = Some(last_epoch);
    let body = serde_json::to_string(&pinned).expect("request");
    let (status, _, _) = must_request(addr, "POST", "/answer", "", &body);
    assert_eq!(status, 200, "min_epoch at the served epoch must pass");
    pinned.min_epoch = Some(last_epoch + 1);
    let body = serde_json::to_string(&pinned).expect("request");
    let (status, _, reply) = must_request(addr, "POST", "/answer", "", &body);
    assert_eq!(status, 409, "future min_epoch must 409: {reply}");
    // And a batch with one future-pinned member rejects whole.
    let mut batch = questions[..3].to_vec();
    batch[1].min_epoch = Some(last_epoch + 1);
    let body = serde_json::to_string(&batch).expect("batch");
    let (status, _, _) = must_request(addr, "POST", "/batch", "", &body);
    assert_eq!(status, 409, "a batch pinning a future epoch must 409 whole");
    handle.shutdown();
}

#[test]
fn remote_lane_answers_are_served_on_the_loop() {
    // Every request runs on the event loop that read it, a remote-lane
    // `/answer` included (its lookups are bounded by `worker_deadline_ms`).
    // Visible without timing anything: a loop-served request wakes its loop
    // once (socket readable); a handoff to another thread would add a
    // second wake (its completion) to every request.
    const REQUESTS: usize = 40;
    let _guard = spawn_lock();
    let handle = serve(bundle_service(), "127.0.0.1:0", shard_server_config("loop"))
        .expect("serve with shard workers");
    let addr = handle.local_addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
    };
    // Scrapes ride one keep-alive connection, so the count sees no accepts:
    // with two loops an accept may wake both of them.
    let mut scrape = connect();
    let mut wakeups = || {
        scrape
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write scrape");
        let (status, _, body) = read_reply(&mut scrape).expect("metrics reply");
        assert_eq!(status, 200);
        extract_u64(&body, "epoll_wakeups")
    };

    let requests = request_set(fixture());
    let expected = baselines();
    let mut stream = connect();
    // Both connections are accepted and served once before counting starts.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write healthz");
    assert_eq!(read_reply(&mut stream).expect("healthz reply").0, 200);
    wakeups();
    let before = wakeups();
    for (request, expected) in requests.iter().zip(expected).take(REQUESTS) {
        let body = serde_json::to_string(request).expect("request");
        // One buffer, one write: `write!` straight to the socket sends the
        // request in fragments, each of which would wake the loop.
        let wire = format!(
            "POST /answer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(wire.as_bytes()).expect("write request");
        let (status, _, reply) = read_reply(&mut stream).expect("complete HTTP response");
        assert_eq!(status, 200, "{reply}");
        assert_eq!(
            &reply, expected,
            "a healthy fleet answers byte-identically to the unsharded service"
        );
    }
    let spent = wakeups() - before;
    // The bound `a_keep_alive_answer_costs_one_epoll_wakeup` uses; the
    // slack covers the second scrape's read.
    assert!(
        spent as usize * 10 <= REQUESTS * 11,
        "{spent} epoll wakeups for {REQUESTS} remote-lane /answer requests: \
         each must be served on the loop that read it (one wakeup)"
    );
    handle.shutdown();
}

#[test]
fn a_hung_shard_worker_delays_healthz_only_by_bounded_lookups() {
    // A SIGSTOPped worker stalls every lookup routed to it until the lookup
    // deadline (then until the hang kill parks the lane). The loops serving
    // those lookups are blocked meanwhile, so a `/healthz` on a fresh
    // connection waits behind at most the lookups ahead of it on its loop
    // — bounded, never forever.
    const CLIENTS: usize = 4;
    let _guard = spawn_lock();
    let handle = serve(bundle_service(), "127.0.0.1:0", shard_server_config("hung"))
        .expect("serve with shard workers");
    let addr = handle.local_addr();
    let health = healthz_with_every_worker_up(addr);
    let victim = extract_pids(&health)[0];

    let requests = request_set(fixture());
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let mine: Vec<QaRequest> = requests.iter().skip(c).step_by(CLIENTS).cloned().collect();
            std::thread::spawn(move || {
                let mut sent = 0usize;
                for request in mine.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // A distinct cache key every time: a cache hit would
                    // never reach the hung worker.
                    let mut request = request.clone();
                    request.top_k = Some(1 + sent);
                    let body = serde_json::to_string(&request).expect("request");
                    let (status, _, reply) = must_request(addr, "POST", "/answer", "", &body);
                    assert_eq!(status, 200, "{reply}");
                    sent += 1;
                }
                sent
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(200));
    signal(victim, 19); // SIGSTOP
    let mut waits = Vec::new();
    let probing = Instant::now();
    while probing.elapsed() < Duration::from_secs(3) {
        let started = Instant::now();
        let (status, _, body) = must_request(addr, "GET", "/healthz", "", "");
        let waited = started.elapsed();
        assert!(
            status == 200 || status == 503,
            "healthz answered {status}: {body}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "healthz took {waited:?} behind a hung shard worker"
        );
        waits.push(waited);
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    let sent: usize = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    signal(victim, 18); // SIGCONT, in case the hang kill has not reaped it
    waits.sort_unstable();
    let ms = |q: usize| waits[(waits.len() - 1) * q / 100].as_secs_f64() * 1e3;
    println!(
        "healthz behind a hung worker: {} probes, p50 {:.1} ms, p90 {:.1} ms, max {:.1} ms; \
         {sent} /answer requests",
        waits.len(),
        ms(50),
        ms(90),
        ms(100)
    );
    assert!(sent > 0, "no client /answer completed");
    handle.shutdown();
}

#[test]
fn healthz_does_not_wait_on_a_reload_stalled_by_a_hung_worker() {
    // A bundle reload stages the next epoch on every up worker; a
    // SIGSTOPped one stalls that stage until the hang kill (`hang_grace`,
    // 2 s by default). The reload holds its own loop meanwhile, but a
    // `/healthz` on a fresh connection is accepted by the other, waiting
    // loop, and reads the supervisor's published status without taking
    // the reload lock or a slot the monitor is pinging through.
    const PROMPT: Duration = Duration::from_millis(150);
    let _guard = spawn_lock();
    let mut config = shard_server_config("reload-hung");
    config.admin_token = Some("chaos-secret".to_string());
    let handle = serve(bundle_service(), "127.0.0.1:0", config).expect("serve with shard workers");
    let addr = handle.local_addr();
    let health = healthz_with_every_worker_up(addr);
    let victim = extract_pids(&health)[0];

    signal(victim, 19); // SIGSTOP
    let reload = std::thread::spawn(move || {
        let token_header = "X-Admin-Token: chaos-secret\r\n";
        must_request(addr, "POST", "/admin/reload?mode=bundle", token_header, "").0
    });
    std::thread::sleep(Duration::from_millis(300));
    let mut waits = Vec::new();
    let probing = Instant::now();
    while probing.elapsed() < Duration::from_secs(1) {
        let started = Instant::now();
        let (status, _, body) = must_request(addr, "GET", "/healthz", "", "");
        waits.push(started.elapsed());
        assert!(
            status == 200 || status == 503,
            "healthz answered {status}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let overlapped = !reload.is_finished();
    let status = reload.join().expect("reload thread");
    signal(victim, 18); // SIGCONT, in case the hang kill has not reaped it
    let slowest = waits.iter().max().copied().unwrap_or_default();
    assert!(
        slowest < PROMPT,
        "healthz took {slowest:?} during a stalled reload ({} probes)",
        waits.len()
    );
    assert!(
        overlapped,
        "the reload finished before the probes did: nothing was measured"
    );
    assert!(
        status == 200 || status == 500,
        "a reload stalled by a hung worker answered {status}"
    );
    handle.shutdown();
}

#[test]
fn shutdown_under_load_drains_in_flight_requests_and_reaps_workers() {
    let _guard = spawn_lock();
    let handle = serve(
        bundle_service(),
        "127.0.0.1:0",
        shard_server_config("shutdown"),
    )
    .expect("serve with shard workers");
    let addr = handle.local_addr();
    let (_, _, health) = must_request(addr, "GET", "/healthz", "", "");
    let pids = extract_pids(&health);
    assert_eq!(
        pids.len(),
        SHARDS,
        "healthz lists every worker pid: {health}"
    );

    // Clients hammer /answer through the shutdown; each completed reply
    // must be a full, valid response (drain = no truncated writes, no
    // abandoned batches). Connection errors after shutdown are expected.
    let stop = Arc::new(AtomicBool::new(false));
    let questions = request_set(fixture());
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let body = serde_json::to_string(&questions[c * 20..c * 20 + 10]).expect("payload");
            std::thread::spawn(move || {
                let mut completed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Some((status, _, reply)) =
                        http_request(addr, "POST", "/batch", "", &body)
                    {
                        assert_eq!(status, 200);
                        let parsed: Vec<QaResponse> =
                            serde_json::from_str(&reply).expect("complete body");
                        assert_eq!(parsed.len(), 10);
                        completed += 1;
                    }
                }
                completed
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(400));
    let started = Instant::now();
    handle.shutdown(); // drains the loops, then the worker fleet
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    assert!(
        elapsed < Duration::from_secs(20),
        "shutdown under load took {elapsed:?}"
    );
    let completed: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    assert!(
        completed > 0,
        "no client ever completed a batch before shutdown"
    );
    for pid in pids {
        assert!(
            !pid_alive(pid),
            "worker pid {pid} survived server shutdown (leak)"
        );
    }
}
