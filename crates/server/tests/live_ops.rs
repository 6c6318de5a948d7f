//! Live-operations tests for the serving control plane: token-gated
//! `POST /admin/reload` hot swaps with versioned cache keys (a pre-swap
//! cache entry is never served post-swap, asserted byte-level), one epoch
//! per reload under concurrent reloads of both modes, every answer served
//! during reloads rendered wholly by its epoch's model, no `/batch` mixing
//! two epochs while reloads land between its lanes, `min_epoch` gating with
//! `409`, a bundle reload onto
//! a forged section file or a directory without a manifest refused with a
//! `500` while the old epoch answers on byte for byte, and admission
//! control (a saturated accept queue sheds with `429` + `Retry-After`, then
//! recovers after drain).
//!
//! Unlike `http_server.rs`, each test here starts its **own** server:
//! reloads move a server's epoch, and every expectation below is pinned to
//! the epochs its own reloads produced. The in-process expectation for a
//! reloaded model comes from [`KbqaService::with_model`], the service a
//! model reload swaps in.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use kbqa_core::learner::{LearnedModel, Learner, LearnerConfig};
use kbqa_core::persist::{save_model, ServingArtifacts, MODEL_FILE};
use kbqa_core::service::{KbqaService, QaRequest, QaResponse};
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use kbqa_rdf::GraphBuilder;
use kbqa_server::{serve, CacheStats, MetricsSnapshot, ServerConfig};
use kbqa_taxonomy::{Conceptualizer, NetworkBuilder};

/// A real learned service plus a question it demonstrably answers.
fn learned_service() -> (KbqaService, String) {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let learner = Learner::new(
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
    let (model, _) = learner.learn(&pairs, &LearnerConfig::default());
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();

    let intent = world.intent_by_name("city_population").expect("intent");
    let city = world
        .subjects_of(intent)
        .iter()
        .copied()
        .find(|&c| {
            !world.gold_values(intent, c).is_empty()
                && world.store.entities_named(&world.store.surface(c)).len() == 1
        })
        .expect("answerable city");
    let question = format!("what is the population of {}", world.store.surface(city));
    assert!(service.answer_text(&question).answered());
    (service, question)
}

/// A near-free service over an empty world — enough for protocol-level
/// tests (admission control, admin gating) that never need real answers.
fn empty_service() -> KbqaService {
    KbqaService::new(
        Arc::new(GraphBuilder::new().build()),
        Arc::new(Conceptualizer::new(NetworkBuilder::new().build())),
        Arc::new(LearnedModel::default()),
    )
}

/// A tiny world's service with an empty model, saved as a bundle in a
/// fresh directory of its own.
fn bundle_fixture(tag: &str) -> (KbqaService, PathBuf) {
    let world = World::generate(WorldConfig::tiny(7));
    let service = KbqaService::new(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(LearnedModel::default()),
    );
    let dir = std::env::temp_dir().join(format!("kbqa-live-ops-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ServingArtifacts::from_service(&service)
        .save(&dir)
        .expect("save bundle");
    (service, dir)
}

/// A unique temp path for a model file.
fn temp_model_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kbqa-live-ops-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}-{}.json", std::process::id()))
}

// ---------------------------------------------------------------------------
// A tiny test-side HTTP client (header-aware, unlike http_server.rs's)
// ---------------------------------------------------------------------------

fn send_request(stream: &mut TcpStream, method: &str, path: &str, headers: &str, body: &str) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
}

/// Read one full response, returning (status, raw head, body).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            _ => panic!(
                "connection closed mid-header: {:?}",
                String::from_utf8_lossy(&raw)
            ),
        }
    }
    let head = String::from_utf8(raw).expect("utf8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

fn http(addr: SocketAddr, method: &str, path: &str, headers: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, headers, body);
    let (status, _, body) = read_response(&mut stream);
    (status, body)
}

fn cache_stats(addr: SocketAddr) -> CacheStats {
    let (status, body) = http(addr, "GET", "/cache/stats", "", "");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("cache stats JSON")
}

fn metrics(addr: SocketAddr) -> MetricsSnapshot {
    let (status, body) = http(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("metrics JSON")
}

/// The first `model_epoch` a response body carries.
fn epoch_in(body: &str) -> u64 {
    let rest = body
        .split("\"model_epoch\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no model_epoch in {body}"));
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().expect("epoch")
}

const ADMIN: &str = "X-Admin-Token: swordfish\r\n";

// ---------------------------------------------------------------------------
// Hot swap through POST /admin/reload
// ---------------------------------------------------------------------------

#[test]
fn reload_swaps_the_model_and_invalidates_cached_answers() {
    let (service, question) = learned_service();
    let model_path = temp_model_path("reload-swap");
    // The "new build" waiting on disk: an empty model, observably different
    // from the learned one (it refuses everything).
    save_model(&LearnedModel::default(), &model_path).expect("save replacement");

    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        model_path: Some(model_path.clone()),
        ..ServerConfig::default()
    };
    // The server serves a clone; after the reload it serves what
    // `service.with_model` builds from the file, the in-process expectation
    // below.
    let server = serve(service.clone(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let request = QaRequest::new(&question);
    let body = serde_json::to_string(&request).unwrap();
    let pre_swap_expected = serde_json::to_string(&service.answer(&request)).unwrap();

    // Warm the cache under epoch 0, then prove the repeat hits.
    let (status, first) = http(addr, "POST", "/answer", "", &body);
    assert_eq!(status, 200);
    assert_eq!(first, pre_swap_expected);
    let (_, second) = http(addr, "POST", "/answer", "", &body);
    assert_eq!(second, first);
    let warm = cache_stats(addr);
    assert_eq!(warm.model_epoch, 0);
    assert_eq!((warm.hits, warm.misses, warm.entries), (1, 1, 1));

    // Swap. The route reports the new epoch…
    let (status, reload) = http(
        addr,
        "POST",
        "/admin/reload",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 200, "reload failed: {reload}");
    assert!(reload.contains("\"reloaded\":true"), "{reload}");
    assert!(reload.contains("\"model_epoch\":1"), "{reload}");

    // …and every observability surface agrees.
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    assert!(
        health.starts_with("{\"status\":\"ok\",\"model_epoch\":1"),
        "{health}"
    );
    assert!(
        health.contains("\"store_backend\":\"in_memory\""),
        "{health}"
    );
    let swapped = cache_stats(addr);
    assert_eq!(swapped.model_epoch, 1);
    assert_eq!(
        swapped.entries, 1,
        "no flush: the stale entry stays resident until LRU takes it"
    );
    assert_eq!(metrics(addr).admin_reloads, 1);

    // The acceptance assertion, byte-level: the same question now MISSES
    // (the versioned key changed) and is served by the NEW model under the
    // new epoch — never the cached pre-swap answer.
    let reloaded = service.with_model(Arc::new(LearnedModel::default()));
    let post_swap_expected = serde_json::to_string(&reloaded.answer(&request)).unwrap();
    assert_ne!(post_swap_expected, pre_swap_expected);
    let (status, third) = http(addr, "POST", "/answer", "", &body);
    assert_eq!(status, 200);
    assert_eq!(
        third, post_swap_expected,
        "post-swap answer must come from the new model"
    );
    let parsed: QaResponse = serde_json::from_str(&third).unwrap();
    assert!(!parsed.answered(), "the empty replacement model refuses");
    assert_eq!(parsed.model_epoch, 1);
    let after = cache_stats(addr);
    assert_eq!(
        after.misses,
        warm.misses + 1,
        "first post-swap request must be a cache miss"
    );
    assert_eq!(after.hits, warm.hits, "the pre-swap entry must not hit");
    assert_eq!(after.entries, 2, "old and new epoch entries coexist");

    // And the new entry caches normally under its epoch.
    let (_, fourth) = http(addr, "POST", "/answer", "", &body);
    assert_eq!(fourth, third);
    assert_eq!(cache_stats(addr).hits, after.hits + 1);

    server.shutdown();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn reload_is_gated_token_then_path_then_load() {
    let (status, body) = {
        // No admin token configured: the surface is off.
        let server = serve(empty_service(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let out = http(
            server.local_addr(),
            "POST",
            "/admin/reload",
            "X-Admin-Token: anything\r\n",
            "",
        );
        server.shutdown();
        out
    };
    assert_eq!(status, 403, "{body}");

    // Token configured but no model path: authenticate, then 409.
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        ..ServerConfig::default()
    };
    let server = serve(empty_service(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    for bad in [
        "".to_string(),                               // no credential at all
        "X-Admin-Token: sword\r\n".to_string(),       // wrong token
        "Authorization: Bearer fishsword\r\n".into(), // wrong bearer
        "Authorization: swordfish\r\n".into(),        // not a bearer scheme
    ] {
        let (status, _) = http(addr, "POST", "/admin/reload", &bad, "");
        assert_eq!(status, 401, "credential {bad:?} must be rejected");
    }
    // GET on the admin route is a method error, not a 404.
    let (status, _) = http(addr, "GET", "/admin/reload", "", "");
    assert_eq!(status, 405);

    // Both header forms authenticate (the bearer scheme case-insensitively,
    // per RFC 7235); with no path configured that's 409.
    for good in [
        "X-Admin-Token: swordfish\r\n",
        "Authorization: Bearer swordfish\r\n",
        "Authorization: bearer swordfish\r\n",
    ] {
        let (status, body) = http(addr, "POST", "/admin/reload", good, "");
        assert_eq!(status, 409, "{body}");
    }
    assert_eq!(metrics(addr).admin_reloads, 0);
    server.shutdown();

    // Path configured but unreadable: 500, and the old model keeps serving.
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        model_path: Some(PathBuf::from("/nonexistent/kbqa/model.json")),
        ..ServerConfig::default()
    };
    let server = serve(empty_service(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let (status, body) = http(
        addr,
        "POST",
        "/admin/reload",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 500, "{body}");
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    assert!(
        health.contains("\"model_epoch\":0"),
        "failed reload must not bump the epoch: {health}"
    );
    assert_eq!(metrics(addr).admin_reloads, 0);
    server.shutdown();
}

#[test]
fn an_echoed_control_byte_still_renders_a_json_error_body() {
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        ..ServerConfig::default()
    };
    let server = serve(empty_service(), "127.0.0.1:0", config).expect("bind");
    // The request line splits on spaces only, so the tab reaches the query
    // and the 400 echoes it back.
    let (status, body) = http(
        server.local_addr(),
        "POST",
        "/admin/reload?mode=a\tb",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    server.shutdown();
    assert_eq!(status, 400, "{body:?}");
    assert!(
        body.bytes().all(|b| b >= 0x20),
        "raw control byte: {body:?}"
    );
    let parsed: serde::Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(
        parsed,
        serde::Value::Map(vec![(
            "error".into(),
            serde::Value::Str("unknown reload mode `a\tb`".into())
        )])
    );
}

#[test]
fn deeply_nested_model_reload_is_a_500_and_the_old_epoch_serves_on() {
    // A model reload parses on the event loop that read the request; input
    // nesting must not reach its stack, or one bad artifact would abort the
    // server.
    let model_path = temp_model_path("reload-deep");
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        model_path: Some(model_path.clone()),
        ..ServerConfig::default()
    };
    let server = serve(empty_service(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let depth = 200_000;
    let (open, close) = ("[".repeat(depth), "]".repeat(depth));
    for model in [
        // Skipped (an unknown key), then refused: required fields missing.
        format!(r#"{{"deep":{open}{close}}}"#),
        // Typed: `template_support` is a `Vec<u32>`.
        format!(r#"{{"template_support":{open}{close}}}"#),
    ] {
        std::fs::write(&model_path, &model).expect("write model");
        let (status, body) = http(
            addr,
            "POST",
            "/admin/reload?mode=model",
            "X-Admin-Token: swordfish\r\n",
            "",
        );
        assert_eq!(status, 500, "{body}");
        let (status, health) = http(addr, "GET", "/healthz", "", "");
        assert_eq!(status, 200);
        assert!(health.contains("\"model_epoch\":0"), "{health}");
    }
    assert_eq!(metrics(addr).admin_reloads, 0);
    server.shutdown();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn answers_during_reloads_match_their_epochs_model() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let (service, question) = learned_service();
    let model_path = temp_model_path("reload-parity");
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        model_path: Some(model_path.clone()),
        ..ServerConfig::default()
    };
    let server = serve(service.clone(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Reload i serves the empty model (which refuses everything) when i is
    // odd and the learned one when it is even, so an epoch's parity names
    // its model. Expectations: each parity's in-process rendering, stamped
    // with the epoch the server reports.
    let answering = service.model();
    let refusing = Arc::new(LearnedModel::default());
    let by_parity = [service.clone(), service.with_model(Arc::clone(&refusing))];
    let request = QaRequest::new(&question);
    let batch = vec![
        QaRequest::new(&question),
        QaRequest::new("why is the sky blue"),
        QaRequest::new(&question).with_top_k(1),
    ];
    let answers: Vec<QaResponse> = by_parity.iter().map(|s| s.answer(&request)).collect();
    assert!(answers[0].answered() && !answers[1].answered());
    let batches: Vec<Vec<QaResponse>> = by_parity.iter().map(|s| s.answer_batch(&batch)).collect();
    let stamped = |response: &QaResponse, epoch: u64| QaResponse {
        model_epoch: epoch,
        ..response.clone()
    };
    let render_answer =
        |epoch: u64| serde_json::to_string(&stamped(&answers[epoch as usize % 2], epoch)).unwrap();
    let render_batch = |epoch: u64| {
        let responses: Vec<QaResponse> = batches[epoch as usize % 2]
            .iter()
            .map(|r| stamped(r, epoch))
            .collect();
        serde_json::to_string(&responses).unwrap()
    };
    let answer_body = serde_json::to_string(&request).unwrap();
    let batch_body = serde_json::to_string(&batch).unwrap();

    // Readers ask without pause; every body must be its epoch's rendering,
    // whole, and epochs never go backwards. Reader r publishes 1 + the epoch
    // of its last reply in `latest[r]`, and reload i + 1 starts only once
    // every reader has replied under epoch i, so each reader sees every
    // epoch 0..=20 while the reloads land.
    let latest = [AtomicU64::new(0), AtomicU64::new(0)];
    let done = AtomicBool::new(false);
    let ask = |route: &str, body: &str, render: &dyn Fn(u64) -> String, latest: &AtomicU64| {
        let mut seen = BTreeSet::new();
        while !done.load(Ordering::Acquire) {
            let (status, reply) = http(addr, "POST", route, "", body);
            assert_eq!(status, 200, "{reply}");
            let epoch = epoch_in(&reply);
            assert_eq!(reply, render(epoch), "{route} at epoch {epoch}");
            assert!(seen.last().is_none_or(|&last| last <= epoch));
            seen.insert(epoch);
            latest.store(epoch + 1, Ordering::Release);
        }
        seen
    };
    // Nothing in the scope below asserts: a panic there would leave the
    // readers asking forever. A wait past the deadline gives up instead,
    // and the checks after the scope report what was missed.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let (reloads, seen) = std::thread::scope(|scope| {
        let readers = [
            scope.spawn(|| ask("/answer", &answer_body, &render_answer, &latest[0])),
            scope.spawn(|| ask("/batch", &batch_body, &render_batch, &latest[1])),
        ];
        let mut reloads = Vec::new();
        for epoch in 0..=20u64 {
            if epoch > 0 {
                let model = if epoch % 2 == 1 {
                    &refusing
                } else {
                    &answering
                };
                save_model(model, &model_path).expect("save model");
                reloads.push(http(addr, "POST", "/admin/reload?mode=model", ADMIN, ""));
            }
            // A reader that stopped has panicked; its join reports why.
            while latest.iter().any(|l| l.load(Ordering::Acquire) <= epoch)
                && !readers.iter().any(|r| r.is_finished())
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
        (
            reloads,
            readers.map(|reader| reader.join().expect("reader")),
        )
    });
    for (epoch, (status, reply)) in (1..).zip(reloads) {
        assert_eq!(status, 200, "{reply}");
        assert_eq!(epoch_in(&reply), epoch, "{reply}");
    }
    for epochs in seen {
        assert_eq!(epochs, (0..=20).collect::<BTreeSet<u64>>());
    }

    server.shutdown();
    std::fs::remove_file(&model_path).ok();
}

// ---------------------------------------------------------------------------
// Full-bundle hot swap (store + taxonomy + model)
// ---------------------------------------------------------------------------

#[test]
fn bundle_reload_hot_swaps_store_taxonomy_and_model() {
    use kbqa_core::persist::ServingArtifacts;

    // Serve world A; stage world B (different seed → different store) as a
    // bundle on disk.
    let (service_a, question_a) = learned_service();
    let world_b = World::generate(WorldConfig::tiny(99));
    let corpus_b = QaCorpus::generate(&world_b, &CorpusConfig::with_pairs(1, 400));
    let ner_b = Arc::new(GazetteerNer::from_store(&world_b.store));
    let learner_b = Learner::new(
        &world_b.store,
        &world_b.conceptualizer,
        &ner_b,
        &world_b.predicate_classes,
    );
    let pairs_b: Vec<(&str, &str)> = corpus_b
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model_b, _) = learner_b.learn(&pairs_b, &LearnerConfig::default());
    let service_b = KbqaService::builder(
        Arc::clone(&world_b.store),
        Arc::clone(&world_b.conceptualizer),
        Arc::new(model_b),
    )
    .ner(ner_b)
    .build();

    let dir = std::env::temp_dir().join(format!("kbqa-bundle-reload-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ServingArtifacts::from_service(&service_b)
        .save(&dir)
        .expect("save bundle B");

    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        bundle_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = serve(service_a.clone(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Warm a cache entry under world A, epoch 0.
    let request = QaRequest::new(&question_a);
    let body = serde_json::to_string(&request).unwrap();
    let (status, pre) = http(addr, "POST", "/answer", "", &body);
    assert_eq!(status, 200);
    let pre_parsed: QaResponse = serde_json::from_str(&pre).unwrap();
    assert!(
        pre_parsed.answered(),
        "world A must answer its own question"
    );
    assert_eq!(pre_parsed.model_epoch, 0);
    let triples_a = service_a.store().len();

    // With a bundle dir configured and populated, a bare reload defaults to
    // the full-bundle swap.
    let (status, reload) = http(
        addr,
        "POST",
        "/admin/reload",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 200, "bundle reload failed: {reload}");
    assert!(reload.contains("\"reloaded\":true"), "{reload}");
    assert!(reload.contains("\"mode\":\"bundle\""), "{reload}");
    assert!(reload.contains("\"model_epoch\":1"), "{reload}");
    let triples_b = world_b.store.len();
    assert_ne!(triples_a, triples_b, "worlds must differ observably");
    assert!(
        reload.contains(&format!("\"store_triples\":{triples_b}")),
        "reload must report the NEW store: {reload}"
    );

    // Every surface now reports world B under epoch 1.
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"model_epoch\":1"), "{health}");
    assert!(
        health.contains(&format!("\"store_triples\":{triples_b}")),
        "healthz must see the swapped store: {health}"
    );
    let snap = metrics(addr);
    assert_eq!(snap.model_epoch, 1);
    assert_eq!(snap.store_triples, triples_b as u64);
    assert_eq!(snap.admin_reloads, 1);

    // World A's question re-asked: a cache MISS (versioned key), answered by
    // world B's artifacts under epoch 1 — typically a refusal, since world B
    // doesn't know world A's entities.
    let warm = cache_stats(addr);
    let (status, post) = http(addr, "POST", "/answer", "", &body);
    assert_eq!(status, 200);
    let post_parsed: QaResponse = serde_json::from_str(&post).unwrap();
    assert_eq!(post_parsed.model_epoch, 1);
    assert_ne!(post, pre, "pre-swap cache entry must never serve post-swap");
    let after = cache_stats(addr);
    assert_eq!(after.misses, warm.misses + 1);
    assert_eq!(after.hits, warm.hits);

    // And explicit `?mode=model` still works (model-only path untouched) —
    // here unconfigured, so 409, while `?mode=bundle` keeps swapping.
    let (status, body_409) = http(
        addr,
        "POST",
        "/admin/reload?mode=model",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 409, "{body_409}");
    let (status, again) = http(
        addr,
        "POST",
        "/admin/reload?mode=bundle",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 200, "{again}");
    assert!(again.contains("\"model_epoch\":2"), "{again}");
    let (status, bad) = http(
        addr,
        "POST",
        "/admin/reload?mode=sideways",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 400, "{bad}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Forge a saved bundle's `taxonomy.snap` the way only a section check can
/// catch: the first membership names a concept past the concept count, the
/// header checksum is re-stamped, and the sidecar and the manifest entry
/// (with the manifest's own sidecar) are rewritten to the forged digest.
fn forge_taxonomy_past_every_digest(dir: &std::path::Path) {
    use kbqa_core::persist::{checksum_path, MANIFEST_FILE, TAXONOMY_FILE};
    use kbqa_rdf::sections::{Fx64Stream, HEADER_LEN};
    let digest = |bytes: &[u8]| {
        let mut stream = Fx64Stream::default();
        stream.update(bytes);
        format!("{:016x}", stream.finish())
    };
    let path = dir.join(TAXONOMY_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let old = digest(&bytes);
    // Section 5 holds the membership concept ids.
    let at = HEADER_LEN + 5 * 16;
    let offset = u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    bytes[offset..offset + 4].copy_from_slice(&0xFFFF_FFF0u32.to_ne_bytes());
    let mut stream = Fx64Stream::default();
    stream.update(&bytes[HEADER_LEN..]);
    bytes[24..32].copy_from_slice(&stream.finish().to_ne_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let new = digest(&bytes);
    std::fs::write(checksum_path(&path), format!("{new}\n")).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    assert!(manifest.contains(&old), "{manifest}");
    let manifest = manifest.replace(&old, &new);
    std::fs::write(&manifest_path, &manifest).unwrap();
    std::fs::write(
        checksum_path(&manifest_path),
        format!("{}\n", digest(manifest.as_bytes())),
    )
    .unwrap();
}

#[test]
fn bundle_reload_onto_a_forged_taxonomy_is_a_500_and_the_old_epoch_serves_on() {
    let (service, question) = learned_service();
    let dir = std::env::temp_dir().join(format!("kbqa-forged-taxonomy-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ServingArtifacts::from_service(&service)
        .save(&dir)
        .expect("save bundle");
    forge_taxonomy_past_every_digest(&dir);
    match ServingArtifacts::load(&dir) {
        Err(kbqa_common::error::KbqaError::Io(why)) => {
            assert!(why.contains("out-of-range concept"), "{why}")
        }
        Err(other) => panic!("untyped error {other:?}"),
        Ok(_) => panic!("a forged taxonomy must not load"),
    }

    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        bundle_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = serve(service.clone(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let questions = [
        question.clone(),
        format!(
            "how many people live in {}",
            &question[question.rfind(' ').unwrap() + 1..]
        ),
        "why is the sky blue".to_owned(),
        "what is the population of nowhere".to_owned(),
    ];
    let ask = |q: &str| {
        let (status, body) = http(
            addr,
            "POST",
            "/answer",
            "",
            &serde_json::to_string(&QaRequest::new(q)).unwrap(),
        );
        assert_eq!(status, 200, "{body}");
        body
    };
    // One answer before the reload; the rest first asked after it, so the
    // kernel runs on whatever epoch serves then.
    assert_eq!(
        ask(&questions[0]),
        serde_json::to_string(&service.answer(&QaRequest::new(&questions[0]))).unwrap()
    );

    let (status, body) = http(addr, "POST", "/admin/reload?mode=bundle", ADMIN, "");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("taxonomy snapshot"), "{body}");

    for q in &questions {
        let expected = serde_json::to_string(&service.answer(&QaRequest::new(q))).unwrap();
        assert_eq!(ask(q), expected, "{q}");
    }
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"model_epoch\":0"), "{health}");
    assert_eq!(metrics(addr).admin_reloads, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bundle_reload_from_a_directory_without_a_manifest_is_a_500_and_the_old_epoch_serves_on() {
    use kbqa_core::persist::{checksum_path, MANIFEST_FILE};
    let (service, dir) = bundle_fixture("no-manifest");
    // Every other file of the save stays; without its manifest the
    // directory is not a bundle.
    std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
    std::fs::remove_file(checksum_path(&dir.join(MANIFEST_FILE))).unwrap();
    assert!(!ServingArtifacts::present_in(&dir));

    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        bundle_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = serve(service.clone(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let question = "what is the population of nowhere";
    let ask = || {
        let (status, body) = http(
            addr,
            "POST",
            "/answer",
            "",
            &serde_json::to_string(&QaRequest::new(question)).unwrap(),
        );
        assert_eq!(status, 200, "{body}");
        body
    };
    let expected = serde_json::to_string(&service.answer(&QaRequest::new(question))).unwrap();
    assert_eq!(ask(), expected);

    // No manifest, so a bare reload defaults to the model, which is not
    // configured here.
    let (status, body) = http(addr, "POST", "/admin/reload", ADMIN, "");
    assert_eq!(status, 409, "{body}");
    let (status, body) = http(addr, "POST", "/admin/reload?mode=bundle", ADMIN, "");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains(MANIFEST_FILE), "{body}");

    assert_eq!(ask(), expected);
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"model_epoch\":0"), "{health}");
    assert_eq!(metrics(addr).admin_reloads, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_reloads_of_both_modes_get_distinct_epochs() {
    let (service, dir) = bundle_fixture("concurrent-reloads");
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        model_path: Some(dir.join(MODEL_FILE)),
        bundle_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // 4 threads × 4 reloads, alternating modes, started together: each
    // reload builds on the epoch it read under the reload lock, so none
    // shares another's epoch and none is lost.
    let start = std::sync::Barrier::new(4);
    let mut epochs: Vec<u64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|thread| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (0..4)
                        .map(|i| {
                            let mode = ["model", "bundle"][(thread + i) % 2];
                            let path = format!("/admin/reload?mode={mode}");
                            let (status, reply) = http(addr, "POST", &path, ADMIN, "");
                            assert_eq!(status, 200, "{reply}");
                            assert!(reply.contains(&format!("\"mode\":\"{mode}\"")), "{reply}");
                            epoch_in(&reply)
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|thread| thread.join().expect("reloader"))
            .collect()
    });
    epochs.sort_unstable();
    assert_eq!(epochs, (1..=16).collect::<Vec<u64>>());
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    assert_eq!(epoch_in(&health), 16, "{health}");
    assert_eq!(metrics(addr).admin_reloads, 16);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// While reloads of both modes flip epochs, a `/batch` never mixes two
/// `model_epoch`s: every lane answers under the one service its batch was
/// admitted with. The batches carry 40 questions, so each one spans three
/// 16-question lanes and a reload can land between two of them. After the
/// reloads, `min_epoch` at the served epoch passes, and one epoch above it
/// is a 409 on `/answer` and on a whole `/batch`.
#[test]
fn batches_never_mix_epochs_across_reloads_and_min_epoch_gates_with_409() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    let (service, question) = learned_service();
    let dir = std::env::temp_dir().join(format!("kbqa-live-ops-no-mix-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ServingArtifacts::from_service(&service)
        .save(&dir)
        .expect("save bundle");
    let config = ServerConfig {
        event_loops: 2,
        admin_token: Some("swordfish".into()),
        model_path: Some(dir.join(MODEL_FILE)),
        bundle_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Answered, refused and per-request-override questions; each posted
    // batch's own numbering keeps its refusals out of the cache.
    let batch_body = |round: u64| {
        let batch: Vec<QaRequest> = (0..40)
            .map(|i| match i % 4 {
                0 => QaRequest::new(&question),
                1 => QaRequest::new(&question).with_top_k(1 + i % 7),
                2 => QaRequest::new(format!("why is the sky blue {round} {i}")),
                _ => QaRequest::new(format!("{question} {round} {i}")),
            })
            .collect();
        serde_json::to_string(&batch).expect("batch")
    };
    let done = AtomicBool::new(false);
    let (reloads, seen) = std::thread::scope(|scope| {
        let hammer = scope.spawn(|| {
            let mut seen = BTreeSet::new();
            let mut round = 0;
            while !done.load(Ordering::Acquire) {
                round += 1;
                let (status, reply) = http(addr, "POST", "/batch", "", &batch_body(round));
                assert_eq!(status, 200, "batch failed mid-reload: {reply}");
                let responses: Vec<QaResponse> = serde_json::from_str(&reply).expect("batch");
                assert_eq!(responses.len(), 40);
                let epochs: BTreeSet<u64> = responses.iter().map(|r| r.model_epoch).collect();
                assert_eq!(
                    epochs.len(),
                    1,
                    "one batch straddled model epochs {epochs:?}"
                );
                seen.extend(epochs);
            }
            seen
        });
        let mut reloads = Vec::new();
        for i in 0..40 {
            if hammer.is_finished() {
                break;
            }
            let mode = ["model", "bundle"][i % 2];
            let path = format!("/admin/reload?mode={mode}");
            reloads.push(http(addr, "POST", &path, ADMIN, ""));
        }
        done.store(true, Ordering::Release);
        (reloads, hammer.join().expect("hammer"))
    });
    for (epoch, (status, reply)) in (1..).zip(&reloads) {
        assert_eq!(*status, 200, "{reply}");
        assert_eq!(epoch_in(reply), epoch, "{reply}");
    }
    assert_eq!(reloads.len(), 40);
    assert!(
        seen.len() > 1,
        "the batches never saw a reload land: epochs {seen:?}"
    );

    // min_epoch: read-your-reload honored at the served epoch, 409 above.
    let served = 40;
    let mut pinned = QaRequest::new(&question);
    pinned.min_epoch = Some(served);
    let (status, reply) = http(
        addr,
        "POST",
        "/answer",
        "",
        &serde_json::to_string(&pinned).unwrap(),
    );
    assert_eq!(
        status, 200,
        "min_epoch at the served epoch must pass: {reply}"
    );
    assert_eq!(epoch_in(&reply), served);
    pinned.min_epoch = Some(served + 1);
    let (status, reply) = http(
        addr,
        "POST",
        "/answer",
        "",
        &serde_json::to_string(&pinned).unwrap(),
    );
    assert_eq!(status, 409, "a future min_epoch must 409: {reply}");
    // A batch with one future-pinned member is refused whole.
    let mut batch = vec![QaRequest::new(&question); 20];
    batch[17].min_epoch = Some(served + 1);
    let (status, reply) = http(
        addr,
        "POST",
        "/batch",
        "",
        &serde_json::to_string(&batch).unwrap(),
    );
    assert_eq!(
        status, 409,
        "a batch pinning a future epoch must 409 whole: {reply}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_429_with_retry_after_then_recovers() {
    let config = ServerConfig {
        max_pending: 2,
        retry_after_secs: 7,
        // Long enough that the held connection outlives the whole test.
        read_timeout: Duration::from_secs(20),
        request_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = serve(empty_service(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Two open connections reach the bound: one whose request never
    // finishes, and one that just sits there.
    let mut held = TcpStream::connect(addr).expect("connect held");
    held.write_all(b"POST /answer HTTP/1.1\r\n").expect("hold");
    std::thread::sleep(Duration::from_millis(400));
    let filler = TcpStream::connect(addr).expect("connect filler");
    std::thread::sleep(Duration::from_millis(400));

    // Saturated: further connections are shed at accept with 429.
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect shed");
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 429, "saturated server must shed");
        let retry_after = head
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .expect("Retry-After header on 429");
        assert_eq!(retry_after.trim(), "7");
        assert!(body.contains("error"), "{body}");
    }

    // Drain: close both connections.
    drop(held);
    drop(filler);
    std::thread::sleep(Duration::from_millis(400));

    // Recovered: requests flow again, and the sheds were counted.
    let (status, health) = http(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200, "server must recover after drain");
    assert!(health.contains("\"status\":\"ok\""));
    let snap = metrics(addr);
    assert_eq!(snap.requests_shed, 2, "each shed counted exactly once");
    assert!(
        snap.responses_4xx >= 2,
        "sheds land in the 4xx class: {snap:?}"
    );
    // Shed connections never became requests.
    let (status, _) = http(addr, "POST", "/answer", "", "{\"question\":\"hi\"}");
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn max_pending_zero_disables_shedding() {
    let config = ServerConfig {
        max_pending: 0,
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    };
    let server = serve(empty_service(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Hold a connection mid-request, then stack several more: with
    // shedding disabled every one is admitted and served.
    let mut held = TcpStream::connect(addr).expect("connect held");
    held.write_all(b"POST /answer HTTP/1.1\r\n").expect("hold");
    std::thread::sleep(Duration::from_millis(300));

    let mut queued: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect queued");
            send_request(&mut stream, "GET", "/healthz", "", "");
            stream
        })
        .collect();
    drop(held);
    for stream in &mut queued {
        let (status, _, _) = read_response(stream);
        assert_eq!(status, 200, "unbounded admission must serve everyone");
    }
    assert_eq!(metrics(addr).requests_shed, 0);

    server.shutdown();
}
