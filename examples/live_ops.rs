//! The serving control plane, end to end: **warm start → query → hot
//! reload → query**, over real sockets.
//!
//! First run (cold): generates the toy world, learns the model, and saves
//! the full serving bundle (store, taxonomy, model, NER, pattern index) to
//! an artifact directory. Every later run **warm starts** from that
//! directory — no world generation, no EM — which is the operational story
//! for a model whose offline learning took the paper 1438 minutes.
//!
//! Then it exercises the live-ops surface: query (cache miss), repeat
//! (hit), write a retrained model variant to the model path, hot-swap it
//! via the token-gated `POST /admin/reload`, and show the same question now
//! missing the cache and answering under the new model epoch.
//!
//! ```sh
//! cargo run --release --example live_ops              # cold start, then the script
//! cargo run --release --example live_ops              # warm start this time
//! KBQA_ARTIFACTS_DIR=/tmp/kbqa cargo run --release --example live_ops
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use kbqa::prelude::*;
use kbqa_core::persist::{self, MODEL_FILE};
use kbqa_server::{serve, ServerConfig};

const QUESTIONS_FILE: &str = "questions.json";

fn main() {
    let dir = std::env::var("KBQA_ARTIFACTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("kbqa-live-ops"));

    // 1. Warm start when the artifact directory is populated; otherwise run
    //    the offline pipeline once and persist everything.
    let started = Instant::now();
    let (service, questions) = if ServingArtifacts::present_in(&dir) {
        let artifacts = ServingArtifacts::load(&dir).expect("load artifacts");
        let questions: Vec<String> =
            persist::load_json(&dir.join(QUESTIONS_FILE)).expect("load demo questions");
        let service = artifacts.into_service();
        println!(
            "warm start from {} in {:?} (no world generation, no EM)",
            dir.display(),
            started.elapsed()
        );
        (service, questions)
    } else {
        println!("cold start: generating world and learning the model…");
        let world = World::generate(WorldConfig::tiny(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 800));
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
        let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
        let service = KbqaService::builder(
            Arc::clone(&world.store),
            Arc::clone(&world.conceptualizer),
            Arc::new(model),
        )
        .ner(ner)
        .pattern_index(Arc::new(index))
        .build();

        let intent = world.intent_by_name("city_population").expect("intent");
        let questions: Vec<String> = world
            .subjects_of(intent)
            .iter()
            .copied()
            .filter(|&c| !world.gold_values(intent, c).is_empty())
            .take(3)
            .map(|c| format!("what is the population of {}", world.store.surface(c)))
            .collect();

        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save artifacts");
        persist::save_json(&questions, &dir.join(QUESTIONS_FILE)).expect("save demo questions");
        println!(
            "cold start in {:?}; artifacts saved to {} (next run warm starts)",
            started.elapsed(),
            dir.display()
        );
        (service, questions)
    };

    // 2. Serve, with the admin surface wired to the artifact directory. The
    //    KBQA_* env knobs still apply; the token and model path default to
    //    the demo values when unset.
    let token = std::env::var("KBQA_ADMIN_TOKEN").unwrap_or_else(|_| "live-ops-demo".into());
    let mut config = ServerConfig::from_env();
    config.admin_token = Some(token.clone());
    // The retrained model below must land wherever /admin/reload will read
    // from — the env-configured KBQA_MODEL_PATH when set, the artifact
    // directory's model file otherwise.
    let model_path = config
        .model_path
        .get_or_insert_with(|| dir.join(MODEL_FILE))
        .clone();
    // Serve a clone: `service` itself never changes (a reload swaps a new
    // service into the server), so it keeps the learned model and epoch 0.
    let handle = serve(service.clone(), "127.0.0.1:0", config).expect("bind server");
    let addr = handle.local_addr();
    println!("listening on http://{addr} (admin token: {token:?})\n");

    // Liveness first: on a warm start the store backend is "mapped" — the
    // server answers straight out of the mmap'd snapshot.
    let (_, health) = http(addr, "GET", "/healthz", "", "");
    println!("GET /healthz → {health}\n");

    // 3. Query twice: miss then hit, both under model epoch 0.
    let question = &questions[0];
    let body = serde_json::to_string(&QaRequest::new(question)).expect("serialize request");
    println!("POST /answer — {question:?}, asked twice under epoch 0:");
    for round in ["cold", "cached"] {
        let (status, response) = http(addr, "POST", "/answer", "", &body);
        println!("  [{round}] {status} → {response}");
    }
    let (_, stats) = http(addr, "GET", "/cache/stats", "", "");
    println!("  cache → {stats}\n");

    // 4. "Retrain": a model variant with a uniformized P(p|t) — the
    //    ablation model — written to the very file the admin route watches.
    let learned = service.model();
    let mut retrained = (*learned).clone();
    retrained.theta = retrained.theta.uniformized();
    persist::save_model(&retrained, &model_path).expect("save retrained model");
    println!(
        "wrote retrained model (uniform θ) to {}",
        model_path.display()
    );

    // 5. Hot swap, no restart: POST /admin/reload with the token.
    let (status, response) = http(
        addr,
        "POST",
        "/admin/reload",
        &format!("X-Admin-Token: {token}\r\n"),
        "",
    );
    println!("POST /admin/reload → {status} {response}");
    assert_eq!(status, 200, "reload must succeed: {response}");

    // 6. Same question: the versioned cache key misses, and the answer is
    //    served by the new model under epoch 1.
    println!("\nPOST /answer — same question, post-swap:");
    let (status, response) = http(addr, "POST", "/answer", "", &body);
    println!("  [post-swap] {status} → {response}");
    let parsed: QaResponse = serde_json::from_str(&response).expect("QaResponse");
    assert_eq!(parsed.model_epoch, service.model_epoch() + 1);
    let (_, stats) = http(addr, "GET", "/cache/stats", "", "");
    println!("  cache → {stats}");
    let (_, metrics) = http(addr, "GET", "/metrics", "", "");
    let snapshot: kbqa_server::MetricsSnapshot =
        serde_json::from_str(&metrics).expect("metrics JSON");
    println!(
        "  metrics → answer_requests={} admin_reloads={} requests_shed={}",
        snapshot.answer_requests, snapshot.admin_reloads, snapshot.requests_shed
    );
    assert_eq!(snapshot.admin_reloads, 1);

    // Restore the learned model on disk so the next warm start serves the
    // real θ again.
    persist::save_model(&learned, &model_path).expect("restore model file");

    handle.shutdown();
    println!("\nserver drained and shut down cleanly");
}

/// One-shot HTTP request on a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, headers: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: example\r\nConnection: close\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}
