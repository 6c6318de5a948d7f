//! Sharded-serving suite (PR 8): equivalence and fault isolation.
//!
//! The scatter-gather path must be **byte-identical** to the single-store
//! kernel: the router only changes *where* `V(e, p⁺)` value lookups
//! resolve (the owning shard's cut, served by its `kbqa-shardd` worker,
//! instead of the global columns), never *what* they return, and the batch
//! scheduler only changes which thread runs a question, never its answer.
//! This suite pins that contract over the full generated benchmark mix —
//! corpus questions, QALD-like and WebQuestions-like benchmarks, the
//! complex-question suite, refusal probes — at shard counts {1, 2, 4, 7},
//! via full-response JSON equality (answers, provenance, refusal causes,
//! tie order, model epoch) plus bit-level score comparison, and via the
//! bytes `answer_into` / `answer_batch_into` render, with per-request
//! overrides in the mix. An `#[ignore]`d large-world case
//! re-runs the core check at CI's medium-world scale (≈1.2M triples, 4
//! shards).
//!
//! The workers run on threads of this process ([`shardworker::run`], the
//! function `kbqa-shardd`'s `main` calls) over a bundle saved with the
//! shard plan, and the router reaches them through the same unix sockets
//! and wire frames as a supervised fleet. Fault isolation: a poisoned lane
//! (the supervisor's park switch) must degrade the questions it owns to a
//! typed [`Refusal::ShardUnavailable`] while the service — and the HTTP
//! server above it, `/healthz` included — keeps serving everything else.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use kbqa::core::persist::shard_store_file;
use kbqa::core::shardworker::{self, WorkerConfig};
use kbqa::core::{RemoteOptions, RemoteShard};
use kbqa::corpus::benchmark;
use kbqa::prelude::*;

/// Shard counts under test: one lane (1), even powers (2, 4), and a prime
/// (7) so ownership hashing never lines up with world-generation strides.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Serve `service` sharded `shards` ways: save its bundle with that shard
/// plan under a directory named by `tag`, run one worker per shard on a
/// thread, and attach a router over their sockets. The workers serve until
/// the test process exits — a `Terminate` frame would exit the process.
fn serve_sharded(service: &KbqaService, shards: usize, tag: &str) -> KbqaService {
    // Unix socket paths are capped near 100 bytes: keep the names short.
    let dir = std::env::temp_dir().join(format!("kse-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = ShardPlan::new(shards);
    ServingArtifacts {
        shard_plan: Some(plan),
        ..ServingArtifacts::from_service(service)
    }
    .save(&dir)
    .expect("save sharded bundle");
    let lanes = (0..plan.shards())
        .map(|shard| {
            let socket = dir.join(format!("{shard}.sock"));
            let config = WorkerConfig {
                shard,
                snapshot: dir.join(shard_store_file(shard)),
                socket: socket.clone(),
                epoch: service.model_epoch(),
            };
            std::thread::spawn(move || shardworker::run(config).expect("shard worker"));
            connect(shard, socket)
        })
        .collect();
    service.with_shard_router(Arc::new(ShardRouter::from_remote(plan, lanes)))
}

/// A lane to shard `shard`'s worker once it answers a ping. The deadline
/// is generous: the workers share this process's CPUs with the tests.
fn connect(shard: usize, socket: PathBuf) -> RemoteShard {
    let lane = RemoteShard::new(
        shard,
        socket,
        RemoteOptions {
            deadline: Duration::from_secs(10),
            ..RemoteOptions::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while lane.ping(0, Duration::from_secs(1)).is_err() {
        assert!(
            Instant::now() < deadline,
            "shard {shard} worker never came up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    lane
}

struct Fixture {
    world: World,
    corpus: QaCorpus,
    service: KbqaService,
}

fn build_fixture() -> Fixture {
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
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();
    Fixture {
        world,
        corpus,
        service,
    }
}

/// The fixture is expensive (world + corpus + EM); build it once for the
/// whole binary. Tests only read from it.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

/// The fixture service served through `SHARD_COUNTS[i]` worker lanes, one
/// fleet per shard count for the whole binary. Equivalence tests never
/// poison a lane, so they can share it.
fn fleet(i: usize) -> &'static KbqaService {
    static FLEETS: [OnceLock<KbqaService>; SHARD_COUNTS.len()] =
        [const { OnceLock::new() }; SHARD_COUNTS.len()];
    FLEETS[i].get_or_init(|| {
        let shards = SHARD_COUNTS[i];
        serve_sharded(&fixture().service, shards, &format!("eq{shards}"))
    })
}

/// ≥300 questions spanning every suite: corpus, QALD-like,
/// WebQuestions-like (factoid + paraphrase + non-BFQ), complex questions,
/// and refusal probes for each pipeline stage.
fn question_set(f: &Fixture) -> Vec<String> {
    let mut questions: Vec<String> = f
        .corpus
        .pairs
        .iter()
        .map(|p| p.question.clone())
        .take(160)
        .collect();
    let qald = benchmark::qald_like(&f.world, "shard-qald", 120, 90, 0.3, 7);
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
    assert!(
        questions.len() >= 300,
        "suite shrank below the 300-question floor: {}",
        questions.len()
    );
    questions
}

/// Typed requests over the question set, cycling per-request overrides
/// (`top_k`, `min_theta`, `explain`) so the router path is exercised under
/// every request shape, not just defaults.
fn request_set(f: &Fixture) -> Vec<QaRequest> {
    question_set(f)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let mut request = QaRequest::new(q);
            match i % 5 {
                1 => request.top_k = Some(1),
                2 => {
                    request.top_k = Some(12);
                    request.min_theta = Some(0.0);
                }
                3 => request.explain = true,
                4 => request.min_theta = Some(0.2),
                _ => {}
            }
            request
        })
        .collect()
}

/// Full-response byte equality: serialized JSON covers answers, provenance,
/// refusal causes, tie order, stats and epoch; scores are re-checked
/// bit-for-bit because `f64` JSON round-trips could mask `-0.0` or NaN
/// payload drift.
fn assert_identical(sharded: &QaResponse, single: &QaResponse, question: &str, label: &str) {
    assert_eq!(
        serde_json::to_string(sharded).expect("serialize sharded"),
        serde_json::to_string(single).expect("serialize single"),
        "response diverged for {question:?} under {label}"
    );
    for (a, b) in sharded.answers.iter().zip(&single.answers) {
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "score bits diverged for {question:?} under {label}"
        );
    }
}

/// Sequential `answer` calls and the rendered serving path (`answer_into`
/// one by one, `answer_batch_into` as one batch): every shard count, every
/// request shape, byte-identical to the unsharded service.
#[test]
fn sharded_answers_are_byte_identical_across_shard_counts() {
    let f = fixture();
    let requests = request_set(f);
    let baseline: Vec<QaResponse> = requests.iter().map(|r| f.service.answer(r)).collect();
    let rendered_baseline: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            f.service.answer_into(r, &mut out);
            out
        })
        .collect();
    let batch_baseline = rendered_baseline.join(&b',');
    let (mut out, mut rendered) = (Vec::new(), Vec::new());
    let mut answered = 0usize;
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let sharded = fleet(i);
        let router = sharded.shard_router().expect("router installed");
        assert_eq!(router.shard_count(), shards);
        for (request, single) in requests.iter().zip(&baseline) {
            let response = sharded.answer(request);
            answered += usize::from(response.answered());
            assert_identical(
                &response,
                single,
                &request.question,
                &format!("{shards} shards"),
            );
        }
        for (request, expected) in requests.iter().zip(&rendered_baseline) {
            out.clear();
            sharded.answer_into(request, &mut out);
            assert_eq!(
                String::from_utf8_lossy(&out),
                String::from_utf8_lossy(expected),
                "answer_into diverged for {:?} under {shards} shards",
                request.question
            );
        }
        out.clear();
        sharded.answer_batch_into(&requests, &mut out, &mut rendered);
        assert_eq!(rendered.len(), requests.len());
        assert!(
            out == batch_baseline,
            "answer_batch_into diverged under {shards} shards"
        );
    }
    assert!(answered > 0, "suite never answered — it proves nothing");
}

/// `answer_batch` through the scatter-gather scheduler returns responses in
/// request order, byte-identical to sequential single-store answers, at
/// every shard count.
#[test]
fn sharded_batches_match_sequential_single_store_answers() {
    let f = fixture();
    let requests = request_set(f);
    let baseline: Vec<QaResponse> = requests.iter().map(|r| f.service.answer(r)).collect();
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let batch = fleet(i).answer_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        for ((request, single), response) in requests.iter().zip(&baseline).zip(&batch) {
            assert_identical(
                response,
                single,
                &request.question,
                &format!("{shards}-shard batch"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: ANY subset of the suite, at ANY tested shard count, under
    /// ANY sampled `top_k`, answers byte-identically to the single store.
    #[test]
    fn random_slices_stay_byte_identical(
        seed in 0usize..1000,
        count in 0usize..SHARD_COUNTS.len(),
        top_k_raw in 0usize..16,
    ) {
        let f = fixture();
        let questions = question_set(f);
        let shards = SHARD_COUNTS[count];
        // 0 means "unset" — the vendored proptest has no Option strategy.
        let top_k = (top_k_raw > 0).then_some(top_k_raw);
        let sharded = fleet(count);
        for i in 0..24 {
            let question = &questions[(seed * 31 + i * 17) % questions.len()];
            let mut request = QaRequest::new(question.clone());
            request.top_k = top_k;
            let a = sharded.answer(&request);
            let b = f.service.answer(&request);
            assert_identical(&a, &b, question, &format!("{shards} shards (property)"));
        }
    }
}

/// The fault tests' learned service over the tiny world plus questions it
/// demonstrably answers, built once.
fn fault_fixture() -> &'static (KbqaService, Vec<String>) {
    static FIXTURE: OnceLock<(KbqaService, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(5, 400));
        let ner = GazetteerNer::from_store(&world.store);
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
        let service = KbqaService::new(
            Arc::clone(&world.store),
            Arc::clone(&world.conceptualizer),
            Arc::new(model),
        );
        let mut seen = std::collections::HashSet::new();
        let answerable: Vec<String> = corpus
            .pairs
            .iter()
            .map(|p| p.question.clone())
            .filter(|q| seen.insert(q.clone()))
            .filter(|q| service.answer_text(q).answered())
            .take(40)
            .collect();
        assert!(
            answerable.len() >= 10,
            "fixture must answer enough questions"
        );
        (service, answerable)
    })
}

/// The fault fixture served through `shards` worker lanes of its own (the
/// fault tests poison them), plus its router and answerable questions. It
/// serves one epoch past the fixture, so a refusal's epoch stamp shows in
/// its bytes.
fn sharded_fixture(shards: usize, tag: &str) -> (KbqaService, Arc<ShardRouter>, Vec<String>) {
    let (service, answerable) = fault_fixture();
    let service = serve_sharded(&service.with_model(service.model()), shards, tag);
    let router = Arc::clone(service.shard_router().expect("router installed"));
    (service, router, answerable.clone())
}

#[test]
fn poisoned_shard_is_a_typed_refusal_and_other_shards_keep_answering() {
    let (service, router, answerable) = sharded_fixture(4, "poison");
    let mut refusals = 0usize;
    let mut survivals = 0usize;
    for question in &answerable {
        for shard in 0..router.shard_count() {
            router.inject_fault(shard);
            let response = service.answer_text(question);
            if response.answered() {
                // This question never routed to the poisoned shard —
                // the fault stayed isolated.
                survivals += 1;
            } else {
                assert_eq!(
                    response.refusal,
                    Some(Refusal::ShardUnavailable),
                    "a shard fault must surface as the typed refusal, got {:?} for {question:?}",
                    response.refusal
                );
                refusals += 1;
            }
            router.heal(shard);
        }
        // Healed, the question answers again.
        assert!(service.answer_text(question).answered());
    }
    assert!(refusals > 0, "no question ever routed to a poisoned shard");
    assert!(
        survivals > 0,
        "every question refused under every single-shard fault — faults are not isolated"
    );
    assert_eq!(
        router.obs().total_failures(),
        refusals as u64,
        "every typed refusal must be counted on a shard lane, and nothing else"
    );

    // The rendered batch path: with one lane poisoned, every question it
    // owns is written as the stamped refusal's exact bytes, and its
    // neighbours as their healthy renderings, comma-separated in order.
    let requests: Vec<QaRequest> = answerable.iter().map(QaRequest::new).collect();
    let healthy: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            service.answer_into(r, &mut out);
            out
        })
        .collect();
    let mut refused = QaResponse::refused(Refusal::ShardUnavailable);
    refused.model_epoch = service.model_epoch();
    let refusal_bytes = serde_json::to_string(&refused).expect("serialize refusal");
    let (mut out, mut rendered) = (Vec::new(), Vec::new());
    let (mut batch_refusals, mut batch_survivals) = (0usize, 0usize);
    for shard in 0..router.shard_count() {
        router.inject_fault(shard);
        out.clear();
        service.answer_batch_into(&requests, &mut out, &mut rendered);
        router.heal(shard);
        assert_eq!(rendered.len(), requests.len());
        let elements: Vec<&[u8]> = rendered.iter().map(|one| &out[one.span.clone()]).collect();
        assert!(
            out == elements.join(&b','),
            "the rendered elements must tile the batch, comma-separated"
        );
        for ((one, element), expected) in rendered.iter().zip(&elements).zip(&healthy) {
            if one.refusal == Some(Refusal::ShardUnavailable) {
                assert_eq!(String::from_utf8_lossy(element), refusal_bytes);
                batch_refusals += 1;
            } else {
                assert_eq!(
                    element, expected,
                    "a neighbour of a poisoned question changed"
                );
                batch_survivals += 1;
            }
        }
    }
    assert!(
        batch_refusals > 0,
        "no batch question routed to a poisoned shard"
    );
    assert!(
        batch_survivals > 0,
        "every batch question refused under a single-shard fault"
    );
    assert_eq!(
        router.obs().total_failures(),
        (refusals + batch_refusals) as u64,
        "every rendered refusal must be counted on a shard lane too"
    );
}

#[test]
fn poisoned_shard_never_wedges_answer_batch() {
    let (service, router, answerable) = sharded_fixture(4, "wedge");
    let requests: Vec<QaRequest> = answerable.iter().map(QaRequest::new).collect();
    let healthy = service.answer_batch(&requests);
    let healthy_answered = healthy.iter().filter(|r| r.answered()).count();
    assert_eq!(healthy_answered, requests.len());

    router.inject_fault(2);
    // The batch returns — in order, full length — rather than wedging on
    // the poisoned lane. (The scoped workers join unconditionally; a hang
    // here is this test timing out.)
    let degraded = service.answer_batch(&requests);
    assert_eq!(degraded.len(), requests.len());
    let unavailable = degraded
        .iter()
        .filter(|r| r.refusal == Some(Refusal::ShardUnavailable))
        .count();
    for (request, response) in requests.iter().zip(&degraded) {
        assert!(
            response.answered() || response.refusal == Some(Refusal::ShardUnavailable),
            "under a shard fault every response is an answer or the typed refusal; \
             {:?} got {:?}",
            request.question,
            response.refusal
        );
    }
    assert!(
        unavailable > 0,
        "no batch question routed to the poisoned shard"
    );
    assert!(
        degraded.iter().any(|r| r.answered()),
        "the whole batch refused — the fault leaked past its shard"
    );

    router.heal(2);
    let healed = service.answer_batch(&requests);
    assert_eq!(
        healed.iter().filter(|r| r.answered()).count(),
        healthy_answered,
        "healing the shard must restore the full answer set"
    );
}

#[test]
fn shard_fault_keeps_the_http_server_and_healthz_up() {
    use std::io::{Read, Write};

    let (service, router, answerable) = sharded_fixture(3, "http");
    let server = kbqa_server::serve(service, "127.0.0.1:0", kbqa_server::ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let http = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let text = String::from_utf8_lossy(&raw).to_string();
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    };
    let ask = |question: &str| {
        let quoted = serde_json::to_string(question).expect("quote question");
        http("POST", "/answer", &format!("{{\"question\":{quoted}}}"))
    };

    let (status, body) = ask(&answerable[0]);
    assert_eq!(status, 200);
    assert!(body.contains("\"answers\""), "healthy answer: {body}");

    // Poison EVERY shard: all routed questions degrade, nothing crashes.
    // (A FRESH question each phase — the server's answer cache would
    // otherwise replay the healthy response and never touch the router.)
    for shard in 0..router.shard_count() {
        router.inject_fault(shard);
    }
    let (status, body) = ask(&answerable[1]);
    assert_eq!(status, 200, "a shard fault is a refusal, not a 5xx: {body}");
    assert!(
        body.contains("ShardUnavailable"),
        "typed refusal must reach the wire: {body}"
    );
    let (status, _) = http("GET", "/healthz", "");
    assert_eq!(status, 200, "/healthz must stay serving under shard faults");

    // The refusal cause and the shard failure are visible in metrics.
    let (status, metrics) = http("GET", "/metrics", "");
    assert_eq!(status, 200);
    let snapshot: kbqa_server::MetricsSnapshot =
        serde_json::from_str(&metrics).expect("metrics JSON");
    assert!(
        snapshot.refused_shard_unavailable >= 1,
        "refusal cause not counted: {snapshot:?}"
    );
    let shards = snapshot
        .shards
        .as_ref()
        .unwrap_or_else(|| panic!("sharded metrics section missing in: {metrics}"));
    assert!(
        shards.lanes.iter().map(|l| l.failures).sum::<u64>() >= 1,
        "shard failure not counted on a lane: {shards:?}"
    );

    // Healed, a fresh question answers through the same server.
    for shard in 0..router.shard_count() {
        router.heal(shard);
    }
    let (status, body) = ask(&answerable[2]);
    assert_eq!(status, 200);
    assert!(body.contains("\"answers\""), "healed answer: {body}");
    server.shutdown();
}

/// CI's sharded medium-world gate: the core byte-equality check on the
/// ≈1.2M-triple `large_1m` world at 4 shards. Run explicitly:
/// `cargo test --release --test shard_equivalence -- --ignored`.
#[test]
#[ignore = "medium-world scale: run explicitly with --ignored (CI does, in release mode)"]
fn large_world_four_shards_byte_identical() {
    let world = World::generate(WorldConfig::large_1m(21));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(17, 1_000));
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

    let mut seen = std::collections::HashSet::new();
    let requests: Vec<QaRequest> = corpus
        .pairs
        .iter()
        .map(|p| p.question.as_str())
        .filter(|q| seen.insert(*q))
        .take(300)
        .map(QaRequest::new)
        .collect();
    assert!(requests.len() >= 300, "corpus too small for the 300 floor");

    let sharded = serve_sharded(&service, 4, "large");
    let baseline: Vec<QaResponse> = requests.iter().map(|r| service.answer(r)).collect();
    let batch = sharded.answer_batch(&requests);
    let mut answered = 0usize;
    for ((request, single), response) in requests.iter().zip(&baseline).zip(&batch) {
        answered += usize::from(response.answered());
        assert_identical(response, single, &request.question, "large world, 4 shards");
    }
    assert!(answered > 0, "large world answered nothing");
}
