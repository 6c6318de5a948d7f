//! Sharded-serving equivalence suite (PR 8).
//!
//! The shard-per-core scatter-gather path must be **byte-identical** to the
//! single-store kernel: the router only changes *where* `V(e, p⁺)` value
//! lookups resolve (the owning shard's adjacency-indexed cut instead of the
//! global columns), never *what* they return, and the batch scheduler only
//! changes which thread runs a question, never its answer. This suite pins
//! that contract over the full generated benchmark mix — corpus questions,
//! QALD-like and WebQuestions-like benchmarks, the complex-question suite,
//! refusal probes — at shard counts {1, 2, 4, 7}, via full-response JSON
//! equality (answers, provenance, refusal causes, tie order, model epoch)
//! plus bit-level score comparison, with per-request overrides in the mix.
//! An `#[ignore]`d large-world case re-runs the core check at CI's
//! medium-world scale (≈1.2M triples, 4 shards).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use kbqa::corpus::benchmark;
use kbqa::prelude::*;

/// Shard counts under test: degenerate (1), even powers (2, 4), and a prime
/// (7) so ownership hashing never lines up with world-generation strides.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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
/// whole binary. Tests only read from it (`with_shards` clones).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
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

/// Sequential `answer` calls: every shard count, every request shape,
/// byte-identical to the unsharded service.
#[test]
fn sharded_answers_are_byte_identical_across_shard_counts() {
    let f = fixture();
    let requests = request_set(f);
    let baseline: Vec<QaResponse> = requests.iter().map(|r| f.service.answer(r)).collect();
    let mut answered = 0usize;
    for shards in SHARD_COUNTS {
        let sharded = f.service.with_shards(ShardPlan::new(shards));
        if shards > 1 {
            let router = sharded.shard_router().expect("router installed");
            assert!(!router.is_degenerate());
            assert_eq!(router.shard_count(), shards);
        }
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
    for shards in SHARD_COUNTS {
        let sharded = f.service.with_shards(ShardPlan::new(shards));
        let batch = sharded.answer_batch(&requests);
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
        let sharded = f.service.with_shards(ShardPlan::new(shards));
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

    let sharded = service.with_shards(ShardPlan::new(4));
    let baseline: Vec<QaResponse> = requests.iter().map(|r| service.answer(r)).collect();
    let batch = sharded.answer_batch(&requests);
    let mut answered = 0usize;
    for ((request, single), response) in requests.iter().zip(&baseline).zip(&batch) {
        answered += usize::from(response.answered());
        assert_identical(response, single, &request.question, "large world, 4 shards");
    }
    assert!(answered > 0, "large world answered nothing");
}
