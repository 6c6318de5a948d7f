//! Equivalence suite for the optimized BFQ kernel (PR 4).
//!
//! `QaEngine::bfq_kernel_reference` retains the naive Eq (7) enumeration —
//! fresh allocations everywhere, template strings formatted and hashed per
//! concept, no caches, no pruning. The optimized kernel must be
//! **byte-identical** to it over the full generated benchmark question set:
//! same answers, same score bits, same provenance strings, same refusal
//! causes. One scratch is reused across every question, so the suite also
//! pins that scratch reuse never leaks state between requests.
//!
//! The same corpus pins the rendered serving path: the JSON
//! `KbqaService::answer_into` and `answer_batch_into` write straight from
//! ranked ids must equal `serde_json::to_string` of the owned
//! `KbqaService::answer` response, for every request shape and on every
//! store shape (in-memory store, mapped store).

use std::sync::Arc;

use kbqa::corpus::benchmark;
use kbqa::prelude::*;

struct Fixture {
    world: World,
    corpus: QaCorpus,
    model: Arc<LearnedModel>,
}

fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 800));
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
    Fixture {
        world,
        corpus,
        model: Arc::new(model),
    }
}

/// The full generated question set: every corpus question, a QALD-like and a
/// WebQuestions-like benchmark (factoid, hard-paraphrase and non-BFQ mixes),
/// the complex-question suite, and handcrafted probes for each refusal
/// variant.
fn question_set(f: &Fixture) -> Vec<String> {
    let mut questions: Vec<String> = f.corpus.pairs.iter().map(|p| p.question.clone()).collect();
    let qald = benchmark::qald_like(&f.world, "equiv-qald", 120, 90, 0.3, 7);
    questions.extend(qald.questions.into_iter().map(|q| q.question));
    let webq = benchmark::webquestions_like(&f.world, 120, 11);
    questions.extend(webq.questions.into_iter().map(|q| q.question));
    for complex in benchmark::complex_suite(&f.world) {
        questions.push(complex.question);
    }
    // Refusal probes, one per pipeline stage (plus degenerate input).
    questions.extend(
        [
            "",
            "why is the sky blue", // NoEntityGrounded
            "please enumerate the inhabitant count of somewhere", // NoTemplateMatched
            "what is the meaning of life",
        ]
        .into_iter()
        .map(str::to_owned),
    );
    // A template probe against a real entity so the later stages exercise.
    let pop = f.world.intent_by_name("city_population").unwrap();
    let city = f.world.subjects_of(pop)[0];
    let name = f.world.store.surface(city);
    questions.push(format!("please enumerate the inhabitant count of {name}"));
    questions.push(format!("what is the population of {name}"));
    questions
}

/// Byte-level comparison: `assert_eq!` covers structure and strings; scores
/// are re-checked bit-for-bit because `f64` equality would accept `-0.0`.
fn assert_identical(
    optimized: &Result<Vec<Answer>, Refusal>,
    reference: &Result<Vec<Answer>, Refusal>,
    question: &str,
    config: &str,
) {
    assert_eq!(optimized, reference, "question {question:?} under {config}");
    if let (Ok(a), Ok(b)) = (optimized, reference) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits differ for {question:?} under {config}"
            );
        }
    }
}

fn sweep(f: &Fixture, config: EngineConfig, label: &str) {
    let ner = GazetteerNer::from_store(&f.world.store);
    let engine = QaEngine::with_shared(&f.world.store, &f.world.conceptualizer, &f.model, &ner)
        .with_config(config);
    let mut scratch = ScratchSpace::new();
    for question in question_set(f) {
        let tokens = tokenize(&question);
        let reference = engine.bfq_kernel_reference(&tokens);
        let optimized = engine.answer_bfq_explained_with(&question, &mut scratch);
        assert_identical(&optimized, &reference, &question, label);
    }
}

#[test]
fn optimized_kernel_is_byte_identical_under_default_config() {
    let f = fixture();
    sweep(&f, EngineConfig::default(), "default config");
}

#[test]
fn optimized_kernel_is_byte_identical_under_stressed_configs() {
    let f = fixture();
    // Small k with a permissive θ floor, wide concept fan-out, and a strict
    // large-k config: byte-identity must hold under every exact-mode shape.
    for (config, label) in [
        (
            EngineConfig {
                top_k: 1,
                min_theta: 0.01,
                ..EngineConfig::default()
            },
            "top_k=1 min_theta=0.01",
        ),
        (
            EngineConfig {
                top_k: 2,
                min_theta: 0.0,
                max_concepts: 8,
                ..EngineConfig::default()
            },
            "top_k=2 min_theta=0 max_concepts=8",
        ),
        (
            EngineConfig {
                top_k: 50,
                min_theta: 0.5,
                ..EngineConfig::default()
            },
            "top_k=50 min_theta=0.5",
        ),
    ] {
        sweep(&f, config, label);
    }
}

/// Every request shape the serving path distinguishes, per question: plain
/// (rendered from ids), `explain`, each override, and overrides together.
/// Refused and decomposed responses come from the question set itself.
fn request_shapes(question: &str) -> [QaRequest; 6] {
    let plain = QaRequest::new(question);
    [
        plain.clone(),
        plain.clone().with_explain(true),
        plain.clone().with_top_k(2),
        plain.clone().with_min_theta(0.3),
        plain.clone().with_decompose(false),
        plain.with_top_k(1).with_min_theta(0.0).with_request_id(9),
    ]
}

/// Render every shape of every question one by one and as one batch, and
/// compare with the owned responses' `serde_json` text. Returns the counts
/// of refused and decomposed responses, so callers can check the corpus
/// exercised both.
fn assert_renders_like_serde(service: &KbqaService, questions: &[String]) -> (usize, usize) {
    let requests: Vec<QaRequest> = questions.iter().flat_map(|q| request_shapes(q)).collect();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(&service.answer(r)).expect("serialize"))
        .collect();
    let mut out = Vec::new();
    let (mut refused, mut decomposed) = (0, 0);
    for (request, expected) in requests.iter().zip(&expected) {
        out.clear();
        out.extend_from_slice(b"prefix");
        let rendered = service.answer_into(request, &mut out);
        assert_eq!(rendered.span, 6..out.len(), "{request:?}");
        assert_eq!(
            std::str::from_utf8(&out[rendered.span.clone()]).expect("utf8"),
            expected,
            "answer_into rendered {request:?} differently"
        );
        let owned = service.answer(request);
        assert_eq!(rendered.refusal, owned.refusal, "{request:?}");
        refused += usize::from(owned.refusal.is_some());
        if request.decompose.is_none() && owned.answered() {
            // Answered only through the decomposition fallback.
            let direct = service.answer(&request.clone().with_decompose(false));
            decomposed += usize::from(!direct.answered());
        }
    }
    let mut batch = Vec::new();
    let mut rendered = Vec::new();
    service.answer_batch_into(&requests, &mut batch, &mut rendered);
    assert_eq!(
        std::str::from_utf8(&batch).expect("utf8"),
        expected.join(","),
        "answer_batch_into differs from the sequential rendering"
    );
    assert_eq!(rendered.len(), requests.len());
    for (one, expected) in rendered.iter().zip(&expected) {
        assert_eq!(&batch[one.span.clone()], expected.as_bytes());
    }
    (refused, decomposed)
}

fn serving(f: &Fixture) -> KbqaService {
    let ner = std::sync::Arc::new(GazetteerNer::from_store(&f.world.store));
    let index = PatternIndex::build(f.corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    KbqaService::builder(
        Arc::clone(&f.world.store),
        Arc::clone(&f.world.conceptualizer),
        Arc::clone(&f.model),
    )
    .ner(ner)
    .pattern_index(Arc::new(index))
    .build()
}

#[test]
fn rendered_responses_are_byte_identical_to_serde_on_every_snapshot_shape() {
    let f = fixture();
    let questions = question_set(&f);
    let in_memory = serving(&f);

    let dir = std::env::temp_dir().join(format!("kbqa-render-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ServingArtifacts::from_service(&in_memory)
        .save(&dir)
        .expect("save serving bundle");
    let mapped = ServingArtifacts::load(&dir)
        .expect("load serving bundle")
        .into_service();
    assert_eq!(mapped.store().backend_kind().as_str(), "mapped");

    for (service, label) in [(&in_memory, "in-memory"), (&mapped, "mapped")] {
        let (refused, decomposed) = assert_renders_like_serde(service, &questions);
        assert!(refused > 0, "{label}: the corpus refused nothing");
        assert!(decomposed > 0, "{label}: the corpus decomposed nothing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch of at least 128 questions fans out across threads (two per
/// 64-question chunk, on a machine with two or more cores), each rendering
/// into its own buffer; stitched back together it must equal the
/// sequential rendering.
#[test]
fn a_multi_threaded_batch_renders_like_the_sequential_one() {
    let f = fixture();
    let service = serving(&f);
    let requests: Vec<QaRequest> = question_set(&f)
        .iter()
        .take(300)
        .map(QaRequest::new)
        .collect();
    assert!(requests.len() >= 128);
    let mut sequential = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        if i > 0 {
            sequential.push(b',');
        }
        service.answer_into(request, &mut sequential);
    }
    let mut batch = b"[".to_vec();
    let mut rendered = Vec::new();
    service.answer_batch_into(&requests, &mut batch, &mut rendered);
    assert_eq!(&batch[1..], &sequential[..]);
    assert_eq!(rendered.len(), requests.len());
    assert_eq!(rendered[0].span.start, 1);
    assert_eq!(rendered.last().expect("non-empty").span.end, batch.len());
}
