//! Persistence: the learned model survives a serde round-trip (with derived
//! indexes rebuilt) and answers identically afterwards. The store has no
//! JSON form; its one persisted form is the `store.snap` image.

use kbqa::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

#[test]
fn learned_model_roundtrips_through_json() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 500));
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

    let json = serde_json::to_string(&model).expect("serialize model");
    let mut restored: LearnedModel = serde_json::from_str(&json).expect("deserialize model");
    restored.rebuild_index();

    assert_eq!(model.templates.len(), restored.templates.len());
    assert_eq!(model.predicates.len(), restored.predicates.len());
    assert_eq!(model.stats.observations, restored.stats.observations);

    // Answers agree before/after.
    let service_a = KbqaService::new(
        std::sync::Arc::clone(&world.store),
        std::sync::Arc::clone(&world.conceptualizer),
        std::sync::Arc::new(model),
    );
    let service_b = KbqaService::new(
        std::sync::Arc::clone(&world.store),
        std::sync::Arc::clone(&world.conceptualizer),
        std::sync::Arc::new(restored),
    );
    let intent = world.intent_by_name("city_population").unwrap();
    for &city in world.subjects_of(intent).iter().take(5) {
        let q = format!("what is the population of {}", world.store.surface(city));
        assert_eq!(service_a.answer_text(&q), service_b.answer_text(&q));
    }
}

#[test]
fn qa_request_roundtrips_through_json() {
    // Every override set.
    let full = QaRequest::new("what is the population of berlin?")
        .with_top_k(3)
        .with_min_theta(0.25)
        .with_decompose(false)
        .with_explain(true);
    let json = serde_json::to_string(&full).expect("serialize request");
    let restored: QaRequest = serde_json::from_str(&json).expect("deserialize request");
    assert_eq!(full, restored);

    // Defaults (None overrides) survive too, and a sparse wire body —
    // omitted optional fields — parses to the same request a client
    // constructor would build.
    let plain = QaRequest::new("who founded rome");
    let json = serde_json::to_string(&plain).expect("serialize request");
    assert_eq!(plain, serde_json::from_str::<QaRequest>(&json).unwrap());
    let sparse: QaRequest = serde_json::from_str("{\"question\":\"who founded rome\"}")
        .expect("sparse body parses via serde defaults");
    assert_eq!(plain, sparse);
}

#[test]
fn qa_response_and_answers_roundtrip_through_json() {
    // A response with full provenance, exercising Answer with and without a
    // node id, plus stats.
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
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
        std::sync::Arc::clone(&world.store),
        std::sync::Arc::clone(&world.conceptualizer),
        std::sync::Arc::new(model),
    );
    let intent = world.intent_by_name("city_population").unwrap();
    let city = world
        .subjects_of(intent)
        .iter()
        .copied()
        .find(|&c| !world.gold_values(intent, c).is_empty())
        .expect("answerable city");
    let question = format!("what is the population of {}", world.store.surface(city));

    let live = service.answer(&QaRequest::new(&question).with_explain(true));
    assert!(live.answered(), "fixture question must be answerable");
    let json = serde_json::to_string(&live).expect("serialize response");
    let restored: QaResponse = serde_json::from_str(&json).expect("deserialize response");
    assert_eq!(live, restored);
    // Re-serialization is byte-identical — the property the server's answer
    // cache depends on.
    assert_eq!(json, serde_json::to_string(&restored).unwrap());

    // A hand-built answer without provenance or node.
    let bare = QaResponse::from_answers(vec![Answer::ranked("42", 0.5)]);
    let json = serde_json::to_string(&bare).unwrap();
    assert_eq!(bare, serde_json::from_str::<QaResponse>(&json).unwrap());
}

#[test]
fn every_refusal_variant_roundtrips_through_json() {
    for refusal in [
        Refusal::NoEntityGrounded,
        Refusal::NoTemplateMatched,
        Refusal::NoPredicateAboveTheta,
        Refusal::EmptyValueSet,
    ] {
        let json = serde_json::to_string(&refusal).expect("serialize refusal");
        let restored: Refusal = serde_json::from_str(&json).expect("deserialize refusal");
        assert_eq!(refusal, restored);

        let response = QaResponse::refused(refusal);
        let json = serde_json::to_string(&response).expect("serialize refusal response");
        let restored: QaResponse = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(response, restored);
        assert_eq!(json, serde_json::to_string(&restored).unwrap());
    }
}

#[test]
fn theta_survives_roundtrip_numerically() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
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

    let json = serde_json::to_string(&model.theta).expect("serialize theta");
    let restored: kbqa::core::em::Theta = serde_json::from_str(&json).expect("deserialize");
    for (tid, row) in model.theta.iter() {
        let other = restored.predicates_for(tid);
        assert_eq!(row.len(), other.len());
        for (a, b) in row.iter().zip(other) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-15);
        }
    }
}

/// The rendering with every sequence's elements sorted: hash maps serialize
/// in iteration order, which a rebuilt map need not repeat.
fn canonical(value: Value) -> String {
    match value {
        Value::Seq(items) => {
            let mut items: Vec<String> = items.into_iter().map(canonical).collect();
            items.sort();
            format!("[{}]", items.join(","))
        }
        Value::Map(entries) => {
            let entries: Vec<String> = entries
                .into_iter()
                .map(|(key, value)| format!("{key:?}:{}", canonical(value)))
                .collect();
            format!("{{{}}}", entries.join(","))
        }
        scalar => serde_json::to_string(&scalar).expect("serialize"),
    }
}

/// `to_string` → `from_str` → `to_string` renders the same content:
/// byte-identical up to the order of sequence elements.
fn roundtrips<T: Serialize + DeserializeOwned>(what: &str, value: &T) {
    let json = serde_json::to_string(value).expect("serialize");
    let restored: T =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{what} does not parse back: {e}"));
    let again = serde_json::to_string(&restored).expect("re-serialize");
    let content = |json: &str| canonical(serde_json::from_str(json).expect("valid JSON"));
    assert!(
        json == again || content(&json) == content(&again),
        "{what} must round-trip ({} vs {} bytes)",
        json.len(),
        again.len()
    );
}

#[test]
fn every_persisted_type_roundtrips_on_the_quick_world() {
    // `repro --scale quick`'s KBA world: a small world, 4 000 QA pairs.
    let world = World::generate(WorldConfig::small(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 4_000));
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
    let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    let metrics = kbqa_server::Metrics::new();
    let service = KbqaService::new(
        std::sync::Arc::clone(&world.store),
        std::sync::Arc::clone(&world.conceptualizer),
        std::sync::Arc::new(model.clone()),
    );
    for pair in corpus.pairs.iter().take(200) {
        let started = std::time::Instant::now();
        metrics.record_outcome(service.answer_text(&pair.question).refusal);
        metrics.answer_latency.record(started.elapsed());
    }

    roundtrips("LearnedModel", &model);
    roundtrips("Conceptualizer", world.conceptualizer.as_ref());
    roundtrips("PatternIndex", &index);
    roundtrips("EngineConfig", &EngineConfig::default());
    roundtrips("MetricsSnapshot", &metrics.snapshot());
}
