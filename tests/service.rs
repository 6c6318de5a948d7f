//! Integration tests for the `KbqaService` serving API: batch-vs-single
//! determinism, per-request configuration overrides, the refusal taxonomy,
//! and thread-shareability.

use std::sync::Arc;

use kbqa::prelude::*;

struct Fixture {
    world: World,
    corpus: QaCorpus,
    service: KbqaService,
}

fn fixture(pairs: usize) -> Fixture {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, pairs));
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let learner = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let pair_refs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = learner.learn(&pair_refs, &LearnerConfig::default());
    let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .pattern_index(Arc::new(index))
    .build();
    Fixture {
        world,
        corpus,
        service,
    }
}

/// An answerable city + question for targeted tests.
fn answerable_question(world: &World) -> String {
    let pop = world.intent_by_name("city_population").unwrap();
    let city = world
        .subjects_of(pop)
        .iter()
        .copied()
        .find(|&c| {
            !world.gold_values(pop, c).is_empty()
                && world.store.entities_named(&world.store.surface(c)).len() == 1
        })
        .expect("unambiguous city with population");
    format!("what is the population of {}", world.store.surface(city))
}

#[test]
fn batch_matches_sequential_byte_for_byte_on_100_questions() {
    let f = fixture(800);
    // ≥100 real corpus questions (factoid + chatter mixed), plus a tail of
    // hostile inputs exercising every refusal path.
    let mut questions: Vec<String> = f
        .corpus
        .pairs
        .iter()
        .take(110)
        .map(|p| p.question.clone())
        .collect();
    questions.extend(
        [
            "why is the sky blue",
            "",
            "what is the meaning of life",
            "please enumerate the inhabitant count of somewhere",
        ]
        .map(str::to_owned),
    );
    assert!(questions.len() >= 100);
    let requests: Vec<QaRequest> = questions.iter().map(QaRequest::new).collect();

    let sequential: Vec<QaResponse> = requests.iter().map(|r| f.service.answer(r)).collect();
    let batched = f.service.answer_batch(&requests);

    assert_eq!(sequential.len(), batched.len());
    let ser = |responses: &[QaResponse]| -> Vec<String> {
        responses
            .iter()
            .map(|r| serde_json::to_string(r).expect("serialize response"))
            .collect()
    };
    assert_eq!(
        ser(&sequential),
        ser(&batched),
        "batch diverged from sequential"
    );
    // And at least some of the corpus questions actually answered.
    assert!(batched.iter().filter(|r| r.answered()).count() > 20);
}

#[test]
fn batch_order_does_not_change_individual_responses() {
    let f = fixture(600);
    let questions: Vec<String> = f
        .corpus
        .pairs
        .iter()
        .take(40)
        .map(|p| p.question.clone())
        .collect();
    let forward: Vec<QaRequest> = questions.iter().map(QaRequest::new).collect();
    let mut reversed = forward.clone();
    reversed.reverse();

    let forward_responses = f.service.answer_batch(&forward);
    let mut reversed_responses = f.service.answer_batch(&reversed);
    reversed_responses.reverse();
    assert_eq!(forward_responses, reversed_responses);
}

#[test]
fn per_request_overrides_apply_without_touching_shared_state() {
    let f = fixture(800);
    let q = answerable_question(&f.world);

    let default = f.service.answer_text(&q);
    assert!(default.answered());
    assert!(default.stats.is_none(), "explain off by default");

    // top_k = 1 truncates.
    let top1 = f.service.answer(&QaRequest::new(&q).with_top_k(1));
    assert_eq!(top1.answers.len(), 1);
    assert_eq!(top1.top(), default.top());

    // Strict θ can only shrink the answer set.
    let strict = f.service.answer(&QaRequest::new(&q).with_min_theta(0.9));
    assert!(strict.answers.len() <= default.answers.len());

    // explain attaches Table 6 statistics.
    let explained = f.service.answer(&QaRequest::new(&q).with_explain(true));
    let stats = explained.stats.as_ref().expect("stats attached");
    assert!(stats.entities >= 1);

    // The overrides were per-request: the default path is unchanged.
    assert_eq!(f.service.answer_text(&q), default);
}

#[test]
fn decompose_override_gates_complex_questions() {
    let f = fixture(900);
    // A country whose capital has a population → a 2-step chain question.
    let cap = f.world.intent_by_name("country_capital").unwrap();
    let Some(country) = f.world.subjects_of(cap).iter().copied().find(|&c| {
        let caps = f.world.gold_values(cap, c);
        !caps.is_empty()
            && f.world
                .store
                .entities_named(&f.world.store.surface(c))
                .len()
                == 1
    }) else {
        return; // degenerate tiny world
    };
    let q = format!(
        "how many people live in the capital of {}",
        f.world.store.surface(country)
    );
    let with_dp = f.service.answer(&QaRequest::new(&q).with_decompose(true));
    let without_dp = f.service.answer(&QaRequest::new(&q).with_decompose(false));
    // Without decomposition the chain question must refuse; with it, the
    // usual worlds answer (we only assert the gate when the DP succeeded).
    if with_dp.answered() {
        assert!(
            !without_dp.answered(),
            "decompose=false still answered: {without_dp:?}"
        );
        // top_k binds on the decomposition fallback path too.
        let top1 = f
            .service
            .answer(&QaRequest::new(&q).with_decompose(true).with_top_k(1));
        assert!(top1.answers.len() <= 1, "top_k ignored: {top1:?}");
    }
}

#[test]
fn with_model_serves_a_sibling_one_epoch_past_its_parent() {
    let f = fixture(400);
    let q = answerable_question(&f.world);
    assert_eq!(f.service.model_epoch(), 0);
    let answered = f.service.answer_text(&q);
    assert!(answered.answered());
    assert_eq!(answered.model_epoch, 0);

    // The sibling serves the new model at the next epoch…
    let sibling = f.service.with_model(Arc::new(LearnedModel::default()));
    assert_eq!(sibling.model_epoch(), 1);
    let refused = sibling.answer_text(&q);
    assert!(!refused.answered(), "empty model must refuse");
    assert_eq!(refused.model_epoch, 1);

    // …and the parent is unchanged.
    assert_eq!(f.service.model_epoch(), 0);
    assert_eq!(f.service.answer_text(&q), answered);
}

#[test]
fn minimal_wire_request_deserializes() {
    // QaRequest is a wire type: a payload carrying only the question must
    // parse, with every override defaulting off.
    let request: QaRequest =
        serde_json::from_str(r#"{"question":"what is the population of Honolulu"}"#)
            .expect("minimal request parses");
    assert_eq!(
        request,
        QaRequest::new("what is the population of Honolulu")
    );
}

#[test]
fn refusal_no_entity_grounded() {
    let f = fixture(600);
    for q in ["why is the sky blue", "", "how do magnets work"] {
        let response = f.service.answer_text(q);
        assert_eq!(response.refusal, Some(Refusal::NoEntityGrounded), "{q:?}");
        assert!(response.answers.is_empty());
    }
}

#[test]
fn refusal_no_template_matched() {
    let f = fixture(600);
    let pop = f.world.intent_by_name("city_population").unwrap();
    let city = f.world.subjects_of(pop)[0];
    // Entity grounds, but this phrasing was never learned as a template.
    let q = format!(
        "please enumerate the inhabitant count of {}",
        f.world.store.surface(city)
    );
    let response = f.service.answer_text(&q);
    assert_eq!(response.refusal, Some(Refusal::NoTemplateMatched));
}

#[test]
fn refusal_no_predicate_above_theta() {
    let f = fixture(800);
    let q = answerable_question(&f.world);
    // θ is a probability: a bar above 1 filters every predicate, leaving the
    // matched templates with nothing — the NoPredicateAboveTheta stage.
    let response = f.service.answer(
        &QaRequest::new(&q)
            .with_min_theta(1.01)
            .with_decompose(false),
    );
    assert_eq!(response.refusal, Some(Refusal::NoPredicateAboveTheta));
}

#[test]
fn refusal_empty_value_set() {
    let f = fixture(800);
    // An unmarried person with a unique name: the spouse template matches
    // and maps confidently to marriage→person→name, but the KB holds no
    // marriage edge for this subject.
    let spouse = f.world.intent_by_name("person_spouse").unwrap();
    let unmarried = f.world.subjects_of(spouse).iter().copied().find(|&p| {
        f.world.gold_values(spouse, p).is_empty()
            && f.world
                .store
                .entities_named(&f.world.store.surface(p))
                .len()
                == 1
    });
    let Some(person) = unmarried else {
        return; // everyone married in this world — nothing to assert
    };
    let q = format!("who is {} married to", f.world.store.surface(person));
    let response = f.service.answer(&QaRequest::new(&q).with_decompose(false));
    if response.answered() {
        // Ambiguous grounding can still produce values through another
        // reading; only a refusal must carry the right cause.
        return;
    }
    assert_eq!(response.refusal, Some(Refusal::EmptyValueSet), "q: {q}");
}

#[test]
fn service_clones_share_state_across_threads() {
    let f = fixture(800);
    let q = answerable_question(&f.world);
    let expected = f.service.answer_text(&q);

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let service = f.service.clone();
            let q = q.clone();
            std::thread::spawn(move || service.answer_text(&q))
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().expect("worker"), expected);
    }
}

#[test]
fn responses_serialize_with_refusals_and_provenance() {
    let f = fixture(800);
    let q = answerable_question(&f.world);
    let answered = f.service.answer_text(&q);
    let json = serde_json::to_string(&answered).expect("serialize");
    let back: QaResponse = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(answered, back);
    assert!(back.answers[0].node.is_some());
    assert_eq!(back.answers[0].predicate, "population");

    let refused = f.service.answer_text("why is the sky blue");
    let json = serde_json::to_string(&refused).expect("serialize refusal");
    let back: QaResponse = serde_json::from_str(&json).expect("deserialize refusal");
    assert_eq!(back.refusal, Some(Refusal::NoEntityGrounded));
}

#[test]
fn empty_batch_is_fine() {
    let f = fixture(400);
    assert!(f.service.answer_batch(&[]).is_empty());
}
