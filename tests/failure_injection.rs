//! Failure injection: the pipeline must degrade, not panic, under
//! adversarial corpora, pathological graphs, and hostile question strings.

use std::sync::Arc;

use kbqa::core::decompose::PatternIndex;
use kbqa::core::expansion::{expand, ExpansionConfig};
use kbqa::prelude::*;

fn service_for(world: &World, model: LearnedModel) -> KbqaService {
    KbqaService::new(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
}

fn learn_with(world: &World, pairs: Vec<(String, String)>) -> LearnedModel {
    let ner = GazetteerNer::from_store(&world.store);
    let learner = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let refs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(q, a)| (q.as_str(), a.as_str()))
        .collect();
    let (model, _) = learner.learn(&refs, &LearnerConfig::default());
    model
}

#[test]
fn empty_corpus_learns_empty_model_and_engine_refuses() {
    let world = World::generate(WorldConfig::tiny(42));
    let model = learn_with(&world, vec![]);
    assert_eq!(model.stats.observations, 0);
    assert_eq!(model.templates.len(), 0);
    let service = service_for(&world, model);
    let response = service.answer_text("what is the population of anywhere");
    assert!(!response.answered());
    assert!(response.refusal.is_some());
}

#[test]
fn all_chatter_corpus_produces_no_observations() {
    let world = World::generate(WorldConfig::tiny(42));
    let pairs: Vec<(String, String)> = (0..200)
        .map(|i| {
            (
                format!("what should i cook tonight number {i}"),
                "pasta never fails".to_owned(),
            )
        })
        .collect();
    let model = learn_with(&world, pairs);
    assert_eq!(model.stats.observations, 0);
}

#[test]
fn fully_wrong_answers_still_terminate_and_stay_safe() {
    // Every reply names a value of a DIFFERENT entity: extraction finds no
    // KB connection for most pairs, EM sees thin noise, nothing panics.
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &{
        let mut c = CorpusConfig::with_pairs(5, 400);
        c.wrong_answer_rate = 1.0;
        c
    });
    let pairs: Vec<(String, String)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let model = learn_with(&world, pairs);
    // Far fewer observations than a clean corpus of the same size.
    let clean = QaCorpus::generate(&world, &CorpusConfig::clean(5, 400));
    let clean_pairs: Vec<(String, String)> = clean
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let clean_model = learn_with(&world, clean_pairs);
    assert!(
        model.stats.observations * 2 < clean_model.stats.observations,
        "wrong-answer corpus produced {} observations vs clean {}",
        model.stats.observations,
        clean_model.stats.observations
    );
}

#[test]
fn cyclic_graph_expansion_terminates() {
    let mut b = GraphBuilder::new();
    let a = b.resource("a");
    let c = b.resource("c");
    b.name(a, "Node A");
    b.name(c, "Node C");
    // Tight cycle plus self-loop.
    b.link(a, "next", c);
    b.link(c, "next", a);
    b.link(a, "next", a);
    let store = b.build();
    let sources: kbqa::common::hash::FxHashSet<_> = [a, c].into_iter().collect();
    let config = ExpansionConfig {
        max_len: 3,
        require_name_terminal: false,
        max_emitted: 0,
    };
    let result = expand(&store, &sources, &config);
    // Terminates, dedupes, and never emits self-loops.
    for (&s, entries) in &result.by_subject {
        for &(_, o) in entries {
            assert_ne!(s, o, "self-loop emitted");
        }
    }
    assert!(result.emitted() > 0);
}

#[test]
fn hostile_question_strings_do_not_panic() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(5, 300));
    let pairs: Vec<(String, String)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let model = learn_with(&world, pairs);
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .pattern_index(Arc::new(index))
    .build();

    let long = "why ".repeat(500);
    let hostile = [
        "",
        " ",
        "????!!!",
        "\u{0000}\u{FFFD}",
        "'s 's 's",
        long.as_str(),
        "日本の首都はどこですか",
        "what is the population of",
        "$city $person $e",
    ];
    for q in hostile {
        // Must not panic; refusal is fine.
        let _ = service.answer_text(q);
        let _ = service.question_statistics(q);
    }
}

#[test]
fn entity_named_like_stopword_is_survivable() {
    let mut b = GraphBuilder::new();
    let weird = b.resource("weird");
    b.name(weird, "The");
    b.fact_int(weird, "population", 1);
    let store = std::sync::Arc::new(b.build());
    let ner = GazetteerNer::from_store(&store);
    let tokens = tokenize("what is the population of the");
    // Grounds (twice: "the" appears twice) without panicking.
    let mentions = ner.find_all_mentions(&tokens);
    assert!(!mentions.is_empty());
}

#[test]
fn pattern_index_handles_duplicates_and_short_questions() {
    let world = World::generate(WorldConfig::tiny(42));
    let ner = GazetteerNer::from_store(&world.store);
    let questions = ["hi", "hi", "one two", "one two", "x", ""];
    let index = PatternIndex::build(questions.iter().copied(), &ner);
    // Single-token and empty questions are skipped; duplicates accumulate.
    assert_eq!(index.questions_indexed(), 2);
    let (fo, _) = index.counts(&["one", "$e"]);
    assert_eq!(fo, 2);
}

#[test]
fn truncated_expansion_is_flagged_not_silent() {
    let world = World::generate(WorldConfig::tiny(42));
    let sources: kbqa::common::hash::FxHashSet<_> = world
        .store
        .dict()
        .nodes()
        .filter(|&n| world.store.dict().node_term(n).is_resource())
        .collect();
    let config = ExpansionConfig {
        max_emitted: 10,
        ..Default::default()
    };
    let result = expand(&world.store, &sources, &config);
    assert!(result.truncated, "cap was not reported");
}
