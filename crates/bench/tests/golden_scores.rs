//! Golden scores of the quick world: each stream question's top-k answers
//! with their scores as exact `f64` bits.
//!
//! `golden_tables` pins what is answered, cell by cell within each cell's
//! printed precision; a change to how an answer is *scored* (the smoothing
//! `α` of `P(c|e,q)`, say) that keeps every argmax passes it. This test pins
//! the scores themselves: `tests/fixtures/scores_quick.json` holds, for
//! every question of a held-out stream over the quick KBA-like world, the
//! top answers' values and the bit patterns of their scores, or the refusal.
//!
//! The model is learned with one EM thread, so the bits do not depend on the
//! host's core count. Regenerate deliberately with `KBQA_REGEN_GOLDEN=1
//! cargo test -p kbqa-bench --test golden_scores`, then review the diff.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::service::KbqaService;
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;

/// Answers kept per question.
const TOP_K: usize = 5;
/// Questions in the held-out stream.
const STREAM: usize = 600;

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct Scored {
    question: String,
    /// `(value, score bits as 16 hex digits)`, best first; empty on refusal.
    top: Vec<(String, String)>,
    /// The refusal, when the question was refused.
    refusal: Option<String>,
}

/// The quick KBA-like world and corpus `repro --scale quick` learns from,
/// learned on one EM thread, answering a stream drawn with another seed.
fn fresh_scores() -> Vec<Scored> {
    let world = World::generate(WorldConfig::small(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(17, 4_000));
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    )
    .learn(&pairs, &LearnerConfig::default());
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();
    let stream = QaCorpus::generate(&world, &CorpusConfig::with_pairs(2, STREAM));
    stream
        .pairs
        .into_iter()
        .map(|pair| {
            let response = service.answer_text(&pair.question);
            Scored {
                top: response
                    .answers
                    .iter()
                    .take(TOP_K)
                    .map(|a| (a.value.clone(), format!("{:016x}", a.score.to_bits())))
                    .collect(),
                refusal: response.refusal.map(|r| r.to_string()),
                question: pair.question,
            }
        })
        .collect()
}

#[test]
fn quick_stream_scores_match_the_golden_bits() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("scores_quick.json");
    let fresh = fresh_scores();
    let answered = fresh.iter().filter(|s| !s.top.is_empty()).count();
    assert!(
        answered > fresh.len() / 2,
        "{answered} of {} answered",
        fresh.len()
    );

    if std::env::var_os("KBQA_REGEN_GOLDEN").is_some() {
        std::fs::write(&fixture, serde_json::to_string_pretty(&fresh).unwrap()).unwrap();
        eprintln!("regenerated {}", fixture.display());
    }

    let text = std::fs::read_to_string(&fixture)
        .expect("golden scores missing — run with KBQA_REGEN_GOLDEN=1 to create them");
    let golden: Vec<Scored> = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(golden.len(), fresh.len(), "the stream changed length");
    let moved: Vec<String> = golden
        .iter()
        .zip(&fresh)
        .filter(|(g, f)| g != f)
        .map(|(g, f)| {
            format!(
                "{:?}: golden {:?} / {:?}, now {:?} / {:?}",
                g.question, g.top, g.refusal, f.top, f.refusal
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} questions scored differently; regenerate deliberately \
         (KBQA_REGEN_GOLDEN=1) only if the change is meant. First: {}",
        moved.len(),
        golden.len(),
        moved.iter().take(3).cloned().collect::<Vec<_>>().join("\n")
    );
}
