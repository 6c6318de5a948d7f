//! Synonym-based QA (paper Sec 1.2 category 3; DEANNA \[33\] stand-in).
//!
//! Extends keyword matching with a learned synonym lexicon: the question's
//! content phrase is compared against each predicate's BOA patterns by token
//! overlap, so `what is the total number of people in X` can reach
//! `population` *if* some declarative sentence produced a phrase like
//! `number of people` — but `how many people are there in X?` stays out of
//! reach, reproducing the paper's Table 1 case ⓐ failure.

use std::sync::Arc;

use kbqa_common::hash::FxHashSet;
use kbqa_core::engine::Answer;
use kbqa_core::service::{QaRequest, QaResponse, QaSystem, Refusal};
use kbqa_nlp::token::{is_question_word, is_stopword};
use kbqa_nlp::{tokenize, GazetteerNer};
use kbqa_rdf::TripleStore;

use crate::bootstrap::BoaLexicon;

/// Minimum phrase-overlap similarity to accept a predicate.
const MIN_SIMILARITY: f64 = 0.34;

/// The synonym-based system.
pub struct SynonymQa<'a> {
    store: &'a TripleStore,
    ner: GazetteerNer,
    lexicon: &'a BoaLexicon,
    catalog: &'a kbqa_core::PredicateCatalog,
}

impl<'a> SynonymQa<'a> {
    /// Build over a store and a learned lexicon (see
    /// [`crate::bootstrap::learn_boa`]). `catalog` must be the catalog the
    /// lexicon's predicate ids refer to.
    pub fn new(
        store: &'a Arc<TripleStore>,
        lexicon: &'a BoaLexicon,
        catalog: &'a kbqa_core::PredicateCatalog,
    ) -> Self {
        Self {
            store,
            ner: GazetteerNer::from_store(store),
            lexicon,
            catalog,
        }
    }

    /// Weighted token-overlap similarity between the question phrase and a
    /// synonym pattern (Jaccard over content tokens).
    fn similarity(question_tokens: &FxHashSet<&str>, pattern: &str) -> f64 {
        let pattern_tokens: FxHashSet<&str> =
            pattern.split(' ').filter(|w| !is_stopword(w)).collect();
        if pattern_tokens.is_empty() {
            return 0.0;
        }
        let hits = pattern_tokens
            .iter()
            .filter(|t| question_tokens.contains(*t))
            .count();
        let union = pattern_tokens.len() + question_tokens.len() - hits;
        if union == 0 {
            0.0
        } else {
            hits as f64 / union as f64
        }
    }
}

impl QaSystem for SynonymQa<'_> {
    fn name(&self) -> &str {
        "SynonymQA"
    }

    fn answer(&self, request: &QaRequest) -> QaResponse {
        let tokens = tokenize(&request.question);
        let mentions = self.ner.find_longest_mentions(&tokens);
        let Some(mention) = mentions.first() else {
            return QaResponse::refused(Refusal::NoEntityGrounded);
        };
        let Some(&entity) = mention.nodes.first() else {
            return QaResponse::refused(Refusal::NoEntityGrounded);
        };

        let content: FxHashSet<&str> = tokens
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < mention.start || *i >= mention.end)
            .map(|(_, t)| t.text.as_str())
            .filter(|w| !is_stopword(w) && !is_question_word(w))
            .collect();
        if content.is_empty() {
            return QaResponse::refused(Refusal::NoTemplateMatched);
        }

        // Score every lexicon predicate applicable to this entity.
        let mut best: Option<(f64, kbqa_core::PredId)> = None;
        for (&pred, patterns) in &self.lexicon.patterns {
            let path = self.catalog.resolve(pred);
            // Cheap applicability probe before scoring.
            if kbqa_rdf::path::objects_via_path(self.store, entity, path).is_empty() {
                continue;
            }
            let score = patterns
                .keys()
                .map(|p| Self::similarity(&content, p))
                .fold(0.0, f64::max);
            if score >= MIN_SIMILARITY && best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, pred));
            }
        }
        let Some((score, pred)) = best else {
            // Nothing in the lexicon cleared the similarity bar — the
            // synonym system's θ analogue.
            return QaResponse::refused(Refusal::NoPredicateAboveTheta);
        };
        let path = self.catalog.resolve(pred);
        let entity_surface = self.store.surface(entity);
        let rendered_path = path.render(self.store);
        let answers: Vec<Answer> = kbqa_rdf::path::objects_via_path(self.store, entity, path)
            .into_iter()
            .map(|o| {
                let mut a = Answer::ranked(self.store.surface(o), score).with_provenance(
                    entity_surface.clone(),
                    "synonym-lexicon",
                    rendered_path.clone(),
                );
                a.node = Some(o);
                a
            })
            .collect();
        if answers.is_empty() {
            QaResponse::refused(Refusal::EmptyValueSet)
        } else {
            QaResponse::from_answers(answers)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::learn_boa;
    use kbqa_core::expansion::{expand, ExpansionConfig};
    use kbqa_rdf::{GraphBuilder, NodeId};

    fn fixture() -> (Arc<TripleStore>, kbqa_core::expansion::ExpansionResult) {
        let mut b = GraphBuilder::new();
        let honolulu = b.resource("honolulu");
        let marriage = b.resource("m1");
        let obama = b.resource("obama");
        let michelle = b.resource("michelle");
        b.name(honolulu, "Honolulu");
        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.fact_int(honolulu, "population", 390_000);
        b.link(obama, "marriage", marriage);
        b.link(marriage, "person", michelle);
        let store = Arc::new(b.build());
        let sources: kbqa_common::hash::FxHashSet<NodeId> = [honolulu, obama].into_iter().collect();
        let expansion = expand(&store, &sources, &ExpansionConfig::default());
        (store, expansion)
    }

    #[test]
    fn synonym_phrase_reaches_predicate_without_its_name() {
        let (store, expansion) = fixture();
        let ner = GazetteerNer::from_store(&store);
        let (lexicon, _) = learn_boa(
            &store,
            &ner,
            &expansion,
            [
                "Honolulu number of people 390000",
                "Honolulu is married to Michelle Obama", // wrong subject form, ignored
                "Barack Obama is married to Michelle Obama",
            ],
        );
        let qa = SynonymQa::new(&store, &lexicon, &expansion.catalog);
        // "number of people" was learned as a synonym of population.
        let a = qa.answer_text("what is the total number of people in Honolulu");
        assert_eq!(a.top(), Some("390000"));
        // Spouse through the expanded predicate's synonym "is married to".
        let a = qa.answer_text("who is married to Barack Obama");
        assert_eq!(a.top(), Some("Michelle Obama"));
        assert_eq!(a.answers[0].predicate, "marriage→person→name");
    }

    #[test]
    fn fails_on_phrasings_absent_from_declarative_text() {
        let (store, expansion) = fixture();
        let ner = GazetteerNer::from_store(&store);
        let (lexicon, _) = learn_boa(
            &store,
            &ner,
            &expansion,
            ["Honolulu has a population of 390000"],
        );
        let qa = SynonymQa::new(&store, &lexicon, &expansion.catalog);
        // The paper's case ⓐ: nothing in "how many people are there"
        // overlaps "has a population of".
        let response = qa.answer_text("how many people are there in Honolulu");
        assert_eq!(response.refusal, Some(Refusal::NoPredicateAboveTheta));
        assert_eq!(qa.name(), "SynonymQA");
    }

    #[test]
    fn refuses_without_entity_or_content() {
        let (store, expansion) = fixture();
        let ner = GazetteerNer::from_store(&store);
        let (lexicon, _) = learn_boa(
            &store,
            &ner,
            &expansion,
            ["Honolulu has a population of 390000"],
        );
        let qa = SynonymQa::new(&store, &lexicon, &expansion.catalog);
        let response = qa.answer_text("what about Atlantis");
        assert_eq!(response.refusal, Some(Refusal::NoEntityGrounded));
        let response = qa.answer_text("Honolulu");
        assert_eq!(response.refusal, Some(Refusal::NoTemplateMatched));
    }
}
