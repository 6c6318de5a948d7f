//! Keyword-based QA (paper Sec 1.2 category 2, after Unger & Cimiano \[29\]).
//!
//! Grounds the question entity, then scores that entity's *direct*
//! predicates by lexical overlap between the question's content keywords and
//! the predicate's name. Handles `what is the population of X?` (the word
//! `population` appears) but — the paper's running point — has no way to map
//! `how many people are there in X?` onto `population`.

use std::sync::Arc;

use kbqa_core::engine::Answer;
use kbqa_core::service::{QaRequest, QaResponse, QaSystem, Refusal};
use kbqa_nlp::token::{is_question_word, is_stopword};
use kbqa_nlp::{tokenize, GazetteerNer};
use kbqa_rdf::TripleStore;

/// The keyword-matching system.
pub struct KeywordQa<'a> {
    store: &'a TripleStore,
    ner: GazetteerNer,
}

impl<'a> KeywordQa<'a> {
    /// Build over a store.
    pub fn new(store: &'a Arc<TripleStore>) -> Self {
        Self {
            store,
            ner: GazetteerNer::from_store(store),
        }
    }
}

impl QaSystem for KeywordQa<'_> {
    fn name(&self) -> &str {
        "KeywordQA"
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

        // Content keywords: outside the mention, not stopwords/wh-words.
        let keywords: Vec<&str> = tokens
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < mention.start || *i >= mention.end)
            .map(|(_, t)| t.text.as_str())
            .filter(|w| !is_stopword(w) && !is_question_word(w))
            .collect();
        if keywords.is_empty() {
            // No content words at all — nothing to match a predicate with.
            return QaResponse::refused(Refusal::NoTemplateMatched);
        }

        // Score each direct predicate of the entity by keyword overlap with
        // its name tokens.
        let mut best: Option<(f64, kbqa_rdf::PredicateId)> = None;
        let mut seen = Vec::new();
        for t in self.store.out_edges(entity) {
            if seen.contains(&t.p) {
                continue;
            }
            seen.push(t.p);
            let name = self.store.dict().predicate_name(t.p);
            let name_tokens: Vec<&str> = name.split(['_', ' ']).collect();
            let hits = name_tokens
                .iter()
                .filter(|nt| keywords.contains(nt))
                .count();
            if hits == 0 {
                continue;
            }
            let score = hits as f64 / name_tokens.len() as f64;
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, t.p));
            }
        }
        let Some((score, predicate)) = best else {
            // No predicate name overlapped the keywords — the lexical
            // analogue of no predicate clearing θ.
            return QaResponse::refused(Refusal::NoPredicateAboveTheta);
        };
        let entity_surface = self.store.surface(entity);
        let predicate_name = self.store.dict().predicate_name(predicate).to_owned();
        let template = format!("keywords:{}", keywords.join(" "));
        let answers: Vec<Answer> = self
            .store
            .objects(entity, predicate)
            .map(|o| {
                let mut a = Answer::ranked(self.store.surface(o), score).with_provenance(
                    entity_surface.clone(),
                    template.clone(),
                    predicate_name.clone(),
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
    use kbqa_rdf::GraphBuilder;

    fn store() -> Arc<TripleStore> {
        let mut b = GraphBuilder::new();
        let honolulu = b.resource("honolulu");
        let tokyo = b.resource("tokyo");
        b.name(honolulu, "Honolulu");
        b.name(tokyo, "Tokyo");
        b.fact_int(honolulu, "population", 390_000);
        b.fact_int(honolulu, "area", 177);
        b.fact_int(tokyo, "population", 13_960_000);
        Arc::new(b.build())
    }

    #[test]
    fn matches_predicate_named_in_question() {
        let store = store();
        let qa = KeywordQa::new(&store);
        let a = qa.answer_text("what is the population of Honolulu");
        assert_eq!(a.top(), Some("390000"));
        assert_eq!(a.answers[0].entity, "Honolulu");
        assert_eq!(a.answers[0].predicate, "population");
        let a = qa.answer_text("tell me the area of Honolulu");
        assert_eq!(a.top(), Some("177"));
    }

    #[test]
    fn fails_on_paraphrases_without_lexical_overlap() {
        // The paper's core criticism of keyword systems — and the refusal
        // names the predicate-matching stage.
        let store = store();
        let qa = KeywordQa::new(&store);
        let response = qa.answer_text("how many people are there in Honolulu");
        assert_eq!(response.refusal, Some(Refusal::NoPredicateAboveTheta));
        let response = qa.answer_text("what is the total number of people in Honolulu");
        assert!(!response.answered());
    }

    #[test]
    fn requires_a_grounded_entity() {
        let store = store();
        let qa = KeywordQa::new(&store);
        let response = qa.answer_text("what is the population of Atlantis");
        assert_eq!(response.refusal, Some(Refusal::NoEntityGrounded));
        assert_eq!(qa.name(), "KeywordQA");
    }

    #[test]
    fn keyword_only_questions_refused() {
        let store = store();
        let qa = KeywordQa::new(&store);
        let response = qa.answer_text("Honolulu?");
        assert_eq!(response.refusal, Some(Refusal::NoTemplateMatched));
    }
}
