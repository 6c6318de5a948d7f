//! Rule-based QA (paper Sec 1.2 category 1, after Ou et al. \[23\]).
//!
//! Understands a small set of canned question forms and maps the slot
//! word(s) directly onto a predicate name:
//!
//! * `what/who is the <x> of <entity>` → predicate `<x>`
//! * `what is <entity> 's <x>` → predicate `<x>`
//!
//! Exactly as the paper argues, this yields high precision (the rule is
//! explicit) and low recall (anything off-pattern is refused).

use std::sync::Arc;

use kbqa_core::engine::Answer;
use kbqa_core::service::{QaRequest, QaResponse, QaSystem, Refusal};
use kbqa_nlp::{tokenize, GazetteerNer};
use kbqa_rdf::TripleStore;

/// The rule-based system.
pub struct RuleBasedQa<'a> {
    store: &'a TripleStore,
    ner: GazetteerNer,
}

impl<'a> RuleBasedQa<'a> {
    /// Build over a store (the gazetteer grounds the entity slot).
    pub fn new(store: &'a Arc<TripleStore>) -> Self {
        Self {
            store,
            ner: GazetteerNer::from_store(store),
        }
    }

    /// Try the canned forms; return the predicate word and entity window.
    fn parse(&self, words: &[&str]) -> Option<(String, usize, usize)> {
        let n = words.len();
        // Form 1: (what|who) is the <x> of <entity...>
        if n >= 6 && matches!(words[0], "what" | "who") && words[1] == "is" && words[2] == "the" {
            if let Some(of_pos) = words.iter().position(|&w| w == "of") {
                if of_pos > 3 && of_pos + 1 < n {
                    let pred = words[3..of_pos].join("_");
                    return Some((pred, of_pos + 1, n));
                }
            }
        }
        // Form 2: what is <entity...> 's <x...>
        if n >= 5 && words[0] == "what" && words[1] == "is" {
            if let Some(pos_pos) = words.iter().position(|&w| w == "'s") {
                if pos_pos > 2 && pos_pos + 1 < n {
                    let pred = words[pos_pos + 1..].join("_");
                    return Some((pred, 2, pos_pos));
                }
            }
        }
        None
    }
}

impl QaSystem for RuleBasedQa<'_> {
    fn name(&self) -> &str {
        "RuleQA"
    }

    fn answer(&self, request: &QaRequest) -> QaResponse {
        let tokens = tokenize(&request.question);
        let words = tokens.words();
        let Some((pred_word, ent_start, ent_end)) = self.parse(&words) else {
            // Off-pattern phrasing: no canned rule (template) applies.
            return QaResponse::refused(Refusal::NoTemplateMatched);
        };
        let Some(predicate) = self.store.dict().find_predicate(&pred_word) else {
            // Rule matched but the slot word names no KB predicate.
            return QaResponse::refused(Refusal::NoPredicateAboveTheta);
        };
        let mention = tokens.join(ent_start, ent_end);
        let entities = self.ner.ground(&mention);
        let Some(&entity) = entities.first() else {
            return QaResponse::refused(Refusal::NoEntityGrounded);
        };
        let entity_surface = self.store.surface(entity);
        let template = format!("rule:what is the {pred_word} of $e");
        let answers: Vec<Answer> = self
            .store
            .objects(entity, predicate)
            .map(|o| {
                let mut a = Answer::ranked(self.store.surface(o), 1.0).with_provenance(
                    entity_surface.clone(),
                    template.clone(),
                    pred_word.clone(),
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
        let mayor = b.resource("mayor1");
        b.name(honolulu, "Honolulu");
        b.name(mayor, "Rick Blangiardi");
        b.fact_int(honolulu, "population", 390_000);
        b.link(honolulu, "mayor", mayor);
        Arc::new(b.build())
    }

    #[test]
    fn answers_canned_what_is_the_x_of() {
        let store = store();
        let qa = RuleBasedQa::new(&store);
        let a = qa.answer_text("What is the population of Honolulu?");
        assert_eq!(a.top(), Some("390000"));
        assert_eq!(a.answers[0].predicate, "population");
    }

    #[test]
    fn entity_valued_predicates_render_names() {
        let store = store();
        let qa = RuleBasedQa::new(&store);
        let a = qa.answer_text("Who is the mayor of Honolulu?");
        assert_eq!(a.top(), Some("Rick Blangiardi"));
    }

    #[test]
    fn possessive_form() {
        let store = store();
        let qa = RuleBasedQa::new(&store);
        let a = qa.answer_text("What is Honolulu's population?");
        assert_eq!(a.top(), Some("390000"));
    }

    #[test]
    fn off_pattern_questions_are_refused() {
        let store = store();
        let qa = RuleBasedQa::new(&store);
        // The paper's motivating case: no rule matches this phrasing.
        let response = qa.answer_text("How many people are there in Honolulu?");
        assert_eq!(response.refusal, Some(Refusal::NoTemplateMatched));
        assert!(!qa.answer_text("population please").answered());
    }

    #[test]
    fn unknown_predicate_or_entity_refused() {
        let store = store();
        let qa = RuleBasedQa::new(&store);
        let response = qa.answer_text("What is the altitude of Honolulu?");
        assert_eq!(response.refusal, Some(Refusal::NoPredicateAboveTheta));
        let response = qa.answer_text("What is the population of Atlantis?");
        assert_eq!(response.refusal, Some(Refusal::NoEntityGrounded));
        assert_eq!(qa.name(), "RuleQA");
    }
}
