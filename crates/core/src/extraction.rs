//! Entity–value extraction from QA pairs (paper Sec 4.1).
//!
//! Eq (8): `EVᵢ = {(e, v) | e ⊂ qᵢ, v ⊂ aᵢ, ∃p, (e, p, v) ∈ K}` — candidate
//! pairs are an entity mentioned in the question and a value mentioned in
//! the answer that the KB connects by some (expanded) predicate. Rather than
//! enumerating all answer substrings, we enumerate the KB neighborhood of
//! each question entity (the emitted `(e, p⁺, o)` records from
//! [`crate::expansion`]) and test each object's surface form for containment
//! in the answer — same set, near-linear cost.
//!
//! The **refinement** step (Sec 4.1.1) filters noise pairs like Example 2's
//! `(Barack Obama, "politician")`: the question's UIUC answer class must
//! agree with the class of the connecting predicate (the paper labels
//! predicates manually; worlds supply those labels).
//!
//! Each surviving `(q, e, v)` triple becomes an [`Observation`] carrying the
//! *factored* fixed probabilities of Eq (19): `P(e|q)` (Eq 4), the template
//! distribution `P(t|e,q)`, and `P(v|e,p)` per candidate predicate — the EM
//! step then only multiplies in `θ_pt`.

use kbqa_common::hash::FxHashMap;
use serde::{Deserialize, Serialize};

use kbqa_nlp::{classify_question, tokenize, AnswerClass, GazetteerNer, Mention};
use kbqa_rdf::{ExpandedPredicate, NodeId, TripleStore};
use kbqa_taxonomy::Conceptualizer;

use crate::expansion::ExpansionResult;
use crate::model;
use crate::template::{TemplateCatalog, TemplateId};

/// Extraction parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExtractionConfig {
    /// Apply the Sec 4.1.1 answer-type refinement filter.
    pub refine_by_class: bool,
    /// Cap on distinct entities considered per question.
    pub max_entities_per_question: usize,
    /// Cap on concepts (→ templates) per entity mention.
    pub max_concepts: usize,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        Self {
            refine_by_class: true,
            max_entities_per_question: 8,
            max_concepts: 4,
        }
    }
}

/// One extracted `(q, e, v)` triple with its factored fixed probabilities.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Observation {
    /// Index of the source QA pair.
    pub pair_index: usize,
    /// The question entity.
    pub entity: NodeId,
    /// The extracted value node.
    pub value: NodeId,
    /// `P(e|q)` (Eq 4).
    pub p_entity: f64,
    /// `(template, P(t|e,q))` — one per candidate concept.
    pub templates: Vec<(TemplateId, f64)>,
    /// `(predicate, P(v|e,p))` — one per KB connection between e and v.
    pub predicates: Vec<(crate::catalog::PredId, f64)>,
}

/// The extractor: wires the NER, the expansion index and the class labels.
pub struct Extractor<'a> {
    store: &'a TripleStore,
    conceptualizer: &'a Conceptualizer,
    ner: &'a GazetteerNer,
    expansion: &'a ExpansionResult,
    predicate_classes: &'a FxHashMap<ExpandedPredicate, AnswerClass>,
    config: ExtractionConfig,
}

impl<'a> Extractor<'a> {
    /// Construct an extractor.
    pub fn new(
        store: &'a TripleStore,
        conceptualizer: &'a Conceptualizer,
        ner: &'a GazetteerNer,
        expansion: &'a ExpansionResult,
        predicate_classes: &'a FxHashMap<ExpandedPredicate, AnswerClass>,
        config: ExtractionConfig,
    ) -> Self {
        Self {
            store,
            conceptualizer,
            ner,
            expansion,
            predicate_classes,
            config,
        }
    }

    /// Extract observations from an entire corpus of `(question, answer)`
    /// pairs, interning templates into `templates`.
    pub fn extract_corpus<'q>(
        &self,
        pairs: impl IntoIterator<Item = (&'q str, &'q str)>,
        templates: &mut TemplateCatalog,
    ) -> Vec<Observation> {
        let mut observations = Vec::new();
        for (index, (question, answer)) in pairs.into_iter().enumerate() {
            self.extract_pair(index, question, answer, templates, &mut observations);
        }
        observations
    }

    /// Extract the EV pairs of one QA pair, appending observations.
    pub fn extract_pair(
        &self,
        pair_index: usize,
        question: &str,
        answer: &str,
        templates: &mut TemplateCatalog,
        out: &mut Vec<Observation>,
    ) {
        let q_tokens = tokenize(question);
        if q_tokens.is_empty() {
            return;
        }
        let a_tokens = tokenize(answer);
        if a_tokens.is_empty() {
            return;
        }
        let a_words = a_tokens.words();
        let question_class = classify_question(&q_tokens);

        // Candidate entities: all grounded mentions, keeping the widest
        // mention per entity (for template derivation).
        let mentions = self.ner.find_all_mentions(&q_tokens);
        let mut best_mention: FxHashMap<NodeId, Mention> = FxHashMap::default();
        for m in mentions {
            for &node in &m.nodes {
                let keep = match best_mention.get(&node) {
                    Some(prev) => m.len() > prev.len(),
                    None => true,
                };
                if keep {
                    best_mention.insert(node, m.clone());
                }
            }
        }
        if best_mention.is_empty() {
            return;
        }
        let mut entities: Vec<NodeId> = best_mention.keys().copied().collect();
        entities.sort_unstable();
        entities.truncate(self.config.max_entities_per_question);

        // EV candidates per entity: KB neighbors whose surface occurs in the
        // answer (Eq 8), refined by answer-type agreement (Sec 4.1.1).
        struct Candidate {
            entity: NodeId,
            value: NodeId,
            predicates: Vec<(crate::catalog::PredId, f64)>,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for &entity in &entities {
            let Some(neighbors) = self.expansion.by_subject.get(&entity) else {
                continue;
            };
            // Group the (p⁺, o) records by o so each value yields one
            // observation with all its connecting predicates.
            let mut by_value: FxHashMap<NodeId, Vec<crate::catalog::PredId>> = FxHashMap::default();
            for &(pred, object) in neighbors {
                by_value.entry(object).or_default().push(pred);
            }
            let mut values: Vec<(NodeId, Vec<crate::catalog::PredId>)> =
                by_value.into_iter().collect();
            values.sort_unstable_by_key(|(v, _)| *v);
            for (value, preds) in values {
                // Eq (8)'s `v ⊂ aᵢ`: values are *strings in the answer*, so
                // only literal nodes qualify. A resource-valued edge like
                // `capital` is reachable as text only through its
                // name-terminated expansion (`capital→name`), keeping one
                // canonical predicate per textual value.
                if !self.store.dict().node_term(value).is_literal() {
                    continue;
                }
                let surface = self.store.surface(value);
                if !contains_phrase(&a_words, &surface) {
                    continue;
                }
                let kept: Vec<(crate::catalog::PredId, f64)> = preds
                    .into_iter()
                    .filter(|&p| {
                        !self.config.refine_by_class || self.class_allows(p, question_class)
                    })
                    .map(|p| {
                        let count = self.expansion.value_count(entity, p).max(1);
                        (p, 1.0 / count as f64)
                    })
                    .collect();
                if !kept.is_empty() {
                    candidates.push(Candidate {
                        entity,
                        value,
                        predicates: kept,
                    });
                }
            }
        }
        if candidates.is_empty() {
            return;
        }

        // Eq (4): P(e|q) uniform over the entities present in the EV set.
        let mut ev_entities: Vec<NodeId> = candidates.iter().map(|c| c.entity).collect();
        ev_entities.sort_unstable();
        ev_entities.dedup();
        let p_entity = model::entity_probability(ev_entities.len());

        // Template distributions are shared per entity; compute once.
        let mut template_cache: FxHashMap<NodeId, Vec<(TemplateId, f64)>> = FxHashMap::default();
        for candidate in candidates {
            let entry = template_cache.entry(candidate.entity).or_insert_with(|| {
                let mention = &best_mention[&candidate.entity];
                model::templates_for_mention(
                    &q_tokens,
                    mention,
                    candidate.entity,
                    self.conceptualizer,
                    self.config.max_concepts,
                )
                .into_iter()
                .map(|(t, p)| (templates.intern(&t), p))
                .collect()
            });
            if entry.is_empty() {
                continue;
            }
            out.push(Observation {
                pair_index,
                entity: candidate.entity,
                value: candidate.value,
                p_entity,
                templates: entry.clone(),
                predicates: candidate.predicates,
            });
        }
    }

    /// Entity sets per pair, for the Sec 7.5 entity-identification
    /// comparison (our joint extraction vs. an independent NER).
    pub fn extracted_entities(&self, question: &str, answer: &str) -> Vec<NodeId> {
        let mut tmp_catalog = TemplateCatalog::new();
        let mut obs = Vec::new();
        self.extract_pair(0, question, answer, &mut tmp_catalog, &mut obs);
        let mut entities: Vec<NodeId> = obs.into_iter().map(|o| o.entity).collect();
        entities.sort_unstable();
        entities.dedup();
        entities
    }

    fn class_allows(&self, pred: crate::catalog::PredId, question_class: AnswerClass) -> bool {
        let path = self.expansion.catalog.resolve(pred);
        match self.predicate_classes.get(path) {
            Some(class) => *class == question_class,
            // Unlabeled predicates pass (the paper labels only a few
            // thousand; unlabeled ones cannot be filtered).
            None => true,
        }
    }
}

/// Does `phrase` occur as a contiguous token subsequence of `haystack`?
/// Token-wise matching avoids substring false positives ("19" in "1961").
fn contains_phrase(haystack: &[&str], phrase: &str) -> bool {
    let needle = tokenize(phrase);
    if needle.is_empty() || needle.len() > haystack.len() {
        return false;
    }
    let needle_words = needle.words();
    haystack
        .windows(needle_words.len())
        .any(|w| w == needle_words.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbqa_common::hash::FxHashSet;
    use kbqa_rdf::GraphBuilder;
    use kbqa_taxonomy::NetworkBuilder;

    use crate::expansion::{expand, ExpansionConfig};

    struct Fixture {
        store: std::sync::Arc<TripleStore>,
        conceptualizer: Conceptualizer,
        ner: GazetteerNer,
        expansion: ExpansionResult,
        classes: FxHashMap<ExpandedPredicate, AnswerClass>,
        obama: NodeId,
    }

    /// Paper Fig. 1 / Table 3 setting: Obama with dob, category, spouse.
    fn fixture() -> Fixture {
        let mut b = GraphBuilder::new();
        let obama = b.resource("obama");
        let marriage = b.resource("m1");
        let michelle = b.resource("michelle");
        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.fact_year(obama, "dob", 1961);
        b.fact_str(obama, "category", "Politician");
        b.link(obama, "marriage", marriage);
        b.link(marriage, "person", michelle);
        b.fact_year(michelle, "dob", 1964);
        let store = std::sync::Arc::new(b.build());

        let mut nb = NetworkBuilder::new();
        let person = nb.concept("person");
        let politician = nb.concept("politician");
        nb.is_a(obama, person, 0.6);
        nb.is_a(obama, politician, 0.4);
        nb.is_a(michelle, person, 1.0);
        let conceptualizer = Conceptualizer::new(nb.build());

        let ner = GazetteerNer::from_store(&store);
        let sources: FxHashSet<NodeId> = [obama, michelle].into_iter().collect();
        let expansion = expand(&store, &sources, &ExpansionConfig::default());

        let mut classes: FxHashMap<ExpandedPredicate, AnswerClass> = FxHashMap::default();
        let p = |name: &str| store.dict().find_predicate(name).unwrap();
        classes.insert(ExpandedPredicate::single(p("dob")), AnswerClass::Numeric);
        classes.insert(
            ExpandedPredicate::single(p("category")),
            AnswerClass::Description,
        );
        classes.insert(ExpandedPredicate::single(p("name")), AnswerClass::Entity);
        classes.insert(
            ExpandedPredicate::new(vec![p("marriage"), p("person"), p("name")]),
            AnswerClass::Human,
        );
        Fixture {
            store,
            conceptualizer,
            ner,
            expansion,
            classes,
            obama,
        }
    }

    fn extract(fx: &Fixture, config: ExtractionConfig, q: &str, a: &str) -> Vec<Observation> {
        let extractor = Extractor::new(
            &fx.store,
            &fx.conceptualizer,
            &fx.ner,
            &fx.expansion,
            &fx.classes,
            config,
        );
        let mut templates = TemplateCatalog::new();
        let mut out = Vec::new();
        extractor.extract_pair(0, q, a, &mut templates, &mut out);
        out
    }

    #[test]
    fn extracts_the_dob_value_from_a_noisy_reply() {
        let fx = fixture();
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "When was Barack Obama born?",
            "The politician was born in 1961.",
        );
        // Refinement keeps 1961 (NUM = NUM) and rejects "politician"
        // (category → DESC ≠ NUM) and the entity's own name (ENTY ≠ NUM).
        assert_eq!(obs.len(), 1);
        let o = &obs[0];
        assert_eq!(o.entity, fx.obama);
        assert_eq!(fx.store.dict().render(o.value), "1961");
        assert_eq!(o.predicates.len(), 1);
    }

    #[test]
    fn without_refinement_the_noise_pair_survives() {
        let fx = fixture();
        let config = ExtractionConfig {
            refine_by_class: false,
            ..Default::default()
        };
        let obs = extract(
            &fx,
            config,
            "When was Barack Obama born?",
            "The politician was born in 1961.",
        );
        // Now both 1961 and "Politician" are extracted (Example 2's noise).
        let values: Vec<String> = obs
            .iter()
            .map(|o| fx.store.dict().render(o.value))
            .collect();
        assert!(values.contains(&"1961".to_owned()));
        assert!(values.contains(&"Politician".to_owned()), "{values:?}");
    }

    #[test]
    fn spouse_value_extracted_through_expanded_predicate() {
        let fx = fixture();
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "Who is the wife of Barack Obama?",
            "His wife is Michelle Obama.",
        );
        assert_eq!(obs.len(), 1);
        let o = &obs[0];
        let path = fx.expansion.catalog.resolve(o.predicates[0].0);
        assert_eq!(path.render(&fx.store), "marriage→person→name");
    }

    #[test]
    fn templates_cover_candidate_concepts() {
        let fx = fixture();
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "When was Barack Obama born?",
            "He was born in 1961.",
        );
        assert_eq!(obs.len(), 1);
        // Obama conceptualizes to person and politician → two templates
        // (paper Sec 2: q1 yields `when was $person born?` and
        // `when was $politician born?`).
        assert_eq!(obs[0].templates.len(), 2);
    }

    #[test]
    fn no_observation_when_answer_has_no_kb_value() {
        let fx = fixture();
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "When was Barack Obama born?",
            "I have no idea, sorry!",
        );
        assert!(obs.is_empty());
    }

    #[test]
    fn no_observation_without_a_question_entity() {
        let fx = fixture();
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "When was the treaty signed?",
            "It was signed in 1961.",
        );
        assert!(obs.is_empty());
    }

    #[test]
    fn p_entity_uniform_over_ev_entities() {
        let fx = fixture();
        // Both Obama and Michelle appear; answer holds both dobs, so the EV
        // set contains both entities → P(e|q) = 1/2.
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "When were Barack Obama and Michelle Obama born?",
            "He was born in 1961 and she was born in 1964.",
        );
        assert!(obs.len() >= 2);
        for o in &obs {
            assert!((o.p_entity - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn value_probability_reflects_multiplicity() {
        let fx = fixture();
        let obs = extract(
            &fx,
            ExtractionConfig::default(),
            "When was Barack Obama born?",
            "1961.",
        );
        assert_eq!(obs.len(), 1);
        // dob has a single value → P(v|e,p) = 1.
        assert!((obs[0].predicates[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contains_phrase_matches_token_boundaries() {
        let haystack = ["born", "in", "1961"];
        assert!(contains_phrase(&haystack, "1961"));
        assert!(contains_phrase(&haystack, "in 1961"));
        assert!(!contains_phrase(&haystack, "19"));
        assert!(!contains_phrase(&haystack, "1961 exactly"));
        assert!(!contains_phrase(&haystack, ""));
    }

    #[test]
    fn extracted_entities_helper() {
        let fx = fixture();
        let extractor = Extractor::new(
            &fx.store,
            &fx.conceptualizer,
            &fx.ner,
            &fx.expansion,
            &fx.classes,
            ExtractionConfig::default(),
        );
        let entities =
            extractor.extracted_entities("When was Barack Obama born?", "He was born in 1961.");
        assert_eq!(entities, vec![fx.obama]);
    }
}
