//! The isA network: concepts, membership edges, context evidence.
//!
//! Mirrors the slice of Probase that KBQA consumes: for each entity a
//! weighted list of concepts (the `P(c|e)` prior), and for each concept a
//! bag of context words with counts (the evidence that lets context sharpen
//! the prior). Both are populated by the world generator or learned from a
//! corpus; the structure is agnostic to the source.

use kbqa_common::hash::FxHashMap;
use kbqa_common::interner::Interner;
use serde::{Deserialize, Serialize};

use kbqa_rdf::NodeId;

use crate::concept::ConceptId;

/// Immutable isA network. Construct via [`NetworkBuilder`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ConceptNetwork {
    concept_names: Interner,
    /// entity node → [(concept, normalized P(c|e))], sorted by descending weight.
    memberships: FxHashMap<NodeId, Vec<(ConceptId, f64)>>,
    /// concept → (context word → count).
    context_counts: Vec<FxHashMap<u32, f64>>,
    /// concept → Σ context counts (cached normalizer).
    context_totals: Vec<f64>,
    /// Shared vocabulary of context words.
    context_vocab: Interner,
}

impl ConceptNetwork {
    /// Number of distinct concepts.
    pub fn concept_count(&self) -> usize {
        self.concept_names.len()
    }

    /// Resolve a concept's name.
    pub fn concept_name(&self, c: ConceptId) -> &str {
        self.concept_names.resolve(c.raw())
    }

    /// Look up a concept by name.
    pub fn find_concept(&self, name: &str) -> Option<ConceptId> {
        self.concept_names.get(name).map(ConceptId::new)
    }

    /// The `P(c|e)` prior for an entity: normalized, sorted descending.
    /// Empty when the entity is not covered by the taxonomy.
    pub fn concepts_of(&self, entity: NodeId) -> &[(ConceptId, f64)] {
        self.memberships
            .get(&entity)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of entities with at least one concept.
    pub fn covered_entities(&self) -> usize {
        self.memberships.len()
    }

    /// Smoothed `P(word | concept)` with add-α smoothing over the shared
    /// context vocabulary — the naive-Bayes likelihood used by the
    /// conceptualizer.
    pub fn context_likelihood(&self, c: ConceptId, word: &str, alpha: f64) -> f64 {
        self.symbol_likelihood(c, self.context_symbol(word), alpha)
    }

    /// [`ConceptNetwork::context_likelihood`] of an already-resolved
    /// [`ConceptNetwork::context_symbol`] (`None`: a word outside the
    /// vocabulary, count 0) — callers scoring one word against several
    /// concepts hash it once instead of once per concept.
    pub fn symbol_likelihood(&self, c: ConceptId, sym: Option<u32>, alpha: f64) -> f64 {
        let vocab = self.context_vocab.len().max(1) as f64;
        let total = self.context_totals[c.index()];
        let count = sym
            .and_then(|sym| self.context_counts[c.index()].get(&sym))
            .copied()
            .unwrap_or(0.0);
        (count + alpha) / (total + alpha * vocab)
    }

    /// The word's symbol in the shared context vocabulary; `None` when it
    /// appears in no concept's context evidence (such words carry no
    /// disambiguation signal and can be skipped).
    pub fn context_symbol(&self, word: &str) -> Option<u32> {
        self.context_vocab.get(word)
    }

    /// Whether the word appears in any concept's context evidence.
    pub fn is_context_word(&self, word: &str) -> bool {
        self.context_symbol(word).is_some()
    }

    /// Iterate all concept ids.
    pub fn concepts(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.concept_names.len()).map(|i| ConceptId::new(i as u32))
    }

    /// Rebuild interner lookup tables after deserialization.
    pub fn rebuild_index(&mut self) {
        self.concept_names.rebuild_index();
        self.context_vocab.rebuild_index();
    }
}

/// Mutable builder for [`ConceptNetwork`].
#[derive(Clone, Debug, Default)]
pub struct NetworkBuilder {
    concept_names: Interner,
    memberships: FxHashMap<NodeId, Vec<(ConceptId, f64)>>,
    context_counts: Vec<FxHashMap<u32, f64>>,
    context_vocab: Interner,
}

impl NetworkBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a concept by name.
    pub fn concept(&mut self, name: &str) -> ConceptId {
        let sym = self.concept_names.intern(name);
        while self.context_counts.len() <= sym as usize {
            self.context_counts.push(FxHashMap::default());
        }
        ConceptId::new(sym)
    }

    /// Assert `entity isA concept` with the given (unnormalized) weight.
    /// Repeated assertions accumulate weight.
    pub fn is_a(&mut self, entity: NodeId, concept: ConceptId, weight: f64) {
        assert!(weight > 0.0, "isA weight must be positive");
        let entry = self.memberships.entry(entity).or_default();
        if let Some(slot) = entry.iter_mut().find(|(c, _)| *c == concept) {
            slot.1 += weight;
        } else {
            entry.push((concept, weight));
        }
    }

    /// Record that `word` co-occurs with mentions of `concept` instances
    /// (`count` times). This is the evidence behind context-aware scoring.
    pub fn context_evidence(&mut self, concept: ConceptId, word: &str, count: f64) {
        assert!(count > 0.0, "context count must be positive");
        let sym = self.context_vocab.intern(word);
        *self.context_counts[concept.index()]
            .entry(sym)
            .or_insert(0.0) += count;
    }

    /// Freeze: normalize memberships to probability distributions and cache
    /// context totals.
    pub fn build(self) -> ConceptNetwork {
        let mut memberships = self.memberships;
        for weights in memberships.values_mut() {
            let total: f64 = weights.iter().map(|(_, w)| w).sum();
            for (_, w) in weights.iter_mut() {
                *w /= total;
            }
            // Descending weight, concept id as tiebreak for determinism.
            weights.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        let context_totals = self
            .context_counts
            .iter()
            .map(|m| m.values().sum())
            .collect();
        ConceptNetwork {
            concept_names: self.concept_names,
            memberships,
            context_counts: self.context_counts,
            context_totals,
            context_vocab: self.context_vocab,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn membership_normalizes_and_sorts() {
        let mut b = NetworkBuilder::new();
        let person = b.concept("person");
        let politician = b.concept("politician");
        b.is_a(node(0), person, 3.0);
        b.is_a(node(0), politician, 1.0);
        let net = b.build();
        let concepts = net.concepts_of(node(0));
        assert_eq!(concepts.len(), 2);
        assert_eq!(concepts[0].0, person);
        assert!((concepts[0].1 - 0.75).abs() < 1e-12);
        assert!((concepts[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn repeated_is_a_accumulates() {
        let mut b = NetworkBuilder::new();
        let city = b.concept("city");
        b.is_a(node(1), city, 1.0);
        b.is_a(node(1), city, 2.0);
        let net = b.build();
        assert_eq!(net.concepts_of(node(1)), &[(city, 1.0)]);
    }

    #[test]
    fn uncovered_entity_has_no_concepts() {
        let net = NetworkBuilder::new().build();
        assert!(net.concepts_of(node(9)).is_empty());
        assert_eq!(net.covered_entities(), 0);
    }

    #[test]
    fn concept_lookup_roundtrip() {
        let mut b = NetworkBuilder::new();
        let city = b.concept("city");
        let again = b.concept("city");
        assert_eq!(city, again);
        let net = b.build();
        assert_eq!(net.concept_name(city), "city");
        assert_eq!(net.find_concept("city"), Some(city));
        assert_eq!(net.find_concept("galaxy"), None);
        assert_eq!(net.concept_count(), 1);
    }

    #[test]
    fn context_likelihood_prefers_observed_words() {
        let mut b = NetworkBuilder::new();
        let company = b.concept("company");
        let fruit = b.concept("fruit");
        b.context_evidence(company, "headquarter", 10.0);
        b.context_evidence(company, "ceo", 8.0);
        b.context_evidence(fruit, "eat", 12.0);
        let net = b.build();
        let alpha = 0.1;
        assert!(
            net.context_likelihood(company, "headquarter", alpha)
                > net.context_likelihood(fruit, "headquarter", alpha)
        );
        assert!(
            net.context_likelihood(fruit, "eat", alpha)
                > net.context_likelihood(company, "eat", alpha)
        );
    }

    #[test]
    fn smoothing_never_returns_zero() {
        let mut b = NetworkBuilder::new();
        let c = b.concept("anything");
        b.context_evidence(c, "seen", 1.0);
        let net = b.build();
        assert!(net.context_likelihood(c, "unseen", 0.5) > 0.0);
    }

    #[test]
    fn context_word_detection() {
        let mut b = NetworkBuilder::new();
        let c = b.concept("city");
        b.context_evidence(c, "population", 5.0);
        let net = b.build();
        assert!(net.is_context_word("population"));
        assert!(!net.is_context_word("xylophone"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_is_rejected() {
        let mut b = NetworkBuilder::new();
        let c = b.concept("x");
        b.is_a(node(0), c, 0.0);
    }
}
