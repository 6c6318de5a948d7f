//! Context-aware conceptualization: `P(c | e, q)`.
//!
//! Paper Sec 3.2, Eq (5): the template distribution `P(t|q,e)` *is* the
//! concept distribution `P(c|q,e)` of the mentioned entity in its question
//! context. We reproduce the mechanism of Song et al. \[25\] — a naive-Bayes
//! combination of the isA prior with per-concept context likelihoods:
//!
//! ```text
//! P(c | e, ctx) ∝ P(c|e) · Π_{w ∈ ctx ∩ signal} P(w | c)
//! ```
//!
//! computed in log space and renormalized. Words with no context evidence in
//! any concept carry no signal and are skipped, so unrelated stopwords do not
//! wash out the prior.

use serde::{Deserialize, Serialize};

use kbqa_rdf::NodeId;

use crate::concept::ConceptId;
use crate::network::ConceptNetwork;

/// A normalized distribution over concepts for one entity-in-context.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConceptDistribution {
    /// `(concept, probability)` sorted by descending probability.
    pub entries: Vec<(ConceptId, f64)>,
}

impl ConceptDistribution {
    /// The most probable concept, if any.
    pub fn top(&self) -> Option<(ConceptId, f64)> {
        self.entries.first().copied()
    }

    /// Probability of a specific concept (0 when absent).
    pub fn probability(&self, c: ConceptId) -> f64 {
        self.entries
            .iter()
            .find(|(cc, _)| *cc == c)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// Number of candidate concepts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the distribution is empty (entity unknown to the taxonomy).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(concept, probability)`.
    pub fn iter(&self) -> impl Iterator<Item = (ConceptId, f64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Conceptualization engine over a [`ConceptNetwork`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Conceptualizer {
    network: ConceptNetwork,
    /// Add-α smoothing for context likelihoods.
    alpha: f64,
    /// Cap on context words consulted per mention (cost control; the paper
    /// treats concepts-per-entity as a constant, Sec 3.3).
    max_context_words: usize,
}

impl Conceptualizer {
    /// Default smoothing (α = 0.1) and a 16-word context window.
    pub fn new(network: ConceptNetwork) -> Self {
        Self {
            network,
            alpha: 0.1,
            max_context_words: 16,
        }
    }

    /// Override the smoothing constant.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// The underlying network.
    pub fn network(&self) -> &ConceptNetwork {
        &self.network
    }

    /// Rebuild the network's derived interner indexes after
    /// deserialization (see [`ConceptNetwork::rebuild_index`]).
    pub fn rebuild_index(&mut self) {
        self.network.rebuild_index();
    }

    /// Plain prior conceptualization: `P(c|e)` ignoring context.
    pub fn prior(&self, entity: NodeId) -> ConceptDistribution {
        ConceptDistribution {
            entries: self.network.concepts_of(entity).to_vec(),
        }
    }

    /// Context-aware conceptualization, Eq (5): the entity's isA prior
    /// reweighted by the likelihood of the surrounding words under each
    /// candidate concept.
    ///
    /// `context` should contain the question's tokens *excluding* the entity
    /// mention itself (the mention is being replaced by the concept slot).
    pub fn conceptualize(&self, entity: NodeId, context: &[&str]) -> ConceptDistribution {
        let mut entries = Vec::new();
        self.conceptualize_into(entity, context.iter().copied(), &mut entries);
        ConceptDistribution { entries }
    }

    /// [`Conceptualizer::conceptualize`] into a caller-owned buffer (cleared
    /// first): the identical distribution — same floating-point operation
    /// order, same descending sort — with no heap allocation in the steady
    /// state. Context words stream through; only signal-bearing words (in
    /// context order, capped) participate, exactly as in the owned variant.
    pub fn conceptualize_into<'a>(
        &self,
        entity: NodeId,
        context: impl IntoIterator<Item = &'a str>,
        out: &mut Vec<(ConceptId, f64)>,
    ) {
        out.clear();
        let prior = self.network.concepts_of(entity);
        if prior.is_empty() {
            return;
        }
        if prior.len() == 1 {
            out.push((prior[0].0, 1.0));
            return;
        }

        // Log-space scores, reweighted by each signal word as it streams by.
        out.extend(prior.iter().map(|&(c, p)| (c, p.ln())));
        let mut signal_seen = 0usize;
        for word in context {
            if signal_seen >= self.max_context_words {
                break;
            }
            // One vocabulary probe per word, shared by every concept.
            let sym = self.network.context_symbol(word);
            if sym.is_none() {
                continue;
            }
            signal_seen += 1;
            for (c, score) in out.iter_mut() {
                *score += self.network.symbol_likelihood(*c, sym, self.alpha).ln();
            }
        }

        // Log-space normalize.
        let max = out
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        for (_, s) in out.iter_mut() {
            *s = (*s - max).exp();
        }
        let total: f64 = out.iter().map(|(_, p)| p).sum();
        for (_, p) in out.iter_mut() {
            *p /= total;
        }
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The paper's apple example: "$company vs $fruit" resolved by context.
    fn apple_network() -> (ConceptNetwork, ConceptId, ConceptId) {
        let mut b = NetworkBuilder::new();
        let company = b.concept("company");
        let fruit = b.concept("fruit");
        // "apple" is more often the fruit in raw isA counts…
        b.is_a(node(0), fruit, 6.0);
        b.is_a(node(0), company, 4.0);
        // …but corporate context words pull strongly to company.
        b.context_evidence(company, "headquarter", 20.0);
        b.context_evidence(company, "ceo", 15.0);
        b.context_evidence(company, "founded", 10.0);
        b.context_evidence(fruit, "eat", 20.0);
        b.context_evidence(fruit, "grow", 10.0);
        (b.build(), company, fruit)
    }

    #[test]
    fn prior_prefers_fruit() {
        let (net, _company, fruit) = apple_network();
        let c = Conceptualizer::new(net);
        let dist = c.prior(node(0));
        assert_eq!(dist.top().unwrap().0, fruit);
    }

    #[test]
    fn corporate_context_flips_to_company() {
        let (net, company, _fruit) = apple_network();
        let c = Conceptualizer::new(net);
        let dist = c.conceptualize(node(0), &["what", "is", "the", "headquarter", "of"]);
        assert_eq!(dist.top().unwrap().0, company);
        // Distribution is normalized.
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn culinary_context_stays_fruit() {
        let (net, _company, fruit) = apple_network();
        let c = Conceptualizer::new(net);
        let dist = c.conceptualize(node(0), &["how", "do", "i", "eat", "an"]);
        assert_eq!(dist.top().unwrap().0, fruit);
    }

    #[test]
    fn no_signal_context_reduces_to_prior() {
        let (net, company, fruit) = apple_network();
        let c = Conceptualizer::new(net.clone());
        let dist = c.conceptualize(node(0), &["zz", "qq"]);
        let prior = c.prior(node(0));
        assert!((dist.probability(fruit) - prior.probability(fruit)).abs() < 1e-9);
        assert!((dist.probability(company) - prior.probability(company)).abs() < 1e-9);
    }

    #[test]
    fn unknown_entity_yields_empty_distribution() {
        let (net, _, _) = apple_network();
        let c = Conceptualizer::new(net);
        let dist = c.conceptualize(node(99), &["anything"]);
        assert!(dist.is_empty());
        assert_eq!(dist.top(), None);
    }

    #[test]
    fn single_concept_entity_is_certain() {
        let mut b = NetworkBuilder::new();
        let city = b.concept("city");
        b.is_a(node(5), city, 2.0);
        let c = Conceptualizer::new(b.build());
        let dist = c.conceptualize(node(5), &["population"]);
        assert_eq!(dist.entries, vec![(city, 1.0)]);
    }

    #[test]
    fn probability_of_absent_concept_is_zero() {
        let (net, company, _) = apple_network();
        let c = Conceptualizer::new(net);
        let dist = c.conceptualize(node(99), &[]);
        assert_eq!(dist.probability(company), 0.0);
    }

    #[test]
    fn conceptualize_into_is_bit_identical_and_reusable() {
        let (net, _, _) = apple_network();
        let c = Conceptualizer::new(net);
        let mut buf: Vec<(ConceptId, f64)> = Vec::new();
        let contexts: [&[&str]; 4] = [
            &["what", "is", "the", "headquarter", "of"],
            &["how", "do", "i", "eat", "an"],
            &["zz", "qq"],
            &[],
        ];
        for context in contexts {
            for entity in [node(0), node(5), node(99)] {
                let owned = c.conceptualize(entity, context);
                c.conceptualize_into(entity, context.iter().copied(), &mut buf);
                assert_eq!(buf.len(), owned.entries.len());
                for (a, b) in buf.iter().zip(&owned.entries) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(
                        a.1.to_bits(),
                        b.1.to_bits(),
                        "probabilities must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn distribution_is_sorted_descending() {
        let (net, _, _) = apple_network();
        let c = Conceptualizer::new(net);
        let dist = c.conceptualize(node(0), &["headquarter"]);
        for pair in dist.entries.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
