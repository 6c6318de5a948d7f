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

use std::path::Path;

use serde::{Deserialize, Serialize};

use kbqa_common::error::Result;
use kbqa_rdf::mmap::Mmap;
use kbqa_rdf::sections::Sections;
use kbqa_rdf::NodeId;

use crate::concept::ConceptId;
use crate::network::{smoothed, ConceptNetwork, Tuning, DEFAULT_TUNING, FORMAT};

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
///
/// Beside the network it keeps one derived table: `ln P(w|c)` for every
/// (context word, concept) pair under its α, so scoring a signal word is an
/// array read per candidate concept, with no hash probe and no `ln`. The
/// table is `vocabulary × concepts` `f64`s and is rebuilt whenever α is.
#[derive(Clone, Debug)]
pub struct Conceptualizer {
    network: ConceptNetwork,
    /// Add-α smoothing for context likelihoods.
    alpha: f64,
    /// Cap on context words consulted per mention (cost control; the paper
    /// treats concepts-per-entity as a constant, Sec 3.3).
    max_context_words: usize,
    /// `ln P(w|c)` at index `symbol × concept_count + concept`.
    log_likelihood: Vec<f64>,
}

impl Conceptualizer {
    /// Default smoothing (α = 0.1) and a 16-word context window.
    pub fn new(network: ConceptNetwork) -> Self {
        Self::with_tuning(network, DEFAULT_TUNING)
    }

    fn with_tuning(network: ConceptNetwork, tuning: Tuning) -> Self {
        let mut conceptualizer = Self {
            network,
            alpha: tuning.alpha,
            max_context_words: tuning.max_context_words,
            log_likelihood: Vec::new(),
        };
        conceptualizer.build_table();
        conceptualizer
    }

    /// Fill the `ln P(w|c)` table: the same expression, evaluated once,
    /// that scoring used to evaluate per (word, concept) per question.
    fn build_table(&mut self) {
        let net = &self.network;
        let vocab = net.smoothing_vocab();
        let mut table = Vec::with_capacity(net.vocab_size() * net.concept_count());
        for sym in 0..net.vocab_size() as u32 {
            table.extend(net.concepts().map(|c| {
                smoothed(
                    net.context_count(c, sym),
                    net.context_total(c),
                    self.alpha,
                    vocab,
                )
                .ln()
            }));
        }
        self.log_likelihood = table;
    }

    /// Override the smoothing constant (rebuilds the likelihood table).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self.build_table();
        self
    }

    /// The underlying network.
    pub fn network(&self) -> &ConceptNetwork {
        &self.network
    }

    /// Open a `taxonomy.snap` already mapped: the header, checksum and every
    /// section are checked before anything reads them, and a violation is a
    /// typed [`kbqa_common::error::KbqaError::Io`]. The file's tuning (α and
    /// the context-word cap) comes with it.
    pub fn from_map(map: Mmap) -> Result<Self> {
        let network = ConceptNetwork::from_sections(Sections::from_map(&FORMAT, map)?)?;
        let tuning = network.tuning();
        Ok(Self::with_tuning(network, tuning))
    }

    /// Write the conceptualizer as a `taxonomy.snap` (atomically) and
    /// return the file's Fx-64 digest.
    pub fn write_snapshot(&self, path: &Path) -> Result<u64> {
        self.network.write_with_tuning(self.tuning(), path)
    }

    /// Heap bytes held: the network's (none of its columns when mapped) and
    /// the likelihood table.
    pub fn heap_bytes(&self) -> usize {
        self.network.heap_bytes() + self.log_likelihood.capacity() * 8
    }

    fn tuning(&self) -> Tuning {
        Tuning {
            alpha: self.alpha,
            max_context_words: self.max_context_words,
        }
    }

    /// Plain prior conceptualization: `P(c|e)` ignoring context.
    pub fn prior(&self, entity: NodeId) -> ConceptDistribution {
        ConceptDistribution {
            entries: self.network.concepts_of(entity).iter().collect(),
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
            out.push((prior.concepts()[0], 1.0));
            return;
        }

        // Log-space scores, reweighted by each signal word as it streams by.
        out.extend(prior.iter().map(|(c, p)| (c, p.ln())));
        let concepts = self.network.concept_count();
        let mut signal_seen = 0usize;
        for word in context {
            if signal_seen >= self.max_context_words {
                break;
            }
            // One vocabulary probe per word, shared by every concept.
            let Some(sym) = self.network.context_symbol(word) else {
                continue;
            };
            signal_seen += 1;
            let row = &self.log_likelihood[sym as usize * concepts..][..concepts];
            for (c, score) in out.iter_mut() {
                *score += row[c.index()];
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

    /// The scoring the precomputed table replaced: a count probe and an
    /// `ln` per (signal word, candidate concept).
    fn reference(c: &Conceptualizer, entity: NodeId, context: &[&str]) -> Vec<(ConceptId, f64)> {
        let net = c.network();
        let prior = net.concepts_of(entity);
        if prior.len() < 2 {
            return prior.iter().map(|(c, _)| (c, 1.0)).collect();
        }
        let mut out: Vec<(ConceptId, f64)> = prior.iter().map(|(c, p)| (c, p.ln())).collect();
        let mut seen = 0;
        for word in context {
            if seen >= c.max_context_words {
                break;
            }
            let sym = net.context_symbol(word);
            if sym.is_none() {
                continue;
            }
            seen += 1;
            for (concept, score) in out.iter_mut() {
                *score += net.symbol_likelihood(*concept, sym, c.alpha).ln();
            }
        }
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
        out
    }

    fn bits(dist: &[(ConceptId, f64)]) -> Vec<(ConceptId, u64)> {
        dist.iter().map(|&(c, p)| (c, p.to_bits())).collect()
    }

    const CONTEXTS: [&[&str]; 5] = [
        &["what", "is", "the", "headquarter", "of"],
        &["how", "do", "i", "eat", "an"],
        &["ceo", "eat", "grow", "founded", "headquarter", "eat"],
        &["zz", "qq"],
        &[],
    ];

    #[test]
    fn the_likelihood_table_scores_bit_identically_to_the_formula() {
        let (net, _, _) = apple_network();
        for alpha in [0.1, 0.37, 2.0] {
            let c = Conceptualizer::new(net.clone()).with_alpha(alpha);
            for context in CONTEXTS {
                for entity in [node(0), node(99)] {
                    assert_eq!(
                        bits(&c.conceptualize(entity, context).entries),
                        bits(&reference(&c, entity, context)),
                        "alpha {alpha}, context {context:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_reloads_the_same_conceptualizer() {
        let (net, _, _) = apple_network();
        let c = Conceptualizer::new(net).with_alpha(0.37);
        let dir = std::env::temp_dir().join(format!("kbqa-taxonomy-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("taxonomy.snap");
        c.write_snapshot(&path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mapped = Conceptualizer::from_map(Mmap::map_file(&file).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(mapped.alpha, 0.37);
        assert_eq!(mapped.max_context_words, c.max_context_words);
        assert_eq!(mapped.network().covered_entities(), 1);
        assert_eq!(
            mapped.network().find_concept("fruit"),
            c.network().find_concept("fruit")
        );
        for context in CONTEXTS {
            assert_eq!(
                bits(&mapped.conceptualize(node(0), context).entries),
                bits(&c.conceptualize(node(0), context).entries)
            );
        }
        assert_eq!(
            mapped.network().sections().heap_bytes(),
            0,
            "mapped, not copied"
        );
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
