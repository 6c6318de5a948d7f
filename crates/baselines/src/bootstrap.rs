//! BOA-style bootstrapping (paper Sec 1.2/Sec 8; Table 12 comparator).
//!
//! Bootstrapping \[14, 28\] learns, for each predicate, the *text patterns
//! between subject and object* occurring in web documents: from
//! `"Honolulu has a population of 390000"` it extracts the pattern
//! `has a population of` as a synonym surface for `population`. The learned
//! lexicon doubles as (a) the synonym inventory of [`crate::SynonymQa`] and
//! (b) the coverage comparator of Table 12 (patterns ≈ templates,
//! relations ≈ predicates).
//!
//! KB connections between the subject and object are resolved through the
//! expansion index from [`kbqa_core::expansion`], so multi-edge relations
//! (`marriage→person→name`) participate exactly as in the KBQA learner.

use kbqa_common::hash::FxHashMap;
use serde::{Deserialize, Serialize};

use kbqa_core::catalog::PredId;
use kbqa_core::expansion::ExpansionResult;
use kbqa_nlp::{tokenize, GazetteerNer};
use kbqa_rdf::TripleStore;

/// A learned synonym lexicon: predicate → weighted surface patterns.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BoaLexicon {
    /// predicate → (pattern tokens joined by space → count).
    pub patterns: FxHashMap<PredId, FxHashMap<String, u32>>,
}

impl BoaLexicon {
    /// Distinct `(predicate, pattern)` pairs — the "templates" column of
    /// Table 12.
    pub fn pattern_count(&self) -> usize {
        self.patterns.values().map(|m| m.len()).sum()
    }

    /// Predicates with at least one pattern — Table 12's "predicates".
    pub fn predicate_count(&self) -> usize {
        self.patterns.len()
    }

    /// Patterns of one predicate, sorted by descending count.
    pub fn patterns_of(&self, pred: PredId) -> Vec<(&str, u32)> {
        let mut v: Vec<(&str, u32)> = self
            .patterns
            .get(&pred)
            .map(|m| m.iter().map(|(s, &c)| (s.as_str(), c)).collect())
            .unwrap_or_default();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Iterate `(predicate, pattern, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, &str, u32)> {
        self.patterns
            .iter()
            .flat_map(|(&p, m)| m.iter().map(move |(s, &c)| (p, s.as_str(), c)))
    }
}

/// Aggregate coverage statistics (Table 12 row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoaStats {
    /// Sentences consumed.
    pub sentences: usize,
    /// Distinct (predicate, pattern) pairs learned.
    pub templates: usize,
    /// Distinct predicates covered.
    pub predicates: usize,
}

/// Learn a lexicon from declarative sentences.
///
/// For each sentence: ground the longest entity mention, locate any KB value
/// of that entity elsewhere in the sentence (via the expansion index), and
/// record the token sequence *between* the two as a pattern for each
/// connecting predicate.
pub fn learn_boa<'s>(
    store: &TripleStore,
    ner: &GazetteerNer,
    expansion: &ExpansionResult,
    sentences: impl IntoIterator<Item = &'s str>,
) -> (BoaLexicon, BoaStats) {
    let mut lexicon = BoaLexicon::default();
    let mut stats = BoaStats::default();
    for sentence in sentences {
        stats.sentences += 1;
        let tokens = tokenize(sentence);
        let words = tokens.words();
        let mentions = ner.find_longest_mentions(&tokens);
        for mention in &mentions {
            for &entity in &mention.nodes {
                let Some(neighbors) = expansion.by_subject.get(&entity) else {
                    continue;
                };
                for &(pred, object) in neighbors {
                    let surface = store.surface(object);
                    let object_tokens = tokenize(&surface);
                    if object_tokens.is_empty() {
                        continue;
                    }
                    let object_words = object_tokens.words();
                    // Locate the object after the mention (BOA's canonical
                    // subject-pattern-object shape).
                    let Some(obj_pos) = find_subsequence(&words, &object_words, mention.end) else {
                        continue;
                    };
                    let between = words[mention.end..obj_pos].join(" ");
                    if between.is_empty() {
                        continue;
                    }
                    *lexicon
                        .patterns
                        .entry(pred)
                        .or_default()
                        .entry(between)
                        .or_insert(0) += 1;
                }
            }
        }
    }
    stats.templates = lexicon.pattern_count();
    stats.predicates = lexicon.predicate_count();
    (lexicon, stats)
}

/// First position ≥ `from` where `needle` occurs contiguously in `haystack`.
fn find_subsequence(haystack: &[&str], needle: &[&str], from: usize) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    (from..=haystack.len().saturating_sub(needle.len()))
        .find(|&i| &haystack[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbqa_common::hash::FxHashSet;
    use kbqa_core::expansion::{expand, ExpansionConfig};
    use kbqa_rdf::{GraphBuilder, NodeId};

    fn fixture() -> (
        std::sync::Arc<TripleStore>,
        GazetteerNer,
        ExpansionResult,
        NodeId,
    ) {
        let mut b = GraphBuilder::new();
        let honolulu = b.resource("honolulu");
        b.name(honolulu, "Honolulu");
        b.fact_int(honolulu, "population", 390_000);
        b.fact_int(honolulu, "area", 177);
        let store = std::sync::Arc::new(b.build());
        let ner = GazetteerNer::from_store(&store);
        let sources: FxHashSet<NodeId> = [honolulu].into_iter().collect();
        let expansion = expand(&store, &sources, &ExpansionConfig::default());
        (store, ner, expansion, honolulu)
    }

    #[test]
    fn learns_between_patterns() {
        let (store, ner, expansion, _) = fixture();
        let sentences = [
            "Honolulu has a population of 390000",
            "Honolulu has a population of 390000",
            "the area of Honolulu is 177", // object before subject → skipped
            "Honolulu covers an area of 177",
        ];
        let (lexicon, stats) = learn_boa(&store, &ner, &expansion, sentences);
        assert_eq!(stats.sentences, 4);
        assert_eq!(stats.predicates, 2);
        let pop = store.dict().find_predicate("population").unwrap();
        let pop_pred = expansion
            .catalog
            .get(&kbqa_rdf::ExpandedPredicate::single(pop))
            .unwrap();
        let patterns = lexicon.patterns_of(pop_pred);
        assert_eq!(patterns[0], ("has a population of", 2));
    }

    #[test]
    fn no_patterns_from_unrelated_text() {
        let (store, ner, expansion, _) = fixture();
        let (lexicon, stats) = learn_boa(
            &store,
            &ner,
            &expansion,
            ["the weather is nice today", "Honolulu is lovely"],
        );
        assert_eq!(lexicon.pattern_count(), 0);
        assert_eq!(stats.templates, 0);
    }

    #[test]
    fn find_subsequence_works() {
        let hay = ["a", "b", "c", "b"];
        assert_eq!(find_subsequence(&hay, &["b"], 0), Some(1));
        assert_eq!(find_subsequence(&hay, &["b"], 2), Some(3));
        assert_eq!(find_subsequence(&hay, &["b", "c"], 0), Some(1));
        assert_eq!(find_subsequence(&hay, &["z"], 0), None);
        assert_eq!(find_subsequence(&hay, &[], 0), None);
    }

    #[test]
    fn iter_and_counts_are_consistent() {
        let (store, ner, expansion, _) = fixture();
        let (lexicon, stats) = learn_boa(
            &store,
            &ner,
            &expansion,
            ["Honolulu has a population of 390000"],
        );
        assert_eq!(lexicon.iter().count(), stats.templates);
    }
}
