//! Entity recognition.
//!
//! Two recognizers with deliberately different quality profiles:
//!
//! * [`GazetteerNer`] — grounds token windows against the knowledge base's
//!   name index. This is the production path: the paper's entity candidates
//!   must satisfy *"(a) it is an entity in the question; (b) it is in the
//!   knowledge base"*, and (b) makes KB-backed matching the reference
//!   behaviour.
//! * [`HeuristicNer`] — a capitalization-run recognizer standing in for
//!   Stanford NER in the Sec 7.5 comparison. It is *supposed* to be fallible
//!   in realistic ways (misses lowercased mentions, swallows sentence-initial
//!   words) so the corpus-based joint extraction has something real to beat.

use kbqa_common::hash::{fx_hash, FxHashMap};
use serde::{Deserialize, Serialize};

use kbqa_rdf::{NodeId, TripleStore};

use crate::token::TokenizedText;

/// A recognized entity mention: token window plus candidate KB nodes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mention {
    /// First token index (inclusive).
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
    /// KB nodes whose name matches the mention (usually 1; ambiguous names
    /// like "Springfield" yield several).
    pub nodes: Vec<NodeId>,
}

impl Mention {
    /// Window length in tokens.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty (never produced by the recognizers).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A mention window stored in a [`MentionBuffer`]: token span plus the range
/// of its candidate nodes inside the buffer's flat node arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MentionSpan {
    /// First token index (inclusive).
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
    nodes_start: u32,
    nodes_end: u32,
}

impl MentionSpan {
    /// Window length in tokens.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty (never produced by the recognizers).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Reusable, flat storage for recognized mentions: spans index into one
/// shared node arena, so clearing the buffer between questions retains every
/// allocation. This is the steady-state entity-grounding path of the online
/// engine; [`GazetteerNer::find_all_mentions`] is the owned equivalent.
#[derive(Clone, Debug, Default)]
pub struct MentionBuffer {
    spans: Vec<MentionSpan>,
    nodes: Vec<NodeId>,
    /// Window-join scratch, reused across probes.
    windows: WindowScratch,
}

/// The widest window at one start position, joined once: `text` holds the
/// space-joined tokens and `ends[k]` the byte length of the first `k + 1` of
/// them, so every narrower window is a prefix slice rather than a re-join.
#[derive(Clone, Debug, Default)]
struct WindowScratch {
    text: String,
    ends: Vec<usize>,
}

impl MentionBuffer {
    /// Empty buffer; allocations grow on use and persist across clears.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all mentions, keeping capacity.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.nodes.clear();
    }

    /// The recognized spans, in recognition order.
    pub fn spans(&self) -> &[MentionSpan] {
        &self.spans
    }

    /// Candidate nodes of a span.
    pub fn nodes(&self, span: &MentionSpan) -> &[NodeId] {
        &self.nodes[span.nodes_start as usize..span.nodes_end as usize]
    }

    /// Number of recognized mentions.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no mentions were recognized.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn push(&mut self, start: usize, end: usize, nodes: &[NodeId]) {
        let nodes_start = u32::try_from(self.nodes.len()).expect("mention arena overflow");
        self.nodes.extend_from_slice(nodes);
        let nodes_end = u32::try_from(self.nodes.len()).expect("mention arena overflow");
        self.spans.push(MentionSpan {
            start,
            end,
            nodes_start,
            nodes_end,
        });
    }
}

/// Which tokens begin at least one gazetteer name: a bitset over token
/// hashes, sized to stay cache-resident (≤ 128 KB) next to a name table
/// that is not. Four question tokens in five begin no name, and for those
/// the scan skips every window probe. False positives (hash collisions)
/// only cost the probes the filter exists to avoid; there are no false
/// negatives.
#[derive(Clone, Debug, Default)]
struct FirstTokenFilter {
    bits: Box<[u64]>,
    /// `hash >> shift` is the bit index.
    shift: u32,
}

impl FirstTokenFilter {
    /// Most bits the filter will use (2²⁰ bits = 128 KB).
    const MAX_LOG2_BITS: u32 = 20;

    fn build<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Self {
        // ≥ 8 bits per name keeps collisions under a few percent; names
        // sharing a first token only make it sparser.
        let log2_bits = (names.len() * 8)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(6, Self::MAX_LOG2_BITS);
        let mut filter = Self {
            bits: vec![0u64; 1 << (log2_bits - 6)].into_boxed_slice(),
            shift: 64 - log2_bits,
        };
        for name in names {
            // Canonical names are space-joined tokens.
            let first = name.split(' ').next().unwrap_or(name);
            let bit = filter.bit(first);
            filter.bits[bit / 64] |= 1 << (bit % 64);
        }
        filter
    }

    #[inline]
    fn bit(&self, token: &str) -> usize {
        (fx_hash(token) >> self.shift) as usize
    }

    /// May `token` begin a name? An unbuilt (default) filter belongs to an
    /// empty gazetteer and admits nothing.
    #[inline]
    fn admits(&self, token: &str) -> bool {
        let bit = self.bit(token);
        self.bits
            .get(bit / 64)
            .is_some_and(|word| word & (1 << (bit % 64)) != 0)
    }
}

/// KB-backed longest-match recognizer.
#[derive(Clone, Debug, Default, Serialize)]
pub struct GazetteerNer {
    /// Canonical (tokenized, lowercased, space-joined) name → nodes.
    names: FxHashMap<String, Vec<NodeId>>,
    /// Longest name length in tokens, bounding the match window.
    max_tokens: usize,
    /// Derived from `names`; rebuilt on load, never persisted.
    #[serde(skip)]
    first_tokens: FirstTokenFilter,
}

/// What `ner.json` holds: `names` and `max_tokens` only.
#[derive(Deserialize)]
struct Persisted {
    names: FxHashMap<String, Vec<NodeId>>,
    max_tokens: usize,
}

// Loads through the constructor, so the derived filter can never be left
// unbuilt.
impl serde::de::Deserialize for GazetteerNer {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::de::Error> {
        let Persisted { names, max_tokens } = Persisted::deserialize(r)?;
        Ok(Self::from_names(names, max_tokens))
    }
}

impl GazetteerNer {
    fn from_names(names: FxHashMap<String, Vec<NodeId>>, max_tokens: usize) -> Self {
        let first_tokens = FirstTokenFilter::build(names.keys().map(String::as_str));
        Self {
            names,
            max_tokens,
            first_tokens,
        }
    }

    /// Build from a store's name index. Names are re-tokenized so that
    /// punctuation differences ("St. Louis" vs "st louis") do not break
    /// matching.
    pub fn from_store(store: &TripleStore) -> Self {
        let mut names: FxHashMap<String, Vec<NodeId>> = FxHashMap::default();
        let mut max_tokens = 0;
        for (name, nodes) in store.name_entries() {
            let tokenized = crate::token::tokenize(name);
            if tokenized.is_empty() {
                continue;
            }
            max_tokens = max_tokens.max(tokenized.len());
            let canonical = tokenized.joined();
            let entry = names.entry(canonical).or_default();
            for &n in nodes {
                if !entry.contains(&n) {
                    entry.push(n);
                }
            }
        }
        Self::from_names(names, max_tokens)
    }

    /// Number of distinct canonical names.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Every name that starts at token `start`, longest window first:
    /// `hit(end, nodes)` per match, stopping early when it returns `false`.
    ///
    /// The one scan all recognizers share. A start whose token begins no
    /// name is dismissed by the first-token filter without touching the
    /// name table; otherwise the widest window is joined once and each
    /// narrower one probed as a prefix of it.
    fn matches_from<'n>(
        &'n self,
        text: &TokenizedText,
        start: usize,
        scratch: &mut WindowScratch,
        mut hit: impl FnMut(usize, &'n [NodeId]) -> bool,
    ) {
        if !self.first_tokens.admits(&text.tokens[start].text) {
            return;
        }
        let max_end = (start + self.max_tokens).min(text.len());
        scratch.text.clear();
        scratch.ends.clear();
        for token in &text.tokens[start..max_end] {
            if !scratch.text.is_empty() {
                scratch.text.push(' ');
            }
            scratch.text.push_str(&token.text);
            scratch.ends.push(scratch.text.len());
        }
        for (k, &len) in scratch.ends.iter().enumerate().rev() {
            if let Some(nodes) = self.names.get(&scratch.text[..len]) {
                if !hit(start + k + 1, nodes) {
                    return;
                }
            }
        }
    }

    /// All mentions, including overlapping ones — the candidate set behind
    /// `P(e|q)`'s uniform distribution (paper Sec 3.2; Table 6 reports 18.7
    /// candidates per question on average).
    pub fn find_all_mentions(&self, text: &TokenizedText) -> Vec<Mention> {
        let mut scratch = WindowScratch::default();
        let mut mentions = Vec::new();
        for start in 0..text.len() {
            self.matches_from(text, start, &mut scratch, |end, nodes| {
                mentions.push(Mention {
                    start,
                    end,
                    nodes: nodes.to_vec(),
                });
                true
            });
        }
        mentions
    }

    /// [`GazetteerNer::find_all_mentions`] into a reusable [`MentionBuffer`]
    /// (cleared first): identical mentions in identical order, but the
    /// steady state performs no heap allocation — spans, candidate nodes and
    /// the window-join scratch all reuse the buffer's capacity.
    pub fn find_all_mentions_into(&self, text: &TokenizedText, buf: &mut MentionBuffer) {
        buf.clear();
        // Split borrow: the window scratch is disjoint from the span/node
        // arenas `push` writes.
        let mut windows = std::mem::take(&mut buf.windows);
        for start in 0..text.len() {
            self.matches_from(text, start, &mut windows, |end, nodes| {
                buf.push(start, end, nodes);
                true
            });
        }
        buf.windows = windows;
    }

    /// Greedy longest non-overlapping mentions, scanning left to right —
    /// the deterministic single-reading used when one grounding is needed.
    pub fn find_longest_mentions(&self, text: &TokenizedText) -> Vec<Mention> {
        let mut scratch = WindowScratch::default();
        let mut mentions: Vec<Mention> = Vec::new();
        let mut start = 0;
        while start < text.len() {
            let mut next = start + 1;
            self.matches_from(text, start, &mut scratch, |end, nodes| {
                mentions.push(Mention {
                    start,
                    end,
                    nodes: nodes.to_vec(),
                });
                next = end;
                false
            });
            start = next;
        }
        mentions
    }

    /// Ground a whole string (e.g. a benchmark's gold mention) to nodes.
    pub fn ground(&self, phrase: &str) -> &[NodeId] {
        let canonical = crate::token::tokenize(phrase).joined();
        self.names.get(&canonical).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Capitalization-run recognizer (the "independent NER" baseline).
///
/// Marks maximal runs of capitalized alphabetic tokens, skipping the first
/// token of the text when it is capitalized only positionally. No KB
/// verification — mentions carry no candidate nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeuristicNer;

impl HeuristicNer {
    /// Recognize capitalized runs. Returned mentions have empty `nodes`.
    pub fn find_mentions(&self, text: &TokenizedText) -> Vec<Mention> {
        let n = text.len();
        let mut mentions = Vec::new();
        let mut i = 0;
        while i < n {
            let original = text.original(i);
            let capitalized = original
                .chars()
                .next()
                .map(|c| c.is_uppercase())
                .unwrap_or(false)
                && original.chars().any(|c| c.is_alphabetic());
            // Sentence-initial capitalization is positional, not evidential —
            // a realistic NER failure mode the paper's joint extraction
            // avoids by using the answer as extra signal.
            if capitalized && i > 0 {
                let start = i;
                while i < n {
                    let tok = text.original(i);
                    let cap = tok
                        .chars()
                        .next()
                        .map(|c| c.is_uppercase())
                        .unwrap_or(false);
                    if cap {
                        i += 1;
                    } else {
                        break;
                    }
                }
                mentions.push(Mention {
                    start,
                    end: i,
                    nodes: Vec::new(),
                });
            } else {
                i += 1;
            }
        }
        mentions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;
    use kbqa_rdf::GraphBuilder;

    fn sample_store() -> (TripleStore, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let obama = b.resource("res/obama");
        let michelle = b.resource("res/michelle");
        let honolulu = b.resource("res/honolulu");
        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.name(honolulu, "Honolulu");
        // Short name nested inside a longer one.
        b.alias(obama, "Obama");
        (b.build(), obama, michelle, honolulu)
    }

    #[test]
    fn longest_match_wins() {
        let (store, obama, _m, _h) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("When was Barack Obama born?");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].start, 2);
        assert_eq!(mentions[0].end, 4);
        assert_eq!(mentions[0].nodes, vec![obama]);
        assert_eq!(mentions[0].len(), 2);
    }

    #[test]
    fn all_mentions_include_nested() {
        let (store, obama, _m, _h) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("When was Barack Obama born?");
        let mentions = ner.find_all_mentions(&text);
        // "barack obama" (full) and nested alias "obama".
        assert_eq!(mentions.len(), 2);
        assert!(mentions.iter().all(|m| m.nodes == vec![obama]));
    }

    #[test]
    fn possessive_mention_is_found() {
        let (store, obama, _m, _h) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("When was Barack Obama's wife born?");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions[0].nodes, vec![obama]);
        assert_eq!(
            text.join(mentions[0].start, mentions[0].end),
            "barack obama"
        );
    }

    #[test]
    fn lowercase_question_still_grounds() {
        let (store, _o, _m, honolulu) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("how many people are there in honolulu");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].nodes, vec![honolulu]);
    }

    #[test]
    fn ground_whole_phrase() {
        let (store, _o, michelle, _h) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        assert_eq!(ner.ground("Michelle Obama"), &[michelle]);
        assert_eq!(ner.ground("MICHELLE OBAMA"), &[michelle]);
        assert!(ner.ground("Nobody Special").is_empty());
    }

    #[test]
    fn buffered_mentions_match_owned_mentions() {
        let (store, ..) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        let mut buf = MentionBuffer::new();
        for q in [
            "When was Barack Obama born?",
            "was Michelle Obama born in Honolulu",
            "Obama Obama Honolulu",
            "nothing to see here",
            "",
        ] {
            let text = tokenize(q);
            let owned = ner.find_all_mentions(&text);
            ner.find_all_mentions_into(&text, &mut buf);
            assert_eq!(buf.len(), owned.len(), "question {q:?}");
            assert_eq!(buf.is_empty(), owned.is_empty());
            for (span, mention) in buf.spans().iter().zip(&owned) {
                assert_eq!((span.start, span.end), (mention.start, mention.end));
                assert_eq!(span.len(), mention.len());
                assert!(!span.is_empty());
                assert_eq!(buf.nodes(span), mention.nodes.as_slice());
            }
        }
    }

    #[test]
    fn no_match_returns_empty() {
        let (store, ..) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("what is the answer to everything");
        assert!(ner.find_longest_mentions(&text).is_empty());
        assert!(ner.find_all_mentions(&text).is_empty());
    }

    #[test]
    fn heuristic_ner_finds_capitalized_run() {
        let text = tokenize("When was Barack Obama born?");
        let mentions = HeuristicNer.find_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!((mentions[0].start, mentions[0].end), (2, 4));
    }

    #[test]
    fn heuristic_ner_misses_lowercase_mentions() {
        // The characteristic failure the paper's joint extraction fixes.
        let text = tokenize("how many people live in honolulu");
        assert!(HeuristicNer.find_mentions(&text).is_empty());
    }

    #[test]
    fn heuristic_ner_skips_sentence_initial_word() {
        let text = tokenize("Honolulu is a city");
        assert!(HeuristicNer.find_mentions(&text).is_empty());
    }

    #[test]
    fn ambiguous_name_returns_all_candidates() {
        let mut b = GraphBuilder::new();
        let s1 = b.resource("res/springfield_il");
        let s2 = b.resource("res/springfield_ma");
        b.name(s1, "Springfield");
        b.name(s2, "Springfield");
        let store = b.build();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("how big is Springfield");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].nodes.len(), 2);
    }

    #[test]
    fn punctuated_names_are_canonicalized() {
        let mut b = GraphBuilder::new();
        let st_louis = b.resource("res/st_louis");
        b.name(st_louis, "St. Louis");
        let store = b.build();
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("population of st louis please");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].nodes, vec![st_louis]);
    }
}
