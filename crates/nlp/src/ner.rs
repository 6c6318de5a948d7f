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

use std::sync::Arc;

use kbqa_common::hash::fx_hash;
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
#[derive(Clone, Debug)]
struct FirstTokenFilter {
    bits: Box<[u64]>,
    /// `hash >> shift` is the bit index.
    shift: u32,
}

impl FirstTokenFilter {
    /// Most bits the filter will use (2²⁰ bits = 128 KB).
    const MAX_LOG2_BITS: u32 = 20;

    /// An empty filter sized for up to `names` names.
    fn new(names: usize) -> Self {
        // ≥ 8 bits per name keeps collisions under a few percent; names
        // sharing a first token only make it sparser.
        let log2_bits = (names * 8)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(6, Self::MAX_LOG2_BITS);
        Self {
            bits: vec![0u64; 1 << (log2_bits - 6)].into_boxed_slice(),
            shift: 64 - log2_bits,
        }
    }

    fn add(&mut self, first_token: &str) {
        let bit = self.bit(first_token);
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    #[inline]
    fn bit(&self, token: &str) -> usize {
        (fx_hash(token) >> self.shift) as usize
    }

    /// May `token` begin a name?
    #[inline]
    fn admits(&self, token: &str) -> bool {
        let bit = self.bit(token);
        self.bits[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// KB-backed longest-match recognizer: an index over the store's own name
/// entries, built at open and never persisted.
///
/// A stored name whose tokenization joins back to itself — every name of
/// the generated worlds — is used in place: the slot table holds its entry
/// index into the store's sorted name section, and a probe compares against
/// the mapped bytes. The few stored names whose canonical form differs
/// (`St. Louis` → `st louis`) are merged, in entry order, into a small owned
/// overflow list the same table addresses past the store's entries.
///
/// The table is open-addressed and linearly probed, one `u32` per slot: a
/// hash tag above the entry's index, so a miss reads one small array and a
/// tag match goes straight to the name it names.
#[derive(Clone)]
pub struct GazetteerNer {
    store: Arc<TripleStore>,
    /// `tag << index_bits | (entry + 1)`, 0 when empty. The home slot is
    /// `hash >> shift`, the tag the hash bits below it.
    slots: Box<[u32]>,
    shift: u32,
    /// Low bits of a slot holding `entry + 1`; the rest hold the tag.
    index_bits: u32,
    /// Entries `0..store_entries` are the store's; the rest index `overflow`.
    store_entries: usize,
    /// Canonical name → nodes, for names stored in another form.
    overflow: Vec<(String, Vec<NodeId>)>,
    /// Longest name length in tokens, bounding the match window.
    max_tokens: usize,
    first_tokens: FirstTokenFilter,
}

impl Default for GazetteerNer {
    /// The gazetteer of an empty store: matches nothing.
    fn default() -> Self {
        Self::from_store(&Arc::new(kbqa_rdf::GraphBuilder::new().build()))
    }
}

impl std::fmt::Debug for GazetteerNer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GazetteerNer")
            .field("names", &self.name_count())
            .field("overflow", &self.overflow.len())
            .field("max_tokens", &self.max_tokens)
            .finish_non_exhaustive()
    }
}

/// Is `name` already its own canonical form — ASCII `[a-z0-9]` words joined
/// by single spaces — so it need not be tokenized to know?
fn is_plain_canonical(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes[0] != b' '
        && bytes[bytes.len() - 1] != b' '
        && !name.contains("  ")
        && bytes
            .iter()
            .all(|&b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b' ')
}

impl GazetteerNer {
    /// Build from a store's name entries in one pass. Names are
    /// canonicalized by the tokenizer, so punctuation differences ("St.
    /// Louis" vs "st louis") do not break matching; a canonical form reached
    /// from several stored names grounds to the union of their nodes, in
    /// entry order.
    pub fn from_store(store: &Arc<TripleStore>) -> Self {
        let n = store.name_entry_count();
        // At most 3/4 full, so a miss ends within a few slots.
        let log2_slots = (n + n / 3)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(4, 32);
        let mut ner = Self {
            store: Arc::clone(store),
            slots: vec![0u32; 1 << log2_slots].into_boxed_slice(),
            shift: 64 - log2_slots,
            // Overflow entries follow the store's, and there are fewer of
            // them than stored names: every entry + 1 is at most 2n.
            index_bits: (usize::BITS - (2 * n).leading_zeros()).clamp(1, 32),
            store_entries: n,
            overflow: Vec::new(),
            max_tokens: 0,
            first_tokens: FirstTokenFilter::new(n),
        };
        // Stored names in another form: (entry, canonical form).
        let mut renamed: Vec<(usize, String)> = Vec::new();
        for i in 0..n {
            let name = store.name_entry(i).0;
            let tokens = if is_plain_canonical(name) {
                name.bytes().filter(|&b| b == b' ').count() + 1
            } else {
                let tokenized = crate::token::tokenize(name);
                if tokenized.is_empty() {
                    continue;
                }
                let canonical = tokenized.joined();
                if canonical != name {
                    ner.max_tokens = ner.max_tokens.max(tokenized.len());
                    renamed.push((i, canonical));
                    continue;
                }
                tokenized.len()
            };
            ner.max_tokens = ner.max_tokens.max(tokens);
            ner.insert(name, i);
        }
        ner.merge_renamed(renamed);
        ner
    }

    /// Give every canonical form in `renamed` one overflow entry holding
    /// the nodes of each stored name it comes from — a stored name already
    /// in that form included — merged in entry order without repeats.
    fn merge_renamed(&mut self, mut renamed: Vec<(usize, String)>) {
        renamed.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        for group in renamed.chunk_by(|a, b| a.1 == b.1) {
            let canonical = &group[0].1;
            let mut entries: Vec<usize> = group.iter().map(|&(i, _)| i).collect();
            let slot = self.find(canonical).map(|(slot, _)| slot);
            if let Some(slot) = slot {
                entries.push(self.entry_of(self.slots[slot]));
                entries.sort_unstable();
            }
            let mut nodes: Vec<NodeId> = Vec::new();
            for i in entries {
                for &node in self.store.name_entry(i).1 {
                    if !nodes.contains(&node) {
                        nodes.push(node);
                    }
                }
            }
            let entry = self.store_entries + self.overflow.len();
            self.overflow.push((canonical.clone(), nodes));
            match slot {
                Some(slot) => {
                    let (_, tag) = self.locate(canonical);
                    self.slots[slot] = self.slot_word(tag, entry);
                }
                None => self.insert(canonical, entry),
            }
        }
    }

    /// Home slot and tag of a key.
    #[inline]
    fn locate(&self, key: &str) -> (usize, u32) {
        let hash = fx_hash(key);
        let tag_bits = 32 - self.index_bits;
        let tag = (hash >> (self.shift - tag_bits)) & ((1u64 << tag_bits) - 1);
        ((hash >> self.shift) as usize, tag as u32)
    }

    fn slot_word(&self, tag: u32, entry: usize) -> u32 {
        let word = u64::from(tag) << self.index_bits | (entry as u64 + 1);
        u32::try_from(word).expect("gazetteer entry overflow")
    }

    #[inline]
    fn entry_of(&self, word: u32) -> usize {
        ((u64::from(word) & ((1u64 << self.index_bits) - 1)) - 1) as usize
    }

    /// The `(name, nodes)` of a table entry.
    #[inline]
    fn entry(&self, entry: usize) -> (&str, &[NodeId]) {
        match entry.checked_sub(self.store_entries) {
            None => self.store.name_entry(entry),
            Some(j) => {
                let (name, nodes) = &self.overflow[j];
                (name, nodes)
            }
        }
    }

    /// The slot holding `key` and its nodes, if any. The table always has
    /// an empty slot, so the probe ends.
    #[inline]
    fn find(&self, key: &str) -> Option<(usize, &[NodeId])> {
        let (mut slot, tag) = self.locate(key);
        let mask = self.slots.len() - 1;
        loop {
            let word = self.slots[slot];
            if word == 0 {
                return None;
            }
            if u64::from(word) >> self.index_bits == u64::from(tag) {
                let (name, nodes) = self.entry(self.entry_of(word));
                if name == key {
                    return Some((slot, nodes));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn insert(&mut self, key: &str, entry: usize) {
        let (mut slot, tag) = self.locate(key);
        let mask = self.slots.len() - 1;
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = self.slot_word(tag, entry);
        self.first_tokens.add(key.split(' ').next().unwrap_or(key));
    }

    /// Nodes of the canonical name `key`.
    #[inline]
    fn lookup(&self, key: &str) -> Option<&[NodeId]> {
        self.find(key).map(|(_, nodes)| nodes)
    }

    /// Number of distinct canonical names.
    pub fn name_count(&self) -> usize {
        self.slots.iter().filter(|&&word| word != 0).count()
    }

    /// Canonical names held in the owned overflow rather than read from the
    /// store in place.
    pub fn overflow_count(&self) -> usize {
        self.overflow.len()
    }

    /// Heap bytes the gazetteer owns: slot table, first-token filter and
    /// overflow. The names it reads in place belong to the store.
    pub fn heap_bytes(&self) -> usize {
        let overflow: usize = self
            .overflow
            .iter()
            .map(|(name, nodes)| name.capacity() + nodes.capacity() * size_of::<NodeId>())
            .sum();
        size_of_val(&*self.slots)
            + size_of_val(&*self.first_tokens.bits)
            + self.overflow.capacity() * size_of::<(String, Vec<NodeId>)>()
            + overflow
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
            if let Some(nodes) = self.lookup(&scratch.text[..len]) {
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
        self.lookup(&canonical).unwrap_or(&[])
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

    fn sample_store() -> (Arc<TripleStore>, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let obama = b.resource("res/obama");
        let michelle = b.resource("res/michelle");
        let honolulu = b.resource("res/honolulu");
        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.name(honolulu, "Honolulu");
        // Short name nested inside a longer one.
        b.alias(obama, "Obama");
        (Arc::new(b.build()), obama, michelle, honolulu)
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
        let store = Arc::new(b.build());
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("how big is Springfield");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].nodes.len(), 2);
    }

    #[test]
    fn names_sharing_a_canonical_form_merge_in_entry_order() {
        let mut b = GraphBuilder::new();
        let plain = b.resource("res/plain");
        let dotted = b.resource("res/dotted");
        let dashed = b.resource("res/dashed");
        b.name(dotted, "St. Louis");
        b.name(plain, "st louis");
        b.name(dashed, "St-Louis");
        // Also named in another form: its node is listed once.
        b.alias(plain, "ST. LOUIS");
        let store = Arc::new(b.build());
        let ner = GazetteerNer::from_store(&store);
        // Sorted entries: "st louis", "st-louis", "st. louis".
        assert_eq!(ner.ground("st louis"), &[plain, dashed, dotted]);
        assert_eq!((ner.name_count(), ner.overflow_count()), (1, 1));
        let text = tokenize("population of St. Louis");
        assert_eq!(
            ner.find_longest_mentions(&text)[0].nodes,
            vec![plain, dashed, dotted]
        );
    }

    #[test]
    fn canonical_names_are_read_in_place() {
        let (store, ..) = sample_store();
        let ner = GazetteerNer::from_store(&store);
        assert_eq!((ner.name_count(), ner.overflow_count()), (4, 0));
        // 16 four-byte slots and a 64-bit filter: no copy of the names.
        assert_eq!(ner.heap_bytes(), 16 * 4 + 8);
        let empty = GazetteerNer::default();
        assert_eq!((empty.name_count(), empty.max_tokens), (0, 0));
        assert!(empty.ground("anything").is_empty());
    }

    #[test]
    fn punctuated_names_are_canonicalized() {
        let mut b = GraphBuilder::new();
        let st_louis = b.resource("res/st_louis");
        b.name(st_louis, "St. Louis");
        let store = Arc::new(b.build());
        let ner = GazetteerNer::from_store(&store);
        let text = tokenize("population of st louis please");
        let mentions = ner.find_longest_mentions(&text);
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].nodes, vec![st_louis]);
    }
}
