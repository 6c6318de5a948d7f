//! The isA network: concepts, membership edges, context evidence.
//!
//! Mirrors the slice of Probase that KBQA consumes: for each entity a
//! weighted list of concepts (the `P(c|e)` prior), and for each concept a
//! bag of context words with counts (the evidence that lets context sharpen
//! the prior). Both are populated by the world generator or learned from a
//! corpus; the structure is agnostic to the source.
//!
//! # Layout
//!
//! A built network is one section file ([`kbqa_rdf::sections`]), the same
//! bytes whether [`NetworkBuilder::build`] encoded it on the heap or a
//! bundle load mapped `taxonomy.snap`:
//!
//! | section | element | contents |
//! |---|---|---|
//! | concept names | `u8` + `u32` offsets | one UTF-8 name per concept id |
//! | context vocabulary | `u8` + `u32` offsets | one word per context symbol |
//! | membership bounds | `u32` | CSR offsets indexed directly by `NodeId` |
//! | membership concepts, weights | `u32`, `f64` | each entity's run, descending weight |
//! | context bounds | `u32` | CSR offsets per concept |
//! | context symbols, counts | `u32`, `f64` | each concept's run, ascending symbol |
//! | context totals | `f64` | Σ counts per concept |
//! | tuning | `u64` | the conceptualizer's α (bits) and context-word cap |
//!
//! Every offset, id and count is checked when the file is opened
//! (`ConceptNetwork::from_sections`, reached through
//! [`crate::Conceptualizer::from_map`]), so no lookup can index out of range.

use kbqa_common::error::Result;
use kbqa_common::hash::FxHashMap;
use kbqa_common::interner::Interner;

use kbqa_rdf::sections::{self, Col, Elem, Format, Sections};
use kbqa_rdf::NodeId;

use crate::concept::ConceptId;

/// The taxonomy file's container format (`taxonomy.snap`).
pub(crate) const FORMAT: Format = Format {
    name: "taxonomy snapshot",
    magic: *b"KBQATAXO",
    version: 1,
    elems: &[
        Elem::U8,  // concept name bytes
        Elem::U32, // concept name offsets
        Elem::U8,  // vocabulary bytes
        Elem::U32, // vocabulary offsets
        Elem::U32, // membership bounds, by node id
        Elem::U32, // membership concepts
        Elem::U64, // membership weights (f64)
        Elem::U32, // context bounds, by concept
        Elem::U32, // context symbols
        Elem::U64, // context counts (f64)
        Elem::U64, // context totals (f64)
        Elem::U64, // tuning: α (f64 bits), context-word cap
    ],
};

/// Section indices, in file order.
pub(crate) mod sec {
    pub const NAME_BYTES: usize = 0;
    pub const NAME_OFFSETS: usize = 1;
    pub const VOCAB_BYTES: usize = 2;
    pub const VOCAB_OFFSETS: usize = 3;
    pub const MEMBER_BOUNDS: usize = 4;
    pub const MEMBER_CONCEPTS: usize = 5;
    pub const MEMBER_WEIGHTS: usize = 6;
    pub const CONTEXT_BOUNDS: usize = 7;
    pub const CONTEXT_SYMS: usize = 8;
    pub const CONTEXT_COUNTS: usize = 9;
    pub const CONTEXT_TOTALS: usize = 10;
    pub const TUNING: usize = 11;
}

/// Default add-α smoothing and context-word cap of a conceptualizer.
pub(crate) const DEFAULT_TUNING: Tuning = Tuning {
    alpha: 0.1,
    max_context_words: 16,
};

/// The conceptualizer's two knobs, carried in the file's tuning section.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Tuning {
    pub alpha: f64,
    pub max_context_words: usize,
}

/// Add-α smoothed `P(word | concept)` from a concept's count of the word,
/// its total count and the vocabulary size: the one expression both
/// [`ConceptNetwork::symbol_likelihood`] and the conceptualizer's
/// precomputed table evaluate.
#[inline]
pub(crate) fn smoothed(count: f64, total: f64, alpha: f64, vocab: f64) -> f64 {
    (count + alpha) / (total + alpha * vocab)
}

/// An entity's `P(c|e)` prior: its concepts and their normalized weights,
/// sorted by descending weight.
#[derive(Clone, Copy, Debug, Default)]
pub struct Memberships<'a> {
    concepts: &'a [ConceptId],
    weights: &'a [f64],
}

impl<'a> Memberships<'a> {
    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the entity has no concept.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// The concepts, by descending weight.
    pub fn concepts(&self) -> &'a [ConceptId] {
        self.concepts
    }

    /// Iterate `(concept, weight)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ConceptId, f64)> + 'a {
        self.concepts
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
    }
}

/// Immutable isA network. Construct via [`NetworkBuilder`], or open a
/// `taxonomy.snap` through the conceptualizer.
#[derive(Clone, Debug)]
pub struct ConceptNetwork {
    sections: Sections,
    /// Name → concept id, over the names section.
    concept_names: Interner,
    /// Word → context symbol, over the vocabulary section.
    context_vocab: Interner,
}

impl Default for ConceptNetwork {
    fn default() -> Self {
        NetworkBuilder::new().build()
    }
}

impl ConceptNetwork {
    /// Check a taxonomy file's sections — offsets monotone and in range, ids
    /// below their counts, names unique UTF-8, weights and counts finite —
    /// and index its names. Any violation is a typed [`kbqa_common::error::KbqaError::Io`].
    pub(crate) fn from_sections(sections: Sections) -> Result<Self> {
        let concept_names = strings(
            &sections,
            sec::NAME_BYTES,
            sec::NAME_OFFSETS,
            "concept names",
        )?;
        let context_vocab = strings(
            &sections,
            sec::VOCAB_BYTES,
            sec::VOCAB_OFFSETS,
            "vocabulary",
        )?;
        let concepts = concept_names.len();
        let vocab = context_vocab.len();

        let bounds = sections.u32s(sec::MEMBER_BOUNDS);
        let member_concepts = sections.u32s(sec::MEMBER_CONCEPTS);
        let weights = sections.f64s(sec::MEMBER_WEIGHTS);
        let nodes = bounds.len().max(1) - 1;
        sections::check_bounds(
            &FORMAT,
            "membership bounds",
            bounds,
            nodes,
            member_concepts.len(),
        )?;
        if weights.len() != member_concepts.len() {
            return Err(FORMAT.error("membership weights and concepts disagree on length"));
        }
        if member_concepts.iter().any(|&c| c as usize >= concepts) {
            return Err(FORMAT.error("membership references out-of-range concept"));
        }
        if weights.iter().any(|w| !(w.is_finite() && *w > 0.0)) {
            return Err(FORMAT.error("membership weight not positive and finite"));
        }

        let context_bounds = sections.u32s(sec::CONTEXT_BOUNDS);
        let syms = sections.u32s(sec::CONTEXT_SYMS);
        let counts = sections.f64s(sec::CONTEXT_COUNTS);
        sections::check_bounds(
            &FORMAT,
            "context bounds",
            context_bounds,
            concepts,
            syms.len(),
        )?;
        if counts.len() != syms.len() {
            return Err(FORMAT.error("context counts and symbols disagree on length"));
        }
        for run in context_bounds.windows(2) {
            let run = &syms[run[0] as usize..run[1] as usize];
            if run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FORMAT.error("context symbols not strictly ascending"));
            }
        }
        if syms.iter().any(|&s| s as usize >= vocab) {
            return Err(FORMAT.error("context references out-of-range word"));
        }
        if counts.iter().any(|n| !(n.is_finite() && *n > 0.0)) {
            return Err(FORMAT.error("context count not positive and finite"));
        }
        let totals = sections.f64s(sec::CONTEXT_TOTALS);
        if totals.len() != concepts {
            return Err(FORMAT.error("context totals: one per concept expected"));
        }
        if totals.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err(FORMAT.error("context total negative or not finite"));
        }
        tuning(&sections)?;
        Ok(Self {
            sections,
            concept_names,
            context_vocab,
        })
    }

    /// The file the network is, mapped or owned.
    pub fn sections(&self) -> &Sections {
        &self.sections
    }

    /// Heap bytes the network holds: the owned image (none when mapped)
    /// plus its two name indexes.
    pub fn heap_bytes(&self) -> usize {
        self.sections.heap_bytes()
            + self.concept_names.heap_bytes()
            + self.context_vocab.heap_bytes()
    }

    /// Number of distinct concepts.
    pub fn concept_count(&self) -> usize {
        self.concept_names.len()
    }

    /// Number of distinct context words.
    pub(crate) fn vocab_size(&self) -> usize {
        self.context_vocab.len()
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
    #[inline]
    pub fn concepts_of(&self, entity: NodeId) -> Memberships<'_> {
        let bounds = self.sections.u32s(sec::MEMBER_BOUNDS);
        let (Some(&lo), Some(&hi)) = (bounds.get(entity.index()), bounds.get(entity.index() + 1))
        else {
            return Memberships::default();
        };
        let range = lo as usize..hi as usize;
        let concepts = &self.sections.u32s(sec::MEMBER_CONCEPTS)[range.clone()];
        Memberships {
            // SAFETY: ConceptId is repr(transparent) over u32.
            concepts: unsafe {
                std::slice::from_raw_parts(concepts.as_ptr().cast::<ConceptId>(), concepts.len())
            },
            weights: &self.sections.f64s(sec::MEMBER_WEIGHTS)[range],
        }
    }

    /// Number of entities with at least one concept.
    pub fn covered_entities(&self) -> usize {
        self.sections
            .u32s(sec::MEMBER_BOUNDS)
            .windows(2)
            .filter(|w| w[0] < w[1])
            .count()
    }

    /// Smoothed `P(word | concept)` with add-α smoothing over the shared
    /// context vocabulary — the naive-Bayes likelihood used by the
    /// conceptualizer.
    pub fn context_likelihood(&self, c: ConceptId, word: &str, alpha: f64) -> f64 {
        self.symbol_likelihood(c, self.context_symbol(word), alpha)
    }

    /// [`ConceptNetwork::context_likelihood`] of an already-resolved
    /// [`ConceptNetwork::context_symbol`] (`None`: a word outside the
    /// vocabulary, count 0).
    pub fn symbol_likelihood(&self, c: ConceptId, sym: Option<u32>, alpha: f64) -> f64 {
        let count = sym.map_or(0.0, |sym| self.context_count(c, sym));
        smoothed(count, self.context_total(c), alpha, self.smoothing_vocab())
    }

    /// The count of context symbol `sym` for concept `c` (0 when unseen).
    pub(crate) fn context_count(&self, c: ConceptId, sym: u32) -> f64 {
        let bounds = self.sections.u32s(sec::CONTEXT_BOUNDS);
        let range = bounds[c.index()] as usize..bounds[c.index() + 1] as usize;
        let syms = &self.sections.u32s(sec::CONTEXT_SYMS)[range.clone()];
        syms.binary_search(&sym)
            .map_or(0.0, |i| self.sections.f64s(sec::CONTEXT_COUNTS)[range][i])
    }

    /// Σ of concept `c`'s context counts.
    pub(crate) fn context_total(&self, c: ConceptId) -> f64 {
        self.sections.f64s(sec::CONTEXT_TOTALS)[c.index()]
    }

    /// The vocabulary size smoothing divides over (at least 1).
    pub(crate) fn smoothing_vocab(&self) -> f64 {
        self.context_vocab.len().max(1) as f64
    }

    /// The word's symbol in the shared context vocabulary; `None` when it
    /// appears in no concept's context evidence (such words carry no
    /// disambiguation signal and can be skipped).
    #[inline]
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

    /// The tuning the file carries.
    pub(crate) fn tuning(&self) -> Tuning {
        tuning(&self.sections).expect("tuning checked at open")
    }

    /// Encode the network again with `tuning` in place of its own.
    pub(crate) fn write_with_tuning(&self, tuning: Tuning, path: &std::path::Path) -> Result<u64> {
        let s = &self.sections;
        let tuning = [tuning.alpha.to_bits(), tuning.max_context_words as u64];
        let cols = [
            Col::U8(s.raw(sec::NAME_BYTES)),
            Col::U32(s.u32s(sec::NAME_OFFSETS)),
            Col::U8(s.raw(sec::VOCAB_BYTES)),
            Col::U32(s.u32s(sec::VOCAB_OFFSETS)),
            Col::U32(s.u32s(sec::MEMBER_BOUNDS)),
            Col::U32(s.u32s(sec::MEMBER_CONCEPTS)),
            Col::F64(s.f64s(sec::MEMBER_WEIGHTS)),
            Col::U32(s.u32s(sec::CONTEXT_BOUNDS)),
            Col::U32(s.u32s(sec::CONTEXT_SYMS)),
            Col::F64(s.f64s(sec::CONTEXT_COUNTS)),
            Col::F64(s.f64s(sec::CONTEXT_TOTALS)),
            Col::U64(&tuning),
        ];
        sections::write(&FORMAT, &cols, path)
    }
}

/// Index a names section: UTF-8, offsets on character boundaries, every
/// name distinct (a duplicate would leave an id no lookup resolves).
fn strings(sections: &Sections, bytes: usize, offsets: usize, what: &str) -> Result<Interner> {
    let bytes = sections.raw(bytes);
    let offsets = sections.u32s(offsets);
    let count = offsets.len().max(1) - 1;
    sections::check_bounds(&FORMAT, what, offsets, count, bytes.len())?;
    let text = std::str::from_utf8(bytes)
        .map_err(|e| FORMAT.error(format_args!("{what} not UTF-8: {e}")))?;
    let mut interner = Interner::with_capacity(count);
    for w in offsets.windows(2) {
        let name = text
            .get(w[0] as usize..w[1] as usize)
            .ok_or_else(|| FORMAT.error(format_args!("{what}: offset splits a UTF-8 sequence")))?;
        let fresh = interner.len();
        if interner.intern(name) as usize != fresh {
            return Err(FORMAT.error(format_args!("{what}: duplicate {name:?}")));
        }
    }
    Ok(interner)
}

fn tuning(sections: &Sections) -> Result<Tuning> {
    match *sections.u64s(sec::TUNING) {
        [alpha, cap] if f64::from_bits(alpha).is_finite() && f64::from_bits(alpha) > 0.0 => {
            Ok(Tuning {
                alpha: f64::from_bits(alpha),
                max_context_words: usize::try_from(cap)
                    .map_err(|_| FORMAT.error("context-word cap out of range"))?,
            })
        }
        _ => Err(FORMAT.error("tuning: expected a positive finite α and a cap")),
    }
}

/// The network's columns, owned, in the order [`FORMAT`] lays them out.
#[derive(Default)]
struct Columns {
    name_bytes: Vec<u8>,
    name_offsets: Vec<u32>,
    vocab_bytes: Vec<u8>,
    vocab_offsets: Vec<u32>,
    member_bounds: Vec<u32>,
    member_concepts: Vec<u32>,
    member_weights: Vec<f64>,
    context_bounds: Vec<u32>,
    context_syms: Vec<u32>,
    context_counts: Vec<f64>,
    context_totals: Vec<f64>,
}

impl Columns {
    fn strings<'s>(names: impl Iterator<Item = &'s str>) -> (Vec<u8>, Vec<u32>) {
        let mut bytes = Vec::new();
        let mut offsets = vec![0];
        for name in names {
            bytes.extend_from_slice(name.as_bytes());
            offsets.push(u32::try_from(bytes.len()).expect("names under 4 GiB"));
        }
        (bytes, offsets)
    }

    /// Lay out `(entity, prior)` runs (any order) as CSR over node ids.
    fn memberships(&mut self, mut runs: Vec<(NodeId, &[(ConceptId, f64)])>) {
        runs.sort_unstable_by_key(|&(node, _)| node);
        let span = runs.last().map_or(0, |&(node, _)| node.index() + 1);
        self.member_bounds = Vec::with_capacity(span + 1);
        self.member_bounds.push(0);
        let mut runs = runs.into_iter().peekable();
        for node in 0..span {
            if let Some((_, prior)) = runs.next_if(|&(n, _)| n.index() == node) {
                for &(c, w) in prior {
                    self.member_concepts.push(c.raw());
                    self.member_weights.push(w);
                }
            }
            self.member_bounds
                .push(u32::try_from(self.member_concepts.len()).expect("memberships under 2^32"));
        }
    }

    /// Append one concept's `(symbol, count)` run, sorted by symbol here.
    fn context_run(&mut self, mut run: Vec<(u32, f64)>) {
        if self.context_bounds.is_empty() {
            self.context_bounds.push(0);
        }
        run.sort_unstable_by_key(|&(sym, _)| sym);
        for (sym, count) in run {
            self.context_syms.push(sym);
            self.context_counts.push(count);
        }
        self.context_bounds
            .push(u32::try_from(self.context_syms.len()).expect("context runs under 2^32"));
    }

    fn encode(mut self, tuning: Tuning) -> Result<ConceptNetwork> {
        if self.context_bounds.is_empty() {
            self.context_bounds.push(0);
        }
        let tuning = [tuning.alpha.to_bits(), tuning.max_context_words as u64];
        let cols = [
            Col::U8(&self.name_bytes),
            Col::U32(&self.name_offsets),
            Col::U8(&self.vocab_bytes),
            Col::U32(&self.vocab_offsets),
            Col::U32(&self.member_bounds),
            Col::U32(&self.member_concepts),
            Col::F64(&self.member_weights),
            Col::U32(&self.context_bounds),
            Col::U32(&self.context_syms),
            Col::F64(&self.context_counts),
            Col::F64(&self.context_totals),
            Col::U64(&tuning),
        ];
        ConceptNetwork::from_sections(sections::encode(&FORMAT, &cols))
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

    /// Freeze: normalize memberships to probability distributions, total
    /// each concept's context counts, and lay the network out as its file.
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
        let mut columns = Columns::default();
        (columns.name_bytes, columns.name_offsets) =
            Columns::strings(self.concept_names.iter().map(|(_, s)| s));
        (columns.vocab_bytes, columns.vocab_offsets) =
            Columns::strings(self.context_vocab.iter().map(|(_, s)| s));
        columns.memberships(
            memberships
                .iter()
                .map(|(&n, v)| (n, v.as_slice()))
                .collect(),
        );
        for counts in &self.context_counts {
            // Summed in the map's own order: the totals are bit-for-bit what
            // the network has always cached.
            columns.context_totals.push(counts.values().sum());
            columns.context_run(counts.iter().map(|(&sym, &n)| (sym, n)).collect());
        }
        columns
            .encode(DEFAULT_TUNING)
            .expect("a built network passes its own checks")
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
        let concepts: Vec<_> = net.concepts_of(node(0)).iter().collect();
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
        assert_eq!(
            net.concepts_of(node(1)).iter().collect::<Vec<_>>(),
            [(city, 1.0)]
        );
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
