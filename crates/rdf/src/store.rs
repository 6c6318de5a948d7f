//! The triple store: a backend-polymorphic query surface over
//! dictionary-encoded, predicate-partitioned columnar triples.
//!
//! The data plane lives in [`crate::columnar`]: per-predicate `(s, o)` and
//! `(o, s)` sorted runs over parallel `u32` columns, plus, on a built store,
//! the insertion-order log. Every access pattern KBQA issues maps onto one of
//! them:
//!
//! | lookup | run | answers |
//! |--------|-----|---------|
//! | `objects(s, p)` | SO, one directory bucket | `V(e, p)` value lookups (Eq 6) — zero-copy slice |
//! | `subjects(p, o)` | OS | reverse lookups, value→entity grounding |
//! | `predicates_between(s, o)` | SO probe per `p` | "which predicates connect e and v?" (Eq 8) |
//! | `out_edges` / `in_edges` | SO / OS across `p` | neighborhood walks |
//! | `scan()` | log (built) / SO (mapped) | the "read the KB file once" primitive of Sec 6.2 |
//! | `triples()` | SO | every triple in `(p, s, o)` order, alike on either backend |
//!
//! Storage is behind [`StoreBackend`]: [`BackendKind::InMemory`] owns the
//! columns on the heap, [`BackendKind::Mapped`] serves them straight out of
//! an `mmap`ed [`Snapshot`] — same code paths, pinned equivalent by
//! `rdf/tests/backend_equivalence.rs`. The expansion harness still counts
//! [`TripleStore::scan`] passes to validate the O(k·|K|) claim.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Serialize, Value};

use crate::backend::{BackendKind, InMemoryBackend, MappedBackend, StoreBackend};
use crate::columnar::ColsView;
use crate::dictionary::{DictRef, Dictionary};
use crate::snapshot::{self, Snapshot, SnapshotSource};
use crate::term::{Literal, Term};
use crate::triple::{NodeId, PredicateId, Triple};

/// A node's surface form as [`TripleStore::surface_form`] returns it:
/// borrowed text, or a numeric literal not yet formatted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface<'a> {
    /// Textual nodes: string literals, a resource's first name, or its IRI.
    Text(&'a str),
    /// Integer and year literals, which render as their decimal digits.
    Number(i64),
}

impl std::fmt::Display for Surface<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Surface::Text(text) => f.write_str(text),
            Surface::Number(v) => write!(f, "{v}"),
        }
    }
}

/// An immutable, fully indexed RDF store. Construct via
/// [`crate::GraphBuilder`], deserialization, or [`TripleStore::from_snapshot`].
#[derive(Debug)]
pub struct TripleStore {
    backend: Backend,
    /// Scan-pass telemetry (not persisted; diagnostic only).
    scan_passes: AtomicU64,
}

#[derive(Debug)]
enum Backend {
    InMemory(InMemoryBackend),
    Mapped(MappedBackend),
}

impl TripleStore {
    /// Build a store from interned triples. Deduplicates; `name_predicates`
    /// drive the entity-name index.
    pub(crate) fn build(
        dict: Dictionary,
        triples: Vec<Triple>,
        name_predicates: Vec<PredicateId>,
    ) -> Self {
        Self {
            backend: Backend::InMemory(InMemoryBackend::build(dict, triples, name_predicates)),
            scan_passes: AtomicU64::new(0),
        }
    }

    /// Serve directly out of an open snapshot — the zero-copy load path.
    pub fn from_snapshot(snap: Snapshot) -> Self {
        Self {
            backend: Backend::Mapped(MappedBackend::new(snap)),
            scan_passes: AtomicU64::new(0),
        }
    }

    /// The active storage backend, as the [`StoreBackend`] contract.
    pub fn backend(&self) -> &dyn StoreBackend {
        match &self.backend {
            Backend::InMemory(b) => b,
            Backend::Mapped(m) => m,
        }
    }

    /// Which backend this store runs on (`in_memory` / `mapped`).
    pub fn backend_kind(&self) -> BackendKind {
        self.backend().kind()
    }

    /// Write this store as a snapshot file at `path` (atomic: temp +
    /// `fsync` + rename). Returns the Fx-64 digest of the final file, which
    /// callers record in the `.fxsum` sidecar.
    pub fn write_snapshot(&self, path: &Path) -> kbqa_common::error::Result<u64> {
        match &self.backend {
            Backend::InMemory(b) => {
                let (strings, terms, predicate_syms) = b.dict.raw_parts();
                let src = SnapshotSource {
                    strings,
                    terms,
                    predicate_syms,
                    cols: b.cols.view(),
                    name_predicates: &b.name_predicates,
                    name_entries: self.name_entries().collect(),
                };
                snapshot::write_source(&src, path)
            }
            // A mapped store already *is* its snapshot; re-snapshotting is a
            // verbatim byte copy, whose digest was taken at open.
            Backend::Mapped(m) => {
                crate::sections::write_image(m.snapshot().bytes(), path)?;
                Ok(m.snapshot().digest())
            }
        }
    }

    fn cols(&self) -> ColsView<'_> {
        match &self.backend {
            Backend::InMemory(b) => b.cols.view(),
            Backend::Mapped(m) => m.snapshot().cols(),
        }
    }

    /// The dictionary view backing this store.
    pub fn dict(&self) -> DictRef<'_> {
        self.backend().dict()
    }

    /// Total number of stored (distinct) triples.
    pub fn len(&self) -> usize {
        self.cols().len()
    }

    /// Whether the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.cols().is_empty()
    }

    /// Sequential scan over every triple — the "read the KB file once"
    /// primitive of Sec 6.2. Each call counts as one scan pass.
    ///
    /// A built store replays its insertion-order log, so learning over it
    /// (predicate expansion, `valid_k`) interns paths in the order the KB
    /// was written. A mapped store has no log (the snapshot leaves it out),
    /// so its scan walks the SO runs in `(p, s, o)` order: the same set of
    /// triples, in another order.
    pub fn scan(&self) -> impl Iterator<Item = Triple> + '_ {
        self.scan_passes.fetch_add(1, Ordering::Relaxed);
        let (log, runs) = match &self.backend {
            Backend::InMemory(b) => (Some(b.cols.log()), None),
            Backend::Mapped(m) => (None, Some(m.snapshot().cols().triples())),
        };
        log.into_iter().flatten().chain(runs.into_iter().flatten())
    }

    /// Every triple in `(p, s, o)` order, off the SO runs: the same sequence
    /// on a built store and on its mapped twin. Not a scan pass.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.cols().triples()
    }

    /// How many full scans have been issued (telemetry for the expansion
    /// harness).
    pub fn scan_passes(&self) -> u64 {
        self.scan_passes.load(Ordering::Relaxed)
    }

    /// All triples with subject `s`, ordered by `(p, o)`.
    pub fn out_edges(&self, s: NodeId) -> impl Iterator<Item = Triple> + '_ {
        let v = self.cols();
        (0..v.predicate_count() as u32).flat_map(move |p| {
            let pid = PredicateId::new(p);
            v.objects(s.raw(), pid)
                .iter()
                .map(move |&o| Triple::new(s, pid, NodeId::new(o)))
        })
    }

    /// All triples with object `o`, ordered by `(p, s)`.
    pub fn in_edges(&self, o: NodeId) -> impl Iterator<Item = Triple> + '_ {
        let v = self.cols();
        (0..v.predicate_count() as u32).flat_map(move |p| {
            let pid = PredicateId::new(p);
            v.subjects(pid, o.raw())
                .iter()
                .map(move |&s| Triple::new(NodeId::new(s), pid, o))
        })
    }

    /// All triples with predicate `p`, ordered by `(s, o)`.
    pub fn triples_for_predicate(&self, p: PredicateId) -> PredicateTriples<'_> {
        let (subjects, objects) = self.cols().so_run(p);
        PredicateTriples {
            subjects,
            objects,
            p,
        }
    }

    /// `V(e, p)` — objects reachable from `s` via `p` (paper Table 2),
    /// ascending by id.
    pub fn objects(&self, s: NodeId, p: PredicateId) -> impl Iterator<Item = NodeId> + '_ {
        self.objects_slice(s, p).iter().copied()
    }

    /// `V(e, p)` as a zero-copy slice straight off the SO run — the
    /// allocation-free bulk form for path traversal.
    pub fn objects_slice(&self, s: NodeId, p: PredicateId) -> &[NodeId] {
        snapshot::as_node_ids(self.cols().objects(s.raw(), p))
    }

    /// `|V(e, p)|` without materializing, for `P(v|e,p)` (Eq 6).
    pub fn object_count(&self, s: NodeId, p: PredicateId) -> usize {
        self.objects_slice(s, p).len()
    }

    /// Subjects `s` with `(s, p, o)` in the store, ascending by id.
    pub fn subjects(&self, p: PredicateId, o: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.subjects_slice(p, o).iter().copied()
    }

    /// The subjects of `(·, p, o)` as a zero-copy slice off the OS run.
    pub fn subjects_slice(&self, p: PredicateId, o: NodeId) -> &[NodeId] {
        snapshot::as_node_ids(self.cols().subjects(p, o.raw()))
    }

    /// Predicates directly connecting `s` to `o` — the Eq (8) probe
    /// `∃p, (e, p, v) ∈ K`.
    pub fn predicates_between(
        &self,
        s: NodeId,
        o: NodeId,
    ) -> impl Iterator<Item = PredicateId> + '_ {
        let v = self.cols();
        (0..v.predicate_count() as u32).filter_map(move |p| {
            let pid = PredicateId::new(p);
            v.contains(s.raw(), pid, o.raw()).then_some(pid)
        })
    }

    /// Membership test.
    pub fn contains(&self, s: NodeId, p: PredicateId, o: NodeId) -> bool {
        self.cols().contains(s.raw(), p, o.raw())
    }

    /// The configured name predicates.
    pub fn name_predicates(&self) -> &[PredicateId] {
        self.backend().name_predicates()
    }

    /// Resources whose name matches `name` case-insensitively — the KB-side
    /// check of the paper's entity identification ("is it an entity's name in
    /// the knowledge base?").
    pub fn entities_named(&self, name: &str) -> &[NodeId] {
        // Fast path: already lowercase (tokenizer output), no allocation.
        if name.chars().all(|c| !c.is_uppercase()) {
            return self.entities_named_lower(name);
        }
        self.entities_named_lower(&name.to_lowercase())
    }

    /// Nodes bearing the already-lowercased `lower`: a binary search over
    /// the name index, which both backends keep sorted.
    fn entities_named_lower(&self, lower: &str) -> &[NodeId] {
        let n = self.name_entry_count();
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.name_entry(mid).0 < lower {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        match (lo < n).then(|| self.name_entry(lo)) {
            Some((name, nodes)) if name == lower => nodes,
            _ => &[],
        }
    }

    /// All names of a resource (objects of its name-predicate edges).
    pub fn names_of(&self, node: NodeId) -> Vec<&str> {
        self.names_of_iter(node).collect()
    }

    /// Iterate the names of a resource lazily — the allocation-free variant
    /// of [`TripleStore::names_of`] for hot paths that only need the first
    /// name (answer rendering materializes thousands of surfaces per second).
    pub fn names_of_iter(&self, node: NodeId) -> impl Iterator<Item = &str> + '_ {
        let b = self.backend();
        let v = b.cols();
        let dict = b.dict();
        b.name_predicates()
            .iter()
            .flat_map(move |&p| v.objects(node.raw(), p).iter().copied())
            .filter_map(move |o| dict.render_str(NodeId::new(o)))
    }

    /// Human-facing surface form: literals render directly; resources render
    /// their first name, falling back to the IRI.
    pub fn surface(&self, node: NodeId) -> String {
        self.surface_ref(node).into_owned()
    }

    /// Borrowed variant of [`TripleStore::surface`]: textual nodes (string
    /// literals, named resources, IRIs) borrow from the store; only numeric
    /// literals, which must be formatted, allocate.
    pub fn surface_ref(&self, node: NodeId) -> std::borrow::Cow<'_, str> {
        match self.surface_form(node) {
            Surface::Text(text) => std::borrow::Cow::Borrowed(text),
            Surface::Number(v) => std::borrow::Cow::Owned(v.to_string()),
        }
    }

    /// The surface form before any formatting: text borrowed from the
    /// store, or a numeric literal left as a number, so a writer can format
    /// it straight into its own buffer. Displays as [`TripleStore::surface`].
    pub fn surface_form(&self, node: NodeId) -> Surface<'_> {
        let dict = self.dict();
        match dict.node_term(node) {
            Term::Literal(Literal::Int(v)) => Surface::Number(v),
            Term::Literal(Literal::Year(y)) => Surface::Number(i64::from(y)),
            Term::Literal(Literal::Str(sym)) => Surface::Text(dict.resolve_sym(sym)),
            Term::Resource(sym) => Surface::Text(
                self.names_of_iter(node)
                    .next()
                    .unwrap_or_else(|| dict.resolve_sym(sym)),
            ),
        }
    }

    /// Iterate every distinct `(name, nodes)` pair in the name index
    /// (gazetteer construction), sorted by name on either backend.
    pub fn name_entries(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        (0..self.name_entry_count()).map(|i| self.name_entry(i))
    }

    /// Number of distinct names in the name index.
    pub fn name_entry_count(&self) -> usize {
        self.backend().name_entry_count()
    }

    /// The `i`-th `(name, nodes)` entry of the name index, in name order —
    /// the same entry on either backend.
    pub fn name_entry(&self, i: usize) -> (&str, &[NodeId]) {
        self.backend().name_entry(i)
    }

    /// Rebuild derived state after deserialization. A mapped store has no
    /// derived state — everything is searched in place — so this is a no-op
    /// there.
    pub fn rebuild_index(&mut self) {
        if let Backend::InMemory(b) = &mut self.backend {
            b.dict.rebuild_index();
            b.rebuild_name_index();
        }
    }
}

/// Iterator over all triples of one predicate, in `(s, o)` order; returned
/// by [`TripleStore::triples_for_predicate`].
#[derive(Clone, Debug)]
pub struct PredicateTriples<'a> {
    subjects: &'a [u32],
    objects: &'a [u32],
    p: PredicateId,
}

impl PredicateTriples<'_> {
    /// Whether the predicate has no (remaining) triples.
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }
}

impl Iterator for PredicateTriples<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        let (&s, rest_s) = self.subjects.split_first()?;
        let (&o, rest_o) = self.objects.split_first()?;
        self.subjects = rest_s;
        self.objects = rest_o;
        Some(Triple::new(NodeId::new(s), self.p, NodeId::new(o)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.subjects.len(), Some(self.subjects.len()))
    }
}

impl ExactSizeIterator for PredicateTriples<'_> {}

// Persisted (JSON) form: the logical content only — dictionary, deduplicated
// triples (a built store's log order; a mapped store's SO order),
// name-predicate configuration. Derived structures (runs, name
// index, lookup maps) are rebuilt on load. Mapped stores serialize by
// materializing the same logical content, so a JSON roundtrip of either
// backend yields an equivalent in-memory store.
impl Serialize for TripleStore {
    fn to_value(&self) -> Value {
        let (dict_value, triples, name_predicates) = match &self.backend {
            Backend::InMemory(b) => {
                let triples: Vec<Triple> = b.cols.log().collect();
                (b.dict.to_value(), triples, b.name_predicates.clone())
            }
            Backend::Mapped(m) => {
                let (dict, triples, name_predicates) = m.snapshot().to_parts();
                (dict.to_value(), triples, name_predicates)
            }
        };
        Value::Map(vec![
            ("dict".to_owned(), dict_value),
            ("triples".to_owned(), triples.to_value()),
            ("name_predicates".to_owned(), name_predicates.to_value()),
        ])
    }
}

/// The persisted (JSON) form read back: see the `Serialize` impl above.
#[derive(serde::Deserialize)]
struct Persisted {
    dict: Dictionary,
    triples: Vec<Triple>,
    name_predicates: Vec<PredicateId>,
}

impl serde::de::Deserialize for TripleStore {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> std::result::Result<Self, serde::de::Error> {
        let Persisted {
            dict,
            triples,
            name_predicates,
        } = Persisted::deserialize(r)?;
        let mut store = Self::build(dict, triples, name_predicates);
        store.rebuild_index();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::triple::NodeId;

    /// Build the paper's Fig. 1 toy KB.
    fn toy_kb() -> (crate::TripleStore, ToyIds) {
        let mut b = GraphBuilder::new();
        let obama = b.resource("res/barack_obama");
        let marriage = b.resource("res/marriage_1");
        let michelle = b.resource("res/michelle_obama");
        let honolulu = b.resource("res/honolulu");

        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.name(honolulu, "Honolulu");

        b.fact_year(obama, "dob", 1961);
        b.fact_str(obama, "category", "Person");
        b.fact_str(obama, "category", "Politician");
        b.link(obama, "marriage", marriage);
        b.fact_year(marriage, "date", 1992);
        b.fact_str(marriage, "category", "Event");
        b.link(marriage, "person", michelle);
        b.fact_year(michelle, "dob", 1964);
        b.fact_str(michelle, "category", "Person");
        b.link(obama, "pob", honolulu);
        b.fact_int(honolulu, "population", 390_000);
        b.fact_str(honolulu, "category", "City");

        let ids = ToyIds {
            obama,
            marriage,
            michelle,
            honolulu,
        };
        (b.build(), ids)
    }

    struct ToyIds {
        obama: NodeId,
        marriage: NodeId,
        michelle: NodeId,
        honolulu: NodeId,
    }

    #[test]
    fn objects_returns_values() {
        let (store, ids) = toy_kb();
        let dob = store.dict().find_predicate("dob").unwrap();
        let values: Vec<String> = store
            .objects(ids.obama, dob)
            .map(|o| store.dict().render(o))
            .collect();
        assert_eq!(values, vec!["1961"]);
        assert_eq!(store.object_count(ids.obama, dob), 1);
        assert_eq!(store.objects_slice(ids.obama, dob).len(), 1);
    }

    #[test]
    fn predicates_between_finds_the_connection() {
        let (store, ids) = toy_kb();
        let pop_val = store
            .dict()
            .find_term(crate::Term::Literal(crate::Literal::Int(390_000)));
        let preds: Vec<&str> = store
            .predicates_between(ids.honolulu, pop_val.unwrap())
            .map(|p| store.dict().predicate_name(p))
            .collect();
        assert_eq!(preds, vec!["population"]);
    }

    #[test]
    fn no_direct_edge_between_obama_and_michelle_name() {
        // The "spouse of" intent is a path, not an edge — exactly the gap
        // predicate expansion closes.
        let (store, ids) = toy_kb();
        let michelle_name = store.dict().find_str_literal("Michelle Obama").unwrap();
        assert_eq!(
            store.predicates_between(ids.obama, michelle_name).count(),
            0
        );
    }

    #[test]
    fn name_grounding_is_case_insensitive() {
        let (store, ids) = toy_kb();
        assert_eq!(store.entities_named("barack obama"), &[ids.obama]);
        assert_eq!(store.entities_named("Barack Obama"), &[ids.obama]);
        assert_eq!(store.entities_named("BARACK OBAMA"), &[ids.obama]);
        assert!(store.entities_named("nobody").is_empty());
    }

    #[test]
    fn surface_prefers_names_for_resources() {
        let (store, ids) = toy_kb();
        assert_eq!(store.surface(ids.michelle), "Michelle Obama");
        // CVT node has no name; falls back to IRI.
        assert_eq!(store.surface(ids.marriage), "res/marriage_1");
    }

    #[test]
    fn surface_ref_matches_surface_and_borrows_text() {
        let (store, ids) = toy_kb();
        for node in [ids.obama, ids.marriage, ids.michelle, ids.honolulu] {
            assert_eq!(store.surface_ref(node).as_ref(), store.surface(node));
        }
        // Named resources and string literals borrow; numeric literals own.
        assert!(matches!(
            store.surface_ref(ids.michelle),
            std::borrow::Cow::Borrowed(_)
        ));
        let pop_val = store
            .dict()
            .find_term(crate::Term::Literal(crate::Literal::Int(390_000)))
            .unwrap();
        assert_eq!(store.surface_ref(pop_val).as_ref(), "390000");
        assert!(matches!(
            store.surface_ref(pop_val),
            std::borrow::Cow::Owned(_)
        ));
    }

    #[test]
    fn names_of_iter_matches_names_of() {
        let (store, ids) = toy_kb();
        for node in [ids.obama, ids.marriage, ids.honolulu] {
            let eager = store.names_of(node);
            let lazy: Vec<&str> = store.names_of_iter(node).collect();
            assert_eq!(eager, lazy);
        }
    }

    #[test]
    fn in_and_out_edges() {
        let (store, ids) = toy_kb();
        // obama: dob, category x2, marriage, pob, name = 6 out-edges.
        assert_eq!(store.out_edges(ids.obama).count(), 6);
        let michelle_in: Vec<_> = store.in_edges(ids.michelle).collect();
        assert_eq!(michelle_in.len(), 1);
        assert_eq!(michelle_in[0].s, ids.marriage);
    }

    #[test]
    fn contains_and_dedup() {
        let (store, ids) = toy_kb();
        let dob = store.dict().find_predicate("dob").unwrap();
        let y1961 = store
            .dict()
            .find_term(crate::Term::Literal(crate::Literal::Year(1961)))
            .unwrap();
        assert!(store.contains(ids.obama, dob, y1961));
        assert!(!store.contains(ids.michelle, dob, y1961));
    }

    #[test]
    fn duplicate_triples_are_stored_once() {
        let mut b = GraphBuilder::new();
        let a = b.resource("a");
        b.fact_int(a, "x", 1);
        b.fact_int(a, "x", 1);
        let store = b.build();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn scan_counts_passes() {
        let (store, _) = toy_kb();
        assert_eq!(store.scan_passes(), 0);
        let n = store.scan().count();
        assert_eq!(n, store.len());
        let _ = store.scan();
        assert_eq!(store.scan_passes(), 2);
    }

    #[test]
    fn multi_valued_predicates_enumerate_all_values() {
        let (store, ids) = toy_kb();
        let cat = store.dict().find_predicate("category").unwrap();
        let cats: Vec<String> = store
            .objects(ids.obama, cat)
            .map(|o| store.dict().render(o))
            .collect();
        assert_eq!(cats.len(), 2);
        assert!(cats.contains(&"Person".to_owned()));
        assert!(cats.contains(&"Politician".to_owned()));
    }

    #[test]
    fn subjects_reverse_lookup() {
        let (store, ids) = toy_kb();
        let cat = store.dict().find_predicate("category").unwrap();
        let person = store.dict().find_str_literal("Person").unwrap();
        let people: Vec<NodeId> = store.subjects(cat, person).collect();
        assert_eq!(people.len(), 2);
        assert!(people.contains(&ids.obama));
        assert!(people.contains(&ids.michelle));
    }

    #[test]
    fn shared_name_maps_to_multiple_entities() {
        let mut b = GraphBuilder::new();
        let springfield_il = b.resource("res/springfield_il");
        let springfield_ma = b.resource("res/springfield_ma");
        b.name(springfield_il, "Springfield");
        b.name(springfield_ma, "Springfield");
        let store = b.build();
        let hits = store.entities_named("springfield");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn built_stores_run_in_memory() {
        let (store, _) = toy_kb();
        assert_eq!(store.backend_kind(), crate::BackendKind::InMemory);
        assert_eq!(store.backend_kind().as_str(), "in_memory");
    }

    #[test]
    fn triples_for_predicate_is_exact_size() {
        let (store, _) = toy_kb();
        let cat = store.dict().find_predicate("category").unwrap();
        let iter = store.triples_for_predicate(cat);
        assert_eq!(iter.len(), 5);
        assert!(!iter.is_empty());
        assert_eq!(iter.count(), 5);
    }
}
