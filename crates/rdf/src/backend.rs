//! Storage backends behind [`crate::TripleStore`].
//!
//! The store's query surface is backend-polymorphic: every lookup is
//! answered from a [`DictRef`] (dictionary), a [`ColsView`] (columnar triple
//! runs) and a name index, and [`StoreBackend`] is exactly that contract.
//! Two implementations exist:
//!
//! * [`InMemoryBackend`] — owns a [`Dictionary`] plus [`ColumnarTriples`]
//!   built by [`crate::GraphBuilder`], and its name index as a sorted
//!   vector. This is the build/mutation-adjacent form.
//! * [`MappedBackend`] — wraps an open [`Snapshot`]; every structure,
//!   including the name index, is a binary search over `mmap`ed sections.
//!   Loading one is O(validation), not O(store), which is what makes warm
//!   start and `/admin/reload` "map the file, flip the epoch".
//!
//! `KbqaService`, `QaEngine` and the equivalence suite run unchanged against
//! either; `rdf/tests/backend_equivalence.rs` pins them answer-identical.

use kbqa_common::hash::FxHashMap;

use crate::columnar::{ColsView, ColumnarTriples};
use crate::dictionary::{DictRef, Dictionary};
use crate::snapshot::Snapshot;
use crate::triple::{NodeId, PredicateId, Triple};

/// Which storage backend a store runs on. Surfaced in `/healthz` as
/// `in_memory` / `mapped`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// Heap-owned dictionary + columns (built or deserialized).
    InMemory,
    /// Read-only `mmap` of a snapshot file.
    Mapped,
}

impl BackendKind {
    /// Stable lowercase label for telemetry payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::InMemory => "in_memory",
            Self::Mapped => "mapped",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The read contract a [`crate::TripleStore`] requires of its storage.
///
/// Everything is a borrow: backends hand out views (`DictRef`, `ColsView`,
/// slices) and the store composes queries on top, so the query code is
/// written once and runs against either representation.
pub trait StoreBackend: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The dictionary view.
    fn dict(&self) -> DictRef<'_>;

    /// The columnar triple view.
    fn cols(&self) -> ColsView<'_>;

    /// The configured name predicates.
    fn name_predicates(&self) -> &[PredicateId];

    /// Number of distinct lowercased names in the name index.
    fn name_entry_count(&self) -> usize;

    /// The `i`-th `(lowercased name, nodes)` entry of the name index. Both
    /// backends keep entries sorted by name, so an index means the same
    /// entry on either.
    fn name_entry(&self, i: usize) -> (&str, &[NodeId]);
}

/// Heap-owned backend: dictionary, columnar triples and a sorted name
/// index.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    pub(crate) dict: Dictionary,
    pub(crate) cols: ColumnarTriples,
    pub(crate) name_predicates: Vec<PredicateId>,
    /// `(lowercased surface name, resource nodes bearing it)`, sorted by
    /// name — the order of a snapshot's name section.
    pub(crate) name_index: Vec<(String, Vec<NodeId>)>,
}

impl InMemoryBackend {
    /// Build from interned triples: dedup + arrange columns, then derive the
    /// name index from the name-predicate runs.
    pub(crate) fn build(
        dict: Dictionary,
        triples: Vec<Triple>,
        name_predicates: Vec<PredicateId>,
    ) -> Self {
        let cols = ColumnarTriples::build(dict.predicate_count(), triples);
        let mut backend = Self {
            dict,
            cols,
            name_predicates,
            name_index: Vec::new(),
        };
        backend.rebuild_name_index();
        backend
    }

    pub(crate) fn rebuild_name_index(&mut self) {
        let mut index: FxHashMap<String, Vec<NodeId>> = FxHashMap::default();
        let view = self.cols.view();
        for &p in &self.name_predicates {
            let (subjects, objects) = view.so_run(p);
            for (&s, &o) in subjects.iter().zip(objects) {
                if let Some(name) = self.dict.render_str(NodeId::new(o)) {
                    let nodes = index.entry(name.to_lowercase()).or_default();
                    let subject = NodeId::new(s);
                    if !nodes.contains(&subject) {
                        nodes.push(subject);
                    }
                }
            }
        }
        self.name_index = index.into_iter().collect();
        self.name_index.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
}

impl StoreBackend for InMemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::InMemory
    }

    fn dict(&self) -> DictRef<'_> {
        DictRef::Owned(&self.dict)
    }

    fn cols(&self) -> ColsView<'_> {
        self.cols.view()
    }

    fn name_predicates(&self) -> &[PredicateId] {
        &self.name_predicates
    }

    fn name_entry_count(&self) -> usize {
        self.name_index.len()
    }

    fn name_entry(&self, i: usize) -> (&str, &[NodeId]) {
        let (name, nodes) = &self.name_index[i];
        (name, nodes)
    }
}

/// Snapshot-mapped backend: every accessor is a view into the mapping.
#[derive(Debug)]
pub struct MappedBackend {
    snap: Snapshot,
}

impl MappedBackend {
    /// Wrap an already-validated snapshot.
    pub fn new(snap: Snapshot) -> Self {
        Self { snap }
    }

    /// The underlying snapshot (for re-serialization and telemetry).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }
}

impl StoreBackend for MappedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mapped
    }

    fn dict(&self) -> DictRef<'_> {
        DictRef::Mapped(self.snap.dict())
    }

    fn cols(&self) -> ColsView<'_> {
        self.snap.cols()
    }

    fn name_predicates(&self) -> &[PredicateId] {
        self.snap.name_predicates()
    }

    fn name_entry_count(&self) -> usize {
        self.snap.name_entry_count()
    }

    fn name_entry(&self, i: usize) -> (&str, &[NodeId]) {
        self.snap.name_entry(i)
    }
}
