//! Graph construction.
//!
//! [`GraphBuilder`] is the mutable ingestion side of the store: intern terms,
//! append triples, then [`GraphBuilder::build`] freezes everything into the
//! immutable, fully indexed [`TripleStore`] — the same store image a bundle
//! load maps, encoded on the heap, plus the insertion-order log. The split
//! mirrors how an RDF engine separates bulk load from query serving, and
//! keeps the query path free of locks.

use crate::columnar::{self, ColumnarTriples};
use crate::dictionary::Dictionary;
use crate::snapshot;
use crate::store::TripleStore;
use crate::triple::{NodeId, PredicateId, Triple};

/// Default predicate treated as an entity name edge.
pub const NAME_PREDICATE: &str = "name";
/// Secondary name edge, mirroring Freebase's `alias`.
pub const ALIAS_PREDICATE: &str = "alias";
/// Category membership edge, as in the paper's Fig. 1.
pub const CATEGORY_PREDICATE: &str = "category";

/// Mutable builder for a [`TripleStore`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    dict: Dictionary,
    triples: Vec<Triple>,
    name_predicates: Vec<PredicateId>,
}

impl GraphBuilder {
    /// New builder with the conventional `name`/`alias` name predicates
    /// pre-registered.
    pub fn new() -> Self {
        let mut builder = Self::default();
        let name = builder.dict.predicate(NAME_PREDICATE);
        let alias = builder.dict.predicate(ALIAS_PREDICATE);
        builder.name_predicates = vec![name, alias];
        builder
    }

    /// Pre-size the triple log.
    pub fn with_capacity(triples: usize) -> Self {
        let mut b = Self::new();
        b.triples.reserve(triples);
        b
    }

    /// Intern a resource node.
    pub fn resource(&mut self, iri: &str) -> NodeId {
        self.dict.resource(iri)
    }

    /// Intern a predicate.
    pub fn predicate(&mut self, name: &str) -> PredicateId {
        self.dict.predicate(name)
    }

    /// Append a raw triple.
    pub fn triple(&mut self, s: NodeId, p: PredicateId, o: NodeId) {
        self.triples.push(Triple::new(s, p, o));
    }

    /// `(s, name, "…")` — register a human-readable name.
    pub fn name(&mut self, s: NodeId, name: &str) {
        let p = self.dict.predicate(NAME_PREDICATE);
        let o = self.dict.str_literal(name);
        self.triple(s, p, o);
    }

    /// `(s, alias, "…")` — register an alternate name.
    pub fn alias(&mut self, s: NodeId, alias: &str) {
        let p = self.dict.predicate(ALIAS_PREDICATE);
        let o = self.dict.str_literal(alias);
        self.triple(s, p, o);
    }

    /// `(s, p, "…")` with a string-literal object.
    pub fn fact_str(&mut self, s: NodeId, predicate: &str, value: &str) {
        let p = self.dict.predicate(predicate);
        let o = self.dict.str_literal(value);
        self.triple(s, p, o);
    }

    /// `(s, p, n)` with an integer-literal object.
    pub fn fact_int(&mut self, s: NodeId, predicate: &str, value: i64) {
        let p = self.dict.predicate(predicate);
        let o = self.dict.int_literal(value);
        self.triple(s, p, o);
    }

    /// `(s, p, year)` with a year-literal object.
    pub fn fact_year(&mut self, s: NodeId, predicate: &str, year: i32) {
        let p = self.dict.predicate(predicate);
        let o = self.dict.year_literal(year);
        self.triple(s, p, o);
    }

    /// `(s, p, o)` between two resources.
    pub fn link(&mut self, s: NodeId, predicate: &str, o: NodeId) {
        let p = self.dict.predicate(predicate);
        self.triple(s, p, o);
    }

    /// Register an additional predicate whose objects are entity names.
    pub fn register_name_predicate(&mut self, predicate: &str) {
        let p = self.dict.predicate(predicate);
        if !self.name_predicates.contains(&p) {
            self.name_predicates.push(p);
        }
    }

    /// Number of triples staged so far.
    pub fn staged(&self) -> usize {
        self.triples.len()
    }

    /// Freeze into an immutable, indexed [`TripleStore`]: drop duplicate
    /// triples (keeping insertion order in the log), arrange the SO and OS
    /// runs and the SO directory, and encode the store image on the heap
    /// with the name index derived from the name-predicate runs. The
    /// dictionary and the scratch runs are dropped once encoded.
    ///
    /// # Panics
    ///
    /// When a staged triple names a node or predicate this builder did not
    /// intern.
    pub fn build(self) -> TripleStore {
        let Self {
            dict,
            triples,
            name_predicates,
        } = self;
        let log = columnar::dedup_log(triples);
        let runs = ColumnarTriples::build(dict.predicate_count(), &log);
        let snap = snapshot::encode(dict, &runs, &name_predicates);
        TripleStore::built(snap, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new();
        let tokyo = b.resource("res/tokyo");
        b.name(tokyo, "Tokyo");
        b.alias(tokyo, "Tōkyō");
        b.fact_int(tokyo, "population", 13_960_000);
        assert_eq!(b.staged(), 3);
        let store = b.build();
        assert_eq!(store.len(), 3);
        assert_eq!(store.entities_named("tokyo"), &[tokyo]);
        assert_eq!(store.entities_named("tōkyō"), &[tokyo]);
    }

    #[test]
    fn alias_and_name_both_ground() {
        let mut b = GraphBuilder::new();
        let nyc = b.resource("res/nyc");
        b.name(nyc, "New York City");
        b.alias(nyc, "NYC");
        let store = b.build();
        assert_eq!(store.entities_named("new york city"), &[nyc]);
        assert_eq!(store.entities_named("nyc"), &[nyc]);
        let mut names = store.names_of(nyc);
        names.sort_unstable();
        assert_eq!(names, vec!["NYC", "New York City"]);
    }

    #[test]
    fn custom_name_predicate() {
        let mut b = GraphBuilder::new();
        b.register_name_predicate("label");
        let x = b.resource("res/x");
        b.fact_str(x, "label", "The X");
        let store = b.build();
        assert_eq!(store.entities_named("the x"), &[x]);
    }

    #[test]
    fn empty_build_is_valid() {
        let store = GraphBuilder::new().build();
        assert!(store.is_empty());
        assert!(store.entities_named("anything").is_empty());
    }
}
