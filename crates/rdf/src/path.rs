//! Expanded predicates (multi-edge paths).
//!
//! Paper Definition 1: an expanded predicate `p⁺ = (p₁, …, p_k)` connects
//! subject `s` to object `o` when a chain `s →p₁ s₂ →p₂ … →p_k o` exists in
//! the KB. Over 98% of the paper's question intents map to such paths rather
//! than single edges (e.g. *spouse of* = `marriage → person → name`), so
//! this type shows up throughout the learner and the online engine.

use kbqa_common::hash::FxHashSet;
use serde::{Deserialize, Serialize};

use crate::store::TripleStore;
use crate::triple::{NodeId, PredicateId};

/// A predicate path of length ≥ 1. Length-1 paths are ordinary predicates.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ExpandedPredicate {
    edges: Vec<PredicateId>,
}

impl ExpandedPredicate {
    /// A single-edge path.
    pub fn single(p: PredicateId) -> Self {
        Self { edges: vec![p] }
    }

    /// A multi-edge path.
    ///
    /// # Panics
    /// Panics on an empty edge list — a zero-length predicate is meaningless.
    pub fn new(edges: Vec<PredicateId>) -> Self {
        assert!(!edges.is_empty(), "expanded predicate must have ≥ 1 edge");
        Self { edges }
    }

    /// Path length `k`.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Always false (constructors reject empty paths); present for clippy's
    /// `len_without_is_empty`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The edge sequence.
    pub fn edges(&self) -> &[PredicateId] {
        &self.edges
    }

    /// The final edge — relevant because Sec 6.3 only keeps length ≥ 2 paths
    /// that *end with a name-like predicate*.
    pub fn last_edge(&self) -> PredicateId {
        *self.edges.last().expect("non-empty path")
    }

    /// Extend by one edge, producing a new path (used by the BFS frontier).
    pub fn extended(&self, p: PredicateId) -> Self {
        let mut edges = Vec::with_capacity(self.edges.len() + 1);
        edges.extend_from_slice(&self.edges);
        edges.push(p);
        Self { edges }
    }

    /// Render as `p1→p2→p3` using the store's dictionary.
    pub fn render(&self, store: &TripleStore) -> String {
        let dict = store.dict();
        let names = self.edges.iter().map(|&p| dict.predicate_name(p).len());
        let arrows = self.edges.len().saturating_sub(1) * '→'.len_utf8();
        let mut out = String::with_capacity(names.sum::<usize>() + arrows);
        for (i, &p) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push('→');
            }
            out.push_str(dict.predicate_name(p));
        }
        out
    }
}

impl From<PredicateId> for ExpandedPredicate {
    fn from(p: PredicateId) -> Self {
        Self::single(p)
    }
}

/// Reusable traversal state for [`objects_via_path_into`]: the BFS frontier
/// vectors and the per-edge dedup set, retained across calls so the online
/// engine's value enumeration performs no heap allocation in the steady
/// state.
#[derive(Clone, Debug, Default)]
pub struct PathWorkspace {
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    seen: FxHashSet<NodeId>,
}

impl PathWorkspace {
    /// Empty workspace; capacity grows on use and persists.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `V(e, p⁺)` — all objects reachable from `s` along the path, deduplicated.
///
/// This is the online-side computation of Sec 6.1: *"we start the traverse
/// from node a, then go through b, c"*. Breadth-first frontier per edge;
/// cycles are harmless because each frontier is a set.
pub fn objects_via_path(store: &TripleStore, s: NodeId, path: &ExpandedPredicate) -> Vec<NodeId> {
    let mut out = Vec::new();
    objects_via_path_into(store, s, path, &mut PathWorkspace::new(), &mut out);
    out
}

/// [`objects_via_path`] appending into a caller-owned vector: identical
/// values in identical order, reusing `ws` for the traversal. Single-edge
/// paths (the overwhelmingly common case) copy the SPO range directly —
/// stored triples are distinct, so the range is already deduplicated and in
/// the same order the frontier walk would produce.
pub fn objects_via_path_into(
    store: &TripleStore,
    s: NodeId,
    path: &ExpandedPredicate,
    ws: &mut PathWorkspace,
    out: &mut Vec<NodeId>,
) {
    if let [edge] = path.edges() {
        out.extend_from_slice(store.objects_slice(s, *edge));
        return;
    }
    ws.frontier.clear();
    ws.frontier.push(s);
    for &edge in path.edges() {
        ws.next.clear();
        ws.seen.clear();
        for &node in &ws.frontier {
            for o in store.objects(node, edge) {
                if ws.seen.insert(o) {
                    ws.next.push(o);
                }
            }
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next);
        if ws.frontier.is_empty() {
            return;
        }
    }
    out.extend_from_slice(&ws.frontier);
}

/// Count of `V(e, p⁺)` without materializing intermediate surface forms.
pub fn object_count_via_path(store: &TripleStore, s: NodeId, path: &ExpandedPredicate) -> usize {
    objects_via_path(store, s, path).len()
}

/// Does `(s, p⁺, o)` hold (`∈ K` in Definition 1's notation)?
pub fn path_connects(store: &TripleStore, s: NodeId, path: &ExpandedPredicate, o: NodeId) -> bool {
    objects_via_path(store, s, path).contains(&o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn spouse_kb() -> (TripleStore, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let obama = b.resource("res/obama");
        let marriage = b.resource("res/marriage_1");
        let michelle = b.resource("res/michelle");
        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.link(obama, "marriage", marriage);
        b.link(marriage, "person", michelle);
        b.fact_year(michelle, "dob", 1964);
        let store = b.build();
        (store, obama, michelle)
    }

    fn path(store: &TripleStore, names: &[&str]) -> ExpandedPredicate {
        ExpandedPredicate::new(
            names
                .iter()
                .map(|n| store.dict().find_predicate(n).unwrap())
                .collect(),
        )
    }

    #[test]
    fn marriage_person_name_reaches_spouse_name() {
        let (store, obama, _) = spouse_kb();
        let p = path(&store, &["marriage", "person", "name"]);
        let objects = objects_via_path(&store, obama, &p);
        assert_eq!(objects.len(), 1);
        assert_eq!(store.dict().render(objects[0]), "Michelle Obama");
    }

    #[test]
    fn partial_path_reaches_intermediate() {
        let (store, obama, michelle) = spouse_kb();
        let p = path(&store, &["marriage", "person"]);
        assert_eq!(objects_via_path(&store, obama, &p), vec![michelle]);
    }

    #[test]
    fn dead_end_path_is_empty() {
        let (store, obama, _) = spouse_kb();
        let p = path(&store, &["marriage", "dob"]);
        assert!(objects_via_path(&store, obama, &p).is_empty());
    }

    #[test]
    fn path_connects_checks_membership() {
        let (store, obama, michelle) = spouse_kb();
        let p = path(&store, &["marriage", "person"]);
        assert!(path_connects(&store, obama, &p, michelle));
        assert!(!path_connects(&store, michelle, &p, obama));
    }

    #[test]
    fn single_edge_path_equals_direct_lookup() {
        let (store, obama, _) = spouse_kb();
        let marriage = store.dict().find_predicate("marriage").unwrap();
        let single = ExpandedPredicate::single(marriage);
        let via_path = objects_via_path(&store, obama, &single);
        let direct: Vec<NodeId> = store.objects(obama, marriage).collect();
        assert_eq!(via_path, direct);
        assert_eq!(single.len(), 1);
        assert_eq!(single.last_edge(), marriage);
    }

    #[test]
    fn extended_appends() {
        let (store, _, _) = spouse_kb();
        let marriage = store.dict().find_predicate("marriage").unwrap();
        let person = store.dict().find_predicate("person").unwrap();
        let p = ExpandedPredicate::single(marriage).extended(person);
        assert_eq!(p.edges(), &[marriage, person]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn render_joins_with_arrows() {
        let (store, _, _) = spouse_kb();
        let p = path(&store, &["marriage", "person", "name"]);
        assert_eq!(p.render(&store), "marriage→person→name");
        assert_eq!(path(&store, &["dob"]).render(&store), "dob");
        // A deserialized path can bypass the constructor's non-empty check.
        let empty = ExpandedPredicate { edges: Vec::new() };
        assert_eq!(empty.render(&store), "");
    }

    #[test]
    fn into_variant_matches_owned_across_reuse() {
        let (store, obama, _) = spouse_kb();
        let mut ws = PathWorkspace::new();
        let mut out = Vec::new();
        for names in [
            vec!["marriage", "person", "name"],
            vec!["marriage", "person"],
            vec!["marriage", "dob"],
            vec!["marriage"],
        ] {
            let p = path(&store, &names);
            let owned = objects_via_path(&store, obama, &p);
            out.clear();
            objects_via_path_into(&store, obama, &p, &mut ws, &mut out);
            assert_eq!(out, owned, "path {names:?}");
        }
    }

    #[test]
    fn diamond_paths_deduplicate() {
        // Two marriage CVTs pointing at the same person must yield one value.
        let mut b = GraphBuilder::new();
        let s = b.resource("s");
        let cvt1 = b.resource("cvt1");
        let cvt2 = b.resource("cvt2");
        let target = b.resource("t");
        b.link(s, "m", cvt1);
        b.link(s, "m", cvt2);
        b.link(cvt1, "p", target);
        b.link(cvt2, "p", target);
        let store = b.build();
        let p = path(&store, &["m", "p"]);
        assert_eq!(objects_via_path(&store, s, &p), vec![target]);
        assert_eq!(object_count_via_path(&store, s, &p), 1);
    }

    #[test]
    #[should_panic(expected = "≥ 1 edge")]
    fn empty_path_rejected() {
        let _ = ExpandedPredicate::new(vec![]);
    }
}
