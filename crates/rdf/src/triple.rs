//! Triple and id types.

use kbqa_common::define_id;
use serde::{Deserialize, Serialize};

define_id!(
    /// A node in the RDF graph: an entity resource, a CVT (compound value
    /// type) resource, or a literal. Dense, assigned by the builder's
    /// dictionary.
    pub struct NodeId
);

define_id!(
    /// A predicate (edge label). Dense, assigned by the builder's dictionary.
    pub struct PredicateId
);

/// One `(subject, predicate, object)` statement. 12 bytes, `Copy`; the store
/// keeps millions of these in flat sorted arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Triple {
    /// Subject node.
    pub s: NodeId,
    /// Predicate label.
    pub p: PredicateId,
    /// Object node.
    pub o: NodeId,
}

impl Triple {
    /// Construct a triple.
    #[inline]
    pub const fn new(s: NodeId, p: PredicateId, o: NodeId) -> Self {
        Self { s, p, o }
    }

    /// Key for the SPO sort order.
    #[inline]
    pub fn spo_key(&self) -> (NodeId, PredicateId, NodeId) {
        (self.s, self.p, self.o)
    }

    /// Key for the SOP sort order (subject, object, predicate) — used for
    /// "which predicates connect e and v?" lookups in entity–value extraction.
    #[inline]
    pub fn sop_key(&self) -> (NodeId, NodeId, PredicateId) {
        (self.s, self.o, self.p)
    }

    /// Key for the POS sort order.
    #[inline]
    pub fn pos_key(&self) -> (PredicateId, NodeId, NodeId) {
        (self.p, self.o, self.s)
    }

    /// Key for the OPS sort order.
    #[inline]
    pub fn ops_key(&self) -> (NodeId, PredicateId, NodeId) {
        (self.o, self.p, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_is_small() {
        assert_eq!(std::mem::size_of::<Triple>(), 12);
    }

    #[test]
    fn sort_keys_project_correct_fields() {
        let t = Triple::new(NodeId::new(1), PredicateId::new(2), NodeId::new(3));
        assert_eq!(
            t.spo_key(),
            (NodeId::new(1), PredicateId::new(2), NodeId::new(3))
        );
        assert_eq!(
            t.sop_key(),
            (NodeId::new(1), NodeId::new(3), PredicateId::new(2))
        );
        assert_eq!(
            t.pos_key(),
            (PredicateId::new(2), NodeId::new(3), NodeId::new(1))
        );
        assert_eq!(
            t.ops_key(),
            (NodeId::new(3), PredicateId::new(2), NodeId::new(1))
        );
    }
}
