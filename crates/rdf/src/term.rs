//! RDF terms: resources and literals.
//!
//! Following the paper's toy KB (Fig. 1), graph nodes are either *resources*
//! (entities like Barack Obama, or anonymous CVT nodes like the `marriage`
//! node) or *literals* (strings like "Michelle Obama", numbers like 390K,
//! years like 1961). Strings are interned in the store's dictionary
//! ([`crate::DictRef`]), so a [`Term`] is a small copyable value.

use serde::{Deserialize, Serialize};

/// A literal value attached to the graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Literal {
    /// An interned string literal (symbol into the dictionary's string table).
    Str(u32),
    /// An integer (counts, populations, areas in fixed units).
    Int(i64),
    /// A calendar year — the paper's toy KB stores dates of birth as years.
    Year(i32),
}

impl Literal {
    /// Whether this literal is textual.
    pub fn is_str(&self) -> bool {
        matches!(self, Literal::Str(_))
    }
}

/// A graph node payload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Term {
    /// A resource, identified by its interned IRI/local-name symbol.
    /// Resources carry no inherent surface form: names are ordinary `name`
    /// edges to string literals, exactly as in the paper's Fig. 1.
    Resource(u32),
    /// A literal node.
    Literal(Literal),
}

impl Term {
    /// Whether the term is a resource.
    pub fn is_resource(&self) -> bool {
        matches!(self, Term::Resource(_))
    }

    /// Whether the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The interned symbol, if the term is a resource.
    pub fn resource_sym(&self) -> Option<u32> {
        match self {
            Term::Resource(sym) => Some(*sym),
            Term::Literal(_) => None,
        }
    }

    /// The literal, if the term is one.
    pub fn literal(&self) -> Option<Literal> {
        match self {
            Term::Literal(l) => Some(*l),
            Term::Resource(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_is_small() {
        // Two words max: discriminants + payload. Keeps the dictionary compact.
        assert!(std::mem::size_of::<Term>() <= 24);
    }

    #[test]
    fn accessors() {
        let r = Term::Resource(5);
        assert!(r.is_resource());
        assert!(!r.is_literal());
        assert_eq!(r.resource_sym(), Some(5));
        assert_eq!(r.literal(), None);

        let l = Term::Literal(Literal::Int(390_000));
        assert!(l.is_literal());
        assert_eq!(l.literal(), Some(Literal::Int(390_000)));
        assert_eq!(l.resource_sym(), None);
    }

    #[test]
    fn literal_kinds_are_distinct() {
        assert_ne!(
            Term::Literal(Literal::Int(1961)),
            Term::Literal(Literal::Year(1961))
        );
        assert!(Literal::Str(0).is_str());
        assert!(!Literal::Int(0).is_str());
    }
}
