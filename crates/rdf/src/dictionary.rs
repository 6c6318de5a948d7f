//! Term dictionary: the builder's string/term interner.
//!
//! Classic dictionary encoding: every distinct [`Term`] gets a dense
//! [`NodeId`], every distinct predicate name a dense [`PredicateId`], and the
//! triple arrays then hold only id triples. The dictionary also owns the
//! string table shared by resource IRIs and string literals.
//!
//! [`Dictionary`] is the mutable side, owned by [`crate::GraphBuilder`] while
//! a store is built: `build` lays it out as the image's dictionary sections
//! and drops it. A store's dictionary is [`crate::DictRef`], the same view
//! over an owned or a mapped image.

use kbqa_common::hash::FxHashMap;
use kbqa_common::interner::Interner;

use crate::term::{Literal, Term};
use crate::triple::{NodeId, PredicateId};

/// Term ⇄ id and predicate ⇄ id interning while a store is built.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    strings: Interner,
    terms: Vec<Term>,
    term_ids: FxHashMap<Term, NodeId>,
    predicates: Vec<u32>,
    predicate_ids: FxHashMap<u32, PredicateId>,
}

impl Dictionary {
    /// Intern a resource by its IRI/local name.
    pub fn resource(&mut self, iri: &str) -> NodeId {
        let sym = self.strings.intern(iri);
        self.term(Term::Resource(sym))
    }

    /// Intern a string literal.
    pub fn str_literal(&mut self, value: &str) -> NodeId {
        let sym = self.strings.intern(value);
        self.term(Term::Literal(Literal::Str(sym)))
    }

    /// Intern an integer literal.
    pub fn int_literal(&mut self, value: i64) -> NodeId {
        self.term(Term::Literal(Literal::Int(value)))
    }

    /// Intern a year literal.
    pub fn year_literal(&mut self, year: i32) -> NodeId {
        self.term(Term::Literal(Literal::Year(year)))
    }

    /// Intern an arbitrary term.
    fn term(&mut self, term: Term) -> NodeId {
        if let Some(&id) = self.term_ids.get(&term) {
            return id;
        }
        let id = NodeId::new(u32::try_from(self.terms.len()).expect("node id overflow"));
        self.terms.push(term);
        self.term_ids.insert(term, id);
        id
    }

    /// Intern a predicate name.
    pub fn predicate(&mut self, name: &str) -> PredicateId {
        let sym = self.strings.intern(name);
        if let Some(&id) = self.predicate_ids.get(&sym) {
            return id;
        }
        let id =
            PredicateId::new(u32::try_from(self.predicates.len()).expect("predicate overflow"));
        self.predicates.push(sym);
        self.predicate_ids.insert(sym, id);
        id
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Borrow the raw parts the image encoder lays out.
    pub(crate) fn raw_parts(&self) -> (&Interner, &[Term], &[u32]) {
        (&self.strings, &self.terms, &self.predicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_across_kinds() {
        let mut dict = Dictionary::default();
        let a = dict.resource("barack_obama");
        let b = dict.resource("barack_obama");
        assert_eq!(a, b);

        // A resource and a string literal with the same spelling are
        // *different* nodes.
        let lit = dict.str_literal("barack_obama");
        assert_ne!(a, lit);
    }

    #[test]
    fn literal_kinds_do_not_collide() {
        let mut dict = Dictionary::default();
        let int_node = dict.int_literal(1961);
        let year_node = dict.year_literal(1961);
        assert_ne!(int_node, year_node);
        assert_eq!(dict.int_literal(1961), int_node);
    }

    #[test]
    fn predicate_interning() {
        let mut dict = Dictionary::default();
        let p1 = dict.predicate("population");
        let p2 = dict.predicate("population");
        let p3 = dict.predicate("dob");
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_eq!(dict.predicate_count(), 2);
    }

    /// What was interned, the built store's dictionary view resolves, and
    /// looking up what was not interned finds nothing.
    #[test]
    fn the_built_view_resolves_what_was_interned() {
        let mut b = crate::GraphBuilder::default();
        let r = b.resource("honolulu");
        let p = b.predicate("population");
        b.fact_int(r, "population", 390_000);
        b.fact_year(r, "founded", 1961);
        b.fact_str(r, "motto", "Honolulu");
        let store = b.build();
        let dict = store.dict();
        let (i, y) = (
            dict.find_term(Term::Literal(Literal::Int(390_000)))
                .unwrap(),
            dict.find_term(Term::Literal(Literal::Year(1961))).unwrap(),
        );
        let s = dict.find_str_literal("Honolulu").unwrap();
        assert_eq!(dict.find_resource("honolulu"), Some(r));
        assert_eq!(dict.find_predicate("population"), Some(p));
        assert_eq!(dict.predicate_name(p), "population");
        assert_eq!(
            [
                dict.render(r),
                dict.render(s),
                dict.render(i),
                dict.render(y)
            ],
            ["honolulu", "Honolulu", "390000", "1961"]
        );
        assert_eq!(
            [dict.render_str(r), dict.render_str(i)],
            [Some("honolulu"), None]
        );
        assert_eq!(dict.find_resource("nobody"), None);
        assert_eq!(dict.find_str_literal("nothing"), None);
        assert_eq!(dict.find_predicate("missing"), None);
        assert_eq!((dict.nodes().count(), dict.node_count()), (4, 4));
        assert_eq!((dict.predicates().count(), dict.predicate_count()), (3, 3));
    }
}
