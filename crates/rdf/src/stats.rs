//! Store statistics for the experiment harness.
//!
//! The paper reports its knowledge bases by entity/triple/predicate/category
//! counts (Sec 7.1); the harness prints the same shape for our generated
//! worlds so EXPERIMENTS.md can record the substrate scale next to each
//! result.

use serde::{Deserialize, Serialize};

use crate::store::TripleStore;
use crate::term::Term;
use crate::triple::PredicateId;

/// Aggregate statistics of a [`TripleStore`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Distinct graph nodes of any kind.
    pub nodes: usize,
    /// Distinct resource (entity/CVT) nodes.
    pub resources: usize,
    /// Distinct literal nodes.
    pub literals: usize,
    /// Stored triples (deduplicated).
    pub triples: usize,
    /// Distinct predicates.
    pub predicates: usize,
    /// Distinct category values (objects of `category` edges).
    pub categories: usize,
    /// Distinct surface names in the name index.
    pub names: usize,
}

impl StoreStats {
    /// Compute statistics for a store.
    pub fn of(store: &TripleStore) -> Self {
        let dict = store.dict();
        let mut resources = 0usize;
        let mut literals = 0usize;
        for node in dict.nodes() {
            match dict.node_term(node) {
                Term::Resource(_) => resources += 1,
                Term::Literal(_) => literals += 1,
            }
        }
        let categories = dict
            .find_predicate(crate::builder::CATEGORY_PREDICATE)
            .map(|cat| {
                let mut values: Vec<_> = store.triples_for_predicate(cat).map(|t| t.o).collect();
                values.sort_unstable();
                values.dedup();
                values.len()
            })
            .unwrap_or(0);
        Self {
            nodes: dict.node_count(),
            resources,
            literals,
            triples: store.len(),
            predicates: dict.predicate_count(),
            categories,
            names: store.name_entries().count(),
        }
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} triples, {} nodes ({} resources, {} literals), {} predicates, {} categories, {} names",
            self.triples, self.nodes, self.resources, self.literals, self.predicates,
            self.categories, self.names
        )
    }
}

/// Per-predicate cardinality and fan-out summary, read directly off the
/// columnar runs (each run is sorted, so distinct counts and maximum group
/// sizes are one linear pass — no hashing).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredicateStats {
    /// Predicate name.
    pub predicate: String,
    /// Triples carrying this predicate.
    pub triples: usize,
    /// Distinct subjects in the predicate's extent.
    pub distinct_subjects: usize,
    /// Distinct objects in the predicate's extent.
    pub distinct_objects: usize,
    /// Largest `|V(s, p)|` over all subjects (out fan-out).
    pub max_out_fanout: usize,
    /// Largest subject count over all objects (in fan-out).
    pub max_in_fanout: usize,
}

/// Compute [`PredicateStats`] for every predicate, in predicate-id order.
pub fn per_predicate(store: &TripleStore) -> Vec<PredicateStats> {
    let cols = store.cols();
    let dict = store.dict();
    (0..cols.predicate_count())
        .map(|i| {
            let p = PredicateId::new(i as u32);
            let (so_s, _) = cols.so_run(p);
            let (os_o, _) = cols.os_run(p);
            let (distinct_subjects, max_out_fanout) = distinct_and_max_run(so_s);
            let (distinct_objects, max_in_fanout) = distinct_and_max_run(os_o);
            PredicateStats {
                predicate: dict.predicate_name(p).to_owned(),
                triples: so_s.len(),
                distinct_subjects,
                distinct_objects,
                max_out_fanout,
                max_in_fanout,
            }
        })
        .collect()
}

/// `(distinct values, longest equal run)` of a sorted column.
fn distinct_and_max_run(sorted: &[u32]) -> (usize, usize) {
    let mut distinct = 0usize;
    let mut max_run = 0usize;
    let mut i = 0usize;
    while i < sorted.len() {
        let run = sorted[i..].partition_point(|&v| v == sorted[i]);
        distinct += 1;
        max_run = max_run.max(run);
        i += run;
    }
    (distinct, max_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_count_correctly() {
        let mut b = GraphBuilder::new();
        let city = b.resource("res/springfield");
        b.name(city, "Springfield");
        b.fact_int(city, "population", 116_000);
        b.fact_str(city, "category", "City");
        let store = b.build();
        let stats = StoreStats::of(&store);
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.resources, 1);
        // literals: name string, population int, category string.
        assert_eq!(stats.literals, 3);
        assert_eq!(stats.categories, 1);
        assert_eq!(stats.names, 1);
        // name + alias (pre-registered) + population + category.
        assert_eq!(stats.predicates, 4);
        let rendered = stats.to_string();
        assert!(rendered.contains("3 triples"));
    }

    #[test]
    fn empty_store_stats() {
        let store = GraphBuilder::new().build();
        let stats = StoreStats::of(&store);
        assert_eq!(stats.triples, 0);
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.categories, 0);
    }

    #[test]
    fn per_predicate_cardinalities_and_fanout() {
        let mut b = GraphBuilder::new();
        let a = b.resource("a");
        let c = b.resource("c");
        let d = b.resource("d");
        b.link(a, "knows", c);
        b.link(a, "knows", d);
        b.link(c, "knows", d);
        let store = b.build();
        let all = per_predicate(&store);
        let knows = all.iter().find(|s| s.predicate == "knows").unwrap();
        assert_eq!(knows.triples, 3);
        assert_eq!(knows.distinct_subjects, 2); // a, c
        assert_eq!(knows.distinct_objects, 2); // c, d
        assert_eq!(knows.max_out_fanout, 2); // a → {c, d}
        assert_eq!(knows.max_in_fanout, 2); // d ← {a, c}
                                            // Unused predicates report empty extents, not garbage.
        let alias = all.iter().find(|s| s.predicate == "alias").unwrap();
        assert_eq!(alias.triples, 0);
        assert_eq!(alias.max_out_fanout, 0);
    }
}
