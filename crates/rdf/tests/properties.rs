//! Property tests for the RDF substrate: N-Triples round-trips, path
//! traversal consistency, and index/scan agreement on arbitrary graphs.

use proptest::prelude::*;

use kbqa_rdf::columnar::equal_range;
use kbqa_rdf::path::objects_via_path;
use kbqa_rdf::{ntriples, ExpandedPredicate, GraphBuilder, NodeId, TripleStore};

/// Build an arbitrary small store from edge/fact descriptions.
fn arbitrary_store(
    links: &[(u8, u8, u8)],
    facts: &[(u8, u8, i64)],
    names: &[(u8, String)],
) -> TripleStore {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..8).map(|i| b.resource(&format!("n{i}"))).collect();
    let preds = ["p0", "p1", "p2"];
    for &(s, p, o) in links {
        let pid = b.predicate(preds[(p % 3) as usize]);
        b.triple(nodes[(s % 8) as usize], pid, nodes[(o % 8) as usize]);
    }
    for &(s, p, v) in facts {
        b.fact_int(nodes[(s % 8) as usize], preds[(p % 3) as usize], v);
    }
    for (s, name) in names {
        b.name(nodes[(*s % 8) as usize], name);
    }
    b.build()
}

proptest! {
    /// Export → import → export is a fixed point (modulo line order).
    #[test]
    fn ntriples_roundtrip_is_stable(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 0..30),
        facts in proptest::collection::vec((0u8..8, 0u8..3, -1000i64..1000), 0..15),
        names in proptest::collection::vec((0u8..8, "[A-Za-z ]{1,12}"), 0..6),
    ) {
        let store = arbitrary_store(&links, &facts, &names);
        let mut first = Vec::new();
        ntriples::export(&store, &mut first).unwrap();
        let restored = ntriples::import(first.as_slice()).unwrap();
        prop_assert_eq!(restored.len(), store.len());
        let mut second = Vec::new();
        ntriples::export(&restored, &mut second).unwrap();
        let mut a: Vec<&str> = std::str::from_utf8(&first).unwrap().lines().collect();
        let mut b: Vec<&str> = std::str::from_utf8(&second).unwrap().lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Two-edge path traversal equals the manual two-hop join.
    #[test]
    fn path_traversal_matches_manual_join(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 1..40),
    ) {
        let store = arbitrary_store(&links, &[], &[]);
        let p0 = store.dict().find_predicate("p0");
        let p1 = store.dict().find_predicate("p1");
        let (Some(p0), Some(p1)) = (p0, p1) else { return Ok(()); };
        let path = ExpandedPredicate::new(vec![p0, p1]);
        for s in store.dict().nodes() {
            let via_path = {
                let mut v = objects_via_path(&store, s, &path);
                v.sort_unstable();
                v
            };
            let manual = {
                let mut v: Vec<NodeId> = store
                    .objects(s, p0)
                    .flat_map(|mid| store.objects(mid, p1).collect::<Vec<_>>())
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            prop_assert_eq!(via_path, manual);
        }
    }

    /// The scan covers exactly the store's triples, and every scanned triple
    /// is query-visible through all point lookups.
    #[test]
    fn scan_and_indexes_agree(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 1..40),
    ) {
        let store = arbitrary_store(&links, &[], &[]);
        let scanned: Vec<_> = store.scan().collect();
        prop_assert_eq!(scanned.len(), store.len());
        for t in scanned {
            prop_assert!(store.contains(t.s, t.p, t.o));
            prop_assert!(store.objects(t.s, t.p).any(|o| o == t.o));
            prop_assert!(store.predicates_between(t.s, t.o).any(|p| p == t.p));
        }
    }

    /// `equal_range` is the pair of partition points, on sorted columns with
    /// long runs, for keys on, between, below and above the stored values.
    #[test]
    fn equal_range_is_the_partition_point_pair(
        runs in proptest::collection::vec((0u32..4, 1usize..90), 0..40),
        top_run in 0usize..3,
        probes in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        // (gap to the previous value, run length) pairs, so values repeat in
        // runs up to 89 long and neighbours are often adjacent integers.
        let mut column: Vec<u32> = Vec::new();
        let mut value = 1u32;
        for &(gap, len) in &runs {
            value += gap;
            column.extend(std::iter::repeat_n(value, len));
            value += 1;
        }
        column.extend(std::iter::repeat_n(u32::MAX, top_run));
        let mut keys: Vec<u32> = vec![0, 1, u32::MAX - 1, u32::MAX];
        keys.extend(column.iter().flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)]));
        keys.extend(probes);
        for key in keys {
            let expected = (
                column.partition_point(|&v| v < key),
                column.partition_point(|&v| v <= key),
            );
            prop_assert_eq!(equal_range(&column, key), expected, "key {} in {:?}", key, column);
        }
    }

    /// `objects_slice` returns exactly the objects a scan finds, on stores
    /// whose per-predicate runs are hundreds of triples long, for present
    /// and absent subjects alike.
    #[test]
    fn value_lookups_match_a_scan_on_long_runs(
        links in proptest::collection::vec((0u8..60, 0u8..2, 0u8..60), 0..700),
    ) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..60).map(|i| b.resource(&format!("n{i}"))).collect();
        let preds = [b.predicate("p0"), b.predicate("p1"), b.predicate("unused")];
        for &(s, p, o) in &links {
            b.triple(nodes[s as usize], preds[p as usize], nodes[o as usize]);
        }
        let store = b.build();
        let triples: Vec<_> = store.scan().collect();
        for &p in &preds {
            for &s in &nodes {
                let mut expected: Vec<NodeId> = triples
                    .iter()
                    .filter(|t| t.s == s && t.p == p)
                    .map(|t| t.o)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(store.objects_slice(s, p), expected.as_slice());
            }
        }
    }

    /// Surface names ground back to their entities case-insensitively.
    #[test]
    fn names_ground_back(
        names in proptest::collection::vec((0u8..8, "[A-Za-z]{2,10}( [A-Za-z]{2,10})?"), 1..6),
    ) {
        let store = arbitrary_store(&[], &[], &names);
        for (i, name) in &names {
            let hits = store.entities_named(&name.to_lowercase());
            prop_assert!(!hits.is_empty(), "name {name:?} of node {i} did not ground");
        }
    }
}
