//! Backend equivalence: every read API must return identical results from
//! the in-memory columnar store and from a mapped snapshot of it. The
//! snapshot path exercises the full pipeline — write, checksum, mmap,
//! validation — on arbitrary generated graphs, so any divergence between
//! the two `StoreBackend` implementations fails here first.

use proptest::prelude::*;

use kbqa_rdf::path::{objects_via_path, ExpandedPredicate};
use kbqa_rdf::query::{evaluate, Pattern, PatternTerm};
use kbqa_rdf::{ntriples, stats, BackendKind, GraphBuilder, NodeId, TripleStore};

/// Deterministic scratch path per test case.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kbqa-eqv-{tag}-{}.snap", std::process::id()))
}

/// Round-trip a store through a snapshot file, returning the mapped twin.
fn mapped_twin(store: &TripleStore, tag: &str) -> TripleStore {
    let path = scratch(tag);
    store.write_snapshot(&path).expect("write snapshot");
    let snap = kbqa_rdf::Snapshot::open(&path).expect("open snapshot");
    std::fs::remove_file(&path).ok();
    let twin = TripleStore::from_snapshot(snap);
    assert_eq!(twin.backend_kind(), BackendKind::Mapped);
    twin
}

/// Build an arbitrary store from edge/fact/name descriptions.
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

/// Assert that every read surface agrees between the two stores.
fn assert_equivalent(a: &TripleStore, b: &TripleStore) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.is_empty(), b.is_empty());

    // A built store scans its insertion log and a mapped one its SO runs,
    // so the scans agree as sets of triples; the SO walk agrees in order.
    let sorted = |store: &TripleStore| {
        let mut triples: Vec<_> = store.scan().collect();
        triples.sort_unstable_by_key(|t| (t.s.raw(), t.p.raw(), t.o.raw()));
        triples
    };
    assert_eq!(sorted(a), sorted(b), "scans must hold the same triples");
    assert_eq!(
        a.triples().collect::<Vec<_>>(),
        b.triples().collect::<Vec<_>>()
    );

    let dict_a = a.dict();
    let dict_b = b.dict();
    assert_eq!(dict_a.node_count(), dict_b.node_count());
    assert_eq!(dict_a.predicate_count(), dict_b.predicate_count());
    for node in dict_a.nodes() {
        assert_eq!(dict_a.node_term(node), dict_b.node_term(node));
        assert_eq!(dict_a.render(node), dict_b.render(node));
    }
    for p in dict_a.predicates() {
        assert_eq!(dict_a.predicate_name(p), dict_b.predicate_name(p));
    }

    // Point lookups and per-predicate surfaces.
    for node in dict_a.nodes() {
        let out_a: Vec<_> = a.out_edges(node).collect();
        let out_b: Vec<_> = b.out_edges(node).collect();
        assert_eq!(out_a, out_b);
        let in_a: Vec<_> = a.in_edges(node).collect();
        let in_b: Vec<_> = b.in_edges(node).collect();
        assert_eq!(in_a, in_b);
        for p in dict_a.predicates() {
            assert_eq!(a.objects_slice(node, p), b.objects_slice(node, p));
            assert_eq!(a.subjects_slice(p, node), b.subjects_slice(p, node));
        }
        for other in dict_a.nodes() {
            let pa: Vec<_> = a.predicates_between(node, other).collect();
            let pb: Vec<_> = b.predicates_between(node, other).collect();
            assert_eq!(pa, pb);
        }
    }
    for p in dict_a.predicates() {
        let ta: Vec<_> = a.triples_for_predicate(p).collect();
        let tb: Vec<_> = b.triples_for_predicate(p).collect();
        assert_eq!(ta, tb);
    }

    // Name grounding (entity linking surface).
    let names_a: Vec<_> = a
        .name_entries()
        .map(|(n, ids)| (n.to_owned(), ids.to_vec()))
        .collect();
    let names_b: Vec<_> = b
        .name_entries()
        .map(|(n, ids)| (n.to_owned(), ids.to_vec()))
        .collect();
    // Both backends keep entries sorted by name, so the `i`-th entry is the
    // same on either.
    assert_eq!(names_a, names_b, "name entries must agree, in order");
    for (name, _) in &names_a {
        assert_eq!(a.entities_named(name), b.entities_named(name), "{name:?}");
    }

    // Aggregate + per-predicate statistics.
    assert_eq!(stats::StoreStats::of(a), stats::StoreStats::of(b));
    assert_eq!(stats::per_predicate(a), stats::per_predicate(b));

    // N-Triples export is byte-identical (SO order + dictionary render).
    let (mut xa, mut xb) = (Vec::new(), Vec::new());
    ntriples::export(a, &mut xa).unwrap();
    ntriples::export(b, &mut xb).unwrap();
    assert_eq!(xa, xb, "exports must be byte-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary graphs read identically from both backends.
    #[test]
    fn random_worlds_read_identically(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 0..40),
        facts in proptest::collection::vec((0u8..8, 0u8..3, -1000i64..1000), 0..15),
        names in proptest::collection::vec((0u8..8, "[A-Za-z ]{1,12}"), 0..6),
    ) {
        let store = arbitrary_store(&links, &facts, &names);
        let twin = mapped_twin(&store, "prop");
        assert_equivalent(&store, &twin);
    }

    /// Query evaluation and path traversal agree on both backends.
    #[test]
    fn queries_and_paths_agree(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 1..40),
    ) {
        let store = arbitrary_store(&links, &[], &[]);
        let twin = mapped_twin(&store, "query");
        for pname in ["p0", "p1", "p2"] {
            let Some(p) = store.dict().find_predicate(pname) else { continue };
            prop_assert_eq!(twin.dict().find_predicate(pname), Some(p));
            let qa = evaluate(&store, &[Pattern::new(PatternTerm::Var("s"), p, PatternTerm::Var("o"))]);
            let qb = evaluate(&twin, &[Pattern::new(PatternTerm::Var("s"), p, PatternTerm::Var("o"))]);
            let ka: Vec<_> = qa.iter().map(|bnd| (bnd.get("s"), bnd.get("o"))).collect();
            let kb: Vec<_> = qb.iter().map(|bnd| (bnd.get("s"), bnd.get("o"))).collect();
            prop_assert_eq!(ka, kb);
        }
        let (Some(p0), Some(p1)) = (store.dict().find_predicate("p0"), store.dict().find_predicate("p1")) else {
            return Ok(());
        };
        let path = ExpandedPredicate::new(vec![p0, p1]);
        for s in store.dict().nodes() {
            prop_assert_eq!(
                objects_via_path(&store, s, &path),
                objects_via_path(&twin, s, &path)
            );
        }
    }

    /// A re-snapshot of a mapped store is byte-identical to the original
    /// snapshot file (the format is a fixed point).
    #[test]
    fn resnapshot_is_byte_identical(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 0..25),
        names in proptest::collection::vec((0u8..8, "[A-Za-z]{1,8}"), 0..4),
    ) {
        let store = arbitrary_store(&links, &[], &names);
        let p1 = scratch("fix1");
        let p2 = scratch("fix2");
        store.write_snapshot(&p1).unwrap();
        let mapped = TripleStore::from_snapshot(kbqa_rdf::Snapshot::open(&p1).unwrap());
        mapped.write_snapshot(&p2).unwrap();
        let (b1, b2) = (std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        prop_assert_eq!(b1, b2);
    }
}

#[test]
fn empty_store_round_trips() {
    let store = GraphBuilder::new().build();
    let twin = mapped_twin(&store, "empty");
    assert_equivalent(&store, &twin);
}

#[test]
fn rebuilt_in_memory_twin_from_snapshot_parts_matches() {
    // Mapped → JSON → in-memory must also agree (the legacy fallback path).
    let mut b = GraphBuilder::new();
    let a = b.resource("a");
    let c = b.resource("c");
    b.name(a, "Alpha");
    b.link(a, "knows", c);
    b.fact_year(c, "dob", 1999);
    let store = b.build();
    let twin = mapped_twin(&store, "parts");
    let json = serde_json::to_string(&twin).unwrap();
    let mut rebuilt: TripleStore = serde_json::from_str(&json).unwrap();
    rebuilt.rebuild_index();
    assert_eq!(rebuilt.backend_kind(), BackendKind::InMemory);
    assert_equivalent(&store, &rebuilt);
}
