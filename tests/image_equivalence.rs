//! One store image, two backings: a store that `GraphBuilder::build`
//! encoded on the heap and the same image saved and mapped read alike.
//!
//! Every store is one `store.snap` image; only where its bytes live differs
//! (`BackendKind::InMemory` for a built store, `Mapped` for an opened one).
//! The property: the two images are the same bytes, and so is the file
//! written from either; every read surface answers the same, and `scan()`
//! yields the same triples (a built store replays its insertion log, a
//! mapped one walks its SO runs, so as a set); and a full QA service
//! answers byte-identically over either, the guarantee warm start and
//! `/admin/reload` ("map the file, flip the epoch") rely on.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use kbqa::prelude::*;
use kbqa::rdf::path::objects_via_path;
use kbqa::rdf::query::{evaluate, Pattern, PatternTerm};
use kbqa::rdf::{ntriples, stats, BackendKind, NodeId, Snapshot};

/// Scratch path per test case.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kbqa-image-{tag}-{}.snap", std::process::id()))
}

/// The bytes `store.write_snapshot` puts on disk, and the digest it returns.
fn written(store: &TripleStore, path: &Path) -> (Vec<u8>, u64) {
    let digest = store.write_snapshot(path).expect("write snapshot");
    (std::fs::read(path).expect("read snapshot"), digest)
}

/// Save a built store and map it back, checking that the built image, the
/// file and the mapped image are the same bytes: the file the mapped store
/// writes equals the one it was mapped from, digest included.
fn saved_and_mapped(built: &TripleStore, tag: &str) -> TripleStore {
    assert_eq!(built.backend_kind(), BackendKind::InMemory);
    let (path, again) = (scratch(tag), scratch(&format!("{tag}-again")));
    let from_built = written(built, &path);
    let mapped = TripleStore::from_snapshot(Snapshot::open(&path).expect("open snapshot"));
    let from_mapped = written(&mapped, &again);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&again).ok();
    assert_eq!(mapped.backend_kind(), BackendKind::Mapped);
    assert!(from_built == from_mapped, "the two images differ");
    mapped
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

/// Every read surface agrees between the two stores.
fn assert_alike(a: &TripleStore, b: &TripleStore) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.is_empty(), b.is_empty());

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

    let (dict_a, dict_b) = (a.dict(), b.dict());
    assert_eq!(dict_a.node_count(), dict_b.node_count());
    assert_eq!(dict_a.predicate_count(), dict_b.predicate_count());
    for node in dict_a.nodes() {
        assert_eq!(dict_a.node_term(node), dict_b.node_term(node));
        assert_eq!(dict_a.render(node), dict_b.render(node));
        assert_eq!(dict_b.find_term(dict_a.node_term(node)), Some(node));
        assert_eq!(a.surface(node), b.surface(node));
        assert_eq!(a.names_of(node), b.names_of(node));
    }
    for p in dict_a.predicates() {
        let name = dict_a.predicate_name(p);
        assert_eq!(name, dict_b.predicate_name(p));
        assert_eq!(dict_b.find_predicate(name), Some(p));
    }
    assert_eq!(a.name_predicates(), b.name_predicates());

    // Point lookups and per-predicate surfaces.
    for node in dict_a.nodes() {
        assert_eq!(
            a.out_edges(node).collect::<Vec<_>>(),
            b.out_edges(node).collect::<Vec<_>>()
        );
        assert_eq!(
            a.in_edges(node).collect::<Vec<_>>(),
            b.in_edges(node).collect::<Vec<_>>()
        );
        for p in dict_a.predicates() {
            assert_eq!(a.objects_slice(node, p), b.objects_slice(node, p));
            assert_eq!(a.subjects_slice(p, node), b.subjects_slice(p, node));
        }
        for other in dict_a.nodes() {
            assert_eq!(
                a.predicates_between(node, other).collect::<Vec<_>>(),
                b.predicates_between(node, other).collect::<Vec<_>>()
            );
        }
    }
    for p in dict_a.predicates() {
        assert_eq!(
            a.triples_for_predicate(p).collect::<Vec<_>>(),
            b.triples_for_predicate(p).collect::<Vec<_>>()
        );
        let query = [Pattern::new(
            PatternTerm::Var("s"),
            p,
            PatternTerm::Var("o"),
        )];
        let rows = |store: &TripleStore| {
            evaluate(store, &query)
                .iter()
                .map(|row| (row.get("s"), row.get("o")))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(a), rows(b));
    }
    let predicates: Vec<_> = dict_a.predicates().collect();
    for pair in predicates.windows(2) {
        let path = ExpandedPredicate::new(pair.to_vec());
        for s in dict_a.nodes() {
            assert_eq!(objects_via_path(a, s, &path), objects_via_path(b, s, &path));
        }
    }

    // Name grounding (entity linking surface), entry by entry in name order.
    let entries = |store: &TripleStore| {
        store
            .name_entries()
            .map(|(n, ids)| (n.to_owned(), ids.to_vec()))
            .collect::<Vec<_>>()
    };
    let names = entries(a);
    assert_eq!(names, entries(b), "name entries must agree, in order");
    for (name, _) in &names {
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

    /// Arbitrary graphs: the built image and its saved-and-mapped twin are
    /// the same bytes and read alike.
    #[test]
    fn random_images_read_alike(
        links in proptest::collection::vec((0u8..8, 0u8..3, 0u8..8), 0..40),
        facts in proptest::collection::vec((0u8..8, 0u8..3, -1000i64..1000), 0..15),
        names in proptest::collection::vec((0u8..8, "[A-Za-z ]{1,12}"), 0..6),
    ) {
        let built = arbitrary_store(&links, &facts, &names);
        let mapped = saved_and_mapped(&built, "prop");
        assert_alike(&built, &mapped);
    }
}

#[test]
fn empty_image_reads_alike() {
    let built = GraphBuilder::new().build();
    assert_alike(&built, &saved_and_mapped(&built, "empty"));
}

/// A full QA service over the built world store and over the same image
/// saved and mapped: 120 corpus answers and the refusals, byte-identical.
/// The NER is derived from each store independently, so gazetteer
/// construction runs against both backings too.
#[test]
fn engine_answers_alike_on_a_built_and_a_mapped_image() {
    let world = World::generate(WorldConfig::tiny(46));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
    let ner = GazetteerNer::from_store(&world.store);
    let learner = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = learner.learn(&pairs, &LearnerConfig::default());
    let model = Arc::new(model);
    let mapped = Arc::new(saved_and_mapped(&world.store, "engine"));

    let service = |store: &Arc<TripleStore>| {
        KbqaService::builder(
            Arc::clone(store),
            Arc::clone(&world.conceptualizer),
            Arc::clone(&model),
        )
        .build()
    };
    let (built, via_map) = (service(&world.store), service(&mapped));
    let answer =
        |service: &KbqaService, q: &str| serde_json::to_string(&service.answer_text(q)).unwrap();

    let mut checked = 0usize;
    for pair in corpus.pairs.iter().take(120) {
        let q = pair.question.as_str();
        assert_eq!(
            answer(&built, q),
            answer(&via_map, q),
            "divergent answer for {q:?}"
        );
        checked += 1;
    }
    assert!(checked >= 50, "suite too small to be meaningful: {checked}");

    // Refusals and misses must match too.
    for q in [
        "why is the sky blue",
        "what is the population of nowhere",
        "",
    ] {
        assert_eq!(
            answer(&built, q),
            answer(&via_map, q),
            "divergent refusal for {q:?}"
        );
    }
}
