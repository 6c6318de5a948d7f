//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use kbqa::common::interner::Interner;
use kbqa::common::topk::TopK;
use kbqa::core::eval::normalize_answer;
use kbqa::nlp::tokenize;
use kbqa::rdf::GraphBuilder;

proptest! {
    /// Tokenization is idempotent on its own canonical output.
    #[test]
    fn tokenize_is_idempotent_on_canonical_form(s in "\\PC{0,60}") {
        let once = tokenize(&s).joined();
        let twice = tokenize(&once).joined();
        prop_assert_eq!(once, twice);
    }

    /// Tokens never contain whitespace and are lowercase.
    #[test]
    fn tokens_are_normalized(s in "\\PC{0,60}") {
        for token in tokenize(&s).tokens {
            prop_assert!(!token.text.contains(char::is_whitespace));
            prop_assert_eq!(token.text.to_lowercase(), token.text.clone());
            prop_assert!(token.start <= token.end);
        }
    }

    /// Token spans are within bounds, non-overlapping and ordered.
    #[test]
    fn token_spans_are_ordered(s in "\\PC{0,60}") {
        let t = tokenize(&s);
        let mut last_end = 0usize;
        for token in &t.tokens {
            prop_assert!(token.start >= last_end);
            prop_assert!(token.end <= s.len());
            last_end = token.end;
        }
    }

    /// Interner: intern → resolve round-trips; symbols are dense.
    #[test]
    fn interner_roundtrip(words in proptest::collection::vec("[a-z]{1,8}", 1..50)) {
        let mut interner = Interner::new();
        let mut symbols = Vec::new();
        for w in &words {
            symbols.push(interner.intern(w));
        }
        for (w, &sym) in words.iter().zip(&symbols) {
            prop_assert_eq!(interner.resolve(sym), w.as_str());
            prop_assert_eq!(interner.get(w), Some(sym));
        }
        prop_assert!(interner.len() <= words.len());
    }

    /// TopK returns exactly the k best, in order, matching a full sort.
    #[test]
    fn topk_matches_sort(scores in proptest::collection::vec(0.0f64..1.0, 1..100), k in 1usize..20) {
        let mut topk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            topk.push(s, i);
        }
        let got = topk.into_sorted_vec();
        let mut expected: Vec<(f64, usize)> =
            scores.iter().copied().enumerate().map(|(i, s)| (s, i)).collect();
        expected.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        expected.truncate(k);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.1, e.1, "scores {:?}", scores);
        }
    }

    /// Answer normalization is idempotent.
    #[test]
    fn normalize_answer_idempotent(s in "\\PC{0,40}") {
        let once = normalize_answer(&s);
        prop_assert_eq!(normalize_answer(&once), once.clone());
    }

    /// Store: everything inserted is findable; lookups agree across indexes.
    #[test]
    fn store_indexes_agree(
        edges in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 1..60)
    ) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..12).map(|i| b.resource(&format!("n{i}"))).collect();
        let preds: Vec<_> = (0..4).map(|i| b.predicate(&format!("p{i}"))).collect();
        for &(s, p, o) in &edges {
            b.triple(nodes[s as usize], preds[p as usize], nodes[o as usize]);
        }
        let store = b.build();
        for &(s, p, o) in &edges {
            let (s, p, o) = (nodes[s as usize], preds[p as usize], nodes[o as usize]);
            prop_assert!(store.contains(s, p, o));
            prop_assert!(store.objects(s, p).any(|x| x == o));
            prop_assert!(store.subjects(p, o).any(|x| x == s));
            prop_assert!(store.predicates_between(s, o).any(|x| x == p));
            prop_assert!(store.out_edges(s).any(|t| t.p == p && t.o == o));
            prop_assert!(store.in_edges(o).any(|t| t.s == s && t.p == p));
        }
        // Dedup: store size ≤ inserted edges.
        prop_assert!(store.len() <= edges.len());
    }

    /// Path traversal over a single edge equals direct lookup, and the
    /// uniform value distribution sums to one.
    #[test]
    fn value_distribution_sums_to_one(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 1..20)
    ) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..6).map(|i| b.resource(&format!("n{i}"))).collect();
        let p = b.predicate("p");
        for &(s, o) in &edges {
            b.triple(nodes[s as usize], p, nodes[o as usize]);
        }
        let store = b.build();
        let path = kbqa::rdf::ExpandedPredicate::single(p);
        for s in &nodes {
            let dist = kbqa::core::model::value_distribution(&store, *s, &path);
            if !dist.is_empty() {
                let total: f64 = dist.iter().map(|(_, p)| p).sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }
}

/// What `\PC` never samples, composed three at a time: `İ` lowercases to
/// `i` + U+0307, a combining mark that must stay in its word, and `Σ` takes
/// its final form at a word's end. Each composition's canonical form must
/// tokenize to itself.
#[test]
fn tokenize_is_idempotent_on_case_folding_fragments() {
    const FRAGMENTS: &[&str] = &[
        "İ", "i\u{307}", "\u{307}", "ΟΔΟΣ", "οδος", "Σ", "stanbul", "E\u{301}", "'", "'s", " ",
        "-", "a", "7",
    ];
    for a in FRAGMENTS {
        for b in FRAGMENTS {
            for c in FRAGMENTS {
                let input = format!("{a}{b}{c}");
                let once = tokenize(&input).joined();
                assert_eq!(tokenize(&once).joined(), once, "{input:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// EM invariants hold on random observation sets: rows normalize, the
    /// log-likelihood never decreases.
    #[test]
    fn em_invariants(
        raw in proptest::collection::vec((0u32..6, proptest::collection::vec(0u32..5, 1..3)), 5..60)
    ) {
        use kbqa::core::catalog::PredId;
        use kbqa::core::template::TemplateId;
        use kbqa::core::extraction::Observation;

        let observations: Vec<Observation> = raw
            .iter()
            .enumerate()
            .map(|(i, (t, ps))| Observation {
                pair_index: i,
                entity: kbqa::rdf::NodeId::new(0),
                value: kbqa::rdf::NodeId::new(1),
                p_entity: 1.0,
                templates: vec![(TemplateId::new(*t), 1.0)],
                predicates: ps.iter().map(|&p| (PredId::new(p), 1.0)).collect(),
            })
            .collect();
        let (theta, stats) = kbqa::core::em::estimate(&observations, 6, &Default::default());
        for (_, row) in theta.iter() {
            if row.is_empty() {
                continue;
            }
            let total: f64 = row.iter().map(|(_, v)| v).sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "row mass {}", total);
            for w in row.windows(2) {
                prop_assert!(w[0].1 >= w[1].1 - 1e-12);
            }
        }
        for w in stats.log_likelihood.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6, "LL decreased: {:?}", stats.log_likelihood);
        }
    }
}
