//! The gazetteer scan against an oracle that consults no filter.
//!
//! `GazetteerNer` dismisses start positions through a first-token filter and
//! probes the windows of the survivors as prefixes of one join. The oracle
//! here does neither: it derives its own canonical-name table from the
//! store's name index and looks every `(start, end)` window up in it, joined
//! on its own. Over every question of the generated benchmark suite
//! and over names built to stress the filter, `find_all_mentions`,
//! `find_all_mentions_into` and the oracle must agree — same spans, same
//! candidate nodes, same order — and `find_longest_mentions` must be the
//! greedy left-to-right reading of the same matches. The `#[ignore]`d deep
//! run does the same over the medium world:
//!
//! ```sh
//! cargo test --release --test ner_equivalence -- --ignored
//! ```

use std::collections::HashMap;

use kbqa::corpus::benchmark;
use kbqa::nlp::{Mention, MentionBuffer, TokenizedText};
use kbqa::prelude::*;
use kbqa::rdf::NodeId;

type NameTable = HashMap<String, Vec<NodeId>>;

/// Canonical (tokenized, space-joined) name → nodes, as the gazetteer
/// defines it, built without the gazetteer.
fn name_table(store: &TripleStore) -> NameTable {
    let mut names = NameTable::new();
    for (name, nodes) in store.name_entries() {
        let canonical = tokenize(name).joined();
        if canonical.is_empty() {
            continue;
        }
        let entry = names.entry(canonical).or_default();
        for &node in nodes {
            if !entry.contains(&node) {
                entry.push(node);
            }
        }
    }
    names
}

/// Every window of every start, widest first, looked up one by one.
fn oracle(names: &NameTable, text: &TokenizedText) -> Vec<Mention> {
    let mut mentions = Vec::new();
    for start in 0..text.len() {
        for end in (start + 1..=text.len()).rev() {
            if let Some(nodes) = names.get(&text.join(start, end)) {
                mentions.push(Mention {
                    start,
                    end,
                    nodes: nodes.clone(),
                });
            }
        }
    }
    mentions
}

fn assert_scans_agree(
    ner: &GazetteerNer,
    names: &NameTable,
    buf: &mut MentionBuffer,
    question: &str,
) -> usize {
    let text = tokenize(question);
    let expected = oracle(names, &text);
    assert_eq!(
        ner.find_all_mentions(&text),
        expected,
        "question {question:?}"
    );
    ner.find_all_mentions_into(&text, buf);
    let buffered: Vec<Mention> = buf
        .spans()
        .iter()
        .map(|span| Mention {
            start: span.start,
            end: span.end,
            nodes: buf.nodes(span).to_vec(),
        })
        .collect();
    assert_eq!(buffered, expected, "question {question:?}");

    // Greedy longest reading: the first (widest) match at each start that
    // is not inside the previous pick.
    let mut greedy = Vec::new();
    let mut next_free = 0;
    for m in &expected {
        let first_at_start = greedy.last().is_none_or(|g: &Mention| g.start != m.start);
        if m.start >= next_free && first_at_start {
            next_free = m.end;
            greedy.push(m.clone());
        }
    }
    assert_eq!(
        ner.find_longest_mentions(&text),
        greedy,
        "question {question:?}"
    );
    expected.len()
}

/// Every question of the generated benchmark suite over `world`: `pairs`
/// corpus questions, the QALD- and WebQuestions-like sets, the complex suite
/// and a few that ground nothing.
fn suite_questions(world: &World, pairs: usize) -> Vec<String> {
    let corpus = QaCorpus::generate(world, &CorpusConfig::with_pairs(1, pairs));
    let mut questions: Vec<String> = corpus.pairs.iter().map(|p| p.question.clone()).collect();
    let qald = benchmark::qald_like(world, "ner-qald", 120, 90, 0.3, 7);
    questions.extend(qald.questions.into_iter().map(|q| q.question));
    let webq = benchmark::webquestions_like(world, 120, 11);
    questions.extend(webq.questions.into_iter().map(|q| q.question));
    questions.extend(
        benchmark::complex_suite(world)
            .into_iter()
            .map(|c| c.question),
    );
    questions.extend(["", "?!", "why is the sky blue"].map(str::to_owned));
    questions
}

/// The gazetteer built from `world`'s store against the oracle over
/// `questions`; most must ground.
fn assert_world_agrees(world: &World, questions: &[String]) {
    let ner = GazetteerNer::from_store(&world.store);
    let names = name_table(&world.store);
    assert_eq!(names.len(), ner.name_count());
    let mut buf = MentionBuffer::new();
    let mut found = 0;
    for question in questions {
        found += assert_scans_agree(&ner, &names, &mut buf, question);
    }
    assert!(
        found > questions.len() / 2,
        "the suite must ground entities"
    );
}

#[test]
fn scans_match_the_unfiltered_oracle_over_the_generated_suite() {
    let world = World::generate(WorldConfig::tiny(42));
    assert_world_agrees(&world, &suite_questions(&world, 800));
}

#[test]
#[ignore = "deep run: 50 000 questions over the medium world (CI runs it in release)"]
fn scans_match_the_unfiltered_oracle_over_the_medium_world() {
    let world = World::generate(WorldConfig::medium(42));
    assert_world_agrees(&world, &suite_questions(&world, 50_000));
}

#[test]
fn scans_match_the_oracle_on_names_built_to_stress_the_filter() {
    let mut b = GraphBuilder::new();
    let mut named = |iri: &str, name: &str| -> NodeId {
        let node = b.resource(iri);
        b.name(node, name);
        node
    };
    // Shared first token, nested and overlapping names of 1–4 tokens.
    named("res/ny", "New York");
    named("res/nyc", "New York City");
    named("res/nyt", "The New York Times");
    named("res/new", "New");
    named("res/york", "York");
    named("res/city", "City Hall");
    // Possessive inside a name: tokenizes to `obama` + `'s`.
    named("res/care", "Obama's Health Plan");
    named("res/obama", "Obama");
    // Names that are a single stop-word or question word.
    named("res/the", "The");
    named("res/who", "Who");
    named("res/it", "It");
    // Unicode: case folding, a non-Latin script, and the capital-sigma rule.
    named("res/tokyo", "Tōkyō Tower");
    let istanbul = named("res/istanbul", "İstanbul");
    named("res/odos", "ΟΔΟΣ Ερμού");
    named("res/ku", "東京 区");
    // Punctuation the tokenizer drops, and a digit run.
    named("res/stl", "St. Louis");
    named("res/r2", "R2-D2");
    // Two entities, one name.
    named("res/spr1", "Springfield");
    named("res/spr2", "Springfield");
    // A stored name already in the canonical form of another ("St. Louis"):
    // the two ground to the union of their nodes.
    named("res/stl2", "st louis");
    let store = std::sync::Arc::new(b.build());
    let ner = GazetteerNer::from_store(&store);
    let names = name_table(&store);
    assert_eq!(
        ner.overflow_count(),
        3,
        "st louis, r2 d2, obama 's health plan"
    );
    assert_eq!(ner.name_count(), names.len());

    // `İ` lowercases to `i` + U+0307; the question's "İSTANBUL" must reach
    // the name stored as "İstanbul".
    let grounded = ner.find_all_mentions(&tokenize("where is İSTANBUL"));
    assert_eq!(grounded.len(), 1, "{grounded:?}");
    assert_eq!(grounded[0].nodes, vec![istanbul]);

    let mut buf = MentionBuffer::new();
    let mut found = 0;
    for question in [
        "how big is New York City compared to New York",
        "new york new york city hall",
        "who reads the new york times in york",
        "The The The",
        "who is it",
        "what did Obama's health plan cost Obama",
        "obama 's",
        "Obama's",
        "how tall is TŌKYŌ TOWER",
        "tōkyō",
        "where is İSTANBUL and i̇stanbul",
        "οδοσ ερμού ΟΔΟΣ ΕΡΜΟΎ οδος",
        "東京 区 の人口",
        "st louis, St. Louis; st.louis",
        "r2 d2 and R2-D2 and r2d2",
        "is springfield near Springfield",
        "times york new the",
        "new",
        "",
    ] {
        found += assert_scans_agree(&ner, &names, &mut buf, question);
    }
    assert!(
        found >= 30,
        "adversarial questions must match names: {found}"
    );

    // An empty gazetteer (the `Default`) matches nothing and probes nothing.
    let empty = GazetteerNer::default();
    assert_scans_agree(&empty, &NameTable::new(), &mut buf, "new york city");
    assert!(buf.is_empty());
}
