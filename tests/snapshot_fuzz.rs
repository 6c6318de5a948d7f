//! Forged snapshots reach the gazetteer only as typed errors or as stores it
//! can index.
//!
//! The NER gazetteer reads the snapshot's name sections on every question,
//! through unchecked UTF-8, so whatever `Snapshot::open` accepts must be safe
//! to walk. Each case here mutates or truncates a tiny-world snapshot, then
//! re-stamps the header's length and checksum so the forgery gets past the
//! integrity check and into section validation. `open` must either return a
//! typed `KbqaError::Io`, or a store whose `name_entries()` walk, gazetteer
//! build and mention scan, and whose `objects` and `subjects` over every
//! predicate, all run without a panic. Most mutations land in the name
//! sections, in the SO/OS run bounds and columns, or in the SO directory's
//! bounds, bases and bucket starts; a few anywhere in the file. The section
//! indices come from the snapshot's own table (`kbqa_rdf::snapshot::sec`),
//! checked against the count in the header.
//!
//! The taxonomy (`taxonomy.snap`) and the pattern index (`patterns.snap`)
//! are section files in the same container, and get the same treatment:
//! each forgery must load as a typed error, or as a conceptualizer whose
//! `conceptualize_into` over every entity, or an index whose `probability`
//! over every sub-pattern of the corpus, runs without a panic.

use std::hash::Hasher as _;
use std::path::Path;
use std::sync::Arc;

use kbqa::common::error::KbqaError;
use kbqa::nlp::{MentionBuffer, TokenizedText};
use kbqa::prelude::*;
use kbqa::rdf::snapshot::{sec, Fx64Stream, SECTION_COUNT};
use kbqa::rdf::{NodeId, PredicateId, Snapshot};
use proptest::TestRng;

const HEADER_LEN: usize = 32;
/// The name sections: offsets, node bounds, node ids (bytes are rewritten
/// separately).
const NAME_WORD_SECTIONS: [usize; 3] =
    [sec::NAME_OFFSETS, sec::NAME_NODE_BOUNDS, sec::NAME_NODE_IDS];
/// The SO and OS runs and the SO directory, each with its element width:
/// `u64` bounds, `u32` node columns, `u32` directory bases and bucket
/// starts.
const RUN_SECTIONS: [(usize, usize); 9] = [
    (sec::SO_BOUNDS, 8),
    (sec::SO_S, 4),
    (sec::SO_O, 4),
    (sec::OS_BOUNDS, 8),
    (sec::OS_O, 4),
    (sec::OS_S, 4),
    (sec::SO_DIR_BOUNDS, 8),
    (sec::SO_DIR_BASE, 4),
    (sec::SO_DIR_STARTS, 4),
];

/// `(offset, length)` of section `i`, read from the section table.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let at = HEADER_LEN + i * 16;
    let word = |at: usize| u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (word(at), word(at + 8))
}

/// Re-stamp the header's file length and checksum over a forged body.
fn restamp(bytes: &mut [u8]) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let len = bytes.len() as u64;
    bytes[16..24].copy_from_slice(&len.to_ne_bytes());
    let mut stream = Fx64Stream::default();
    stream.update(&bytes[HEADER_LEN..]);
    bytes[24..32].copy_from_slice(&stream.finish().to_ne_bytes());
}

/// One forgery of `clean`, chosen by `rng`.
fn forge(clean: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    match rng.next_u64() % 11 {
        // Truncate anywhere.
        0 => bytes.truncate(pick(rng, clean.len())),
        // Flip a byte anywhere, table included.
        1 => {
            let at = pick(rng, bytes.len());
            bytes[at] ^= 1 + pick(rng, 255) as u8;
        }
        // Overwrite a name-section word: offsets, bounds or node ids.
        2 | 3 => {
            let (off, len) = section(clean, NAME_WORD_SECTIONS[pick(rng, 3)]);
            if len >= 8 {
                let at = off + pick(rng, len - 7) / 4 * 4;
                let value = match rng.next_u64() % 3 {
                    0 => rng.next_u64(),
                    1 => rng.next_u64() % 64,
                    _ => u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap()) + 1,
                };
                bytes[at..at + 8].copy_from_slice(&value.to_ne_bytes());
            }
        }
        // Overwrite an element of a run or of the SO directory: a bound, a
        // subject or object id, a base or shift, a bucket start — random,
        // small, or off by one either way.
        4..=6 => {
            let (i, width) = RUN_SECTIONS[pick(rng, RUN_SECTIONS.len())];
            forge_element(&mut bytes, section(clean, i), width, rng);
        }
        // Rewrite name bytes: letters, case, spaces, punctuation, marks, and
        // bytes that are not UTF-8 on their own.
        _ => {
            let (off, len) = section(clean, sec::NAME_BYTES);
            const POOL: &[u8] = b"az09 .'-AZ\xcc\x87\xc4\xb0\xff\x00";
            for _ in 0..1 + pick(rng, 4) {
                let at = off + pick(rng, len);
                bytes[at] = POOL[pick(rng, POOL.len())];
            }
        }
    }
    restamp(&mut bytes);
    bytes
}

/// Overwrite one `width`-byte element of the section at `(off, len)` with a
/// random value, a small one (below 64), or the old value ± 1. The old value
/// is the whole element, read little-endian as the format stores it.
fn forge_element(bytes: &mut [u8], (off, len): (usize, usize), width: usize, rng: &mut TestRng) {
    if len < width {
        return;
    }
    let at = off + (rng.next_u64() % (len / width) as u64) as usize * width;
    let mut old = [0u8; 8];
    old[..width].copy_from_slice(&bytes[at..at + width]);
    let old = u64::from_le_bytes(old);
    let value = match rng.next_u64() % 4 {
        0 => rng.next_u64(),
        1 => rng.next_u64() % 64,
        2 => old.wrapping_add(1),
        _ => old.wrapping_sub(1),
    };
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

/// Open a forged file; an accepted store must survive everything the
/// gazetteer does with it, and `V(e, p)` and its reverse over every
/// predicate. `true` when the store opened.
fn open_and_index(path: &Path, questions: &[TokenizedText]) -> bool {
    let snapshot = match Snapshot::open(path) {
        Ok(snapshot) => snapshot,
        Err(KbqaError::Io(_)) => return false,
        Err(other) => panic!("forged snapshot: untyped error {other:?}"),
    };
    let store = Arc::new(TripleStore::from_snapshot(snapshot));
    let mut hasher = kbqa::common::hash::FxHasher::default();
    for (name, nodes) in store.name_entries() {
        hasher.write(name.as_bytes());
        hasher.write_usize(nodes.len());
    }
    std::hint::black_box(hasher.finish());
    let ner = GazetteerNer::from_store(&store);
    let mut buf = MentionBuffer::new();
    for text in questions {
        ner.find_all_mentions_into(text, &mut buf);
        for span in buf.spans() {
            std::hint::black_box(buf.nodes(span));
        }
    }
    // Every node id (two past the last, and the largest id) against every
    // predicate, both ways, then the whole SO walk.
    let (nodes, predicates) = (store.dict().node_count(), store.dict().predicate_count());
    for p in 0..predicates as u32 {
        let p = PredicateId::new(p);
        for node in (0..nodes as u32 + 2).chain([u32::MAX]) {
            let node = NodeId::new(node);
            std::hint::black_box(store.objects_slice(node, p));
            std::hint::black_box(store.subjects_slice(p, node));
        }
    }
    std::hint::black_box(store.scan().count());
    true
}

#[test]
fn forged_snapshots_fail_typed_or_index_without_panicking() {
    let world = World::generate(WorldConfig::tiny(42));
    let dir = std::env::temp_dir().join(format!("kbqa-snapshot-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean_path = dir.join("clean.snap");
    world.store.write_snapshot(&clean_path).unwrap();
    let clean = std::fs::read(&clean_path).unwrap();
    assert_eq!(
        u32::from_ne_bytes(clean[12..16].try_into().unwrap()) as usize,
        SECTION_COUNT,
        "the header's section count is the table `sec` indexes"
    );
    let questions: Vec<TokenizedText> = world
        .store
        .name_entries()
        .map(|(name, _)| tokenize(&format!("where is {name} today")))
        .collect();
    assert!(open_and_index(&clean_path, &questions));

    let forged_path = dir.join("forged.snap");
    let mut rng = TestRng::from_name("forged_snapshots_fail_typed_or_index_without_panicking");
    let (mut opened, mut refused) = (0, 0);
    for case in 0..2_000 {
        let forged = forge(&clean, &mut rng);
        std::fs::write(&forged_path, &forged).unwrap();
        let outcome = std::panic::catch_unwind(|| open_and_index(&forged_path, &questions));
        match outcome {
            Ok(true) => opened += 1,
            Ok(false) => refused += 1,
            Err(_) => {
                let keep = dir.join(format!("panicked-{case}.snap"));
                std::fs::copy(&forged_path, &keep).unwrap();
                panic!(
                    "case {case} panicked; the forged file is {}",
                    keep.display()
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("[snapshot_fuzz] {opened} forged snapshots opened, {refused} refused");
    // Both outcomes must be exercised, or the forgeries test nothing.
    assert!(
        opened >= 200 && refused >= 200,
        "opened {opened}, refused {refused}"
    );
}

/// Element width of each section of `taxonomy.snap`, in file order
/// (`kbqa_taxonomy::network`'s format): names, vocabulary, memberships,
/// context runs, totals, tuning.
const TAXONOMY_WIDTHS: [usize; 12] = [1, 4, 1, 4, 4, 4, 8, 4, 4, 8, 8, 8];
/// Element width of each section of `patterns.snap`: params, fingerprints,
/// `f_o`, `f_v`, radix directory.
const PATTERN_WIDTHS: [usize; 5] = [8, 8, 4, 4, 4];

/// One forgery of a section file with sections of `widths`: a truncation, a
/// flipped byte anywhere, a rewritten table entry, or a rewritten element —
/// random, small (ids at or just above the real counts), or off by one —
/// then the header re-stamped so the forgery reaches section validation.
fn forge_sections(clean: &[u8], widths: &[usize], rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    match rng.next_u64() % 6 {
        0 => bytes.truncate(pick(rng, clean.len())),
        1 => {
            let at = pick(rng, bytes.len());
            bytes[at] ^= 1 + pick(rng, 255) as u8;
        }
        // A table entry: a section's offset or length.
        2 => {
            let at = HEADER_LEN + pick(rng, widths.len()) * 16 + 8 * pick(rng, 2);
            let value = section(clean, 0).0 as u64 + rng.next_u64() % 64;
            bytes[at..at + 8].copy_from_slice(&value.to_ne_bytes());
        }
        // An element of a section.
        _ => {
            let i = pick(rng, widths.len());
            forge_element(&mut bytes, section(clean, i), widths[i], rng);
        }
    }
    restamp(&mut bytes);
    bytes
}

/// Forge `clean` 1 000 times; each forgery must load as a typed error or as
/// a value `exercise` walks without a panic. Both outcomes must occur.
fn fuzz_section_file(
    name: &str,
    clean: &[u8],
    widths: &[usize],
    open_and_exercise: impl Fn(&Path) -> bool + std::panic::RefUnwindSafe,
) {
    let dir = std::env::temp_dir().join(format!("kbqa-{name}-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, clean).unwrap();
    assert!(open_and_exercise(&path), "the clean {name} must open");
    let mut rng = TestRng::from_name(name);
    let (mut opened, mut refused) = (0, 0);
    for case in 0..1_000 {
        std::fs::write(&path, forge_sections(clean, widths, &mut rng)).unwrap();
        match std::panic::catch_unwind(|| open_and_exercise(&path)) {
            Ok(true) => opened += 1,
            Ok(false) => refused += 1,
            Err(_) => {
                let keep = dir.join(format!("panicked-{case}-{name}"));
                std::fs::copy(&path, &keep).unwrap();
                panic!(
                    "case {case} panicked; the forged file is {}",
                    keep.display()
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("[snapshot_fuzz] {name}: {opened} forgeries opened, {refused} refused");
    assert!(
        opened >= 50 && refused >= 300,
        "{name}: opened {opened}, refused {refused}"
    );
}

/// Corpus questions of a tiny world and their word lists.
fn tiny_corpus(world: &World) -> Vec<Vec<String>> {
    QaCorpus::generate(world, &CorpusConfig::with_pairs(1, 300))
        .pairs
        .iter()
        .map(|p| {
            tokenize(&p.question)
                .words()
                .iter()
                .map(|w| w.to_string())
                .collect()
        })
        .collect()
}

#[test]
fn forged_taxonomy_snapshots_fail_typed_or_conceptualize_without_panicking() {
    let world = World::generate(WorldConfig::tiny(42));
    let contexts = tiny_corpus(&world);
    let nodes = world.store.dict().node_count() as u32 + 4;
    let dir = std::env::temp_dir().join(format!("kbqa-taxonomy-clean-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean_path = dir.join("taxonomy.snap");
    world.conceptualizer.write_snapshot(&clean_path).unwrap();
    let clean = std::fs::read(&clean_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    fuzz_section_file("taxonomy.snap", &clean, &TAXONOMY_WIDTHS, |path| {
        let conceptualizer = match kbqa::core::persist::load_taxonomy(path) {
            Ok(conceptualizer) => conceptualizer,
            Err(KbqaError::Io(_)) => return false,
            Err(other) => panic!("forged taxonomy: untyped error {other:?}"),
        };
        let network = conceptualizer.network();
        let mut out = Vec::new();
        for node in 0..nodes {
            let context = &contexts[node as usize % contexts.len()];
            let entity = kbqa::rdf::NodeId::new(node);
            conceptualizer.conceptualize_into(entity, context.iter().map(String::as_str), &mut out);
            for &(concept, p) in &out {
                std::hint::black_box((network.concept_name(concept), p));
            }
            std::hint::black_box(conceptualizer.prior(entity));
        }
        for concept in network.concepts() {
            let name = network.concept_name(concept);
            assert_eq!(network.find_concept(name), Some(concept));
            for word in &contexts[0] {
                std::hint::black_box(network.context_likelihood(concept, word, 0.1));
            }
        }
        std::hint::black_box(network.covered_entities());
        true
    });
}

#[test]
fn forged_pattern_snapshots_fail_typed_or_probe_without_panicking() {
    let world = World::generate(WorldConfig::tiny(42));
    let contexts = tiny_corpus(&world);
    let ner = GazetteerNer::from_store(&world.store);
    let questions: Vec<String> = contexts.iter().map(|words| words.join(" ")).collect();
    let index = PatternIndex::build(questions.iter().map(String::as_str), &ner);
    assert!(
        index.pattern_count() > 1_000,
        "a directory with real buckets"
    );
    let dir = std::env::temp_dir().join(format!("kbqa-patterns-clean-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean_path = dir.join("patterns.snap");
    index.write_snapshot(&clean_path).unwrap();
    let clean = std::fs::read(&clean_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    fuzz_section_file("patterns.snap", &clean, &PATTERN_WIDTHS, |path| {
        let index = match kbqa::core::persist::load_patterns(path) {
            Ok(index) => index,
            Err(KbqaError::Io(_)) => return false,
            Err(other) => panic!("forged pattern index: untyped error {other:?}"),
        };
        for words in contexts.iter().take(100) {
            let words: Vec<&str> = words.iter().map(String::as_str).collect();
            for i in 0..words.len() {
                for j in i + 1..=words.len() {
                    let mut pattern = words[..i].to_vec();
                    pattern.push("$e");
                    pattern.extend_from_slice(&words[j..]);
                    let p = index.probability(&pattern);
                    assert!((0.0..=1.0).contains(&p), "P(q̌) = {p}");
                    std::hint::black_box(index.counts(&pattern));
                }
            }
        }
        std::hint::black_box((index.pattern_count(), index.questions_indexed()));
        true
    });
}
