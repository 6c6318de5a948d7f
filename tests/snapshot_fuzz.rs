//! Forged snapshots reach the gazetteer only as typed errors or as stores it
//! can index.
//!
//! The NER gazetteer reads the snapshot's name sections on every question,
//! through unchecked UTF-8, so whatever `Snapshot::open` accepts must be safe
//! to walk. Each case here mutates or truncates a tiny-world snapshot, then
//! re-stamps the header's length and checksum so the forgery gets past the
//! integrity check and into section validation. `open` must either return a
//! typed `KbqaError::Io`, or a store whose `name_entries()` walk, gazetteer
//! build and mention scan all run without a panic. Most mutations land in
//! the name sections; a few anywhere in the file.

use std::hash::Hasher as _;
use std::path::Path;
use std::sync::Arc;

use kbqa::common::error::KbqaError;
use kbqa::nlp::{MentionBuffer, TokenizedText};
use kbqa::prelude::*;
use kbqa::rdf::snapshot::Fx64Stream;
use kbqa::rdf::Snapshot;
use proptest::TestRng;

const HEADER_LEN: usize = 32;
/// The name sections' indices in the section table: bytes, offsets, node
/// bounds, node ids (`docs/STORAGE.md`'s catalog).
const NAME_SECTIONS: [usize; 4] = [18, 19, 20, 21];

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
    match rng.next_u64() % 8 {
        // Truncate anywhere.
        0 => bytes.truncate(pick(rng, clean.len())),
        // Flip a byte anywhere, table included.
        1 => {
            let at = pick(rng, bytes.len());
            bytes[at] ^= 1 + pick(rng, 255) as u8;
        }
        // Overwrite a name-section word: offsets, bounds or node ids.
        2 | 3 => {
            let (off, len) = section(clean, NAME_SECTIONS[1 + pick(rng, 3)]);
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
        // Rewrite name bytes: letters, case, spaces, punctuation, marks, and
        // bytes that are not UTF-8 on their own.
        _ => {
            let (off, len) = section(clean, NAME_SECTIONS[0]);
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

/// Open a forged file; an accepted store must survive everything the
/// gazetteer does with it. `true` when the store opened.
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
