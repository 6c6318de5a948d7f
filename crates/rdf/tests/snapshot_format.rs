//! On-disk snapshot format: round-trip integrity, hostile-input rejection,
//! and a golden fixture pinning the byte layout.
//!
//! Every corruption case must surface as a typed `KbqaError::Io` naming the
//! snapshot — never a panic, never a silently-wrong store. The golden
//! fixture (`tests/fixtures/golden.snap`) is the committed output of
//! `golden_store()`; if the writer's byte layout changes, the fixture test
//! fails and the format version must be bumped deliberately.
//! `tests/fixtures/golden-v1.snap` is the same store in version 1, which
//! carried the insertion-order log, and `golden-v2.snap` in version 2, which
//! had no SO directory: each must be refused, naming its version.

use kbqa_common::error::KbqaError;
use kbqa_rdf::{GraphBuilder, Snapshot, TripleStore};

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kbqa-snapfmt-{tag}-{}.snap", std::process::id()))
}

/// Small but representative store: every term kind, shared names, a CVT
/// chain, multi-valued predicates.
fn golden_store() -> TripleStore {
    let mut b = GraphBuilder::new();
    let obama = b.resource("res/barack_obama");
    let marriage = b.resource("res/marriage_1");
    let michelle = b.resource("res/michelle_obama");
    let honolulu = b.resource("res/honolulu");
    b.name(obama, "Barack Obama");
    b.name(michelle, "Michelle Obama");
    b.name(honolulu, "Honolulu");
    b.alias(obama, "Obama");
    b.alias(michelle, "Obama");
    b.fact_year(obama, "dob", 1961);
    b.fact_str(obama, "category", "Person");
    b.fact_str(obama, "category", "Politician");
    b.link(obama, "marriage", marriage);
    b.fact_year(marriage, "date", 1992);
    b.link(marriage, "person", michelle);
    b.fact_int(honolulu, "population", 390_000);
    b.link(obama, "pob", honolulu);
    b.build()
}

fn expect_snapshot_error(result: Result<Snapshot, KbqaError>, what: &str) {
    match result {
        Err(KbqaError::Io(message)) => assert!(
            message.contains("snapshot"),
            "{what}: error must name the snapshot: {message}"
        ),
        Ok(_) => panic!("{what}: corrupt snapshot must not open"),
        Err(other) => panic!("{what}: expected Io error, got {other:?}"),
    }
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let path = scratch("trunc");
    let store = golden_store();
    store.write_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let probe = scratch("trunc-probe");
    // Every prefix that drops at least one byte must fail — including the
    // empty file and a header-only file.
    for len in [
        0,
        1,
        8,
        31,
        32,
        100,
        bytes.len() / 2,
        bytes.len() - 9,
        bytes.len() - 1,
    ] {
        std::fs::write(&probe, &bytes[..len]).unwrap();
        expect_snapshot_error(Snapshot::open(&probe), &format!("prefix of {len} bytes"));
    }
    std::fs::remove_file(&probe).ok();
}

#[test]
fn flipped_bytes_are_rejected_everywhere() {
    let path = scratch("flip");
    let store = golden_store();
    store.write_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let probe = scratch("flip-probe");
    // Magic, version, checksum field, section table, and body positions.
    let positions = [0usize, 9, 24, 40, bytes.len() / 2, bytes.len() - 2];
    for &pos in &positions {
        let mut evil = bytes.clone();
        evil[pos] ^= 0x5a;
        std::fs::write(&probe, &evil).unwrap();
        expect_snapshot_error(Snapshot::open(&probe), &format!("byte {pos} flipped"));
    }
    std::fs::remove_file(&probe).ok();
}

#[test]
fn appended_garbage_is_rejected() {
    let path = scratch("append");
    golden_store().write_snapshot(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"trailing junk");
    std::fs::write(&path, &bytes).unwrap();
    expect_snapshot_error(Snapshot::open(&path), "appended garbage");
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_a_typed_error() {
    let result = Snapshot::open(std::path::Path::new("/nonexistent/kbqa/na.snap"));
    assert!(matches!(result, Err(KbqaError::Io(_))));
}

#[test]
fn wrong_magic_is_rejected_before_anything_else() {
    let path = scratch("magic");
    std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
    expect_snapshot_error(Snapshot::open(&path), "wrong magic");
    std::fs::remove_file(&path).ok();
}

/// The committed fixture must keep opening and reading identically, and the
/// writer must keep producing exactly those bytes for the same store. The
/// format is native-endian, so the byte-level pin only applies on
/// little-endian hosts (all current CI targets).
#[cfg(target_endian = "little")]
#[test]
fn golden_fixture_pins_the_format() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.snap");
    let store = golden_store();

    if std::env::var_os("KBQA_REGEN_GOLDEN").is_some() {
        store.write_snapshot(&fixture).unwrap();
        // Strip the sidecar-less temp artifacts; the fixture itself is the
        // only committed file.
        eprintln!("regenerated {}", fixture.display());
    }

    // 1. Today's writer reproduces the committed bytes exactly.
    let path = scratch("golden");
    store.write_snapshot(&path).unwrap();
    let fresh = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let committed = std::fs::read(&fixture)
        .expect("golden fixture missing — run with KBQA_REGEN_GOLDEN=1 to create it");
    assert_eq!(
        fresh, committed,
        "snapshot byte layout changed; bump the format version and \
         regenerate the fixture deliberately (KBQA_REGEN_GOLDEN=1)"
    );

    // 2. The committed fixture opens and reads equivalently to the source:
    //    the built store scans its log and the mapped one its SO runs, so
    //    the scans hold the same triples and the SO walks agree in order.
    let mapped = TripleStore::from_snapshot(Snapshot::open(&fixture).unwrap());
    assert_eq!(mapped.len(), store.len());
    let sorted = |store: &TripleStore| {
        let mut triples: Vec<_> = store.scan().collect();
        triples.sort_unstable_by_key(|t| (t.s.raw(), t.p.raw(), t.o.raw()));
        triples
    };
    assert_eq!(sorted(&store), sorted(&mapped));
    assert_eq!(
        store.triples().collect::<Vec<_>>(),
        mapped.triples().collect::<Vec<_>>()
    );
    assert_eq!(
        mapped.entities_named("obama").len(),
        store.entities_named("obama").len()
    );
}

/// A snapshot of an older version is refused at open with a typed error
/// that names its version and the fix, however intact the file is.
fn expect_refused_naming_version(version: u32) {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(format!("golden-v{version}.snap"));
    match Snapshot::open(&fixture) {
        Err(KbqaError::Io(message)) => {
            assert!(message.contains("snapshot"), "{message}");
            assert!(
                message.contains(&format!("version {version} ")),
                "{message}"
            );
            assert!(message.contains("ServingArtifacts::save"), "{message}");
        }
        Ok(_) => panic!("a version-{version} snapshot must not open"),
        Err(other) => panic!("expected a typed Io error, got {other:?}"),
    }
}

/// Version 1 carried the insertion-order log.
#[test]
fn version_one_fixture_is_refused_naming_its_version() {
    expect_refused_naming_version(1);
}

/// Version 2 had no SO directory.
#[test]
fn version_two_fixture_is_refused_naming_its_version() {
    expect_refused_naming_version(2);
}
