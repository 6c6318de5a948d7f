//! Heap footprint of a warm start.
//!
//! A tracking global allocator keeps the live heap and its high-water mark
//! while `ServingArtifacts::load` reads a quick-world bundle (`repro --scale
//! quick`'s KBA world: a small world, 4 000 QA pairs, the pattern index
//! persisted). The load may at its peak hold at most 1.5× the
//! heap it leaves live. Every file is mapped, not read onto the heap, and
//! artifacts stream straight into their types, so the transient is container
//! growth alone; a load that reads each file onto the heap and builds a
//! document tree first peaks near 11× on this bundle. The taxonomy and the
//! pattern index are mapped section files and may keep at most 32 KiB of
//! heap between them. Building the service
//! from the loaded bundle then builds the NER gazetteer over the mapped
//! names, and may keep at most 32 B of heap per name entry: a slot table,
//! not a copy of the names.
//!
//! Run with `--nocapture` to see the measured bytes and ratio.
//!
//! This file intentionally holds a single test: the counters are
//! process-global, and a concurrently running test would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before freeing the old: a moving realloc
        // holds both.
        grew(new_size);
        let out = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        out
    }
}

#[global_allocator]
static TRACKER: TrackingAllocator = TrackingAllocator;

use std::sync::Arc;

use kbqa::prelude::*;

/// Heap the mapped taxonomy and pattern index may keep together: the
/// concept-name and vocabulary indexes and the `ln P(w|c)` table (16.2 KB
/// on this bundle). Parsed from JSON they kept ≈611 KB.
const SECTIONS_KEPT_BOUND: usize = 32 << 10;

#[test]
fn bundle_load_peak_heap_stays_within_1_5x_of_what_it_keeps() {
    let dir = std::env::temp_dir().join(format!("kbqa-load-footprint-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let world = World::generate(WorldConfig::small(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 4_000));
        let ner = Arc::new(GazetteerNer::from_store(&world.store));
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
        let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
        let service = KbqaService::builder(
            Arc::clone(&world.store),
            Arc::clone(&world.conceptualizer),
            Arc::new(model),
        )
        .ner(ner)
        .pattern_index(Arc::new(index))
        .build();
        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save bundle");
    }

    assert!(
        !dir.join("ner.json").exists(),
        "the gazetteer is built at open, not saved"
    );

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let artifacts = ServingArtifacts::load(&dir).expect("load bundle");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let kept = LIVE.load(Ordering::Relaxed) - before;
    assert!(artifacts.pattern_index.is_some());

    // The taxonomy and the pattern index are mapped section files: what they
    // keep is the name indexes and the conceptualizer's ln P(w|c) table.
    let before = LIVE.load(Ordering::Relaxed);
    let conceptualizer = kbqa::core::persist::load_taxonomy(&dir.join("taxonomy.snap")).unwrap();
    let index = kbqa::core::persist::load_patterns(&dir.join("patterns.snap")).unwrap();
    let sections_kept = LIVE.load(Ordering::Relaxed) - before;
    println!(
        "[load_footprint] taxonomy + pattern index kept {sections_kept} B \
         (conceptualizer heap_bytes {}, index heap_bytes {}, {} concepts, {} patterns)",
        conceptualizer.heap_bytes(),
        index.heap_bytes(),
        conceptualizer.network().concept_count(),
        index.pattern_count()
    );
    assert!(
        sections_kept <= SECTIONS_KEPT_BOUND,
        "the taxonomy and the pattern index kept {sections_kept} B > {SECTIONS_KEPT_BOUND} B"
    );
    drop((conceptualizer, index));
    std::fs::remove_dir_all(&dir).ok();

    let ratio = peak as f64 / kept as f64;
    println!("[load_footprint] peak {peak} B, kept {kept} B: peak / kept = {ratio:.2}");
    assert!(
        ratio <= 1.5,
        "load peaked at {peak} B of heap to keep {kept} B: {ratio:.2}x > 1.5x"
    );

    // The gazetteer indexes the mapped name section in place: what it keeps
    // is a slot table and a filter, not a copy of the names.
    let names = artifacts.store.name_entries().count();
    let before = LIVE.load(Ordering::Relaxed);
    let service = artifacts.into_service();
    let gazetteer = LIVE.load(Ordering::Relaxed) - before;
    let per_name = gazetteer as f64 / names as f64;
    println!(
        "[load_footprint] into_service kept {gazetteer} B over {names} names: {per_name:.1} B/name \
         (gazetteer heap_bytes {})",
        service.ner().heap_bytes()
    );
    assert!(
        per_name <= 32.0,
        "the service kept {gazetteer} B for {names} names: {per_name:.1} B/name > 32"
    );
}
