//! Where the kernel's nanoseconds go on a million-triple mapped store.
//!
//! Builds the serving benchmark's fixture shape — `WorldConfig::large_1m`,
//! a model learned on 20 000 pairs, the bundle saved and loaded back so the
//! store is the `mmap`ed snapshot a server runs on — and walks a cold
//! question stream (distinct questions, no answer cache) through
//! `QaEngine::answer_request_with` on one warm `ScratchSpace`:
//!
//! * a criterion group times the untraced walk (ns/question end to end);
//! * one traced walk then prints ns/question per stage from
//!   `StageTrace::accum_ns`, plus mentions, `V(e, p⁺)` traversals and path
//!   edges per question.
//!
//! The world is seed 7, the seed the PR protocol measures on. One command
//! reproduces the stage tables in `docs/PERFORMANCE.md`:
//!
//! ```sh
//! cargo bench --bench kernel_stages
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use kbqa::nlp::{MentionBuffer, TokenizedText};
use kbqa::prelude::*;

/// World seed (the serving benchmark's `--seed`).
const SEED: u64 = 7;
/// Distinct questions walked per pass: the benchmark's cold cycle.
const COLD_QUESTIONS: usize = 32_768;

struct Fixture {
    service: KbqaService,
    requests: Vec<QaRequest>,
    /// Keeps the bundle directory alive for the mapped store.
    _bundle: TempBundle,
}

struct TempBundle(std::path::PathBuf);

impl Drop for TempBundle {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::large_1m(SEED));
    // Same substreams of the seed as `benchmark/src/fixture.rs`.
    let train_seed = SEED * 2 + 1;
    let stream_seed = SEED * 2 + 2;
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(train_seed, 20_000));
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    )
    .learn(&pairs, &LearnerConfig::default());
    let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    let built = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .pattern_index(Arc::new(index))
    .build();

    let dir = std::env::temp_dir().join(format!("kbqa-kernel-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ServingArtifacts::from_service(&built)
        .save(&dir)
        .expect("save serving bundle");
    let service = ServingArtifacts::load(&dir)
        .expect("load serving bundle")
        .into_service();

    let stream = QaCorpus::generate(&world, &CorpusConfig::with_pairs(stream_seed, 60_000));
    let mut seen = HashSet::new();
    let requests: Vec<QaRequest> = stream
        .pairs
        .iter()
        .map(|p| QaRequest::new(p.question.as_str()))
        .filter(|r| seen.insert(r.normalized_question()))
        // The first 1024 distinct questions are the benchmark's hot set.
        .skip(1024)
        .take(COLD_QUESTIONS)
        .collect();
    assert_eq!(requests.len(), COLD_QUESTIONS, "stream corpus too small");
    Fixture {
        service,
        requests,
        _bundle: TempBundle(dir),
    }
}

fn bench_kernel_stages(c: &mut Criterion) {
    let f = fixture();
    let snapshot = f.service.snapshot();
    let engine = snapshot.engine();
    let mut scratch = ScratchSpace::new();

    let mut group = c.benchmark_group("kernel_stages");
    group.sample_size(5);
    group.throughput(Throughput::Elements(f.requests.len() as u64));
    group.bench_function("answer_request_cold_cycle", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for request in &f.requests {
                answered +=
                    usize::from(engine.answer_request_with(request, &mut scratch).answered());
            }
            answered
        })
    });
    group.finish();

    // One traced walk: the lap timer is armed per question and its
    // nanosecond accumulators are summed per stage.
    let mut stage_ns = [0u64; Stage::COUNT];
    let mut answered = 0usize;
    let (lookups_before, edges_before) = scratch.lookup_events();
    for request in &f.requests {
        scratch.trace.begin(true);
        answered += usize::from(engine.answer_request_with(request, &mut scratch).answered());
        for (total, ns) in stage_ns.iter_mut().zip(scratch.trace.accum_ns()) {
            *total += ns;
        }
        scratch.trace.begin(false);
    }
    let (lookups, edges) = scratch.lookup_events();

    // The mention scan alone (no grounding selection), on pre-tokenized text.
    let tokenized: Vec<TokenizedText> = f.requests.iter().map(|r| tokenize(&r.question)).collect();
    let token_count: usize = tokenized.iter().map(TokenizedText::len).sum();
    let mut mentions = MentionBuffer::new();
    let mut mention_count = 0usize;
    let scan_started = std::time::Instant::now();
    for tokens in &tokenized {
        f.service
            .ner()
            .find_all_mentions_into(tokens, &mut mentions);
        mention_count += mentions.len();
    }
    let scan_ns = scan_started.elapsed().as_nanos() as f64;

    let n = f.requests.len() as f64;
    println!(
        "kernel_stages: {} questions on a {}-triple {} store, {:.1}% answered",
        f.requests.len(),
        f.service.store().len(),
        f.service.store().backend_kind(),
        100.0 * answered as f64 / n,
    );
    for stage in Stage::ALL {
        if stage != Stage::Serialize {
            println!(
                "  {:<16} {:>7.0} ns/question",
                stage.as_str(),
                stage_ns[stage as usize] as f64 / n
            );
        }
    }
    println!(
        "  {:<16} {:>7.0} ns/question (armed: +1 clock read per lap)",
        "total",
        stage_ns.iter().sum::<u64>() as f64 / n
    );
    println!(
        "  {:<16} {:>7.0} ns/question (find_all_mentions_into alone, untraced)",
        "mention_scan",
        scan_ns / n
    );
    println!(
        "  per question: {:.2} tokens, {:.2} mentions, {:.2} V(e,p+) traversals, {:.2} path edges",
        token_count as f64 / n,
        mention_count as f64 / n,
        (lookups - lookups_before) as f64 / n,
        (edges - edges_before) as f64 / n,
    );
}

criterion_group!(benches, bench_kernel_stages);
criterion_main!(benches);
