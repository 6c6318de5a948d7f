//! Where the serving path's nanoseconds go on a million-triple mapped store.
//!
//! Builds the serving benchmark's fixture shape — `WorldConfig::large_1m`,
//! a model learned on 20 000 pairs, the bundle saved and loaded back so the
//! store is the `mmap`ed snapshot a server runs on — and walks a cold
//! question stream (distinct questions, no answer cache) through
//! `QaEngine::render_request_into` — the kernel plus the response's JSON,
//! as a server renders it — on one warm `ScratchSpace`:
//!
//! * a criterion group times the untraced walk (ns/question end to end);
//! * one traced walk then prints ns/question per stage from
//!   `StageTrace::accum_ns`, `serialize` included, plus mentions,
//!   `V(e, p⁺)` traversals and path edges per question;
//! * the serving edge's pieces follow, ns/question: request decode
//!   (`serde_json::from_slice`, on the benchmark's
//!   `{"question":…,"request_id":N}` body and on a 256-question batch), then
//!   two timed both ways — answering (`answer_into` vs `answer` +
//!   `serialize_into`) and a cache insert that evicts at 4 096 entries (a
//!   rendered entry vs an `Arc<QaResponse>`);
//! * four whole-path figures close the report: the optimized kernel vs
//!   the retained reference enumeration (`QaEngine::bfq_kernel_reference`)
//!   on the same pre-tokenized questions, the armed stage tracer's
//!   overhead on the walk, the bundle load (`ServingArtifacts::load`:
//!   wall time, `store.snap` bytes, triples) and the NER gazetteer's build
//!   over the mapped names (wall time, heap bytes, names, overflow names).
//!
//! The world is seed 7, the seed the PR protocol measures on. One command
//! reproduces the tables in `docs/PERFORMANCE.md`:
//!
//! ```sh
//! cargo bench --bench kernel_stages
//! ```

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use kbqa::nlp::{MentionBuffer, TokenizedText};
use kbqa::prelude::*;
use kbqa_server::{AnswerCache, CacheConfig, RenderedAnswer, RenderedCache};

/// World seed (the serving benchmark's `--seed`).
const SEED: u64 = 7;
/// Distinct questions walked per pass: the benchmark's cold cycle.
const COLD_QUESTIONS: usize = 32_768;

struct Fixture {
    service: KbqaService,
    requests: Vec<QaRequest>,
    /// Wall time of `ServingArtifacts::load` on the saved bundle.
    load_ms: f64,
    /// Keeps the bundle directory alive for the mapped store.
    bundle: TempBundle,
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
    let load_started = Instant::now();
    let artifacts = ServingArtifacts::load(&dir).expect("load serving bundle");
    let load_ms = load_started.elapsed().as_secs_f64() * 1e3;
    let service = artifacts.into_service();

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
        load_ms,
        bundle: TempBundle(dir),
    }
}

fn bench_kernel_stages(c: &mut Criterion) {
    let f = fixture();
    let engine = f.service.engine();
    let mut scratch = ScratchSpace::new();
    let mut out = Vec::with_capacity(4 << 10);

    let mut group = c.benchmark_group("kernel_stages");
    group.sample_size(5);
    group.throughput(Throughput::Elements(f.requests.len() as u64));
    group.bench_function("render_request_cold_cycle", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for request in &f.requests {
                out.clear();
                let refusal = engine.render_request_into(request, &mut scratch, 0, &mut out);
                answered += usize::from(refusal.is_none());
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
        out.clear();
        let refusal = engine.render_request_into(request, &mut scratch, 0, &mut out);
        answered += usize::from(refusal.is_none());
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
    let scan_started = Instant::now();
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
        println!(
            "  {:<16} {:>7.0} ns/question",
            stage.as_str(),
            stage_ns[stage as usize] as f64 / n
        );
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
    serving_pieces(&f.requests, &f.service);

    println!("whole path:");
    let optimized = ns_per(tokenized.len(), || {
        for tokens in &tokenized {
            black_box(engine.answer_bfq_tokens_with(tokens, &mut scratch));
        }
    });
    let reference = ns_per(tokenized.len(), || {
        for tokens in &tokenized {
            let _ = black_box(engine.bfq_kernel_reference(tokens));
        }
    });
    println!(
        "  {:<28} {reference:>7.0} ns/question   optimized {optimized:>7.0}   {:.2}x",
        "reference kernel",
        reference / optimized
    );
    let mut walk = |armed: bool| {
        ns_per(f.requests.len(), || {
            for request in &f.requests {
                scratch.trace.begin(armed);
                out.clear();
                black_box(engine.render_request_into(request, &mut scratch, 0, &mut out));
            }
            scratch.trace.begin(false);
        })
    };
    let (untraced, armed) = (walk(false), walk(true));
    println!(
        "  {:<28} {armed:>7.0} ns/question   untraced {untraced:>7.0}   {:+.1}%",
        "armed tracer",
        100.0 * (armed / untraced - 1.0)
    );
    let snap_bytes = std::fs::metadata(f.bundle.0.join(kbqa::core::persist::STORE_FILE))
        .expect("store.snap")
        .len();
    println!(
        "  {:<28} {:>7.1} ms           store.snap {snap_bytes} B, {} triples",
        "bundle load",
        f.load_ms,
        f.service.store().len()
    );
    let started = Instant::now();
    let gazetteer = GazetteerNer::from_store(f.service.store());
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    println!(
        "  {:<28} {build_ms:>7.1} ms           heap {} B, {} names, {} overflow",
        "gazetteer build",
        gazetteer.heap_bytes(),
        gazetteer.name_count(),
        gazetteer.overflow_count()
    );
}

/// Fastest of three timed passes of `pass`, in ns per one of its `items`.
fn ns_per(items: usize, mut pass: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64 / items as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn piece(name: &str, now: f64, before: f64, before_name: &str) {
    println!(
        "  {name:<28} {now:>7.0} ns/question   {before_name} {before:>7.0}   saves {:>6.0}",
        before - now
    );
}

/// The serving edge's pieces: request decode as the server runs it, then
/// the two the rendered-bytes path replaced, each timed against what it
/// replaced.
fn serving_pieces(requests: &[QaRequest], service: &KbqaService) {
    println!("serving pieces:");

    // Decode: the benchmark's single-question body, and 256-question batches.
    let bodies: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| {
            let question = serde_json::to_string(&r.question).expect("serialize question");
            format!("{{\"question\":{question},\"request_id\":{id}}}")
        })
        .collect();
    let single = ns_per(bodies.len(), || {
        for body in &bodies {
            black_box(serde_json::from_slice::<QaRequest>(body.as_bytes()).expect("parses"));
        }
    });
    println!(
        "  {:<28} {single:>7.0} ns/question",
        "decode (/answer body)"
    );
    let batches: Vec<String> = bodies
        .chunks(256)
        .map(|chunk| format!("[{}]", chunk.join(",")))
        .collect();
    let batched = ns_per(bodies.len(), || {
        for batch in &batches {
            black_box(serde_json::from_slice::<Vec<QaRequest>>(batch.as_bytes()).expect("parses"));
        }
    });
    println!(
        "  {:<28} {batched:>7.0} ns/question",
        "decode (256-question batch)"
    );

    // Answering: rendered from ids vs materialized, then serialized.
    let mut out = Vec::with_capacity(4 << 10);
    let rendered = ns_per(requests.len(), || {
        for request in requests {
            out.clear();
            black_box(service.answer_into(request, &mut out));
        }
    });
    let owned = ns_per(requests.len(), || {
        for request in requests {
            out.clear();
            service.answer(request).serialize_into(&mut out);
            black_box(&out);
        }
    });
    piece("answer_into", rendered, owned, "answer+serialize_into");

    // Cache insert at capacity (every insert evicts): a rendered entry
    // copied from the response bytes vs the owned response behind an Arc.
    let keys: Vec<String> = requests.iter().map(|r| service.cache_key(r)).collect();
    let fill = CacheConfig::default().capacity;
    let (warm, timed) = (&keys[..fill], &keys[fill..]);
    let mut bodies: Vec<(Option<Refusal>, Vec<u8>)> = Vec::with_capacity(requests.len());
    for request in requests {
        let mut body = Vec::new();
        let refusal = service.answer_into(request, &mut body).refusal;
        bodies.push((refusal, body));
    }
    let rendered = {
        let cache = RenderedCache::new(CacheConfig::default());
        for (key, (refusal, body)) in warm.iter().zip(&bodies) {
            cache.insert(key.as_str(), RenderedAnswer::new(*refusal, body));
        }
        let started = Instant::now();
        for (key, (refusal, body)) in timed.iter().zip(&bodies[fill..]) {
            cache.insert(key.as_str(), RenderedAnswer::new(*refusal, body));
        }
        started.elapsed().as_nanos() as f64 / timed.len() as f64
    };
    let owned = {
        let cache: AnswerCache<Arc<QaResponse>> = AnswerCache::new(CacheConfig::default());
        let responses: Vec<QaResponse> = requests.iter().map(|r| service.answer(r)).collect();
        let mut entries = keys.iter().cloned().zip(responses);
        for (key, response) in entries.by_ref().take(fill) {
            cache.insert(key, Arc::new(response));
        }
        let started = Instant::now();
        for (key, response) in entries {
            cache.insert(key, Arc::new(response));
        }
        started.elapsed().as_nanos() as f64 / timed.len() as f64
    };
    piece("cache insert + evict", rendered, owned, "Arc<QaResponse>");
}

criterion_group!(benches, bench_kernel_stages);
criterion_main!(benches);
