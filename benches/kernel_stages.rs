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
//!   overhead on the walk (median [Q1, Q3] of alternating armed/untraced
//!   passes), the bundle load (`ServingArtifacts::load`: wall time split
//!   into the one digest pass over the three section files, the rest of
//!   their open checks, and everything else; `store.snap` bytes, bytes per
//!   triple, triples), the opens of the mapped
//!   taxonomy and pattern index (`taxonomy.snap`, `patterns.snap`: wall
//!   time, mapped bytes, heap kept) and the NER gazetteer's build over the
//!   mapped names (wall time, heap bytes, names, overflow names);
//! * an `O(|P|)` curve ends it: a quick (small-world) fixture beside the
//!   `large_1m` one, each with its store's triples and `|P|`, kernel
//!   ns/question, all eight traced stages' ns/question, the mentions
//!   grounded and `V(e, p⁺)` traversals per question, `value_lookup` ns per
//!   traversal, and the SO directory's bytes and bytes per triple — so the
//!   gap between the two worlds shows which stages carry it.
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

/// Armed/untraced pass pairs behind the tracer's overhead figure.
const TRACER_PAIRS: usize = 7;

struct Fixture {
    service: KbqaService,
    requests: Vec<QaRequest>,
    /// Keeps the bundle directory alive for the mapped store.
    bundle: TempBundle,
}

struct TempBundle(std::path::PathBuf);

impl Drop for TempBundle {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The serving fixture over `world`: a model learned on `train_pairs`, the
/// bundle saved and loaded back, and up to `cold` distinct stream questions
/// past the benchmark's 1024-question hot set.
fn fixture(world: WorldConfig, train_pairs: usize, stream_pairs: usize, cold: usize) -> Fixture {
    let world = World::generate(world);
    // Same substreams of the seed as `benchmark/src/fixture.rs`.
    let train_seed = SEED * 2 + 1;
    let stream_seed = SEED * 2 + 2;
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(train_seed, train_pairs));
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

    let dir = std::env::temp_dir().join(format!(
        "kbqa-kernel-stages-{}-{}",
        world.store.len(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ServingArtifacts::from_service(&built)
        .save(&dir)
        .expect("save serving bundle");
    let service = ServingArtifacts::load(&dir)
        .expect("load serving bundle")
        .into_service();

    let stream = QaCorpus::generate(&world, &CorpusConfig::with_pairs(stream_seed, stream_pairs));
    let mut seen = HashSet::new();
    let requests: Vec<QaRequest> = stream
        .pairs
        .iter()
        .map(|p| QaRequest::new(p.question.as_str()))
        .filter(|r| seen.insert(r.normalized_question()))
        // The first 1024 distinct questions are the benchmark's hot set.
        .skip(1024)
        .take(cold)
        .collect();
    assert!(!requests.is_empty(), "stream corpus too small");
    Fixture {
        service,
        requests,
        bundle: TempBundle(dir),
    }
}

/// One traced walk over `requests`: the lap timer is armed per question and
/// its nanosecond accumulators are summed per stage. Returns the sums and
/// the answered count.
fn traced_walk(
    engine: &QaEngine<'_>,
    requests: &[QaRequest],
    scratch: &mut ScratchSpace,
    out: &mut Vec<u8>,
) -> ([u64; Stage::COUNT], usize) {
    let mut stage_ns = [0u64; Stage::COUNT];
    let mut answered = 0usize;
    for request in requests {
        scratch.trace.begin(true);
        out.clear();
        let refusal = engine.render_request_into(request, scratch, 0, out);
        answered += usize::from(refusal.is_none());
        for (total, ns) in stage_ns.iter_mut().zip(scratch.trace.accum_ns()) {
            *total += ns;
        }
        scratch.trace.begin(false);
    }
    (stage_ns, answered)
}

/// Fastest of three opens of a bundle's section file: ms, file bytes, and
/// the heap the opened value keeps.
fn open_section_file<T>(
    path: &std::path::Path,
    open: impl Fn(&std::path::Path) -> kbqa::common::error::Result<T>,
    heap_bytes: impl Fn(&T) -> usize,
) -> (f64, u64, usize) {
    let mut best = f64::INFINITY;
    let mut heap = 0;
    for _ in 0..3 {
        let started = Instant::now();
        let value = open(path).expect("open section file");
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        heap = heap_bytes(&value);
    }
    (
        best,
        std::fs::metadata(path).expect("section file").len(),
        heap,
    )
}

/// One world of the `O(|P|)` curve: what a question costs on a fixture's
/// store, stage by stage, beside the store's size and `|P|`.
struct CurveRow {
    name: &'static str,
    triples: usize,
    predicates: usize,
    templates: usize,
    questions: usize,
    answered: f64,
    kernel_ns: f64,
    stage_ns: [f64; Stage::COUNT],
    /// Distinct entity groundings of the whole question (`P(e|q)` choices).
    grounded: f64,
    /// `V(e, p⁺)` traversals the traced walk ran, decomposition probes
    /// included.
    traversals: f64,
    /// Bytes of the store's SO directory.
    directory_bytes: usize,
}

fn curve_row(name: &'static str, f: &Fixture) -> CurveRow {
    let engine = f.service.engine();
    let mut scratch = ScratchSpace::new();
    let mut out = Vec::with_capacity(4 << 10);
    let tokenized: Vec<TokenizedText> = f.requests.iter().map(|r| tokenize(&r.question)).collect();
    // A warm-up walk, then the traced one.
    traced_walk(&engine, &f.requests, &mut scratch, &mut out);
    let (lookups_before, _) = scratch.lookup_events();
    let (stage_ns, answered) = traced_walk(&engine, &f.requests, &mut scratch, &mut out);
    let (lookups, _) = scratch.lookup_events();
    let kernel_ns = ns_per(tokenized.len(), || {
        for tokens in &tokenized {
            black_box(engine.answer_bfq_tokens_with(tokens, &mut scratch));
        }
    });
    let grounded: usize = f
        .requests
        .iter()
        .map(|r| engine.question_statistics(&r.question).entities)
        .sum();
    let n = f.requests.len() as f64;
    let store = f.service.store();
    CurveRow {
        name,
        triples: store.len(),
        predicates: store.dict().predicate_count(),
        templates: f.service.model().stats.distinct_templates,
        questions: f.requests.len(),
        answered: 100.0 * answered as f64 / n,
        kernel_ns,
        stage_ns: stage_ns.map(|ns| ns as f64 / n),
        grounded: grounded as f64 / n,
        traversals: (lookups - lookups_before) as f64 / n,
        directory_bytes: store.cols().directory_bytes(),
    }
}

/// The curve as two tables: each world's size and kernel cost, then its
/// traced stages (ns/question) and per-question counts.
fn print_curve(rows: &[CurveRow]) {
    println!("O(|P|) curve (ns/question):");
    println!(
        "  {:<10} {:>9} {:>4} {:>9} {:>9} {:>7} {:>7}",
        "world", "triples", "|P|", "templates", "questions", "answer", "kernel"
    );
    for row in rows {
        println!(
            "  {:<10} {:>9} {:>4} {:>9} {:>9} {:>6.1}% {:>7.0}",
            row.name,
            row.triples,
            row.predicates,
            row.templates,
            row.questions,
            row.answered,
            row.kernel_ns,
        );
    }
    print!("  {:<16}", "stage");
    for row in rows {
        print!(" {:>9}", row.name);
    }
    println!();
    let line = |label: &str, value: &dyn Fn(&CurveRow) -> String| {
        print!("  {label:<16}");
        for row in rows {
            print!(" {:>9}", value(row));
        }
        println!();
    };
    for stage in Stage::ALL {
        line(stage.as_str(), &|row| {
            format!("{:.0}", row.stage_ns[stage as usize])
        });
    }
    line("stage total", &|row| {
        format!("{:.0}", row.stage_ns.iter().sum::<f64>())
    });
    line("grounded/q", &|row| format!("{:.2}", row.grounded));
    line("V(e,p+)/q", &|row| format!("{:.2}", row.traversals));
    line("value ns/trav", &|row| {
        format!(
            "{:.0}",
            row.stage_ns[Stage::ValueLookup as usize] / row.traversals
        )
    });
    line("so dir bytes", &|row| row.directory_bytes.to_string());
    line("so dir B/triple", &|row| {
        format!("{:.3}", row.directory_bytes as f64 / row.triples as f64)
    });
}

fn bench_kernel_stages(c: &mut Criterion) {
    let f = fixture(WorldConfig::large_1m(SEED), 20_000, 60_000, COLD_QUESTIONS);
    assert_eq!(f.requests.len(), COLD_QUESTIONS, "stream corpus too small");
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
    let (lookups_before, edges_before) = scratch.lookup_events();
    let (stage_ns, answered) = traced_walk(&engine, &f.requests, &mut scratch, &mut out);
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
    // One pass alone reads anything from -4 % to +14 %: alternate armed and
    // untraced passes, swapping which goes first, and report quartiles.
    let mut walk = |armed: bool| {
        let started = Instant::now();
        for request in &f.requests {
            scratch.trace.begin(armed);
            out.clear();
            black_box(engine.render_request_into(request, &mut scratch, 0, &mut out));
        }
        scratch.trace.begin(false);
        started.elapsed().as_nanos() as f64 / n
    };
    let (mut armed, mut untraced, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..TRACER_PAIRS {
        let (a, u) = if pair % 2 == 0 {
            let a = walk(true);
            (a, walk(false))
        } else {
            let u = walk(false);
            (walk(true), u)
        };
        armed.push(a);
        untraced.push(u);
        overhead.push(100.0 * (a / u - 1.0));
    }
    let ([a, a1, a3], [u, u1, u3], [o, o1, o3]) =
        (quartiles(armed), quartiles(untraced), quartiles(overhead));
    println!(
        "  {:<28} {a:>7.0} ns/question [{a1:.0}, {a3:.0}]   untraced {u:>7.0} [{u1:.0}, {u3:.0}]   \
         {o:+.1}% [{o1:+.1}, {o3:+.1}] over {TRACER_PAIRS} pairs",
        "armed tracer",
    );
    bundle_load(&f.bundle.0, f.service.store().len());
    use kbqa::core::persist::{load_patterns, load_taxonomy, PATTERNS_FILE, TAXONOMY_FILE};
    let (ms, bytes, heap) = open_section_file(
        &f.bundle.0.join(TAXONOMY_FILE),
        load_taxonomy,
        Conceptualizer::heap_bytes,
    );
    println!(
        "  {:<28} {ms:>7.1} ms           {TAXONOMY_FILE} {bytes} B mapped, heap {heap} B",
        "taxonomy open"
    );
    let (ms, bytes, heap) = open_section_file(
        &f.bundle.0.join(PATTERNS_FILE),
        load_patterns,
        PatternIndex::heap_bytes,
    );
    println!(
        "  {:<28} {ms:>7.1} ms           {PATTERNS_FILE} {bytes} B mapped, heap {heap} B",
        "patterns open"
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

    // The paper's online bound (Sec 3.3): a question costs O(|P|), with
    // entities, concepts and values per question bounded constants, so the
    // per-question cost follows |P| (the KB's predicates) and not the
    // store's size.
    let quick = fixture(WorldConfig::small(SEED), 4_000, 12_000, COLD_QUESTIONS);
    let rows = [curve_row("quick", &quick), curve_row("large_1m", &f)];
    drop(quick);
    print_curve(&rows);
}

/// Median, first and third quartile of `values`.
fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| values[((values.len() - 1) as f64 * q).round() as usize];
    [at(0.5), at(0.25), at(0.75)]
}

/// Fastest of three runs of `f`, in ms.
fn best_ms(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// `ServingArtifacts::load` of the bundle in `dir`, split three ways: the
/// one digest pass over the three section files (both Fx-64 chains, as
/// their opens run it), the rest of their opens (mapping, the table and
/// section checks, the sidecar reads), and everything else (`model.json`,
/// the manifest). Each figure is the fastest of three.
fn bundle_load(dir: &std::path::Path, triples: usize) {
    use kbqa::core::persist::{
        load_patterns, load_taxonomy, PATTERNS_FILE, STORE_FILE, TAXONOMY_FILE,
    };
    let load = best_ms(|| {
        black_box(ServingArtifacts::load(dir).expect("load serving bundle"));
    });
    let maps: Vec<kbqa::rdf::mmap::Mmap> = [STORE_FILE, TAXONOMY_FILE, PATTERNS_FILE]
        .iter()
        .map(|name| {
            let file = std::fs::File::open(dir.join(name)).expect("section file");
            kbqa::rdf::mmap::Mmap::map_file(&file).expect("map section file")
        })
        .collect();
    let digest = best_ms(|| {
        for map in &maps {
            black_box(kbqa::rdf::sections::file_digests(map.bytes()));
        }
    });
    let opens = best_ms(|| {
        black_box(kbqa::rdf::Snapshot::open(&dir.join(STORE_FILE)).expect("open store.snap"));
        black_box(load_taxonomy(&dir.join(TAXONOMY_FILE)).expect("open taxonomy.snap"));
        black_box(load_patterns(&dir.join(PATTERNS_FILE)).expect("open patterns.snap"));
    });
    let snap_bytes = maps[0].bytes().len();
    println!(
        "  {:<28} {load:>7.1} ms           digest pass {digest:.1}, open checks {:.1}, rest {:.1} ms; \
         store.snap {snap_bytes} B ({:.1} B/triple), {triples} triples",
        "bundle load",
        opens - digest,
        load - opens,
        snap_bytes as f64 / triples as f64,
    );
}

/// Fastest of three timed passes of `pass`, in ns per one of its `items`.
fn ns_per(items: usize, pass: impl FnMut()) -> f64 {
    best_ms(pass) * 1e6 / items as f64
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
