//! Steady-state allocation budget of the optimized BFQ kernel (PR 4).
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! pass has grown every scratch buffer to its working capacity, repeated
//! `QaEngine::score_bfq` calls — entity grounding, template lookup,
//! predicate scan, value enumeration, ranking — must perform **zero** heap
//! allocations. Only answer materialization (owned `Answer` output) is
//! allowed to allocate, and it is excluded here by using the scoring entry
//! point.
//!
//! PR 7 extends the budget to the stage tracer: the same workload with the
//! tracer armed on every call — eight lap timestamps per question folded
//! into shared atomic histograms — must also allocate **zero** times.
//! Observability that costs heap on the hot path would be observability
//! the server could not afford to leave on.
//!
//! PR 13 extends it to small batches: a 16-question `answer_batch` (the
//! lane size of a streamed `/batch`) allocates only the responses it hands
//! back — it runs on the caller's warm scratch instead of spawning threads
//! whose scratch would start empty.
//!
//! Then the cache key: `KbqaService::cache_key` renders epoch,
//! normalized question and effective config straight into one pre-sized
//! `String` — exactly one allocation per key, overrides or not.
//!
//! The rendered serving path closes the loop: a warm 16-question lane
//! rendered by `KbqaService::answer_batch_into` — JSON written straight
//! from ranked ids, integer and year literals formatted in place — allocates
//! nothing, and the same lane through the server's rendered-bytes cache
//! (`BatchLane`) costs exactly an entry plus an owned key per miss and
//! nothing per hit.
//!
//! In front of all of it, the request decode: `serde_json::from_slice` of
//! the serving benchmark's `{"question":…,"request_id":N}` body allocates
//! exactly once — the question's `String`.
//!
//! This file intentionally holds a single test: the allocator counter is
//! process-global, and a concurrently running test would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use kbqa::prelude::*;
use kbqa::rdf::Surface;
use kbqa_server::{BatchLane, CacheConfig, RenderedAnswer, RenderedCache};

#[test]
fn steady_state_kernel_performs_zero_allocations() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 600));
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
    let engine = QaEngine::with_shared(&world.store, &world.conceptualizer, &model, &ner);

    // A mixed workload: answerable population/spouse/area questions plus a
    // refusal, all pre-tokenized (tokenization is the caller's cost).
    let questions: Vec<String> = corpus
        .pairs
        .iter()
        .take(24)
        .map(|p| p.question.clone())
        .chain(std::iter::once("why is the sky blue".to_owned()))
        .collect();
    let tokenized: Vec<_> = questions.iter().map(|q| tokenize(q)).collect();

    let mut scratch = ScratchSpace::new();
    // Warmup: grow every buffer (mention arenas, maps, value arena, top-k
    // storage, slot table) to steady-state capacity.
    for _ in 0..3 {
        for tokens in &tokenized {
            let _ = engine.score_bfq(tokens, &mut scratch);
        }
    }

    let before = allocations();
    let mut answered = 0usize;
    for _ in 0..50 {
        for tokens in &tokenized {
            if engine.score_bfq(tokens, &mut scratch).is_ok() {
                answered += 1;
            }
        }
    }
    let delta = allocations() - before;
    assert!(answered > 0, "workload must answer something");
    assert_eq!(
        delta,
        0,
        "steady-state score_bfq allocated {delta} times over {} calls",
        50 * tokenized.len()
    );

    // Phase 2: the same steady state with stage tracing armed on every
    // call. Laps write into the scratch-resident breakdown, finish() folds
    // it into pre-sized atomic histograms — none of which may touch the
    // heap.
    let stats = StageStats::new();
    for tokens in &tokenized {
        scratch.trace.begin(true);
        let _ = engine.score_bfq(tokens, &mut scratch);
        let _ = scratch.trace.finish(&stats);
    }

    let before = allocations();
    for _ in 0..50 {
        for tokens in &tokenized {
            scratch.trace.begin(true);
            let _ = engine.score_bfq(tokens, &mut scratch);
            let _ = scratch.trace.finish(&stats);
        }
    }
    let delta = allocations() - before;
    assert!(
        stats.traced_requests() > 0,
        "tracer must have recorded the traced phase"
    );
    assert_eq!(
        delta,
        0,
        "traced steady-state score_bfq allocated {delta} times over {} calls",
        50 * tokenized.len()
    );

    // Phase 3 (PR 10): the serving-edge serializer. `serialize_into` writes
    // a QaResponse straight into a caller-owned buffer — after warmup has
    // grown the buffer to its high-water mark, re-serializing mixed
    // responses (answers with floats/strings, refusals, real epoch) must
    // never touch the heap. No serde `Value` tree, no intermediate String.
    let service = KbqaService::builder(
        std::sync::Arc::clone(&world.store),
        std::sync::Arc::clone(&world.conceptualizer),
        std::sync::Arc::new(model),
    )
    .ner(std::sync::Arc::new(ner))
    .build();
    let responses: Vec<QaResponse> = questions
        .iter()
        .map(|q| service.answer(&QaRequest::new(q)))
        .collect();
    assert!(responses.iter().any(|r| r.answered()));
    assert!(responses.iter().any(|r| !r.answered()));
    let mut buf = Vec::new();
    for response in &responses {
        buf.clear();
        response.serialize_into(&mut buf);
    }

    let before = allocations();
    let mut bytes = 0usize;
    for _ in 0..50 {
        for response in &responses {
            buf.clear();
            response.serialize_into(&mut buf);
            bytes += buf.len();
        }
    }
    let delta = allocations() - before;
    assert!(bytes > 0, "serializer must produce output");
    assert_eq!(
        delta,
        0,
        "steady-state serialize_into allocated {delta} times over {} calls",
        50 * responses.len()
    );

    // Phase 4 (PR 13): a small `answer_batch` — 16 questions, the lane a
    // streamed `/batch` computes at a time — runs on the caller's warm
    // scratch, whatever the core count: it allocates its owned responses
    // and nothing else, exactly what the same questions cost one at a time.
    // (Spawned threads would pay for the spawn and for growing a scratch
    // of their own from empty on every lane.)
    let lane: Vec<QaRequest> = questions.iter().take(16).map(QaRequest::new).collect();
    for _ in 0..3 {
        let _ = service.answer_batch(&lane);
    }
    let before = allocations();
    let one_at_a_time: Vec<QaResponse> = lane.iter().map(|r| service.answer(r)).collect();
    let owned_responses = allocations() - before;
    let before = allocations();
    let batched = service.answer_batch(&lane);
    let delta = allocations() - before;
    assert_eq!(batched.len(), one_at_a_time.len());
    assert!(batched.iter().any(|r| r.answered()));
    assert!(
        delta <= owned_responses,
        "a 16-question answer_batch allocated {delta} times; its responses alone cost \
         {owned_responses} (available_parallelism = {:?})",
        std::thread::available_parallelism()
    );

    // The same lane cost 151 allocations before PR 18 stopped re-rendering
    // provenance strings that repeat from one ranked answer to the next
    // (the world and the questions are seed-deterministic).
    assert!(
        delta <= 151,
        "a 16-question answer_batch lane allocated {delta} times, more than at PR 13"
    );

    // Phase 5 (PR 18): the cache key every request pays for, hit or miss —
    // one buffer, sized up front, never regrown.
    let keyed: Vec<QaRequest> = vec![
        QaRequest::new("What is  the population of Honolulu?"),
        QaRequest::new(&questions[0]).with_top_k(3),
        QaRequest::new(&questions[1])
            .with_min_theta(0.25)
            .with_decompose(false)
            .with_explain(true),
        QaRequest::new(""),
    ];
    let before = allocations();
    let key_bytes: usize = keyed.iter().map(|r| service.cache_key(r).len()).sum();
    let delta = allocations() - before;
    assert!(key_bytes > 0);
    assert_eq!(
        delta,
        keyed.len() as u64,
        "cache_key must allocate exactly once per key"
    );

    // Phase 6: the same lane rendered as JSON straight from the kernel's
    // ranked ids — no `Answer`, no `String`, numbers formatted in place.
    let numeric = lane.iter().any(|request| {
        service.answer(request).answers.iter().any(|answer| {
            answer
                .node
                .is_some_and(|node| matches!(world.store.surface_form(node), Surface::Number(_)))
        })
    });
    assert!(numeric, "the lane must render an integer or year literal");
    let mut out = Vec::new();
    let mut rendered = Vec::new();
    for _ in 0..3 {
        out.clear();
        service.answer_batch_into(&lane, &mut out, &mut rendered);
    }
    out.clear();
    let before = allocations();
    service.answer_batch_into(&lane, &mut out, &mut rendered);
    let delta = allocations() - before;
    assert_eq!(rendered.len(), lane.len());
    assert!(rendered.iter().any(|r| r.refusal.is_none()));
    assert_eq!(
        delta, 0,
        "rendering a warm 16-question lane allocated {delta} times"
    );

    // Phase 7: the lane through the server's rendered-bytes cache. The
    // cache's slab and index are grown past the lane's needs and emptied
    // first, so what is counted is the lane's own cost: an entry and an
    // owned key per miss, nothing per hit.
    let cache = RenderedCache::new(CacheConfig {
        capacity: 1024,
        shards: 1,
    });
    let mut batch_lane = BatchLane::default();
    for _ in 0..3 {
        out.clear();
        batch_lane.answer(&cache, &service, &lane, false, &mut out, |_| {});
    }
    for i in 0..1000 {
        cache.insert(format!("filler {i}"), RenderedAnswer::new(None, b"{}"));
    }
    cache.clear();
    out.clear();
    let before = allocations();
    batch_lane.answer(&cache, &service, &lane, false, &mut out, |_| {});
    let delta = allocations() - before;
    assert_eq!(
        delta,
        2 * lane.len() as u64,
        "a streamed-batch miss must cost exactly its entry and its owned key"
    );
    let missed = out.clone();
    out.clear();
    let mut hits = 0;
    let before = allocations();
    batch_lane.answer(&cache, &service, &lane, false, &mut out, |_| hits += 1);
    let delta = allocations() - before;
    assert_eq!(hits, lane.len());
    assert_eq!(out, missed, "a hit must replay the bytes its miss rendered");
    assert_eq!(delta, 0, "a streamed-batch hit allocated {delta} times");

    // Phase 8: the request decode in front of all of it. `/answer` decodes
    // its body with `serde_json::from_slice`, whose derived `Deserialize`
    // streams off the bytes: the benchmark's body costs the question's
    // `String` and nothing else.
    let bodies: Vec<String> = questions
        .iter()
        .enumerate()
        .map(|(id, q)| {
            let quoted = serde_json::to_string(q).expect("serialize question");
            format!("{{\"question\":{quoted},\"request_id\":{id}}}")
        })
        .collect();
    for (id, (body, question)) in bodies.iter().zip(&questions).enumerate() {
        let before = allocations();
        let request = serde_json::from_slice::<QaRequest>(body.as_bytes()).expect("decodes");
        let delta = allocations() - before;
        assert_eq!(request, QaRequest::new(question).with_request_id(id as u64));
        assert_eq!(delta, 1, "decoding {body} allocated {delta} times");
    }
}
