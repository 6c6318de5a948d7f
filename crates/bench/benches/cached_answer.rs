//! Cold vs cached answer latency — the case for the server's answer cache.
//!
//! "QA Is the New KR" argues repeated QA-pair lookups dominate live QA
//! traffic; the cache turns each repeat from a full Eq (7) enumeration plus
//! rendering into a sharded-LRU probe plus one copy of the stored bytes.
//! This bench quantifies the gap on the same question suite, with the
//! cache holding rendered answers exactly as the server does:
//!
//! * `cold`   — every question runs the engine and renders its JSON
//!   (`KbqaService::answer_into`);
//! * `cached` — every question probes a pre-warmed `RenderedCache` and
//!   copies the hit's body, the steady state of a server seeing recurring
//!   traffic;
//! * `miss_then_hit` — a cleared cache absorbing the suite once, then being
//!   re-asked: one warm-up pass amortized over two;
//! * `swap_then_requery` — the live-ops path: a cache warmed under one
//!   model epoch, then the same model served at the next epoch
//!   (`with_model`) and a full re-ask under it. Every versioned key misses (the invalidation is the epoch
//!   prefix, not a flush), so this prices a hot swap's cold-cache tax.

use criterion::{criterion_group, criterion_main, Criterion};

use kbqa_bench::Session;
use kbqa_core::service::{KbqaService, QaRequest};
use kbqa_corpus::benchmark;
use kbqa_server::{CacheConfig, RenderedAnswer, RenderedCache};

/// The server's `/answer` path: probe, and on a miss render and insert.
/// Returns whether the question was answered; `out` holds the body.
fn get_or_render(
    cache: &RenderedCache,
    service: &KbqaService,
    request: &QaRequest,
    out: &mut Vec<u8>,
) -> bool {
    out.clear();
    let key = service.cache_key(request);
    if let Some(hit) = cache.get(&key) {
        out.extend_from_slice(hit.body());
        return hit.refusal().is_none();
    }
    let rendered = service.answer_into(request, out);
    cache.insert(key, RenderedAnswer::new(rendered.refusal, out));
    rendered.refusal.is_none()
}

fn bench_cached_answer(c: &mut Criterion) {
    let session = Session::build("bench", kbqa_corpus::WorldConfig::small(42), 3000);
    let bench = benchmark::qald_like(&session.world, "cache", 40, 30, 0.2, 75);
    let service = session.service();
    let requests: Vec<QaRequest> = bench
        .questions
        .iter()
        .map(|q| QaRequest::new(&q.question))
        .collect();
    let keys: Vec<String> = requests.iter().map(|r| service.cache_key(r)).collect();
    let mut out = Vec::new();

    let mut group = c.benchmark_group("cached_answer");
    group.sample_size(20);

    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for request in &requests {
                out.clear();
                let rendered = service.answer_into(std::hint::black_box(request), &mut out);
                answered += usize::from(rendered.refusal.is_none());
            }
            answered
        })
    });

    let warm = RenderedCache::new(CacheConfig::default());
    for request in &requests {
        get_or_render(&warm, service, request, &mut out);
    }
    group.bench_function("cached", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for key in &keys {
                let hit = warm.get(std::hint::black_box(key)).expect("pre-warmed");
                out.clear();
                out.extend_from_slice(hit.body());
                answered += usize::from(hit.refusal().is_none());
            }
            answered
        })
    });

    group.bench_function("miss_then_hit", |b| {
        b.iter(|| {
            let cache = RenderedCache::new(CacheConfig::default());
            let mut answered = 0usize;
            for _round in 0..2 {
                for request in &requests {
                    answered += usize::from(get_or_render(&cache, service, request, &mut out));
                }
            }
            answered
        })
    });

    // The same model at the next epoch: what a model reload swaps in.
    let next = service.with_model(service.model());
    group.bench_function("swap_then_requery", |b| {
        b.iter(|| {
            let cache = RenderedCache::new(CacheConfig::default());
            let mut answered = 0usize;
            // Warm under the current epoch…
            for request in &requests {
                get_or_render(&cache, service, request, &mut out);
            }
            // …swap (the epoch bump re-keys everything), re-ask the suite
            // cold.
            for request in &requests {
                answered += usize::from(get_or_render(&cache, &next, request, &mut out));
            }
            answered
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cached_answer);
criterion_main!(benches);
