//! Hot-path benchmarks for the optimized BFQ kernel (PR 4).
//!
//! Three views of the same inference spine:
//!
//! * `bfq_cold` — cache-cold questions (no answer cache in front),
//!   comparing the retained reference enumeration (`bfq_kernel_reference`,
//!   the pre-PR kernel) against the optimized kernel with a fresh scratch
//!   per question (one-shot worst case) and with a per-worker reused
//!   scratch (the serving path).
//! * `bfq_batch` — `KbqaService::answer_batch` throughput over a mixed
//!   question set (per-worker scratch reuse inside).
//! * `bfq_repeat` — the allocation-sensitive loop: the same scratch driven
//!   across the whole question set per iteration, scoring only; this is the
//!   path the zero-allocation test pins, timed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use kbqa_bench::{session::Scale, Session};
use kbqa_core::engine::{QaEngine, ScratchSpace};
use kbqa_core::service::QaRequest;
use kbqa_nlp::{tokenize, TokenizedText};

struct Fixture {
    session: Session,
    questions: Vec<String>,
    tokenized: Vec<TokenizedText>,
}

fn fixture() -> Fixture {
    let session = Session::standard(Scale::Quick, "kba");
    // The first 200 corpus questions of the quick-scale session.
    let questions: Vec<String> = session
        .corpus
        .pairs
        .iter()
        .take(200)
        .map(|p| p.question.clone())
        .collect();
    let tokenized = questions.iter().map(|q| tokenize(q)).collect();
    Fixture {
        session,
        questions,
        tokenized,
    }
}

fn engine(f: &Fixture) -> QaEngine<'_> {
    QaEngine::with_shared(
        &f.session.world.store,
        &f.session.world.conceptualizer,
        &f.session.model,
        f.session.service().ner(),
    )
}

fn bench_cold(c: &mut Criterion) {
    let f = fixture();
    let engine = engine(&f);
    let mut group = c.benchmark_group("bfq_cold");
    // Every mode sweeps the identical full question set per iteration, so
    // the per-element rates are directly comparable across modes.
    group.throughput(Throughput::Elements(f.tokenized.len() as u64));

    group.bench_function("reference_kernel", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for tokens in &f.tokenized {
                answered += usize::from(engine.bfq_kernel_reference(tokens).is_ok());
            }
            answered
        })
    });

    group.bench_function("optimized_one_shot", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for tokens in &f.tokenized {
                let mut scratch = ScratchSpace::new();
                answered += usize::from(
                    !engine
                        .answer_bfq_tokens_with(tokens, &mut scratch)
                        .is_empty(),
                );
            }
            answered
        })
    });

    let mut scratch = ScratchSpace::new();
    group.bench_function("optimized_serving", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for tokens in &f.tokenized {
                answered += usize::from(
                    !engine
                        .answer_bfq_tokens_with(tokens, &mut scratch)
                        .is_empty(),
                );
            }
            answered
        })
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let f = fixture();
    let requests: Vec<QaRequest> = f.questions.iter().map(QaRequest::new).collect();
    let service = f.session.service().clone();
    let mut group = c.benchmark_group("bfq_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests.len() as u64));
    group.bench_function("answer_batch", |b| {
        b.iter(|| service.answer_batch(&requests))
    });
    group.finish();
}

fn bench_repeat(c: &mut Criterion) {
    let f = fixture();
    let engine = engine(&f);
    let mut scratch = ScratchSpace::new();
    // Warm the scratch to steady-state capacity before timing.
    for tokens in &f.tokenized {
        let _ = engine.score_bfq(tokens, &mut scratch);
    }
    let mut group = c.benchmark_group("bfq_repeat");
    group.throughput(Throughput::Elements(f.tokenized.len() as u64));
    group.bench_function("score_all_warm", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for tokens in &f.tokenized {
                if engine.score_bfq(tokens, &mut scratch).is_ok() {
                    answered += 1;
                }
            }
            answered
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold, bench_batch, bench_repeat);
criterion_main!(benches);
