//! `bigworld` — million-entity storage benchmark (`BENCH_PR6.json`).
//!
//! ```text
//! bigworld [--profiles large,mega] [--questions N] [--pairs N]
//!          [--out PATH] [--cold-parse auto|on|off] [--budget-secs S]
//!          [--shards 1,2,4,8]
//! ```
//!
//! For each profile this bin builds the world, writes the zero-copy
//! snapshot, maps it back, and measures what the tentpole claims:
//!
//! * **snapshot load**: `mmap` open+validate vs a cold JSON parse of the
//!   same store — the "map the file, flip the epoch" warm-start win,
//! * **serving throughput**: a full QA service (model learned on this
//!   world's corpus) answering through the **mapped** store, cold
//!   (cache-less single questions) and as a batch,
//! * **grounding throughput**: raw name→entity lookups per second against
//!   the snapshot's sorted name section.
//!
//! Profiles: `large` = `WorldConfig::large_1m` (≈1.2M triples, the CI
//! medium-world job), `mega` = `WorldConfig::mega_10m` (10M+ triples,
//! 1M+ entities — the paper's KB scale). The cold JSON parse defaults to
//! `auto`: measured on `large`, skipped on `mega` (a multi-gigabyte JSON
//! tree measures patience, not the format).
//!
//! `--budget-secs` makes the bin exit nonzero if the whole run (build →
//! snapshot → map → answer) exceeds the budget — the CI time gate.
//!
//! # Shard sweep (`--shards`, PR 8)
//!
//! `--shards 1,2,4,8` re-runs the serving passes (cache-cold single
//! questions + `answer_batch`) at each shard count on the same world,
//! model, and question set. `1` is the plain mapped single-store path (no
//! router anywhere on the hot path); N > 1 partitions through a
//! [`kbqa_core::ShardPlan`] — each shard a self-contained in-memory store
//! with a direct `(subject, predicate) → run` adjacency hash index over its
//! cut, so per-lookup cost drops from a binary search over the
//! mapped columns to one hash probe. Partition time, cut balance (skew,
//! replication overhead) and both throughputs are recorded per count so
//! `BENCH_PR8.json` carries the whole scaling curve for this machine.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::persist;
use kbqa_core::service::KbqaService;
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use kbqa_rdf::{BackendKind, Snapshot, StoreStats, TripleStore};

#[derive(Serialize, Deserialize)]
struct ProfileReport {
    /// Profile name (`large_1m`, `mega_10m`).
    profile: String,
    /// Stored (deduplicated) triples.
    triples: usize,
    /// Distinct graph nodes.
    nodes: usize,
    /// Distinct resource (entity/CVT) nodes.
    entities: usize,
    /// Distinct predicates.
    predicates: usize,
    /// Wall seconds to generate the world (store + taxonomy + intents).
    world_build_secs: f64,
    /// Snapshot file size, bytes.
    snapshot_bytes: u64,
    /// Wall seconds to write the snapshot (two hash passes + one write).
    snapshot_write_secs: f64,
    /// Wall seconds to open the snapshot: mmap + full validation, best of
    /// three (page cache warm — the `/admin/reload` case).
    mmap_load_secs: f64,
    /// Legacy JSON size, bytes (0 when the cold parse was skipped).
    json_bytes: u64,
    /// Wall seconds for the legacy path: read + parse + rebuild indexes
    /// (0 when skipped).
    json_cold_parse_secs: f64,
    /// `json_cold_parse_secs / mmap_load_secs` (0 when skipped).
    mmap_speedup_vs_cold_parse: f64,
    /// Cache-cold QA throughput through the mapped store: distinct
    /// questions, one pass, no answer cache.
    serving_cold_questions_per_sec: f64,
    /// `answer_batch` throughput over the same set, questions/sec.
    serving_batch_questions_per_sec: f64,
    /// Raw name→entity grounding lookups/sec against the mapped name
    /// section.
    grounding_lookups_per_sec: f64,
    /// The `--shards` sweep: serving throughput per shard count (empty
    /// when the sweep was not requested).
    #[serde(default)]
    shard_runs: Vec<ShardRun>,
}

/// One `--shards` sweep point: the serving passes at one shard count.
#[derive(Serialize, Deserialize)]
struct ShardRun {
    /// Shard count (1 = plain single-store path, no router).
    shards: usize,
    /// Wall seconds to partition the store (subject-hash cut + per-shard
    /// BFS closure + adjacency index builds); 0 at one shard.
    partition_secs: f64,
    /// Largest shard's owned-triple count over the mean (1.0 = perfectly
    /// balanced); 0 at one shard.
    skew: f64,
    /// Replicated triples (closure copies) over owned triples across the
    /// cut; 0 at one shard.
    replication_overhead: f64,
    /// Cache-cold single-question throughput through the router, q/s.
    cold_questions_per_sec: f64,
    /// `answer_batch` throughput through the scatter-gather scheduler, q/s.
    batch_questions_per_sec: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    /// Which PR recorded this file.
    pr: String,
    /// Per-profile measurements.
    profiles: Vec<ProfileReport>,
}

enum ColdParse {
    Auto,
    On,
    Off,
}

fn run_profile(
    name: &str,
    config: WorldConfig,
    questions: usize,
    pairs: usize,
    cold_parse: bool,
    shard_counts: &[usize],
) -> ProfileReport {
    eprintln!("[bigworld] {name}: generating world…");
    let t = Instant::now();
    let world = World::generate(config);
    let world_build_secs = t.elapsed().as_secs_f64();
    let stats = StoreStats::of(&world.store);
    eprintln!(
        "[bigworld] {name}: {} in {world_build_secs:.1}s",
        world.store.len()
    );

    let dir = std::env::temp_dir().join(format!("kbqa-bigworld-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snap_path = dir.join(format!("{name}.snap"));

    // Snapshot write.
    let t = Instant::now();
    world.store.write_snapshot(&snap_path).expect("snapshot");
    let snapshot_write_secs = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snap_path).expect("snap meta").len();

    // Mapped load: best of three (validation + mmap, page cache warm).
    let mut mmap_load_secs = f64::INFINITY;
    let mut mapped: Option<TripleStore> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let store = TripleStore::from_snapshot(Snapshot::open(&snap_path).expect("open snapshot"));
        mmap_load_secs = mmap_load_secs.min(t.elapsed().as_secs_f64());
        mapped = Some(store);
    }
    let mapped = Arc::new(mapped.expect("mapped store"));
    assert_eq!(mapped.backend_kind(), BackendKind::Mapped);
    assert_eq!(mapped.len(), world.store.len());
    eprintln!(
        "[bigworld] {name}: snapshot {snapshot_bytes}B written in \
         {snapshot_write_secs:.2}s, mapped in {mmap_load_secs:.4}s"
    );

    // Cold JSON parse of the same store (the pre-snapshot load path).
    let (mut json_bytes, mut json_cold_parse_secs) = (0u64, 0.0f64);
    if cold_parse {
        let json_path = dir.join(format!("{name}.json"));
        persist::save_json(world.store.as_ref(), &json_path).expect("json save");
        json_bytes = std::fs::metadata(&json_path).expect("json meta").len();
        let t = Instant::now();
        let parsed = persist::load_store_json(&json_path).expect("json load");
        json_cold_parse_secs = t.elapsed().as_secs_f64();
        assert_eq!(parsed.len(), world.store.len());
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(persist::checksum_path(&json_path)).ok();
        eprintln!(
            "[bigworld] {name}: JSON {json_bytes}B cold-parsed in {json_cold_parse_secs:.2}s \
             ({:.0}x slower than mmap)",
            json_cold_parse_secs / mmap_load_secs.max(1e-9)
        );
    }

    // Offline pipeline on this world, then serve through the MAPPED store.
    eprintln!("[bigworld] {name}: learning on {pairs} pairs…");
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(17, pairs));
    let ner = Arc::new(GazetteerNer::from_store(&mapped));
    let learner = Learner::new(
        &mapped,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let qa_pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = learner.learn(&qa_pairs, &LearnerConfig::default());
    let service = KbqaService::builder(
        Arc::clone(&mapped),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();

    // Distinct questions for the serving pass.
    let mut seen = std::collections::HashSet::new();
    let question_set: Vec<&str> = corpus
        .pairs
        .iter()
        .map(|p| p.question.as_str())
        .filter(|q| seen.insert(*q))
        .take(questions)
        .collect();

    // Cache-cold single questions through the mapped store.
    let t = Instant::now();
    let mut answered = 0usize;
    for q in &question_set {
        let response = service.answer_text(q);
        answered += usize::from(!response.answers.is_empty());
    }
    let serving_cold_questions_per_sec =
        question_set.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);
    eprintln!(
        "[bigworld] {name}: {answered}/{} answered, {serving_cold_questions_per_sec:.0} q/s cold",
        question_set.len()
    );

    // Batch fan-out over the same set.
    let requests: Vec<_> = question_set
        .iter()
        .map(|q| kbqa_core::service::QaRequest::new(*q))
        .collect();
    let t = Instant::now();
    let batch = service.answer_batch(&requests);
    assert_eq!(batch.len(), question_set.len());
    let serving_batch_questions_per_sec =
        question_set.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);

    // The --shards sweep: the same two serving passes per shard count.
    let mut shard_runs = Vec::new();
    for &n in shard_counts {
        let (svc, partition_secs, skew, replication_overhead);
        if n > 1 {
            eprintln!("[bigworld] {name}: partitioning into {n} shards…");
            let t = Instant::now();
            let sharded = service.with_shards(kbqa_core::ShardPlan::new(n));
            partition_secs = t.elapsed().as_secs_f64();
            let stats = sharded
                .shard_router()
                .expect("router after with_shards")
                .stats()
                .clone();
            skew = stats.skew();
            replication_overhead = stats.replication_overhead();
            svc = sharded;
        } else {
            (partition_secs, skew, replication_overhead) = (0.0, 0.0, 0.0);
            svc = service.clone();
        }

        // Both passes run on a fresh thread so every sweep point starts
        // from a cold thread-local scratch — otherwise the single-shard
        // point would inherit the main thread's warmed buffers while the
        // sharded batch workers start cold, and the comparison would
        // flatter whichever point ran last on the main thread.
        let (cold_questions_per_sec, batch_questions_per_sec) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let t = Instant::now();
                    for q in &question_set {
                        let _ = svc.answer_text(q);
                    }
                    let cold = question_set.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);

                    let t = Instant::now();
                    let batch = svc.answer_batch(&requests);
                    assert_eq!(batch.len(), question_set.len());
                    let per_sec = question_set.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);
                    (cold, per_sec)
                })
                .join()
                .expect("sweep thread")
        });

        eprintln!(
            "[bigworld] {name}: shards={n} cold {cold_questions_per_sec:.0} q/s, \
             batch {batch_questions_per_sec:.0} q/s \
             (partition {partition_secs:.1}s, skew {skew:.2}, repl {replication_overhead:.2})"
        );
        shard_runs.push(ShardRun {
            shards: n,
            partition_secs,
            skew,
            replication_overhead,
            cold_questions_per_sec,
            batch_questions_per_sec,
        });
    }

    // Raw grounding against the mapped name section.
    let probe_names: Vec<String> = mapped
        .name_entries()
        .take(10_000)
        .map(|(n, _)| n.to_owned())
        .collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for _ in 0..4 {
        for n in &probe_names {
            hits += usize::from(!mapped.entities_named(n).is_empty());
        }
    }
    let grounding_lookups_per_sec =
        (probe_names.len() * 4) as f64 / t.elapsed().as_secs_f64().max(1e-12);
    assert!(hits > 0, "grounding probes must hit");

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_dir_all(&dir).ok();

    ProfileReport {
        profile: name.to_owned(),
        triples: stats.triples,
        nodes: stats.nodes,
        entities: stats.resources,
        predicates: stats.predicates,
        world_build_secs,
        snapshot_bytes,
        snapshot_write_secs,
        mmap_load_secs,
        json_bytes,
        json_cold_parse_secs,
        mmap_speedup_vs_cold_parse: if json_cold_parse_secs > 0.0 {
            json_cold_parse_secs / mmap_load_secs.max(1e-9)
        } else {
            0.0
        },
        serving_cold_questions_per_sec,
        serving_batch_questions_per_sec,
        grounding_lookups_per_sec,
        shard_runs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profiles = "large,mega".to_owned();
    let mut out = "BENCH_PR6.json".to_owned();
    let mut questions = 200usize;
    let mut pairs = 2_000usize;
    let mut cold_parse = ColdParse::Auto;
    let mut budget_secs: Option<f64> = None;
    let mut shard_counts: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--profiles" => {
                i += 1;
                profiles = args.get(i).cloned().unwrap_or(profiles);
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or(out);
            }
            "--questions" => {
                i += 1;
                questions = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(200);
            }
            "--pairs" => {
                i += 1;
                pairs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(2_000);
            }
            "--cold-parse" => {
                i += 1;
                cold_parse = match args.get(i).map(String::as_str) {
                    Some("on") => ColdParse::On,
                    Some("off") => ColdParse::Off,
                    _ => ColdParse::Auto,
                };
            }
            "--budget-secs" => {
                i += 1;
                budget_secs = args.get(i).and_then(|s| s.parse().ok());
            }
            "--shards" => {
                i += 1;
                shard_counts = args
                    .get(i)
                    .map(|s| {
                        s.split(',')
                            .filter_map(|n| n.trim().parse().ok())
                            .filter(|&n| n >= 1)
                            .collect()
                    })
                    .unwrap_or_default();
            }
            other => {
                eprintln!(
                    "[bigworld] unknown argument: {other}\n\
                     usage: bigworld [--profiles large,mega] [--questions N] [--pairs N] \
                     [--out PATH] [--cold-parse auto|on|off] [--budget-secs S] \
                     [--shards 1,2,4,8]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let started = Instant::now();
    let mut report = Report {
        pr: if shard_counts.is_empty() {
            "PR6"
        } else {
            "PR8"
        }
        .to_owned(),
        profiles: Vec::new(),
    };
    for name in profiles.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (tag, config, default_cold) = match name {
            "large" => ("large_1m", WorldConfig::large_1m(21), true),
            "mega" => ("mega_10m", WorldConfig::mega_10m(21), false),
            other => {
                eprintln!("[bigworld] unknown profile: {other} (expected large|mega)");
                std::process::exit(2);
            }
        };
        let do_cold = match cold_parse {
            ColdParse::Auto => default_cold,
            ColdParse::On => true,
            ColdParse::Off => false,
        };
        report.profiles.push(run_profile(
            tag,
            config,
            questions,
            pairs,
            do_cold,
            &shard_counts,
        ));
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    eprintln!("[bigworld] wrote {out}");

    let elapsed = started.elapsed().as_secs_f64();
    if let Some(budget) = budget_secs {
        if elapsed > budget {
            eprintln!("[bigworld] FAIL: run took {elapsed:.0}s, budget {budget:.0}s");
            std::process::exit(1);
        }
        eprintln!("[bigworld] within budget: {elapsed:.0}s ≤ {budget:.0}s");
    }
}
