//! The fixture every workload shares: a generated world, a model learned on
//! it, the serving bundle on disk, and the question streams with their gold
//! answers. Built once per seed and benchmark binary, and reused from the
//! build-output directory.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use kbqa_core::decompose::PatternIndex;
use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::persist::{self, ServingArtifacts};
use kbqa_core::service::{KbqaService, QaRequest};
use kbqa_corpus::benchmark::{complex_suite, qald_like};
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use serde::{Deserialize, Serialize};

/// Distinct questions in the hot set: a quarter of the server's default
/// 4096-entry answer cache, so it stays resident.
pub const HOT_QUESTIONS: usize = 1024;
/// Distinct questions in the cold cycle: 8x the answer cache, so cyclic
/// access never hits.
pub const COLD_QUESTIONS: usize = 32_768;
/// Other fixtures kept on disk beside the current one.
const KEPT_FIXTURES: usize = 4;

const STREAMS_FILE: &str = "streams.json";
const INFO_FILE: &str = "fixture.json";

/// World size and corpus sizes of a fixture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `WorldConfig::large_1m`, 20 000 training pairs — what is measured.
    Full,
    /// `WorldConfig::tiny`, 800 training pairs — plumbing checks only.
    Smoke,
}

impl Scale {
    fn world(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Full => WorldConfig::large_1m(seed),
            Scale::Smoke => WorldConfig::tiny(seed),
        }
    }

    fn training_pairs(self) -> usize {
        match self {
            Scale::Full => 20_000,
            Scale::Smoke => 800,
        }
    }

    /// Pairs drawn for the serving streams before deduplication.
    fn stream_pairs(self) -> usize {
        match self {
            Scale::Full => 60_000,
            Scale::Smoke => 4_000,
        }
    }

    /// A fixture holds what the code under test made of the seed — the
    /// learned model, the snapshot and bundle formats, the oracle's question
    /// streams — and what making it cost, so it is good for the binary that
    /// built it and no other: `build` names that binary.
    fn dir_name(self, seed: u64, build: &str) -> String {
        match self {
            Scale::Full => format!("{seed}-{build}"),
            Scale::Smoke => format!("smoke-{seed}-{build}"),
        }
    }
}

/// One served question and the answers that count as right.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Question {
    pub text: String,
    /// Acceptable top answers; empty when the question has no gold answer
    /// (chatter, and the non-BFQ kinds that are refused by design).
    pub gold: Vec<String>,
}

/// The question pools the workloads draw from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Streams {
    /// Fits the answer cache; drawn Zipf(1.0).
    pub hot: Vec<Question>,
    /// Floods the answer cache; walked as a cycle.
    pub cold: Vec<Question>,
    /// Ranking / comparison / listing / descriptive questions: a failed BFQ
    /// pass, a decomposition attempt, then a typed refusal.
    pub refused: Vec<Question>,
    /// The paper's Table 15 complex questions, answered by decomposition.
    pub complex: Vec<Question>,
}

/// What building the fixture cost — offline work that later PRs may move.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FixtureInfo {
    pub seed: u64,
    pub world_generate_s: f64,
    pub learn_s: f64,
    pub templates: usize,
    pub triples: usize,
}

pub struct Fixture {
    /// The serving bundle directory (`store.snap`, model, taxonomy, …).
    pub bundle: PathBuf,
    pub streams: Streams,
    pub info: FixtureInfo,
}

/// Where fixtures and traces go: the cargo target directory this binary was
/// built into (`<target>/<profile>/benchmark` → `<target>`).
pub fn output_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    exe.parent()
        .and_then(Path::parent)
        .expect("benchmark binary sits in <target>/<profile>/")
        .to_path_buf()
}

/// Names the running binary: its length and modification time, which a
/// rebuild from changed sources changes.
fn build_fingerprint() -> String {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let meta = std::fs::metadata(&exe).expect("metadata of the running benchmark binary");
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    format!("{:x}-{:x}", meta.len(), modified)
}

impl Fixture {
    /// Load the fixture of `seed` and this binary, building it first when
    /// absent.
    pub fn obtain(seed: u64, scale: Scale) -> Self {
        let root = output_root().join("benchmark-fixture");
        let dir = root.join(scale.dir_name(seed, &build_fingerprint()));
        if !dir.exists() {
            prune(&root);
            // Built aside and moved into place whole: a reader never sees
            // half a fixture, and of two builders at once one wins.
            let aside = root.join(format!("building-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&aside);
            build(seed, scale, &aside);
            if std::fs::rename(&aside, &dir).is_err() {
                // Somebody else's whole fixture is in place already.
                let _ = std::fs::remove_dir_all(&aside);
            }
        }
        let load = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        };
        Fixture {
            streams: serde_json::from_str(&load(STREAMS_FILE)).expect("parse streams.json"),
            info: serde_json::from_str(&load(INFO_FILE)).expect("parse fixture.json"),
            bundle: dir,
        }
    }

    /// Bytes of the serving bundle on disk (the files the server loads).
    pub fn bundle_bytes(&self) -> Result<u64, String> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.bundle).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            let name = entry.file_name();
            if name != STREAMS_FILE && name != INFO_FILE {
                total += entry.metadata().map_err(|e| e.to_string())?.len();
            }
        }
        Ok(total)
    }

    /// The bundle loaded as the server loads it: the in-process oracle.
    pub fn oracle(&self) -> KbqaService {
        ServingArtifacts::load(&self.bundle)
            .expect("load serving bundle")
            .into_service()
    }
}

/// Keep disk use bounded when the driver walks many seeds, or the binary is
/// rebuilt many times: drop the oldest fixtures beyond [`KEPT_FIXTURES`].
fn prune(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    dirs.sort();
    let excess = dirs.len().saturating_sub(KEPT_FIXTURES);
    for (_, dir) in dirs.into_iter().take(excess) {
        // Best effort: a fixture that cannot be removed only costs disk.
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn build(seed: u64, scale: Scale, dir: &Path) {
    eprintln!(
        "[benchmark] building fixture for seed {seed} in {}",
        dir.display()
    );
    let started = Instant::now();
    let world = World::generate(scale.world(seed));
    let world_generate_s = started.elapsed().as_secs_f64();

    // Train on one corpus, serve questions from another: the training seed
    // and the stream seed are different substreams of `--seed`.
    let train_seed = seed.wrapping_mul(2).wrapping_add(1);
    let stream_seed = seed.wrapping_mul(2).wrapping_add(2);
    let corpus = QaCorpus::generate(
        &world,
        &CorpusConfig::with_pairs(train_seed, scale.training_pairs()),
    );
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let learn_started = Instant::now();
    let (model, _) = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    )
    .learn(&pairs, &LearnerConfig::default());
    let learn_s = learn_started.elapsed().as_secs_f64();
    let templates = model.stats.distinct_templates;
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
        .save(dir)
        .expect("save serving bundle");

    let streams = generate_streams(&world, stream_seed, scale);
    persist::save_json(&streams, &dir.join(STREAMS_FILE)).expect("save streams.json");
    let info = FixtureInfo {
        seed,
        world_generate_s,
        learn_s,
        templates,
        triples: world.store.len(),
    };
    persist::save_json(&info, &dir.join(INFO_FILE)).expect("save fixture.json");
    eprintln!(
        "[benchmark] fixture built in {:.1}s ({} triples, {} templates)",
        started.elapsed().as_secs_f64(),
        info.triples,
        info.templates
    );
}

fn generate_streams(world: &World, seed: u64, scale: Scale) -> Streams {
    let corpus = QaCorpus::generate(world, &CorpusConfig::with_pairs(seed, scale.stream_pairs()));
    // Deduplicate on the form the answer cache keys on, so two spellings of
    // one question never count as two distinct cache entries.
    let mut seen = HashSet::new();
    let mut distinct = corpus.pairs.iter().filter_map(|pair| {
        let key = QaRequest::new(pair.question.as_str()).normalized_question();
        seen.insert(key).then(|| Question {
            text: pair.question.clone(),
            gold: pair.gold.as_ref().map_or_else(Vec::new, |gold| {
                world.gold_values(&world.intents[gold.intent.index()], gold.entity)
            }),
        })
    });
    // At smoke scale the tiny world cannot fill the pools; split what exists.
    let hot_len = match scale {
        Scale::Full => HOT_QUESTIONS,
        Scale::Smoke => 64,
    };
    let hot: Vec<Question> = distinct.by_ref().take(hot_len).collect();
    let cold: Vec<Question> = distinct.take(COLD_QUESTIONS).collect();
    if scale == Scale::Full {
        assert_eq!(
            (hot.len(), cold.len()),
            (HOT_QUESTIONS, COLD_QUESTIONS),
            "the stream corpus is too small for the question pools"
        );
    }
    assert!(!hot.is_empty() && !cold.is_empty(), "empty question pool");

    let mut seen = HashSet::new();
    let refused: Vec<Question> = qald_like(world, "refused", 1024, 0, 0.0, seed)
        .questions
        .into_iter()
        .filter(|q| seen.insert(q.question.clone()))
        .map(|q| Question {
            text: q.question,
            gold: Vec::new(),
        })
        .collect();
    let complex = complex_suite(world)
        .into_iter()
        .map(|q| Question {
            text: q.question,
            gold: q.gold_answers,
        })
        .collect();
    Streams {
        hot,
        cold,
        refused,
        complex,
    }
}
