//! Model and serving-artifact persistence.
//!
//! The paper's offline procedure takes 1438 minutes; nobody re-learns on
//! every process start. This module saves and loads the [`LearnedModel`]
//! (and any other serde-serializable artifact) as JSON, rebuilding the
//! derived lookup tables on load.
//!
//! Beyond the single model, [`ServingArtifacts`] bundles **everything a
//! server needs to answer** — knowledge base, taxonomy, model, and the
//! optional pattern index — into one directory, so a
//! serving process can *warm start*: [`ServingArtifacts::load`] +
//! [`ServingArtifacts::into_service`] instead of re-generating the world
//! and re-running EM. The same files back the server's `POST /admin/reload`
//! hot-swap path.
//!
//! The knowledge base, the taxonomy and the pattern index are read-only once
//! built and large at scale, so each is persisted as a section file
//! (`kbqa_rdf::sections`) that loads by `mmap` with no parse and no rebuild:
//! `store.snap` (`kbqa_rdf::snapshot`), `taxonomy.snap`
//! ([`Conceptualizer::from_map`]) and `patterns.snap`
//! ([`PatternIndex::from_map`]). Each checks every offset, id and count at
//! open, so a forged file is a typed error at load, never a panic at request
//! time. The learned model stays JSON ([`save_json`]): it is small and is
//! swapped on its own by the model reload. The NER gazetteer is not
//! persisted at all: it is an index over the snapshot's own name section,
//! built when the service is ([`GazetteerNer::from_store`]).
//!
//! [`GazetteerNer::from_store`]: kbqa_nlp::GazetteerNer::from_store
//!
//! # Atomicity and integrity (PR 5)
//!
//! A crash (or a concurrent reader — the server's `POST /admin/reload`)
//! must never observe a half-written artifact, and a corrupted file must
//! fail loudly instead of serving garbage. Every [`save_json`] therefore:
//!
//! 1. writes the payload to a sibling temp file and `fsync`s it,
//! 2. renames it into place (atomic on POSIX),
//! 3. writes a **checksum sidecar** (`<file>.fxsum`, the Fx-64 digest of
//!    the exact file bytes) the same way.
//!
//! [`load_json`] recomputes the digest and refuses a mismatch with a typed
//! error — covering bit rot and partial copies that still parse as JSON.
//! A file loaded on its own ([`load_json`], [`load_model`],
//! [`load_taxonomy`], [`load_patterns`]) may lack a sidecar (hand-edited
//! experiment files, forged test files); a *stale* one (crash between the
//! two renames) fails closed, and re-saving repairs it.
//!
//! # Bundle-level integrity (PR 8)
//!
//! Per-file sidecars cannot catch a **cross-file mismatch**: a bundle whose
//! `store.snap` came from save N but whose `model.json` came from save N+1
//! has every sidecar individually consistent, yet serves a model against a
//! store it was never learned on (restore-from-backup and partial-rsync
//! accidents produce exactly this). Every [`ServingArtifacts::save`]
//! therefore writes a `manifest.json` **last**, recording the digest of
//! every file in the bundle; [`ServingArtifacts::load`] checks each listed
//! file against the manifest and refuses the bundle on any mismatch.
//!
//! The manifest is the one description of a bundle: `load` requires it,
//! reads exactly the files it lists (`store.snap`, `taxonomy.snap`,
//! `model.json` and, when listed, `patterns.snap`) and nothing else in the
//! directory, so a stale file an earlier save left behind is never served.
//! A directory without a manifest, a manifest of another version, or one
//! listing any other file or missing a mandatory one is refused with a
//! typed error naming the file; re-saving the bundle repairs it. Inside a
//! bundle the manifest entry covers every file, so the sidecar is an extra
//! check there.
//!
//! Each file is mapped once and hashed once; that one digest is checked
//! against both the manifest entry and the sidecar, and the bytes that
//! passed are the bytes parsed — no second read can differ from the one
//! that was checked. A section file's one pass is the open's own: the
//! checksum check over its words also yields its whole-file digest
//! (`kbqa_rdf::sections::read_table`), which the opened file keeps and the
//! manifest and sidecar checks read. Saves replace a file by rename and
//! never rewrite one in place, so a mapping keeps the inode it checked.
//! Mapping also keeps a JSON artifact's text off the heap: the load
//! allocates only what it returns.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;

use kbqa_common::error::{KbqaError, Result};
use kbqa_common::hash::FxHasher;
use kbqa_rdf::mmap::Mmap;
use kbqa_rdf::{Snapshot, TripleStore};
use kbqa_taxonomy::Conceptualizer;

use crate::decompose::PatternIndex;
use crate::learner::LearnedModel;
use crate::service::KbqaService;

/// Suffix of the checksum sidecar written next to every artifact.
pub const CHECKSUM_SUFFIX: &str = ".fxsum";

/// `<path>.fxsum` — the sidecar holding the artifact's digest.
pub fn checksum_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(CHECKSUM_SUFFIX);
    PathBuf::from(name)
}

/// Fx-64 digest of raw bytes.
fn fx64(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Fx-64 digest of raw bytes, rendered as 16 hex digits.
fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fx64(bytes))
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename. The temp file is cleaned up on failure.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Save any serializable artifact as JSON — atomically (temp + fsync +
/// rename), with a checksum sidecar for integrity validation on load.
/// Returns the file's digest (16 hex digits) for bundle manifests.
pub fn save_json<T: Serialize>(value: &T, path: &Path) -> Result<String> {
    let payload = serde_json::to_string(value)
        .map_err(|e| KbqaError::Io(format!("serialize {}: {e}", path.display())))?;
    let file_digest = digest(payload.as_bytes());
    // Payload first, sidecar second: a crash between the renames leaves a
    // valid new payload with a stale sidecar — load fails closed and a
    // re-save repairs it, which beats silently trusting either half.
    write_atomic(path, payload.as_bytes())?;
    write_atomic(&checksum_path(path), format!("{file_digest}\n").as_bytes())?;
    Ok(file_digest)
}

/// Load a JSON artifact, validating the checksum sidecar when one exists.
///
/// Corruption — a digest mismatch, or bytes that fail to parse — returns a
/// typed [`KbqaError::Io`]; nothing in this path panics. A file without a
/// sidecar (a hand-edited experiment file) loads unvalidated.
pub fn load_json<T: DeserializeOwned>(path: &Path) -> Result<T> {
    load_json_listed(path, None)
}

/// [`load_json`] of a file the bundle manifest lists with digest `listed`:
/// the file is mapped once, its one digest is checked against the manifest
/// entry and the sidecar, and those same bytes are parsed.
fn load_json_listed<T: DeserializeOwned>(path: &Path, listed: Option<&str>) -> Result<T> {
    let bytes = map_listed(path, listed)?;
    verify(path, || fx64(&bytes), listed)?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| KbqaError::Io(format!("deserialize {}: {e}", path.display())))?;
    serde_json::from_str(text)
        .map_err(|e| KbqaError::Io(format!("deserialize {}: {e}", path.display())))
}

/// Map a whole file read-only, as `store.snap` is: its bytes are hashed and
/// parsed straight out of the page cache, never copied onto the heap. A
/// file the bundle manifest lists must be readable.
fn map_listed(path: &Path, listed: Option<&str>) -> Result<Mmap> {
    File::open(path)
        .and_then(|file| Mmap::map_file(&file))
        .map_err(|e| match listed {
            Some(_) => KbqaError::Io(format!(
                "bundle manifest lists {} but it cannot be read: {e}; re-save the bundle",
                path.display()
            )),
            None => e.into(),
        })
}

/// Check a file's whole-file digest (`actual`, asked for only when there
/// is something to check it against) against the digest the bundle
/// manifest lists for it (`listed`) and against its `.fxsum` sidecar, when
/// either exists. One digest serves both checks.
fn verify(path: &Path, actual: impl FnOnce() -> u64, listed: Option<&str>) -> Result<()> {
    let sidecar = std::fs::read_to_string(checksum_path(path)).ok();
    if listed.is_none() && sidecar.is_none() {
        return Ok(());
    }
    let actual = format!("{:016x}", actual());
    if let Some(expected) = listed.filter(|&expected| expected != actual) {
        return Err(KbqaError::Io(format!(
            "bundle manifest mismatch for {}: manifest says {expected}, file \
             hashes to {actual} — the bundle mixes files from different saves \
             (each may still pass its own sidecar); re-save the bundle",
            path.display(),
        )));
    }
    if let Some(expected) = sidecar.as_deref().map(str::trim) {
        if expected != actual {
            return Err(KbqaError::Io(format!(
                "checksum mismatch for {}: sidecar says {expected}, file hashes to {actual} \
                 (corrupt or partially-replaced artifact; re-save to repair)",
                path.display(),
            )));
        }
    }
    Ok(())
}

/// Save a learned model. Returns the file's digest.
pub fn save_model(model: &LearnedModel, path: &Path) -> Result<String> {
    save_json(model, path)
}

/// Load a learned model, rebuilding its derived indexes.
pub fn load_model(path: &Path) -> Result<LearnedModel> {
    load_model_listed(path, None)
}

/// [`load_model`] of a file the bundle manifest lists with digest `listed`.
fn load_model_listed(path: &Path, listed: Option<&str>) -> Result<LearnedModel> {
    let mut model: LearnedModel = load_json_listed(path, listed)?;
    model.rebuild_index();
    Ok(model)
}

/// Save a triple store as a zero-copy snapshot (`store.snap`) with a
/// checksum sidecar. The snapshot writer is itself atomic (temp + fsync +
/// rename), so this follows the same crash discipline as [`save_json`].
/// Returns the file's digest.
pub fn save_store(store: &TripleStore, path: &Path) -> Result<String> {
    sidecar(path, store.write_snapshot(path)?)
}

/// Load a triple store by mapping its snapshot file read-only — no parse,
/// no rebuild; the columns are served straight out of the page cache.
///
/// The snapshot's embedded checksum is always verified by
/// [`Snapshot::open`]; when a `.fxsum` sidecar exists, the full-file digest
/// that open computed in the same pass is cross-checked against it too
/// (same convention as [`load_json`]).
pub fn load_store(path: &Path) -> Result<TripleStore> {
    load_store_listed(path, None)
}

/// [`load_store`] of a snapshot the bundle manifest lists with digest
/// `listed`: the whole-file digest the open took serves both the manifest
/// and the sidecar check.
fn load_store_listed(path: &Path, listed: Option<&str>) -> Result<TripleStore> {
    let snapshot = Snapshot::open(path)?;
    verify(path, || snapshot.digest(), listed)?;
    Ok(TripleStore::from_snapshot(snapshot))
}

/// Record a section file's digest (written by its own atomic writer) in its
/// `.fxsum` sidecar, and return it rendered for the manifest.
fn sidecar(path: &Path, file_digest: u64) -> Result<String> {
    let file_digest = format!("{file_digest:016x}");
    write_atomic(&checksum_path(path), format!("{file_digest}\n").as_bytes())?;
    Ok(file_digest)
}

/// Save a conceptualizer (taxonomy network plus its tuning) as a
/// `taxonomy.snap` section file with a checksum sidecar. Returns the file's
/// digest.
pub fn save_taxonomy(conceptualizer: &Conceptualizer, path: &Path) -> Result<String> {
    sidecar(path, conceptualizer.write_snapshot(path)?)
}

/// Load a conceptualizer by mapping its `taxonomy.snap`: the sidecar digest
/// (when present) and every section are checked, nothing is parsed.
pub fn load_taxonomy(path: &Path) -> Result<Conceptualizer> {
    load_section_file(path, None, Conceptualizer::from_map)
}

/// Save a pattern index as a `patterns.snap` section file with a checksum
/// sidecar. Returns the file's digest.
pub fn save_patterns(index: &PatternIndex, path: &Path) -> Result<String> {
    sidecar(path, index.write_snapshot(path)?)
}

/// Load a pattern index by mapping its `patterns.snap`, checked like
/// [`load_taxonomy`].
pub fn load_patterns(path: &Path) -> Result<PatternIndex> {
    load_section_file(path, None, PatternIndex::from_map)
}

/// A section file opened by its own type, which kept the whole-file digest
/// its open computed while checking the embedded checksum.
trait SectionFile {
    fn file_digest(&self) -> u64;
}

impl SectionFile for Conceptualizer {
    fn file_digest(&self) -> u64 {
        self.network().sections().digest()
    }
}

impl SectionFile for PatternIndex {
    fn file_digest(&self) -> u64 {
        self.sections().digest()
    }
}

/// Map a section file once and hand the mapping to `open`, which checks it
/// and hashes it in one pass; then hold the digest that pass took to the
/// manifest entry (`listed`) and the sidecar.
fn load_section_file<T: SectionFile>(
    path: &Path,
    listed: Option<&str>,
    open: impl FnOnce(Mmap) -> Result<T>,
) -> Result<T> {
    let map = map_listed(path, listed)?;
    let opened = open(map).map_err(|e| match e {
        KbqaError::Io(why) => KbqaError::Io(format!("{why} ({})", path.display())),
        other => other,
    })?;
    verify(path, || opened.file_digest(), listed)?;
    Ok(opened)
}

/// File name for the knowledge base snapshot inside an artifact directory.
pub const STORE_FILE: &str = "store.snap";
/// File name for the taxonomy inside an artifact directory.
pub const TAXONOMY_FILE: &str = "taxonomy.snap";
/// File name for the learned model inside an artifact directory.
pub const MODEL_FILE: &str = "model.json";
/// File name for the pattern index inside an artifact directory (optional).
pub const PATTERNS_FILE: &str = "patterns.snap";
/// File name for the bundle manifest binding every artifact's digest into
/// one consistent set (written last by [`ServingArtifacts::save`]).
pub const MANIFEST_FILE: &str = "manifest.json";

/// The one manifest version [`ServingArtifacts::save`] writes and
/// [`ServingArtifacts::load`] reads.
const MANIFEST_VERSION: u32 = 1;

/// The bundle manifest: one digest per file, written after every other
/// artifact so a complete manifest implies a complete save. Loads read
/// exactly the files it lists and verify each against it — catching
/// cross-file mixes (store from save N, model from save N+1) that per-file
/// sidecars cannot see.
#[derive(Serialize, serde::Deserialize)]
struct BundleManifest {
    /// Manifest format version ([`MANIFEST_VERSION`]).
    version: u32,
    /// Artifact file name → Fx-64 digest of its exact bytes.
    files: std::collections::BTreeMap<String, String>,
}

/// Everything a serving process needs to answer questions, as one bundle.
///
/// `store`, `conceptualizer` and `model` are mandatory; `pattern_index` is
/// optional ([`ServingArtifacts::into_service`] serves without decomposition
/// when it is absent). The NER gazetteer is built from the store by
/// [`ServingArtifacts::into_service`].
pub struct ServingArtifacts {
    /// The knowledge base.
    pub store: Arc<TripleStore>,
    /// The taxonomy.
    pub conceptualizer: Arc<Conceptualizer>,
    /// The learned model.
    pub model: Arc<LearnedModel>,
    /// The corpus pattern index, when persisted.
    pub pattern_index: Option<Arc<PatternIndex>>,
}

impl ServingArtifacts {
    /// Capture a service's current artifacts (the model as currently
    /// served — a concurrent swap after this call is not reflected).
    pub fn from_service(service: &KbqaService) -> Self {
        Self {
            store: Arc::clone(service.store()),
            conceptualizer: Arc::clone(service.conceptualizer()),
            model: service.model(),
            pattern_index: service.pattern_index().cloned(),
        }
    }

    /// Write every artifact into `dir` (created if missing): `store.snap`,
    /// `taxonomy.snap`, `model.json`, and — when present —
    /// `patterns.snap`. The bundle manifest (file → digest) is written
    /// **last**, so a manifest's presence implies a complete save.
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut files = std::collections::BTreeMap::new();
        files.insert(
            STORE_FILE.to_string(),
            save_store(&self.store, &dir.join(STORE_FILE))?,
        );
        files.insert(
            TAXONOMY_FILE.to_string(),
            save_taxonomy(&self.conceptualizer, &dir.join(TAXONOMY_FILE))?,
        );
        files.insert(
            MODEL_FILE.to_string(),
            save_model(&self.model, &dir.join(MODEL_FILE))?,
        );
        if let Some(index) = &self.pattern_index {
            files.insert(
                PATTERNS_FILE.to_string(),
                save_patterns(index, &dir.join(PATTERNS_FILE))?,
            );
        }
        save_json(
            &BundleManifest {
                version: MANIFEST_VERSION,
                files,
            },
            &dir.join(MANIFEST_FILE),
        )?;
        Ok(())
    }

    /// Load a bundle from `dir`: exactly the files its `manifest.json`
    /// lists. The store, the taxonomy and the pattern index are mapped from
    /// their section files (warm start: no parse, no index rebuild); the
    /// model is parsed. The pattern index is served only when the manifest
    /// lists it; a `patterns.snap` an earlier save left is never read.
    ///
    /// Each file is mapped once and hashed once, and that digest must match
    /// the file's manifest entry (and its sidecar, when one exists) before
    /// its bytes are parsed — a bundle whose files are individually
    /// sidecar-consistent but come from *different saves* (store from save
    /// N, model from save N+1) is refused with a typed error. So is a
    /// directory without a manifest, a manifest of another version, and a
    /// manifest that lists a file other than the four above or misses one of
    /// the three mandatory ones; each error names the file and says to
    /// re-save the bundle.
    pub fn load(dir: &Path) -> Result<Self> {
        let refuse = |name: &str, why: &str| {
            KbqaError::Io(format!(
                "{}: {why}; re-save the bundle",
                dir.join(name).display()
            ))
        };
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Err(refuse(MANIFEST_FILE, "missing, so this is not a bundle"));
        }
        let manifest: BundleManifest = load_json(&manifest_path)?;
        if manifest.version != MANIFEST_VERSION {
            return Err(refuse(
                MANIFEST_FILE,
                &format!(
                    "manifest version {} (this version reads {MANIFEST_VERSION})",
                    manifest.version
                ),
            ));
        }
        let files = manifest.files;
        if let Some(name) = files.keys().find(|name| {
            ![STORE_FILE, TAXONOMY_FILE, MODEL_FILE, PATTERNS_FILE].contains(&name.as_str())
        }) {
            return Err(refuse(name, "listed by the manifest but not a bundle file"));
        }
        let entry = |name: &str| {
            files
                .get(name)
                .map(String::as_str)
                .ok_or_else(|| refuse(name, "not listed by the manifest"))
        };
        let store = load_store_listed(&dir.join(STORE_FILE), Some(entry(STORE_FILE)?))?;
        let conceptualizer = load_section_file(
            &dir.join(TAXONOMY_FILE),
            Some(entry(TAXONOMY_FILE)?),
            Conceptualizer::from_map,
        )?;
        let model = load_model_listed(&dir.join(MODEL_FILE), Some(entry(MODEL_FILE)?))?;
        let pattern_index = match files.get(PATTERNS_FILE) {
            Some(listed) => Some(Arc::new(load_section_file(
                &dir.join(PATTERNS_FILE),
                Some(listed),
                PatternIndex::from_map,
            )?)),
            None => None,
        };
        Ok(Self {
            store: Arc::new(store),
            conceptualizer: Arc::new(conceptualizer),
            model: Arc::new(model),
            pattern_index,
        })
    }

    /// Does `dir` hold a bundle? [`Self::save`] writes the manifest last,
    /// so its presence marks a finished save.
    pub fn present_in(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).exists()
    }

    /// Build a ready-to-serve [`KbqaService`] from the bundle — the warm
    /// start path, which builds the NER gazetteer over the mapped store's
    /// names.
    pub fn into_service(self) -> KbqaService {
        self.into_service_at_epoch(0)
    }

    /// Like [`Self::into_service`], but the service serves at model epoch
    /// `epoch` instead of 0 — the full-bundle reload path: the server builds
    /// the next service at `old_epoch + 1` so versioned cache keys carry
    /// straight across the swap without a flush.
    pub fn into_service_at_epoch(self, epoch: u64) -> KbqaService {
        let mut builder =
            KbqaService::builder(self.store, self.conceptualizer, self.model).model_epoch(epoch);
        if let Some(index) = self.pattern_index {
            builder = builder.pattern_index(index);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
    use kbqa_nlp::GazetteerNer;

    use crate::learner::{Learner, LearnerConfig};
    use crate::template::Template;

    /// A fresh directory of one test's own. Tests run on parallel threads,
    /// so two tests sharing a directory delete each other's files; the pid
    /// keeps concurrent `cargo test` processes apart as well.
    fn test_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kbqa-persist-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn model_save_load_roundtrip() {
        let world = World::generate(WorldConfig::tiny(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
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

        let dir = test_dir("model-roundtrip");
        let path = dir.join("model.json");
        save_model(&model, &path).unwrap();
        let restored = load_model(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(model.templates.len(), restored.templates.len());
        assert_eq!(model.stats.observations, restored.stats.observations);
        assert_eq!(
            model.stats.distinct_templates,
            restored.stats.distinct_templates
        );
        assert_eq!(model.stats.em.iterations, restored.stats.em.iterations);
        // Derived indexes were rebuilt: template lookup works.
        let t = Template::from_canonical("when was $person born");
        assert_eq!(model.templates.get(&t), restored.templates.get(&t));
        // …including the precompiled question-form index the optimized
        // kernel uses, which is serde-skipped and rebuilt on load.
        if let Some(tid) = restored.templates.get(&t) {
            let q = kbqa_nlp::tokenize("when was Somebody born");
            let mut buf = String::new();
            let form = restored
                .templates
                .form_symbol(&q, 2, 3, &mut buf)
                .expect("form index rebuilt on load");
            let slot = restored
                .templates
                .slot_symbol("$person")
                .expect("slot index rebuilt on load");
            assert_eq!(restored.templates.template_for(form, slot), Some(tid));
        }
        // Loading minted a fresh catalog generation — caches layered on the
        // pre-save catalog can never be served against the restored one.
        assert_ne!(
            model.templates.generation(),
            restored.templates.generation()
        );
    }

    #[test]
    fn serving_artifacts_roundtrip_through_a_directory() {
        let world = World::generate(WorldConfig::tiny(43));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
        let ner = std::sync::Arc::new(GazetteerNer::from_store(&world.store));
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
        let index = crate::decompose::PatternIndex::build(
            corpus.pairs.iter().map(|p| p.question.as_str()),
            &ner,
        );
        let service = KbqaService::builder(
            std::sync::Arc::clone(&world.store),
            std::sync::Arc::clone(&world.conceptualizer),
            std::sync::Arc::new(model),
        )
        .ner(ner)
        .pattern_index(std::sync::Arc::new(index))
        .build();

        let dir = std::env::temp_dir().join(format!(
            "kbqa-persist-artifacts-test-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        assert!(!ServingArtifacts::present_in(&dir));
        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save bundle");
        assert!(ServingArtifacts::present_in(&dir));

        // Warm start: a service rebuilt purely from disk answers every
        // question byte-identically to the original (same model epoch 0, so
        // the full QaResponse including the stamp must match).
        let restored = ServingArtifacts::load(&dir)
            .expect("load bundle")
            .into_service();
        std::fs::remove_dir_all(&dir).ok();
        let questions = [
            "what is the population of nowhere",
            &corpus.pairs[0].question,
            &corpus.pairs[1].question,
        ];
        for q in questions {
            assert_eq!(
                serde_json::to_string(&service.answer_text(q)).unwrap(),
                serde_json::to_string(&restored.answer_text(q)).unwrap(),
                "warm-started service must answer {q:?} identically"
            );
        }
        assert!(
            restored.pattern_index().is_some(),
            "pattern index persisted"
        );
    }

    /// A tiny learned service for bundle tests plus a handful of corpus
    /// questions it can actually answer.
    fn learned_service(seed: u64) -> (KbqaService, Vec<String>) {
        let world = World::generate(WorldConfig::tiny(seed));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
        let ner = std::sync::Arc::new(GazetteerNer::from_store(&world.store));
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
        let service = KbqaService::builder(
            std::sync::Arc::clone(&world.store),
            std::sync::Arc::clone(&world.conceptualizer),
            std::sync::Arc::new(model),
        )
        .ner(ner)
        .build();
        let questions = corpus
            .pairs
            .iter()
            .take(8)
            .map(|p| p.question.clone())
            .collect();
        (service, questions)
    }

    #[test]
    fn manifest_catches_cross_file_mixes_that_sidecars_accept() {
        // The satellite bug: every file individually passes its own .fxsum
        // sidecar, but the files come from *different saves* — store from
        // save N, model from save N+1. Pre-manifest loads accepted this.
        let (service, _) = learned_service(48);
        let dir =
            std::env::temp_dir().join(format!("kbqa-persist-crossmix-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save bundle");

        // "Save N+1" of just the model, landing in a sibling directory —
        // then a partial rsync copies the pair (file + sidecar) over.
        let other = dir.join("next-save");
        std::fs::create_dir_all(&other).unwrap();
        let next_model = other.join(MODEL_FILE);
        save_model(&LearnedModel::default(), &next_model).expect("save next model");
        let mixed = dir.join(MODEL_FILE);
        std::fs::copy(&next_model, &mixed).unwrap();
        std::fs::copy(checksum_path(&next_model), checksum_path(&mixed)).unwrap();

        // The mixed-in file is self-consistent: its own sidecar passes.
        load_model(&mixed).expect("per-file sidecar still passes");
        // But the bundle-level manifest refuses the set.
        let err = match ServingArtifacts::load(&dir) {
            Ok(_) => panic!("manifest must refuse the mix"),
            Err(err) => err,
        };
        assert!(
            err.to_string().contains("manifest mismatch"),
            "typed bundle error, got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_holds_every_listed_file_to_its_digest() {
        let (service, questions) = learned_service(50);
        let dir = test_dir("listed");
        let expect_err = |needle: &str| match ServingArtifacts::load(&dir) {
            Ok(_) => panic!("bundle must be refused ({needle})"),
            Err(KbqaError::Io(message)) => assert!(message.contains(needle), "{message}"),
            Err(other) => panic!("typed Io error expected, got {other:?}"),
        };
        let index = crate::decompose::PatternIndex::build(
            questions.iter().map(String::as_str),
            service.ner(),
        );
        let save = || {
            ServingArtifacts {
                pattern_index: Some(Arc::new(index.clone())),
                ..ServingArtifacts::from_service(&service)
            }
            .save(&dir)
            .expect("save bundle")
        };

        // A listed optional artifact is not optional.
        save();
        std::fs::remove_file(dir.join(PATTERNS_FILE)).unwrap();
        expect_err("bundle manifest lists");

        // The mapped store is held to the manifest too: another world's
        // snapshot, with its own consistent sidecar, is a cross-save mix.
        save();
        let other = World::generate(WorldConfig::tiny(51));
        save_store(&other.store, &dir.join(STORE_FILE)).unwrap();
        load_store(&dir.join(STORE_FILE)).expect("per-file sidecar still passes");
        expect_err("manifest mismatch");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Save N lists a pattern index; save N+1 into the same directory does
    /// not. Save N+1's manifest is the bundle, so the `patterns.snap` save N
    /// left behind is never served beside save N+1's model.
    #[test]
    fn a_resave_without_the_pattern_index_does_not_serve_the_stale_one() {
        let (service, questions) = learned_service(53);
        let dir = test_dir("stale-patterns");
        let index = PatternIndex::build(questions.iter().map(String::as_str), service.ner());
        ServingArtifacts {
            pattern_index: Some(Arc::new(index)),
            ..ServingArtifacts::from_service(&service)
        }
        .save(&dir)
        .expect("save N");
        assert!(ServingArtifacts::load(&dir)
            .unwrap()
            .pattern_index
            .is_some());

        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save N+1");
        assert!(
            dir.join(PATTERNS_FILE).exists(),
            "save N's index is still on disk"
        );
        let loaded = ServingArtifacts::load(&dir).expect("load save N+1");
        assert!(
            loaded.pattern_index.is_none(),
            "an index the manifest does not list must not be served"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One good bundle, then each form this version does not read, forged
    /// on a copy of it. Each is refused with a typed `Io` error that names
    /// the file and says to re-save the bundle.
    #[test]
    fn every_form_but_the_listed_current_one_is_refused() {
        use std::collections::BTreeMap;

        let (service, questions) = learned_service(47);
        let good = test_dir("refusals-good");
        let index = PatternIndex::build(questions.iter().map(String::as_str), service.ner());
        ServingArtifacts {
            pattern_index: Some(Arc::new(index)),
            ..ServingArtifacts::from_service(&service)
        }
        .save(&good)
        .expect("save bundle");
        ServingArtifacts::load(&good).expect("the good bundle loads");
        let files: BTreeMap<String, String> =
            load_json::<BundleManifest>(&good.join(MANIFEST_FILE))
                .unwrap()
                .files;

        let write_manifest = |dir: &Path, text: &str| {
            let path = dir.join(MANIFEST_FILE);
            std::fs::write(&path, text).unwrap();
            std::fs::write(
                checksum_path(&path),
                format!("{}\n", digest(text.as_bytes())),
            )
            .unwrap();
        };
        let manifest = |version: u32, files: BTreeMap<String, String>| {
            serde_json::to_string(&BundleManifest { version, files }).unwrap()
        };
        // The good listing with `drop` unlisted and `add`'s file written and
        // listed at its digest.
        let relist = |dir: &Path, drop: Option<&str>, add: Option<(&str, &[u8])>| {
            let mut files = files.clone();
            if let Some(name) = drop {
                files.remove(name);
            }
            if let Some((name, bytes)) = add {
                std::fs::write(dir.join(name), bytes).unwrap();
                files.insert(name.to_owned(), digest(bytes));
            }
            write_manifest(dir, &manifest(MANIFEST_VERSION, files));
        };
        let unmanifest = |dir: &Path| {
            std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
            std::fs::remove_file(checksum_path(&dir.join(MANIFEST_FILE))).unwrap();
        };

        type Forge<'a> = Box<dyn Fn(&Path) + 'a>;
        let cases: Vec<(&str, &str, Forge)> = vec![
            ("no-manifest", "manifest.json", Box::new(unmanifest)),
            (
                "store-json-only",
                "manifest.json",
                Box::new(|dir: &Path| {
                    unmanifest(dir);
                    std::fs::remove_file(dir.join(STORE_FILE)).unwrap();
                    std::fs::write(dir.join("store.json"), "{}").unwrap();
                }),
            ),
            (
                "taxonomy-json",
                "taxonomy.json",
                Box::new(|dir: &Path| {
                    relist(dir, Some(TAXONOMY_FILE), Some(("taxonomy.json", b"{}")))
                }),
            ),
            (
                "patterns-json",
                "patterns.json",
                Box::new(|dir: &Path| {
                    relist(dir, Some(PATTERNS_FILE), Some(("patterns.json", b"{}")))
                }),
            ),
            (
                "ner-json",
                "ner.json",
                Box::new(|dir: &Path| {
                    let legacy = br#"{"names":{"nowhere":[0]},"max_tokens":1}"#;
                    relist(dir, None, Some(("ner.json", legacy)))
                }),
            ),
            (
                "shard-snap",
                "store.shard-0.snap",
                Box::new(|dir: &Path| {
                    let shard = dir.join("store.shard-0.snap");
                    let mut files = files.clone();
                    files.insert(
                        "store.shard-0.snap".into(),
                        save_store(service.store(), &shard).unwrap(),
                    );
                    let triples = service.store().len();
                    write_manifest(
                        dir,
                        &format!(
                            r#"{{"version":1,"files":{},"shard_plan":{{"shards":1,"closure_depth":2}},"shard_stats":{{"shards":[{{"owned_subjects":1,"owned_triples":{triples},"replicated_triples":0}}]}}}}"#,
                            serde_json::to_string(&files).unwrap()
                        ),
                    );
                }),
            ),
            (
                "no-model",
                "model.json",
                Box::new(|dir: &Path| relist(dir, Some(MODEL_FILE), None)),
            ),
            (
                "version-2",
                "manifest version 2",
                Box::new(|dir: &Path| write_manifest(dir, &manifest(2, files.clone()))),
            ),
        ];
        for (case, needle, forge) in &cases {
            let dir = test_dir(&format!("refusals-{case}"));
            for file in std::fs::read_dir(&good).unwrap() {
                let file = file.unwrap();
                std::fs::copy(file.path(), dir.join(file.file_name())).unwrap();
            }
            forge(&dir);
            match ServingArtifacts::load(&dir) {
                Err(KbqaError::Io(message)) => assert!(
                    message.contains(needle) && message.contains("re-save the bundle"),
                    "{case}: {message}"
                ),
                Err(other) => panic!("{case}: typed Io error expected, got {other:?}"),
                Ok(_) => panic!("{case}: the bundle must be refused"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&good).ok();
    }

    #[test]
    fn store_snapshot_roundtrip_is_mapped_and_checksummed() {
        let world = World::generate(WorldConfig::tiny(44));
        let dir = std::env::temp_dir().join(format!("kbqa-persist-snap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STORE_FILE);

        save_store(&world.store, &path).unwrap();
        assert!(checksum_path(&path).exists(), "snapshot sidecar written");
        let restored = load_store(&path).unwrap();
        assert_eq!(restored.backend_kind(), kbqa_rdf::BackendKind::Mapped);
        assert_eq!(restored.len(), world.store.len());
        // Same logical content: identical N-Triples export.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        kbqa_rdf::ntriples::export(&world.store, &mut a).unwrap();
        kbqa_rdf::ntriples::export(&restored, &mut b).unwrap();
        assert_eq!(a, b);

        // Flip one byte mid-file: the embedded checksum rejects it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match load_store(&path) {
            Err(KbqaError::Io(message)) => {
                assert!(message.contains("snapshot"), "typed error: {message}")
            }
            other => panic!("corrupt snapshot must fail to load: {other:?}"),
        }

        // Re-saving repairs; a stale sidecar then fails closed.
        save_store(&world.store, &path).unwrap();
        std::fs::write(checksum_path(&path), "0000000000000000\n").unwrap();
        match load_store(&path) {
            Err(KbqaError::Io(message)) => {
                assert!(message.contains("checksum mismatch"), "got: {message}")
            }
            other => panic!("stale sidecar must fail closed: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let result = load_model(Path::new("/nonexistent/kbqa/model.json"));
        assert!(matches!(result, Err(KbqaError::Io(_))));
    }

    #[test]
    fn save_is_atomic_and_checksummed() {
        let dir = std::env::temp_dir().join(format!("kbqa-persist-atomic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");

        save_model(&LearnedModel::default(), &path).unwrap();
        assert!(
            checksum_path(&path).exists(),
            "save must write the checksum sidecar"
        );
        // No temp litter: the temp files were renamed away.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files must not survive: {stray:?}");
        // The happy path round-trips.
        load_model(&path).expect("checksummed artifact loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_fails_the_checksum_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("kbqa-persist-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");

        // Two differently-sized models, both validly saved.
        save_model(&LearnedModel::default(), &a).unwrap();
        let mut other = LearnedModel::default();
        other.stats.observations = 123_456;
        save_model(&other, &b).unwrap();

        // Swap b's payload under a's sidecar: the file is perfectly valid
        // JSON for a LearnedModel — only the checksum can catch it.
        std::fs::copy(&b, &a).unwrap();
        let result = load_model(&a);
        match result {
            Err(KbqaError::Io(message)) => assert!(
                message.contains("checksum mismatch"),
                "error must name the cause: {message}"
            ),
            other => panic!("corrupt artifact must fail to load: {other:?}"),
        }

        // Truncation (invalid JSON) also errors — never panics.
        std::fs::write(&a, b"{\"trunc").unwrap();
        assert!(matches!(load_model(&a), Err(KbqaError::Io(_))));

        // Re-saving repairs the pair.
        save_model(&LearnedModel::default(), &a).unwrap();
        load_model(&a).expect("repaired artifact loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_artifact_without_sidecar_still_loads() {
        let dir = test_dir("no-sidecar");
        let path = dir.join("model.json");
        save_model(&LearnedModel::default(), &path).unwrap();
        std::fs::remove_file(checksum_path(&path)).unwrap();
        load_model(&path).expect("legacy artifact (no sidecar) must load");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_corrupt_file_errors() {
        let dir = test_dir("corrupt-json");
        let path = dir.join("corrupt.json");
        std::fs::write(&path, b"{ not json").unwrap();
        let result: Result<LearnedModel> = load_json(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(result, Err(KbqaError::Io(_))));
    }
}
