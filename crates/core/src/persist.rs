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
//! swapped on its own by the model reload. A bundle saved before the taxonomy
//! and the index were section files lists `taxonomy.json` / `patterns.json`
//! instead; those still load, parsed into the same flat layout. The NER
//! gazetteer is not persisted at all: it is an index over the snapshot's
//! own name section, built when the service is
//! ([`GazetteerNer::from_store`]). A bundle saved while the gazetteer was
//! persisted lists a `ner.json`; the load holds it to its manifest digest
//! like any other listed file and never parses it. So does a bundle saved
//! while process sharding existed: its manifest's `shard_plan` and
//! `shard_stats` keys are skipped, and each listed `store.shard-{i}.snap`
//! is digest-checked but never mapped.
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
//! A missing sidecar is accepted (legacy artifacts and hand-edited
//! experiment files stay loadable); a *stale* one (crash between the two
//! renames) fails closed, and re-saving repairs it.
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
//! Directories without a manifest (pre-PR8 saves) load under the per-file
//! rules only.
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
/// typed [`KbqaError::Io`]; nothing in this path panics. Artifacts without
/// a sidecar (legacy saves, hand-edited files) load unvalidated.
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
                "bundle manifest lists {} but it cannot be read: {e}",
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

/// Load an artifact a bundle keeps under one of two names: its section file
/// (`snap`: mapped, checked, handed to `open`) or the JSON it replaced
/// (`json`: parsed into the same layout). The manifest decides when it
/// lists either, and its entry is taken; a directory without such an entry
/// is searched in that order. `None` when neither file is there.
fn load_artifact<T: DeserializeOwned + SectionFile>(
    dir: &Path,
    listed: &mut std::collections::BTreeMap<String, String>,
    (snap, json): (&str, &str),
    open: impl FnOnce(Mmap) -> Result<T>,
) -> Result<Option<T>> {
    let chosen = [snap, json]
        .into_iter()
        .find_map(|name| Some((name, Some(listed.remove(name)?))))
        .or_else(|| {
            [snap, json]
                .into_iter()
                .find(|name| dir.join(name).exists())
                .map(|name| (name, None))
        });
    let Some((name, digest)) = chosen else {
        return Ok(None);
    };
    let path = dir.join(name);
    if name == json {
        load_json_listed(&path, digest.as_deref()).map(Some)
    } else {
        load_section_file(&path, digest.as_deref(), open).map(Some)
    }
}

/// File name for the knowledge base snapshot inside an artifact directory.
pub const STORE_FILE: &str = "store.snap";
/// File name for the taxonomy inside an artifact directory.
pub const TAXONOMY_FILE: &str = "taxonomy.snap";
/// What [`TAXONOMY_FILE`] was called while the taxonomy was saved as JSON;
/// a bundle listing it still loads.
pub const LEGACY_TAXONOMY_FILE: &str = "taxonomy.json";
/// File name for the learned model inside an artifact directory.
pub const MODEL_FILE: &str = "model.json";
/// File name for the pattern index inside an artifact directory (optional).
pub const PATTERNS_FILE: &str = "patterns.snap";
/// What [`PATTERNS_FILE`] was called while the index was saved as JSON; a
/// bundle listing it still loads.
pub const LEGACY_PATTERNS_FILE: &str = "patterns.json";
/// File name for the bundle manifest binding every artifact's digest into
/// one consistent set (written last by [`ServingArtifacts::save`]).
pub const MANIFEST_FILE: &str = "manifest.json";

/// The bundle manifest: one digest per file, written after every other
/// artifact so a complete manifest implies a complete save. Loads verify
/// each listed file against it — catching cross-file mixes (store from save
/// N, model from save N+1) that per-file sidecars cannot see. Unknown keys
/// are skipped, so an older manifest's `shard_plan` / `shard_stats` load.
#[derive(Serialize, serde::Deserialize)]
struct BundleManifest {
    /// Manifest format version.
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
            &BundleManifest { version: 1, files },
            &dir.join(MANIFEST_FILE),
        )?;
        Ok(())
    }

    /// Load a bundle from `dir`. The store, the taxonomy and the pattern
    /// index are mapped from their section files (warm start: no parse, no
    /// index rebuild; a legacy `taxonomy.json` / `patterns.json` is parsed
    /// into the same layout). The pattern index is optional; everything
    /// else must be present.
    ///
    /// Each file is mapped once and hashed once. When a
    /// `manifest.json` is present, that digest must match the file's
    /// manifest entry before its bytes are parsed — a bundle whose files are
    /// individually sidecar-consistent but come from *different saves*
    /// (store from save N, model from save N+1) is refused with a typed
    /// error — and every file the manifest lists must be present. Pre-manifest
    /// directories load under the per-file sidecar rules only.
    pub fn load(dir: &Path) -> Result<Self> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut listed = if manifest_path.exists() {
            load_json::<BundleManifest>(&manifest_path)?.files
        } else {
            Default::default()
        };
        // Each load below takes its file's manifest entry.
        let store = load_store_listed(&dir.join(STORE_FILE), listed.remove(STORE_FILE).as_deref())?;
        let conceptualizer = load_artifact(
            dir,
            &mut listed,
            (TAXONOMY_FILE, LEGACY_TAXONOMY_FILE),
            Conceptualizer::from_map,
        )?
        .ok_or_else(|| {
            KbqaError::Io(format!(
                "{} holds neither {TAXONOMY_FILE} nor {LEGACY_TAXONOMY_FILE}",
                dir.display()
            ))
        })?;
        let model = load_model_listed(&dir.join(MODEL_FILE), listed.remove(MODEL_FILE).as_deref())?;
        let pattern_index = load_artifact(
            dir,
            &mut listed,
            (PATTERNS_FILE, LEGACY_PATTERNS_FILE),
            PatternIndex::from_map,
        )?
        .map(Arc::new);
        // A listed file no artifact above reads — an older bundle's
        // `ner.json` or `store.shard-{i}.snap` among them — is still held to
        // its digest.
        for (name, expected) in &listed {
            let path = dir.join(name);
            let map = map_listed(&path, Some(expected))?;
            verify(&path, || fx64(&map), Some(expected))?;
        }
        Ok(Self {
            store: Arc::new(store),
            conceptualizer: Arc::new(conceptualizer),
            model: Arc::new(model),
            pattern_index,
        })
    }

    /// Does `dir` hold a loadable bundle (a store snapshot, plus the
    /// taxonomy, in either form, and the model)?
    pub fn present_in(dir: &Path) -> bool {
        dir.join(STORE_FILE).exists()
            && (dir.join(TAXONOMY_FILE).exists() || dir.join(LEGACY_TAXONOMY_FILE).exists())
            && dir.join(MODEL_FILE).exists()
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

    /// A bundle saved while process sharding existed: its manifest carries
    /// `shard_plan` / `shard_stats` keys and lists a `store.shard-0.snap`.
    /// It loads and answers exactly like the same bundle without them, and
    /// the listed shard file is still held to its digest.
    #[test]
    fn legacy_sharded_bundle_loads_and_holds_shard_files_to_their_digest() {
        let (service, questions) = learned_service(47);
        let dir = test_dir("legacy-sharded");
        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save bundle");
        let plain = ServingArtifacts::load(&dir)
            .expect("load the plain bundle")
            .into_service();

        // What the partitioned save wrote: one snapshot per shard, listed
        // with its digest, and the plan and the cut's stats beside `files`.
        let shard = dir.join("store.shard-0.snap");
        let shard_digest = save_store(service.store(), &shard).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest: BundleManifest = load_json(&manifest_path).unwrap();
        manifest
            .files
            .insert("store.shard-0.snap".into(), shard_digest);
        let triples = service.store().len();
        let legacy = format!(
            r#"{{"version":1,"files":{},"shard_plan":{{"shards":1,"closure_depth":2}},"shard_stats":{{"shards":[{{"owned_subjects":1,"owned_triples":{triples},"replicated_triples":0}}]}}}}"#,
            serde_json::to_string(&manifest.files).unwrap()
        );
        std::fs::write(&manifest_path, &legacy).unwrap();
        std::fs::write(
            checksum_path(&manifest_path),
            format!("{}\n", digest(legacy.as_bytes())),
        )
        .unwrap();

        let restored = ServingArtifacts::load(&dir)
            .expect("a legacy sharded bundle loads")
            .into_service();
        for q in &questions {
            assert_eq!(
                serde_json::to_string(&plain.answer_text(q)).unwrap(),
                serde_json::to_string(&restored.answer_text(q)).unwrap(),
                "{q:?}"
            );
        }

        // Listed, so held to its digest though nothing maps it.
        let mut bytes = std::fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&shard, &bytes).unwrap();
        match ServingArtifacts::load(&dir) {
            Err(KbqaError::Io(message)) => {
                assert!(message.contains("store.shard-0.snap"), "{message}")
            }
            Ok(_) => panic!("a flipped byte in a listed shard file must refuse the bundle"),
            Err(other) => panic!("typed Io error expected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
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

        // A listed file no artifact reads is still checked.
        save();
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest: BundleManifest = load_json(&manifest_path).unwrap();
        std::fs::write(dir.join("extra.bin"), b"extra").unwrap();
        manifest
            .files
            .insert("extra.bin".into(), "0000000000000000".into());
        save_json(&manifest, &manifest_path).unwrap();
        expect_err("manifest mismatch");
        manifest.files.insert("extra.bin".into(), digest(b"extra"));
        save_json(&manifest, &manifest_path).unwrap();
        ServingArtifacts::load(&dir).expect("every listed digest matches");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bundle saved before the gazetteer was built at open lists a
    /// `ner.json`. It loads and answers as the bundle without it does; the
    /// file is held to its digest but never parsed.
    #[test]
    fn bundle_listing_a_persisted_gazetteer_still_loads() {
        let (service, questions) = learned_service(52);
        let dir = test_dir("legacy-ner");
        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save bundle");
        assert!(!dir.join("ner.json").exists());
        // What the old loader parsed: `{"names": {..}, "max_tokens": n}`.
        let legacy = br#"{"names":{"nowhere":[0]},"max_tokens":1}"#;
        std::fs::write(dir.join("ner.json"), legacy).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest: BundleManifest = load_json(&manifest_path).unwrap();
        manifest.files.insert("ner.json".into(), digest(legacy));
        save_json(&manifest, &manifest_path).unwrap();

        let restored = ServingArtifacts::load(&dir)
            .expect("a bundle listing ner.json loads")
            .into_service();
        for q in &questions {
            assert_eq!(
                serde_json::to_string(&service.answer_text(q)).unwrap(),
                serde_json::to_string(&restored.answer_text(q)).unwrap(),
                "{q:?}"
            );
        }

        // Listed, so held to its digest.
        std::fs::write(dir.join("ner.json"), br#"{"names":{},"max_tokens":0}"#).unwrap();
        match ServingArtifacts::load(&dir) {
            Err(KbqaError::Io(message)) => {
                assert!(message.contains("manifest mismatch"), "{message}")
            }
            Ok(_) => panic!("a listed ner.json that fails its digest must refuse the bundle"),
            Err(other) => panic!("typed Io error expected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One quick-world service (a small world, 4 000 QA pairs, the pattern
    /// index) saved both ways: the section files this version writes, and
    /// the `taxonomy.json` / `patterns.json` listing older saves have. Both
    /// load, into the same flat layout, and answer the serving benchmark's
    /// question mix — corpus questions, refused non-BFQs and the complex
    /// suite — byte for byte alike. A listed legacy file is held to its
    /// manifest digest like any other.
    #[test]
    fn legacy_json_and_section_file_bundles_answer_alike() {
        use kbqa_corpus::benchmark::{complex_suite, qald_like};

        let world = World::generate(WorldConfig::small(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 4_000));
        let ner = std::sync::Arc::new(GazetteerNer::from_store(&world.store));
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
        let service = KbqaService::builder(
            Arc::clone(&world.store),
            Arc::clone(&world.conceptualizer),
            Arc::new(model),
        )
        .ner(ner)
        .pattern_index(Arc::new(index))
        .build();
        let stream = QaCorpus::generate(&world, &CorpusConfig::with_pairs(2, 600));
        let mut questions: Vec<String> = stream.pairs.into_iter().map(|p| p.question).collect();
        questions.extend(
            qald_like(&world, "refused", 200, 0, 0.0, 2)
                .questions
                .into_iter()
                .map(|q| q.question),
        );
        questions.extend(complex_suite(&world).into_iter().map(|q| q.question));

        let current = test_dir("current-bundle");
        ServingArtifacts::from_service(&service)
            .save(&current)
            .expect("save bundle");
        assert!(current.join(TAXONOMY_FILE).exists() && current.join(PATTERNS_FILE).exists());
        let legacy = test_dir("legacy-bundle");
        ServingArtifacts::from_service(&service)
            .save(&legacy)
            .expect("save bundle");
        let manifest_path = legacy.join(MANIFEST_FILE);
        let mut manifest: BundleManifest = load_json(&manifest_path).unwrap();
        for (snap, json) in [
            (TAXONOMY_FILE, LEGACY_TAXONOMY_FILE),
            (PATTERNS_FILE, LEGACY_PATTERNS_FILE),
        ] {
            let file_digest = if json == LEGACY_TAXONOMY_FILE {
                save_json(service.conceptualizer().as_ref(), &legacy.join(json))
            } else {
                save_json(
                    service.pattern_index().unwrap().as_ref(),
                    &legacy.join(json),
                )
            }
            .unwrap();
            std::fs::remove_file(legacy.join(snap)).unwrap();
            std::fs::remove_file(checksum_path(&legacy.join(snap))).unwrap();
            manifest.files.remove(snap);
            manifest.files.insert(json.to_owned(), file_digest);
        }
        save_json(&manifest, &manifest_path).unwrap();
        assert!(ServingArtifacts::present_in(&legacy));

        let from_sections = ServingArtifacts::load(&current).unwrap().into_service();
        let from_json = ServingArtifacts::load(&legacy).unwrap().into_service();
        // The section files are mapped; the legacy JSON parses onto the heap.
        assert!(from_json.conceptualizer().network().sections().heap_bytes() > 0);
        assert_eq!(
            from_sections
                .conceptualizer()
                .network()
                .sections()
                .heap_bytes(),
            0
        );
        assert_eq!(from_sections.pattern_index().unwrap().heap_bytes(), 0);
        let mut answered = 0;
        for q in &questions {
            let reference = serde_json::to_string(&service.answer_text(q)).unwrap();
            answered += usize::from(service.answer_text(q).answered());
            assert_eq!(
                serde_json::to_string(&from_sections.answer_text(q)).unwrap(),
                reference,
                "{q:?} from the section files"
            );
            assert_eq!(
                serde_json::to_string(&from_json.answer_text(q)).unwrap(),
                reference,
                "{q:?} from the legacy JSON"
            );
        }
        assert!(
            answered > questions.len() / 2,
            "{answered} of {}",
            questions.len()
        );

        // Tampered after the save: α edited in place, sidecar kept.
        let path = legacy.join(LEGACY_TAXONOMY_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"alpha\":0.1"), "α serialized as saved");
        std::fs::write(&path, text.replace("\"alpha\":0.1", "\"alpha\":0.2")).unwrap();
        match ServingArtifacts::load(&legacy) {
            Err(KbqaError::Io(message)) => {
                assert!(message.contains("manifest mismatch"), "{message}")
            }
            Ok(_) => panic!("a tampered taxonomy.json must refuse the bundle"),
            Err(other) => panic!("typed Io error expected, got {other:?}"),
        }
        std::fs::remove_dir_all(&current).ok();
        std::fs::remove_dir_all(&legacy).ok();
    }

    #[test]
    fn bundle_without_manifest_still_loads() {
        let (service, _) = learned_service(49);
        let dir = test_dir("no-manifest");
        ServingArtifacts::from_service(&service)
            .save(&dir)
            .expect("save bundle");
        let manifest = dir.join(MANIFEST_FILE);
        std::fs::remove_file(&manifest).unwrap();
        std::fs::remove_file(checksum_path(&manifest)).unwrap();
        let restored = ServingArtifacts::load(&dir).expect("pre-manifest bundle loads");
        assert_eq!(restored.store.len(), service.store().len());
        std::fs::remove_dir_all(&dir).ok();
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
    fn json_store_without_snapshot_is_not_a_bundle() {
        let world = World::generate(WorldConfig::tiny(45));
        let dir = test_dir("jsonstore");
        // The retired pre-snapshot layout: the store as `store.json`.
        save_json(world.store.as_ref(), &dir.join("store.json")).unwrap();
        save_taxonomy(&world.conceptualizer, &dir.join(TAXONOMY_FILE)).unwrap();
        save_model(&LearnedModel::default(), &dir.join(MODEL_FILE)).unwrap();
        assert!(!ServingArtifacts::present_in(&dir));
        match ServingArtifacts::load(&dir).err() {
            Some(KbqaError::Io(message)) => assert!(message.contains(STORE_FILE), "{message}"),
            other => panic!("a store.json-only directory must fail with Io: {other:?}"),
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
