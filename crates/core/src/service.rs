//! The serving API: owned, batch-first question answering.
//!
//! [`crate::engine::QaEngine`] is the *inference kernel*: it borrows the
//! store, taxonomy and model for a lifetime, which is the right shape for
//! the offline harness but the wrong shape for a server. This module wraps
//! the kernel in a [`KbqaService`] that **owns** its substrate behind
//! [`Arc`]s, so:
//!
//! * clones are cheap (reference-count bumps) and every clone can serve
//!   requests from its own thread — the service is `Send + Sync`;
//! * the NER gazetteer is derived from the store **once**, at build time,
//!   instead of once per engine construction;
//! * requests and responses are owned values ([`QaRequest`] /
//!   [`QaResponse`]) that can cross thread and queue boundaries.
//!
//! The paper's online procedure refuses (returns nothing) whenever any stage
//! of the Eq (7) enumeration comes up empty — the behaviour behind the
//! `#pro` column of the QALD tables. A production system must distinguish
//! *why* it refused; [`Refusal`] names the four causes, in pipeline order.
//!
//! [`KbqaService::answer_batch`] fans a slice of requests out across a
//! `std::thread` scoped pool. Requests are independent, so batching is
//! purely an amortization: one engine (and one NER borrow) per worker, and
//! responses come back in request order, byte-identical to sequential
//! single-request calls.
//!
//! # Serving a new model
//!
//! The paper's offline procedure takes 1438 minutes; a serving process must
//! be able to roll a freshly learned model in **without a restart**. A
//! [`KbqaService`] is immutable: it serves one model under one **model
//! epoch**, and [`KbqaService::with_model`] builds the service for a new
//! model over the same substrate at the next epoch (`Arc` bumps, nothing
//! re-derived). A server keeps the current service in one slot and swaps
//! the next one in; a request that already holds the old one finishes on
//! it, so every answer comes wholly from one model and carries that
//! model's epoch in [`QaResponse::model_epoch`]. Caches key on
//! [`KbqaService::cache_key`], which prefixes the epoch — a new epoch
//! invalidates every stale entry by construction, with no stop-the-world
//! flush.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use kbqa_core::learner::{Learner, LearnerConfig};
//! use kbqa_core::service::{KbqaService, QaRequest};
//! use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
//! use kbqa_nlp::GazetteerNer;
//!
//! // Offline: synthetic world + corpus, learn P(p|t) by EM.
//! let world = World::generate(WorldConfig::tiny(7));
//! let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 200));
//! let ner = Arc::new(GazetteerNer::from_store(&world.store));
//! let learner = Learner::new(
//!     &world.store,
//!     &world.conceptualizer,
//!     &ner,
//!     &world.predicate_classes,
//! );
//! let pairs: Vec<(&str, &str)> = corpus
//!     .pairs
//!     .iter()
//!     .map(|p| (p.question.as_str(), p.answer.as_str()))
//!     .collect();
//! let (model, _) = learner.learn(&pairs, &LearnerConfig::default());
//!
//! // Online: an owned, thread-shareable service.
//! let service = KbqaService::builder(
//!     Arc::clone(&world.store),
//!     Arc::clone(&world.conceptualizer),
//!     Arc::new(model),
//! )
//! .ner(ner)
//! .build();
//! let response = service.answer(&QaRequest::new("what is the population of nowhere"));
//! assert_eq!(response.model_epoch, 0);
//!
//! // A new model: a sibling over the same substrate, at the next epoch.
//! let next = service.with_model(service.model());
//! assert_eq!(next.answer_text("anything").model_epoch, 1);
//! assert_eq!(service.model_epoch(), 0);
//! ```

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use kbqa_common::decimal::Decimal;
use kbqa_nlp::GazetteerNer;
use kbqa_obs::{Observability, StageBreakdown};
use kbqa_rdf::TripleStore;
use kbqa_taxonomy::Conceptualizer;

use crate::decompose::{Decomposition, PatternIndex};
use crate::engine::{Answer, ChoiceStats, EngineConfig, QaEngine, ScratchSpace};
use crate::learner::LearnedModel;

thread_local! {
    /// Per-thread engine scratch: a server worker (or batch worker) reuses
    /// one working set across every request it serves, which is what makes
    /// the kernel's steady state allocation-free. Scratch contents never
    /// leak across requests or model epochs (see [`ScratchSpace`]).
    static ENGINE_SCRATCH: std::cell::RefCell<ScratchSpace> =
        std::cell::RefCell::new(ScratchSpace::default());
}

/// Run `f` with this thread's reusable engine scratch.
fn with_engine_scratch<R>(f: impl FnOnce(&mut ScratchSpace) -> R) -> R {
    ENGINE_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Fewest questions each spawned thread of [`KbqaService::answer_batch`]
/// must get for spawning to pay. A spawned thread costs a spawn and a join
/// (tens of µs) and starts on an empty thread-local [`ScratchSpace`], whose
/// buffers its first questions grow allocation by allocation; the caller's
/// scratch is warm and answers a question in a few µs with no allocation.
/// At 64 questions a thread has an order of magnitude more work than its
/// own overhead; below that (a streamed `/batch` computes 16-question
/// lanes) the caller is faster alone.
const BATCH_MIN_QUESTIONS_PER_THREAD: usize = 64;

/// Why the system returned no answer (the paper's `#pro` refusal behaviour,
/// made inspectable). Variants are ordered by pipeline stage: each one means
/// every earlier stage succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Refusal {
    /// No token window of the question grounded to a KB entity
    /// (`P(e|q)` has no support).
    NoEntityGrounded,
    /// Entities grounded, but no derived template exists in the learned
    /// catalog (`P(t|e,q)` has no support — the strict template matching
    /// the paper credits for KBQA's precision).
    NoTemplateMatched,
    /// Templates matched, but every `P(p|t)` entry fell below the engine's
    /// `min_theta` precision guard.
    NoPredicateAboveTheta,
    /// Confident predicates existed, but the KB holds no value for any
    /// grounded `(entity, predicate)` pair (`P(v|e,p)` has no support).
    EmptyValueSet,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            Refusal::NoEntityGrounded => "no entity grounded",
            Refusal::NoTemplateMatched => "no template matched",
            Refusal::NoPredicateAboveTheta => "no predicate above θ",
            Refusal::EmptyValueSet => "empty value set",
        };
        f.write_str(text)
    }
}

/// An owned question plus per-request overrides of the engine defaults.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QaRequest {
    /// The natural-language question.
    pub question: String,
    /// Override of [`EngineConfig::top_k`] for this request.
    #[serde(default)]
    pub top_k: Option<usize>,
    /// Override of [`EngineConfig::min_theta`] for this request.
    #[serde(default)]
    pub min_theta: Option<f64>,
    /// Override of [`EngineConfig::decompose`] for this request.
    #[serde(default)]
    pub decompose: Option<bool>,
    /// Attach per-question [`ChoiceStats`] to the response (paper Table 6).
    /// When the service has an [`Observability`] sink installed, `explain`
    /// also forces a stage trace and attaches [`QaResponse::stage_us`].
    #[serde(default)]
    pub explain: bool,
    /// Caller-assigned request ID for cross-log correlation. The server
    /// assigns one when absent. **Not** part of the cache key — two
    /// requests differing only by ID are the same question.
    #[serde(default)]
    pub request_id: Option<u64>,
    /// Minimum model epoch the caller will accept. The server rejects the
    /// request with HTTP 409 when the serving epoch is below this — the
    /// read-your-reloads guard for clients that just observed a
    /// `/admin/reload`. **Not** part of the cache key: a request that
    /// passes the gate is answered identically to one without the pin
    /// (the epoch already prefixes every cache key).
    #[serde(default)]
    pub min_epoch: Option<u64>,
}

impl QaRequest {
    /// A request with engine-default behaviour.
    pub fn new(question: impl Into<String>) -> Self {
        Self {
            question: question.into(),
            top_k: None,
            min_theta: None,
            decompose: None,
            explain: false,
            request_id: None,
            min_epoch: None,
        }
    }

    /// Request at most `k` ranked answers.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Override the `P(p|t)` precision guard.
    pub fn with_min_theta(mut self, theta: f64) -> Self {
        self.min_theta = Some(theta);
        self
    }

    /// Enable or disable complex-question decomposition.
    pub fn with_decompose(mut self, decompose: bool) -> Self {
        self.decompose = Some(decompose);
        self
    }

    /// Attach uncertainty statistics to the response.
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Tag the request with a correlation ID (see [`QaRequest::request_id`]).
    pub fn with_request_id(mut self, id: u64) -> Self {
        self.request_id = Some(id);
        self
    }

    /// Refuse to be answered below model epoch `epoch` (see
    /// [`QaRequest::min_epoch`]).
    pub fn with_min_epoch(mut self, epoch: u64) -> Self {
        self.min_epoch = Some(epoch);
        self
    }

    /// The engine configuration this request runs under.
    pub fn effective_config(&self, base: &EngineConfig) -> EngineConfig {
        EngineConfig {
            top_k: self.top_k.unwrap_or(base.top_k),
            min_theta: self.min_theta.unwrap_or(base.min_theta),
            decompose: self.decompose.unwrap_or(base.decompose),
            ..base.clone()
        }
    }

    /// The question with whitespace collapsed and ASCII case folded.
    ///
    /// This is an equivalence the NLP front-end already applies: `tokenize`
    /// lowercases every token and only ever sees alphanumeric runs, so two
    /// questions with the same normalized form take the identical path
    /// through the engine — `tokenize(normalized) == tokenize(question)`,
    /// a property `tests/cache_key_normalization.rs` checks. Only ASCII
    /// letters fold: Unicode lowercasing is not a per-character map the
    /// tokenizer shares (`İ` lowercases to `i` plus a combining dot, which
    /// the tokenizer splits off as a separate token; `Σ` becomes `σ` alone
    /// but `ς` at the end of a word), so every non-ASCII character is kept
    /// verbatim. Punctuation is preserved (conservative: `a.b` and `a b`
    /// tokenize identically but key separately), with one exception —
    /// U+001F, the cache-key field separator, is folded into whitespace. To
    /// the tokenizer it is a token boundary exactly like a space, so the
    /// fold cannot merge observably-different questions, and it guarantees
    /// the separator never survives into the normalized text.
    pub fn normalized_question(&self) -> String {
        let mut out = String::with_capacity(self.question.len());
        self.push_normalized_question(&mut out);
        out
    }

    /// Append [`QaRequest::normalized_question`] to `out` in one pass over
    /// the question's bytes, with no intermediate `String`. A run of ASCII
    /// word bytes is copied whole and lowercased in place; a byte ≥ 0x80
    /// starts a character that is decoded and tested with
    /// [`char::is_whitespace`], so Unicode gaps (U+00A0, U+3000, …) still
    /// separate words.
    fn push_normalized_question(&self, out: &mut String) {
        // The ASCII bytes `char::is_whitespace` accepts (tab through carriage
        // return, space) and U+001F, the key's field separator.
        let is_gap = |b: u8| matches!(b, b'\t'..=b'\r' | b' ' | 0x1f);
        let question = self.question.as_str();
        let bytes = question.as_bytes();
        let mut any_word = false;
        let mut in_gap = false;
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            let gap = if bytes[i] >= 0x80 {
                let c = question[i..].chars().next().expect("a char starts at i");
                i += c.len_utf8();
                c.is_whitespace()
            } else if is_gap(bytes[i]) {
                i += 1;
                true
            } else {
                i += 1;
                while i < bytes.len() && bytes[i] < 0x80 && !is_gap(bytes[i]) {
                    i += 1;
                }
                false
            };
            if gap {
                in_gap = true;
                continue;
            }
            if in_gap && any_word {
                out.push(' ');
            }
            in_gap = false;
            any_word = true;
            let from = out.len();
            out.push_str(&question[start..i]);
            out[from..].make_ascii_lowercase();
        }
    }

    /// A stable cache key: the normalized question plus every engine knob
    /// that can change the response, resolved against `base`.
    ///
    /// Two requests share a key **iff** [`KbqaService::answer`] is
    /// guaranteed to produce equal responses for them: overrides are folded
    /// into the effective config first, so an explicit override equal to the
    /// service default keys identically to no override at all. Fields are
    /// joined with `\u{1f}` (ASCII unit separator), which
    /// [`QaRequest::normalized_question`] strips from the question — so no
    /// question can collide with a config suffix, provided (invariant!) no
    /// config field below ever renders a `\u{1f}` of its own. Floats render
    /// via `{:?}` — shortest round-trippable form, stable across runs.
    ///
    /// [`QaRequest::request_id`] is deliberately **excluded**: it names the
    /// request, not the question, and must never fragment the cache.
    pub fn cache_key(&self, base: &EngineConfig) -> String {
        let mut out = String::with_capacity(self.cache_key_capacity());
        self.push_cache_key(base, None, &mut out);
        out
    }

    /// Bytes that hold this request's cache key (with an epoch prefix) under
    /// a default-shaped config without regrowing: the question never grows
    /// under normalization, and the separators, epoch and knob renderings
    /// come to ≈ 31 bytes.
    fn cache_key_capacity(&self) -> usize {
        self.question.len() + 48
    }

    /// Whether this request overrides any [`EngineConfig`] default.
    fn overrides_config(&self) -> bool {
        self.top_k.is_some() || self.min_theta.is_some() || self.decompose.is_some()
    }

    /// Append [`QaRequest::cache_key`] to `out`: every field is rendered
    /// straight into the one buffer. `base_suffix`, when given, is
    /// [`QaRequest::push_config_suffix`] of an override-free request under
    /// `base`, rendered once by the caller; a request that overrides
    /// nothing copies it instead of rendering its own.
    fn push_cache_key(&self, base: &EngineConfig, base_suffix: Option<&str>, out: &mut String) {
        self.push_normalized_question(out);
        match base_suffix {
            Some(suffix) if !self.overrides_config() => out.push_str(suffix),
            _ => self.push_config_suffix(base, out),
        }
        out.push_str(flag(self.explain));
    }

    /// Append the key's config fields, each after a `\u{1f}` and with one
    /// closing `\u{1f}`: the overrides resolved against `base` field by
    /// field rather than through a cloned [`EngineConfig`].
    fn push_config_suffix(&self, base: &EngineConfig, out: &mut String) {
        use std::fmt::Write as _;
        const SEP: char = '\u{1f}';
        let decimal = |v: usize| Decimal::new(v as u64);
        out.push(SEP);
        out.push_str(decimal(self.top_k.unwrap_or(base.top_k)).as_str());
        out.push(SEP);
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{:?}", self.min_theta.unwrap_or(base.min_theta));
        out.push(SEP);
        out.push_str(decimal(base.max_concepts).as_str());
        out.push(SEP);
        out.push_str(flag(self.decompose.unwrap_or(base.decompose)));
        out.push(SEP);
        out.push_str(decimal(base.chain_width).as_str());
        out.push(SEP);
    }

    /// The nested-`format!` rendering [`QaRequest::cache_key`] replaced,
    /// kept as the byte-for-byte oracle of the single-pass builder.
    #[cfg(test)]
    fn cache_key_reference(&self, base: &EngineConfig) -> String {
        let cfg = self.effective_config(base);
        let normalized = {
            let mut out = String::with_capacity(self.question.len());
            let words = self
                .question
                .split(|c: char| c.is_whitespace() || c == '\u{1f}')
                .filter(|w| !w.is_empty());
            for word in words {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&word.to_ascii_lowercase());
            }
            out
        };
        format!(
            "{}\u{1f}{}\u{1f}{:?}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}",
            normalized,
            cfg.top_k,
            cfg.min_theta,
            cfg.max_concepts,
            cfg.decompose,
            cfg.chain_width,
            self.explain,
        )
    }
}

/// A cache-key flag field as `{}` renders a `bool`.
fn flag(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

impl From<&str> for QaRequest {
    fn from(question: &str) -> Self {
        Self::new(question)
    }
}

/// The outcome of one request: ranked answers with provenance, or a typed
/// refusal; optionally the Table 6 uncertainty profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QaResponse {
    /// Ranked answers, best first. Empty iff `refusal` is set.
    pub answers: Vec<Answer>,
    /// Why the system refused, when it did.
    pub refusal: Option<Refusal>,
    /// Per-question choice statistics (when the request set `explain`).
    pub stats: Option<ChoiceStats>,
    /// The [`KbqaService::model_epoch`] of the service that produced this
    /// response. Stamped by [`KbqaService`]; stays 0 for systems without a
    /// model epoch (baselines, hand-built responses).
    #[serde(default)]
    pub model_epoch: u64,
    /// Per-stage engine timings, attached when the request set `explain`
    /// **and** the service had an [`Observability`] sink installed (engines
    /// driven without one never time stages). A cached response replays the
    /// timings of the run that computed it, consistent with the cache's
    /// byte-identical-replay contract.
    #[serde(default)]
    pub stage_us: Option<StageBreakdown>,
}

impl QaResponse {
    /// A successful response. An empty answer list is recorded as an
    /// [`Refusal::EmptyValueSet`] refusal rather than a silent empty vec.
    pub fn from_answers(answers: Vec<Answer>) -> Self {
        if answers.is_empty() {
            return Self::refused(Refusal::EmptyValueSet);
        }
        Self {
            answers,
            refusal: None,
            stats: None,
            model_epoch: 0,
            stage_us: None,
        }
    }

    /// A refusal.
    pub fn refused(reason: Refusal) -> Self {
        Self {
            answers: Vec::new(),
            refusal: Some(reason),
            stats: None,
            model_epoch: 0,
            stage_us: None,
        }
    }

    /// Did the system produce at least one answer?
    pub fn answered(&self) -> bool {
        !self.answers.is_empty()
    }

    /// The top-ranked answer value.
    pub fn top(&self) -> Option<&str> {
        self.answers.first().map(|a| a.value.as_str())
    }

    /// All answer values in rank order.
    pub fn value_strings(&self) -> Vec<&str> {
        self.answers.iter().map(|a| a.value.as_str()).collect()
    }
}

/// One response written by [`KbqaService::answer_into`] or
/// [`KbqaService::answer_batch_into`]: where its JSON sits in the output
/// buffer and how the request ended — what a server needs to frame the
/// bytes, count the outcome and cache the entry without parsing anything.
#[derive(Clone, Debug, PartialEq)]
pub struct Rendered {
    /// The response's bytes in the output buffer.
    pub span: std::ops::Range<usize>,
    /// Why the request was refused; `None` when it was answered.
    pub refusal: Option<Refusal>,
    /// Per-stage timings, serialization included, when the request was
    /// traced.
    pub stages: Option<StageBreakdown>,
}

/// The interface shared by KBQA and every baseline system: answer a typed
/// request with a typed response. Refusal is an explicit outcome, not an
/// empty collection.
pub trait QaSystem {
    /// Short display name for result tables.
    fn name(&self) -> &str;

    /// Answer or refuse.
    fn answer(&self, request: &QaRequest) -> QaResponse;

    /// Convenience: answer a bare question string with default options.
    fn answer_text(&self, question: &str) -> QaResponse {
        self.answer(&QaRequest::new(question))
    }
}

/// Builder for [`KbqaService`].
pub struct KbqaServiceBuilder {
    store: Arc<TripleStore>,
    conceptualizer: Arc<Conceptualizer>,
    model: Arc<LearnedModel>,
    ner: Option<Arc<GazetteerNer>>,
    pattern_index: Option<Arc<PatternIndex>>,
    config: EngineConfig,
    obs: Option<Arc<Observability>>,
    model_epoch: u64,
}

impl KbqaServiceBuilder {
    /// Serve at a specific model epoch instead of 0. A full-bundle reload
    /// builds its replacement service at `old_epoch + 1` so versioned cache
    /// keys from the previous bundle can never collide with the new one.
    pub fn model_epoch(mut self, epoch: u64) -> Self {
        self.model_epoch = epoch;
        self
    }

    /// Use a pre-built NER instead of deriving one from the store.
    pub fn ner(mut self, ner: Arc<GazetteerNer>) -> Self {
        self.ner = Some(ner);
        self
    }

    /// Attach a corpus pattern index, enabling complex-question
    /// decomposition (paper Sec 5).
    pub fn pattern_index(mut self, index: Arc<PatternIndex>) -> Self {
        self.pattern_index = Some(index);
        self
    }

    /// Default engine configuration (overridable per request).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Install an observability sink: per-stage latency recording for
    /// sampled requests and stage timings on `explain` responses. Without
    /// one the engine's stage tracer stays disarmed (a predicted branch per
    /// stage boundary — the kernel path is unaffected).
    pub fn observability(mut self, obs: Arc<Observability>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Build the service. Derives the NER gazetteer from the store if none
    /// was supplied — this is the one expensive step, paid once.
    pub fn build(self) -> KbqaService {
        let ner = self
            .ner
            .unwrap_or_else(|| Arc::new(GazetteerNer::from_store(&self.store)));
        KbqaService {
            store: self.store,
            conceptualizer: self.conceptualizer,
            model: self.model,
            model_epoch: self.model_epoch,
            ner,
            pattern_index: self.pattern_index,
            key_suffix: KbqaService::key_suffix(&self.config),
            config: self.config,
            obs: self.obs,
        }
    }
}

/// An owned, thread-shareable KBQA server: the online procedure (paper
/// Sec 3.3) behind a request/response API.
///
/// Immutable: it serves one model under one model epoch, and a new model
/// is served by a new service ([`KbqaService::with_model`]). Everything
/// computed through one service — the answer, its
/// [`QaResponse::model_epoch`] stamp, and its [`cache_key`] — therefore
/// belongs to exactly one model epoch. Cloning is cheap (`Arc` bumps and a
/// config copy, no lock); a clone can be handed to another thread and both
/// serve concurrently. See the module docs for the design.
///
/// [`cache_key`]: KbqaService::cache_key
#[derive(Clone)]
pub struct KbqaService {
    store: Arc<TripleStore>,
    conceptualizer: Arc<Conceptualizer>,
    model: Arc<LearnedModel>,
    model_epoch: u64,
    ner: Arc<GazetteerNer>,
    pattern_index: Option<Arc<PatternIndex>>,
    config: EngineConfig,
    /// `config` rendered as the cache key's config suffix, the tail of
    /// every key whose request overrides nothing; rendered again whenever
    /// `config` is replaced.
    key_suffix: Arc<str>,
    obs: Option<Arc<Observability>>,
}

impl KbqaService {
    /// Start building a service over shared substrate artifacts.
    pub fn builder(
        store: Arc<TripleStore>,
        conceptualizer: Arc<Conceptualizer>,
        model: Arc<LearnedModel>,
    ) -> KbqaServiceBuilder {
        KbqaServiceBuilder {
            store,
            conceptualizer,
            model,
            ner: None,
            pattern_index: None,
            config: EngineConfig::default(),
            obs: None,
            model_epoch: 0,
        }
    }

    /// A service with default configuration and a store-derived NER.
    pub fn new(
        store: Arc<TripleStore>,
        conceptualizer: Arc<Conceptualizer>,
        model: Arc<LearnedModel>,
    ) -> Self {
        Self::builder(store, conceptualizer, model).build()
    }

    /// Replace the default engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.key_suffix = Self::key_suffix(&config);
        self.config = config;
        self
    }

    /// The cache key's config suffix for a request without overrides.
    fn key_suffix(config: &EngineConfig) -> Arc<str> {
        let mut suffix = String::new();
        QaRequest::new("").push_config_suffix(config, &mut suffix);
        suffix.into()
    }

    /// Install an observability sink after construction (see
    /// [`KbqaServiceBuilder::observability`]). Only the returned service
    /// and its clones trace through it.
    pub fn with_observability(mut self, obs: Arc<Observability>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The installed observability sink, if any.
    pub fn observability(&self) -> Option<&Arc<Observability>> {
        self.obs.as_ref()
    }

    /// A sibling service serving a different model over the same store,
    /// taxonomy, NER, pattern index and observability sink —
    /// how a new model is served (a server swaps the sibling in for `self`),
    /// and how ablations and A/B rollouts share every derived artifact.
    ///
    /// The sibling serves at `self.model_epoch() + 1`, so callers keying
    /// caches through [`KbqaService::cache_key`] never see one of `self`'s
    /// entries; `self` is unchanged. Two siblings of one parent share an
    /// epoch, so they must not share one answer cache.
    pub fn with_model(&self, model: Arc<LearnedModel>) -> Self {
        Self {
            model,
            model_epoch: self.model_epoch + 1,
            ..self.clone()
        }
    }

    /// The model epoch this service answers under.
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch
    }

    /// The knowledge base.
    pub fn store(&self) -> &Arc<TripleStore> {
        &self.store
    }

    /// The taxonomy.
    pub fn conceptualizer(&self) -> &Arc<Conceptualizer> {
        &self.conceptualizer
    }

    /// The served model.
    pub fn model(&self) -> Arc<LearnedModel> {
        Arc::clone(&self.model)
    }

    /// The NER gazetteer.
    pub fn ner(&self) -> &GazetteerNer {
        &self.ner
    }

    /// The pattern index, when attached.
    pub fn pattern_index(&self) -> Option<&Arc<PatternIndex>> {
        self.pattern_index.as_ref()
    }

    /// The default engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The same as `clone()`: `Arc` bumps and a config copy, no lock. Kept
    /// for callers that take a per-request copy of the service by this
    /// name.
    pub fn snapshot(&self) -> KbqaService {
        self.clone()
    }

    /// The borrowed inference kernel over this service's artifacts.
    /// Construction is free: every component is already built.
    pub fn engine(&self) -> QaEngine<'_> {
        let mut engine =
            QaEngine::with_shared(&self.store, &self.conceptualizer, &self.model, &self.ner)
                .with_config(self.config.clone());
        if let Some(index) = self.pattern_index.as_deref() {
            engine = engine.with_pattern_index_ref(index);
        }
        engine
    }

    /// The versioned cache key for `request`: the service's model epoch
    /// prefixed onto [`QaRequest::cache_key`].
    ///
    /// Two requests share a key **iff** they are guaranteed equal responses:
    /// same normalized question, same effective config, same model epoch.
    /// Serving a new epoch therefore invalidates every cached answer without
    /// a flush — old-epoch keys are simply never looked up again. The `\u{1f}`
    /// separator cannot appear in the normalized question, so the epoch
    /// prefix is unambiguous.
    pub fn cache_key(&self, request: &QaRequest) -> String {
        let mut out = String::with_capacity(request.cache_key_capacity());
        self.cache_key_into(request, &mut out);
        out
    }

    /// Append [`KbqaService::cache_key`] to `out` — how a server builds
    /// every key in one reused buffer and pays for an owned key only when
    /// a miss inserts it.
    pub fn cache_key_into(&self, request: &QaRequest, out: &mut String) {
        out.push_str(Decimal::new(self.model_epoch).as_str());
        out.push('\u{1f}');
        request.push_cache_key(&self.config, Some(&self.key_suffix), out);
    }

    /// Answer one request under this service's model, stamping the epoch.
    /// Runs on the calling thread's reusable [`ScratchSpace`].
    pub fn answer(&self, request: &QaRequest) -> QaResponse {
        with_engine_scratch(|scratch| {
            let engine = self.engine();
            self.answer_with(&engine, request, scratch).0
        })
    }

    /// Answer a bare question with default options.
    pub fn answer_text(&self, question: &str) -> QaResponse {
        self.answer(&QaRequest::new(question))
    }

    /// Answer one request and write the response's JSON into `out` — the
    /// bytes `serde_json::to_string(&self.answer(request))` would produce,
    /// appended. Runs on the calling thread's reusable [`ScratchSpace`].
    ///
    /// The engine renders it ([`QaEngine::render_request_into`]): a BFQ
    /// answer (with or without overrides)
    /// straight from the kernel's ranked ids; an `explain` request, a
    /// refusal or decomposition as an owned [`QaResponse`], serialized.
    /// Either way the writing is timed as [`kbqa_obs::Stage::Serialize`] on
    /// a traced request, and the returned [`Rendered::stages`] include it.
    pub fn answer_into(&self, request: &QaRequest, out: &mut Vec<u8>) -> Rendered {
        with_engine_scratch(|scratch| {
            let engine = self.engine();
            self.render_with(&engine, request, scratch, out)
        })
    }

    /// Answer a batch of requests under this service's model, fanning out
    /// across scoped threads when the batch is large enough to pay for them
    /// (at least 64 questions per thread) and on the calling thread's warm
    /// [`ScratchSpace`] otherwise.
    ///
    /// Responses are returned in request order and are identical to what
    /// sequential [`KbqaService::answer`] calls would produce: requests
    /// are independent, so the threads only amortize engine setup and buy
    /// wall-clock parallelism. The whole batch answers under one model
    /// epoch.
    pub fn answer_batch(&self, requests: &[QaRequest]) -> Vec<QaResponse> {
        let mut inline = Vec::with_capacity(requests.len());
        let parts = self.run_batch(
            requests,
            &mut inline,
            Vec::new,
            |responses, engine, request, scratch| {
                responses.push(self.answer_with(engine, request, scratch).0);
            },
        );
        match parts {
            None => inline,
            Some(parts) => parts.into_iter().flatten().collect(),
        }
    }

    /// [`KbqaService::answer_batch`] written as JSON: each response is
    /// rendered as [`KbqaService::answer_into`] renders it and appended
    /// to `out` in request order as the elements of a JSON array —
    /// separated by commas, without the brackets — and `rendered` is
    /// refilled with one [`Rendered`] per request. Fans out exactly as
    /// `answer_batch` does; each spawned thread renders its chunk into a
    /// buffer of its own, copied into `out` in order once the threads
    /// join. On the calling thread (every batch under 128 questions)
    /// nothing is allocated once `out` and `rendered` are warm.
    ///
    /// Takes owned requests or references (`&[QaRequest]`, `&[&QaRequest]`):
    /// a caller rendering a subset — the cache misses of a batch — passes
    /// borrows instead of cloning the subset.
    pub fn answer_batch_into<R>(
        &self,
        requests: &[R],
        out: &mut Vec<u8>,
        rendered: &mut Vec<Rendered>,
    ) where
        R: std::borrow::Borrow<QaRequest> + Sync,
    {
        rendered.clear();
        let mut inline = (std::mem::take(out), std::mem::take(rendered));
        let parts = self.run_batch(
            requests,
            &mut inline,
            Default::default,
            |(bytes, spans), engine, request, scratch| {
                if !spans.is_empty() {
                    bytes.push(b',');
                }
                spans.push(self.render_with(engine, request, scratch, bytes));
            },
        );
        (*out, *rendered) = inline;
        for (bytes, spans) in parts.into_iter().flatten() {
            if !rendered.is_empty() {
                out.push(b',');
            }
            let base = out.len();
            out.extend_from_slice(&bytes);
            rendered.extend(spans.into_iter().map(|one| Rendered {
                span: base + one.span.start..base + one.span.end,
                ..one
            }));
        }
    }

    /// Run `each` over every request of a batch. A batch under two threads'
    /// worth of questions (128) runs on the calling thread's warm scratch,
    /// into `inline`, and returns `None`. Otherwise the batch splits into
    /// contiguous chunks of at least 64 questions, each run on a scoped
    /// thread with its own scratch into a `fresh()` accumulator; the
    /// accumulators come back in request order. The whole batch answers
    /// under this one service, so no batch ever straddles mixed model
    /// epochs.
    fn run_batch<R, A>(
        &self,
        requests: &[R],
        inline: &mut A,
        fresh: impl Fn() -> A + Sync,
        each: impl Fn(&mut A, &QaEngine<'_>, &QaRequest, &mut ScratchSpace) + Sync,
    ) -> Option<Vec<A>>
    where
        R: std::borrow::Borrow<QaRequest> + Sync,
        A: Send,
    {
        // A thread pays for its spawn and its cold scratch only with at
        // least `BATCH_MIN_QUESTIONS_PER_THREAD` questions to run, so a
        // small batch — every lane of a server `/batch` — runs on the
        // calling thread. (`available_parallelism` reads the affinity mask
        // and cgroup files, which a small batch has no reason to pay for.)
        let workers = match (requests.len() / BATCH_MIN_QUESTIONS_PER_THREAD).min(16) {
            0 | 1 => 1,
            by_size => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(by_size),
        };
        if workers <= 1 {
            // One engine and one scratch for the whole batch.
            with_engine_scratch(|scratch| {
                let engine = self.engine();
                for request in requests {
                    each(inline, &engine, request.borrow(), scratch);
                }
            });
            return None;
        }
        let (fresh, each) = (&fresh, &each);
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .chunks(requests.len().div_ceil(workers))
                .map(|chunk| {
                    scope.spawn(move || {
                        // Per-worker scratch, reused across the whole chunk.
                        with_engine_scratch(|scratch| {
                            let engine = self.engine();
                            let mut acc = fresh();
                            for request in chunk {
                                each(&mut acc, &engine, request.borrow(), scratch);
                            }
                            acc
                        })
                    })
                })
                .collect();
            Some(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked"))
                    .collect(),
            )
        })
    }

    /// The one place a request actually runs as an owned response: arm the
    /// scratch tracer when this request should be traced, answer, then
    /// drain stage timings into the sink's histograms. Stage timings attach
    /// to the response only for `explain` requests, so responses stay
    /// byte-identical across sampled and unsampled runs of the same
    /// question (the cache contract).
    fn answer_with(
        &self,
        engine: &QaEngine<'_>,
        request: &QaRequest,
        scratch: &mut ScratchSpace,
    ) -> (QaResponse, Option<StageBreakdown>) {
        self.begin_trace(request, scratch);
        let mut response = self.respond(engine, request, scratch);
        let breakdown = self.finish_trace(scratch);
        if request.explain {
            response.stage_us = breakdown;
        }
        (response, breakdown)
    }

    /// [`KbqaService::answer_with`] written into `out`: the one place a
    /// request runs as rendered bytes. The engine renders it
    /// ([`QaEngine::render_request_into`]).
    fn render_with(
        &self,
        engine: &QaEngine<'_>,
        request: &QaRequest,
        scratch: &mut ScratchSpace,
        out: &mut Vec<u8>,
    ) -> Rendered {
        let start = out.len();
        self.begin_trace(request, scratch);
        let refusal = engine.render_request_into(request, scratch, self.model_epoch, out);
        Rendered {
            span: start..out.len(),
            refusal,
            stages: self.finish_trace(scratch),
        }
    }

    /// Arm the scratch tracer when this request should be traced: an
    /// [`Observability`] sink is installed and the request was sampled or
    /// asked to `explain`.
    fn begin_trace(&self, request: &QaRequest, scratch: &mut ScratchSpace) {
        let trace_this = match &self.obs {
            Some(obs) => request.explain || obs.should_trace(),
            None => false,
        };
        scratch.trace.begin(trace_this);
    }

    /// The owned response, stamped with this service's epoch.
    fn respond(
        &self,
        engine: &QaEngine<'_>,
        request: &QaRequest,
        scratch: &mut ScratchSpace,
    ) -> QaResponse {
        let mut response = engine.answer_request_with(request, scratch);
        response.model_epoch = self.model_epoch;
        response
    }

    /// Drain an armed trace into the sink's histograms, returning the
    /// breakdown.
    fn finish_trace(&self, scratch: &mut ScratchSpace) -> Option<StageBreakdown> {
        self.obs
            .as_ref()
            .and_then(|obs| scratch.trace.finish(obs.stats()))
    }

    /// Table 6 statistics for one question.
    pub fn question_statistics(&self, question: &str) -> ChoiceStats {
        self.engine().question_statistics(question)
    }

    /// Run the Sec 5 decomposition DP on a question (requires a pattern
    /// index). Exposed for tooling; [`KbqaService::answer`] applies it
    /// automatically as a fallback.
    pub fn decompose(&self, question: &str) -> Option<Decomposition> {
        let index = self.pattern_index.as_deref()?;
        crate::decompose::decompose(&self.engine(), index, question)
    }

    /// Execute a decomposition, returning ranked chained answers.
    pub fn execute_decomposition(&self, decomposition: &Decomposition) -> Option<Vec<Answer>> {
        crate::decompose::execute(&self.engine(), decomposition)
    }
}

impl QaSystem for KbqaService {
    fn name(&self) -> &str {
        "KBQA"
    }

    fn answer(&self, request: &QaRequest) -> QaResponse {
        KbqaService::answer(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service over empty substrate: enough to render cache keys.
    fn bare_service(config: EngineConfig, epoch: u64) -> KbqaService {
        KbqaService::builder(
            Arc::new(kbqa_rdf::GraphBuilder::new().build()),
            Arc::new(Conceptualizer::new(
                kbqa_taxonomy::NetworkBuilder::new().build(),
            )),
            Arc::new(LearnedModel::default()),
        )
        .ner(Arc::new(GazetteerNer::default()))
        .config(config)
        .model_epoch(epoch)
        .build()
    }

    // `KbqaService` must stay thread-shareable: this is a compile-time
    // assertion, not a runtime check.
    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KbqaService>();
        assert_send_sync::<QaRequest>();
        assert_send_sync::<QaResponse>();
    }

    #[test]
    fn versioned_cache_key_changes_with_the_epoch_only() {
        let service_at = |epoch: u64| bare_service(EngineConfig::default(), epoch);
        let request = QaRequest::new("what is the population of berlin");
        let at_zero = service_at(0).cache_key(&request);
        let at_one = service_at(1).cache_key(&request);
        assert_ne!(at_zero, at_one, "an epoch bump must invalidate the key");
        // The suffix past the epoch prefix is the unversioned key.
        let base = request.cache_key(&EngineConfig::default());
        assert_eq!(at_zero, format!("0\u{1f}{base}"));
        assert_eq!(at_one, format!("1\u{1f}{base}"));
    }

    #[test]
    fn stage_timings_attach_only_with_a_sink_and_explain() {
        let store = Arc::new(kbqa_rdf::GraphBuilder::new().build());
        let conceptualizer = Arc::new(Conceptualizer::new(
            kbqa_taxonomy::NetworkBuilder::new().build(),
        ));
        let model = Arc::new(LearnedModel::default());
        let stats = Arc::new(kbqa_obs::StageStats::new());
        let traced = KbqaService::builder(
            Arc::clone(&store),
            Arc::clone(&conceptualizer),
            Arc::clone(&model),
        )
        .observability(Arc::new(Observability::always(Arc::clone(&stats))))
        .build();
        let plain = KbqaService::new(store, conceptualizer, model);

        let explain = QaRequest::new("who founded rome").with_explain(true);
        let quiet = QaRequest::new("who founded rome");

        // No sink: no timings, even when asked to explain.
        assert_eq!(plain.answer(&explain).stage_us, None);

        // Sink + explain: timings on the response AND in the histograms.
        let response = traced.answer(&explain);
        assert!(response.stage_us.is_some());
        assert_eq!(stats.traced_requests(), 1);

        // Sink without explain: sampled into the histograms (serialization
        // included) but the response body stays identical to an untraced
        // run (the cache contract).
        let mut body = Vec::new();
        let rendered = traced.answer_into(&quiet, &mut body);
        assert!(rendered.stages.is_some());
        assert_eq!(stats.traced_requests(), 2);
        let serialize = stats.histogram(kbqa_obs::Stage::Serialize).snapshot();
        assert_eq!(serialize.count, 2);
        let expected = serde_json::to_string(&plain.answer(&quiet)).unwrap();
        assert_eq!(body, expected.into_bytes());
    }

    #[test]
    fn request_overrides_compose_over_base() {
        let base = EngineConfig::default();
        let request = QaRequest::new("q")
            .with_top_k(11)
            .with_min_theta(0.5)
            .with_decompose(false);
        let effective = request.effective_config(&base);
        assert_eq!(effective.top_k, 11);
        assert_eq!(effective.min_theta, 0.5);
        assert!(!effective.decompose);
        // Untouched knobs inherit the base.
        assert_eq!(effective.max_concepts, base.max_concepts);
        assert_eq!(effective.chain_width, base.chain_width);

        let plain = QaRequest::new("q").effective_config(&base);
        assert_eq!(plain, base);
    }

    #[test]
    fn cache_key_is_insensitive_to_spacing_and_case() {
        let base = EngineConfig::default();
        let a = QaRequest::new("What is  the population of Berlin?").cache_key(&base);
        let b = QaRequest::new("  what is the population of berlin?  ").cache_key(&base);
        assert_eq!(a, b);
        // Punctuation is significant — the tokenizer sees it.
        let c = QaRequest::new("what is the population of berlin").cache_key(&base);
        assert_ne!(a, c);
    }

    #[test]
    fn cache_key_folds_overrides_into_the_effective_config() {
        let base = EngineConfig::default();
        let plain = QaRequest::new("q").cache_key(&base);
        // An explicit override equal to the default is the same request.
        let explicit = QaRequest::new("q").with_top_k(base.top_k).cache_key(&base);
        assert_eq!(plain, explicit);
        // Any knob that changes the response changes the key.
        assert_ne!(plain, QaRequest::new("q").with_top_k(99).cache_key(&base));
        assert_ne!(
            plain,
            QaRequest::new("q").with_min_theta(0.7).cache_key(&base)
        );
        assert_ne!(
            plain,
            QaRequest::new("q").with_decompose(false).cache_key(&base)
        );
        assert_ne!(
            plain,
            QaRequest::new("q").with_explain(true).cache_key(&base)
        );
        // And so does the service-level base config.
        let strict = EngineConfig {
            min_theta: 0.9,
            ..EngineConfig::default()
        };
        assert_ne!(plain, QaRequest::new("q").cache_key(&strict));
    }

    #[test]
    fn single_pass_cache_key_is_byte_identical_to_the_nested_format_rendering() {
        let questions = [
            "what is the population of berlin",
            "What Is  The\tPopulation\n of   BERLIN?",
            "  leading and trailing   ",
            "",
            "   ",
            "\u{1f}",
            "a\u{1f}b",
            "q\u{1f}5\u{1f}0.05\u{1f}4\u{1f}true\u{1f}3\u{1f}false",
            "Tōkyō\u{2003}no  JINKŌ",
            "İstanbul ΟΔΟΣ ǅ ẞ",
            "x\u{a0}y\u{3000}z",
        ];
        let bases = [
            EngineConfig::default(),
            EngineConfig {
                top_k: 1_000_000,
                min_theta: 1e-9,
                max_concepts: 0,
                decompose: false,
                chain_width: 17,
            },
        ];
        // Each override on its own (a service copies its pre-rendered
        // suffix only for a request with none), then combinations, then
        // the fields that are not part of the key.
        let shape = |r: QaRequest, variant: usize| match variant {
            0 => r,
            1 => r.with_top_k(11),
            2 => r.with_min_theta(0.1 + 0.2),
            3 => r.with_decompose(false),
            4 => r.with_explain(true),
            5 => r.with_decompose(false).with_explain(true),
            6 => r.with_top_k(5).with_min_theta(0.05).with_decompose(true),
            7 => r.with_request_id(9).with_min_epoch(3),
            _ => r
                .with_request_id(9)
                .with_min_epoch(3)
                .with_min_theta(f64::MAX),
        };
        for (i, base) in bases.iter().enumerate() {
            let other = &bases[1 - i];
            for epoch in [0u64, 7, u64::MAX] {
                // Built under `base`, and re-configured to `base` from the
                // other config: a suffix left stale by `with_config` fails.
                let built = bare_service(base.clone(), epoch);
                let reconfigured = bare_service(other.clone(), epoch).with_config(base.clone());
                for question in questions {
                    for variant in 0..9 {
                        let request = shape(QaRequest::new(question), variant);
                        let reference = request.cache_key_reference(base);
                        assert_eq!(request.cache_key(base), reference, "{request:?}");
                        for service in [&built, &reconfigured] {
                            assert_eq!(
                                service.cache_key(&request),
                                format!("{epoch}\u{1f}{reference}"),
                                "{request:?} at epoch {epoch}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cache_key_separator_resists_question_injection() {
        let base = EngineConfig::default();
        // A question that tries to spell out another request's config suffix
        // cannot collide: normalization strips the `\u{1f}` separator.
        let honest = QaRequest::new("q").cache_key(&base);
        let forged = QaRequest::new(format!("q\u{1f}{}", &honest["q\u{1f}".len()..]));
        assert_ne!(honest, forged.cache_key(&base));
        // The separator folds to a token boundary, same as a space.
        assert_eq!(
            QaRequest::new("a\u{1f}b").normalized_question(),
            QaRequest::new("a b").normalized_question()
        );
    }

    #[test]
    fn empty_answer_list_is_a_refusal() {
        let response = QaResponse::from_answers(Vec::new());
        assert!(!response.answered());
        assert_eq!(response.refusal, Some(Refusal::EmptyValueSet));
        assert_eq!(response.top(), None);
    }

    #[test]
    fn refusal_displays_distinctly() {
        let all = [
            Refusal::NoEntityGrounded,
            Refusal::NoTemplateMatched,
            Refusal::NoPredicateAboveTheta,
            Refusal::EmptyValueSet,
        ];
        let rendered: std::collections::BTreeSet<String> =
            all.iter().map(|r| r.to_string()).collect();
        assert_eq!(rendered.len(), all.len());
    }
}
