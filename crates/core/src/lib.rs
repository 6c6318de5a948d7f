#![warn(missing_docs)]

//! KBQA — template-learning question answering over QA corpora and
//! knowledge bases.
//!
//! This crate implements the primary contribution of Cui et al., VLDB 2017:
//! understanding questions through *templates* (a question with its entity
//! mention conceptualized, e.g. `how many people are there in $city?`) and
//! learning the template→predicate distribution `P(p|t)` from a QA corpus by
//! maximum-likelihood EM, then answering new questions by probabilistic
//! inference over a knowledge base.
//!
//! Module map (paper section in parentheses):
//!
//! * [`template`] — template derivation `t(q, e, c)` and the interning
//!   catalog (Sec 2).
//! * [`catalog`] — dense interning of expanded predicates.
//! * [`expansion`] — predicate expansion `p⁺` by memory-efficient
//!   scan-joined BFS, plus the Infobox `valid(k)` estimator (Sec 6).
//! * [`extraction`] — entity–value pair extraction from QA pairs with
//!   answer-type refinement (Sec 4.1).
//! * [`model`] — the fixed probability terms `P(e|q)`, `P(t|e,q)`,
//!   `P(v|e,p)` (Sec 3.2).
//! * [`em`] — EM estimation of `θ = P(p|t)` (Sec 4.2–4.3, Algorithm 1).
//! * [`learner`] — the offline pipeline wiring expansion → extraction → EM.
//! * [`persist`] — JSON persistence for the model and the full
//!   [`persist::ServingArtifacts`] bundle (warm starts, hot reloads).
//! * [`engine`] — the online answering procedure (Sec 3.3): the borrowed
//!   inference kernel.
//! * [`service`] — the serving API: the owned, thread-shareable
//!   [`service::KbqaService`], typed [`service::QaRequest`] /
//!   [`service::QaResponse`], the [`service::Refusal`] taxonomy, the
//!   model epoch every response is stamped with (a new model is served by a
//!   new service at the next epoch), and the [`service::QaSystem`] trait
//!   shared with baselines.
//! * [`serialize`] — allocation-free JSON writer for the serving-edge
//!   response types (`QaResponse::serialize_into`, byte-identical to the
//!   vendored `serde_json` output).
//! * [`decompose`] — complex-question decomposition by dynamic programming
//!   over substrings (Sec 5, Algorithm 2).
//! * [`hybrid`] — KBQA as the high-precision component of a hybrid system
//!   (Table 11).
//! * [`variants`] — ranking/comparison/listing questions compiled to probe
//!   BFQs (the Sec 1 claim that BFQ answering subsumes them).
//! * [`eval`] — QALD-style and WebQuestions-style metrics (Sec 7.3).

pub mod catalog;
pub mod decompose;
pub mod em;
pub mod engine;
pub mod eval;
pub mod expansion;
pub mod extraction;
pub mod hybrid;
pub mod inspect;
pub mod learner;
pub mod model;
pub mod persist;
pub mod serialize;
pub mod service;
pub mod template;
pub mod variants;

pub use catalog::{PredId, PredicateCatalog};
pub use em::{EmConfig, EmStats, Theta};
pub use engine::{Answer, ChoiceStats, EngineConfig, QaEngine, ScratchSpace};
pub use expansion::{ExpansionConfig, ExpansionResult};
pub use extraction::{ExtractionConfig, Observation};
pub use learner::{LearnedModel, Learner, LearnerConfig};
pub use persist::ServingArtifacts;
pub use service::{KbqaService, QaRequest, QaResponse, QaSystem, Refusal, Rendered};
pub use template::{SlotTable, Template, TemplateCatalog, TemplateId};
pub use variants::{VariantQa, VariantQuestion};
