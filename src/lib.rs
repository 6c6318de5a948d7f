#![warn(missing_docs)]

//! # kbqa — template-learning question answering over QA corpora and KBs
//!
//! A from-scratch Rust reproduction of **Cui, Xiao, Wang, Song, Hwang, Wang:
//! "KBQA: Learning Question Answering over QA Corpora and Knowledge Bases",
//! VLDB 2017** — the system that learns question *templates* (27M of them in
//! the paper) from a community-QA corpus and maps them probabilistically to
//! knowledge-base predicates, including multi-edge *expanded predicates*
//! like `marriage→person→name`, then answers binary factoid questions and
//! complex question chains over an RDF store.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `kbqa-common` | ids, hashing, interning, numeric utilities |
//! | [`rdf`] | `kbqa-rdf` | dictionary-encoded triple store, path traversal |
//! | [`taxonomy`] | `kbqa-taxonomy` | Probase-like isA network, conceptualization |
//! | [`nlp`] | `kbqa-nlp` | tokenizer, NER, UIUC question classification |
//! | [`corpus`] | `kbqa-corpus` | synthetic worlds, QA corpora, benchmarks |
//! | [`core`] | `kbqa-core` | templates, EM, serving API, decomposition, expansion |
//! | [`baselines`] | `kbqa-baselines` | rule/keyword/synonym systems, BOA bootstrapping |
//!
//! ## Quickstart
//!
//! Learn a model offline, then serve it through the owned, thread-shareable
//! [`KbqaService`](crate::prelude::KbqaService): typed requests in, ranked
//! answers (or a typed [`Refusal`](crate::prelude::Refusal)) out.
//!
//! ```
//! use std::sync::Arc;
//!
//! use kbqa::prelude::*;
//!
//! // A deterministic world standing in for the KB + Yahoo! Answers.
//! let world = World::generate(WorldConfig::tiny(42));
//! let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
//!
//! // Offline: expansion → extraction → EM (paper Sections 4 & 6).
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
//! let (model, _expansion) = learner.learn(&pairs, &LearnerConfig::default());
//!
//! // Online: an owned service over shared artifacts (paper Section 3).
//! let service = KbqaService::builder(
//!     Arc::clone(&world.store),
//!     Arc::clone(&world.conceptualizer),
//!     Arc::new(model),
//! )
//! .ner(ner)
//! .build();
//!
//! let intent = world.intent_by_name("city_population").unwrap();
//! let city = world
//!     .subjects_of(intent)
//!     .iter()
//!     .copied()
//!     .find(|&c| !world.gold_values(intent, c).is_empty())
//!     .unwrap();
//! let question = format!(
//!     "how many people are there in {}",
//!     world.store.surface(city)
//! );
//!
//! // Single request — with provenance on every answer.
//! let response = service.answer(&QaRequest::new(&question));
//! assert!(response.answered());
//! assert_eq!(response.answers[0].predicate, "population");
//!
//! // Batched requests fan out across threads; responses keep request order
//! // and match sequential answering exactly.
//! let batch = vec![QaRequest::new(&question), QaRequest::new("why is the sky blue")];
//! let responses = service.answer_batch(&batch);
//! assert!(responses[0].answered());
//! assert_eq!(responses[1].refusal, Some(Refusal::NoEntityGrounded));
//! ```

pub use kbqa_baselines as baselines;
pub use kbqa_common as common;
pub use kbqa_core as core;
pub use kbqa_corpus as corpus;
pub use kbqa_nlp as nlp;
pub use kbqa_obs as obs;
pub use kbqa_rdf as rdf;
pub use kbqa_taxonomy as taxonomy;

/// The names most programs need, in one import.
pub mod prelude {
    pub use kbqa_baselines::{KeywordQa, RuleBasedQa, SynonymQa};
    pub use kbqa_core::decompose::PatternIndex;
    pub use kbqa_core::engine::{Answer, ChoiceStats, EngineConfig, QaEngine, ScratchSpace};
    pub use kbqa_core::eval::{self, EvalQuestion};
    pub use kbqa_core::expansion::ExpansionConfig;
    pub use kbqa_core::hybrid::HybridSystem;
    pub use kbqa_core::learner::{LearnedModel, Learner, LearnerConfig};
    pub use kbqa_core::persist::ServingArtifacts;
    pub use kbqa_core::service::{KbqaService, QaRequest, QaResponse, QaSystem, Refusal, Rendered};
    pub use kbqa_core::template::{Template, TemplateCatalog};
    pub use kbqa_corpus::{benchmark, CorpusConfig, QaCorpus, World, WorldConfig};
    pub use kbqa_nlp::{tokenize, GazetteerNer};
    pub use kbqa_obs::{Observability, Stage, StageBreakdown, StageStats, StageTrace};
    pub use kbqa_rdf::{ExpandedPredicate, GraphBuilder, TripleStore};
    pub use kbqa_taxonomy::Conceptualizer;
}
