#![warn(missing_docs)]

//! Probase-style taxonomy and conceptualization substrate.
//!
//! The paper derives templates by *conceptualizing* the entity in a question:
//! `Honolulu` → `$city`, so `How many people are there in Honolulu?` becomes
//! `How many people are there in $city?`. The concept distribution
//! `P(c|e, q)` comes from Probase's context-aware conceptualization
//! ([25, 32] in the paper) — an isA network with probabilistic entity→concept
//! membership, sharpened by the words surrounding the mention (so *apple* in
//! "headquarter of apple" maps to `$company`, not `$fruit`).
//!
//! Probase itself is proprietary-scale web data; this crate rebuilds the two
//! pieces KBQA actually consumes:
//!
//! * [`network::ConceptNetwork`] — concepts, weighted isA edges keyed by KB
//!   node, and per-concept context-term evidence;
//! * [`conceptualize::Conceptualizer`] — smoothed naive-Bayes scoring of
//!   `P(c | e, context)` (Sec 3.2, Eq 5 of the paper).

pub mod concept;
pub mod conceptualize;
pub mod network;

pub use concept::ConceptId;
pub use conceptualize::{ConceptDistribution, Conceptualizer};
pub use network::{ConceptNetwork, Memberships, NetworkBuilder};
