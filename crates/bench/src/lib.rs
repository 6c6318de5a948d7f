#![warn(missing_docs)]

//! Experiment harness for the KBQA reproduction.
//!
//! One runner per table of the paper's evaluation (Sec 7). The `repro`
//! binary drives them (`repro --scale quick all`); EXPERIMENTS.md records
//! paper-vs-measured for each.
//!
//! * [`session`] — builds and caches the expensive artifacts (world, corpus,
//!   learned model) per knowledge-base preset.
//! * `format` — plain-text/markdown table rendering shared by all runners.
//! * [`tables`] — the per-table experiment runners (Tables 4–18).
//! * [`ablation`] — the DESIGN.md §7 ablations (refinement filter off,
//!   uniform θ, NER comparison — the paper's Sec 7.5).
//! * [`targets`] — the `repro` target names and their dispatch.

pub mod ablation;
pub mod format;
pub mod session;
pub mod tables;
pub mod targets;

pub use format::Table;
pub use session::{Scale, Session};
