#![warn(missing_docs)]

//! RDF triple-store substrate for the KBQA reproduction.
//!
//! The paper runs over Trinity.RDF with KBA/Freebase/DBpedia behind it; this
//! crate provides the equivalent surface the KBQA algorithms actually touch:
//!
//! * a dictionary-encoded store of `(s, p, o)` triples ([`store::TripleStore`])
//!   over a predicate-partitioned **columnar** layout ([`columnar`]): sorted
//!   `(s, o)` / `(o, s)` runs per predicate, with a radix directory over each
//!   SO run so `V(e, p)` searches one bucket, answered with zero-copy value
//!   slices,
//! * a sequential [`scan`](store::TripleStore::scan) over all triples — in
//!   insertion order on a built store, in `(p, s, o)` run order on a mapped
//!   one — the stand-in for the disk scans that Sec 6.2's memory-efficient
//!   BFS is built around,
//! * **one store image** ([`snapshot`]): every store is one checksummed,
//!   relocatable section file — encoded on the heap by [`GraphBuilder::build`]
//!   or served straight out of `mmap` ([`mmap`]) with no load-time rebuild —
//!   read through the same views either way ([`BackendKind`] only names the
//!   backing, `in_memory` or `mapped`),
//! * N-Triples-style [`ntriples::import`]/[`ntriples::export`] for dump
//!   interchange (streaming, line at a time),
//! * conjunctive basic-graph-pattern queries ([`query::evaluate`]) — the
//!   "answer can be trivially found from the RDF knowledge base" step,
//! * multi-edge path traversal for *expanded predicates*
//!   ([`path::ExpandedPredicate`], Definition 1 in the paper),
//! * a name index so questions can be grounded to entities by surface string
//!   (`P(e|q)` needs "is it an entity's name in the knowledge base?").

pub mod builder;
pub mod columnar;
mod dictionary;
pub mod mmap;
pub mod ntriples;
pub mod path;
pub mod query;
pub mod sections;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod term;
pub mod triple;

pub use builder::GraphBuilder;
pub use columnar::ColsView;
pub use path::ExpandedPredicate;
pub use snapshot::{DictRef, Snapshot};
pub use stats::StoreStats;
pub use store::{BackendKind, Surface, TripleStore};
pub use term::{Literal, Term};
pub use triple::{NodeId, PredicateId, Triple};
