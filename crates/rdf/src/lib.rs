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
//! * **zero-copy snapshots** ([`snapshot`]): the whole store serialized into
//!   one checksummed relocatable file and served straight out of `mmap`
//!   ([`mmap`]) with no load-time rebuild, behind the [`backend::StoreBackend`]
//!   trait (`InMemory` vs `Mapped`),
//! * N-Triples-style [`ntriples::import`]/[`ntriples::export`] for dump
//!   interchange (streaming, line at a time),
//! * conjunctive basic-graph-pattern queries ([`query::evaluate`]) — the
//!   "answer can be trivially found from the RDF knowledge base" step,
//! * multi-edge path traversal for *expanded predicates*
//!   ([`path::ExpandedPredicate`], Definition 1 in the paper),
//! * a name index so questions can be grounded to entities by surface string
//!   (`P(e|q)` needs "is it an entity's name in the knowledge base?").

pub mod backend;
pub mod builder;
pub mod columnar;
pub mod dictionary;
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

pub use backend::{BackendKind, StoreBackend};
pub use builder::GraphBuilder;
pub use columnar::ColsView;
pub use dictionary::{DictRef, Dictionary};
pub use path::ExpandedPredicate;
pub use snapshot::Snapshot;
pub use stats::StoreStats;
pub use store::{Surface, TripleStore};
pub use term::{Literal, Term};
pub use triple::{NodeId, PredicateId, Triple};
