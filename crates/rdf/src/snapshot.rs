//! Zero-copy store snapshots: one relocatable file, mapped read-only.
//!
//! A snapshot freezes what serving reads of a [`crate::TripleStore`] —
//! dictionary, the SO and OS triple runs, name index — into a single file
//! of flat integer/byte sections. Loading is [`Snapshot::open`]: `mmap` the
//! file, verify the checksum, validate section geometry, done. No parse, no
//! rebuild, no allocation proportional to store size; warm start and
//! `/admin/reload` become "map the file, flip the epoch".
//!
//! The builder's insertion-order log (what a built store's
//! [`crate::TripleStore::scan`] replays for learning) is not written: no
//! request reads it, and it was 12 of version 1's 28 B per triple. Version 3
//! adds the radix directory over each SO run's subjects
//! ([`crate::columnar`]), so `V(e, p)` searches one bucket of about sixteen
//! keys instead of a whole run. A file of any older version is refused at
//! open with one typed error naming its version and the fix.
//!
//! # File layout
//!
//! ```text
//! header   32 B   magic "KBQASNAP", version u32, section count u32,
//!                 file length u64, checksum u64 (Fx-64 of every byte
//!                 after the header)
//! table    22×16  (offset u64, byte length u64) per section
//! sections …      each 8-byte aligned, zero-padded between
//! ```
//!
//! The header, table and checksum are the container every mapped artifact
//! shares ([`crate::sections`]); this module owns the store's sections and
//! their invariants. All integers are **native-endian** (in practice little-endian: the
//! serving fleet and CI are x86-64/aarch64); a snapshot is a serving
//! artifact, not an interchange format — interchange goes through
//! [`crate::ntriples`]. Offsets are relative to the file start, so the file
//! is position-independent and the kernel may map it anywhere.
//!
//! Lookup structures that the in-memory store keeps as hash maps are stored
//! as *sorted permutation arrays* instead (strings, terms, predicates by
//! name, lowercased surface names), so a mapped store resolves
//! `find_*`/`entities_named` by binary search over the mapped data — nothing
//! is rebuilt on load. See `docs/STORAGE.md` for the full section catalog.

use std::fs::File;
use std::path::Path;

use kbqa_common::error::{KbqaError, Result};
use kbqa_common::interner::Interner;

use crate::columnar::ColsView;
use crate::dictionary::Dictionary;
use crate::mmap::Mmap;
use crate::sections::{self, Col, Elem, Format};
use crate::term::{Literal, Term};
use crate::triple::{NodeId, PredicateId, Triple};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"KBQASNAP";
/// Current format version. Bump on any layout change.
pub const VERSION: u32 = 3;

/// Number of sections in the table.
pub const SECTION_COUNT: usize = 22;

/// Section indices, in table order (`docs/STORAGE.md`'s catalog). Kept as
/// named constants (not an enum) so the table layout reads off directly.
#[allow(missing_docs)]
pub mod sec {
    pub const STRING_BYTES: usize = 0;
    pub const STRING_OFFSETS: usize = 1;
    pub const STRING_SORTED: usize = 2;
    pub const TERM_TAGS: usize = 3;
    pub const TERM_PAYLOADS: usize = 4;
    pub const TERM_SORTED: usize = 5;
    pub const PREDICATE_SYMS: usize = 6;
    pub const PREDICATE_SORTED: usize = 7;
    pub const NAME_PREDICATES: usize = 8;
    pub const SO_BOUNDS: usize = 9;
    pub const SO_S: usize = 10;
    pub const SO_O: usize = 11;
    pub const OS_BOUNDS: usize = 12;
    pub const OS_O: usize = 13;
    pub const OS_S: usize = 14;
    pub const NAME_BYTES: usize = 15;
    pub const NAME_OFFSETS: usize = 16;
    pub const NAME_NODE_BOUNDS: usize = 17;
    pub const NAME_NODE_IDS: usize = 18;
    pub const SO_DIR_BOUNDS: usize = 19;
    pub const SO_DIR_BASE: usize = 20;
    pub const SO_DIR_STARTS: usize = 21;
}

const ELEMS: [Elem; SECTION_COUNT] = [
    Elem::U8,  // string bytes
    Elem::U64, // string offsets
    Elem::U32, // string sorted perm
    Elem::U8,  // term tags
    Elem::U64, // term payloads
    Elem::U32, // term sorted perm
    Elem::U32, // predicate syms
    Elem::U32, // predicate sorted perm
    Elem::U32, // name predicates
    Elem::U64, // so bounds
    Elem::U32, // so s
    Elem::U32, // so o
    Elem::U64, // os bounds
    Elem::U32, // os o
    Elem::U32, // os s
    Elem::U8,  // name bytes
    Elem::U64, // name offsets
    Elem::U64, // name node bounds
    Elem::U32, // name node ids
    Elem::U64, // so directory bounds
    Elem::U32, // so directory base (lo, shift) per predicate
    Elem::U32, // so directory bucket starts
];

/// The store snapshot's container format.
const FORMAT: Format = Format {
    name: "snapshot",
    magic: MAGIC,
    version: VERSION,
    elems: &ELEMS,
};

fn bad(why: impl std::fmt::Display) -> KbqaError {
    FORMAT.error(why)
}

pub use crate::sections::Fx64Stream;

// ---------------------------------------------------------------------------
// Typed views over raw bytes
// ---------------------------------------------------------------------------

fn cast_u32(bytes: &[u8]) -> &[u32] {
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: alignment and length are validated at open (section offsets
    // are 8-aligned within a page-aligned mapping; lengths are multiples of
    // the element size); u32 has no invalid bit patterns.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
}

fn cast_u64(bytes: &[u8]) -> &[u64] {
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    debug_assert_eq!(bytes.len() % 8, 0);
    // SAFETY: as above.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
}

/// Reinterpret a raw `u32` column as node ids (`NodeId` is
/// `#[repr(transparent)]` over `u32`).
pub(crate) fn as_node_ids(raw: &[u32]) -> &[NodeId] {
    // SAFETY: NodeId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<NodeId>(), raw.len()) }
}

/// Reinterpret a raw `u32` column as predicate ids.
pub(crate) fn as_predicate_ids(raw: &[u32]) -> &[PredicateId] {
    // SAFETY: PredicateId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<PredicateId>(), raw.len()) }
}

fn ids_as_u32(ids: &[PredicateId]) -> &[u32] {
    // SAFETY: PredicateId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<u32>(), ids.len()) }
}

fn node_ids_as_u32(ids: &[NodeId]) -> &[u32] {
    // SAFETY: NodeId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<u32>(), ids.len()) }
}

// ---------------------------------------------------------------------------
// Term encoding
// ---------------------------------------------------------------------------

const TAG_RESOURCE: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_YEAR: u8 = 3;

fn encode_term(term: Term) -> (u8, u64) {
    match term {
        Term::Resource(sym) => (TAG_RESOURCE, u64::from(sym)),
        Term::Literal(Literal::Str(sym)) => (TAG_STR, u64::from(sym)),
        Term::Literal(Literal::Int(v)) => (TAG_INT, v as u64),
        Term::Literal(Literal::Year(y)) => (TAG_YEAR, y as i64 as u64),
    }
}

fn decode_term(tag: u8, payload: u64) -> Term {
    match tag {
        TAG_RESOURCE => Term::Resource(payload as u32),
        TAG_STR => Term::Literal(Literal::Str(payload as u32)),
        TAG_INT => Term::Literal(Literal::Int(payload as i64)),
        TAG_YEAR => Term::Literal(Literal::Year(payload as i64 as i32)),
        other => unreachable!("term tag {other} rejected at open"),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Everything the writer needs, borrowed from the in-memory backend.
pub(crate) struct SnapshotSource<'a> {
    pub strings: &'a Interner,
    pub terms: &'a [Term],
    pub predicate_syms: &'a [u32],
    pub cols: ColsView<'a>,
    pub name_predicates: &'a [PredicateId],
    /// `(lowercased name, nodes)` pairs in any order; the writer sorts.
    pub name_entries: Vec<(&'a str, &'a [NodeId])>,
}

/// Derived (owned) arrays the writer materializes before laying out the file.
struct DerivedSections {
    string_bytes: Vec<u8>,
    string_offsets: Vec<u64>,
    string_sorted: Vec<u32>,
    term_tags: Vec<u8>,
    term_payloads: Vec<u64>,
    term_sorted: Vec<u32>,
    predicate_sorted: Vec<u32>,
    name_bytes: Vec<u8>,
    name_offsets: Vec<u64>,
    name_node_bounds: Vec<u64>,
    name_node_ids: Vec<u32>,
}

fn derive_sections(src: &SnapshotSource<'_>) -> DerivedSections {
    let string_count = src.strings.len();
    let mut string_bytes = Vec::new();
    let mut string_offsets = Vec::with_capacity(string_count + 1);
    string_offsets.push(0);
    for (_, s) in src.strings.iter() {
        string_bytes.extend_from_slice(s.as_bytes());
        string_offsets.push(string_bytes.len() as u64);
    }
    let mut string_sorted: Vec<u32> = (0..string_count as u32).collect();
    string_sorted.sort_unstable_by_key(|&sym| src.strings.resolve(sym));

    let mut term_tags = Vec::with_capacity(src.terms.len());
    let mut term_payloads = Vec::with_capacity(src.terms.len());
    for &t in src.terms {
        let (tag, payload) = encode_term(t);
        term_tags.push(tag);
        term_payloads.push(payload);
    }
    let mut term_sorted: Vec<u32> = (0..src.terms.len() as u32).collect();
    term_sorted.sort_unstable_by_key(|&i| (term_tags[i as usize], term_payloads[i as usize]));

    let mut predicate_sorted: Vec<u32> = (0..src.predicate_syms.len() as u32).collect();
    predicate_sorted.sort_unstable_by_key(|&i| src.strings.resolve(src.predicate_syms[i as usize]));

    let mut entries = src.name_entries.clone();
    entries.sort_unstable_by_key(|&(name, _)| name);
    let mut name_bytes = Vec::new();
    let mut name_offsets = Vec::with_capacity(entries.len() + 1);
    let mut name_node_bounds = Vec::with_capacity(entries.len() + 1);
    let mut name_node_ids = Vec::new();
    name_offsets.push(0);
    name_node_bounds.push(0);
    for (name, nodes) in entries {
        name_bytes.extend_from_slice(name.as_bytes());
        name_offsets.push(name_bytes.len() as u64);
        name_node_ids.extend_from_slice(node_ids_as_u32(nodes));
        name_node_bounds.push(name_node_ids.len() as u64);
    }

    DerivedSections {
        string_bytes,
        string_offsets,
        string_sorted,
        term_tags,
        term_payloads,
        term_sorted,
        predicate_sorted,
        name_bytes,
        name_offsets,
        name_node_bounds,
        name_node_ids,
    }
}

/// Write a snapshot for `src` to `path` — atomically (same-directory temp
/// file, `fsync`, rename) — and return the Fx-64 digest of the final file
/// bytes (what a `.fxsum` sidecar records).
pub(crate) fn write_source(src: &SnapshotSource<'_>, path: &Path) -> Result<u64> {
    let derived = derive_sections(src);
    let cols: [Col<'_>; SECTION_COUNT] = [
        Col::U8(&derived.string_bytes),
        Col::U64(&derived.string_offsets),
        Col::U32(&derived.string_sorted),
        Col::U8(&derived.term_tags),
        Col::U64(&derived.term_payloads),
        Col::U32(&derived.term_sorted),
        Col::U32(src.predicate_syms),
        Col::U32(&derived.predicate_sorted),
        Col::U32(ids_as_u32(src.name_predicates)),
        Col::U64(src.cols.so_bounds),
        Col::U32(src.cols.so_s),
        Col::U32(src.cols.so_o),
        Col::U64(src.cols.os_bounds),
        Col::U32(src.cols.os_o),
        Col::U32(src.cols.os_s),
        Col::U8(&derived.name_bytes),
        Col::U64(&derived.name_offsets),
        Col::U64(&derived.name_node_bounds),
        Col::U32(&derived.name_node_ids),
        Col::U64(src.cols.so_dir_bounds),
        Col::U32(src.cols.so_dir_base),
        Col::U32(src.cols.so_dir_starts),
    ];
    sections::write(&FORMAT, &cols, path)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// An open, validated, memory-mapped snapshot. All accessors are zero-copy
/// views into the mapping.
#[derive(Debug)]
pub struct Snapshot {
    map: Mmap,
    ranges: [(usize, usize); SECTION_COUNT],
    digest: u64,
}

impl Snapshot {
    /// Map `path` read-only and validate it end to end: magic, version,
    /// length, checksum, section geometry, cross-section invariants (offset
    /// monotonicity, id ranges, UTF-8). Any violation is a typed
    /// [`KbqaError::Io`] — corruption never panics a loader.
    pub fn open(path: &Path) -> Result<Self> {
        let file =
            File::open(path).map_err(|e| bad(format_args!("open {}: {e}", path.display())))?;
        let map =
            Mmap::map_file(&file).map_err(|e| bad(format_args!("mmap {}: {e}", path.display())))?;
        Self::from_map(map).map_err(|e| match e {
            KbqaError::Io(why) => KbqaError::Io(format!("{why} ({})", path.display())),
            other => other,
        })
    }

    fn from_map(map: Mmap) -> Result<Self> {
        let bytes = map.bytes();
        if bytes.len() >= 12 && bytes[..8] == MAGIC {
            let version = u32::from_ne_bytes(bytes[8..12].try_into().expect("4 bytes"));
            if version < VERSION {
                return Err(bad(format_args!(
                    "version {version} is no longer served (expected version {VERSION}); \
                     re-save the bundle with `ServingArtifacts::save`"
                )));
            }
        }
        let (ranges, digest) = sections::read_table(&FORMAT, bytes)?;
        let ranges = ranges.try_into().expect("one range per section");
        let snap = Self {
            map,
            ranges,
            digest,
        };
        snap.validate_invariants()?;
        Ok(snap)
    }

    /// Cross-section semantic validation; establishes the invariants the
    /// unsafe UTF-8 and slice casts rely on.
    fn validate_invariants(&self) -> Result<()> {
        let string_bytes = self.raw(sec::STRING_BYTES);
        let string_offsets = self.u64s(sec::STRING_OFFSETS);
        let string_sorted = self.u32s(sec::STRING_SORTED);
        let string_count = string_sorted.len();
        sections::check_bounds(
            &FORMAT,
            "string offsets",
            string_offsets,
            string_count,
            string_bytes.len(),
        )?;
        let text = std::str::from_utf8(string_bytes)
            .map_err(|e| bad(format_args!("string bytes not UTF-8: {e}")))?;
        for &off in string_offsets {
            if !text.is_char_boundary(off as usize) {
                return Err(bad("string offset splits a UTF-8 sequence"));
            }
        }
        check_perm("string perm", string_sorted, string_count)?;

        let term_tags = self.raw(sec::TERM_TAGS);
        let term_payloads = self.u64s(sec::TERM_PAYLOADS);
        let term_sorted = self.u32s(sec::TERM_SORTED);
        if term_tags.len() != term_payloads.len() || term_tags.len() != term_sorted.len() {
            return Err(bad("term sections disagree on length"));
        }
        check_perm("term perm", term_sorted, term_tags.len())?;
        for (i, (&tag, &payload)) in term_tags.iter().zip(term_payloads).enumerate() {
            match tag {
                TAG_RESOURCE | TAG_STR => {
                    if payload >= string_count as u64 {
                        return Err(bad(format_args!(
                            "term {i} references string {payload} of {string_count}"
                        )));
                    }
                }
                TAG_INT | TAG_YEAR => {}
                other => return Err(bad(format_args!("term {i} has unknown tag {other}"))),
            }
        }

        let predicate_syms = self.u32s(sec::PREDICATE_SYMS);
        let predicate_sorted = self.u32s(sec::PREDICATE_SORTED);
        let predicate_count = predicate_syms.len();
        check_perm("predicate perm", predicate_sorted, predicate_count)?;
        if predicate_syms.iter().any(|&s| s as usize >= string_count) {
            return Err(bad("predicate references out-of-range string"));
        }
        for &p in self.u32s(sec::NAME_PREDICATES) {
            if p as usize >= predicate_count {
                return Err(bad("name predicate out of range"));
            }
        }

        let node_count = term_tags.len();
        let triple_count = self.u32s(sec::SO_S).len();
        let columns = [
            ("so s", sec::SO_S),
            ("so o", sec::SO_O),
            ("os o", sec::OS_O),
            ("os s", sec::OS_S),
        ];
        for (name, section) in columns {
            if self.u32s(section).len() != triple_count {
                return Err(bad(format_args!("{name} column length mismatch")));
            }
        }
        for (name, section) in columns {
            if self.u32s(section).iter().any(|&v| v as usize >= node_count) {
                return Err(bad(format_args!(
                    "{name} column references out-of-range node"
                )));
            }
        }
        sections::check_bounds(
            &FORMAT,
            "so bounds",
            self.u64s(sec::SO_BOUNDS),
            predicate_count,
            triple_count,
        )?;
        sections::check_bounds(
            &FORMAT,
            "os bounds",
            self.u64s(sec::OS_BOUNDS),
            predicate_count,
            triple_count,
        )?;
        self.check_so_directory(predicate_count)?;

        let name_bytes = self.raw(sec::NAME_BYTES);
        let name_offsets = self.u64s(sec::NAME_OFFSETS);
        let name_bounds = self.u64s(sec::NAME_NODE_BOUNDS);
        let name_ids = self.u32s(sec::NAME_NODE_IDS);
        let name_count = name_offsets.len().saturating_sub(1);
        sections::check_bounds(
            &FORMAT,
            "name offsets",
            name_offsets,
            name_count,
            name_bytes.len(),
        )?;
        sections::check_bounds(
            &FORMAT,
            "name node bounds",
            name_bounds,
            name_count,
            name_ids.len(),
        )?;
        let names = std::str::from_utf8(name_bytes)
            .map_err(|e| bad(format_args!("name bytes not UTF-8: {e}")))?;
        for &off in name_offsets {
            if !names.is_char_boundary(off as usize) {
                return Err(bad("name offset splits a UTF-8 sequence"));
            }
        }
        if name_ids.iter().any(|&v| v as usize >= node_count) {
            return Err(bad("name index references out-of-range node"));
        }
        Ok(())
    }

    /// The SO directory's geometry, per predicate: a base with `shift < 32`
    /// and `lo` at most the run's last subject, and bucket starts running
    /// monotonically from 0 to the run's length, one more than
    /// `((hi − lo) >> shift) + 1` buckets (none for an empty run). That is
    /// what keeps every lookup inside its run; like the runs themselves,
    /// the keys are not order-checked.
    fn check_so_directory(&self, predicate_count: usize) -> Result<()> {
        let (so_bounds, so_s) = (self.u64s(sec::SO_BOUNDS), self.u32s(sec::SO_S));
        let dir_bounds = self.u64s(sec::SO_DIR_BOUNDS);
        let base = self.u32s(sec::SO_DIR_BASE);
        let starts = self.u32s(sec::SO_DIR_STARTS);
        sections::check_bounds(
            &FORMAT,
            "so directory bounds",
            dir_bounds,
            predicate_count,
            starts.len(),
        )?;
        if base.len() != 2 * predicate_count {
            return Err(bad("so directory base: length mismatch"));
        }
        for p in 0..predicate_count {
            let run = &so_s[so_bounds[p] as usize..so_bounds[p + 1] as usize];
            let (lo, shift) = (base[2 * p], base[2 * p + 1]);
            if shift >= 32 {
                return Err(bad(format_args!(
                    "so directory of predicate {p}: shift {shift}"
                )));
            }
            let buckets = match run.last() {
                None => 0,
                Some(&hi) if hi >= lo => ((hi - lo) >> shift) as usize + 1,
                Some(_) => {
                    return Err(bad(format_args!(
                        "so directory of predicate {p}: base above the run"
                    )))
                }
            };
            let run_starts = &starts[dir_bounds[p] as usize..dir_bounds[p + 1] as usize];
            sections::check_bounds(&FORMAT, "so directory", run_starts, buckets, run.len())?;
        }
        Ok(())
    }

    /// The raw mapped file bytes.
    pub fn bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// The Fx-64 digest of the whole file — what its `.fxsum` sidecar and a
    /// bundle manifest record — from the one pass that checked it at open.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn raw(&self, i: usize) -> &[u8] {
        let (off, len) = self.ranges[i];
        &self.map.bytes()[off..off + len]
    }

    fn u32s(&self, i: usize) -> &[u32] {
        cast_u32(self.raw(i))
    }

    fn u64s(&self, i: usize) -> &[u64] {
        cast_u64(self.raw(i))
    }

    /// The mapped dictionary view.
    pub fn dict(&self) -> MappedDict<'_> {
        MappedDict {
            string_bytes: self.raw(sec::STRING_BYTES),
            string_offsets: self.u64s(sec::STRING_OFFSETS),
            string_sorted: self.u32s(sec::STRING_SORTED),
            term_tags: self.raw(sec::TERM_TAGS),
            term_payloads: self.u64s(sec::TERM_PAYLOADS),
            term_sorted: self.u32s(sec::TERM_SORTED),
            predicate_syms: self.u32s(sec::PREDICATE_SYMS),
            predicate_sorted: self.u32s(sec::PREDICATE_SORTED),
        }
    }

    /// The mapped columnar triple view.
    pub fn cols(&self) -> ColsView<'_> {
        ColsView {
            so_bounds: self.u64s(sec::SO_BOUNDS),
            so_s: self.u32s(sec::SO_S),
            so_o: self.u32s(sec::SO_O),
            os_bounds: self.u64s(sec::OS_BOUNDS),
            os_o: self.u32s(sec::OS_O),
            os_s: self.u32s(sec::OS_S),
            so_dir_bounds: self.u64s(sec::SO_DIR_BOUNDS),
            so_dir_base: self.u32s(sec::SO_DIR_BASE),
            so_dir_starts: self.u32s(sec::SO_DIR_STARTS),
        }
    }

    /// The configured name predicates.
    pub fn name_predicates(&self) -> &[PredicateId] {
        as_predicate_ids(self.u32s(sec::NAME_PREDICATES))
    }

    /// Number of distinct lowercased names in the name index.
    pub fn name_entry_count(&self) -> usize {
        self.u64s(sec::NAME_OFFSETS).len().saturating_sub(1)
    }

    /// The `i`-th name entry, in sorted name order.
    pub fn name_entry(&self, i: usize) -> (&str, &[NodeId]) {
        let offsets = self.u64s(sec::NAME_OFFSETS);
        let bounds = self.u64s(sec::NAME_NODE_BOUNDS);
        let name_bytes = &self.raw(sec::NAME_BYTES)[offsets[i] as usize..offsets[i + 1] as usize];
        // SAFETY: UTF-8 of the section and offset boundaries validated at open.
        let name = unsafe { std::str::from_utf8_unchecked(name_bytes) };
        let ids = &self.u32s(sec::NAME_NODE_IDS)[bounds[i] as usize..bounds[i + 1] as usize];
        (name, as_node_ids(ids))
    }

    /// Materialize the owned parts (dictionary, triples in `(p, s, o)`
    /// order off the SO runs, name predicates) — the slow path used when a
    /// mapped store must be re-serialized into the legacy JSON form.
    pub fn to_parts(&self) -> (Dictionary, Vec<Triple>, Vec<PredicateId>) {
        let md = self.dict();
        let mut strings = Interner::with_capacity(md.string_count());
        for sym in 0..md.string_count() as u32 {
            strings.intern(md.resolve_sym(sym));
        }
        let terms: Vec<Term> = (0..md.node_count())
            .map(|i| decode_term(md.term_tags[i], md.term_payloads[i]))
            .collect();
        let dict = Dictionary::from_raw_parts(strings, terms, md.predicate_syms.to_vec());
        let triples: Vec<Triple> = self.cols().triples().collect();
        (dict, triples, self.name_predicates().to_vec())
    }
}

fn check_perm(what: &str, perm: &[u32], n: usize) -> Result<()> {
    if perm.len() != n {
        return Err(bad(format_args!("{what}: length mismatch")));
    }
    if perm.iter().any(|&v| v as usize >= n) {
        return Err(bad(format_args!("{what}: index out of range")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mapped dictionary
// ---------------------------------------------------------------------------

/// Read-only dictionary view over mapped snapshot sections. Every lookup the
/// owned [`Dictionary`] answers through hash maps is answered here by binary
/// search over sorted permutation arrays — nothing was rebuilt at load time.
#[derive(Clone, Copy, Debug)]
pub struct MappedDict<'a> {
    string_bytes: &'a [u8],
    string_offsets: &'a [u64],
    string_sorted: &'a [u32],
    term_tags: &'a [u8],
    term_payloads: &'a [u64],
    term_sorted: &'a [u32],
    predicate_syms: &'a [u32],
    predicate_sorted: &'a [u32],
}

impl<'a> MappedDict<'a> {
    /// Number of interned strings.
    pub fn string_count(&self) -> usize {
        self.string_sorted.len()
    }

    /// Resolve an interned string symbol.
    pub fn resolve_sym(&self, sym: u32) -> &'a str {
        let lo = self.string_offsets[sym as usize] as usize;
        let hi = self.string_offsets[sym as usize + 1] as usize;
        // SAFETY: section UTF-8 and offset boundaries validated at open.
        unsafe { std::str::from_utf8_unchecked(&self.string_bytes[lo..hi]) }
    }

    /// Find the symbol of `s`, if interned.
    pub fn find_sym(&self, s: &str) -> Option<u32> {
        let i = self
            .string_sorted
            .partition_point(|&sym| self.resolve_sym(sym) < s);
        let &sym = self.string_sorted.get(i)?;
        (self.resolve_sym(sym) == s).then_some(sym)
    }

    /// The term behind a node id.
    pub fn node_term(&self, id: NodeId) -> Term {
        decode_term(self.term_tags[id.index()], self.term_payloads[id.index()])
    }

    /// Look up a term's node id.
    pub fn find_term(&self, term: Term) -> Option<NodeId> {
        let key = encode_term(term);
        let i = self.term_sorted.partition_point(|&t| {
            (self.term_tags[t as usize], self.term_payloads[t as usize]) < key
        });
        let &t = self.term_sorted.get(i)?;
        ((self.term_tags[t as usize], self.term_payloads[t as usize]) == key)
            .then_some(NodeId::new(t))
    }

    /// Look up a resource node by IRI.
    pub fn find_resource(&self, iri: &str) -> Option<NodeId> {
        self.find_term(Term::Resource(self.find_sym(iri)?))
    }

    /// Look up a string-literal node.
    pub fn find_str_literal(&self, value: &str) -> Option<NodeId> {
        self.find_term(Term::Literal(Literal::Str(self.find_sym(value)?)))
    }

    /// Look up a predicate id by name.
    pub fn find_predicate(&self, name: &str) -> Option<PredicateId> {
        let i = self
            .predicate_sorted
            .partition_point(|&p| self.resolve_sym(self.predicate_syms[p as usize]) < name);
        let &p = self.predicate_sorted.get(i)?;
        (self.resolve_sym(self.predicate_syms[p as usize]) == name).then_some(PredicateId::new(p))
    }

    /// The name of a predicate id.
    pub fn predicate_name(&self, id: PredicateId) -> &'a str {
        self.resolve_sym(self.predicate_syms[id.index()])
    }

    /// Number of distinct nodes.
    pub fn node_count(&self) -> usize {
        self.term_tags.len()
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicate_syms.len()
    }
}
