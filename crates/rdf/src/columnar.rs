//! Predicate-partitioned columnar triple layout.
//!
//! The store's data plane is three arrangements of the same deduplicated
//! triple set, each held as parallel `u32` columns rather than arrays of
//! 12-byte structs:
//!
//! * **log** — `(s, p, o)` in first-seen insertion order, the "disk file"
//!   that a built store's [`crate::TripleStore::scan`] replays for the
//!   Sec 6.2 BFS. Builder-side only: serving never reads it, so the image
//!   does not carry it and [`ColsView`] does not show it;
//! * **SO runs** — for each predicate `p`, the `(subject, object)` pairs
//!   sorted by `(s, o)`, delimited by a `P+1` prefix-offset array. A radix
//!   directory over each run's subjects (below) narrows `V(e, p)` (Eq 6) to
//!   one bucket of about sixteen keys, searched for a zero-copy object
//!   slice;
//! * **OS runs** — the mirror image sorted by `(o, s)` for reverse lookups
//!   (`subjects`, value→entity grounding).
//!
//! Compared to the previous four sorted `Vec<Triple>` indexes this drops the
//! per-triple cost from 60 to 28 bytes on a built store (the log and the
//! runs), and to 16 bytes plus the run bounds and the SO directory in the
//! image. Every column is a plain native-endian integer array, so the runs
//! are laid into the store image byte-for-byte and map back in with no
//! rebuild ([`crate::snapshot`]).
//!
//! # The SO directory
//!
//! Each non-empty SO run of `n` pairs gets a base `(lo, shift)` — `lo` its
//! first subject, `shift` the fewest bits (at most 31) that leave
//! `((hi − lo) >> shift) + 1 ≤ ⌈n / 16⌉` buckets, `hi` its last subject — and
//! the bucket starts relative to the run: bucket `b` holds the subjects `s`
//! with `(s − lo) >> shift == b`, and its pairs are
//! `starts[b]..starts[b + 1]`. A run's starts are `buckets + 1` entries from
//! 0 to `n`; an empty run has one entry and no bucket. So a lookup reads one
//! base, one pair of starts, and searches about one 64 B line of subjects
//! instead of the whole run (up to 332 032 pairs on `large_1m`). The
//! directory costs 0.16 B per triple there. OS runs get none: no serving
//! path reads them by key.
//!
//! `ColumnarTriples` is the builder's scratch arrangement of the runs,
//! encoded into the store image and dropped; [`ColsView`] is the borrowed
//! form of the runs every store queries through, over its image, owned or
//! mapped.

use crate::triple::{PredicateId, Triple};

/// The SO and OS runs and the SO directory, arranged on the heap from the
/// builder's log for the image encoder.
#[derive(Debug)]
pub(crate) struct ColumnarTriples {
    so_bounds: Vec<u64>,
    so_s: Vec<u32>,
    so_o: Vec<u32>,
    os_bounds: Vec<u64>,
    os_o: Vec<u32>,
    os_s: Vec<u32>,
    so_dir: SoDirectory,
}

/// The radix directory over the SO runs' subjects, as three columns: each
/// predicate's range of `starts` (`P+1` bounds), its `(lo, shift)` base,
/// and the bucket starts relative to its run.
#[derive(Debug, Default)]
struct SoDirectory {
    bounds: Vec<u64>,
    base: Vec<u32>,
    starts: Vec<u32>,
}

/// Subjects per directory bucket the build aims for: sixteen `u32`s, one
/// 64 B line.
const KEYS_PER_BUCKET: usize = 16;

impl SoDirectory {
    fn build(so_bounds: &[u64], so_s: &[u32]) -> Self {
        let mut dir = Self {
            bounds: vec![0],
            ..Self::default()
        };
        for run in so_bounds.windows(2) {
            let run = &so_s[run[0] as usize..run[1] as usize];
            let (lo, shift) = directory_base(run);
            dir.base.extend([lo, shift]);
            if let Some(&hi) = run.last() {
                let buckets = u64::from((hi - lo) >> shift) + 1;
                dir.starts
                    .extend((0..buckets).map(|b| {
                        run.partition_point(|&s| u64::from((s - lo) >> shift) < b) as u32
                    }));
            }
            dir.starts.push(run.len() as u32);
            dir.bounds.push(dir.starts.len() as u64);
        }
        dir
    }
}

/// The directory base `(lo, shift)` of a run of sorted subjects: its first
/// subject, and the fewest bits (at most 31) that leave at most
/// ⌈n / [`KEYS_PER_BUCKET`]⌉ buckets. `(0, 0)` for an empty run.
fn directory_base(run: &[u32]) -> (u32, u32) {
    let (Some(&lo), Some(&hi)) = (run.first(), run.last()) else {
        return (0, 0);
    };
    let target = run.len().div_ceil(KEYS_PER_BUCKET);
    let shift = (0..31)
        .find(|&shift| (((hi - lo) >> shift) as usize) < target)
        .unwrap_or(31);
    (lo, shift)
}

/// The builder's insertion-order log: `triples` with duplicates dropped,
/// keeping the *first* occurrence so insertion ("disk") order is preserved
/// exactly as the old store's dedup did.
pub(crate) fn dedup_log(mut triples: Vec<Triple>) -> Box<[Triple]> {
    let n = triples.len();
    assert!(n <= u32::MAX as usize, "triple count exceeds u32 range");

    // Sort-based dedup: argsort by (s, p, o, first-seen index), then mark
    // the head of each equal run. Peak transient memory is one u32 per
    // triple — far below the hash-set dedup this replaces at 10M+ rows.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        triples[a as usize]
            .spo_key()
            .cmp(&triples[b as usize].spo_key())
            .then(a.cmp(&b))
    });
    let mut keep = vec![false; n];
    let mut prev: Option<(u32, u32, u32)> = None;
    for &i in &order {
        let t = triples[i as usize];
        let key = (t.s.raw(), t.p.raw(), t.o.raw());
        if prev != Some(key) {
            keep[i as usize] = true;
            prev = Some(key);
        }
    }
    drop(order);
    let mut kept = keep.iter();
    triples.retain(|_| *kept.next().expect("one flag per triple"));
    triples.into_boxed_slice()
}

impl ColumnarTriples {
    /// Arrange the runs and the SO directory from a deduplicated log.
    ///
    /// `predicate_count` sizes the run-offset arrays; every triple must have
    /// `t.p.index() < predicate_count`.
    pub(crate) fn build(predicate_count: usize, log: &[Triple]) -> Self {
        // Partition into per-predicate runs (counting sort on p), then order
        // each run by its pair key.
        let so_bounds = run_bounds(predicate_count, log);
        let (so_s, so_o) = build_runs(&so_bounds, log, |t| (t.s.raw(), t.o.raw()));
        let os_bounds = so_bounds.clone();
        let (os_o, os_s) = build_runs(&os_bounds, log, |t| (t.o.raw(), t.s.raw()));
        let so_dir = SoDirectory::build(&so_bounds, &so_s);
        Self {
            so_bounds,
            so_s,
            so_o,
            os_bounds,
            os_o,
            os_s,
            so_dir,
        }
    }

    /// The borrowed view of the runs.
    pub(crate) fn view(&self) -> ColsView<'_> {
        ColsView {
            so_bounds: &self.so_bounds,
            so_s: &self.so_s,
            so_o: &self.so_o,
            os_bounds: &self.os_bounds,
            os_o: &self.os_o,
            os_s: &self.os_s,
            so_dir_bounds: &self.so_dir.bounds,
            so_dir_base: &self.so_dir.base,
            so_dir_starts: &self.so_dir.starts,
        }
    }
}

/// Prefix offsets of the per-predicate runs: `bounds[p]..bounds[p+1]`.
fn run_bounds(predicate_count: usize, log: &[Triple]) -> Vec<u64> {
    let mut bounds = vec![0u64; predicate_count + 1];
    for t in log {
        bounds[t.p.index() + 1] += 1;
    }
    for i in 1..bounds.len() {
        bounds[i] += bounds[i - 1];
    }
    bounds
}

/// Scatter each triple's `(major, minor)` pair into its predicate's run and
/// sort each run by `(major, minor)`.
fn build_runs(
    bounds: &[u64],
    log: &[Triple],
    pair: impl Fn(&Triple) -> (u32, u32),
) -> (Vec<u32>, Vec<u32>) {
    let n = log.len();
    let mut out_major = vec![0u32; n];
    let mut out_minor = vec![0u32; n];
    let mut cursor: Vec<usize> = bounds[..bounds.len() - 1]
        .iter()
        .map(|&b| b as usize)
        .collect();
    for t in log {
        let p = t.p.index();
        let at = cursor[p];
        (out_major[at], out_minor[at]) = pair(t);
        cursor[p] = at + 1;
    }
    // Sort run by run; the transient pair buffer peaks at the largest run.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for p in 0..bounds.len() - 1 {
        let (lo, hi) = (bounds[p] as usize, bounds[p + 1] as usize);
        if hi - lo <= 1 {
            continue;
        }
        pairs.clear();
        pairs.extend(
            out_major[lo..hi]
                .iter()
                .copied()
                .zip(out_minor[lo..hi].iter().copied()),
        );
        pairs.sort_unstable();
        for (k, (a, b)) in pairs.iter().enumerate() {
            out_major[lo + k] = *a;
            out_minor[lo + k] = *b;
        }
    }
    (out_major, out_minor)
}

/// Borrowed columnar view of the SO and OS runs — the single query surface
/// of every store, over its image.
#[derive(Clone, Copy, Debug)]
pub struct ColsView<'a> {
    /// SO run offsets (`predicate_count + 1` entries).
    pub so_bounds: &'a [u64],
    /// Subjects of the SO runs, sorted by `(s, o)` within each run.
    pub so_s: &'a [u32],
    /// Objects of the SO runs, parallel to [`ColsView::so_s`].
    pub so_o: &'a [u32],
    /// OS run offsets (`predicate_count + 1` entries).
    pub os_bounds: &'a [u64],
    /// Objects of the OS runs, sorted by `(o, s)` within each run.
    pub os_o: &'a [u32],
    /// Subjects of the OS runs, parallel to [`ColsView::os_o`].
    pub os_s: &'a [u32],
    /// Each SO run's range of [`ColsView::so_dir_starts`]
    /// (`predicate_count + 1` entries).
    pub so_dir_bounds: &'a [u64],
    /// Each SO run's directory base, `(lo, shift)` per predicate.
    pub so_dir_base: &'a [u32],
    /// Directory bucket starts, relative to their SO run.
    pub so_dir_starts: &'a [u32],
}

impl<'a> ColsView<'a> {
    /// Stored (deduplicated) triple count.
    pub fn len(&self) -> usize {
        self.so_s.len()
    }

    /// Whether no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.so_s.is_empty()
    }

    /// Number of predicates the run arrays are partitioned over.
    pub fn predicate_count(&self) -> usize {
        self.so_bounds.len().saturating_sub(1)
    }

    /// Every triple in `(p, s, o)` order, walking the SO runs.
    pub(crate) fn triples(self) -> impl Iterator<Item = Triple> + 'a {
        (0..self.predicate_count() as u32).flat_map(move |p| {
            let p = PredicateId::new(p);
            let (subjects, objects) = self.so_run(p);
            subjects
                .iter()
                .zip(objects)
                .map(move |(&s, &o)| Triple::new(crate::NodeId::new(s), p, crate::NodeId::new(o)))
        })
    }

    /// The SO run of predicate `p`: parallel `(subjects, objects)` columns
    /// sorted by `(s, o)`. Empty for out-of-range `p`.
    pub fn so_run(&self, p: PredicateId) -> (&'a [u32], &'a [u32]) {
        let (lo, hi) = self.run_range(self.so_bounds, p);
        (&self.so_s[lo..hi], &self.so_o[lo..hi])
    }

    /// The OS run of predicate `p`: parallel `(objects, subjects)` columns
    /// sorted by `(o, s)`.
    pub fn os_run(&self, p: PredicateId) -> (&'a [u32], &'a [u32]) {
        let (lo, hi) = self.run_range(self.os_bounds, p);
        (&self.os_o[lo..hi], &self.os_s[lo..hi])
    }

    fn run_range(&self, bounds: &[u64], p: PredicateId) -> (usize, usize) {
        let i = p.index();
        if i + 1 >= bounds.len() {
            return (0, 0);
        }
        (bounds[i] as usize, bounds[i + 1] as usize)
    }

    /// `V(e, p)` — the objects of `(s, p, ·)` as a zero-copy slice, sorted
    /// ascending: one directory bucket of the SO run, searched by
    /// [`equal_range`].
    pub fn objects(&self, s: u32, p: PredicateId) -> &'a [u32] {
        let (run_s, run_o) = self.so_run(p);
        let (from, to) = self.so_bucket(s, p.index());
        let (lo, hi) = equal_range(&run_s[from..to], s);
        &run_o[from + lo..from + hi]
    }

    /// The pairs of `p`'s SO run in the directory bucket of `s`, relative
    /// to the run: empty when `s` is past the run's last bucket or `p` is
    /// out of range. A subject below the run's first wraps to some bucket,
    /// which cannot hold it. Every index is inside the run, whatever the
    /// keys hold, once the directory passed the image's checks.
    #[inline]
    fn so_bucket(&self, s: u32, p: usize) -> (usize, usize) {
        let Some(&[lo, shift]) = self.so_dir_base.get(2 * p..2 * p + 2) else {
            return (0, 0);
        };
        let starts =
            &self.so_dir_starts[self.so_dir_bounds[p] as usize..self.so_dir_bounds[p + 1] as usize];
        let b = (s.wrapping_sub(lo) >> shift) as usize;
        match starts.get(b..b + 2) {
            Some(&[from, to]) => (from as usize, to as usize),
            _ => (0, 0),
        }
    }

    /// Bytes of the SO directory: bounds, bases and bucket starts.
    pub fn directory_bytes(&self) -> usize {
        std::mem::size_of_val(self.so_dir_bounds)
            + std::mem::size_of_val(self.so_dir_base)
            + std::mem::size_of_val(self.so_dir_starts)
    }

    /// Subjects of `(·, p, o)` as a zero-copy slice, sorted ascending.
    pub fn subjects(&self, p: PredicateId, o: u32) -> &'a [u32] {
        let (run_o, run_s) = self.os_run(p);
        let (lo, hi) = equal_range(run_o, o);
        &run_s[lo..hi]
    }

    /// Membership probe for `(s, p, o)`.
    pub fn contains(&self, s: u32, p: PredicateId, o: u32) -> bool {
        self.objects(s, p).binary_search(&o).is_ok()
    }
}

/// The half-open index range of `key` in a sorted column — the same pair
/// as `(partition_point(< key), partition_point(<= key))`.
///
/// One branch-free lower bound (the window halves every step and the base
/// advances by a conditional move, so the only branch is the loop count,
/// which depends on `column.len()` alone), then a gallop forward over the
/// equal run. `V(e, p)` runs are 1–3 objects long, so two or three reads
/// past the start find the end where a second binary search over the rest
/// of the column took ⌈log₂ n⌉; a hub's run of `r` entries (OS runs,
/// `object_count`) costs 2⌈log₂ r⌉ + 1.
pub fn equal_range(column: &[u32], key: u32) -> (usize, usize) {
    equal_range_by(column.len(), key, |i| column[i])
}

/// [`equal_range`] over an element accessor (`at(i)` for `i < n`, sorted
/// ascending), so a test can count the reads one probe makes.
#[inline]
fn equal_range_by(n: usize, key: u32, at: impl Fn(usize) -> u32) -> (usize, usize) {
    if n == 0 {
        return (0, 0);
    }
    // Lower bound: the first `i` with `at(i) >= key`, else `n`.
    let mut base = 0usize;
    let mut size = n;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = if at(mid) < key { mid } else { base };
        size -= half;
    }
    let start = base + usize::from(at(base) < key);
    if start == n || at(start) != key {
        return (start, start);
    }
    // Gallop: `last` holds `key`, `end` does not (or is `n`).
    let mut last = start;
    let mut step = 1usize;
    let mut end = loop {
        let probe = start + step;
        if probe >= n {
            break n;
        }
        if at(probe) != key {
            break probe;
        }
        last = probe;
        step *= 2;
    };
    while end - last > 1 {
        let mid = last + (end - last) / 2;
        if at(mid) == key {
            last = mid;
        } else {
            end = mid;
        }
    }
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId::new(s), PredicateId::new(p), NodeId::new(o))
    }

    fn sample_log() -> Box<[Triple]> {
        dedup_log(vec![
            t(5, 1, 9),
            t(1, 0, 2),
            t(5, 1, 3),
            t(1, 0, 2), // duplicate — dropped
            t(0, 2, 1),
            t(5, 1, 3), // duplicate — dropped
            t(2, 0, 2),
        ])
    }

    fn sample() -> ColumnarTriples {
        ColumnarTriples::build(3, &sample_log())
    }

    #[test]
    fn dedup_preserves_first_seen_order() {
        assert_eq!(sample().view().len(), 5);
        assert_eq!(
            sample_log().to_vec(),
            vec![t(5, 1, 9), t(1, 0, 2), t(5, 1, 3), t(0, 2, 1), t(2, 0, 2)]
        );
    }

    #[test]
    fn runs_are_sorted_and_partitioned() {
        let cols = sample();
        let v = cols.view();
        let (s0, o0) = v.so_run(PredicateId::new(0));
        assert_eq!(s0, &[1, 2]);
        assert_eq!(o0, &[2, 2]);
        let (s1, o1) = v.so_run(PredicateId::new(1));
        assert_eq!(s1, &[5, 5]);
        assert_eq!(o1, &[3, 9]); // (s, o) order: 3 before 9
        let (ro, rs) = v.os_run(PredicateId::new(0));
        assert_eq!(ro, &[2, 2]);
        assert_eq!(rs, &[1, 2]); // (o, s) order
    }

    #[test]
    fn point_lookups() {
        let cols = sample();
        let v = cols.view();
        assert_eq!(v.objects(5, PredicateId::new(1)), &[3, 9]);
        assert_eq!(v.objects(5, PredicateId::new(0)), &[] as &[u32]);
        assert_eq!(v.subjects(PredicateId::new(0), 2), &[1, 2]);
        assert!(v.contains(5, PredicateId::new(1), 9));
        assert!(!v.contains(5, PredicateId::new(1), 4));
        // Out-of-range predicate is empty, not a panic.
        assert_eq!(v.objects(5, PredicateId::new(99)), &[] as &[u32]);
    }

    #[test]
    fn equal_range_matches_partition_point() {
        let col = [1u32, 1, 2, 2, 2, 5, 7, 7, 9];
        for key in 0..=10u32 {
            let lo = col.partition_point(|&v| v < key);
            let hi = col.partition_point(|&v| v <= key);
            assert_eq!(equal_range(&col, key), (lo, hi), "key {key}");
        }
        assert_eq!(equal_range(&[], 3), (0, 0));
    }

    #[test]
    fn equal_range_edges() {
        let col = [3u32, 3, 3, 8, 8, u32::MAX, u32::MAX];
        assert_eq!(equal_range(&col, 0), (0, 0)); // below the minimum
        assert_eq!(equal_range(&col, 3), (0, 3)); // the first run
        assert_eq!(equal_range(&col, 9), (5, 5)); // a gap
        assert_eq!(equal_range(&col, u32::MAX), (5, 7)); // the last run, to the end
        assert_eq!(equal_range(&[7], 7), (0, 1));
        assert_eq!(equal_range(&[7], 8), (1, 1)); // above the maximum
        assert_eq!(equal_range(&[7], u32::MAX), (1, 1));
    }

    /// One probe reads ⌈log₂ n⌉ + 1 elements to find the start of the run
    /// and 2⌈log₂(run + 1)⌉ + 1 at most to find its end: no second search
    /// over the rest of the column, and no walk along a hub's run.
    #[test]
    fn equal_range_reads_log_n_plus_log_run() {
        // Runs of 1–3 equal subjects (the shape of a V(e, p) run) and two
        // long runs, in a column long enough that a second binary search over
        // its tail would show.
        let mut col: Vec<u32> = Vec::new();
        for s in 0..5_000u32 {
            let run = match s {
                2_500 => 40,
                4_999 => 1_000,
                _ => 1 + s % 3,
            };
            col.extend(std::iter::repeat_n(s * 2, run as usize));
        }
        let ceil_log2 = |n: usize| n.next_power_of_two().trailing_zeros() as usize;
        for n in [1, 2, 3, 64, 65, 1_000, col.len() - 300, col.len()] {
            let col = &col[..n];
            let top = col[n - 1];
            let stride = if n > 1_000 { 7 } else { 1 };
            // Every `stride`th key, and the two long runs whatever the stride.
            for key in (0..=top + 1).step_by(stride).chain([5_000, 9_998]) {
                let reads = std::cell::Cell::new(0usize);
                let (lo, hi) = equal_range_by(n, key, |i| {
                    reads.set(reads.get() + 1);
                    col[i]
                });
                assert_eq!(lo, col.partition_point(|&v| v < key));
                assert_eq!(hi, col.partition_point(|&v| v <= key));
                assert!(
                    reads.get() <= ceil_log2(n) + 2 * ceil_log2(hi - lo + 1) + 2,
                    "n {n}, key {key}: {} reads for a run of {}",
                    reads.get(),
                    hi - lo
                );
            }
        }
    }

    /// `V(e, p)` with no directory: one [`equal_range`] over the whole run.
    fn objects_by_search(v: &ColsView<'_>, s: u32, p: PredicateId) -> Vec<u32> {
        let (run_s, run_o) = v.so_run(p);
        let (lo, hi) = equal_range(run_s, s);
        run_o[lo..hi].to_vec()
    }

    /// The keys worth probing in `p`'s run: each key and its neighbours,
    /// both ends of `u32`, one below the run's first key and one above its
    /// last, and the first and last key of (up to 64) empty buckets.
    fn probes(v: &ColsView<'_>, p: PredicateId) -> Vec<u32> {
        let (run_s, _) = v.so_run(p);
        let mut keys = vec![0, 1, u32::MAX - 1, u32::MAX];
        for &k in run_s {
            keys.extend([k.wrapping_sub(1), k, k.wrapping_add(1)]);
        }
        let i = p.index();
        let (lo, shift) = (v.so_dir_base[2 * i], v.so_dir_base[2 * i + 1]);
        if let (Some(&first), Some(&last)) = (run_s.first(), run_s.last()) {
            keys.extend([first.wrapping_sub(1), last.wrapping_add(1)]);
        }
        let starts = &v.so_dir_starts[v.so_dir_bounds[i] as usize..v.so_dir_bounds[i + 1] as usize];
        let empty = starts.windows(2).enumerate().filter(|(_, w)| w[0] == w[1]);
        for (b, _) in empty.take(64) {
            let first = lo.wrapping_add((b as u32).wrapping_shl(shift));
            keys.extend([first, first.wrapping_add((1u32 << shift) - 1)]);
        }
        keys
    }

    /// Every probe of every run: the directory's answer is the search's,
    /// and no run has more than ⌈n / 16⌉ buckets (two, when a run of up to
    /// sixteen spans more than 2³¹ keys).
    fn assert_directory_matches_search(v: &ColsView<'_>) {
        for p in 0..v.predicate_count() as u32 {
            let p = PredicateId::new(p);
            let n = v.so_run(p).0.len();
            let i = p.index();
            let buckets = (v.so_dir_bounds[i + 1] - v.so_dir_bounds[i] - 1) as usize;
            assert!(
                buckets <= n.div_ceil(KEYS_PER_BUCKET).max(2),
                "{buckets} buckets for {n}"
            );
            for s in probes(v, p) {
                assert_eq!(v.objects(s, p), objects_by_search(v, s, p), "p {i}, s {s}");
            }
        }
    }

    /// Runs of every shape the directory must answer right, keys at most
    /// `max`: empty, one entry, a hub key repeated, keys at 0 and `max`,
    /// dense (span ≈ length), sparse (span ≫ length), a hub among dense
    /// neighbours, and two clusters at the ends with empty buckets between.
    fn shaped_runs(max: u32) -> Vec<Vec<(u32, u32)>> {
        let hub: Vec<(u32, u32)> = (0..300).map(|o| (7, o)).collect();
        let ends = vec![(0, 1), (0, 2), (max, 3)];
        let dense: Vec<(u32, u32)> = (1_000..3_000u32)
            .flat_map(|s| (0..1 + s % 3).map(move |o| (s, o)))
            .collect();
        let sparse: Vec<(u32, u32)> = (0..40u32)
            .map(|i| ((u64::from(max) * u64::from(i) / 39) as u32, i))
            .collect();
        let mixed: Vec<(u32, u32)> = (0..500u32)
            .flat_map(|s| (0..if s == 250 { 400 } else { 1 }).map(move |o| (s * 3, o)))
            .collect();
        let gap: Vec<(u32, u32)> = (0..100).chain(max - 99..=max).map(|s| (s, 1)).collect();
        vec![
            vec![],
            vec![(max / 2, 1)],
            hub,
            ends,
            dense,
            sparse,
            mixed,
            gap,
        ]
    }

    fn triples_of(runs: &[Vec<(u32, u32)>]) -> Vec<Triple> {
        runs.iter()
            .enumerate()
            .flat_map(|(p, run)| run.iter().map(move |&(s, o)| t(s, p as u32, o)))
            .collect()
    }

    fn columns_of(runs: &[Vec<(u32, u32)>]) -> ColumnarTriples {
        ColumnarTriples::build(runs.len(), &dedup_log(triples_of(runs)))
    }

    #[test]
    fn directory_lookup_equals_a_search_of_the_whole_run() {
        assert_directory_matches_search(&columns_of(&shaped_runs(u32::MAX)).view());
    }

    /// The same runs, saved as a snapshot and mapped back: the mapped
    /// directory answers as the search does, and as the built one.
    #[test]
    fn mapped_directory_answers_as_the_built_one() {
        let nodes = 70_000u32;
        let runs = shaped_runs(nodes - 1);
        let mut b = crate::GraphBuilder::default();
        for i in 0..nodes {
            b.resource(&format!("n{i}"));
        }
        for p in 0..runs.len() {
            b.predicate(&format!("p{p}"));
        }
        for triple in triples_of(&runs) {
            b.triple(triple.s, triple.p, triple.o);
        }
        let built = columns_of(&runs);
        let path = std::env::temp_dir().join(format!("kbqa-so-dir-{}.snap", std::process::id()));
        b.build().write_snapshot(&path).unwrap();
        let mapped = crate::TripleStore::from_snapshot(crate::Snapshot::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let (built, mapped) = (built.view(), mapped.cols());
        assert_eq!(mapped.directory_bytes(), built.directory_bytes());
        assert_directory_matches_search(&mapped);
        for p in 0..runs.len() as u32 {
            let p = PredicateId::new(p);
            for s in probes(&built, p) {
                assert_eq!(mapped.objects(s, p), built.objects(s, p), "s {s}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random runs, from sparse over all of `u32` (no shift) to a few
        /// hub keys repeated (shifted down to a handful of values).
        #[test]
        fn random_runs_match_the_search(
            keys in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..400),
            bits in 0u32..32,
        ) {
            let run: Vec<(u32, u32)> = keys.iter().enumerate().map(|(o, &k)| (k >> bits, o as u32)).collect();
            assert_directory_matches_search(&columns_of(&[run]).view());
        }
    }

    #[test]
    fn empty_build() {
        let cols = ColumnarTriples::build(2, &[]);
        let v = cols.view();
        assert!(v.is_empty());
        assert_eq!(v.predicate_count(), 2);
        assert_eq!(v.objects(0, PredicateId::new(0)), &[] as &[u32]);
    }

    #[test]
    fn large_shuffled_build_agrees_with_naive() {
        // A few hundred triples with collisions, in scrambled order.
        let mut triples = Vec::new();
        for i in 0..400u32 {
            let x = i.wrapping_mul(2654435761) % 97;
            triples.push(t(x % 13, x % 5, x % 7));
        }
        let log = dedup_log(triples.clone());
        let cols = ColumnarTriples::build(5, &log);
        let v = cols.view();
        // Naive dedup keeping first occurrence.
        let mut seen = std::collections::HashSet::new();
        let naive: Vec<Triple> = triples
            .iter()
            .copied()
            .filter(|t| seen.insert(*t))
            .collect();
        assert_eq!(v.len(), naive.len());
        assert_eq!(log.to_vec(), naive);
        // The SO walk yields the same set, in `(p, s, o)` order.
        let mut by_pso = naive.clone();
        by_pso.sort_unstable_by_key(|t| (t.p.raw(), t.s.raw(), t.o.raw()));
        assert_eq!(v.triples().collect::<Vec<_>>(), by_pso);
        // Spot-check every (s, p) group against a scan.
        for s in 0..13u32 {
            for p in 0..5u32 {
                let mut want: Vec<u32> = naive
                    .iter()
                    .filter(|t| t.s.raw() == s && t.p.raw() == p)
                    .map(|t| t.o.raw())
                    .collect();
                want.sort_unstable();
                assert_eq!(v.objects(s, PredicateId::new(p)), want.as_slice());
            }
        }
    }
}
