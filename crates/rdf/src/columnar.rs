//! Predicate-partitioned columnar triple layout.
//!
//! The store's data plane is three arrangements of the same deduplicated
//! triple set, each held as parallel `u32` columns rather than arrays of
//! 12-byte structs:
//!
//! * **log** — `(s, p, o)` in first-seen insertion order, the "disk file"
//!   that a built store's [`crate::TripleStore::scan`] replays for the
//!   Sec 6.2 BFS. Builder-side only: serving never reads it, so the
//!   snapshot does not carry it and [`ColsView`] does not show it;
//! * **SO runs** — for each predicate `p`, the `(subject, object)` pairs
//!   sorted by `(s, o)`, delimited by a `P+1` prefix-offset array. One
//!   branch-free binary search answers `V(e, p)` (Eq 6) with a zero-copy
//!   object slice;
//! * **OS runs** — the mirror image sorted by `(o, s)` for reverse lookups
//!   (`subjects`, value→entity grounding).
//!
//! Compared to the previous four sorted `Vec<Triple>` indexes this drops the
//! per-triple cost from 60 to 28 bytes on the builder, and to 16 bytes plus
//! the run bounds in a served snapshot. Every column is a plain
//! little-endian-integer array, so the runs serialize into the snapshot file
//! byte-for-byte and map back in with no rebuild ([`crate::snapshot`]).
//!
//! [`ColumnarTriples`] owns the columns (the in-memory backend);
//! [`ColsView`] is the borrowed form of the runs both backends query
//! through, so a store served out of an `mmap`ed snapshot runs the same code
//! paths.

use crate::triple::{PredicateId, Triple};

/// Owned columnar triple data. Built once from a raw triple log; immutable
/// afterwards.
#[derive(Clone, Debug, Default)]
pub struct ColumnarTriples {
    log_s: Vec<u32>,
    log_p: Vec<u32>,
    log_o: Vec<u32>,
    so_bounds: Vec<u64>,
    so_s: Vec<u32>,
    so_o: Vec<u32>,
    os_bounds: Vec<u64>,
    os_o: Vec<u32>,
    os_s: Vec<u32>,
}

impl ColumnarTriples {
    /// Build the three arrangements from a raw triple log. Duplicates are
    /// dropped, keeping the *first* occurrence so insertion ("disk") order
    /// is preserved exactly as the old store's dedup did.
    ///
    /// `predicate_count` sizes the run-offset arrays; every triple must have
    /// `t.p.index() < predicate_count`.
    pub fn build(predicate_count: usize, triples: Vec<Triple>) -> Self {
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

        let kept = keep.iter().filter(|&&k| k).count();
        let mut log_s = Vec::with_capacity(kept);
        let mut log_p = Vec::with_capacity(kept);
        let mut log_o = Vec::with_capacity(kept);
        for (i, t) in triples.iter().enumerate() {
            if keep[i] {
                log_s.push(t.s.raw());
                log_p.push(t.p.raw());
                log_o.push(t.o.raw());
            }
        }
        drop(keep);
        drop(triples);

        // Partition into per-predicate runs (counting sort on p), then order
        // each run by its pair key.
        let so_bounds = run_bounds(predicate_count, &log_p);
        let (so_s, so_o) = build_runs(&so_bounds, &log_p, &log_s, &log_o);
        let os_bounds = so_bounds.clone();
        let (os_o, os_s) = build_runs(&os_bounds, &log_p, &log_o, &log_s);

        Self {
            log_s,
            log_p,
            log_o,
            so_bounds,
            so_s,
            so_o,
            os_bounds,
            os_o,
            os_s,
        }
    }

    /// The `i`-th triple of the insertion-order log.
    #[inline]
    fn log_triple(&self, i: usize) -> Triple {
        Triple::new(
            crate::NodeId::new(self.log_s[i]),
            PredicateId::new(self.log_p[i]),
            crate::NodeId::new(self.log_o[i]),
        )
    }

    /// Every triple in first-seen insertion order: the builder's log.
    pub(crate) fn log(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.log_s.len()).map(|i| self.log_triple(i))
    }

    /// The borrowed view of the runs all queries go through.
    pub fn view(&self) -> ColsView<'_> {
        ColsView {
            so_bounds: &self.so_bounds,
            so_s: &self.so_s,
            so_o: &self.so_o,
            os_bounds: &self.os_bounds,
            os_o: &self.os_o,
            os_s: &self.os_s,
        }
    }
}

/// Prefix offsets of the per-predicate runs: `bounds[p]..bounds[p+1]`.
fn run_bounds(predicate_count: usize, log_p: &[u32]) -> Vec<u64> {
    let mut bounds = vec![0u64; predicate_count + 1];
    for &p in log_p {
        bounds[p as usize + 1] += 1;
    }
    for i in 1..bounds.len() {
        bounds[i] += bounds[i - 1];
    }
    bounds
}

/// Scatter `(major, minor)` pairs into their predicate runs and sort each
/// run by `(major, minor)`.
fn build_runs(bounds: &[u64], log_p: &[u32], major: &[u32], minor: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = log_p.len();
    let mut out_major = vec![0u32; n];
    let mut out_minor = vec![0u32; n];
    let mut cursor: Vec<usize> = bounds[..bounds.len() - 1]
        .iter()
        .map(|&b| b as usize)
        .collect();
    for i in 0..n {
        let p = log_p[i] as usize;
        let at = cursor[p];
        out_major[at] = major[i];
        out_minor[at] = minor[i];
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
/// shared by the in-memory and mmap-backed stores.
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
    /// ascending: one [`equal_range`] probe of the SO run.
    pub fn objects(&self, s: u32, p: PredicateId) -> &'a [u32] {
        let (run_s, run_o) = self.so_run(p);
        let (lo, hi) = equal_range(run_s, s);
        &run_o[lo..hi]
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

    fn sample() -> ColumnarTriples {
        ColumnarTriples::build(
            3,
            vec![
                t(5, 1, 9),
                t(1, 0, 2),
                t(5, 1, 3),
                t(1, 0, 2), // duplicate — dropped
                t(0, 2, 1),
                t(5, 1, 3), // duplicate — dropped
                t(2, 0, 2),
            ],
        )
    }

    #[test]
    fn dedup_preserves_first_seen_order() {
        let cols = sample();
        let v = cols.view();
        assert_eq!(v.len(), 5);
        let log: Vec<Triple> = (0..v.len()).map(|i| cols.log_triple(i)).collect();
        assert_eq!(
            log,
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

    #[test]
    fn empty_build() {
        let cols = ColumnarTriples::build(2, vec![]);
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
        let cols = ColumnarTriples::build(5, triples.clone());
        let v = cols.view();
        // Naive dedup keeping first occurrence.
        let mut seen = std::collections::HashSet::new();
        let naive: Vec<Triple> = triples
            .iter()
            .copied()
            .filter(|t| seen.insert(*t))
            .collect();
        assert_eq!(v.len(), naive.len());
        for (i, want) in naive.iter().enumerate() {
            assert_eq!(cols.log_triple(i), *want);
        }
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
