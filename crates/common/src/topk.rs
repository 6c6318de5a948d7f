//! Bounded top-k accumulation.
//!
//! The online QA engine scores many candidate `(value, probability)` pairs
//! and only ever reports a short ranked list; [`TopK`] keeps the k best seen
//! so far in O(log k) per insert using a min-heap of the current survivors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::float::OrderedF64;

/// Keeps the `k` items with the largest scores.
///
/// Ties are broken by insertion order (earlier insertions win), which keeps
/// the engine's output deterministic for equal-probability answers.
#[derive(Clone, Debug)]
pub struct TopK<T> {
    capacity: usize,
    /// Min-heap over (score, seq) so the weakest survivor is on top.
    /// `Reverse(seq)` prefers earlier insertions on score ties.
    heap: BinaryHeap<Reverse<(OrderedF64, Reverse<u64>, usize)>>,
    items: Vec<Option<T>>,
    next_seq: u64,
    /// Reused by [`TopK::drain_sorted_into`] so repeated drains stay
    /// allocation-free once warmed up.
    drain_keys: Vec<(OrderedF64, u64, usize)>,
}

impl<T> TopK<T> {
    /// Create an accumulator that keeps the best `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TopK capacity must be positive");
        Self {
            capacity,
            heap: BinaryHeap::with_capacity(capacity + 1),
            items: Vec::with_capacity(capacity + 1),
            next_seq: 0,
            drain_keys: Vec::new(),
        }
    }

    /// Offer an item; it is kept only if it beats the current k-th best.
    pub fn push(&mut self, score: f64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.items.len();
        self.items.push(Some(item));
        self.heap
            .push(Reverse((OrderedF64(score), Reverse(seq), slot)));
        if self.heap.len() > self.capacity {
            let Reverse((_, _, evicted)) = self.heap.pop().expect("heap nonempty");
            self.items[evicted] = None;
        }
    }

    /// Number of items currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no items are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Reset to an empty accumulator with a (possibly new) capacity, keeping
    /// the allocated heap and item storage — the scratch-reuse path for hot
    /// loops that rank once per request.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "TopK capacity must be positive");
        self.capacity = capacity;
        self.heap.clear();
        self.items.clear();
        self.next_seq = 0;
    }

    /// Drain the retained items into `out` (cleared first) as `(score, item)`
    /// pairs sorted by descending score, insertion order breaking ties.
    /// Equivalent to [`TopK::into_sorted_vec`] but leaves the accumulator
    /// empty and reusable, and never allocates beyond `out`'s growth
    /// (`sort_unstable_by` on the unique `(score, seq)` keys is exact).
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(f64, T)>) {
        out.clear();
        self.drain_keys.clear();
        for Reverse((score, Reverse(seq), slot)) in self.heap.drain() {
            self.drain_keys.push((score, seq, slot));
        }
        // `(score, seq)` keys are unique (seq is), so the unstable sort is
        // deterministic and matches `into_sorted_vec`'s stable ordering.
        self.drain_keys
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(score, _, slot) in &self.drain_keys {
            let item = self.items[slot].take().expect("retained item present");
            out.push((score.get(), item));
        }
        self.items.clear();
        self.next_seq = 0;
    }

    /// Consume the accumulator, returning `(score, item)` pairs sorted by
    /// descending score (insertion order breaks ties).
    pub fn into_sorted_vec(self) -> Vec<(f64, T)> {
        let mut items = self.items;
        let mut out: Vec<(OrderedF64, u64, T)> = self
            .heap
            .into_iter()
            .map(|Reverse((score, Reverse(seq), slot))| {
                let item = items[slot].take().expect("retained item present");
                (score, seq, item)
            })
            .collect();
        out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        out.into_iter()
            .map(|(s, _, item)| (s.get(), item))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_best_k() {
        let mut topk = TopK::new(3);
        for (score, name) in [(0.1, "a"), (0.9, "b"), (0.5, "c"), (0.7, "d"), (0.2, "e")] {
            topk.push(score, name);
        }
        let out = topk.into_sorted_vec();
        assert_eq!(
            out.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            vec!["b", "d", "c"]
        );
    }

    #[test]
    fn ties_prefer_earlier_insertion() {
        let mut topk = TopK::new(2);
        topk.push(0.5, "first");
        topk.push(0.5, "second");
        topk.push(0.5, "third");
        let out = topk.into_sorted_vec();
        assert_eq!(
            out.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            vec!["first", "second"]
        );
    }

    #[test]
    fn fewer_items_than_capacity() {
        let mut topk = TopK::new(10);
        topk.push(1.0, 1);
        topk.push(2.0, 2);
        let out = topk.into_sorted_vec();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (2.0, 2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TopK::<i32>::new(0);
    }

    #[test]
    fn drain_sorted_matches_into_sorted_vec_and_resets() {
        let scores = [(0.1, 1), (0.9, 2), (0.5, 3), (0.5, 4), (0.7, 5)];
        let mut owned = TopK::new(3);
        let mut reused = TopK::new(3);
        for &(s, v) in &scores {
            owned.push(s, v);
            reused.push(s, v);
        }
        let mut drained = Vec::new();
        reused.drain_sorted_into(&mut drained);
        assert_eq!(drained, owned.into_sorted_vec());
        // The accumulator is empty and fully reusable afterwards.
        assert!(reused.is_empty());
        reused.reset(2);
        reused.push(1.0, 9);
        reused.push(2.0, 8);
        reused.push(3.0, 7);
        reused.drain_sorted_into(&mut drained);
        assert_eq!(drained, vec![(3.0, 7), (2.0, 8)]);
    }

    #[test]
    fn reset_restores_tie_breaking_sequence() {
        // After a reset, insertion sequence numbers restart, so tie-breaking
        // behaves exactly like a fresh accumulator.
        let mut reused = TopK::new(2);
        reused.push(0.5, "old");
        reused.reset(2);
        reused.push(0.5, "first");
        reused.push(0.5, "second");
        reused.push(0.5, "third");
        let mut out = Vec::new();
        reused.drain_sorted_into(&mut out);
        assert_eq!(
            out.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            vec!["first", "second"]
        );
    }
}
