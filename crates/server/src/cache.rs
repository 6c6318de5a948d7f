//! Sharded, lock-striped LRU answer cache.
//!
//! Repeated questions dominate live QA traffic, and the engine's inference
//! is deterministic, so an answer computed once can be replayed verbatim.
//! The cache stores `Arc<QaResponse>` values keyed by
//! [`QaRequest::cache_key`](kbqa_core::service::QaRequest::cache_key)
//! (normalized question + effective engine config) — a hit therefore
//! serializes **byte-identically** to what a fresh engine run would return.
//!
//! Contention is bounded by striping: keys hash (Fx) onto `N` independent
//! shards, each a slab-backed doubly-linked LRU list behind its own
//! [`Mutex`]. Threads touching different shards never contend, and no lock
//! is held while the engine computes a miss. Hit/miss/eviction/insertion
//! counters are lock-free atomics shared across shards.
//!
//! **Model hot swaps** need no cache support at all: the HTTP layer keys
//! entries by
//! [`ServiceSnapshot::cache_key`](kbqa_core::service::ServiceSnapshot::cache_key),
//! which prefixes the model epoch. A swap bumps the epoch, so every
//! post-swap lookup misses (and recomputes under the new model) while stale
//! entries become unaddressable and age out by LRU pressure — invalidation
//! without a stop-the-world flush.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use kbqa_common::hash::{FxHashMap, FxHasher};
use kbqa_core::service::QaResponse;

/// Cache sizing knobs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total entries retained across all shards. Rounded up to a multiple
    /// of `shards` (each shard holds `capacity / shards`, at least one).
    pub capacity: usize,
    /// Number of independent lock stripes. More shards → less contention,
    /// slightly coarser LRU (recency is tracked per shard).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            shards: 16,
        }
    }
}

/// A point-in-time view of cache effectiveness, served at `/cache/stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Total inserts (first writes + overwrites).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (sum of shard capacities).
    pub capacity: usize,
    /// Lock stripes.
    pub shards: usize,
    /// The service's current model epoch, stamped onto the snapshot by the
    /// `/cache/stats` route (the cache itself is epoch-agnostic: keys are
    /// versioned upstream, so post-swap lookups simply miss and stale
    /// entries age out by LRU). 0 when the cache is used standalone.
    #[serde(default)]
    pub model_epoch: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Slot index sentinel: "no slot".
const NIL: usize = usize::MAX;

/// One resident entry in a shard's slab.
struct Slot {
    key: String,
    value: Arc<QaResponse>,
    /// Neighbour toward the most-recently-used end.
    prev: usize,
    /// Neighbour toward the least-recently-used end.
    next: usize,
}

/// One lock stripe: a slab-backed doubly-linked LRU list plus a key index.
/// All slot links are indices into `slots`, so touch/evict are O(1) with no
/// per-operation allocation once the slab is warm.
struct Shard {
    map: FxHashMap<String, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<QaResponse>> {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(Arc::clone(&self.slots[i].value))
    }

    /// Insert or overwrite; returns whether an LRU eviction happened.
    fn insert(&mut self, key: String, value: Arc<QaResponse>, capacity: usize) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.touch(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            evicted = true;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The sharded answer cache. `Sync`: every method takes `&self`, so one
/// instance is shared by all server workers without an outer lock.
pub struct AnswerCache {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl AnswerCache {
    /// An empty cache; `config` extremes are clamped to at least one shard
    /// holding at least one entry.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let shard_capacity = config.capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &str) -> usize {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Look up a response, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<QaResponse>> {
        let found = self.shard_for(key).lock().expect("cache shard").get(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert (or overwrite) a response.
    pub fn insert(&self, key: String, value: Arc<QaResponse>) {
        let evicted = self.shard_for(&key).lock().expect("cache shard").insert(
            key,
            value,
            self.shard_capacity,
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batch lookup: [`Self::get`] per key, results at the key's index, the
    /// hit/miss counters bumped once for the whole batch. Each key takes its
    /// own stripe lock: a streamed `/batch` looks up 16-question lanes over
    /// 16 stripes — about one key per stripe — so grouping keys by stripe
    /// would buy a `Vec` per stripe per call and save almost no lock trips.
    pub fn get_batch(&self, keys: &[String]) -> Vec<Option<Arc<QaResponse>>> {
        let results: Vec<Option<Arc<QaResponse>>> = keys
            .iter()
            .map(|key| self.shard_for(key).lock().expect("cache shard").get(key))
            .collect();
        let hits = results.iter().flatten().count() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
        results
    }

    /// Batch insert: the fill-side twin of [`Self::get_batch`] — entries go
    /// in one by one, in order, and the counters are bumped once.
    pub fn insert_batch(&self, entries: Vec<(String, Arc<QaResponse>)>) {
        let total = entries.len() as u64;
        let mut evicted = 0u64;
        for (key, value) in entries {
            let mut shard = self.shard_for(&key).lock().expect("cache shard");
            evicted += u64::from(shard.insert(key, value, self.shard_capacity));
        }
        self.insertions.fetch_add(total, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Look up `key`, computing and caching the response on a miss. The
    /// shard lock is **not** held during `compute`, so concurrent misses on
    /// the same key may compute twice (last write wins) — acceptable because
    /// the engine is deterministic, and far better than serializing every
    /// cold question behind one lock.
    pub fn get_or_compute(
        &self,
        key: String,
        compute: impl FnOnce() -> QaResponse,
    ) -> Arc<QaResponse> {
        if let Some(found) = self.get(&key) {
            return found;
        }
        let computed = Arc::new(compute());
        self.insert(key, Arc::clone(&computed));
        computed
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are preserved: they describe traffic, not
    /// contents).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("cache shard").clear();
        }
    }

    /// Counters + occupancy, as served at `/cache/stats`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.shard_capacity * self.shards.len(),
            shards: self.shards.len(),
            model_epoch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbqa_core::engine::Answer;

    fn response(value: &str) -> Arc<QaResponse> {
        Arc::new(QaResponse::from_answers(vec![
            Answer::ranked(value, 1.0).with_provenance("entity", "template", "predicate")
        ]))
    }

    /// Single-shard cache so LRU order is fully observable.
    fn single_shard(capacity: usize) -> AnswerCache {
        AnswerCache::new(CacheConfig {
            capacity,
            shards: 1,
        })
    }

    #[test]
    fn hit_returns_the_identical_response() {
        let cache = single_shard(8);
        let stored = response("42");
        cache.insert("k".into(), Arc::clone(&stored));
        let hit = cache.get("k").expect("hit");
        // Same allocation, so serialization is trivially byte-identical.
        assert!(Arc::ptr_eq(&stored, &hit));
        assert_eq!(
            serde_json::to_string(&*stored).unwrap(),
            serde_json::to_string(&*hit).unwrap()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let cache = single_shard(3);
        for k in ["a", "b", "c"] {
            cache.insert(k.into(), response(k));
        }
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("d".into(), response("d"));
        assert_eq!(cache.len(), 3);
        assert!(cache.get("b").is_none(), "LRU entry should be evicted");
        for k in ["a", "c", "d"] {
            assert!(cache.get(k).is_some(), "{k} should survive");
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn overwrite_does_not_evict_or_grow() {
        let cache = single_shard(2);
        cache.insert("k".into(), response("old"));
        cache.insert("k".into(), response("new"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get("k").unwrap().top(), Some("new"));
    }

    #[test]
    fn eviction_reuses_slab_slots() {
        let cache = single_shard(2);
        for i in 0..100 {
            cache.insert(format!("k{i}"), response("v"));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 98);
        // The two newest keys are resident.
        assert!(cache.get("k99").is_some());
        assert!(cache.get("k98").is_some());
    }

    #[test]
    fn get_or_compute_computes_once_then_hits() {
        let cache = single_shard(4);
        let mut calls = 0;
        let first = cache.get_or_compute("k".into(), || {
            calls += 1;
            QaResponse::from_answers(vec![Answer::ranked("v", 1.0)])
        });
        let second = cache.get_or_compute("k".into(), || unreachable!("must be cached"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(calls, 1);
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one_per_shard() {
        let cache = AnswerCache::new(CacheConfig {
            capacity: 0,
            shards: 0,
        });
        cache.insert("k".into(), response("v"));
        assert!(cache.get("k").is_some());
        assert_eq!(cache.stats().capacity, 1);
        assert_eq!(cache.stats().shards, 1);
    }

    #[test]
    fn striping_survives_concurrent_mixed_traffic() {
        let cache = AnswerCache::new(CacheConfig {
            capacity: 64,
            shards: 8,
        });
        let threads = 8usize;
        let ops = 500usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..ops {
                        // Overlapping key ranges across threads: every key is
                        // both inserted and looked up by multiple threads.
                        let key = format!("k{}", (t * 31 + i) % 96);
                        if i % 3 == 0 {
                            cache.insert(key, response("v"));
                        } else {
                            cache.get(&key);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        let inserts = (threads * ops.div_ceil(3)) as u64;
        // Every get and insert is accounted exactly once.
        assert_eq!(stats.hits + stats.misses, (threads * ops) as u64 - inserts);
        assert_eq!(stats.insertions, inserts);
        // Occupancy never exceeds capacity.
        assert!(stats.entries <= stats.capacity);
    }

    #[test]
    fn batch_get_matches_sequential_gets_and_counts_once_per_key() {
        let cache = AnswerCache::new(CacheConfig {
            capacity: 64,
            shards: 4,
        });
        cache.insert_batch(vec![
            ("a".into(), response("1")),
            ("c".into(), response("3")),
        ]);
        let keys: Vec<String> = ["a", "b", "c", "d"].iter().map(|k| k.to_string()).collect();
        let results = cache.get_batch(&keys);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().top(), Some("1"));
        assert!(results[1].is_none());
        assert_eq!(results[2].as_ref().unwrap().top(), Some("3"));
        assert!(results[3].is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 2, 2));
    }

    #[test]
    fn batch_insert_accounts_evictions_and_promotes_like_single_inserts() {
        let cache = single_shard(2);
        cache.insert_batch(vec![
            ("a".into(), response("a")),
            ("b".into(), response("b")),
            ("c".into(), response("c")),
        ]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Insertion order is preserved within a stripe: "a" was the victim.
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn batch_get_with_duplicate_keys_is_order_preserving() {
        let cache = single_shard(8);
        cache.insert("k".into(), response("v"));
        let keys: Vec<String> = vec!["k".into(), "missing".into(), "k".into()];
        let results = cache.get_batch(&keys);
        assert!(results[0].is_some() && results[2].is_some());
        assert!(results[1].is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = single_shard(4);
        cache.insert("k".into(), response("v"));
        assert!(cache.get("k").is_some());
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
        assert!(cache.get("k").is_none());
    }
}
