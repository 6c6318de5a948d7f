//! Sharded, lock-striped LRU answer cache.
//!
//! Repeated questions dominate live QA traffic, and the engine's inference
//! is deterministic, so an answer computed once can be replayed verbatim.
//! [`AnswerCache`] is generic over what it stores; the server stores each
//! answer **as the bytes it is served as** — one `Arc<[u8]>` holding an
//! outcome tag and the response JSON ([`RenderedAnswer`]) — keyed by
//! [`KbqaService::cache_key`](kbqa_core::service::KbqaService::cache_key)
//! (model epoch + normalized question + effective engine config). A hit is
//! therefore decode → key (built in a reused buffer) → probe → one copy of
//! the stored bytes: no response tree, no re-serialization, and a hit is
//! **byte-identical** to what a fresh engine run would return. A miss
//! renders once, into the response or stream chunk, and copies those bytes
//! into its entry. [`BatchLane`] is that path for a run of `/batch`
//! questions.
//!
//! Keys stay full strings rather than fingerprints: they are built from
//! client text, so a fingerprint would still need a full-key comparison to
//! stay collision-safe. Each resident key is one `Arc<str>`, shared by the
//! LRU slot and the index, so an insert allocates the key once.
//!
//! Contention is bounded by striping: keys hash (Fx) onto `N` independent
//! shards, each a slab-backed doubly-linked LRU list behind its own
//! [`Mutex`]. Threads touching different shards never contend, and no lock
//! is held while the engine computes a miss. Hit/miss/eviction/insertion
//! counters are lock-free atomics shared across shards.
//!
//! **Model hot swaps** need no cache support at all: the HTTP layer keys
//! entries by
//! [`KbqaService::cache_key`](kbqa_core::service::KbqaService::cache_key),
//! which prefixes the model epoch. A swap bumps the epoch, so every
//! post-swap lookup misses (and recomputes under the new model) while stale
//! entries become unaddressable and age out by LRU pressure — invalidation
//! without a stop-the-world flush.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use kbqa_common::hash::{FxHashMap, FxHasher};
use kbqa_core::service::{KbqaService, QaRequest, QaResponse, Refusal, Rendered};

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
struct Slot<V> {
    /// Shared with the shard's index (eviction removes it by this key).
    key: Arc<str>,
    value: V,
    /// Neighbour toward the most-recently-used end.
    prev: usize,
    /// Neighbour toward the least-recently-used end.
    next: usize,
}

/// One lock stripe: a slab-backed doubly-linked LRU list plus a key index.
/// All slot links are indices into `slots`, so touch/evict are O(1) with no
/// per-operation allocation once the slab is warm.
struct Shard<V> {
    map: FxHashMap<Arc<str>, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
}

impl<V: Clone> Shard<V> {
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

    fn get(&mut self, key: &str) -> Option<V> {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(self.slots[i].value.clone())
    }

    /// Insert or overwrite; returns whether an LRU eviction happened.
    fn insert(&mut self, key: Arc<str>, value: V, capacity: usize) -> bool {
        if let Some(&i) = self.map.get(&*key) {
            self.slots[i].value = value;
            self.touch(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&*self.slots[victim].key);
            self.free.push(victim);
            evicted = true;
        }
        let slot = Slot {
            key: Arc::clone(&key),
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

/// The sharded answer cache, mapping versioned cache keys to `V` — the
/// server's [`RenderedCache`] stores rendered bytes; the default value type
/// keeps the owned response for library callers. `Sync`: every method
/// takes `&self`, so one instance is shared by all server workers without
/// an outer lock. Values are handed out by `clone`, so `V` should be a
/// cheap handle such as an `Arc`.
pub struct AnswerCache<V = Arc<QaResponse>> {
    shards: Box<[Mutex<Shard<V>>]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl<V: Clone> AnswerCache<V> {
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

    fn shard_for(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Look up a response, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let found = self.shard_for(key).lock().expect("cache shard").get(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert (or overwrite) a response. A `&str` key costs one allocation
    /// (the resident `Arc<str>`); a `String` is copied into one.
    pub fn insert(&self, key: impl Into<Arc<str>>, value: V) {
        let key = key.into();
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
    pub fn get_batch(&self, keys: &[String]) -> Vec<Option<V>> {
        let results: Vec<Option<V>> = keys
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
    pub fn insert_batch(&self, entries: Vec<(String, V)>) {
        let total = entries.len() as u64;
        let mut evicted = 0u64;
        for (key, value) in entries {
            let mut shard = self.shard_for(&key).lock().expect("cache shard");
            evicted += u64::from(shard.insert(key.into(), value, self.shard_capacity));
        }
        self.insertions.fetch_add(total, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
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

// ---------------------------------------------------------------------------
// Rendered answers: what the server caches
// ---------------------------------------------------------------------------

/// The server's answer cache: versioned keys to rendered answers.
pub type RenderedCache = AnswerCache<RenderedAnswer>;

/// One response as the server serves it: a single `Arc<[u8]>` holding an
/// outcome tag byte followed by the response's JSON. Cloning is a
/// reference-count bump; serving it is one copy of [`RenderedAnswer::body`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenderedAnswer(Arc<[u8]>);

impl RenderedAnswer {
    /// The entry for a response rendered as `body` that ended with
    /// `refusal` (`None`: answered): one allocation, `body` copied once.
    pub fn new(refusal: Option<Refusal>, body: &[u8]) -> Self {
        let tag = match refusal {
            None => 0,
            Some(Refusal::NoEntityGrounded) => 1,
            Some(Refusal::NoTemplateMatched) => 2,
            Some(Refusal::NoPredicateAboveTheta) => 3,
            Some(Refusal::EmptyValueSet) => 4,
        };
        let mut entry = Arc::<[u8]>::new_uninit_slice(body.len() + 1);
        let bytes = Arc::get_mut(&mut entry).expect("a fresh Arc is unique");
        bytes[0].write(tag);
        bytes[1..].write_copy_of_slice(body);
        // SAFETY: the tag and the copy above initialize every byte.
        Self(unsafe { entry.assume_init() })
    }

    /// How the request ended — what `/metrics` counts and the slow-query
    /// log reports, read without parsing the JSON.
    pub fn refusal(&self) -> Option<Refusal> {
        match self.0[0] {
            1 => Some(Refusal::NoEntityGrounded),
            2 => Some(Refusal::NoTemplateMatched),
            3 => Some(Refusal::NoPredicateAboveTheta),
            4 => Some(Refusal::EmptyValueSet),
            _ => None,
        }
    }

    /// The response's JSON, exactly as first rendered.
    pub fn body(&self) -> &[u8] {
        &self.0[1..]
    }
}

/// Reusable buffers for answering runs of `/batch` questions through a
/// [`RenderedCache`]: every key of a run is built into one `String`, every
/// probe borrows from it, and only a miss pays for a resident key (plus its
/// entry). Keep one per batch and reuse it run after run.
#[derive(Debug, Default)]
pub struct BatchLane {
    /// The run's keys, back to back.
    keys: String,
    /// Where each key ends in `keys`.
    key_ends: Vec<usize>,
    /// The cached answer per question; `None` for a miss.
    hits: Vec<Option<RenderedAnswer>>,
    /// A run with hits renders its misses here first.
    miss_bytes: Vec<u8>,
    rendered: Vec<Rendered>,
}

impl BatchLane {
    /// Answer `requests` under `service` through `cache`, appending each
    /// response's JSON to `out` in request order as elements of a JSON
    /// array — comma-separated, with a leading comma when
    /// `continues_array` says earlier elements precede this run — and
    /// reporting each outcome to `outcome`.
    ///
    /// Hits copy their stored bytes. Misses are answered by reference,
    /// rendered once through [`KbqaService::answer_batch_into`] (which
    /// fans a large run out across threads), and copied into their entries;
    /// when the whole run misses, it renders straight into `out`.
    /// Duplicate questions within one run each miss and are computed
    /// redundantly; the engine is deterministic, so the last insert wins
    /// with the same bytes.
    pub fn answer(
        &mut self,
        cache: &RenderedCache,
        service: &KbqaService,
        requests: &[QaRequest],
        continues_array: bool,
        out: &mut Vec<u8>,
        mut outcome: impl FnMut(Option<Refusal>),
    ) {
        self.keys.clear();
        self.key_ends.clear();
        for request in requests {
            service.cache_key_into(request, &mut self.keys);
            self.key_ends.push(self.keys.len());
        }
        self.hits.clear();
        let mut start = 0;
        for &end in &self.key_ends {
            self.hits.push(cache.get(&self.keys[start..end]));
            start = end;
        }
        self.rendered.clear();
        if self.hits.iter().all(Option::is_none) {
            if continues_array && !requests.is_empty() {
                out.push(b',');
            }
            service.answer_batch_into(requests, out, &mut self.rendered);
            let mut start = 0;
            for (one, &end) in self.rendered.iter().zip(&self.key_ends) {
                let entry = RenderedAnswer::new(one.refusal, &out[one.span.clone()]);
                cache.insert(&self.keys[start..end], entry);
                outcome(one.refusal);
                start = end;
            }
            return;
        }
        self.miss_bytes.clear();
        if self.hits.iter().any(Option::is_none) {
            let misses: Vec<&QaRequest> = requests
                .iter()
                .zip(&self.hits)
                .filter(|(_, hit)| hit.is_none())
                .map(|(request, _)| request)
                .collect();
            service.answer_batch_into(&misses, &mut self.miss_bytes, &mut self.rendered);
        }
        let mut misses = self.rendered.iter();
        let mut start = 0;
        for (i, (hit, &end)) in self.hits.iter().zip(&self.key_ends).enumerate() {
            if continues_array || i > 0 {
                out.push(b',');
            }
            match hit {
                Some(entry) => {
                    out.extend_from_slice(entry.body());
                    outcome(entry.refusal());
                }
                None => {
                    let one = misses.next().expect("one rendering per miss");
                    let body = &self.miss_bytes[one.span.clone()];
                    out.extend_from_slice(body);
                    let entry = RenderedAnswer::new(one.refusal, body);
                    cache.insert(&self.keys[start..end], entry);
                    outcome(one.refusal);
                }
            }
            start = end;
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
    fn single_shard(capacity: usize) -> AnswerCache<Arc<QaResponse>> {
        AnswerCache::new(CacheConfig {
            capacity,
            shards: 1,
        })
    }

    #[test]
    fn hit_returns_the_identical_response() {
        let cache = single_shard(8);
        let stored = response("42");
        cache.insert("k", Arc::clone(&stored));
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
            cache.insert(k, response(k));
        }
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("d", response("d"));
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
        cache.insert("k", response("old"));
        cache.insert("k", response("new"));
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
    fn capacity_is_clamped_to_at_least_one_per_shard() {
        let cache = AnswerCache::new(CacheConfig {
            capacity: 0,
            shards: 0,
        });
        cache.insert("k", response("v"));
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
        cache.insert("k", response("v"));
        let keys: Vec<String> = vec!["k".into(), "missing".into(), "k".into()];
        let results = cache.get_batch(&keys);
        assert!(results[0].is_some() && results[2].is_some());
        assert!(results[1].is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn rendered_answers_keep_their_outcome_and_bytes() {
        let body = br#"{"answers":[],"refusal":null}"#;
        for refusal in [
            None,
            Some(Refusal::NoEntityGrounded),
            Some(Refusal::NoTemplateMatched),
            Some(Refusal::NoPredicateAboveTheta),
            Some(Refusal::EmptyValueSet),
        ] {
            let answer = RenderedAnswer::new(refusal, body);
            assert_eq!(answer.refusal(), refusal);
            assert_eq!(answer.body(), body);
        }
        assert_eq!(RenderedAnswer::new(None, b"").body(), b"");
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = single_shard(4);
        cache.insert("k", response("v"));
        assert!(cache.get("k").is_some());
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
        assert!(cache.get("k").is_none());
    }
}
