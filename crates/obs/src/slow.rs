//! Capture of the N slowest requests, served at `GET /debug/slow`.
//!
//! The log is a fixed array of slots, each pairing an atomic latency tag
//! with a mutex-held record. The **hot path** (every request) only touches
//! the atomic floor gate: one relaxed load and a compare. Requests slower
//! than the floor take the slow path — scan the slot tags for the current
//! minimum, lock that one slot, re-check, replace. Record construction is
//! lazy (a closure), so fast requests never even build the `SlowQuery`.
//!
//! The floor is maintained best-effort: concurrent replacements can leave
//! it momentarily stale, which only means a borderline request takes the
//! slow path and discovers it doesn't qualify. The invariant that matters —
//! the log converges on the N slowest requests seen — holds because every
//! replacement happens under a slot lock with a re-check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::stage::StageBreakdown;

/// One captured request, everything an operator needs to see why it was
/// slow without replaying it.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowQuery {
    /// Server-assigned request ID (monotonic per process).
    pub request_id: u64,
    /// The question text as received.
    pub question: String,
    /// End-to-end latency, µs.
    pub total_us: u64,
    /// Per-stage attribution. All-zero when the request wasn't armed for
    /// tracing (it still qualifies for the log by total latency).
    #[serde(default)]
    pub stages: StageBreakdown,
    /// Refusal cause display string, `None` when answered.
    #[serde(default)]
    pub refusal: Option<String>,
    /// Whether the answer came from the cache.
    #[serde(default)]
    pub cache_hit: bool,
    /// Model epoch that served the request.
    #[serde(default)]
    pub model_epoch: u64,
    /// Store backing, `"in_memory"` or `"mapped"` (`BackendKind::as_str`
    /// in `kbqa-rdf`).
    #[serde(default)]
    pub store_backend: String,
    /// Whether a stage trace was armed for this request.
    #[serde(default)]
    pub traced: bool,
}

/// Empty-slot sentinel for the per-slot latency tag.
const EMPTY: u64 = 0;

struct Slot {
    /// The resident record's `total_us`, or [`EMPTY`]. Written under the
    /// slot lock, read lock-free by the replacement scan.
    total_us: AtomicU64,
    data: Mutex<Option<SlowQuery>>,
}

/// A fixed-capacity, lowest-out log of the slowest requests.
pub struct SlowQueryLog {
    slots: Vec<Slot>,
    /// Smallest resident `total_us` (or [`EMPTY`] while slots remain
    /// free): the hot-path admission gate.
    floor: AtomicU64,
}

impl SlowQueryLog {
    /// A log retaining the `capacity` slowest requests (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    total_us: AtomicU64::new(EMPTY),
                    data: Mutex::new(None),
                })
                .collect(),
            floor: AtomicU64::new(EMPTY),
        }
    }

    /// Slots in the log.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Offer a request. Returns whether it was admitted. `make` is only
    /// called when the request beats the floor, so the per-request cost
    /// for fast traffic is one atomic load and a compare.
    pub fn offer(&self, total_us: u64, make: impl FnOnce() -> SlowQuery) -> bool {
        // `total_us == 0` ties with the empty sentinel; such a request can
        // never beat the floor, which is fine — a 0µs request is not slow.
        if total_us <= self.floor.load(Ordering::Relaxed) {
            return false;
        }
        // Slow path: find the currently-cheapest slot.
        let victim = self
            .slots
            .iter()
            .min_by_key(|slot| slot.total_us.load(Ordering::Relaxed))
            .expect("log has at least one slot");
        let mut data = victim.data.lock().expect("slow-log slot poisoned");
        // Re-check under the lock: a racing offer may have upgraded this
        // slot past us.
        if total_us <= victim.total_us.load(Ordering::Relaxed) {
            return false;
        }
        let mut record = make();
        record.total_us = total_us;
        *data = Some(record);
        victim.total_us.store(total_us, Ordering::Relaxed);
        drop(data);
        // Recompute the floor from the slot tags (best-effort).
        let new_floor = self
            .slots
            .iter()
            .map(|slot| slot.total_us.load(Ordering::Relaxed))
            .min()
            .unwrap_or(EMPTY);
        self.floor.store(new_floor, Ordering::Relaxed);
        true
    }

    /// Every resident record, slowest first.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        let mut out: Vec<SlowQuery> = self
            .slots
            .iter()
            .filter_map(|slot| slot.data.lock().expect("slow-log slot poisoned").clone())
            .collect();
        out.sort_by_key(|record| std::cmp::Reverse(record.total_us));
        out
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("capacity", &self.slots.len())
            .field("floor_us", &self.floor.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64) -> SlowQuery {
        SlowQuery {
            request_id: id,
            question: format!("q{id}"),
            ..SlowQuery::default()
        }
    }

    #[test]
    fn keeps_the_n_slowest() {
        let log = SlowQueryLog::new(3);
        for (id, us) in [(1, 100), (2, 50), (3, 300), (4, 10), (5, 200), (6, 250)] {
            log.offer(us, || q(id));
        }
        let snap = log.snapshot();
        let ids: Vec<u64> = snap.iter().map(|s| s.request_id).collect();
        assert_eq!(ids, vec![3, 6, 5], "slowest-first: 300, 250, 200");
        assert_eq!(snap[0].total_us, 300);
    }

    #[test]
    fn floor_gate_skips_construction_for_fast_requests() {
        let log = SlowQueryLog::new(2);
        assert!(log.offer(100, || q(1)));
        assert!(log.offer(200, || q(2)));
        // Now the floor is 100; a 40µs request must not even build a record.
        let admitted = log.offer(40, || panic!("record built for a fast request"));
        assert!(!admitted);
        // A tying request does not displace the resident one.
        assert!(!log.offer(100, || q(9)));
    }

    #[test]
    fn zero_latency_requests_are_never_admitted() {
        let log = SlowQueryLog::new(1);
        assert!(!log.offer(0, || q(1)));
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn concurrent_offers_converge_on_the_max() {
        use std::sync::Arc;
        let log = Arc::new(SlowQueryLog::new(4));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 1..=500u64 {
                        log.offer(t * 500 + i, || q(t));
                    }
                });
            }
        });
        let snap = log.snapshot();
        assert_eq!(snap.len(), 4);
        // The global maximum (thread 7, i=500 → 4000) must survive.
        assert_eq!(snap[0].total_us, 4000);
        assert!(snap.iter().all(|s| s.total_us > 3000));
    }

    #[test]
    fn record_roundtrips_through_json() {
        let mut record = q(7);
        record.total_us = 1234;
        record.stages.value_lookup_us = 900;
        record.refusal = Some("no entity grounded".to_string());
        record.store_backend = kbqa_rdf::BackendKind::Mapped.as_str().to_string();
        record.traced = true;
        let json = serde_json::to_string(&record).unwrap();
        let restored: SlowQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(record, restored);
    }
}
