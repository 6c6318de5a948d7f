//! The scatter-gather shard router over out-of-process shard workers.
//!
//! [`ShardRouter`] owns the lanes of a [`ShardPlan`]: N [`RemoteShard`]
//! clients speaking the wire protocol to the `kbqa-shardd` workers that
//! each map one shard snapshot of a sharded serving bundle — plus
//! per-shard fault flags and the per-shard telemetry lanes
//! ([`kbqa_obs::ShardObs`]). The engine consults it at exactly one
//! point — the `V(e, p)` value lookup in the BFQ kernel — so a sharded
//! engine *grounds globally, looks up shard-locally, and accumulates
//! globally*:
//!
//! 1. NER grounding and conceptualization run against the global store and
//!    gazetteer (entity identity is global — the paper's Eq (7) enumerates
//!    one global grounding set).
//! 2. Each grounding's KB traversals fan out to **only the owning shard**
//!    (subject hash). Distinct groundings may hit distinct shards; the
//!    union is the question's `shard_fanout`.
//! 3. Contributions accumulate in the same sequential global grounding
//!    order as the unsharded kernel, into one global
//!    [`TopK`](kbqa_common::topk::TopK) whose `floor` bound rejects every
//!    non-winner at push time — so the merged ranking (answers, score
//!    bits, provenance, tie order) is byte-identical to the single-store
//!    kernel. `tests/shard_equivalence.rs` pins this across shard counts
//!    against workers on threads, and the server's chaos suite against
//!    supervised worker processes.
//!
//! Paths longer than the plan's closure depth (a swapped-in model may
//! intern longer expanded predicates than the cut replicated) fall back to
//! the global store per lookup — correctness never depends on the closure
//! being deep enough.
//!
//! **Fault isolation:** each shard carries a poison flag, the
//! supervisor's park switch: it is set while a worker is dead, hung, or
//! parked, so lookups fail fast without burning a network deadline.
//! Routing to a poisoned shard — or exhausting a lane's deadline/retry
//! budget — panics with a typed [`ShardPanic`] payload; the service
//! catches it at the request boundary and degrades that question to a
//! typed [`Refusal::ShardUnavailable`](crate::service::Refusal) instead
//! of taking the process down.

use std::sync::atomic::{AtomicU8, Ordering};

use kbqa_obs::ShardObs;
use kbqa_rdf::path::ExpandedPredicate;
use kbqa_rdf::shard::ShardPlan;
use kbqa_rdf::NodeId;

use crate::remote::RemoteShard;

/// Panic payload carried when a lookup routes to a poisoned shard (or a
/// remote lane exhausts its deadline/retry budget); the service downcasts
/// it to attribute the failure to the right lane.
#[derive(Clone, Copy, Debug)]
pub struct ShardPanic(pub usize);

/// The shard router: plan + one remote lane per shard + fault flags +
/// telemetry.
#[derive(Debug)]
pub struct ShardRouter {
    plan: ShardPlan,
    lanes: Vec<RemoteShard>,
    faults: Vec<AtomicU8>,
    obs: ShardObs,
}

impl ShardRouter {
    /// A router over remote worker lanes, one per shard of `plan`. The
    /// supervisor owns worker lifecycle; it parks/heals lanes through
    /// [`ShardRouter::inject_fault`] / [`ShardRouter::heal`] as workers
    /// die and recover.
    pub fn from_remote(plan: ShardPlan, lanes: Vec<RemoteShard>) -> Self {
        assert_eq!(
            lanes.len(),
            plan.shards(),
            "remote lane count must match the plan"
        );
        let n = lanes.len();
        Self {
            plan,
            lanes,
            faults: (0..n).map(|_| AtomicU8::new(0)).collect(),
            obs: ShardObs::new(n),
        }
    }

    /// The plan this router materializes.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Per-shard telemetry lanes + fan-out distribution.
    pub fn obs(&self) -> &ShardObs {
        &self.obs
    }

    /// Number of shards (one lane each).
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// The remote lanes, indexed by shard id.
    pub fn lanes(&self) -> &[RemoteShard] {
        &self.lanes
    }

    /// The one scatter point: run `V(entity, path)` on shard `i`'s worker
    /// at `epoch` under the lane's deadline/retry budget, appending values
    /// in shard-traversal order. Any failure — poison flag, exhausted
    /// budget, epoch refusal — unwinds with the typed [`ShardPanic`] the
    /// service isolates per question; the error detail dies here.
    #[inline]
    pub fn lookup_into(
        &self,
        i: usize,
        entity: NodeId,
        path: &ExpandedPredicate,
        epoch: u64,
        out: &mut Vec<NodeId>,
    ) {
        if self.faults[i].load(Ordering::Relaxed) != 0
            || self.lanes[i].lookup_into(epoch, entity, path, out).is_err()
        {
            std::panic::panic_any(ShardPanic(i));
        }
    }

    /// The owner shard of `entity` under the plan.
    #[inline]
    pub fn owner(&self, entity: NodeId) -> usize {
        self.plan.owner(entity)
    }

    /// Poison shard `i`: subsequent lookups routed there panic (and are
    /// isolated by the service) without touching the wire — the
    /// supervisor's park/fast-fail switch.
    pub fn inject_fault(&self, i: usize) {
        self.faults[i].store(1, Ordering::Relaxed);
    }

    /// Heal a poisoned shard.
    pub fn heal(&self, i: usize) {
        self.faults[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::RemoteOptions;

    fn lookup(router: &ShardRouter, i: usize) -> Result<(), usize> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router.lookup_into(
                i,
                NodeId(0),
                &ExpandedPredicate::single(kbqa_rdf::PredicateId(0)),
                0,
                &mut Vec::new(),
            );
        }))
        .map_err(|err| err.downcast_ref::<ShardPanic>().expect("typed payload").0)
    }

    #[test]
    fn failed_and_poisoned_lanes_unwind_with_the_shard_id() {
        let lanes = vec![
            RemoteShard::new(0, "/tmp/none-0.sock", RemoteOptions::default()),
            RemoteShard::new(1, "/tmp/none-1.sock", RemoteOptions::default()),
        ];
        let router = ShardRouter::from_remote(ShardPlan::new(2), lanes);
        assert_eq!(router.shard_count(), 2);
        assert_eq!(router.lanes().len(), 2);
        // A dead lane unwinds with the typed payload (deadline-bounded:
        // nothing listens there).
        assert_eq!(lookup(&router, 1), Err(1));
        // A poisoned lane unwinds the same way. (Healing is pinned against
        // live workers in `tests/shard_equivalence.rs`.)
        router.inject_fault(0);
        assert_eq!(lookup(&router, 0), Err(0));
    }
}
