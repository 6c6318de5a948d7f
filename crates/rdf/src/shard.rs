//! Subject-hash sharding of the triple store.
//!
//! The paper's online promise is BFQ over a billion-triple KB; one process
//! cannot hold that, so the serving plan partitions the store by **subject
//! hash** into N independent shards. [`ShardPlan`] is the pure routing
//! function (`entity → owning shard`), [`partition`] materializes the plan
//! into N self-contained [`TripleStore`]s, and [`ShardStats`] reports how
//! balanced the cut came out.
//!
//! Two properties make the cut *answer-preserving* (pinned by
//! `tests/shard_equivalence.rs`):
//!
//! 1. **Whole-subject ownership.** A shard owns every out-edge of each
//!    subject hashed to it, so `V(e, p)` evaluated on the owner equals the
//!    global lookup bit for bit — the SO run for `(e, p)` is the same set,
//!    sorted the same way.
//! 2. **Bounded out-neighborhood closure.** Expanded predicates traverse up
//!    to [`ShardPlan::closure_depth`] edges from the grounded entity, so each
//!    shard additionally replicates the full out-edge sets of every node
//!    reachable within that many hops of its owned subjects. Any
//!    `objects_via_path` walk of length ≤ `closure_depth` that *starts* on
//!    an owned subject therefore sees exactly the global graph. Longer
//!    paths (a model swap could intern them) fall back to the global store
//!    at the router — correctness never depends on the closure being deep
//!    enough.
//!
//! Shards are derived artifacts: a sharded serving bundle persists each
//! cut as its own snapshot (`store.shard-{i}.snap`), and only the
//! `kbqa-shardd` worker owning that shard maps it. A shard store serves
//! `V(e, p)` through the same branch-free binary search over its SO run as
//! the global store.

use serde::{Deserialize, Serialize};

use crate::store::TripleStore;
use crate::triple::{NodeId, Triple};

/// Hard cap on shard count: fan-out is tracked as a `u64` bitmask.
pub const MAX_SHARDS: usize = 64;

/// Default out-neighborhood closure depth. Matches the engine's default
/// maximum expanded-predicate length (`ExpansionConfig::max_len`), so every
/// path the default model can intern resolves shard-locally.
pub const DEFAULT_CLOSURE_DEPTH: usize = 3;

/// The pure sharding function: how many shards, who owns an entity, and how
/// deep the replicated out-neighborhood closure reaches.
///
/// The plan is persisted in the serving-bundle manifest so a warm start maps
/// the same cut it saved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    shards: usize,
    closure_depth: usize,
}

impl ShardPlan {
    /// A plan over `shards` shards (clamped to `1..=`[`MAX_SHARDS`]) with
    /// the default closure depth.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.clamp(1, MAX_SHARDS),
            closure_depth: DEFAULT_CLOSURE_DEPTH,
        }
    }

    /// Override the closure depth (clamped to ≥ 1). Deeper closures
    /// replicate more but let longer expanded predicates resolve
    /// shard-locally.
    pub fn with_closure_depth(mut self, depth: usize) -> Self {
        self.closure_depth = depth.max(1);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replicated out-neighborhood depth (in edges).
    pub fn closure_depth(&self) -> usize {
        self.closure_depth
    }

    /// The shard owning `node`. A splitmix64 finalizer over the raw id —
    /// dictionary ids are dense and insertion-ordered, so taking them mod N
    /// directly would alias generation order into shard skew.
    #[inline]
    pub fn owner(&self, node: NodeId) -> usize {
        (mix64(node.raw() as u64) % self.shards as u64) as usize
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::new(1)
    }
}

/// splitmix64 finalizer: full-avalanche mix of a 64-bit value.
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Balance report for one shard of a [`partition`] cut.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ShardStat {
    /// Subjects this shard owns (hash says so).
    pub owned_subjects: u64,
    /// Triples whose subject the shard owns.
    pub owned_triples: u64,
    /// Closure-replicated triples (owned elsewhere, mirrored here so
    /// expanded predicates resolve locally).
    pub replicated_triples: u64,
}

impl ShardStat {
    /// Total triples materialized in the shard store.
    pub fn total_triples(&self) -> u64 {
        self.owned_triples + self.replicated_triples
    }
}

/// Shard-local statistics of a full cut — the balance/replication report
/// operators read when sizing a sharded bundle's plan.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Per-shard breakdown, indexed by shard id.
    pub shards: Vec<ShardStat>,
}

impl ShardStats {
    /// Largest shard's owned-triple count divided by the mean — 1.0 is a
    /// perfectly balanced cut.
    pub fn skew(&self) -> f64 {
        if self.shards.is_empty() {
            return 1.0;
        }
        let total: u64 = self.shards.iter().map(|s| s.owned_triples).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        let max = self
            .shards
            .iter()
            .map(|s| s.owned_triples)
            .max()
            .unwrap_or(0);
        max as f64 / mean
    }

    /// Fraction of all shard-resident triples that are closure replicas.
    pub fn replication_overhead(&self) -> f64 {
        let owned: u64 = self.shards.iter().map(|s| s.owned_triples).sum();
        let total: u64 = self.shards.iter().map(|s| s.total_triples()).sum();
        if total == 0 {
            return 0.0;
        }
        (total - owned) as f64 / total as f64
    }
}

/// Materialize `plan` against `store`: N self-contained in-memory shard
/// stores plus the balance stats.
///
/// Shard stores carry the **full dictionary** (global `NodeId`s must keep
/// meaning shard-locally) but no name index — grounding and answer
/// materialization stay on the global store; shards exist to serve
/// `V(e, p)` lookups.
pub fn partition(store: &TripleStore, plan: &ShardPlan) -> (Vec<TripleStore>, ShardStats) {
    let (dict, triples, _name_predicates) = store.to_owned_parts();
    let node_count = dict.node_count();

    // Subject → contiguous range of triple indices, via one argsort by s.
    let mut by_subject: Vec<u32> = (0..triples.len() as u32).collect();
    by_subject.sort_unstable_by_key(|&i| triples[i as usize].s.raw());
    // `starts[s] .. starts[s + 1]` indexes `by_subject` for subject `s`.
    let mut starts = vec![0u32; node_count + 2];
    for t in &triples {
        starts[t.s.index() + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let triples_of = |s: u32| -> &[u32] {
        let lo = starts[s as usize] as usize;
        let hi = starts[s as usize + 1] as usize;
        &by_subject[lo..hi]
    };

    // 0 = untouched this shard; stamps are shard id + 1, so one array
    // serves every shard without clearing.
    let mut expanded = vec![0u32; node_count];
    let mut stats = ShardStats::default();
    let mut stores = Vec::with_capacity(plan.shards());

    for shard in 0..plan.shards() {
        let stamp = shard as u32 + 1;
        let mut stat = ShardStat::default();
        let mut shard_triples: Vec<Triple> = Vec::new();
        let mut frontier: Vec<u32> = Vec::new();
        let mut next: Vec<u32> = Vec::new();

        // Level 0: owned subjects.
        for s in 0..node_count as u32 {
            if !triples_of(s).is_empty() && plan.owner(NodeId::new(s)) == shard {
                stat.owned_subjects += 1;
                frontier.push(s);
            }
        }

        for level in 0..plan.closure_depth() {
            if frontier.is_empty() {
                break;
            }
            for &s in &frontier {
                if expanded[s as usize] == stamp {
                    continue;
                }
                expanded[s as usize] = stamp;
                for &ti in triples_of(s) {
                    let t = triples[ti as usize];
                    shard_triples.push(t);
                    if level == 0 {
                        stat.owned_triples += 1;
                    } else {
                        stat.replicated_triples += 1;
                    }
                    if level + 1 < plan.closure_depth() && expanded[t.o.index()] != stamp {
                        next.push(t.o.raw());
                    }
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }

        stores.push(TripleStore::build(dict.clone(), shard_triples, Vec::new()));
        stats.shards.push(stat);
    }

    (stores, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn world() -> TripleStore {
        let mut b = GraphBuilder::new();
        let capital = b.predicate("capital");
        let mut nodes = Vec::new();
        for i in 0..40 {
            let c = b.resource(&format!("city{i}"));
            b.name(c, &format!("City {i}"));
            b.fact_int(c, "population", 10_000 + i64::from(i));
            nodes.push(c);
        }
        for i in 0..39 {
            b.triple(nodes[i], capital, nodes[i + 1]);
        }
        b.build()
    }

    #[test]
    fn plan_clamps_and_routes_stably() {
        let plan = ShardPlan::new(0);
        assert_eq!(plan.shards(), 1);
        let plan = ShardPlan::new(1000);
        assert_eq!(plan.shards(), MAX_SHARDS);
        let plan = ShardPlan::new(4);
        let n = NodeId::new(17);
        assert_eq!(plan.owner(n), plan.owner(n));
        assert!(plan.owner(n) < 4);
    }

    #[test]
    fn owner_distribution_is_not_degenerate() {
        let plan = ShardPlan::new(4);
        let mut counts = [0usize; 4];
        for i in 0..10_000u32 {
            counts[plan.owner(NodeId::new(i))] += 1;
        }
        for &c in &counts {
            assert!(c > 1_500, "degenerate shard distribution: {counts:?}");
        }
    }

    #[test]
    fn partition_preserves_owned_lookups_exactly() {
        let store = world();
        let plan = ShardPlan::new(4);
        let (shards, stats) = partition(&store, &plan);
        assert_eq!(shards.len(), 4);
        let total_owned: u64 = stats.shards.iter().map(|s| s.owned_triples).sum();
        assert_eq!(total_owned, store.len() as u64);

        let dict = store.dict();
        let pc = dict.predicate_count() as u32;
        for s in store
            .scan()
            .map(|t| t.s)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let shard = &shards[plan.owner(s)];
            for p in 0..pc {
                let pid = crate::PredicateId::new(p);
                assert_eq!(
                    store.objects_slice(s, pid),
                    shard.objects_slice(s, pid),
                    "owned lookup diverged for subject {s:?}"
                );
            }
        }
    }

    #[test]
    fn closure_covers_multi_hop_paths_from_owned_subjects() {
        let store = world();
        let plan = ShardPlan::new(3).with_closure_depth(3);
        let (shards, _) = partition(&store, &plan);
        let capital = store.dict().find_predicate("capital").unwrap();
        let path = crate::ExpandedPredicate::new(vec![capital, capital, capital]);
        let mut ws = crate::path::PathWorkspace::default();
        for t in store.scan().filter(|t| t.p == capital) {
            let shard = &shards[plan.owner(t.s)];
            let global = crate::path::objects_via_path(&store, t.s, &path);
            let mut local = Vec::new();
            crate::path::objects_via_path_into(shard, t.s, &path, &mut ws, &mut local);
            assert_eq!(global, local, "3-hop walk diverged from {:?}", t.s);
        }
    }

    #[test]
    fn stats_report_balance_and_replication() {
        let store = world();
        let (_, stats) = partition(&store, &ShardPlan::new(4));
        assert!(stats.skew() >= 1.0);
        assert!(stats.replication_overhead() >= 0.0);
        assert!(stats.replication_overhead() < 1.0);
    }
}
