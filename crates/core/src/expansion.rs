//! Predicate expansion (paper Sec 6).
//!
//! Many intents correspond to multi-edge paths (`marriage→person→name`), so
//! the offline learner must know which `(s, p⁺, o)` connections exist. The
//! naive per-node BFS is quadratic in practice; the paper's two scalability
//! levers are reproduced faithfully:
//!
//! * **Reduction on s** (Sec 6.2): expansion starts only from entities that
//!   occur in corpus questions — the caller supplies that source set.
//! * **Memory-efficient scan+join BFS** (Sec 6.2): each round performs one
//!   sequential scan of the store (`TripleStore::scan`: a built store's
//!   insertion log, whose order fixes the order paths are interned in),
//!   joining triple subjects against the in-memory frontier built in the
//!   previous round (the store counts the scan passes; the complexity is
//!   `O(k·|K| + #spo)`).
//!
//! The Sec 6.3 restriction is honored: paths of length ≥ 2 are *emitted*
//! only when they end with a name-like predicate (configurable for
//! ablation), though non-name intermediate paths still extend the frontier.
//! [`valid_k`] reproduces the Infobox validation (Eq 29) behind Table 4's
//! choice of `k = 3`.

use kbqa_common::hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

use kbqa_rdf::{ExpandedPredicate, NodeId, PredicateId, TripleStore};

use crate::catalog::{PredId, PredicateCatalog};

/// Expansion parameters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpansionConfig {
    /// Maximum path length `k` (the paper selects 3 via Table 4).
    pub max_len: usize,
    /// Keep the Sec 6.3 rule: length ≥ 2 paths must end with `name`.
    pub require_name_terminal: bool,
    /// Safety cap on emitted `(s, p⁺, o)` records (0 = unlimited). The
    /// paper's run stored 21M records; worlds here are far smaller, but a
    /// runaway configuration should degrade, not OOM.
    pub max_emitted: usize,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        Self {
            max_len: 3,
            require_name_terminal: true,
            max_emitted: 0,
        }
    }
}

impl ExpansionConfig {
    /// Direct predicates only (`k = 1`) — the Table 16 ablation baseline.
    pub fn direct_only() -> Self {
        Self {
            max_len: 1,
            ..Self::default()
        }
    }
}

/// The expansion output: interned paths plus the join indexes the learner
/// and the online engine need.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ExpansionResult {
    /// Interned predicate paths.
    pub catalog: PredicateCatalog,
    /// `s → [(p⁺, o)]` — every emitted connection grouped by subject.
    pub by_subject: FxHashMap<NodeId, Vec<(PredId, NodeId)>>,
    /// `(s, o) → [p⁺]` — the Eq (8)/Eq (24) probe "which predicates connect
    /// e and v?".
    pub pair_predicates: FxHashMap<(NodeId, NodeId), Vec<PredId>>,
    /// `(s, p⁺) → |V(s, p⁺)|` — the denominator of `P(v|e,p)` (Eq 6).
    pub value_counts: FxHashMap<(NodeId, PredId), u32>,
    /// Emitted record count per path length (index 0 unused).
    pub emitted_by_length: Vec<usize>,
    /// Whether `max_emitted` was hit (results are then partial).
    pub truncated: bool,
}

impl ExpansionResult {
    /// Total emitted `(s, p⁺, o)` records.
    pub fn emitted(&self) -> usize {
        self.emitted_by_length.iter().sum()
    }

    /// Predicates connecting a specific `(s, o)` pair.
    pub fn predicates_between(&self, s: NodeId, o: NodeId) -> &[PredId] {
        self.pair_predicates
            .get(&(s, o))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// `|V(s, p⁺)|` per the emitted records.
    pub fn value_count(&self, s: NodeId, p: PredId) -> usize {
        self.value_counts
            .get(&(s, p))
            .map(|&c| c as usize)
            .unwrap_or(0)
    }

    /// Distinct predicates emitted with the given path length.
    pub fn distinct_predicates_of_length(&self, len: usize) -> usize {
        let mut seen: FxHashSet<PredId> = FxHashSet::default();
        for entries in self.by_subject.values() {
            for &(p, _) in entries {
                if self.catalog.resolve(p).len() == len {
                    seen.insert(p);
                }
            }
        }
        seen.len()
    }
}

/// One frontier record: a partial path from `origin` ending at the map key.
#[derive(Clone, Debug)]
struct FrontierEntry {
    origin: NodeId,
    prefix: Vec<PredicateId>,
}

/// Run the expansion from `sources`.
pub fn expand(
    store: &TripleStore,
    sources: &FxHashSet<NodeId>,
    config: &ExpansionConfig,
) -> ExpansionResult {
    assert!(config.max_len >= 1, "max_len must be ≥ 1");
    let name_preds: FxHashSet<PredicateId> = store.name_predicates().iter().copied().collect();

    let mut result = ExpansionResult {
        emitted_by_length: vec![0; config.max_len + 1],
        ..Default::default()
    };
    let mut emitted_keys: FxHashSet<(NodeId, PredId, NodeId)> = FxHashSet::default();
    // endpoint → partial paths ending there.
    let mut frontier: FxHashMap<NodeId, Vec<FrontierEntry>> = FxHashMap::default();

    for round in 1..=config.max_len {
        let mut next_frontier: FxHashMap<NodeId, Vec<FrontierEntry>> = FxHashMap::default();
        // One sequential pass over the triple log (the "disk scan").
        for t in store.scan() {
            if round == 1 {
                if !sources.contains(&t.s) {
                    continue;
                }
                let path = vec![t.p];
                emit(
                    store,
                    config,
                    &mut result,
                    &mut emitted_keys,
                    t.s,
                    &path,
                    t.o,
                    &name_preds,
                );
                if round < config.max_len {
                    push_frontier(store, &mut next_frontier, t.o, t.s, path);
                }
            } else if let Some(entries) = frontier.get(&t.s) {
                for entry in entries {
                    let mut path = Vec::with_capacity(entry.prefix.len() + 1);
                    path.extend_from_slice(&entry.prefix);
                    path.push(t.p);
                    emit(
                        store,
                        config,
                        &mut result,
                        &mut emitted_keys,
                        entry.origin,
                        &path,
                        t.o,
                        &name_preds,
                    );
                    if round < config.max_len {
                        push_frontier(store, &mut next_frontier, t.o, entry.origin, path);
                    }
                }
            }
            if result.truncated {
                return result;
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() && round < config.max_len {
            break;
        }
    }
    result
}

/// Add a partial path to the next-round frontier (resources only; literals
/// have no out-edges and would only waste join probes).
fn push_frontier(
    store: &TripleStore,
    frontier: &mut FxHashMap<NodeId, Vec<FrontierEntry>>,
    endpoint: NodeId,
    origin: NodeId,
    prefix: Vec<PredicateId>,
) {
    if !store.dict().node_term(endpoint).is_resource() {
        return;
    }
    frontier
        .entry(endpoint)
        .or_default()
        .push(FrontierEntry { origin, prefix });
}

#[allow(clippy::too_many_arguments)]
fn emit(
    store: &TripleStore,
    config: &ExpansionConfig,
    result: &mut ExpansionResult,
    emitted_keys: &mut FxHashSet<(NodeId, PredId, NodeId)>,
    origin: NodeId,
    path: &[PredicateId],
    object: NodeId,
    name_preds: &FxHashSet<PredicateId>,
) {
    let len = path.len();
    // Sec 6.3: multi-edge paths must end with a name-like predicate (the
    // others "always have some very weak relations").
    if len >= 2
        && config.require_name_terminal
        && !name_preds.contains(path.last().expect("non-empty path"))
    {
        return;
    }
    // Self-loops carry no information ("X's something is X").
    if object == origin {
        return;
    }
    let _ = store;
    let pred = result.catalog.intern(ExpandedPredicate::new(path.to_vec()));
    if !emitted_keys.insert((origin, pred, object)) {
        return;
    }
    if config.max_emitted > 0 && emitted_keys.len() > config.max_emitted {
        result.truncated = true;
        return;
    }
    result.emitted_by_length[len] += 1;
    result
        .by_subject
        .entry(origin)
        .or_default()
        .push((pred, object));
    result
        .pair_predicates
        .entry((origin, object))
        .or_default()
        .push(pred);
    *result.value_counts.entry((origin, pred)).or_insert(0) += 1;
}

/// One row of the Table 4 computation: path length, emitted record count,
/// and how many records have Infobox support.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidK {
    /// Path length `k`.
    pub k: usize,
    /// `(s, p⁺, o)` records emitted at exactly this length.
    pub emitted: usize,
    /// Records whose `(s, o)` pair appears in the Infobox gold (Eq 29).
    pub valid: usize,
}

/// Reproduce Sec 6.3's `valid(k)` estimation: expand from the `top_entities`
/// highest-out-degree resources and count Infobox-supported records per
/// length.
pub fn valid_k(
    store: &TripleStore,
    infobox: &FxHashSet<(NodeId, NodeId)>,
    top_entities: usize,
    config: &ExpansionConfig,
) -> Vec<ValidK> {
    // "Frequency of an entity e = number of (s,p,o) triples with e = s."
    let mut degree: FxHashMap<NodeId, usize> = FxHashMap::default();
    for t in store.scan() {
        if store.dict().node_term(t.s).is_resource() {
            *degree.entry(t.s).or_default() += 1;
        }
    }
    let mut ranked: Vec<(usize, NodeId)> = degree.into_iter().map(|(n, d)| (d, n)).collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let sources: FxHashSet<NodeId> = ranked.iter().take(top_entities).map(|&(_, n)| n).collect();

    let expansion = expand(store, &sources, config);
    let mut rows: Vec<ValidK> = (1..=config.max_len)
        .map(|k| ValidK {
            k,
            emitted: 0,
            valid: 0,
        })
        .collect();
    for (&s, entries) in &expansion.by_subject {
        for &(p, o) in entries {
            let len = expansion.catalog.resolve(p).len();
            let row = &mut rows[len - 1];
            row.emitted += 1;
            if infobox.contains(&(s, o)) {
                row.valid += 1;
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbqa_rdf::GraphBuilder;

    /// Fig. 1 toy KB plus a deliberately meaningless reachable value
    /// (spouse's dob).
    fn toy() -> (TripleStore, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let obama = b.resource("obama");
        let marriage = b.resource("marriage1");
        let michelle = b.resource("michelle");
        let honolulu = b.resource("honolulu");
        b.name(obama, "Barack Obama");
        b.name(michelle, "Michelle Obama");
        b.name(honolulu, "Honolulu");
        b.fact_year(obama, "dob", 1961);
        b.link(obama, "marriage", marriage);
        b.link(marriage, "person", michelle);
        b.fact_year(michelle, "dob", 1964);
        b.link(obama, "pob", honolulu);
        b.fact_int(honolulu, "population", 390_000);
        (b.build(), obama, michelle)
    }

    fn sources(nodes: &[NodeId]) -> FxHashSet<NodeId> {
        nodes.iter().copied().collect()
    }

    #[test]
    fn emits_direct_predicates_at_length_one() {
        let (store, obama, _) = toy();
        let result = expand(&store, &sources(&[obama]), &ExpansionConfig::direct_only());
        // obama: name, dob, marriage, pob = 4 direct edges.
        assert_eq!(result.emitted_by_length[1], 4);
        assert_eq!(result.emitted(), 4);
    }

    #[test]
    fn finds_marriage_person_name_at_k3() {
        let (store, obama, _) = toy();
        let result = expand(&store, &sources(&[obama]), &ExpansionConfig::default());
        let michelle_name = store.dict().find_str_literal("Michelle Obama").unwrap();
        let preds = result.predicates_between(obama, michelle_name);
        assert_eq!(preds.len(), 1);
        assert_eq!(
            result.catalog.render(preds[0], &store),
            "marriage→person→name"
        );
    }

    #[test]
    fn name_terminal_rule_blocks_spouse_dob() {
        let (store, obama, _) = toy();
        let result = expand(&store, &sources(&[obama]), &ExpansionConfig::default());
        let y1964 = store
            .dict()
            .find_term(kbqa_rdf::Term::Literal(kbqa_rdf::Literal::Year(1964)))
            .unwrap();
        assert!(result.predicates_between(obama, y1964).is_empty());
    }

    #[test]
    fn disabling_name_rule_reveals_weak_paths() {
        let (store, obama, _) = toy();
        let config = ExpansionConfig {
            require_name_terminal: false,
            ..Default::default()
        };
        let result = expand(&store, &sources(&[obama]), &config);
        let y1964 = store
            .dict()
            .find_term(kbqa_rdf::Term::Literal(kbqa_rdf::Literal::Year(1964)))
            .unwrap();
        let preds = result.predicates_between(obama, y1964);
        assert_eq!(preds.len(), 1);
        assert_eq!(
            result.catalog.render(preds[0], &store),
            "marriage→person→dob"
        );
    }

    #[test]
    fn pob_name_found_at_length_two() {
        let (store, obama, _) = toy();
        let result = expand(&store, &sources(&[obama]), &ExpansionConfig::default());
        let honolulu_name = store.dict().find_str_literal("Honolulu").unwrap();
        let preds = result.predicates_between(obama, honolulu_name);
        assert_eq!(preds.len(), 1);
        assert_eq!(result.catalog.render(preds[0], &store), "pob→name");
    }

    #[test]
    fn sources_restrict_expansion() {
        let (store, obama, michelle) = toy();
        let only_michelle = expand(&store, &sources(&[michelle]), &ExpansionConfig::default());
        assert!(!only_michelle.by_subject.contains_key(&obama));
        assert!(only_michelle.by_subject.contains_key(&michelle));
    }

    #[test]
    fn scan_passes_equal_k() {
        let (store, obama, _) = toy();
        let before = store.scan_passes();
        let _ = expand(&store, &sources(&[obama]), &ExpansionConfig::default());
        assert_eq!(store.scan_passes() - before, 3);
    }

    #[test]
    fn value_counts_match_reachable_objects() {
        let (store, obama, _) = toy();
        let result = expand(&store, &sources(&[obama]), &ExpansionConfig::default());
        let michelle_name = store.dict().find_str_literal("Michelle Obama").unwrap();
        let pred = result.predicates_between(obama, michelle_name)[0];
        assert_eq!(result.value_count(obama, pred), 1);
    }

    #[test]
    fn max_emitted_truncates_gracefully() {
        let (store, obama, michelle) = toy();
        let config = ExpansionConfig {
            max_emitted: 2,
            ..Default::default()
        };
        let result = expand(&store, &sources(&[obama, michelle]), &config);
        assert!(result.truncated);
        assert!(result.emitted() <= 3);
    }

    #[test]
    fn valid_k_counts_infobox_support() {
        let (store, obama, _) = toy();
        let michelle_name = store.dict().find_str_literal("Michelle Obama").unwrap();
        let y1961 = store
            .dict()
            .find_term(kbqa_rdf::Term::Literal(kbqa_rdf::Literal::Year(1961)))
            .unwrap();
        // Infobox: dob (len 1) and spouse (len 3) are meaningful.
        let infobox: FxHashSet<(NodeId, NodeId)> = [(obama, y1961), (obama, michelle_name)]
            .into_iter()
            .collect();
        let rows = valid_k(&store, &infobox, 10, &ExpansionConfig::default());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].k, 1);
        assert!(rows[0].valid >= 1, "dob should validate at k=1");
        assert!(rows[2].valid >= 1, "spouse should validate at k=3");
        // Emission at each length dominates validity (noise exists).
        assert!(rows[0].emitted >= rows[0].valid);
    }

    #[test]
    fn distinct_predicate_counting() {
        let (store, obama, michelle) = toy();
        let result = expand(
            &store,
            &sources(&[obama, michelle]),
            &ExpansionConfig::default(),
        );
        assert!(result.distinct_predicates_of_length(1) >= 3);
        assert!(result.distinct_predicates_of_length(3) >= 1);
    }
}
