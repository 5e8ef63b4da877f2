//! The plan cache: join orders and candidate-size estimates keyed by
//! canonical query shape.
//!
//! Algorithm 2's join-order construction and the filtering phase's
//! candidate sizing are the per-query work a serving system can amortize:
//! real workloads are streams of a few recurring patterns over shared data
//! graphs, so the second occurrence of a pattern should skip planning
//! entirely. Plans are stored in *canonical vertex space* (see
//! [`crate::canon`]), so `A–B–C` and any relabeling of it share one entry;
//! on lookup the cached plan is mapped through the query's canonical
//! permutation and validated with [`JoinPlan::covers`] — a collision or a
//! fallback permutation mismatch degrades to a cache miss, never to a wrong
//! plan.

use crate::canon::{permuted_graph, CanonicalQuery};
use gsi_core::{JoinPlan, JoinStep, PlannerKind, RunStats};
use gsi_graph::Graph;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// One cached pattern: the canonical-space plan plus run statistics that
/// carry across repetitions.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Join plan with vertices in canonical ids. Per-pattern, not per-graph:
    /// entries are keyed by (graph epoch, pattern) at the map level.
    plan: JoinPlan,
    /// The pattern itself in canonical vertex space — what the plan's
    /// vertex ids refer to. Kept so the service can *re-cost* the plan
    /// against a new epoch's statistics without any query in flight.
    pattern: Graph,
    /// Which planner computed the cached order.
    planner: PlannerKind,
    /// Exponentially weighted estimate of the smallest candidate-set size
    /// observed for this pattern (the paper's min `|C(u)|`).
    min_candidate_ewma: f64,
    /// Exponentially weighted estimate of total matches.
    matches_ewma: f64,
    /// Number of runs folded into the estimates.
    runs: u64,
    /// LRU clock tick of the last touch.
    last_used: u64,
}

/// Size/plan estimates returned alongside a cached plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimates {
    /// EWMA of the smallest candidate-set size across runs of this pattern.
    pub min_candidate: f64,
    /// EWMA of the match count across runs of this pattern.
    pub n_matches: f64,
    /// Runs folded into the estimates.
    pub runs: u64,
}

/// A plan-cache lookup that hit: the concrete plan plus the estimates.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The cached join order, mapped into the querying graph's vertex ids.
    pub plan: JoinPlan,
    /// Which planner computed the cached order (the provenance reported in
    /// `QueryOutcome::planner_kind` on a hit).
    pub planner: PlannerKind,
    /// Cross-run size estimates for the pattern.
    pub estimates: PlanEstimates,
}

/// The locked half of the cache: the entry map plus an LRU order index.
///
/// `order` maps each entry's `last_used` tick back to its key, so the
/// eviction victim is `order`'s first element — an `O(log n)` pop instead
/// of the full `O(n)` min-scan this used to do under the lock on every
/// insert past capacity. Ticks are unique (the clock increments under the
/// same lock), keeping `map` and `order` in 1:1 correspondence.
#[derive(Debug, Default)]
struct LruState {
    map: HashMap<(u64, u64), CacheEntry>,
    order: BTreeMap<u64, (u64, u64)>,
    clock: u64,
}

impl LruState {
    fn next_tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Move `key`'s entry to the most-recently-used position.
    fn promote(&mut self, key: (u64, u64)) {
        let tick = self.next_tick();
        if let Some(e) = self.map.get_mut(&key) {
            self.order.remove(&e.last_used);
            e.last_used = tick;
            self.order.insert(tick, key);
        }
    }
}

/// Concurrent LRU cache of join plans keyed by `(scope, canonical key)`.
///
/// `scope` lets one cache serve many data graphs: plans are data-dependent
/// (Algorithm 2 scores candidates against label frequencies), so the same
/// pattern gets one entry per graph.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<LruState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (LRU eviction).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(LruState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up the plan for `query` (whose canonical identity is `canon`)
    /// under `scope`. On a hit, the canonical plan is mapped back into
    /// `query`'s vertex ids and validated; an invalid mapping counts as a
    /// miss.
    pub fn lookup(&self, scope: u64, canon: &CanonicalQuery, query: &Graph) -> Option<CachedPlan> {
        let key = (scope, canon.key);
        let hit = self.inner.lock().map.get(&key).map(|e| {
            (
                e.plan.clone(),
                e.planner,
                PlanEstimates {
                    min_candidate: e.min_candidate_ewma,
                    n_matches: e.matches_ewma,
                    runs: e.runs,
                },
            )
        });
        let Some((canonical_plan, planner, estimates)) = hit else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let inv = canon.inverse();
        let plan = map_plan(&canonical_plan, &inv);
        if plan.covers(query) {
            // Promote in the LRU only on a *usable* hit: an entry that keeps
            // failing validation must not stay hot off the back of lookups
            // it cannot serve.
            self.inner.lock().promote(key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(CachedPlan {
                plan,
                planner,
                estimates,
            })
        } else {
            // Key collision or non-exact canonical permutation: unusable.
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Record the plan a run *executed* for `query`, folding the run's
    /// candidate/match sizes into the pattern's estimates. `planner` is the
    /// provenance of the executed plan (reported back on later hits).
    ///
    /// Plan retention is first-writer-wins: an existing entry keeps its
    /// order and provenance whatever order a later run executed.
    pub fn record(
        &self,
        scope: u64,
        canon: &CanonicalQuery,
        query: &Graph,
        plan: &JoinPlan,
        planner: PlannerKind,
        stats: &RunStats,
    ) {
        let key = (scope, canon.key);
        let mut state = self.inner.lock();
        if let Some(e) = state.map.get_mut(&key) {
            const ALPHA: f64 = 0.3;
            e.min_candidate_ewma =
                (1.0 - ALPHA) * e.min_candidate_ewma + ALPHA * stats.min_candidate as f64;
            e.matches_ewma = (1.0 - ALPHA) * e.matches_ewma + ALPHA * stats.n_matches as f64;
            e.runs += 1;
        } else {
            state.map.insert(
                key,
                CacheEntry {
                    plan: map_plan(plan, &canon.perm),
                    pattern: permuted_graph(query, &canon.perm),
                    planner,
                    min_candidate_ewma: stats.min_candidate as f64,
                    matches_ewma: stats.n_matches as f64,
                    runs: 1,
                    last_used: 0, // placeholder; promoted below
                },
            );
        }
        state.promote(key);
        // LRU eviction: pop the least-recently-used tick until at capacity.
        while state.map.len() > self.capacity {
            let Some((_, victim)) = state.order.pop_first() else {
                break;
            };
            state.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Move every entry under `from` to `to`, preserving plans, estimates,
    /// and LRU position. Returns the number of entries migrated.
    ///
    /// The serving layer calls this when an epoch publication's statistics
    /// drift stays under its replan threshold: the patterns did not change
    /// and the data barely did, so the cached join orders remain good bets
    /// under the new epoch — dropping them would re-plan every recurring
    /// pattern for nothing. Lookups still validate every mapped plan with
    /// `JoinPlan::covers`, so migration can never produce a wrong plan.
    pub fn rekey_scope(&self, from: u64, to: u64) -> usize {
        if from == to {
            return 0;
        }
        let mut state = self.inner.lock();
        let victims: Vec<(u64, u64)> = state
            .map
            .keys()
            .filter(|&&(s, _)| s == from)
            .copied()
            .collect();
        for key in &victims {
            if let Some(entry) = state.map.remove(key) {
                // Same tick, new key: LRU position carries over.
                let new_key = (to, key.1);
                state.order.insert(entry.last_used, new_key);
                state.map.insert(new_key, entry);
            }
        }
        victims.len()
    }

    /// Re-cost every entry under `from` for publication as `to`: `keep`
    /// receives each entry's canonical pattern and cached canonical-space
    /// plan and decides whether the order is still the right one under the
    /// new epoch's statistics. Kept entries migrate (LRU position
    /// preserved); rejected entries are dropped so the next occurrence of
    /// the pattern re-plans against fresh statistics. Returns
    /// `(kept, dropped)`.
    ///
    /// The `keep` callback may be expensive (the service runs full plan
    /// enumeration in it), so it executes with **no cache lock held**:
    /// the scope's entries are snapshotted, judged outside the lock, and
    /// the verdicts committed in a second critical section. Lookups and
    /// records on *other* scopes proceed untouched throughout. The `from`
    /// scope is a retired epoch — nothing records into it concurrently —
    /// so the snapshot cannot go stale between the two sections.
    pub fn recost_scope(
        &self,
        from: u64,
        to: u64,
        mut keep: impl FnMut(&Graph, &JoinPlan) -> bool,
    ) -> (usize, usize) {
        let snapshot: Vec<((u64, u64), Graph, JoinPlan)> = {
            let state = self.inner.lock();
            state
                .map
                .iter()
                .filter(|&(&(s, _), _)| s == from)
                .map(|(k, e)| (*k, e.pattern.clone(), e.plan.clone()))
                .collect()
        };
        let verdicts: Vec<((u64, u64), bool)> = snapshot
            .into_iter()
            .map(|(key, pattern, plan)| (key, from != to && keep(&pattern, &plan)))
            .collect();

        let mut state = self.inner.lock();
        let (mut kept, mut dropped) = (0usize, 0usize);
        for (key, survives) in verdicts {
            if let Some(entry) = state.map.remove(&key) {
                let tick = entry.last_used;
                state.order.remove(&tick);
                if survives {
                    let new_key = (to, key.1);
                    state.order.insert(tick, new_key);
                    state.map.insert(new_key, entry);
                    kept += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        (kept, dropped)
    }

    /// Drop every entry under `scope` (a graph was unregistered/replaced).
    pub fn invalidate_scope(&self, scope: u64) {
        let mut state = self.inner.lock();
        let victims: Vec<((u64, u64), u64)> = state
            .map
            .iter()
            .filter(|(&(s, _), _)| s == scope)
            .map(|(k, e)| (*k, e.last_used))
            .collect();
        for (key, tick) in victims {
            state.map.remove(&key);
            state.order.remove(&tick);
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (including rejected mappings).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU capacity bound (not by epoch re-costing
    /// or scope drops).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Map a plan's vertex ids through `perm` (linking columns are positions in
/// the order, which are invariant under relabeling).
fn map_plan(plan: &JoinPlan, perm: &[u32]) -> JoinPlan {
    JoinPlan {
        order: plan.order.iter().map(|&v| perm[v as usize]).collect(),
        steps: plan
            .steps
            .iter()
            .map(|s| JoinStep {
                vertex: perm[s.vertex as usize],
                linking: s.linking.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonicalize;
    use gsi_graph::GraphBuilder;

    fn path(ids: [u32; 3]) -> Graph {
        // Build a labeled path u(0)-a-u(1)-b-u(2) with configurable id order:
        // ids[k] gives the insertion position of logical vertex k.
        let mut labels = [0u32; 3];
        for (logical, &pos) in ids.iter().enumerate() {
            labels[pos as usize] = logical as u32;
        }
        let mut b = GraphBuilder::new();
        for &l in &labels {
            b.add_vertex(l);
        }
        b.add_edge(ids[0], ids[1], 0);
        b.add_edge(ids[1], ids[2], 1);
        b.build()
    }

    fn stats(min_candidate: usize, n_matches: usize) -> RunStats {
        RunStats {
            min_candidate,
            n_matches,
            ..RunStats::default()
        }
    }

    fn plan_for(q: &Graph) -> JoinPlan {
        // A data graph with all frequencies 1: planning is deterministic.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(2);
        b.add_edge(v0, v1, 0);
        b.add_edge(v1, v2, 1);
        let data = b.build();
        let cands: Vec<gsi_signature::CandidateSet> = (0..q.n_vertices())
            .map(|u| gsi_signature::CandidateSet {
                query_vertex: u as u32,
                list: std::sync::Arc::new(vec![u as u32]),
            })
            .collect();
        gsi_core::plan::plan_join(q, &data, &cands).expect("connected")
    }

    #[test]
    fn relabeled_pattern_hits() {
        let cache = PlanCache::new(8);
        let q1 = path([0, 1, 2]);
        let c1 = canonicalize(&q1);
        assert!(cache.lookup(0, &c1, &q1).is_none());
        cache.record(
            0,
            &c1,
            &q1,
            &plan_for(&q1),
            PlannerKind::Greedy,
            &stats(5, 2),
        );

        let q2 = path([2, 0, 1]);
        let c2 = canonicalize(&q2);
        assert_eq!(c1.key, c2.key, "relabelings share the key");
        let hit = cache.lookup(0, &c2, &q2).expect("relabeled hit");
        assert!(hit.plan.covers(&q2));
        assert_eq!(hit.estimates.min_candidate, 5.0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn scopes_are_isolated() {
        let cache = PlanCache::new(8);
        let q = path([0, 1, 2]);
        let c = canonicalize(&q);
        cache.record(1, &c, &q, &plan_for(&q), PlannerKind::Greedy, &stats(1, 1));
        assert!(cache.lookup(2, &c, &q).is_none(), "other graph: miss");
        assert!(cache.lookup(1, &c, &q).is_some());
        cache.invalidate_scope(1);
        assert!(cache.lookup(1, &c, &q).is_none());
    }

    #[test]
    fn estimates_fold_across_runs() {
        let cache = PlanCache::new(8);
        let q = path([0, 1, 2]);
        let c = canonicalize(&q);
        let p = plan_for(&q);
        cache.record(0, &c, &q, &p, PlannerKind::CostBased, &stats(10, 0));
        cache.record(0, &c, &q, &p, PlannerKind::CostBased, &stats(20, 0));
        let hit = cache.lookup(0, &c, &q).expect("hit");
        assert_eq!(hit.estimates.runs, 2);
        assert!((hit.estimates.min_candidate - 13.0).abs() < 1e-9); // 10*0.7 + 20*0.3
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = PlanCache::new(2);
        let qs: Vec<Graph> = (0..3)
            .map(|i| {
                // Distinct patterns: single edge with label i.
                let mut b = GraphBuilder::new();
                let u0 = b.add_vertex(0);
                let u1 = b.add_vertex(1);
                b.add_edge(u0, u1, i);
                b.build()
            })
            .collect();
        let cs: Vec<CanonicalQuery> = qs.iter().map(canonicalize).collect();
        for (q, c) in qs.iter().zip(&cs) {
            cache.record(
                0,
                c,
                q,
                &plan_for_edge(q),
                PlannerKind::Greedy,
                &stats(1, 1),
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1, "one entry fell to the LRU bound");
        assert!(cache.lookup(0, &cs[0], &qs[0]).is_none(), "evicted");
        assert!(cache.lookup(0, &cs[2], &qs[2]).is_some());
    }

    #[test]
    fn usable_hit_promotes_and_saves_entry_from_eviction() {
        let cache = PlanCache::new(2);
        let qs: Vec<Graph> = (0..3)
            .map(|i| {
                let mut b = GraphBuilder::new();
                let u0 = b.add_vertex(0);
                let u1 = b.add_vertex(1);
                b.add_edge(u0, u1, i);
                b.build()
            })
            .collect();
        let cs: Vec<CanonicalQuery> = qs.iter().map(canonicalize).collect();
        cache.record(
            0,
            &cs[0],
            &qs[0],
            &plan_for_edge(&qs[0]),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        cache.record(
            0,
            &cs[1],
            &qs[1],
            &plan_for_edge(&qs[1]),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        // Touch entry 0: it becomes most-recently-used, so inserting a
        // third entry must evict entry 1, not entry 0.
        assert!(cache.lookup(0, &cs[0], &qs[0]).is_some());
        cache.record(
            0,
            &cs[2],
            &qs[2],
            &plan_for_edge(&qs[2]),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0, &cs[0], &qs[0]).is_some(), "promoted: kept");
        assert!(cache.lookup(0, &cs[1], &qs[1]).is_none(), "LRU: evicted");
    }

    #[test]
    fn invalidation_keeps_lru_order_consistent() {
        let cache = PlanCache::new(2);
        let q0 = path([0, 1, 2]);
        let c0 = canonicalize(&q0);
        cache.record(
            1,
            &c0,
            &q0,
            &plan_for(&q0),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        cache.record(
            2,
            &c0,
            &q0,
            &plan_for(&q0),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        cache.invalidate_scope(1);
        assert_eq!(cache.len(), 1);
        // Two fresh inserts after invalidation: eviction must pick the
        // true LRU survivor, never a stale order entry.
        let qs: Vec<Graph> = (0..2)
            .map(|i| {
                let mut b = GraphBuilder::new();
                let u0 = b.add_vertex(0);
                let u1 = b.add_vertex(1);
                b.add_edge(u0, u1, i);
                b.build()
            })
            .collect();
        let cs: Vec<CanonicalQuery> = qs.iter().map(canonicalize).collect();
        cache.record(
            3,
            &cs[0],
            &qs[0],
            &plan_for_edge(&qs[0]),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        cache.record(
            3,
            &cs[1],
            &qs[1],
            &plan_for_edge(&qs[1]),
            PlannerKind::Greedy,
            &stats(1, 1),
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(2, &c0, &q0).is_none(), "oldest evicted");
        assert!(cache.lookup(3, &cs[0], &qs[0]).is_some());
        assert!(cache.lookup(3, &cs[1], &qs[1]).is_some());
    }

    #[test]
    fn rekey_scope_migrates_entries_with_lru_position() {
        let cache = PlanCache::new(8);
        let q = path([0, 1, 2]);
        let c = canonicalize(&q);
        cache.record(
            1,
            &c,
            &q,
            &plan_for(&q),
            PlannerKind::CostBased,
            &stats(5, 2),
        );
        assert_eq!(cache.rekey_scope(1, 9), 1);
        assert!(cache.lookup(1, &c, &q).is_none(), "old scope emptied");
        let hit = cache.lookup(9, &c, &q).expect("migrated entry hits");
        assert_eq!(hit.planner, PlannerKind::CostBased);
        assert_eq!(hit.estimates.min_candidate, 5.0, "estimates ride along");
        assert_eq!(cache.rekey_scope(3, 4), 0, "empty scope migrates nothing");
        assert_eq!(cache.rekey_scope(9, 9), 0, "same-scope rekey is a no-op");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn recost_scope_keeps_or_drops_by_callback() {
        let cache = PlanCache::new(8);
        let q = path([0, 1, 2]);
        let c = canonicalize(&q);
        let p = plan_for(&q);
        cache.record(1, &c, &q, &p, PlannerKind::CostBased, &stats(1, 1));

        // The callback sees the canonical-space pattern and plan.
        let (kept, dropped) = cache.recost_scope(1, 2, |pattern, plan| {
            assert_eq!(pattern.n_vertices(), 3);
            assert!(plan.covers(pattern), "canonical plan covers its pattern");
            true
        });
        assert_eq!((kept, dropped), (1, 0));
        assert!(cache.lookup(2, &c, &q).is_some());

        let (kept, dropped) = cache.recost_scope(2, 3, |_, _| false);
        assert_eq!((kept, dropped), (0, 1));
        assert!(cache.lookup(3, &c, &q).is_none(), "rejected entry dropped");
        assert!(cache.is_empty());
    }

    /// The opposite covering order for `path([0, 1, 2])`: seed at the
    /// label-2 end and walk back. A legal alternative to `plan_for`'s
    /// output, so tests can check a later order never replaces the first.
    fn reverse_plan() -> JoinPlan {
        JoinPlan {
            order: vec![2, 1, 0],
            steps: vec![
                JoinStep {
                    vertex: 1,
                    linking: vec![(0, 1)],
                },
                JoinStep {
                    vertex: 0,
                    linking: vec![(1, 0)],
                },
            ],
        }
    }

    #[test]
    fn first_writer_keeps_its_order() {
        let cache = PlanCache::new(8);
        let q = path([0, 1, 2]);
        let c = canonicalize(&q);
        let forward = plan_for(&q);
        assert_ne!(forward.order, reverse_plan().order, "real alternatives");

        cache.record(0, &c, &q, &forward, PlannerKind::Greedy, &stats(1, 1));
        let first_order = cache.lookup(0, &c, &q).expect("hit").plan.order;

        // A later run that executed a different order folds its sizes in,
        // but never replaces the entry's order or provenance.
        for _ in 0..3 {
            cache.record(
                0,
                &c,
                &q,
                &reverse_plan(),
                PlannerKind::CostBased,
                &stats(1, 1),
            );
        }
        let hit = cache.lookup(0, &c, &q).expect("hit");
        assert_eq!(hit.plan.order, first_order, "first writer wins");
        assert_eq!(hit.planner, PlannerKind::Greedy);
        assert_eq!(hit.estimates.runs, 4, "every run folded its sizes");
    }

    fn plan_for_edge(q: &Graph) -> JoinPlan {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        for l in 0..3 {
            b.add_edge(v0, v1, l);
        }
        let data = b.build();
        let cands: Vec<gsi_signature::CandidateSet> = (0..q.n_vertices())
            .map(|u| gsi_signature::CandidateSet {
                query_vertex: u as u32,
                list: std::sync::Arc::new(vec![u as u32]),
            })
            .collect();
        gsi_core::plan::plan_join(q, &data, &cands).expect("connected")
    }
}
