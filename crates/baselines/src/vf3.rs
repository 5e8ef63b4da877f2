//! VF3-like backtracking (in the spirit of Carletti et al., TPAMI 2018).
//!
//! VF3 improves on VF2 with (i) *node classification* — candidates are
//! pre-partitioned by vertex label; (ii) a *static matching order* driven by
//! label rarity and degree (rarest, most-constrained query vertices first);
//! (iii) stronger *feasibility rules* — degree lower bounds and a one-step
//! lookahead on unmatched-neighbor counts. The search skeleton is shared
//! with VF2; only ordering and pruning differ (our reproduction of the
//! paper's "improvement of VF2, which leverages more pruning rules").

use crate::common::{canonicalize, EngineResult, TimeoutGuard};
use gsi_graph::{Graph, VertexId};
use std::time::{Duration, Instant};

/// Rarity- and constraint-driven matching order: pick the vertex whose
/// (label frequency in data, -degree) is minimal, then extend by
/// connectivity by the same rule.
fn vf3_order(data: &Graph, query: &Graph) -> Vec<VertexId> {
    let n = query.n_vertices();
    let mut order = Vec::with_capacity(n);
    let mut in_order = vec![false; n];
    if n == 0 {
        return order;
    }
    let rank = |u: VertexId| {
        (
            data.vlabel_freq(query.vlabel(u)),
            usize::MAX - query.degree(u),
        )
    };
    let first = (0..n as VertexId)
        .min_by_key(|&u| rank(u))
        .expect("nonempty");
    order.push(first);
    in_order[first as usize] = true;
    while order.len() < n {
        let next = (0..n as VertexId)
            .filter(|&u| {
                !in_order[u as usize]
                    && query
                        .neighbors(u)
                        .iter()
                        .any(|&(w, _)| in_order[w as usize])
            })
            .min_by_key(|&u| rank(u))
            .expect("connected query");
        in_order[next as usize] = true;
        order.push(next);
    }
    order
}

struct Search<'a> {
    data: &'a Graph,
    query: &'a Graph,
    order: Vec<VertexId>,
    mapping: Vec<Option<VertexId>>,
    used: Vec<bool>,
    results: Vec<Vec<VertexId>>,
    guard: TimeoutGuard,
    /// Unmatched query-neighbor count per query vertex (lookahead bound).
    q_unmatched_nbrs: Vec<usize>,
}

impl Search<'_> {
    fn feasible(&self, u: VertexId, v: VertexId) -> bool {
        if self.query.vlabel(u) != self.data.vlabel(v) || self.used[v as usize] {
            return false;
        }
        // Degree rule: v must support u's degree.
        if self.data.degree(v) < self.query.degree(u) {
            return false;
        }
        // Core rule: edges into the matched region must exist.
        for &(w, l) in self.query.neighbors(u) {
            if let Some(dv) = self.mapping[w as usize] {
                if !self.data.has_edge(v, dv, l) {
                    return false;
                }
            }
        }
        // Lookahead: v needs at least as many unused neighbors as u has
        // unmatched query neighbors.
        let v_free = self
            .data
            .neighbors(v)
            .iter()
            .filter(|&&(w, _)| !self.used[w as usize])
            .count();
        if v_free < self.q_unmatched_nbrs[u as usize] {
            return false;
        }
        true
    }

    fn recurse(&mut self, depth: usize) {
        if self.guard.expired() {
            return;
        }
        if depth == self.order.len() {
            self.results.push(
                self.mapping
                    .iter()
                    .map(|m| m.expect("complete mapping"))
                    .collect(),
            );
            return;
        }
        let u = self.order[depth];
        let anchor = self
            .query
            .neighbors(u)
            .iter()
            .find_map(|&(w, l)| self.mapping[w as usize].map(|dv| (dv, l)));
        match anchor {
            Some((dv, l)) => {
                let cands: Vec<VertexId> = self.data.neighbors_with_label(dv, l).collect();
                for v in cands {
                    if self.feasible(u, v) {
                        self.assign(u, v, depth);
                    }
                }
            }
            None => {
                for v in 0..self.data.n_vertices() as VertexId {
                    if self.feasible(u, v) {
                        self.assign(u, v, depth);
                    }
                }
            }
        }
    }

    fn assign(&mut self, u: VertexId, v: VertexId, depth: usize) {
        self.mapping[u as usize] = Some(v);
        self.used[v as usize] = true;
        for &(w, _) in self.query.neighbors(u) {
            self.q_unmatched_nbrs[w as usize] -= 1;
        }
        self.recurse(depth + 1);
        for &(w, _) in self.query.neighbors(u) {
            self.q_unmatched_nbrs[w as usize] += 1;
        }
        self.mapping[u as usize] = None;
        self.used[v as usize] = false;
    }
}

/// Enumerate all matches with VF3-style ordering and pruning.
pub fn run(data: &Graph, query: &Graph, timeout: Option<Duration>) -> EngineResult {
    let start = Instant::now();
    if query.n_vertices() == 0 {
        return EngineResult {
            assignments: Vec::new(),
            elapsed: start.elapsed(),
            timed_out: false,
            device: None,
        };
    }
    let q_unmatched_nbrs = (0..query.n_vertices() as VertexId)
        .map(|u| query.degree(u))
        .collect();
    let mut s = Search {
        data,
        query,
        order: vf3_order(data, query),
        mapping: vec![None; query.n_vertices()],
        used: vec![false; data.n_vertices()],
        results: Vec::new(),
        guard: TimeoutGuard::new(timeout),
        q_unmatched_nbrs,
    };
    s.recurse(0);
    let timed_out = s.guard.expired();
    EngineResult {
        assignments: canonicalize(s.results),
        elapsed: start.elapsed(),
        timed_out,
        device: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2;
    use gsi_graph::generate::{barabasi_albert, LabelModel};
    use gsi_graph::query_gen::random_walk_query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_vf2_on_random_workloads() {
        for seed in 0..5u64 {
            let model = LabelModel::zipf(4, 3, 0.8);
            let mut rng = StdRng::seed_from_u64(seed);
            let data = barabasi_albert(120, 2, &model, &mut rng);
            let query = random_walk_query(&data, 4, &mut rng).expect("query");
            let a = vf2::run(&data, &query, None);
            let b = run(&data, &query, None);
            assert_eq!(a.assignments, b.assignments, "seed {seed}");
            b.verify(&data, &query).unwrap();
        }
    }

    #[test]
    fn rarity_order_starts_from_rare_label() {
        // Data: label 9 appears once, label 0 many times.
        let mut b = gsi_graph::GraphBuilder::new();
        let hub = b.add_vertex(9);
        let others: Vec<u32> = (0..10).map(|_| b.add_vertex(0)).collect();
        for &o in &others {
            b.add_edge(hub, o, 0);
        }
        let data = b.build();
        let mut qb = gsi_graph::GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(9);
        qb.add_edge(u0, u1, 0);
        let query = qb.build();
        let order = vf3_order(&data, &query);
        assert_eq!(order[0], 1, "rare label 9 must be matched first");
    }

    #[test]
    fn lookahead_prunes_starved_candidates() {
        // Star query: center with 3 leaves; data center has only 2 nbrs.
        let mut b = gsi_graph::GraphBuilder::new();
        let c = b.add_vertex(1);
        let l1 = b.add_vertex(0);
        let l2 = b.add_vertex(0);
        b.add_edge(c, l1, 0);
        b.add_edge(c, l2, 0);
        let data = b.build();
        let mut qb = gsi_graph::GraphBuilder::new();
        let qc = qb.add_vertex(1);
        for _ in 0..3 {
            let l = qb.add_vertex(0);
            qb.add_edge(qc, l, 0);
        }
        let query = qb.build();
        assert!(run(&data, &query, None).is_empty());
    }
}
