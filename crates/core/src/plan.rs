//! Join-order planning — Algorithm 2 of the paper.
//!
//! The first query vertex minimizes `score(u) = |C(u)| / deg(u)`; each later
//! pick is the connected, not-yet-joined vertex with minimal score, where
//! after joining `u_c` every neighbor `u'` has its score multiplied by
//! `freq(L_E(u_c u'))` — cheap labels keep intermediate tables small.

use gsi_graph::{EdgeLabel, Graph, VertexId};
use gsi_signature::CandidateSet;

/// One join iteration: the vertex being added and its linking edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// The query vertex joined in this step.
    pub vertex: VertexId,
    /// Linking edges to the already-matched partial query `Q'`: pairs of
    /// (column index in the join order, edge label). Algorithm 3's `ES`.
    pub linking: Vec<(usize, EdgeLabel)>,
}

/// The full join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Query vertices in join order; `order[0]` seeds the table.
    pub order: Vec<VertexId>,
    /// One step per subsequent vertex (`order[1..]`).
    pub steps: Vec<JoinStep>,
}

/// Why Algorithm 2 could not produce a join order for a query.
///
/// The paper assumes connected, non-empty queries; instead of panicking on
/// violations (which previously tore down whichever worker thread was
/// planning), the planner reports them as typed errors so serving layers
/// can reject the query gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query has no vertices.
    EmptyQuery,
    /// `cands.len()` does not match the query's vertex count.
    CandidateMismatch {
        /// Query vertex count.
        expected: usize,
        /// Candidate sets supplied.
        got: usize,
    },
    /// No unplanned vertex connects to the already-ordered prefix: the
    /// query is disconnected (split components upstream, e.g. with
    /// `GsiEngine::query_disconnected`).
    Disconnected {
        /// The join step at which the order could not be extended.
        step: usize,
    },
    /// A join plan handed to the join stage does not cover the query
    /// ([`JoinPlan::covers`]): it was made for another pattern.
    NotCovering,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyQuery => write!(f, "empty query"),
            PlanError::CandidateMismatch { expected, got } => {
                write!(f, "expected {expected} candidate sets, got {got}")
            }
            PlanError::Disconnected { step } => {
                write!(f, "query is disconnected at step {step}")
            }
            PlanError::NotCovering => write!(f, "join plan does not cover the query"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Compute the join order for `query` over `data` given the filtered
/// candidate sets (Algorithm 2). Fails with a typed [`PlanError`] on
/// empty or disconnected queries (the paper assumes connected queries;
/// split components upstream).
pub fn plan_join(
    query: &Graph,
    data: &Graph,
    cands: &[CandidateSet],
) -> Result<JoinPlan, PlanError> {
    let nq = query.n_vertices();
    if nq == 0 {
        return Err(PlanError::EmptyQuery);
    }
    if cands.len() != nq {
        return Err(PlanError::CandidateMismatch {
            expected: nq,
            got: cands.len(),
        });
    }

    // score(u') = |C(u')| / deg(u')  (lines 2-3).
    let mut score: Vec<f64> = (0..nq)
        .map(|u| {
            let deg = query.degree(u as VertexId).max(1) as f64;
            cands[u].len() as f64 / deg
        })
        .collect();

    let mut in_plan = vec![false; nq];
    // `col_of[u]` = u's column in `order`, set as u is appended.
    let mut col_of = vec![0usize; nq];
    let mut order: Vec<VertexId> = Vec::with_capacity(nq);
    let mut steps: Vec<JoinStep> = Vec::with_capacity(nq.saturating_sub(1));

    for i in 0..nq {
        let pick = if i == 0 {
            // Line 6: global minimum score. `nq == 0` is rejected above,
            // but surface the typed error rather than panicking.
            (0..nq)
                .min_by(|&a, &b| score[a].total_cmp(&score[b]))
                .ok_or(PlanError::EmptyQuery)?
        } else {
            // Line 9: minimum score among vertices connected to Q'.
            (0..nq)
                .filter(|&u| {
                    !in_plan[u]
                        && query
                            .neighbors(u as VertexId)
                            .iter()
                            .any(|&(n, _)| in_plan[n as usize])
                })
                .min_by(|&a, &b| score[a].total_cmp(&score[b]))
                .ok_or(PlanError::Disconnected { step: i })?
        };

        let u = pick as VertexId;
        if i > 0 {
            // All edges between u and Q', with the matched endpoint's column.
            let mut linking: Vec<(usize, EdgeLabel)> = Vec::new();
            for &(n, l) in query.neighbors(u) {
                if in_plan[n as usize] {
                    linking.push((col_of[n as usize], l));
                }
            }
            debug_assert!(!linking.is_empty());
            steps.push(JoinStep { vertex: u, linking });
        }
        in_plan[pick] = true;
        col_of[pick] = order.len();
        order.push(u);

        // Lines 12-13: refresh neighbor scores by edge-label frequency.
        for &(n, l) in query.neighbors(u) {
            if !in_plan[n as usize] {
                score[n as usize] *= data.elabel_freq(l) as f64;
            }
        }
    }

    Ok(JoinPlan { order, steps })
}

impl JoinPlan {
    /// Sanity-check the plan covers the query: every vertex once, every edge
    /// exactly once as a linking edge.
    pub fn check_covers(&self, query: &Graph) {
        assert!(self.covers(query), "plan does not cover the query");
    }

    /// Whether this plan is a valid execution order for `query`: the order
    /// is a permutation of the query vertices, every step joins the next
    /// ordered vertex, every linking edge exists in the query with the
    /// right label, and the query's edges are covered exactly once.
    ///
    /// This is a *complete* executability check — any plan that passes it
    /// produces correct joins for `query` — so consumers reusing cached
    /// plans (keyed by a hash of the query shape) can call it to reject
    /// stale or colliding entries instead of panicking mid-join.
    ///
    /// Validation is strict about column provenance: `steps[i]` executes
    /// against the prefix `order[0..=i]`, so every `linking` column must
    /// satisfy `col <= i` — a plan referencing a *later* column (one its
    /// step has not materialized yet) is rejected, never executed. An
    /// empty plan never covers: an empty query is a typed
    /// [`PlanError::EmptyQuery`] upstream, and accepting the trivial plan
    /// here would let a cached empty plan bypass that error path.
    pub fn covers(&self, query: &Graph) -> bool {
        let nq = query.n_vertices();
        if nq == 0 || self.order.is_empty() {
            return false;
        }
        if self.order.len() != nq || self.steps.len() != nq.saturating_sub(1) {
            return false;
        }
        let mut sorted = self.order.clone();
        sorted.sort_unstable();
        if sorted.iter().enumerate().any(|(i, &v)| v != i as VertexId) {
            return false;
        }
        let mut linking_edges = 0usize;
        for (i, step) in self.steps.iter().enumerate() {
            if step.vertex != self.order[i + 1] || step.linking.is_empty() {
                return false;
            }
            // Duplicate (col, label) entries would double-count one query
            // edge and let another go missing under the total-count check.
            let mut seen = step.linking.clone();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
            for &(col, label) in &step.linking {
                // Linking columns must point into the already-joined prefix
                // and name real query edges.
                if col > i {
                    return false;
                }
                let matched = self.order[col];
                if !query
                    .neighbors(step.vertex)
                    .iter()
                    .any(|&(n, l)| n == matched && l == label)
                {
                    return false;
                }
            }
            linking_edges += step.linking.len();
        }
        linking_edges == query.n_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_graph::GraphBuilder;

    fn cand(u: u32, n: usize) -> CandidateSet {
        CandidateSet {
            query_vertex: u,
            list: std::sync::Arc::new((0..n as u32).collect()),
        }
    }

    /// Triangle query with an extra pendant.
    fn query() -> Graph {
        let mut b = GraphBuilder::new();
        let u0 = b.add_vertex(0);
        let u1 = b.add_vertex(1);
        let u2 = b.add_vertex(2);
        let u3 = b.add_vertex(3);
        b.add_edge(u0, u1, 0);
        b.add_edge(u1, u2, 1);
        b.add_edge(u0, u2, 0);
        b.add_edge(u2, u3, 2);
        b.build()
    }

    fn data() -> Graph {
        // Label frequencies: label 0 common, 1 mid, 2 rare.
        let mut b = GraphBuilder::new();
        let vs: Vec<u32> = (0..10).map(|i| b.add_vertex(i % 4)).collect();
        for i in 0..8 {
            b.add_edge(vs[i], vs[i + 1], 0);
        }
        b.add_edge(vs[0], vs[2], 1);
        b.add_edge(vs[1], vs[3], 1);
        b.add_edge(vs[4], vs[6], 2);
        b.build()
    }

    #[test]
    fn first_pick_minimizes_score() {
        let q = query();
        let d = data();
        // u2 has 2 candidates and degree 3 → lowest score.
        let cands = vec![cand(0, 10), cand(1, 10), cand(2, 2), cand(3, 10)];
        let plan = plan_join(&q, &d, &cands).expect("connected");
        assert_eq!(plan.order[0], 2);
        plan.check_covers(&q);
    }

    #[test]
    fn all_edges_covered_exactly_once() {
        let q = query();
        let d = data();
        let cands = vec![cand(0, 5), cand(1, 5), cand(2, 5), cand(3, 5)];
        let plan = plan_join(&q, &d, &cands).expect("connected");
        plan.check_covers(&q);
        // The triangle closing step must carry two linking edges.
        let multi = plan.steps.iter().find(|s| s.linking.len() == 2);
        assert!(multi.is_some(), "triangle closure needs 2 linking edges");
    }

    #[test]
    fn linking_columns_point_into_prefix() {
        let q = query();
        let d = data();
        let cands = vec![cand(0, 5), cand(1, 5), cand(2, 5), cand(3, 5)];
        let plan = plan_join(&q, &d, &cands).expect("connected");
        for (i, step) in plan.steps.iter().enumerate() {
            for &(col, _) in &step.linking {
                assert!(col <= i, "column {col} not yet materialized at step {i}");
            }
        }
    }

    #[test]
    fn connectivity_enforced() {
        let q = query();
        let d = data();
        // The pendant u3 has the lowest score, so it seeds the order; every
        // later vertex must connect to the already-ordered prefix.
        let cands = vec![cand(0, 100), cand(1, 100), cand(2, 100), cand(3, 1)];
        let plan = plan_join(&q, &d, &cands).expect("connected");
        assert_eq!(plan.order[0], 3);
        assert_eq!(plan.order[1], 2, "u2 is u3's only neighbor");
        for (i, &u) in plan.order.iter().enumerate().skip(1) {
            let connected = q
                .neighbors(u)
                .iter()
                .any(|&(n, _)| plan.order[..i].contains(&n));
            assert!(connected, "order[{i}]={u} not connected to prefix");
        }
    }

    #[test]
    fn disconnected_query_is_a_typed_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(0);
        let c = b.add_vertex(0);
        b.add_edge(a, c, 0);
        b.add_vertex(0); // isolated vertex
        let q = b.build();
        let d = data();
        let cands = vec![cand(0, 5), cand(1, 5), cand(2, 5)];
        let err = plan_join(&q, &d, &cands).expect_err("disconnected");
        assert_eq!(err, PlanError::Disconnected { step: 2 });
        assert!(err.to_string().contains("disconnected at step 2"));
    }

    #[test]
    fn empty_query_and_candidate_mismatch_are_typed_errors() {
        let d = data();
        let q = GraphBuilder::new().build();
        assert_eq!(plan_join(&q, &d, &[]), Err(PlanError::EmptyQuery));

        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        let q1 = b.build();
        assert_eq!(
            plan_join(&q1, &d, &[]),
            Err(PlanError::CandidateMismatch {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn covers_rejects_forward_linking_columns() {
        // Regression: a plan whose linking column references a column the
        // step has not materialized yet must be rejected — executing it
        // would index past the intermediate table's width. Start from a
        // valid plan so every *other* covers() condition holds.
        let q = query();
        let d = data();
        let cands = vec![cand(0, 5), cand(1, 5), cand(2, 5), cand(3, 5)];
        let plan = plan_join(&q, &d, &cands).expect("connected");
        assert!(plan.covers(&q));

        for (i, step) in plan.steps.iter().enumerate() {
            for slot in 0..step.linking.len() {
                // Point the column at the step's own (not-yet-joined)
                // vertex and at every later column: all must be rejected,
                // even when the named query edge genuinely exists.
                for forward_col in (i + 1)..plan.order.len() {
                    let mut bad = plan.clone();
                    let vertex = bad.steps[i].vertex;
                    let label = q
                        .edge_labels_between(vertex, bad.order[forward_col])
                        .first()
                        .copied()
                        .unwrap_or(bad.steps[i].linking[slot].1);
                    bad.steps[i].linking[slot] = (forward_col, label);
                    assert!(
                        !bad.covers(&q),
                        "step {i} slot {slot} accepted forward column {forward_col}"
                    );
                }
            }
        }
    }

    #[test]
    fn covers_rejects_empty_plans_and_empty_queries() {
        // An empty plan must not cover an empty query: the engine's typed
        // EmptyQuery error path owns that case, and a cached empty plan
        // must not silently bypass it.
        let empty_q = GraphBuilder::new().build();
        let empty_plan = JoinPlan {
            order: vec![],
            steps: vec![],
        };
        assert!(!empty_plan.covers(&empty_q));
        assert!(!empty_plan.covers(&query()));

        let q = query();
        let d = data();
        let cands = vec![cand(0, 5), cand(1, 5), cand(2, 5), cand(3, 5)];
        let plan = plan_join(&q, &d, &cands).expect("connected");
        assert!(!plan.covers(&empty_q));
    }

    #[test]
    fn single_vertex_plan() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        let q = b.build();
        let d = data();
        let plan = plan_join(&q, &d, &[cand(0, 3)]).expect("planned");
        assert_eq!(plan.order, vec![0]);
        assert!(plan.steps.is_empty());
    }
}
