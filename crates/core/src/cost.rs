//! Statistics-driven cost-based join-order optimization.
//!
//! Algorithm 2 of the paper orders joins greedily: seed at the minimum
//! `|C(u)| / deg(u)` score and extend by locally-adjusted scores. That
//! heuristic is myopic — it cannot see that the cheap-looking seed's only
//! extension fans out over a dense edge class while a different corner of
//! the query reaches everything over rare edges. "Deep Analysis on Subgraph
//! Isomorphism" (Zeng et al.) shows ordering dominates matching runtime;
//! this module replaces the heuristic with a small optimizer:
//!
//! * **Cardinality model.** The estimated intermediate-table size after
//!   joining a vertex set `S` is `Π_{u ∈ S} |C(u)| × Π_{edges in S} p(e)`,
//!   where `p(e)` is the typed-edge probability from the data graph's
//!   statistics catalog ([`GraphStats`] — label histograms, per-label
//!   degree mass, edge-label co-occurrence). Under this independence model
//!   the estimate depends only on the *set*, not the order — which makes
//!   exact search tractable.
//! * **Cost model.** One join iteration streaming a table of `r` rows over
//!   its cheapest linking edge, probing `k-1` further linking edges, and
//!   writing `r'` result rows costs
//!   `scheme × (r·f̄ · (1 + probe·(k-1)) + r')` — `f̄` the expected
//!   first-edge fanout (the paper's Algorithm 4 picks the rarest linking
//!   edge first, and so does the model), `probe` the per-check transaction
//!   cost of the configured set-op strategy (1 for the GPU-friendly bitset
//!   probe, `log₂|C|` for the naive binary search), and `scheme` = 2 for
//!   the two-step output scheme that runs every join twice. The unit is
//!   streamed elements — the same unit as `RunStats::join_work_units`,
//!   which serves as the model's calibration target.
//! * **Enumerator.** Dynamic programming over connected vertex subsets
//!   (`2^|V(Q)|` states; query graphs are small) finds the provably
//!   cheapest *connected* extension order under the model. Patterns larger
//!   than [`MAX_EXACT_SEARCH_VERTICES`] fall back to the greedy order —
//!   computed from the same statistics catalog, bit-compatible with
//!   [`crate::plan::plan_join`] — and the produced [`ExplainPlan`] reports
//!   which planner actually ran.
//!
//! Every plan the optimizer emits covers the query exactly like a greedy
//! plan does, so match tables are bit-identical across planners (the
//! differential suite asserts this across join-pool widths and join schemes); only
//! the work to produce them changes.

use crate::config::{GsiConfig, JoinScheme, SetOpStrategy};
use crate::plan::{JoinPlan, JoinStep, PlanError};
use gsi_graph::{EdgeLabel, Graph, GraphStats, VertexId, VertexLabel};
use gsi_signature::CandidateSet;

/// Which join-order planner runs when no plan is supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerKind {
    /// Algorithm 2's greedy score heuristic (the paper's planner; the
    /// default for engine presets to stay paper-faithful).
    #[default]
    Greedy,
    /// The statistics-driven cost-based optimizer of [`crate::cost`];
    /// falls back to the greedy order beyond
    /// [`MAX_EXACT_SEARCH_VERTICES`] vertices.
    CostBased,
}

impl std::fmt::Display for PlannerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerKind::Greedy => write!(f, "greedy"),
            PlannerKind::CostBased => write!(f, "cost-based"),
        }
    }
}

/// Largest pattern the subset-DP enumerator searches exactly; larger
/// patterns use the greedy fallback. 16 vertices = 65 536 DP states —
/// well under a millisecond, and comfortably past the paper's query sizes.
pub const MAX_EXACT_SEARCH_VERTICES: usize = 16;

/// Cap on estimated cardinalities so products cannot overflow.
const MAX_EST_ROWS: f64 = 1e18;

/// One entry of an [`ExplainPlan`]: a join-order position with its
/// estimated and (after execution) actual intermediate-table size.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainStep {
    /// The query vertex joined at this position (position 0 seeds).
    pub vertex: VertexId,
    /// Estimated table rows after this position.
    pub estimated_rows: f64,
    /// Estimated cost of executing this position (streamed elements).
    pub estimated_cost: f64,
    /// Observed table rows after this position; `None` until
    /// [`ExplainPlan::fill_actuals`], or when the run aborted earlier.
    pub actual_rows: Option<usize>,
}

/// A join plan's cost report: per-step estimated vs. actual cardinality.
///
/// The estimates are rough. Under the independence model they miss the
/// actual intermediate rows by two to four orders of magnitude on
/// realistic graphs: the mean q-error per pattern on the repo benchmark's
/// `engine-join` pool runs from 181 to 56,083. The cost-based order is
/// still within 0.5 % of the best of 40 random connected orders there,
/// because only the estimates' *ranking* of orders matters (`paper
/// optimize` reports this as `core.plan_regret`). Nothing re-plans on a
/// miss. The only readers of the numbers are the explain rows themselves
/// (the service's query traces and its `gsi_mean_q_error` gauge).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    /// The planner that produced the executed order (the cost-based
    /// planner reports [`PlannerKind::Greedy`] when the pattern exceeded
    /// the exact-search cap and the fallback ran).
    pub planner: PlannerKind,
    /// One entry per join-order position (the first seeds the table).
    pub steps: Vec<ExplainStep>,
    /// Total estimated cost of the order (streamed elements — compare with
    /// `RunStats::join_work_units`).
    pub estimated_total_cost: f64,
}

impl ExplainPlan {
    /// Record the observed per-position row counts of an executed run
    /// (`step_rows[i]` = rows after position `i`; a run that aborted or
    /// short-circuited reports a prefix, leaving the rest `None`).
    pub fn fill_actuals(&mut self, step_rows: &[usize]) {
        for (step, &rows) in self.steps.iter_mut().zip(step_rows) {
            step.actual_rows = Some(rows);
        }
    }

    /// Mean q-error of the cardinality estimates over positions with
    /// observed actuals: `max(est, act) / min(est, act)` with +1 smoothing
    /// (so empty tables don't divide by zero), averaged. `None` when no
    /// position has actuals **or contributes a finite ratio** — a
    /// zero-step plan (single-vertex pattern) or a non-finite estimate
    /// must not leak NaN/inf into accumulating consumers like
    /// `ServiceStats`' q-error sum. 1.0 = perfect estimation.
    pub fn mean_q_error(&self) -> Option<f64> {
        let mut total = 0.0f64;
        let mut n = 0usize;
        for step in &self.steps {
            let Some(actual) = step.actual_rows else {
                continue;
            };
            if !step.estimated_rows.is_finite() {
                continue;
            }
            let est = step.estimated_rows.max(0.0) + 1.0;
            let act = actual as f64 + 1.0;
            let ratio = (est.max(act)) / (est.min(act));
            if !ratio.is_finite() {
                continue;
            }
            total += ratio;
            n += 1;
        }
        (n > 0).then(|| total / n as f64)
    }
}

/// The statistics-backed cost model: cardinality and work estimates for
/// join orders over one data graph.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    stats: &'a GraphStats,
    scheme_factor: f64,
    set_ops: SetOpStrategy,
}

impl<'a> CostModel<'a> {
    /// Model over `stats` for the engine configuration's join scheme and
    /// set-op strategy.
    pub fn new(stats: &'a GraphStats, cfg: &GsiConfig) -> Self {
        Self {
            stats,
            scheme_factor: match cfg.join_scheme {
                JoinScheme::PreallocCombine => 1.0,
                // The two-step scheme runs every join twice (count, write).
                JoinScheme::TwoStep => 2.0,
            },
            set_ops: cfg.set_ops,
        }
    }

    /// Probability that a specific pair drawn from the two endpoint label
    /// classes carries the typed edge.
    fn edge_probability(&self, l1: VertexLabel, l: EdgeLabel, l2: VertexLabel) -> f64 {
        self.stats.typed_edge_probability(l1, l, l2)
    }

    /// Expected number of `l`-labeled edges from one `from`-labeled vertex
    /// toward `to`-labeled vertices (directed typed fanout).
    fn typed_fanout(&self, from: VertexLabel, l: EdgeLabel, to: VertexLabel) -> f64 {
        let n_from = self.stats.vlabel_count(from);
        if n_from == 0 {
            return 0.0;
        }
        let undirected = self.stats.typed_edge_count(from, l, to) as f64;
        let directed = if from == to {
            2.0 * undirected
        } else {
            undirected
        };
        directed / n_from as f64
    }

    /// Per-membership-check transaction cost of the configured set-op
    /// strategy against a candidate set of `cand_size` vertices.
    fn probe_cost(&self, cand_size: f64) -> f64 {
        match self.set_ops {
            // One bitset transaction per check (§V).
            SetOpStrategy::GpuFriendly => 1.0,
            // Binary search over the sorted candidate list.
            SetOpStrategy::Naive => cand_size.max(2.0).log2(),
        }
    }

    /// Estimated rows and cost of extending a table of `rows` rows (over
    /// the joined set) with `vertex`, given its candidate size and its
    /// linking edges `(already-joined vertex, label)` in the query.
    fn step_estimate(
        &self,
        query: &Graph,
        rows: f64,
        vertex: VertexId,
        cand_size: f64,
        linking: &[(VertexId, EdgeLabel)],
    ) -> (f64, f64) {
        let lu = query.vlabel(vertex);
        let n_label = self.stats.vlabel_count(lu) as f64;
        let mut selectivity = cand_size;
        let mut min_fanout = f64::INFINITY;
        for &(w, l) in linking {
            let lw = query.vlabel(w);
            selectivity *= self.edge_probability(lw, l, lu);
            // First-edge stream: candidates of `vertex` are reached through
            // the matched vertex's typed adjacency, damped by the fraction
            // of the label class that survived filtering (Algorithm 4
            // streams data neighbors, then intersects with C(u)).
            let cand_fraction = if n_label > 0.0 {
                (cand_size / n_label).clamp(0.0, 1.0)
            } else {
                0.0
            };
            min_fanout = min_fanout.min(self.typed_fanout(lw, l, lu) * cand_fraction);
        }
        let rows_new = (rows * selectivity).clamp(0.0, MAX_EST_ROWS);
        let fanout = if min_fanout.is_finite() {
            min_fanout
        } else {
            0.0
        };
        let streamed = (rows * fanout).clamp(0.0, MAX_EST_ROWS);
        let extra_probes = (linking.len() as f64 - 1.0).max(0.0);
        let cost = self.scheme_factor
            * (streamed * (1.0 + self.probe_cost(cand_size) * extra_probes) + rows_new);
        (rows_new, cost.clamp(0.0, MAX_EST_ROWS))
    }
}

/// Estimate a given plan under the cost model: per-position rows and cost
/// for `plan`'s order, with `sizes[u]` the (exact or estimated) candidate
/// count of query vertex `u`. Works for any valid plan — greedy, cached, or
/// optimized — so every executed query can report estimated vs. actual
/// cardinality regardless of where its order came from.
pub fn estimate_for_plan(
    plan: &JoinPlan,
    query: &Graph,
    stats: &GraphStats,
    sizes: &[f64],
    cfg: &GsiConfig,
    planner: PlannerKind,
) -> ExplainPlan {
    let model = CostModel::new(stats, cfg);
    let mut steps = Vec::with_capacity(plan.order.len());
    let mut total = 0.0f64;
    let mut rows = 0.0f64;
    for (pos, &u) in plan.order.iter().enumerate() {
        let size = sizes.get(u as usize).copied().unwrap_or(0.0);
        let (rows_new, cost) = if pos == 0 {
            // Seeding materializes the candidate list.
            (size.clamp(0.0, MAX_EST_ROWS), size)
        } else {
            let linking: Vec<(VertexId, EdgeLabel)> = plan.steps[pos - 1]
                .linking
                .iter()
                .map(|&(col, l)| (plan.order[col], l))
                .collect();
            model.step_estimate(query, rows, u, size, &linking)
        };
        total = (total + cost).clamp(0.0, MAX_EST_ROWS);
        steps.push(ExplainStep {
            vertex: u,
            estimated_rows: rows_new,
            estimated_cost: cost,
            actual_rows: None,
        });
        rows = rows_new;
    }
    ExplainPlan {
        planner,
        steps,
        estimated_total_cost: total,
    }
}

/// Validate the cost-based planner's inputs.
fn validate(query: &Graph, n_sizes: usize) -> Result<(), PlanError> {
    let nq = query.n_vertices();
    if nq == 0 {
        return Err(PlanError::EmptyQuery);
    }
    if n_sizes != nq {
        return Err(PlanError::CandidateMismatch {
            expected: nq,
            got: n_sizes,
        });
    }
    Ok(())
}

/// Cost-based join planning from *exact* candidate sets (the engine's
/// online path): search all connected extension orders and return the
/// cheapest, plus its [`ExplainPlan`]. Falls back to the greedy order —
/// same math as [`crate::plan::plan_join`], computed from the statistics
/// catalog — beyond [`MAX_EXACT_SEARCH_VERTICES`] vertices.
pub fn plan_join_costed(
    query: &Graph,
    stats: &GraphStats,
    cands: &[CandidateSet],
    cfg: &GsiConfig,
) -> Result<(JoinPlan, ExplainPlan), PlanError> {
    let sizes: Vec<f64> = cands.iter().map(|c| c.len() as f64).collect();
    validate(query, sizes.len())?;
    let nq = query.n_vertices();
    let (order, planner) = if nq > MAX_EXACT_SEARCH_VERTICES {
        (greedy_order(query, stats, &sizes)?, PlannerKind::Greedy)
    } else {
        (
            cheapest_order(query, stats, &sizes, cfg)?,
            PlannerKind::CostBased,
        )
    };
    let plan = plan_from_order(query, &order);
    debug_assert!(plan.covers(query), "planner emitted a non-covering plan");
    let explain = estimate_for_plan(&plan, query, stats, &sizes, cfg, planner);
    Ok((plan, explain))
}

/// Exact search: DP over connected vertex subsets. `dp[S]` is the cheapest
/// cost of any connected extension order joining exactly `S`; under the
/// independence model the estimated rows of `S` are order-invariant, so
/// the state space is the subsets, not the orders.
fn cheapest_order(
    query: &Graph,
    stats: &GraphStats,
    sizes: &[f64],
    cfg: &GsiConfig,
) -> Result<Vec<VertexId>, PlanError> {
    let nq = query.n_vertices();
    let model = CostModel::new(stats, cfg);
    let n_states = 1usize << nq;
    let mut cost = vec![f64::INFINITY; n_states];
    let mut rows = vec![0.0f64; n_states];
    let mut parent = vec![usize::MAX; n_states];

    for (u, &size) in sizes.iter().enumerate() {
        let mask = 1usize << u;
        cost[mask] = size; // seeding materializes the candidate list
        rows[mask] = size.clamp(0.0, MAX_EST_ROWS);
        parent[mask] = u;
    }

    // Ascending masks: every proper subset is finalized before its superset.
    for mask in 1..n_states {
        if !cost[mask].is_finite() {
            continue;
        }
        for (u, &size) in sizes.iter().enumerate() {
            let bit = 1usize << u;
            if mask & bit != 0 {
                continue;
            }
            let linking: Vec<(VertexId, EdgeLabel)> = query
                .neighbors(u as VertexId)
                .iter()
                .filter(|&&(w, _)| mask & (1usize << w as usize) != 0)
                .map(|&(w, l)| (w, l))
                .collect();
            if linking.is_empty() {
                continue; // connected orders only
            }
            let (rows_new, step_cost) =
                model.step_estimate(query, rows[mask], u as VertexId, size, &linking);
            let next = mask | bit;
            let total = cost[mask] + step_cost;
            if total < cost[next] {
                cost[next] = total;
                rows[next] = rows_new;
                parent[next] = u;
            }
        }
    }

    let full = n_states - 1;
    if !cost[full].is_finite() {
        // Disconnected pattern: report the largest connected prefix the
        // search could build (mirrors the greedy planner's typed error).
        let reachable = (0..n_states)
            .filter(|&m| cost[m].is_finite())
            .map(|m| m.count_ones() as usize)
            .max()
            .unwrap_or(0);
        return Err(PlanError::Disconnected { step: reachable });
    }

    let mut order = Vec::with_capacity(nq);
    let mut mask = full;
    while mask != 0 {
        let u = parent[mask];
        debug_assert!(u != usize::MAX);
        order.push(u as VertexId);
        mask &= !(1usize << u);
    }
    order.reverse();
    Ok(order)
}

/// Algorithm 2's greedy order computed from the statistics catalog
/// (`elabel_count` equals the data graph's `elabel_freq`, so for exact
/// candidate sizes this reproduces [`crate::plan::plan_join`]'s order,
/// tie-breaking included).
fn greedy_order(
    query: &Graph,
    stats: &GraphStats,
    sizes: &[f64],
) -> Result<Vec<VertexId>, PlanError> {
    let nq = query.n_vertices();
    let mut score: Vec<f64> = (0..nq)
        .map(|u| {
            let deg = query.degree(u as VertexId).max(1) as f64;
            sizes[u] / deg
        })
        .collect();
    let mut in_plan = vec![false; nq];
    let mut order: Vec<VertexId> = Vec::with_capacity(nq);
    for i in 0..nq {
        let pick = if i == 0 {
            // `nq == 0` cannot reach here, but keep the failure typed.
            (0..nq)
                .min_by(|&a, &b| score[a].total_cmp(&score[b]))
                .ok_or(PlanError::EmptyQuery)?
        } else {
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
        in_plan[pick] = true;
        order.push(pick as VertexId);
        for &(n, l) in query.neighbors(pick as VertexId) {
            if !in_plan[n as usize] {
                score[n as usize] *= stats.elabel_count(l) as f64;
            }
        }
    }
    Ok(order)
}

/// Materialize the [`JoinPlan`] for a connected vertex order: each step
/// links the next vertex to every already-ordered neighbor. Public so a
/// caller can execute an order of its own choosing through
/// [`crate::QueryOptions::plan`] (the `paper optimize` random-order arm
/// does).
pub fn plan_from_order(query: &Graph, order: &[VertexId]) -> JoinPlan {
    let mut steps = Vec::with_capacity(order.len().saturating_sub(1));
    for (pos, &u) in order.iter().enumerate().skip(1) {
        let mut linking: Vec<(usize, EdgeLabel)> = Vec::new();
        for &(n, l) in query.neighbors(u) {
            if let Some(col) = order[..pos].iter().position(|&o| o == n) {
                linking.push((col, l));
            }
        }
        debug_assert!(!linking.is_empty(), "order is connected");
        steps.push(JoinStep { vertex: u, linking });
    }
    JoinPlan {
        order: order.to_vec(),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_join;
    use gsi_graph::GraphBuilder;
    use std::sync::Arc;

    fn cand(u: u32, n: usize) -> CandidateSet {
        CandidateSet {
            query_vertex: u,
            list: Arc::new((0..n as u32).collect()),
        }
    }

    /// Skewed data: label 0 = 2 "A" anchors fanning out over dense label-0
    /// edges to 40 "B" vertices (label 1); a handful of rare label-1 edges
    /// reach 4 "C" vertices (label 2).
    fn skewed_data() -> Graph {
        let mut b = GraphBuilder::new();
        let a: Vec<u32> = (0..2).map(|_| b.add_vertex(0)).collect();
        let bs: Vec<u32> = (0..40).map(|_| b.add_vertex(1)).collect();
        let cs: Vec<u32> = (0..4).map(|_| b.add_vertex(2)).collect();
        for (i, &vb) in bs.iter().enumerate() {
            b.add_edge(a[i % 2], vb, 0); // dense A–B
        }
        for (i, &vc) in cs.iter().enumerate() {
            b.add_edge(bs[i], vc, 1); // rare B–C
        }
        b.build()
    }

    /// Path query a(0) –0– b(1) –1– c(2).
    fn path_query() -> Graph {
        let mut qb = GraphBuilder::new();
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        let c = qb.add_vertex(2);
        qb.add_edge(a, b, 0);
        qb.add_edge(b, c, 1);
        qb.build()
    }

    #[test]
    fn cost_based_avoids_the_dense_fanout_trap() {
        let data = skewed_data();
        let stats = GraphStats::build(&data);
        let q = path_query();
        // Candidate counts: a tiny (2), b huge (40), c small (4). The
        // greedy score seeds at `a` (2/1) and is then forced through the
        // dense A–B fanout; the cost model starts from the rare B–C side.
        let cands = vec![cand(0, 2), cand(1, 40), cand(2, 4)];
        let cfg = GsiConfig::gsi_opt();

        let greedy = plan_join(&q, &data, &cands).expect("plans");
        assert_eq!(greedy.order[0], 0, "greedy seeds at the trap");

        let (costed, explain) = plan_join_costed(&q, &stats, &cands, &cfg).expect("plans");
        assert!(costed.covers(&q));
        assert_eq!(explain.planner, PlannerKind::CostBased);
        assert_ne!(costed.order[0], 0, "optimizer avoids the dense seed");

        // The model must agree the costed order is cheaper than greedy's.
        let sizes: Vec<f64> = cands.iter().map(|c| c.len() as f64).collect();
        let greedy_est = estimate_for_plan(&greedy, &q, &stats, &sizes, &cfg, PlannerKind::Greedy);
        assert!(
            explain.estimated_total_cost < greedy_est.estimated_total_cost,
            "{} vs {}",
            explain.estimated_total_cost,
            greedy_est.estimated_total_cost
        );
    }

    #[test]
    fn triangle_closure_is_favored_over_late_filtering() {
        // Query: triangle u0-u1-u2 plus pendant u3 off u2. Closing the
        // triangle early multiplies two edge probabilities into the
        // intermediate-size estimate; any valid plan must still cover.
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        let u2 = qb.add_vertex(1);
        let u3 = qb.add_vertex(2);
        qb.add_edge(u0, u1, 0);
        qb.add_edge(u1, u2, 0);
        qb.add_edge(u0, u2, 0);
        qb.add_edge(u2, u3, 1);
        let q = qb.build();
        let data = skewed_data();
        let stats = GraphStats::build(&data);
        let cands = vec![cand(0, 5), cand(1, 9), cand(2, 9), cand(3, 4)];
        let (plan, explain) =
            plan_join_costed(&q, &stats, &cands, &GsiConfig::gsi_opt()).expect("plans");
        assert!(plan.covers(&q));
        assert_eq!(explain.steps.len(), 4);
        let multi = plan.steps.iter().find(|s| s.linking.len() == 2);
        assert!(multi.is_some(), "triangle closure carries 2 linking edges");
    }

    #[test]
    fn typed_errors_match_the_greedy_planner() {
        let data = skewed_data();
        let stats = GraphStats::build(&data);
        let cfg = GsiConfig::gsi_opt();
        let empty = GraphBuilder::new().build();
        assert_eq!(
            plan_join_costed(&empty, &stats, &[], &cfg).unwrap_err(),
            PlanError::EmptyQuery
        );

        let mut qb = GraphBuilder::new();
        qb.add_vertex(0);
        let one = qb.build();
        assert_eq!(
            plan_join_costed(&one, &stats, &[], &cfg).unwrap_err(),
            PlanError::CandidateMismatch {
                expected: 1,
                got: 0
            }
        );

        let mut qb = GraphBuilder::new();
        let a = qb.add_vertex(0);
        let b = qb.add_vertex(1);
        qb.add_edge(a, b, 0);
        qb.add_vertex(2); // isolated
        let disc = qb.build();
        let err = plan_join_costed(&disc, &stats, &[cand(0, 2), cand(1, 4), cand(2, 4)], &cfg)
            .unwrap_err();
        assert_eq!(err, PlanError::Disconnected { step: 2 });
    }

    #[test]
    fn single_vertex_plan() {
        let data = skewed_data();
        let stats = GraphStats::build(&data);
        let mut qb = GraphBuilder::new();
        qb.add_vertex(1);
        let q = qb.build();
        let (plan, explain) =
            plan_join_costed(&q, &stats, &[cand(0, 40)], &GsiConfig::gsi_opt()).expect("plans");
        assert_eq!(plan.order, vec![0]);
        assert!(plan.steps.is_empty());
        assert_eq!(explain.steps.len(), 1);
        assert_eq!(explain.steps[0].estimated_rows, 40.0);
    }

    #[test]
    fn oversized_patterns_fall_back_to_greedy_and_match_plan_join() {
        // A 18-vertex path: beyond the exact-search cap. The fallback must
        // produce exactly plan_join's order (same scores, same tie-breaks).
        let mut db = GraphBuilder::new();
        let vs: Vec<u32> = (0..40).map(|i| db.add_vertex(i % 3)).collect();
        for w in vs.windows(2) {
            db.add_edge(w[0], w[1], w[0] % 4);
        }
        let data = db.build();
        let stats = GraphStats::build(&data);

        let mut qb = GraphBuilder::new();
        let qs: Vec<u32> = (0..18).map(|i| qb.add_vertex(i % 3)).collect();
        for w in qs.windows(2) {
            qb.add_edge(w[0], w[1], w[0] % 4);
        }
        let q = qb.build();
        let cands: Vec<CandidateSet> = (0..18).map(|u| cand(u, 3 + (u as usize % 5))).collect();
        let cfg = GsiConfig::gsi_opt();
        let (plan, explain) = plan_join_costed(&q, &stats, &cands, &cfg).expect("plans");
        assert_eq!(explain.planner, PlannerKind::Greedy, "fallback engaged");
        let reference = plan_join(&q, &data, &cands).expect("plans");
        assert_eq!(plan, reference, "fallback reproduces Algorithm 2 exactly");
    }

    #[test]
    fn explain_actuals_and_q_error() {
        let data = skewed_data();
        let stats = GraphStats::build(&data);
        let q = path_query();
        let cands = vec![cand(0, 2), cand(1, 40), cand(2, 4)];
        let (_, mut explain) =
            plan_join_costed(&q, &stats, &cands, &GsiConfig::gsi_opt()).expect("plans");
        assert!(explain.mean_q_error().is_none(), "no actuals yet");
        explain.fill_actuals(&[4, 3]);
        assert_eq!(explain.steps[0].actual_rows, Some(4));
        assert_eq!(explain.steps[1].actual_rows, Some(3));
        assert_eq!(explain.steps[2].actual_rows, None, "aborted prefix");
        let q_err = explain.mean_q_error().expect("two samples");
        assert!(q_err >= 1.0);
    }

    #[test]
    fn q_error_guards_degenerate_plans() {
        // Zero steps (nothing planned at all): no samples, no NaN.
        let empty = ExplainPlan {
            planner: PlannerKind::Greedy,
            steps: Vec::new(),
            estimated_total_cost: 0.0,
        };
        assert_eq!(empty.mean_q_error(), None);

        // Non-finite or negative estimates are skipped, not averaged in.
        let mut weird = ExplainPlan {
            planner: PlannerKind::CostBased,
            steps: vec![
                ExplainStep {
                    vertex: 0,
                    estimated_rows: f64::NAN,
                    estimated_cost: 0.0,
                    actual_rows: None,
                },
                ExplainStep {
                    vertex: 1,
                    estimated_rows: f64::INFINITY,
                    estimated_cost: 0.0,
                    actual_rows: None,
                },
                ExplainStep {
                    vertex: 2,
                    estimated_rows: -5.0,
                    estimated_cost: 0.0,
                    actual_rows: None,
                },
            ],
            estimated_total_cost: 0.0,
        };
        weird.fill_actuals(&[7, 7, 3]);
        let q = weird.mean_q_error().expect("the clamped -5.0 step counts");
        assert!(q.is_finite());
        assert_eq!(q, 4.0, "est clamps to 0 → (3+1)/(0+1)");
    }

    #[test]
    fn two_step_scheme_costs_double() {
        let data = skewed_data();
        let stats = GraphStats::build(&data);
        let q = path_query();
        let cands = vec![cand(0, 2), cand(1, 40), cand(2, 4)];
        let pc = GsiConfig::gsi_opt();
        let ts = GsiConfig {
            join_scheme: JoinScheme::TwoStep,
            ..GsiConfig::gsi_opt()
        };
        let sizes: Vec<f64> = cands.iter().map(|c| c.len() as f64).collect();
        let (plan, _) = plan_join_costed(&q, &stats, &cands, &pc).expect("plans");
        let e1 = estimate_for_plan(&plan, &q, &stats, &sizes, &pc, PlannerKind::CostBased);
        let e2 = estimate_for_plan(&plan, &q, &stats, &sizes, &ts, PlannerKind::CostBased);
        // Join-step costs double; the seed cost is scheme-independent.
        assert!(e2.estimated_total_cost > e1.estimated_total_cost);
    }
}
