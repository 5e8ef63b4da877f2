//! Dynamic graph updates: the delta vocabulary every layer of the stack
//! consumes.
//!
//! The PCSR layout (§IV) was designed so labeled graphs can absorb edge and
//! vertex updates without full rebuilds; this module supplies the *logical*
//! half of that story. An [`UpdateBatch`] is an ordered list of [`GraphOp`]s
//! — vertex additions, edge insertions, edge removals — validated and
//! applied to an immutable [`Graph`] by [`Graph::apply_updates`], which
//! produces the mutated graph plus enough delta metadata (touched edge
//! labels, touched vertices) for the device-side structures to refresh only
//! what actually changed:
//!
//! * [`crate::pcsr::MultiPcsr::apply_updates`] reuses every untouched label
//!   layer and splices touched ones in place when the canonical layout
//!   permits;
//! * `gsi_signature::SignatureTable::refreshed` re-encodes only the
//!   endpoints of mutated edges;
//! * `gsi_core::PreparedData::apply_updates` stitches both into a delta
//!   re-prepare, and `gsi_service::GraphCatalog::update` publishes the
//!   result as a new serving epoch.
//!
//! Validation is strict by design: inserting an edge that already exists or
//! removing one that does not is an [`UpdateError`], not a no-op — a serving
//! system replaying a delta log must notice when its picture of the graph
//! has drifted from reality.

use crate::graph::Graph;
use crate::types::{Edge, EdgeLabel, VertexId, VertexLabel};
use std::collections::{BTreeSet, HashMap};

/// One logical mutation of a labeled graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphOp {
    /// Append a vertex with the given label; it receives the next dense id.
    AddVertex {
        /// Label of the new vertex.
        label: VertexLabel,
    },
    /// Insert the undirected edge `u –label– v`. The edge must not already
    /// exist; endpoints may be vertices added earlier in the same batch.
    InsertEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Edge label.
        label: EdgeLabel,
    },
    /// Remove the undirected edge `u –label– v`, which must exist.
    RemoveEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Edge label.
        label: EdgeLabel,
    },
}

/// Why an [`UpdateBatch`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An edge op referenced a vertex id that does not exist (and was not
    /// added earlier in the batch).
    UnknownVertex {
        /// The offending vertex id.
        vertex: VertexId,
        /// Index of the op inside the batch.
        op_index: usize,
    },
    /// An [`GraphOp::InsertEdge`] would create a self-loop.
    SelfLoop {
        /// Index of the op inside the batch.
        op_index: usize,
    },
    /// An [`GraphOp::InsertEdge`] named an edge that already exists (or was
    /// inserted earlier in the batch).
    DuplicateEdge {
        /// The canonicalized edge.
        edge: Edge,
        /// Index of the op inside the batch.
        op_index: usize,
    },
    /// A [`GraphOp::RemoveEdge`] named an edge that does not exist (or was
    /// removed earlier in the batch).
    MissingEdge {
        /// The canonicalized edge.
        edge: Edge,
        /// Index of the op inside the batch.
        op_index: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownVertex { vertex, op_index } => {
                write!(f, "op {op_index}: unknown vertex {vertex}")
            }
            UpdateError::SelfLoop { op_index } => {
                write!(f, "op {op_index}: self-loops are not supported")
            }
            UpdateError::DuplicateEdge { edge, op_index } => write!(
                f,
                "op {op_index}: edge {}-{} (label {}) already exists",
                edge.u, edge.v, edge.label
            ),
            UpdateError::MissingEdge { edge, op_index } => write!(
                f,
                "op {op_index}: edge {}-{} (label {}) does not exist",
                edge.u, edge.v, edge.label
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// An ordered batch of graph mutations, applied atomically: either every op
/// validates against the evolving graph state, or nothing is applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<GraphOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a vertex addition.
    pub fn add_vertex(&mut self, label: VertexLabel) -> &mut Self {
        self.ops.push(GraphOp::AddVertex { label });
        self
    }

    /// Append an edge insertion.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, label: EdgeLabel) -> &mut Self {
        self.ops.push(GraphOp::InsertEdge { u, v, label });
        self
    }

    /// Append an edge removal.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId, label: EdgeLabel) -> &mut Self {
        self.ops.push(GraphOp::RemoveEdge { u, v, label });
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[GraphOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of vertices the batch adds.
    pub fn n_vertex_adds(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, GraphOp::AddVertex { .. }))
            .count()
    }

    /// Distinct edge labels the batch's edge ops touch, sorted. These are
    /// exactly the PCSR label layers that must be refreshed; every other
    /// layer is reusable as-is.
    pub fn touched_labels(&self) -> Vec<EdgeLabel> {
        let mut labels = BTreeSet::new();
        for op in &self.ops {
            match *op {
                GraphOp::InsertEdge { label, .. } | GraphOp::RemoveEdge { label, .. } => {
                    labels.insert(label);
                }
                GraphOp::AddVertex { .. } => {}
            }
        }
        labels.into_iter().collect()
    }

    /// Distinct vertices whose incident edge set changes, sorted. These are
    /// exactly the vertices whose signatures must be re-encoded; vertex
    /// additions are *not* included (a fresh isolated vertex's signature is
    /// label-only and encoded from scratch when the table grows).
    pub fn touched_vertices(&self) -> Vec<VertexId> {
        let mut vs = BTreeSet::new();
        for op in &self.ops {
            match *op {
                GraphOp::InsertEdge { u, v, .. } | GraphOp::RemoveEdge { u, v, .. } => {
                    vs.insert(u);
                    vs.insert(v);
                }
                GraphOp::AddVertex { .. } => {}
            }
        }
        vs.into_iter().collect()
    }

    /// The edge ops restricted to one label, as `(insert?, u, v)` triples in
    /// batch order (the per-layer splice input).
    pub fn edge_ops_for_label(&self, label: EdgeLabel) -> Vec<(bool, VertexId, VertexId)> {
        self.ops
            .iter()
            .filter_map(|op| match *op {
                GraphOp::InsertEdge { u, v, label: l } if l == label => Some((true, u, v)),
                GraphOp::RemoveEdge { u, v, label: l } if l == label => Some((false, u, v)),
                _ => None,
            })
            .collect()
    }
}

/// A random *valid* batch against `g`, for tests and churn harnesses:
/// `size` rolls of edge insertion (labels in `0..n_elabels`), edge removal,
/// and the occasional vertex addition, tracked against the evolving edge
/// set so the batch always passes [`Graph::apply_updates`] validation.
///
/// One canonical generator keeps the update property suite, the
/// differential oracle, and any future harness exercising the same
/// validity rules in lockstep with them.
pub fn random_update_batch<R: rand::Rng>(
    g: &Graph,
    size: usize,
    n_elabels: u32,
    rng: &mut R,
) -> UpdateBatch {
    let mut edges: BTreeSet<(VertexId, VertexId, EdgeLabel)> =
        g.edges().into_iter().map(|e| (e.u, e.v, e.label)).collect();
    let mut n = g.n_vertices() as VertexId;
    let mut batch = UpdateBatch::new();
    for _ in 0..size {
        let roll = rng.random_range(0..10);
        if roll == 0 {
            batch.add_vertex(rng.random_range(0..3));
            n += 1;
        } else if roll < 4 && !edges.is_empty() {
            // Remove a random existing edge.
            let idx = rng.random_range(0..edges.len());
            // `idx < edges.len()`, so `nth` always finds an edge.
            let Some(&(u, v, l)) = edges.iter().nth(idx) else {
                continue;
            };
            batch.remove_edge(u, v, l);
            edges.remove(&(u, v, l));
        } else if n >= 2 {
            // Insert a random missing edge (a few tries, then give up).
            for _ in 0..8 {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                let l = rng.random_range(0..n_elabels);
                let key = (u.min(v), u.max(v), l);
                if u != v && !edges.contains(&key) {
                    batch.insert_edge(u, v, l);
                    edges.insert(key);
                    break;
                }
            }
        }
    }
    batch
}

impl Graph {
    /// Apply `batch` and return the mutated graph.
    ///
    /// Ops are validated in order against the evolving state; the first
    /// violation aborts with an [`UpdateError`] and `self` is untouched (it
    /// never is — the graph is immutable — so a failed apply has no effect
    /// anywhere). The returned graph is bit-identical to one built from
    /// scratch with the final vertex/edge set (asserted by the tests), but
    /// constructed by a single merge pass over the CSR — untouched
    /// adjacency runs are copied, touched vertices merge their sorted
    /// deltas in — so applying a batch costs `O(|V| + |E| + |B| log |B|)`
    /// rather than the builder's full `O(|E| log |E|)` re-sort. Every
    /// downstream structure (CSR layouts, partitions, signatures) sees
    /// exactly the graph a cold construction would.
    pub fn apply_updates(&self, batch: &UpdateBatch) -> Result<Graph, UpdateError> {
        // An empty batch is a cheap no-op: one clone of the existing
        // buffers, no validation pass, no CSR merge.
        if batch.is_empty() {
            return Ok(self.clone());
        }
        // Validate against the evolving edge set.
        let mut n = self.n_vertices() as u64;
        let mut inserted: BTreeSet<Edge> = BTreeSet::new();
        let mut removed: BTreeSet<Edge> = BTreeSet::new();
        for (i, op) in batch.ops.iter().enumerate() {
            match *op {
                GraphOp::AddVertex { .. } => n += 1,
                GraphOp::InsertEdge { u, v, label } | GraphOp::RemoveEdge { u, v, label } => {
                    for end in [u, v] {
                        if u64::from(end) >= n {
                            return Err(UpdateError::UnknownVertex {
                                vertex: end,
                                op_index: i,
                            });
                        }
                    }
                    if u == v {
                        return Err(UpdateError::SelfLoop { op_index: i });
                    }
                    let e = Edge { u, v, label }.canonical();
                    let existed_before =
                        u64::from(e.v) < self.n_vertices() as u64 && self.has_edge(e.u, e.v, label);
                    // `inserted` and `removed` are kept disjoint below.
                    let exists_now =
                        (existed_before || inserted.contains(&e)) && !removed.contains(&e);
                    match op {
                        GraphOp::InsertEdge { .. } => {
                            if exists_now {
                                return Err(UpdateError::DuplicateEdge {
                                    edge: e,
                                    op_index: i,
                                });
                            }
                            inserted.insert(e);
                            removed.remove(&e);
                        }
                        GraphOp::RemoveEdge { .. } => {
                            if !exists_now {
                                return Err(UpdateError::MissingEdge {
                                    edge: e,
                                    op_index: i,
                                });
                            }
                            removed.insert(e);
                            inserted.remove(&e);
                        }
                        // gsi-lint: allow(panic-freedom, reason = "the match two frames up dispatches AddVertex to its own arm; reaching here is a validator bug worth crashing loudly over")
                        GraphOp::AddVertex { .. } => unreachable!(),
                    }
                }
            }
        }

        // Note: an edge both pre-existing and "reinserted after removal"
        // within the batch ends in `inserted` while absent from `removed`;
        // drop it from the delta so the merge below stays duplicate-free.
        let inserted: Vec<Edge> = inserted
            .into_iter()
            .filter(|e| {
                !(u64::from(e.v) < self.n_vertices() as u64 && self.has_edge(e.u, e.v, e.label))
            })
            .collect();
        // Symmetrically, an edge inserted and removed within the batch ends
        // in `removed` without ever having existed in `self`.
        let removed: Vec<Edge> = removed
            .into_iter()
            .filter(|e| {
                u64::from(e.v) < self.n_vertices() as u64 && self.has_edge(e.u, e.v, e.label)
            })
            .collect();

        // Merge-construct the canonical CSR: untouched vertices copy their
        // adjacency runs verbatim, touched vertices merge their sorted
        // per-vertex deltas in. Bit-identical to a cold builder freeze.
        let mut vlabels = self.vlabels.clone();
        for op in &batch.ops {
            if let GraphOp::AddVertex { label } = *op {
                vlabels.push(label);
            }
        }
        let n_new = vlabels.len();

        // Per-vertex sorted deltas, keyed by the adjacency sort order.
        type Delta = (Vec<(EdgeLabel, VertexId)>, Vec<(EdgeLabel, VertexId)>);
        let mut deltas: HashMap<VertexId, Delta> = HashMap::new();
        for e in &inserted {
            deltas.entry(e.u).or_default().0.push((e.label, e.v));
            deltas.entry(e.v).or_default().0.push((e.label, e.u));
        }
        for e in &removed {
            deltas.entry(e.u).or_default().1.push((e.label, e.v));
            deltas.entry(e.v).or_default().1.push((e.label, e.u));
        }
        for d in deltas.values_mut() {
            d.0.sort_unstable();
            d.1.sort_unstable();
        }

        let mut offsets = Vec::with_capacity(n_new + 1);
        let mut adj = Vec::with_capacity(self.adj.len() + 2 * inserted.len());
        offsets.push(0);
        for v in 0..n_new as VertexId {
            let old = if (v as usize) < self.n_vertices() {
                self.neighbors(v)
            } else {
                &[]
            };
            match deltas.get(&v) {
                None => adj.extend_from_slice(old),
                Some((ins, del)) => {
                    // Two-pointer merge of the surviving old run with the
                    // insertions, both sorted by (label, neighbor).
                    let mut ins = ins.iter().peekable();
                    let mut del = del.iter().peekable();
                    for &(nbr, l) in old {
                        if del.peek() == Some(&&(l, nbr)) {
                            del.next();
                            continue;
                        }
                        while let Some(&(il, inb)) = ins.next_if(|&&(il, inb)| (il, inb) < (l, nbr))
                        {
                            adj.push((inb, il));
                        }
                        adj.push((nbr, l));
                    }
                    for &(il, inb) in ins {
                        adj.push((inb, il));
                    }
                    debug_assert!(del.peek().is_none(), "removal validated above");
                }
            }
            offsets.push(adj.len());
        }

        // Patch the frequency inventories.
        let mut elabel_freq = self.elabel_freq.clone();
        for e in &inserted {
            *elabel_freq.entry(e.label).or_insert(0) += 1;
        }
        for e in &removed {
            match elabel_freq.get_mut(&e.label) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    elabel_freq.remove(&e.label);
                }
            }
        }
        let mut vlabel_freq = self.vlabel_freq.clone();
        for &l in &vlabels[self.n_vertices()..] {
            *vlabel_freq.entry(l).or_insert(0) += 1;
        }

        let n_edges = self.n_edges + inserted.len() - removed.len();
        Ok(Graph {
            vlabels,
            offsets,
            adj,
            n_edges,
            elabel_freq,
            vlabel_freq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn base() -> Graph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(2);
        b.add_edge(v0, v1, 0);
        b.add_edge(v1, v2, 1);
        b.build()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let g = base();
        let mut batch = UpdateBatch::new();
        batch.insert_edge(0, 2, 0).remove_edge(1, 2, 1);
        let g2 = g.apply_updates(&batch).expect("valid batch");
        assert_eq!(g2.n_edges(), 2);
        assert!(g2.has_edge(0, 2, 0));
        assert!(!g2.has_edge(1, 2, 1));
        // Original untouched.
        assert!(g.has_edge(1, 2, 1));
    }

    #[test]
    fn result_is_bit_identical_to_cold_build() {
        let g = base();
        let mut batch = UpdateBatch::new();
        batch
            .add_vertex(7)
            .insert_edge(3, 0, 2)
            .remove_edge(0, 1, 0);
        let g2 = g.apply_updates(&batch).expect("valid");

        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_vertex(7);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 0, 2);
        assert_eq!(g2, b.build());
    }

    #[test]
    fn new_vertex_usable_within_batch() {
        let g = base();
        let mut batch = UpdateBatch::new();
        batch.add_vertex(5).insert_edge(0, 3, 9);
        let g2 = g.apply_updates(&batch).expect("valid");
        assert_eq!(g2.n_vertices(), 4);
        assert!(g2.has_edge(0, 3, 9));
        assert_eq!(g2.vlabel(3), 5);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let g = base();
        let mut batch = UpdateBatch::new();
        batch.insert_edge(1, 0, 0); // exists as 0-1
        assert!(matches!(
            g.apply_updates(&batch),
            Err(UpdateError::DuplicateEdge { op_index: 0, .. })
        ));
        let mut batch = UpdateBatch::new();
        batch.insert_edge(0, 2, 3).insert_edge(2, 0, 3);
        assert!(matches!(
            g.apply_updates(&batch),
            Err(UpdateError::DuplicateEdge { op_index: 1, .. })
        ));
    }

    #[test]
    fn missing_remove_rejected_but_reinsert_allowed() {
        let g = base();
        let mut batch = UpdateBatch::new();
        batch.remove_edge(0, 2, 0);
        assert!(matches!(
            g.apply_updates(&batch),
            Err(UpdateError::MissingEdge { op_index: 0, .. })
        ));
        // Remove then re-insert the same edge in one batch is legal.
        let mut batch = UpdateBatch::new();
        batch.remove_edge(0, 1, 0).insert_edge(0, 1, 0);
        let g2 = g.apply_updates(&batch).expect("remove+reinsert");
        assert_eq!(g2, g);
        // And insert-then-remove of a fresh edge cancels out.
        let mut batch = UpdateBatch::new();
        batch.insert_edge(0, 2, 4).remove_edge(0, 2, 4);
        assert_eq!(g.apply_updates(&batch).expect("insert+remove"), g);
    }

    #[test]
    fn unknown_vertex_and_self_loop_rejected() {
        let g = base();
        let mut batch = UpdateBatch::new();
        batch.insert_edge(0, 9, 0);
        assert!(matches!(
            g.apply_updates(&batch),
            Err(UpdateError::UnknownVertex { vertex: 9, .. })
        ));
        let mut batch = UpdateBatch::new();
        batch.insert_edge(2, 2, 0);
        assert!(matches!(
            g.apply_updates(&batch),
            Err(UpdateError::SelfLoop { op_index: 0 })
        ));
    }

    #[test]
    fn touched_metadata() {
        let mut batch = UpdateBatch::new();
        batch
            .add_vertex(1)
            .insert_edge(0, 1, 3)
            .remove_edge(2, 1, 0)
            .insert_edge(2, 0, 3);
        assert_eq!(batch.touched_labels(), vec![0, 3]);
        assert_eq!(batch.touched_vertices(), vec![0, 1, 2]);
        assert_eq!(batch.n_vertex_adds(), 1);
        assert_eq!(
            batch.edge_ops_for_label(3),
            vec![(true, 0, 1), (true, 2, 0)]
        );
        assert_eq!(batch.edge_ops_for_label(0), vec![(false, 2, 1)]);
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = base();
        assert_eq!(g.apply_updates(&UpdateBatch::new()).unwrap(), g);
    }

    #[test]
    fn merge_construction_matches_builder_on_random_batches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = crate::fixtures::random_labeled(60, 200, 3, 4, seed);
            let mut edges: BTreeSet<(u32, u32, u32)> =
                g.edges().into_iter().map(|e| (e.u, e.v, e.label)).collect();
            let mut labels: Vec<u32> = (0..g.n_vertices() as u32).map(|v| g.vlabel(v)).collect();
            let mut batch = UpdateBatch::new();
            for _ in 0..30 {
                let roll = rng.random_range(0..10);
                if roll == 0 {
                    let l = rng.random_range(0..3);
                    batch.add_vertex(l);
                    labels.push(l);
                } else if roll < 4 && !edges.is_empty() {
                    let idx = rng.random_range(0..edges.len());
                    let &(u, v, l) = edges.iter().nth(idx).unwrap();
                    batch.remove_edge(u, v, l);
                    edges.remove(&(u, v, l));
                } else {
                    for _ in 0..8 {
                        let u = rng.random_range(0..labels.len() as u32);
                        let v = rng.random_range(0..labels.len() as u32);
                        let l = rng.random_range(0..4);
                        let key = (u.min(v), u.max(v), l);
                        if u != v && !edges.contains(&key) {
                            batch.insert_edge(u, v, l);
                            edges.insert(key);
                            break;
                        }
                    }
                }
            }
            let merged = g.apply_updates(&batch).expect("valid batch");

            // Cold builder construction of the same final graph.
            let mut b = GraphBuilder::new();
            for &l in &labels {
                b.add_vertex(l);
            }
            for &(u, v, l) in &edges {
                b.add_edge(u, v, l);
            }
            assert_eq!(merged, b.build(), "seed {seed}");
        }
    }
}
