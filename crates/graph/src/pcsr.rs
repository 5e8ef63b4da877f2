//! PCSR — Partitioned Compressed Sparse Row (§IV, Definition 4, Algorithm 1).
//!
//! The paper's GPU-friendly storage structure for one edge label-partitioned
//! graph `P(G, l)`. The row-offset layer of CSR is reorganized into an array
//! of hash **groups**: each group holds up to `GPN` pairs, where a pair is
//! `(vertex id, offset of its neighbors in the column index)` except the last
//! pair, which is the `(GID, END)` overflow flag. With `GPN = 16` a group is
//! exactly 32 words = 128 bytes, so **one warp reads an entire group in a
//! single memory transaction** and probes its pairs concurrently in shared
//! memory — giving expected `O(1)` `N(v, l)` location with `O(|E|)` space
//! (Table II).
//!
//! Overflow: if more than `GPN − 1` vertices hash to a group, the spill goes
//! to an empty group and the origin's `GID` chains to it. Claim 1 proves
//! enough empty groups always exist; [`Pcsr::build`] implements the proof's
//! construction and asserts it.
//!
//! **Dynamic updates.** The hash-group layout is exactly what makes PCSR
//! updatable without a full rebuild: an edge mutation between two vertices
//! already present in a layer leaves the group assignment — hash buckets,
//! overflow chains, probe lengths — untouched, so [`Pcsr::splice_batch`]
//! only re-threads the column index and the offset words, reproducing the
//! *bit-identical canonical layout* a cold [`Pcsr::build`] of the mutated
//! partition would emit (lookups therefore charge identical transactions).
//! Mutations that change the present-vertex set change the group count and
//! hash modulus (and can create or retire overflow chains), so they trigger
//! a local layer rebuild instead. [`MultiPcsr`] applies this per label
//! layer with copy-on-write sharing and keeps a delta log of what each
//! batch did — see [`MultiPcsr::apply_updates`].

use crate::partition::{partition_for_label, LabelPartition};
use crate::storage::{LabeledStore, Neighbors, StorageKind};
use crate::types::{EdgeLabel, VertexId, INVALID_VERTEX};
use crate::update::UpdateBatch;
use gsi_gpu_sim::Gpu;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Marker for "no overflow group" (the paper's `GID = -1`).
const NO_GID: u32 = u32::MAX;

/// Default pairs per group: 16 pairs = 128 bytes = one memory transaction.
pub const DEFAULT_GPN: usize = 16;

/// Most recent [`StoreUpdateReport`]s a [`MultiPcsr`] retains in its delta
/// log; older entries are dropped when new batches apply.
pub const DELTA_LOG_CAP: usize = 64;

/// A splice could not preserve the canonical layout: the mutation changes
/// the layer's present-vertex set (new/retired keys shift the hash modulus
/// and can move overflow chains), or the layer has drifted from the logical
/// graph. The caller falls back to a local rebuild of this one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedsRebuild;

/// PCSR for a single edge label partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcsr {
    label: EdgeLabel,
    gpn: usize,
    n_groups: usize,
    /// Flattened groups: `n_groups × (2·gpn)` words. Within a group, words
    /// `[2j, 2j+1]` hold pair `j`'s `(key, offset)`; the final pair holds
    /// `(GID, END)`.
    groups: Vec<u32>,
    /// Column index: all neighbor lists, contiguous in group/slot order.
    ci: Vec<VertexId>,
    /// Longest probe chain over all present vertices (diagnostics; the
    /// paper's bound is `1 + 5·log|V|/log log|V|` keys ⇒ ≤ 3 groups).
    max_chain: usize,
    /// Number of groups that overflowed during the build.
    overflowed: usize,
}

/// The one-to-one hash `f` of Algorithm 1 line 2: Fibonacci multiplicative
/// hashing, chosen for avalanche on dense vertex ids.
#[inline]
fn hash_to_group(v: VertexId, n_groups: usize) -> usize {
    ((u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n_groups as u64) as usize
}

impl Pcsr {
    /// Build PCSR for a label partition with the default group size.
    pub fn build(partition: &LabelPartition) -> Self {
        Self::build_with_gpn(partition, DEFAULT_GPN)
    }

    /// Build with an explicit `GPN ∈ [2, 16]` (the paper's admissible range;
    /// §IV "Parameter Setting").
    pub fn build_with_gpn(partition: &LabelPartition, gpn: usize) -> Self {
        assert!((2..=16).contains(&gpn), "GPN must be within [2, 16]");
        let keys_per_group = gpn - 1;
        let n_v = partition.n_vertices();
        let n_groups = n_v.max(1);

        // Algorithm 1 lines 3-4: hash every present vertex to a home group.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (i, &v) in partition.vertices.iter().enumerate() {
            buckets[hash_to_group(v, n_groups)].push(i);
        }

        // Lines 5-8: resolve overflow into empty groups, chaining GIDs.
        // `assignment[g]` = the partition-vertex indices stored in group g;
        // `gid[g]` = overflow successor.
        let mut empties: Vec<usize> = (0..n_groups)
            .filter(|&gidx| buckets[gidx].is_empty())
            .rev()
            .collect();
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut gid: Vec<u32> = vec![NO_GID; n_groups];
        let mut overflowed = 0usize;
        for g in 0..n_groups {
            if buckets[g].is_empty() {
                continue;
            }
            let keys = std::mem::take(&mut buckets[g]);
            if keys.len() <= keys_per_group {
                assignment[g] = keys;
                continue;
            }
            overflowed += 1;
            // More keys than one group holds, so the split is in range.
            let (home, overflow) = keys.split_at(keys_per_group);
            assignment[g] = home.to_vec();
            let mut prev = g;
            for chunk in overflow.chunks(keys_per_group) {
                // Claim 1: an empty group is always available.
                let target = empties
                    .pop()
                    // gsi-lint: allow(panic-freedom, reason = "Claim 1: there is one group per vertex and every used group holds at least one vertex, so an empty group always remains for an overflow chunk; a violation is a construction bug, not an input error")
                    .expect("Claim 1 violated: no empty group for overflow");
                assignment[target] = chunk.to_vec();
                gid[prev] = target as u32;
                prev = target;
            }
        }

        // Lines 9-13: lay out the column index in group/slot order and
        // record offsets.
        let mut groups = vec![INVALID_VERTEX; n_groups * 2 * gpn];
        let mut ci = Vec::with_capacity(partition.n_entries());
        for g in 0..n_groups {
            let base = g * 2 * gpn;
            for (slot, &pi) in assignment[g].iter().enumerate() {
                groups[base + 2 * slot] = partition.vertices[pi];
                groups[base + 2 * slot + 1] = ci.len() as u32;
                ci.extend_from_slice(partition.neighbor_slice(pi));
            }
            groups[base + 2 * (gpn - 1)] = gid[g];
            groups[base + 2 * (gpn - 1) + 1] = ci.len() as u32; // END
        }

        // Diagnostics: longest probe chain among present vertices.
        let mut this = Self {
            label: partition.label,
            gpn,
            n_groups,
            groups,
            ci,
            max_chain: 0,
            overflowed,
        };
        let max_chain = partition
            .vertices
            .iter()
            .map(|&v| this.chain_length(v))
            .max()
            .unwrap_or(0);
        this.max_chain = max_chain;
        this
    }

    /// The label this partition carries.
    pub fn label(&self) -> EdgeLabel {
        self.label
    }

    /// Configured pairs per group.
    pub fn gpn(&self) -> usize {
        self.gpn
    }

    /// Number of hash groups (= `|V(D)|`, one-to-one hashing).
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Longest probe chain over present vertices.
    pub fn max_chain(&self) -> usize {
        self.max_chain
    }

    /// Number of groups that overflowed at build time.
    pub fn overflowed_groups(&self) -> usize {
        self.overflowed
    }

    /// Words occupied by one group.
    #[inline]
    fn group_words(&self) -> usize {
        2 * self.gpn
    }

    /// Walk `v`'s probe chain, invoking `on_group` with each probed group's
    /// index, and return the located `ci` span if present.
    fn walk(&self, v: VertexId, mut on_group: impl FnMut(usize)) -> Option<(usize, usize)> {
        let mut idx = hash_to_group(v, self.n_groups);
        loop {
            on_group(idx);
            let base = idx * self.group_words();
            let mut found = None;
            for slot in 0..self.gpn - 1 {
                let key = self.groups[base + 2 * slot];
                if key == INVALID_VERTEX {
                    break;
                }
                if key == v {
                    let start = self.groups[base + 2 * slot + 1] as usize;
                    let next_slot_key = if slot + 1 < self.gpn - 1 {
                        self.groups[base + 2 * (slot + 1)]
                    } else {
                        INVALID_VERTEX
                    };
                    let end = if next_slot_key != INVALID_VERTEX {
                        self.groups[base + 2 * (slot + 1) + 1] as usize
                    } else {
                        // Last real pair: ends at the group's END flag.
                        self.groups[base + 2 * (self.gpn - 1) + 1] as usize
                    };
                    found = Some((start, end));
                    break;
                }
            }
            if let Some(span) = found {
                return Some(span);
            }
            let gid = self.groups[base + 2 * (self.gpn - 1)];
            if gid == NO_GID {
                return None;
            }
            idx = gid as usize;
        }
    }

    /// Number of groups a lookup of `v` probes.
    pub fn chain_length(&self, v: VertexId) -> usize {
        let mut probes = 0;
        self.walk(v, |_| probes += 1);
        probes
    }

    /// Locate `v`'s neighbor span, charging one whole-group read per probed
    /// group — steps 1-4 of the paper's lookup walkthrough. With `GPN = 16` a
    /// group is 128 bytes and aligned, so each probe is exactly one
    /// transaction; smaller GPN values are charged by their true span.
    fn locate(&self, gpu: &Gpu, v: VertexId) -> Option<(usize, usize)> {
        let stats = gpu.stats();
        let words = self.group_words();
        self.walk(v, |idx| {
            stats.gld_range(idx * words, words, 4);
            stats.add_work(self.gpn as u64);
        })
    }

    /// Host-side `N(v, l)` (ground truth / tests; no charges).
    pub fn neighbors_host(&self, v: VertexId) -> &[VertexId] {
        match self.walk(v, |_| {}) {
            Some((s, e)) => &self.ci[s..e],
            None => &[],
        }
    }

    /// Simulated global-memory footprint in bytes.
    pub fn space_bytes(&self) -> usize {
        4 * (self.groups.len() + self.ci.len())
    }

    /// Extract `N(v, l)` with device accounting.
    pub fn neighbors(&self, gpu: &Gpu, v: VertexId) -> Neighbors<'_> {
        match self.locate(gpu, v) {
            Some((s, e)) => Neighbors {
                list: Cow::Borrowed(&self.ci[s..e]),
                in_global: true,
                ci_offset: s,
            },
            None => Neighbors::empty(),
        }
    }

    /// `|N(v, l)|` with device accounting (locate cost only).
    pub fn neighbor_count(&self, gpu: &Gpu, v: VertexId) -> usize {
        self.locate(gpu, v).map_or(0, |(s, e)| e - s)
    }

    /// Apply a batch of edge mutations *in place*, preserving the canonical
    /// layout: afterwards the structure is bit-identical to a cold
    /// [`Pcsr::build`] of the mutated partition.
    ///
    /// `ops` are `(insert?, u, v)` undirected edge mutations in application
    /// order (both directions are spliced). The group assignment is frozen —
    /// only the column index and the offset words are re-threaded — so the
    /// splice is legal only while the present-vertex set is unchanged:
    ///
    /// * inserting an edge whose endpoint has no edge in this layer yet, or
    /// * removing a vertex's last edge in this layer
    ///
    /// would change the group count, the hash modulus, and potentially the
    /// overflow chains; those return [`NeedsRebuild`] *before any mutation*
    /// and the caller rebuilds this layer from its partition. A duplicate
    /// insert or a missing removal (a drifted delta log) is refused the same
    /// way rather than corrupting the layout.
    pub fn splice_batch(&mut self, ops: &[(bool, VertexId, VertexId)]) -> Result<(), NeedsRebuild> {
        let gw = self.group_words();

        // Decode the frozen layout: per group, the occupied slots' keys and
        // owned neighbor lists, plus a key → (group, slot) index.
        let mut lists: Vec<Vec<(VertexId, Vec<VertexId>)>> = Vec::with_capacity(self.n_groups);
        let mut index: HashMap<VertexId, (usize, usize)> = HashMap::new();
        for g in 0..self.n_groups {
            let base = g * gw;
            let end_flag = self.groups[base + 2 * (self.gpn - 1) + 1] as usize;
            let mut slots = Vec::new();
            for slot in 0..self.gpn - 1 {
                let key = self.groups[base + 2 * slot];
                if key == INVALID_VERTEX {
                    break;
                }
                let start = self.groups[base + 2 * slot + 1] as usize;
                let end = if slot + 1 < self.gpn - 1
                    && self.groups[base + 2 * (slot + 1)] != INVALID_VERTEX
                {
                    self.groups[base + 2 * (slot + 1) + 1] as usize
                } else {
                    end_flag
                };
                index.insert(key, (g, slots.len()));
                slots.push((key, self.ci[start..end].to_vec()));
            }
            lists.push(slots);
        }

        // Apply every op on the decoded lists; abort (leaving `self`
        // untouched) on any presence change or drift.
        for &(insert, u, v) in ops {
            for (a, b) in [(u, v), (v, u)] {
                let Some(&(g, p)) = index.get(&a) else {
                    return Err(NeedsRebuild);
                };
                let list = &mut lists[g][p].1;
                match (list.binary_search(&b), insert) {
                    (Err(i), true) => list.insert(i, b),
                    (Ok(_), false) if list.len() == 1 => return Err(NeedsRebuild),
                    (Ok(i), false) => {
                        list.remove(i);
                    }
                    // Duplicate insert / missing removal: drifted input.
                    _ => return Err(NeedsRebuild),
                }
            }
        }

        // Re-emit offsets and the column index exactly like Algorithm 1
        // lines 9-13, with the assignment frozen: group/slot order, END =
        // cursor after each group's content.
        let mut ci = Vec::with_capacity(self.ci.len());
        for (g, slots) in lists.iter().enumerate() {
            let base = g * gw;
            for (slot, (key, list)) in slots.iter().enumerate() {
                debug_assert_eq!(self.groups[base + 2 * slot], *key);
                self.groups[base + 2 * slot + 1] = ci.len() as u32;
                ci.extend_from_slice(list);
            }
            self.groups[base + 2 * (self.gpn - 1) + 1] = ci.len() as u32;
        }
        self.ci = ci;
        // max_chain / overflowed are untouched: the assignment is frozen.
        Ok(())
    }
}

/// What [`MultiPcsr::apply_updates`] did to one label layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerAction {
    /// The layer absorbed its edge ops in place: group assignment frozen,
    /// column index and offsets re-threaded, untouched bytes shared.
    Spliced {
        /// Edge ops spliced into the layer.
        ops: usize,
    },
    /// The mutation changed the layer's present-vertex set (or would have
    /// changed its overflow chains), so the one layer was rebuilt from its
    /// partition — a *local* rebuild; every other layer is reused.
    Rebuilt {
        /// Edge ops that forced the rebuild.
        ops: usize,
    },
    /// The label did not exist before this batch; a fresh layer was built.
    Created,
    /// The batch removed the label's last edge; the layer was retired.
    Dropped,
}

/// Per-batch record in the [`MultiPcsr`] delta log: what happened to each
/// touched label layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreUpdateReport {
    /// `(label, action)` for every touched layer, sorted by label.
    pub actions: Vec<(EdgeLabel, LayerAction)>,
}

impl StoreUpdateReport {
    /// Layers updated in place.
    pub fn spliced(&self) -> usize {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, LayerAction::Spliced { .. }))
            .count()
    }

    /// Layers rebuilt (including created and dropped ones).
    pub fn rebuilt(&self) -> usize {
        self.actions.len() - self.spliced()
    }
}

/// PCSR over every edge label of a graph — the multi-layer store the engine
/// serves queries from, with per-layer copy-on-write updates.
///
/// Layers live behind [`Arc`]s: [`MultiPcsr::apply_updates`] returns a new
/// store that *shares every untouched label layer* with its parent, so an
/// epoch-versioned catalog can keep old and new store versions alive
/// side-by-side at the cost of the touched layers only. A delta log records
/// what each applied batch did ([`StoreUpdateReport`]).
#[derive(Debug, Clone)]
pub struct MultiPcsr {
    gpn: usize,
    layers: Vec<Arc<Pcsr>>,
    /// Delta log: one entry per recent batch, newest last (bounded by
    /// [`DELTA_LOG_CAP`] so a long-running serving loop doesn't accumulate
    /// history in every published store version).
    log: Vec<StoreUpdateReport>,
}

impl MultiPcsr {
    /// Build one PCSR per distinct edge label with the default group size.
    pub fn build(g: &crate::graph::Graph) -> Self {
        Self::build_with_gpn(g, DEFAULT_GPN)
    }

    /// Build with an explicit `GPN`.
    pub fn build_with_gpn(g: &crate::graph::Graph, gpn: usize) -> Self {
        let layers = crate::partition::partition_by_label(g)
            .iter()
            .map(|p| Arc::new(Pcsr::build_with_gpn(p, gpn)))
            .collect();
        Self {
            gpn,
            layers,
            log: Vec::new(),
        }
    }

    /// The per-label layers, sorted by label.
    pub fn layers(&self) -> &[Arc<Pcsr>] {
        &self.layers
    }

    /// The configured group size.
    pub fn gpn(&self) -> usize {
        self.gpn
    }

    /// The delta log: one report per recently applied batch, newest last
    /// (at most [`DELTA_LOG_CAP`] entries are retained).
    pub fn update_log(&self) -> &[StoreUpdateReport] {
        &self.log
    }

    fn layer(&self, l: EdgeLabel) -> Option<&Pcsr> {
        self.layers
            .binary_search_by_key(&l, |p| p.label())
            .ok()
            .map(|i| &*self.layers[i])
    }

    /// Longest probe chain over all layers.
    pub fn max_chain(&self) -> usize {
        self.layers.iter().map(|p| p.max_chain()).max().unwrap_or(0)
    }

    /// Absorb an [`UpdateBatch`] and return the updated store plus the
    /// report appended to its delta log.
    ///
    /// `updated` must be the graph *after* the batch (the output of
    /// [`crate::graph::Graph::apply_updates`]); it is consulted only for
    /// layers that need rebuilding. Per touched label, the cheap path is a
    /// canonical [`Pcsr::splice_batch`] on a copy of that one layer; when
    /// the splice would change the layer's present-vertex set (and hence
    /// its group count or overflow chains), that layer alone is rebuilt.
    /// Untouched layers are shared with `self` by reference — the
    /// copy-on-write property epoch-versioned serving relies on.
    ///
    /// The result is observation-equivalent — in fact bit-identical, layer
    /// by layer — to `MultiPcsr::build_with_gpn(updated, self.gpn())`.
    pub fn apply_updates(
        &self,
        updated: &crate::graph::Graph,
        batch: &UpdateBatch,
    ) -> (MultiPcsr, StoreUpdateReport) {
        let mut layers = self.layers.clone();
        let mut actions = Vec::new();
        for label in batch.touched_labels() {
            let ops = batch.edge_ops_for_label(label);
            match layers.binary_search_by_key(&label, |p| p.label()) {
                Ok(i) => {
                    let mut patched = (*layers[i]).clone();
                    match patched.splice_batch(&ops) {
                        Ok(()) => {
                            layers[i] = Arc::new(patched);
                            actions.push((label, LayerAction::Spliced { ops: ops.len() }));
                        }
                        Err(NeedsRebuild) => {
                            let part = partition_for_label(updated, label);
                            if part.n_vertices() == 0 {
                                layers.remove(i);
                                actions.push((label, LayerAction::Dropped));
                            } else {
                                layers[i] = Arc::new(Pcsr::build_with_gpn(&part, self.gpn));
                                actions.push((label, LayerAction::Rebuilt { ops: ops.len() }));
                            }
                        }
                    }
                }
                Err(i) => {
                    let part = partition_for_label(updated, label);
                    // An empty partition here means the batch inserted and
                    // removed the label's edges within itself; no layer.
                    if part.n_vertices() > 0 {
                        layers.insert(i, Arc::new(Pcsr::build_with_gpn(&part, self.gpn)));
                        actions.push((label, LayerAction::Created));
                    }
                }
            }
        }
        let report = StoreUpdateReport { actions };
        let start = self.log.len().saturating_sub(DELTA_LOG_CAP - 1);
        let mut log = self.log[start..].to_vec();
        log.push(report.clone());
        (
            MultiPcsr {
                gpn: self.gpn,
                layers,
                log,
            },
            report,
        )
    }

    /// How many layers `other` shares with `self` by reference (diagnostic
    /// for the copy-on-write property).
    pub fn shared_layers_with(&self, other: &MultiPcsr) -> usize {
        self.layers
            .iter()
            .filter(|a| other.layers.iter().any(|b| Arc::ptr_eq(a, b)))
            .count()
    }
}

impl LabeledStore for MultiPcsr {
    fn kind(&self) -> StorageKind {
        StorageKind::Pcsr
    }

    fn neighbors_with_label(&self, gpu: &Gpu, v: VertexId, l: EdgeLabel) -> Neighbors<'_> {
        match self.layer(l) {
            Some(p) => p.neighbors(gpu, v),
            None => Neighbors::empty(),
        }
    }

    fn neighbor_count(&self, gpu: &Gpu, v: VertexId, l: EdgeLabel) -> usize {
        self.layer(l).map_or(0, |p| p.neighbor_count(gpu, v))
    }

    fn space_bytes(&self) -> usize {
        self.layers.iter().map(|p| p.space_bytes()).sum()
    }

    fn as_pcsr(&self) -> Option<&MultiPcsr> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_data, random_labeled};
    use crate::partition::partition_by_label;
    use gsi_gpu_sim::DeviceConfig;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    #[test]
    fn matches_ground_truth_on_paper_example() {
        let g = paper_example_data();
        let store = MultiPcsr::build(&g);
        let gpu = gpu();
        for v in 0..g.n_vertices() as u32 {
            for l in [0, 1] {
                let truth: Vec<_> = g.neighbors_with_label(v, l).collect();
                let got = store.neighbors_with_label(&gpu, v, l);
                assert_eq!(&*got.list, truth.as_slice(), "v={v} l={l}");
                assert_eq!(store.neighbor_count(&gpu, v, l), truth.len());
            }
        }
    }

    #[test]
    fn matches_ground_truth_random_all_gpn() {
        for gpn in [2, 3, 4, 8, 16] {
            let g = random_labeled(300, 900, 4, 7, 1234 + gpn as u64);
            let store = MultiPcsr::build_with_gpn(&g, gpn);
            let gpu = gpu();
            for v in 0..g.n_vertices() as u32 {
                for l in 0..7 {
                    let truth: Vec<_> = g.neighbors_with_label(v, l).collect();
                    let got = store.neighbors_with_label(&gpu, v, l);
                    assert_eq!(&*got.list, truth.as_slice(), "gpn={gpn} v={v} l={l}");
                }
            }
        }
    }

    #[test]
    fn gpn16_locate_is_one_transaction_without_overflow() {
        let g = paper_example_data();
        let parts = partition_by_label(&g);
        let pcsr = Pcsr::build(&parts[0]);
        assert_eq!(pcsr.overflowed_groups(), 0);
        assert_eq!(pcsr.max_chain(), 1);
        let gpu = gpu();
        gpu.reset_stats();
        let n = pcsr.neighbors(&gpu, 0);
        assert_eq!(n.len(), 100);
        assert_eq!(gpu.stats().snapshot().gld_transactions, 1);
    }

    #[test]
    fn small_gpn_forces_overflow_and_stays_correct() {
        // 100 vertices all hashed into few groups with gpn=2 (1 key/group)
        // must overflow heavily and still answer correctly.
        let g = random_labeled(100, 300, 2, 1, 99);
        let parts = partition_by_label(&g);
        let pcsr = Pcsr::build_with_gpn(&parts[0], 2);
        for v in 0..g.n_vertices() as u32 {
            let truth: Vec<_> = g.neighbors_with_label(v, 0).collect();
            assert_eq!(pcsr.neighbors_host(v), truth.as_slice(), "v={v}");
        }
        // With 1 key per group and |V(D)| groups, chains must exist.
        assert!(pcsr.max_chain() >= 1);
    }

    #[test]
    fn chain_bound_matches_paper_analysis() {
        // One-to-one hashing: expected longest conflict list ≤ 1 + 5log|V|/loglog|V|;
        // with GPN=16 this means at most ⌈45/15⌉ = 3 probed groups for
        // realistic sizes. Verify on a moderately large partition.
        let g = random_labeled(20_000, 60_000, 2, 1, 7);
        let parts = partition_by_label(&g);
        let pcsr = Pcsr::build(&parts[0]);
        assert!(
            pcsr.max_chain() <= 3,
            "chain {} exceeds paper bound",
            pcsr.max_chain()
        );
    }

    #[test]
    fn absent_vertices_terminate() {
        let g = paper_example_data();
        let parts = partition_by_label(&g);
        let pcsr = Pcsr::build(&parts[1]); // b-partition: only v0, v201
        let gpu = gpu();
        for v in [1u32, 2, 3, 100, 150] {
            assert!(pcsr.neighbors(&gpu, v).is_empty(), "v={v}");
            assert_eq!(pcsr.neighbor_count(&gpu, v), 0);
        }
    }

    #[test]
    fn space_matches_layout() {
        let g = paper_example_data();
        let parts = partition_by_label(&g);
        let pcsr = Pcsr::build(&parts[0]);
        // groups: |V(D)| × 128B; ci: 600 entries × 4B.
        let expected = parts[0].n_vertices() * 128 + 600 * 4;
        assert_eq!(pcsr.space_bytes(), expected);
    }

    #[test]
    fn store_total_space_is_edge_linear() {
        let g = random_labeled(500, 2000, 4, 10, 5);
        let store = MultiPcsr::build(&g);
        // O(|E|) with the 32B/vertex constant: far below BR on many labels.
        let bound = 128 * 2 * g.n_edges() + 8 * g.n_edges();
        assert!(store.space_bytes() <= bound);
    }

    #[test]
    #[should_panic(expected = "GPN must be within")]
    fn rejects_bad_gpn() {
        let g = paper_example_data();
        let parts = partition_by_label(&g);
        let _ = Pcsr::build_with_gpn(&parts[0], 17);
    }

    #[test]
    fn splice_insert_remove_matches_cold_build() {
        // Mutate edges between already-present vertices: the splice must
        // reproduce the cold build of the mutated partition bit for bit.
        let g = random_labeled(120, 500, 2, 1, 3);
        let parts = partition_by_label(&g);
        let mut pcsr = Pcsr::build(&parts[0]);

        // Pick two present vertices with no edge between them, and one
        // existing edge whose endpoints both keep another neighbor.
        let (u, v) = {
            let vs = &parts[0].vertices;
            let mut found = None;
            'outer: for &a in vs {
                for &b in vs {
                    if a != b && !pcsr.neighbors_host(a).contains(&b) {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.expect("non-adjacent present pair")
        };
        let (ru, rv) = {
            let vs = &parts[0].vertices;
            let mut found = None;
            'outer: for &a in vs {
                if pcsr.neighbors_host(a).len() < 2 {
                    continue;
                }
                for &b in pcsr.neighbors_host(a) {
                    if b != u && b != v && pcsr.neighbors_host(b).len() >= 2 {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.expect("removable edge")
        };

        pcsr.splice_batch(&[(true, u, v), (false, ru, rv)])
            .expect("both ops are presence-preserving");

        // Cold build of the mutated graph's partition.
        let mut batch = crate::update::UpdateBatch::new();
        batch.insert_edge(u, v, 0).remove_edge(ru, rv, 0);
        let g2 = g.apply_updates(&batch).expect("valid");
        let cold = Pcsr::build(&partition_by_label(&g2)[0]);
        assert_eq!(pcsr, cold, "spliced layer must be bit-identical");
    }

    #[test]
    fn splice_refuses_presence_changes() {
        let g = paper_example_data();
        let parts = partition_by_label(&g);
        // b-partition holds exactly v0 –b– v201: removing it empties both.
        let mut pcsr = Pcsr::build(&parts[1]);
        assert_eq!(pcsr.splice_batch(&[(false, 0, 201)]), Err(NeedsRebuild));
        // Inserting an edge to a vertex absent from the layer also refuses.
        assert_eq!(pcsr.splice_batch(&[(true, 0, 5)]), Err(NeedsRebuild));
        // Drift: re-inserting an existing edge, removing a missing one.
        assert_eq!(pcsr.splice_batch(&[(true, 0, 201)]), Err(NeedsRebuild));
        let mut a = Pcsr::build(&parts[0]);
        assert_eq!(a.splice_batch(&[(false, 1, 2)]), Err(NeedsRebuild));
    }

    #[test]
    fn store_updates_share_untouched_layers() {
        let g = random_labeled(150, 600, 3, 6, 17);
        let store = MultiPcsr::build(&g);
        let n_layers = store.layers().len();
        assert!(n_layers >= 4, "want several label layers");

        // Mutate one label only: every other layer must be shared by Arc.
        let l = store.layers()[0].label();
        let (u, v) = {
            let mut found = None;
            'outer: for u in 0..g.n_vertices() as u32 {
                if g.neighbors_with_label(u, l).next().is_none() {
                    continue;
                }
                for v in 0..g.n_vertices() as u32 {
                    if u != v
                        && g.neighbors_with_label(v, l).next().is_some()
                        && !g.has_edge(u, v, l)
                    {
                        found = Some((u, v));
                        break 'outer;
                    }
                }
            }
            found.expect("insertable pair")
        };
        let mut batch = crate::update::UpdateBatch::new();
        batch.insert_edge(u, v, l);
        let g2 = g.apply_updates(&batch).expect("valid");
        let (updated, report) = store.apply_updates(&g2, &batch);

        assert_eq!(report.actions.len(), 1);
        assert_eq!(report.spliced() + report.rebuilt(), 1);
        assert_eq!(store.shared_layers_with(&updated), n_layers - 1);
        assert_eq!(updated.update_log().len(), 1);

        // Layer-by-layer bit-identical to a cold build of the mutated graph.
        let cold = MultiPcsr::build(&g2);
        assert_eq!(updated.layers().len(), cold.layers().len());
        for (a, b) in updated.layers().iter().zip(cold.layers()) {
            assert_eq!(**a, **b, "label {}", a.label());
        }
    }

    #[test]
    fn store_updates_create_and_drop_layers() {
        let mut b = crate::builder::GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(2);
        b.add_edge(v0, v1, 0);
        b.add_edge(v1, v2, 1);
        let g = b.build();
        let store = MultiPcsr::build(&g);
        assert_eq!(store.layers().len(), 2);

        // Drop label 1's only edge, create label 7.
        let mut batch = crate::update::UpdateBatch::new();
        batch.remove_edge(v1, v2, 1).insert_edge(v0, v2, 7);
        let g2 = g.apply_updates(&batch).expect("valid");
        let (updated, report) = store.apply_updates(&g2, &batch);
        assert_eq!(
            report.actions,
            vec![(1, LayerAction::Dropped), (7, LayerAction::Created),]
        );
        let cold = MultiPcsr::build(&g2);
        assert_eq!(updated.layers().len(), cold.layers().len());
        for (a, b) in updated.layers().iter().zip(cold.layers()) {
            assert_eq!(**a, **b, "label {}", a.label());
        }
    }

    #[test]
    fn end_flag_is_consistent() {
        // Every group's END equals the ci position where its last real
        // pair's neighbors end (Definition 4).
        let g = random_labeled(200, 800, 3, 4, 21);
        for p in partition_by_label(&g) {
            let pcsr = Pcsr::build(&p);
            let total: usize = (0..pcsr.n_groups)
                .map(|gi| {
                    let base = gi * pcsr.group_words();
                    pcsr.groups[base + 2 * (pcsr.gpn - 1) + 1] as usize
                })
                .max()
                .unwrap_or(0);
            assert_eq!(total, pcsr.ci.len());
        }
    }
}
