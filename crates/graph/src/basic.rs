//! Basic Representation (§IV, Fig. 11(a)): one full-width CSR per edge label.
//!
//! Every label partition keeps a row-offset layer covering the *entire*
//! vertex set, so locating `N(v, l)` is a single O(1) offset read — but the
//! space cost is `O(|E| + |L_E|·|V|)`, which is why the paper rules it out
//! for graphs like DBpedia with tens of thousands of edge labels.

use crate::graph::Graph;
use crate::partition::{partition_by_label, LabelPartition};
use crate::storage::{LabeledStore, Neighbors, StorageKind};
use crate::types::{EdgeLabel, VertexId};
use gsi_gpu_sim::Gpu;
use std::borrow::Cow;

/// One label's layer: a `|V|+1`-wide offset array plus the column index.
#[derive(Debug, Clone)]
struct BasicLayer {
    label: EdgeLabel,
    row_offsets: Vec<u32>,
    column_index: Vec<VertexId>,
}

/// Basic Representation over all edge labels.
#[derive(Debug, Clone)]
pub struct BasicStore {
    layers: Vec<BasicLayer>,
}

impl BasicStore {
    /// Build one layer per distinct edge label.
    pub fn build(g: &Graph) -> Self {
        let n = g.n_vertices();
        let layers = partition_by_label(g)
            .into_iter()
            .map(|p: LabelPartition| {
                let mut row_offsets = Vec::with_capacity(n + 1);
                let mut column_index = Vec::with_capacity(p.n_entries());
                row_offsets.push(0);
                let mut cursor = 0usize; // index into p.vertices
                for v in 0..n as VertexId {
                    if cursor < p.vertices.len() && p.vertices[cursor] == v {
                        column_index.extend_from_slice(p.neighbor_slice(cursor));
                        cursor += 1;
                    }
                    row_offsets.push(column_index.len() as u32);
                }
                BasicLayer {
                    label: p.label,
                    row_offsets,
                    column_index,
                }
            })
            .collect();
        Self { layers }
    }

    fn layer(&self, l: EdgeLabel) -> Option<&BasicLayer> {
        self.layers
            .binary_search_by_key(&l, |layer| layer.label)
            .ok()
            .map(|i| &self.layers[i])
    }

    /// Locate label `l`'s layer and the row bounds of `v` in it, charging
    /// one offset-pair read.
    fn locate(&self, gpu: &Gpu, v: VertexId, l: EdgeLabel) -> Option<(&BasicLayer, usize, usize)> {
        let layer = self.layer(l)?;
        gpu.stats().gld_range(v as usize, 2, 4);
        let s = layer.row_offsets[v as usize] as usize;
        let e = layer.row_offsets[v as usize + 1] as usize;
        Some((layer, s, e))
    }
}

impl LabeledStore for BasicStore {
    fn kind(&self) -> StorageKind {
        StorageKind::Basic
    }

    fn neighbors_with_label(&self, gpu: &Gpu, v: VertexId, l: EdgeLabel) -> Neighbors<'_> {
        match self.locate(gpu, v, l) {
            Some((layer, s, e)) => Neighbors {
                list: Cow::Borrowed(&layer.column_index[s..e]),
                in_global: true,
                ci_offset: s,
            },
            None => Neighbors::empty(),
        }
    }

    fn neighbor_count(&self, gpu: &Gpu, v: VertexId, l: EdgeLabel) -> usize {
        self.locate(gpu, v, l).map_or(0, |(_, s, e)| e - s)
    }

    fn space_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| 4 * (l.row_offsets.len() + l.column_index.len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_data, random_labeled};
    use gsi_gpu_sim::DeviceConfig;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    #[test]
    fn matches_ground_truth() {
        let g = random_labeled(150, 500, 3, 6, 7);
        let store = BasicStore::build(&g);
        let gpu = gpu();
        for v in 0..g.n_vertices() as u32 {
            for l in 0..6 {
                let truth: Vec<_> = g.neighbors_with_label(v, l).collect();
                let got = store.neighbors_with_label(&gpu, v, l);
                assert_eq!(&*got.list, truth.as_slice(), "v={v} l={l}");
                assert_eq!(store.neighbor_count(&gpu, v, l), truth.len());
            }
        }
    }

    #[test]
    fn locate_is_one_transaction() {
        let g = paper_example_data();
        let store = BasicStore::build(&g);
        let gpu = gpu();
        gpu.reset_stats();
        let n = store.neighbors_with_label(&gpu, 0, 0);
        assert_eq!(n.len(), 100);
        // The locate read only — streaming is the consumer's cost.
        assert!(gpu.stats().snapshot().gld_transactions <= 2);
        assert!(n.in_global);
    }

    #[test]
    fn space_includes_v_wide_layers() {
        let g = paper_example_data();
        let store = BasicStore::build(&g);
        // Two labels, each with a (|V|+1)-word offset layer.
        let min_offsets = 2 * 4 * (g.n_vertices() + 1);
        assert!(store.space_bytes() >= min_offsets);
    }

    #[test]
    fn unknown_label_is_empty_and_free() {
        let g = paper_example_data();
        let store = BasicStore::build(&g);
        let gpu = gpu();
        gpu.reset_stats();
        let n = store.neighbors_with_label(&gpu, 0, 99);
        assert!(n.is_empty());
        assert_eq!(store.neighbor_count(&gpu, 0, 99), 0);
    }
}
