//! The filtering phase: candidate-set computation on the simulated GPU.
//!
//! Three strategies, matching Table IV's comparison:
//!
//! * [`filter_signature`] — GSI's encoding-based filter: one warp handles 32
//!   data vertices; the first signature word is compared for label equality,
//!   and survivors stream the remaining words with early exit (§III-A,
//!   §VII-B).
//! * [`filter_label_degree`] — GpSM's pruning: vertex label equality plus a
//!   degree lower bound.
//! * [`filter_label_only`] — GunrockSM's pruning: vertex label equality.

use crate::encode::{encode_vertex, SignatureConfig};
use crate::shared::{FilterCache, FilterDemand};
use crate::table::SignatureTable;
use gsi_gpu_sim::{kernel, DeviceVec, Gpu, WARP_SIZE};
use gsi_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Candidate data vertices for one query vertex, sorted ascending.
///
/// The list is behind an [`Arc`]: the filtering phase is a pure function of
/// the query vertex's label demand, so batched execution shares one list
/// across every query vertex (of any query in the batch) with the same
/// demand instead of recomputing or copying it (see [`crate::shared`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    /// The query vertex these candidates belong to.
    pub query_vertex: VertexId,
    /// Sorted candidate data-vertex ids (shared across equal demands).
    pub list: Arc<Vec<VertexId>>,
}

impl CandidateSet {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether no candidate survived.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Sorted-list membership test (host-side).
    pub fn contains(&self, v: VertexId) -> bool {
        self.list.binary_search(&v).is_ok()
    }
}

/// Smallest candidate-set size across query vertices — the paper's
/// "minimum |C(u)|" quality metric of Tables IV and V.
pub fn min_candidate_size(cands: &[CandidateSet]) -> usize {
    cands.iter().map(|c| c.len()).min().unwrap_or(0)
}

/// Turn a survivor bitmap into sorted candidate lists.
fn bitmap_to_list(bitmap: &[AtomicU32], n: usize) -> Vec<VertexId> {
    let mut out = Vec::new();
    for (w, cell) in bitmap.iter().enumerate() {
        let mut bits = cell.load(Ordering::Relaxed);
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            let v = w * 32 + b;
            if v < n {
                out.push(v as VertexId);
            }
            bits &= bits - 1;
        }
    }
    #[cfg(feature = "debug-invariants")]
    assert_sorted_candidates(&out);
    out
}

/// debug-invariants: candidate lists must hold strictly increasing ids —
/// join-phase binary searches ([`CandidateSet::contains`]) and set
/// intersections silently miss or double-count matches otherwise.
#[cfg(feature = "debug-invariants")]
fn assert_sorted_candidates(list: &[VertexId]) {
    assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "debug-invariants: candidate list is unsorted or contains duplicates"
    );
}

/// Charge the stores that record a warp's surviving candidates into the
/// output bitmap (scattered single-word writes, coalesced by segment).
fn charge_survivor_writes(gpu: &Gpu, survivors: &[usize]) {
    if survivors.is_empty() {
        return;
    }
    gpu.stats()
        .gst_scatter(survivors.iter().map(|&v| v / 32), 4);
}

/// One signature-filter pass for a single demand: scan the entire table
/// with warp-parallel early-exit containment checks against `qwords`.
fn signature_scan(gpu: &Gpu, table: &SignatureTable, qwords: &[u32]) -> Vec<VertexId> {
    let n = table.n_sigs();
    let wps = table.words_per_sig();
    let n_batches = n.div_ceil(WARP_SIZE);
    let batches: Vec<usize> = (0..n_batches).collect();
    let bitmap: Vec<AtomicU32> = (0..n.div_ceil(32)).map(|_| AtomicU32::new(0)).collect();

    kernel::launch_blocks(gpu, &batches, 32, |ctx, block| {
        let gpu = ctx.gpu;
        let mut lanes: Vec<usize> = Vec::with_capacity(WARP_SIZE);
        for &batch in block {
            let base = batch * WARP_SIZE;
            let end = (base + WARP_SIZE).min(n);
            lanes.clear();
            lanes.extend(base..end);

            // First iteration: read word 0 (the raw vertex label)
            // and compare exactly (§VII-B). The batch is contiguous,
            // so the coalesced-range charge path applies.
            table.charge_warp_word_read_range(gpu, 0, base, end - base);
            lanes.retain(|&v| table.word_host(v, 0) == qwords[0]);

            // Remaining words: bitwise containment with early exit.
            for (w, &qw) in qwords.iter().enumerate().take(wps).skip(1) {
                if lanes.is_empty() {
                    break;
                }
                table.charge_warp_word_read(gpu, w, &lanes);
                gpu.stats().add_idle_lanes((WARP_SIZE - lanes.len()) as u64);
                lanes.retain(|&v| table.word_host(v, w) & qw == qw);
            }

            charge_survivor_writes(gpu, &lanes);
            for &v in &lanes {
                bitmap[v / 32].fetch_or(1 << (v % 32), Ordering::Relaxed);
            }
        }
    });

    bitmap_to_list(&bitmap, n)
}

fn filter_signature_impl(
    gpu: &Gpu,
    table: &SignatureTable,
    query: &Graph,
    cfg: &SignatureConfig,
    cache: Option<&FilterCache>,
) -> Vec<CandidateSet> {
    cfg.validate();
    (0..query.n_vertices() as VertexId)
        .map(|u| {
            let qsig = encode_vertex(query, u, cfg);
            let list = match cache {
                Some(cache) => cache
                    .get_or_compute(FilterDemand::Signature(qsig.words().to_vec()), || {
                        signature_scan(gpu, table, qsig.words())
                    }),
                None => Arc::new(signature_scan(gpu, table, qsig.words())),
            };
            CandidateSet {
                query_vertex: u,
                list,
            }
        })
        .collect()
}

/// GSI's signature filter (§III-A): for query vertex `u`, scan the entire
/// signature table with warp-parallel early-exit containment checks.
///
/// Returns one [`CandidateSet`] per query vertex, in query-vertex order.
pub fn filter_signature(
    gpu: &Gpu,
    table: &SignatureTable,
    query: &Graph,
    cfg: &SignatureConfig,
) -> Vec<CandidateSet> {
    filter_signature_impl(gpu, table, query, cfg, None)
}

/// [`filter_signature`] with a [`FilterCache`]: each distinct encoded
/// signature pays exactly one table scan per cache lifetime; repeats —
/// within this query or across the batch sharing `cache` — reuse the
/// cached list by `Arc`. Output is bit-identical to the uncached filter.
pub fn filter_signature_cached(
    gpu: &Gpu,
    table: &SignatureTable,
    query: &Graph,
    cfg: &SignatureConfig,
    cache: &FilterCache,
) -> Vec<CandidateSet> {
    filter_signature_impl(gpu, table, query, cfg, Some(cache))
}

/// Device-resident per-vertex label and degree arrays for the baseline
/// filters (built once per dataset, offline).
#[derive(Debug)]
pub struct FilterInputs {
    vlabels: DeviceVec<u32>,
    degrees: DeviceVec<u32>,
}

impl FilterInputs {
    /// Upload `g`'s label and degree arrays.
    pub fn build(gpu: &Gpu, g: &Graph) -> Self {
        let vlabels = DeviceVec::from_vec(gpu, g.vlabels().to_vec());
        let degrees = DeviceVec::from_vec(
            gpu,
            (0..g.n_vertices() as VertexId)
                .map(|v| g.degree(v) as u32)
                .collect(),
        );
        Self { vlabels, degrees }
    }

    /// Number of data vertices.
    pub fn n(&self) -> usize {
        self.vlabels.len()
    }
}

/// One predicate-filter pass for a single `(label, min degree)` demand.
fn predicate_scan(
    gpu: &Gpu,
    inputs: &FilterInputs,
    ql: u32,
    qd: u32,
    use_degree: bool,
) -> Vec<VertexId> {
    let n = inputs.n();
    let n_batches = n.div_ceil(WARP_SIZE);
    let batches: Vec<usize> = (0..n_batches).collect();
    let bitmap: Vec<AtomicU32> = (0..n.div_ceil(32)).map(|_| AtomicU32::new(0)).collect();

    kernel::launch_blocks(gpu, &batches, 32, |ctx, block| {
        let gpu = ctx.gpu;
        for &batch in block {
            let base = batch * WARP_SIZE;
            let end = (base + WARP_SIZE).min(n);
            // Coalesced label read for the warp.
            let labels = inputs.vlabels.warp_read(gpu, base, end - base);
            let mut lanes: Vec<usize> = (base..end).filter(|&v| labels[v - base] == ql).collect();
            if use_degree && !lanes.is_empty() {
                // Degree read only for surviving lanes.
                gpu.stats().gld_gather(lanes.iter().copied(), 4);
                lanes.retain(|&v| inputs.degrees.as_slice()[v] >= qd);
            }
            gpu.stats().add_work((end - base) as u64);
            charge_survivor_writes(gpu, &lanes);
            for &v in &lanes {
                bitmap[v / 32].fetch_or(1 << (v % 32), Ordering::Relaxed);
            }
        }
    });

    bitmap_to_list(&bitmap, n)
}

fn filter_by_predicate(
    gpu: &Gpu,
    inputs: &FilterInputs,
    query: &Graph,
    use_degree: bool,
    cache: Option<&FilterCache>,
) -> Vec<CandidateSet> {
    (0..query.n_vertices() as VertexId)
        .map(|u| {
            let ql = query.vlabel(u);
            let qd = query.degree(u) as u32;
            let list = match cache {
                Some(cache) => {
                    let demand = if use_degree {
                        FilterDemand::LabelDegree {
                            label: ql,
                            min_degree: qd,
                        }
                    } else {
                        FilterDemand::Label(ql)
                    };
                    cache.get_or_compute(demand, || predicate_scan(gpu, inputs, ql, qd, use_degree))
                }
                None => Arc::new(predicate_scan(gpu, inputs, ql, qd, use_degree)),
            };
            CandidateSet {
                query_vertex: u,
                list,
            }
        })
        .collect()
}

/// GpSM's filter: label equality plus a degree lower bound.
pub fn filter_label_degree(gpu: &Gpu, inputs: &FilterInputs, query: &Graph) -> Vec<CandidateSet> {
    filter_by_predicate(gpu, inputs, query, true, None)
}

/// GunrockSM's filter: label equality only.
pub fn filter_label_only(gpu: &Gpu, inputs: &FilterInputs, query: &Graph) -> Vec<CandidateSet> {
    filter_by_predicate(gpu, inputs, query, false, None)
}

/// [`filter_label_degree`] sharing passes through a [`FilterCache`].
pub fn filter_label_degree_cached(
    gpu: &Gpu,
    inputs: &FilterInputs,
    query: &Graph,
    cache: &FilterCache,
) -> Vec<CandidateSet> {
    filter_by_predicate(gpu, inputs, query, true, Some(cache))
}

/// [`filter_label_only`] sharing passes through a [`FilterCache`].
pub fn filter_label_only_cached(
    gpu: &Gpu,
    inputs: &FilterInputs,
    query: &Graph,
    cache: &FilterCache,
) -> Vec<CandidateSet> {
    filter_by_predicate(gpu, inputs, query, false, Some(cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Layout;
    use gsi_gpu_sim::DeviceConfig;
    use gsi_graph::generate::{barabasi_albert, LabelModel};
    use gsi_graph::query_gen::random_walk_query;
    use gsi_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    fn data_graph(seed: u64) -> Graph {
        let model = LabelModel::zipf(5, 5, 0.8);
        barabasi_albert(300, 3, &model, &mut StdRng::seed_from_u64(seed))
    }

    /// Brute-force ground truth: v matches u if labels equal and for every
    /// (edge label, neighbor label) pair multiset requirement of u, v has at
    /// least as many.
    fn exact_candidates(g: &Graph, q: &Graph, u: VertexId) -> Vec<VertexId> {
        use std::collections::HashMap;
        let mut need: HashMap<(u32, u32), usize> = HashMap::new();
        for &(nbr, el) in q.neighbors(u) {
            *need.entry((el, q.vlabel(nbr))).or_insert(0) += 1;
        }
        (0..g.n_vertices() as VertexId)
            .filter(|&v| {
                if g.vlabel(v) != q.vlabel(u) {
                    return false;
                }
                let mut have: HashMap<(u32, u32), usize> = HashMap::new();
                for &(nbr, el) in g.neighbors(v) {
                    *have.entry((el, g.vlabel(nbr))).or_insert(0) += 1;
                }
                need.iter()
                    .all(|(k, &n)| have.get(k).copied().unwrap_or(0) >= n)
            })
            .collect()
    }

    #[test]
    fn signature_filter_is_sound() {
        // Every exact candidate must survive the signature filter
        // (hash groups can only over-approximate).
        let g = data_graph(1);
        let q = random_walk_query(&g, 5, &mut StdRng::seed_from_u64(2)).unwrap();
        let cfg = SignatureConfig::default();
        let gpu = gpu();
        let table = SignatureTable::build(&gpu, &g, &cfg, Layout::ColumnFirst);
        let cands = filter_signature(&gpu, &table, &q, &cfg);
        for u in 0..q.n_vertices() as u32 {
            let exact = exact_candidates(&g, &q, u);
            for v in exact {
                assert!(
                    cands[u as usize].contains(v),
                    "sound filter must keep v={v} for u={u}"
                );
            }
        }
    }

    #[test]
    fn signature_filter_prunes_more_than_label_filters() {
        let g = data_graph(3);
        let q = random_walk_query(&g, 6, &mut StdRng::seed_from_u64(4)).unwrap();
        let cfg = SignatureConfig::default();
        let gpu = gpu();
        let table = SignatureTable::build(&gpu, &g, &cfg, Layout::ColumnFirst);
        let inputs = FilterInputs::build(&gpu, &g);
        let sig = filter_signature(&gpu, &table, &q, &cfg);
        let ld = filter_label_degree(&gpu, &inputs, &q);
        let lo = filter_label_only(&gpu, &inputs, &q);
        // Pointwise: signature ⊆ label+degree ⊆ label-only.
        for u in 0..q.n_vertices() as usize {
            assert!(sig[u].len() <= ld[u].len(), "u={u}");
            assert!(ld[u].len() <= lo[u].len(), "u={u}");
            for &v in sig[u].list.iter() {
                assert!(lo[u].contains(v));
            }
        }
        assert!(min_candidate_size(&sig) <= min_candidate_size(&ld));
    }

    #[test]
    fn label_degree_filter_matches_definition() {
        let g = data_graph(7);
        let q = random_walk_query(&g, 4, &mut StdRng::seed_from_u64(8)).unwrap();
        let gpu = gpu();
        let inputs = FilterInputs::build(&gpu, &g);
        let got = filter_label_degree(&gpu, &inputs, &q);
        for u in 0..q.n_vertices() as u32 {
            let expect: Vec<u32> = (0..g.n_vertices() as u32)
                .filter(|&v| g.vlabel(v) == q.vlabel(u) && g.degree(v) >= q.degree(u))
                .collect();
            assert_eq!(*got[u as usize].list, expect);
        }
    }

    #[test]
    fn larger_n_strengthens_pruning_in_aggregate() {
        // Table V: growing N improves pruning. A single query can fluctuate
        // (different N remaps every hash group), so assert the aggregate
        // trend over a batch of queries, as the paper's averages do.
        let g = data_graph(11);
        let mut rng = StdRng::seed_from_u64(12);
        let queries: Vec<Graph> = (0..10)
            .map(|_| random_walk_query(&g, 6, &mut rng).unwrap())
            .collect();
        let gpu = gpu();
        let total_for = |n: usize| -> usize {
            let cfg = SignatureConfig::with_n(n);
            let table = SignatureTable::build(&gpu, &g, &cfg, Layout::ColumnFirst);
            queries
                .iter()
                .map(|q| {
                    filter_signature(&gpu, &table, q, &cfg)
                        .iter()
                        .map(|c| c.len())
                        .sum::<usize>()
                })
                .sum()
        };
        let small = total_for(64);
        let large = total_for(512);
        assert!(
            large <= small,
            "N=512 should prune at least as hard in aggregate: {large} vs {small}"
        );
    }

    #[test]
    fn column_first_costs_fewer_transactions_than_row_first() {
        let g = data_graph(13);
        let q = random_walk_query(&g, 4, &mut StdRng::seed_from_u64(14)).unwrap();
        let cfg = SignatureConfig::default();
        let gpu1 = gpu();
        let col = SignatureTable::build(&gpu1, &g, &cfg, Layout::ColumnFirst);
        gpu1.reset_stats();
        let c1 = filter_signature(&gpu1, &col, &q, &cfg);
        let col_gld = gpu1.stats().snapshot().gld_transactions;

        let gpu2 = gpu();
        let row = SignatureTable::build(&gpu2, &g, &cfg, Layout::RowFirst);
        gpu2.reset_stats();
        let c2 = filter_signature(&gpu2, &row, &q, &cfg);
        let row_gld = gpu2.stats().snapshot().gld_transactions;

        assert_eq!(c1, c2, "layout must not change results");
        assert!(
            col_gld < row_gld,
            "coalesced layout should cost less: {col_gld} vs {row_gld}"
        );
    }

    #[test]
    fn empty_candidates_for_impossible_label() {
        let g = data_graph(15);
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(999); // label absent from data
        let u1 = qb.add_vertex(0);
        qb.add_edge(u0, u1, 0);
        let q = qb.build();
        let cfg = SignatureConfig::default();
        let gpu = gpu();
        let table = SignatureTable::build(&gpu, &g, &cfg, Layout::ColumnFirst);
        let cands = filter_signature(&gpu, &table, &q, &cfg);
        assert!(cands[0].is_empty());
        assert_eq!(min_candidate_size(&cands), 0);
    }

    #[test]
    fn cached_filter_is_bit_identical_and_charges_each_demand_once() {
        let g = data_graph(21);
        let cfg = SignatureConfig::default();
        let gpu1 = gpu();
        let table1 = SignatureTable::build(&gpu1, &g, &cfg, Layout::ColumnFirst);
        let q = random_walk_query(&g, 5, &mut StdRng::seed_from_u64(22)).unwrap();

        // Uncached reference, twice back to back: 2x the device cost.
        gpu1.reset_stats();
        let solo = filter_signature(&gpu1, &table1, &q, &cfg);
        let solo_gld = gpu1.stats().snapshot().gld_transactions;
        let again = filter_signature(&gpu1, &table1, &q, &cfg);
        assert_eq!(solo, again);

        // Cached, same two queries through one cache: identical lists, and
        // the second pass reuses every demand instead of re-scanning.
        let gpu2 = gpu();
        let table2 = SignatureTable::build(&gpu2, &g, &cfg, Layout::ColumnFirst);
        let cache = crate::shared::FilterCache::new();
        gpu2.reset_stats();
        let first = filter_signature_cached(&gpu2, &table2, &q, &cfg, &cache);
        let after_first = gpu2.stats().snapshot().gld_transactions;
        let second = filter_signature_cached(&gpu2, &table2, &q, &cfg, &cache);
        let after_second = gpu2.stats().snapshot().gld_transactions;

        for (a, b) in solo.iter().zip(&first) {
            assert_eq!(a.query_vertex, b.query_vertex);
            assert_eq!(a.list, b.list, "cached output must be bit-identical");
        }
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.list, &b.list), "repeat shares the Arc");
        }
        assert!(after_first <= solo_gld, "dedup can only reduce device work");
        assert_eq!(after_second, after_first, "reuse charges nothing");
        assert_eq!(cache.demands_reused(), q.n_vertices() as u64);
    }

    #[test]
    fn candidate_lists_are_sorted_unique() {
        let g = data_graph(17);
        let q = random_walk_query(&g, 5, &mut StdRng::seed_from_u64(18)).unwrap();
        let cfg = SignatureConfig::default();
        let gpu = gpu();
        let table = SignatureTable::build(&gpu, &g, &cfg, Layout::ColumnFirst);
        for c in filter_signature(&gpu, &table, &q, &cfg) {
            assert!(c.list.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "debug-invariants: candidate list is unsorted")]
    fn sanitizer_catches_unsorted_candidates() {
        assert_sorted_candidates(&[3, 1, 2]);
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "debug-invariants: candidate list is unsorted")]
    fn sanitizer_catches_duplicate_candidates() {
        assert_sorted_candidates(&[1, 2, 2, 3]);
    }
}
