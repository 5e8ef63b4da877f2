//! GPU-friendly set operations (§V) and the naive baseline.
//!
//! Every join iteration reduces to two primitives executed per warp:
//!
//! * **first-edge op** — `buf = (N(v', l0) \ m_i) ∩ C(u)` (Algorithm 3
//!   lines 10-11, fused: "Lines 10 and 11 can be combined together. After
//!   subtraction, the check in Line 11 is performed on the fly.")
//! * **intersect op** — `buf = buf ∩ N(v', l)` (line 13).
//!
//! The three granularities get three treatments (§V):
//! * the *small* partial match `m_i` is cached in shared memory for the
//!   whole subtraction (GPU-friendly) or re-read from global memory per
//!   batch (naive);
//! * *medium* neighbor lists are streamed in 128-byte batches;
//! * the *large* candidate set is probed through a bitset — exactly one
//!   transaction per membership check (GPU-friendly) or binary-searched as
//!   a sorted list, `⌈log₂|C|⌉` transactions per check (naive).
//!
//! # Host kernels: scalar reference vs vectorized
//!
//! Each primitive has two host implementations selected by
//! [`SetOpKernels`]. The **scalar** reference is the original branchy
//! element-at-a-time loop; the **vectorized** kernels compute the same
//! result with chunked, branch-light loops — a block-wise two-pointer merge
//! for comparable cardinalities, a galloping (exponential-search)
//! intersection when one side is ≥ `GALLOP_RATIO`× larger, and a
//! sorted-probe row filter replacing the linear `row.contains` scan —
//! and charge the device ledger in bulk. The charging formulas are exact
//! closed forms of what the scalar loops emit (the ledger's counters are
//! order-independent sums), so both arms are **bit-identical** in outputs
//! *and* counters; `tests/setops_differential.rs` fuzzes that contract.

use crate::config::{SetOpKernels, SetOpStrategy};
use crate::write_cache::WriteCache;
use gsi_gpu_sim::{DeviceBitset, DeviceVec, Gpu};
use gsi_graph::storage::Neighbors;
use gsi_graph::VertexId;
use gsi_signature::CandidateSet;
use std::ops::Range;
use std::sync::Arc;

/// Cardinality ratio at which the vectorized intersect switches from the
/// block-wise merge to galloping over the smaller side.
const GALLOP_RATIO: usize = 16;

/// Fixed inner-loop width of the vectorized kernels (one 128-byte
/// transaction of 4-byte elements — the same block the device streams).
const MERGE_BLOCK: usize = 32;

/// The candidate set `C(u)` in probeable device form.
#[derive(Debug)]
pub enum CandidateProbe {
    /// GPU-friendly: a bitset over the data-vertex id space.
    Bitset(DeviceBitset),
    /// Naive: the sorted candidate list, binary-searched per probe.
    Sorted(DeviceVec<VertexId>),
}

impl CandidateProbe {
    /// Build the probe structure for the strategy, charging the build cost.
    pub fn build(
        gpu: &Gpu,
        strategy: SetOpStrategy,
        n_data_vertices: usize,
        cand: &CandidateSet,
    ) -> Self {
        match strategy {
            SetOpStrategy::GpuFriendly => Self::Bitset(DeviceBitset::from_members(
                gpu,
                n_data_vertices.max(1),
                &cand.list,
            )),
            // The filter layer shares candidate lists through an Arc; the
            // device image shares it too instead of cloning per build.
            SetOpStrategy::Naive => {
                Self::Sorted(DeviceVec::from_shared(gpu, Arc::clone(&cand.list)))
            }
        }
    }

    /// Membership test with faithful transaction charging.
    pub fn probe(&self, gpu: &Gpu, v: VertexId) -> bool {
        match self {
            CandidateProbe::Bitset(bs) => bs.probe_one(gpu, v),
            CandidateProbe::Sorted(list) => {
                let xs = list.as_slice();
                let mut lo = 0usize;
                let mut hi = xs.len();
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    gpu.stats().gld_gather([mid], 4);
                    match xs[mid].cmp(&v) {
                        std::cmp::Ordering::Equal => return true,
                        std::cmp::Ordering::Less => lo = mid + 1,
                        std::cmp::Ordering::Greater => hi = mid,
                    }
                }
                false
            }
        }
    }
}

/// Execution parameters shared by the primitives.
#[derive(Debug, Clone, Copy)]
pub struct SetOpExec {
    /// Strategy (naive vs GPU-friendly).
    pub strategy: SetOpStrategy,
    /// Whether the 128-byte write cache batches output stores.
    pub write_cache: bool,
    /// Host kernel implementation (identical device charges either way).
    pub kernels: SetOpKernels,
}

impl SetOpExec {
    /// Stream a neighbor list range in 128-byte batches, charging loads when
    /// `charge` and the data is still in global memory.
    fn stream<'n>(
        gpu: &Gpu,
        nbrs: &'n Neighbors<'n>,
        range: Range<usize>,
        charge: bool,
        mut f: impl FnMut(&[VertexId]),
    ) {
        let list: &[VertexId] = &nbrs.list[range.clone()];
        if list.is_empty() {
            return;
        }
        let elems = gpu.config().transaction_bytes / 4;
        let stats = gpu.stats();
        if nbrs.in_global && charge {
            let mut idx = 0;
            while idx < list.len() {
                let abs = nbrs.ci_offset + range.start + idx;
                let seg_end = (abs / elems + 1) * elems;
                let take = (seg_end - abs).min(list.len() - idx);
                stats.gld_range(abs, take, 4);
                stats.add_work(take as u64);
                f(&list[idx..idx + take]);
                idx += take;
            }
        } else {
            for chunk in list.chunks(elems) {
                stats.add_work(chunk.len() as u64);
                f(chunk);
            }
        }
    }

    /// Bulk-charge exactly what [`SetOpExec::stream`] charges for this range
    /// and return the number of batches it would deliver (the naive row
    /// re-read fires once per batch). The per-batch `gld_range` calls are
    /// consecutive segment-aligned spans, so their transaction sum equals
    /// one `gld_range` over the whole range.
    fn charge_stream(gpu: &Gpu, nbrs: &Neighbors<'_>, range: Range<usize>, charge: bool) -> usize {
        let len = range.len();
        if len == 0 {
            return 0;
        }
        let stats = gpu.stats();
        stats.add_work(len as u64);
        if nbrs.in_global && charge {
            let abs = nbrs.ci_offset + range.start;
            stats.gld_range(abs, len, 4) as usize
        } else {
            let elems = gpu.config().transaction_bytes / 4;
            len.div_ceil(elems)
        }
    }

    /// Charge the naive strategy's re-read of the partial-match row from
    /// global memory: one row load per streamed batch (the naive kernel
    /// has no shared-memory copy to hit).
    fn charge_row_reread(gpu: &Gpu, reread: Option<(usize, usize)>, batches: usize) {
        if let Some((off, len)) = reread {
            for _ in 0..batches {
                gpu.stats().gld_range(off, len, 4);
            }
        }
    }

    /// Bulk-charge `probes` single-word global loads. The vectorized
    /// kernels aggregate their data-dependent probe transactions into one
    /// ledger add that equals the scalar kernel's per-element charges.
    fn charge_probe_loads(gpu: &Gpu, probes: u64) {
        gpu.stats().add_gld(probes);
    }

    /// Charge streaming `len` elements of the running buffer chunk:
    /// global loads when the buffer lives in device memory (GBA / edge
    /// buffer), plus the chunk's work units either way.
    fn charge_buffer_stream(gpu: &Gpu, buf_base: Option<usize>, start: usize, len: usize) {
        if let Some(base) = buf_base {
            gpu.stats().gld_range(base + start, len, 4);
        }
        gpu.stats().add_work(len as u64);
    }

    /// The fused first-edge operation: `(nbrs[chunk] \ row) ∩ cand`,
    /// appended to `out` (the pass's compact buffer; the write cache
    /// charges only what this call appends).
    ///
    /// * `row` — the partial match `m_i` (subtraction enforces injectivity).
    /// * `naive_row_reread` — when the strategy is naive, `Some((offset,
    ///   len))` of the row in the M table: each streamed batch re-reads the
    ///   row from global memory instead of using the shared-memory copy.
    /// * `out_base` — destination offset for store accounting (`None` ⇒
    ///   count-only pass).
    /// * `charge_n` — `false` when duplicate removal shares another warp's
    ///   input buffer (Algorithm 5).
    /// * `chunk` — load-balance sub-range of the neighbor list (`None` ⇒
    ///   whole list).
    #[allow(clippy::too_many_arguments)]
    pub fn first_edge(
        &self,
        gpu: &Gpu,
        nbrs: &Neighbors<'_>,
        row: &[VertexId],
        cand: &CandidateProbe,
        naive_row_reread: Option<(usize, usize)>,
        out_base: Option<usize>,
        charge_n: bool,
        chunk: Option<Range<usize>>,
        out: &mut Vec<VertexId>,
    ) {
        let range = chunk.unwrap_or(0..nbrs.len());
        match self.kernels {
            SetOpKernels::Scalar => {
                // Scalar reference: element-at-a-time, charges issued in stream
                // order. Kept verbatim as the differential-testing oracle.
                let mut cache = WriteCache::new(gpu, self.write_cache, out_base);
                Self::stream(gpu, nbrs, range, charge_n, |batch| {
                    if self.strategy == SetOpStrategy::Naive {
                        // Naive: the partial match is not cached in shared
                        // memory; re-read it for this batch.
                        Self::charge_row_reread(gpu, naive_row_reread, 1);
                    }
                    for &v in batch {
                        if row.contains(&v) {
                            continue;
                        }
                        if cand.probe(gpu, v) {
                            out.push(v);
                            cache.push();
                        }
                    }
                });
                cache.finish();
            }
            SetOpKernels::Vectorized => {
                // Vectorized: sorted-probe row filter, block-wise candidate
                // filter, bulk ledger charges. Bit-identical to the scalar
                // reference in both outputs and counters.
                let list: &[VertexId] = &nbrs.list[range.clone()];
                if list.is_empty() {
                    return;
                }
                let n_batches = Self::charge_stream(gpu, nbrs, range, charge_n);
                if self.strategy == SetOpStrategy::Naive {
                    Self::charge_row_reread(gpu, naive_row_reread, n_batches);
                }

                // Sorted-probe row filter: sort the (tiny) partial match once per
                // task, then binary-probe instead of linear-scanning per element.
                let mut srow: Vec<VertexId> = row.to_vec();
                srow.sort_unstable();

                let before = out.len();
                match cand {
                    CandidateProbe::Bitset(bs) => {
                        // Branch-light block filter over the host bitset image; the
                        // scalar kernel's probes cost exactly one transaction per
                        // surviving-subtraction element, charged here in one bulk add.
                        let mut probes = 0u64;
                        for block in list.chunks(MERGE_BLOCK) {
                            for &v in block {
                                if srow.binary_search(&v).is_ok() {
                                    continue;
                                }
                                probes += 1;
                                if bs.contains_host(v) {
                                    out.push(v);
                                }
                            }
                        }
                        Self::charge_probe_loads(gpu, probes);
                    }
                    CandidateProbe::Sorted(_) => {
                        // Sorted-list probes are data-dependent binary searches;
                        // issue them per element exactly as the scalar kernel does.
                        for &v in list {
                            if srow.binary_search(&v).is_err() && cand.probe(gpu, v) {
                                out.push(v);
                            }
                        }
                    }
                }

                let mut cache = WriteCache::new(gpu, self.write_cache, out_base);
                cache.push_many(out.len() - before);
                cache.finish();
            }
        }
    }

    /// The intersect operation: `buf[chunk] ∩ nbrs`, both sides sorted,
    /// appended to `out`.
    ///
    /// * `buf_base` — `Some(offset)` when the running buffer lives in global
    ///   memory (GBA / a two-step edge buffer): streaming it charges loads.
    /// * For a load-balance `chunk`, the relevant `nbrs` sub-range is found
    ///   with two binary searches (charged) before linear streaming.
    #[allow(clippy::too_many_arguments)]
    pub fn intersect(
        &self,
        gpu: &Gpu,
        buf: &[VertexId],
        buf_base: Option<usize>,
        nbrs: &Neighbors<'_>,
        out_base: Option<usize>,
        charge_n: bool,
        chunk: Option<Range<usize>>,
        out: &mut Vec<VertexId>,
    ) {
        let brange = chunk.unwrap_or(0..buf.len());
        let bslice = &buf[brange.clone()];
        if bslice.is_empty() || nbrs.is_empty() {
            // Still a (cheap) kernel-side no-op; charge nothing extra.
            return;
        }

        // Locate the neighbor sub-range overlapping this chunk's values.
        // Only a *proper* sub-range (a load-balance chunk) pays the two
        // binary searches; a whole-row task is a plain merge.
        let is_proper_chunk = brange != (0..buf.len());
        let chunk_bounds = if is_proper_chunk {
            bslice.first().zip(bslice.last())
        } else {
            None
        };
        let (n_lo, n_hi) = if let Some((&bfirst, &blast)) = chunk_bounds {
            let list: &[VertexId] = &nbrs.list;
            let lo = list.partition_point(|&x| x < bfirst);
            let hi = list.partition_point(|&x| x <= blast);
            if nbrs.in_global && charge_n {
                // Two binary searches over the global list.
                let probes = 2 * (usize::BITS - (list.len() as u32).leading_zeros()) as u64;
                Self::charge_probe_loads(gpu, probes);
            }
            (lo, hi)
        } else {
            (0, nbrs.len())
        };

        // Charge the buffer-side stream.
        Self::charge_buffer_stream(gpu, buf_base, brange.start, bslice.len());

        match self.kernels {
            SetOpKernels::Scalar => {
                // Scalar reference: stream the neighbor side and two-pointer
                // merge element-at-a-time.
                let mut cache = WriteCache::new(gpu, self.write_cache, out_base);
                let mut bi = 0usize;
                Self::stream(gpu, nbrs, n_lo..n_hi, charge_n, |batch| {
                    for &nv in batch {
                        while bi < bslice.len() && bslice[bi] < nv {
                            bi += 1;
                        }
                        if bi < bslice.len() && bslice[bi] == nv {
                            out.push(nv);
                            cache.push();
                            bi += 1;
                        }
                    }
                });
                cache.finish();
            }
            SetOpKernels::Vectorized => {
                Self::charge_stream(gpu, nbrs, n_lo..n_hi, charge_n);
                let nslice: &[VertexId] = &nbrs.list[n_lo..n_hi];
                let before = out.len();
                intersect_kernel(bslice, nslice, out);
                let mut cache = WriteCache::new(gpu, self.write_cache, out_base);
                cache.push_many(out.len() - before);
                cache.finish();
            }
        }
    }
}

/// Vectorized sorted-intersection: galloping when the cardinalities are
/// skewed by ≥ [`GALLOP_RATIO`], block-wise two-pointer merge otherwise.
/// Appends the min-multiplicity multiset intersection in sorted order to
/// `out` — exactly the scalar merge's output.
fn intersect_kernel(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / small.len().max(1) >= GALLOP_RATIO {
        gallop_intersect(small, large, out)
    } else {
        block_merge_intersect(a, b, out)
    }
}

/// Two-pointer merge in fixed [`MERGE_BLOCK`]-wide inner blocks with
/// arithmetic (branch-light) pointer advancement.
fn block_merge_intersect(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < a.len() && bi < b.len() {
        let a_end = (ai + MERGE_BLOCK).min(a.len());
        let b_end = (bi + MERGE_BLOCK).min(b.len());
        while ai < a_end && bi < b_end {
            let av = a[ai];
            let bv = b[bi];
            if av == bv {
                out.push(av);
            }
            ai += (av <= bv) as usize;
            bi += (bv <= av) as usize;
        }
    }
}

/// Gallop the pointer into `large` for each element of `small`: exponential
/// probe then a bracketed binary search — `O(|small| · log(gap))`.
fn gallop_intersect(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    let mut p = 0usize;
    for &sv in small {
        p = gallop_lower_bound(large, p, sv);
        if p < large.len() && large[p] == sv {
            out.push(sv);
            p += 1;
        }
    }
}

/// First index `>= from` at which `xs[i] >= target` (like
/// `partition_point`, but starting the exponential probe at `from`).
fn gallop_lower_bound(xs: &[VertexId], from: usize, target: VertexId) -> usize {
    if from >= xs.len() || xs[from] >= target {
        return from;
    }
    let mut step = 1usize;
    let mut lo = from;
    while lo + step < xs.len() && xs[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(xs.len());
    lo + xs[lo..hi].partition_point(|&x| x < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_gpu_sim::DeviceConfig;
    use std::borrow::Cow;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    fn nbrs_global(list: Vec<u32>, ci_offset: usize) -> Neighbors<'static> {
        Neighbors {
            list: Cow::Owned(list),
            in_global: true,
            ci_offset,
        }
    }

    fn cand_set(list: Vec<u32>) -> CandidateSet {
        CandidateSet {
            query_vertex: 0,
            list: std::sync::Arc::new(list),
        }
    }

    fn exec_k(strategy: SetOpStrategy, write_cache: bool, kernels: SetOpKernels) -> SetOpExec {
        SetOpExec {
            strategy,
            write_cache,
            kernels,
        }
    }

    fn exec(strategy: SetOpStrategy, write_cache: bool) -> SetOpExec {
        exec_k(strategy, write_cache, SetOpKernels::Vectorized)
    }

    #[test]
    fn first_edge_semantics() {
        let g = gpu();
        let n = nbrs_global(vec![1, 2, 3, 4, 5, 6], 0);
        let cand = CandidateProbe::build(
            &g,
            SetOpStrategy::GpuFriendly,
            100,
            &cand_set(vec![2, 3, 5, 9]),
        );
        for kernels in [SetOpKernels::Scalar, SetOpKernels::Vectorized] {
            let e = exec_k(SetOpStrategy::GpuFriendly, true, kernels);
            // row = [3, 7]: 3 removed by subtraction; survivors ∩ C = {2, 5}.
            let mut out = vec![42];
            e.first_edge(&g, &n, &[3, 7], &cand, None, Some(0), true, None, &mut out);
            assert_eq!(out, vec![42, 2, 5], "appends after what the buffer held");
        }
    }

    #[test]
    fn first_edge_chunks_cover_whole_list() {
        let g = gpu();
        let list: Vec<u32> = (0..200).collect();
        let n = nbrs_global(list.clone(), 64);
        let cand = CandidateProbe::build(
            &g,
            SetOpStrategy::GpuFriendly,
            500,
            &cand_set((0..500).step_by(3).collect()),
        );
        let e = exec(SetOpStrategy::GpuFriendly, true);
        let mut whole = Vec::new();
        e.first_edge(&g, &n, &[1], &cand, None, None, true, None, &mut whole);
        let mut parts = Vec::new();
        for lo in (0..200).step_by(64) {
            let hi = (lo + 64).min(200);
            let chunk = Some(lo..hi);
            e.first_edge(&g, &n, &[1], &cand, None, None, true, chunk, &mut parts);
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn intersect_semantics_and_chunking() {
        let g = gpu();
        let n = nbrs_global((0..100).filter(|x| x % 2 == 0).collect(), 0);
        let buf: Vec<u32> = (0..100).filter(|x| x % 3 == 0).collect();
        let e = exec(SetOpStrategy::GpuFriendly, true);
        let mut whole = Vec::new();
        e.intersect(&g, &buf, None, &n, None, true, None, &mut whole);
        let expect: Vec<u32> = (0..100).filter(|x| x % 6 == 0).collect();
        assert_eq!(whole, expect);

        let mut parts = Vec::new();
        for lo in (0..buf.len()).step_by(10) {
            let hi = (lo + 10).min(buf.len());
            e.intersect(&g, &buf, None, &n, None, true, Some(lo..hi), &mut parts);
        }
        assert_eq!(parts, expect);
    }

    #[test]
    fn gallop_path_matches_merge_path() {
        // |buf| = 4 vs |nbrs| = 1000: ratio forces galloping; a same-content
        // comparable-cardinality call goes through the block merge.
        let nbr_list: Vec<u32> = (0..2000).step_by(2).collect();
        let buf = vec![10u32, 500, 501, 1998];
        let n = nbrs_global(nbr_list.clone(), 0);
        let g = gpu();
        let e = exec(SetOpStrategy::GpuFriendly, true);
        let mut out = Vec::new();
        e.intersect(&g, &buf, None, &n, None, true, None, &mut out);
        assert_eq!(out, vec![10, 500, 1998]);
        out.clear();
        intersect_kernel(&buf, &nbr_list, &mut out);
        assert_eq!(out, vec![10, 500, 1998]);
        out.clear();
        block_merge_intersect(&buf, &nbr_list, &mut out);
        assert_eq!(out, vec![10, 500, 1998]);
    }

    #[test]
    fn gallop_lower_bound_is_partition_point_from_offset() {
        let xs: Vec<u32> = vec![1, 3, 3, 5, 9, 9, 9, 14, 20];
        for from in 0..xs.len() {
            for target in [0u32, 1, 2, 3, 9, 10, 14, 21] {
                let got = gallop_lower_bound(&xs, from, target);
                let want = from + xs[from..].partition_point(|&x| x < target);
                assert_eq!(got, want, "from={from} target={target}");
            }
        }
    }

    #[test]
    fn duplicate_heavy_inputs_keep_min_multiplicity() {
        // The scalar merge emits min(multiplicity) per value; the vectorized
        // kernels must match on both the merge and gallop paths.
        let a = vec![5u32, 5, 7, 7, 7, 9];
        let b = vec![5u32, 5, 5, 7, 9, 9];
        let run = |f: fn(&[u32], &[u32], &mut Vec<u32>), x: &[u32], y: &[u32]| {
            let mut out = Vec::new();
            f(x, y, &mut out);
            out
        };
        assert_eq!(run(block_merge_intersect, &a, &b), vec![5, 5, 7, 9]);
        assert_eq!(run(gallop_intersect, &a, &b), vec![5, 5, 7, 9]);
        assert_eq!(run(gallop_intersect, &b, &a), vec![5, 5, 7, 9]);
    }

    #[test]
    fn scalar_and_vectorized_agree_bit_for_bit_with_equal_charges() {
        // In-module smoke version of tests/setops_differential.rs: every
        // (strategy, cache, chunking) cell must agree in outputs and exact
        // device counters across the two kernel arms.
        let densities: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], (0..50).collect()),
            ((0..50).collect(), vec![]),
            (
                (0..50).map(|x| x * 2).collect(),
                (0..50).map(|x| x * 2 + 1).collect(),
            ),
            ((0..200).collect(), (50..60).collect()),
            ((0..64).collect(), (0..64).collect()),
            (vec![3, 3, 3, 9, 9], vec![3, 3, 9, 9, 9, 11]),
        ];
        for (nbr_list, other) in densities {
            for strategy in [SetOpStrategy::Naive, SetOpStrategy::GpuFriendly] {
                for cache in [false, true] {
                    for chunked in [false, true] {
                        let fe_chunk = chunked.then(|| 0..nbr_list.len().min(7));
                        let ix_chunk = chunked.then(|| 0..other.len().min(7));
                        let run = |kernels: SetOpKernels| {
                            let g = gpu();
                            let cand =
                                CandidateProbe::build(&g, strategy, 256, &cand_set(other.clone()));
                            g.reset_stats();
                            let e = exec_k(strategy, cache, kernels);
                            let n = nbrs_global(nbr_list.clone(), 32);
                            let (mut fe, mut ix) = (Vec::new(), Vec::new());
                            e.first_edge(
                                &g,
                                &n,
                                &[1, 9],
                                &cand,
                                Some((0, 2)),
                                Some(16),
                                true,
                                fe_chunk.clone(),
                                &mut fe,
                            );
                            e.intersect(
                                &g,
                                &other,
                                Some(8),
                                &n,
                                Some(0),
                                true,
                                ix_chunk.clone(),
                                &mut ix,
                            );
                            (fe, ix, g.stats().snapshot())
                        };
                        let (fe_s, ix_s, snap_s) = run(SetOpKernels::Scalar);
                        let (fe_v, ix_v, snap_v) = run(SetOpKernels::Vectorized);
                        assert_eq!(fe_s, fe_v, "{strategy:?} cache={cache} chunked={chunked}");
                        assert_eq!(ix_s, ix_v, "{strategy:?} cache={cache} chunked={chunked}");
                        assert_eq!(
                            snap_s, snap_v,
                            "{strategy:?} cache={cache} chunked={chunked}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bitset_probe_is_cheaper_than_sorted_probe() {
        let g1 = gpu();
        let members: Vec<u32> = (0..10_000).step_by(7).collect();
        let bs = CandidateProbe::build(
            &g1,
            SetOpStrategy::GpuFriendly,
            10_000,
            &cand_set(members.clone()),
        );
        g1.reset_stats();
        assert!(bs.probe(&g1, 7));
        assert_eq!(g1.stats().snapshot().gld_transactions, 1);

        let g2 = gpu();
        let sorted = CandidateProbe::build(&g2, SetOpStrategy::Naive, 10_000, &cand_set(members));
        g2.reset_stats();
        assert!(sorted.probe(&g2, 7));
        assert!(
            g2.stats().snapshot().gld_transactions >= 9,
            "binary search over ~1429 entries should probe ≥9 words"
        );
    }

    #[test]
    fn naive_probe_shares_the_candidate_list_allocation() {
        let g = gpu();
        let cand = cand_set((0..100).collect());
        let probe = CandidateProbe::build(&g, SetOpStrategy::Naive, 100, &cand);
        let CandidateProbe::Sorted(list) = &probe else {
            panic!("naive builds a sorted-list probe");
        };
        assert_eq!(
            list.as_slice().as_ptr(),
            cand.list.as_ptr(),
            "the device image must share the Arc'd list, not copy it"
        );
        let snap = g.stats().snapshot();
        assert_eq!(snap.device_allocs, 1, "still pays the device allocation");
        assert_eq!(snap.device_alloc_bytes, 400);
    }

    #[test]
    fn naive_rereads_row_per_batch() {
        let g = gpu();
        let list: Vec<u32> = (0..96).collect(); // 3 batches of 32
        let n = nbrs_global(list, 0);
        let cand = CandidateProbe::build(&g, SetOpStrategy::Naive, 100, &cand_set(vec![]));
        for kernels in [SetOpKernels::Scalar, SetOpKernels::Vectorized] {
            let e = exec_k(SetOpStrategy::Naive, false, kernels);
            g.reset_stats();
            e.first_edge(
                &g,
                &n,
                &[5],
                &cand,
                Some((0, 4)),
                None,
                true,
                None,
                &mut Vec::new(),
            );
            // 3 stream batches + 3 row re-reads at minimum.
            assert!(g.stats().snapshot().gld_transactions >= 6);
        }
    }

    #[test]
    fn dedup_flag_suppresses_stream_charges() {
        let g = gpu();
        let n = nbrs_global((0..64).collect(), 0);
        let cand = CandidateProbe::build(&g, SetOpStrategy::GpuFriendly, 100, &cand_set(vec![]));
        let e = exec(SetOpStrategy::GpuFriendly, true);
        g.reset_stats();
        e.first_edge(&g, &n, &[], &cand, None, None, false, None, &mut Vec::new());
        // charge_n = false: no stream loads; all transactions must come
        // from candidate probes (64), none from the stream (2 batches
        // suppressed).
        let gld = g.stats().snapshot().gld_transactions;
        assert!(gld <= 64, "gld={gld}");
    }

    #[test]
    fn empty_inputs_yield_empty() {
        let g = gpu();
        let n = nbrs_global(vec![], 0);
        let cand = CandidateProbe::build(&g, SetOpStrategy::GpuFriendly, 10, &cand_set(vec![1]));
        for kernels in [SetOpKernels::Scalar, SetOpKernels::Vectorized] {
            let e = exec_k(SetOpStrategy::GpuFriendly, true, kernels);
            let mut out = Vec::new();
            e.first_edge(&g, &n, &[], &cand, None, None, true, None, &mut out);
            e.intersect(&g, &[], None, &n, None, true, None, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn whole_task_intersect_skips_chunk_binary_search() {
        // Regression: a whole-row task expressed as chunk 0..len must cost
        // exactly what the unchunked call costs — the two binary searches
        // are a load-balance-chunk price only.
        let g = gpu();
        let n = nbrs_global((0..320).collect(), 0);
        let buf: Vec<u32> = (0..320).step_by(2).collect();
        for kernels in [SetOpKernels::Scalar, SetOpKernels::Vectorized] {
            let e = exec_k(SetOpStrategy::GpuFriendly, true, kernels);
            g.reset_stats();
            e.intersect(&g, &buf, None, &n, None, true, None, &mut Vec::new());
            let unchunked = g.stats().snapshot().gld_transactions;
            g.reset_stats();
            e.intersect(
                &g,
                &buf,
                None,
                &n,
                None,
                true,
                Some(0..buf.len()),
                &mut Vec::new(),
            );
            let whole_chunk = g.stats().snapshot().gld_transactions;
            assert_eq!(unchunked, whole_chunk);
            g.reset_stats();
            let half = Some(0..buf.len() / 2);
            e.intersect(&g, &buf, None, &n, None, true, half, &mut Vec::new());
            let proper_chunk = g.stats().snapshot().gld_transactions;
            assert!(
                proper_chunk > 0,
                "a proper chunk pays its locating binary searches"
            );
        }
    }

    #[test]
    fn intersect_charges_buf_reads_when_in_global() {
        let g = gpu();
        let n = nbrs_global((0..32).collect(), 0);
        let buf: Vec<u32> = (0..32).collect();
        let e = exec(SetOpStrategy::GpuFriendly, true);
        g.reset_stats();
        e.intersect(&g, &buf, Some(0), &n, None, true, None, &mut Vec::new());
        let with_base = g.stats().snapshot().gld_transactions;
        g.reset_stats();
        e.intersect(&g, &buf, None, &n, None, true, None, &mut Vec::new());
        let without = g.stats().snapshot().gld_transactions;
        assert_eq!(with_base, without + 1, "buffer stream adds one segment");
    }
}
