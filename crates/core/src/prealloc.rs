//! The Prealloc-Combine join iteration (Algorithms 3 & 4).
//!
//! Per iteration: pick the first edge `e0` by minimum label frequency,
//! bound every row's output by `|N(v'_i, l0)|`, prefix-sum those bounds into
//! GBA offsets, allocate the **combined** buffer once, run each linking-edge
//! kernel exactly once (results written straight into the GBA), then link.
//! The device is charged for the `gba_len`-word GBA; the host keeps only
//! each pass's actual outputs, in one compact buffer.

use crate::join::{
    count_pass, finalize_iteration, order_linking_edges, run_edge_pass, JoinCtx, JoinOverflow,
    PassKind,
};
use crate::plan::JoinStep;
use crate::set_ops::CandidateProbe;
use crate::table::MatchTable;
use gsi_gpu_sim::scan::{exclusive_prefix_sum, scan_total};
use gsi_graph::EdgeLabel;
use gsi_signature::CandidateSet;

/// Charge this iteration's output-buffer allocation. Combined: "it is
/// better to combine all buffers into a big array and assign consecutive
/// memory space (GBA)" — one `gba_len`-word request plus the offset array
/// F. The ablation instead requests one buffer per row plus an 8-byte
/// pointer array (§V's space argument).
fn charge_buffer_alloc(ctx: &JoinCtx<'_>, gba_len: usize, counts: &[usize]) {
    let stats = ctx.gpu.stats();
    if ctx.cfg.combined_alloc {
        stats.record_alloc(4 * gba_len as u64);
        stats.record_alloc(4 * counts.len() as u64); // offset array F
    } else {
        for &c in counts {
            stats.record_alloc(4 * c as u64);
        }
        stats.record_alloc(8 * counts.len() as u64);
    }
}

/// Algorithm 4's bound: count `|N(v'_i, l0)|` for every row, prefix-sum
/// the counts into GBA offsets, and charge the output-buffer allocation.
/// Returns the counts and every row's GBA base.
fn allocate_gba(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    col0: usize,
    l0: EdgeLabel,
) -> (Vec<usize>, Vec<usize>) {
    let counts = count_pass(ctx, m, col0, l0);
    let counts_u32: Vec<u32> = counts.iter().map(|&c| c as u32).collect();
    let offsets = exclusive_prefix_sum(ctx.gpu, &counts_u32);
    charge_buffer_alloc(ctx, scan_total(&offsets), &counts);
    let out_bases = offsets[..m.n_rows()].iter().map(|&o| o as usize).collect();
    (counts, out_bases)
}

/// Join `m` with `C(u)` along the linking edges of `step`; returns the new
/// table `M'`.
pub(crate) fn join_iteration(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    step: &JoinStep,
    cand: &CandidateSet,
) -> Result<MatchTable, JoinOverflow> {
    let edges = order_linking_edges(ctx, &step.linking);
    let probe = CandidateProbe::build(ctx.gpu, ctx.cfg.set_ops, ctx.data.n_vertices(), cand);
    let (col0, l0) = edges[0];

    // Algorithm 4: per-row upper bounds and the GBA offsets.
    let (counts, out_bases) = allocate_gba(ctx, m, col0, l0);

    // First edge: buf = (N(v', l0) \ m_i) ∩ C(u).
    let mut bufs = run_edge_pass(
        ctx,
        m,
        col0,
        l0,
        &PassKind::FirstEdge { cand: &probe },
        Some(&out_bases),
        &counts,
    );

    // Remaining linking edges: in-place intersections against the GBA.
    for &(col, label) in &edges[1..] {
        let loads = bufs.row_lens();
        bufs = run_edge_pass(
            ctx,
            m,
            col,
            label,
            &PassKind::Intersect {
                bufs: &bufs,
                buf_bases: Some(&out_bases),
            },
            Some(&out_bases),
            &loads,
        );
    }

    finalize_iteration(ctx, m, &bufs, Some(&out_bases))
}
