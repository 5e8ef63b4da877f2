//! The two-step output scheme (Example 1, §V "Problem of Parallelism") —
//! the join-output strategy of GpSM and GunrockSM, used by the GSI- baseline
//! of Table VI.
//!
//! Because output sizes are unknown up front, every linking-edge kernel runs
//! **twice**: a first pass performs the full join work only to *count* valid
//! results; a prefix sum assigns offsets; a second pass repeats the exact
//! same join and writes. All global reads are thus paid twice per edge, and
//! each edge needs its own freshly allocated output buffer.

use crate::join::{
    finalize_iteration, order_linking_edges, run_edge_pass, JoinCtx, JoinOverflow, PassKind,
};
use crate::plan::JoinStep;
use crate::set_ops::CandidateProbe;
use crate::table::{MatchTable, RowBuffers};
use gsi_gpu_sim::scan::{exclusive_prefix_sum, scan_total};
use gsi_signature::CandidateSet;

/// Charge allocating one edge's freshly assigned output buffer (two-step
/// pays a new `len`-word allocation per linking edge).
fn charge_edge_buffer_alloc(ctx: &JoinCtx<'_>, len: usize) {
    ctx.gpu.stats().record_alloc(4 * len as u64);
}

/// Join `m` with `C(u)` along the linking edges of `step` using count →
/// scan → recompute-and-write; returns the new table `M'`.
pub(crate) fn join_iteration(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    step: &JoinStep,
    cand: &CandidateSet,
) -> Result<MatchTable, JoinOverflow> {
    let edges = order_linking_edges(ctx, &step.linking);
    let probe = CandidateProbe::build(ctx.gpu, ctx.cfg.set_ops, ctx.data.n_vertices(), cand);

    let mut bufs = RowBuffers::with_rows(0);
    let mut buf_bases: Option<Vec<usize>> = None;

    for (ei, &(col, label)) in edges.iter().enumerate() {
        // Workload estimates for scheduling: first edge uses host-side
        // degree metadata (no device charge — planning only), later edges
        // the previous buffer lengths.
        let loads: Vec<usize> = if ei == 0 {
            (0..m.n_rows())
                .map(|r| ctx.data.degree_with_label(m.cell(r, col), label))
                .collect()
        } else {
            bufs.row_lens()
        };

        let kind = if ei == 0 {
            PassKind::FirstEdge { cand: &probe }
        } else {
            PassKind::Intersect {
                bufs: &bufs,
                buf_bases: buf_bases.as_deref(),
            }
        };
        // Step 1: the full join, counting only (Fig. 3(a)).
        let counted = run_edge_pass(ctx, m, col, label, &kind, None, &loads);

        // Prefix-sum the counts and allocate this edge's output buffer.
        let counts: Vec<u32> = counted.row_lens().iter().map(|&l| l as u32).collect();
        let offsets = exclusive_prefix_sum(ctx.gpu, &counts);
        let edge_buf_len = scan_total(&offsets);
        if edge_buf_len > 4 * ctx.cfg.max_intermediate_rows {
            return Err(JoinOverflow);
        }
        charge_edge_buffer_alloc(ctx, edge_buf_len);
        let out_bases: Vec<usize> = offsets[..m.n_rows()].iter().map(|&o| o as usize).collect();

        // Step 2: the same join again, now writing (Fig. 3(b)).
        bufs = run_edge_pass(ctx, m, col, label, &kind, Some(&out_bases), &loads);
        buf_bases = Some(out_bases);
    }

    finalize_iteration(ctx, m, &bufs, buf_bases.as_deref())
}
