//! Shared kernel machinery of the joining phase: the per-edge pass executor
//! and the link (output) pass — the bodies of Algorithm 3's kernels.
//!
//! Both output schemes (Prealloc-Combine and two-step) drive these passes;
//! they differ only in where buffers live and how often passes run.
//!
//! Every pass has one host shape. Its kernels are planned
//! ([`plan_kernels`]) and charged per planned task ([`RowTasks`]); the host
//! computes each row whole, in row order, appending an edge pass's rows to
//! one compact [`RowBuffers`] and writing the link pass's rows straight
//! into `M'`'s columns, pre-sized from the prefix sum of the final buffer
//! lengths.

use crate::backend::{JoinPool, RowTasks};
use crate::config::{GsiConfig, SetOpStrategy};
use crate::dedup::block_input_owners;
use crate::load_balance::plan_kernels;
use crate::set_ops::{CandidateProbe, SetOpExec};
use crate::table::{MatchTable, RowBuffers};
use gsi_gpu_sim::scan::{exclusive_prefix_sum, scan_total};
use gsi_gpu_sim::{kernel, Gpu};
use gsi_graph::storage::Neighbors;
use gsi_graph::{EdgeLabel, Graph, LabeledStore, VertexId};

/// The join iteration would materialize a table beyond the configured
/// intermediate-row bound; the engine reports this as a timeout, exactly
/// like the paper's 100 s threshold kills runaway queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinOverflow;

/// Shared context for one query's join phase.
pub(crate) struct JoinCtx<'a> {
    /// Device handle.
    pub gpu: &'a Gpu,
    /// Engine configuration.
    pub cfg: &'a GsiConfig,
    /// The graph store used for `N(v, l)` extraction.
    pub store: &'a dyn LabeledStore,
    /// The data graph (host-side metadata: label frequencies, planning).
    pub data: &'a Graph,
    /// The pool running this query's planned kernels.
    pub backend: &'a JoinPool,
}

impl JoinCtx<'_> {
    /// This context charging `gpu` instead — how a kernel body charges the
    /// ledger of the worker executing its block.
    pub(crate) fn on<'b>(&'b self, gpu: &'b Gpu) -> JoinCtx<'b> {
        JoinCtx {
            gpu,
            cfg: self.cfg,
            store: self.store,
            data: self.data,
            backend: self.backend,
        }
    }

    /// The set-op parameters this query's configuration selects.
    fn exec(&self) -> SetOpExec {
        SetOpExec {
            strategy: self.cfg.set_ops,
            write_cache: self.cfg.write_cache,
            kernels: self.cfg.set_op_kernels,
        }
    }

    fn warps_per_block(&self) -> usize {
        self.gpu.config().warps_per_block()
    }
}

/// What one edge pass computes.
pub(crate) enum PassKind<'a> {
    /// `buf_i = (N(v'_i, l) \ m_i) ∩ C(u)` — Algorithm 3 lines 9-11.
    FirstEdge {
        /// The candidate probe structure for `C(u)`.
        cand: &'a CandidateProbe,
    },
    /// `buf_i = buf_i ∩ N(v'_i, l)` — Algorithm 3 line 13.
    Intersect {
        /// Current per-row buffers.
        bufs: &'a RowBuffers,
        /// `Some(offsets)` when the buffers live in global memory (GBA or a
        /// two-step edge buffer): streaming them charges loads.
        buf_bases: Option<&'a [usize]>,
    },
}

/// Compute an edge pass's rows through the join pool: each row whole, in
/// row order, appended by `row(ctx, r, out, scratch)` to its group's
/// compact buffer (`scratch` is a per-worker buffer the body may reuse).
/// `units` are the rows' streamed elements, which balance the groups.
fn compute_rows<R>(ctx: &JoinCtx<'_>, units: &[usize], row: R) -> RowBuffers
where
    R: Fn(&JoinCtx<'_>, usize, &mut Vec<VertexId>, &mut Vec<VertexId>) + Sync,
{
    let parts = ctx.backend.run_rows(
        ctx.gpu,
        units,
        |groups| {
            let part = |g: &std::ops::Range<usize>| (RowBuffers::with_rows(g.len()), Vec::new());
            groups.iter().map(part).collect()
        },
        |gpu, r, (out, scratch)| {
            row(&ctx.on(gpu), r, out.tail(), scratch);
            out.end_row();
        },
    );
    RowBuffers::concat(parts.into_iter().map(|(out, _)| out).collect())
}

/// Run one linking-edge pass over all rows of `m`.
///
/// * `col` / `label` — the matched query vertex's column and the edge label.
/// * `out_bases` — per-row output offsets for store accounting; `None` makes
///   this a count-only pass (two-step's first step).
/// * `loads` — per-row workload estimates driving load balancing.
///
/// Returns the new per-row buffers.
pub(crate) fn run_edge_pass(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    col: usize,
    label: EdgeLabel,
    kind: &PassKind<'_>,
    out_bases: Option<&[usize]>,
    loads: &[usize],
) -> RowBuffers {
    debug_assert_eq!(loads.len(), m.n_rows());
    let exec = ctx.exec();
    let plans = plan_kernels(loads, ctx.cfg.load_balance.as_ref(), ctx.warps_per_block());
    // Duplicate removal (Algorithm 5): whole-row tasks of one planned block
    // sharing the same joined vertex share one input-buffer read. The link
    // column is one contiguous columnar slice.
    let link_col = m.column(col);
    let tasks = RowTasks::charge(ctx.gpu, &plans, m.n_rows(), |block| {
        let vs: Vec<VertexId> = block.iter().map(|t| link_col[t.row]).collect();
        block_input_owners(ctx.cfg.duplicate_removal, block, loads, &vs)
    });

    compute_rows(ctx, loads, |ctx, row, out, scratch| {
        let v_prime = link_col[row];
        let out_base = out_bases.map(|f| f[row]);
        if let PassKind::FirstEdge { .. } = kind {
            m.row_into(row, scratch);
        }
        for task in tasks.of(row) {
            let owner = task.owns_input;
            // The naive baseline launches a dedicated kernel per set operation.
            if ctx.cfg.set_ops == SetOpStrategy::Naive {
                kernel::charge_launch(ctx.gpu, 0);
            }
            // A warp that shares another warp's input buffer neither
            // re-locates nor re-streams the neighbor list.
            let nbrs: Neighbors<'_> = if owner {
                ctx.store.neighbors_with_label(ctx.gpu, v_prime, label)
            } else {
                ctx.store_free_neighbors(v_prime, label)
            };
            let chunk = Some(task.range.clone());
            match kind {
                PassKind::FirstEdge { cand } => {
                    // The warp reads its whole row into shared memory for the
                    // subtraction (Algorithm 3: "assume that v' matches u'").
                    m.charge_row_read(ctx.gpu, row);
                    debug_assert_eq!(nbrs.len(), loads[row]);
                    let naive_reread = (exec.strategy == SetOpStrategy::Naive)
                        .then_some((row * m.n_cols(), m.n_cols()));
                    exec.first_edge(
                        ctx.gpu,
                        &nbrs,
                        scratch,
                        cand,
                        naive_reread,
                        out_base,
                        owner,
                        chunk,
                        out,
                    );
                }
                PassKind::Intersect { bufs, buf_bases } => {
                    // Only the joined column is needed here.
                    m.charge_cell_read(ctx.gpu, row, col);
                    let buf_base = buf_bases.map(|b| b[row]);
                    exec.intersect(
                        ctx.gpu,
                        bufs.row(row),
                        buf_base,
                        &nbrs,
                        out_base,
                        owner,
                        chunk,
                        out,
                    );
                }
            }
        }
    })
}

impl JoinCtx<'_> {
    /// Extract `N(v, l)` *without* device charges — the duplicate-removal
    /// path where another warp already staged the list in shared memory.
    fn store_free_neighbors(&self, v: VertexId, l: EdgeLabel) -> Neighbors<'_> {
        // Host ground truth; mark as not-in-global so downstream streaming
        // is free as well.
        let list: Vec<VertexId> = self.data.neighbors_with_label(v, l).collect();
        Neighbors {
            list: std::borrow::Cow::Owned(list),
            in_global: false,
            ci_offset: 0,
        }
    }
}

/// Count `|N(v'_i, l0)|` for every row — the pre-allocation bound of
/// Algorithm 4 (line 5's scan input). Charges one cell read plus the store's
/// locate cost per row.
pub(crate) fn count_pass(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    col: usize,
    label: EdgeLabel,
) -> Vec<usize> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counts: Vec<AtomicUsize> = (0..m.n_rows()).map(|_| AtomicUsize::new(0)).collect();
    let rows: Vec<usize> = (0..m.n_rows()).collect();
    kernel::launch_warp_tasks(ctx.gpu, &rows, |gpu, _wid, &row| {
        m.charge_cell_read(gpu, row, col);
        let v = m.cell(row, col);
        let c = ctx.store.neighbor_count(gpu, v, label);
        counts[row].store(c, Ordering::Relaxed);
    });
    counts.into_iter().map(|c| c.into_inner()).collect()
}

/// Charge one link task (Algorithm 3 lines 17-20): read `m_i` into shared
/// memory, stream the task's `range` of a GBA-resident row buffer at
/// `buf_base`, and write each extended row as its own row-major span from
/// output row `out_start + range.start` (summed per row).
fn charge_link_task(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    row: usize,
    buf_base: Option<usize>,
    out_start: usize,
    range: &std::ops::Range<usize>,
) {
    m.charge_row_read(ctx.gpu, row);
    let (stats, n_cols, take) = (ctx.gpu.stats(), m.n_cols() + 1, range.len());
    if let Some(base) = buf_base {
        stats.gld_range(base + range.start, take, 4);
    }
    let out_start = out_start + range.start;
    stats.add_gst(MatchTable::row_write_transactions(
        ctx.gpu, n_cols, out_start, take,
    ));
    stats.add_work((take * n_cols) as u64);
}

/// One link-pass worker's part of `M'`: the disjoint row range of every
/// output column its input rows extend into, and how far it has written.
struct LinkPart<'c> {
    cols: Vec<&'c mut [VertexId]>,
    written: usize,
}

/// The link kernel (Algorithm 3 lines 15-21): extend every row `m_i` with
/// each element of `buf_i`, writing the new table `M'`.
///
/// `buf_bases` — `Some` when buffers live in global memory (their streaming
/// is charged); `out_offsets` is the exclusive prefix sum of buffer lengths.
/// `M'`'s columns are allocated once at the prefix sum's total and every
/// row is written straight into its place; each planned task is charged
/// from its own range.
pub(crate) fn link_pass(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    bufs: &RowBuffers,
    buf_bases: Option<&[usize]>,
    out_offsets: &[u32],
) -> MatchTable {
    let total_rows = scan_total(out_offsets);

    let loads = bufs.row_lens();
    let plans = plan_kernels(&loads, ctx.cfg.load_balance.as_ref(), ctx.warps_per_block());
    let tasks = RowTasks::charge(ctx.gpu, &plans, m.n_rows(), |block| vec![true; block.len()]);

    let mut out = MatchTable::zeroed(m.n_cols() + 1, total_rows);
    let parts = ctx.backend.run_rows(
        ctx.gpu,
        &loads,
        |groups| {
            // Each group owns the rows of M' its input rows extend into.
            let mut rest = out.columns_mut();
            groups
                .iter()
                .map(|g| {
                    let len = (out_offsets[g.end] - out_offsets[g.start]) as usize;
                    let cols = rest
                        .iter_mut()
                        .map(|col| {
                            let (part, tail) = std::mem::take(col).split_at_mut(len);
                            *col = tail;
                            part
                        })
                        .collect();
                    LinkPart { cols, written: 0 }
                })
                .collect()
        },
        |gpu, row, part: &mut LinkPart<'_>| {
            let ctx = &ctx.on(gpu);
            let (buf_base, out_start) = (buf_bases.map(|b| b[row]), out_offsets[row] as usize);
            for task in tasks.of(row) {
                charge_link_task(ctx, m, row, buf_base, out_start, &task.range);
            }
            // Each inherited column is a fixed-width splat, the new column a
            // contiguous copy.
            let buf = bufs.row(row);
            let dst = part.written..part.written + buf.len();
            if let Some((new_col, inherited)) = part.cols.split_last_mut() {
                for (c, col) in inherited.iter_mut().enumerate() {
                    col[dst.clone()].fill(m.cell(row, c));
                }
                new_col[dst.clone()].copy_from_slice(buf);
            }
            part.written = dst.end;
        },
    );
    // The loud failure a dropped row must cause: pre-sized columns would
    // otherwise hide it as rows of zeros.
    let written: usize = parts.iter().map(|p| p.written).sum();
    assert_eq!(
        written, total_rows,
        "the link pass must write exactly the prefix-sum total of rows"
    );
    drop(parts);
    out
}

/// The shared tail of one join iteration, for both output schemes: prefix-sum
/// the final buffer lengths into `M'` row offsets, refuse to materialize a
/// table beyond the configured row guard, and run the link kernel.
pub(crate) fn finalize_iteration(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    bufs: &RowBuffers,
    buf_bases: Option<&[usize]>,
) -> Result<MatchTable, JoinOverflow> {
    let final_counts: Vec<u32> = bufs.row_lens().iter().map(|&l| l as u32).collect();
    let out_offsets = exclusive_prefix_sum(ctx.gpu, &final_counts);
    if scan_total(&out_offsets) > ctx.cfg.max_intermediate_rows {
        return Err(JoinOverflow);
    }
    Ok(link_pass(ctx, m, bufs, buf_bases, &out_offsets))
}

/// Order the linking edges of a step: Algorithm 4 line 1 picks the edge
/// whose label has minimum frequency in `G` as the first edge `e0`.
pub(crate) fn order_linking_edges(
    ctx: &JoinCtx<'_>,
    linking: &[(usize, EdgeLabel)],
) -> Vec<(usize, EdgeLabel)> {
    let mut edges = linking.to_vec();
    if ctx.cfg.first_edge_min_freq {
        let e0_idx = edges
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, l))| ctx.data.elabel_freq(l))
            .map(|(i, _)| i);
        // A step with no linking edges leaves the (empty) order as-is.
        if let Some(e0_idx) = e0_idx {
            edges.swap(0, e0_idx);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_gpu_sim::DeviceConfig;
    use gsi_graph::csr::Csr;
    use gsi_graph::GraphBuilder;

    fn with_ctx(f: impl FnOnce(&JoinCtx<'_>)) {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        let data = b.build();
        let store = Csr::build(&data);
        let gpu = Gpu::new(DeviceConfig::test_device());
        let cfg = GsiConfig::gsi_opt();
        let pool = JoinPool::new(1);
        f(&JoinCtx {
            gpu: &gpu,
            cfg: &cfg,
            store: &store,
            data: &data,
            backend: &pool,
        });
    }

    /// Two input rows `[1, 2]` and `[3, 4]` whose buffers hold `7, 8` and
    /// `9`.
    fn two_rows() -> (MatchTable, RowBuffers) {
        let mut bufs = RowBuffers::with_rows(2);
        bufs.tail().extend([7, 8]);
        bufs.end_row();
        bufs.tail().push(9);
        bufs.end_row();
        (MatchTable::from_raw(2, vec![1, 2, 3, 4]), bufs)
    }

    #[test]
    fn link_pass_writes_every_row_into_its_place() {
        with_ctx(|ctx| {
            let (m, bufs) = two_rows();
            let out = link_pass(ctx, &m, &bufs, None, &[0, 2, 3]);
            assert_eq!(
                out,
                MatchTable::from_raw(3, vec![1, 2, 7, 1, 2, 8, 3, 4, 9])
            );
        });
    }

    #[test]
    #[should_panic(expected = "the link pass must write exactly the prefix-sum total of rows")]
    fn link_pass_refuses_offsets_its_rows_do_not_fill() {
        // The prefix sum promises four output rows, the buffers hold three:
        // pre-sized columns must not hide the missing row as zeros.
        with_ctx(|ctx| {
            let (m, bufs) = two_rows();
            link_pass(ctx, &m, &bufs, None, &[0, 2, 4]);
        });
    }
}
