//! Shared kernel machinery of the joining phase: the per-edge pass executor
//! and the link (output) pass — the bodies of Algorithm 3's kernels.
//!
//! Both output schemes (Prealloc-Combine and two-step) drive these passes;
//! they differ only in where buffers live and how often passes run.

use crate::backend::ExecBackend;
use crate::config::{GsiConfig, SetOpStrategy};
use crate::dedup::block_input_owners;
use crate::load_balance::{plan_kernels, ChunkTask};
use crate::set_ops::{CandidateProbe, SetOpExec};
use crate::table::{segments_into_row_buffers, stitch_columns, MatchTable, Segment, TableShard};
use gsi_gpu_sim::scan::{exclusive_prefix_sum, scan_total};
use gsi_gpu_sim::{kernel, Gpu};
use gsi_graph::storage::Neighbors;
use gsi_graph::{EdgeLabel, Graph, LabeledStore, VertexId};

/// The join iteration would materialize a table beyond the configured
/// intermediate-row bound; the engine reports this as a timeout, exactly
/// like the paper's 100 s threshold kills runaway queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinOverflow;

/// Shared context for one query's join phase.
pub struct JoinCtx<'a> {
    /// Device handle.
    pub gpu: &'a Gpu,
    /// Engine configuration.
    pub cfg: &'a GsiConfig,
    /// The graph store used for `N(v, l)` extraction.
    pub store: &'a dyn LabeledStore,
    /// The data graph (host-side metadata: label frequencies, planning).
    pub data: &'a Graph,
    /// The execution backend running this query's planned kernels.
    pub backend: &'a dyn ExecBackend,
}

impl JoinCtx<'_> {
    /// This context charging `gpu` instead — how a kernel body charges the
    /// ledger of the worker executing its block.
    pub fn on<'b>(&'b self, gpu: &'b Gpu) -> JoinCtx<'b> {
        JoinCtx {
            gpu,
            cfg: self.cfg,
            store: self.store,
            data: self.data,
            backend: self.backend,
        }
    }

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
pub enum PassKind<'a> {
    /// `buf_i = (N(v'_i, l) \ m_i) ∩ C(u)` — Algorithm 3 lines 9-11.
    FirstEdge {
        /// The candidate probe structure for `C(u)`.
        cand: &'a CandidateProbe,
    },
    /// `buf_i = buf_i ∩ N(v'_i, l)` — Algorithm 3 line 13.
    Intersect {
        /// Current per-row buffers.
        bufs: &'a [Vec<VertexId>],
        /// `Some(offsets)` when the buffers live in global memory (GBA or a
        /// two-step edge buffer): streaming them charges loads.
        buf_bases: Option<&'a [usize]>,
    },
}

/// Run one linking-edge pass over all rows of `m`.
///
/// * `col` / `label` — the matched query vertex's column and the edge label.
/// * `out_bases` — per-row output offsets for store accounting; `None` makes
///   this a count-only pass (two-step's first step).
/// * `loads` — per-row workload estimates driving load balancing.
///
/// Returns the new per-row buffers.
pub fn run_edge_pass(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    col: usize,
    label: EdgeLabel,
    kind: &PassKind<'_>,
    out_bases: Option<&[usize]>,
    loads: &[usize],
) -> Vec<Vec<VertexId>> {
    debug_assert_eq!(loads.len(), m.n_rows());
    let exec = ctx.exec();
    let plans = plan_kernels(loads, ctx.cfg.load_balance.as_ref(), ctx.warps_per_block());

    // (row, chunk-start) keyed segments collected from every launch; each
    // backend worker appends to its private shard — no slot mutexes.
    let mut segments: Vec<Segment> = Vec::new();
    for plan in &plans {
        let shards = ctx
            .backend
            .run_kernel(ctx.gpu, plan, &|bctx, block, shard| {
                let ctx = &ctx.on(bctx.gpu);
                run_block(
                    ctx, &exec, m, col, label, kind, out_bases, loads, block, shard,
                );
            });
        // The loud-failure guarantee the old per-chunk slots' `expect` gave:
        // a body that skips a task cannot silently drop its chunk.
        assert_eq!(
            shards.n_segments(),
            plan.tasks.len(),
            "every warp task must produce exactly one output segment"
        );
        segments.extend(shards.into_segments());
    }

    // Merge chunks back into per-row buffers, in stream order.
    segments_into_row_buffers(segments, m.n_rows())
}

/// Execute one block's tasks (one OS thread; warps sequential within).
#[allow(clippy::too_many_arguments)]
fn run_block(
    ctx: &JoinCtx<'_>,
    exec: &SetOpExec,
    m: &MatchTable,
    col: usize,
    label: EdgeLabel,
    kind: &PassKind<'_>,
    out_bases: Option<&[usize]>,
    loads: &[usize],
    block: &[ChunkTask],
    shard: &mut TableShard,
) {
    // Duplicate removal (Algorithm 5): whole-row tasks sharing the same
    // joined vertex share one input-buffer read within the block. The link
    // column is one contiguous columnar slice.
    let link_col = m.column(col);
    let vs: Vec<VertexId> = block.iter().map(|t| link_col[t.row]).collect();
    let owners = block_input_owners(ctx.cfg.duplicate_removal, block, loads, &vs);

    let mut row_scratch: Vec<VertexId> = Vec::with_capacity(m.n_cols());
    for (i, task) in block.iter().enumerate() {
        let v_prime = vs[i];
        // A warp that shares another warp's input buffer neither re-locates
        // nor re-streams the neighbor list (only whole tasks share).
        let owner = owners[i];

        // The naive baseline launches a dedicated kernel per set operation.
        if ctx.cfg.set_ops == SetOpStrategy::Naive {
            charge_naive_launch(ctx);
        }

        let out_base = out_bases.map(|f| f[task.row]);
        let out = match kind {
            PassKind::FirstEdge { cand } => {
                // The warp reads its whole row into shared memory for the
                // subtraction (Algorithm 3: "assume that v' matches u'").
                m.charge_row_read(ctx.gpu, task.row);
                m.row_into(task.row, &mut row_scratch);
                let nbrs: Neighbors<'_> = if owner {
                    ctx.store.neighbors_with_label(ctx.gpu, v_prime, label)
                } else {
                    // Shared input buffer: reuse contents without charges.
                    ctx.store_free_neighbors(v_prime, label)
                };
                debug_assert_eq!(nbrs.len(), loads[task.row]);
                let naive_reread = (exec.strategy == SetOpStrategy::Naive)
                    .then_some((task.row * m.n_cols(), m.n_cols()));
                exec.first_edge(
                    ctx.gpu,
                    &nbrs,
                    &row_scratch,
                    cand,
                    naive_reread,
                    out_base,
                    owner,
                    Some(task.range.clone()),
                )
            }
            PassKind::Intersect { bufs, buf_bases } => {
                // Only the joined column is needed here.
                m.charge_cell_read(ctx.gpu, task.row, col);
                let nbrs: Neighbors<'_> = if owner {
                    ctx.store.neighbors_with_label(ctx.gpu, v_prime, label)
                } else {
                    ctx.store_free_neighbors(v_prime, label)
                };
                let buf = &bufs[task.row];
                exec.intersect(
                    ctx.gpu,
                    buf,
                    buf_bases.map(|b| b[task.row]),
                    &nbrs,
                    out_base,
                    owner,
                    Some(task.range.clone()),
                )
            }
        };

        shard.push(task.row, task.range.start, out);
    }
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
pub fn count_pass(ctx: &JoinCtx<'_>, m: &MatchTable, col: usize, label: EdgeLabel) -> Vec<usize> {
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

/// Charge the naive baseline's dedicated per-set-operation kernel launch.
fn charge_naive_launch(ctx: &JoinCtx<'_>) {
    ctx.gpu.stats().record_kernel_launch();
    ctx.gpu.charge_launch_overhead();
}

/// Charge streaming one link task's slice of its row buffer from global
/// memory (GBA-resident buffers only).
fn charge_link_buffer_read(ctx: &JoinCtx<'_>, base: usize, range: &std::ops::Range<usize>) {
    ctx.gpu
        .stats()
        .gld_range(base + range.start, range.len(), 4);
}

/// Bulk-charge one link task's output writes: the device writes each
/// extended row as its own row-major span (summed per row — identical to
/// one `charge_write_at` + `add_work` per output row).
fn charge_link_writes(ctx: &JoinCtx<'_>, n_cols: usize, out_start: usize, take: usize) {
    let txns = MatchTable::row_write_transactions(ctx.gpu, n_cols, out_start, take);
    let stats = ctx.gpu.stats();
    stats.add_gst(txns);
    stats.add_work((take * n_cols) as u64);
}

/// The link kernel (Algorithm 3 lines 15-21): extend every row `m_i` with
/// each element of `buf_i`, writing the new table `M'`.
///
/// `buf_bases` — `Some` when buffers live in global memory (their streaming
/// is charged); `out_offsets` is the exclusive prefix sum of buffer lengths.
pub fn link_pass(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    bufs: &[Vec<VertexId>],
    buf_bases: Option<&[usize]>,
    out_offsets: &[u32],
) -> MatchTable {
    let n_cols = m.n_cols() + 1;
    let total_rows = scan_total(out_offsets);

    let loads: Vec<usize> = bufs.iter().map(|b| b.len()).collect();
    let plans = plan_kernels(&loads, ctx.cfg.load_balance.as_ref(), ctx.warps_per_block());

    // Each task owns a disjoint row-range of M'; workers emit column-major
    // mini-tables (`key_a` = first output row, `key_b` = row count) in their
    // private shards, stitched straight into per-column buffers at the end.
    let mut segments: Vec<Segment> = Vec::new();
    for plan in &plans {
        let shards = ctx
            .backend
            .run_kernel(ctx.gpu, plan, &|bctx, block, shard| {
                let ctx = &ctx.on(bctx.gpu);
                let mut row = Vec::with_capacity(m.n_cols());
                for task in block {
                    // Read m_i into shared memory (line 18).
                    m.charge_row_read(ctx.gpu, task.row);
                    m.row_into(task.row, &mut row);
                    if let Some(bases) = buf_bases {
                        charge_link_buffer_read(ctx, bases[task.row], &task.range);
                    }
                    let take = task.range.len();
                    let out_start = out_offsets[task.row] as usize + task.range.start;
                    charge_link_writes(ctx, n_cols, out_start, take);
                    // Column-major emission: each inherited column is a
                    // fixed-width splat, the new column a contiguous copy.
                    let mut local = Vec::with_capacity(take * n_cols);
                    for &rv in &row {
                        local.extend(std::iter::repeat_n(rv, take));
                    }
                    local.extend_from_slice(&bufs[task.row][task.range.clone()]);
                    shard.push(out_start, take, local);
                }
            });
        assert_eq!(
            shards.n_segments(),
            plan.tasks.len(),
            "every link task must produce exactly one output segment"
        );
        segments.extend(shards.into_segments());
    }

    // `stitch_columns` additionally asserts the segments tile M' exactly.
    stitch_columns(segments, n_cols, total_rows)
}

/// The shared tail of one join iteration, for both output schemes: prefix-sum
/// the final buffer lengths into `M'` row offsets, refuse to materialize a
/// table beyond the configured row guard, and run the link kernel.
pub fn finalize_iteration(
    ctx: &JoinCtx<'_>,
    m: &MatchTable,
    bufs: &[Vec<VertexId>],
    buf_bases: Option<&[usize]>,
) -> Result<MatchTable, JoinOverflow> {
    let final_counts: Vec<u32> = bufs.iter().map(|b| b.len() as u32).collect();
    let out_offsets = exclusive_prefix_sum(ctx.gpu, &final_counts);
    if scan_total(&out_offsets) > ctx.cfg.max_intermediate_rows {
        return Err(JoinOverflow);
    }
    Ok(link_pass(ctx, m, bufs, buf_bases, &out_offsets))
}

/// Order the linking edges of a step: Algorithm 4 line 1 picks the edge
/// whose label has minimum frequency in `G` as the first edge `e0`.
pub fn order_linking_edges(
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
