//! Radix-partitioned hash join — the third [`JoinStrategy`], built for
//! high-multiplicity steps.
//!
//! The paper's per-row kernels re-fetch and re-probe `N(v', l)` for every
//! row of the intermediate table. When a step's multiplicity is high (many
//! rows share the same link vertex `v'`, each producing many output rows),
//! that repetition dominates. This strategy restructures the step around the
//! *distinct* link vertices:
//!
//! 1. **Radix partition** — gather the link column (one contiguous columnar
//!    slice), bucket rows by the low bits of `v'`, and order buckets by
//!    `(radix, v')`. Rows sharing `v'` land in one partition.
//! 2. **Per-partition build** — fetch `N(v', l)` **once** per distinct `v'`
//!    and build a multiplicity hash table over it (first edge additionally
//!    intersects the list with `C(u)` once, so the candidate probe is paid
//!    per distinct vertex, not per row).
//! 3. **Column-at-a-time probe** — every row of the partition probes the
//!    shared table against its running buffer; outputs stream through the
//!    write cache into the same GBA layout Prealloc-Combine uses.
//!
//! Results are **bit-identical** to Prealloc-Combine (the set algebra is
//! unchanged: `(N ∩ C) \ m_i = (N \ m_i) ∩ C`, and the hash probe keeps the
//! sorted min-multiplicity semantics of the merge). The device-ledger
//! charges follow this strategy's own deterministic model — partition
//! gather, one build per distinct vertex, one probe transaction per buffer
//! element — independent of backend scheduling, so counters are exact and
//! reproducible across `Serial`/`HostParallel` like the other strategies.
//! Row-level work always runs as flat one-warp-per-row tasks: the radix
//! partitioning itself is the load-balancing story here, so the 4-layer
//! scheme is not applied inside this strategy.

use crate::config::{JoinScheme, SetOpStrategy};
use crate::join::{count_pass, finalize_iteration, JoinCtx, JoinOverflow};
use crate::load_balance::plan_kernels;
use crate::plan::JoinStep;
use crate::set_ops::{CandidateProbe, SetOpExec};
use crate::strategy::{IterationSetup, JoinStrategy};
use crate::table::{segments_into_row_buffers, MatchTable, Segment};
use crate::write_cache::WriteCache;
use gsi_gpu_sim::scan::{exclusive_prefix_sum, scan_total};
use gsi_graph::{EdgeLabel, VertexId};
use gsi_signature::CandidateSet;
use std::collections::HashMap;

/// Radix bits of the partition pass (256-way fan-out, one pass).
const RADIX_BITS: u32 = 8;

/// One partition: a distinct link vertex and the rows carrying it.
struct Partition {
    v_prime: VertexId,
    rows: Vec<usize>,
}

/// Radix-partition `rows` (all of them) by their link-column value:
/// 256-way bucket split on the low byte, then an in-bucket sort groups
/// equal `v'` together. Deterministic `(radix, v')` partition order.
fn radix_partition(link_col: &[VertexId]) -> Vec<Partition> {
    let mut buckets: Vec<Vec<usize>> = (0..1usize << RADIX_BITS).map(|_| Vec::new()).collect();
    let mask = (1u32 << RADIX_BITS) - 1;
    for (row, &v) in link_col.iter().enumerate() {
        buckets[(v & mask) as usize].push(row);
    }
    let mut parts: Vec<Partition> = Vec::new();
    for bucket in &mut buckets {
        // Stable by construction: rows entered in row order, sort groups by
        // full vertex id while preserving row order within a group.
        bucket.sort_by_key(|&r| link_col[r]);
        for &row in bucket.iter() {
            match parts.last_mut() {
                Some(p) if p.v_prime == link_col[row] && !p.rows.is_empty() => p.rows.push(row),
                _ => parts.push(Partition {
                    v_prime: link_col[row],
                    rows: vec![row],
                }),
            }
        }
    }
    parts
}

/// Charge the partition pass: one gathered load per link cell, one word of
/// work per row, and the partition-index allocation.
fn charge_partition_pass(ctx: &JoinCtx<'_>, n_rows: usize) {
    let stats = ctx.gpu.stats();
    stats.add_gld(n_rows as u64);
    stats.add_work(n_rows as u64);
    stats.record_alloc(4 * n_rows as u64);
}

/// Charge building one partition's hash table over an `len`-entry neighbor
/// list: 8-byte entries written coalesced, plus the table allocation.
fn charge_hash_build(ctx: &JoinCtx<'_>, len: usize) {
    let stats = ctx.gpu.stats();
    stats.record_alloc(8 * len as u64);
    stats.add_gst(((len * 8).div_ceil(128)) as u64);
    stats.add_work(len as u64);
}

/// Charge allocating this iteration's global buffer area: the
/// `gba_len`-word output buffer plus the per-row offset array F — the same
/// accounting as Prealloc-Combine.
fn charge_gba_alloc(ctx: &JoinCtx<'_>, gba_len: usize, n_rows: usize) {
    let stats = ctx.gpu.stats();
    stats.record_alloc(4 * gba_len as u64);
    stats.record_alloc(4 * n_rows as u64);
}

/// Charge one row's probe pass over its partition's `s_len`-entry shared
/// list. `naive_reread` carries the row's `(offset, len)` when the naive
/// strategy re-reads the partial match once per 128-byte batch probed.
fn charge_probe_pass(ctx: &JoinCtx<'_>, s_len: usize, naive_reread: Option<(usize, usize)>) {
    let stats = ctx.gpu.stats();
    stats.add_work(s_len as u64);
    if let Some((off, len)) = naive_reread {
        for _ in 0..s_len.div_ceil(32) {
            stats.gld_range(off, len, 4);
        }
    }
}

/// Charge streaming one row's running buffer from the GBA and probing the
/// shared hash table: one gathered load per element probed.
fn charge_buffer_probe(ctx: &JoinCtx<'_>, base: usize, len: usize) {
    let stats = ctx.gpu.stats();
    stats.gld_range(base, len, 4);
    stats.add_gld(len as u64);
    stats.add_work(len as u64);
}

/// Min-multiplicity intersection of a **sorted** buffer with a multiset
/// hash table: each run of equal values keeps `min(run, table[v])` copies.
/// Identical output to the sorted-merge kernels.
fn hash_probe_intersect(buf: &[VertexId], table: &HashMap<VertexId, u32>) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(buf.len());
    let mut i = 0;
    while i < buf.len() {
        let v = buf[i];
        let mut run = 1;
        while i + run < buf.len() && buf[i + run] == v {
            run += 1;
        }
        let keep = (*table.get(&v).unwrap_or(&0) as usize).min(run);
        for _ in 0..keep {
            out.push(v);
        }
        i += run;
    }
    out
}

/// The radix-partitioned hash join as a pluggable [`JoinStrategy`].
#[derive(Debug, Default)]
pub struct RadixHashJoin;

impl RadixHashJoin {
    /// Run the per-row tasks of one edge through the execution backend as
    /// flat one-warp-per-row kernels, collecting per-row buffers.
    fn run_rows(
        ctx: &JoinCtx<'_>,
        n_rows: usize,
        loads: &[usize],
        body: &(dyn Fn(&JoinCtx<'_>, usize) -> Vec<VertexId> + Sync),
    ) -> Vec<Vec<VertexId>> {
        let plans = plan_kernels(loads, None, ctx.gpu.config().warps_per_block());
        let mut segments: Vec<Segment> = Vec::new();
        for plan in &plans {
            let shards = ctx
                .backend
                .run_kernel(ctx.gpu, plan, &|bctx, block, shard| {
                    let ctx = &ctx.on(bctx.gpu);
                    for task in block {
                        shard.push(task.row, task.range.start, body(ctx, task.row));
                    }
                });
            assert_eq!(
                shards.n_segments(),
                plan.tasks.len(),
                "every probe task must produce exactly one output segment"
            );
            segments.extend(shards.into_segments());
        }
        segments_into_row_buffers(segments, n_rows)
    }
}

impl JoinStrategy for RadixHashJoin {
    fn scheme(&self) -> JoinScheme {
        JoinScheme::RadixHash
    }

    fn name(&self) -> &'static str {
        "radix-hash"
    }

    fn join_iteration(
        &self,
        ctx: &JoinCtx<'_>,
        m: &MatchTable,
        step: &JoinStep,
        cand: &CandidateSet,
    ) -> Result<MatchTable, JoinOverflow> {
        let IterationSetup { edges, probe } = IterationSetup::build(ctx, step, cand);
        let (col0, l0) = edges[0];
        let exec = SetOpExec {
            strategy: ctx.cfg.set_ops,
            write_cache: ctx.cfg.write_cache,
            kernels: ctx.cfg.set_op_kernels,
        };

        // Same GBA bound and allocation accounting as Prealloc-Combine.
        let counts = count_pass(ctx, m, col0, l0);
        let counts_u32: Vec<u32> = counts.iter().map(|&c| c as u32).collect();
        let offsets = exclusive_prefix_sum(ctx.gpu, &counts_u32);
        let gba_len = scan_total(&offsets);
        charge_gba_alloc(ctx, gba_len, m.n_rows());
        let out_bases: Vec<usize> = offsets[..m.n_rows()].iter().map(|&o| o as usize).collect();

        let mut bufs: Vec<Vec<VertexId>> = Vec::new();
        for (ei, &(col, label)) in edges.iter().enumerate() {
            bufs = if ei == 0 {
                self.first_edge(ctx, m, &exec, &probe, col, label, &out_bases)
            } else {
                self.later_edge(ctx, m, &exec, &bufs, col, label, &out_bases)
            };
        }

        finalize_iteration(ctx, m, &bufs, Some(&out_bases))
    }
}

impl RadixHashJoin {
    /// First edge: partition by the link column, compute
    /// `s = N(v', l0) ∩ C(u)` once per distinct `v'`, then subtract each
    /// row's partial match column-at-a-time.
    #[allow(clippy::too_many_arguments)]
    fn first_edge(
        &self,
        ctx: &JoinCtx<'_>,
        m: &MatchTable,
        exec: &SetOpExec,
        probe: &CandidateProbe,
        col: usize,
        label: EdgeLabel,
        out_bases: &[usize],
    ) -> Vec<Vec<VertexId>> {
        let link_col = m.column(col);
        charge_partition_pass(ctx, m.n_rows());
        let parts = radix_partition(link_col);

        // Host pre-pass (serial, so per-distinct charges stay deterministic
        // under any backend): the shared `N ∩ C` of each partition. The
        // candidate probe is charged once per distinct vertex here — the
        // saving over the per-row schemes.
        let mut row_shared: Vec<usize> = vec![0; m.n_rows()];
        let mut shared: Vec<Vec<VertexId>> = Vec::with_capacity(parts.len());
        for (pi, part) in parts.iter().enumerate() {
            let nbrs = ctx.store.neighbors_with_label(ctx.gpu, part.v_prime, label);
            charge_hash_build(ctx, nbrs.len());
            // `(N ∩ C)`: stream + probe exactly once for the partition.
            let s = exec.first_edge(ctx.gpu, &nbrs, &[], probe, None, None, true, None);
            for &row in &part.rows {
                row_shared[row] = pi;
            }
            shared.push(s);
        }

        // Probe pass through the backend: each row filters the shared list
        // against its own partial match and streams survivors to the GBA.
        let naive = exec.strategy == SetOpStrategy::Naive;
        let n_cols = m.n_cols();
        let loads: Vec<usize> = (0..m.n_rows())
            .map(|r| shared[row_shared[r]].len())
            .collect();
        Self::run_rows(ctx, m.n_rows(), &loads, &|ctx, row| {
            let s = &shared[row_shared[row]];
            m.charge_row_read(ctx.gpu, row);
            // Naive set-ops re-read the row once per 128B batch probed.
            let reread = naive.then_some((row * n_cols, n_cols));
            charge_probe_pass(ctx, s.len(), reread);
            let mut srow: Vec<VertexId> = Vec::with_capacity(n_cols);
            m.row_into(row, &mut srow);
            srow.sort_unstable();
            let out: Vec<VertexId> = s
                .iter()
                .copied()
                .filter(|v| srow.binary_search(v).is_err())
                .collect();
            let mut cache = WriteCache::new(ctx.gpu, exec.write_cache, Some(out_bases[row]));
            cache.push_many(out.len());
            cache.finish();
            out
        })
    }

    /// A later edge: partition by the link column, build one multiplicity
    /// hash table per distinct `v'`, and probe every row's running buffer
    /// against it.
    #[allow(clippy::too_many_arguments)]
    fn later_edge(
        &self,
        ctx: &JoinCtx<'_>,
        m: &MatchTable,
        exec: &SetOpExec,
        bufs: &[Vec<VertexId>],
        col: usize,
        label: EdgeLabel,
        out_bases: &[usize],
    ) -> Vec<Vec<VertexId>> {
        let link_col = m.column(col);
        charge_partition_pass(ctx, m.n_rows());
        let parts = radix_partition(link_col);

        let mut row_part: Vec<usize> = vec![0; m.n_rows()];
        let mut tables: Vec<HashMap<VertexId, u32>> = Vec::with_capacity(parts.len());
        for (pi, part) in parts.iter().enumerate() {
            let nbrs = ctx.store.neighbors_with_label(ctx.gpu, part.v_prime, label);
            charge_hash_build(ctx, nbrs.len());
            let mut table: HashMap<VertexId, u32> = HashMap::with_capacity(nbrs.len());
            for &v in nbrs.list.iter() {
                *table.entry(v).or_insert(0) += 1;
            }
            for &row in &part.rows {
                row_part[row] = pi;
            }
            tables.push(table);
        }

        let loads: Vec<usize> = bufs.iter().map(|b| b.len()).collect();
        Self::run_rows(ctx, m.n_rows(), &loads, &|ctx, row| {
            let buf = &bufs[row];
            // Stream the row's buffer from the GBA and probe the shared
            // hash table: one transaction per element probed.
            charge_buffer_probe(ctx, out_bases[row], buf.len());
            let out = hash_probe_intersect(buf, &tables[row_part[row]]);
            let mut cache = WriteCache::new(ctx.gpu, exec.write_cache, Some(out_bases[row]));
            cache.push_many(out.len());
            cache.finish();
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_partition_groups_equal_vertices_deterministically() {
        let link = vec![513u32, 1, 257, 1, 513, 2];
        let parts = radix_partition(&link);
        // Bucket 1 holds {1, 257, 513}, ordered by full id; bucket 2 holds 2.
        let got: Vec<(u32, Vec<usize>)> =
            parts.iter().map(|p| (p.v_prime, p.rows.clone())).collect();
        assert_eq!(
            got,
            vec![
                (1, vec![1, 3]),
                (257, vec![2]),
                (513, vec![0, 4]),
                (2, vec![5]),
            ]
        );
        assert!(radix_partition(&[]).is_empty());
    }

    #[test]
    fn hash_probe_keeps_sorted_min_multiplicity() {
        let mut t = HashMap::new();
        t.insert(3u32, 2);
        t.insert(9, 1);
        assert_eq!(
            hash_probe_intersect(&[1, 3, 3, 3, 9, 9, 12], &t),
            vec![3, 3, 9]
        );
        assert!(hash_probe_intersect(&[], &t).is_empty());
        assert!(hash_probe_intersect(&[4, 8], &t).is_empty());
    }
}
