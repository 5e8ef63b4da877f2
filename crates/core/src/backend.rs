//! The join pool: the host threads that play the device's SMs for the
//! join phase's planned kernels.
//!
//! The layer stack of the engine is
//!
//! ```text
//!   JoinStrategy (prealloc / two-step / radix — Algorithms 3-4, what to compute)
//!     └── JoinPool (this module — how many host threads drain each launch)
//!           └── gsi_gpu_sim device (transaction/work accounting, §II-B)
//! ```
//!
//! A [`JoinStrategy`](crate::strategy::JoinStrategy) decides *what* each
//! iteration computes; the [`JoinPool`] runs the resulting [`KernelPlan`]s
//! the way a GPU runs a launch (§II-B): its workers pull blocks from a
//! shared counter, as SMs drain a launch's block queue. The pool has one
//! execution model and one knob, its width
//! ([`GsiConfig::join_threads`](crate::GsiConfig::join_threads)). One
//! thread (the default) runs every block in grid order on the calling
//! thread — the deterministic reference of the paper's cost analysis (§V,
//! §VI-A), where only the *accounted* device parallelism matters. More
//! threads turn the launch's blocks into real host concurrency.
//!
//! The width never changes what is computed or charged: a host worker
//! charges a ledger of its own, folded into the query's when the launch
//! returns, so device counters are **exactly** equal at every width; workers
//! write keyed output segments into private [`TableShard`]s, so the merged
//! tables are **bit-identical** (see `tests/backend_equivalence.rs`).
//!
//! The pool also accounts a work/span pair per query — total streamed
//! elements vs. the critical path of the schedule (the busiest worker's
//! share, summed over launches). `work / span` is the parallel speedup the
//! schedule admits independent of host core count, the quantity §VI-A's
//! load balancing maximizes. When the device models memory latency
//! ([`gsi_gpu_sim::DeviceConfig::stream_latency_ns`]), each worker sleeps
//! its share of the latency — concurrent workers overlap those sleeps the
//! way real SMs hide memory latency, so the speedup is also visible in
//! wall-clock time.

use crate::load_balance::{ChunkTask, KernelPlan};
use crate::table::{TableShard, TableShards};
use gsi_gpu_sim::kernel::{launch_blocks_stateful, BlockCtx};
use gsi_gpu_sim::Gpu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The kernel body a strategy hands to the pool: called once per block
/// with the block's warp tasks and the executing worker's private shard.
pub type BlockBody<'a> = dyn Fn(&mut BlockCtx, &[ChunkTask], &mut TableShard) + Sync + 'a;

/// Per-worker execution context for one launch.
struct WorkerCtx {
    shard: TableShard,
    /// Streamed elements this worker executed in this launch.
    units: u64,
    /// Unslept simulated-latency debt, in nanoseconds.
    debt_ns: u64,
}

/// Sleep granularity for the latency model: debts below this accumulate
/// (OS sleeps under ~100 µs are dominated by timer slack).
const LATENCY_FLUSH_NS: u64 = 200_000;

fn throttle(ctx: &mut WorkerCtx, block_units: u64, latency_ns: u64) {
    if latency_ns == 0 {
        return;
    }
    ctx.debt_ns += block_units * latency_ns;
    if ctx.debt_ns >= LATENCY_FLUSH_NS {
        std::thread::sleep(Duration::from_nanos(ctx.debt_ns));
        ctx.debt_ns = 0;
    }
}

/// Launches streaming fewer elements than this run inline: spawning a
/// scoped host thread costs ~50 µs, far more than the simulated work of a
/// small kernel (the same cliff `kernel::launch_blocks` guards). Counters
/// are unaffected — execution is identical on any worker count — and span
/// honestly equals work for launches too small to share.
const MIN_PARALLEL_UNITS: u64 = 4096;

/// One query's join pool: `threads` host workers draining each launch's
/// blocks, plus the query's work/span ledger. See the module docs.
#[derive(Debug)]
pub struct JoinPool {
    threads: usize,
    work: AtomicU64,
    span: AtomicU64,
}

impl JoinPool {
    /// A pool of `threads` workers; `0` or `1` runs every launch inline.
    /// "`0` = all cores" is the configuration's spelling, which
    /// [`crate::GsiEngine::with_gpu`] resolves once, before any pool is
    /// built.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            work: AtomicU64::new(0),
            span: AtomicU64::new(0),
        }
    }

    /// Execute one planned kernel launch, returning the per-worker output
    /// shards. Device charges (one launch, `tasks.len()` warp tasks, plus
    /// whatever `body` charges) are identical at every width.
    pub fn run_kernel(&self, gpu: &Gpu, plan: &KernelPlan, body: &BlockBody<'_>) -> TableShards {
        let workers = if self.threads > 1
            && plan.tasks.iter().map(|t| t.range.len() as u64).sum::<u64>() >= MIN_PARALLEL_UNITS
        {
            self.threads
        } else {
            1
        };
        let latency_ns = gpu.config().stream_latency_ns;
        let states: Vec<WorkerCtx> = (0..workers)
            .map(|_| WorkerCtx {
                shard: TableShard::default(),
                units: 0,
                debt_ns: 0,
            })
            .collect();
        let states = launch_blocks_stateful(
            gpu,
            &plan.tasks,
            plan.warps_per_block,
            states,
            |bctx, block, ctx: &mut WorkerCtx| {
                let block_units: u64 = block.iter().map(|t| t.range.len() as u64).sum();
                body(bctx, block, &mut ctx.shard);
                ctx.units += block_units;
                throttle(ctx, block_units, latency_ns);
            },
        );
        // Leftover latency debt: each worker owes < LATENCY_FLUSH_NS;
        // concurrent workers would overlap, so one sleep of the maximum is
        // the faithful residual.
        if let Some(max_debt) = states.iter().map(|s| s.debt_ns).max() {
            if max_debt > 0 {
                std::thread::sleep(Duration::from_nanos(max_debt));
            }
        }
        let work: u64 = states.iter().map(|s| s.units).sum();
        let span: u64 = states.iter().map(|s| s.units).max().unwrap_or(0);
        self.work.fetch_add(work, Ordering::Relaxed);
        self.span.fetch_add(span, Ordering::Relaxed);
        TableShards::from_shards(states.into_iter().map(|s| s.shard).collect())
    }

    /// `(work, span)` accumulated over every launch so far: total streamed
    /// elements, and the critical path of the executed schedule (busiest
    /// worker per launch, summed). `work == span` on one thread.
    pub fn work_span(&self) -> (u64, u64) {
        (
            self.work.load(Ordering::Relaxed),
            self.span.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GsiConfig, GsiEngine};
    use gsi_gpu_sim::DeviceConfig;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    fn plan(loads: &[usize], wpb: usize) -> KernelPlan {
        KernelPlan {
            tasks: loads
                .iter()
                .enumerate()
                .map(|(row, &l)| ChunkTask { row, range: 0..l })
                .collect(),
            warps_per_block: wpb,
        }
    }

    /// Body: each task emits its row id and load as a segment.
    fn emit_body(bctx: &mut BlockCtx, block: &[ChunkTask], shard: &mut TableShard) {
        let _ = bctx;
        for t in block {
            shard.push(t.row, t.range.start, vec![t.range.len() as u32]);
        }
    }

    #[test]
    fn serial_and_parallel_emit_identical_segment_sets() {
        // Loads sum well past MIN_PARALLEL_UNITS so the pool really spawns.
        let loads: Vec<usize> = (0..200).map(|i| (i * 7) % 101).collect();
        assert!(loads.iter().sum::<usize>() as u64 >= MIN_PARALLEL_UNITS);
        let p = plan(&loads, 4);

        let serial = JoinPool::new(1);
        let mut a = serial.run_kernel(&gpu(), &p, &emit_body).into_segments();
        let par = JoinPool::new(3);
        let mut b = par.run_kernel(&gpu(), &p, &emit_body).into_segments();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(serial.work_span().0, par.work_span().0);
    }

    #[test]
    fn work_span_accounting() {
        let loads = vec![2_000usize; 8]; // 8 tasks, wpb 2 → 4 blocks of 4000
        let p = plan(&loads, 2);

        let serial = JoinPool::new(1);
        serial.run_kernel(&gpu(), &p, &emit_body);
        assert_eq!(serial.work_span(), (16_000, 16_000));

        let par = JoinPool::new(4);
        par.run_kernel(&gpu(), &p, &emit_body);
        let (work, span) = par.work_span();
        assert_eq!(work, 16_000);
        // The critical path is at least one block and at most everything.
        assert!((4_000..=16_000).contains(&span), "span={span}");
    }

    #[test]
    fn small_launches_run_inline_without_splitting_span() {
        // Below MIN_PARALLEL_UNITS the pool is bypassed: one shard, span
        // honestly equals work.
        let p = plan(&[10usize; 8], 2);
        let par = JoinPool::new(4);
        par.run_kernel(&gpu(), &p, &emit_body);
        assert_eq!(par.work_span(), (80, 80));
    }

    #[test]
    fn parallel_with_zero_threads_resolves_to_available() {
        // "0 = all cores" is resolved once, when the engine is built.
        let engine = GsiEngine::with_gpu(GsiConfig::default().with_join_threads(0), gpu());
        assert!(engine.config().join_threads >= 1);
    }

    #[test]
    fn latency_model_sleeps_proportionally() {
        let mut cfg = DeviceConfig::test_device();
        cfg.stream_latency_ns = 1_000; // 1 µs per element
        let g = Gpu::new(cfg);
        let p = plan(&[500usize; 8], 8); // 4000 elements → 4 ms
        let serial = JoinPool::new(1);
        let t = std::time::Instant::now();
        serial.run_kernel(&g, &p, &emit_body);
        assert!(t.elapsed() >= Duration::from_millis(3));
    }
}
