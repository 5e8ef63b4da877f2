//! Execution backends: *who runs* the planned join kernels.
//!
//! The layer stack of the engine is
//!
//! ```text
//!   JoinStrategy (prealloc / two-step — Algorithms 3-4, what to compute)
//!     └── ExecBackend (this module — how kernel plans execute on the host)
//!           └── gsi_gpu_sim device (transaction/work accounting, §II-B)
//! ```
//!
//! A [`JoinStrategy`](crate::strategy::JoinStrategy) decides *what* each
//! iteration computes; the [`ExecBackend`] decides *how* the resulting
//! [`KernelPlan`]s execute on host hardware. Two implementations:
//!
//! * [`SerialBackend`] — one host thread executes every block in grid
//!   order. This is the faithful deterministic reference: it models the
//!   paper's cost analysis (§V, §VI-A) where only the *accounted* device
//!   parallelism matters, not the host's.
//! * [`HostParallelBackend`] — a real `std::thread::scope` worker pool
//!   pulls blocks dynamically, mirroring how a GPU's SMs drain the block
//!   queue of a launch (§II-B's execution model; the paper's Titan XP has
//!   30 SMs). This delivers the *intra-query* parallelism GSI's design is
//!   built around — "all linking-edge kernels run exactly once, in
//!   parallel" (§V Prealloc-Combine) — as actual host concurrency.
//!
//! Both backends charge the same per-task device transactions — a host
//! worker charges a ledger of its own, folded into the query's when the
//! launch returns — so their counters are **exactly** equal; workers write
//! keyed output segments into private [`TableShard`]s, so the merged tables
//! are **bit-identical** (see `tests/backend_equivalence.rs`).
//!
//! Backends also account a work/span pair per query — total streamed
//! elements vs. the critical path of the schedule (the busiest worker's
//! share, summed over launches). `work / span` is the parallel speedup the
//! schedule admits independent of host core count, the quantity §VI-A's
//! load balancing maximizes. When the device models memory latency
//! ([`gsi_gpu_sim::DeviceConfig::stream_latency_ns`]), each worker sleeps
//! its share of the latency — concurrent workers overlap those sleeps the
//! way real SMs hide memory latency, so the speedup is also visible in
//! wall-clock time.

use crate::config::BackendKind;
use crate::load_balance::{ChunkTask, KernelPlan};
use crate::table::{TableShard, TableShards};
use gsi_gpu_sim::kernel::{launch_blocks_stateful, BlockCtx};
use gsi_gpu_sim::Gpu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The kernel body a strategy hands to a backend: called once per block
/// with the block's warp tasks and the executing worker's private shard.
pub type BlockBody<'a> = dyn Fn(&mut BlockCtx, &[ChunkTask], &mut TableShard) + Sync + 'a;

/// How planned join kernels execute on the host. See the module docs for
/// the layer stack and the two implementations.
pub trait ExecBackend: Send + Sync + std::fmt::Debug {
    /// Which configured backend this is.
    fn kind(&self) -> BackendKind;

    /// Execute one planned kernel launch, returning the per-worker output
    /// shards. Device charges (one launch, `tasks.len()` warp tasks, plus
    /// whatever `body` charges) are identical across backends.
    fn run_kernel(&self, gpu: &Gpu, plan: &KernelPlan, body: &BlockBody<'_>) -> TableShards;

    /// `(work, span)` accumulated over every launch so far: total streamed
    /// elements, and the critical path of the executed schedule (busiest
    /// worker per launch, summed). `work == span` for the serial backend.
    fn work_span(&self) -> (u64, u64);
}

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

/// Run `plan` on `workers` host threads; returns the shards plus
/// `(work, span)` of this launch.
fn execute(
    gpu: &Gpu,
    plan: &KernelPlan,
    workers: usize,
    body: &BlockBody<'_>,
) -> (TableShards, u64, u64) {
    let latency_ns = gpu.config().stream_latency_ns;
    let states: Vec<WorkerCtx> = (0..workers.max(1))
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
    // Leftover latency debt: each worker owes < LATENCY_FLUSH_NS; concurrent
    // workers would overlap, so one sleep of the maximum is the faithful
    // residual.
    if latency_ns > 0 {
        if let Some(max_debt) = states.iter().map(|s| s.debt_ns).max() {
            if max_debt > 0 {
                std::thread::sleep(Duration::from_nanos(max_debt));
            }
        }
    }
    let work: u64 = states.iter().map(|s| s.units).sum();
    let span: u64 = states.iter().map(|s| s.units).max().unwrap_or(0);
    let shards = TableShards::from_shards(states.into_iter().map(|s| s.shard).collect());
    (shards, work, span)
}

/// The faithful sequential simulation: every block of every launch runs on
/// the calling thread, in grid order. Models the paper's single-device
/// cost analysis; fully deterministic.
#[derive(Debug, Default)]
pub struct SerialBackend {
    work: AtomicU64,
}

impl ExecBackend for SerialBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Serial
    }

    fn run_kernel(&self, gpu: &Gpu, plan: &KernelPlan, body: &BlockBody<'_>) -> TableShards {
        let (shards, work, _span) = execute(gpu, plan, 1, body);
        self.work.fetch_add(work, Ordering::Relaxed);
        shards
    }

    fn work_span(&self) -> (u64, u64) {
        let w = self.work.load(Ordering::Relaxed);
        (w, w)
    }
}

/// Real intra-query parallelism: a `std::thread::scope` pool of host
/// workers plays the device's SMs, draining each launch's blocks from a
/// shared counter (the hardware-like greedy block scheduler). Counters
/// stay exact (per-worker ledgers) and results bit-identical (keyed shard
/// segments); see the module docs.
#[derive(Debug)]
pub struct HostParallelBackend {
    threads: usize,
    work: AtomicU64,
    span: AtomicU64,
}

impl HostParallelBackend {
    /// Pool of `threads` workers; `0` uses all available host parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Self {
            threads,
            work: AtomicU64::new(0),
            span: AtomicU64::new(0),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Launches streaming fewer elements than this run inline: spawning a
/// scoped host thread costs ~50 µs, far more than the simulated work of a
/// small kernel (the same cliff `kernel::launch_blocks`' legacy heuristic
/// guards). Counters are unaffected — execution is identical on any worker
/// count — and span honestly equals work for launches too small to share.
const MIN_PARALLEL_UNITS: u64 = 4096;

impl ExecBackend for HostParallelBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::HostParallel
    }

    fn run_kernel(&self, gpu: &Gpu, plan: &KernelPlan, body: &BlockBody<'_>) -> TableShards {
        let total_units: u64 = plan.tasks.iter().map(|t| t.range.len() as u64).sum();
        let workers = if total_units < MIN_PARALLEL_UNITS {
            1
        } else {
            self.threads
        };
        let (shards, work, span) = execute(gpu, plan, workers, body);
        self.work.fetch_add(work, Ordering::Relaxed);
        self.span.fetch_add(span, Ordering::Relaxed);
        shards
    }

    fn work_span(&self) -> (u64, u64) {
        (
            self.work.load(Ordering::Relaxed),
            self.span.load(Ordering::Relaxed),
        )
    }
}

/// Instantiate the backend for a configured kind. `threads` only affects
/// [`BackendKind::HostParallel`] (`0` = all available cores).
pub fn make_backend(kind: BackendKind, threads: usize) -> Box<dyn ExecBackend> {
    match kind {
        BackendKind::Serial => Box::new(SerialBackend::default()),
        BackendKind::HostParallel => Box::new(HostParallelBackend::new(threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        let serial = SerialBackend::default();
        let mut a = serial.run_kernel(&gpu(), &p, &emit_body).into_segments();
        let par = HostParallelBackend::new(3);
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

        let serial = SerialBackend::default();
        serial.run_kernel(&gpu(), &p, &emit_body);
        assert_eq!(serial.work_span(), (16_000, 16_000));

        let par = HostParallelBackend::new(4);
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
        let par = HostParallelBackend::new(4);
        par.run_kernel(&gpu(), &p, &emit_body);
        assert_eq!(par.work_span(), (80, 80));
    }

    #[test]
    fn parallel_with_zero_threads_resolves_to_available() {
        let b = HostParallelBackend::new(0);
        assert!(b.threads() >= 1);
    }

    #[test]
    fn latency_model_sleeps_proportionally() {
        let mut cfg = DeviceConfig::test_device();
        cfg.stream_latency_ns = 1_000; // 1 µs per element
        let g = Gpu::new(cfg);
        let p = plan(&[500usize; 8], 8); // 4000 elements → 4 ms
        let serial = SerialBackend::default();
        let t = std::time::Instant::now();
        serial.run_kernel(&g, &p, &emit_body);
        assert!(t.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn make_backend_dispatches() {
        assert_eq!(
            make_backend(BackendKind::Serial, 0).kind(),
            BackendKind::Serial
        );
        assert_eq!(
            make_backend(BackendKind::HostParallel, 2).kind(),
            BackendKind::HostParallel
        );
    }
}
