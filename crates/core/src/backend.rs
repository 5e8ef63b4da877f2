//! The join pool: the host threads that compute the join phase's passes.
//!
//! ```text
//!   join iteration (prealloc / two-step — Algorithms 3-4, what to compute)
//!     └── JoinPool (this module — which host thread computes which rows)
//!           └── gsi_gpu_sim device (transaction/work accounting, §II-B)
//! ```
//!
//! Every pass is planned as kernel launches ([`KernelPlan`], §VI-A's load
//! balance), and the plan stays the record of what the device does:
//! [`RowTasks::charge`] charges each planned launch and regroups its warp
//! tasks by row, each task's duplicate-removal ownership decided within its
//! planned block. The host then computes every row **whole, in row
//! order**: a row's planned chunks run in range order on one worker, each
//! still charged from its own range and output count.
//!
//! The pool's one knob is its width
//! ([`GsiConfig::join_threads`](crate::GsiConfig::join_threads)). One
//! thread (the default) computes every row on the calling thread — the
//! deterministic reference of the paper's cost analysis (§V, §VI-A). More
//! threads split a pass's rows into contiguous groups balanced by load;
//! each worker writes only its own part of the output and charges a ledger
//! of its own, folded into the query's when the pass returns
//! (`gsi_gpu_sim::kernel::run_workers`). Device counters are therefore
//! **exactly** equal at every width and the tables **bit-identical** (see
//! `tests/backend_equivalence.rs` and `tests/device_ledger_pinned.rs`).
//!
//! The pool also accounts a work/span pair per query: total streamed
//! elements vs. the busiest group's, summed over passes — the host's row
//! split, not the modeled SMs'. When the device models memory latency
//! ([`gsi_gpu_sim::DeviceConfig::stream_latency_ns`]), each worker sleeps
//! its rows' share of it as it goes, and concurrent workers overlap those
//! sleeps with each other's work the way real SMs hide memory latency.

use crate::load_balance::{ChunkTask, KernelPlan};
use gsi_gpu_sim::kernel::{charge_launch, run_workers};
use gsi_gpu_sim::Gpu;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One planned warp task as the host runs it: a chunk of its row's stream
/// and whether its warp owns its input buffer (duplicate removal,
/// Algorithm 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowTask {
    /// Element range of the row's stream side the task covers.
    pub range: Range<usize>,
    /// `false` when the warp reuses an input list another warp of its
    /// planned block staged in shared memory.
    pub owns_input: bool,
}

/// A pass's planned warp tasks regrouped by row: row `r`'s chunks, in
/// range order, are `tasks[starts[r]..starts[r + 1]]`.
#[derive(Debug)]
pub struct RowTasks {
    starts: Vec<usize>,
    tasks: Vec<RowTask>,
}

impl RowTasks {
    /// Charge every planned launch — one launch, its overhead and its warp
    /// tasks, exactly as the device would run it — and regroup the launches'
    /// tasks by row. `owners(block)` decides, per planned block, which of
    /// the block's warps own their input.
    pub fn charge(
        gpu: &Gpu,
        plans: &[KernelPlan],
        n_rows: usize,
        owners: impl Fn(&[ChunkTask]) -> Vec<bool>,
    ) -> Self {
        let mut starts = vec![0usize; n_rows + 1];
        for t in plans.iter().flat_map(|p| &p.tasks) {
            starts[t.row + 1] += 1;
        }
        for r in 0..n_rows {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut tasks = vec![RowTask::default(); starts[n_rows]];
        let wpb_max = gpu.config().warps_per_block();
        for plan in plans {
            charge_launch(gpu, plan.tasks.len());
            for block in plan.tasks.chunks(plan.warps_per_block.clamp(1, wpb_max)) {
                for (t, owns_input) in block.iter().zip(owners(block)) {
                    tasks[next[t.row]] = RowTask {
                        range: t.range.clone(),
                        owns_input,
                    };
                    next[t.row] += 1;
                }
            }
        }
        // Balanced launches deal a row's chunks out of order.
        for r in 0..n_rows {
            let row = &mut tasks[starts[r]..starts[r + 1]];
            if row.len() > 1 {
                row.sort_unstable_by_key(|t| t.range.start);
            }
        }
        Self { starts, tasks }
    }

    /// Row `row`'s planned tasks, in range order.
    #[inline]
    pub fn of(&self, row: usize) -> &[RowTask] {
        &self.tasks[self.starts[row]..self.starts[row + 1]]
    }
}

/// Sleep granularity for the latency model: a worker's debt accumulates
/// row by row and is slept off in pieces of at least this much, so its
/// sleeps interleave with other workers' computation (OS sleeps under
/// ~100 µs are dominated by timer slack). What a sleep oversleeps is
/// credited against the debt, so the total slept does not grow with the
/// number of flushes.
const LATENCY_FLUSH_NS: i64 = 200_000;

/// Passes streaming fewer elements than this run inline: spawning a
/// scoped host thread costs ~50 µs, far more than the simulated work of a
/// small pass (the same cliff `kernel::launch_blocks` guards). Counters
/// are unaffected — execution is identical on any worker count — and span
/// honestly equals work for passes too small to share.
const MIN_PARALLEL_UNITS: u64 = 4096;

/// One query's join pool: `threads` host workers computing each pass's
/// rows, plus the query's work/span ledger. See the module docs.
#[derive(Debug)]
pub struct JoinPool {
    threads: usize,
    work: AtomicU64,
    span: AtomicU64,
}

impl JoinPool {
    /// A pool of `threads` workers; `0` or `1` computes every pass inline.
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

    /// Contiguous row groups of `0..units.len()`, one per worker, closed
    /// as each reaches its share of the pass's streamed elements. One group
    /// on a one-thread pool or for a pass too small to share.
    fn groups(&self, units: &[usize]) -> Vec<Range<usize>> {
        let total: u64 = units.iter().map(|&u| u as u64).sum();
        let mut groups = Vec::with_capacity(self.threads);
        if self.threads <= 1 || total < MIN_PARALLEL_UNITS {
            groups.push(0..units.len());
            return groups;
        }
        let k = self.threads as u64;
        let (mut start, mut acc) = (0, 0u64);
        for (r, &u) in units.iter().enumerate() {
            acc += u as u64;
            if groups.len() + 1 < self.threads && acc * k >= total * (groups.len() as u64 + 1) {
                groups.push(start..r + 1);
                start = r + 1;
            }
        }
        groups.push(start..units.len());
        groups.retain(|g| !g.is_empty());
        groups
    }

    /// Compute one pass: split its rows into groups balanced by `units`
    /// (each row's streamed elements), build each group's output part with
    /// `parts`, and run `row(gpu, r, part)` for every row of a group, in
    /// row order, on that group's worker, charging `gpu`. Returns the parts
    /// in row order. Device charges are identical at every width.
    pub fn run_rows<P, R>(
        &self,
        gpu: &Gpu,
        units: &[usize],
        parts: impl FnOnce(&[Range<usize>]) -> Vec<P>,
        row: R,
    ) -> Vec<P>
    where
        P: Send,
        R: Fn(&Gpu, usize, &mut P) + Sync,
    {
        let groups = self.groups(units);
        let group_units = |g: &Range<usize>| units[g.clone()].iter().map(|&u| u as u64).sum();
        let spans: Vec<u64> = groups.iter().map(group_units).collect();
        let parts = parts(&groups);
        assert_eq!(parts.len(), groups.len(), "one output part per row group");
        let mut workers: Vec<_> = groups.into_iter().zip(parts).collect();
        let latency_ns = gpu.config().stream_latency_ns;
        run_workers(gpu, &mut workers, |gpu, (rows, part)| {
            let mut debt_ns = 0i64;
            for r in rows.clone() {
                row(gpu, r, part);
                debt_ns += (units[r] as u64 * latency_ns) as i64;
                if debt_ns >= LATENCY_FLUSH_NS {
                    // gsi-lint: allow(trace-gating, reason = "reached only when the latency model sleeps, never with it off; times the oversleep")
                    let asleep = Instant::now();
                    std::thread::sleep(Duration::from_nanos(debt_ns as u64));
                    // Timer slack oversleeps; later rows' latency repays it.
                    debt_ns -= asleep.elapsed().as_nanos() as i64;
                }
            }
            if debt_ns > 0 {
                std::thread::sleep(Duration::from_nanos(debt_ns as u64));
            }
        });
        self.work.fetch_add(spans.iter().sum(), Ordering::Relaxed);
        self.span
            .fetch_add(spans.iter().copied().max().unwrap_or(0), Ordering::Relaxed);
        workers.into_iter().map(|(_, part)| part).collect()
    }

    /// `(work, span)` accumulated over every pass so far: total streamed
    /// elements, and the critical path of the host schedule (busiest group
    /// per pass, summed). `work == span` on one thread.
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
    use crate::config::LbParams;
    use crate::dedup::block_input_owners;
    use crate::load_balance::plan_kernels;
    use crate::table::RowBuffers;
    use crate::{GsiConfig, GsiEngine};
    use gsi_gpu_sim::{DeviceConfig, StatsSnapshot};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    /// A row pass with a synthetic body: every planned task streams its
    /// range (one GLD per element when it owns its input, none when a
    /// block-mate staged it) and appends `row * 10_000 + i` for each `i` of
    /// its range. Returns the pass's buffer and the tasks it ran.
    fn row_pass(
        pool: &JoinPool,
        gpu: &Gpu,
        loads: &[usize],
        link: &[u32],
    ) -> (RowBuffers, RowTasks) {
        let lb = LbParams::default();
        let plans = plan_kernels(loads, Some(&lb), gpu.config().warps_per_block());
        let tasks = RowTasks::charge(gpu, &plans, loads.len(), |block| {
            let vs: Vec<u32> = block.iter().map(|t| link[t.row]).collect();
            block_input_owners(true, block, loads, &vs)
        });
        let parts = pool.run_rows(
            gpu,
            loads,
            |groups| {
                groups
                    .iter()
                    .map(|g| RowBuffers::with_rows(g.len()))
                    .collect()
            },
            |gpu, row, out| {
                for t in tasks.of(row) {
                    if t.owns_input {
                        gpu.stats().add_gld(t.range.len() as u64);
                    }
                    gpu.stats().add_work(t.range.len() as u64);
                    out.tail()
                        .extend(t.range.clone().map(|i| (row * 10_000 + i) as u32));
                }
                out.end_row();
            },
        );
        (RowBuffers::concat(parts), tasks)
    }

    #[test]
    fn row_passes_at_widths_1_and_3_build_identical_buffers_and_charges() {
        // Row 0 streams 1,000 elements: above W3 (256), so the plan splits
        // it into four chunks dealt across blocks. Rows 1.. are whole tasks
        // whose link vertices repeat, so blocks share input lists.
        let mut loads = vec![1_000usize];
        loads.extend((1..400).map(|r| 5 + r % 23));
        let link: Vec<u32> = (0..loads.len() as u32).map(|r| r % 7).collect();
        assert!(loads.iter().sum::<usize>() as u64 >= MIN_PARALLEL_UNITS);

        let run = |threads: usize| {
            let g = gpu();
            let pool = JoinPool::new(threads);
            let (bufs, tasks) = row_pass(&pool, &g, &loads, &link);
            (bufs, tasks, g.stats().snapshot(), pool.work_span())
        };
        let (serial, tasks, serial_ledger, (serial_work, _)) = run(1);
        let (parallel, _, parallel_ledger, (parallel_work, span)) = run(3);

        assert!(tasks.of(0).len() >= 3, "row 0 is split into chunks");
        let all: Vec<&RowTask> = (0..loads.len()).flat_map(|r| tasks.of(r)).collect();
        assert!(
            all.iter().any(|t| !t.owns_input),
            "a whole task shares its input"
        );
        assert_eq!(serial, parallel, "identical buffers");
        for (r, &load) in loads.iter().enumerate() {
            let want: Vec<u32> = (0..load).map(|i| (r * 10_000 + i) as u32).collect();
            assert_eq!(
                serial.row(r),
                want.as_slice(),
                "row {r} whole, in range order"
            );
        }
        let plans = plan_kernels(&loads, Some(&LbParams::default()), 32);
        let owned: u64 = all
            .iter()
            .filter(|t| t.owns_input)
            .map(|t| t.range.len() as u64)
            .sum();
        let expect = StatsSnapshot {
            gld_transactions: owned,
            kernel_launches: plans.len() as u64,
            warp_tasks: all.len() as u64,
            work_units: loads.iter().sum::<usize>() as u64,
            ..StatsSnapshot::default()
        };
        assert_eq!(serial_ledger, expect, "exact charges at width 1");
        assert_eq!(parallel_ledger, expect, "exact charges at width 3");
        assert_eq!(serial_work, parallel_work);
        assert!(span < parallel_work, "three groups share the pass");
    }

    fn units_pass(pool: &JoinPool, gpu: &Gpu, loads: &[usize]) {
        pool.run_rows(gpu, loads, |groups| vec![(); groups.len()], |_, _, _| {});
    }

    #[test]
    fn work_span_accounting() {
        let loads = vec![2_000usize; 8];

        let serial = JoinPool::new(1);
        units_pass(&serial, &gpu(), &loads);
        assert_eq!(serial.work_span(), (16_000, 16_000));

        let par = JoinPool::new(4);
        units_pass(&par, &gpu(), &loads);
        // Four balanced groups of two rows each.
        assert_eq!(par.work_span(), (16_000, 4_000));
    }

    #[test]
    fn small_launches_run_inline_without_splitting_span() {
        // Below MIN_PARALLEL_UNITS the pass runs as one group: span
        // honestly equals work.
        let par = JoinPool::new(4);
        units_pass(&par, &gpu(), &[10usize; 8]);
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
        let serial = JoinPool::new(1);
        let t = std::time::Instant::now();
        units_pass(&serial, &g, &[500usize; 8]); // 4000 elements → 4 ms
        assert!(t.elapsed() >= Duration::from_millis(3));
    }
}
