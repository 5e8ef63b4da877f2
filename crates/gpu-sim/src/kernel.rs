//! Kernel launch and block scheduling.
//!
//! A simulated kernel is a set of *warp tasks* (in GSI, one task per
//! intermediate-table row — Algorithm 3 line 7). Tasks are grouped into
//! blocks of `warps_per_block` warps; blocks execute on a pool of host
//! worker threads playing the role of SMs. Within a block, warps run
//! sequentially on one thread — mirroring the fact that a block is resident
//! on a single SM — so a block's wall time is the sum of its warps' work and
//! *skewed per-warp workloads produce real imbalance*, which §VI-A's 4-layer
//! load-balance scheme then measurably repairs.
//!
//! A kernel body charges the handle in its [`BlockCtx`]. A launch that runs
//! inline hands the body the launching handle itself; a launch spread over
//! host workers gives each worker a [`Gpu::scoped`] ledger and folds the
//! workers' sums into the launching handle once, when the last worker has
//! finished. Launches from different host threads therefore never charge
//! one ledger side by side, and need not take turns on the device.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::device::Gpu;
use crate::shared::SharedMem;

/// How blocks are assigned to worker threads (SMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Contiguous chunks of blocks per worker, fixed up front. Most sensitive
    /// to inter-block imbalance; models a naive grid-stride assignment.
    Static,
    /// Workers pull the next block from a shared counter as they finish —
    /// the hardware-like greedy block scheduler.
    #[default]
    Dynamic,
}

/// Per-block execution context handed to the kernel body.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    /// Index of this block within the grid.
    pub block_id: usize,
    /// Global index of the block's first warp task.
    pub first_task: usize,
    /// The block's shared-memory arena (capacity-enforced).
    pub shared: SharedMem,
    /// The handle this block charges: the launching handle when the launch
    /// runs inline, the executing worker's own ledger otherwise.
    pub gpu: &'a Gpu,
}

/// Run `work(worker, handle, state)` on one scoped host thread per state,
/// each charging a fresh ledger of its own, then fold every worker's ledger
/// into `gpu`'s — once per worker, after all of them have finished.
///
/// std's scope reports child panics with its own opaque message; they are
/// re-raised here in the simulator's "worker panicked" framing.
fn on_workers<S, W>(gpu: &Gpu, states: &mut [S], work: W)
where
    S: Send,
    W: Fn(usize, &Gpu, &mut S) + Sync,
{
    let ledgers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                let work = &work;
                s.spawn(move || {
                    let local = gpu.scoped();
                    work(w, &local, state);
                    local.stats().snapshot()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    for ledger in ledgers {
        match ledger {
            Ok(l) => gpu.stats().absorb(&l),
            Err(_) => panic!("simulated kernel worker panicked"),
        }
    }
}

/// Launch a kernel whose body processes one *block* of warp tasks at a time.
///
/// `f` is invoked once per block with the block context and the slice of
/// tasks owned by that block's warps; it should iterate the slice, treating
/// each element as one warp's assignment, and charge `ctx.gpu`. Records one
/// kernel launch, charges the configured launch overhead, and counts
/// `tasks.len()` warp tasks.
pub fn launch_blocks<T, F>(gpu: &Gpu, tasks: &[T], warps_per_block: usize, sched: Schedule, f: F)
where
    T: Sync,
    F: Fn(&mut BlockCtx<'_>, &[T]) + Sync,
{
    let stats = gpu.stats();
    stats.record_kernel_launch();
    gpu.charge_launch_overhead();
    stats.add_warp_tasks(tasks.len() as u64);
    if tasks.is_empty() {
        return;
    }

    let wpb = warps_per_block.clamp(1, gpu.config().warps_per_block());
    let num_blocks = tasks.len().div_ceil(wpb);
    let shared_cap = gpu.config().shared_mem_per_block;

    let run_block = |block_id: usize, gpu: &Gpu| {
        let first = block_id * wpb;
        let end = (first + wpb).min(tasks.len());
        let mut ctx = BlockCtx {
            block_id,
            first_task: first,
            shared: SharedMem::new(shared_cap),
            gpu,
        };
        f(&mut ctx, &tasks[first..end]);
    };

    // Small launches run inline: spawning host threads costs ~50 µs each,
    // far more than a real kernel launch, and would drown the measurement.
    // Launches big enough for wall-clock signal get the full pool.
    let workers = if tasks.len() < 4096 {
        1
    } else {
        gpu.config().resolved_workers().min(num_blocks)
    };
    if workers <= 1 {
        for b in 0..num_blocks {
            run_block(b, gpu);
        }
        return;
    }

    match sched {
        Schedule::Dynamic => {
            let next = AtomicUsize::new(0);
            on_workers(gpu, &mut vec![(); workers], |_, local, ()| loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= num_blocks {
                    break;
                }
                run_block(b, local);
            });
        }
        Schedule::Static => {
            let per_worker = num_blocks.div_ceil(workers);
            on_workers(gpu, &mut vec![(); workers], |w, local, ()| {
                let hi = ((w + 1) * per_worker).min(num_blocks);
                for b in w * per_worker..hi {
                    run_block(b, local);
                }
            });
        }
    }
}

/// Launch a kernel over an *explicit* worker pool with per-worker state.
///
/// This is the primitive execution backends build on: the caller decides how
/// many host workers play SM (`states.len()` — the legacy heuristic of
/// [`launch_blocks`] is bypassed), and each worker carries a private mutable
/// state `S` (e.g. a shard of the output table) that `f` can write without
/// synchronization, next to the private ledger in its [`BlockCtx`]. Blocks
/// are pulled dynamically from a shared counter, so per-worker block sets
/// depend on timing — callers needing determinism must make `f`'s effects
/// order-independent (ledger sums and keyed output segments both are).
///
/// Records one kernel launch, charges the configured launch overhead, counts
/// `tasks.len()` warp tasks, and returns the worker states. With a single
/// state (or a single block) the launch runs inline on the calling thread —
/// the faithful sequential simulation.
pub fn launch_blocks_stateful<T, S, F>(
    gpu: &Gpu,
    tasks: &[T],
    warps_per_block: usize,
    mut states: Vec<S>,
    f: F,
) -> Vec<S>
where
    T: Sync,
    S: Send,
    F: Fn(&mut BlockCtx<'_>, &[T], &mut S) + Sync,
{
    assert!(!states.is_empty(), "at least one worker state required");
    let stats = gpu.stats();
    stats.record_kernel_launch();
    gpu.charge_launch_overhead();
    stats.add_warp_tasks(tasks.len() as u64);
    if tasks.is_empty() {
        return states;
    }

    let wpb = warps_per_block.clamp(1, gpu.config().warps_per_block());
    let num_blocks = tasks.len().div_ceil(wpb);
    let shared_cap = gpu.config().shared_mem_per_block;

    let run_block = |block_id: usize, gpu: &Gpu, state: &mut S| {
        let first = block_id * wpb;
        let end = (first + wpb).min(tasks.len());
        let mut ctx = BlockCtx {
            block_id,
            first_task: first,
            shared: SharedMem::new(shared_cap),
            gpu,
        };
        f(&mut ctx, &tasks[first..end], state);
    };

    if states.len() == 1 || num_blocks == 1 {
        let state = &mut states[0];
        for b in 0..num_blocks {
            run_block(b, gpu, state);
        }
        return states;
    }

    // More states than blocks: the excess workers never start.
    let n_workers = states.len().min(num_blocks);
    let next = AtomicUsize::new(0);
    on_workers(gpu, &mut states[..n_workers], |_, local, state| loop {
        let b = next.fetch_add(1, Ordering::Relaxed);
        if b >= num_blocks {
            break;
        }
        run_block(b, local, state);
    });
    states
}

/// Launch a kernel with one warp per task, using full blocks and the dynamic
/// scheduler. `f` receives the handle to charge, the global warp (task) id
/// and the task itself.
pub fn launch_warp_tasks<T, F>(gpu: &Gpu, tasks: &[T], f: F)
where
    T: Sync,
    F: Fn(&Gpu, usize, &T) + Sync,
{
    let wpb = gpu.config().warps_per_block();
    launch_blocks(gpu, tasks, wpb, Schedule::Dynamic, |ctx, block_tasks| {
        for (i, t) in block_tasks.iter().enumerate() {
            f(ctx.gpu, ctx.first_task + i, t);
        }
    });
}

/// Launch one warp per task and collect each task's result, in task order.
pub fn launch_map<T, R, F>(gpu: &Gpu, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&Gpu, usize, &T) -> R + Sync,
{
    use parking_lot::Mutex;
    let slots: Vec<Mutex<Option<R>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
    launch_warp_tasks(gpu, tasks, |g, wid, t| {
        *slots[wid].lock() = Some(f(g, wid, t));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("task produced no result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use std::sync::atomic::AtomicU64;

    fn gpu(workers: usize) -> Gpu {
        let mut cfg = DeviceConfig::test_device();
        cfg.worker_threads = workers;
        Gpu::new(cfg)
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for workers in [1, 4] {
            let g = gpu(workers);
            let n = 1000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let tasks: Vec<usize> = (0..n).collect();
            launch_warp_tasks(&g, &tasks, |_, _wid, &t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn warp_ids_match_tasks() {
        let g = gpu(1);
        let tasks: Vec<u32> = (0..100).collect();
        launch_warp_tasks(&g, &tasks, |_, wid, &t| {
            assert_eq!(wid as u32, t);
        });
    }

    #[test]
    fn records_launch_and_warp_tasks() {
        let g = gpu(2);
        let tasks = vec![(); 65];
        launch_blocks(&g, &tasks, 32, Schedule::Dynamic, |_, _| {});
        let snap = g.stats().snapshot();
        assert_eq!(snap.kernel_launches, 1);
        assert_eq!(snap.warp_tasks, 65);
    }

    #[test]
    fn empty_launch_still_counts_kernel() {
        let g = gpu(2);
        let tasks: Vec<u32> = vec![];
        launch_blocks(&g, &tasks, 32, Schedule::Dynamic, |_, _| {});
        assert_eq!(g.stats().snapshot().kernel_launches, 1);
    }

    #[test]
    fn block_partitioning_covers_all_tasks() {
        let g = gpu(3);
        let tasks: Vec<usize> = (0..77).collect();
        let seen: Vec<AtomicU64> = (0..77).map(|_| AtomicU64::new(0)).collect();
        launch_blocks(&g, &tasks, 8, Schedule::Static, |ctx, block| {
            assert!(block.len() <= 8);
            assert_eq!(ctx.first_task % 8, 0);
            for t in block {
                seen[*t].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(seen.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn shared_memory_capacity_is_device_limit() {
        let g = gpu(1);
        let tasks = vec![()];
        launch_blocks(&g, &tasks, 32, Schedule::Dynamic, |ctx, _| {
            assert_eq!(ctx.shared.capacity(), 48 * 1024);
        });
    }

    #[test]
    fn warps_per_block_is_clamped() {
        let g = gpu(1);
        let tasks = vec![0u32; 100];
        // Request an over-wide block; the launcher clamps to the device max.
        launch_blocks(&g, &tasks, 10_000, Schedule::Dynamic, |_, block| {
            assert!(block.len() <= 32);
        });
    }

    #[test]
    fn launch_map_collects_in_task_order() {
        let g = gpu(4);
        let tasks: Vec<u32> = (0..5000).collect();
        let out = launch_map(&g, &tasks, |_, wid, &t| {
            assert_eq!(wid as u32, t);
            t * 2
        });
        assert_eq!(out.len(), 5000);
        assert!(out.iter().enumerate().all(|(i, &r)| r == 2 * i as u32));
    }

    #[test]
    fn launch_map_empty() {
        let g = gpu(2);
        let tasks: Vec<u32> = vec![];
        let out: Vec<u32> = launch_map(&g, &tasks, |_, _, &t| t);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn kernel_panics_propagate_from_workers() {
        let g = gpu(4);
        // Large enough to take the threaded path.
        let tasks: Vec<usize> = (0..10_000).collect();
        launch_warp_tasks(&g, &tasks, |_, _wid, &t| {
            assert!(t < 9_999, "injected fault");
        });
    }

    #[test]
    fn stateful_launch_covers_all_tasks_and_returns_states() {
        for workers in [1, 3, 8] {
            let g = gpu(1);
            let n = 500;
            let tasks: Vec<usize> = (0..n).collect();
            let states: Vec<Vec<usize>> = vec![Vec::new(); workers];
            let states = launch_blocks_stateful(
                &g,
                &tasks,
                8,
                states,
                |_ctx, block, seen: &mut Vec<usize>| {
                    seen.extend(block.iter().copied());
                },
            );
            assert_eq!(states.len(), workers);
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, tasks, "workers={workers}");
        }
    }

    #[test]
    fn stateful_launch_records_stats_once() {
        let g = gpu(1);
        let tasks = vec![(); 65];
        launch_blocks_stateful(&g, &tasks, 32, vec![(), ()], |_, _, _| {});
        let snap = g.stats().snapshot();
        assert_eq!(snap.kernel_launches, 1);
        assert_eq!(snap.warp_tasks, 65);
    }

    #[test]
    fn stateful_launch_empty_tasks() {
        let g = gpu(1);
        let tasks: Vec<u32> = vec![];
        let states = launch_blocks_stateful(&g, &tasks, 32, vec![0u32; 4], |_, _, _| {
            panic!("no block should run");
        });
        assert_eq!(states, vec![0; 4]);
        assert_eq!(g.stats().snapshot().kernel_launches, 1);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn stateful_launch_propagates_worker_panics() {
        let g = gpu(1);
        let tasks: Vec<usize> = (0..200).collect();
        launch_blocks_stateful(&g, &tasks, 8, vec![(), (), ()], |_ctx, block, _| {
            assert!(block.iter().all(|&t| t < 199), "injected fault");
        });
    }

    #[test]
    fn worker_ledgers_fold_into_the_launching_handle_exactly() {
        // One GLD per task, charged to each worker's own ledger: every
        // schedule and worker count folds to the same exact launch total,
        // and nothing leaks to a handle that did not launch.
        let n = 9_000; // above the inline threshold
        let tasks: Vec<usize> = (0..n).collect();
        for workers in [1, 4] {
            for sched in [Schedule::Dynamic, Schedule::Static] {
                let device = gpu(workers);
                let query = device.scoped();
                launch_blocks(&query, &tasks, 32, sched, |ctx, block| {
                    ctx.gpu.stats().add_gld(block.len() as u64);
                });
                let snap = query.stats().snapshot();
                assert_eq!(snap.gld_transactions, n as u64, "{workers} {sched:?}");
                assert_eq!(snap.kernel_launches, 1);
                assert_eq!(device.stats().snapshot(), Default::default());
            }
            let query = gpu(1);
            let states = launch_blocks_stateful(&query, &tasks, 8, vec![0u64; workers], {
                |ctx: &mut BlockCtx<'_>, block: &[usize], seen: &mut u64| {
                    ctx.gpu.stats().add_work(block.len() as u64);
                    *seen += block.len() as u64;
                }
            });
            assert_eq!(states.iter().sum::<u64>(), n as u64);
            assert_eq!(query.stats().snapshot().work_units, n as u64);
        }
    }

    #[test]
    fn static_schedule_covers_all_tasks_multithreaded() {
        let g = gpu(6);
        let n = 9_000; // above the inline threshold
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let tasks: Vec<usize> = (0..n).collect();
        launch_blocks(&g, &tasks, 32, Schedule::Static, |_ctx, block| {
            for &t in block {
                hits[t].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
