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

/// Launches with fewer warp tasks than this run inline: spawning host
/// threads costs ~50 µs each, far more than a real kernel launch, and would
/// drown the measurement. Launches big enough for wall-clock signal get the
/// device's full worker pool.
const INLINE_TASKS: usize = 4096;

/// Launch a kernel whose body processes one *block* of warp tasks at a time.
///
/// `f` is invoked once per block with the block context and the slice of
/// tasks owned by that block's warps; it should iterate the slice, treating
/// each element as one warp's assignment, and charge `ctx.gpu`. Records one
/// kernel launch, charges the configured launch overhead, and counts
/// `tasks.len()` warp tasks. Launches of 4,096 tasks or more are
/// drained by the device's `worker_threads`, the way SMs drain a launch:
/// each worker pulls blocks from a shared counter.
pub fn launch_blocks<T, F>(gpu: &Gpu, tasks: &[T], warps_per_block: usize, f: F)
where
    T: Sync,
    F: Fn(&mut BlockCtx<'_>, &[T]) + Sync,
{
    charge_launch(gpu, tasks.len());
    if tasks.is_empty() {
        return;
    }
    let wpb = warps_per_block.clamp(1, gpu.config().warps_per_block());
    let num_blocks = tasks.len().div_ceil(wpb);
    let shared_cap = gpu.config().shared_mem_per_block;
    let workers = if tasks.len() < INLINE_TASKS {
        1
    } else {
        gpu.config().worker_threads.min(num_blocks)
    };
    let next = AtomicUsize::new(0);
    run_workers(gpu, &mut vec![(); workers], |gpu, ()| loop {
        let block_id = next.fetch_add(1, Ordering::Relaxed);
        if block_id >= num_blocks {
            break;
        }
        let first = block_id * wpb;
        let end = (first + wpb).min(tasks.len());
        let mut ctx = BlockCtx {
            block_id,
            first_task: first,
            shared: SharedMem::new(shared_cap),
            gpu,
        };
        f(&mut ctx, &tasks[first..end]);
    });
}

/// Charge one kernel launch of `n_tasks` warp tasks: the launch count, the
/// configured launch overhead and the warp-task count. [`launch_blocks`]
/// charges this itself; a caller that executes a planned launch's tasks in
/// another order (the engine's join pool runs them row by row) charges it
/// once per planned launch.
pub fn charge_launch(gpu: &Gpu, n_tasks: usize) {
    let stats = gpu.stats();
    stats.record_kernel_launch();
    gpu.charge_launch_overhead();
    stats.add_warp_tasks(n_tasks as u64);
}

/// Run `f` once per worker state, on as many host workers as there are
/// states, and fold what they charged into `gpu`'s ledger.
///
/// One state runs inline on the calling thread and charges `gpu` itself —
/// the faithful sequential simulation. With more, each worker gets a scoped
/// thread and a fresh ledger of its own ([`Gpu::scoped`]); every ledger is
/// folded into `gpu`'s once, after all workers have finished, so no two
/// threads ever charge one ledger side by side. This is the one spawn/fold
/// path of the simulator: [`launch_blocks`] and the join pool both use it.
pub fn run_workers<S, F>(gpu: &Gpu, states: &mut [S], f: F)
where
    S: Send,
    F: Fn(&Gpu, &mut S) + Sync,
{
    if let [state] = states {
        f(gpu, state);
        return;
    }
    // std's scope reports child panics with its own opaque message; they
    // are re-raised here in the simulator's "worker panicked" framing.
    let ledgers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let f = &f;
                s.spawn(move || {
                    let local = gpu.scoped();
                    f(&local, state);
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

/// Launch a kernel with one warp per task, using full blocks. `f` receives
/// the handle to charge, the global warp (task) id and the task itself.
pub fn launch_warp_tasks<T, F>(gpu: &Gpu, tasks: &[T], f: F)
where
    T: Sync,
    F: Fn(&Gpu, usize, &T) + Sync,
{
    let wpb = gpu.config().warps_per_block();
    launch_blocks(gpu, tasks, wpb, |ctx, block_tasks| {
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
        launch_blocks(&g, &tasks, 32, |_, _| {});
        let snap = g.stats().snapshot();
        assert_eq!(snap.kernel_launches, 1);
        assert_eq!(snap.warp_tasks, 65);
    }

    #[test]
    fn empty_launch_still_counts_kernel() {
        let g = gpu(2);
        let tasks: Vec<u32> = vec![];
        launch_blocks(&g, &tasks, 32, |_, _| {});
        assert_eq!(g.stats().snapshot().kernel_launches, 1);
    }

    #[test]
    fn block_partitioning_covers_all_tasks() {
        let g = gpu(3);
        let tasks: Vec<usize> = (0..77).collect();
        let seen: Vec<AtomicU64> = (0..77).map(|_| AtomicU64::new(0)).collect();
        launch_blocks(&g, &tasks, 8, |ctx, block| {
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
        launch_blocks(&g, &tasks, 32, |ctx, _| {
            assert_eq!(ctx.shared.capacity(), 48 * 1024);
        });
    }

    #[test]
    fn warps_per_block_is_clamped() {
        let g = gpu(1);
        let tasks = vec![0u32; 100];
        // Request an over-wide block; the launcher clamps to the device max.
        launch_blocks(&g, &tasks, 10_000, |_, block| {
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
    fn run_workers_hands_each_state_to_one_worker() {
        for workers in [1, 3, 8] {
            let g = gpu(1);
            let n = 500;
            let mut states: Vec<(std::ops::Range<usize>, Vec<usize>)> = (0..workers)
                .map(|w| (w * n / workers..(w + 1) * n / workers, Vec::new()))
                .collect();
            run_workers(&g, &mut states, |_, (range, seen)| {
                seen.extend(range.clone());
            });
            let all: Vec<usize> = states.into_iter().flat_map(|(_, seen)| seen).collect();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn charge_launch_records_one_launch_and_its_tasks() {
        let g = gpu(1);
        charge_launch(&g, 65);
        run_workers(&g, &mut [(), ()], |_, _| {});
        let snap = g.stats().snapshot();
        assert_eq!(snap.kernel_launches, 1);
        assert_eq!(snap.warp_tasks, 65);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn run_workers_propagates_worker_panics() {
        let g = gpu(1);
        run_workers(&g, &mut [0, 1, 2], |_, &mut w| {
            assert!(w < 2, "injected fault");
        });
    }

    #[test]
    fn worker_ledgers_fold_into_the_launching_handle_exactly() {
        // One GLD per task, charged to each worker's own ledger: every
        // worker count folds to the same exact launch total, and nothing
        // leaks to a handle that did not launch.
        let n = 9_000; // above the inline threshold
        let tasks: Vec<usize> = (0..n).collect();
        for workers in [1, 4] {
            let device = gpu(workers);
            let query = device.scoped();
            launch_blocks(&query, &tasks, 32, |ctx, block| {
                ctx.gpu.stats().add_gld(block.len() as u64);
            });
            let snap = query.stats().snapshot();
            assert_eq!(snap.gld_transactions, n as u64, "{workers}");
            assert_eq!(snap.kernel_launches, 1);
            assert_eq!(device.stats().snapshot(), Default::default());
            let query = gpu(1);
            let mut states = vec![n as u64 / workers as u64; workers];
            run_workers(&query, &mut states, |gpu, units| {
                gpu.stats().add_work(*units)
            });
            assert_eq!(states.iter().sum::<u64>(), n as u64);
            assert_eq!(query.stats().snapshot().work_units, n as u64);
        }
    }
}
