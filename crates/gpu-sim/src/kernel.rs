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
//! A device runs one grid at a time: a launch holds its [`Gpu`] until the
//! last block has finished, and launches from other host threads on the
//! same device wait their turn (see [`Gpu`]).

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
pub struct BlockCtx {
    /// Index of this block within the grid.
    pub block_id: usize,
    /// Global index of the block's first warp task.
    pub first_task: usize,
    /// The block's shared-memory arena (capacity-enforced).
    pub shared: SharedMem,
}

/// Launch a kernel whose body processes one *block* of warp tasks at a time.
///
/// `f` is invoked once per block with the block context and the slice of
/// tasks owned by that block's warps; it should iterate the slice, treating
/// each element as one warp's assignment. Records one kernel launch, charges
/// the configured launch overhead, and counts `tasks.len()` warp tasks.
/// `f` must not launch on `gpu` itself: the device is held until it returns.
pub fn launch_blocks<T, F>(gpu: &Gpu, tasks: &[T], warps_per_block: usize, sched: Schedule, f: F)
where
    T: Sync,
    F: Fn(&mut BlockCtx, &[T]) + Sync,
{
    let _grid = gpu.begin_grid();
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

    let run_block = |block_id: usize| {
        let first = block_id * wpb;
        let end = (first + wpb).min(tasks.len());
        let mut ctx = BlockCtx {
            block_id,
            first_task: first,
            shared: SharedMem::new(shared_cap),
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
            run_block(b);
        }
        return;
    }

    // std's scope reports child panics with its own opaque message; translate
    // it so callers (and tests) see the simulator's "worker panicked" framing.
    let scoped = |f: &(dyn Fn() + Sync)| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .unwrap_or_else(|_| panic!("simulated kernel worker panicked"))
    };

    match sched {
        Schedule::Dynamic => {
            let next = AtomicUsize::new(0);
            scoped(&|| {
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| loop {
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            if b >= num_blocks {
                                break;
                            }
                            run_block(b);
                        });
                    }
                });
            });
        }
        Schedule::Static => {
            let per_worker = num_blocks.div_ceil(workers);
            scoped(&|| {
                std::thread::scope(|s| {
                    for w in 0..workers {
                        let lo = w * per_worker;
                        let hi = ((w + 1) * per_worker).min(num_blocks);
                        let run_block = &run_block;
                        s.spawn(move || {
                            for b in lo..hi {
                                run_block(b);
                            }
                        });
                    }
                });
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
/// synchronization. Blocks are pulled dynamically from a shared counter, so
/// per-worker block sets depend on timing — callers needing determinism must
/// make `f`'s effects order-independent (the ledger's atomic sums and keyed
/// output segments both are).
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
    F: Fn(&mut BlockCtx, &[T], &mut S) + Sync,
{
    assert!(!states.is_empty(), "at least one worker state required");
    let _grid = gpu.begin_grid();
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

    let run_block = |block_id: usize, state: &mut S| {
        let first = block_id * wpb;
        let end = (first + wpb).min(tasks.len());
        let mut ctx = BlockCtx {
            block_id,
            first_task: first,
            shared: SharedMem::new(shared_cap),
        };
        f(&mut ctx, &tasks[first..end], state);
    };

    if states.len() == 1 || num_blocks == 1 {
        let state = &mut states[0];
        for b in 0..num_blocks {
            run_block(b, state);
        }
        return states;
    }

    let next = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| {
            // More states than blocks: the excess workers never start.
            for state in states.iter_mut().take(num_blocks) {
                let next = &next;
                let run_block = &run_block;
                s.spawn(move || loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= num_blocks {
                        break;
                    }
                    run_block(b, state);
                });
            }
        });
    }));
    result.unwrap_or_else(|_| panic!("simulated kernel worker panicked"));
    states
}

/// Launch a kernel with one warp per task, using full blocks and the dynamic
/// scheduler. `f` receives the global warp (task) id and the task itself.
pub fn launch_warp_tasks<T, F>(gpu: &Gpu, tasks: &[T], f: F)
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    let wpb = gpu.config().warps_per_block();
    launch_blocks(gpu, tasks, wpb, Schedule::Dynamic, |ctx, block_tasks| {
        for (i, t) in block_tasks.iter().enumerate() {
            f(ctx.first_task + i, t);
        }
    });
}

/// Launch one warp per task and collect each task's result, in task order.
pub fn launch_map<T, R, F>(gpu: &Gpu, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    use parking_lot::Mutex;
    let slots: Vec<Mutex<Option<R>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
    launch_warp_tasks(gpu, tasks, |wid, t| {
        *slots[wid].lock() = Some(f(wid, t));
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
            launch_warp_tasks(&g, &tasks, |_wid, &t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn warp_ids_match_tasks() {
        let g = gpu(1);
        let tasks: Vec<u32> = (0..100).collect();
        launch_warp_tasks(&g, &tasks, |wid, &t| {
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
        let out = launch_map(&g, &tasks, |wid, &t| {
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
        let out: Vec<u32> = launch_map(&g, &tasks, |_, &t| t);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn kernel_panics_propagate_from_workers() {
        let g = gpu(4);
        // Large enough to take the threaded path.
        let tasks: Vec<usize> = (0..10_000).collect();
        launch_warp_tasks(&g, &tasks, |_wid, &t| {
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
    fn one_device_runs_one_grid_at_a_time() {
        use std::sync::atomic::AtomicBool;
        let g = gpu(1);
        let running = AtomicBool::new(false);
        let tasks: Vec<usize> = (0..256).collect();
        let body = |_: &mut BlockCtx, _: &[usize]| {
            assert!(!running.swap(true, Ordering::SeqCst), "two grids at once");
            std::thread::yield_now();
            running.store(false, Ordering::SeqCst);
        };
        std::thread::scope(|s| {
            // Clones are the same device; both launch paths take turns on it.
            for g in [g.clone(), g.clone(), g.clone()] {
                let (tasks, body) = (&tasks, &body);
                s.spawn(move || {
                    for _ in 0..50 {
                        launch_blocks(&g, tasks, 1, Schedule::Dynamic, body);
                        launch_blocks_stateful(&g, tasks, 1, vec![()], |c, b, ()| body(c, b));
                    }
                });
            }
        });
        assert_eq!(g.stats().snapshot().kernel_launches, 300);
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
