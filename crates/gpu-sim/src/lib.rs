//! # gsi-gpu-sim — a software GPU execution-model simulator
//!
//! The GSI paper ([Zeng et al., ICDE 2020]) evaluates its contributions through
//! GPU memory-hierarchy metrics: global-memory **load/store transactions**
//! (GLD/GST), kernel-launch counts, shared-memory usage and wall-clock time of
//! massively parallel kernels. This crate reproduces that execution model in
//! software so the algorithms above it (PCSR, Prealloc-Combine joins,
//! GPU-friendly set operations, …) exercise the *same code paths and cost
//! model* as CUDA kernels would, without requiring GPU hardware:
//!
//! * **Warps** of 32 lanes executing in SIMD fashion ([`WARP_SIZE`]); batch
//!   helpers in [`warp`].
//! * **Global memory** accessed through 128-byte transactions with coalescing
//!   rules (consecutive, aligned accesses collapse into few transactions;
//!   scattered gathers touch one transaction per distinct segment) —
//!   [`memory::DeviceVec`] and the raw accounting API on [`stats::GpuStats`],
//!   charged to the ledger of the handle doing the access: a query or a
//!   launch worker runs on a [`Gpu::scoped`] ledger of its own and folds it
//!   into its parent when done.
//! * **Shared memory** (fast, per-block, capacity-limited) — [`shared::SharedMem`].
//! * **Kernels** scheduled as blocks of warps over a pool of host worker
//!   threads — [`kernel`] — so skewed per-warp workloads produce real
//!   wall-clock imbalance, which load-balancing strategies can then repair.
//! * **Device-wide primitives**: exclusive prefix-sum scan ([`scan`]) and
//!   bitsets for O(1) membership probes ([`bitset`]).
//!
//! The simulator is *transaction- and work-accurate*, not cycle-accurate: all
//! competing strategies run on the same substrate, so relative comparisons
//! (the shape of the paper's tables) are preserved.
//!
//! ## Quick example
//!
//! ```
//! use gsi_gpu_sim::{Gpu, DeviceConfig, memory::DeviceVec, kernel};
//!
//! let gpu = Gpu::new(DeviceConfig::default());
//! let data: DeviceVec<u32> = DeviceVec::from_vec(&gpu, (0..1024).collect());
//!
//! // Launch one warp per 32-element chunk; each warp reads its chunk
//! // (a single coalesced 128B transaction).
//! let tasks: Vec<usize> = (0..32).collect();
//! kernel::launch_warp_tasks(&gpu, &tasks, |g, _warp_id, &chunk| {
//!     let vals = data.warp_read(g, chunk * 32, 32);
//!     assert_eq!(vals[0], (chunk * 32) as u32);
//! });
//! assert_eq!(gpu.stats().snapshot().gld_transactions, 32);
//! ```
//!
//! [Zeng et al., ICDE 2020]: https://arxiv.org/abs/1906.03420

pub mod bitset;
pub mod device;
pub mod kernel;
pub mod memory;
pub mod scan;
pub mod shared;
pub mod stats;
pub mod warp;

pub use bitset::DeviceBitset;
pub use device::{DeviceConfig, Gpu};
pub use kernel::{launch_blocks, launch_warp_tasks, BlockCtx, Schedule};
pub use memory::DeviceVec;
pub use shared::SharedMem;
pub use stats::{GpuStats, StatsSnapshot};
pub use warp::WARP_SIZE;
