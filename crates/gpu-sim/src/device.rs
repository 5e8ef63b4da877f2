//! Device description and the [`Gpu`] handle shared by all simulated kernels.

use std::sync::Arc;

use crate::stats::GpuStats;

/// Static description of the simulated device.
///
/// Defaults mirror the NVIDIA Titan XP used in the paper's evaluation
/// (30 SMs × 128 cores, 48 KB shared memory per SM, 12 GB global memory,
/// 128-byte global-memory transactions, 32-thread warps, 1024-thread blocks).
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp. The paper (and CUDA) fix this at 32.
    pub warp_size: usize,
    /// Maximum threads per block (CUDA: 1024 ⇒ 32 warps per block).
    pub max_block_threads: usize,
    /// Shared memory available to one block, in bytes (Titan XP: 48 KB).
    pub shared_mem_per_block: usize,
    /// Width of one global-memory transaction, in bytes (CUDA: 128).
    pub transaction_bytes: usize,
    /// Global memory capacity in bytes (informational; allocations are
    /// tracked against it but the host allocator is the real backing store).
    pub global_mem_bytes: usize,
    /// Emulated fixed cost of launching a kernel, in nanoseconds. Real CUDA
    /// launches cost a few microseconds; the "naive set operation" baseline
    /// of §V pays this per set operation, which is why it loses.
    pub kernel_launch_overhead_ns: u64,
    /// Host worker threads that play the role of SMs when executing blocks.
    /// `0` means "use all available parallelism".
    pub worker_threads: usize,
    /// Emulated global-memory latency, in nanoseconds per streamed element.
    ///
    /// `0` (the default) disables latency modeling: kernels cost only the
    /// host compute that simulates them. When set, execution backends charge
    /// each block's streamed workload as *sleep* time on the worker that ran
    /// it — sleeping workers overlap exactly like real SMs hide memory
    /// latency, so intra-query parallelism shows up as genuine wall-clock
    /// speedup even on a host with fewer cores than workers.
    pub stream_latency_ns: u64,
}

impl DeviceConfig {
    /// Configuration mirroring the paper's NVIDIA Titan XP test machine.
    pub fn titan_xp() -> Self {
        Self {
            num_sms: 30,
            cores_per_sm: 128,
            warp_size: 32,
            max_block_threads: 1024,
            shared_mem_per_block: 48 * 1024,
            transaction_bytes: 128,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            kernel_launch_overhead_ns: 1_500,
            worker_threads: 0,
            stream_latency_ns: 0,
        }
    }

    /// A tiny single-threaded device, useful for deterministic unit tests.
    pub fn test_device() -> Self {
        Self {
            worker_threads: 1,
            kernel_launch_overhead_ns: 0,
            ..Self::titan_xp()
        }
    }

    /// Warps per full block (`max_block_threads / warp_size`).
    pub fn warps_per_block(&self) -> usize {
        self.max_block_threads / self.warp_size
    }

    /// Resolved number of host worker threads.
    pub fn resolved_workers(&self) -> usize {
        if self.worker_threads > 0 {
            self.worker_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::titan_xp()
    }
}

/// Handle to a simulated GPU: configuration plus the ledger this handle
/// charges.
///
/// Clones share the ledger: every simulated kernel, device buffer access
/// and primitive charges its memory transactions and work against the
/// [`GpuStats`] of the handle it was given. [`Gpu::scoped`] makes a handle on
/// the same device with a fresh ledger of its own — the engine runs each
/// query on one, and a parallel launch gives one to each host worker — and
/// the owner folds it back into the parent once, when it is done
/// ([`GpuStats::absorb`]). Concurrent queries on one device therefore never
/// charge the same counters, and launches need no turn-taking: a kernel's
/// cost does not depend on what its neighbours are doing.
#[derive(Debug, Clone)]
pub struct Gpu {
    cfg: DeviceConfig,
    stats: Arc<GpuStats>,
}

impl Gpu {
    /// Create a device with the given configuration and zeroed counters.
    pub fn new(cfg: DeviceConfig) -> Self {
        let stats = Arc::new(GpuStats::new(cfg.transaction_bytes));
        Self { cfg, stats }
    }

    /// A handle on the same device charging a fresh, zeroed ledger of its
    /// own. Nothing reaches this handle's ledger until its owner folds the
    /// scoped one in with `self.stats().absorb(&scoped.stats().snapshot())`.
    pub fn scoped(&self) -> Self {
        Self::new(self.cfg.clone())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The ledger this handle charges.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Reset all counters to zero (e.g. between the offline build phase and
    /// the measured query phase).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Busy-wait for the configured kernel-launch overhead. Used by code
    /// paths that emulate launching a (small) dedicated kernel, such as the
    /// naive one-kernel-per-set-operation baseline.
    pub fn charge_launch_overhead(&self) {
        let ns = self.cfg.kernel_launch_overhead_ns;
        if ns == 0 {
            return;
        }
        let start = std::time::Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }
}

impl Default for Gpu {
    fn default() -> Self {
        Self::new(DeviceConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_xp_shape() {
        let cfg = DeviceConfig::titan_xp();
        assert_eq!(cfg.warp_size, 32);
        assert_eq!(cfg.warps_per_block(), 32);
        assert_eq!(cfg.transaction_bytes, 128);
        assert_eq!(cfg.shared_mem_per_block, 48 * 1024);
    }

    #[test]
    fn resolved_workers_explicit() {
        let mut cfg = DeviceConfig::test_device();
        cfg.worker_threads = 3;
        assert_eq!(cfg.resolved_workers(), 3);
    }

    #[test]
    fn resolved_workers_auto_is_positive() {
        let mut cfg = DeviceConfig::titan_xp();
        cfg.worker_threads = 0;
        assert!(cfg.resolved_workers() >= 1);
    }

    #[test]
    fn gpu_clone_shares_stats() {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let clone = gpu.clone();
        gpu.stats().add_gld(5);
        assert_eq!(clone.stats().snapshot().gld_transactions, 5);
    }

    #[test]
    fn scoped_ledger_is_private_until_absorbed() {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let scope = gpu.scoped();
        scope.stats().add_gld(5);
        assert_eq!(gpu.stats().snapshot().gld_transactions, 0);
        assert_eq!(scope.config().transaction_bytes, 128);
        gpu.stats().absorb(&scope.stats().snapshot());
        assert_eq!(gpu.stats().snapshot().gld_transactions, 5);
    }

    #[test]
    fn reset_clears_counters() {
        let gpu = Gpu::new(DeviceConfig::test_device());
        gpu.stats().add_gld(7);
        gpu.stats().add_gst(3);
        gpu.reset_stats();
        let snap = gpu.stats().snapshot();
        assert_eq!(snap.gld_transactions, 0);
        assert_eq!(snap.gst_transactions, 0);
    }

    #[test]
    fn launch_overhead_zero_is_noop() {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let t = std::time::Instant::now();
        gpu.charge_launch_overhead();
        assert!(t.elapsed().as_millis() < 50);
    }
}
