//! Transaction and work accounting — the simulator's measurement core.
//!
//! The paper's evaluation (Tables VI, VII, XI) reports *global memory load
//! transactions* (GLD), *global memory store transactions* (GST) and query
//! time. [`GpuStats`] is the ledger those numbers come from: every
//! simulated memory access computes how many 128-byte transactions a real
//! warp would have issued (per the coalescing rules of §II-B, Figs. 5–6) and
//! adds them here.
//!
//! A ledger belongs to whoever charges it. A device handle owns one
//! ([`crate::Gpu::stats`]); a query runs on a handle with a ledger of its own
//! ([`crate::Gpu::scoped`]), and so does every host worker of a parallel
//! launch. A finished ledger is folded into its parent once, with
//! [`GpuStats::absorb`], so no two threads ever charge one ledger side by
//! side and its counts are exact by construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Eight counters for one ledger.
///
/// All counters use relaxed ordering: they are statistics, not
/// synchronization. One thread charges a ledger at a time; the atomics only
/// let a finished ledger be folded into a shared parent without a lock.
#[derive(Debug)]
pub struct GpuStats {
    transaction_bytes: u64,
    gld: AtomicU64,
    gst: AtomicU64,
    kernel_launches: AtomicU64,
    warp_tasks: AtomicU64,
    work_units: AtomicU64,
    device_allocs: AtomicU64,
    device_alloc_bytes: AtomicU64,
    idle_lane_work: AtomicU64,
}

fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

impl GpuStats {
    /// New zeroed ledger for a device with the given transaction width.
    pub fn new(transaction_bytes: usize) -> Self {
        Self {
            transaction_bytes: transaction_bytes as u64,
            gld: AtomicU64::new(0),
            gst: AtomicU64::new(0),
            kernel_launches: AtomicU64::new(0),
            warp_tasks: AtomicU64::new(0),
            work_units: AtomicU64::new(0),
            device_allocs: AtomicU64::new(0),
            device_alloc_bytes: AtomicU64::new(0),
            idle_lane_work: AtomicU64::new(0),
        }
    }

    /// Width of one global-memory transaction in bytes (128 on CUDA devices).
    pub fn transaction_bytes(&self) -> u64 {
        self.transaction_bytes
    }

    // ---- raw increments -------------------------------------------------

    /// Record `n` global-memory load transactions.
    pub fn add_gld(&self, n: u64) {
        add(&self.gld, n);
    }

    /// Record `n` global-memory store transactions.
    pub fn add_gst(&self, n: u64) {
        add(&self.gst, n);
    }

    /// Record one kernel launch.
    pub fn record_kernel_launch(&self) {
        add(&self.kernel_launches, 1);
    }

    /// Record `n` warp tasks (one per intermediate-table row handled).
    pub fn add_warp_tasks(&self, n: u64) {
        add(&self.warp_tasks, n);
    }

    /// Record `n` abstract work units (elements processed by lanes).
    pub fn add_work(&self, n: u64) {
        add(&self.work_units, n);
    }

    /// Record a device allocation request of `bytes` (Prealloc-Combine's GBA
    /// argument in §V is about *reducing the number of allocation requests*).
    pub fn record_alloc(&self, bytes: u64) {
        add(&self.device_allocs, 1);
        add(&self.device_alloc_bytes, bytes);
    }

    /// Record wasted SIMD lanes (warp divergence / thread underutilization,
    /// e.g. CSR label scans where lanes holding wrong-label edges idle).
    pub fn add_idle_lanes(&self, n: u64) {
        add(&self.idle_lane_work, n);
    }

    // ---- coalescing-aware accounting ------------------------------------

    /// Transactions needed for a *consecutive* access of `len` elements of
    /// `elem_bytes` bytes starting at element offset `offset` in a buffer
    /// whose element 0 is 128-byte aligned (Fig. 5: coalesced access).
    ///
    /// Returns 0 for empty ranges.
    pub fn span_transactions(&self, offset: usize, len: usize, elem_bytes: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let tb = self.transaction_bytes;
        let start = (offset * elem_bytes) as u64;
        let end = ((offset + len) * elem_bytes) as u64 - 1;
        end / tb - start / tb + 1
    }

    /// Record a coalesced warp load of a consecutive element range.
    pub fn gld_range(&self, offset: usize, len: usize, elem_bytes: usize) -> u64 {
        let n = self.span_transactions(offset, len, elem_bytes);
        self.add_gld(n);
        n
    }

    /// Record a coalesced warp store of a consecutive element range.
    pub fn gst_range(&self, offset: usize, len: usize, elem_bytes: usize) -> u64 {
        let n = self.span_transactions(offset, len, elem_bytes);
        self.add_gst(n);
        n
    }

    /// Transactions needed for a warp *gather*: up to 32 scattered element
    /// reads collapse into one transaction per distinct 128-byte segment
    /// (Fig. 6: uncoalesced access touches more segments).
    ///
    /// Ascending address sequences (the common case: a warp's lanes walk a
    /// table in index order) are counted in a single pass; out-of-order
    /// sequences fall back to a small distinct-set scan.
    pub fn gather_transactions<I>(&self, offsets: I, elem_bytes: usize) -> u64
    where
        I: IntoIterator<Item = usize>,
    {
        let tb = self.transaction_bytes;
        let mut segs = [u64::MAX; crate::warp::WARP_SIZE];
        let mut n = 0usize;
        let mut last = u64::MAX;
        let mut sorted = true;
        for off in offsets {
            let seg = (off * elem_bytes) as u64 / tb;
            if sorted {
                if last == u64::MAX || seg > last {
                    debug_assert!(n < segs.len(), "gather wider than a warp");
                    segs[n] = seg;
                    n += 1;
                    last = seg;
                    continue;
                }
                if seg == last {
                    continue;
                }
                sorted = false; // out of order: switch to distinct-set mode
            }
            if !segs[..n].contains(&seg) {
                debug_assert!(n < segs.len(), "gather wider than a warp");
                segs[n] = seg;
                n += 1;
            }
        }
        n as u64
    }

    /// Record a warp gather load of scattered elements.
    pub fn gld_gather<I>(&self, offsets: I, elem_bytes: usize) -> u64
    where
        I: IntoIterator<Item = usize>,
    {
        let n = self.gather_transactions(offsets, elem_bytes);
        self.add_gld(n);
        n
    }

    /// Record a warp scatter store of scattered elements.
    pub fn gst_scatter<I>(&self, offsets: I, elem_bytes: usize) -> u64
    where
        I: IntoIterator<Item = usize>,
    {
        let n = self.gather_transactions(offsets, elem_bytes);
        self.add_gst(n);
        n
    }

    // ---- snapshots -------------------------------------------------------

    /// Copy the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            gld_transactions: get(&self.gld),
            gst_transactions: get(&self.gst),
            kernel_launches: get(&self.kernel_launches),
            warp_tasks: get(&self.warp_tasks),
            work_units: get(&self.work_units),
            device_allocs: get(&self.device_allocs),
            device_alloc_bytes: get(&self.device_alloc_bytes),
            idle_lane_work: get(&self.idle_lane_work),
        }
    }

    /// Add a finished ledger's totals: how a launch worker's ledger joins
    /// its query's, and a query's joins its device's.
    pub fn absorb(&self, s: &StatsSnapshot) {
        add(&self.gld, s.gld_transactions);
        add(&self.gst, s.gst_transactions);
        add(&self.kernel_launches, s.kernel_launches);
        add(&self.warp_tasks, s.warp_tasks);
        add(&self.work_units, s.work_units);
        add(&self.device_allocs, s.device_allocs);
        add(&self.device_alloc_bytes, s.device_alloc_bytes);
        add(&self.idle_lane_work, s.idle_lane_work);
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for c in [
            &self.gld,
            &self.gst,
            &self.kernel_launches,
            &self.warp_tasks,
            &self.work_units,
            &self.device_allocs,
            &self.device_alloc_bytes,
            &self.idle_lane_work,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`GpuStats`], with `-` for computing deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Global-memory load transactions (the paper's "GLD").
    pub gld_transactions: u64,
    /// Global-memory store transactions (the paper's "GST").
    pub gst_transactions: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Warp tasks executed.
    pub warp_tasks: u64,
    /// Abstract work units (lane-elements processed).
    pub work_units: u64,
    /// Device allocation requests.
    pub device_allocs: u64,
    /// Bytes requested from the device allocator.
    pub device_alloc_bytes: u64,
    /// Wasted SIMD lane slots (divergence / underutilization).
    pub idle_lane_work: u64,
}

impl StatsSnapshot {
    /// Every counter as a `(metric_suffix, value)` pair, in declaration
    /// order. The single authority metrics exporters iterate, so a counter
    /// added to the ledger cannot be silently missing from the exposition
    /// (the suffix is appended to a `gsi_device_` prefix upstream).
    pub fn metric_fields(&self) -> [(&'static str, u64); 8] {
        [
            ("gld_transactions", self.gld_transactions),
            ("gst_transactions", self.gst_transactions),
            ("kernel_launches", self.kernel_launches),
            ("warp_tasks", self.warp_tasks),
            ("work_units", self.work_units),
            ("device_allocs", self.device_allocs),
            ("device_alloc_bytes", self.device_alloc_bytes),
            ("idle_lane_work", self.idle_lane_work),
        ]
    }

    /// The inverse of [`StatsSnapshot::metric_fields`]: values in its order.
    pub fn from_metric_values(v: [u64; 8]) -> Self {
        StatsSnapshot {
            gld_transactions: v[0],
            gst_transactions: v[1],
            kernel_launches: v[2],
            warp_tasks: v[3],
            work_units: v[4],
            device_allocs: v[5],
            device_alloc_bytes: v[6],
            idle_lane_work: v[7],
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            gld_transactions: self.gld_transactions + rhs.gld_transactions,
            gst_transactions: self.gst_transactions + rhs.gst_transactions,
            kernel_launches: self.kernel_launches + rhs.kernel_launches,
            warp_tasks: self.warp_tasks + rhs.warp_tasks,
            work_units: self.work_units + rhs.work_units,
            device_allocs: self.device_allocs + rhs.device_allocs,
            device_alloc_bytes: self.device_alloc_bytes + rhs.device_alloc_bytes,
            idle_lane_work: self.idle_lane_work + rhs.idle_lane_work,
        }
    }
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        // Device-ledger monotonicity: a snapshot delta is only meaningful
        // when `self` was taken *after* `rhs` on the same ledger — every
        // counter must have grown or held. A violation means snapshots
        // from different ledgers (or reordered reads) are being compared,
        // which would silently corrupt every derived device metric.
        #[cfg(feature = "debug-invariants")]
        for ((name, a), (_, b)) in self.metric_fields().into_iter().zip(rhs.metric_fields()) {
            assert!(
                a >= b,
                "debug-invariants: snapshot delta underflows `{name}` ({a} < {b}); \
                 the ledger only grows, so these snapshots are misordered or unrelated"
            );
        }
        StatsSnapshot {
            gld_transactions: self.gld_transactions - rhs.gld_transactions,
            gst_transactions: self.gst_transactions - rhs.gst_transactions,
            kernel_launches: self.kernel_launches - rhs.kernel_launches,
            warp_tasks: self.warp_tasks - rhs.warp_tasks,
            work_units: self.work_units - rhs.work_units,
            device_allocs: self.device_allocs - rhs.device_allocs,
            device_alloc_bytes: self.device_alloc_bytes - rhs.device_alloc_bytes,
            idle_lane_work: self.idle_lane_work - rhs.idle_lane_work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> GpuStats {
        GpuStats::new(128)
    }

    #[test]
    fn metric_fields_cover_every_counter() {
        let snap = StatsSnapshot {
            gld_transactions: 1,
            gst_transactions: 2,
            kernel_launches: 3,
            warp_tasks: 4,
            work_units: 5,
            device_allocs: 6,
            device_alloc_bytes: 7,
            idle_lane_work: 8,
        };
        let fields = snap.metric_fields();
        // All 8 distinct values present exactly once → no field skipped,
        // none double-mapped.
        let mut values: Vec<u64> = fields.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, [1, 2, 3, 4, 5, 6, 7, 8]);
        let mut names: Vec<&str> = fields.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "metric suffixes are unique");
        assert_eq!(
            StatsSnapshot::from_metric_values(fields.map(|(_, v)| v)),
            snap,
            "the inverse reads the same order"
        );
    }

    #[test]
    fn span_single_transaction() {
        // 32 u32 = 128B exactly, aligned: one transaction (Fig. 5).
        assert_eq!(stats().span_transactions(0, 32, 4), 1);
    }

    #[test]
    fn span_unaligned_crosses_boundary() {
        // 32 u32 starting at element 16: bytes 64..192 span two segments.
        assert_eq!(stats().span_transactions(16, 32, 4), 2);
    }

    #[test]
    fn span_empty_is_zero() {
        assert_eq!(stats().span_transactions(7, 0, 4), 0);
    }

    #[test]
    fn span_large_range() {
        // 1000 u32 = 4000B starting aligned: ceil plus boundary = 32 segments.
        assert_eq!(stats().span_transactions(0, 1000, 4), 32);
    }

    #[test]
    fn span_single_element() {
        assert_eq!(stats().span_transactions(1_000_000, 1, 4), 1);
    }

    #[test]
    fn gather_same_segment_is_one() {
        // All addresses inside one 128B segment: one transaction.
        let s = stats();
        assert_eq!(s.gather_transactions([0usize, 5, 17, 31], 4), 1);
    }

    #[test]
    fn gather_distinct_segments() {
        // Stride of 32 u32 = 128B: every lane in its own segment (Fig. 6).
        let s = stats();
        let offs: Vec<usize> = (0..32).map(|i| i * 32).collect();
        assert_eq!(s.gather_transactions(offs, 4), 32);
    }

    #[test]
    fn gather_empty() {
        assert_eq!(stats().gather_transactions(std::iter::empty(), 4), 0);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = stats();
        s.gld_range(0, 64, 4);
        s.gst_range(0, 32, 4);
        s.record_kernel_launch();
        s.add_warp_tasks(3);
        s.add_work(100);
        s.record_alloc(4096);
        s.add_idle_lanes(12);
        let snap = s.snapshot();
        assert_eq!(snap.gld_transactions, 2);
        assert_eq!(snap.gst_transactions, 1);
        assert_eq!(snap.kernel_launches, 1);
        assert_eq!(snap.warp_tasks, 3);
        assert_eq!(snap.work_units, 100);
        assert_eq!(snap.device_allocs, 1);
        assert_eq!(snap.device_alloc_bytes, 4096);
        assert_eq!(snap.idle_lane_work, 12);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let s = stats();
        s.add_gld(10);
        let before = s.snapshot();
        s.add_gld(7);
        let delta = s.snapshot() - before;
        assert_eq!(delta.gld_transactions, 7);
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "debug-invariants: snapshot delta underflows `gld_transactions`")]
    fn sanitizer_catches_misordered_snapshots() {
        let s = stats();
        s.add_gld(10);
        let after = s.snapshot();
        s.add_gld(5);
        let _ = after - s.snapshot();
    }
}
