//! Simulated global-memory buffers with transaction accounting.
//!
//! A [`DeviceVec`] behaves like device global memory: element 0 is assumed to
//! sit on a 128-byte transaction boundary (as `cudaMalloc` guarantees), and
//! every *warp-visible* access reports the coalesced transaction count to the
//! ledger of the handle performing it — the buffer itself holds no ledger,
//! so a graph prepared once charges each query that reads it to that
//! query. Host-side accessors (`as_slice`, indexing) are free — they
//! model the algorithm author's view, not a device access — so structures can
//! be built and verified without perturbing measurements.

use crate::device::Gpu;
use std::sync::Arc;

/// Where a [`DeviceVec`]'s contents live on the host side.
///
/// `Shared` models a device buffer whose host image is an `Arc`'d list some
/// other subsystem already owns (e.g. a filter cache's candidate list): the
/// *device* still pays one allocation of the full size, but the host never
/// copies the vector. Mutation promotes to an owned copy on demand.
#[derive(Debug, Clone)]
enum Backing<T> {
    Owned(Vec<T>),
    Shared(Arc<Vec<T>>),
}

impl<T> Backing<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Backing::Owned(v) => v,
            Backing::Shared(a) => a,
        }
    }
}

/// A global-memory buffer of `T` with warp-access accounting.
#[derive(Debug, Clone)]
pub struct DeviceVec<T> {
    data: Backing<T>,
}

impl<T: Copy> DeviceVec<T> {
    /// Allocate from an existing host vector (counts one device allocation).
    pub fn from_vec(gpu: &Gpu, data: Vec<T>) -> Self {
        gpu.stats()
            .record_alloc((data.len() * std::mem::size_of::<T>()) as u64);
        Self {
            data: Backing::Owned(data),
        }
    }

    /// Allocate from a shared host vector *without copying it*: the device
    /// ledger records exactly the allocation [`DeviceVec::from_vec`] would
    /// (the device-side copy is real either way), but the host image is the
    /// `Arc` itself — repeated builds over one cached candidate list stop
    /// cloning it.
    pub fn from_shared(gpu: &Gpu, data: Arc<Vec<T>>) -> Self {
        gpu.stats()
            .record_alloc((data.len() * std::mem::size_of::<T>()) as u64);
        Self {
            data: Backing::Shared(data),
        }
    }

    /// Allocate `len` zero-initialized elements (counts one device allocation).
    pub fn zeroed(gpu: &Gpu, len: usize) -> Self
    where
        T: Default,
    {
        Self::from_vec(gpu, vec![T::default(); len])
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.as_slice().is_empty()
    }

    /// Host view of the contents (no transactions charged).
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Mutable host view (no transactions charged). A shared backing is
    /// promoted to an owned copy first (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [T]
    where
        T: Clone,
    {
        if let Backing::Shared(a) = &self.data {
            self.data = Backing::Owned(a.as_ref().clone());
        }
        match &mut self.data {
            Backing::Owned(v) => v,
            Backing::Shared(_) => unreachable!("promoted above"),
        }
    }

    /// Consume into the backing vector (a still-shared backing is cloned).
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        match self.data {
            Backing::Owned(v) => v,
            Backing::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| a.as_ref().clone()),
        }
    }

    fn elem_bytes() -> usize {
        std::mem::size_of::<T>()
    }

    /// Warp-coalesced read of `len` consecutive elements starting at `start`.
    /// Charges one GLD transaction per 128-byte segment spanned.
    pub fn warp_read(&self, gpu: &Gpu, start: usize, len: usize) -> &[T] {
        gpu.stats().gld_range(start, len, Self::elem_bytes());
        &self.data.as_slice()[start..start + len]
    }

    /// Warp-coalesced write of `src` at `start`. Charges GST transactions
    /// for the spanned segments.
    pub fn warp_write(&mut self, gpu: &Gpu, start: usize, src: &[T]) {
        gpu.stats().gst_range(start, src.len(), Self::elem_bytes());
        self.as_mut_slice()[start..start + src.len()].copy_from_slice(src);
    }

    /// Warp gather of scattered elements; charges one GLD transaction per
    /// distinct 128-byte segment among the (≤ 32) indices.
    pub fn warp_gather(&self, gpu: &Gpu, indices: &[usize]) -> Vec<T> {
        debug_assert!(indices.len() <= crate::warp::WARP_SIZE);
        gpu.stats()
            .gld_gather(indices.iter().copied(), Self::elem_bytes());
        let xs = self.data.as_slice();
        indices.iter().map(|&i| xs[i]).collect()
    }

    /// Single-lane read (one transaction — the degenerate gather).
    pub fn warp_read_one(&self, gpu: &Gpu, index: usize) -> T {
        gpu.stats().gld_gather([index], Self::elem_bytes());
        self.data.as_slice()[index]
    }

    /// Single-lane write (one transaction).
    pub fn warp_write_one(&mut self, gpu: &Gpu, index: usize, value: T) {
        gpu.stats().gst_scatter([index], Self::elem_bytes());
        self.as_mut_slice()[index] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::test_device())
    }

    #[test]
    fn from_vec_records_alloc() {
        let g = gpu();
        let v: DeviceVec<u32> = DeviceVec::from_vec(&g, vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        let snap = g.stats().snapshot();
        assert_eq!(snap.device_allocs, 1);
        assert_eq!(snap.device_alloc_bytes, 12);
    }

    #[test]
    fn warp_read_counts_segments() {
        let g = gpu();
        let v: DeviceVec<u32> = DeviceVec::from_vec(&g, (0..256).collect());
        g.reset_stats();
        let s = v.warp_read(&g, 0, 32); // exactly one 128B segment
        assert_eq!(s.len(), 32);
        assert_eq!(g.stats().snapshot().gld_transactions, 1);
        v.warp_read(&g, 16, 32); // straddles a boundary
        assert_eq!(g.stats().snapshot().gld_transactions, 3);
    }

    #[test]
    fn warp_write_counts_and_mutates() {
        let g = gpu();
        let mut v: DeviceVec<u32> = DeviceVec::zeroed(&g, 64);
        g.reset_stats();
        v.warp_write(&g, 0, &[7; 32]);
        assert_eq!(v.as_slice()[31], 7);
        assert_eq!(g.stats().snapshot().gst_transactions, 1);
    }

    #[test]
    fn gather_distinct_segments() {
        let g = gpu();
        let v: DeviceVec<u32> = DeviceVec::from_vec(&g, (0..4096).collect());
        g.reset_stats();
        // Four indices in four different 128-byte segments.
        let out = v.warp_gather(&g, &[0, 100, 200, 300]);
        assert_eq!(out, vec![0, 100, 200, 300]);
        assert_eq!(g.stats().snapshot().gld_transactions, 4);
    }

    #[test]
    fn single_lane_ops() {
        let g = gpu();
        let mut v: DeviceVec<u32> = DeviceVec::zeroed(&g, 8);
        g.reset_stats();
        v.warp_write_one(&g, 3, 42);
        assert_eq!(v.warp_read_one(&g, 3), 42);
        let snap = g.stats().snapshot();
        assert_eq!(snap.gst_transactions, 1);
        assert_eq!(snap.gld_transactions, 1);
    }

    #[test]
    fn from_shared_charges_like_from_vec_without_copying() {
        let list = Arc::new((0..1000u32).collect::<Vec<_>>());
        let g1 = gpu();
        let shared = DeviceVec::from_shared(&g1, Arc::clone(&list));
        let g2 = gpu();
        let owned = DeviceVec::from_vec(&g2, list.as_ref().clone());
        assert_eq!(g1.stats().snapshot(), g2.stats().snapshot());
        // The shared backing is the same host allocation, not a copy.
        assert_eq!(shared.as_slice().as_ptr(), list.as_ptr());
        assert_eq!(shared.as_slice(), owned.as_slice());
        // Reads charge identically through either backing.
        g1.reset_stats();
        g2.reset_stats();
        assert_eq!(shared.warp_read_one(&g1, 77), owned.warp_read_one(&g2, 77));
        assert_eq!(g1.stats().snapshot(), g2.stats().snapshot());
    }

    #[test]
    fn shared_backing_promotes_on_mutation() {
        let list = Arc::new(vec![1u32, 2, 3]);
        let g = gpu();
        let mut v = DeviceVec::from_shared(&g, Arc::clone(&list));
        v.as_mut_slice()[0] = 9;
        assert_eq!(v.as_slice(), &[9, 2, 3]);
        assert_eq!(list.as_ref(), &vec![1, 2, 3], "original untouched");
        assert_eq!(v.into_vec(), vec![9, 2, 3]);
    }

    #[test]
    fn reads_charge_the_reading_handle_not_the_allocating_one() {
        let g = gpu();
        let v: DeviceVec<u32> = DeviceVec::from_vec(&g, (0..64).collect());
        g.reset_stats();
        let reader = g.scoped();
        v.warp_read(&reader, 0, 64);
        assert_eq!(reader.stats().snapshot().gld_transactions, 2);
        assert_eq!(g.stats().snapshot().gld_transactions, 0);
    }

    #[test]
    fn host_access_is_free() {
        let g = gpu();
        let v: DeviceVec<u32> = DeviceVec::from_vec(&g, vec![1, 2, 3]);
        g.reset_stats();
        assert_eq!(v.as_slice().iter().sum::<u32>(), 6);
        assert_eq!(g.stats().snapshot().gld_transactions, 0);
    }
}
