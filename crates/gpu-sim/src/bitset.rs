//! Device-resident bitsets for O(1) membership probes.
//!
//! §V's GPU-friendly set operation transforms the *large* candidate set
//! `C(u)` into a bitset so that membership of a vertex can be decided with
//! "exactly one memory transaction". [`DeviceBitset`] reproduces that: a
//! probe gathers one 4-byte word from global memory, and a warp's 32
//! concurrent probes are coalesced by distinct 128-byte segment, exactly
//! like any other gather.

use crate::device::Gpu;
use crate::memory::DeviceVec;

/// A fixed-capacity bitset in simulated global memory.
#[derive(Debug, Clone)]
pub struct DeviceBitset {
    words: DeviceVec<u32>,
    nbits: usize,
    ones: usize,
}

impl DeviceBitset {
    /// Build a bitset of `nbits` capacity with the given member ids set.
    ///
    /// Charges the build cost: a kernel scatter-writes one word per member
    /// (batched per warp, coalescing members that share a segment).
    pub fn from_members(gpu: &Gpu, nbits: usize, members: &[u32]) -> Self {
        let n_words = nbits.div_ceil(32);
        let mut words: DeviceVec<u32> = DeviceVec::zeroed(gpu, n_words);
        let stats = gpu.stats();
        for batch in members.chunks(crate::warp::WARP_SIZE) {
            stats.gst_scatter(batch.iter().map(|&v| v as usize / 32), 4);
            stats.add_work(batch.len() as u64);
            for &v in batch {
                let v = v as usize;
                debug_assert!(v < nbits, "member {v} out of bitset range {nbits}");
                words.as_mut_slice()[v / 32] |= 1 << (v % 32);
            }
        }
        Self {
            words,
            nbits,
            ones: members.len(),
        }
    }

    /// Bit capacity.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Bytes of global memory held.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Host-side membership check (no transactions charged).
    pub fn contains_host(&self, v: u32) -> bool {
        let v = v as usize;
        v < self.nbits && self.words.as_slice()[v / 32] & (1 << (v % 32)) != 0
    }

    /// Warp probe: decide membership for up to 32 vertices, charging one GLD
    /// transaction per distinct 128-byte segment among the probed words.
    pub fn warp_probe(&self, gpu: &Gpu, vs: &[u32], out: &mut Vec<bool>) {
        debug_assert!(vs.len() <= crate::warp::WARP_SIZE);
        let stats_offsets = vs.iter().map(|&v| v as usize / 32);
        // Reuse the gather accounting of the backing buffer.
        self.words
            .warp_gather(gpu, &stats_offsets.collect::<Vec<_>>())
            .iter()
            .zip(vs)
            .for_each(|(&word, &v)| out.push(word & (1 << (v % 32)) != 0));
    }

    /// Single-lane probe: one transaction, as the paper states.
    pub fn probe_one(&self, gpu: &Gpu, v: u32) -> bool {
        let word = self.words.warp_read_one(gpu, v as usize / 32);
        word & (1 << (v % 32)) != 0
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
    fn membership_roundtrip() {
        let g = gpu();
        let members = vec![0, 5, 31, 32, 1000];
        let bs = DeviceBitset::from_members(&g, 1024, &members);
        for &m in &members {
            assert!(bs.contains_host(m), "missing member {m}");
        }
        assert!(!bs.contains_host(1));
        assert!(!bs.contains_host(999));
        assert_eq!(bs.count_ones(), 5);
    }

    #[test]
    fn out_of_range_is_absent() {
        let g = gpu();
        let bs = DeviceBitset::from_members(&g, 64, &[3]);
        assert!(!bs.contains_host(64));
        assert!(!bs.contains_host(u32::MAX));
    }

    #[test]
    fn probe_one_costs_one_transaction() {
        let g = gpu();
        let bs = DeviceBitset::from_members(&g, 1 << 20, &[77]);
        g.reset_stats();
        assert!(bs.probe_one(&g, 77));
        assert!(!bs.probe_one(&g, 78));
        assert_eq!(g.stats().snapshot().gld_transactions, 2);
    }

    #[test]
    fn warp_probe_coalesces_nearby_words() {
        let g = gpu();
        let bs = DeviceBitset::from_members(&g, 1 << 20, &[0, 1, 2, 3]);
        g.reset_stats();
        let mut out = Vec::new();
        // 32 probes all landing in the first bitset word: one segment.
        let vs: Vec<u32> = (0..32).collect();
        bs.warp_probe(&g, &vs, &mut out);
        assert_eq!(g.stats().snapshot().gld_transactions, 1);
        assert_eq!(out.iter().filter(|&&b| b).count(), 4);
    }

    #[test]
    fn warp_probe_scattered_words() {
        let g = gpu();
        let nbits = 1 << 22;
        let bs = DeviceBitset::from_members(&g, nbits, &[]);
        g.reset_stats();
        let mut out = Vec::new();
        // Probes 128*32 bits apart: each lands in its own 128B segment.
        let vs: Vec<u32> = (0..32).map(|i| i * 128 * 32).collect();
        bs.warp_probe(&g, &vs, &mut out);
        assert_eq!(g.stats().snapshot().gld_transactions, 32);
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    fn build_cost_counts_stores() {
        let g = gpu();
        g.reset_stats();
        let _bs = DeviceBitset::from_members(&g, 4096, &[0, 1, 2, 3]);
        // All four members share the first word: one scatter transaction.
        assert_eq!(g.stats().snapshot().gst_transactions, 1);
    }
}
