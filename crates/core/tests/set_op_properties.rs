//! Property-based tests for the set-operation primitives: semantics match
//! reference set algebra for arbitrary sorted inputs, chunked execution
//! composes to whole-list execution, and accounting invariants hold.

use gsi_core::config::{SetOpKernels, SetOpStrategy};
use gsi_core::set_ops::{CandidateProbe, SetOpExec};
use gsi_gpu_sim::{DeviceConfig, Gpu};
use gsi_graph::storage::Neighbors;
use gsi_signature::CandidateSet;
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeSet;

fn gpu() -> Gpu {
    Gpu::new(DeviceConfig::test_device())
}

fn sorted_unique(v: Vec<u32>) -> Vec<u32> {
    let mut v: Vec<u32> = v.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
    v.sort_unstable();
    v
}

fn nbrs(list: Vec<u32>, in_global: bool, ci_offset: usize) -> Neighbors<'static> {
    Neighbors {
        list: Cow::Owned(list),
        in_global,
        ci_offset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn first_edge_equals_reference_set_algebra(
        n_list in proptest::collection::vec(0u32..500, 0..200),
        row in proptest::collection::vec(0u32..500, 0..12),
        cand in proptest::collection::btree_set(0u32..500, 0..150),
        strategy in prop_oneof![Just(SetOpStrategy::GpuFriendly), Just(SetOpStrategy::Naive)],
        kernels in prop_oneof![Just(SetOpKernels::Scalar), Just(SetOpKernels::Vectorized)],
        cache in any::<bool>(),
        in_global in any::<bool>(),
        offset in 0usize..64,
    ) {
        let g = gpu();
        let n_list = sorted_unique(n_list);
        let cand_list: Vec<u32> = cand.iter().copied().collect();
        let probe = CandidateProbe::build(&g, strategy, 512, &CandidateSet {
            query_vertex: 0,
            list: std::sync::Arc::new(cand_list),
        });
        let exec = SetOpExec { strategy, write_cache: cache, kernels };
        let n = nbrs(n_list.clone(), in_global, offset);
        let mut got = Vec::new();
        exec.first_edge(&g, &n, &row, &probe, None, Some(offset), true, None, &mut got);
        let expect: Vec<u32> = n_list
            .iter()
            .copied()
            .filter(|v| !row.contains(v) && cand.contains(v))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn intersect_equals_reference(
        a in proptest::collection::vec(0u32..400, 0..150),
        b in proptest::collection::vec(0u32..400, 0..150),
        in_global in any::<bool>(),
        kernels in prop_oneof![Just(SetOpKernels::Scalar), Just(SetOpKernels::Vectorized)],
    ) {
        let g = gpu();
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let exec = SetOpExec { strategy: SetOpStrategy::GpuFriendly, write_cache: true, kernels };
        let n = nbrs(b.clone(), in_global, 0);
        let mut got = Vec::new();
        exec.intersect(&g, &a, None, &n, None, true, None, &mut got);
        let bs: BTreeSet<u32> = b.into_iter().collect();
        let expect: Vec<u32> = a.iter().copied().filter(|v| bs.contains(v)).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn chunked_execution_composes(
        n_list in proptest::collection::vec(0u32..600, 1..250),
        chunk in 1usize..64,
    ) {
        let g = gpu();
        let n_list = sorted_unique(n_list);
        let cand: Vec<u32> = (0..600).step_by(2).collect();
        let probe = CandidateProbe::build(&g, SetOpStrategy::GpuFriendly, 600, &CandidateSet {
            query_vertex: 0,
            list: std::sync::Arc::new(cand),
        });
        let exec = SetOpExec {
            strategy: SetOpStrategy::GpuFriendly,
            write_cache: true,
            kernels: SetOpKernels::Vectorized,
        };
        let n = nbrs(n_list.clone(), true, 5);
        let mut whole = Vec::new();
        exec.first_edge(&g, &n, &[3, 9], &probe, None, None, true, None, &mut whole);
        let mut pieces = Vec::new();
        let mut lo = 0;
        while lo < n_list.len() {
            let hi = (lo + chunk).min(n_list.len());
            exec.first_edge(&g, &n, &[3, 9], &probe, None, None, true, Some(lo..hi), &mut pieces);
            lo = hi;
        }
        prop_assert_eq!(whole, pieces);
    }

    #[test]
    fn write_cache_never_stores_more_than_direct(
        n_elems in 0usize..300,
    ) {
        // GST(cached) ≤ GST(direct) for the same output volume.
        use gsi_core::write_cache::WriteCache;
        let g1 = gpu();
        let mut cached = WriteCache::new(&g1, true, Some(3));
        for _ in 0..n_elems {
            cached.push();
        }
        let total = cached.finish();
        prop_assert_eq!(total, n_elems);
        let cached_gst = g1.stats().snapshot().gst_transactions;

        let g2 = gpu();
        let mut direct = WriteCache::new(&g2, false, Some(3));
        for _ in 0..n_elems {
            direct.push();
        }
        direct.finish();
        let direct_gst = g2.stats().snapshot().gst_transactions;
        prop_assert!(cached_gst <= direct_gst);
    }

    #[test]
    fn count_only_mode_never_stores(
        n_list in proptest::collection::vec(0u32..300, 0..100),
    ) {
        let g = gpu();
        let n_list = sorted_unique(n_list);
        let probe = CandidateProbe::build(&g, SetOpStrategy::GpuFriendly, 300, &CandidateSet {
            query_vertex: 0,
            list: std::sync::Arc::new((0..300).collect()),
        });
        let exec = SetOpExec {
            strategy: SetOpStrategy::GpuFriendly,
            write_cache: true,
            kernels: SetOpKernels::Vectorized,
        };
        g.reset_stats();
        let n = nbrs(n_list, false, 0);
        exec.first_edge(&g, &n, &[], &probe, None, None, true, None, &mut Vec::new());
        prop_assert_eq!(g.stats().snapshot().gst_transactions, 0);
    }
}
