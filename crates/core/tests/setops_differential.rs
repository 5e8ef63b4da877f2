//! Differential fuzz gate for the vectorized set-operation kernels: for
//! every fuzzed input — drawn from adversarial density classes (empty,
//! disjoint, subset, dense-overlap, duplicate-heavy) — the vectorized
//! kernels must produce **bit-identical outputs** and charge **exactly
//! equal device counters** to the scalar reference, on both
//! [`SetOpStrategy`] arms, with and without the write cache, whole-list
//! and chunked. A vectorized kernel that saved even one transaction would
//! invalidate every ledger-based experiment in the repo.
//!
//! `SETOPS_FUZZ_CASES` scales the number of fuzzed cases per property
//! (seeds are fixed by proptest). In CI the variable must be set
//! explicitly — a job that forgot to pin it would otherwise gate merges on
//! the tiny local smoke size without anyone noticing, so failing early
//! with a clear message wins.

use gsi_core::config::{SetOpKernels, SetOpStrategy};
use gsi_core::set_ops::{CandidateProbe, SetOpExec};
use gsi_gpu_sim::{DeviceConfig, Gpu, StatsSnapshot};
use gsi_graph::storage::Neighbors;
use gsi_signature::CandidateSet;
use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

/// Universe of vertex ids (bitset probes need a bound).
const UNIVERSE: u32 = 512;

fn fuzz_cases() -> u32 {
    match std::env::var("SETOPS_FUZZ_CASES") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("SETOPS_FUZZ_CASES must be an integer, got '{v}'")),
        Err(_) => {
            assert!(
                std::env::var_os("CI").is_none() && std::env::var_os("GITHUB_ACTIONS").is_none(),
                "SETOPS_FUZZ_CASES is unset in CI: pin the fuzz case count explicitly \
                 (the local default of 64 is a smoke size, not a merge gate)"
            );
            64
        }
    }
}

fn gpu() -> Gpu {
    Gpu::new(DeviceConfig::test_device())
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn sorted_unique(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Adversarial input-density classes — the shapes where a branch-light
/// kernel is most likely to diverge from the scalar reference.
#[derive(Debug, Clone, Copy)]
enum Density {
    /// One side (or both) empty.
    Empty,
    /// No common elements: evens vs odds.
    Disjoint,
    /// The buffer/candidates are a strict subset of the neighbor list.
    Subset,
    /// Everything drawn from a tiny universe — near-total overlap, the
    /// galloping heuristic's worst case.
    DenseOverlap,
    /// Long runs of equal values — min-multiplicity semantics under stress.
    DuplicateHeavy,
}

/// Shape raw pools into `(nbrs, buf, cand)` for a density class. All three
/// outputs are sorted; `cand` is additionally deduplicated (candidate sets
/// are sets).
fn shape(d: Density, a: Vec<u32>, b: Vec<u32>, c: Vec<u32>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    match d {
        Density::Empty => (Vec::new(), sorted(b), sorted_unique(c)),
        Density::Disjoint => (
            sorted(a.into_iter().map(|v| (v * 2) % UNIVERSE).collect()),
            sorted(b.into_iter().map(|v| (v * 2 + 1) % UNIVERSE).collect()),
            sorted_unique(c.into_iter().map(|v| (v * 2 + 1) % UNIVERSE).collect()),
        ),
        Density::Subset => {
            let n = sorted_unique(a);
            let buf: Vec<u32> = n.iter().copied().step_by(2).collect();
            let cand: Vec<u32> = n.iter().copied().step_by(3).collect();
            (n, buf, cand)
        }
        Density::DenseOverlap => (
            sorted(a.into_iter().map(|v| v % 40).collect()),
            sorted(b.into_iter().map(|v| v % 40).collect()),
            sorted_unique(c.into_iter().map(|v| v % 40).collect()),
        ),
        Density::DuplicateHeavy => {
            let blow_up = |v: Vec<u32>| {
                let mut out = Vec::new();
                for x in v {
                    let x = x % 64;
                    for _ in 0..(x % 5 + 1) {
                        out.push(x);
                    }
                }
                sorted(out)
            };
            (blow_up(a), blow_up(b), sorted_unique(c))
        }
    }
}

fn density() -> impl Strategy<Value = Density> {
    prop_oneof![
        Just(Density::Empty),
        Just(Density::Disjoint),
        Just(Density::Subset),
        Just(Density::DenseOverlap),
        Just(Density::DuplicateHeavy),
    ]
}

fn exec(strategy: SetOpStrategy, cache: bool, kernels: SetOpKernels) -> SetOpExec {
    SetOpExec {
        strategy,
        write_cache: cache,
        kernels,
    }
}

/// Run both primitives under one kernel arm on a fresh device; returns the
/// outputs and the device snapshot.
#[allow(clippy::too_many_arguments)]
fn run_arm(
    kernels: SetOpKernels,
    strategy: SetOpStrategy,
    cache: bool,
    nbr_list: &[u32],
    buf: &[u32],
    cand: &[u32],
    row: &[u32],
    in_global: bool,
    chunked: bool,
) -> (Vec<u32>, Vec<u32>, StatsSnapshot) {
    let g = gpu();
    let probe = CandidateProbe::build(
        &g,
        strategy,
        UNIVERSE as usize,
        &CandidateSet {
            query_vertex: 0,
            list: Arc::new(cand.to_vec()),
        },
    );
    let e = exec(strategy, cache, kernels);
    let nbrs = Neighbors {
        list: Cow::Borrowed(nbr_list),
        in_global,
        ci_offset: 7,
    };
    let fe_chunk = chunked.then(|| 0..nbr_list.len().min(13));
    let (mut fe, mut ix) = (Vec::new(), Vec::new());
    e.first_edge(
        &g,
        &nbrs,
        row,
        &probe,
        Some((3, row.len())),
        Some(16),
        true,
        fe_chunk,
        &mut fe,
    );
    let ix_chunk = chunked.then(|| 0..buf.len().min(13));
    e.intersect(&g, buf, Some(8), &nbrs, Some(32), true, ix_chunk, &mut ix);
    (fe, ix, g.stats().snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    // The gate: scalar and vectorized kernels are indistinguishable —
    // same elements out, same ledger — across density classes, set-op
    // strategies, write-cache arms, and chunked execution.
    #[test]
    fn vectorized_kernels_are_bit_identical_to_scalar(
        d in density(),
        a in proptest::collection::vec(0u32..UNIVERSE, 0..220),
        b in proptest::collection::vec(0u32..UNIVERSE, 0..220),
        c in proptest::collection::vec(0u32..UNIVERSE, 0..160),
        row in proptest::collection::vec(0u32..UNIVERSE, 0..6),
        in_global in any::<bool>(),
        chunked in any::<bool>(),
    ) {
        let (nbrs, buf, cand) = shape(d, a, b, c);
        for strategy in [SetOpStrategy::GpuFriendly, SetOpStrategy::Naive] {
            for cache in [false, true] {
                let (s_fe, s_ix, s_snap) = run_arm(
                    SetOpKernels::Scalar, strategy, cache,
                    &nbrs, &buf, &cand, &row, in_global, chunked,
                );
                let (v_fe, v_ix, v_snap) = run_arm(
                    SetOpKernels::Vectorized, strategy, cache,
                    &nbrs, &buf, &cand, &row, in_global, chunked,
                );
                prop_assert_eq!(
                    &s_fe, &v_fe,
                    "first_edge outputs diverge [{:?}/{:?} cache={} global={} chunked={}]",
                    d, strategy, cache, in_global, chunked
                );
                prop_assert_eq!(
                    &s_ix, &v_ix,
                    "intersect outputs diverge [{:?}/{:?} cache={} global={} chunked={}]",
                    d, strategy, cache, in_global, chunked
                );
                prop_assert_eq!(
                    s_snap, v_snap,
                    "device counters diverge [{:?}/{:?} cache={} global={} chunked={}]",
                    d, strategy, cache, in_global, chunked
                );
            }
        }
    }

    // Semantics oracle: independent of kernel arm, first_edge equals
    // reference set algebra and intersect equals the sorted
    // min-multiplicity multiset intersection.
    #[test]
    fn kernels_match_reference_semantics(
        d in density(),
        a in proptest::collection::vec(0u32..UNIVERSE, 0..220),
        b in proptest::collection::vec(0u32..UNIVERSE, 0..220),
        c in proptest::collection::vec(0u32..UNIVERSE, 0..160),
        row in proptest::collection::vec(0u32..UNIVERSE, 0..6),
        kernels in prop_oneof![Just(SetOpKernels::Scalar), Just(SetOpKernels::Vectorized)],
    ) {
        let (nbrs, buf, cand) = shape(d, a, b, c);
        let (fe, ix, _) = run_arm(
            kernels, SetOpStrategy::GpuFriendly, true,
            &nbrs, &buf, &cand, &row, true, false,
        );

        let fe_expect: Vec<u32> = nbrs
            .iter()
            .copied()
            .filter(|v| !row.contains(v) && cand.binary_search(v).is_ok())
            .collect();
        prop_assert_eq!(fe, fe_expect, "first_edge semantics [{:?}]", d);

        // Sorted multiset intersection with min multiplicity.
        let mut ix_expect = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < buf.len() && j < nbrs.len() {
            match buf[i].cmp(&nbrs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    ix_expect.push(buf[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        prop_assert_eq!(ix, ix_expect, "intersect semantics [{:?}]", d);
    }
}
