//! Property-based tests: every storage structure answers `N(v, l)` exactly
//! like the logical graph, for arbitrary graphs; PCSR invariants hold for
//! every admissible GPN.

use gsi::graph::basic::BasicStore;
use gsi::graph::compressed::CompressedStore;
use gsi::graph::csr::Csr;
use gsi::graph::partition::partition_by_label;
use gsi::graph::pcsr::{MultiPcsr, Pcsr};
use gsi::graph::{GraphBuilder, LabeledStore};
use gsi::prelude::*;
use proptest::prelude::*;

/// Strategy: an arbitrary labeled multigraph.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        let edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 0u32..6, 0u32..4), 0..max_m);
        (proptest::collection::vec(0u32..5, n), edges).prop_map(|(vlabels, edges)| {
            let mut b = GraphBuilder::new();
            for l in vlabels {
                b.add_vertex(l);
            }
            for (u, v, l, _) in edges {
                if u != v {
                    b.add_edge(u, v, l);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_stores_agree_with_graph(g in arb_graph(40, 120)) {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let stores: Vec<Box<dyn LabeledStore>> = vec![
            Box::new(Csr::build(&g)),
            Box::new(BasicStore::build(&g)),
            Box::new(CompressedStore::build(&g)),
            Box::new(MultiPcsr::build(&g)),
        ];
        for v in 0..g.n_vertices() as u32 {
            for l in 0..6u32 {
                let truth: Vec<u32> = g.neighbors_with_label(v, l).collect();
                for s in &stores {
                    let got = s.neighbors_with_label(&gpu, v, l);
                    prop_assert_eq!(
                        &*got.list, truth.as_slice(),
                        "{} v={} l={}", s.kind(), v, l
                    );
                    prop_assert_eq!(s.neighbor_count(&gpu, v, l), truth.len());
                }
            }
        }
    }

    #[test]
    fn pcsr_all_gpn_equivalent(g in arb_graph(30, 80), gpn in 2usize..=16) {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let store = MultiPcsr::build_with_gpn(&g, gpn);
        for v in 0..g.n_vertices() as u32 {
            for l in 0..6u32 {
                let truth: Vec<u32> = g.neighbors_with_label(v, l).collect();
                let got = store.neighbors_with_label(&gpu, v, l);
                prop_assert_eq!(&*got.list, truth.as_slice());
            }
        }
    }

    #[test]
    fn pcsr_claim1_no_build_panic_and_chains_terminate(g in arb_graph(60, 200)) {
        // Claim 1: the build always finds empty groups for overflow; every
        // lookup chain terminates (implicitly: build+lookups don't hang).
        for p in partition_by_label(&g) {
            let pcsr = Pcsr::build_with_gpn(&p, 2); // worst case: 1 key/group
            for &v in &p.vertices {
                prop_assert!(pcsr.chain_length(v) >= 1);
                prop_assert!(!pcsr.neighbors_host(v).is_empty());
            }
        }
    }

    #[test]
    fn prefix_sum_matches_reference(xs in proptest::collection::vec(0u32..1000, 0..200)) {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let got = gsi::sim::scan::exclusive_prefix_sum(&gpu, &xs);
        let mut acc = 0u32;
        let mut expect = vec![0u32];
        for &x in &xs {
            acc += x;
            expect.push(acc);
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn bitset_matches_hashset(members in proptest::collection::btree_set(0u32..2000, 0..200)) {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let list: Vec<u32> = members.iter().copied().collect();
        let bs = gsi::sim::DeviceBitset::from_members(&gpu, 2000, &list);
        for v in 0..2000u32 {
            prop_assert_eq!(bs.contains_host(v), members.contains(&v));
        }
    }

    #[test]
    fn signature_filter_soundness(g in arb_graph(30, 90), seed in 0u64..1000) {
        // The signature filter must never prune a vertex that brute-force
        // NLF containment admits.
        use gsi::signature::{filter_signature, SignatureConfig, SignatureTable, Layout};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(q) = gsi::graph::query_gen::random_walk_query(&g, 3, &mut rng) else {
            return Ok(());
        };
        let gpu = Gpu::new(DeviceConfig::test_device());
        let cfg = SignatureConfig::with_n(64); // small N: max collision stress
        let table = SignatureTable::build(&gpu, &g, &cfg, Layout::ColumnFirst);
        let cands = filter_signature(&gpu, &table, &q, &cfg, None);
        // Ground truth containment per query vertex.
        for u in 0..q.n_vertices() as u32 {
            let need: Vec<(u32, u32)> = q
                .neighbors(u)
                .iter()
                .map(|&(w, l)| (l, q.vlabel(w)))
                .collect();
            'data: for v in 0..g.n_vertices() as u32 {
                if g.vlabel(v) != q.vlabel(u) {
                    continue;
                }
                // multiset containment check
                let mut have: Vec<(u32, u32)> = g
                    .neighbors(v)
                    .iter()
                    .map(|&(w, l)| (l, g.vlabel(w)))
                    .collect();
                for n in &need {
                    match have.iter().position(|h| h == n) {
                        Some(i) => {
                            have.swap_remove(i);
                        }
                        None => continue 'data,
                    }
                }
                prop_assert!(
                    cands[u as usize].contains(v),
                    "filter pruned true candidate v{} for u{}", v, u
                );
            }
        }
    }
}
