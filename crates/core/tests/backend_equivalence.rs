//! Property test: a join pool of several threads is indistinguishable from
//! the faithful one-thread simulation — bit-identical match tables (and
//! canonical row sets), identical match counts, and *exact* device counters
//! — on random data graphs and random connected queries, across both join
//! schemes and both load-balance settings.

use gsi_core::{GsiConfig, GsiEngine, JoinScheme};
use gsi_gpu_sim::{DeviceConfig, Gpu};
use gsi_graph::generate::{erdos_renyi, LabelModel};
use gsi_graph::query_gen::random_walk_query;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(cfg: GsiConfig) -> GsiEngine {
    GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn host_parallel_is_bit_identical_to_serial(
        seed in any::<u64>(),
        n in 30usize..140,
        edge_mult in 2usize..5,
        q_size in 2usize..6,
        scheme in prop_oneof![
            Just(JoinScheme::PreallocCombine),
            Just(JoinScheme::TwoStep),
        ],
        load_balance in any::<bool>(),
        threads in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = LabelModel::zipf(3, 2, 0.8);
        let data = erdos_renyi(n, n * edge_mult, &labels, &mut rng);
        let Some(query) = random_walk_query(&data, q_size, &mut rng) else {
            return Ok(()); // graph too fragmented for this query size
        };

        let mut cfg = GsiConfig {
            join_scheme: scheme,
            ..GsiConfig::gsi_opt()
        };
        if !load_balance {
            cfg.load_balance = None;
            cfg.duplicate_removal = false;
        }

        let serial = engine(cfg.clone());
        let prepared = serial.prepare(&data);
        let a = serial.query(&data, &prepared, &query).expect("plans");

        let parallel = engine(cfg.with_join_threads(threads));
        let prepared = parallel.prepare(&data);
        let b = parallel.query(&data, &prepared, &query).expect("plans");

        // Identical match counts; bit-identical tables even *before* the
        // canonical row sort, and after it.
        prop_assert_eq!(a.matches.len(), b.matches.len());
        prop_assert_eq!(&a.matches.table, &b.matches.table);
        prop_assert_eq!(a.matches.canonical(), b.matches.canonical());
        a.matches.verify(&data, &query).expect("serial embeddings valid");

        // Exact — not approximate — device counters under concurrency.
        prop_assert_eq!(a.stats.device, b.stats.device);
        prop_assert_eq!(a.stats.filter_device, b.stats.filter_device);
        prop_assert_eq!(a.stats.join_work_units, b.stats.join_work_units);
        prop_assert!(b.stats.join_span_units <= b.stats.join_work_units);
    }
}
