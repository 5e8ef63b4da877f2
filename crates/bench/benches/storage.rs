//! Table II microbenchmark: `N(v, l)` extraction across the four storage
//! structures, plus the PCSR GPN ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gsi::datasets::DatasetKind;
use gsi::graph::basic::BasicStore;
use gsi::graph::compressed::CompressedStore;
use gsi::graph::csr::Csr;
use gsi::graph::pcsr::MultiPcsr;
use gsi::graph::LabeledStore;
use gsi::prelude::*;
use gsi_bench::workloads::HarnessOpts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn sample_pairs(data: &Graph, n: usize) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.random_range(0..data.n_vertices()) as u32;
        let nbrs = data.neighbors(v);
        if nbrs.is_empty() {
            continue;
        }
        let (_, l) = nbrs[rng.random_range(0..nbrs.len())];
        out.push((v, l));
    }
    out
}

fn bench_extraction(c: &mut Criterion) {
    let opts = HarnessOpts {
        scale: 0.1,
        ..Default::default()
    };
    let data = opts.dataset(DatasetKind::Gowalla);
    let pairs = sample_pairs(&data, 256);
    let gpu = Gpu::new(DeviceConfig::titan_xp());

    let stores: Vec<(&str, Box<dyn LabeledStore>)> = vec![
        ("csr", Box::new(Csr::build(&data))),
        ("br", Box::new(BasicStore::build(&data))),
        ("cr", Box::new(CompressedStore::build(&data))),
        ("pcsr", Box::new(MultiPcsr::build(&data))),
    ];

    let mut g = c.benchmark_group("table2_extraction");
    for (name, store) in &stores {
        g.bench_function(*name, |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &(v, l) in &pairs {
                    let n = store.neighbors_with_label(&gpu, v, l);
                    n.for_each_batch(&gpu, |batch| total += batch.len());
                }
                black_box(total)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("table2_gpn_ablation");
    for gpn in [2usize, 4, 8, 16] {
        let store = MultiPcsr::build_with_gpn(&data, gpn);
        g.bench_with_input(BenchmarkId::from_parameter(gpn), &gpn, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for &(v, l) in &pairs {
                    total += store.neighbor_count(&gpu, v, l);
                }
                black_box(total)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_extraction
}
criterion_main!(benches);
