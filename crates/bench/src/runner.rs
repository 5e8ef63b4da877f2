//! Experiment runners: execute engine variants over query batches and
//! aggregate the paper's metrics.

use crate::report::Arm;
use crate::workloads::HarnessOpts;
use gsi::baselines::edge_join::EdgeJoinEngine;
use gsi::baselines::{cfl, vf3, EngineResult};
use gsi::prelude::*;
use std::time::Duration;

/// Aggregate of one engine variant over a query batch.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Number of queries measured.
    pub queries: usize,
    /// Queries that hit the timeout / guard.
    pub timeouts: usize,
    /// Wall time summed over *completed* (non-timeout) queries only.
    pub completed_time: Duration,
    /// Every per-run measurement, summed by [`RunStats::accumulate`]
    /// (baselines fill in what they measure: wall time, matches, device
    /// counters).
    pub stats: RunStats,
}

impl Aggregate {
    fn per_query(&self, total: Duration) -> Duration {
        total.checked_div(self.queries as u32).unwrap_or_default()
    }

    /// Mean wall time per query.
    pub fn avg_time(&self) -> Duration {
        self.per_query(self.stats.total_time)
    }

    /// Mean wall time over completed queries only; `None` if all timed out.
    pub fn avg_completed_time(&self) -> Option<Duration> {
        self.completed_time
            .checked_div((self.queries - self.timeouts) as u32)
    }

    /// Mean filter time per query.
    pub fn avg_filter_time(&self) -> Duration {
        self.per_query(self.stats.filter_time)
    }

    /// Mean join-phase time per query.
    pub fn avg_join_time(&self) -> Duration {
        self.per_query(self.stats.join_time)
    }

    fn per_query_count(&self, total: u64) -> u64 {
        total.checked_div(self.queries as u64).unwrap_or(0)
    }

    /// Mean join GLD per query.
    pub fn avg_join_gld(&self) -> u64 {
        self.per_query_count(self.stats.join_gld())
    }

    /// Mean join GST per query.
    pub fn avg_join_gst(&self) -> u64 {
        self.per_query_count(self.stats.join_gst())
    }

    /// Mean minimum candidate size per query.
    pub fn avg_min_candidate(&self) -> usize {
        self.per_query_count(self.stats.min_candidate as u64) as usize
    }

    /// The per-batch frame: the summed per-run frame plus what only a
    /// batch-level comparison reads.
    pub fn rows(&self, arm: &mut Arm<'_>) {
        use crate::report::metric::*;
        arm.run(&self.stats)
            .put(&QUERY_MS, self.stats.total_time)
            .put(&GST, self.stats.gst())
            .put(&KERNELS, self.stats.kernels())
            .put(&ALLOCS, self.stats.device.device_allocs)
            .put(&JOIN_SPAN, self.stats.join_span_units)
            .put(&TIMEOUTS, self.timeouts);
    }
}

/// Run a GSI config over a query batch on a fresh default device.
pub fn run_gsi(cfg: &GsiConfig, data: &Graph, queries: &[Graph], opts: &HarnessOpts) -> Aggregate {
    run_gsi_on_device(cfg, DeviceConfig::titan_xp(), data, queries, opts)
}

/// Run a GSI config over a query batch on an explicit device (backend
/// comparisons fix `worker_threads` / latency modeling here).
pub fn run_gsi_on_device(
    cfg: &GsiConfig,
    device: DeviceConfig,
    data: &Graph,
    queries: &[Graph],
    opts: &HarnessOpts,
) -> Aggregate {
    let engine = GsiEngine::with_gpu(cfg.clone(), Gpu::new(device));
    let prepared = engine.prepare(data);
    let mut agg = Aggregate::default();
    for q in queries {
        let out = engine
            .query_with_timeout(data, &prepared, q, Some(opts.timeout()))
            .expect("plans");
        agg.queries += 1;
        agg.stats.accumulate(&out.stats);
        agg.timeouts += out.stats.timed_out as usize;
        if !out.stats.timed_out {
            agg.completed_time += out.stats.total_time;
        }
    }
    agg
}

/// Run only the filtering phase of a GSI config (Tables IV and V).
pub fn run_gsi_filter_only(cfg: &GsiConfig, data: &Graph, queries: &[Graph]) -> Aggregate {
    let engine = GsiEngine::new(cfg.clone());
    let prepared = engine.prepare(data);
    let mut agg = Aggregate::default();
    for q in queries {
        let snap0 = engine.gpu().stats().snapshot();
        let t0 = std::time::Instant::now();
        let cands = engine.filter(&prepared, q);
        agg.stats.filter_time += t0.elapsed();
        agg.stats.device = agg.stats.device + (engine.gpu().stats().snapshot() - snap0);
        agg.stats.min_candidate += gsi::signature::min_candidate_size(&cands);
        agg.queries += 1;
    }
    agg
}

/// Run an edge-oriented GPU baseline over a query batch.
pub fn run_edge_baseline(
    engine: &EdgeJoinEngine,
    data: &Graph,
    queries: &[Graph],
    opts: &HarnessOpts,
) -> Aggregate {
    let prepared = engine.prepare(data);
    let mut agg = Aggregate::default();
    for q in queries {
        let res = engine.run_with_timeout(data, &prepared, q, Some(opts.timeout()));
        fold_engine_result(&mut agg, &res);
    }
    agg
}

/// Run a CPU backtracking baseline over a query batch.
pub fn run_cpu_baseline(
    which: CpuBaseline,
    data: &Graph,
    queries: &[Graph],
    opts: &HarnessOpts,
) -> Aggregate {
    let mut agg = Aggregate::default();
    for q in queries {
        let res = match which {
            CpuBaseline::Vf3 => vf3::run(data, q, Some(opts.cpu_timeout())),
            CpuBaseline::Cfl => cfl::run(data, q, Some(opts.cpu_timeout())),
        };
        fold_engine_result(&mut agg, &res);
    }
    agg
}

/// Which CPU baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuBaseline {
    /// VF3-like (ordering + lookahead).
    Vf3,
    /// CFL-Match-like (core-forest-leaf + NLF).
    Cfl,
}

fn fold_engine_result(agg: &mut Aggregate, res: &EngineResult) {
    agg.queries += 1;
    agg.stats.total_time += res.elapsed;
    if !res.timed_out {
        agg.completed_time += res.elapsed;
    }
    agg.stats.n_matches += res.len();
    agg.timeouts += res.timed_out as usize;
    if let Some(dev) = res.device {
        agg.stats.device = agg.stats.device + dev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::HarnessOpts;
    use gsi::datasets::DatasetKind;

    fn tiny() -> (HarnessOpts, std::sync::Arc<Graph>, Vec<Graph>) {
        let opts = HarnessOpts {
            scale: 0.03,
            queries: 2,
            query_size: 4,
            ..Default::default()
        };
        let data = opts.dataset(DatasetKind::Enron);
        let queries = opts.query_batch(&data);
        (opts, data, queries)
    }

    #[test]
    fn gsi_aggregate_populates() {
        let (opts, data, queries) = tiny();
        let agg = run_gsi(&GsiConfig::gsi_opt(), &data, &queries, &opts);
        assert_eq!(agg.queries, queries.len());
        assert!(agg.stats.gld() > 0);
        assert!(agg.avg_time() > Duration::ZERO);
        assert_eq!(agg.timeouts, 0);
    }

    #[test]
    fn backends_agree_on_device_counters() {
        let (opts, data, queries) = tiny();
        let device = DeviceConfig {
            worker_threads: 1,
            ..DeviceConfig::titan_xp()
        };
        let cfg = GsiConfig::gsi_opt();
        let serial = run_gsi_on_device(&cfg, device.clone(), &data, &queries, &opts);
        let par = run_gsi_on_device(
            &cfg.with_backend(BackendKind::HostParallel, 3),
            device,
            &data,
            &queries,
            &opts,
        );
        assert_eq!(serial.stats.n_matches, par.stats.n_matches);
        assert_eq!(serial.stats.device, par.stats.device);
        assert_eq!(serial.stats.join_work_units, par.stats.join_work_units);
        assert!(par.stats.join_span_units <= par.stats.join_work_units);
        assert!(serial.stats.join_work_units > 0);
    }

    #[test]
    fn filter_only_aggregate() {
        let (_, data, queries) = tiny();
        let agg = run_gsi_filter_only(&GsiConfig::gsi(), &data, &queries);
        assert!(
            agg.stats.min_candidate > 0,
            "walk queries always have a match"
        );
        assert!(agg.stats.gld() > 0);
    }

    #[test]
    fn cpu_baseline_aggregate() {
        let (opts, data, queries) = tiny();
        let agg = run_cpu_baseline(CpuBaseline::Vf3, &data, &queries, &opts);
        assert_eq!(agg.queries, queries.len());
        assert!(agg.stats.n_matches > 0);
    }

    #[test]
    fn gpu_baseline_aggregate() {
        let (opts, data, queries) = tiny();
        let engine = gsi::baselines::gpsm::engine(Gpu::new(DeviceConfig::titan_xp()));
        let agg = run_edge_baseline(&engine, &data, &queries, &opts);
        assert_eq!(agg.queries, queries.len());
        assert!(agg.stats.gld() > 0);
    }
}
