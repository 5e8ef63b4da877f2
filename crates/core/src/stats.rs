//! Per-query run statistics — the measurement columns of the paper's tables.

use gsi_gpu_sim::StatsSnapshot;
use std::time::Duration;

/// Everything a single query run reports.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Filtering-phase wall time.
    pub filter_time: Duration,
    /// Join-order resolution wall time: plan-cache reuse check plus (on a
    /// miss) greedy or cost-based plan construction. A sub-interval of
    /// [`join_time`](Self::join_time), which historically starts its clock
    /// before planning and keeps that meaning.
    pub plan_time: Duration,
    /// Joining-phase wall time (includes [`plan_time`](Self::plan_time)).
    pub join_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
    /// The query's own device ledger (GLD, GST, kernels, …): exactly its
    /// work, whatever else ran on the device meanwhile.
    pub device: StatsSnapshot,
    /// The filtering phase's share of [`device`](Self::device).
    pub filter_device: StatsSnapshot,
    /// Smallest candidate-set size (the paper's minimum `|C(u)|`).
    pub min_candidate: usize,
    /// Number of matches found.
    pub n_matches: usize,
    /// Peak intermediate-table row count across join iterations.
    pub max_intermediate_rows: usize,
    /// The run aborted (intermediate-table guard or timeout).
    pub timed_out: bool,
    /// Intermediate-table rows after each join-order position the run
    /// executed (`step_rows[0]` = seeded candidate rows). A run that
    /// aborted (timeout/guard) or short-circuited on an empty candidate
    /// set reports only the executed prefix. Per-run provenance for
    /// `ExplainPlan::fill_actuals`; **not** folded by
    /// [`RunStats::accumulate`] (aggregates mix different plans).
    pub step_rows: Vec<usize>,
    /// Wall time of each executed join-order position, parallel to the
    /// post-seed entries of [`step_rows`](Self::step_rows). **Only
    /// populated when the query ran with `TraceConfig::On`** — the
    /// per-step clock reads are the cost tracing pays for span trees, and
    /// the `Off` path skips them entirely. Not folded by
    /// [`RunStats::accumulate`] (same reason as `step_rows`).
    pub step_times: Vec<Duration>,
    /// Mid-query re-plans this run performed: each counts one suffix
    /// subset-DP run triggered by the adaptive misestimate threshold
    /// (`GsiConfig::replan_qerror_threshold`) whose spliced order actually
    /// replaced the remaining plan. `0` whenever the threshold is unset or
    /// the estimates stayed within it.
    pub replans: u32,
    /// Total streamed elements executed by the join backend (parallel
    /// "work" in the work/span sense).
    pub join_work_units: u64,
    /// Critical path of the executed join schedule: the busiest backend
    /// worker's elements, summed over launches ("span"). Equals
    /// `join_work_units` under the serial backend.
    pub join_span_units: u64,
}

impl RunStats {
    /// Global-memory load transactions (the paper's GLD).
    pub fn gld(&self) -> u64 {
        self.device.gld_transactions
    }

    /// Global-memory store transactions (the paper's GST).
    pub fn gst(&self) -> u64 {
        self.device.gst_transactions
    }

    /// Kernel launches.
    pub fn kernels(&self) -> u64 {
        self.device.kernel_launches
    }

    /// Join-phase GLD (total minus filtering).
    pub fn join_gld(&self) -> u64 {
        self.device.gld_transactions - self.filter_device.gld_transactions
    }

    /// Join-phase GST (total minus filtering).
    pub fn join_gst(&self) -> u64 {
        self.device.gst_transactions - self.filter_device.gst_transactions
    }

    /// Parallel speedup the executed join schedule admits (work / span);
    /// `1.0` when no backend work was recorded.
    pub fn join_schedule_speedup(&self) -> f64 {
        if self.join_span_units == 0 {
            1.0
        } else {
            self.join_work_units as f64 / self.join_span_units as f64
        }
    }

    /// Merge another run into an accumulating aggregate (used by the bench
    /// harness to average over the paper's 100 queries per configuration).
    pub fn accumulate(&mut self, other: &RunStats) {
        self.filter_time += other.filter_time;
        self.plan_time += other.plan_time;
        self.join_time += other.join_time;
        self.total_time += other.total_time;
        self.device.gld_transactions += other.device.gld_transactions;
        self.device.gst_transactions += other.device.gst_transactions;
        self.device.kernel_launches += other.device.kernel_launches;
        self.device.warp_tasks += other.device.warp_tasks;
        self.device.work_units += other.device.work_units;
        self.device.device_allocs += other.device.device_allocs;
        self.device.device_alloc_bytes += other.device.device_alloc_bytes;
        self.device.idle_lane_work += other.device.idle_lane_work;
        self.filter_device.gld_transactions += other.filter_device.gld_transactions;
        self.filter_device.gst_transactions += other.filter_device.gst_transactions;
        self.filter_device.kernel_launches += other.filter_device.kernel_launches;
        self.join_work_units += other.join_work_units;
        self.join_span_units += other.join_span_units;
        self.replans += other.replans;
        self.min_candidate += other.min_candidate;
        self.n_matches += other.n_matches;
        self.max_intermediate_rows = self.max_intermediate_rows.max(other.max_intermediate_rows);
        self.timed_out |= other.timed_out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = RunStats::default();
        s.device.gld_transactions = 100;
        s.device.gst_transactions = 40;
        s.filter_device.gld_transactions = 30;
        s.filter_device.gst_transactions = 10;
        assert_eq!(s.gld(), 100);
        assert_eq!(s.join_gld(), 70);
        assert_eq!(s.join_gst(), 30);
    }

    #[test]
    fn accumulate_sums_and_maxes() {
        let mut a = RunStats {
            n_matches: 3,
            max_intermediate_rows: 10,
            ..Default::default()
        };
        let b = RunStats {
            n_matches: 4,
            max_intermediate_rows: 7,
            timed_out: true,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.n_matches, 7);
        assert_eq!(a.max_intermediate_rows, 10);
        assert!(a.timed_out);
    }
}
