//! The slow-query flight recorder: a bounded ring of full [`QueryTrace`]s
//! kept for the queries worth a postmortem.
//!
//! **Retention policy.** Capacity `N` splits into two pools:
//!
//! * **failures** — deadline-expired, plan-rejected, and panicked queries,
//!   a FIFO ring of the most recent `max(N/2, 1)`;
//! * **slowest completed** — the remaining slots hold the highest-latency
//!   completed queries seen so far, evicting the fastest resident when
//!   full.
//!
//! Failures never evict slow queries or vice versa, so a panic storm can't
//! wash out the latency outliers and a latency storm can't hide the
//! panics.
//!
//! **Hot-path cost.** Offering a completed trace first reads `floor_us` —
//! the latency a trace must beat to enter the slowest pool — with one
//! relaxed atomic load. While the pool has spare slots the floor is zero
//! and everything is admitted; once full, the floor tracks the fastest
//! resident, and the overwhelming majority of queries (by construction:
//! everything but the tail) decline without touching the lock. Failures
//! are rare enough to take the lock unconditionally.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::json::JsonBuf;
use crate::trace::QueryTrace;

#[derive(Debug, Default)]
struct FlightInner {
    /// Most recent failed traces, oldest first.
    failures: VecDeque<QueryTrace>,
    /// Slowest completed traces, unordered; evict by min latency.
    slowest: Vec<QueryTrace>,
}

/// Bounded retention of full query traces (see module docs for policy).
#[derive(Debug)]
pub struct FlightRecorder {
    failure_cap: usize,
    slowest_cap: usize,
    /// Latency (µs) a completed trace must *exceed* to enter the slowest
    /// pool; 0 while the pool has room. Read lock-free on the offer path.
    floor_us: AtomicU64,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// Recorder retaining at most `capacity` traces total (minimum 2:
    /// one failure slot, one slow slot).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        let failure_cap = (capacity / 2).max(1);
        FlightRecorder {
            failure_cap,
            slowest_cap: capacity - failure_cap,
            floor_us: AtomicU64::new(0),
            inner: Mutex::new(FlightInner::default()),
        }
    }

    /// Total retention capacity.
    pub fn capacity(&self) -> usize {
        self.failure_cap + self.slowest_cap
    }

    /// Offer a completed trace. Declined with a single atomic load unless
    /// it beats the current slowest-pool floor.
    pub fn offer_completed(&self, trace: QueryTrace) {
        let latency_us = trace.latency.as_micros() as u64;
        if latency_us <= self.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.slowest.len() < self.slowest_cap {
            inner.slowest.push(trace);
            if inner.slowest.len() == self.slowest_cap {
                self.store_floor(&inner);
            }
            return;
        }
        // Full: re-check under the lock (the floor may have risen), then
        // replace the fastest resident.
        let (victim_idx, victim_us) = match inner
            .slowest
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.latency.as_micros() as u64))
            .min_by_key(|&(_, us)| us)
        {
            Some(v) => v,
            None => return, // slowest_cap == 0: nothing to retain
        };
        if latency_us > victim_us {
            inner.slowest[victim_idx] = trace;
            self.store_floor(&inner);
        }
    }

    /// Record a failed trace (deadline expiry, plan rejection, panic).
    pub fn record_failure(&self, trace: QueryTrace) {
        let mut inner = self.inner.lock();
        if inner.failures.len() == self.failure_cap {
            inner.failures.pop_front();
        }
        inner.failures.push_back(trace);
    }

    fn store_floor(&self, inner: &FlightInner) {
        let floor = inner
            .slowest
            .iter()
            .map(|t| t.latency.as_micros() as u64)
            .min()
            .unwrap_or(0);
        self.floor_us.store(floor, Ordering::Relaxed);
    }

    /// Number of retained traces across both pools.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.failures.len() + inner.slowest.len()
    }

    /// Whether the recorder holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies of all retained traces: failures oldest-first, then
    /// completed traces slowest-first.
    pub fn records(&self) -> Vec<QueryTrace> {
        let inner = self.inner.lock();
        let mut out: Vec<QueryTrace> = inner.failures.iter().cloned().collect();
        let mut slow: Vec<QueryTrace> = inner.slowest.clone();
        slow.sort_by_key(|t| std::cmp::Reverse(t.latency));
        out.extend(slow);
        out
    }

    /// Dump all retained traces as one JSON object:
    /// `{"capacity":N,"traces":[...]}` in [`records`](Self::records) order.
    pub fn to_json(&self) -> String {
        let records = self.records();
        let mut buf = JsonBuf::new();
        buf.begin_obj();
        buf.field_u64("capacity", self.capacity() as u64);
        buf.key("traces");
        buf.begin_arr();
        for trace in &records {
            trace.write_json(&mut buf);
        }
        buf.end_arr();
        buf.end_obj();
        buf.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::trace::{StageBreakdown, TraceOutcome};

    fn trace(id: u64, latency_us: u64, outcome: TraceOutcome) -> QueryTrace {
        QueryTrace {
            query_id: id,
            graph: "g".into(),
            epoch: 0,
            planner: "greedy".into(),
            outcome,
            latency: Duration::from_micros(latency_us),
            breakdown: StageBreakdown::default(),
            spans: Vec::new(),
            explain_rows: Vec::new(),
        }
    }

    fn completed(id: u64, latency_us: u64) -> QueryTrace {
        trace(
            id,
            latency_us,
            TraceOutcome::Completed {
                matches: 0,
                timed_out: false,
            },
        )
    }

    #[test]
    fn retains_slowest_completed() {
        let rec = FlightRecorder::new(4); // 2 failure slots + 2 slow slots
        for (id, us) in [(1, 100), (2, 300), (3, 50), (4, 200), (5, 10)] {
            rec.offer_completed(completed(id, us));
        }
        let ids: Vec<u64> = rec.records().iter().map(|t| t.query_id).collect();
        // Slowest two survive, slowest first; 3, 5 (and eventually 1)
        // evicted or declined.
        assert_eq!(ids, [2, 4]);
        // Floor is now 200µs: a 150µs query is declined lock-free.
        rec.offer_completed(completed(6, 150));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn failures_ring_is_fifo_and_isolated() {
        let rec = FlightRecorder::new(4);
        for id in 0..5 {
            rec.record_failure(trace(id, 1, TraceOutcome::DeadlineExpired));
        }
        // Ring holds the 2 most recent failures; the slow pool is
        // untouched by the failure storm.
        rec.offer_completed(completed(100, 500));
        let ids: Vec<u64> = rec.records().iter().map(|t| t.query_id).collect();
        assert_eq!(ids, [3, 4, 100]);
    }

    #[test]
    fn failures_never_evict_slow_queries() {
        let rec = FlightRecorder::new(2); // 1 + 1
        rec.offer_completed(completed(1, 999));
        for id in 10..20 {
            rec.record_failure(trace(id, 1, TraceOutcome::PlanRejected));
        }
        let records = rec.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].query_id, 19); // newest failure
        assert_eq!(records[1].query_id, 1); // slow query survived
    }

    #[test]
    fn minimum_capacity_is_two() {
        let rec = FlightRecorder::new(0);
        assert_eq!(rec.capacity(), 2);
        rec.offer_completed(completed(1, 10));
        rec.record_failure(trace(2, 1, TraceOutcome::DeadlineExpired));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn json_dump_has_all_traces() {
        let rec = FlightRecorder::new(4);
        rec.offer_completed(completed(1, 10));
        rec.record_failure(trace(
            2,
            1,
            TraceOutcome::Panicked {
                message: "boom".into(),
            },
        ));
        let json = rec.to_json();
        assert!(json.starts_with("{\"capacity\":4,\"traces\":["));
        assert!(json.contains("\"query_id\":1"));
        assert!(json.contains("\"panic_message\":\"boom\""));
    }
}
