//! Open-loop arrival schedules and lateness accounting.
//!
//! Arrivals are due at fixed offsets from one origin, whatever the system
//! does. A request is timed **from its due time**, not from when it was
//! actually sent, so a stall is charged to every arrival it delayed; how
//! late the generator itself ran is reported separately.

use std::time::{Duration, Instant};

/// `n` arrivals, one every `interval`, the first due at the origin.
///
/// Paced rather than Poisson on purpose: with one blocking connection a
/// seeded Poisson burst decides the tail, and the same burst pattern is a
/// different workload on a faster commit. In-phase pacing makes every
/// read race a write.
pub fn paced(n: usize, interval: Duration) -> Vec<Duration> {
    (0..n).map(|i| interval * i as u32).collect()
}

/// How many arrivals fit into `seconds` at one per `interval` (≥ 1).
pub fn arrivals_in(seconds: f64, interval: Duration) -> usize {
    ((seconds / interval.as_secs_f64()).floor() as usize).max(1)
}

/// One open-loop request's clock readings, all relative to the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Arrival {
    /// How late the generator sent it (0 when on time).
    pub fn generator_late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Latency as the arriving user saw it: from the due time.
    pub fn latency_from_due(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }
}

/// Sleep until `due` after `origin` (returns at once when already past
/// it), then run `op`; the clock readings say how late it went out.
pub fn fire_at<T>(origin: Instant, due: Duration, op: impl FnOnce() -> T) -> (Arrival, T) {
    let now = origin.elapsed();
    if now < due {
        std::thread::sleep(due - now);
    }
    let sent = origin.elapsed();
    let out = op();
    let done = origin.elapsed();
    (Arrival { due, sent, done }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_schedule_is_evenly_spaced_from_the_origin() {
        let s = paced(4, Duration::from_millis(100));
        assert_eq!(
            s,
            [0, 100, 200, 300].map(Duration::from_millis).to_vec(),
            "first arrival is due at the origin"
        );
        assert_eq!(arrivals_in(12.0, Duration::from_millis(100)), 120);
        assert_eq!(arrivals_in(0.01, Duration::from_millis(100)), 1);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let ms = Duration::from_millis;
        // Sent 30 ms late because the previous request stalled; the user
        // waited 50 ms, not 20.
        let a = Arrival {
            due: ms(100),
            sent: ms(130),
            done: ms(150),
        };
        assert_eq!(a.generator_late(), ms(30));
        assert_eq!(a.latency_from_due(), ms(50));
        // On time (woken a hair early is clamped, not negative).
        let b = Arrival {
            due: ms(100),
            sent: ms(100),
            done: ms(104),
        };
        assert_eq!(b.generator_late(), Duration::ZERO);
        assert_eq!(b.latency_from_due(), ms(4));
    }

    #[test]
    fn fire_at_waits_for_the_due_time_and_reports_lateness_when_behind() {
        let origin = Instant::now();
        let (a, v) = fire_at(origin, Duration::from_millis(20), || 7);
        assert_eq!(v, 7);
        assert!(a.sent >= a.due, "never fires before the due time");
        // Already 20+ ms past an arrival due at 5 ms: goes out at once,
        // and the lateness is accounted.
        let (b, _) = fire_at(origin, Duration::from_millis(5), || ());
        assert!(b.generator_late() >= Duration::from_millis(15));
        assert!(b.latency_from_due() >= b.generator_late());
    }
}
