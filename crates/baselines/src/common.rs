//! Shared result type and helpers for baseline engines.

use gsi_gpu_sim::StatsSnapshot;
use gsi_graph::{Graph, VertexId};
use std::time::Duration;

/// Outcome of one baseline run.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Canonicalized assignments: one vector per match, indexed by query
    /// vertex, sorted — directly comparable with
    /// [`gsi_core::Matches::canonical`].
    pub assignments: Vec<Vec<VertexId>>,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// The run hit its timeout (assignments are partial and unusable).
    pub timed_out: bool,
    /// The run's own device ledger for GPU engines, `None` for CPU engines.
    pub device: Option<StatsSnapshot>,
}

impl EngineResult {
    /// Number of matches found.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no matches were found.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Verify every assignment is a genuine embedding.
    pub fn verify(&self, data: &Graph, query: &Graph) -> Result<(), String> {
        for (i, a) in self.assignments.iter().enumerate() {
            let mut seen = a.clone();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("match {i} not injective"));
            }
            for u in 0..query.n_vertices() as VertexId {
                if query.vlabel(u) != data.vlabel(a[u as usize]) {
                    return Err(format!("match {i}: vertex label mismatch at u{u}"));
                }
            }
            for e in query.edges() {
                if !data.has_edge(a[e.u as usize], a[e.v as usize], e.label) {
                    return Err(format!("match {i}: missing edge for {e:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Sort assignments into canonical order (rows ascending).
pub fn canonicalize(mut assignments: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    assignments.sort_unstable();
    assignments
}

/// Periodic timeout checker for backtracking loops: cheap enough to call
/// every expansion, only reads the clock every 4096 calls.
#[derive(Debug)]
pub struct TimeoutGuard {
    deadline: Option<std::time::Instant>,
    counter: u32,
    expired: bool,
}

impl TimeoutGuard {
    /// Guard with an optional timeout from now.
    pub fn new(timeout: Option<Duration>) -> Self {
        Self {
            deadline: timeout.map(|t| std::time::Instant::now() + t),
            counter: 0,
            expired: false,
        }
    }

    /// Returns `true` once the deadline has passed.
    pub fn expired(&mut self) -> bool {
        if self.expired {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.counter = self.counter.wrapping_add(1);
        if self.counter.is_multiple_of(4096) && std::time::Instant::now() > deadline {
            self.expired = true;
        }
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_without_timeout_never_expires() {
        let mut g = TimeoutGuard::new(None);
        for _ in 0..100_000 {
            assert!(!g.expired());
        }
    }

    #[test]
    fn guard_with_zero_timeout_expires() {
        let mut g = TimeoutGuard::new(Some(Duration::from_nanos(0)));
        let mut tripped = false;
        for _ in 0..10_000 {
            if g.expired() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn canonicalize_sorts() {
        let v = canonicalize(vec![vec![3, 1], vec![1, 2]]);
        assert_eq!(v, vec![vec![1, 2], vec![3, 1]]);
    }
}
