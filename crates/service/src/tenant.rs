//! The scheduler's one queue: per-tenant bounded lanes under a global
//! capacity, drained by the workers in deficit-round-robin order.
//!
//! Every submission enters its tenant's *lane* — a FIFO — and workers pop
//! lanes with **deficit round robin** (DRR): each visit credits a lane
//! one quantum of deficit; the lane's head job is dispatched when its
//! *cost* (pattern vertex count — a proxy for join depth, the dominant
//! cost driver) fits the accumulated deficit. A tenant streaming
//! 12-vertex patterns therefore gets the same long-run *work* share as
//! one streaming 3-vertex patterns, not 4× the queries. A pickup may
//! extend into a *batch* of compatible jobs, but only from the lane DRR
//! selected, and every member's cost is charged to that lane's deficit
//! (which may go into debt the lane repays in skipped turns) — batching
//! cannot bypass fairness.
//!
//! Admission is one decision ([`FairQueue::enqueue`]): the global
//! capacity first, then the tenant's **queue quota**. The **in-flight
//! quota** bounds jobs dispatched but not yet *released*: each dispatched
//! job carries a [`LaneSlot`] that travels with its response and frees
//! the slot when dropped — after the response was handed to an in-process
//! caller, or written to (or abandoned on) the wire. A lane at its cap is
//! skipped until a slot frees. The `None` tenant is the embedding
//! application itself: it gets a lane (so it shares fairly with wire
//! tenants) but is bounded by the global capacity alone.
//!
//! Draining ([`FairQueue::drain`]) flips the queue into run-down mode:
//! enqueues are refused, dequeues keep serving (in-flight caps no longer
//! apply) until every lane is empty, then return `None` — the workers'
//! signal to exit.

use crate::scheduler::SubmitError;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Quotas and scheduling weights applied uniformly to every tenant.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Most jobs one tenant may have queued (not yet dispatched).
    pub queue_quota: usize,
    /// Most jobs one tenant may have in flight (dispatched, response not
    /// yet handed over or written).
    pub inflight_quota: usize,
    /// Deficit credited per DRR visit. Larger quanta approach plain
    /// round-robin over *queries*; quanta near typical per-query cost
    /// equalize *work*.
    pub quantum: u64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            queue_quota: 64,
            inflight_quota: 8,
            quantum: 8,
        }
    }
}

/// A lane's key: a named tenant, or `None` for the embedding application.
type Tenant = Option<String>;

/// One tenant's lane.
struct Lane<T> {
    queue: VecDeque<(u64, T)>,
    /// Signed: a batch may overdraw it; the debt is repaid in turns.
    deficit: i64,
    in_flight: usize,
    dispatched_total: u64,
    dispatched_cost: u64,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            deficit: 0,
            in_flight: 0,
            dispatched_total: 0,
            dispatched_cost: 0,
        }
    }
}

impl<T> Lane<T> {
    /// Pop the head job plus up to `limit - 1` queued jobs `compatible`
    /// with it, preserving their relative order and charging every one to
    /// this lane. Incompatible jobs stay queued in place.
    fn take_batch(&mut self, limit: usize, compatible: &impl Fn(&T, &T) -> bool) -> Vec<T> {
        let mut batch: Vec<T> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() && batch.len() < limit.max(1) {
            if batch
                .first()
                .is_some_and(|first| !compatible(first, &self.queue[i].1))
            {
                i += 1;
                continue;
            }
            let Some((cost, job)) = self.queue.remove(i) else {
                break;
            };
            self.deficit -= cost as i64;
            self.in_flight += 1;
            self.dispatched_total += 1;
            self.dispatched_cost += cost;
            batch.push(job);
        }
        batch
    }
}

struct State<T> {
    lanes: BTreeMap<Tenant, Lane<T>>,
    /// Round-robin ring of tenants with queued work.
    ring: VecDeque<Tenant>,
    /// Whether the ring-front lane already received its quantum this
    /// turn. A turn spans consecutive dispatches while the lane keeps
    /// the front; it ends (and the flag resets) when the front changes.
    front_credited: bool,
    total_queued: usize,
    /// Deepest `total_queued` has ever been. The point-in-time depth is
    /// useless for sizing the capacity after a burst has drained.
    depth_highwater: usize,
    draining: bool,
}

/// Point-in-time view of one tenant's lane, for health and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Tenant id; `None` is the in-process embedding application's lane.
    pub tenant: Option<String>,
    /// Jobs queued, not yet dispatched.
    pub queued: usize,
    /// Jobs dispatched whose slot has not been released.
    pub in_flight: usize,
    /// Jobs dispatched over the lane's lifetime.
    pub dispatched_total: u64,
    /// Summed cost of dispatched jobs — the quantity DRR equalizes.
    pub dispatched_cost: u64,
}

/// A multi-tenant bounded queue with DRR dispatch.
pub(crate) struct FairQueue<T> {
    state: Mutex<State<T>>,
    work: Condvar,
    capacity: usize,
    policy: TenantPolicy,
}

/// One dispatched job's claim on its tenant's in-flight quota, released on
/// drop.
pub(crate) struct LaneSlot<T> {
    queue: Arc<FairQueue<T>>,
    tenant: Tenant,
}

impl<T> Drop for LaneSlot<T> {
    fn drop(&mut self) {
        self.queue.complete(&self.tenant);
    }
}

impl<T> FairQueue<T> {
    /// An empty queue holding at most `capacity` jobs under `policy`.
    pub(crate) fn new(capacity: usize, policy: TenantPolicy) -> Self {
        Self {
            state: Mutex::new(State {
                lanes: BTreeMap::new(),
                ring: VecDeque::new(),
                front_credited: false,
                total_queued: 0,
                depth_highwater: 0,
                draining: false,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
            policy: TenantPolicy {
                // A zero quantum would never cover any job's cost.
                quantum: policy.quantum.max(1),
                ..policy
            },
        }
    }

    /// Queue `job` for `tenant` at `cost` DRR units — the one admission
    /// decision: global capacity first, then the tenant's queue quota.
    pub(crate) fn enqueue(
        &self,
        tenant: Option<&str>,
        cost: u64,
        job: T,
    ) -> Result<(), SubmitError> {
        let mut state = self.state.lock();
        if state.draining {
            return Err(SubmitError::ShuttingDown);
        }
        if state.total_queued >= self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let key = tenant.map(str::to_string);
        let queued = state.lanes.get(&key).map_or(0, |lane| lane.queue.len());
        if tenant.is_some() && queued >= self.policy.queue_quota {
            return Err(SubmitError::TenantQuota {
                tenant: key.unwrap_or_default(),
                queued,
                quota: self.policy.queue_quota,
            });
        }
        let lane = state.lanes.entry(key.clone()).or_default();
        let was_empty = lane.queue.is_empty();
        lane.queue.push_back((cost.max(1), job));
        if was_empty {
            state.ring.push_back(key);
        }
        state.total_queued += 1;
        state.depth_highwater = state.depth_highwater.max(state.total_queued);
        drop(state);
        self.work.notify_one();
        Ok(())
    }

    /// Block for the next pickup under DRR order: the selected lane's head
    /// job plus up to `window() - 1` jobs from the *same lane* that are
    /// `compatible` with it (`window` is read at pickup time, under the
    /// queue lock). Every job comes with the [`LaneSlot`] holding its
    /// in-flight claim. Returns `None` only after [`FairQueue::drain`]
    /// once every lane is empty.
    pub(crate) fn dequeue_batch(
        self: &Arc<Self>,
        window: impl Fn() -> usize,
        compatible: impl Fn(&T, &T) -> bool,
    ) -> Option<Vec<(T, LaneSlot<T>)>> {
        let mut state = self.state.lock();
        let (tenant, batch) = loop {
            if let Some(popped) = Self::try_pop(&mut state, &self.policy, &window, &compatible) {
                break popped;
            }
            if state.draining && state.total_queued == 0 {
                return None;
            }
            // Nothing dispatchable: either no work, or every lane with
            // work is at its in-flight quota. `complete`, `enqueue`, and
            // `drain` all notify.
            self.work.wait(&mut state);
        };
        drop(state);
        let slots = batch.into_iter().map(|job| {
            let slot = LaneSlot {
                queue: Arc::clone(self),
                tenant: tenant.clone(),
            };
            (job, slot)
        });
        Some(slots.collect())
    }

    /// One DRR dispatch step. A lane's *turn* starts when it reaches the
    /// ring front: it is credited one quantum (once — `front_credited`
    /// guards re-entry across `dequeue_batch` calls), then served while
    /// its accumulated deficit covers its head job's cost. When the
    /// deficit falls short the leftover (or debt) is kept and the ring
    /// rotates. Every lane thus earns deficit at the same per-turn rate,
    /// so long-run dispatched *cost* — not query count — equalizes across
    /// backlogged tenants. Returns `None` when no lane can dispatch (empty
    /// ring, or every lane with work is at its in-flight quota).
    fn try_pop(
        state: &mut State<T>,
        policy: &TenantPolicy,
        window: &impl Fn() -> usize,
        compatible: &impl Fn(&T, &T) -> bool,
    ) -> Option<(Tenant, Vec<T>)> {
        // Lanes passed over in a row for being at their in-flight cap;
        // once that is the whole ring nothing can dispatch.
        let mut capped = 0;
        while capped < state.ring.len() {
            // The ring only holds tenants with queued work, so the lane
            // and its head job always exist.
            let tenant = state.ring.front().cloned()?;
            let lane = state.lanes.get_mut(&tenant)?;
            // The run-down ignores the cap: a shutdown must not wait on
            // callers to collect the responses they already have.
            let free_slots = match tenant {
                Some(_) if !state.draining => policy.inflight_quota.saturating_sub(lane.in_flight),
                _ => usize::MAX,
            };
            if free_slots == 0 {
                capped += 1;
            } else {
                capped = 0;
                if !state.front_credited {
                    lane.deficit += policy.quantum as i64;
                    state.front_credited = true;
                }
                let head_cost = lane.queue.front().map_or(1, |(c, _)| *c);
                if lane.deficit >= head_cost as i64 {
                    let batch = lane.take_batch(window().min(free_slots), compatible);
                    state.total_queued -= batch.len();
                    if lane.queue.is_empty() {
                        // An emptied lane leaves the ring and forfeits its
                        // saved deficit: idleness must not bank priority.
                        // Debt stays owed.
                        lane.deficit = lane.deficit.min(0);
                        state.ring.pop_front();
                        state.front_credited = false;
                    }
                    // Otherwise the lane keeps the front — its turn isn't
                    // over until its deficit no longer covers a head job.
                    return Some((tenant, batch));
                }
            }
            state.ring.rotate_left(1);
            state.front_credited = false;
        }
        None
    }

    /// Release one dispatched job's in-flight slot ([`LaneSlot`]'s drop).
    fn complete(&self, tenant: &Tenant) {
        let mut state = self.state.lock();
        let Some(lane) = state.lanes.get_mut(tenant) else {
            return;
        };
        lane.in_flight = lane.in_flight.saturating_sub(1);
        let backlogged = !lane.queue.is_empty();
        // Drop idle lanes so tenant cardinality can't grow without bound
        // over a long-lived service.
        if !backlogged && lane.in_flight == 0 {
            state.lanes.remove(tenant);
        }
        drop(state);
        if backlogged {
            // The freed slot may unblock a lane the workers skipped.
            self.work.notify_all();
        }
    }

    /// Stop accepting work; queued jobs keep dispatching until every lane
    /// is empty, after which `dequeue_batch` returns `None`.
    pub(crate) fn drain(&self) {
        self.state.lock().draining = true;
        self.work.notify_all();
    }

    /// Jobs queued across all lanes.
    pub(crate) fn total_queued(&self) -> usize {
        self.state.lock().total_queued
    }

    /// Deepest the queue has ever been.
    pub(crate) fn depth_highwater(&self) -> usize {
        self.state.lock().depth_highwater
    }

    /// Per-tenant lane views, sorted by tenant id (the `None` lane first).
    pub(crate) fn snapshot(&self) -> Vec<LaneSnapshot> {
        let state = self.state.lock();
        state
            .lanes
            .iter()
            .map(|(tenant, lane)| LaneSnapshot {
                tenant: tenant.clone(),
                queued: lane.queue.len(),
                in_flight: lane.in_flight,
                dispatched_total: lane.dispatched_total,
                dispatched_cost: lane.dispatched_cost,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(quota: usize, inflight: usize, quantum: u64) -> Arc<FairQueue<u32>> {
        Arc::new(FairQueue::new(
            1024,
            TenantPolicy {
                queue_quota: quota,
                inflight_quota: inflight,
                quantum,
            },
        ))
    }

    /// Pop one job, unbatched; the returned slot holds its in-flight claim.
    fn dequeue(q: &Arc<FairQueue<u32>>) -> Option<(String, u32, LaneSlot<u32>)> {
        let (job, slot) = q.dequeue_batch(|| 1, |_, _| false)?.pop()?;
        Some((slot.tenant.clone().unwrap_or_default(), job, slot))
    }

    #[test]
    fn queue_quota_rejects_with_occupancy() {
        let q = queue(2, 8, 8);
        q.enqueue(Some("a"), 1, 0).unwrap();
        q.enqueue(Some("a"), 1, 1).unwrap();
        assert_eq!(
            q.enqueue(Some("a"), 1, 2),
            Err(SubmitError::TenantQuota {
                tenant: "a".into(),
                queued: 2,
                quota: 2
            })
        );
        // Another tenant's lane is unaffected.
        q.enqueue(Some("b"), 1, 0).unwrap();
    }

    #[test]
    fn global_capacity_is_checked_first_and_alone_bounds_the_untenanted_lane() {
        let q: FairQueue<u32> = FairQueue::new(
            3,
            TenantPolicy {
                queue_quota: 1,
                inflight_quota: 1,
                quantum: 8,
            },
        );
        // The embedding application's lane ignores the tenant queue quota…
        for i in 0..3 {
            q.enqueue(None, 1, i).unwrap();
        }
        // …and a full queue refuses everyone with QueueFull, tenants too.
        let full = Err(SubmitError::QueueFull { capacity: 3 });
        assert_eq!(q.enqueue(None, 1, 3), full);
        assert_eq!(q.enqueue(Some("a"), 1, 3), full);
        assert_eq!(q.depth_highwater(), 3);

        // Nor does the in-flight quota cap it: all three dispatch with
        // every slot still held.
        let q = Arc::new(q);
        let held: Vec<_> = (0..3).map(|_| dequeue(&q).unwrap()).collect();
        assert_eq!(q.snapshot()[0].tenant, None);
        assert_eq!(q.snapshot()[0].in_flight, 3);
        drop(held);
        assert!(q.snapshot().is_empty());
    }

    #[test]
    fn drr_interleaves_tenants_fairly() {
        let q = queue(64, 64, 4);
        // Tenant "bulk" floods first; "interactive" arrives after.
        for i in 0..10 {
            q.enqueue(Some("bulk"), 4, i).unwrap();
        }
        for i in 100..110 {
            q.enqueue(Some("interactive"), 4, i).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..20 {
            let (tenant, _, _slot) = dequeue(&q).unwrap();
            order.push(tenant);
        }
        // Equal cost and quantum: the schedule must alternate rather than
        // serving the flood first. Check the first 10 dispatches contain
        // both tenants ~equally.
        let bulk_first10 = order[..10].iter().filter(|t| *t == "bulk").count();
        assert!(
            (4..=6).contains(&bulk_first10),
            "DRR should interleave, got {order:?}"
        );
    }

    #[test]
    fn drr_equalizes_work_not_query_count() {
        let q = queue(64, 64, 6);
        // "heavy" submits cost-12 jobs, "light" cost-3: over a window in
        // which both lanes stay backlogged, light should dispatch ~4× the
        // queries of heavy.
        for i in 0..8 {
            q.enqueue(Some("heavy"), 12, i).unwrap();
        }
        for i in 0..32 {
            q.enqueue(Some("light"), 3, i).unwrap();
        }
        let mut heavy = 0u64;
        let mut light = 0u64;
        for _ in 0..25 {
            let (tenant, _, _slot) = dequeue(&q).unwrap();
            match tenant.as_str() {
                "heavy" => heavy += 1,
                _ => light += 1,
            }
        }
        assert!(
            light >= heavy * 3,
            "cost-weighted fairness violated: heavy={heavy} light={light}"
        );
    }

    #[test]
    fn batch_stays_in_its_lane_and_its_cost_is_repaid() {
        let q = queue(64, 64, 4);
        // Same-parity jobs are "compatible". Lane a: 0 1 2 4 6, lane b: 8 10.
        for job in [0, 1, 2, 4, 6] {
            q.enqueue(Some("a"), 4, job).unwrap();
        }
        for job in [8, 10] {
            q.enqueue(Some("b"), 4, job).unwrap();
        }
        let same_parity = |x: &u32, y: &u32| x % 2 == y % 2;
        let batch = q.dequeue_batch(|| 8, same_parity).unwrap();
        let jobs: Vec<u32> = batch.iter().map(|(job, _)| *job).collect();
        // b's 8 and 10 are compatible with the head but in another lane.
        assert_eq!(jobs, [0, 2, 4, 6], "window 8, yet only lane a's jobs");
        assert!(batch.iter().all(|(_, s)| s.tenant.as_deref() == Some("a")));
        // The batch overdrew a's deficit (one quantum 4, charged 16): b is
        // served twice before a's leftover job gets its next turn.
        let next: Vec<String> = (0..3).map(|_| dequeue(&q).unwrap().0).collect();
        assert_eq!(next, ["b", "b", "a"]);
    }

    #[test]
    fn inflight_quota_caps_dispatch_until_completion() {
        let q = queue(8, 1, 8);
        q.enqueue(Some("a"), 1, 0).unwrap();
        q.enqueue(Some("a"), 1, 1).unwrap();
        q.enqueue(Some("b"), 1, 2).unwrap();
        let (t1, _, slot_a) = dequeue(&q).unwrap();
        assert_eq!(t1, "a");
        // a is at its in-flight cap; only b can dispatch now.
        let (t2, _, _slot_b) = dequeue(&q).unwrap();
        assert_eq!(t2, "b");
        // With both capped (b has nothing queued), releasing a's slot
        // lets its second job through.
        drop(slot_a);
        let (t3, _, _slot) = dequeue(&q).unwrap();
        assert_eq!(t3, "a");
    }

    #[test]
    fn drain_runs_down_then_signals_none() {
        let q = queue(8, 1, 8);
        q.enqueue(Some("a"), 1, 0).unwrap();
        q.enqueue(Some("a"), 1, 1).unwrap();
        q.drain();
        assert_eq!(q.enqueue(Some("a"), 1, 2), Err(SubmitError::ShuttingDown));
        // Both dispatch although the first still holds the lane's only
        // in-flight slot: the run-down never waits on a slot.
        let held = dequeue(&q);
        assert!(held.is_some());
        assert!(dequeue(&q).is_some());
        assert!(dequeue(&q).is_none());
        assert!(dequeue(&q).is_none());
    }

    #[test]
    fn drain_wakes_blocked_dequeuer() {
        let q = queue(8, 8, 8);
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || dequeue(&q2).is_none());
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.drain();
        assert!(h.join().unwrap());
    }

    #[test]
    fn snapshot_reports_lane_accounting() {
        let q = queue(8, 8, 8);
        q.enqueue(Some("a"), 5, 0).unwrap();
        q.enqueue(Some("a"), 5, 1).unwrap();
        let first = dequeue(&q).unwrap();
        let snap = q.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].tenant.as_deref(), Some("a"));
        assert_eq!(snap[0].queued, 1);
        assert_eq!(snap[0].in_flight, 1);
        assert_eq!(snap[0].dispatched_total, 1);
        assert_eq!(snap[0].dispatched_cost, 5);
        // Releasing the last in-flight slot with an empty queue GCs the
        // lane.
        let second = dequeue(&q).unwrap();
        drop(first);
        drop(second);
        assert!(q.snapshot().is_empty());
    }
}
