//! The join-strategy layer: *what* one join iteration computes.
//!
//! Both of the paper's output schemes drive the same per-edge kernels
//! ([`crate::join`]) and differ only in buffer placement and pass count.
//! [`JoinStrategy`] captures that contract, so the engine dispatches on a
//! trait object instead of matching [`JoinScheme`] inline, and new schemes
//! (e.g. a hybrid that switches per iteration) plug in without touching the
//! engine. Below the strategy sits the join pool ([`crate::backend`]),
//! which runs the planned kernels on the host; below that, the simulated
//! device.

use crate::config::JoinScheme;
use crate::join::{order_linking_edges, JoinCtx, JoinOverflow};
use crate::plan::JoinStep;
use crate::prealloc::PreallocCombine;
use crate::radix::RadixHashJoin;
use crate::set_ops::CandidateProbe;
use crate::table::MatchTable;
use crate::two_step::TwoStep;
use gsi_graph::EdgeLabel;
use gsi_signature::CandidateSet;

/// One output scheme of the joining phase (Algorithm 3's loop body).
///
/// Implementations must be stateless across iterations: the engine calls
/// [`JoinStrategy::join_iteration`] once per step of the join plan, and a
/// strategy is shared (as a `&'static` singleton) by every concurrent query.
pub trait JoinStrategy: Send + Sync + std::fmt::Debug {
    /// The configuration value this strategy implements.
    fn scheme(&self) -> JoinScheme;

    /// Short human-readable name (bench tables, logs).
    fn name(&self) -> &'static str;

    /// Join the intermediate table `m` with candidate set `cand` along the
    /// linking edges of `step`, returning the extended table `M'`.
    fn join_iteration(
        &self,
        ctx: &JoinCtx<'_>,
        m: &MatchTable,
        step: &JoinStep,
        cand: &CandidateSet,
    ) -> Result<MatchTable, JoinOverflow>;
}

/// The shared prologue of one join iteration: edge ordering (Algorithm 4
/// line 1) and the candidate probe structure.
pub struct IterationSetup {
    /// Linking edges, first-edge-minimum-frequency ordered.
    pub edges: Vec<(usize, EdgeLabel)>,
    /// `C(u)` in probeable device form (bitset or sorted list).
    pub probe: CandidateProbe,
}

impl IterationSetup {
    /// Build the prologue for `step`, charging the probe's build cost.
    pub fn build(ctx: &JoinCtx<'_>, step: &JoinStep, cand: &CandidateSet) -> Self {
        let edges = order_linking_edges(ctx, &step.linking);
        let probe = CandidateProbe::build(ctx.gpu, ctx.cfg.set_ops, ctx.data.n_vertices(), cand);
        Self { edges, probe }
    }
}

static PREALLOC_COMBINE: PreallocCombine = PreallocCombine;
static TWO_STEP: TwoStep = TwoStep;
static RADIX_HASH: RadixHashJoin = RadixHashJoin;

/// The strategy singleton implementing a configured [`JoinScheme`].
pub fn strategy_for(scheme: JoinScheme) -> &'static dyn JoinStrategy {
    match scheme {
        JoinScheme::PreallocCombine => &PREALLOC_COMBINE,
        JoinScheme::TwoStep => &TWO_STEP,
        JoinScheme::RadixHash => &RADIX_HASH,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_round_trip_their_scheme() {
        for scheme in [
            JoinScheme::PreallocCombine,
            JoinScheme::TwoStep,
            JoinScheme::RadixHash,
        ] {
            assert_eq!(strategy_for(scheme).scheme(), scheme);
        }
        assert_eq!(
            strategy_for(JoinScheme::PreallocCombine).name(),
            "prealloc-combine"
        );
        assert_eq!(strategy_for(JoinScheme::TwoStep).name(), "two-step");
        assert_eq!(strategy_for(JoinScheme::RadixHash).name(), "radix-hash");
    }
}
