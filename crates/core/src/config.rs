//! Engine configuration: every technique of the paper is a switch here, so
//! the ablation tables (VI, VII, VIII) are config sweeps. The join schemes
//! are exactly the two output schemes §V compares.

use crate::cost::PlannerKind;
use gsi_graph::StorageKind;
use gsi_signature::{Layout, SignatureConfig};

/// How join results are written to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinScheme {
    /// The paper's Prealloc-Combine (Algorithms 3–4): pre-allocate one
    /// combined buffer (GBA) bounded by first-edge neighbor counts and join
    /// exactly once.
    PreallocCombine,
    /// GpSM/GunrockSM's two-step output scheme: run the join to count, do a
    /// prefix sum, then run the *same join again* to write — doubling work.
    TwoStep,
}

/// Which implementation of the set-operation primitives runs on the host.
///
/// Both charge **bit-identical** device-ledger transactions — the simulated
/// kernels are the same; this knob only selects how the host computes their
/// results (element-at-a-time reference vs chunked branch-light kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetOpKernels {
    /// The scalar reference: branchy element-at-a-time loops. Kept for
    /// differential testing against the vectorized kernels.
    Scalar,
    /// Chunked, branch-light kernels: block-wise two-pointer merge for
    /// comparable cardinalities, galloping intersection for skewed ones,
    /// sorted-probe row filtering — selected by a cardinality-ratio
    /// heuristic.
    #[default]
    Vectorized,
}

/// How set operations are executed (§V "GPU-friendly Set Operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpStrategy {
    /// One kernel launch per set operation; the partial match is re-read
    /// from global memory instead of being cached in shared memory; the
    /// candidate set is binary-searched as a sorted list.
    Naive,
    /// The paper's strategy: partial match cached in shared memory, neighbor
    /// lists streamed in 128-byte batches, candidate set probed through a
    /// bitset in exactly one transaction per check.
    GpuFriendly,
}

/// Which filtering phase produces the candidate sets (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// GSI's signature encoding (§III-A).
    Signature,
    /// GpSM's label + degree pruning.
    LabelDegree,
    /// GunrockSM's label-only pruning.
    LabelOnly,
}

/// Thresholds of the 4-layer load-balance scheme (§VI-A).
///
/// `W1 > W2 > W3 > 32`; `W2` should equal the CUDA block size. The paper
/// tunes `W1 = 4096` (Table IX) and `W3 = 256` (Table X) around
/// `W2 = 1024`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbParams {
    /// Workloads above this get a dedicated kernel launch each.
    pub w1: usize,
    /// Workloads above this are handled by an entire block (= block size).
    pub w2: usize,
    /// Within a block, tasks above this are split and shared among warps.
    pub w3: usize,
}

impl Default for LbParams {
    fn default() -> Self {
        Self {
            w1: 4096,
            w2: 1024,
            w3: 256,
        }
    }
}

impl LbParams {
    /// Validate the paper's ordering constraint `W1 > W2 > W3 > 32`.
    pub fn validate(&self) {
        assert!(
            self.w1 > self.w2 && self.w2 > self.w3 && self.w3 > 32,
            "load-balance thresholds must satisfy W1 > W2 > W3 > 32 \
             (got {} / {} / {})",
            self.w1,
            self.w2,
            self.w3
        );
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct GsiConfig {
    /// Graph storage structure for `N(v, l)` extraction.
    pub storage: StorageKind,
    /// PCSR group size (pairs per group), when `storage == Pcsr`.
    pub storage_gpn: usize,
    /// Output scheme for the join phase.
    pub join_scheme: JoinScheme,
    /// Set-operation strategy.
    pub set_ops: SetOpStrategy,
    /// Host kernel implementation for the set-op primitives (identical
    /// device accounting; see [`SetOpKernels`]).
    pub set_op_kernels: SetOpKernels,
    /// 128-byte per-warp write cache for join outputs (§V).
    pub write_cache: bool,
    /// 4-layer load balance; `None` uses the flat one-warp-per-row schedule.
    pub load_balance: Option<LbParams>,
    /// Block-level duplicate removal (Algorithm 5).
    pub duplicate_removal: bool,
    /// Filtering strategy.
    pub filter: FilterStrategy,
    /// Signature parameters (when `filter == Signature`).
    pub signature: SignatureConfig,
    /// Signature-table layout (§III-A: the paper uses column-first).
    pub signature_layout: Layout,
    /// Select the first linking edge by minimum label frequency (Algorithm 4
    /// line 1). Disabled only for the ablation bench.
    pub first_edge_min_freq: bool,
    /// Combine all per-row buffers into a single GBA allocation (§V). When
    /// `false`, each row issues its own allocation request (ablation).
    pub combined_alloc: bool,
    /// Abort when the intermediate table exceeds this many rows (guards
    /// against explosive queries the paper's 100 s timeout would kill).
    pub max_intermediate_rows: usize,
    /// Which planner computes the join order when no plan is supplied:
    /// Algorithm 2's greedy heuristic (the paper's planner, and
    /// the preset default for fidelity with its evaluation) or the
    /// statistics-driven cost-based optimizer of [`crate::cost`]. The
    /// serving layer (`gsi-service`) defaults to the cost-based planner.
    pub planner: PlannerKind,
    /// Host threads that drain each join launch's blocks, the way a GPU's
    /// SMs drain a launch (§II-B; see [`crate::backend`]). `1` (every
    /// preset) runs the blocks in grid order on the calling thread; `0`
    /// means every available core, resolved once by
    /// [`crate::GsiEngine::with_gpu`]. Device counters and match tables are
    /// identical at every width.
    pub join_threads: usize,
}

impl GsiConfig {
    /// "GSI-" of Table VI: traditional CSR, two-step output, naive set ops,
    /// no write cache, no load balance, no duplicate removal.
    pub fn gsi_base() -> Self {
        Self {
            storage: StorageKind::Csr,
            storage_gpn: gsi_graph::pcsr::DEFAULT_GPN,
            join_scheme: JoinScheme::TwoStep,
            set_ops: SetOpStrategy::Naive,
            set_op_kernels: SetOpKernels::Vectorized,
            write_cache: false,
            load_balance: None,
            duplicate_removal: false,
            filter: FilterStrategy::Signature,
            signature: SignatureConfig::default(),
            signature_layout: Layout::ColumnFirst,
            first_edge_min_freq: true,
            combined_alloc: true,
            max_intermediate_rows: 10_000_000,
            planner: PlannerKind::Greedy,
            join_threads: 1,
        }
    }

    /// This configuration with another join output scheme.
    pub fn with_join_scheme(self, join_scheme: JoinScheme) -> Self {
        Self {
            join_scheme,
            ..self
        }
    }

    /// This configuration with the scalar-reference set-op kernels (the
    /// differential-testing arm).
    pub fn with_set_op_kernels(self, set_op_kernels: SetOpKernels) -> Self {
        Self {
            set_op_kernels,
            ..self
        }
    }

    /// This configuration with another join-pool width (`0` = all cores).
    pub fn with_join_threads(self, join_threads: usize) -> Self {
        Self {
            join_threads,
            ..self
        }
    }

    /// This configuration with another join-order planner.
    pub fn with_planner(self, planner: PlannerKind) -> Self {
        Self { planner, ..self }
    }

    /// "+DS" of Table VI: GSI- with the PCSR data structure.
    pub fn gsi_ds() -> Self {
        Self {
            storage: StorageKind::Pcsr,
            ..Self::gsi_base()
        }
    }

    /// "+PC" of Table VI: +DS with Prealloc-Combine instead of two-step.
    pub fn gsi_pc() -> Self {
        Self {
            join_scheme: JoinScheme::PreallocCombine,
            ..Self::gsi_ds()
        }
    }

    /// "GSI" (= "+SO") of Table VI: +PC with GPU-friendly set operations and
    /// the write cache.
    pub fn gsi() -> Self {
        Self {
            set_ops: SetOpStrategy::GpuFriendly,
            write_cache: true,
            ..Self::gsi_pc()
        }
    }

    /// "+LB" of Table VIII: GSI plus the 4-layer load-balance scheme.
    pub fn gsi_lb() -> Self {
        Self {
            load_balance: Some(LbParams::default()),
            ..Self::gsi()
        }
    }

    /// "GSI-opt" (= "+DR") of Table VIII: GSI + LB + duplicate removal.
    pub fn gsi_opt() -> Self {
        Self {
            duplicate_removal: true,
            ..Self::gsi_lb()
        }
    }

    /// Validate cross-field constraints.
    pub fn validate(&self) {
        self.signature.validate();
        if let Some(lb) = &self.load_balance {
            lb.validate();
        }
        assert!(
            (2..=16).contains(&self.storage_gpn),
            "GPN must be within [2, 16]"
        );
    }
}

impl Default for GsiConfig {
    fn default() -> Self {
        Self::gsi_opt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_form_the_ablation_ladder() {
        let base = GsiConfig::gsi_base();
        assert_eq!(base.storage, StorageKind::Csr);
        assert_eq!(base.join_scheme, JoinScheme::TwoStep);
        assert_eq!(base.set_ops, SetOpStrategy::Naive);

        let ds = GsiConfig::gsi_ds();
        assert_eq!(ds.storage, StorageKind::Pcsr);
        assert_eq!(ds.join_scheme, JoinScheme::TwoStep);

        let pc = GsiConfig::gsi_pc();
        assert_eq!(pc.join_scheme, JoinScheme::PreallocCombine);
        assert_eq!(pc.set_ops, SetOpStrategy::Naive);

        let gsi = GsiConfig::gsi();
        assert_eq!(gsi.set_ops, SetOpStrategy::GpuFriendly);
        assert!(gsi.write_cache);
        assert!(gsi.load_balance.is_none());

        let opt = GsiConfig::gsi_opt();
        assert!(opt.load_balance.is_some());
        assert!(opt.duplicate_removal);
    }

    #[test]
    fn default_is_fully_optimized() {
        let cfg = GsiConfig::default();
        cfg.validate();
        assert!(cfg.duplicate_removal);
        assert_eq!(cfg.join_threads, 1, "one thread is the reference");
    }

    #[test]
    fn with_backend_overrides_only_execution() {
        let cfg = GsiConfig::gsi_opt().with_join_threads(4);
        assert_eq!(cfg.join_threads, 4);
        assert!(cfg.duplicate_removal, "other knobs untouched");
        cfg.validate();
    }

    #[test]
    fn presets_default_to_the_paper_planner() {
        // Paper fidelity: every ablation preset runs Algorithm 2 unless
        // the planner is explicitly switched.
        assert_eq!(GsiConfig::gsi_base().planner, PlannerKind::Greedy);
        assert_eq!(GsiConfig::gsi_opt().planner, PlannerKind::Greedy);
        let costed = GsiConfig::gsi_opt().with_planner(PlannerKind::CostBased);
        assert_eq!(costed.planner, PlannerKind::CostBased);
        assert!(costed.duplicate_removal, "other knobs untouched");
        costed.validate();
    }

    #[test]
    fn kernel_knobs_default_conservatively() {
        // Vectorized kernels are the default everywhere (charges are
        // identical by contract).
        for cfg in [
            GsiConfig::gsi_base(),
            GsiConfig::gsi(),
            GsiConfig::gsi_opt(),
        ] {
            assert_eq!(cfg.set_op_kernels, SetOpKernels::Vectorized);
        }
        let scalar = GsiConfig::gsi_opt().with_set_op_kernels(SetOpKernels::Scalar);
        assert_eq!(scalar.set_op_kernels, SetOpKernels::Scalar);
        assert!(scalar.duplicate_removal, "other knobs untouched");
    }

    #[test]
    #[should_panic(expected = "W1 > W2 > W3")]
    fn bad_lb_params_rejected() {
        LbParams {
            w1: 100,
            w2: 1024,
            w3: 256,
        }
        .validate();
    }

    #[test]
    fn lb_defaults_match_paper_tuning() {
        let lb = LbParams::default();
        assert_eq!((lb.w1, lb.w2, lb.w3), (4096, 1024, 256));
        lb.validate();
    }
}
