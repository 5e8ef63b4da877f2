//! The end-to-end GSI engine: prepare (offline) + query (online).

use crate::backend::JoinPool;
use crate::config::{FilterStrategy, GsiConfig, JoinScheme};
use crate::cost::{estimate_for_plan, plan_join_costed, ExplainPlan, PlannerKind};
use crate::join::JoinCtx;
use crate::matches::Matches;
use crate::plan::{plan_join, JoinPlan, PlanError};
use crate::stats::RunStats;
use crate::table::MatchTable;
use crate::{prealloc, two_step};
use gsi_gpu_sim::device::resolve_threads;
use gsi_gpu_sim::{DeviceConfig, Gpu};
use gsi_graph::basic::BasicStore;
use gsi_graph::compressed::CompressedStore;
use gsi_graph::csr::Csr;
use gsi_graph::pcsr::{MultiPcsr, StoreUpdateReport};
use gsi_graph::update::{UpdateBatch, UpdateError};
use gsi_graph::{Graph, GraphStats, LabeledStore, StorageKind};
use gsi_obs::TraceConfig;
use gsi_signature::filter::FilterInputs;
use gsi_signature::{
    filter_label_degree, filter_label_degree_cached, filter_label_only, filter_label_only_cached,
    filter_signature, filter_signature_cached, min_candidate_size, CandidateSet, FilterCache,
    SignatureTable,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offline-built structures for one data graph (the paper computes
/// signatures and PCSR partitions offline; "at any moment at most one
/// partition is placed on GPU").
///
/// Cheaply shareable across threads: the store lives behind an [`Arc`], so a
/// serving layer can hand the same prepared graph to many concurrent
/// queries (see the `gsi-service` crate's `GraphCatalog`).
pub struct PreparedData {
    store: Arc<dyn LabeledStore>,
    sig_table: Option<SignatureTable>,
    filter_inputs: Option<FilterInputs>,
    stats: GraphStats,
}

impl PreparedData {
    /// The graph store in use.
    pub fn store(&self) -> &dyn LabeledStore {
        self.store.as_ref()
    }

    /// Shared-ownership handle to the store, for consumers that must outlive
    /// a borrow of the `PreparedData` (e.g. worker threads).
    pub fn store_arc(&self) -> Arc<dyn LabeledStore> {
        Arc::clone(&self.store)
    }

    /// The signature table, when the signature filter is configured.
    pub fn signature_table(&self) -> Option<&SignatureTable> {
        self.sig_table.as_ref()
    }

    /// The statistics catalog of the graph this data was prepared from —
    /// the cost-based planner's cardinality inputs. Built at prepare time
    /// and refreshed incrementally by [`PreparedData::apply_updates`]
    /// (bit-identical to a cold recompute).
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Delta-aware re-prepare: absorb `batch` into the offline structures,
    /// returning the mutated graph and a *new* `PreparedData` — `self`
    /// stays untouched, so a serving layer can keep the old epoch's data
    /// alive under in-flight queries while the new epoch takes traffic.
    ///
    /// `data` must be the graph this `PreparedData` was prepared from.
    /// Only what the batch touched is recomputed:
    ///
    /// * PCSR storage reuses every untouched label layer by reference and
    ///   splices or locally rebuilds the touched ones
    ///   ([`gsi_graph::pcsr::MultiPcsr::apply_updates`]); non-PCSR storage
    ///   structures are rebuilt wholesale.
    /// * The signature table re-encodes only the endpoints of mutated
    ///   edges; adding vertices forces a table rebuild (the column-first
    ///   layout interleaves all signatures).
    /// * The label/degree arrays of the label-only and label+degree
    ///   filters are re-uploaded when the configured filter reads them
    ///   (they are `O(|V|)` and not worth a delta path); the signature
    ///   filter keeps none.
    ///
    /// The result is bit-identical to `engine.prepare_shared(&mutated)` —
    /// queries against it produce the same tables and charge the same
    /// device transactions as against a cold rebuild — which the oracle and
    /// property tests assert.
    pub fn apply_updates(
        &self,
        engine: &GsiEngine,
        data: &Graph,
        batch: &UpdateBatch,
    ) -> Result<(Graph, PreparedData, UpdateReport), UpdateError> {
        let updated = data.apply_updates(batch)?;

        let (store, store_delta): (Arc<dyn LabeledStore>, Option<StoreUpdateReport>) =
            match self.store.as_pcsr() {
                Some(pcsr) => {
                    let (next, report) = pcsr.apply_updates(&updated, batch);
                    (Arc::new(next), Some(report))
                }
                None => (engine.build_store(&updated), None),
            };

        let mut signatures_refreshed = None;
        let sig_table = self.sig_table.as_ref().map(|table| {
            let touched = batch.touched_vertices();
            match table.refreshed(engine.gpu(), &updated, &touched) {
                Some(refreshed) => {
                    signatures_refreshed = Some(touched.len());
                    refreshed
                }
                None => SignatureTable::build(
                    engine.gpu(),
                    &updated,
                    &engine.cfg.signature,
                    engine.cfg.signature_layout,
                ),
            }
        });

        let filter_inputs = self
            .filter_inputs
            .as_ref()
            .map(|_| FilterInputs::build(engine.gpu(), &updated));
        // The statistics catalog absorbs the delta in O(|batch|); the
        // result is bit-identical to rebuilding from the updated graph.
        let stats = self.stats.refreshed(&updated, batch);
        let report = UpdateReport {
            store: store_delta,
            signatures_refreshed,
        };
        Ok((
            updated,
            PreparedData {
                store,
                sig_table,
                filter_inputs,
                stats,
            },
            report,
        ))
    }
}

/// What [`PreparedData::apply_updates`] recomputed.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Per-layer PCSR actions when storage took the incremental path;
    /// `None` when the configured storage structure was rebuilt wholesale.
    pub store: Option<StoreUpdateReport>,
    /// Signatures re-encoded in place; `None` when the table was rebuilt
    /// (vertex additions) or the configured filter keeps no table.
    pub signatures_refreshed: Option<usize>,
}

impl UpdateReport {
    /// Whether storage was refreshed incrementally (vs rebuilt wholesale).
    pub fn store_incremental(&self) -> bool {
        self.store.is_some()
    }

    /// The report of an update that recomputed nothing (an empty batch
    /// short-circuited before any re-prepare).
    pub fn noop() -> Self {
        Self {
            store: None,
            signatures_refreshed: None,
        }
    }
}

/// Per-run execution options: everything [`GsiEngine::query`] defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions<'a> {
    /// Abort (with `stats.timed_out`) when the wall clock exceeds this
    /// between join iterations — the paper's 100-second threshold analogue.
    pub timeout: Option<Duration>,
    /// A join plan to execute instead of running Algorithm 2 (`paper
    /// optimize` supplies random orders this way). The plan is validated
    /// with [`JoinPlan::covers`]; one that does not cover `query` is
    /// ignored and a fresh plan is computed.
    pub plan: Option<&'a JoinPlan>,
    /// Shared filter cache for this run: distinct label demands already
    /// computed under it are reused instead of re-scanned, so a batch of
    /// queries against one prepared graph pays each demand once
    /// ([`GsiEngine::query_batch`] supplies this). Candidate lists are
    /// shared by `Arc` and bit-identical to an uncached run's; only the
    /// device work (and wall time) of the filtering phase changes.
    pub filter_cache: Option<&'a FilterCache>,
    /// Join-order planner override for this run; `None` uses
    /// [`GsiConfig::planner`]. Ignored when a valid plan is supplied
    /// through [`QueryOptions::plan`].
    pub planner: Option<PlannerKind>,
    /// Per-query tracing. `Off` (the default) is zero-cost: the engine
    /// skips the per-join-step clock reads and leaves
    /// [`RunStats::step_times`](crate::RunStats::step_times) empty; the
    /// coarse phase timers (`filter_time`, `plan_time`, `join_time`) are
    /// always measured.
    pub trace: TraceConfig,
}

/// Result of one query run.
#[derive(Debug)]
pub struct QueryOutput {
    /// All matches found (empty if `stats.timed_out`).
    pub matches: Matches,
    /// Measurements for the run.
    pub stats: RunStats,
    /// The join plan the run executed (freshly computed, or the supplied
    /// one).
    pub plan: JoinPlan,
    /// Whether `plan` came in through [`QueryOptions::plan`] (false when it
    /// was computed by this run, including the invalid-supplied-plan fallback).
    pub plan_reused: bool,
    /// The planner that produced the executed plan when this run computed
    /// it fresh (the cost-based planner reports `Greedy` when its
    /// exact-search cap forced the fallback). For a supplied plan this is
    /// the run's *resolved* planner, which did not produce it.
    pub planner: PlannerKind,
    /// The executed plan's cost report: per-position estimated cardinality
    /// and cost, with actual cardinalities filled in for every position
    /// the run executed (aborted runs report a prefix).
    pub explain: ExplainPlan,
}

/// The GSI engine: a configuration bound to a simulated device.
pub struct GsiEngine {
    cfg: GsiConfig,
    gpu: Gpu,
}

impl GsiEngine {
    /// Engine on a default (Titan XP-like) device.
    pub fn new(cfg: GsiConfig) -> Self {
        Self::with_gpu(cfg, Gpu::new(DeviceConfig::titan_xp()))
    }

    /// Engine on an explicit device (tests use a single-threaded one).
    /// A `join_threads` of `0` is resolved here, once, to the host's
    /// available parallelism; [`GsiEngine::config`] reports the result.
    pub fn with_gpu(mut cfg: GsiConfig, gpu: Gpu) -> Self {
        cfg.validate();
        cfg.join_threads = resolve_threads(cfg.join_threads);
        Self { cfg, gpu }
    }

    /// The device handle. Its ledger holds the device's running totals:
    /// preparation, direct [`GsiEngine::filter`] calls, and every finished
    /// query's own ledger, folded in once per query.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The configuration.
    pub fn config(&self) -> &GsiConfig {
        &self.cfg
    }

    /// Build the offline structures for a data graph. Device counters are
    /// reset afterwards so queries measure only online work.
    pub fn prepare(&self, data: &Graph) -> PreparedData {
        let prepared = self.prepare_shared(data);
        self.gpu.reset_stats();
        prepared
    }

    /// Like [`GsiEngine::prepare`] but *without* resetting the device
    /// counters afterwards, for a caller that keeps the device's running
    /// totals (a serving layer registering graphs while it serves).
    pub fn prepare_shared(&self, data: &Graph) -> PreparedData {
        let store = self.build_store(data);
        let sig_table = (self.cfg.filter == FilterStrategy::Signature).then(|| {
            SignatureTable::build(
                &self.gpu,
                data,
                &self.cfg.signature,
                self.cfg.signature_layout,
            )
        });
        let filter_inputs = (self.cfg.filter != FilterStrategy::Signature)
            .then(|| FilterInputs::build(&self.gpu, data));
        PreparedData {
            store,
            sig_table,
            filter_inputs,
            stats: GraphStats::build(data),
        }
    }

    /// Build the configured storage structure for `data`.
    fn build_store(&self, data: &Graph) -> Arc<dyn LabeledStore> {
        match self.cfg.storage {
            StorageKind::Pcsr => Arc::new(MultiPcsr::build_with_gpn(data, self.cfg.storage_gpn)),
            StorageKind::Csr => Arc::new(Csr::build(data)),
            StorageKind::Basic => Arc::new(BasicStore::build(data)),
            StorageKind::Compressed => Arc::new(CompressedStore::build(data)),
        }
    }

    /// Absorb a mutation batch into prepared structures: delegate to
    /// [`PreparedData::apply_updates`]. Returns the mutated graph, the new
    /// prepared data (untouched label layers shared with `prepared`), and a
    /// report of what was recomputed.
    pub fn apply_updates(
        &self,
        data: &Graph,
        prepared: &PreparedData,
        batch: &UpdateBatch,
    ) -> Result<(Graph, PreparedData, UpdateReport), UpdateError> {
        prepared.apply_updates(self, data, batch)
    }

    /// Run the filtering phase only (used by the Table IV/V harness),
    /// charging the engine's device ledger.
    pub fn filter(&self, prepared: &PreparedData, query: &Graph) -> Vec<CandidateSet> {
        self.filter_on(&self.gpu, prepared, query, None)
    }

    /// The configured filter, charging `gpu`. Through a shared
    /// [`FilterCache`], label demands already computed under `cache` reuse
    /// their candidate list (one `Arc` clone, zero device work); fresh
    /// demands are computed and cached. The output is bit-identical either
    /// way.
    fn filter_on(
        &self,
        gpu: &Gpu,
        prepared: &PreparedData,
        query: &Graph,
        cache: Option<&FilterCache>,
    ) -> Vec<CandidateSet> {
        let inputs = || {
            prepared
                .filter_inputs
                .as_ref()
                // gsi-lint: allow(panic-freedom, reason = "prepare() always uploads the label/degree arrays under the label filters; absence means prepared data from a different engine config, a caller bug no typed error can repair")
                .expect("label filters require prepared label/degree arrays")
        };
        match (self.cfg.filter, cache) {
            (FilterStrategy::Signature, cache) => {
                let table = prepared
                    .sig_table
                    .as_ref()
                    // gsi-lint: allow(panic-freedom, reason = "prepare() always builds the table under the Signature config; absence means prepared data from a different engine config, a caller bug no typed error can repair")
                    .expect("signature filter requires a prepared table");
                let cfg = &self.cfg.signature;
                match cache {
                    Some(cache) => filter_signature_cached(gpu, table, query, cfg, cache),
                    None => filter_signature(gpu, table, query, cfg),
                }
            }
            (FilterStrategy::LabelDegree, Some(cache)) => {
                filter_label_degree_cached(gpu, inputs(), query, cache)
            }
            (FilterStrategy::LabelDegree, None) => filter_label_degree(gpu, inputs(), query),
            (FilterStrategy::LabelOnly, Some(cache)) => {
                filter_label_only_cached(gpu, inputs(), query, cache)
            }
            (FilterStrategy::LabelOnly, None) => filter_label_only(gpu, inputs(), query),
        }
    }

    /// Answer a query: all subgraph-isomorphism matches of `query` in `data`.
    ///
    /// Fails with a typed [`PlanError`] on a query Algorithm 2 cannot plan
    /// (empty or disconnected). This entry point used to panic on those
    /// inputs; every query path is now fallible so a degenerate pattern can
    /// never take down a serving worker. Use
    /// [`GsiEngine::query_disconnected`] to split disconnected patterns
    /// into components instead of rejecting them.
    pub fn query(
        &self,
        data: &Graph,
        prepared: &PreparedData,
        query: &Graph,
    ) -> Result<QueryOutput, PlanError> {
        self.query_with_timeout(data, prepared, query, None)
    }

    /// Answer a possibly *disconnected* query (§II-A): each connected
    /// component is executed individually and the per-component match sets
    /// are combined under cross-component injectivity. Returns canonical
    /// assignments (indexed by original query vertex). `limit` caps the
    /// combined output — the Cartesian product across components can be
    /// exponential.
    pub fn query_disconnected(
        &self,
        data: &Graph,
        prepared: &PreparedData,
        query: &Graph,
        limit: Option<usize>,
    ) -> Result<(Vec<Vec<gsi_graph::VertexId>>, RunStats), PlanError> {
        use crate::components::{combine_component_matches, split_components};
        let comps = split_components(query);
        let mut total = RunStats::default();
        let mut per_comp = Vec::with_capacity(comps.len());
        for c in &comps {
            let out = self.query(data, prepared, &c.graph)?;
            total.accumulate(&out.stats);
            per_comp.push(out.matches);
        }
        let combined = combine_component_matches(&comps, &per_comp, query.n_vertices(), limit);
        total.n_matches = combined.len();
        Ok((combined, total))
    }

    /// Like [`GsiEngine::query`], aborting (with `stats.timed_out`) when the
    /// wall clock exceeds `timeout` between join iterations — the analogue
    /// of the paper's 100-second experiment threshold.
    pub fn query_with_timeout(
        &self,
        data: &Graph,
        prepared: &PreparedData,
        query: &Graph,
        timeout: Option<Duration>,
    ) -> Result<QueryOutput, PlanError> {
        self.query_with_options(
            data,
            prepared,
            query,
            QueryOptions {
                timeout,
                ..QueryOptions::default()
            },
        )
    }

    /// The fully general entry point: [`GsiEngine::query`] plus a timeout,
    /// an optional reusable [`JoinPlan`], and the other per-run overrides
    /// of [`QueryOptions`].
    ///
    /// The run is split into the cacheable and per-run halves of the joining
    /// phase: Algorithm 2 (join-order construction) only executes when no
    /// valid plan is supplied, while filtering and Algorithm 3 (the joins
    /// themselves) always execute. Fails with a typed [`PlanError`] on
    /// queries Algorithm 2 cannot order (empty or disconnected patterns) —
    /// no panic, so serving workers reject them gracefully.
    ///
    /// The run charges a device ledger of its own ([`Gpu::scoped`]), so
    /// `stats.device` is exactly this query's work however many queries
    /// share the device; the ledger is folded into the device's totals when
    /// the run ends, whatever its outcome.
    pub fn query_with_options(
        &self,
        data: &Graph,
        prepared: &PreparedData,
        query: &Graph,
        opts: QueryOptions<'_>,
    ) -> Result<QueryOutput, PlanError> {
        let gpu = self.gpu.scoped();
        let out = self.run_query(&gpu, data, prepared, query, opts);
        self.gpu.stats().absorb(&gpu.stats().snapshot());
        out
    }

    /// [`GsiEngine::query_with_options`] charging `gpu`, a fresh ledger.
    fn run_query(
        &self,
        gpu: &Gpu,
        data: &Graph,
        prepared: &PreparedData,
        query: &Graph,
        opts: QueryOptions<'_>,
    ) -> Result<QueryOutput, PlanError> {
        // gsi-lint: allow(trace-gating, reason = "one timestamp per query for RunStats phase totals, not per-step tracing; amortized over the whole run")
        let t_start = Instant::now();

        // ---- filtering phase ------------------------------------------
        let cands = self.filter_on(gpu, prepared, query, opts.filter_cache);
        let filter_time = t_start.elapsed();
        let min_candidate = min_candidate_size(&cands);

        let mut stats = RunStats {
            filter_time,
            min_candidate,
            filter_device: gpu.stats().snapshot(),
            ..RunStats::default()
        };

        // ---- joining phase --------------------------------------------
        // gsi-lint: allow(trace-gating, reason = "one timestamp per query for RunStats phase totals, not per-step tracing; amortized over the whole run")
        let t_join = Instant::now();
        let timeout = opts.timeout;
        let resolved_planner = opts.planner.unwrap_or(self.cfg.planner);
        // The cost-based planner returns its ExplainPlan alongside the
        // plan; the other paths compute one for the executed order so
        // every run reports estimated-vs-actual cardinalities.
        let (plan, plan_reused, mut explain) = match opts.plan {
            Some(p) if p.covers(query) => {
                let plan = p.clone();
                let sizes: Vec<f64> = cands.iter().map(|c| c.len() as f64).collect();
                let explain = estimate_for_plan(
                    &plan,
                    query,
                    prepared.stats(),
                    &sizes,
                    &self.cfg,
                    resolved_planner,
                );
                (plan, true, explain)
            }
            _ => match resolved_planner {
                PlannerKind::Greedy => {
                    let plan = plan_join(query, data, &cands)?;
                    let sizes: Vec<f64> = cands.iter().map(|c| c.len() as f64).collect();
                    let explain = estimate_for_plan(
                        &plan,
                        query,
                        prepared.stats(),
                        &sizes,
                        &self.cfg,
                        PlannerKind::Greedy,
                    );
                    (plan, false, explain)
                }
                PlannerKind::CostBased => {
                    // The returned explain carries the provenance: Greedy
                    // when the pattern exceeded the exact-search cap and
                    // the fallback ran.
                    let (p, explain) =
                        plan_join_costed(query, prepared.stats(), &cands, &self.cfg)?;
                    (p, false, explain)
                }
            },
        };
        stats.plan_time = t_join.elapsed();
        let planner = explain.planner;
        let mut matches = Matches::empty(plan.order.clone());

        // The join pool (which runs each iteration's planned kernels) is
        // per-query state, carrying the run's work/span ledger.
        let pool = JoinPool::new(self.cfg.join_threads);

        if min_candidate > 0 {
            let ctx = JoinCtx {
                gpu,
                cfg: &self.cfg,
                store: prepared.store.as_ref(),
                data,
                backend: &pool,
            };
            let mut m = MatchTable::from_candidates(&cands[plan.order[0] as usize].list);
            stats.max_intermediate_rows = m.n_rows();
            stats.step_rows.push(m.n_rows());

            for step in &plan.steps {
                if m.is_empty() {
                    break;
                }
                if let Some(limit) = timeout {
                    if t_start.elapsed() > limit {
                        stats.timed_out = true;
                        break;
                    }
                }
                if m.n_rows() > self.cfg.max_intermediate_rows {
                    stats.timed_out = true;
                    break;
                }
                let cand = &cands[step.vertex as usize];
                // Per-step wall clocks only under tracing — this pair of
                // reads per join position is exactly what Off elides.
                let t_step = opts.trace.is_on().then(Instant::now);
                let next = match self.cfg.join_scheme {
                    JoinScheme::PreallocCombine => prealloc::join_iteration(&ctx, &m, step, cand),
                    JoinScheme::TwoStep => two_step::join_iteration(&ctx, &m, step, cand),
                };
                match next {
                    Ok(next) => m = next,
                    Err(_) => {
                        stats.timed_out = true;
                        break;
                    }
                }
                if let Some(t) = t_step {
                    stats.step_times.push(t.elapsed());
                }
                stats.max_intermediate_rows = stats.max_intermediate_rows.max(m.n_rows());
                stats.step_rows.push(m.n_rows());
            }

            if !stats.timed_out {
                matches = Matches {
                    order: plan.order.clone(),
                    table: m,
                };
            }
        }

        stats.join_time = t_join.elapsed();
        stats.total_time = t_start.elapsed();
        stats.device = gpu.stats().snapshot();
        stats.n_matches = matches.len();
        (stats.join_work_units, stats.join_span_units) = pool.work_span();
        explain.fill_actuals(&stats.step_rows);

        Ok(QueryOutput {
            matches,
            stats,
            plan,
            plan_reused,
            planner,
            explain,
        })
    }

    /// Answer a *batch* of queries against one prepared graph, sharing the
    /// filtering phase across them.
    ///
    /// The filtering phase is a pure function of each query vertex's label
    /// demand (its encoded signature, or its label/degree bound), so within
    /// a batch each **distinct** demand pays exactly one pass over the
    /// prepared structures; every repeat — across queries or within one —
    /// reuses the cached candidate list by `Arc`. The join phase then runs
    /// per query through the configured [`JoinPool`] width, honoring each
    /// item's own [`QueryOptions`] (timeout, supplied plan, planner override).
    ///
    /// Results are **bit-identical** to running each item alone through
    /// [`GsiEngine::query_with_options`]: candidate lists are deterministic
    /// per demand, so plans, match tables, and per-query join work are
    /// unchanged — only filtering's device work and wall time shrink. One
    /// item's [`PlanError`] fails that item alone, not the batch.
    pub fn query_batch(
        &self,
        data: &Graph,
        prepared: &PreparedData,
        items: &[BatchItem<'_>],
    ) -> BatchOutput {
        let cache = FilterCache::new();
        let results = items
            .iter()
            .map(|item| {
                self.query_with_options(
                    data,
                    prepared,
                    item.query,
                    QueryOptions {
                        filter_cache: Some(&cache),
                        ..item.opts
                    },
                )
            })
            .collect();
        BatchOutput {
            results,
            filter_demands_computed: cache.demands_computed(),
            filter_demands_reused: cache.demands_reused(),
        }
    }
}

/// One query of a [`GsiEngine::query_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The pattern to match.
    pub query: &'a Graph,
    /// Per-run options for this item. `opts.filter_cache` is overridden by
    /// the batch's shared cache.
    pub opts: QueryOptions<'a>,
}

impl<'a> BatchItem<'a> {
    /// Item with default options.
    pub fn new(query: &'a Graph) -> Self {
        Self {
            query,
            opts: QueryOptions::default(),
        }
    }
}

/// What one [`GsiEngine::query_batch`] call produced.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per-item outcome, in input order. A [`PlanError`] is per item — the
    /// rest of the batch still ran.
    pub results: Vec<Result<QueryOutput, PlanError>>,
    /// Distinct label demands the batch computed (each one filter pass).
    pub filter_demands_computed: u64,
    /// Demand lookups served from the shared cache (each one skipped pass).
    pub filter_demands_reused: u64,
}

impl BatchOutput {
    /// Fraction of demand lookups served by sharing, in `[0, 1]`; `0.0`
    /// before any lookup. `(queries alone would have paid computed+reused
    /// passes; the batch paid computed.)`
    pub fn filter_reuse_rate(&self) -> f64 {
        let total = self.filter_demands_computed + self.filter_demands_reused;
        if total == 0 {
            0.0
        } else {
            self.filter_demands_reused as f64 / total as f64
        }
    }
}

// The serving layer shares engines and prepared graphs across worker
// threads; keep that property checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GsiEngine>();
    assert_send_sync::<PreparedData>();
    assert_send_sync::<QueryOutput>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_gpu_sim::StatsSnapshot;
    use gsi_graph::GraphBuilder;

    fn test_engine(cfg: GsiConfig) -> GsiEngine {
        GsiEngine::with_gpu(cfg, Gpu::new(DeviceConfig::test_device()))
    }

    /// Fig. 1's data graph and query (labels A=0, B=1, C=2; a=0, b=1).
    fn paper_example() -> (Graph, Graph) {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let bs: Vec<u32> = (0..100).map(|_| b.add_vertex(1)).collect();
        let cs: Vec<u32> = (0..101).map(|_| b.add_vertex(2)).collect();
        for &vb in &bs {
            b.add_edge(v0, vb, 0);
        }
        let v201 = *cs.last().unwrap();
        b.add_edge(v0, v201, 1);
        for (i, &vb) in bs.iter().enumerate() {
            b.add_edge(vb, cs[i], 0);
            b.add_edge(vb, v201, 0);
        }
        let data = b.build();

        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        let u2 = qb.add_vertex(2);
        let u3 = qb.add_vertex(2);
        qb.add_edge(u0, u1, 0);
        qb.add_edge(u0, u2, 1);
        qb.add_edge(u1, u2, 0);
        qb.add_edge(u1, u3, 0);
        (data, qb.build())
    }

    #[test]
    fn paper_example_match_count() {
        // Fig. 1(c)/Fig. 2: each of the 100 B-vertices v_i gives the match
        // (u0→v0, u1→v_i, u2→v201, u3→v_{100+i}); v201 is fixed by the
        // b-edge. 100 matches total.
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &query).expect("plans");
        assert_eq!(out.matches.len(), 100);
        out.matches
            .verify(&data, &query)
            .expect("all embeddings valid");
        // Every match fixes u0→v0 and u2→v201.
        for i in 0..out.matches.len() {
            let a = out.matches.assignment(i);
            assert_eq!(a[0], 0);
            assert_eq!(a[2], 201);
        }
    }

    #[test]
    fn all_presets_agree_on_paper_example() {
        let (data, query) = paper_example();
        let mut canon: Option<Vec<Vec<u32>>> = None;
        for cfg in [
            GsiConfig::gsi_base(),
            GsiConfig::gsi_ds(),
            GsiConfig::gsi_pc(),
            GsiConfig::gsi(),
            GsiConfig::gsi_lb(),
            GsiConfig::gsi_opt(),
        ] {
            let engine = test_engine(cfg);
            let prepared = engine.prepare(&data);
            let out = engine.query(&data, &prepared, &query).expect("plans");
            out.matches.verify(&data, &query).expect("valid");
            let c = out.matches.canonical();
            match &canon {
                None => canon = Some(c),
                Some(expect) => assert_eq!(&c, expect, "preset mismatch"),
            }
        }
        assert_eq!(canon.unwrap().len(), 100);
    }

    #[test]
    fn single_vertex_query_returns_candidates() {
        let (data, _) = paper_example();
        let mut qb = GraphBuilder::new();
        qb.add_vertex(2); // label C
        let q = qb.build();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &q).expect("plans");
        assert_eq!(out.matches.len(), 101); // all C vertices
    }

    #[test]
    fn unmatchable_query_is_empty() {
        let (data, _) = paper_example();
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(0); // two A vertices joined: impossible
        qb.add_edge(u0, u1, 0);
        let q = qb.build();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &q).expect("plans");
        assert!(out.matches.is_empty());
        assert_eq!(out.stats.n_matches, 0);
    }

    #[test]
    fn stats_are_populated() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &query).expect("plans");
        let s = &out.stats;
        assert!(s.gld() > 0, "join must read global memory");
        assert!(s.gst() > 0, "join must write global memory");
        assert!(s.kernels() > 0);
        assert_eq!(s.n_matches, 100);
        assert!(s.min_candidate >= 1);
        assert!(s.max_intermediate_rows >= 100);
        assert!(!s.timed_out);
    }

    #[test]
    fn intermediate_guard_trips() {
        let (data, query) = paper_example();
        let cfg = GsiConfig {
            max_intermediate_rows: 10,
            ..GsiConfig::gsi()
        };
        let engine = test_engine(cfg);
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &query).expect("plans");
        assert!(out.stats.timed_out);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn disconnected_query_runs_per_component() {
        let (data, _) = paper_example();
        // Two independent pieces: an A–a–B edge and an isolated C vertex.
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        qb.add_vertex(2);
        let q = qb.build();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let (assignments, stats) = engine
            .query_disconnected(&data, &prepared, &q, None)
            .expect("plans");
        // 100 (A,B) pairs × 101 C vertices, minus combinations reusing a
        // vertex (disjoint label sets ⇒ none collide): 100 × 101.
        assert_eq!(assignments.len(), 100 * 101);
        assert_eq!(stats.n_matches, assignments.len());
        // Spot-check injectivity and labels.
        for a in assignments.iter().take(50) {
            assert_eq!(data.vlabel(a[0]), 0);
            assert_eq!(data.vlabel(a[1]), 1);
            assert_eq!(data.vlabel(a[2]), 2);
            assert_ne!(a[0], a[1]);
            assert_ne!(a[1], a[2]);
        }
    }

    #[test]
    fn disconnected_query_limit_caps_output() {
        let (data, _) = paper_example();
        let mut qb = GraphBuilder::new();
        qb.add_vertex(1);
        qb.add_vertex(2);
        let q = qb.build();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let (assignments, _) = engine
            .query_disconnected(&data, &prepared, &q, Some(10))
            .expect("plans");
        assert!(assignments.len() <= 10);
        assert!(!assignments.is_empty());
    }

    #[test]
    fn reused_plan_gives_identical_results() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let first = engine.query(&data, &prepared, &query).expect("plans");
        assert!(!first.plan_reused);
        let second = engine
            .query_with_options(
                &data,
                &prepared,
                &query,
                QueryOptions {
                    plan: Some(&first.plan),
                    ..QueryOptions::default()
                },
            )
            .expect("plans");
        assert!(second.plan_reused);
        assert_eq!(second.plan, first.plan);
        assert_eq!(second.matches.canonical(), first.matches.canonical());
    }

    #[test]
    fn invalid_cached_plan_falls_back_to_fresh_planning() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        // A plan for a *different* query shape (single edge) must be
        // rejected by covers() and replanned, not executed.
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        let other = qb.build();
        let stale = engine.query(&data, &prepared, &other).expect("plans").plan;
        let out = engine
            .query_with_options(
                &data,
                &prepared,
                &query,
                QueryOptions {
                    plan: Some(&stale),
                    ..QueryOptions::default()
                },
            )
            .expect("plans");
        assert!(!out.plan_reused);
        assert_eq!(out.matches.len(), 100);
    }

    #[test]
    fn prepared_data_is_shareable_across_threads() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = std::sync::Arc::new(engine.prepare(&data));
        let engine = std::sync::Arc::new(engine);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (e, p, d, q) = (engine.clone(), prepared.clone(), &data, &query);
                    s.spawn(move || e.query(d, &p, q).expect("plans").matches.len())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn host_parallel_backend_matches_serial_exactly() {
        let (data, query) = paper_example();
        for scheme in [
            crate::config::JoinScheme::PreallocCombine,
            crate::config::JoinScheme::TwoStep,
        ] {
            let cfg = GsiConfig {
                join_scheme: scheme,
                ..GsiConfig::gsi_opt()
            };
            let serial = test_engine(cfg.clone());
            let prepared = serial.prepare(&data);
            let a = serial.query(&data, &prepared, &query).expect("plans");

            let par = test_engine(cfg.with_join_threads(4));
            let prepared = par.prepare(&data);
            let b = par.query(&data, &prepared, &query).expect("plans");

            assert_eq!(a.matches.table, b.matches.table, "bit-identical tables");
            assert_eq!(a.stats.device, b.stats.device, "exact device counters");
            assert_eq!(a.stats.join_work_units, b.stats.join_work_units);
            assert!(b.stats.join_span_units <= b.stats.join_work_units);
        }
    }

    #[test]
    fn disconnected_query_surfaces_a_typed_plan_error() {
        let (data, _) = paper_example();
        let mut qb = GraphBuilder::new();
        qb.add_vertex(0);
        qb.add_vertex(1); // isolated: disconnected pattern
        let q = qb.build();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let err = engine
            .query_with_options(&data, &prepared, &q, QueryOptions::default())
            .expect_err("disconnected");
        assert!(matches!(err, crate::PlanError::Disconnected { step: 1 }));
    }

    #[test]
    fn query_returns_typed_errors_not_panics_on_degenerate_patterns() {
        // Regression for the serving path: `query` / `query_with_timeout`
        // used to panic on anything Algorithm 2 cannot plan. They now
        // surface the same typed `PlanError` as `query_with_options`.
        let (data, _) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);

        let empty = GraphBuilder::new().build();
        assert!(matches!(
            engine.query(&data, &prepared, &empty),
            Err(crate::PlanError::EmptyQuery)
        ));

        let mut qb = GraphBuilder::new();
        qb.add_vertex(0);
        qb.add_vertex(1);
        let disconnected = qb.build();
        assert!(matches!(
            engine.query_with_timeout(&data, &prepared, &disconnected, None),
            Err(crate::PlanError::Disconnected { step: 1 })
        ));
    }

    #[test]
    fn query_batch_is_bit_identical_to_solo_runs_and_shares_filters() {
        let (data, query) = paper_example();
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        let edge = qb.build();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);

        // A mixed batch with heavy demand repetition: 3× the paper query,
        // 2× the edge query, plus one degenerate pattern mid-batch.
        let empty = GraphBuilder::new().build();
        let patterns: Vec<&Graph> = vec![&query, &edge, &query, &empty, &edge, &query];
        let solo: Vec<Result<QueryOutput, PlanError>> = patterns
            .iter()
            .map(|q| engine.query(&data, &prepared, q))
            .collect();

        let items: Vec<BatchItem<'_>> = patterns.iter().map(|q| BatchItem::new(q)).collect();
        let batch = engine.query_batch(&data, &prepared, &items);

        assert_eq!(batch.results.len(), solo.len());
        for (i, (b, s)) in batch.results.iter().zip(&solo).enumerate() {
            match (b, s) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.matches.table, s.matches.table, "item {i}: bit-identical");
                    assert_eq!(b.plan, s.plan, "item {i}: same plan");
                    assert_eq!(
                        b.stats.join_work_units, s.stats.join_work_units,
                        "item {i}: identical join work"
                    );
                }
                (Err(b), Err(s)) => assert_eq!(b, s, "item {i}: same typed error"),
                _ => panic!("item {i}: batch and solo outcomes diverge"),
            }
        }

        // Demand sharing: the repeats contribute only reuse, not recompute.
        assert!(batch.filter_demands_reused > 0, "repeats must share");
        let total_vertices: u64 = patterns.iter().map(|q| q.n_vertices() as u64).sum();
        assert_eq!(
            batch.filter_demands_computed + batch.filter_demands_reused,
            total_vertices,
            "every query vertex resolves through the shared cache"
        );
        assert!(batch.filter_reuse_rate() > 0.5, "repetition-heavy batch");
    }

    #[test]
    fn query_batch_shares_filters_on_host_parallel_backend_too() {
        let (data, query) = paper_example();
        let cfg = GsiConfig::gsi_opt().with_join_threads(4);
        let engine = test_engine(cfg);
        let prepared = engine.prepare(&data);
        let serial = test_engine(GsiConfig::gsi_opt());
        let serial_prepared = serial.prepare(&data);
        let reference = serial
            .query(&data, &serial_prepared, &query)
            .expect("plans");

        let items = [BatchItem::new(&query), BatchItem::new(&query)];
        let batch = engine.query_batch(&data, &prepared, &items);
        for r in &batch.results {
            let out = r.as_ref().expect("plans");
            assert_eq!(out.matches.table, reference.matches.table);
        }
        assert!(batch.filter_demands_reused > 0);
    }

    #[test]
    fn apply_updates_is_query_indistinguishable_from_cold_rebuild() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);

        // Mutate: add a B–C edge (touches label 0 only) and drop one.
        let mut batch = UpdateBatch::new();
        batch.insert_edge(1, 102, 0).remove_edge(2, 102, 0);
        let (updated, inc, report) = engine
            .apply_updates(&data, &prepared, &batch)
            .expect("valid batch");
        assert!(report.store_incremental());
        assert_eq!(report.signatures_refreshed, Some(3));
        let store_report = report.store.expect("pcsr path");
        assert_eq!(store_report.spliced(), 1, "label 0 spliced in place");

        // The untouched b-layer is shared by reference with the old epoch.
        let old = prepared.store().as_pcsr().expect("pcsr");
        let new = inc.store().as_pcsr().expect("pcsr");
        assert_eq!(old.shared_layers_with(new), 1);

        // Queries on the incremental re-prepare are bit-identical — tables
        // *and* device-ledger counters — to a cold rebuild.
        let cold = engine.prepare_shared(&updated);
        let a = engine.query(&updated, &inc, &query).expect("plans");
        let b = engine.query(&updated, &cold, &query).expect("plans");
        assert_eq!(a.matches.table, b.matches.table, "bit-identical tables");
        assert_eq!(a.stats.device, b.stats.device, "exact device counters");

        // The old prepared data still answers against the old graph.
        let before = engine.query(&data, &prepared, &query).expect("plans");
        assert_eq!(before.matches.len(), 100);
    }

    #[test]
    fn concurrent_queries_charge_their_own_ledgers() {
        // Each query's device counts are its own: the same alone as beside
        // another query on the same device, and the device's totals are
        // exactly the sum of the finished queries.
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let alone = engine.query(&data, &prepared, &query).expect("plans");
        assert!(alone.stats.device.gld_transactions > 0);
        assert_eq!(engine.gpu().stats().snapshot(), alone.stats.device);

        engine.gpu().reset_stats();
        let runs = 8;
        let side_by_side: Vec<StatsSnapshot> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..runs)
                            .map(|_| engine.query(&data, &prepared, &query).expect("plans"))
                            .map(|out| out.stats.device)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("query thread"))
                .collect()
        });
        assert!(side_by_side.iter().all(|d| *d == alone.stats.device));
        let total = side_by_side
            .into_iter()
            .fold(StatsSnapshot::default(), |acc, d| acc + d);
        assert_eq!(engine.gpu().stats().snapshot(), total);
    }

    #[test]
    fn apply_updates_rejects_invalid_batches() {
        let (data, _) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let mut batch = UpdateBatch::new();
        batch.insert_edge(0, 1, 0); // already exists
        assert!(matches!(
            engine.apply_updates(&data, &prepared, &batch),
            Err(UpdateError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn apply_updates_with_vertex_growth_rebuilds_signatures() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let mut batch = UpdateBatch::new();
        batch.add_vertex(1); // new B vertex…
        batch.insert_edge(0, 202, 0); // …wired to v0
        let (updated, inc, report) = engine
            .apply_updates(&data, &prepared, &batch)
            .expect("valid");
        assert_eq!(report.signatures_refreshed, None, "table grew: rebuilt");
        let cold = engine.prepare_shared(&updated);
        let a = engine.query(&updated, &inc, &query).expect("plans");
        let b = engine.query(&updated, &cold, &query).expect("plans");
        assert_eq!(a.matches.table, b.matches.table);
    }

    #[test]
    fn cost_based_planner_matches_greedy_results_exactly() {
        use crate::cost::PlannerKind;
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi_opt());
        let prepared = engine.prepare(&data);

        let greedy = engine.query(&data, &prepared, &query).expect("plans");
        assert_eq!(greedy.planner, PlannerKind::Greedy, "preset default");

        let costed = engine
            .query_with_options(
                &data,
                &prepared,
                &query,
                QueryOptions {
                    planner: Some(PlannerKind::CostBased),
                    ..QueryOptions::default()
                },
            )
            .expect("plans");
        assert_eq!(costed.planner, PlannerKind::CostBased);
        assert!(costed.plan.covers(&query));
        assert_eq!(
            costed.matches.canonical(),
            greedy.matches.canonical(),
            "planners must agree on the match set"
        );

        // The config-level switch selects the same planner.
        let engine2 = test_engine(GsiConfig::gsi_opt().with_planner(PlannerKind::CostBased));
        let prepared2 = engine2.prepare(&data);
        let via_cfg = engine2.query(&data, &prepared2, &query).expect("plans");
        assert_eq!(via_cfg.planner, PlannerKind::CostBased);
        assert_eq!(via_cfg.plan, costed.plan);
    }

    #[test]
    fn explain_reports_estimated_and_actual_cardinalities() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &query).expect("plans");
        assert_eq!(out.explain.steps.len(), out.plan.order.len());
        assert_eq!(out.stats.step_rows.len(), out.plan.order.len());
        for (pos, step) in out.explain.steps.iter().enumerate() {
            assert_eq!(step.vertex, out.plan.order[pos]);
            assert_eq!(step.actual_rows, Some(out.stats.step_rows[pos]));
            assert!(step.estimated_rows >= 0.0);
        }
        // The final position's actual rows are the match count.
        assert_eq!(
            out.explain.steps.last().unwrap().actual_rows,
            Some(out.matches.len())
        );
        assert!(out.explain.mean_q_error().expect("actuals filled") >= 1.0);
    }

    #[test]
    fn explain_actuals_cover_only_the_executed_prefix_on_abort() {
        let (data, query) = paper_example();
        let cfg = GsiConfig {
            max_intermediate_rows: 10,
            ..GsiConfig::gsi()
        };
        let engine = test_engine(cfg);
        let prepared = engine.prepare(&data);
        let out = engine.query(&data, &prepared, &query).expect("plans");
        assert!(out.stats.timed_out);
        assert!(out.stats.step_rows.len() < out.plan.order.len());
        assert!(out.explain.steps.last().unwrap().actual_rows.is_none());
    }

    #[test]
    fn timeout_zero_trips_immediately() {
        let (data, query) = paper_example();
        let engine = test_engine(GsiConfig::gsi());
        let prepared = engine.prepare(&data);
        let out = engine
            .query_with_timeout(&data, &prepared, &query, Some(Duration::from_nanos(0)))
            .expect("plans");
        assert!(out.stats.timed_out);
    }
}
