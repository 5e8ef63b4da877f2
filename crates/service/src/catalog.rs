//! The graph catalog: named, prepared data graphs shared across queries,
//! with epoch-versioned copy-on-write updates.
//!
//! The paper's offline phase (signature encoding, PCSR construction) is per
//! data graph, not per query; a serving system does it once at registration
//! and shares the resulting [`PreparedData`] — behind an [`Arc`] — with
//! every in-flight query touching that graph.
//!
//! **Epochs.** Every registered state of a graph carries an epoch: a
//! monotonic id scoping stats attribution. A
//! [`GraphCatalog::update`] applies an [`UpdateBatch`] through the
//! incremental re-prepare path (`PreparedData::apply_updates` — untouched
//! PCSR label layers are *shared* between the epochs, not copied) and
//! atomically publishes the result as the next epoch. Queries that resolved
//! their entry before the publish keep the old epoch's `Arc` pinned and
//! finish against a consistent snapshot; queries admitted after see the new
//! epoch. No locks are held during preparation, and a reader observes
//! either the old or the new entry — never a torn mix.

use gsi_core::{GsiEngine, PreparedData, UpdateBatch, UpdateError, UpdateReport};
use gsi_graph::Graph;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One registered state of a data graph: the logical graph plus its offline
/// structures, frozen for its epoch's lifetime.
pub struct CatalogEntry {
    name: String,
    /// Monotonic id distinguishing states published under the same name
    /// (re-registrations and in-place updates). Scopes the per-epoch
    /// serving stats.
    epoch: u64,
    graph: Graph,
    prepared: Arc<PreparedData>,
}

impl CatalogEntry {
    /// The name the graph was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unique epoch id of this state (stats scope).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The logical data graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The offline-built structures. An in-flight query pins the whole
    /// `Arc<CatalogEntry>` at submit time, which transitively keeps this
    /// epoch's prepared data alive under concurrent
    /// [`GraphCatalog::update`]s.
    pub fn prepared(&self) -> &PreparedData {
        &self.prepared
    }
}

impl std::fmt::Debug for CatalogEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogEntry")
            .field("name", &self.name)
            .field("epoch", &self.epoch)
            .field("n_vertices", &self.graph.n_vertices())
            .field("n_edges", &self.graph.n_edges())
            .finish()
    }
}

/// Result of [`GraphCatalog::register`].
#[derive(Debug)]
pub struct Registration {
    /// The freshly registered entry.
    pub entry: Arc<CatalogEntry>,
    /// The entry this registration displaced, when the name was already
    /// taken. The displaced epoch keeps serving queries that hold it; the
    /// caller is responsible for retiring state scoped to it (the service
    /// retires its per-epoch stats entry).
    pub displaced: Option<Arc<CatalogEntry>>,
}

/// Result of a successful [`GraphCatalog::update`].
#[derive(Debug)]
pub struct CatalogUpdate {
    /// The new epoch's entry, now current under the name.
    pub entry: Arc<CatalogEntry>,
    /// The previous epoch's entry (stays alive for queries that pinned it).
    pub displaced: Arc<CatalogEntry>,
    /// What the delta re-prepare recomputed vs reused.
    pub report: UpdateReport,
}

/// Why a [`GraphCatalog::update`] was not applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogUpdateError {
    /// No graph with this name is registered.
    UnknownGraph(String),
    /// The entry changed while the update was being prepared (a concurrent
    /// update or re-registration won the race); retry against the new
    /// current state.
    Conflict(String),
    /// The batch failed validation against the current graph.
    Graph(UpdateError),
}

impl std::fmt::Display for CatalogUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogUpdateError::UnknownGraph(name) => write!(f, "unknown graph '{name}'"),
            CatalogUpdateError::Conflict(name) => {
                write!(f, "graph '{name}' changed during the update; retry")
            }
            CatalogUpdateError::Graph(e) => write!(f, "invalid update batch: {e}"),
        }
    }
}

impl std::error::Error for CatalogUpdateError {}

impl From<UpdateError> for CatalogUpdateError {
    fn from(e: UpdateError) -> Self {
        CatalogUpdateError::Graph(e)
    }
}

impl From<CatalogUpdateError> for gsi_api::ApiError {
    fn from(e: CatalogUpdateError) -> Self {
        match e {
            CatalogUpdateError::UnknownGraph(name) => gsi_api::ApiError::UnknownGraph { name },
            CatalogUpdateError::Conflict(name) => gsi_api::ApiError::UpdateConflict { name },
            CatalogUpdateError::Graph(err) => gsi_api::ApiError::UpdateRejected {
                reason: err.to_string(),
            },
        }
    }
}

/// Thread-safe registry of prepared data graphs.
#[derive(Debug, Default)]
pub struct GraphCatalog {
    entries: RwLock<HashMap<String, Arc<CatalogEntry>>>,
    next_epoch: AtomicU64,
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepare `graph` with `engine` and register it under `name`. Returns
    /// the new entry plus the entry it displaced, if the name was taken —
    /// a replaced registration is surfaced, never silently dropped.
    ///
    /// Preparation happens *outside* the catalog lock (it is the expensive
    /// offline phase), so serving continues while a graph is loading, and
    /// uses [`GsiEngine::prepare_shared`] so the device's running totals
    /// are never reset by a registration.
    pub fn register(&self, engine: &GsiEngine, name: &str, graph: Graph) -> Registration {
        let prepared = Arc::new(engine.prepare_shared(&graph));
        let entry = Arc::new(CatalogEntry {
            name: name.to_string(),
            epoch: self.next_epoch.fetch_add(1, Ordering::Relaxed),
            graph,
            prepared,
        });
        let displaced = self
            .entries
            .write()
            .insert(name.to_string(), Arc::clone(&entry));
        #[cfg(feature = "debug-invariants")]
        {
            self.assert_epoch_pinnable(&entry);
            if let Some(old) = &displaced {
                assert!(
                    entry.epoch > old.epoch,
                    "debug-invariants: re-registration published epoch {} over a newer epoch {}; \
                     per-epoch stats scoping relies on epochs growing monotonically",
                    entry.epoch,
                    old.epoch
                );
            }
        }
        Registration { entry, displaced }
    }

    /// debug-invariants: a published entry's epoch must have been allocated
    /// from this catalog's `next_epoch` counter (i.e. be strictly below it);
    /// otherwise a pinned epoch could collide with a future allocation and
    /// alias another graph state's stats scope.
    #[cfg(feature = "debug-invariants")]
    fn assert_epoch_pinnable(&self, entry: &CatalogEntry) {
        let next = self.next_epoch.load(Ordering::Relaxed);
        assert!(
            entry.epoch < next,
            "debug-invariants: entry `{}` pins epoch {} but the catalog has only allocated up to {}",
            entry.name,
            entry.epoch,
            next
        );
    }

    /// Apply `batch` to the graph registered under `name` and publish the
    /// result as the next epoch.
    ///
    /// The delta re-prepare runs on a snapshot of the current entry with no
    /// lock held; the publish is a single atomic pointer swap guarded by a
    /// current-state check, so a racing update or re-registration yields
    /// [`CatalogUpdateError::Conflict`] instead of silently clobbering
    /// either epoch. In-flight queries that resolved the old entry keep it
    /// alive through their `Arc` and finish against the old epoch's data;
    /// untouched PCSR label layers are physically shared between the two
    /// epochs, so the published copy costs only what the batch touched.
    pub fn update(
        &self,
        engine: &GsiEngine,
        name: &str,
        batch: &UpdateBatch,
    ) -> Result<CatalogUpdate, CatalogUpdateError> {
        let base = self
            .get(name)
            .ok_or_else(|| CatalogUpdateError::UnknownGraph(name.to_string()))?;
        // An empty batch is a cheap no-op: the current entry stays
        // published under its current epoch — no COW re-prepare, no epoch
        // bump, nothing for the caller to invalidate (`entry` and
        // `displaced` are the same entry; compare epochs to detect this).
        if batch.is_empty() {
            return Ok(CatalogUpdate {
                entry: Arc::clone(&base),
                displaced: base,
                report: UpdateReport::noop(),
            });
        }
        let (graph, prepared, report) = base
            .prepared
            .apply_updates(engine, &base.graph, batch)
            .map_err(CatalogUpdateError::Graph)?;
        let entry = Arc::new(CatalogEntry {
            name: name.to_string(),
            epoch: self.next_epoch.fetch_add(1, Ordering::Relaxed),
            graph,
            prepared: Arc::new(prepared),
        });
        {
            let mut entries = self.entries.write();
            match entries.get(name) {
                Some(cur) if Arc::ptr_eq(cur, &base) => {
                    entries.insert(name.to_string(), Arc::clone(&entry));
                }
                _ => return Err(CatalogUpdateError::Conflict(name.to_string())),
            }
        }
        #[cfg(feature = "debug-invariants")]
        {
            self.assert_epoch_pinnable(&entry);
            assert!(
                entry.epoch > base.epoch,
                "debug-invariants: update published epoch {} which does not supersede the \
                 displaced epoch {}; in-flight queries pinning the old epoch would outrank it",
                entry.epoch,
                base.epoch
            );
        }
        Ok(CatalogUpdate {
            entry,
            displaced: base,
            report,
        })
    }

    /// The entry registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        let entry = self.entries.read().get(name).cloned();
        #[cfg(feature = "debug-invariants")]
        if let Some(entry) = &entry {
            self.assert_epoch_pinnable(entry);
        }
        entry
    }

    /// Remove `name`; returns the removed entry (queries already holding it
    /// keep running — the `Arc` keeps the prepared data alive).
    pub fn unregister(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.entries.write().remove(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_core::GsiConfig;
    use gsi_gpu_sim::{DeviceConfig, Gpu};
    use gsi_graph::GraphBuilder;

    fn engine() -> GsiEngine {
        GsiEngine::with_gpu(GsiConfig::gsi(), Gpu::new(DeviceConfig::test_device()))
    }

    fn tiny(label: u32) -> Graph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(label);
        let v1 = b.add_vertex(label + 1);
        b.add_edge(v0, v1, 0);
        b.build()
    }

    #[test]
    fn register_get_unregister() {
        let engine = engine();
        let cat = GraphCatalog::new();
        assert!(cat.is_empty());
        cat.register(&engine, "a", tiny(0));
        cat.register(&engine, "b", tiny(5));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.names(), vec!["a".to_string(), "b".to_string()]);
        let a = cat.get("a").expect("registered");
        assert_eq!(a.name(), "a");
        assert_eq!(a.graph().n_vertices(), 2);
        assert!(cat.get("missing").is_none());
        assert!(cat.unregister("a").is_some());
        assert!(cat.get("a").is_none());
    }

    #[test]
    fn reregistration_bumps_epoch_and_surfaces_displaced_entry() {
        let engine = engine();
        let cat = GraphCatalog::new();
        let r1 = cat.register(&engine, "g", tiny(0));
        assert!(r1.displaced.is_none(), "fresh name displaces nothing");
        let r2 = cat.register(&engine, "g", tiny(3));
        // Regression: the displaced entry must be returned, not dropped.
        let displaced = r2.displaced.expect("old entry surfaced");
        assert!(Arc::ptr_eq(&displaced, &r1.entry));
        assert_ne!(r1.entry.epoch(), r2.entry.epoch());
        // The old entry stays usable through its Arc.
        assert_eq!(displaced.graph().vlabel(0), 0);
        assert_eq!(cat.get("g").unwrap().graph().vlabel(0), 3);
    }

    #[test]
    fn entries_usable_for_queries() {
        let engine = engine();
        let cat = GraphCatalog::new();
        let e = cat.register(&engine, "g", tiny(0)).entry;
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        let q = qb.build();
        let out = engine.query(e.graph(), e.prepared(), &q).expect("plans");
        assert_eq!(out.matches.len(), 1);
    }

    #[test]
    fn update_publishes_next_epoch_and_pins_old_data() {
        let engine = engine();
        let cat = GraphCatalog::new();
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(1);
        b.add_edge(v0, v1, 0);
        b.add_edge(v0, v2, 0);
        let old = cat.register(&engine, "g", b.build()).entry;

        let mut batch = UpdateBatch::new();
        batch.remove_edge(0, 2, 0);
        let up = cat.update(&engine, "g", &batch).expect("applies");
        assert!(Arc::ptr_eq(&up.displaced, &old));
        assert_eq!(up.entry.epoch(), old.epoch() + 1);
        assert!(up.report.store_incremental());

        // Old epoch still answers with the old graph.
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        let q = qb.build();
        assert_eq!(
            engine
                .query(old.graph(), old.prepared(), &q)
                .expect("plans")
                .matches
                .len(),
            2
        );
        let cur = cat.get("g").unwrap();
        assert_eq!(
            engine
                .query(cur.graph(), cur.prepared(), &q)
                .expect("plans")
                .matches
                .len(),
            1
        );
    }

    #[test]
    fn empty_update_batch_keeps_entry_and_epoch() {
        let engine = engine();
        let cat = GraphCatalog::new();
        let before = cat.register(&engine, "g", tiny(0)).entry;
        let up = cat
            .update(&engine, "g", &UpdateBatch::new())
            .expect("no-op applies");
        assert!(Arc::ptr_eq(&up.entry, &before), "same entry stays current");
        assert!(Arc::ptr_eq(&up.displaced, &before));
        assert_eq!(up.entry.epoch(), before.epoch(), "no epoch bump");
        assert!(Arc::ptr_eq(&cat.get("g").unwrap(), &before));
    }

    #[test]
    fn update_unknown_graph_and_invalid_batch_fail() {
        let engine = engine();
        let cat = GraphCatalog::new();
        cat.register(&engine, "g", tiny(0));
        let batch = UpdateBatch::new();
        assert!(matches!(
            cat.update(&engine, "missing", &batch),
            Err(CatalogUpdateError::UnknownGraph(_))
        ));
        let mut bad = UpdateBatch::new();
        bad.insert_edge(0, 1, 0); // exists
        assert!(matches!(
            cat.update(&engine, "g", &bad),
            Err(CatalogUpdateError::Graph(UpdateError::DuplicateEdge { .. }))
        ));
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "debug-invariants: entry `g` pins epoch")]
    fn sanitizer_catches_unallocated_epoch_pin() {
        let engine = engine();
        let cat = GraphCatalog::new();
        cat.register(&engine, "g", tiny(0));
        // Forge an entry whose epoch the catalog never allocated — only
        // reachable by corrupting internals, which is exactly what the
        // sanitizer exists to catch.
        let forged = {
            let cur = cat.get("g").unwrap();
            Arc::new(CatalogEntry {
                name: cur.name.clone(),
                epoch: cur.epoch + 1_000,
                graph: cur.graph.clone(),
                prepared: Arc::clone(&cur.prepared),
            })
        };
        cat.entries.write().insert("g".to_string(), forged);
        let _ = cat.get("g");
    }
}
