//! Common set-up: one process holding the service, and for the `wire-*`
//! workloads a server on loopback in the same process, so the peel can
//! reach the very catalog entry and engine the wire requests run on.

use crate::pool::{data_graph, MASTER_SEED};
use crate::workloads::{Drive, Workload, GRAPH_NAME};
use gsi::datasets::{build, DatasetSpec};
use gsi::graph::Graph;
use gsi::server::{GsiClient, GsiServer, ServerConfig};
use gsi::service::{CatalogEntry, GsiService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Service workers; the box has two cores.
pub const WORKERS: usize = 2;

/// The service configuration every workload runs: the defaults, with the
/// worker count pinned so results do not depend on the host's core count.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

/// The system under test, set up and ready for requests.
pub struct Stack {
    pub service: Arc<GsiService>,
    pub server: Option<GsiServer>,
    /// Connections in tenant order (`t0`, `t1`); empty in process.
    pub clients: Vec<GsiClient>,
    /// The harness's own copy of the registered graph.
    pub graph: Graph,
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Dataset build and renumbering + service start + (server start + connect) +
    /// register/prepare.
    pub total_s: f64,
    pub build_ms: f64,
}

impl Stack {
    /// The currently published catalog entry of the benchmark graph.
    pub fn entry(&self) -> Arc<CatalogEntry> {
        self.service
            .catalog()
            .get(GRAPH_NAME)
            .expect("set-up registered the benchmark graph")
    }

    /// Say goodbye on every connection, drain the server, stop the
    /// service's workers. Returns once every thread has ended.
    pub fn tear_down(self) {
        for client in self.clients {
            // The reply is only a courtesy count; a failure here cannot
            // affect anything measured.
            let _ = client.goodbye();
        }
        if let Some(server) = self.server {
            server.shutdown();
        }
        // The server held the other reference; dropping the last one
        // drains the scheduler and joins the workers.
        drop(self.service);
    }
}

/// The master-seed graph a workload's structure comes from.
pub fn base_graph(w: &Workload) -> Graph {
    build(&DatasetSpec {
        kind: w.dataset,
        scale: w.scale,
        seed: MASTER_SEED,
    })
}

/// Set the stack up from the seed. The `wire-*` workloads load the graph
/// the way a remote operator would, through `GsiClient::register`.
pub fn set_up(w: &Workload, seed: u64) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let graph = data_graph(&base_graph(w), seed);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let service = Arc::new(GsiService::new(service_config()));
    let n_clients = match w.drive {
        Drive::ClosedWire { clients } => clients,
        Drive::PacedWire { .. } => 2,
        Drive::InProcess => 0,
    };
    let (server, clients) = if n_clients == 0 {
        service.register(GRAPH_NAME, graph.clone());
        (None, Vec::new())
    } else {
        let server = GsiServer::start(Arc::clone(&service), ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let mut clients = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let client = GsiClient::connect(server.local_addr())
                .map_err(|e| format!("connect: {e}"))?
                .with_tenant(format!("t{i}"));
            clients.push(client);
        }
        clients[0]
            .register(GRAPH_NAME, &graph)
            .map_err(|e| format!("register over the wire: {e}"))?;
        (Some(server), clients)
    };
    let total_s = t0.elapsed().as_secs_f64();
    Ok((
        Stack {
            service,
            server,
            clients,
            graph,
        },
        SetupTimes { total_s, build_ms },
    ))
}
