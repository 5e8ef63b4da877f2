//! End-to-end wire tests: a real `GsiServer` on a real TCP socket, driven
//! by [`GsiClient`]. The load-bearing assertion is *equivalence*: a query
//! answered over the wire is bit-identical (canonical match set) to the
//! same query answered in-process by `GsiService::query_blocking`.

use gsi_api::QueryRequest;
use gsi_graph::query_gen::random_walk_query;
use gsi_graph::{Graph, GraphBuilder, UpdateBatch};
use gsi_server::{ClientError, GsiClient, GsiServer, ServerConfig};
use gsi_service::{GsiService, MetricFormat, ServiceConfig, TenantPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A dense bipartite-ish graph with enough 3-path embeddings to span
/// several `MatchChunk` frames at the test chunk size.
fn dense_graph(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<u32> = (0..n).map(|i| b.add_vertex((i % 2) as u32)).collect();
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            b.add_edge(vs[i], vs[j], 0);
        }
    }
    b.build()
}

/// A path query of `len` vertices alternating labels 0-1-0-…; on
/// `dense_graph(32)` the 5-path's answer runs to megabytes — more than a
/// loopback socket buffers.
fn path_query_of(len: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<u32> = (0..len).map(|i| b.add_vertex((i % 2) as u32)).collect();
    for w in vs.windows(2) {
        b.add_edge(w[0], w[1], 0);
    }
    b.build()
}

/// The 3-vertex path 0-1-0.
fn path_query() -> Graph {
    path_query_of(3)
}

fn start_server(service_workers: usize, tenants: TenantPolicy) -> (Arc<GsiService>, GsiServer) {
    let service = Arc::new(GsiService::new(ServiceConfig {
        workers: service_workers,
        queue_capacity: 256,
        tenants,
        ..ServiceConfig::for_tests()
    }));
    let server = GsiServer::start(Arc::clone(&service), ServerConfig::for_tests())
        .expect("bind ephemeral port");
    (service, server)
}

/// The tenant quotas of `ServiceConfig::for_tests`.
fn test_tenants() -> TenantPolicy {
    ServiceConfig::for_tests().tenants
}

#[test]
fn register_query_stream_equivalence() {
    let (service, server) = start_server(2, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");

    let graph = dense_graph(16);
    let reg = client.register("g", &graph).expect("register over wire");
    assert!(
        reg.displaced_epoch.is_none(),
        "fresh name displaces nothing"
    );

    // Re-registration mirrors `Registration { displaced }` over the wire.
    let reg2 = client.register("g", &graph).expect("re-register");
    assert_eq!(reg2.displaced_epoch, Some(reg.epoch));
    assert!(reg2.epoch > reg.epoch);

    let query = path_query();
    let remote = client
        .query(QueryRequest::new("g", query.clone()))
        .expect("query over wire");

    // In-process ground truth on the same service.
    let local = service
        .query_blocking(QueryRequest::new("g", query))
        .expect("admitted")
        .result
        .expect("query succeeds");
    let local_canonical = local.output.matches.canonical();

    assert!(!local_canonical.is_empty(), "dense graph has 3-paths");
    assert_eq!(
        remote.canonical(),
        local_canonical,
        "wire result must be bit-identical to in-process"
    );
    assert_eq!(remote.epoch, reg2.epoch, "query ran against latest epoch");
    assert!(remote.completion.is_complete());
    // chunk_rows = 64 in the test config; a dense 16-vertex graph has far
    // more 3-path embeddings, so the response provably spanned chunks.
    assert!(
        remote.assignments.len() > ServerConfig::for_tests().chunk_rows,
        "test must exercise multi-chunk streaming (got {} rows)",
        remote.assignments.len()
    );
    drop(service);
}

#[test]
fn workload_equivalence_over_the_wire() {
    // A batch of random-walk queries over a dataset stand-in, each checked
    // against query_blocking on the same service instance.
    let (service, server) = start_server(2, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");

    let graph = gsi_datasets::build(&gsi_datasets::DatasetSpec::scaled(
        gsi_datasets::DatasetKind::Enron,
        0.01,
    ));
    client.register("enron", &graph).expect("register");

    let mut rng = StdRng::seed_from_u64(0x517E);
    let mut checked = 0;
    while checked < 6 {
        let size = 3 + checked % 3;
        let Some(q) = random_walk_query(&graph, size, &mut rng) else {
            continue;
        };
        let remote = client
            .query(QueryRequest::new("enron", q.clone()))
            .expect("wire query");
        let local = service
            .query_blocking(QueryRequest::new("enron", q))
            .expect("admitted")
            .result
            .expect("local query");
        assert_eq!(
            remote.canonical(),
            local.output.matches.canonical(),
            "divergence on query {checked}"
        );
        checked += 1;
    }
}

#[test]
fn update_over_wire_advances_epoch_and_results() {
    let (_service, server) = start_server(1, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");

    // v0(A) — v1(B); the update wires v0 to a second B vertex.
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let v1 = b.add_vertex(1);
    b.add_edge(v0, v1, 0);
    b.add_vertex(1); // v2: present but unwired
    let reg = client.register("g", &b.build()).expect("register");

    let mut q = GraphBuilder::new();
    let u0 = q.add_vertex(0);
    let u1 = q.add_vertex(1);
    q.add_edge(u0, u1, 0);
    let query = q.build();

    let before = client
        .query(QueryRequest::new("g", query.clone()))
        .expect("query");
    assert_eq!(before.assignments.len(), 1);
    assert_eq!(before.epoch, reg.epoch);

    let mut batch = UpdateBatch::new();
    batch.insert_edge(0, 2, 0);
    let up = client.update("g", &batch).expect("update over wire");
    assert_eq!(up.displaced_epoch, reg.epoch);
    assert!(up.epoch > reg.epoch);
    assert_eq!(up.applied_ops, 1);

    let after = client
        .query(QueryRequest::new("g", query))
        .expect("query after update");
    assert_eq!(after.assignments.len(), 2, "new edge visible after update");
    assert_eq!(after.epoch, up.epoch);

    // Updating an unknown graph is a typed error, not a hang or a panic.
    let mut bad = UpdateBatch::new();
    bad.insert_edge(0, 1, 0);
    match client.update("nope", &bad) {
        Err(ClientError::Api(gsi_api::ApiError::UnknownGraph { name })) => {
            assert_eq!(name, "nope");
        }
        other => panic!("expected UnknownGraph, got {other:?}"),
    }
}

#[test]
fn unknown_graph_query_is_typed_error() {
    let (_service, server) = start_server(1, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");
    match client.query(QueryRequest::new("missing", path_query())) {
        Err(ClientError::Api(gsi_api::ApiError::UnknownGraph { name })) => {
            assert_eq!(name, "missing");
        }
        other => panic!("expected UnknownGraph, got {other:?}"),
    }
}

/// The value of counter `name` in a Prometheus text export.
fn counter(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no counter {name} in:\n{prom}"))
}

#[test]
fn metrics_and_health_over_wire() {
    let (_service, server) = start_server(1, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");
    client.register("g", &dense_graph(6)).expect("register");

    // The server's own egress counters. Each export is rendered before
    // the write that carries it, so two exports back to back differ by
    // exactly that one write — and a light query in between adds exactly
    // one more: its whole reply (header, chunk, done) is one socket write.
    let writes = "gsi_server_socket_writes_total";
    let bytes = "gsi_server_bytes_written_total";
    let first = client.metrics(MetricFormat::Prometheus).expect("metrics");
    let second = client.metrics(MetricFormat::Prometheus).expect("metrics");
    assert_eq!(counter(&second, writes) - counter(&first, writes), 1);
    client
        .query(QueryRequest::new("g", path_query()))
        .expect("query");
    let prom = client.metrics(MetricFormat::Prometheus).expect("metrics");
    assert_eq!(counter(&prom, writes) - counter(&second, writes), 2);
    assert!(counter(&prom, bytes) > counter(&second, bytes) + second.len() as u64);
    assert_eq!(counter(&prom, "gsi_server_write_failures_total"), 0);
    assert!(
        prom.contains("gsi_queries_completed_total"),
        "prometheus export should carry service counters:\n{prom}"
    );
    let json = client.metrics(MetricFormat::Json).expect("metrics json");
    assert!(json.trim_start().starts_with('{'), "json export: {json}");

    let health = client.health().expect("health");
    assert!(health.accepting);
    assert!(!health.draining);
    assert_eq!(health.graphs, 1);
    assert!(health.served >= 1, "one query was served");

    let served = client.goodbye().expect("goodbye ack");
    // The goodbye ack counts streamed query responses (control-plane
    // answers are not "served" work): exactly the one query above.
    assert_eq!(served, 1, "connection served {served}");
}

/// Every exported metric family, `(name, type)` in export order: the 40
/// service families, then the server's 3. A metric cannot be added,
/// dropped, renamed or re-typed without changing this list.
const PINNED_FAMILIES: [(&str, &str); 43] = [
    ("gsi_queries_submitted_total", "counter"),
    ("gsi_queries_rejected_total", "counter"),
    ("gsi_queries_completed_total", "counter"),
    ("gsi_engine_timeouts_total", "counter"),
    ("gsi_deadline_expired_total", "counter"),
    ("gsi_plan_rejected_total", "counter"),
    ("gsi_worker_panics_total", "counter"),
    ("gsi_query_matches_total", "counter"),
    ("gsi_batched_queries_total", "counter"),
    ("gsi_filter_demands_computed_total", "counter"),
    ("gsi_filter_demands_reused_total", "counter"),
    ("gsi_planned_greedy_total", "counter"),
    ("gsi_planned_cost_based_total", "counter"),
    ("gsi_updates_incremental_total", "counter"),
    ("gsi_updates_rebuilt_total", "counter"),
    ("gsi_stage_queue_us_total", "counter"),
    ("gsi_stage_plan_us_total", "counter"),
    ("gsi_stage_filter_us_total", "counter"),
    ("gsi_stage_join_us_total", "counter"),
    ("gsi_stage_respond_us_total", "counter"),
    ("gsi_device_gld_transactions_total", "counter"),
    ("gsi_device_gst_transactions_total", "counter"),
    ("gsi_device_kernel_launches_total", "counter"),
    ("gsi_device_warp_tasks_total", "counter"),
    ("gsi_device_work_units_total", "counter"),
    ("gsi_device_device_allocs_total", "counter"),
    ("gsi_device_device_alloc_bytes_total", "counter"),
    ("gsi_device_idle_lane_work_total", "counter"),
    ("gsi_queue_depth", "gauge"),
    ("gsi_queue_depth_highwater", "gauge"),
    ("gsi_scheduler_workers", "gauge"),
    ("gsi_scheduler_lanes", "gauge"),
    ("gsi_scheduler_lane_depth_max", "gauge"),
    ("gsi_scheduler_in_flight", "gauge"),
    ("gsi_mean_q_error", "gauge"),
    ("gsi_last_update_drift", "gauge"),
    ("gsi_flight_recorder_len", "gauge"),
    ("gsi_service_uptime_seconds", "gauge"),
    ("gsi_query_latency_us", "histogram"),
    ("gsi_batch_fill", "histogram"),
    ("gsi_server_socket_writes_total", "counter"),
    ("gsi_server_bytes_written_total", "counter"),
    ("gsi_server_write_failures_total", "counter"),
];

#[test]
fn exported_metric_families_are_pinned() {
    let (service, server) = start_server(1, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");
    client.register("g", &dense_graph(6)).expect("register");
    client
        .query(QueryRequest::new("g", path_query()))
        .expect("query");
    let families = |prom: &str| -> Vec<(String, String)> {
        prom.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|rest| rest.split_once(' '))
            .map(|(name, ty)| (name.to_string(), ty.to_string()))
            .collect()
    };
    let pinned: Vec<(String, String)> = PINNED_FAMILIES
        .iter()
        .map(|&(n, t)| (n.to_string(), t.to_string()))
        .collect();
    let remote = client.metrics(MetricFormat::Prometheus).expect("metrics");
    assert_eq!(families(&remote), pinned, "over the wire");
    // The server declared its counters into the service's own registry.
    let local = service.export_metrics(MetricFormat::Prometheus);
    assert_eq!(families(&local), pinned, "in process");
}

#[test]
fn light_replies_do_not_wait_out_a_timer() {
    // A multi-frame reply written frame by frame on a socket without
    // TCP_NODELAY stalls ~40 ms on the peer's delayed ACK — every query,
    // whatever the engine does. One write per reply on a NODELAY socket
    // answers a light query in well under a millisecond; the bound sits
    // between the two so the timer cannot come back unnoticed.
    let (_service, server) = start_server(1, test_tenants());
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");
    client.register("g", &dense_graph(6)).expect("register");
    let mut latencies: Vec<std::time::Duration> = (0..50)
        .map(|_| {
            let asked = std::time::Instant::now();
            let out = client
                .query(QueryRequest::new("g", path_query()))
                .expect("query");
            assert!(!out.assignments.is_empty());
            asked.elapsed()
        })
        .collect();
    latencies.sort_unstable();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "median light-query latency {median:?} (sorted: {latencies:?})"
    );
}

#[test]
fn tenant_flood_hits_queue_quota_with_busy() {
    // Tight quotas + a single slow worker: a flood of pipelined submits
    // must overflow the tenant lane and be answered with Busy frames.
    let tenants = TenantPolicy {
        queue_quota: 2,
        inflight_quota: 1,
        quantum: 8,
    };
    let (service, server) = start_server(1, tenants);
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");
    client
        .register("dense", &dense_graph(32))
        .expect("register");

    // Pipeline raw Submit frames without reading responses; the reader
    // thread routes them into the lane faster than one worker drains.
    use gsi_server::frame::{read_frame, write_frame, Frame, FrameHeader};
    use std::io::BufReader;
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // A 4-path over the dense graph keeps the worker busy long enough.
    let slow = path_query_of(4);

    let n_submits = 12u64;
    for rid in 1..=n_submits {
        let header = FrameHeader {
            request_id: rid,
            tenant: "flooder".to_string(),
        };
        let frame = Frame::Submit {
            request: QueryRequest::new("dense", slow.clone()),
        };
        write_frame(&mut writer, &header, &frame).expect("pipelined submit");
    }

    // Every rid gets a terminal answer; some must be Busy.
    let mut busy = 0;
    let mut done = 0;
    let mut terminal = 0;
    while terminal < n_submits {
        let (_h, frame) = read_frame(&mut reader).expect("response frame");
        match frame {
            Frame::Busy { retry_after_hint } => {
                assert!(retry_after_hint > std::time::Duration::ZERO);
                busy += 1;
                terminal += 1;
            }
            Frame::ResponseDone => {
                done += 1;
                terminal += 1;
            }
            Frame::Error { error } => panic!("unexpected error frame: {error}"),
            Frame::ResponseHeader { .. } | Frame::MatchChunk { .. } => {}
            other => panic!("unexpected frame {}", other.kind_name()),
        }
    }
    assert!(
        busy > 0,
        "queue quota 2 must reject part of a 12-deep flood"
    );
    assert!(done > 0, "admitted queries still complete");
    // One admission point: every Busy on the wire is a refusal the
    // service counted, and every refusal it counted went out as Busy.
    assert_eq!(service.stats().rejected, busy);
}

#[test]
fn drr_shares_service_between_tenants() {
    // Two tenants flood concurrently; DRR must not let either lane starve.
    let tenants = TenantPolicy {
        queue_quota: 32,
        inflight_quota: 1,
        quantum: 8,
    };
    let (_service, server) = start_server(1, tenants);
    let addr = server.local_addr();
    let mut setup = GsiClient::connect(addr).expect("connect");
    setup.register("dense", &dense_graph(24)).expect("register");

    let worker = |tenant: &'static str| {
        let mut client = GsiClient::connect(addr)
            .expect("connect")
            .with_tenant(tenant);
        std::thread::spawn(move || {
            let mut served = 0u64;
            for _ in 0..8 {
                match client.query(QueryRequest::new("dense", path_query())) {
                    Ok(_) => served += 1,
                    Err(ClientError::Busy { retry_after }) => std::thread::sleep(retry_after),
                    Err(e) => panic!("tenant {} failed: {e}", client.tenant()),
                }
            }
            served
        })
    };
    let a = worker("alpha");
    let b = worker("beta");
    let served_a = a.join().expect("alpha thread");
    let served_b = b.join().expect("beta thread");
    assert_eq!(served_a, 8);
    assert_eq!(served_b, 8);
}

#[test]
fn deadline_budget_includes_lane_wait() {
    use gsi_server::frame::{read_frame, write_frame, Frame, FrameHeader};
    use std::time::Duration;

    // One in-flight slot per tenant: the second query cannot leave its
    // lane until the first one's response has been written.
    let tenants = TenantPolicy {
        queue_quota: 8,
        inflight_quota: 1,
        quantum: 8,
    };
    let (service, server) = start_server(1, tenants);
    let mut client = GsiClient::connect(server.local_addr()).expect("connect");
    client
        .register("dense", &dense_graph(32))
        .expect("register");

    let stream = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    let deadline = Duration::from_millis(20);
    let big = QueryRequest::new("dense", path_query_of(5));
    let quick = QueryRequest::new("dense", path_query()).with_deadline(deadline);
    for (rid, request) in [(1, big), (2, quick)] {
        let header = FrameHeader::new(rid, "t");
        write_frame(&mut writer, &header, &Frame::Submit { request }).expect("submit");
    }

    // Not reading holds the big response — and with it the tenant's only
    // slot — for longer than the quick query's whole budget, however fast
    // the join itself ran.
    std::thread::sleep(5 * deadline);

    let mut big_done = false;
    let mut quick_waited = None;
    while !big_done || quick_waited.is_none() {
        let (header, frame) = read_frame(&mut reader).expect("response frame");
        match (header.request_id, frame) {
            (1, Frame::ResponseDone) => big_done = true,
            (1, Frame::ResponseHeader { .. } | Frame::MatchChunk { .. }) => {}
            (
                2,
                Frame::Error {
                    error: gsi_api::ApiError::DeadlineExpired { waited },
                },
            ) => quick_waited = Some(waited),
            (rid, other) => panic!(
                "rid {rid}: lane wait must count against the deadline, got {}",
                other.kind_name()
            ),
        }
    }
    assert!(quick_waited.expect("loop exit") >= deadline);
    assert_eq!(service.stats().deadline_expired, 1);
}

#[test]
fn slow_reader_costs_only_its_own_connection() {
    use gsi_server::frame::{write_frame, Frame, FrameHeader};
    use gsi_server::server::WRITE_DEADLINE;
    use std::io::Read;
    use std::time::{Duration, Instant};

    let (service, server) = start_server(2, test_tenants());
    let addr = server.local_addr();
    let mut healthy = GsiClient::connect(addr)
        .expect("connect")
        .with_tenant("healthy");
    healthy
        .register("dense", &dense_graph(32))
        .expect("register");

    // A peer that asks for megabytes and never reads them.
    let mut stalled = std::net::TcpStream::connect(addr).expect("raw connect");
    let request = QueryRequest::new("dense", path_query_of(5));
    write_frame(
        &mut stalled,
        &FrameHeader::new(1, "stalled"),
        &Frame::Submit { request },
    )
    .expect("submit");
    let poll = |what: &str, limit: Duration, done: &dyn Fn() -> bool| {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < limit, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    poll("the big join", Duration::from_secs(60), &|| {
        service.stats().completed >= 1
    });
    let stalled_at = Instant::now();
    let stalled_in_flight = || {
        server
            .tenant_lanes()
            .iter()
            .filter(|lane| lane.tenant.as_deref() == Some("stalled"))
            .map(|lane| lane.in_flight)
            .sum::<usize>()
    };
    assert_eq!(stalled_in_flight(), 1, "its response is still owed");

    // While that connection's writer sits blocked on the full socket,
    // everyone else is served as if it were not there.
    while stalled_at.elapsed() < WRITE_DEADLINE / 2 {
        let asked = Instant::now();
        let out = healthy
            .query(QueryRequest::new("dense", path_query()))
            .expect("healthy query");
        assert!(!out.assignments.is_empty());
        assert!(
            asked.elapsed() < WRITE_DEADLINE / 4,
            "a healthy connection waited {:?} behind a stalled one",
            asked.elapsed()
        );
    }
    assert_eq!(stalled_in_flight(), 1, "held for the whole write deadline");

    // Past the write deadline the server gives the peer up: the slot is
    // released and the connection closed.
    poll(
        "the write deadline",
        WRITE_DEADLINE + Duration::from_secs(10),
        &|| stalled_in_flight() == 0,
    );
    assert!(stalled_at.elapsed() >= WRITE_DEADLINE / 2);
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = vec![0u8; 1 << 16];
    loop {
        match stalled.read(&mut sink) {
            // Buffered bytes first, then EOF (or a reset): never a hang.
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                panic!("stalled connection still open after the write deadline")
            }
            Err(_) => break,
        }
    }
}
