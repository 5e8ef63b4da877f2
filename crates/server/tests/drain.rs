//! The graceful-drain contract: every query the server *acknowledged*
//! (accepted into the scheduler's queue, i.e. not answered with `Busy` or a
//! `ShuttingDown` error) receives a complete response before the server's
//! goodbye — zero acknowledged queries are dropped by a shutdown.

use gsi_api::QueryRequest;
use gsi_graph::{Graph, GraphBuilder};
use gsi_server::frame::{read_frame, write_frame, Frame, FrameHeader};
use gsi_server::{GsiClient, GsiServer, ServerConfig};
use gsi_service::{GsiService, ServiceConfig, TenantPolicy};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

fn path_query(len: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<u32> = (0..len).map(|i| b.add_vertex((i % 2) as u32)).collect();
    for w in vs.windows(2) {
        b.add_edge(w[0], w[1], 0);
    }
    b.build()
}

/// What one request id ultimately received.
#[derive(Debug, PartialEq, Eq)]
enum Terminal {
    /// ResponseHeader … ResponseDone, fully streamed.
    Completed { rows_ok: bool },
    /// A typed API error (e.g. ShuttingDown for post-drain submits).
    Errored,
    /// A Busy backpressure frame — the submit was never acknowledged.
    Busy,
}

/// Per-connection response demultiplexer: pipelined submits mean chunks
/// for different request ids may interleave on one socket.
fn collect_until_goodbye(stream: TcpStream) -> HashMap<u64, Terminal> {
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reader = BufReader::new(stream);
    let mut headers: HashMap<u64, (u64, u64)> = HashMap::new(); // rid -> (expected, got)
    let mut done: HashMap<u64, Terminal> = HashMap::new();
    loop {
        let (header, frame) = match read_frame(&mut reader) {
            Ok(pair) => pair,
            Err(e) => panic!("connection died before goodbye: {e}"),
        };
        let rid = header.request_id;
        match frame {
            Frame::Goodbye => {
                assert_eq!(rid, 0, "server-initiated goodbye uses request id 0");
                return done;
            }
            Frame::ResponseHeader { n_matches, .. } => {
                headers.insert(rid, (n_matches, 0));
            }
            Frame::MatchChunk {
                n_query_vertices,
                rows,
                ..
            } => {
                let entry = headers.get_mut(&rid).expect("chunk after header");
                entry.1 += (rows.len() / n_query_vertices.max(1) as usize) as u64;
            }
            Frame::ResponseDone => {
                let (expected, got) = headers.remove(&rid).expect("done after header");
                done.insert(
                    rid,
                    Terminal::Completed {
                        rows_ok: expected == got,
                    },
                );
            }
            Frame::Error { .. } => {
                done.insert(rid, Terminal::Errored);
            }
            Frame::Busy { .. } => {
                done.insert(rid, Terminal::Busy);
            }
            other => panic!("unexpected frame {}", other.kind_name()),
        }
    }
}

#[test]
fn drain_answers_every_acknowledged_query() {
    let service = Arc::new(GsiService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        tenants: TenantPolicy {
            queue_quota: 64,
            inflight_quota: 4,
            quantum: 8,
        },
        ..ServiceConfig::for_tests()
    }));
    let server = GsiServer::start(Arc::clone(&service), ServerConfig::for_tests()).expect("bind");
    let addr = server.local_addr();

    let mut setup = GsiClient::connect(addr).expect("connect");
    setup.register("dense", &dense_graph(20)).expect("register");

    // Three tenants, each pipelining queries on its own connection. The
    // 4-path queries are slow enough that most are still queued or in
    // flight when the drain starts.
    let n_conns = 3;
    let per_conn = 8u64;
    let mut collectors = Vec::new();
    for c in 0..n_conns {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        for rid in 1..=per_conn {
            let header = FrameHeader::new(rid, format!("tenant-{c}"));
            let frame = Frame::Submit {
                request: QueryRequest::new("dense", path_query(4)),
            };
            write_frame(&mut writer, &header, &frame).expect("pipelined submit");
        }
        collectors.push(std::thread::spawn(move || collect_until_goodbye(stream)));
    }

    // Let the readers ingest the submits, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    let report = server.shutdown();

    let mut completed = 0u64;
    let mut errored = 0u64;
    let mut busy = 0u64;
    for collector in collectors {
        let outcome = collector.join().expect("collector thread");
        // Zero-drop: every one of the pipelined request ids has a terminal
        // answer — nothing vanished in the shutdown.
        assert_eq!(
            outcome.len() as u64,
            per_conn,
            "every submit answered before goodbye, got {outcome:?}"
        );
        for (rid, terminal) in outcome {
            match terminal {
                Terminal::Completed { rows_ok } => {
                    assert!(rows_ok, "rid {rid}: chunk rows disagree with header");
                    completed += 1;
                }
                Terminal::Errored => errored += 1,
                Terminal::Busy => busy += 1,
            }
        }
    }

    // The drain raced the submits, so the split varies — but acknowledged
    // work must dominate, and everything acknowledged completed.
    assert!(
        completed > 0,
        "some queries must complete through the drain (completed={completed} errored={errored} busy={busy})"
    );
    assert_eq!(
        completed + errored,
        report.served_total,
        "served_total counts exactly the non-Busy terminal answers"
    );
    assert_eq!(report.connections_drained, n_conns + 1); // + setup client
}

#[test]
fn submits_after_drain_get_shutting_down() {
    let service = Arc::new(GsiService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::for_tests()
    }));
    let server = GsiServer::start(Arc::clone(&service), ServerConfig::for_tests()).expect("bind");
    let addr = server.local_addr();

    let mut setup = GsiClient::connect(addr).expect("connect");
    setup.register("dense", &dense_graph(32)).expect("register");

    // Pin the drain window open: pipeline slow queries that the single
    // worker will still be grinding through when the drain starts (the
    // in-flight quota serializes them, so the lane can't run dry early).
    let n_anchors = 8u64;
    let anchor = TcpStream::connect(addr).expect("connect");
    let mut anchor_writer = anchor.try_clone().expect("clone");
    for rid in 1..=n_anchors {
        let header = FrameHeader::new(rid, "anchor");
        let frame = Frame::Submit {
            request: QueryRequest::new("dense", path_query(5)),
        };
        write_frame(&mut anchor_writer, &header, &frame).expect("anchor submit");
    }
    let anchor_collector = std::thread::spawn(move || collect_until_goodbye(anchor));
    // Every anchor acknowledged before the drain starts: a reader starved
    // on a busy host would otherwise see the drain first and answer all
    // eight with ShuttingDown.
    let acked = std::time::Instant::now();
    while service.stats().submitted < n_anchors {
        assert!(
            acked.elapsed() < Duration::from_secs(30),
            "anchors never acknowledged"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Finish one round trip before the drain starts: the acceptor stops
    // at drain time, so the connection must already have its reader.
    write_frame(
        &mut writer,
        &FrameHeader::new(1, "late"),
        &Frame::HealthRequest,
    )
    .expect("pre-drain health");
    match read_frame(&mut reader).expect("pre-drain health answer") {
        (_, Frame::HealthReport { .. }) => {}
        (_, other) => panic!("unexpected frame {}", other.kind_name()),
    }

    let shutdown = std::thread::spawn(move || server.shutdown());

    // Health frames are answered throughout the drain; poll until this
    // connection's reader has observably seen the draining flag, so the
    // submit that follows is deterministically inside the window.
    let mut rid = 2u64;
    loop {
        write_frame(
            &mut writer,
            &FrameHeader::new(rid, "late"),
            &Frame::HealthRequest,
        )
        .expect("health poll");
        match read_frame(&mut reader).expect("health answer") {
            (_, Frame::HealthReport { draining: true, .. }) => break,
            (_, Frame::HealthReport { .. }) => {
                rid += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (_, other) => panic!("unexpected frame {}", other.kind_name()),
        }
    }

    // A submit inside the drain window is answered with a typed
    // ShuttingDown error, never silence.
    rid += 1;
    let frame = Frame::Submit {
        request: QueryRequest::new("dense", path_query(3)),
    };
    write_frame(&mut writer, &FrameHeader::new(rid, "late"), &frame).expect("late submit");
    match read_frame(&mut reader) {
        Ok((
            h,
            Frame::Error {
                error: gsi_api::ApiError::ShuttingDown,
            },
        )) => assert_eq!(h.request_id, rid),
        other => panic!("expected ShuttingDown for a mid-drain submit, got {other:?}"),
    }

    let report = shutdown.join().expect("shutdown thread");
    let anchors = anchor_collector.join().expect("anchor collector");
    // The anchored (pre-drain) queries all completed: zero dropped.
    assert_eq!(
        anchors.len() as u64,
        n_anchors,
        "every anchored query answered: {anchors:?}"
    );
    assert!(
        anchors
            .values()
            .all(|t| matches!(t, Terminal::Completed { rows_ok: true })),
        "anchored queries complete through the drain: {anchors:?}"
    );
    assert!(report.served_total >= n_anchors);
}
