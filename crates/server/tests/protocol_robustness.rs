//! Corrupt-frame fuzz battery: every malformed byte stream a client can
//! send must produce a typed protocol error (or a silent close for
//! mid-frame disconnects) — never a panic, and never a wedged server.
//!
//! Each case drives a raw `TcpStream` against a live server, then proves
//! the server survived by running a healthy request on a fresh
//! connection.

use gsi_api::{Completion, QueryRequest};
use gsi_graph::{Graph, GraphBuilder};
use gsi_server::frame::{
    encode_frame, read_frame, write_frame, Frame, FrameHeader, MAGIC, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use gsi_server::{GsiClient, GsiServer, ServerConfig};
use gsi_service::{GsiService, ServiceConfig};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn tiny_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let v1 = b.add_vertex(1);
    b.add_edge(v0, v1, 0);
    b.build()
}

fn edge_query() -> Graph {
    let mut b = GraphBuilder::new();
    let u0 = b.add_vertex(0);
    let u1 = b.add_vertex(1);
    b.add_edge(u0, u1, 0);
    b.build()
}

fn start_server() -> (Arc<GsiService>, GsiServer) {
    let service = Arc::new(GsiService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::for_tests()
    }));
    let server = GsiServer::start(Arc::clone(&service), ServerConfig::for_tests()).expect("bind");
    (service, server)
}

/// The server must still answer a well-formed request after the abuse.
fn assert_server_alive(addr: SocketAddr) {
    let mut client = GsiClient::connect(addr).expect("fresh connection accepted");
    let health = client.health().expect("health probe succeeds");
    assert!(health.accepting, "server still accepting after abuse");
}

/// Send raw bytes, then read whatever the server answers until EOF.
/// Returns the decoded frames (protocol errors surface as `Frame::Error`).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<Frame> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(bytes).expect("write abuse bytes");
    writer.flush().expect("flush");
    // Half-close: the server sees EOF after our bytes, and we can still
    // read its answer.
    let _ = writer.shutdown(Shutdown::Write);

    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    // Read until EOF / reset: the server hung up.
    while let Ok((_h, frame)) = read_frame(&mut reader) {
        frames.push(frame);
    }
    frames
}

fn expect_protocol_error(frames: &[Frame], case: &str) {
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Error {
                error: gsi_api::ApiError::Protocol { .. }
            }
        )),
        "{case}: expected a typed protocol error, got {:?}",
        frames.iter().map(|f| f.kind_name()).collect::<Vec<_>>()
    );
}

#[test]
fn truncated_length_prefix_closes_quietly() {
    let (_service, server) = start_server();
    // Two bytes of a four-byte length prefix, then EOF: an incomplete
    // frame start is a disconnect, not an answerable error.
    let frames = send_raw(server.local_addr(), &[0x10, 0x00]);
    assert!(
        frames.is_empty(),
        "mid-prefix disconnect gets no frames, got {frames:?}"
    );
    assert_server_alive(server.local_addr());
}

#[test]
fn bad_magic_is_typed_protocol_error() {
    let (_service, server) = start_server();
    // A frame-shaped payload with the wrong magic.
    let mut bytes = Vec::new();
    let body_len = 4 + 2 + 1 + 8 + 2;
    bytes.extend_from_slice(&(body_len as u32).to_le_bytes());
    bytes.extend_from_slice(b"NOPE");
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    bytes.push(0x05); // Health
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "bad magic");
    assert_server_alive(server.local_addr());
}

#[test]
fn wrong_version_is_typed_protocol_error() {
    let (_service, server) = start_server();
    let header = FrameHeader::new(1, "");
    let mut bytes = encode_frame(&header, &Frame::HealthRequest);
    // The version field sits right after the 4-byte length + 4-byte magic.
    bytes[8] = 0xFF;
    bytes[9] = 0xFF;
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "wrong version");
    assert_server_alive(server.local_addr());
}

#[test]
fn oversized_frame_is_typed_protocol_error() {
    let (_service, server) = start_server();
    // A length prefix past MAX_FRAME_LEN must be rejected *before* the
    // server tries to buffer it.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
    bytes.extend_from_slice(&MAGIC);
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "oversized frame");
    assert_server_alive(server.local_addr());
}

#[test]
fn undersized_frame_is_typed_protocol_error() {
    let (_service, server) = start_server();
    // A length prefix too small to hold even the fixed header.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "undersized frame");
    assert_server_alive(server.local_addr());
}

#[test]
fn unknown_frame_kind_is_typed_protocol_error() {
    let (_service, server) = start_server();
    let header = FrameHeader::new(1, "");
    let mut bytes = encode_frame(&header, &Frame::HealthRequest);
    bytes[10] = 0x7F; // kind byte: neither client nor server kind
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "unknown kind");
    assert_server_alive(server.local_addr());
}

#[test]
fn garbage_payload_is_typed_protocol_error() {
    let (_service, server) = start_server();
    // A well-framed Submit whose payload is noise: framing succeeds, the
    // payload decode must fail with a typed wire error.
    let mut bytes = Vec::new();
    let payload = [0xDE, 0xAD, 0xBE, 0xEF];
    let body_len = 4 + 2 + 1 + 8 + 2 + payload.len();
    bytes.extend_from_slice(&(body_len as u32).to_le_bytes());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    bytes.push(0x01); // Submit
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&payload);
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "garbage payload");
    assert_server_alive(server.local_addr());
}

#[test]
fn mid_frame_disconnect_closes_quietly() {
    let (_service, server) = start_server();
    // A frame announcing 200 body bytes, but only 20 arrive before EOF.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    bytes.push(0x01);
    bytes.extend_from_slice(&[0u8; 11]);
    assert!(bytes.len() < 204);
    let frames = send_raw(server.local_addr(), &bytes);
    assert!(
        frames.is_empty(),
        "mid-frame disconnect gets no frames, got {frames:?}"
    );
    assert_server_alive(server.local_addr());
}

#[test]
fn server_kind_frame_from_client_is_protocol_error() {
    let (_service, server) = start_server();
    let header = FrameHeader::new(1, "");
    let bytes = encode_frame(&header, &Frame::ResponseDone);
    let frames = send_raw(server.local_addr(), &bytes);
    expect_protocol_error(&frames, "server-kind frame from client");
    assert_server_alive(server.local_addr());
}

#[test]
fn abuse_between_healthy_requests_does_not_poison_service_state() {
    // Interleave every abuse with real work on the same server instance:
    // corrupt connections must not corrupt the catalog or the queue.
    let (_service, server) = start_server();
    let addr = server.local_addr();

    let mut client = GsiClient::connect(addr).expect("connect");
    client.register("g", &tiny_graph()).expect("register");

    let abuses: Vec<Vec<u8>> = vec![
        vec![0x01],                                        // lone length byte
        3u32.to_le_bytes().to_vec(),                       // undersized
        (MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec(), // oversized
        {
            let mut b = encode_frame(&FrameHeader::new(9, "evil"), &Frame::HealthRequest);
            b[4] ^= 0xFF; // flip a magic byte
            b
        },
    ];
    for (i, abuse) in abuses.iter().enumerate() {
        let _ = send_raw(addr, abuse);
        let outcome = client
            .query(QueryRequest::new("g", edge_query()))
            .unwrap_or_else(|e| panic!("healthy query {i} failed after abuse: {e}"));
        assert_eq!(outcome.assignments.len(), 1);
    }
}

#[test]
fn fuzzed_random_prefixes_never_panic_the_server() {
    // Deterministic pseudo-random byte salvos: none may take the server
    // down. (A crash shows up as the follow-up health probe failing.)
    let (_service, server) = start_server();
    let addr = server.local_addr();
    let mut seed = 0x9E3779B97F4A7C15u64;
    for round in 0..24 {
        let len = 1 + (seed % 61) as usize;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes.push((seed >> 33) as u8);
        }
        let _ = send_raw(addr, &bytes);
        if round % 8 == 7 {
            assert_server_alive(addr);
        }
    }
    assert_server_alive(addr);
}

#[test]
fn slow_frame_spanning_read_timeouts_is_served_intact() {
    // The reader's shutdown poll is a 100ms read timeout. A well-behaved
    // client whose frame arrives in several TCP segments with >100ms
    // stalls between them — mid-length-word and mid-body — must still be
    // served: a timeout mid-frame may not discard consumed bytes and
    // desynchronize the framing into a bogus BadLength/BadMagic hangup.
    let (_service, server) = start_server();
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let bytes = encode_frame(&FrameHeader::new(5, "slowpoke"), &Frame::HealthRequest);
    // Split points: inside the 4-byte length word, right after it, and
    // inside the body. Each stall spans at least two reader timeouts.
    let splits = [2usize, 4, bytes.len() / 2];
    let mut from = 0usize;
    for &split in &splits {
        writer
            .write_all(&bytes[from..split])
            .expect("partial write");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(250));
        from = split;
    }
    writer.write_all(&bytes[from..]).expect("final write");
    writer.flush().expect("flush");

    let mut reader = BufReader::new(stream);
    let (h, frame) = read_frame(&mut reader).expect("slow frame answered");
    assert_eq!(h.request_id, 5);
    assert!(
        matches!(frame, Frame::HealthReport { .. }),
        "expected HealthReport, got {}",
        frame.kind_name()
    );
    assert_server_alive(addr);
}

/// Answer one client's one query with the frames of `reply` from a
/// hand-rolled server and return what the client made of it.
fn query_against_fake_server(
    reply: Vec<Frame>,
) -> Result<gsi_server::RemoteOutcome, gsi_server::ClientError> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake_server = std::thread::spawn(move || {
        let (stream, _peer) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let (h, frame) = read_frame(&mut reader).expect("read submit");
        assert!(matches!(frame, Frame::Submit { .. }));
        let mut writer = stream;
        let header = FrameHeader::new(h.request_id, "");
        for frame in reply {
            write_frame(&mut writer, &header, &frame).expect("write reply frame");
        }
    });
    let mut client = GsiClient::connect(addr).expect("connect");
    let outcome = client.query(QueryRequest::new("g", edge_query()));
    fake_server.join().expect("fake server");
    outcome
}

fn response_header(n_matches: u64, n_query_vertices: u32) -> Frame {
    Frame::ResponseHeader {
        n_matches,
        n_query_vertices,
        epoch: 1,
        completion: Completion::Complete,
        plan_cache_hit: false,
        latency_us: 7,
    }
}

#[test]
fn forged_match_count_is_a_typed_error_not_an_allocation() {
    // The header's count is the server's word. A client that reserves
    // `n_matches` rows on its say-so aborts (capacity overflow / OOM) on
    // a forged one; it must instead grow only as chunks arrive and report
    // the shortfall as a typed error.
    for width in [2u32, 0] {
        let forged = vec![response_header(u64::MAX, width), Frame::ResponseDone];
        let outcome = query_against_fake_server(forged);
        match outcome {
            Err(gsi_server::ClientError::Unexpected { kind }) => {
                assert_eq!(kind, "match count mismatch", "width {width}");
            }
            other => panic!("width {width}: expected a count mismatch, got {other:?}"),
        }
    }
    // A chunk that skips ahead is still refused by sequence.
    let skipped = Frame::MatchChunk {
        first_row: 5,
        n_query_vertices: 2,
        rows: vec![0, 1],
    };
    let outcome =
        query_against_fake_server(vec![response_header(6, 2), skipped, Frame::ResponseDone]);
    assert!(matches!(
        outcome,
        Err(gsi_server::ClientError::Unexpected {
            kind: "mis-sequenced match chunk"
        })
    ));
}

#[test]
fn zero_width_response_decodes_as_empty_assignments() {
    // Wire-level defensiveness for the n_query_vertices == 0 edge: a
    // zero-width response carries no chunks, and the client synthesizes
    // n_matches empty assignments instead of failing with a count
    // mismatch. Driven by a hand-rolled server since the real engine
    // rejects empty patterns upstream.
    let outcome = query_against_fake_server(vec![response_header(3, 0), Frame::ResponseDone])
        .expect("zero-width response decodes");
    assert_eq!(outcome.assignments.len(), 3);
    assert!(outcome.assignments.iter().all(<[u32]>::is_empty));
    assert_eq!(outcome.canonical(), vec![Vec::<u32>::new(); 3]);
    assert_eq!(outcome.completion, Completion::Complete);
}

#[test]
fn dead_connection_slots_are_pruned_under_churn() {
    // Connection churn must not grow the server's slot registry without
    // bound: dead weak slots are pruned whenever a new connection
    // registers.
    let (_service, server) = start_server();
    let addr = server.local_addr();
    for _ in 0..10 {
        let mut client = GsiClient::connect(addr).expect("connect");
        let _ = client.health();
        drop(client);
    }
    // Readers notice the EOFs asynchronously; each fresh connect prunes
    // whatever has died by then. Poll briefly to absorb scheduling.
    let mut slots = usize::MAX;
    for _ in 0..100 {
        let probe = GsiClient::connect(addr).expect("connect");
        slots = server.connection_slots();
        drop(probe);
        if slots <= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(slots <= 3, "churned slots were not pruned: {slots} tracked");
}

#[test]
fn half_open_connection_times_out_without_blocking_others() {
    // A client that connects and sends nothing must not stop the server
    // from serving others (reader threads poll with a timeout).
    let (_service, server) = start_server();
    let addr = server.local_addr();
    let idle = TcpStream::connect(addr).expect("idle connect");
    assert_server_alive(addr);
    // The idle connection is still open and usable afterwards.
    let header = FrameHeader::new(1, "");
    let mut writer = idle.try_clone().expect("clone");
    writer
        .write_all(&encode_frame(&header, &Frame::HealthRequest))
        .expect("late frame");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = BufReader::new(idle);
    let (h, frame) = read_frame(&mut reader).expect("answer to late frame");
    assert_eq!(h.request_id, 1);
    assert!(matches!(frame, Frame::HealthReport { .. }));
}
