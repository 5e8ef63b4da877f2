//! The TCP front-end: accept loop, per-connection readers and writers.
//!
//! ## Threading model
//!
//! The engine's CPU work lives in `gsi-service`'s worker pool, and so does
//! the one queue in front of it; the server adds only I/O threads:
//!
//! * **acceptor** — one thread on a non-blocking listener; refuses
//!   connections past [`ServerConfig::max_connections`] and stops
//!   accepting the moment a drain starts.
//! * **reader (per connection)** — decodes frames, answers control-plane
//!   requests (register / update / metrics / health / goodbye) inline,
//!   and hands each `Submit` straight to `QueryScheduler::submit_to` —
//!   the stack's single admission point and the start of the query's one
//!   clock (deadline budget, queue wait, wire `latency_us`). A refusal
//!   (queue or tenant lane full) is answered at once with
//!   `Busy { retry_after_hint }`; a malformed frame gets a typed
//!   `Error { Protocol }` frame and the connection is closed.
//! * **writer (per connection)** — streams out the responses the
//!   service's workers deliver into the connection's outbound channel
//!   tagged with their request ids. A [`ReplyWriter`] encodes each
//!   reply's frames back to back into one reusable buffer — chunk cells
//!   gathered straight from the result table's columns — and hands the
//!   socket whole frames, [`FLUSH_BUDGET`] at a time: a reply that fits
//!   the budget is exactly one socket write. The tenant's in-flight slot
//!   travels with each response and is released once it has been written
//!   or abandoned.
//!
//! A query's blocking chain is reader → worker → its own connection's
//! writer. Every accepted socket has `TCP_NODELAY` set (no write ever
//! waits for the peer's delayed ACK), and every socket write — one
//! control-plane frame from the reader, or one flush of a reply from the
//! writer, serialized by the connection's write lock so they interleave
//! between whole frames only — carries [`WRITE_DEADLINE`]: a peer that
//! stops reading is disconnected when it expires, so it holds at most its
//! tenants' in-flight quota of result tables and blocks nobody else.
//!
//! ## Drain contract
//!
//! [`GsiServer::shutdown`] stops the acceptor, refuses new submits with
//! `Error { ShuttingDown }`, waits until every acknowledged submit's
//! response has been written (or abandoned on a dead connection), then
//! sends each live connection a server-initiated `Goodbye` (request id 0)
//! and closes it — zero acknowledged queries are dropped.

use crate::frame::{
    encode_frame_into, encode_match_chunk_into, read_frame_polled, Frame, FrameHeader,
};
use gsi_api::request::DEFAULT_TENANT;
use gsi_api::{ApiError, Completion};
use gsi_core::Matches;
use gsi_obs::Counter;
use gsi_service::{Delivery, GsiService, LaneSnapshot, QueryResponse, SubmitError};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest one socket write may block before the connection is given up
/// on. A healthy peer drains a chunk in well under a millisecond; a peer
/// that has not made room for one within this long has stopped reading.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Bytes of encoded reply a [`ReplyWriter`] gathers before handing them
/// to the socket. Small enough to start a large answer flowing while the
/// rest is still being encoded, large enough that a selective query's
/// whole reply (header, chunks, done) leaves in one write.
pub const FLUSH_BUDGET: usize = 64 << 10;

/// Everything a [`GsiServer`] is configured by.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`GsiServer::local_addr`]).
    pub addr: String,
    /// Most simultaneous client connections; excess connects are closed
    /// immediately after accept.
    pub max_connections: usize,
    /// Match rows per `MatchChunk` frame.
    pub chunk_rows: usize,
    /// The wait hint carried by `Busy` backpressure frames.
    pub retry_after_hint: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            chunk_rows: 512,
            retry_after_hint: Duration::from_millis(2),
        }
    }
}

impl ServerConfig {
    /// A small config for tests: ephemeral port, small chunks.
    pub fn for_tests() -> Self {
        Self {
            max_connections: 16,
            chunk_rows: 64,
            retry_after_hint: Duration::from_millis(1),
            ..Self::default()
        }
    }
}

/// What [`GsiServer::shutdown`] reports after the drain completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Responses delivered over the server's lifetime (success and typed
    /// error alike; `Busy` rejections excluded).
    pub served_total: u64,
    /// Connections that were live when the drain began.
    pub connections_drained: usize,
}

/// Per-connection state shared by its reader and its writer.
struct ConnShared {
    server: Arc<ServerShared>,
    stream: Mutex<TcpStream>,
    served: AtomicU64,
    /// Set once a failed send has closed the connection.
    failed: AtomicBool,
}

impl ConnShared {
    /// One socket write of whole frames under the connection's write
    /// lock. Errors are returned, not panicked: a vanished peer must never
    /// take the server down. A failed write (the peer is gone, or stalled
    /// past [`WRITE_DEADLINE`]) may have left half a frame on the wire, so
    /// it closes the connection before the lock is released: the reader
    /// sees the disconnect and every later send fails fast.
    fn write_frames(&self, bytes: &[u8]) -> io::Result<()> {
        let mut stream = self.stream.lock();
        // Counted first: a peer that has seen these bytes must also see
        // them in the next metrics export.
        self.server.socket_writes.inc();
        self.server.bytes_written.add(bytes.len() as u64);
        let written = stream.write_all(bytes);
        if written.is_err() {
            self.close_failed(&stream);
        }
        written
    }

    /// Close after a send that failed or was refused, counting the
    /// connection (not each later fast-failing send) once.
    fn close_failed(&self, stream: &TcpStream) {
        if !self.failed.swap(true, Ordering::Relaxed) {
            self.server.write_failures.inc();
        }
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Send one control-plane frame: one frame, one socket write.
    fn send(&self, request_id: u64, frame: &Frame) -> io::Result<()> {
        let mut bytes = Vec::new();
        if let Err(refused) =
            encode_frame_into(&mut bytes, &FrameHeader::new(request_id, ""), frame)
        {
            self.close_failed(&self.stream.lock());
            return Err(refused);
        }
        self.write_frames(&bytes)
    }
}

/// The connection as a [`ReplyWriter`]'s sink: every `write` is one
/// [`ConnShared::write_frames`] of everything it is handed.
impl Write for &ConnShared {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.write_frames(bytes).map(|()| bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct ServerShared {
    service: Arc<GsiService>,
    config: ServerConfig,
    conns: Mutex<Vec<std::sync::Weak<ConnShared>>>,
    /// Set when a drain starts: acceptor stops, submits are refused.
    draining: AtomicBool,
    /// Set at final teardown: readers exit at their next timeout tick.
    closed: AtomicBool,
    conn_count: AtomicUsize,
    served_total: AtomicU64,
    /// Submits acknowledged (or still being decided) whose answer has not
    /// been written yet; the drain waits for it to reach zero.
    unwritten: AtomicUsize,
    /// What the server's sockets have been handed, declared into the
    /// service's metrics registry at start.
    socket_writes: Counter,
    bytes_written: Counter,
    write_failures: Counter,
}

/// The network front-end over one [`GsiService`].
pub struct GsiServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    drained: bool,
}

impl GsiServer {
    /// Bind, spawn the thread complement, and start serving.
    pub fn start(service: Arc<GsiService>, config: ServerConfig) -> io::Result<GsiServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let registry = service.metrics();
        let socket_writes = registry.counter(
            "gsi_server_socket_writes_total",
            "Socket writes issued: one per control-plane frame or reply flush.",
        );
        let bytes_written = registry.counter(
            "gsi_server_bytes_written_total",
            "Bytes those socket writes were handed.",
        );
        let write_failures = registry.counter(
            "gsi_server_write_failures_total",
            "Connections closed by a failed, refused or write-deadline-expired send.",
        );
        let shared = Arc::new(ServerShared {
            service,
            config,
            conns: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            served_total: AtomicU64::new(0),
            unwritten: AtomicUsize::new(0),
            socket_writes,
            bytes_written,
            write_failures,
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("gsi-server-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener, &readers))?
        };

        Ok(GsiServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            readers,
            drained: false,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Per-tenant lane accounting (the scheduler's), for observability
    /// and tests.
    pub fn tenant_lanes(&self) -> Vec<LaneSnapshot> {
        self.shared.service.scheduler().lanes()
    }

    /// Responses delivered so far.
    pub fn served_total(&self) -> u64 {
        self.shared.served_total.load(Ordering::Relaxed)
    }

    /// Connection slots currently tracked, dead ones included (dead slots
    /// are pruned whenever a new connection registers). Observability
    /// hook; also lets tests prove churn does not leak slots.
    pub fn connection_slots(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Gracefully drain and stop: stop accepting, flush every
    /// acknowledged in-flight query, say goodbye, close.
    pub fn shutdown(mut self) -> DrainReport {
        self.drain()
    }

    fn drain(&mut self) -> DrainReport {
        if self.drained {
            return DrainReport {
                served_total: self.shared.served_total.load(Ordering::Relaxed),
                connections_drained: 0,
            };
        }
        self.drained = true;

        // Phase 1: stop the intake. The acceptor exits; readers answer
        // further submits with ShuttingDown.
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }

        // Phase 2: every acknowledged submit is answered. Each wait is
        // bounded: workers always deliver, and a writer gives a stalled
        // peer up after WRITE_DEADLINE.
        while self.shared.unwritten.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Phase 3: typed goodbye to every live connection, then close. The
        // readers are told to stop only afterwards: a reader that saw
        // `closed` on an idle tick would shut its socket before the goodbye.
        let conns: Vec<Arc<ConnShared>> = {
            let guard = self.shared.conns.lock();
            guard.iter().filter_map(|w| w.upgrade()).collect()
        };
        let connections_drained = conns.len();
        for conn in conns {
            let _ = conn.send(0, &Frame::Goodbye);
            let _ = conn.stream.lock().shutdown(Shutdown::Both);
        }
        self.shared.closed.store(true, Ordering::SeqCst);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.readers.lock());
        for h in handles {
            let _ = h.join();
        }

        DrainReport {
            served_total: self.shared.served_total.load(Ordering::Relaxed),
            connections_drained,
        }
    }
}

impl Drop for GsiServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn acceptor_loop(
    shared: &Arc<ServerShared>,
    listener: &TcpListener,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::SeqCst)
                    || shared.conn_count.load(Ordering::SeqCst) >= shared.config.max_connections
                {
                    // Over capacity (or too late): refuse by closing. The
                    // client sees EOF before any frame — distinct from a
                    // protocol error on an accepted connection.
                    drop(stream);
                    continue;
                }
                shared.conn_count.fetch_add(1, Ordering::SeqCst);
                let shared2 = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("gsi-server-conn".to_string())
                    .spawn(move || {
                        connection_loop(&shared2, stream);
                        shared2.conn_count.fetch_sub(1, Ordering::SeqCst);
                    });
                match spawned {
                    Ok(handle) => {
                        // Drop handles of readers that already exited so
                        // connection churn cannot grow this Vec forever;
                        // live handles are joined at drain time.
                        let mut guard = readers.lock();
                        guard.retain(|h| !h.is_finished());
                        guard.push(handle);
                    }
                    Err(_) => {
                        shared.conn_count.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// One connection's read loop: decode, route, answer. Owns the
/// connection's writer thread.
fn connection_loop(shared: &Arc<ServerShared>, stream: TcpStream) {
    // The read timeout is the reader's shutdown-poll interval. A timeout
    // is honored as an idle tick only *between* frames; once a frame has
    // started, `read_frame_polled` retries timeouts in place, so a frame
    // arriving across multiple TCP segments (large RegisterGraph bodies,
    // slow clients) can never desynchronize the framing.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    // A reply is written whole; nothing is gained by the kernel holding a
    // short segment back until the peer's (delayed) ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnShared {
        server: Arc::clone(shared),
        stream: Mutex::new(stream),
        served: AtomicU64::new(0),
        failed: AtomicBool::new(false),
    });
    // The outbound channel: the service's workers deliver this
    // connection's responses into `sink`, the writer streams them out.
    let (sink, outbound) = mpsc::channel::<Delivery>();
    let writer = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("gsi-server-writer".to_string())
            .spawn(move || writer_loop(&shared, &conn, outbound))
    };
    let Ok(writer) = writer else {
        return;
    };
    {
        // Dead slots (connections that have since closed) are pruned on
        // every insert so churn cannot grow the registry without bound.
        let mut guard = shared.conns.lock();
        guard.retain(|w| w.strong_count() > 0);
        guard.push(Arc::downgrade(&conn));
    }

    let mut reader = io::BufReader::new(read_half);
    let closed = || shared.closed.load(Ordering::SeqCst);
    loop {
        match read_frame_polled(&mut reader, &closed) {
            Ok(Some((header, frame))) => {
                if !handle_frame(shared, &conn, &sink, header, frame) {
                    break;
                }
            }
            Ok(None) => {
                // Idle tick: no frame in flight.
                if closed() {
                    break;
                }
            }
            Err(e) if e.is_disconnect() => break,
            Err(e) => {
                // Typed protocol error, then hang up: framing is lost, so
                // nothing further on this connection can be trusted.
                let error = ApiError::Protocol {
                    reason: e.to_string(),
                };
                let _ = conn.send(0, &Frame::Error { error });
                break;
            }
        }
    }
    // Responses still owed to a closed connection are abandoned: their
    // writes fail fast. The writer exits once the last job holding a
    // clone of the sink has delivered.
    let _ = conn.stream.lock().shutdown(Shutdown::Both);
    drop(sink);
    let _ = writer.join();
}

/// Handle one decoded frame; returns `false` when the connection should
/// close (client goodbye).
fn handle_frame(
    shared: &Arc<ServerShared>,
    conn: &Arc<ConnShared>,
    sink: &mpsc::Sender<Delivery>,
    header: FrameHeader,
    frame: Frame,
) -> bool {
    let rid = header.request_id;
    let is_draining = || shared.draining.load(Ordering::SeqCst);
    let shutting_down = Frame::Error {
        error: ApiError::ShuttingDown,
    };
    let (reply, keep_open) = match frame {
        Frame::Submit { request } => {
            // Counted before the drain flag is read, so a drain either
            // sees this submit or this submit sees the drain.
            shared.unwritten.fetch_add(1, Ordering::SeqCst);
            // The tenant rides in the frame header; every wire request is
            // accounted to it (or to the default tenant), never to the
            // quota-exempt in-process lane.
            let tenant = if header.tenant.is_empty() {
                DEFAULT_TENANT.to_string()
            } else {
                header.tenant
            };
            let request = request.with_tenant(tenant);
            let refusal = if is_draining() {
                shutting_down
            } else {
                match shared.service.scheduler().submit_to(request, rid, sink) {
                    // Acknowledged: the writer answers (and uncounts) it.
                    Ok(()) => return true,
                    Err(SubmitError::QueueFull { .. } | SubmitError::TenantQuota { .. }) => {
                        Frame::Busy {
                            retry_after_hint: shared.config.retry_after_hint,
                        }
                    }
                    Err(e) => Frame::Error { error: e.into() },
                }
            };
            let _ = conn.send(rid, &refusal);
            shared.unwritten.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        Frame::RegisterGraph { .. } | Frame::UpdateGraph { .. } if is_draining() => {
            (shutting_down, true)
        }
        Frame::RegisterGraph { name, graph } => {
            let reg = shared.service.register(&name, graph);
            let ack = Frame::RegisterAck {
                epoch: reg.entry.epoch(),
                displaced_epoch: reg.displaced.as_ref().map(|e| e.epoch()),
            };
            (ack, true)
        }
        Frame::UpdateGraph { name, batch } => {
            let reply = match shared.service.update_graph(&name, &batch) {
                Ok(up) => Frame::UpdateAck {
                    epoch: up.entry.epoch(),
                    displaced_epoch: up.displaced.epoch(),
                    applied_ops: batch.ops().len() as u64,
                },
                Err(e) => Frame::Error { error: e.into() },
            };
            (reply, true)
        }
        Frame::MetricsRequest { format } => {
            let body = shared.service.export_metrics(format);
            (Frame::MetricsReport { body }, true)
        }
        Frame::HealthRequest => {
            let draining = is_draining();
            let report = Frame::HealthReport {
                accepting: !draining,
                draining,
                graphs: shared.service.catalog().len() as u64,
                served: shared.served_total.load(Ordering::Relaxed),
            };
            (report, true)
        }
        Frame::Goodbye => {
            let ack = Frame::GoodbyeAck {
                served: conn.served.load(Ordering::Relaxed),
            };
            (ack, false)
        }
        // Server-to-client frames arriving at the server are a protocol
        // violation.
        other => {
            let error = ApiError::Protocol {
                reason: format!("unexpected client frame {}", other.kind_name()),
            };
            (Frame::Error { error }, false)
        }
    };
    let _ = conn.send(rid, &reply);
    keep_open
}

/// Stream this connection's responses out as the workers deliver them.
/// Ends when the reader and every in-flight job have dropped the sink.
fn writer_loop(
    shared: &Arc<ServerShared>,
    conn: &Arc<ConnShared>,
    outbound: mpsc::Receiver<Delivery>,
) {
    let mut reply = ReplyWriter::new(&**conn, shared.config.chunk_rows);
    for delivery in outbound {
        // Peer gone or reply refused: the work is still accounted.
        if reply
            .write_response(delivery.tag, &delivery.response)
            .is_err()
        {
            conn.close_failed(&conn.stream.lock());
        }
        shared.served_total.fetch_add(1, Ordering::Relaxed);
        conn.served.fetch_add(1, Ordering::Relaxed);
        // Written or abandoned: the tenant's in-flight slot is free.
        drop(delivery);
        shared.unwritten.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's reply encoder, generic over where the bytes go (a
/// socket in the server, anything `Write` in tests and simulators).
///
/// A reply's frames — `ResponseHeader`, every `MatchChunk`,
/// `ResponseDone` — are encoded back to back into one buffer that is
/// reused from reply to reply, and handed to the sink with a single
/// `write_all` whenever the buffer passes [`FLUSH_BUDGET`] and at the end
/// of the reply. Every `write_all` ends on a frame boundary, so whatever
/// else shares the sink interleaves between whole frames only.
pub struct ReplyWriter<W> {
    out: W,
    buf: Vec<u8>,
    chunk_rows: usize,
}

impl<W: Write> ReplyWriter<W> {
    /// A writer into `out` that puts `chunk_rows` match rows (at least
    /// one) in each `MatchChunk` frame.
    pub fn new(out: W, chunk_rows: usize) -> Self {
        Self {
            out,
            buf: Vec::new(),
            chunk_rows: chunk_rows.max(1),
        }
    }

    /// The sink.
    pub fn get_ref(&self) -> &W {
        &self.out
    }

    /// Write the whole reply to request `rid`: the streamed match table,
    /// or the typed error frame. An `Err` means the reply stopped short —
    /// the sink failed, or a frame past `MAX_FRAME_LEN` was refused — and
    /// the conversation cannot continue.
    pub fn write_response(&mut self, rid: u64, response: &QueryResponse) -> io::Result<()> {
        match &response.result {
            Ok(outcome) => self.write_matches(
                rid,
                &outcome.output.matches,
                outcome.epoch,
                outcome.completion,
                outcome.plan_cache_hit,
                outcome.latency,
            ),
            Err(e) => {
                let error = Frame::Error {
                    error: e.clone().into(),
                };
                self.buf.clear();
                encode_frame_into(&mut self.buf, &FrameHeader::new(rid, ""), &error)?;
                self.out.write_all(&self.buf)
            }
        }
    }

    /// Stream `matches` as the successful reply to request `rid`; the
    /// remaining arguments fill the `ResponseHeader`.
    pub fn write_matches(
        &mut self,
        rid: u64,
        matches: &Matches,
        epoch: u64,
        completion: Completion,
        plan_cache_hit: bool,
        latency: Duration,
    ) -> io::Result<()> {
        let header = FrameHeader::new(rid, "");
        // Query-vertex-indexed rows are read straight out of the table's
        // columns; no row is materialized on the way to the buffer.
        let cols = matches.columns_by_query_vertex();
        self.buf.clear();
        encode_frame_into(
            &mut self.buf,
            &header,
            &Frame::ResponseHeader {
                n_matches: matches.len() as u64,
                n_query_vertices: cols.len() as u32,
                epoch,
                completion,
                plan_cache_hit,
                latency_us: latency.as_micros() as u64,
            },
        )?;
        // A zero-width result (the engine rejects empty patterns with
        // EmptyQuery, so this is wire-level defensiveness) streams no
        // chunks: every match is the empty assignment, and the header
        // alone carries the count.
        if !cols.is_empty() {
            let mut row = 0usize;
            while row < matches.len() {
                let end = (row + self.chunk_rows).min(matches.len());
                encode_match_chunk_into(&mut self.buf, &header, &cols, row..end)?;
                row = end;
                if self.buf.len() >= FLUSH_BUDGET {
                    self.out.write_all(&self.buf)?;
                    self.buf.clear();
                }
            }
        }
        encode_frame_into(&mut self.buf, &header, &Frame::ResponseDone)?;
        self.out.write_all(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.max_connections > 0);
        assert!(c.chunk_rows > 0);
        let t = ServerConfig::for_tests();
        assert_eq!(t.addr, "127.0.0.1:0");
    }
}
