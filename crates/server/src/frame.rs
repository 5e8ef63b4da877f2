//! The length-prefixed, versioned frame layer.
//!
//! Every message on a `gsi-server` connection is one frame:
//!
//! ```text
//! [len u32] [magic "GSIW"] [version u16] [kind u8] [request_id u64] [tenant str] [payload …]
//! ```
//!
//! `len` counts every byte after the length word itself; the magic and
//! version let a server reject a mis-dialed or future-versioned peer with
//! a typed error before interpreting anything else; `request_id` is the
//! client-chosen correlation id echoed on every frame of the response;
//! the tenant id sits in the header — not the payload — so quota checks
//! and fair-queue routing never need to decode a payload first. All
//! payload encoding goes through the `gsi-api` wire codec: bounds-checked,
//! little-endian, panic-free.
//!
//! Malformed input at any layer (bad magic, unknown version, oversized or
//! truncated frame, unknown frame kind, payload that under- or over-runs
//! its length) yields a typed [`FrameError`]; the connection that sent it
//! is closed, and nothing panics.

use gsi_api::wire::{decode_graph, decode_update_batch, encode_graph, encode_update_batch};
use gsi_api::{ApiError, Completion, QueryRequest, WireError, WireReader, WireWriter};
use gsi_graph::{Graph, UpdateBatch};
use gsi_service::MetricFormat;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::time::Duration;

/// The four magic bytes every frame starts with (after the length word).
pub const MAGIC: [u8; 4] = *b"GSIW";
/// The protocol version this build speaks. A peer announcing any other
/// version is rejected with [`FrameError::BadVersion`].
pub const PROTOCOL_VERSION: u16 = 1;
/// Hard ceiling on one frame's length field: bounds the read buffer a
/// forged length can demand. Large graphs still fit (a 64 MiB frame holds
/// ~5.5M edges); anything bigger must be registered out of band.
pub const MAX_FRAME_LEN: usize = 64 << 20;
/// Smallest well-formed frame: magic + version + kind + request id +
/// empty tenant string.
pub const MIN_FRAME_LEN: usize = 4 + 2 + 1 + 8 + 2;

// Client → server frame kinds.
const K_SUBMIT: u8 = 0x01;
const K_REGISTER: u8 = 0x02;
const K_UPDATE: u8 = 0x03;
const K_METRICS: u8 = 0x04;
const K_HEALTH: u8 = 0x05;
const K_GOODBYE: u8 = 0x06;

// Server → client frame kinds (high bit set).
const K_RESPONSE_HEADER: u8 = 0x81;
const K_MATCH_CHUNK: u8 = 0x82;
const K_RESPONSE_DONE: u8 = 0x83;
const K_ERROR: u8 = 0x84;
const K_BUSY: u8 = 0x85;
const K_REGISTER_ACK: u8 = 0x86;
const K_UPDATE_ACK: u8 = 0x87;
const K_METRICS_REPORT: u8 = 0x88;
const K_HEALTH_REPORT: u8 = 0x89;
const K_GOODBYE_ACK: u8 = 0x8A;

/// Sentinel for "no displaced epoch" in [`Frame::RegisterAck`].
const NO_EPOCH: u64 = u64::MAX;

/// The per-frame envelope: correlation id plus tenant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameHeader {
    /// Client-chosen correlation id, echoed on every response frame.
    /// Server-initiated frames (the drain goodbye) use `0`.
    pub request_id: u64,
    /// Tenant the frame is accounted to. Empty means the default tenant.
    /// Meaningful on client frames only; servers echo an empty tenant.
    pub tenant: String,
}

impl FrameHeader {
    /// A header for `request_id` with the given tenant.
    pub fn new(request_id: u64, tenant: impl Into<String>) -> Self {
        Self {
            request_id,
            tenant: tenant.into(),
        }
    }
}

/// Every frame type the protocol defines, minus the envelope.
#[derive(Debug, Clone)]
pub enum Frame {
    // -- client → server ---------------------------------------------------
    /// Submit a query; answered by `ResponseHeader`/`MatchChunk`*/
    /// `ResponseDone`, or `Error`, or `Busy`.
    Submit {
        /// The query (the header's tenant overrides the payload's absent
        /// one; see `gsi_api::QueryRequest` docs).
        request: QueryRequest,
    },
    /// Register (or replace) a data graph; answered by `RegisterAck`.
    RegisterGraph {
        /// Catalog name to publish under.
        name: String,
        /// The data graph.
        graph: Graph,
    },
    /// Apply an update batch to a registered graph; answered by
    /// `UpdateAck` or `Error`.
    UpdateGraph {
        /// Catalog name of the graph to update.
        name: String,
        /// The mutations to apply as one epoch publication.
        batch: UpdateBatch,
    },
    /// Request a metrics export; answered by `MetricsReport`.
    MetricsRequest {
        /// Which exposition format to render.
        format: MetricFormat,
    },
    /// Request a health probe; answered by `HealthReport`.
    HealthRequest,
    /// Close the conversation. Client → server: "no more requests";
    /// answered by `GoodbyeAck`, then the server closes. Server → client
    /// (request id 0): "draining; no further requests will be accepted" —
    /// every already-acknowledged response has been flushed before it.
    Goodbye,

    // -- server → client ---------------------------------------------------
    /// First frame of a successful query response.
    ResponseHeader {
        /// Total number of matches that will be streamed.
        n_matches: u64,
        /// Query-vertex count — the width of every streamed row.
        n_query_vertices: u32,
        /// Catalog epoch the query pinned and ran against.
        epoch: u64,
        /// Whether the match set is complete or a typed partial.
        completion: Completion,
        /// Whether the join order came from the plan cache.
        plan_cache_hit: bool,
        /// Server-side end-to-end latency, microseconds.
        latency_us: u64,
    },
    /// One bounded slice of the match table. Rows are query-vertex
    /// indexed (`row[u]` = data vertex matched to query vertex `u`),
    /// flattened row-major.
    MatchChunk {
        /// Index of the first row in this chunk.
        first_row: u64,
        /// Row width (repeated here so a chunk is self-describing).
        n_query_vertices: u32,
        /// `n_rows × n_query_vertices` data-vertex ids, row-major.
        rows: Vec<u32>,
    },
    /// Terminates a streamed response.
    ResponseDone,
    /// The request failed with a typed API error.
    Error {
        /// Why.
        error: ApiError,
    },
    /// Backpressure: a tenant quota or the admission queue rejected the
    /// request. Retryable by contract.
    Busy {
        /// How long the client should wait before retrying.
        retry_after_hint: Duration,
    },
    /// Registration succeeded; mirrors `Registration { entry, displaced }`.
    RegisterAck {
        /// Epoch of the freshly published entry.
        epoch: u64,
        /// Epoch the registration displaced, when the name was taken.
        displaced_epoch: Option<u64>,
    },
    /// Update applied and published.
    UpdateAck {
        /// The newly current epoch.
        epoch: u64,
        /// The epoch the update displaced (equal to `epoch` for an empty
        /// batch, which republishes nothing).
        displaced_epoch: u64,
        /// Operations the batch carried.
        applied_ops: u64,
    },
    /// A rendered metrics export.
    MetricsReport {
        /// The exposition body (Prometheus text or JSON).
        body: String,
    },
    /// Liveness and drain state.
    HealthReport {
        /// Whether the server is accepting new queries.
        accepting: bool,
        /// Whether a drain is in progress.
        draining: bool,
        /// Registered graph count.
        graphs: u64,
        /// Queries served over this server's lifetime.
        served: u64,
    },
    /// Acknowledges a client `Goodbye`; the server closes after sending.
    GoodbyeAck {
        /// Requests this connection was served.
        served: u64,
    },
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Socket-level failure (includes mid-frame disconnects, which
    /// surface as `UnexpectedEof`).
    Io(io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// The length word is outside `[MIN_FRAME_LEN, MAX_FRAME_LEN]`.
    BadLength(usize),
    /// An *outbound* frame's encoded body exceeds [`MAX_FRAME_LEN`]. The
    /// peer would only ever answer such a frame with `BadLength` after the
    /// whole body crossed the network, so it is refused at send time.
    TooLarge(usize),
    /// The frame kind byte is not defined by this protocol version.
    UnknownKind(u8),
    /// The payload failed to decode (truncated, oversized, bad
    /// discriminant, trailing bytes).
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected {MAGIC:02x?})"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::BadLength(len) => write!(
                f,
                "frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
            ),
            FrameError::TooLarge(len) => write!(
                f,
                "outbound frame body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Wire(e) => write!(f, "payload decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl FrameError {
    /// Whether this is a normal end of conversation rather than a protocol
    /// violation: a clean close, or a socket-level tear-down.
    pub fn is_disconnect(&self) -> bool {
        matches!(self, FrameError::Closed | FrameError::Io(_))
    }
}

impl Frame {
    /// The frame's kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Submit { .. } => K_SUBMIT,
            Frame::RegisterGraph { .. } => K_REGISTER,
            Frame::UpdateGraph { .. } => K_UPDATE,
            Frame::MetricsRequest { .. } => K_METRICS,
            Frame::HealthRequest => K_HEALTH,
            Frame::Goodbye => K_GOODBYE,
            Frame::ResponseHeader { .. } => K_RESPONSE_HEADER,
            Frame::MatchChunk { .. } => K_MATCH_CHUNK,
            Frame::ResponseDone => K_RESPONSE_DONE,
            Frame::Error { .. } => K_ERROR,
            Frame::Busy { .. } => K_BUSY,
            Frame::RegisterAck { .. } => K_REGISTER_ACK,
            Frame::UpdateAck { .. } => K_UPDATE_ACK,
            Frame::MetricsReport { .. } => K_METRICS_REPORT,
            Frame::HealthReport { .. } => K_HEALTH_REPORT,
            Frame::GoodbyeAck { .. } => K_GOODBYE_ACK,
        }
    }

    /// A short stable name for logs and tests.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Submit { .. } => "Submit",
            Frame::RegisterGraph { .. } => "RegisterGraph",
            Frame::UpdateGraph { .. } => "UpdateGraph",
            Frame::MetricsRequest { .. } => "MetricsRequest",
            Frame::HealthRequest => "HealthRequest",
            Frame::Goodbye => "Goodbye",
            Frame::ResponseHeader { .. } => "ResponseHeader",
            Frame::MatchChunk { .. } => "MatchChunk",
            Frame::ResponseDone => "ResponseDone",
            Frame::Error { .. } => "Error",
            Frame::Busy { .. } => "Busy",
            Frame::RegisterAck { .. } => "RegisterAck",
            Frame::UpdateAck { .. } => "UpdateAck",
            Frame::MetricsReport { .. } => "MetricsReport",
            Frame::HealthReport { .. } => "HealthReport",
            Frame::GoodbyeAck { .. } => "GoodbyeAck",
        }
    }

    /// Encode the payload (everything after the tenant string).
    fn encode_payload(&self, w: &mut WireWriter) {
        match self {
            Frame::Submit { request } => request.encode(w),
            Frame::RegisterGraph { name, graph } => {
                w.str(name);
                encode_graph(graph, w);
            }
            Frame::UpdateGraph { name, batch } => {
                w.str(name);
                encode_update_batch(batch, w);
            }
            Frame::MetricsRequest { format } => {
                w.u8(match format {
                    MetricFormat::Prometheus => 0,
                    MetricFormat::Json => 1,
                });
            }
            Frame::HealthRequest | Frame::Goodbye | Frame::ResponseDone => {}
            Frame::ResponseHeader {
                n_matches,
                n_query_vertices,
                epoch,
                completion,
                plan_cache_hit,
                latency_us,
            } => {
                w.u64(*n_matches).u32(*n_query_vertices).u64(*epoch);
                completion.encode(w);
                w.u8(u8::from(*plan_cache_hit)).u64(*latency_us);
            }
            Frame::MatchChunk {
                first_row,
                n_query_vertices,
                rows,
            } => {
                // Already row-major: a one-column table of cells.
                let cells = 0..rows.len();
                encode_match_chunk(w, *first_row, *n_query_vertices, &[rows], cells);
            }
            Frame::Error { error } => error.encode(w),
            Frame::Busy { retry_after_hint } => {
                w.u64(retry_after_hint.as_micros() as u64);
            }
            Frame::RegisterAck {
                epoch,
                displaced_epoch,
            } => {
                w.u64(*epoch).u64(displaced_epoch.unwrap_or(NO_EPOCH));
            }
            Frame::UpdateAck {
                epoch,
                displaced_epoch,
                applied_ops,
            } => {
                w.u64(*epoch).u64(*displaced_epoch).u64(*applied_ops);
            }
            Frame::MetricsReport { body } => {
                w.blob(body.as_bytes());
            }
            Frame::HealthReport {
                accepting,
                draining,
                graphs,
                served,
            } => {
                w.u8(u8::from(*accepting))
                    .u8(u8::from(*draining))
                    .u64(*graphs)
                    .u64(*served);
            }
            Frame::GoodbyeAck { served } => {
                w.u64(*served);
            }
        }
    }

    /// Decode a payload for `kind`; the reader must end exactly at the
    /// payload's end.
    fn decode_payload(kind: u8, r: &mut WireReader<'_>) -> Result<Frame, FrameError> {
        let frame = match kind {
            K_SUBMIT => Frame::Submit {
                request: QueryRequest::decode(r)?,
            },
            K_REGISTER => Frame::RegisterGraph {
                name: r.str()?,
                graph: decode_graph(r)?,
            },
            K_UPDATE => Frame::UpdateGraph {
                name: r.str()?,
                batch: decode_update_batch(r)?,
            },
            K_METRICS => Frame::MetricsRequest {
                format: match r.u8()? {
                    0 => MetricFormat::Prometheus,
                    1 => MetricFormat::Json,
                    other => {
                        return Err(WireError::InvalidDiscriminant {
                            what: "metric format",
                            value: other as u64,
                        }
                        .into())
                    }
                },
            },
            K_HEALTH => Frame::HealthRequest,
            K_GOODBYE => Frame::Goodbye,
            K_RESPONSE_HEADER => Frame::ResponseHeader {
                n_matches: r.u64()?,
                n_query_vertices: r.u32()?,
                epoch: r.u64()?,
                completion: Completion::decode(r)?,
                plan_cache_hit: r.u8()? != 0,
                latency_us: r.u64()?,
            },
            K_MATCH_CHUNK => {
                let first_row = r.u64()?;
                let n_query_vertices = r.u32()?;
                let n = r.u32()? as usize;
                let mut rows = Vec::new();
                r.u32s_into(n, &mut rows)?;
                if n_query_vertices != 0 && !n.is_multiple_of(n_query_vertices as usize) {
                    return Err(WireError::InvalidDiscriminant {
                        what: "match-chunk cell count",
                        value: n as u64,
                    }
                    .into());
                }
                Frame::MatchChunk {
                    first_row,
                    n_query_vertices,
                    rows,
                }
            }
            K_RESPONSE_DONE => Frame::ResponseDone,
            K_ERROR => Frame::Error {
                error: ApiError::decode(r)?,
            },
            K_BUSY => Frame::Busy {
                retry_after_hint: Duration::from_micros(r.u64()?),
            },
            K_REGISTER_ACK => {
                let epoch = r.u64()?;
                let displaced = r.u64()?;
                Frame::RegisterAck {
                    epoch,
                    displaced_epoch: (displaced != NO_EPOCH).then_some(displaced),
                }
            }
            K_UPDATE_ACK => Frame::UpdateAck {
                epoch: r.u64()?,
                displaced_epoch: r.u64()?,
                applied_ops: r.u64()?,
            },
            K_METRICS_REPORT => Frame::MetricsReport {
                body: String::from_utf8(r.blob()?.to_vec()).map_err(|_| WireError::BadUtf8)?,
            },
            K_HEALTH_REPORT => Frame::HealthReport {
                accepting: r.u8()? != 0,
                draining: r.u8()? != 0,
                graphs: r.u64()?,
                served: r.u64()?,
            },
            K_GOODBYE_ACK => Frame::GoodbyeAck { served: r.u64()? },
            other => return Err(FrameError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// The `MatchChunk` payload: rows `rows` of the column slices `cols`,
/// gathered row-major. Both the frame enum's own encode and the server's
/// column gather ([`encode_match_chunk_into`]) end in this one loop.
fn encode_match_chunk(
    w: &mut WireWriter,
    first_row: u64,
    n_query_vertices: u32,
    cols: &[&[u32]],
    rows: Range<usize>,
) {
    w.u64(first_row).u32(n_query_vertices);
    w.u32((rows.len() * cols.len()) as u32);
    w.u32_rows(cols, rows);
}

/// Append one complete frame (length word included) to `out`, encoding
/// envelope and payload in place: the length word is reserved first and
/// patched once the body's size is known. Returns the body length — the
/// true size even when a >4 GiB body would have wrapped the `u32` word.
fn append_frame(
    out: &mut Vec<u8>,
    header: &FrameHeader,
    kind: u8,
    payload: impl FnOnce(&mut WireWriter),
) -> usize {
    let start = out.len();
    let mut w = WireWriter::from_vec(std::mem::take(out));
    w.u32(0).raw(&MAGIC).u16(PROTOCOL_VERSION).u8(kind);
    w.u64(header.request_id).str(&header.tenant);
    payload(&mut w);
    *out = w.into_vec();
    let body_len = out.len() - start - 4;
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    body_len
}

/// [`append_frame`] for bytes bound for a socket: a frame whose body
/// exceeds [`MAX_FRAME_LEN`] is refused — `out` is left as it was and the
/// error is `InvalidInput` wrapping [`FrameError::TooLarge`]. The receiver
/// would reject such a frame with `BadLength` anyway — but only after the
/// full body crossed the network.
fn append_sendable(
    out: &mut Vec<u8>,
    header: &FrameHeader,
    kind: u8,
    payload: impl FnOnce(&mut WireWriter),
) -> io::Result<()> {
    let start = out.len();
    let body_len = append_frame(out, header, kind, payload);
    if body_len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            FrameError::TooLarge(body_len),
        ));
    }
    Ok(())
}

/// Encode one complete frame (length word included) into a byte vector.
pub fn encode_frame(header: &FrameHeader, frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    append_frame(&mut out, header, frame.kind(), |w| frame.encode_payload(w));
    out
}

/// Append one complete frame to `out` — how a sender places several whole
/// frames in one socket write. Oversized frames are refused, leaving
/// `out` untouched (see [`write_frame`]).
pub fn encode_frame_into(out: &mut Vec<u8>, header: &FrameHeader, frame: &Frame) -> io::Result<()> {
    append_sendable(out, header, frame.kind(), |w| frame.encode_payload(w))
}

/// Append the `MatchChunk` frame carrying rows `rows` of a result table
/// to `out`, gathering its row-major cells straight from the table's
/// columns: `cols[u]` is the column of query vertex `u`
/// (`gsi_core::Matches::columns_by_query_vertex`). Byte-identical to
/// [`encode_frame_into`] on a `Frame::MatchChunk` holding the same rows,
/// without materializing them. Refuses oversized chunks likewise.
pub fn encode_match_chunk_into(
    out: &mut Vec<u8>,
    header: &FrameHeader,
    cols: &[&[u32]],
    rows: Range<usize>,
) -> io::Result<()> {
    append_sendable(out, header, K_MATCH_CHUNK, |w| {
        encode_match_chunk(w, rows.start as u64, cols.len() as u32, cols, rows)
    })
}

/// Decode one complete frame from `buf` (length word included).
pub fn decode_frame(buf: &[u8]) -> Result<(FrameHeader, Frame), FrameError> {
    let mut r = WireReader::new(buf);
    let len = r.u32()? as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(FrameError::BadLength(len));
    }
    if r.remaining() != len {
        return Err(WireError::Truncated {
            needed: len,
            have: r.remaining(),
        }
        .into());
    }
    decode_frame_body(&buf[4..])
}

/// Decode a frame body (everything after the length word).
fn decode_frame_body(body: &[u8]) -> Result<(FrameHeader, Frame), FrameError> {
    let mut r = WireReader::new(body);
    let mut magic = [0u8; 4];
    magic.copy_from_slice(r.take_bytes(4)?);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = r.u8()?;
    let request_id = r.u64()?;
    let tenant = r.str()?;
    let frame = Frame::decode_payload(kind, &mut r)?;
    Ok((FrameHeader { request_id, tenant }, frame))
}

/// Write one frame to a stream (a single `write_all`, so concurrent
/// writers serialized by a mutex can interleave whole frames only).
///
/// A frame whose encoded body exceeds [`MAX_FRAME_LEN`] is refused
/// before any byte is written: the error is `InvalidInput` wrapping
/// [`FrameError::TooLarge`].
pub fn write_frame(out: &mut impl Write, header: &FrameHeader, frame: &Frame) -> io::Result<()> {
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, header, frame)?;
    out.write_all(&bytes)?;
    out.flush()
}

/// Read one frame from a stream.
///
/// A clean EOF at the frame boundary is [`FrameError::Closed`]; EOF in the
/// middle of a frame is a mid-frame disconnect and surfaces as
/// [`FrameError::Io`] with `UnexpectedEof`.
///
/// This reader assumes a fully blocking stream. On a stream with a read
/// timeout, a timeout that fires mid-frame would discard the bytes
/// already consumed and desynchronize the framing — use
/// [`read_frame_polled`] there instead.
pub fn read_frame(input: &mut impl Read) -> Result<(FrameHeader, Frame), FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no next frame" from "frame cut off": read the first
    // byte of the length word separately.
    match input.read(&mut len_buf[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    input.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(FrameError::BadLength(len));
    }
    let mut body = vec![0u8; len];
    input.read_exact(&mut body)?;
    decode_frame_body(&body)
}

/// Whether an I/O error is a read-timeout poll tick rather than a real
/// failure (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_poll_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `read_exact` that survives read-timeout ticks: bytes already consumed
/// are kept and the read resumes where it left off, so a timeout firing
/// between a frame's TCP segments (a large body, a slow peer) can never
/// desynchronize the framing. `abort` is polled on every tick; once it
/// returns true the read gives up with `ConnectionAborted` — a
/// disconnect, not a protocol error.
fn read_exact_polled(
    input: &mut impl Read,
    mut buf: &mut [u8],
    abort: &dyn Fn() -> bool,
) -> Result<(), FrameError> {
    while !buf.is_empty() {
        match input.read(buf) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "disconnect mid-frame",
                )))
            }
            Ok(n) => {
                // `Read` guarantees n <= buf.len().
                let rest = buf;
                buf = &mut rest[n..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_tick(&e) => {
                if abort() {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "reader shut down mid-frame",
                    )));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame from a stream whose read timeout doubles as a poll
/// interval (the server's per-connection readers).
///
/// The first byte of the length word is the *only* idle point: a timeout
/// there means no frame has started and is reported as `Ok(None)` so the
/// caller can run its periodic checks. From the moment any byte of a
/// frame has been consumed, timeouts are retried in place (checking
/// `abort` on each tick) — partial frames are never dropped, so a
/// well-behaved but slow client cannot be killed with a bogus
/// `BadLength`/`BadMagic` from desynchronized framing.
pub fn read_frame_polled(
    input: &mut impl Read,
    abort: &dyn Fn() -> bool,
) -> Result<Option<(FrameHeader, Frame)>, FrameError> {
    let mut len_buf = [0u8; 4];
    loop {
        match input.read(&mut len_buf[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_tick(&e) => return Ok(None),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_exact_polled(input, &mut len_buf[1..], abort)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(FrameError::BadLength(len));
    }
    let mut body = vec![0u8; len];
    read_exact_polled(input, &mut body, abort)?;
    decode_frame_body(&body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_graph::GraphBuilder;

    fn pattern() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(1);
        let c = b.add_vertex(2);
        b.add_edge(a, c, 0);
        b.build()
    }

    fn sample_frames() -> Vec<Frame> {
        let mut batch = UpdateBatch::new();
        batch.insert_edge(0, 1, 2);
        vec![
            Frame::Submit {
                request: QueryRequest::new("g", pattern()).with_deadline(Duration::from_millis(50)),
            },
            Frame::RegisterGraph {
                name: "g".into(),
                graph: pattern(),
            },
            Frame::UpdateGraph {
                name: "g".into(),
                batch,
            },
            Frame::MetricsRequest {
                format: MetricFormat::Json,
            },
            Frame::HealthRequest,
            Frame::Goodbye,
            Frame::ResponseHeader {
                n_matches: 3,
                n_query_vertices: 2,
                epoch: 7,
                completion: Completion::Complete,
                plan_cache_hit: true,
                latency_us: 1234,
            },
            Frame::MatchChunk {
                first_row: 0,
                n_query_vertices: 2,
                rows: vec![0, 1, 0, 2, 1, 2],
            },
            Frame::ResponseDone,
            Frame::Error {
                error: ApiError::UnknownGraph {
                    name: "nope".into(),
                },
            },
            Frame::Busy {
                retry_after_hint: Duration::from_micros(1500),
            },
            Frame::RegisterAck {
                epoch: 3,
                displaced_epoch: Some(2),
            },
            Frame::RegisterAck {
                epoch: 1,
                displaced_epoch: None,
            },
            Frame::UpdateAck {
                epoch: 4,
                displaced_epoch: 3,
                applied_ops: 12,
            },
            Frame::MetricsReport {
                body: "gsi_service_queries_total 9\n".into(),
            },
            Frame::HealthReport {
                accepting: true,
                draining: false,
                graphs: 2,
                served: 99,
            },
            Frame::GoodbyeAck { served: 41 },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in sample_frames() {
            let header = FrameHeader::new(42, "acme");
            let bytes = encode_frame(&header, &frame);
            let (h, back) = decode_frame(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e}", frame.kind_name()));
            assert_eq!(h, header, "{}", frame.kind_name());
            assert_eq!(back.kind(), frame.kind());
            // Spot-check payload fidelity via a re-encode comparison.
            assert_eq!(
                encode_frame(&h, &back),
                bytes,
                "{} re-encode mismatch",
                frame.kind_name()
            );
        }
    }

    #[test]
    fn stream_io_round_trips_and_reports_clean_close() {
        let header = FrameHeader::new(7, "t");
        let mut buf = Vec::new();
        write_frame(&mut buf, &header, &Frame::HealthRequest).unwrap();
        write_frame(&mut buf, &header, &Frame::ResponseDone).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let (h1, f1) = read_frame(&mut cursor).unwrap();
        assert_eq!((h1.request_id, f1.kind()), (7, K_HEALTH));
        let (_, f2) = read_frame(&mut cursor).unwrap();
        assert_eq!(f2.kind(), K_RESPONSE_DONE);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn bad_magic_version_kind_and_length_are_typed() {
        let bytes = encode_frame(&FrameHeader::default(), &Frame::HealthRequest);

        let mut bad_magic = bytes.clone();
        bad_magic[4] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = bytes.clone();
        bad_version[8] = 9;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(FrameError::BadVersion(9))
        ));

        let mut bad_kind = bytes.clone();
        bad_kind[10] = 0x7F;
        assert!(matches!(
            decode_frame(&bad_kind),
            Err(FrameError::UnknownKind(0x7F))
        ));

        let mut bad_len = bytes.clone();
        bad_len[0..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bad_len),
            Err(FrameError::BadLength(_))
        ));
    }

    /// Worst-case segmentation: a "timeout" (WouldBlock) before every
    /// single byte. Any byte-dropping in the polled reader shows up as a
    /// decode failure here.
    struct DribbleReader {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.ready = false;
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn polled_read_survives_timeouts_mid_frame() {
        let header = FrameHeader::new(42, "acme");
        for frame in sample_frames() {
            let mut input = DribbleReader {
                data: encode_frame(&header, &frame),
                pos: 0,
                ready: false,
            };
            // The first tick lands before any byte: an idle report, not
            // an error. Every later tick lands mid-frame and must be
            // retried without losing consumed bytes.
            let mut idle_ticks = 0;
            let (h, back) = loop {
                match read_frame_polled(&mut input, &|| false) {
                    Ok(Some(out)) => break out,
                    Ok(None) => idle_ticks += 1,
                    Err(e) => panic!("{}: polled read failed: {e}", frame.kind_name()),
                }
            };
            assert_eq!(
                idle_ticks,
                1,
                "{}: only the pre-frame tick is idle",
                frame.kind_name()
            );
            assert_eq!(h, header, "{}", frame.kind_name());
            assert_eq!(
                encode_frame(&h, &back),
                encode_frame(&header, &frame),
                "{} survived re-encode",
                frame.kind_name()
            );
        }
    }

    #[test]
    fn polled_read_aborts_mid_frame_on_request() {
        let mut input = DribbleReader {
            data: encode_frame(&FrameHeader::new(1, "t"), &Frame::HealthRequest),
            pos: 0,
            ready: false,
        };
        // First call: the pre-frame tick.
        assert!(matches!(read_frame_polled(&mut input, &|| true), Ok(None)));
        // Second call consumes the first byte, then hits a tick with the
        // abort flag up: a disconnect-class error, not a protocol error.
        match read_frame_polled(&mut input, &|| true) {
            Err(e) => {
                assert!(e.is_disconnect(), "abort is a disconnect, got {e:?}");
            }
            other => panic!("expected mid-frame abort, got {other:?}"),
        }
    }

    #[test]
    fn oversized_outbound_frame_refused_at_send_time() {
        // The api-level graph/row caps admit payloads well past
        // MAX_FRAME_LEN (blobs and strings truncate, rows do not); a
        // MatchChunk with MAX_FRAME_LEN/4 cells busts the cap once the
        // envelope and counts are added.
        let frame = Frame::MatchChunk {
            first_row: 0,
            n_query_vertices: 1,
            rows: vec![0u32; MAX_FRAME_LEN / 4],
        };
        let mut out = Vec::new();
        let err = write_frame(&mut out, &FrameHeader::default(), &frame)
            .expect_err("oversized frame must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may reach the wire");
        assert!(
            err.to_string().contains("exceeds"),
            "typed TooLarge error surfaces: {err}"
        );
    }

    #[test]
    fn mid_frame_disconnect_is_an_io_error() {
        let bytes = encode_frame(&FrameHeader::new(1, "t"), &Frame::HealthRequest);
        let mut cursor = io::Cursor::new(&bytes[..bytes.len() - 3]);
        match read_frame(&mut cursor) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = encode_frame(&FrameHeader::new(1, ""), &Frame::ResponseDone);
        // Splice two extra payload bytes in and fix the length word.
        bytes.extend_from_slice(&[0, 0]);
        let new_len = (bytes.len() - 4) as u32;
        bytes[0..4].copy_from_slice(&new_len.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Wire(WireError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn match_chunk_rejects_ragged_rows() {
        // 3 cells with a declared width of 2 cannot be whole rows.
        let frame = Frame::MatchChunk {
            first_row: 0,
            n_query_vertices: 2,
            rows: vec![1, 2, 3],
        };
        let bytes = encode_frame(&FrameHeader::default(), &frame);
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Wire(WireError::InvalidDiscriminant { .. }))
        ));
    }
}
