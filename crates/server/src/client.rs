//! A blocking client for the `gsi-server` wire protocol.
//!
//! One [`GsiClient`] owns one connection and issues one request at a
//! time (the protocol itself supports pipelining by request id; the load
//! harness gets concurrency by opening one client per in-flight stream).
//! Backpressure is first-class: a server `Busy` frame surfaces as
//! [`ClientError::Busy`] with the server's retry hint, distinct from
//! typed API failures ([`ClientError::Api`]).

use crate::frame::{read_frame, write_frame, Frame, FrameError, FrameHeader};
use gsi_api::{ApiError, Completion, QueryRequest};
use gsi_graph::{Graph, UpdateBatch};
use gsi_service::MetricFormat;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes the server closing mid-response).
    Io(io::Error),
    /// The server's bytes failed to frame or decode.
    Frame(FrameError),
    /// The server answered with a typed API error.
    Api(ApiError),
    /// Backpressure: a quota or admission queue rejected the request.
    Busy {
        /// The server's suggested wait before retrying.
        retry_after: Duration,
    },
    /// The server is draining: it sent a server-initiated `Goodbye`.
    ServerClosed,
    /// A frame arrived that the protocol does not allow at this point.
    Unexpected {
        /// The offending frame's kind name.
        kind: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Api(e) => write!(f, "server error: {e}"),
            ClientError::Busy { retry_after } => {
                write!(f, "server busy; retry after {retry_after:?}")
            }
            ClientError::ServerClosed => write!(f, "server said goodbye (draining)"),
            ClientError::Unexpected { kind } => write!(f, "unexpected frame {kind}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// The most cells the client reserves (or, for a zero-width reply, rows
/// it accepts) on the strength of a `ResponseHeader` alone. Everything
/// past it is allocated only as validated `MatchChunk` cells arrive, so a
/// forged match count cannot drive an allocation.
const MAX_UNVERIFIED_CELLS: u64 = 1 << 20;

/// A received match table: one flat row-major allocation instead of one
/// `Vec` per match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    width: usize,
    n_rows: usize,
    cells: Vec<u32>,
}

impl Rows {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Whether no match was received.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Query-vertex count — the length of every row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Match `i`, query-vertex indexed: `row(i)[u]` is the data vertex
    /// matched to query vertex `u`. Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[u32] {
        assert!(i < self.n_rows, "row {i} of {}", self.n_rows);
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Every match, in server streaming order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.n_rows).map(|i| self.row(i))
    }
}

/// A query result received over the wire.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// Every match, query-vertex indexed (`assignments.row(i)[u]` = data
    /// vertex matched to query vertex `u` in match `i`), in server
    /// streaming order.
    pub assignments: Rows,
    /// Whether the match set is complete or a typed partial.
    pub completion: Completion,
    /// Catalog epoch the query ran against.
    pub epoch: u64,
    /// Whether the join order came from the plan cache.
    pub plan_cache_hit: bool,
    /// Server-side end-to-end latency.
    pub server_latency: Duration,
}

impl RemoteOutcome {
    /// Assignments sorted — the same canonical representation as
    /// `gsi_core::Matches::canonical`, for equivalence checks against
    /// in-process results.
    pub fn canonical(&self) -> Vec<Vec<u32>> {
        let mut rows: Vec<Vec<u32>> = self.assignments.iter().map(<[u32]>::to_vec).collect();
        rows.sort_unstable();
        rows
    }
}

/// A registration acknowledged over the wire; mirrors
/// `gsi_service::Registration`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRegistration {
    /// Epoch of the freshly published entry.
    pub epoch: u64,
    /// Epoch the registration displaced, when the name was taken.
    pub displaced_epoch: Option<u64>,
}

/// An update acknowledged over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteUpdate {
    /// The newly current epoch.
    pub epoch: u64,
    /// The epoch it displaced.
    pub displaced_epoch: u64,
    /// Operations applied.
    pub applied_ops: u64,
}

/// A health probe's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteHealth {
    /// Whether the server is accepting new queries.
    pub accepting: bool,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Registered graph count.
    pub graphs: u64,
    /// Responses the server has delivered over its lifetime.
    pub served: u64,
}

/// A blocking connection to a `gsi-server`.
pub struct GsiClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    tenant: String,
    next_id: u64,
}

impl GsiClient {
    /// Connect as the default tenant.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<GsiClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(GsiClient {
            writer,
            reader,
            tenant: String::new(),
            next_id: 1,
        })
    }

    /// Account subsequent requests to `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The tenant id sent in frame headers (empty = default tenant).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    fn send(&mut self, frame: &Frame) -> Result<u64, ClientError> {
        let rid = self.next_id;
        self.next_id += 1;
        let header = FrameHeader {
            request_id: rid,
            tenant: self.tenant.clone(),
        };
        write_frame(&mut self.writer, &header, frame)?;
        Ok(rid)
    }

    /// Read the next frame addressed to `rid`, translating the protocol's
    /// cross-cutting frames (errors, backpressure, server goodbye) into
    /// typed client errors.
    fn recv(&mut self, rid: u64) -> Result<Frame, ClientError> {
        let (header, frame) = read_frame(&mut self.reader)?;
        match frame {
            // A server-initiated goodbye (request id 0) can interleave
            // with anything; it means no *further* requests will be
            // served — responses already owed arrive before it.
            Frame::Goodbye if header.request_id == 0 => Err(ClientError::ServerClosed),
            _ if header.request_id != rid => Err(ClientError::Unexpected {
                kind: "frame for a different request id",
            }),
            Frame::Error { error } => Err(ClientError::Api(error)),
            Frame::Busy { retry_after_hint } => Err(ClientError::Busy {
                retry_after: retry_after_hint,
            }),
            other => Ok(other),
        }
    }

    /// Register (or replace) a data graph.
    pub fn register(
        &mut self,
        name: &str,
        graph: &Graph,
    ) -> Result<RemoteRegistration, ClientError> {
        let rid = self.send(&Frame::RegisterGraph {
            name: name.to_string(),
            graph: graph.clone(),
        })?;
        match self.recv(rid)? {
            Frame::RegisterAck {
                epoch,
                displaced_epoch,
            } => Ok(RemoteRegistration {
                epoch,
                displaced_epoch,
            }),
            other => Err(ClientError::Unexpected {
                kind: other.kind_name(),
            }),
        }
    }

    /// Apply an update batch to a registered graph.
    pub fn update(&mut self, name: &str, batch: &UpdateBatch) -> Result<RemoteUpdate, ClientError> {
        let rid = self.send(&Frame::UpdateGraph {
            name: name.to_string(),
            batch: batch.clone(),
        })?;
        match self.recv(rid)? {
            Frame::UpdateAck {
                epoch,
                displaced_epoch,
                applied_ops,
            } => Ok(RemoteUpdate {
                epoch,
                displaced_epoch,
                applied_ops,
            }),
            other => Err(ClientError::Unexpected {
                kind: other.kind_name(),
            }),
        }
    }

    /// Submit a query and collect its streamed response.
    pub fn query(&mut self, request: QueryRequest) -> Result<RemoteOutcome, ClientError> {
        let rid = self.send(&Frame::Submit { request })?;
        let (n_matches, n_qv, epoch, completion, plan_cache_hit, latency_us) =
            match self.recv(rid)? {
                Frame::ResponseHeader {
                    n_matches,
                    n_query_vertices,
                    epoch,
                    completion,
                    plan_cache_hit,
                    latency_us,
                } => (
                    n_matches,
                    n_query_vertices,
                    epoch,
                    completion,
                    plan_cache_hit,
                    latency_us,
                ),
                other => {
                    return Err(ClientError::Unexpected {
                        kind: other.kind_name(),
                    })
                }
            };
        let width = n_qv as usize;
        // The header's count is the server's word, not a fact: reserve a
        // bounded amount and let validated chunks grow the rest.
        let reserve = n_matches.saturating_mul(n_qv as u64);
        let mut assignments = Rows {
            width,
            n_rows: 0,
            cells: Vec::with_capacity(reserve.min(MAX_UNVERIFIED_CELLS) as usize),
        };
        // A zero-width response streams no chunks (mirroring the server):
        // every match is the empty assignment and the header's count is
        // all there is — with no cells to check it against, accepted only
        // up to the unverified bound. The engine rejects empty patterns
        // upstream with EmptyQuery, so this is wire-level defensiveness,
        // not a normal service path.
        if width == 0 {
            assignments.n_rows = n_matches.min(MAX_UNVERIFIED_CELLS) as usize;
        }
        loop {
            match self.recv(rid)? {
                Frame::MatchChunk {
                    first_row,
                    n_query_vertices,
                    rows,
                } => {
                    if width == 0
                        || n_query_vertices != n_qv
                        || first_row != assignments.n_rows as u64
                    {
                        return Err(ClientError::Unexpected {
                            kind: "mis-sequenced match chunk",
                        });
                    }
                    // Whole rows only: the decoder rejected ragged chunks.
                    assignments.n_rows += rows.len() / width;
                    assignments.cells.extend_from_slice(&rows);
                }
                Frame::ResponseDone => break,
                other => {
                    return Err(ClientError::Unexpected {
                        kind: other.kind_name(),
                    })
                }
            }
        }
        if assignments.n_rows as u64 != n_matches {
            return Err(ClientError::Unexpected {
                kind: "match count mismatch",
            });
        }
        Ok(RemoteOutcome {
            assignments,
            completion,
            epoch,
            plan_cache_hit,
            server_latency: Duration::from_micros(latency_us),
        })
    }

    /// Fetch a rendered metrics export.
    pub fn metrics(&mut self, format: MetricFormat) -> Result<String, ClientError> {
        let rid = self.send(&Frame::MetricsRequest { format })?;
        match self.recv(rid)? {
            Frame::MetricsReport { body } => Ok(body),
            other => Err(ClientError::Unexpected {
                kind: other.kind_name(),
            }),
        }
    }

    /// Probe server health.
    pub fn health(&mut self) -> Result<RemoteHealth, ClientError> {
        let rid = self.send(&Frame::HealthRequest)?;
        match self.recv(rid)? {
            Frame::HealthReport {
                accepting,
                draining,
                graphs,
                served,
            } => Ok(RemoteHealth {
                accepting,
                draining,
                graphs,
                served,
            }),
            other => Err(ClientError::Unexpected {
                kind: other.kind_name(),
            }),
        }
    }

    /// End the conversation; returns how many query responses this
    /// connection was served (control-plane answers are not counted).
    pub fn goodbye(mut self) -> Result<u64, ClientError> {
        let rid = self.send(&Frame::Goodbye)?;
        match self.recv(rid)? {
            Frame::GoodbyeAck { served } => Ok(served),
            other => Err(ClientError::Unexpected {
                kind: other.kind_name(),
            }),
        }
    }
}
