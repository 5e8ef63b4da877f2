//! # gsi-server — the network front-end
//!
//! Serves `gsi-service` over TCP with a length-prefixed, versioned binary
//! protocol (see `docs/PROTOCOL.md` and the [`frame`] module). The server
//! adds the multi-tenant serving contract the in-process API doesn't
//! need:
//!
//! * **Versioned framing** ([`frame`]) — magic + protocol version + frame
//!   kind + request id + tenant header on every message; malformed input
//!   yields a typed error and a closed connection, never a panic.
//! * **Tenant fair-queueing** — every `Submit` is accounted to its frame
//!   header's tenant and goes straight into the service scheduler's one
//!   queue (`gsi_service::TenantPolicy`): per-tenant bounded lanes with
//!   queue and in-flight quotas, popped in deficit-round-robin order
//!   weighted by pattern size, so one tenant's flood cannot starve
//!   another's trickle.
//! * **Backpressure** — the scheduler's refusals (queue full, tenant lane
//!   full) answer with `Busy { retry_after_hint }` frames instead of
//!   growing a backlog.
//! * **Streaming** — match tables return in bounded `MatchChunk` frames;
//!   a response is `ResponseHeader`, zero or more chunks, `ResponseDone`,
//!   encoded straight from the table's columns and written whole frames
//!   at a time, one socket write per [`server::FLUSH_BUDGET`]
//!   ([`server::ReplyWriter`]). Each connection has its own writer and a
//!   write deadline ([`server::WRITE_DEADLINE`]): a peer that stops
//!   reading is disconnected and costs nobody else anything.
//! * **Graceful drain** ([`GsiServer::shutdown`]) — stop accepting,
//!   flush every acknowledged query, send a typed goodbye, close. Zero
//!   acknowledged queries are dropped.
//! * **Observability over the wire** — `Metrics` frames render the
//!   service's registry, into which the server declares its own
//!   `gsi_server_*` egress counters when it starts (Prometheus text or
//!   JSON); `Health` reports accept/drain state.
//!
//! [`GsiClient`] is the matching blocking client; the repo benchmark's
//! `wire-*` workloads drive it under closed-loop and paced load.

pub mod client;
pub mod frame;
pub mod server;

/// The normative wire-format specification, compiled from
/// `docs/PROTOCOL.md`. Its embedded conformance block runs as a doc-test
/// (`cargo test --doc -p gsi-server`) that encodes, decodes, and
/// re-encodes one frame of every kind and pins the documented header
/// offsets — the spec cannot silently drift from the codec.
#[doc = include_str!("../../../docs/PROTOCOL.md")]
pub mod protocol_spec {}

pub use client::{
    ClientError, GsiClient, RemoteHealth, RemoteOutcome, RemoteRegistration, RemoteUpdate, Rows,
};
pub use frame::{Frame, FrameError, FrameHeader, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{DrainReport, GsiServer, ServerConfig};
