//! The builder-style query request shared by both serving paths.

use crate::wire::{decode_graph, encode_graph, WireError, WireReader, WireWriter};
use gsi_graph::Graph;
use std::time::Duration;

/// The tenant a wire query is accounted to when its frame names none.
pub const DEFAULT_TENANT: &str = "default";

/// Sentinel for "no per-query deadline" in the wire encoding.
const NO_DEADLINE: u64 = u64::MAX;

/// A query submitted to the serving stack.
///
/// The same type is the in-process submission (`GsiService::submit`) and
/// the `Submit` frame payload. One wire caveat: the tenant id travels in
/// the **frame header** (so the server can route and apply quotas before
/// touching the payload), not in the payload this type encodes —
/// [`QueryRequest::decode`] therefore returns `tenant: None` and the
/// frame layer re-attaches the header's tenant via
/// [`QueryRequest::with_tenant`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Catalog name of the data graph to search.
    pub graph: String,
    /// The pattern to match.
    pub query: Graph,
    /// Per-query deadline (submit → response). `None` uses the service's
    /// default; `Some` overrides it.
    pub deadline: Option<Duration>,
    /// Tenant the query is accounted to for quotas and fair queueing.
    /// Over the wire, `None` means [`DEFAULT_TENANT`]; submitted in
    /// process, `None` is the embedding application itself, which shares
    /// the queue fairly but is bound by its global capacity alone.
    pub tenant: Option<String>,
}

impl QueryRequest {
    /// Request against `graph` with the service's default deadline and no
    /// tenant.
    pub fn new(graph: impl Into<String>, query: Graph) -> Self {
        Self {
            graph: graph.into(),
            query,
            deadline: None,
            tenant: None,
        }
    }

    /// Set a per-query deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Account the query to a tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The tenant this query is accounted to.
    pub fn tenant_or_default(&self) -> &str {
        self.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// Encode the payload: `graph str, deadline_us u64` (`u64::MAX` =
    /// service default), then the pattern via [`encode_graph`]. The tenant
    /// is intentionally omitted (see the type docs).
    pub fn encode(&self, w: &mut WireWriter) {
        w.str(&self.graph);
        w.u64(
            self.deadline
                .map_or(NO_DEADLINE, |d| (d.as_micros() as u64).min(NO_DEADLINE - 1)),
        );
        encode_graph(&self.query, w);
    }

    /// Decode a payload encoded by [`QueryRequest::encode`].
    pub fn decode(r: &mut WireReader<'_>) -> Result<QueryRequest, WireError> {
        let graph = r.str()?;
        let deadline_us = r.u64()?;
        let query = decode_graph(r)?;
        Ok(QueryRequest {
            graph,
            query,
            deadline: (deadline_us != NO_DEADLINE).then(|| Duration::from_micros(deadline_us)),
            tenant: None,
        })
    }
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

    #[test]
    fn builder_defaults_and_overrides() {
        let req = QueryRequest::new("g", pattern());
        assert_eq!(req.graph, "g");
        assert_eq!(req.deadline, None);
        assert_eq!(req.tenant_or_default(), DEFAULT_TENANT);

        let req = QueryRequest::new("g", pattern())
            .with_deadline(Duration::from_millis(5))
            .with_tenant("acme");
        assert_eq!(req.deadline, Some(Duration::from_millis(5)));
        assert_eq!(req.tenant_or_default(), "acme");
    }

    #[test]
    fn round_trips_without_tenant() {
        let req = QueryRequest::new("social", pattern())
            .with_deadline(Duration::from_micros(1234))
            .with_tenant("acme");
        let mut w = WireWriter::new();
        req.encode(&mut w);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        let back = QueryRequest::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.graph, "social");
        assert_eq!(back.deadline, Some(Duration::from_micros(1234)));
        assert_eq!(back.query.edges(), req.query.edges());
        // Tenant travels in the frame header, never in the payload.
        assert_eq!(back.tenant, None);
    }

    #[test]
    fn no_deadline_round_trips_as_none() {
        let req = QueryRequest::new("g", pattern());
        let mut w = WireWriter::new();
        req.encode(&mut w);
        let buf = w.into_vec();
        let back = QueryRequest::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back.deadline, None);
    }

    #[test]
    fn truncated_request_is_a_typed_error() {
        let req = QueryRequest::new("g", pattern());
        let mut w = WireWriter::new();
        req.encode(&mut w);
        let buf = w.into_vec();
        for cut in [0, 1, 3, buf.len() - 1] {
            assert!(QueryRequest::decode(&mut WireReader::new(&buf[..cut])).is_err());
        }
    }
}
