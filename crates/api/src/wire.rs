//! Little-endian wire codec primitives plus graph/update-batch payloads.
//!
//! Everything the serving stack puts on a socket goes through
//! [`WireWriter`] / [`WireReader`]: fixed-width integers are little-endian,
//! strings and byte blobs are length-prefixed (`u16` for strings, `u32`
//! for blobs), and every read is bounds-checked — a truncated or corrupt
//! buffer yields a typed [`WireError`], never a panic. The codec is
//! deliberately hand-rolled (no serde, matching the workspace's hermetic
//! style) and versioned at the *frame* layer (`gsi-server`), not here:
//! payload layouts only ever change together with a protocol-version bump.

use gsi_graph::{Graph, GraphBuilder, GraphOp, UpdateBatch};

/// Hard cap on length-prefixed strings (tenant ids, graph names, error
/// messages). Anything longer is a protocol violation, not a real name.
pub const MAX_WIRE_STRING: usize = 4096;

/// Hard cap on `u32`-length-prefixed byte blobs (metrics bodies, flight
/// recorder dumps) — large enough for any real export, small enough that a
/// forged length cannot drive a pre-allocation.
pub const MAX_WIRE_BLOB: usize = 32 << 20;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width field or counted payload.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes remaining in the buffer.
        have: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A counted field exceeded its documented bound.
    Oversized {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        len: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// A discriminant byte/word had no defined meaning.
    InvalidDiscriminant {
        /// What was being decoded.
        what: &'static str,
        /// The unexpected value.
        value: u64,
    },
    /// Decoding finished with unconsumed bytes (payload/frame mismatch).
    TrailingBytes {
        /// Bytes left over.
        left: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} byte(s), have {have}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Oversized { what, len, max } => {
                write!(f, "{what} length {len} exceeds the wire bound {max}")
            }
            WireError::InvalidDiscriminant { what, value } => {
                write!(f, "invalid {what} discriminant {value}")
            }
            WireError::TrailingBytes { left } => {
                write!(f, "{left} unconsumed byte(s) after decoding")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `buf`, keeping what it already holds (and
    /// its capacity: a connection encodes reply after reply into one
    /// buffer).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append rows `rows` of a columnar table as little-endian `u32`
    /// cells, row-major: cell `(i, u)` is `cols[u][rows.start + i]`. One
    /// reservation, then one strided pass per column — no row is
    /// materialized on the way. Panics if a column is shorter than
    /// `rows.end` (a ragged table is the caller's bug, like a slice index).
    /// A flat slice of cells is the one-column case: `u32_rows(&[cells],
    /// 0..cells.len())`.
    pub fn u32_rows(&mut self, cols: &[&[u32]], rows: std::ops::Range<usize>) -> &mut Self {
        let width = cols.len();
        if width == 0 {
            return self;
        }
        let start = self.buf.len();
        self.buf.resize(start + rows.len() * width * 4, 0);
        for (u, col) in cols.iter().enumerate() {
            let cells = self.buf[start + u * 4..].chunks_mut(width * 4);
            for (cell, v) in cells.zip(&col[rows.clone()]) {
                cell[..4].copy_from_slice(&v.to_le_bytes());
            }
        }
        self
    }

    /// Append a `u16`-length-prefixed UTF-8 string, truncated to
    /// [`MAX_WIRE_STRING`] bytes on a char boundary (encode never fails;
    /// names beyond the bound are cut, not rejected — the decoder enforces
    /// the same cap, so both sides agree).
    pub fn str(&mut self, s: &str) -> &mut Self {
        let mut end = s.len().min(MAX_WIRE_STRING);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let bytes = &s.as_bytes()[..end];
        self.u16(bytes.len() as u16);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Append raw bytes with no length prefix (the caller frames them).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Append a `u32`-length-prefixed byte blob, truncated at
    /// [`MAX_WIRE_BLOB`] (the decoder enforces the same cap).
    pub fn blob(&mut self, bytes: &[u8]) -> &mut Self {
        let end = bytes.len().min(MAX_WIRE_BLOB);
        self.u32(end as u32);
        self.buf.extend_from_slice(&bytes[..end]);
        self
    }
}

/// Bounds-checked decoder over a borrowed byte buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read exactly `n` raw bytes (no length prefix).
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read `n` little-endian `u32`s (no length prefix), appending them to
    /// `out`. The bytes are bounds-checked before `out` grows, so a forged
    /// count cannot drive an allocation.
    pub fn u32s_into(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), WireError> {
        let bytes = self.take(n.saturating_mul(4))?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        Ok(())
    }

    /// Read a `u16`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        if len > MAX_WIRE_STRING {
            return Err(WireError::Oversized {
                what: "string",
                len,
                max: MAX_WIRE_STRING,
            });
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(|s| s.to_string())
            .map_err(|_| WireError::BadUtf8)
    }

    /// Read a `u32`-length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_WIRE_BLOB {
            return Err(WireError::Oversized {
                what: "blob",
                len,
                max: MAX_WIRE_BLOB,
            });
        }
        self.take(len)
    }

    /// Assert the buffer is fully consumed (frame/payload length match).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes {
                left: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Graph payloads
// ---------------------------------------------------------------------------

/// Ceiling on wire-transported graph sizes: a decoder pre-allocates from
/// the declared counts, so they are bounded before any allocation happens.
pub const MAX_WIRE_VERTICES: usize = 1 << 26;
/// Ceiling on wire-transported edge counts (same pre-allocation concern).
pub const MAX_WIRE_EDGES: usize = 1 << 28;

/// Encode a labeled graph: `n_vertices u32, vlabels [u32], n_edges u32,
/// edges [(u u32, v u32, label u32)]`. Edges are the canonical `u < v`
/// enumeration, so encode → decode reproduces the same logical graph.
pub fn encode_graph(g: &Graph, w: &mut WireWriter) {
    w.u32(g.n_vertices() as u32);
    for v in 0..g.n_vertices() as u32 {
        w.u32(g.vlabel(v));
    }
    let edges = g.edges();
    w.u32(edges.len() as u32);
    for e in &edges {
        w.u32(e.u).u32(e.v).u32(e.label);
    }
}

/// Decode a graph encoded by [`encode_graph`].
pub fn decode_graph(r: &mut WireReader<'_>) -> Result<Graph, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_WIRE_VERTICES {
        return Err(WireError::Oversized {
            what: "graph vertex count",
            len: n,
            max: MAX_WIRE_VERTICES,
        });
    }
    // Bound the pre-allocation by what the buffer can actually hold.
    if r.remaining() < n * 4 {
        return Err(WireError::Truncated {
            needed: n * 4,
            have: r.remaining(),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, 0);
    for _ in 0..n {
        b.add_vertex(r.u32()?);
    }
    let m = r.u32()? as usize;
    if m > MAX_WIRE_EDGES {
        return Err(WireError::Oversized {
            what: "graph edge count",
            len: m,
            max: MAX_WIRE_EDGES,
        });
    }
    if r.remaining() < m * 12 {
        return Err(WireError::Truncated {
            needed: m * 12,
            have: r.remaining(),
        });
    }
    for _ in 0..m {
        let (u, v, label) = (r.u32()?, r.u32()?, r.u32()?);
        if u as usize >= n || v as usize >= n {
            return Err(WireError::InvalidDiscriminant {
                what: "edge endpoint",
                value: u.max(v) as u64,
            });
        }
        if u == v {
            return Err(WireError::InvalidDiscriminant {
                what: "self-loop edge",
                value: u as u64,
            });
        }
        b.add_edge(u, v, label);
    }
    Ok(b.build())
}

// ---------------------------------------------------------------------------
// Update-batch payloads
// ---------------------------------------------------------------------------

const OP_ADD_VERTEX: u8 = 1;
const OP_INSERT_EDGE: u8 = 2;
const OP_REMOVE_EDGE: u8 = 3;

/// Encode an update batch: `n_ops u32`, then per op a tag byte
/// (`1=AddVertex{label u32}`, `2=InsertEdge{u,v,label u32}`,
/// `3=RemoveEdge{u,v,label u32}`).
pub fn encode_update_batch(batch: &UpdateBatch, w: &mut WireWriter) {
    let ops = batch.ops();
    w.u32(ops.len() as u32);
    for op in ops {
        match *op {
            GraphOp::AddVertex { label } => {
                w.u8(OP_ADD_VERTEX).u32(label);
            }
            GraphOp::InsertEdge { u, v, label } => {
                w.u8(OP_INSERT_EDGE).u32(u).u32(v).u32(label);
            }
            GraphOp::RemoveEdge { u, v, label } => {
                w.u8(OP_REMOVE_EDGE).u32(u).u32(v).u32(label);
            }
        }
    }
}

/// Decode a batch encoded by [`encode_update_batch`].
pub fn decode_update_batch(r: &mut WireReader<'_>) -> Result<UpdateBatch, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_WIRE_EDGES {
        return Err(WireError::Oversized {
            what: "update-batch op count",
            len: n,
            max: MAX_WIRE_EDGES,
        });
    }
    // Cheapest op is 5 bytes; reject counts the buffer cannot hold.
    if r.remaining() < n * 5 {
        return Err(WireError::Truncated {
            needed: n * 5,
            have: r.remaining(),
        });
    }
    let mut batch = UpdateBatch::new();
    for _ in 0..n {
        match r.u8()? {
            OP_ADD_VERTEX => {
                batch.add_vertex(r.u32()?);
            }
            OP_INSERT_EDGE => {
                let (u, v, label) = (r.u32()?, r.u32()?, r.u32()?);
                batch.insert_edge(u, v, label);
            }
            OP_REMOVE_EDGE => {
                let (u, v, label) = (r.u32()?, r.u32()?, r.u32()?);
                batch.remove_edge(u, v, label);
            }
            other => {
                return Err(WireError::InvalidDiscriminant {
                    what: "graph op",
                    value: other as u64,
                })
            }
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = WireWriter::new();
        w.u8(7).u16(0xBEEF).u32(0xDEAD_BEEF).u64(u64::MAX).str("hi");
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "hi");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn bulk_u32_ops_match_the_scalar_encoding() {
        // Two columns, rows 1..3 gathered row-major, appended after a
        // prefix the writer was handed.
        let cols: [&[u32]; 2] = [&[10, 11, 12], &[20, 21, 22]];
        let mut w = WireWriter::from_vec(vec![0xAA]);
        w.u32_rows(&cols, 1..3).u32_rows(&[&[7, u32::MAX]], 0..2);
        let mut scalar = WireWriter::from_vec(vec![0xAA]);
        for v in [11, 21, 12, 22, 7, u32::MAX] {
            scalar.u32(v);
        }
        let buf = w.into_vec();
        assert_eq!(buf, scalar.into_vec());
        // Zero columns encode nothing.
        assert!(WireWriter::new().u32_rows(&[], 0..5).is_empty());

        let mut r = WireReader::new(&buf[1..]);
        let mut back = vec![99];
        r.u32s_into(6, &mut back).unwrap();
        assert_eq!(back, [99, 11, 21, 12, 22, 7, u32::MAX]);
        assert!(r.finish().is_ok());
        // A count the buffer cannot hold is typed, and grows nothing.
        let mut r = WireReader::new(&buf[1..]);
        assert!(matches!(
            r.u32s_into(usize::MAX, &mut back),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!(back.len(), 7);
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = WireWriter::new();
        w.u32(42);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf[..2]);
        assert_eq!(r.u32(), Err(WireError::Truncated { needed: 4, have: 2 }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let buf = [0u8; 3];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { left: 2 }));
    }

    #[test]
    fn string_cap_is_symmetric() {
        let long = "x".repeat(MAX_WIRE_STRING + 100);
        let mut w = WireWriter::new();
        w.str(&long);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.str().unwrap().len(), MAX_WIRE_STRING);

        // A forged over-cap length prefix is rejected.
        let mut w = WireWriter::new();
        w.u16((MAX_WIRE_STRING + 1) as u16);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.str(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn blob_round_trips_and_rejects_forged_length() {
        let mut w = WireWriter::new();
        w.blob(&[1, 2, 3]).u8(7);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.blob().unwrap(), &[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 7);

        let mut w = WireWriter::new();
        w.u32((MAX_WIRE_BLOB + 1) as u32);
        let buf = w.into_vec();
        assert!(matches!(
            WireReader::new(&buf).blob(),
            Err(WireError::Oversized { what: "blob", .. })
        ));
    }

    #[test]
    fn graph_round_trips() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(3);
        let v2 = b.add_vertex(3);
        b.add_edge(v0, v1, 1);
        b.add_edge(v1, v2, 0);
        let g = b.build();

        let mut w = WireWriter::new();
        encode_graph(&g, &mut w);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        let back = decode_graph(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.n_vertices(), g.n_vertices());
        assert_eq!(back.n_edges(), g.n_edges());
        assert_eq!(back.vlabels(), g.vlabels());
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn graph_decode_rejects_forged_counts_and_bad_endpoints() {
        // A count far past what the buffer holds must fail before allocating.
        let mut w = WireWriter::new();
        w.u32(1_000_000);
        let buf = w.into_vec();
        assert!(matches!(
            decode_graph(&mut WireReader::new(&buf)),
            Err(WireError::Truncated { .. })
        ));

        // An edge endpoint outside the declared vertex range is invalid.
        let mut w = WireWriter::new();
        w.u32(2).u32(0).u32(0); // 2 vertices, labels 0,0
        w.u32(1).u32(0).u32(9).u32(0); // edge 0-9
        let buf = w.into_vec();
        assert!(matches!(
            decode_graph(&mut WireReader::new(&buf)),
            Err(WireError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn update_batch_round_trips() {
        let mut batch = UpdateBatch::new();
        batch.add_vertex(5);
        batch.insert_edge(0, 3, 2);
        batch.remove_edge(1, 2, 0);
        let mut w = WireWriter::new();
        encode_update_batch(&batch, &mut w);
        let buf = w.into_vec();
        let mut r = WireReader::new(&buf);
        let back = decode_update_batch(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.ops(), batch.ops());
    }

    #[test]
    fn update_batch_decode_rejects_unknown_op() {
        let mut w = WireWriter::new();
        w.u32(1).u8(99).u32(0); // padded past the minimum-size precheck
        let buf = w.into_vec();
        assert!(matches!(
            decode_update_batch(&mut WireReader::new(&buf)),
            Err(WireError::InvalidDiscriminant {
                what: "graph op",
                value: 99
            })
        ));
    }
}
