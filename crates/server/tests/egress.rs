//! The reply path, taken apart: [`ReplyWriter`] driven against in-memory
//! sinks (what bytes it produces, in how many writes, ending where), and
//! those bytes fed to a real [`GsiClient`].
//!
//! The reference for the bytes is the frame enum's own codec over rows
//! built with `Matches::assignment` — the row-by-row path the writer
//! replaced; the reference for the decoded table is
//! `Matches::canonical`.

use gsi_api::{Completion, QueryRequest};
use gsi_core::table::MatchTable;
use gsi_core::Matches;
use gsi_graph::GraphBuilder;
use gsi_server::frame::{decode_frame, encode_frame, read_frame, Frame, FrameHeader};
use gsi_server::server::{ReplyWriter, FLUSH_BUDGET};
use gsi_server::{GsiClient, RemoteOutcome};
use gsi_service::{QueryError, QueryResponse};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

/// The first request id a fresh [`GsiClient`] uses.
const RID: u64 = 1;

/// A result table of `n_rows` random rows whose columns hold the query
/// vertices in a random order.
fn random_matches(width: usize, n_rows: usize, rng: &mut StdRng) -> Matches {
    let mut order: Vec<u32> = (0..width as u32).collect();
    for i in (1..width).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let cols = (0..width)
        .map(|_| {
            (0..n_rows)
                .map(|_| rng.random_range(0..=u32::MAX))
                .collect()
        })
        .collect();
    Matches {
        order,
        table: MatchTable::from_columns(cols),
    }
}

/// Stream `matches` as the reply to [`RID`] into `out`.
fn write_reply<W: Write>(out: W, chunk_rows: usize, matches: &Matches) -> (ReplyWriter<W>, bool) {
    let mut reply = ReplyWriter::new(out, chunk_rows);
    let sent = reply.write_matches(
        RID,
        matches,
        7,
        Completion::Complete,
        true,
        Duration::from_micros(1234),
    );
    (reply, sent.is_ok())
}

/// The same reply, frame by frame through the enum codec, rows
/// materialized with `assignment(i)`.
fn reference_bytes(chunk_rows: usize, matches: &Matches) -> Vec<u8> {
    let header = FrameHeader::new(RID, "");
    let width = matches.order.len() as u32;
    let mut bytes = encode_frame(
        &header,
        &Frame::ResponseHeader {
            n_matches: matches.len() as u64,
            n_query_vertices: width,
            epoch: 7,
            completion: Completion::Complete,
            plan_cache_hit: true,
            latency_us: 1234,
        },
    );
    for first in (0..matches.len()).step_by(chunk_rows) {
        let end = (first + chunk_rows).min(matches.len());
        let chunk = Frame::MatchChunk {
            first_row: first as u64,
            n_query_vertices: width,
            rows: (first..end).flat_map(|i| matches.assignment(i)).collect(),
        };
        bytes.extend(encode_frame(&header, &chunk));
    }
    bytes.extend(encode_frame(&header, &Frame::ResponseDone));
    bytes
}

/// Answer one client's one query with `reply` (bytes addressed to
/// [`RID`]) from a hand-rolled server, and return what the client made
/// of it.
fn client_decodes(reply: Vec<u8>) -> Result<RemoteOutcome, gsi_server::ClientError> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake_server = std::thread::spawn(move || {
        let (mut stream, _peer) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let (h, frame) = read_frame(&mut reader).expect("read submit");
        assert!(matches!(frame, Frame::Submit { .. }));
        assert_eq!(h.request_id, RID);
        stream.write_all(&reply).expect("write reply");
    });
    let mut pattern = GraphBuilder::new();
    pattern.add_vertex(0);
    let mut client = GsiClient::connect(addr).expect("connect");
    let outcome = client.query(QueryRequest::new("g", pattern.build()));
    fake_server.join().expect("fake server");
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Gathered chunk bytes ≡ the enum codec over `assignment(i)` rows,
    // and the client's flat rows ≡ `Matches::canonical()`, for every
    // width, column permutation and row count around a chunk boundary.
    #[test]
    fn gathered_reply_matches_row_by_row_encoding_and_decodes_canonically(
        seed in any::<u64>(),
        width in 1usize..=10,
        chunk_rows in 2usize..48,
        rows_kind in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_rows = match rows_kind {
            0 => 0,
            1 => 1,
            2 => chunk_rows - 1,
            3 => chunk_rows,
            4 => chunk_rows + 1,
            _ => rng.random_range(2 * chunk_rows..40 * chunk_rows),
        };
        let matches = random_matches(width, n_rows, &mut rng);

        let (reply, sent) = write_reply(Vec::new(), chunk_rows, &matches);
        prop_assert!(sent);
        let bytes = reply.get_ref().clone();
        prop_assert_eq!(&bytes, &reference_bytes(chunk_rows, &matches));

        let outcome = client_decodes(bytes).expect("client decodes the reply");
        prop_assert_eq!(outcome.assignments.len(), n_rows);
        prop_assert_eq!(outcome.assignments.width(), width);
        for (i, row) in outcome.assignments.iter().enumerate() {
            prop_assert_eq!(row, &matches.assignment(i)[..]);
        }
        prop_assert_eq!(outcome.canonical(), matches.canonical());
    }
}

/// Records every write it is handed; optionally fails from the
/// `fail_from`-th write on.
#[derive(Default)]
struct CountingSink {
    writes: Vec<Vec<u8>>,
    fail_from: Option<usize>,
}

impl Write for CountingSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.fail_from.is_some_and(|n| self.writes.len() >= n) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer went away"));
        }
        self.writes.push(bytes.to_vec());
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Split one write into its frames, asserting it holds whole frames only.
fn whole_frames(write: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < write.len() {
        assert!(pos + 4 <= write.len(), "write ends inside a length word");
        let len = u32::from_le_bytes(write[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let end = pos + 4 + len;
        assert!(end <= write.len(), "write ends inside a frame body");
        let (header, frame) = decode_frame(&write[pos..end]).expect("whole frame decodes");
        assert_eq!(header.request_id, RID);
        frames.push(frame);
        pos = end;
    }
    frames
}

#[test]
fn reply_within_budget_is_exactly_one_write() {
    let mut rng = StdRng::seed_from_u64(1);
    // A wire-light answer: 1 000 rows of 6 vertices, two chunks.
    let matches = random_matches(6, 1000, &mut rng);
    let (reply, sent) = write_reply(CountingSink::default(), 512, &matches);
    assert!(sent);
    let writes = &reply.get_ref().writes;
    assert_eq!(writes.len(), 1, "header, chunks and done leave together");
    assert!(writes[0].len() < FLUSH_BUDGET);
    let kinds: Vec<_> = whole_frames(&writes[0])
        .iter()
        .map(Frame::kind_name)
        .collect();
    assert_eq!(
        kinds,
        ["ResponseHeader", "MatchChunk", "MatchChunk", "ResponseDone"]
    );

    // The buffer is reused, not appended to: a second reply through the
    // same writer is again one write of the same bytes.
    let mut reply = reply;
    reply
        .write_matches(
            RID,
            &matches,
            7,
            Completion::Complete,
            true,
            Duration::from_micros(1234),
        )
        .expect("second reply");
    let writes = &reply.get_ref().writes;
    assert_eq!(writes.len(), 2);
    assert_eq!(writes[0], writes[1]);
}

#[test]
fn large_reply_is_one_write_per_budget_on_frame_boundaries() {
    let mut rng = StdRng::seed_from_u64(2);
    let (width, chunk_rows) = (5usize, 512usize);
    let matches = random_matches(width, 100_000, &mut rng);
    let (reply, sent) = write_reply(CountingSink::default(), chunk_rows, &matches);
    assert!(sent);
    let writes = &reply.get_ref().writes;
    let total: usize = writes.iter().map(Vec::len).sum();
    assert_eq!(total, reference_bytes(chunk_rows, &matches).len());

    // Every flush but the last has passed the budget by less than one
    // chunk frame, so there are at most ⌈bytes / budget⌉ of them, plus
    // possibly one trailing write for what the last flush left over.
    let chunk_frame = 64 + chunk_rows * width * 4;
    for write in &writes[..writes.len() - 1] {
        assert!((FLUSH_BUDGET..FLUSH_BUDGET + chunk_frame).contains(&write.len()));
    }
    assert!(writes.len() <= total.div_ceil(FLUSH_BUDGET) + 1);
    assert!(writes.len() >= total / (FLUSH_BUDGET + chunk_frame));

    // Whole frames only, in reply order, rows in sequence.
    let frames: Vec<Frame> = writes.iter().flat_map(|w| whole_frames(w)).collect();
    assert!(matches!(frames[0], Frame::ResponseHeader { .. }));
    assert!(matches!(frames[frames.len() - 1], Frame::ResponseDone));
    let mut next_row = 0u64;
    for frame in &frames[1..frames.len() - 1] {
        match frame {
            Frame::MatchChunk {
                first_row, rows, ..
            } => {
                assert_eq!(*first_row, next_row);
                next_row += (rows.len() / width) as u64;
            }
            other => panic!("unexpected {} mid-reply", other.kind_name()),
        }
    }
    assert_eq!(next_row, 100_000);
}

#[test]
fn failing_sink_stops_the_reply_without_panicking() {
    let mut rng = StdRng::seed_from_u64(3);
    let matches = random_matches(5, 100_000, &mut rng);
    let sink = CountingSink {
        fail_from: Some(2),
        ..CountingSink::default()
    };
    let (reply, sent) = write_reply(sink, 512, &matches);
    assert!(!sent, "the sink's failure is the reply's result");
    let writes = &reply.get_ref().writes;
    assert_eq!(writes.len(), 2, "nothing is attempted past the failure");
    for write in writes {
        whole_frames(write);
    }
}

#[test]
fn error_reply_is_one_frame_in_one_write() {
    let mut reply = ReplyWriter::new(CountingSink::default(), 512);
    let response = QueryResponse {
        graph: "g".to_string(),
        result: Err(QueryError::Internal {
            message: "boom".to_string(),
        }),
    };
    reply.write_response(RID, &response).expect("error reply");
    let writes = &reply.get_ref().writes;
    assert_eq!(writes.len(), 1);
    let frames = whole_frames(&writes[0]);
    assert!(matches!(
        frames[..],
        [Frame::Error {
            error: gsi_api::ApiError::Internal { .. }
        }]
    ));
}
