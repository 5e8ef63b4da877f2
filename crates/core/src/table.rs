//! The intermediate result table `M` (Table I: "each row represents a
//! partial answer, each column corresponds to a query variable").
//!
//! **Host layout is columnar** (structure-of-arrays): one contiguous buffer
//! per query-variable column, so column extraction (the count kernel, the
//! link column of a join step) is a plain slice and the link kernel fills
//! output columns with fixed-width splat/copy loops instead of interleaving
//! one row at a time.
//!
//! **Device accounting stays row-major.** The simulated table the ledger
//! charges for is the paper's: a warp reading row `i` touches
//! `⌈cols·4 / 128⌉` segments at word offset `i·cols`, and the link kernel
//! writes extended rows contiguously. Every `charge_*` method below keeps
//! that addressing, so the columnar refactor is invisible to the device
//! ledger — the fidelity contract the differential suites pin down.

use gsi_gpu_sim::Gpu;
use gsi_graph::VertexId;

/// A dense table of data-vertex ids, stored column-major on the host and
/// charged row-major on the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchTable {
    n_rows: usize,
    cols: Vec<Vec<VertexId>>,
}

impl MatchTable {
    /// An empty table with `n_cols` columns.
    pub fn new(n_cols: usize) -> Self {
        assert!(n_cols > 0, "a match table needs at least one column");
        Self {
            n_rows: 0,
            cols: vec![Vec::new(); n_cols],
        }
    }

    /// A single-column table seeded from a candidate list (Algorithm 2
    /// line 7: `M = C(u_c)`).
    pub fn from_candidates(cands: &[VertexId]) -> Self {
        Self {
            n_rows: cands.len(),
            cols: vec![cands.to_vec()],
        }
    }

    /// Build from raw row-major words (the layout external producers — the
    /// baselines' edge-join kernel — emit), transposing into columns.
    pub fn from_raw(n_cols: usize, data: Vec<VertexId>) -> Self {
        assert!(n_cols > 0);
        assert_eq!(data.len() % n_cols, 0, "ragged table");
        let n_rows = data.len() / n_cols;
        let mut cols = vec![Vec::with_capacity(n_rows); n_cols];
        for row in data.chunks_exact(n_cols) {
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        Self { n_rows, cols }
    }

    /// Build directly from per-column buffers (the columnar stitcher's
    /// output). All columns must have equal length.
    pub fn from_columns(cols: Vec<Vec<VertexId>>) -> Self {
        assert!(!cols.is_empty(), "a match table needs at least one column");
        let n_rows = cols[0].len();
        assert!(cols.iter().all(|c| c.len() == n_rows), "ragged column set");
        let table = Self { n_rows, cols };
        table.assert_rectangular("from_columns");
        table
    }

    /// Number of columns (matched query vertices).
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows (partial answers).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// One cell (row `i`, column `c`) — the columnar hot path: kernels that
    /// need a single column read it without touching the rest of the row.
    #[inline]
    pub fn cell(&self, i: usize, c: usize) -> VertexId {
        self.cols[c][i]
    }

    /// Column `c` as one contiguous slice — what the SoA layout buys.
    #[inline]
    pub fn column(&self, c: usize) -> &[VertexId] {
        &self.cols[c]
    }

    /// Row `i` gathered across the column buffers (host view; cold paths
    /// and result extraction — kernels use [`MatchTable::cell`] /
    /// [`MatchTable::column`]).
    pub fn row(&self, i: usize) -> Vec<VertexId> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Gather row `i` into a caller-owned scratch buffer (avoids the
    /// per-call allocation of [`MatchTable::row`] in per-task loops).
    pub fn row_into(&self, i: usize, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c[i]));
    }

    /// Append a row (host-side construction; device writes are charged by
    /// the link kernel through [`MatchTable::charge_row_write`]).
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert_eq!(row.len(), self.n_cols());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.n_rows += 1;
        self.assert_rectangular("push_row");
    }

    /// debug-invariants: every column must hold exactly `n_rows` entries
    /// after any row-level mutation. A ragged table silently corrupts every
    /// later row read (columnar addressing indexes all columns by the same
    /// row number).
    #[cfg(feature = "debug-invariants")]
    fn assert_rectangular(&self, op: &str) {
        for (c, col) in self.cols.iter().enumerate() {
            assert_eq!(
                col.len(),
                self.n_rows,
                "debug-invariants: MatchTable::{op} left column {c} with {} entries but n_rows = {}",
                col.len(),
                self.n_rows
            );
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn assert_rectangular(&self, _op: &str) {}

    /// Bytes of simulated global memory the table occupies.
    pub fn size_bytes(&self) -> usize {
        self.n_rows * self.n_cols() * 4
    }

    /// Charge a warp's read of row `i` (Algorithm 3 line 18: "read `m_i`
    /// into shared memory"). Row-major device addressing.
    pub fn charge_row_read(&self, gpu: &Gpu, i: usize) {
        gpu.stats().gld_range(i * self.n_cols(), self.n_cols(), 4);
    }

    /// Charge a warp's read of a single cell (row `i`, column `c`) — used by
    /// kernels that only need one column, e.g. the GBA count kernel.
    pub fn charge_cell_read(&self, gpu: &Gpu, i: usize, c: usize) {
        gpu.stats().gld_gather([i * self.n_cols() + c], 4);
    }

    /// Charge the store of one output row of `n_cols` words at row `i` of a
    /// table with this shape.
    pub fn charge_row_write(&self, gpu: &Gpu, i: usize) {
        gpu.stats().gst_range(i * self.n_cols(), self.n_cols(), 4);
    }

    /// Charge the store of one row of `n_cols` words at row `i` of a table of
    /// that width, without materializing the table (the link kernel charges
    /// its output's shape before the output exists).
    pub fn charge_write_at(gpu: &Gpu, n_cols: usize, i: usize) {
        gpu.stats().gst_range(i * n_cols, n_cols, 4);
    }

    /// Store transactions for `rows` consecutive output rows of `n_cols`
    /// words starting at row `start` — the bulk equivalent of calling
    /// [`MatchTable::charge_write_at`] once per row (each row's span is
    /// summed separately, exactly as the per-row kernel would charge).
    pub fn row_write_transactions(gpu: &Gpu, n_cols: usize, start: usize, rows: usize) -> u64 {
        let stats = gpu.stats();
        (start..start + rows)
            .map(|i| stats.span_transactions(i * n_cols, n_cols, 4))
            .sum()
    }
}

/// One keyed output segment produced by a single warp task.
///
/// The key is pass-specific: an edge pass uses `(row, offset-within-row)`,
/// the link pass `(output row start, rows-in-segment)`. Keys order segments
/// totally, so merging is independent of which worker produced which
/// segment — the property that makes a many-thread join pool
/// bit-identical to the serial simulation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Segment {
    /// Primary sort key (edge pass: row index; link pass: first output row).
    pub key_a: usize,
    /// Secondary key (edge pass: chunk start; link pass: rows in segment).
    pub key_b: usize,
    /// The task's output words (edge pass: the buffer chunk; link pass: a
    /// column-major `rows × n_cols` mini-table).
    pub data: Vec<VertexId>,
}

/// One worker's private, lock-free output buffer for a kernel launch.
///
/// Each join-pool worker owns exactly one shard and appends the
/// segments of the warp tasks it executed — no mutex, no per-chunk slot.
#[derive(Debug, Default)]
pub struct TableShard {
    segments: Vec<Segment>,
}

impl TableShard {
    /// Append one warp task's output.
    pub fn push(&mut self, key_a: usize, key_b: usize, data: Vec<VertexId>) {
        self.segments.push(Segment { key_a, key_b, data });
    }

    /// Number of segments held.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the shard holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// The sharded output of one kernel launch: one [`TableShard`] per worker.
///
/// This replaces the old per-chunk `Mutex<Option<…>>` slots — workers write
/// shard-locally during the launch, and the shards are stitched once at
/// iteration end.
#[derive(Debug, Default)]
pub struct TableShards {
    shards: Vec<TableShard>,
}

impl TableShards {
    /// Wrap the per-worker shards returned by a launch.
    pub fn from_shards(shards: Vec<TableShard>) -> Self {
        Self { shards }
    }

    /// Total segments across all shards.
    pub fn n_segments(&self) -> usize {
        self.shards.iter().map(|s| s.segments.len()).sum()
    }

    /// Drain every shard into one flat segment list (unordered).
    pub fn into_segments(self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.n_segments());
        for shard in self.shards {
            out.extend(shard.segments);
        }
        out
    }
}

/// Merge edge-pass segments (keyed `(row, chunk start)`) into per-row
/// buffers, in stream order. Deterministic regardless of the worker
/// interleaving that produced the segments. Multi-chunk rows reserve their
/// exact total length before the pieces are copied in.
pub fn segments_into_row_buffers(mut segments: Vec<Segment>, n_rows: usize) -> Vec<Vec<VertexId>> {
    segments.sort_unstable_by_key(|s| (s.key_a, s.key_b));
    let mut totals: Vec<usize> = vec![0; n_rows];
    for s in &segments {
        totals[s.key_a] += s.data.len();
    }
    let mut bufs: Vec<Vec<VertexId>> = vec![Vec::new(); n_rows];
    for seg in segments {
        let row = seg.key_a;
        if bufs[row].is_empty() && bufs[row].capacity() == 0 && seg.data.len() == totals[row] {
            // Single-chunk rows (the common case) move, not copy.
            bufs[row] = seg.data;
        } else {
            if bufs[row].capacity() == 0 {
                bufs[row].reserve_exact(totals[row]);
            }
            bufs[row].extend_from_slice(&seg.data);
        }
    }
    bufs
}

/// Stitch row-major link segments (keyed by flat word offset) into the
/// backing store of a new row-major buffer of `total_words` words.
///
/// Zero-copy when a single segment covers the whole output (a launch that
/// ran as one block); otherwise one ordered placement pass into an
/// exact-capacity buffer (no zero-fill). Segments must tile
/// `[0, total_words)` exactly — a kernel body that dropped or double-wrote
/// a region is a loud panic here, never a silently zero-filled match table.
pub fn stitch_segments(mut segments: Vec<Segment>, total_words: usize) -> Vec<VertexId> {
    let written: usize = segments.iter().map(|s| s.data.len()).sum();
    assert_eq!(
        written, total_words,
        "output segments must tile the table exactly"
    );
    if segments.len() == 1 && segments[0].key_a == 0 {
        return std::mem::take(&mut segments[0].data);
    }
    // Empty segments sort before a non-empty one at the same offset.
    segments.sort_unstable_by_key(|s| (s.key_a, s.data.len()));
    let mut data = Vec::with_capacity(total_words);
    for seg in segments {
        assert_eq!(
            seg.key_a,
            data.len(),
            "segment gap/overlap at word {}",
            data.len()
        );
        data.extend_from_slice(&seg.data);
    }
    data
}

/// Stitch the link pass's **columnar** segments into a new table.
///
/// Each segment is one task's `rows × n_cols` column-major mini-table
/// (`key_a` = first output row, `key_b` = row count, `data` = column 0's
/// `rows` words, then column 1's, …). Columns are pre-sized to
/// `total_rows` and filled by contiguous copies — the ordered placement
/// pass never touches a word twice. Segments must tile `[0, total_rows)`
/// exactly (same loud-failure guarantee as [`stitch_segments`]).
pub fn stitch_columns(mut segments: Vec<Segment>, n_cols: usize, total_rows: usize) -> MatchTable {
    let written: usize = segments.iter().map(|s| s.key_b).sum();
    assert_eq!(
        written, total_rows,
        "output segments must tile the table exactly"
    );
    // Empty segments sort before a non-empty one at the same row.
    segments.sort_unstable_by_key(|s| (s.key_a, s.key_b));
    let mut cols: Vec<Vec<VertexId>> = vec![Vec::with_capacity(total_rows); n_cols];
    let mut at = 0usize;
    for seg in segments {
        assert_eq!(seg.key_a, at, "segment gap/overlap at row {at}");
        let rows = seg.key_b;
        debug_assert_eq!(seg.data.len(), rows * n_cols, "ragged link segment");
        for (c, col) in cols.iter_mut().enumerate() {
            col.extend_from_slice(&seg.data[c * rows..(c + 1) * rows]);
        }
        at += rows;
    }
    MatchTable::from_columns(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_gpu_sim::DeviceConfig;

    fn seg(key_a: usize, key_b: usize, data: Vec<VertexId>) -> Segment {
        Segment { key_a, key_b, data }
    }

    #[test]
    fn seed_from_candidates() {
        let m = MatchTable::from_candidates(&[3, 5, 9]);
        assert_eq!(m.n_cols(), 1);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.row(1), &[5]);
    }

    #[test]
    fn push_and_read_rows() {
        let mut m = MatchTable::new(3);
        m.push_row(&[1, 2, 3]);
        m.push_row(&[4, 5, 6]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert_eq!(m.size_bytes(), 24);
    }

    #[test]
    fn columnar_accessors_agree_with_rows() {
        let m = MatchTable::from_raw(3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.column(0), &[1, 4]);
        assert_eq!(m.column(1), &[2, 5]);
        assert_eq!(m.column(2), &[3, 6]);
        assert_eq!(m.cell(1, 2), 6);
        let mut scratch = Vec::new();
        m.row_into(1, &mut scratch);
        assert_eq!(scratch, vec![4, 5, 6]);
    }

    #[test]
    fn from_raw_and_from_columns_agree() {
        let a = MatchTable::from_raw(2, vec![1, 10, 2, 20, 3, 30]);
        let b = MatchTable::from_columns(vec![vec![1, 2, 3], vec![10, 20, 30]]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_raw_rejected() {
        MatchTable::from_raw(3, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        MatchTable::from_columns(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn segments_merge_into_row_buffers_in_stream_order() {
        // Chunks arrive out of order (as from racing workers).
        let segs: Vec<Segment> = vec![
            seg(1, 2, vec![30, 40]),
            seg(0, 0, vec![1, 2]),
            seg(1, 0, vec![10, 20]),
            seg(2, 0, vec![]),
        ];
        let bufs = segments_into_row_buffers(segs, 4);
        assert_eq!(bufs[0], vec![1, 2]);
        assert_eq!(bufs[1], vec![10, 20, 30, 40]);
        assert!(bufs[2].is_empty());
        assert!(bufs[3].is_empty());
    }

    #[test]
    fn multi_chunk_rows_reserve_exact_capacity() {
        let segs: Vec<Segment> = vec![seg(0, 3, vec![7, 8]), seg(0, 0, vec![5, 6])];
        let bufs = segments_into_row_buffers(segs, 1);
        assert_eq!(bufs[0], vec![5, 6, 7, 8]);
        assert_eq!(bufs[0].capacity(), 4, "exact reservation, no regrowth");
    }

    #[test]
    fn stitch_single_covering_segment_is_moved() {
        let data: Vec<u32> = (0..12).collect();
        let ptr = data.as_ptr();
        let out = stitch_segments(vec![seg(0, 0, data)], 12);
        assert_eq!(out, (0..12).collect::<Vec<u32>>());
        assert_eq!(out.as_ptr(), ptr, "covering segment must not be copied");
    }

    #[test]
    fn stitch_places_scattered_segments() {
        let segs: Vec<Segment> = vec![seg(4, 0, vec![40, 50]), seg(0, 0, vec![0, 10, 20, 30])];
        assert_eq!(stitch_segments(segs, 6), vec![0, 10, 20, 30, 40, 50]);
        assert!(stitch_segments(Vec::new(), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "tile the table exactly")]
    fn stitch_rejects_dropped_segments() {
        stitch_segments(vec![seg(0, 0, vec![1, 2])], 4);
    }

    #[test]
    fn stitch_columns_reassembles_the_link_output() {
        // Two tasks of a 3-column link pass: rows 0-1 and row 2, each a
        // column-major mini-table.
        let segs = vec![
            seg(2, 1, vec![13, 23, 33]),
            seg(0, 2, vec![11, 12, 21, 22, 31, 32]),
        ];
        let m = stitch_columns(segs, 3, 3);
        assert_eq!(m.row(0), vec![11, 21, 31]);
        assert_eq!(m.row(1), vec![12, 22, 32]);
        assert_eq!(m.row(2), vec![13, 23, 33]);
        assert_eq!(m.column(0), &[11, 12, 13]);
        assert_eq!(m.column(0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "gap/overlap")]
    fn stitch_columns_rejects_gaps() {
        let segs = vec![seg(0, 1, vec![1, 2]), seg(2, 1, vec![3, 4])];
        stitch_columns(segs, 2, 2);
    }

    #[test]
    fn shards_flatten_to_segments() {
        let mut a = TableShard::default();
        a.push(0, 0, vec![1]);
        let mut b = TableShard::default();
        b.push(1, 0, vec![2]);
        b.push(2, 0, vec![3]);
        assert_eq!(a.len(), 1);
        assert!(!b.is_empty());
        let shards = TableShards::from_shards(vec![a, b]);
        assert_eq!(shards.n_segments(), 3);
        assert_eq!(shards.into_segments().len(), 3);
    }

    #[test]
    fn charges_scale_with_row_width() {
        let gpu = Gpu::new(DeviceConfig::test_device());
        let m = MatchTable::from_raw(40, (0..400).collect());
        gpu.reset_stats();
        m.charge_row_read(&gpu, 0);
        // 40 words = 160B from an aligned start: 2 transactions.
        assert_eq!(gpu.stats().snapshot().gld_transactions, 2);
        m.charge_cell_read(&gpu, 3, 5);
        assert_eq!(gpu.stats().snapshot().gld_transactions, 3);
        m.charge_row_write(&gpu, 1);
        assert!(gpu.stats().snapshot().gst_transactions >= 2);
    }

    #[test]
    fn bulk_row_write_charge_equals_per_row_charges() {
        let g1 = Gpu::new(DeviceConfig::test_device());
        for i in 3..9 {
            MatchTable::charge_write_at(&g1, 5, i);
        }
        let g2 = Gpu::new(DeviceConfig::test_device());
        let n = MatchTable::row_write_transactions(&g2, 5, 3, 6);
        assert_eq!(g1.stats().snapshot().gst_transactions, n);
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(expected = "debug-invariants: MatchTable::push_row left column 1")]
    fn sanitizer_catches_ragged_table() {
        let mut m = MatchTable::new(2);
        m.push_row(&[1, 2]);
        // Corrupt a column behind the public API's back — only the
        // sanitizer can see this.
        m.cols[1].pop();
        m.push_row(&[3, 4]);
    }
}
