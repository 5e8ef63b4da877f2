//! The intermediate result table `M` (Table I: "each row represents a
//! partial answer, each column corresponds to a query variable").
//!
//! **Host layout is columnar** (structure-of-arrays): one contiguous buffer
//! per query-variable column, so column extraction (the count kernel, the
//! link column of a join step) is a plain slice and the link kernel fills
//! output columns with fixed-width splat/copy loops instead of interleaving
//! one row at a time.
//!
//! One join pass's per-row buffers live in a [`RowBuffers`]: every row's
//! output back to back in row order in one compact array, with CSR offsets.
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

    /// Build directly from per-column buffers. All columns must have equal
    /// length.
    pub fn from_columns(cols: Vec<Vec<VertexId>>) -> Self {
        assert!(!cols.is_empty(), "a match table needs at least one column");
        let n_rows = cols[0].len();
        assert!(cols.iter().all(|c| c.len() == n_rows), "ragged column set");
        let table = Self { n_rows, cols };
        table.assert_rectangular("from_columns");
        table
    }

    /// `n_rows` rows of zeros in `n_cols` columns, allocated once: the link
    /// kernel's pre-sized output, filled in place through
    /// [`MatchTable::columns_mut`].
    pub fn zeroed(n_cols: usize, n_rows: usize) -> Self {
        assert!(n_cols > 0, "a match table needs at least one column");
        let cols = (0..n_cols).map(|_| vec![0; n_rows]).collect();
        Self { n_rows, cols }
    }

    /// Every column as one mutable slice of `n_rows` cells.
    pub fn columns_mut(&mut self) -> Vec<&mut [VertexId]> {
        self.cols.iter_mut().map(Vec::as_mut_slice).collect()
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
    /// the link kernel through [`MatchTable::row_write_transactions`]).
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

    /// Store transactions for `rows` consecutive output rows of `n_cols`
    /// words starting at row `start` (each row's span is summed separately,
    /// exactly as a per-row kernel would charge; the link kernel charges its
    /// output's shape before the output exists).
    pub fn row_write_transactions(gpu: &Gpu, n_cols: usize, start: usize, rows: usize) -> u64 {
        let stats = gpu.stats();
        (start..start + rows)
            .map(|i| stats.span_transactions(i * n_cols, n_cols, 4))
            .sum()
    }
}

/// One join pass's output: every row's buffer, back to back in row order,
/// in one compact array with `n_rows + 1` offsets (CSR) — row `r` is
/// `data[offsets[r]..offsets[r + 1]]`.
///
/// A pass computes each row whole, in row order, and appends it; the host
/// holds the rows' actual outputs only, never the device's upper-bound GBA
/// (which the ledger is still charged for). A pool of several workers
/// builds one part per contiguous row group and [`RowBuffers::concat`]s
/// the parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBuffers {
    data: Vec<VertexId>,
    offsets: Vec<usize>,
}

impl RowBuffers {
    /// No rows yet, with room for `n_rows` row ends.
    pub fn with_rows(n_rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_rows + 1);
        offsets.push(0);
        Self {
            data: Vec::new(),
            offsets,
        }
    }

    /// The buffer the open row appends to; [`RowBuffers::end_row`] closes it.
    pub fn tail(&mut self) -> &mut Vec<VertexId> {
        &mut self.data
    }

    /// Close the open row: everything appended since the last row end is
    /// its buffer.
    pub fn end_row(&mut self) {
        self.offsets.push(self.data.len());
    }

    /// Number of closed rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `r`'s buffer.
    #[inline]
    pub fn row(&self, r: usize) -> &[VertexId] {
        &self.data[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Every row's buffer length, in row order.
    pub fn row_lens(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The parts' rows, in part order, as one buffer. The first part's
    /// array is reused; the others are appended once.
    pub fn concat(parts: Vec<RowBuffers>) -> Self {
        let mut parts = parts.into_iter();
        let mut out = parts.next().unwrap_or_else(|| Self::with_rows(0));
        for part in parts {
            let base = out.data.len();
            out.data.extend_from_slice(&part.data);
            out.offsets
                .extend(part.offsets[1..].iter().map(|&o| o + base));
        }
        out.assert_csr("concat");
        out
    }

    /// debug-invariants: the offsets start at 0, never decrease, and end at
    /// the array's length. A pass that dropped or double-closed a row would
    /// shift every later row onto its neighbour's elements.
    #[cfg(feature = "debug-invariants")]
    fn assert_csr(&self, op: &str) {
        assert_eq!(
            self.offsets.first(),
            Some(&0),
            "debug-invariants: RowBuffers::{op} offsets must start at 0"
        );
        assert!(
            self.offsets.windows(2).all(|w| w[0] <= w[1]),
            "debug-invariants: RowBuffers::{op} left decreasing offsets"
        );
        assert_eq!(
            self.offsets.last(),
            Some(&self.data.len()),
            "debug-invariants: RowBuffers::{op} offsets must end at the buffer length"
        );
    }

    /// debug-invariants off: no check.
    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn assert_csr(&self, _op: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_gpu_sim::DeviceConfig;

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
    fn row_buffers_are_compact_and_concat_in_part_order() {
        let mut a = RowBuffers::with_rows(2);
        a.tail().extend([1, 2]);
        a.end_row();
        a.end_row(); // an empty row
        let mut b = RowBuffers::with_rows(1);
        b.tail().extend([7, 8, 9]);
        b.end_row();
        let all = RowBuffers::concat(vec![a, b]);
        assert_eq!(all.n_rows(), 3);
        assert_eq!(all.row(0), &[1, 2]);
        assert!(all.row(1).is_empty());
        assert_eq!(all.row(2), &[7, 8, 9]);
        assert_eq!(all.row_lens(), vec![2, 0, 3]);
        assert_eq!(all.data.len(), 5, "actual outputs only");
        assert_eq!(RowBuffers::concat(Vec::new()).n_rows(), 0);
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
        gpu.stats().gst_range(m.n_cols(), m.n_cols(), 4);
        assert!(gpu.stats().snapshot().gst_transactions >= 2);
    }

    #[test]
    fn bulk_row_write_charge_equals_per_row_charges() {
        let g1 = Gpu::new(DeviceConfig::test_device());
        for i in 3..9 {
            g1.stats().gst_range(i * 5, 5, 4);
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

    #[cfg(feature = "debug-invariants")]
    #[test]
    #[should_panic(
        expected = "debug-invariants: RowBuffers::concat offsets must end at the buffer length"
    )]
    fn sanitizer_catches_a_row_buffer_that_lost_its_end() {
        let mut a = RowBuffers::with_rows(1);
        a.tail().extend([1, 2, 3]);
        a.end_row();
        let mut b = RowBuffers::with_rows(2);
        b.tail().extend([4, 5]);
        b.end_row();
        // A row appended but never closed: its elements belong to no row.
        b.tail().push(6);
        RowBuffers::concat(vec![a, b]);
    }
}
