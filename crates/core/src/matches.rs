//! Final query results: the match table plus the column → query-vertex map.

use crate::table::MatchTable;
use gsi_graph::{Graph, VertexId};

/// All matches of a query, with provenance.
#[derive(Debug, Clone)]
pub struct Matches {
    /// `order[c]` is the query vertex matched by column `c`.
    pub order: Vec<VertexId>,
    /// One row per match.
    pub table: MatchTable,
}

impl Matches {
    /// An empty result for a query with the given join order.
    pub fn empty(order: Vec<VertexId>) -> Self {
        let n = order.len().max(1);
        Self {
            order,
            table: MatchTable::new(n),
        }
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.table.n_rows()
    }

    /// Whether no match was found.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The table's columns paired with the query vertex each one matches
    /// — the one place the column ↔ query-vertex permutation is spelled
    /// out; every query-vertex-indexed view below is built from it. (A
    /// join that ran dry may leave a rowless table narrower than `order`;
    /// the columns it never added are skipped.)
    fn columns(&self) -> impl Iterator<Item = (usize, &[VertexId])> {
        self.order
            .iter()
            .take(self.table.n_cols())
            .enumerate()
            .map(|(c, &qv)| (qv as usize, self.table.column(c)))
    }

    /// The table's columns indexed by query vertex: `view[u][i]` is the
    /// data vertex matched to query vertex `u` in match `i`. Borrowed, so
    /// result consumers (the wire encoder, [`Matches::canonical`],
    /// [`Matches::verify`]) read rows in query-vertex order straight from
    /// the columnar table without materializing them.
    pub fn columns_by_query_vertex(&self) -> Vec<&[VertexId]> {
        let mut view: Vec<&[VertexId]> = vec![&[]; self.order.len()];
        for (qv, col) in self.columns() {
            view[qv] = col;
        }
        view
    }

    /// The assignment of match `i` in query-vertex order: `result[u]` is the
    /// data vertex matched to query vertex `u`.
    pub fn assignment(&self, i: usize) -> Vec<VertexId> {
        let mut by_qv = vec![0; self.order.len()];
        for (qv, col) in self.columns() {
            by_qv[qv] = col[i];
        }
        by_qv
    }

    /// All assignments, canonicalized (query-vertex indexed) and sorted —
    /// the representation used to compare engines for equality.
    pub fn canonical(&self) -> Vec<Vec<VertexId>> {
        let view = self.columns_by_query_vertex();
        let mut out: Vec<Vec<VertexId>> = (0..self.len())
            .map(|i| view.iter().map(|col| col[i]).collect())
            .collect();
        out.sort_unstable();
        out
    }

    /// Verify every match is a genuine subgraph-isomorphism embedding
    /// (Definition 2/3): injective, label-preserving on vertices, and every
    /// query edge maps to a data edge with the same label.
    pub fn verify(&self, data: &Graph, query: &Graph) -> Result<(), String> {
        let view = self.columns_by_query_vertex();
        let edges = query.edges();
        for i in 0..self.len() {
            // Injectivity (patterns are a handful of vertices: pairwise).
            let repeats = |u: usize| view[..u].iter().any(|col| col[i] == view[u][i]);
            if (1..view.len()).any(repeats) {
                let a = self.assignment(i);
                return Err(format!("match {i} is not injective: {a:?}"));
            }
            // Vertex labels.
            for u in 0..query.n_vertices() as VertexId {
                let v = view[u as usize][i];
                if query.vlabel(u) != data.vlabel(v) {
                    return Err(format!(
                        "match {i}: label mismatch u{u}→v{v} ({} vs {})",
                        query.vlabel(u),
                        data.vlabel(v)
                    ));
                }
            }
            // Edges.
            for e in &edges {
                let (du, dv) = (view[e.u as usize][i], view[e.v as usize][i]);
                if !data.has_edge(du, dv, e.label) {
                    return Err(format!(
                        "match {i}: missing data edge {du}–{dv} label {}",
                        e.label
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_graph::GraphBuilder;

    fn tiny() -> (Graph, Graph) {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(0);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(1);
        b.add_edge(v0, v1, 0);
        b.add_edge(v0, v2, 0);
        let data = b.build();
        let mut qb = GraphBuilder::new();
        let u0 = qb.add_vertex(0);
        let u1 = qb.add_vertex(1);
        qb.add_edge(u0, u1, 0);
        (data, qb.build())
    }

    #[test]
    fn assignment_respects_order_permutation() {
        let (_, _) = tiny();
        // Columns are [u1, u0]: row (v1, v0) must map u0→v0, u1→v1.
        let mut t = MatchTable::new(2);
        t.push_row(&[1, 0]);
        let m = Matches {
            order: vec![1, 0],
            table: t,
        };
        assert_eq!(m.assignment(0), vec![0, 1]);
        assert_eq!(m.columns_by_query_vertex(), vec![&[0][..], &[1][..]]);
    }

    #[test]
    fn canonical_sorts_rows() {
        let mut t = MatchTable::new(2);
        t.push_row(&[2, 0]);
        t.push_row(&[1, 0]);
        let m = Matches {
            order: vec![1, 0],
            table: t,
        };
        assert_eq!(m.canonical(), vec![vec![0, 1], vec![0, 2]]);
    }

    #[test]
    fn verify_accepts_true_embeddings() {
        let (data, query) = tiny();
        let mut t = MatchTable::new(2);
        t.push_row(&[0, 1]);
        t.push_row(&[0, 2]);
        let m = Matches {
            order: vec![0, 1],
            table: t,
        };
        assert!(m.verify(&data, &query).is_ok());
    }

    #[test]
    fn verify_rejects_label_and_edge_violations() {
        let (data, query) = tiny();
        // u0 (label 0) mapped to v1 (label 1): label violation.
        let mut t = MatchTable::new(2);
        t.push_row(&[1, 0]);
        let m = Matches {
            order: vec![0, 1],
            table: t,
        };
        assert!(m.verify(&data, &query).is_err());
        // Non-injective.
        let mut t = MatchTable::new(2);
        t.push_row(&[1, 1]);
        let m = Matches {
            order: vec![0, 1],
            table: t,
        };
        assert!(m.verify(&data, &query).is_err());
    }

    #[test]
    fn rowless_table_narrower_than_the_order_reads_as_empty() {
        // What a join that ran dry after one column leaves behind.
        let m = Matches {
            order: vec![2, 0, 1],
            table: MatchTable::new(1),
        };
        assert_eq!(m.columns_by_query_vertex(), vec![&[][..]; 3]);
        assert_eq!(m.canonical(), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn empty_matches() {
        let m = Matches::empty(vec![0, 1, 2]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.canonical(), Vec::<Vec<u32>>::new());
    }
}
