//! Disconnected-query support (§II-A).
//!
//! "Without loss of generality, we assume Q is connected; otherwise, we can
//! regard each connected component of Q as a separate query and execute them
//! individually." This module implements exactly that: split the query into
//! components, run each through the engine, and combine the per-component
//! match sets into full assignments — a cross product filtered for
//! *injectivity across components* (two components may not reuse a data
//! vertex).

use crate::matches::Matches;
use gsi_graph::{Graph, GraphBuilder, VertexId};

/// One connected component of a query: the extracted subgraph plus the map
/// from component-local vertex ids back to the original query's ids.
#[derive(Debug, Clone)]
pub struct QueryComponent {
    /// The component as a standalone (connected) query graph.
    pub graph: Graph,
    /// `original[local]` = vertex id in the original query.
    pub original: Vec<VertexId>,
}

/// Split a query into connected components (singletons included).
pub fn split_components(query: &Graph) -> Vec<QueryComponent> {
    let n = query.n_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut n_comps = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = n_comps;
        n_comps += 1;
        let mut stack = vec![start as VertexId];
        comp[start] = id;
        while let Some(v) = stack.pop() {
            for &(w, _) in query.neighbors(v) {
                if comp[w as usize] == usize::MAX {
                    comp[w as usize] = id;
                    stack.push(w);
                }
            }
        }
    }

    // `local[v]` = v's id inside its own component.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); n_comps];
    let mut local: Vec<VertexId> = vec![0; n];
    for (v, &c) in comp.iter().enumerate() {
        local[v] = members[c].len() as VertexId;
        members[c].push(v as VertexId);
    }

    members
        .into_iter()
        .map(|original| {
            let mut b = GraphBuilder::with_capacity(original.len(), original.len());
            for &v in &original {
                b.add_vertex(query.vlabel(v));
            }
            for &v in &original {
                for &(w, l) in query.neighbors(v) {
                    if v < w {
                        b.add_edge(local[v as usize], local[w as usize], l);
                    }
                }
            }
            QueryComponent {
                graph: b.build(),
                original,
            }
        })
        .collect()
}

/// Combine per-component match sets into matches of the full query:
/// the cross product of component assignments, dropping combinations that
/// reuse a data vertex. `n_query_vertices` is the original query's size.
///
/// The product can be exponential in the number of components — exactly the
/// Cartesian blow-up the paper sidesteps by assuming connected queries —
/// so `limit` caps the output (`None` = unbounded).
pub fn combine_component_matches(
    components: &[QueryComponent],
    per_component: &[Matches],
    n_query_vertices: usize,
    limit: Option<usize>,
) -> Vec<Vec<VertexId>> {
    assert_eq!(components.len(), per_component.len());
    let mut acc: Vec<Vec<VertexId>> = vec![Vec::new()];
    let mut acc_assigned: Vec<Vec<VertexId>> = vec![vec![u32::MAX; n_query_vertices]];

    for (comp, matches) in components.iter().zip(per_component) {
        let mut next = Vec::new();
        let mut next_assigned = Vec::new();
        for (used, assigned) in acc.iter().zip(&acc_assigned) {
            for i in 0..matches.len() {
                let a = matches.assignment(i);
                // Injectivity across components.
                if a.iter().any(|dv| used.contains(dv)) {
                    continue;
                }
                let mut used2 = used.clone();
                used2.extend_from_slice(&a);
                let mut assigned2 = assigned.clone();
                for (local, &orig) in comp.original.iter().enumerate() {
                    assigned2[orig as usize] = a[local];
                }
                next.push(used2);
                next_assigned.push(assigned2);
                if let Some(cap) = limit {
                    if next.len() >= cap {
                        break;
                    }
                }
            }
            if let Some(cap) = limit {
                if next.len() >= cap {
                    break;
                }
            }
        }
        acc = next;
        acc_assigned = next_assigned;
        if acc.is_empty() {
            return Vec::new();
        }
    }

    acc_assigned.sort_unstable();
    acc_assigned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::MatchTable;

    fn two_component_query() -> Graph {
        let mut b = GraphBuilder::new();
        let u0 = b.add_vertex(0);
        let u1 = b.add_vertex(1);
        b.add_edge(u0, u1, 0);
        b.add_vertex(2); // isolated third vertex
        b.build()
    }

    #[test]
    fn split_finds_components() {
        let q = two_component_query();
        let comps = split_components(&q);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].original, vec![0, 1]);
        assert_eq!(comps[1].original, vec![2]);
        assert!(comps[0].graph.is_connected());
        assert_eq!(comps[0].graph.n_edges(), 1);
        assert_eq!(comps[1].graph.n_vertices(), 1);
    }

    #[test]
    fn split_preserves_labels_and_edges() {
        let q = two_component_query();
        let comps = split_components(&q);
        assert_eq!(comps[0].graph.vlabel(0), 0);
        assert_eq!(comps[0].graph.vlabel(1), 1);
        assert_eq!(comps[1].graph.vlabel(0), 2);
        assert!(comps[0].graph.has_edge(0, 1, 0));
    }

    #[test]
    fn connected_query_is_one_component() {
        let mut b = GraphBuilder::new();
        let u0 = b.add_vertex(0);
        let u1 = b.add_vertex(0);
        b.add_edge(u0, u1, 0);
        let comps = split_components(&b.build());
        assert_eq!(comps.len(), 1);
    }

    fn matches_of(order: Vec<u32>, rows: Vec<Vec<u32>>) -> Matches {
        let n = order.len();
        let mut t = MatchTable::new(n);
        for r in rows {
            t.push_row(&r);
        }
        Matches { order, table: t }
    }

    #[test]
    fn combine_enforces_cross_component_injectivity() {
        let q = two_component_query();
        let comps = split_components(&q);
        // Component 0 (u0,u1) matches (5,6) and (7,8); component 1 (u2)
        // matches 6 and 9. (5,6)+6 must be dropped.
        let m0 = matches_of(vec![0, 1], vec![vec![5, 6], vec![7, 8]]);
        let m1 = matches_of(vec![0], vec![vec![6], vec![9]]);
        let combined = combine_component_matches(&comps, &[m0, m1], 3, None);
        assert_eq!(combined, vec![vec![5, 6, 9], vec![7, 8, 6], vec![7, 8, 9]]);
    }

    #[test]
    fn combine_empty_component_is_empty() {
        let q = two_component_query();
        let comps = split_components(&q);
        let m0 = matches_of(vec![0, 1], vec![vec![5, 6]]);
        let m1 = Matches::empty(vec![0]);
        let combined = combine_component_matches(&comps, &[m0, m1], 3, None);
        assert!(combined.is_empty());
    }

    #[test]
    fn combine_respects_limit() {
        let q = two_component_query();
        let comps = split_components(&q);
        let m0 = matches_of(vec![0, 1], vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        let m1 = matches_of(vec![0], vec![vec![7], vec![8], vec![9]]);
        let combined = combine_component_matches(&comps, &[m0, m1], 3, Some(4));
        assert!(combined.len() <= 4);
        assert!(!combined.is_empty());
    }
}
