//! Shared test fixtures: small graphs used across this crate's unit tests.

use crate::builder::GraphBuilder;
use crate::graph::Graph;

/// The running example of the paper's Fig. 1 (data graph `G`).
///
/// Vertex labels: A=0 (v0), B=1 (v1..=v100), C=2 (v101..=v201). Edge labels:
/// a=0, b=1. v0 connects to every B vertex via `a` and to v201 via `b`; each
/// B vertex connects to "its own" C vertex and to v201 via `a`.
pub(crate) fn paper_example_data() -> Graph {
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(0);
    let bs: Vec<_> = (0..100).map(|_| b.add_vertex(1)).collect();
    let cs: Vec<_> = (0..100).map(|_| b.add_vertex(2)).collect();
    let v201 = b.add_vertex(2);
    for &vb in &bs {
        b.add_edge(v0, vb, 0);
    }
    b.add_edge(v0, v201, 1);
    for (i, &vb) in bs.iter().enumerate() {
        b.add_edge(vb, cs[i], 0);
        b.add_edge(vb, v201, 0);
    }
    b.build()
}

/// The paper's Fig. 1 query graph `Q`: u0(A) –a– u1(B), u0 –b– u2(C),
/// u1 –a– u2, u1 –a– u3(C).
pub(crate) fn paper_example_query() -> Graph {
    let mut b = GraphBuilder::new();
    let u0 = b.add_vertex(0);
    let u1 = b.add_vertex(1);
    let u2 = b.add_vertex(2);
    let u3 = b.add_vertex(2);
    b.add_edge(u0, u1, 0);
    b.add_edge(u0, u2, 1);
    b.add_edge(u1, u2, 0);
    b.add_edge(u1, u3, 0);
    b.build()
}

/// A small deterministic pseudo-random labeled graph for structure tests.
pub(crate) fn random_labeled(
    n: usize,
    m: usize,
    n_vlabels: u32,
    n_elabels: u32,
    seed: u64,
) -> Graph {
    // Tiny xorshift so the fixture does not depend on the `rand` crate here.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        let l = (next() % u64::from(n_vlabels)) as u32;
        b.add_vertex(l);
    }
    let mut added = 0;
    while added < m {
        let u = (next() % n as u64) as u32;
        let v = (next() % n as u64) as u32;
        if u == v {
            continue;
        }
        let l = (next() % u64::from(n_elabels)) as u32;
        b.add_edge(u, v, l);
        added += 1;
    }
    b.build()
}
