//! Canonical query-graph hashing: an isomorphism-invariant key per pattern.
//!
//! Two queries that differ only by a permutation of their vertex ids are the
//! *same pattern*. [`canonicalize`] computes a key that every relabeling of
//! a pattern shares, plus the permutation that maps the query into its
//! canonical labeling. The serving path does not use it: every served query
//! plans from its own candidate sets. The key is what a workload generator
//! dedupes a pattern pool by, so that each admitted pattern is its own
//! isomorphism class (the repository benchmark's pool does exactly this);
//! a unit test pins the keys of the fixture patterns.
//!
//! Algorithm: Weisfeiler–Leman color refinement over `(vertex label, degree,
//! incident edge labels)` seeds, followed by an exact branch-and-bound
//! search for the lexicographically minimal edge code among all orderings
//! consistent with the refined color classes. Query graphs are small (the
//! paper's workloads use ≤ ~16 vertices), so the exact search is cheap; a
//! step budget guards against adversarially symmetric patterns, falling
//! back to a refinement-only key (still isomorphism-invariant, but two
//! relabelings may then disagree on the permutation).

use gsi_graph::{Graph, VertexId};

/// The canonical identity of a query pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// Isomorphism-invariant key.
    pub key: u64,
    /// `perm[v]` is the canonical id of query vertex `v`.
    pub perm: Vec<VertexId>,
    /// Whether the exact canonical search completed within budget. When
    /// false, `perm` is deterministic but not canonical across relabelings.
    pub exact: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_seq(seed: u64, xs: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = fnv(FNV_OFFSET, seed);
    for x in xs {
        h = fnv(h, x);
    }
    h
}

/// One round of WL refinement; returns the new color of every vertex.
fn refine_round(g: &Graph, colors: &[u64]) -> Vec<u64> {
    (0..g.n_vertices())
        .map(|v| {
            let mut nbr: Vec<u64> = g
                .neighbors(v as VertexId)
                .iter()
                .map(|&(n, l)| fnv(fnv(FNV_OFFSET, l as u64), colors[n as usize]))
                .collect();
            nbr.sort_unstable();
            hash_seq(colors[v], nbr)
        })
        .collect()
}

fn count_classes(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Stable WL colors: refine until the partition stops splitting.
fn refined_colors(g: &Graph) -> Vec<u64> {
    let mut colors: Vec<u64> = (0..g.n_vertices())
        .map(|v| {
            let v = v as VertexId;
            let mut elabels: Vec<u64> = g.neighbors(v).iter().map(|&(_, l)| l as u64).collect();
            elabels.sort_unstable();
            let seed = fnv(fnv(FNV_OFFSET, g.vlabel(v) as u64), g.degree(v) as u64);
            hash_seq(seed, elabels)
        })
        .collect();
    let mut classes = count_classes(&colors);
    loop {
        let next = refine_round(g, &colors);
        let next_classes = count_classes(&next);
        if next_classes == classes {
            return colors;
        }
        colors = next;
        classes = next_classes;
    }
}

/// How the current search prefix compares to the incumbent best code.
#[derive(Clone, Copy, PartialEq)]
enum Cmp {
    /// Equal to the best prefix so far — keep comparing (and pruning).
    Tied,
    /// Strictly smaller than the best prefix — every completion wins.
    Better,
}

/// Exact-search state: build the minimal edge code position by position.
struct Search<'a> {
    g: &'a Graph,
    /// Refined color class of every vertex.
    class_of: Vec<usize>,
    /// Which class owns each position of an admissible ordering.
    class_at_pos: Vec<usize>,
    /// Best (minimal) full edge code found so far, one entry per position.
    best: Option<Vec<Vec<(usize, u64)>>>,
    best_order: Vec<VertexId>,
    /// Bumped on every `best` replacement, so callers can detect that their
    /// relative-comparison state went stale mid-loop.
    generation: u64,
    steps: usize,
    budget: usize,
}

impl Search<'_> {
    /// Extend `order` (placing vertices of each class in its position range)
    /// and compare the growing edge code against the best.
    fn go(
        &mut self,
        order: &mut Vec<VertexId>,
        placed: &mut [bool],
        code: &mut Vec<Vec<(usize, u64)>>,
        state: Cmp,
    ) {
        if self.steps >= self.budget {
            return;
        }
        self.steps += 1;
        let pos = order.len();
        if pos == self.class_of.len() {
            if state == Cmp::Better {
                self.best = Some(code.clone());
                self.best_order = order.clone();
                self.generation += 1;
            }
            return;
        }
        let cls = self.class_at_pos[pos];
        // Candidate vertices with their edge codes, minimal entries first so
        // the incumbent tightens quickly.
        let mut cands: Vec<(Vec<(usize, u64)>, VertexId)> = (0..self.class_of.len())
            .filter(|&v| !placed[v] && self.class_of[v] == cls)
            .map(|v| {
                let mut entry: Vec<(usize, u64)> = self
                    .g
                    .neighbors(v as VertexId)
                    .iter()
                    .filter_map(|&(n, l)| order.iter().position(|&o| o == n).map(|p| (p, l as u64)))
                    .collect();
                entry.sort_unstable();
                (entry, v as VertexId)
            })
            .collect();
        cands.sort_unstable();
        let mut state = state;
        for (entry, v) in cands {
            let child_state = match (&self.best, state) {
                (None, _) => Cmp::Better,
                (Some(_), Cmp::Better) => Cmp::Better,
                (Some(best), Cmp::Tied) => match entry.cmp(&best[pos]) {
                    std::cmp::Ordering::Less => Cmp::Better,
                    std::cmp::Ordering::Equal => Cmp::Tied,
                    std::cmp::Ordering::Greater => continue, // prune
                },
            };
            let gen_before = self.generation;
            order.push(v);
            placed[v as usize] = true;
            code.push(entry);
            self.go(order, placed, code, child_state);
            code.pop();
            placed[v as usize] = false;
            order.pop();
            if self.generation != gen_before {
                // `best` was replaced inside that subtree, so its code now
                // extends the current prefix: we are tied with it again.
                state = Cmp::Tied;
            }
        }
    }
}

/// Compute the canonical identity of `query`. See module docs.
pub fn canonicalize(query: &Graph) -> CanonicalQuery {
    let n = query.n_vertices();
    assert!(n > 0, "cannot canonicalize an empty query");
    let colors = refined_colors(query);

    // Classes ordered by color value (color values are invariants).
    let mut distinct: Vec<u64> = colors.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let class_of: Vec<usize> = colors
        .iter()
        // gsi-lint: allow(panic-freedom, reason = "distinct is the sorted-deduped copy of colors built two lines up, so every color is present by construction")
        .map(|c| distinct.binary_search(c).expect("color present"))
        .collect();
    let mut class_sizes = vec![0usize; distinct.len()];
    for &c in &class_of {
        class_sizes[c] += 1;
    }
    let mut class_at_pos = Vec::with_capacity(n);
    for (c, &size) in class_sizes.iter().enumerate() {
        class_at_pos.extend(std::iter::repeat_n(c, size));
    }

    let mut search = Search {
        g: query,
        class_of: class_of.clone(),
        class_at_pos,
        best: None,
        best_order: Vec::new(),
        generation: 0,
        steps: 0,
        budget: 50_000,
    };
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut code = Vec::with_capacity(n);
    search.go(&mut order, &mut placed, &mut code, Cmp::Tied);

    let exact = search.steps < search.budget && search.best.is_some();
    let (order, key) = if exact {
        let order = search.best_order.clone();
        // gsi-lint: allow(panic-freedom, reason = "`exact` is true only when `search.best.is_some()`, checked one line up")
        let code = search.best.expect("exact search found an ordering");
        // Canonical form: per-position (vertex label, class) + minimal edge
        // code. Hash it into the key.
        let mut h = fnv(FNV_OFFSET, n as u64);
        for (pos, &v) in order.iter().enumerate() {
            h = fnv(h, query.vlabel(v) as u64);
            h = fnv(h, code[pos].len() as u64);
            for &(p, l) in &code[pos] {
                h = fnv(h, p as u64);
                h = fnv(h, l);
            }
        }
        (order, h)
    } else {
        // Budget blown: deterministic fallback ordering (class, then id) and
        // an invariant-only key (color multiset). Two relabelings still get
        // equal keys, but possibly different permutations.
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_unstable_by_key(|&v| (class_of[v as usize], v));
        let mut sorted_colors = colors.clone();
        sorted_colors.sort_unstable();
        (order, hash_seq(n as u64, sorted_colors))
    };

    let mut perm = vec![0; n];
    for (canon_id, &v) in order.iter().enumerate() {
        perm[v as usize] = canon_id as VertexId;
    }
    CanonicalQuery { key, perm, exact }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsi_graph::GraphBuilder;

    /// Path u0 -a- u1 -b- u2 with labels 0,1,2.
    fn path() -> Graph {
        let mut b = GraphBuilder::new();
        let u0 = b.add_vertex(0);
        let u1 = b.add_vertex(1);
        let u2 = b.add_vertex(2);
        b.add_edge(u0, u1, 0);
        b.add_edge(u1, u2, 1);
        b.build()
    }

    /// The same path with vertex ids permuted: ids (2, 0, 1).
    fn path_relabeled() -> Graph {
        let mut b = GraphBuilder::new();
        let u1 = b.add_vertex(1); // id 0
        let u2 = b.add_vertex(2); // id 1
        let u0 = b.add_vertex(0); // id 2
        b.add_edge(u0, u1, 0);
        b.add_edge(u1, u2, 1);
        b.build()
    }

    #[test]
    fn relabeled_queries_share_key() {
        let a = canonicalize(&path());
        let b = canonicalize(&path_relabeled());
        assert!(a.exact && b.exact);
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn permutations_map_to_same_canonical_form() {
        let (g1, g2) = (path(), path_relabeled());
        let (c1, c2) = (canonicalize(&g1), canonicalize(&g2));
        // Map every edge of each graph into canonical space; the edge sets
        // must be identical.
        let canon_edges = |g: &Graph, c: &CanonicalQuery| {
            let mut es: Vec<(u32, u32, u32)> = g
                .edges()
                .iter()
                .map(|e| {
                    let (a, b) = (c.perm[e.u as usize], c.perm[e.v as usize]);
                    (a.min(b), a.max(b), e.label)
                })
                .collect();
            es.sort_unstable();
            es
        };
        assert_eq!(canon_edges(&g1, &c1), canon_edges(&g2, &c2));
    }

    /// The path with labels 0,1,2 closed into a triangle by a third edge.
    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        let u0 = b.add_vertex(0);
        let u1 = b.add_vertex(1);
        let u2 = b.add_vertex(2);
        b.add_edge(u0, u1, 0);
        b.add_edge(u1, u2, 1);
        b.add_edge(u0, u2, 0);
        b.build()
    }

    /// The path's shape with its second edge relabelled (1 → 2).
    fn path_relabeled_edge() -> Graph {
        let mut b = GraphBuilder::new();
        let u0 = b.add_vertex(0);
        let u1 = b.add_vertex(1);
        let u2 = b.add_vertex(2);
        b.add_edge(u0, u1, 0);
        b.add_edge(u1, u2, 2);
        b.build()
    }

    /// A 4-cycle with uniform labels, its edges added from vertex `rot`.
    fn four_cycle(rot: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs: Vec<u32> = (0..4).map(|_| b.add_vertex(7)).collect();
        for i in 0..4 {
            b.add_edge(vs[(i + rot) % 4], vs[(i + rot + 1) % 4], 3);
        }
        b.build()
    }

    #[test]
    fn different_patterns_get_different_keys() {
        let p = canonicalize(&path());
        // Same labels, different shape.
        assert_ne!(p.key, canonicalize(&triangle()).key);
        // Same shape, different edge label.
        assert_ne!(p.key, canonicalize(&path_relabeled_edge()).key);
    }

    #[test]
    fn symmetric_query_is_stable() {
        // Every vertex of the 4-cycle is equivalent.
        let keys: Vec<u64> = (0..4).map(|r| canonicalize(&four_cycle(r)).key).collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]));
    }

    /// The keys are what a pattern pool is deduplicated by, so they must
    /// not move: a changed hash changes which patterns a pool admits.
    #[test]
    fn keys_are_pinned() {
        let key = |g: &Graph| canonicalize(g).key;
        assert_eq!(key(&path()), 0x017d_c755_89b3_e004);
        assert_eq!(key(&path_relabeled()), 0x017d_c755_89b3_e004);
        assert_eq!(key(&triangle()), 0x3b3a_5b26_3564_c926);
        assert_eq!(key(&path_relabeled_edge()), 0xed69_2297_775a_4f67);
        assert_eq!(key(&four_cycle(0)), 0x1ff6_1a60_e36b_5001);
    }

    #[test]
    fn single_vertex_query() {
        let mut b = GraphBuilder::new();
        b.add_vertex(5);
        let c = canonicalize(&b.build());
        assert!(c.exact);
        assert_eq!(c.perm, vec![0]);
    }
}
