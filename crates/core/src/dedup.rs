//! Duplicate removal within a block — Algorithm 5 (§VI-B).
//!
//! When several rows of the intermediate table carry the same vertex `v` in
//! the join column (Fig. 9: every row's first element is `v0`), their warps
//! would all extract `N(v, l)`. Within one block, a single warp reads the
//! list into a shared input buffer and the others wait and reuse it: the
//! loads are charged once per *distinct* vertex per block.

use crate::load_balance::ChunkTask;
use gsi_graph::VertexId;

/// For each position `i` of `vs`, the index of the first occurrence of
/// `vs[i]` — Algorithm 5 lines 1-5 (`addr[i] = j`).
///
/// Quadratic over a block (≤ 32 warps), exactly like the shared-memory scan
/// the paper describes.
pub fn first_occurrences(vs: &[VertexId]) -> Vec<usize> {
    let mut addr = Vec::with_capacity(vs.len());
    for (i, &v) in vs.iter().enumerate() {
        let j = vs[..i].iter().position(|&w| w == v).unwrap_or(i);
        addr.push(j);
    }
    addr
}

/// For each task of a block, whether its warp *owns* its input buffer —
/// i.e. locates and streams `N(v', l)` itself — or reuses the shared-memory
/// copy staged by an earlier warp of the same block (Algorithm 5).
///
/// Only *whole-row* tasks share: a load-balance chunk covers part of a list,
/// so its warp must stream its own sub-range. With duplicate removal off,
/// every warp owns its input. Depends solely on the block's composition
/// (which the planner fixes), never on which worker executes it — the
/// property that keeps a many-thread join pool charge-exact.
pub fn block_input_owners(
    enabled: bool,
    block: &[ChunkTask],
    loads: &[usize],
    vs: &[VertexId],
) -> Vec<bool> {
    if !enabled {
        return vec![true; block.len()];
    }
    let addr = first_occurrences(vs);
    block
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let is_whole = task.is_whole(loads[task.row]);
            !(is_whole && addr[i] != i && block[addr[i]].is_whole(loads[block[addr[i]].row]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distinct() {
        assert_eq!(first_occurrences(&[1, 2, 3]), vec![0, 1, 2]);
    }

    #[test]
    fn all_same() {
        assert_eq!(first_occurrences(&[7, 7, 7, 7]), vec![0, 0, 0, 0]);
    }

    #[test]
    fn paper_fig9_pattern() {
        // Fig. 9: every row's first column is v0 — one read serves the block.
        let vs = vec![0u32; 32];
        let addr = first_occurrences(&vs);
        assert!(addr.iter().all(|&a| a == 0));
    }

    #[test]
    fn mixed() {
        assert_eq!(first_occurrences(&[5, 3, 5, 3, 9]), vec![0, 1, 0, 1, 4]);
    }

    #[test]
    fn empty() {
        assert!(first_occurrences(&[]).is_empty());
    }

    fn whole(row: usize, load: usize) -> ChunkTask {
        ChunkTask {
            row,
            range: 0..load,
        }
    }

    #[test]
    fn owners_disabled_all_own() {
        let block = vec![whole(0, 4), whole(1, 4)];
        assert_eq!(
            block_input_owners(false, &block, &[4, 4], &[7, 7]),
            vec![true, true]
        );
    }

    #[test]
    fn owners_share_whole_duplicates_only() {
        // Rows 0 and 1 join the same vertex; row 1's warp reuses row 0's
        // staged list. Row 2 is a *chunk* of a duplicate vertex: must own.
        let block = vec![
            whole(0, 4),
            whole(1, 4),
            ChunkTask {
                row: 2,
                range: 0..2,
            },
        ];
        let owners = block_input_owners(true, &block, &[4, 4, 5], &[7, 7, 7]);
        assert_eq!(owners, vec![true, false, true]);
    }
}
