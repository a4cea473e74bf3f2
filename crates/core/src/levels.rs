//! The canonical LCP and the level assignment of Algorithm 1 (step 2).
//!
//! **The canonical LCP.** `LCP(v_i → v_j)` is the least-cost path with the
//! fewest hops, ties broken by the lexicographically least node sequence
//! read from `v_i` (DESIGN.md §2). With `R'` the `v_j`-rooted table, an
//! arc `v → w` is *tight* when continuing through `w` achieves `v`'s LCP
//! cost, and `hops(v)` is the tight-arc hop distance to `v_j`; the
//! canonical parent of `v` is its lowest-index tight neighbour one hop
//! closer. [`canonical_parents`] computes that tree for every node at
//! once, so every engine reports the same path on tied instances.
//!
//! **Levels.** Fix the LCP `P(v_i, v_j) = r_0 r_1 … r_s` as the tree path
//! to `v_j` in an `SPT(v_i)` that contains it. The *level* of a node `v_k`
//! is the index of the **last** LCP node on the tree path `v_i → v_k`:
//! removing `r_{level(k)}` disconnects `v_k` from the root inside the
//! tree. Levels drive everything in the fast algorithm: the paper's
//! Lemmas 1–3 say replacement paths avoiding `r_l` cross from the
//! `level < l` region to the `level ≥ l` region exactly once, and they
//! hold for any SPT containing the path, so the canonical path is grafted
//! into the source sweep's tree ([`levels_along`]).

use truthcast_graph::{Cost, NodeId, Spt};

use crate::detour::DetourModel;

/// Level marker for nodes outside `SPT(v_i)`'s tree (unreachable from the
/// source): they can appear on no path and are ignored everywhere.
pub const UNREACHED: u32 = u32::MAX;

/// Marker in [`PathLevels::pos_on_path`] for nodes off the LCP.
pub const OFF_PATH: u32 = u32::MAX;

/// The LCP, the per-node levels, and the path-position index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathLevels {
    /// The least-cost path `r_0 … r_s` (tree path of `SPT(v_i)` to `v_j`).
    pub path: Vec<NodeId>,
    /// `level[v]` as defined above; [`UNREACHED`] off the tree.
    pub level: Vec<u32>,
    /// `pos_on_path[v] = m` iff `v = r_m`; [`OFF_PATH`] otherwise.
    pub pos_on_path: Vec<u32>,
}

impl PathLevels {
    /// Number of hops `s` of the LCP.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }

    /// Whether `v` lies on the LCP.
    pub fn on_path(&self, v: NodeId) -> bool {
        self.pos_on_path[v.index()] != OFF_PATH
    }
}

/// Computes levels for the unicast `spt.root() → target`.
///
/// Returns `None` if `target` is not in the tree (unreachable).
pub fn compute_levels(spt: &Spt, target: NodeId) -> Option<PathLevels> {
    let n = spt.num_nodes();
    let path = spt.path_from_root(target)?;
    let mut pos_on_path = vec![OFF_PATH; n];
    for (m, &r) in path.iter().enumerate() {
        pos_on_path[r.index()] = m as u32;
    }
    let mut level = vec![UNREACHED; n];
    // Preorder guarantees parents are labelled before children.
    for v in spt.preorder() {
        level[v.index()] = if pos_on_path[v.index()] != OFF_PATH {
            pos_on_path[v.index()]
        } else {
            // Safe: v != root (root is on the path), so it has a parent.
            level[spt.parent(v).expect("non-root in preorder").index()]
        };
    }
    Some(PathLevels {
        path,
        level,
        pos_on_path,
    })
}

/// Overwrites `parent` with the canonical LCP tree toward `root` (module
/// docs) over the `root`-rooted inclusive table `dist`: one BFS over
/// tight arcs, `O(n + m)`. Each node keeps the lowest-index tight
/// neighbour seen at the level above it; unreached nodes and `root` get
/// `None`. Both models are symmetric, so an out-arc `w → v` costs what
/// `v → w` does.
pub(crate) fn canonical_parents<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    root: NodeId,
    parent: &mut Vec<Option<NodeId>>,
) {
    let n = m.num_nodes();
    parent.clear();
    parent.resize(n, None);
    // Every arc reads `lcp` at its far end; only the tight ones (about
    // one per node) go on to read and write `hops`.
    let lcp: Vec<Cost> = (0..n).map(|v| m.lcp_at(NodeId::new(v), dist)).collect();
    let mut hops = vec![u32::MAX; n];
    let mut queue = Vec::with_capacity(n);
    hops[root.index()] = 0;
    queue.push(root);
    let mut head = 0;
    while let Some(&w) = queue.get(head) {
        head += 1;
        let next = hops[w.index()] + 1;
        let dw = dist[w.index()];
        m.arcs_from(w, |v, arc| {
            // Tightness first: it fails on almost every arc, so the branch
            // predicts well; the hop comparison does not.
            if m.onward(arc, dw) != lcp[v.index()] || hops[v.index()] < next {
                return;
            }
            if hops[v.index()] == u32::MAX {
                hops[v.index()] = next;
                queue.push(v);
                parent[v.index()] = Some(w);
            } else if parent[v.index()].is_some_and(|p| w < p) {
                parent[v.index()] = Some(w);
            }
        });
    }
}

/// Walks the tree path `v → … → root` (source first).
pub(crate) fn tree_path(parent: &[Option<NodeId>], v: NodeId) -> Vec<NodeId> {
    let mut path = vec![v];
    let mut cur = v;
    while let Some(p) = parent[cur.index()] {
        path.push(p);
        cur = p;
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path
}

/// Levels for the unicast along `path` (source first), after grafting it
/// into the source sweep's tree `parent`. Every prefix of a least-cost
/// path is least-cost, so each grafted arc is tight and the result is
/// still a shortest-path tree from `path[0]`.
pub(crate) fn levels_along(parent: &mut [Option<NodeId>], path: &[NodeId]) -> PathLevels {
    for hop in path.windows(2) {
        parent[hop[1].index()] = Some(hop[0]);
    }
    let spt = Spt::from_parents(path[0], parent);
    compute_levels(&spt, path[path.len() - 1]).expect("the grafted path is in the tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use truthcast_graph::node_dijkstra::{node_dijkstra, NodeDijkstraOptions};
    use truthcast_graph::NodeWeightedGraph;

    /// Build SPT(0) of a small graph and compute levels toward a target.
    fn levels_of(pairs: &[(u32, u32)], costs: &[u64], target: u32) -> (PathLevels, Spt) {
        let g = NodeWeightedGraph::from_pairs_units(pairs, costs);
        let t = node_dijkstra(&g, NodeId(0), NodeDijkstraOptions::default());
        let spt = Spt::from_parents(NodeId(0), &t.parent);
        (compute_levels(&spt, NodeId(target)).unwrap(), spt)
    }

    #[test]
    fn path_nodes_level_equals_position() {
        // Path 0-1-2-3 plus a pendant 4 hanging off node 2.
        let (lv, _) = levels_of(&[(0, 1), (1, 2), (2, 3), (2, 4)], &[0, 1, 1, 0, 1], 3);
        assert_eq!(lv.path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(lv.level[0], 0);
        assert_eq!(lv.level[1], 1);
        assert_eq!(lv.level[2], 2);
        assert_eq!(lv.level[3], 3);
        // Node 4 hangs below r_2, so its level is 2.
        assert_eq!(lv.level[4], 2);
        assert_eq!(lv.hops(), 3);
        assert!(lv.on_path(NodeId(2)));
        assert!(!lv.on_path(NodeId(4)));
    }

    #[test]
    fn subtree_inherits_deepest_ancestor_level() {
        // 0-1-2 path; 3 hangs off 1; 4 hangs off 3 (level still 1).
        let (lv, _) = levels_of(&[(0, 1), (1, 2), (1, 3), (3, 4)], &[0, 1, 0, 5, 5], 2);
        assert_eq!(lv.level[3], 1);
        assert_eq!(lv.level[4], 1);
    }

    #[test]
    fn nodes_off_tree_are_unreached() {
        // Node 3 is isolated.
        let (lv, _) = levels_of(&[(0, 1), (1, 2)], &[0, 1, 0, 9], 2);
        assert_eq!(lv.level[3], UNREACHED);
    }

    #[test]
    fn unreachable_target_yields_none() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0, 0]);
        let t = node_dijkstra(&g, NodeId(0), NodeDijkstraOptions::default());
        let spt = Spt::from_parents(NodeId(0), &t.parent);
        assert_eq!(compute_levels(&spt, NodeId(2)), None);
    }

    #[test]
    fn branch_not_taken_gets_source_side_level() {
        // Diamond: 0-1-3 (cheap), 0-2-3 (dear). LCP to 3 goes via 1.
        let (lv, _) = levels_of(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 1, 5, 0], 3);
        assert_eq!(lv.path, vec![NodeId(0), NodeId(1), NodeId(3)]);
        // Node 2 hangs directly off the root: level 0.
        assert_eq!(lv.level[2], 0);
    }
}
