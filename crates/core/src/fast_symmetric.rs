//! Algorithm 1 for the *symmetric link-cost* model.
//!
//! The paper's first simulation prices links `‖v_i v_j‖^κ` with a common
//! range — a directed graph whose weights happen to be symmetric. The
//! level decomposition of Algorithm 1 (and of Hershberger–Suri's Vickrey
//! payment algorithm, the paper's \[18\]) is sound exactly when least-cost
//! subpaths can be reversed, i.e. when `w(u,v) = w(v,u)` for every link.
//! This module ports the fast algorithm to that case, giving
//! `O((n+m) log n)` *node-avoiding* replacement costs for edge-weighted
//! networks — and making the Figure 3 UDG panels a whole-sweep, not
//! per-relay, computation.
//!
//! For genuinely asymmetric instances (the paper's second simulation) the
//! level lemmas fail and [`crate::directed::directed_payments`] remains
//! the correct tool; [`fast_symmetric_payments`] checks symmetry up front
//! and returns `None` on asymmetric inputs rather than silently
//! miscomputing.

use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::{Cost, LinkWeightedDigraph, NodeId};

use crate::batch::{price_session, target_tree, SessionQuery, WorkerScratch};
use crate::levels::{PathLevels, UNREACHED};
use crate::pricing::UnicastPricing;

/// Whether every arc has an equal-cost reverse.
pub fn is_symmetric(g: &LinkWeightedDigraph) -> bool {
    g.arcs().all(|(u, v, w)| g.arc_cost(v, u) == w)
}

/// Fast VCG payments for a symmetric link-cost digraph: semantically
/// identical to [`crate::directed::directed_payments`] on symmetric
/// inputs, computed in one pass.
///
/// Returns `None` if the target is unreachable **or** the graph is not
/// symmetric (callers wanting the general case should use the per-relay
/// recomputation).
pub fn fast_symmetric_payments(
    g: &LinkWeightedDigraph,
    source: NodeId,
    target: NodeId,
) -> Option<UnicastPricing> {
    assert_ne!(source, target, "unicast endpoints must differ");
    if !is_symmetric(g) {
        return None;
    }
    let tj = target_tree(g, target);
    let mut scratch = WorkerScratch::new(g.num_nodes());
    price_session(
        g,
        SessionQuery::new(source, target),
        &tj,
        &mut scratch,
        "fast_sym",
    )
}

/// `‖P_{-r_l}‖` for `l = 1 … s-1` on an edge-weighted symmetric graph,
/// given forward/backward distance tables and the level structure.
///
/// Exposed (like [`crate::fast::replacement_costs`]) for benchmarks.
pub fn edge_weighted_replacement_costs(
    g: &LinkWeightedDigraph,
    l_dist: &[Cost],
    r_dist: &[Cost],
    lv: &PathLevels,
) -> Vec<Cost> {
    let s = lv.hops();
    let n = g.num_nodes();

    // ---- Level-set entries (restricted Dijkstra per level). --------------
    let mut members_by_level: Vec<Vec<NodeId>> = vec![Vec::new(); s + 1];
    for v in g.node_ids() {
        let l = lv.level[v.index()];
        if l != UNREACHED && !lv.on_path(v) {
            members_by_level[l as usize].push(v);
        }
    }

    let mut c_min = vec![Cost::INF; s];
    let mut d_val = vec![Cost::INF; n];
    let mut heap: IndexedHeap<Cost> = IndexedHeap::new(n);
    for l in 1..s {
        let members = &members_by_level[l];
        if members.is_empty() {
            continue;
        }
        let lu = l as u32;
        heap.clear();
        // Seeds: hop to any strictly-higher-level neighbor a, then follow
        // P(a, target): w(k, a) + R(a).
        for &k in members {
            let mut seed = Cost::INF;
            for arc in g.out_arcs(k) {
                let la = lv.level[arc.head.index()];
                if la != UNREACHED && la > lu {
                    seed = seed.min(arc.weight.saturating_add(r_dist[arc.head.index()]));
                }
            }
            d_val[k.index()] = seed;
            if seed.is_finite() {
                heap.push(k.0, seed);
            }
        }
        // Relax inside the level set.
        while let Some((kk, dk)) = heap.pop_min() {
            let k = NodeId(kk);
            if dk > d_val[k.index()] {
                continue;
            }
            for arc in g.out_arcs(k) {
                let m = arc.head;
                if lv.level[m.index()] != lu || lv.on_path(m) {
                    continue;
                }
                let cand = dk.saturating_add(arc.weight);
                if cand < d_val[m.index()] {
                    d_val[m.index()] = cand;
                    heap.push_or_update(m.0, cand);
                }
            }
        }
        // Entry candidates from strictly-lower-level neighbors.
        for &k in members {
            if d_val[k.index()].is_inf() {
                continue;
            }
            let mut entry = Cost::INF;
            for arc in g.out_arcs(k) {
                let la = lv.level[arc.head.index()];
                if la != UNREACHED && la < lu {
                    entry = entry.min(l_dist[arc.head.index()].saturating_add(arc.weight));
                }
            }
            c_min[l] = c_min[l].min(entry.saturating_add(d_val[k.index()]));
        }
        for &k in members {
            d_val[k.index()] = Cost::INF;
        }
    }

    // ---- Sliding crossing-edge window. -----------------------------------
    struct CrossEdge {
        value: Cost,
        insert_at: u32,
        delete_at: u32,
    }
    let mut cross: Vec<CrossEdge> = Vec::new();
    for (u, v, w) in g.arcs() {
        // Each symmetric pair appears twice; keep the lower-id tail copy.
        if u > v {
            continue;
        }
        let (lu_, lv_) = (lv.level[u.index()], lv.level[v.index()]);
        if lu_ == UNREACHED || lv_ == UNREACHED || lu_ == lv_ {
            continue;
        }
        let (a, b, la, lb) = if lu_ < lv_ {
            (u, v, lu_, lv_)
        } else {
            (v, u, lv_, lu_)
        };
        if lb <= la + 1 {
            continue;
        }
        let value = l_dist[a.index()]
            .saturating_add(w)
            .saturating_add(r_dist[b.index()]);
        if value.is_inf() {
            continue;
        }
        cross.push(CrossEdge {
            value,
            insert_at: la + 1,
            delete_at: lb,
        });
    }
    let mut insert_at: Vec<Vec<u32>> = vec![Vec::new(); s + 1];
    let mut delete_at: Vec<Vec<u32>> = vec![Vec::new(); s + 1];
    for (idx, e) in cross.iter().enumerate() {
        insert_at[e.insert_at as usize].push(idx as u32);
        delete_at[e.delete_at as usize].push(idx as u32);
    }

    let mut window: IndexedHeap<Cost> = IndexedHeap::new(cross.len());
    let mut out = Vec::with_capacity(s - 1);
    for l in 1..s {
        for &idx in &delete_at[l] {
            window.remove(idx);
        }
        for &idx in &insert_at[l] {
            window.push(idx, cross[idx as usize].value);
        }
        let best_cross = window.peek().map_or(Cost::INF, |(_, v)| v);
        out.push(best_cross.min(c_min[l]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::directed_payments;

    fn sym_arcs(pairs: &[(u32, u32, u64)]) -> Vec<(NodeId, NodeId, Cost)> {
        pairs
            .iter()
            .flat_map(|&(u, v, w)| {
                [
                    (NodeId(u), NodeId(v), Cost::from_units(w)),
                    (NodeId(v), NodeId(u), Cost::from_units(w)),
                ]
            })
            .collect()
    }

    #[test]
    fn symmetry_detection() {
        let g = LinkWeightedDigraph::from_arcs(3, sym_arcs(&[(0, 1, 2), (1, 2, 3)]));
        assert!(is_symmetric(&g));
        let g2 = LinkWeightedDigraph::from_arcs(2, [(NodeId(0), NodeId(1), Cost::from_units(1))]);
        assert!(!is_symmetric(&g2));
        assert_eq!(fast_symmetric_payments(&g2, NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn diamond_matches_directed_naive() {
        let g = LinkWeightedDigraph::from_arcs(
            4,
            sym_arcs(&[(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 4)]),
        );
        assert_eq!(
            fast_symmetric_payments(&g, NodeId(0), NodeId(3)),
            directed_payments(&g, NodeId(0), NodeId(3))
        );
    }

    #[test]
    fn monopoly_matches() {
        let g = LinkWeightedDigraph::from_arcs(
            4,
            sym_arcs(&[(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 5)]),
        );
        assert_eq!(
            fast_symmetric_payments(&g, NodeId(0), NodeId(3)),
            directed_payments(&g, NodeId(0), NodeId(3))
        );
    }

    #[test]
    fn random_graphs_match_directed_naive() {
        use truthcast_rt::SmallRng;
        use truthcast_rt::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        for case in 0..300 {
            let n = rng.gen_range(4..26);
            let p = rng.gen_range(0.15..0.6);
            let mut pairs = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        let w = if case % 2 == 0 {
                            rng.gen_range(1..1_000_000)
                        } else {
                            rng.gen_range(0..5) // tie-heavy
                        };
                        pairs.push((u, v, w));
                    }
                }
            }
            let g = LinkWeightedDigraph::from_arcs(n, sym_arcs(&pairs));
            let s = NodeId(0);
            let t = NodeId(n as u32 - 1);
            let fast = fast_symmetric_payments(&g, s, t);
            let naive = directed_payments(&g, s, t);
            assert_eq!(fast, naive, "case {case}: pairs {pairs:?}");
        }
    }

    #[test]
    fn udg_instances_match_directed_naive() {
        use truthcast_rt::SmallRng;
        use truthcast_rt::{Rng, SeedableRng};
        // Build a UDG-like instance by hand (core has no wireless dep).
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10 {
            let n = 40;
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..600.0), rng.gen_range(0.0..600.0)))
                .collect();
            let mut arcs = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    let d2 = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                    if d2 <= 200.0 * 200.0 {
                        let w = Cost::from_f64(d2);
                        arcs.push((NodeId::new(i), NodeId::new(j), w));
                        arcs.push((NodeId::new(j), NodeId::new(i), w));
                    }
                }
            }
            let g = LinkWeightedDigraph::from_arcs(n, arcs);
            for t in [NodeId(1), NodeId::new(n - 1)] {
                assert_eq!(
                    fast_symmetric_payments(&g, NodeId(0), t),
                    directed_payments(&g, NodeId(0), t)
                );
            }
        }
    }
}
