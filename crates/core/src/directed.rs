//! Section III-F: the link-cost model with vector-type agents.
//!
//! Each node `v_k` privately knows a cost vector `c_k = (c_{k,0}, …)` — its
//! power cost to transmit to each neighbor (`α_k + β_k·d^κ` under power
//! control). The output is a least-cost *directed* path; the payment of a
//! source `v_i` to a node `v_k` on it is
//!
//! ```text
//! p_i^k = Σ_j x_{k,j}·d_{k,j} + Δ_{i,k},
//! Δ_{i,k} = ‖LCP with v_k's out-links at ∞‖ − ‖LCP‖
//! ```
//!
//! — the used out-link's declared cost plus `v_k`'s marginal contribution.
//! Removing an agent means removing all its outgoing arcs, which for
//! intermediate nodes equals node removal.
//!
//! **Why no directed Algorithm 1:** the paper claims its fast algorithm
//! adapts to this model; the level lemmas, however, rely on reversing
//! subpaths of least-cost paths, which is unsound under asymmetric arc
//! costs (general directed replacement paths have conditional superlinear
//! lower bounds). We therefore ship the provably correct per-node
//! recomputation with early-exit Dijkstra — and keep the `O(n log n + m)`
//! algorithm for the undirected node-cost model it is proven for. See
//! DESIGN.md §2.

use truthcast_graph::dijkstra::{dijkstra, DijkstraOptions, Direction};
use truthcast_graph::mask::NodeMask;
use truthcast_graph::{Cost, LinkWeightedDigraph, NodeId};

use crate::pricing::UnicastPricing;

/// Per-relay pricing of a directed unicast `source → target`.
///
/// In the returned [`UnicastPricing`], `lcp_cost` is the total declared
/// arc cost of the path and each relay's payment is
/// `d_{k,next} + Δ_{i,k}` as above. Returns `None` if the target is
/// unreachable.
pub fn directed_payments(
    g: &LinkWeightedDigraph,
    source: NodeId,
    target: NodeId,
) -> Option<UnicastPricing> {
    assert_ne!(source, target, "unicast endpoints must differ");
    let path = canonical_lcp(g, source, target)?;
    let lcp_cost: Cost = path.windows(2).map(|h| g.arc_cost(h[0], h[1])).sum();

    let mut mask = NodeMask::new(g.num_nodes());
    let mut payments = Vec::with_capacity(path.len().saturating_sub(2));
    for (idx, &relay) in path.iter().enumerate().take(path.len() - 1).skip(1) {
        let used_arc = g.arc_cost(relay, path[idx + 1]);
        debug_assert!(used_arc.is_finite());
        mask.clear();
        mask.block(relay);
        let avoiding = dijkstra(
            g,
            source,
            Direction::Forward,
            DijkstraOptions {
                avoid: Some(&mask),
                avoid_edge: None,
                target: Some(target),
            },
        );
        let delta = avoiding.dist(target).saturating_sub(lcp_cost);
        payments.push((relay, used_arc.saturating_add(delta)));
    }

    Some(UnicastPricing {
        path,
        lcp_cost,
        payments,
    })
}

/// The canonical LCP `source → target` (DESIGN.md §2): least cost, then
/// fewest hops, then the lexicographically least node sequence. A
/// backward sweep gives every node's cost `R(v)` to `target`; an arc
/// `v → w` is *tight* iff `w(v, w) + R(w) = R(v)`; a BFS over reversed
/// tight arcs gives hop counts `h`; and the walk from `source` takes the
/// lowest-index tight successor with `h` one less at each step.
fn canonical_lcp(g: &LinkWeightedDigraph, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let r = dijkstra(g, target, Direction::Backward, DijkstraOptions::default()).dist;
    if r[source.index()].is_inf() {
        return None;
    }
    let tight = |v: NodeId, w: NodeId, arc: Cost| arc + r[w.index()] == r[v.index()];
    let mut hops = vec![u32::MAX; g.num_nodes()];
    hops[target.index()] = 0;
    let mut queue = std::collections::VecDeque::from([target]);
    while let Some(w) = queue.pop_front() {
        for a in g.in_arcs(w) {
            if hops[a.head.index()] == u32::MAX && tight(a.head, w, a.weight) {
                hops[a.head.index()] = hops[w.index()] + 1;
                queue.push_back(a.head);
            }
        }
    }
    let mut path = vec![source];
    let mut v = source;
    while v != target {
        v = g
            .out_arcs(v)
            .iter()
            .filter(|a| tight(v, a.head, a.weight) && hops[a.head.index()] + 1 == hops[v.index()])
            .map(|a| a.head)
            .min()
            .expect("a reached node has a tight successor one hop closer");
        path.push(v);
    }
    Some(path)
}

/// The true transmission cost a relay incurs on the chosen path under its
/// *true* cost vector `true_graph` (the `Σ_j x_{k,j} c_{k,j}` term of its
/// utility).
pub fn incurred_cost(true_graph: &LinkWeightedDigraph, path: &[NodeId], relay: NodeId) -> Cost {
    path.windows(2)
        .filter(|w| w[0] == relay)
        .map(|w| true_graph.arc_cost(w[0], w[1]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(u: u32, v: u32, w: u64) -> (NodeId, NodeId, Cost) {
        (NodeId(u), NodeId(v), Cost::from_units(w))
    }

    /// Two directed routes 0→1→3 (2+2) and 0→2→3 (3+4).
    fn twin_routes() -> LinkWeightedDigraph {
        LinkWeightedDigraph::from_arcs(4, [arc(0, 1, 2), arc(1, 3, 2), arc(0, 2, 3), arc(2, 3, 4)])
    }

    #[test]
    fn pays_used_arc_plus_marginal_value() {
        let g = twin_routes();
        let p = directed_payments(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.lcp_cost, Cost::from_units(4));
        // Δ = 7 − 4 = 3; used arc d_{1,3} = 2 → payment 5.
        assert_eq!(p.payments, vec![(NodeId(1), Cost::from_units(5))]);
    }

    #[test]
    fn asymmetric_costs_respected() {
        // Cheap forward, expensive reverse: LCP must use forward arcs only.
        let g = LinkWeightedDigraph::from_arcs(
            3,
            [
                arc(0, 1, 1),
                arc(1, 0, 100),
                arc(1, 2, 1),
                arc(2, 1, 100),
                arc(0, 2, 50),
            ],
        );
        let p = directed_payments(&g, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Replacement avoiding 1: direct arc cost 50; Δ = 48; payment 49.
        assert_eq!(p.payments, vec![(NodeId(1), Cost::from_units(49))]);
    }

    #[test]
    fn monopoly_is_infinite() {
        let g = LinkWeightedDigraph::from_arcs(3, [arc(0, 1, 1), arc(1, 2, 1)]);
        let p = directed_payments(&g, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.payments, vec![(NodeId(1), Cost::INF)]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = LinkWeightedDigraph::from_arcs(3, [arc(1, 0, 1)]);
        assert_eq!(directed_payments(&g, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn incurred_cost_of_relay() {
        let g = twin_routes();
        let path = [NodeId(0), NodeId(1), NodeId(3)];
        assert_eq!(incurred_cost(&g, &path, NodeId(1)), Cost::from_units(2));
        assert_eq!(incurred_cost(&g, &path, NodeId(2)), Cost::ZERO);
    }

    #[test]
    fn payment_covers_incurred_cost() {
        let g = twin_routes();
        let p = directed_payments(&g, NodeId(0), NodeId(3)).unwrap();
        for &(relay, pay) in &p.payments {
            assert!(pay >= incurred_cost(&g, &p.path, relay));
        }
    }

    #[test]
    fn truthfulness_probe_on_vector_agent() {
        // Relay 1 declares its out-arcs scaled by various factors; its
        // utility (payment − true incurred cost) must be maximized at truth.
        let g = twin_routes();
        let truth_pricing = directed_payments(&g, NodeId(0), NodeId(3)).unwrap();
        let u_truth = truth_pricing.payment_to(NodeId(1)).as_f64()
            - incurred_cost(&g, &truth_pricing.path, NodeId(1)).as_f64();
        for scale_pct in [0u64, 50, 90, 110, 150, 200, 400] {
            let lied = g.reprice_tails(&[NodeId(1)], |_, _, w| {
                Cost::from_micros(w.micros() * scale_pct / 100)
            });
            let pricing = directed_payments(&lied, NodeId(0), NodeId(3)).unwrap();
            let on_path = pricing.path.contains(&NodeId(1));
            let incurred = if on_path {
                incurred_cost(&g, &pricing.path, NodeId(1)).as_f64()
            } else {
                0.0
            };
            let u_lie = pricing.payment_to(NodeId(1)).as_f64() - incurred;
            assert!(
                u_lie <= u_truth + 1e-9,
                "scale {scale_pct}%: {u_lie} > {u_truth}"
            );
        }
    }
}
