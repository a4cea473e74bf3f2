//! The naive VCG payment computation: one node-avoiding Dijkstra per relay.
//!
//! This is the `O(k·(n log n + m))` baseline the paper's Algorithm 1
//! improves on (worst case `O(n² log n + nm)` with `k = Θ(n)` relays). It
//! is also the *oracle* for the fast algorithm's differential tests: it
//! computes `‖P_{-v_k}(i, j, d)‖` from first principles with no structural
//! shortcuts.

use truthcast_graph::mask::NodeMask;
use truthcast_graph::node_dijkstra::{node_dijkstra, NodeDijkstraOptions};
use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
use truthcast_mechanism::vcg::vcg_payment_selected;

use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// Prices a unicast with the per-relay-removal VCG scheme, recomputing a
/// full node-avoiding shortest path per relay. The relays paid are those
/// of the canonical LCP, derived here independently of the engines.
///
/// Returns `None` if `target` is unreachable from `source`. A relay whose
/// removal disconnects the endpoints receives a [`Cost::INF`] payment
/// (monopoly).
pub fn naive_payments(
    g: &NodeWeightedGraph,
    source: NodeId,
    target: NodeId,
) -> Option<UnicastPricing> {
    assert_ne!(source, target, "unicast endpoints must differ");
    let _span = truthcast_obs::span("core.naive_payments");
    let path = canonical_lcp(g, source, target)?;
    let lcp_cost: Cost = path[1..path.len() - 1].iter().map(|&r| g.cost(r)).sum();

    let mut mask = NodeMask::new(g.num_nodes());
    let mut payments = Vec::with_capacity(path.len().saturating_sub(2));
    let mut replacements = Vec::with_capacity(path.len().saturating_sub(2));
    for &relay in &path[1..path.len() - 1] {
        mask.clear();
        mask.block(relay);
        let avoiding = node_dijkstra(
            g,
            source,
            NodeDijkstraOptions {
                avoid: Some(&mask),
                target: Some(target),
            },
        );
        let replacement = avoiding.lcp_cost(g, target);
        replacements.push(replacement);
        payments.push((
            relay,
            vcg_payment_selected(lcp_cost, replacement, g.cost(relay)),
        ));
    }
    truthcast_obs::add("core.naive.replacement_sweeps", replacements.len() as u64);
    audit_unicast(
        "naive",
        source,
        target,
        lcp_cost,
        payments
            .iter()
            .zip(&replacements)
            .map(|(&(r, p), &repl)| (r, repl, g.cost(r), p)),
    );

    Some(UnicastPricing {
        path,
        lcp_cost,
        payments,
    })
}

/// The canonical LCP `source … target` straight from its definition
/// (DESIGN.md §2): the least-cost paths, then the fewest hops, then the
/// lexicographically least node sequence. A sweep from `target` gives
/// `R'`; an arc `v → w` lies on some least-cost path iff
/// `R'(w) + c_v = R'(v)` (*tight*); a BFS over tight arcs gives every
/// node's hop count `h`; and the greedy walk from `source` takes the
/// lowest-index tight neighbour with `h` one less at each step.
fn canonical_lcp(g: &NodeWeightedGraph, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let r = node_dijkstra(g, target, NodeDijkstraOptions::default()).dist;
    if r[source.index()].is_inf() {
        return None;
    }
    let tight = |v: NodeId, w: NodeId| r[w.index()] + g.cost(v) == r[v.index()];
    let mut hops = vec![u32::MAX; g.num_nodes()];
    hops[target.index()] = 0;
    let mut queue = std::collections::VecDeque::from([target]);
    while let Some(w) = queue.pop_front() {
        for &v in g.neighbors(w) {
            if hops[v.index()] == u32::MAX && tight(v, w) {
                hops[v.index()] = hops[w.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    let mut path = vec![source];
    let mut v = source;
    while v != target {
        v = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| tight(v, w) && hops[w.index()] + 1 == hops[v.index()])
            .min()
            .expect("a reached node has a tight neighbour one hop closer");
        path.push(v);
    }
    Some(path)
}

/// Just the replacement cost `‖P_{-v_k}(source, target, d)‖` for one node.
pub fn replacement_cost(
    g: &NodeWeightedGraph,
    source: NodeId,
    target: NodeId,
    removed: NodeId,
) -> Cost {
    let mask = NodeMask::from_nodes(g.num_nodes(), [removed]);
    truthcast_graph::node_dijkstra::lcp_cost_between(g, source, target, Some(&mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The diamond from the paper's setup: two parallel relays.
    ///   0 —1(c=5)— 3   and   0 —2(c=7)— 3
    fn diamond() -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0])
    }

    #[test]
    fn pays_relay_the_second_path_cost() {
        let g = diamond();
        let p = naive_payments(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(p.lcp_cost, Cost::from_units(5));
        // p^1 = ‖P_-1‖ − ‖P‖ + d_1 = 7 − 5 + 5 = 7: exactly the
        // second-cheapest branch, the Vickrey intuition.
        assert_eq!(p.payments, vec![(NodeId(1), Cost::from_units(7))]);
        assert_eq!(p.overpayment(), Cost::from_units(2));
    }

    #[test]
    fn longer_path_pays_each_relay() {
        // 0-1-2-5 (costs 1,1) vs 0-3-4-5 (costs 4,4).
        let g = NodeWeightedGraph::from_pairs_units(
            &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
            &[0, 1, 1, 4, 4, 0],
        );
        let p = naive_payments(&g, NodeId(0), NodeId(5)).unwrap();
        assert_eq!(p.path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(5)]);
        assert_eq!(p.lcp_cost, Cost::from_units(2));
        // Each relay: replacement path is the other branch (cost 8):
        // payment = 8 − 2 + 1 = 7.
        assert_eq!(
            p.payments,
            vec![
                (NodeId(1), Cost::from_units(7)),
                (NodeId(2), Cost::from_units(7))
            ]
        );
    }

    #[test]
    fn monopoly_relay_gets_infinite_payment() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 3, 0]);
        let p = naive_payments(&g, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.payments, vec![(NodeId(1), Cost::INF)]);
        assert!(p.has_monopoly());
    }

    #[test]
    fn disconnected_returns_none() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0, 0]);
        assert_eq!(naive_payments(&g, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn adjacent_endpoints_pay_nothing() {
        let g = diamond();
        let p = naive_payments(&g, NodeId(0), NodeId(1)).unwrap();
        assert!(p.payments.is_empty());
        assert_eq!(p.lcp_cost, Cost::ZERO);
        assert_eq!(p.total_payment(), Cost::ZERO);
    }

    #[test]
    fn payment_always_at_least_declared_cost() {
        // IR in payment form: p^k ≥ d_k for on-path relays.
        let g = diamond();
        let p = naive_payments(&g, NodeId(0), NodeId(3)).unwrap();
        for &(relay, pay) in &p.payments {
            assert!(pay >= g.cost(relay));
        }
    }

    #[test]
    fn replacement_cost_helper() {
        let g = diamond();
        assert_eq!(
            replacement_cost(&g, NodeId(0), NodeId(3), NodeId(1)),
            Cost::from_units(7)
        );
    }
}
