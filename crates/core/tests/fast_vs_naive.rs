//! Cross-algorithm differential tests: the fast payment algorithms must
//! agree with their per-relay recomputation oracles *exactly* — payment
//! for payment, in fixed-point [`Cost`] micro-units, with no tolerance.
//!
//! Two model/algorithm pairs are exercised, on seeded unit-disk and
//! Erdős–Rényi instances (and, at the end of the file, every engine is
//! held to the canonical-LCP spec by brute-force path enumeration):
//!
//! * node-cost model: [`fast_payments`] (Algorithm 1's level
//!   decomposition) versus [`naive_payments`];
//! * symmetric link-cost model: [`fast_symmetric_payments`] versus
//!   [`directed_payments`] (the per-relay oracle, correct on any digraph).

use truthcast_core::all_sources::{all_sources_payments, AllSourcesEngine};
use truthcast_core::batch::{LinkPaymentEngine, PaymentEngine, SessionQuery};
use truthcast_core::delta::IncrementalEngine;
use truthcast_core::directed::directed_payments;
use truthcast_core::fast_symmetric::fast_symmetric_payments;
use truthcast_core::{fast_payments, naive_payments};
use truthcast_graph::connectivity::is_connected;
use truthcast_graph::generators::{erdos_renyi, random_udg};
use truthcast_graph::geometry::Region;
use truthcast_graph::{
    adjacency_from_pairs, Adjacency, Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph,
};
use truthcast_rt::prop::CaseResult;
use truthcast_rt::{cases, forall, prop_assert_eq, Rng, SeedableRng, SmallRng};

fn units(costs: &[u64]) -> Vec<Cost> {
    costs.iter().map(|&c| Cost::from_units(c)).collect()
}

const UDG_SEEDS: [u64; 4] = [0x11, 0x22, 0x33, 0x44];
const ER_SEEDS: [u64; 4] = [0x55, 0x66, 0x77, 0x88];

/// A connected seeded UDG topology (retry placement until connected).
fn udg_topology(n: usize, rng: &mut SmallRng) -> Adjacency {
    let side = (n as f64 * 300.0 * 300.0 * std::f64::consts::PI / 12.0).sqrt();
    loop {
        let (_, adj) = random_udg(n, Region::new(side, side), 300.0, rng);
        if is_connected(&adj) {
            return adj;
        }
    }
}

/// A connected seeded G(n, p) topology.
fn er_topology(n: usize, p: f64, rng: &mut SmallRng) -> Adjacency {
    loop {
        let adj = erdos_renyi(n, p, rng);
        if is_connected(&adj) {
            return adj;
        }
    }
}

fn with_node_costs(adj: Adjacency, rng: &mut SmallRng) -> NodeWeightedGraph {
    let n = adj.num_nodes();
    let costs: Vec<Cost> = (0..n)
        .map(|_| Cost::from_micros(rng.gen_range(0u64..100_000_000)))
        .collect();
    NodeWeightedGraph::new(adj, costs)
}

fn with_symmetric_link_costs(adj: &Adjacency, rng: &mut SmallRng) -> LinkWeightedDigraph {
    let arcs: Vec<_> = adj
        .edges()
        .flat_map(|(u, v)| {
            let w = Cost::from_micros(rng.gen_range(1u64..100_000_000));
            [(u, v, w), (v, u, w)]
        })
        .collect();
    LinkWeightedDigraph::from_arcs(adj.num_nodes(), arcs)
}

/// Every relay's payment from Algorithm 1 equals the naive oracle's,
/// for every target, on each instance.
fn assert_node_model_agreement(g: &NodeWeightedGraph, seed: u64) {
    let n = g.num_nodes();
    for t in 1..n {
        let t = NodeId::new(t);
        let fast = fast_payments(g, NodeId(0), t);
        let naive = naive_payments(g, NodeId(0), t);
        assert_eq!(fast, naive, "seed {seed:#x}, target {t}: fast != naive");
    }
}

/// Every relay's payment from the symmetric fast sweep equals the
/// per-relay directed oracle's, for every target, on each instance.
fn assert_link_model_agreement(g: &LinkWeightedDigraph, seed: u64) {
    let n = g.num_nodes();
    for t in 1..n {
        let t = NodeId::new(t);
        let fast = fast_symmetric_payments(g, NodeId(0), t)
            .expect("symmetric connected instance must price");
        let oracle = directed_payments(g, NodeId(0), t).expect("connected instance must price");
        assert_eq!(
            fast.path, oracle.path,
            "seed {seed:#x}, target {t}: paths differ"
        );
        assert_eq!(fast.lcp_cost, oracle.lcp_cost, "seed {seed:#x}, target {t}");
        assert_eq!(
            fast.payments, oracle.payments,
            "seed {seed:#x}, target {t}: payments differ"
        );
    }
}

#[test]
fn node_model_fast_equals_naive_on_udg() {
    for seed in UDG_SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let adj = udg_topology(48, &mut rng);
        let g = with_node_costs(adj, &mut rng);
        assert_node_model_agreement(&g, seed);
    }
}

#[test]
fn node_model_fast_equals_naive_on_erdos_renyi() {
    for seed in ER_SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let adj = er_topology(32, 0.12, &mut rng);
        let g = with_node_costs(adj, &mut rng);
        assert_node_model_agreement(&g, seed);
    }
}

#[test]
fn link_model_fast_symmetric_equals_directed_on_udg() {
    for seed in UDG_SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFF);
        let adj = udg_topology(48, &mut rng);
        let g = with_symmetric_link_costs(&adj, &mut rng);
        assert_link_model_agreement(&g, seed);
    }
}

#[test]
fn link_model_fast_symmetric_equals_directed_on_erdos_renyi() {
    for seed in ER_SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFF);
        let adj = er_topology(32, 0.12, &mut rng);
        let g = with_symmetric_link_costs(&adj, &mut rng);
        assert_link_model_agreement(&g, seed);
    }
}

/// Tie-heavy regime: small integer costs force many equal-cost paths;
/// the algorithms must still agree exactly (shared tie-breaking).
#[test]
fn node_model_agreement_survives_ties() {
    for seed in [0x7A1u64, 0x7A2, 0x7A3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let adj = er_topology(24, 0.18, &mut rng);
        let n = adj.num_nodes();
        let costs: Vec<Cost> = (0..n)
            .map(|_| Cost::from_units(rng.gen_range(0u64..4)))
            .collect();
        let g = NodeWeightedGraph::new(adj, costs);
        assert_node_model_agreement(&g, seed);
    }
}

// ---- The canonical-LCP specification, checked by brute force. ----------

/// The spec's path, straight from the definition: enumerate every simple
/// `source → target` path and take the least by (cost, hops, node
/// sequence read from the source). `arc(u, v)` is the cost of stepping
/// from `u` to `v`, `None` where there is no arc.
fn spec_path(
    n: usize,
    source: NodeId,
    target: NodeId,
    arc: &dyn Fn(NodeId, NodeId) -> Option<Cost>,
) -> Option<Vec<NodeId>> {
    fn walk(
        n: usize,
        path: &mut Vec<NodeId>,
        cost: Cost,
        target: NodeId,
        arc: &dyn Fn(NodeId, NodeId) -> Option<Cost>,
        best: &mut Option<(Cost, usize, Vec<NodeId>)>,
    ) {
        let v = *path.last().expect("path starts at the source");
        if v == target {
            let key = (cost, path.len(), path.clone());
            if best.as_ref().is_none_or(|b| key < *b) {
                *best = Some(key);
            }
            return;
        }
        for w in (0..n).map(NodeId::new) {
            let Some(c) = arc(v, w) else { continue };
            if path.contains(&w) {
                continue;
            }
            path.push(w);
            walk(n, path, cost + c, target, arc, best);
            path.pop();
        }
    }
    let mut best = None;
    walk(n, &mut vec![source], Cost::ZERO, target, arc, &mut best);
    best.map(|(_, _, p)| p)
}

/// A small random topology with tie-heavy edge draws: `n ≤ 9` nodes,
/// every pair an edge with probability `p`.
fn small_pairs(rng: &mut SmallRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.gen_range(2..=9usize);
    let p = rng.gen_range(0.2..0.7);
    let mut pairs = Vec::new();
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if rng.gen_bool(p) {
                pairs.push((u, v));
            }
        }
    }
    (n, pairs)
}

/// Node model: every engine reports the spec's path for every source
/// toward `ap`, and agrees with the oracle on the whole pricing. The warm
/// engine repairs onto `g` from an unrelated `prev` epoch.
fn check_node_spec(g: &NodeWeightedGraph, prev: &NodeWeightedGraph, ap: NodeId) -> CaseResult {
    let n = g.num_nodes();
    let sources: Vec<NodeId> = g.node_ids().filter(|&s| s != ap).collect();
    let queries: Vec<SessionQuery> = sources.iter().map(|&s| SessionQuery::new(s, ap)).collect();
    let batch = PaymentEngine::with_threads(g, 2).price_batch(&queries);
    let table = all_sources_payments(g, ap);
    let mut warm = IncrementalEngine::with_threads(2).with_damage_threshold(1.0);
    warm.price_epoch(prev, ap);
    let warm_table = warm.price_epoch(g, ap);
    for (&s, batched) in sources.iter().zip(&batch) {
        let arc = |u: NodeId, v: NodeId| {
            g.neighbors(u)
                .contains(&v)
                .then(|| if v == ap { Cost::ZERO } else { g.cost(v) })
        };
        let spec = spec_path(n, s, ap, &arc);
        let naive = naive_payments(g, s, ap);
        prop_assert_eq!(
            naive.as_ref().map(|p| p.path.clone()),
            spec,
            "naive, source {}",
            s
        );
        prop_assert_eq!(&fast_payments(g, s, ap), &naive, "fast, source {}", s);
        prop_assert_eq!(batched, &naive, "batch, source {}", s);
        prop_assert_eq!(&table[s.index()], &naive, "all-sources, source {}", s);
        prop_assert_eq!(&warm_table[s.index()], &naive, "incremental, source {}", s);
    }
    Ok(())
}

/// Link model: the same for the symmetric link-cost engines against the
/// per-relay directed oracle.
fn check_link_spec(g: &LinkWeightedDigraph, ap: NodeId) -> CaseResult {
    let n = g.num_nodes();
    let sources: Vec<NodeId> = g.node_ids().filter(|&s| s != ap).collect();
    let queries: Vec<SessionQuery> = sources.iter().map(|&s| SessionQuery::new(s, ap)).collect();
    let batch = LinkPaymentEngine::with_threads(g, 2).price_batch(&queries);
    let table = AllSourcesEngine::with_threads(2).price_all_sources_symmetric(g, ap);
    for (&s, batched) in sources.iter().zip(&batch) {
        let arc = |u: NodeId, v: NodeId| Some(g.arc_cost(u, v)).filter(|c| c.is_finite());
        let spec = spec_path(n, s, ap, &arc);
        let oracle = directed_payments(g, s, ap);
        prop_assert_eq!(
            oracle.as_ref().map(|p| p.path.clone()),
            spec,
            "directed, source {}",
            s
        );
        prop_assert_eq!(
            &fast_symmetric_payments(g, s, ap),
            &oracle,
            "fast, source {}",
            s
        );
        prop_assert_eq!(batched, &oracle, "batch, source {}", s);
        prop_assert_eq!(&table[s.index()], &oracle, "all-sources, source {}", s);
    }
    Ok(())
}

fn symmetric(n: usize, weighted: &[(u32, u32, u64)]) -> LinkWeightedDigraph {
    let arcs = weighted.iter().flat_map(|&(u, v, w)| {
        let w = Cost::from_units(w);
        [(NodeId(u), NodeId(v), w), (NodeId(v), NodeId(u), w)]
    });
    LinkWeightedDigraph::from_arcs(n, arcs.collect::<Vec<_>>())
}

/// The zero-cost cycle that a plain lowest-index rule would loop on:
/// relays 1 and 2 cost 0 and both reach the AP 5 directly, so each is a
/// tight continuation of the other. The hop key breaks it: 1 and 2 go
/// straight to the AP, and 0 (adjacent to both) takes the lower, 0-1-5.
/// Nodes 3 and 4 are isolated.
#[test]
fn zero_cost_cycle_takes_the_fewest_hops() {
    let pairs = [(0, 1), (0, 2), (1, 2), (1, 5), (2, 5)];
    let g = NodeWeightedGraph::from_pairs_units(&pairs, &[0; 6]);
    let ap = NodeId(5);
    let path = |s: u32| naive_payments(&g, NodeId(s), ap).map(|p| p.path);
    assert_eq!(path(0), Some(vec![NodeId(0), NodeId(1), ap]));
    assert_eq!(path(1), Some(vec![NodeId(1), ap]));
    assert_eq!(path(2), Some(vec![NodeId(2), ap]));
    assert_eq!(path(3), None);
    let prev = NodeWeightedGraph::from_pairs_units(&pairs[..3], &[0; 6]);
    check_node_spec(&g, &prev, ap).unwrap();
    let weighted: Vec<(u32, u32, u64)> = pairs.iter().map(|&(u, v)| (u, v, 0)).collect();
    check_link_spec(&symmetric(6, &weighted), ap).unwrap();
}

/// Brute-force spec battery, node model: small graphs with costs in
/// `0..4` (zeros included, so tight arcs form cycles), every engine
/// against the enumerated least path.
#[test]
fn every_node_engine_reports_the_spec_path() {
    forall!(cases(64), 0u64..1 << 48, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, pairs) = small_pairs(&mut rng);
        let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let g = NodeWeightedGraph::from_pairs_units(&pairs, &costs);
        let (_, prev_pairs) = small_pairs(&mut rng);
        let prev_pairs: Vec<(u32, u32)> = prev_pairs
            .into_iter()
            .filter(|&(u, v)| (v as usize) < n && u != v)
            .collect();
        let prev_costs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let prev = NodeWeightedGraph::new(adjacency_from_pairs(n, &prev_pairs), units(&prev_costs));
        let ap = NodeId::new(rng.gen_range(0..n));
        check_node_spec(&g, &prev, ap)
    });
}

/// Brute-force spec battery, symmetric link model: arc weights in `0..4`.
#[test]
fn every_link_engine_reports_the_spec_path() {
    forall!(cases(64), 0u64..1 << 48, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, pairs) = small_pairs(&mut rng);
        let weighted: Vec<(u32, u32, u64)> = pairs
            .iter()
            .map(|&(u, v)| (u, v, rng.gen_range(0..4)))
            .collect();
        let ap = NodeId::new(rng.gen_range(0..n));
        check_link_spec(&symmetric(n, &weighted), ap)
    });
}
