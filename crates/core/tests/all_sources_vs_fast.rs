//! Differential property suite: the all-sources engine must be
//! **bit-identical** to per-source `fast_payments` /
//! `fast_symmetric_payments` for every source — paths, `lcp_cost`, and
//! payments — at every thread count.
//!
//! The engine's replacement values come from per-relay restricted
//! Dijkstras over the shared AP-rooted SPT (exact minima, tie-proof); its
//! reported *paths* are the canonical LCP tree (DESIGN.md §2), which every
//! per-source engine reports too. Tie-heavy cost profiles therefore
//! exercise the tie rule hard while wide-range profiles have unique
//! LCPs — both must land on identical tables, including the AP's own
//! slot and the guaranteed-unreachable node every topology carries.
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it.

use truthcast_core::all_sources::{all_sources_payments, AllSourcesEngine};
use truthcast_core::batch::{PaymentEngine, SessionQuery};
use truthcast_core::{fast_payments, fast_symmetric_payments, price_all_sources, UnicastPricing};
use truthcast_graph::generators::{erdos_renyi, random_udg};
use truthcast_graph::geometry::Region;
use truthcast_graph::{Adjacency, Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph};
use truthcast_rt::{bools, cases, forall, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// Thread counts: the inline path, an even split, a prime that never
/// divides the relay count evenly, and oversubscription.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// UDG or Erdős–Rényi with one guaranteed-isolated node appended, so
/// every table carries an unreachable slot.
fn random_topology(seed: u64, udg: bool) -> Adjacency {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(5..20);
    let adj = if udg {
        let range = rng.gen_range(400.0..900.0);
        let (_, adj) = random_udg(n, Region::new(2000.0, 2000.0), range, &mut rng);
        adj
    } else {
        erdos_renyi(n, rng.gen_range(0.15..0.55), &mut rng)
    };
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (u, v) in adj.edges() {
        edges.push((u.0, v.0));
    }
    truthcast_graph::adjacency_from_pairs(n + 1, &edges)
}

fn random_costs(n: usize, seed: u64, tie_heavy: bool) -> Vec<Cost> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    (0..n)
        .map(|_| {
            Cost::from_units(if tie_heavy {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..500_000)
            })
        })
        .collect()
}

/// The per-source oracle table: `fast_payments` for every non-AP node,
/// `None` at the AP slot (matching the engine's layout).
fn oracle_table(g: &NodeWeightedGraph, ap: NodeId) -> Vec<Option<UnicastPricing>> {
    g.node_ids()
        .map(|s| (s != ap).then(|| fast_payments(g, s, ap)).flatten())
        .collect()
}

/// Node-weighted model: the all-sources table equals per-source
/// `fast_payments` slot for slot — every source, every thread count, on
/// UDG and Erdős–Rényi instances with wide-range and tie-heavy costs,
/// with the AP drawn from the connected component or the isolated node's
/// neighborhood alike.
#[test]
fn node_table_matches_fast_payments() {
    forall!(cases(48), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, ties));
        let ap = NodeId((seed % n as u64) as u32);
        let expected = oracle_table(&g, ap);
        for threads in THREADS {
            let mut engine = AllSourcesEngine::with_threads(threads);
            let got = engine.price_all_sources(&g, ap);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
        Ok(())
    });
}

/// The all-sources table equals the per-session batch engine's slot for
/// slot, and both equal the one-shot `fast_payments` oracle.
#[test]
fn node_table_matches_batch_engine_and_oracle() {
    forall!(cases(24), (0u64..1 << 48, bools()), |(seed, ties)| {
        let adj = random_topology(seed, false);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, ties));
        let ap = NodeId(0);
        let sessions: Vec<SessionQuery> = g
            .node_ids()
            .filter(|&s| s != ap)
            .map(|s| SessionQuery::new(s, ap))
            .collect();
        let batch = PaymentEngine::with_threads(&g, 1).price_batch(&sessions);
        let mut expected: Vec<Option<UnicastPricing>> = vec![None; n];
        for (q, p) in sessions.iter().zip(batch) {
            expected[q.source.index()] = p;
        }
        let mut engine = AllSourcesEngine::with_threads(2);
        let got = engine.price_all_sources(&g, ap);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(&got, &oracle_table(&g, ap));
        Ok(())
    });
}

/// `price_all_sources` (now a thin wrapper over the engine) still honors
/// its historical contract: one `fast_payments`-identical entry per
/// non-AP node.
#[test]
fn price_all_sources_wrapper_matches() {
    forall!(cases(24), (0u64..1 << 48, bools()), |(seed, udg)| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, true));
        let ap = NodeId(0);
        prop_assert_eq!(price_all_sources(&g, ap), oracle_table(&g, ap));
        prop_assert_eq!(all_sources_payments(&g, ap), oracle_table(&g, ap));
        Ok(())
    });
}

/// Symmetric link-cost model: the all-sources table equals per-source
/// `fast_symmetric_payments` at every thread count.
#[test]
fn link_table_matches_fast_symmetric_payments() {
    forall!(cases(48), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x11ab);
        let mut arcs: Vec<(NodeId, NodeId, Cost)> = Vec::new();
        for (u, v) in adj.edges() {
            let w = Cost::from_units(if ties {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(1..500_000)
            });
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        let g = LinkWeightedDigraph::from_arcs(n, arcs);
        let ap = NodeId(0);
        let expected: Vec<Option<UnicastPricing>> = g
            .node_ids()
            .map(|s| {
                (s != ap)
                    .then(|| fast_symmetric_payments(&g, s, ap))
                    .flatten()
            })
            .collect();
        for threads in THREADS {
            let mut engine = AllSourcesEngine::with_threads(threads);
            let got = engine.price_all_sources_symmetric(&g, ap);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
        Ok(())
    });
}

/// An asymmetric digraph yields an all-`None` table at every thread
/// count, exactly like the per-source algorithm.
#[test]
fn asymmetric_link_table_is_all_none() {
    let g = LinkWeightedDigraph::from_arcs(
        3,
        [
            (NodeId(0), NodeId(1), Cost::from_units(1)),
            (NodeId(1), NodeId(0), Cost::from_units(2)), // asymmetric pair
            (NodeId(1), NodeId(2), Cost::from_units(3)),
            (NodeId(2), NodeId(1), Cost::from_units(3)),
        ],
    );
    for threads in THREADS {
        let mut engine = AllSourcesEngine::with_threads(threads);
        assert_eq!(
            engine.price_all_sources_symmetric(&g, NodeId(2)),
            vec![None, None, None]
        );
        assert_eq!(fast_symmetric_payments(&g, NodeId(0), NodeId(2)), None);
    }
}

/// The canonical rule decides tied paths: with every relay at cost 1,
/// source 5 reaches the AP at cost 2 through 2-1 and through 4-3 (and
/// 4-1), all three hops. The lexicographically least sequence is
/// 5-2-1-0. With distinct costs 5-2-1-0 is the unique LCP (cost 3,
/// against 12 via 4-3 and 9 via 4-1). Both tables match the per-source
/// oracle.
#[test]
fn tied_paths_follow_the_canonical_rule() {
    let pairs = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 4)];
    let unique = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 1, 2, 4, 8, 16]);
    let mut engine = AllSourcesEngine::with_threads(2);
    let got = engine.price_all_sources(&unique, NodeId(0));
    let path = |t: &[Option<UnicastPricing>]| t[5].as_ref().map(|p| p.path.clone());
    let expect: Vec<NodeId> = [5, 2, 1, 0].map(NodeId).to_vec();
    assert_eq!(path(&got), Some(expect.clone()));
    assert_eq!(got, oracle_table(&unique, NodeId(0)));

    let tied = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 1, 1, 1, 1, 1]);
    let got = engine.price_all_sources(&tied, NodeId(0));
    assert_eq!(path(&got), Some(expect));
    assert_eq!(got, oracle_table(&tied, NodeId(0)));
}
