//! Differential property suite: the batch payment engines must be
//! **bit-identical** to the per-session algorithms at every thread count.
//!
//! The engine's determinism contract (DESIGN.md §8) is that sharding a
//! batch across workers changes wall-clock time and nothing else. These
//! tests pin that contract on random unit-disk and Erdős–Rényi instances
//! across thread counts {1, 2, 7, 16}, with every session shape the
//! engine must handle: multi-relay routes, zero-relay direct links,
//! unreachable destinations (an always-isolated node), duplicate
//! sessions, and mixed destinations sharing the cache.
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it. A
//! fixed-seed test adds larger connected tie-heavy instances on top.

use truthcast_core::batch::{LinkPaymentEngine, PaymentEngine, SessionQuery};
use truthcast_core::{fast_payments, fast_symmetric_payments, price_all_sources};
use truthcast_graph::connectivity::is_connected;
use truthcast_graph::generators::{erdos_renyi, random_udg};
use truthcast_graph::geometry::Region;
use truthcast_graph::{Adjacency, Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph};
use truthcast_rt::{bools, cases, forall, prop_assert_eq, Rng, SeedableRng, SmallRng};

/// The thread counts every batch is re-priced under. Includes 1 (the
/// inline path), an even split, a prime that never divides the session
/// count evenly, and more workers than most batches have sessions.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// A random topology: UDG (sparse, organically disconnected) or
/// Erdős–Rényi, with one guaranteed-isolated node appended so every
/// batch exercises the unreachable-destination path.
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
    // Re-home the edges into an (n+1)-node graph: node n stays isolated.
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

/// Every node of the topology sessions toward `ap` — direct neighbors
/// (zero relays), distant nodes (multi-relay), the isolated node
/// (unreachable), plus one duplicate to hit the warm cache twice.
fn sessions_to_ap(n: usize, ap: NodeId) -> Vec<SessionQuery> {
    let mut qs: Vec<SessionQuery> = (0..n as u32)
        .map(NodeId)
        .filter(|&s| s != ap)
        .map(|s| SessionQuery::new(s, ap))
        .collect();
    let first = qs[0];
    qs.push(first); // duplicate session: same answer, cache hit
    qs
}

/// Node-weighted model: batch output equals `fast_payments` per session,
/// at every thread count, on UDG and Erdős–Rényi instances with both
/// wide-range and tie-heavy cost profiles.
#[test]
fn node_batch_matches_fast_payments() {
    forall!(cases(48), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, ties));
        let ap = NodeId(0);
        let qs = sessions_to_ap(n, ap);
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            let got = engine.price_batch(&qs);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
            prop_assert_eq!(engine.cached_targets(), 1);
        }
        Ok(())
    });
}

/// The all-to-AP convenience equals the sequential `price_all_sources`
/// slot for slot (the AP's own slot is `None`).
#[test]
fn all_to_ap_matches_sequential_sweep() {
    forall!(cases(32), (0u64..1 << 48, bools()), |(seed, udg)| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, false));
        let ap = NodeId((seed % n as u64) as u32);
        let expected = price_all_sources(&g, ap);
        for threads in THREADS {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            prop_assert_eq!(
                &engine.price_all_to_ap(ap),
                &expected,
                "threads={}",
                threads
            );
        }
        Ok(())
    });
}

/// Mixed destinations in one batch: the cache holds one table per
/// distinct destination and every session still matches its per-session
/// run.
#[test]
fn mixed_destination_batch_matches() {
    forall!(cases(32), (0u64..1 << 48, bools()), |(seed, ties)| {
        let adj = random_topology(seed, false);
        let n = adj.num_nodes();
        let g = NodeWeightedGraph::new(adj, random_costs(n, seed, ties));
        // Sessions fan out to two access points (and to the isolated node).
        let aps = [NodeId(0), NodeId(1), NodeId(n as u32 - 1)];
        let mut qs = Vec::new();
        for &ap in &aps {
            for s in 0..n as u32 {
                let s = NodeId(s);
                if s != ap {
                    qs.push(SessionQuery::new(s, ap));
                }
            }
        }
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            let got = engine.price_batch(&qs);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
            prop_assert_eq!(engine.cached_targets(), aps.len());
        }
        Ok(())
    });
}

/// Symmetric link-cost model: batch output equals
/// `fast_symmetric_payments` per session at every thread count.
#[test]
fn link_batch_matches_fast_symmetric_payments() {
    forall!(cases(48), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let adj = random_topology(seed, udg);
        let n = adj.num_nodes();
        // Separate RNG stream from the node-model cost draw.
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
        let qs = sessions_to_ap(n, ap);
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_symmetric_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let mut engine = LinkPaymentEngine::with_threads(&g, threads);
            let got = engine.price_batch(&qs);
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
        Ok(())
    });
}

/// A connected seeded topology of `n` nodes: unit-disk on even seeds,
/// G(n, p) on odd.
fn connected_topology(seed: u64, n: usize) -> Adjacency {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..64 {
        let adj = if seed.is_multiple_of(2) {
            let side = (n as f64 * 300.0 * 300.0 * std::f64::consts::PI / 12.0).sqrt();
            random_udg(n, Region::new(side, side), 300.0, &mut rng).1
        } else {
            erdos_renyi(n, 0.12, &mut rng)
        };
        if is_connected(&adj) {
            return adj;
        }
    }
    panic!("seed {seed:#x}: no connected {n}-node topology in 64 attempts");
}

/// Fixed-seed connected instances, larger than the property cases, with
/// tie-heavy costs (node costs in `0..4`, so zero-cost relays occur; link
/// costs in `1..5`): every all-to-AP batch equals the one-shot algorithm
/// at every thread count.
#[test]
fn connected_tie_heavy_seeds_match_one_shot() {
    for (seed, n) in [
        (0xB0u64, 40),
        (0xB1, 40),
        (0xB2, 40),
        (0xB3, 40),
        (0xB6, 32),
        (0xB7, 32),
    ] {
        let adj = connected_topology(seed, n);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC057);
        let costs: Vec<Cost> = (0..n)
            .map(|_| Cost::from_units(rng.gen_range(0u64..4)))
            .collect();
        let g = NodeWeightedGraph::new(adj, costs);
        let qs = sessions_to_ap(n, NodeId(0));
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let got = PaymentEngine::with_threads(&g, threads).price_batch(&qs);
            assert_eq!(got, expected, "seed {seed:#x}, {threads} threads");
        }
    }
    for (seed, n) in [(0xB4u64, 36), (0xB5, 36), (0xB6, 32), (0xB7, 32)] {
        let adj = connected_topology(seed, n);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x11AB);
        let arcs: Vec<_> = adj
            .edges()
            .flat_map(|(u, v)| {
                let w = Cost::from_units(rng.gen_range(1u64..5));
                [(u, v, w), (v, u, w)]
            })
            .collect();
        let g = LinkWeightedDigraph::from_arcs(n, arcs);
        let qs = sessions_to_ap(n, NodeId(0));
        let expected: Vec<_> = qs
            .iter()
            .map(|q| fast_symmetric_payments(&g, q.source, q.target))
            .collect();
        for threads in THREADS {
            let mut engine = LinkPaymentEngine::with_threads(&g, threads);
            assert!(engine.is_symmetric());
            assert_eq!(
                engine.price_batch(&qs),
                expected,
                "seed {seed:#x}, {threads} threads"
            );
        }
    }
}

/// An asymmetric digraph prices every session to `None`, exactly like
/// the per-session algorithm.
#[test]
fn asymmetric_link_batch_is_all_none() {
    let g = LinkWeightedDigraph::from_arcs(
        3,
        [
            (NodeId(0), NodeId(1), Cost::from_units(1)),
            (NodeId(1), NodeId(0), Cost::from_units(2)), // asymmetric pair
            (NodeId(1), NodeId(2), Cost::from_units(3)),
            (NodeId(2), NodeId(1), Cost::from_units(3)),
        ],
    );
    let qs = [
        SessionQuery::new(NodeId(0), NodeId(2)),
        SessionQuery::new(NodeId(1), NodeId(2)),
    ];
    for threads in THREADS {
        let mut engine = LinkPaymentEngine::with_threads(&g, threads);
        assert!(!engine.is_symmetric());
        assert_eq!(engine.price_batch(&qs), vec![None, None]);
        assert_eq!(
            fast_symmetric_payments(&g, NodeId(0), NodeId(2)),
            None,
            "oracle agrees the asymmetric graph is unpriceable"
        );
    }
}

/// Empty batches are fine at every thread count.
#[test]
fn empty_batch_is_empty() {
    let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0]);
    for threads in THREADS {
        let mut engine = PaymentEngine::with_threads(&g, threads);
        assert_eq!(engine.price_batch(&[]), Vec::new());
        assert_eq!(engine.cached_targets(), 0);
    }
}
