//! Differential battery: the radix-heap Dijkstra sweeps must agree with a
//! textbook binary-heap Dijkstra on every sweep family.
//!
//! The monotone radix heap is the only queue behind the library's sweeps.
//! The reference here is a test-local textbook Dijkstra over the public
//! binary [`IndexedHeap`], written independently of the workspace code;
//! on unmasked instances the reference is itself checked against the
//! Bellman–Ford oracles (`bellman_ford_node` / `bellman_ford_arcs`).
//!
//! The two queues break ties among equal-priority entries differently, so
//! *paths and parent pointers* may legitimately differ on tie-heavy
//! instances. What is tie-independent — and therefore asserted
//! bit-exactly — is:
//!
//! * the full distance table (hence the reached set),
//! * local consistency of each sweep's own parent tree
//!   (`dist[v] == dist[parent(v)] + step cost`, root at the origin),
//! * early-exit sweeps: the settled *prefix* depends on tie order, so
//!   only the target's distance is compared.
//!
//! Instances cover random unit-disk and Erdős–Rényi topologies, masked
//! node removal, undirected edge removal, and a tie-heavy small-integer
//! cost regime that maximizes equal-priority pressure on both queues.

use truthcast_graph::bellman_ford::{bellman_ford_arcs, bellman_ford_node};
use truthcast_graph::connectivity::is_connected;
use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::generators::{erdos_renyi, random_udg};
use truthcast_graph::geometry::Region;
use truthcast_graph::heap::IndexedHeap;
use truthcast_graph::node_dijkstra::{node_dijkstra_in, NodeDijkstraOptions};
use truthcast_graph::{
    Adjacency, Cost, DijkstraWorkspace, LinkWeightedDigraph, NodeId, NodeMask, NodeWeightedGraph,
};
use truthcast_rt::{cases, forall, prop_assert, prop_assert_eq, subsequence, Strategy};
use truthcast_rt::{Rng, SeedableRng, SmallRng};

/// Strategy: a random undirected graph as (n, edge list) with n in 2..14.
fn small_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..14).prop_flat_map(|n| {
        let all_pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        subsequence(all_pairs, 0..=n * (n - 1) / 2).prop_map(move |edges| (n, edges))
    })
}

/// The distance and parent tables of one sweep.
struct Tables {
    dist: Vec<Cost>,
    parent: Vec<Option<NodeId>>,
}

impl Tables {
    fn dist(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }
}

/// Textbook Dijkstra over the binary [`IndexedHeap`]: `steps(u)` lists the
/// `(v, step cost)` moves out of `u`, and the sweep stops once `target`
/// is settled.
fn reference_sweep(
    n: usize,
    origin: NodeId,
    target: Option<NodeId>,
    steps: impl Fn(NodeId) -> Vec<(NodeId, Cost)>,
) -> Tables {
    let mut dist = vec![Cost::INF; n];
    let mut parent = vec![None; n];
    let mut heap = IndexedHeap::new(n);
    dist[origin.index()] = Cost::ZERO;
    heap.push(origin.0, Cost::ZERO);
    while let Some((key, du)) = heap.pop_min() {
        let u = NodeId(key);
        if Some(u) == target {
            break;
        }
        for (v, w) in steps(u) {
            let cand = du + w;
            if cand < dist[v.index()] {
                dist[v.index()] = cand;
                parent[v.index()] = Some(u);
                heap.push_or_update(v.0, cand);
            }
        }
    }
    Tables { dist, parent }
}

/// Reference node-weighted sweep (inclusive tail distances, the
/// `node_dijkstra` convention), skipping nodes blocked by `avoid`.
fn reference_node(
    g: &NodeWeightedGraph,
    origin: NodeId,
    avoid: Option<&NodeMask>,
    target: Option<NodeId>,
) -> Tables {
    reference_sweep(g.num_nodes(), origin, target, |u| {
        g.neighbors(u)
            .iter()
            .filter(|&&v| !avoid.is_some_and(|m| m.is_blocked(v)))
            .map(|&v| (v, g.cost(v)))
            .collect()
    })
}

/// Reference edge-weighted sweep in `direction`, never crossing the
/// undirected link `avoid_edge`.
fn reference_link(
    g: &LinkWeightedDigraph,
    origin: NodeId,
    direction: Direction,
    avoid_edge: Option<(NodeId, NodeId)>,
) -> Tables {
    reference_sweep(g.num_nodes(), origin, None, |u| {
        let row = match direction {
            Direction::Forward => g.out_arcs(u),
            Direction::Backward => g.in_arcs(u),
        };
        row.iter()
            .filter(|a| {
                !avoid_edge.is_some_and(|(x, y)| (u, a.head) == (x, y) || (u, a.head) == (y, x))
            })
            .map(|a| (a.head, a.weight))
            .collect()
    })
}

/// Asserts the radix sweep agrees with the reference on every distance
/// (and therefore on the reached set), and that each one's parent tree is
/// locally consistent under `step(parent, v)` — the tie-independent
/// contract.
fn assert_sweeps_agree(
    radix: &DijkstraWorkspace,
    reference: &Tables,
    n: usize,
    origin: NodeId,
    step: impl Fn(NodeId, NodeId) -> Cost,
) {
    let radix = Tables {
        dist: (0..n).map(|v| radix.dist(NodeId::new(v))).collect(),
        parent: (0..n).map(|v| radix.parent(NodeId::new(v))).collect(),
    };
    assert_eq!(radix.dist, reference.dist, "distance tables diverge");
    for sweep in [&radix, reference] {
        for v in (0..n).map(NodeId::new) {
            match sweep.parent[v.index()] {
                Some(p) => {
                    assert!(sweep.dist(p).is_finite(), "parent of {v} unreached");
                    assert_eq!(
                        sweep.dist(v),
                        sweep.dist(p) + step(p, v),
                        "parent tree inconsistent at {v}"
                    );
                }
                None => {
                    // Only the origin and unreached nodes lack a parent.
                    assert!(
                        v == origin || sweep.dist(v).is_inf(),
                        "reached non-origin {v} has no parent"
                    );
                }
            }
        }
    }
}

/// The reversed digraph: backward sweeps on `g` are forward sweeps on it.
fn reversed(g: &LinkWeightedDigraph) -> LinkWeightedDigraph {
    LinkWeightedDigraph::from_arcs(g.num_nodes(), g.arcs().map(|(u, v, w)| (v, u, w)))
}

/// Seeded LCG for per-case cost streams inside `forall!` closures.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    }
}

/// Node-weighted sweeps: full tables, every origin, with and without a
/// masked (removed) relay. Tie-heavy costs (`% 4`) on odd seeds.
#[test]
fn node_sweeps_agree_with_and_without_masks() {
    forall!(cases(96), (small_graph(), 0u64..1_000_000), |(
        (n, edges),
        seed,
    )| {
        let mut next = lcg(seed);
        let modulus = if seed % 2 == 1 { 4 } else { 50 };
        let costs: Vec<u64> = (0..n).map(|_| next() % modulus).collect();
        let g = NodeWeightedGraph::from_pairs_units(&edges, &costs);
        let mut radix = DijkstraWorkspace::with_capacity(n);
        for origin in (0..n).map(NodeId::new) {
            node_dijkstra_in(&mut radix, &g, origin, NodeDijkstraOptions::default());
            let reference = reference_node(&g, origin, None, None);
            assert_sweeps_agree(&radix, &reference, n, origin, |_, v| g.cost(v));
            prop_assert_eq!(&reference.dist, &bellman_ford_node(&g, origin));

            // Masked relay removal: block one non-origin node.
            let blocked = NodeId::new((origin.index() + 1) % n);
            let mask = NodeMask::from_nodes(n, [blocked]);
            let opts = NodeDijkstraOptions {
                avoid: Some(&mask),
                target: None,
            };
            node_dijkstra_in(&mut radix, &g, origin, opts);
            let reference = reference_node(&g, origin, Some(&mask), None);
            for v in (0..n).map(NodeId::new) {
                prop_assert_eq!(radix.dist(v), reference.dist(v));
            }
            prop_assert!(radix.dist(blocked).is_inf());
        }
        Ok(())
    });
}

/// Edge-weighted sweeps: both directions, full tables, plus undirected
/// edge removal — distances must match the reference arc-exactly.
#[test]
fn link_sweeps_agree_in_both_directions() {
    forall!(cases(96), (small_graph(), 0u64..1_000_000), |(
        (n, edges),
        seed,
    )| {
        let mut next = lcg(seed ^ 0xABCD);
        let modulus = if seed % 2 == 1 { 3 } else { 40 };
        let arcs: Vec<(NodeId, NodeId, Cost)> = edges
            .iter()
            .flat_map(|&(u, v)| {
                [
                    (NodeId(u), NodeId(v), Cost::from_units(next() % modulus + 1)),
                    (NodeId(v), NodeId(u), Cost::from_units(next() % modulus + 1)),
                ]
            })
            .collect();
        let g = LinkWeightedDigraph::from_arcs(n, arcs);
        let mut radix = DijkstraWorkspace::with_capacity(n);
        for direction in [Direction::Forward, Direction::Backward] {
            let origin = NodeId(0);
            dijkstra_in(
                &mut radix,
                &g,
                origin,
                direction,
                DijkstraOptions::default(),
            );
            let reference = reference_link(&g, origin, direction, None);
            let step = |p: NodeId, v: NodeId| match direction {
                Direction::Forward => g.arc_cost(p, v),
                Direction::Backward => g.arc_cost(v, p),
            };
            assert_sweeps_agree(&radix, &reference, n, origin, step);
            let oracle = match direction {
                Direction::Forward => bellman_ford_arcs(&g, origin),
                Direction::Backward => bellman_ford_arcs(&reversed(&g), origin),
            };
            prop_assert_eq!(&reference.dist, &oracle);
        }
        // Undirected edge removal along each original pair.
        for &(u, v) in edges.iter().take(4) {
            let removed = (NodeId(u), NodeId(v));
            let opts = DijkstraOptions {
                avoid: None,
                avoid_edge: Some(removed),
                target: None,
            };
            dijkstra_in(&mut radix, &g, NodeId(0), Direction::Forward, opts);
            let reference = reference_link(&g, NodeId(0), Direction::Forward, Some(removed));
            for w in (0..n).map(NodeId::new) {
                prop_assert_eq!(radix.dist(w), reference.dist(w));
            }
        }
        Ok(())
    });
}

/// Early-exit sweeps settle queue-dependent prefixes, so only the
/// target's distance is comparable — and it must match the full sweep.
#[test]
fn early_exit_targets_agree() {
    forall!(cases(96), (small_graph(), 0u64..1_000_000), |(
        (n, edges),
        seed,
    )| {
        let mut next = lcg(seed ^ 0x5EED);
        let costs: Vec<u64> = (0..n).map(|_| next() % 6).collect();
        let g = NodeWeightedGraph::from_pairs_units(&edges, &costs);
        let mut radix = DijkstraWorkspace::with_capacity(n);
        for t in (1..n).map(NodeId::new) {
            let opts = NodeDijkstraOptions {
                avoid: None,
                target: Some(t),
            };
            node_dijkstra_in(&mut radix, &g, NodeId(0), opts);
            let reference = reference_node(&g, NodeId(0), None, Some(t));
            prop_assert_eq!(radix.dist(t), reference.dist(t));
            node_dijkstra_in(&mut radix, &g, NodeId(0), NodeDijkstraOptions::default());
            prop_assert_eq!(radix.dist(t), reference.dist(t));
        }
        Ok(())
    });
}

/// Wireless-scale seeded instances: connected unit-disk and G(n, p)
/// topologies with micro-unit costs — the regime the benchmarks measure.
#[test]
fn engines_agree_on_wireless_topologies() {
    for seed in [0xA1u64, 0xA2, 0xA3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let side = (96.0f64 * 300.0 * 300.0 * std::f64::consts::PI / 12.0).sqrt();
        let adj = loop {
            let (_, adj) = random_udg(96, Region::new(side, side), 300.0, &mut rng);
            if is_connected(&adj) {
                break adj;
            }
        };
        check_wireless_instance(adj, &mut rng);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE5);
        let adj = loop {
            let adj = erdos_renyi(64, 0.08, &mut rng);
            if is_connected(&adj) {
                break adj;
            }
        };
        check_wireless_instance(adj, &mut rng);
    }
}

fn check_wireless_instance(adj: Adjacency, rng: &mut SmallRng) {
    let n = adj.num_nodes();
    let costs: Vec<Cost> = (0..n)
        .map(|_| Cost::from_micros(rng.gen_range(0u64..100_000_000)))
        .collect();
    let g = NodeWeightedGraph::new(adj, costs);
    let mut radix = DijkstraWorkspace::with_capacity(n);
    for origin in [NodeId(0), NodeId::new(n / 2), NodeId::new(n - 1)] {
        node_dijkstra_in(&mut radix, &g, origin, NodeDijkstraOptions::default());
        let reference = reference_node(&g, origin, None, None);
        assert_sweeps_agree(&radix, &reference, n, origin, |_, v| g.cost(v));
        assert_eq!(reference.dist, bellman_ford_node(&g, origin));
    }
}
