//! Fault injection: an epoch that panics inside the shards publishes
//! nothing. Serving continues at the previous generation, and the next
//! valid epoch publishes tables bit-identical to `all_sources_payments`
//! — no half-repaired engine state leaks into it, including from shards
//! that finished the failed epoch before another shard panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use truthcast_core::all_sources_payments;
use truthcast_core::delta::EpochOutcome;
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::Region;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig};

const APS: [NodeId; 2] = [NodeId(0), NodeId(5)];

/// A sparse unit-disk graph over `points` (about 12 neighbours each).
fn udg(points: &[truthcast_graph::geometry::Point], costs: &[Cost]) -> NodeWeightedGraph {
    let pairs: Vec<(u32, u32)> = pairs_within_range(points, 300.0)
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect();
    NodeWeightedGraph::new(adjacency_from_pairs(points.len(), &pairs), costs.to_vec())
}

/// Serves every non-AP node and checks each outcome against the argmin
/// of the library oracle over `g`, at `generation`.
fn assert_serves(service: &PaymentService, g: &NodeWeightedGraph, generation: u64) {
    let tables: Vec<_> = APS.iter().map(|&ap| all_sources_payments(g, ap)).collect();
    let sources: Vec<NodeId> = (0..g.num_nodes() as u32)
        .map(NodeId)
        .filter(|v| !APS.contains(v))
        .collect();
    for (v, out) in sources.iter().zip(service.serve_batch(&sources)) {
        let mut best: Option<(usize, Cost)> = None;
        for (i, t) in tables.iter().enumerate() {
            if let Some(p) = &t[v.index()] {
                if best.is_none_or(|(_, b)| p.lcp_cost < b) {
                    best = Some((i, p.lcp_cost));
                }
            }
        }
        match out {
            ServeOutcome::Settled(s) => {
                assert_eq!(s.generation, generation);
                assert_eq!(Some((s.ap_index, s.pricing.lcp_cost)), best, "source {v:?}");
                assert_eq!(Some(&*s.pricing), tables[s.ap_index][v.index()].as_ref());
            }
            ServeOutcome::Unreachable => assert_eq!(best, None, "source {v:?}"),
            ServeOutcome::Shed { .. } => panic!("unbounded queue never sheds"),
        }
    }
    service.drain();
}

fn assert_tables(service: &PaymentService, g: &NodeWeightedGraph, generation: u64) {
    assert_eq!(service.generation(), generation);
    for (shard, &ap) in service.shards().iter().zip(&APS) {
        assert!(
            *shard.cell().read().pricing == all_sources_payments(g, ap),
            "AP {ap:?}"
        );
    }
}

#[test]
fn panicking_epoch_publishes_nothing_and_leaks_nothing() {
    let n = 60;
    let mut rng = SmallRng::seed_from_u64(3);
    let side = (n as f64 * std::f64::consts::PI * 300.0 * 300.0 / 12.0).sqrt();
    let mut points = random_placement(n, Region::new(side, side), &mut rng);
    let mut costs: Vec<Cost> = (0..n)
        .map(|_| Cost::from_f64(rng.gen_range(1.0..50.0)))
        .collect();
    let g0 = udg(&points, &costs);
    let service = PaymentService::new(&ServiceConfig::new(APS.to_vec()).threads(1), &g0);
    assert_tables(&service, &g0, 1);

    // Node 17 leaves; the last node is renumbered into its slot.
    let dead = NodeId(17);
    points.swap_remove(dead.index());
    costs.swap_remove(dead.index());
    let g1 = udg(&points, &costs);

    // Fault 1: a map whose old side does not match the previous graph
    // (a renumbering of g1's own node set). Every shard's engine asserts
    // this after taking its warm state.
    let mut renumber: Vec<Option<NodeId>> = (0..n - 1).map(|i| Some(NodeId::new(i))).collect();
    renumber.swap(10, 11);
    let bad_map = NodeMap::from_old_to_new(renumber, n - 1);
    let failed = catch_unwind(AssertUnwindSafe(|| {
        service.begin_epoch_mapped(&g1, &bad_map)
    }));
    assert!(failed.is_err(), "a mismatched map must panic");
    assert_eq!(
        service.generation(),
        1,
        "a panicking epoch publishes nothing"
    );
    assert_serves(&service, &g0, 1);

    // Fault 2: only the second shard panics (its AP lies outside the
    // graph) after the first shard has already priced the epoch.
    let tiny = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 3, 4]);
    let failed = catch_unwind(AssertUnwindSafe(|| service.begin_epoch(&tiny)));
    assert!(failed.is_err(), "an AP outside the graph must panic");
    assert_eq!(service.generation(), 1);
    assert_serves(&service, &g0, 1);

    // The next valid epoch re-warms every shard and is exact.
    let outcomes = service.begin_epoch_mapped(&g1, &NodeMap::leave_swap(n, dead));
    assert_eq!(outcomes, vec![EpochOutcome::Cold; APS.len()]);
    assert_tables(&service, &g1, 2);
    assert_serves(&service, &g1, 2);

    // And warm repair resumes from there.
    points.swap_remove(30);
    costs.swap_remove(30);
    let g2 = udg(&points, &costs);
    let outcomes = service.begin_epoch_mapped(&g2, &NodeMap::leave_swap(n - 1, NodeId(30)));
    assert!(
        outcomes.iter().all(|o| matches!(
            o,
            EpochOutcome::WarmResize { .. } | EpochOutcome::Fallback { .. }
        )),
        "{outcomes:?}"
    );
    assert_tables(&service, &g2, 3);
    assert_serves(&service, &g2, 3);
}
