//! Epoch swaps under load: readers price continuously while a swapper
//! drives the service through several epochs. Every batch reads one
//! published epoch, so every settlement in it carries that epoch's one
//! generation and matches the oracle for exactly that generation —
//! there is no torn table and no mixed-epoch batch. And readers never
//! wait for an epoch to be priced: they keep settling while one is in
//! flight, each batch taking far less time than one epoch's re-pricing.
//!
//! Node join/leave mid-run is included both ways: unmapped resize
//! epochs must surface per-shard as [`EpochOutcome::ColdResize`]
//! (counted under `service.epoch.cold_resizes`), and identity-mapped
//! churn epochs driven through `begin_epoch_mapped` must surface as
//! [`EpochOutcome::WarmResize`] (counted under
//! `service.epoch.warm_resizes`).
//!
//! Single-test binary: asserts on the global `truthcast-obs` counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use truthcast_core::delta::EpochOutcome;
use truthcast_core::{all_sources_payments, UnicastPricing};
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::geometry::Region;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig, Settlement};

const READERS: usize = 3;
const SWAPS: usize = 6;

/// Epoch graphs, each with the [`NodeMap`] to drive it through (`None`
/// = the unmapped `begin_epoch` path): a base 8-node double-diamond,
/// cost tweaks for most epochs, one *unmapped* join/leave pair in the
/// middle (cold resizes), and a *mapped* join/leave pair at the end
/// (warm resizes). Both maps keep the APs (0 and 7) at their indices:
/// the join appends, and the leave removes the last index, which
/// `leave_swap` encodes as pure truncation.
fn epoch_graphs() -> Vec<(NodeWeightedGraph, Option<NodeMap>)> {
    let pairs8 = [
        (0, 1),
        (1, 2),
        (2, 7),
        (0, 3),
        (3, 7),
        (7, 4),
        (4, 5),
        (5, 6),
        (2, 6),
    ];
    let g0 = NodeWeightedGraph::from_pairs_units(&pairs8, &[0, 5, 3, 9, 2, 4, 6, 0]);
    let g1 = g0.with_declared(NodeId(1), Cost::from_units(2));
    // Node 8 joins, bridging the two diamonds.
    let mut pairs9: Vec<(u32, u32)> = pairs8.to_vec();
    pairs9.extend([(1, 8), (8, 5)]);
    let g2 = NodeWeightedGraph::from_pairs_units(&pairs9, &[0, 2, 3, 9, 2, 4, 6, 0, 1]);
    // Node 8 leaves again; relay 3 gets cheap.
    let g3 = g1.with_declared(NodeId(3), Cost::from_units(1));
    let g4 = g3.with_declared(NodeId(4), Cost::from_units(9));
    // Node 8 re-joins — this time with its identity carried in a map,
    // so the shards repair through the churn instead of going cold.
    let g5 = NodeWeightedGraph::from_pairs_units(&pairs9, &[0, 2, 3, 1, 9, 4, 6, 0, 1]);
    // And leaves again, also warm.
    let g6 = g4.clone();
    vec![
        (g0, None),
        (g1, None),
        (g2, None),
        (g3, None),
        (g4, None),
        (g5, Some(NodeMap::join(8, 1))),
        (g6, Some(NodeMap::leave_swap(9, NodeId(8)))),
    ]
}

/// Per-source expected settlement for one epoch: `(ap_index, lcp)` by
/// the lowest-index argmin over the library oracle.
fn expected_for(g: &NodeWeightedGraph, aps: &[NodeId]) -> Vec<Option<(usize, Cost)>> {
    let tables: Vec<_> = aps.iter().map(|&ap| all_sources_payments(g, ap)).collect();
    (0..g.num_nodes())
        .map(|v| {
            let mut best: Option<(usize, Cost)> = None;
            for (i, t) in tables.iter().enumerate() {
                if let Some(p) = t[v].as_ref() {
                    match best {
                        Some((_, b)) if p.lcp_cost >= b => {}
                        _ => best = Some((i, p.lcp_cost)),
                    }
                }
            }
            best
        })
        .collect()
}

#[test]
fn swaps_never_block_readers() {
    truthcast_obs::enable();
    truthcast_obs::reset();

    let graphs = epoch_graphs();
    let aps = vec![NodeId(0), NodeId(7)];
    // Readers use sources that exist in every epoch (indices < 8).
    let sources: Vec<NodeId> = (1..7).map(NodeId).collect();
    // expected[e][v]: generation e + 1 prices epoch graph e.
    let expected: Vec<_> = graphs.iter().map(|(g, _)| expected_for(g, &aps)).collect();

    // Threshold 1.0 pins every same-identity epoch to the repair path
    // (same convention as the engine-level batteries), so the mapped
    // churn epochs must surface as WarmResize on these small graphs.
    let cfg = ServiceConfig::new(aps.clone())
        .threads(1)
        .damage_threshold(1.0);
    let service = PaymentService::new(&cfg, &graphs[0].0);
    assert_eq!(service.generation(), 1);

    let done = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    let mut generations_seen: Vec<Vec<u64>> = Vec::new();
    let mut swap_log: Vec<(usize, Vec<EpochOutcome>, u64)> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..READERS {
            handles.push(scope.spawn(|| {
                let mut seen = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let out = service.serve_batch(&sources);
                    let batch_gen = out[0].settlement().map(|s| s.generation);
                    for outcome in out {
                        let s = match outcome {
                            ServeOutcome::Settled(s) => s,
                            other => panic!("reader sources always settle, got {other:?}"),
                        };
                        let gen = s.generation;
                        assert_eq!(Some(gen), batch_gen, "a batch mixed two epochs");
                        assert!(
                            (1..=(SWAPS + 1) as u64).contains(&gen),
                            "generation {gen} out of range"
                        );
                        let want = expected[(gen - 1) as usize][s.source.index()]
                            .expect("settleable in every epoch");
                        assert_eq!(
                            (s.ap_index, s.pricing.lcp_cost),
                            want,
                            "settlement must match the oracle for its own generation {gen}"
                        );
                        seen.push(gen);
                    }
                    batches.fetch_add(1, Ordering::Relaxed);
                }
                seen
            }));
        }

        // The swapper: drive the remaining epochs while readers hammer.
        // Outcomes are only *recorded* here and asserted after `done` is
        // set — a swapper assert inside the scope would leave the reader
        // loops running forever while the scope waits to join them.
        for (e, (g, map)) in graphs.iter().enumerate().skip(1) {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let outcomes = match map {
                Some(m) => service.begin_epoch_mapped(g, m),
                None => service.begin_epoch(g),
            };
            swap_log.push((e, outcomes, service.generation()));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        done.store(true, Ordering::Relaxed);
        for h in handles {
            generations_seen.push(h.join().expect("reader panicked"));
        }
    });

    for (e, outcomes, generation) in &swap_log {
        let (g, map) = &graphs[*e];
        assert_eq!(outcomes.len(), aps.len());
        if map.is_some() {
            for o in outcomes {
                assert!(
                    matches!(o, EpochOutcome::WarmResize { .. }),
                    "mapped churn epoch {e} must surface as WarmResize, got {o:?}"
                );
            }
        } else if g.num_nodes() != graphs[e - 1].0.num_nodes() {
            for o in outcomes {
                assert!(
                    matches!(o, EpochOutcome::ColdResize { .. }),
                    "unmapped join/leave epoch {e} must surface as ColdResize, got {o:?}"
                );
            }
        }
        assert_eq!(*generation, (*e + 1) as u64);
    }

    let snap = truthcast_obs::snapshot();
    truthcast_obs::disable();

    assert_eq!(
        snap.counter("service.epoch.swaps"),
        SWAPS as u64,
        "one publication per epoch"
    );
    assert_eq!(
        snap.counter("service.epoch.cold_resizes"),
        (2 * aps.len()) as u64,
        "the unmapped join/leave pair stays cold"
    );
    assert_eq!(
        snap.counter("service.epoch.warm_resizes"),
        (2 * aps.len()) as u64,
        "the mapped join/leave pair repairs warm"
    );
    assert!(batches.load(Ordering::Relaxed) > 0, "readers made progress");
    for seen in &generations_seen {
        assert!(!seen.is_empty(), "every reader settled sessions");
    }
    // Readers collectively observed both the first and the last epoch
    // (they started before swap 1 and ran past the last swap).
    let all: Vec<u64> = generations_seen.iter().flatten().copied().collect();
    assert!(all.contains(&1), "pre-swap generation observed");
    assert!(
        all.contains(&((SWAPS + 1) as u64)),
        "post-swap generation observed"
    );

    readers_settle_while_an_epoch_is_in_flight();
    held_settlements_outlive_their_epoch();
}

/// A graph large enough that pricing one epoch takes milliseconds, so
/// "in flight" is observable: readers time every batch while the
/// swapper alternates between `g` and `g` minus its last node through
/// the unmapped path, so every epoch re-prices cold. Every batch must
/// still settle exactly for its generation's graph, some batches must
/// complete while an epoch is being priced, and the slowest batch must
/// take well under the typical epoch.
fn readers_settle_while_an_epoch_is_in_flight() {
    // Tens of milliseconds per epoch even in a debug build: a batch the
    // scheduler preempts for a millisecond or two must stay far below a
    // quarter of it.
    const N: usize = 1000;
    const EPOCHS: usize = 4;
    let mut rng = SmallRng::seed_from_u64(7);
    let side = (N as f64 * std::f64::consts::PI * 300.0 * 300.0 / 12.0).sqrt();
    let points = random_placement(N, Region::new(side, side), &mut rng);
    let costs: Vec<Cost> = (0..N)
        .map(|_| Cost::from_units(rng.gen_range(1..50)))
        .collect();
    let graph = |n: usize| {
        let pairs: Vec<(u32, u32)> = pairs_within_range(&points[..n], 300.0)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        NodeWeightedGraph::new(adjacency_from_pairs(n, &pairs), costs[..n].to_vec())
    };
    let graphs = [graph(N), graph(N - 1)];
    let aps = vec![NodeId(0), NodeId(1)];
    let expected: Vec<_> = graphs.iter().map(|g| expected_for(g, &aps)).collect();
    let sources: Vec<NodeId> = (2..10).map(NodeId).collect();

    let service = PaymentService::new(&ServiceConfig::new(aps.clone()).threads(1), &graphs[0]);
    let done = AtomicBool::new(false);
    let mut windows: Vec<(Instant, Instant)> = Vec::new();
    let mut batches: Vec<(Instant, Duration)> = Vec::new();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut log = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let out = service.serve_batch(&sources);
                let t1 = Instant::now();
                for (v, o) in sources.iter().zip(&out) {
                    let s = o.settlement().expect("unbounded queue never sheds");
                    let want = expected[((s.generation - 1) % 2) as usize][v.index()];
                    assert_eq!(Some((s.ap_index, s.pricing.lcp_cost)), want);
                }
                log.push((t1, t1 - t0));
                service.drain();
            }
            log
        });
        for e in 1..=EPOCHS {
            std::thread::sleep(Duration::from_millis(10));
            let t0 = Instant::now();
            service.begin_epoch(&graphs[e % 2]);
            windows.push((t0, Instant::now()));
        }
        done.store(true, Ordering::Relaxed);
        batches = reader.join().expect("reader panicked");
    });

    assert_eq!(service.generation(), (EPOCHS + 1) as u64);
    let in_flight = batches
        .iter()
        .filter(|(end, _)| windows.iter().any(|(a, b)| a < end && end < b))
        .count();
    assert!(
        in_flight > 0,
        "no batch settled while an epoch was in flight"
    );
    let mut epoch_times: Vec<Duration> = windows.iter().map(|(a, b)| *b - *a).collect();
    epoch_times.sort();
    let slowest_batch = batches.iter().map(|&(_, d)| d).max().expect("batches ran");
    assert!(
        slowest_batch < epoch_times[EPOCHS / 2] / 4,
        "a batch took {slowest_batch:?}; epochs took {epoch_times:?}"
    );
}

/// A settlement is a view into the epoch it priced against, and holding
/// it keeps that epoch's table alive. Batches served at generations 1–3
/// are kept — the returned settlements and the copies left undrained in
/// the queues — while three mobility epochs repair the shards' tables
/// underneath. Every held settlement still reports its generation and
/// that generation's oracle row, bit for bit.
fn held_settlements_outlive_their_epoch() {
    const N: usize = 60;
    let mut rng = SmallRng::seed_from_u64(11);
    let region = Region::new(1200.0, 1200.0);
    let mut points = random_placement(N, region, &mut rng);
    let costs: Vec<Cost> = (0..N)
        .map(|_| Cost::from_units(rng.gen_range(1..50)))
        .collect();
    let graph = |points: &[_]| {
        let pairs: Vec<(u32, u32)> = pairs_within_range(points, 350.0)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        NodeWeightedGraph::new(adjacency_from_pairs(N, &pairs), costs.clone())
    };
    let aps = vec![NodeId(0), NodeId(1)];
    let oracle = |g: &NodeWeightedGraph| -> Vec<Vec<Option<UnicastPricing>>> {
        aps.iter().map(|&ap| all_sources_payments(g, ap)).collect()
    };
    let sources: Vec<NodeId> = (2..N as u32).map(NodeId).collect();

    // Threshold 1.0 keeps every epoch on the repair path, which writes
    // into the engine's table while the settlements still hold it.
    let cfg = ServiceConfig::new(aps.clone())
        .threads(2)
        .damage_threshold(1.0);
    let g0 = graph(&points);
    let service = PaymentService::new(&cfg, &g0);
    let mut oracles = vec![oracle(&g0)];
    let mut held: Vec<Settlement> = Vec::new();
    for epoch in 1..=3 {
        let out = service.serve_batch(&sources);
        held.extend(out.iter().filter_map(|o| o.settlement().cloned()));
        for _ in 0..5 {
            let v = rng.gen_range(2..N);
            points[v].x = rng.gen_range(0.0..=region.width);
            points[v].y = rng.gen_range(0.0..=region.height);
        }
        let g = graph(&points);
        let outcomes = service.begin_epoch(&g);
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, EpochOutcome::Repaired { .. })),
            "epoch {epoch}: {outcomes:?}"
        );
        oracles.push(oracle(&g));
    }
    assert_eq!(service.generation(), 4);
    let queued = service.drain();
    assert_eq!(
        queued.len(),
        held.len(),
        "unbounded queues keep every settlement"
    );
    held.extend(queued);

    let mut changed = 0;
    for s in &held {
        assert!((1..=3).contains(&s.generation), "{s:?}");
        let want = oracles[(s.generation - 1) as usize][s.ap_index][s.source.index()]
            .as_ref()
            .expect("a settled row is priced");
        assert_eq!(&s.pricing, want, "held settlement {s:?} drifted");
        let now = oracles[3][s.ap_index][s.source.index()].as_ref();
        changed += usize::from(now != Some(want));
    }
    for generation in 1..=3 {
        assert!(
            held.iter().any(|s| s.generation == generation),
            "no settlement held from generation {generation}"
        );
    }
    assert!(changed > 0, "mobility must re-price some held rows");
}
