//! Differential battery: the service's anycast settlement must be
//! **bit-identical** to the argmin of k independent library runs.
//!
//! The oracle is deliberately dumb: for every AP run
//! [`all_sources_payments`] (the single-AP, single-epoch library
//! entry), then pick each source's cheapest AP by declared LCP cost,
//! breaking exact ties toward the lowest AP index. The service computes
//! the same thing through shards, snapshots, and the batched parallel
//! front-end — so every settlement's winning AP, generation, path, LCP
//! cost, and per-relay payments must match the oracle bit for bit at
//! every thread count, across epochs, and on instances engineered so
//! two APs quote *exactly* equal costs.
//!
//! Shed decisions are part of the contract too: with a bounded queue
//! the outcome vector (who settled, who shed, in batch order) must be
//! identical at every thread count, and each shard must settle exactly
//! its first winners in batch order up to its free capacity.
//!
//! The tests in this file run one at a time (see [`serial`]): one of
//! them reconciles the process-global `truthcast-obs` counters.
//!
//! Case count scales with `TRUTHCAST_CASES` (the CI heavy battery sets
//! it); a failure prints the `TRUTHCAST_SEED` that reproduces it.

use std::sync::{Mutex, MutexGuard, PoisonError};

use truthcast_core::all_sources_payments;
use truthcast_core::UnicastPricing;
use truthcast_graph::generators::{erdos_renyi, pairs_within_range, random_placement};
use truthcast_graph::geometry::Region;
use truthcast_graph::{adjacency_from_pairs, Cost, NodeId, NodeWeightedGraph};
use truthcast_rt::{bools, cases, forall, prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig};

/// Thread counts: inline, even split, a prime, oversubscription.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// Held by every test here, so that no `serve_batch` moves the global
/// counters while `shed_rule_settles_first_winners_per_shard` has them
/// enabled.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_costs(n: usize, rng: &mut SmallRng, tie_heavy: bool) -> Vec<Cost> {
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

/// A random instance: UDG or Erdős–Rényi topology plus 1–4 distinct APs.
fn instance(seed: u64, udg: bool, ties: bool) -> (NodeWeightedGraph, Vec<NodeId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(8..24);
    let g = if udg {
        let region = Region::new(2000.0, 2000.0);
        let range = rng.gen_range(500.0..1000.0);
        let points = random_placement(n, region, &mut rng);
        let pairs: Vec<(u32, u32)> = pairs_within_range(&points, range)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        NodeWeightedGraph::new(
            adjacency_from_pairs(n, &pairs),
            random_costs(n, &mut rng, ties),
        )
    } else {
        let base = erdos_renyi(n, rng.gen_range(0.2..0.5), &mut rng);
        let edges: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.0, v.0)).collect();
        NodeWeightedGraph::new(
            adjacency_from_pairs(n, &edges),
            random_costs(n, &mut rng, ties),
        )
    };
    let k = rng.gen_range(1..=4usize.min(n));
    let mut aps = Vec::with_capacity(k);
    while aps.len() < k {
        let ap = NodeId(rng.gen_range(0..n as u32));
        if !aps.contains(&ap) {
            aps.push(ap);
        }
    }
    (g, aps)
}

/// The dumb oracle: k independent library runs, then per-source argmin
/// by LCP cost with the lowest-index tie-break.
fn oracle(g: &NodeWeightedGraph, aps: &[NodeId]) -> Vec<Option<(usize, UnicastPricing)>> {
    let tables: Vec<Vec<Option<UnicastPricing>>> =
        aps.iter().map(|&ap| all_sources_payments(g, ap)).collect();
    (0..g.num_nodes())
        .map(|v| {
            let mut best: Option<(usize, &UnicastPricing)> = None;
            for (i, table) in tables.iter().enumerate() {
                if let Some(p) = table[v].as_ref() {
                    match best {
                        Some((_, b)) if p.lcp_cost >= b.lcp_cost => {}
                        _ => best = Some((i, p)),
                    }
                }
            }
            best.map(|(i, p)| (i, p.clone()))
        })
        .collect()
}

/// Serves every node as a source (one batch) and checks each outcome
/// against the oracle. `expected_generation` pins the snapshot epoch
/// settlements must have priced against.
fn check_batch(
    service: &PaymentService,
    g: &NodeWeightedGraph,
    aps: &[NodeId],
    expected_generation: u64,
) -> Result<(), String> {
    let sources: Vec<NodeId> = (0..g.num_nodes() as u32).map(NodeId).collect();
    let expected = oracle(g, aps);
    let outcomes = service.serve_batch(&sources);
    prop_assert_eq!(outcomes.len(), sources.len(), "one outcome per session");
    for (v, outcome) in outcomes.iter().enumerate() {
        match (&expected[v], outcome) {
            (None, ServeOutcome::Unreachable) => {}
            (Some((ap_index, pricing)), ServeOutcome::Settled(s)) => {
                prop_assert_eq!(s.source, NodeId(v as u32), "source echo");
                prop_assert_eq!(s.ap_index, *ap_index, "winning AP for source {}", v);
                prop_assert_eq!(s.ap, aps[*ap_index], "AP id for source {}", v);
                prop_assert_eq!(s.generation, expected_generation, "generation stamp");
                prop_assert_eq!(&s.pricing, pricing, "pricing for source {}", v);
            }
            (want, got) => {
                return Err(format!("source {v}: oracle {want:?} vs service {got:?}"));
            }
        }
    }
    Ok(())
}

/// Random instances, both topology families, tie-heavy and wide-range
/// costs, all thread counts: anycast settlement == argmin of k library
/// runs, bit for bit.
#[test]
fn anycast_matches_argmin_of_library_runs() {
    let _serial = serial();
    forall!(cases(16), (0u64..1 << 48, bools(), bools()), |(
        seed,
        udg,
        ties,
    )| {
        let (g, aps) = instance(seed, udg, ties);
        for threads in THREADS {
            let cfg = ServiceConfig::new(aps.clone()).threads(threads);
            let service = PaymentService::new(&cfg, &g);
            check_batch(&service, &g, &aps, 1)?;
        }
        Ok(())
    });
}

/// Settlement must track mobility: re-run the differential check after
/// each of several epochs (cost tweaks + edge churn), with the expected
/// generation advancing by one per epoch.
#[test]
fn anycast_stays_exact_across_epochs() {
    let _serial = serial();
    forall!(cases(8), (0u64..1 << 48, bools()), |(seed, ties)| {
        let (g0, aps) = instance(seed, true, ties);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE70C);
        let cfg = ServiceConfig::new(aps.clone()).threads(7);
        let service = PaymentService::new(&cfg, &g0);
        check_batch(&service, &g0, &aps, 1)?;
        let mut g = g0;
        for epoch in 2..5u64 {
            // A couple of node-cost tweaks per epoch: the repair path.
            for _ in 0..2 {
                let v = NodeId(rng.gen_range(0..g.num_nodes() as u32));
                g = g.with_declared(v, Cost::from_units(rng.gen_range(0..10)));
            }
            service.begin_epoch(&g);
            prop_assert_eq!(service.generation(), epoch, "generation after epoch");
            check_batch(&service, &g, &aps, epoch)?;
        }
        Ok(())
    });
}

/// Equal-cost AP ties settle at the lowest AP index — pinned on a
/// hand-built instance where both APs quote *exactly* the same LCP cost
/// from every source, checked at every thread count.
#[test]
fn equal_cost_ties_settle_at_lowest_ap_index() {
    let _serial = serial();
    // A mirror: source 2 reaches AP 0 via relay 1 (cost 5) and AP 4 via
    // relay 3 (cost 5). Source 5 hangs off source 2.
    let g = NodeWeightedGraph::from_pairs_units(
        &[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
        &[0, 5, 2, 5, 0, 9],
    );
    let aps = vec![NodeId(0), NodeId(4)];
    for threads in THREADS {
        let cfg = ServiceConfig::new(aps.clone()).threads(threads);
        let service = PaymentService::new(&cfg, &g);
        let outcomes = service.serve_batch(&[NodeId(2), NodeId(5)]);
        for o in &outcomes {
            let s = o.settlement().expect("mirror sources settle");
            assert_eq!(
                s.ap_index, 0,
                "equal-cost tie must break to AP index 0 at threads={threads}"
            );
        }
        // And the reversed AP list must settle at the *same physical AP*
        // only if it is still the lowest index — i.e. it flips to NodeId(4).
        let cfg = ServiceConfig::new(vec![NodeId(4), NodeId(0)]).threads(threads);
        let service = PaymentService::new(&cfg, &g);
        let outcomes = service.serve_batch(&[NodeId(2)]);
        let s = outcomes[0].settlement().expect("settles");
        assert_eq!(s.ap, NodeId(4), "tie-break follows list order, not node id");
    }
}

/// With a bounded queue, the full outcome vector — including *which*
/// sessions shed — is identical at every thread count: admission runs
/// in batch order after pricing, so shed decisions are deterministic.
#[test]
fn shed_pattern_is_thread_count_invariant() {
    let _serial = serial();
    forall!(cases(8), (0u64..1 << 48,), |(seed,)| {
        let (g, aps) = instance(seed, false, false);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        // Oversubscribe: several sessions per node against a queue of 3.
        let sources: Vec<NodeId> = (0..g.num_nodes() * 4)
            .map(|_| NodeId(rng.gen_range(0..g.num_nodes() as u32)))
            .collect();
        let mut baseline: Option<Vec<String>> = None;
        for threads in THREADS {
            let cfg = ServiceConfig::new(aps.clone())
                .threads(threads)
                .queue_capacity(3);
            let service = PaymentService::new(&cfg, &g);
            let fingerprint: Vec<String> = service
                .serve_batch(&sources)
                .iter()
                .map(|o| match o {
                    ServeOutcome::Settled(s) => {
                        format!("settled:{}:{:?}", s.ap_index, s.pricing.lcp_cost)
                    }
                    ServeOutcome::Shed { ap_index } => format!("shed:{ap_index}"),
                    ServeOutcome::Unreachable => "unreachable".to_string(),
                })
                .collect();
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(b) => {
                    prop_assert_eq!(b, &fingerprint, "outcomes diverged at threads={}", threads)
                }
            }
        }
        // The capacity-3 queues must actually have shed something on an
        // oversubscribed batch with at least one settling source.
        let b = baseline.expect("at least one thread count ran");
        if b.iter().any(|s| s.starts_with("settled")) {
            prop_assert!(
                b.iter().any(|s| s.starts_with("shed")),
                "4x oversubscription vs capacity 3 must shed"
            );
        }
        Ok(())
    });
}

/// The exact shed rule under batch admission, across two batches with
/// no drain between them: per shard, the first `CAP` winners in batch
/// order settle and every later one sheds, the second batch starting
/// from the occupancy the first left. Each shard's `settled()` and the
/// `service.sessions.*` counters reconcile with the outcomes, and
/// offered = settled + shed + unreachable.
#[test]
fn shed_rule_settles_first_winners_per_shard() {
    let _serial = serial();
    const CAP: usize = 3;
    for seed in 0..4u64 {
        let (g, aps) = instance(seed, seed % 2 == 0, false);
        let expected = oracle(&g, &aps);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let mut batch = || -> Vec<NodeId> {
            (0..g.num_nodes() * 2)
                .map(|_| NodeId(rng.gen_range(0..g.num_nodes() as u32)))
                .collect()
        };
        let batches = [batch(), batch()];
        for threads in [1, 7] {
            truthcast_obs::enable();
            truthcast_obs::reset();
            let cfg = ServiceConfig::new(aps.clone())
                .threads(threads)
                .queue_capacity(CAP);
            let service = PaymentService::new(&cfg, &g);
            let mut occupancy = vec![0usize; aps.len()];
            let (mut settled, mut shed, mut unreachable) = (0u64, 0u64, 0u64);
            for sources in &batches {
                let out = service.serve_batch(sources);
                for (&v, o) in sources.iter().zip(&out) {
                    match (&expected[v.index()], o) {
                        (None, ServeOutcome::Unreachable) => unreachable += 1,
                        (Some((j, p)), ServeOutcome::Settled(s)) if occupancy[*j] < CAP => {
                            assert_eq!((s.source, s.ap_index), (v, *j));
                            assert_eq!(&s.pricing, p, "source {v:?}");
                            occupancy[*j] += 1;
                            settled += 1;
                        }
                        (Some((j, _)), ServeOutcome::Shed { ap_index })
                            if occupancy[*j] == CAP && ap_index == j =>
                        {
                            shed += 1;
                        }
                        (want, got) => panic!(
                            "seed {seed} threads {threads} source {v:?}: oracle {want:?}, \
                             occupancy {occupancy:?}, service {got:?}"
                        ),
                    }
                }
            }
            let snap = truthcast_obs::snapshot();
            truthcast_obs::disable();

            assert!(
                shed > 0,
                "seed {seed}: 2x oversubscription vs capacity {CAP} must shed"
            );
            for (shard, &occ) in service.shards().iter().zip(&occupancy) {
                assert_eq!(shard.settled(), occ as u64);
            }
            let offered = batches.iter().map(Vec::len).sum::<usize>() as u64;
            assert_eq!(snap.counter("service.sessions.offered"), offered);
            assert_eq!(snap.counter("service.sessions.settled"), settled);
            assert_eq!(snap.counter("service.sessions.shed"), shed);
            assert_eq!(snap.counter("service.sessions.unreachable"), unreachable);
            assert_eq!(offered, settled + shed + unreachable);
            assert_eq!(service.drain().len() as u64, settled);
        }
    }
}
