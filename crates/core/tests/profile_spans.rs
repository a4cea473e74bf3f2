//! Phase-span coverage for the all-sources engine: when profiling is on,
//! the `core.all_sources` root span must attribute (almost) all of its
//! wall time to the named child phases — the invariant the `figure3`
//! time-attribution table and the Chrome-trace flame view rely on.
//!
//! One `#[test]` on purpose: the obs collector and profiling toggle are
//! process-global (same isolation pattern as the obs test binaries).

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::batch::{PaymentEngine, SessionQuery};
use truthcast_graph::generators::erdos_renyi;
use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
use truthcast_obs::SpanRecord;
use truthcast_rt::{Rng, SeedableRng, SmallRng};

/// The phase names every all-sources run decomposes into.
const PHASES: [&str; 4] = [
    "all_sources.spt_sweep",
    "all_sources.classify",
    "all_sources.subtree_runs",
    "all_sources.assemble",
];

fn big_graph(n: usize, seed: u64) -> NodeWeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let adj = erdos_renyi(n, 0.04, &mut rng);
    let costs: Vec<Cost> = (0..n)
        .map(|_| Cost::from_units(rng.gen_range(0..500_000)))
        .collect();
    NodeWeightedGraph::new(adj, costs)
}

/// Children of `root` in the recorded span tree.
fn children<'a>(spans: &'a [SpanRecord], root: &SpanRecord) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.parent == Some(root.id)).collect()
}

#[test]
fn all_sources_phases_cover_the_root_span() {
    truthcast_obs::enable();
    truthcast_obs::enable_profiling();
    truthcast_obs::reset();

    let g = big_graph(600, 0x5eed);
    let ap = NodeId(0);
    let table = AllSourcesEngine::new().price_all_sources(&g, ap);
    assert!(table.iter().flatten().count() > 0, "instance must price");

    let snap = truthcast_obs::snapshot();
    let root = snap
        .spans
        .iter()
        .find(|s| s.name == "core.all_sources")
        .expect("root span recorded");
    let kids = children(&snap.spans, root);
    assert!(!kids.is_empty(), "root must have phase children");
    for k in &kids {
        assert!(
            PHASES.contains(&k.name),
            "unexpected phase child {:?}",
            k.name
        );
        assert!(k.start_ns >= root.start_ns && k.end_ns <= root.end_ns);
    }
    // Every run passes through sweep, classify, subtree and assemble.
    for must in &PHASES {
        assert!(
            kids.iter().any(|k| k.name == *must),
            "phase {must:?} missing"
        );
    }
    // ≥90% of the root's wall time is attributed to named phases (the
    // acceptance bar is 95% on figure3-sized instances; the floor here is
    // slightly looser to stay robust on CI-noise-sized runs).
    let root_ns = root.duration_ns().max(1);
    let child_ns: u64 = kids.iter().map(|k| k.duration_ns()).sum();
    assert!(
        child_ns * 10 >= root_ns * 9,
        "phases cover {child_ns} of {root_ns} ns (< 90%)"
    );

    // The per-phase attribution table renders all observed phases.
    let attribution =
        truthcast_obs::export::phase_attribution(&snap).expect("attribution table renders");
    assert!(attribution.contains("core.all_sources"));
    for k in &kids {
        assert!(
            attribution.contains(k.name),
            "{} missing from table",
            k.name
        );
    }

    // Batch pricing feeds the per-session latency sketch, and the whole
    // profile exports as a valid Chrome trace.
    let sessions: Vec<SessionQuery> = (1..64).map(|i| SessionQuery::new(NodeId(i), ap)).collect();
    let mut engine = PaymentEngine::new(&g);
    let priced = engine.price_batch(&sessions);
    assert_eq!(priced.len(), sessions.len());
    let snap2 = truthcast_obs::snapshot();
    let sketch = snap2
        .sketch("core.batch.session_latency_ns")
        .expect("batch latencies sketched");
    assert!(sketch.count() >= sessions.len() as u64);
    assert!(sketch.quantile(0.5) <= sketch.quantile(0.99));
    truthcast_obs::validate_chrome_trace(&truthcast_obs::to_chrome_trace(&snap2))
        .expect("chrome export of the profile validates");

    // With profiling off the same run records no new spans (histograms
    // still advance — not asserted here; covered by the obs suite).
    truthcast_obs::disable_profiling();
    truthcast_obs::reset();
    let _ = AllSourcesEngine::new().price_all_sources(&g, ap);
    assert!(truthcast_obs::snapshot().spans.is_empty());
    truthcast_obs::disable();
}
