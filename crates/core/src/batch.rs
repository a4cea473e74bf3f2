//! Batched VCG payment computation over a fixed topology.
//!
//! The paper's deployment story is many unicast sessions over one slowly
//! changing network: every node periodically prices a route to an access
//! point. Pricing each session independently with
//! [`crate::fast_payments`] repays two fixed costs per query that a batch
//! can amortize:
//!
//! * **Allocations** — each one-shot sweep builds fresh
//!   distance/predecessor/heap buffers. A [`PaymentEngine`] holds one
//!   [`DijkstraWorkspace`] per worker thread and runs every source sweep
//!   through [`node_dijkstra_in`], so the Dijkstra hot path allocates
//!   nothing once the buffers reach the graph size.
//! * **The destination-rooted sweep** — Algorithm 1 needs the `R'` table
//!   and the canonical LCP tree rooted at the destination (DESIGN.md §2).
//!   Sessions sharing an access point share both; the engine computes
//!   them once per distinct destination and caches them for the engine's
//!   lifetime (the engine borrows the topology immutably, so the cache
//!   cannot go stale). A session's path is then a walk up that tree.
//!
//! Sessions are sharded across `std::thread::scope` workers by
//! [`truthcast_rt::par_map_with`], which re-sorts results by session
//! index — so the returned pricings are **deterministic and bit-identical
//! to the per-session algorithms at any thread count**, including 1. The
//! equivalence is structural, not coincidental: the one-shot algorithms
//! run this very pipeline (`price_session`), the path is a pure function of the `R'`
//! table, and the replacement-cost kernels are pure functions of the
//! resulting tables. The differential suite
//! (`tests/batch_vs_sequential.rs`) asserts this across thread counts on
//! random instances.
//!
//! Only the *returned values* are deterministic; observability side
//! effects (counter increments, audit-record order) interleave freely
//! across workers.

use std::collections::BTreeMap;

use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::node_dijkstra::{node_dijkstra_in, NodeDijkstraOptions};
use truthcast_graph::workspace::DijkstraWorkspace;
use truthcast_graph::{Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph};
use truthcast_mechanism::vcg::vcg_payment_selected;
use truthcast_rt::{default_threads, par_map_with};

use crate::detour::DetourModel;
use crate::fast::replacement_costs;
use crate::fast_symmetric::{edge_weighted_replacement_costs, is_symmetric};
use crate::levels::{canonical_parents, levels_along, tree_path, PathLevels};
use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// One unicast pricing request: route `source → target` and pay the
/// relays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionQuery {
    /// The paying endpoint.
    pub source: NodeId,
    /// The destination (the access point, in the paper's deployment).
    pub target: NodeId,
}

impl SessionQuery {
    /// A `source → target` session. The endpoints must differ (asserted
    /// when the session is priced, matching the per-session algorithms).
    pub fn new(source: NodeId, target: NodeId) -> SessionQuery {
        SessionQuery { source, target }
    }
}

/// Per-worker reusable state: the sweep workspace plus export buffers.
///
/// One scratch lives on each worker thread for the whole batch; dropping
/// it records the worker's session count into the
/// `core.batch.sessions_per_worker` histogram. The one-shot
/// [`crate::fast_payments`] and [`crate::fast_symmetric_payments`] run
/// the same per-session pipeline through a scratch of their own.
pub(crate) struct WorkerScratch {
    pub(crate) ws: DijkstraWorkspace,
    pub(crate) dist: Vec<Cost>,
    pub(crate) parent: Vec<Option<NodeId>>,
    pub(crate) sessions: u64,
    /// Per-session wall-clock latencies, flushed in one batch into the
    /// `core.batch.session_latency_ns` quantile sketch on drop.
    pub(crate) lat_ns: Vec<u64>,
}

impl WorkerScratch {
    pub(crate) fn new(n: usize) -> WorkerScratch {
        WorkerScratch {
            ws: DijkstraWorkspace::with_capacity(n),
            dist: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            sessions: 0,
            lat_ns: Vec::new(),
        }
    }

    /// Start-of-session timestamp — `None` (one relaxed load, no clock
    /// read) when tracing is disabled.
    pub(crate) fn latency_clock() -> Option<std::time::Instant> {
        truthcast_obs::enabled().then(std::time::Instant::now)
    }

    /// Records one session's wall-clock latency for the batch sketch.
    pub(crate) fn record_latency(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.lat_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

impl Drop for WorkerScratch {
    fn drop(&mut self) {
        if truthcast_obs::enabled() {
            if self.sessions > 0 {
                truthcast_obs::observe("core.batch.sessions_per_worker", self.sessions);
            }
            truthcast_obs::sample_many("core.batch.session_latency_ns", &self.lat_ns);
        }
    }
}

/// Batch VCG pricing engine for the node-weighted (paper Section III)
/// model.
///
/// Borrows the topology for its lifetime — declared costs are baked into
/// the graph, so a cached destination table can never go stale. Create a
/// new engine after any topology or cost change.
///
/// ```
/// use truthcast_core::batch::{PaymentEngine, SessionQuery};
/// use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
///
/// let g = NodeWeightedGraph::from_pairs_units(
///     &[(0, 1), (1, 3), (0, 2), (2, 3)],
///     &[0, 5, 7, 0],
/// );
/// let mut engine = PaymentEngine::new(&g);
/// let priced = engine.price_batch(&[
///     SessionQuery::new(NodeId(0), NodeId(3)),
///     SessionQuery::new(NodeId(1), NodeId(3)),
/// ]);
/// assert_eq!(
///     priced[0].as_ref().unwrap().payment_to(NodeId(1)),
///     Cost::from_units(7),
/// );
/// ```
pub struct PaymentEngine<'g> {
    g: &'g NodeWeightedGraph,
    threads: usize,
    /// Destination-rooted `R'` tables, shared by every session to the
    /// same destination.
    target_tables: BTreeMap<NodeId, TargetTree>,
}

impl<'g> PaymentEngine<'g> {
    /// An engine over `g` using [`default_threads`] workers.
    pub fn new(g: &'g NodeWeightedGraph) -> PaymentEngine<'g> {
        PaymentEngine::with_threads(g, default_threads())
    }

    /// An engine over `g` using exactly `threads` workers (clamped to at
    /// least 1). The thread count never affects the returned payments —
    /// only wall-clock time.
    pub fn with_threads(g: &'g NodeWeightedGraph, threads: usize) -> PaymentEngine<'g> {
        PaymentEngine {
            g,
            threads: threads.max(1),
            target_tables: BTreeMap::new(),
        }
    }

    /// The worker count this engine shards batches across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of distinct destinations with a cached table.
    pub fn cached_targets(&self) -> usize {
        self.target_tables.len()
    }

    /// Ensures the destination-rooted table for `target` is cached,
    /// counting a hit or miss.
    fn warm(&mut self, target: NodeId) {
        if self.target_tables.contains_key(&target) {
            truthcast_obs::add("core.batch.target_cache_hits", 1);
        } else {
            truthcast_obs::add("core.batch.target_cache_misses", 1);
            self.target_tables
                .insert(target, target_tree(self.g, target));
        }
    }

    /// Prices every session, sharded across the engine's workers.
    ///
    /// `out[i]` corresponds to `sessions[i]` — index order is preserved
    /// regardless of thread count — and is `None` exactly when the
    /// session's destination is unreachable. Each entry is bit-identical
    /// to `fast_payments(g, sessions[i].source, sessions[i].target)`.
    ///
    /// Panics if any session has `source == target`, like the
    /// per-session algorithms.
    pub fn price_batch(&mut self, sessions: &[SessionQuery]) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.batch.price_batch");
        // Warm the destination cache sequentially so the parallel section
        // reads it through a shared borrow.
        for q in sessions {
            self.warm(q.target);
        }
        truthcast_obs::add("core.batch.sessions", sessions.len() as u64);
        let g = self.g;
        let tables = &self.target_tables;
        par_map_with(
            sessions.len(),
            self.threads,
            || WorkerScratch::new(g.num_nodes()),
            |scratch, i| {
                scratch.sessions += 1;
                let t0 = WorkerScratch::latency_clock();
                let q = sessions[i];
                let tj = &tables[&q.target];
                let priced = price_session(g, q, tj, scratch, "batch");
                scratch.record_latency(t0);
                priced
            },
        )
    }

    /// The paper's all-to-AP pattern: every node priced toward `ap` from
    /// the shared destination-rooted sweep (see [`crate::all_sources`]).
    /// Index `ap` holds `None`, as do unreachable sources — bit-identical
    /// to [`crate::price_all_sources`] and to per-source
    /// `fast_payments`, at any thread count.
    ///
    /// The sweep shares the engine's destination cache: a table warmed
    /// here is reused by later [`PaymentEngine::price_batch`] calls to
    /// the same `ap`, and vice versa.
    pub fn price_all_to_ap(&mut self, ap: NodeId) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.all_sources");
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            self.warm(ap);
        }
        let tj = self.target_tables.get_mut(&ap).expect("warmed above");
        crate::all_sources::all_sources_from_table(
            self.g,
            ap,
            &tj.dist,
            &mut tj.parent,
            self.threads,
            "all_sources",
        )
    }
}

/// Batch VCG pricing engine for the symmetric link-cost (paper Section
/// III-F, first simulation) model — the batched counterpart of
/// [`crate::fast_symmetric_payments`].
///
/// Symmetry is checked **once** at construction; on an asymmetric graph
/// every session prices to `None`, exactly as the per-session algorithm
/// reports.
pub struct LinkPaymentEngine<'g> {
    g: &'g LinkWeightedDigraph,
    threads: usize,
    symmetric: bool,
    target_tables: BTreeMap<NodeId, TargetTree>,
}

impl<'g> LinkPaymentEngine<'g> {
    /// An engine over `g` using [`default_threads`] workers.
    pub fn new(g: &'g LinkWeightedDigraph) -> LinkPaymentEngine<'g> {
        LinkPaymentEngine::with_threads(g, default_threads())
    }

    /// An engine over `g` using exactly `threads` workers (clamped to at
    /// least 1).
    pub fn with_threads(g: &'g LinkWeightedDigraph, threads: usize) -> LinkPaymentEngine<'g> {
        LinkPaymentEngine {
            g,
            threads: threads.max(1),
            symmetric: is_symmetric(g),
            target_tables: BTreeMap::new(),
        }
    }

    /// The worker count this engine shards batches across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the topology passed the up-front symmetry check.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Number of distinct destinations with a cached table.
    pub fn cached_targets(&self) -> usize {
        self.target_tables.len()
    }

    fn warm(&mut self, target: NodeId) {
        if self.target_tables.contains_key(&target) {
            truthcast_obs::add("core.batch.target_cache_hits", 1);
        } else {
            truthcast_obs::add("core.batch.target_cache_misses", 1);
            self.target_tables
                .insert(target, target_tree(self.g, target));
        }
    }

    /// Prices every session, sharded across the engine's workers.
    /// `out[i]` corresponds to `sessions[i]` and is bit-identical to
    /// `fast_symmetric_payments(g, sessions[i].source,
    /// sessions[i].target)` — `None` on unreachable destinations, and
    /// `None` everywhere on asymmetric graphs.
    pub fn price_batch(&mut self, sessions: &[SessionQuery]) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.batch.price_batch");
        if !self.symmetric {
            for q in sessions {
                assert_ne!(q.source, q.target, "unicast endpoints must differ");
            }
            return vec![None; sessions.len()];
        }
        for q in sessions {
            self.warm(q.target);
        }
        truthcast_obs::add("core.batch.sessions", sessions.len() as u64);
        let g = self.g;
        let tables = &self.target_tables;
        par_map_with(
            sessions.len(),
            self.threads,
            || WorkerScratch::new(g.num_nodes()),
            |scratch, i| {
                scratch.sessions += 1;
                let t0 = WorkerScratch::latency_clock();
                let q = sessions[i];
                let tj = &tables[&q.target];
                let priced = price_session(g, q, tj, scratch, "batch_sym");
                scratch.record_latency(t0);
                priced
            },
        )
    }

    /// The all-to-AP pattern on the link model, from the shared sweep
    /// (see [`crate::all_sources`]). Index `ap` and unreachable sources
    /// hold `None`; on an asymmetric graph every slot is `None`. Each
    /// entry is bit-identical to `fast_symmetric_payments(g, source,
    /// ap)`.
    pub fn price_all_to_ap(&mut self, ap: NodeId) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.all_sources");
        if !self.symmetric {
            return vec![None; self.g.num_nodes()];
        }
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            self.warm(ap);
        }
        let tj = self.target_tables.get_mut(&ap).expect("warmed above");
        crate::all_sources::all_sources_from_table(
            self.g,
            ap,
            &tj.dist,
            &mut tj.parent,
            self.threads,
            "all_sources_sym",
        )
    }
}

/// A destination-rooted table with the canonical LCP tree in place of
/// the sweep's parents: what every session toward that destination reads.
pub(crate) struct TargetTree {
    /// `R'` (node model) or `R` (link model) toward the destination.
    pub(crate) dist: Vec<Cost>,
    /// The canonical LCP tree ([`canonical_parents`]).
    pub(crate) parent: Vec<Option<NodeId>>,
}

/// What the per-session pipeline needs beyond [`DetourModel`]: the
/// model's unrestricted sweep and Algorithm 1's replacement-cost pass.
pub(crate) trait SessionModel: DetourModel {
    /// One sweep from `origin` into `ws` (forward on the link model,
    /// which on a symmetric graph is also the sweep toward `origin`).
    fn sweep(&self, ws: &mut DijkstraWorkspace, origin: NodeId);
    /// `‖P_{-r_l}‖` for `l = 1 … s-1` from the two tables and the levels.
    fn replacement_costs(
        &self,
        from_source: &[Cost],
        to_target: &[Cost],
        lv: &PathLevels,
    ) -> Vec<Cost>;
}

impl SessionModel for NodeWeightedGraph {
    fn sweep(&self, ws: &mut DijkstraWorkspace, origin: NodeId) {
        node_dijkstra_in(ws, self, origin, NodeDijkstraOptions::default());
    }
    fn replacement_costs(&self, l: &[Cost], r: &[Cost], lv: &PathLevels) -> Vec<Cost> {
        replacement_costs(self, l, r, lv)
    }
}

impl SessionModel for LinkWeightedDigraph {
    fn sweep(&self, ws: &mut DijkstraWorkspace, origin: NodeId) {
        dijkstra_in(
            ws,
            self,
            origin,
            Direction::Forward,
            DijkstraOptions::default(),
        );
    }
    fn replacement_costs(&self, l: &[Cost], r: &[Cost], lv: &PathLevels) -> Vec<Cost> {
        edge_weighted_replacement_costs(self, l, r, lv)
    }
}

/// The destination-rooted table for `target` with canonical parents.
pub(crate) fn target_tree<M: SessionModel>(m: &M, target: NodeId) -> TargetTree {
    let mut ws = DijkstraWorkspace::with_capacity(m.num_nodes());
    m.sweep(&mut ws, target);
    let (dist, mut parent) = ws.into_tables();
    canonical_parents(m, &dist, target, &mut parent);
    TargetTree { dist, parent }
}

/// Prices one session inside a worker: the pipeline behind
/// [`crate::fast_payments`] and [`crate::fast_symmetric_payments`]
/// (minus the symmetry check, which the caller has done). The canonical
/// path is read off the destination's tree, and the source sweep runs
/// through the worker's workspace only when the path has relays. `algo`
/// tags the audit records.
pub(crate) fn price_session<M: SessionModel>(
    m: &M,
    q: SessionQuery,
    tj: &TargetTree,
    scratch: &mut WorkerScratch,
    algo: &'static str,
) -> Option<UnicastPricing> {
    assert_ne!(q.source, q.target, "unicast endpoints must differ");
    if tj.dist[q.source.index()].is_inf() {
        return None;
    }
    let path = tree_path(&tj.parent, q.source);
    let lcp_cost = m.lcp_at(q.source, &tj.dist);
    if path.len() == 2 {
        return Some(UnicastPricing {
            path,
            lcp_cost,
            payments: vec![],
        });
    }
    m.sweep(&mut scratch.ws, q.source);
    scratch
        .ws
        .export_into(&mut scratch.dist, &mut scratch.parent);
    let lv = levels_along(&mut scratch.parent, &path);
    let replacements = m.replacement_costs(&scratch.dist, &tj.dist, &lv);
    let declared = |l: usize| m.declared(path[l], path[l + 1]);
    let payments: Vec<(NodeId, Cost)> = (1..path.len() - 1)
        .map(|l| {
            let pay = vcg_payment_selected(lcp_cost, replacements[l - 1], declared(l));
            (path[l], pay)
        })
        .collect();
    audit_unicast(
        algo,
        q.source,
        q.target,
        lcp_cost,
        payments
            .iter()
            .enumerate()
            .map(|(k, &(r, p))| (r, replacements[k], declared(k + 1), p)),
    );
    Some(UnicastPricing {
        path,
        lcp_cost,
        payments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::{fast_payments, price_all_sources};
    use crate::fast_symmetric::fast_symmetric_payments;

    fn diamond() -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0])
    }

    #[test]
    fn batch_matches_per_session() {
        let g = diamond();
        let sessions = [
            SessionQuery::new(NodeId(0), NodeId(3)),
            SessionQuery::new(NodeId(1), NodeId(3)),
            SessionQuery::new(NodeId(2), NodeId(3)),
        ];
        for threads in [1, 2, 7] {
            let mut engine = PaymentEngine::with_threads(&g, threads);
            let priced = engine.price_batch(&sessions);
            for (q, got) in sessions.iter().zip(&priced) {
                assert_eq!(*got, fast_payments(&g, q.source, q.target));
            }
            // One destination → one cached table, shared by all sessions.
            assert_eq!(engine.cached_targets(), 1);
        }
    }

    #[test]
    fn all_to_ap_matches_price_all_sources() {
        let g = diamond();
        let mut engine = PaymentEngine::with_threads(&g, 2);
        assert_eq!(
            engine.price_all_to_ap(NodeId(3)),
            price_all_sources(&g, NodeId(3))
        );
    }

    #[test]
    fn unreachable_target_is_none() {
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 0, 0]);
        let mut engine = PaymentEngine::new(&g);
        let priced = engine.price_batch(&[SessionQuery::new(NodeId(0), NodeId(2))]);
        assert_eq!(priced, vec![None]);
    }

    #[test]
    fn link_engine_matches_per_session() {
        let arcs: Vec<(NodeId, NodeId, Cost)> = [(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 4)]
            .iter()
            .flat_map(|&(u, v, w)| {
                [
                    (NodeId(u), NodeId(v), Cost::from_units(w)),
                    (NodeId(v), NodeId(u), Cost::from_units(w)),
                ]
            })
            .collect();
        let g = LinkWeightedDigraph::from_arcs(4, arcs);
        let sessions = [
            SessionQuery::new(NodeId(0), NodeId(3)),
            SessionQuery::new(NodeId(1), NodeId(3)),
        ];
        let mut engine = LinkPaymentEngine::with_threads(&g, 2);
        assert!(engine.is_symmetric());
        let priced = engine.price_batch(&sessions);
        for (q, got) in sessions.iter().zip(&priced) {
            assert_eq!(*got, fast_symmetric_payments(&g, q.source, q.target));
        }
    }

    #[test]
    fn asymmetric_graph_prices_to_none() {
        let g = LinkWeightedDigraph::from_arcs(2, [(NodeId(0), NodeId(1), Cost::from_units(1))]);
        let mut engine = LinkPaymentEngine::new(&g);
        assert!(!engine.is_symmetric());
        let priced = engine.price_batch(&[SessionQuery::new(NodeId(0), NodeId(1))]);
        assert_eq!(priced, vec![None]);
    }
}
