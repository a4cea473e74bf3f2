//! All-to-AP payment tables from **one** destination-rooted sweep.
//!
//! The paper's deployment pattern is all-to-AP: every node prices its
//! unicast toward a single access point. Running Algorithm 1 once per
//! source ([`crate::price_all_sources`]'s historical behavior) repeats
//! `Θ(n)` full Dijkstra sweeps against the *same* destination-rooted
//! shortest-path tree. This module computes the entire payment table —
//! `‖P(i, 0, d)‖` and every relay's replacement cost `‖P_{-v_k}(i, 0, d)‖`
//! for **all** (source, relay) pairs — from a single AP-rooted sweep plus
//! near-linear crossing-edge post-processing:
//!
//! 1. **Shared sweep.** One sweep from the AP gives the inclusive table
//!    `R'`; one BFS over its tight arcs turns it into the canonical LCP
//!    tree (least cost, then fewest hops, then lowest node ids — DESIGN.md
//!    §2). The tree path `i … ap` *is* source `i`'s LCP, exactly the path
//!    every per-source engine reports, and `‖P(i,0,d)‖ = R'(i) − c_i`.
//! 2. **Subtree interval labeling.** Euler-tour enter/exit stamps
//!    ([`truthcast_graph::SubtreeIntervals`]) make "is `w` below relay
//!    `x`?" an O(1) compare, and each relay's subtree a contiguous
//!    preorder slice.
//! 3. **Per-relay detour rows.** Removing a relay `x` cuts off exactly
//!    `S = subtree(x) \ {x}`. For every source `y ∈ S` *at once*, one
//!    restricted Dijkstra over the slice `S` computes
//!    `F(y) = ‖P_{-x}(y, 0, d)‖`: each `y` is seeded with its best
//!    *escape* over crossing arcs `(y, w)`, `w ∉ subtree(x)` (the suffix
//!    cost from `w` is exactly the unconstrained `R'(w)`, because `w`'s
//!    own tree path avoids `x`), and relaxation steps stay inside `S`.
//!    Every run executes on one *slice graph* built per call: the tree
//!    relabelled by preorder position, with each neighbour list sorted by
//!    position. `S` is then a contiguous position range, a member's
//!    crossing arcs sit at the two ends of its list (an escape scan costs
//!    `O(crossing arcs + 2)`, not `O(degree)`), and each run is a
//!    monotone radix-queue Dijkstra over slice-local arrays. The kernel
//!    is shared with [`crate::delta`] (see the private `detour` module).
//!    The total work is proportional to the slices' sizes and the arcs
//!    inside or leaving them — to the *output* table
//!    (`Σ_x n_x = Σ_i depth(i)`), not to `n` full sweeps.
//! 4. **Assembly.** Source `i` pays each relay `r_l` on its tree path
//!    from `r_l`'s row; the replacement values are exact graph minima and
//!    the path is canonical, so the output is **bit-identical to
//!    per-source [`crate::fast_payments`]** on every instance, tied or
//!    not.
//!
//! The per-relay runs are independent, so they shard across
//! `truthcast_rt::par` workers (each with its own slice-local scratch);
//! results are scattered in index order, keeping the output deterministic
//! and bit-identical at any thread count, matching the batch-engine
//! contract. A symmetric link-cost variant (paper Section III-F, first
//! simulation) mirrors [`crate::fast_symmetric_payments`] the same way.

use truthcast_graph::dijkstra::{dijkstra_in, DijkstraOptions, Direction};
use truthcast_graph::node_dijkstra::NodeDijkstraOptions;
use truthcast_graph::workspace::DijkstraWorkspace;
use truthcast_graph::{
    Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph, Spt, SubtreeIntervals,
};
use truthcast_mechanism::vcg::vcg_payment_selected;
use truthcast_rt::{default_threads, par_map_with};

use crate::detour::{detour_row, DetourModel, SliceGraph, SliceScratch};
use crate::fast_symmetric::is_symmetric;
use crate::levels::{canonical_parents, tree_path};
use crate::pricing::UnicastPricing;
use crate::trace::audit_unicast;

/// Rebuilds the shared tree from the AP-rooted table: `parent` becomes
/// the canonical LCP tree (its tight-arc scan is the one pass over every
/// arc), and the returned intervals label that tree.
pub(crate) fn classify<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    ap: NodeId,
    parent: &mut Vec<Option<NodeId>>,
) -> SubtreeIntervals {
    canonical_parents(m, dist, ap, parent);
    Spt::from_parents(ap, parent).intervals()
}

/// The nodes that relay some source's session: every non-leaf tree node
/// except the AP. Each owns one detour row.
pub(crate) fn relays(iv: &SubtreeIntervals) -> impl Iterator<Item = NodeId> + '_ {
    iv.order()[1..]
        .iter()
        .copied()
        .filter(|&x| iv.subtree(x).len() >= 2)
}

/// Source `v`'s pricing read off the canonical tree and the per-relay
/// detour rows (`rows[x]` in `subtree(x)[1..]` order): the path is the
/// walk up `parent`, and relay `r` is paid from `F_r(v)`, the entry at
/// `v`'s offset in `r`'s slice. Audited under `algo`. Shared with
/// [`crate::delta`], whose rows are cached across epochs.
pub(crate) fn price_source<M: DetourModel>(
    m: &M,
    dist: &[Cost],
    parent: &[Option<NodeId>],
    iv: &SubtreeIntervals,
    rows: &[Vec<Cost>],
    v: NodeId,
    algo: &'static str,
) -> UnicastPricing {
    let path = tree_path(parent, v);
    let lcp_cost = m.lcp_at(v, dist);
    let detour = |r: NodeId| {
        let off = iv.slice_offset(r, v).expect("path relay is an ancestor");
        rows[r.index()][off - 1]
    };
    let declared = |l: usize| m.declared(path[l], path[l + 1]);
    let payments: Vec<(NodeId, Cost)> = (1..path.len() - 1)
        .map(|l| {
            let r = path[l];
            (r, vcg_payment_selected(lcp_cost, detour(r), declared(l)))
        })
        .collect();
    audit_unicast(
        algo,
        v,
        path[path.len() - 1],
        lcp_cost,
        payments
            .iter()
            .enumerate()
            .map(|(k, &(r, p))| (r, detour(r), declared(k + 1), p)),
    );
    UnicastPricing {
        path,
        lcp_cost,
        payments,
    }
}

/// All-sources pricing against a caller-supplied AP-rooted table (as
/// produced by `node_dijkstra(g, ap, default)`, or by a forward sweep on
/// a symmetric link-cost graph the caller has verified); `parent` is
/// overwritten with the canonical tree. Returns the per-node pricings
/// (index `ap` and unreachable sources hold `None`), audited under
/// `algo`. Shared by [`AllSourcesEngine`] and the batch engines'
/// `price_all_to_ap`.
pub(crate) fn all_sources_from_table<M: DetourModel>(
    m: &M,
    ap: NodeId,
    dist: &[Cost],
    parent: &mut Vec<Option<NodeId>>,
    threads: usize,
    algo: &'static str,
) -> Vec<Option<UnicastPricing>> {
    let n = m.num_nodes();
    let iv = {
        let _s = truthcast_obs::span("all_sources.classify");
        classify(m, dist, ap, parent)
    };
    let xs: Vec<NodeId> = relays(&iv).collect();
    let mut rows: Vec<Vec<Cost>> = vec![Vec::new(); n];
    let (mut scans, mut pops) = (0u64, 0u64);
    {
        let _s = truthcast_obs::span("all_sources.subtree_runs");
        let sg = SliceGraph::new(m, &iv, dist);
        let results = par_map_with(xs.len(), threads, SliceScratch::new, |sc, i| {
            let st = detour_row(&sg, xs[i], None, sc);
            (sc.values().to_vec(), st)
        });
        for (&x, (vals, st)) in xs.iter().zip(results) {
            rows[x.index()] = vals;
            scans += st.scans;
            pops += st.pops;
        }
    }
    let mut out: Vec<Option<UnicastPricing>> = vec![None; n];
    let _s = truthcast_obs::span("all_sources.assemble");
    for v in (0..n).map(NodeId::new) {
        if v != ap && iv.in_tree(v) {
            out[v.index()] = Some(price_source(m, dist, parent, &iv, &rows, v, algo));
        }
    }
    if truthcast_obs::enabled() {
        let c = truthcast_obs::collector();
        c.add("core.all_sources.passes", 1);
        c.add("core.all_sources.sources", iv.order().len() as u64 - 1);
        c.add("core.all_sources.subtree_runs", xs.len() as u64);
        c.add("core.all_sources.crossing_scans", scans);
        c.add("core.all_sources.restricted_pops", pops);
    }
    out
}

/// Reusable all-to-AP pricing engine.
///
/// Unlike the batch engines this one *owns* no borrow of the topology, so
/// a long-lived deployment can keep one warm engine across calls: the
/// sweep workspace and export buffers are reused.
///
/// ```
/// use truthcast_core::all_sources::AllSourcesEngine;
/// use truthcast_graph::{Cost, NodeId, NodeWeightedGraph};
///
/// let g = NodeWeightedGraph::from_pairs_units(
///     &[(0, 1), (1, 3), (0, 2), (2, 3)],
///     &[0, 5, 7, 0],
/// );
/// let mut engine = AllSourcesEngine::new();
/// let table = engine.price_all_sources(&g, NodeId(3));
/// assert!(table[3].is_none()); // the AP itself
/// assert_eq!(
///     table[0].as_ref().unwrap().payment_to(NodeId(1)),
///     Cost::from_units(7), // Vickrey: runner-up branch price
/// );
/// ```
pub struct AllSourcesEngine {
    threads: usize,
    ws: DijkstraWorkspace,
    dist: Vec<Cost>,
    parent: Vec<Option<NodeId>>,
}

impl AllSourcesEngine {
    /// An engine using [`default_threads`] workers.
    pub fn new() -> AllSourcesEngine {
        AllSourcesEngine::with_threads(default_threads())
    }

    /// An engine using exactly `threads` workers (clamped to at least 1).
    /// The thread count never affects the returned payments.
    pub fn with_threads(threads: usize) -> AllSourcesEngine {
        AllSourcesEngine {
            threads: threads.max(1),
            ws: DijkstraWorkspace::new(),
            dist: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// The worker count the crossing-edge phase shards across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The AP-rooted `(dist, parent)` tables of the most recent call, with
    /// `parent` the canonical LCP tree — the differential-testing hook for
    /// [`crate::delta::IncrementalEngine`]'s bit-equality contract.
    pub fn tables(&self) -> (&[Cost], &[Option<NodeId>]) {
        (&self.dist, &self.parent)
    }

    /// Prices every node's unicast toward `ap` on the node-weighted
    /// model. `out[i]` is bit-identical to `fast_payments(g, i, ap)`;
    /// index `ap` and unreachable sources hold `None`.
    pub fn price_all_sources(
        &mut self,
        g: &NodeWeightedGraph,
        ap: NodeId,
    ) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.all_sources");
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            truthcast_graph::node_dijkstra::node_dijkstra_in(
                &mut self.ws,
                g,
                ap,
                NodeDijkstraOptions::default(),
            );
            self.ws.export_into(&mut self.dist, &mut self.parent);
        }
        all_sources_from_table(
            g,
            ap,
            &self.dist,
            &mut self.parent,
            self.threads,
            "all_sources",
        )
    }

    /// Prices every node's unicast toward `ap` on the symmetric link-cost
    /// model. `out[i]` is bit-identical to
    /// `fast_symmetric_payments(g, i, ap)` — all `None` on asymmetric
    /// graphs, matching the per-source algorithm.
    pub fn price_all_sources_symmetric(
        &mut self,
        g: &LinkWeightedDigraph,
        ap: NodeId,
    ) -> Vec<Option<UnicastPricing>> {
        let _span = truthcast_obs::span("core.all_sources");
        if !is_symmetric(g) {
            return vec![None; g.num_nodes()];
        }
        {
            let _s = truthcast_obs::span("all_sources.spt_sweep");
            dijkstra_in(
                &mut self.ws,
                g,
                ap,
                Direction::Forward,
                DijkstraOptions::default(),
            );
            self.ws.export_into(&mut self.dist, &mut self.parent);
        }
        all_sources_from_table(
            g,
            ap,
            &self.dist,
            &mut self.parent,
            self.threads,
            "all_sources_sym",
        )
    }
}

impl Default for AllSourcesEngine {
    fn default() -> AllSourcesEngine {
        AllSourcesEngine::new()
    }
}

/// One-shot convenience: the paper's all-to-AP pattern priced from a
/// single shared sweep (see the module docs). Bit-identical to calling
/// [`crate::fast_payments`] once per source.
pub fn all_sources_payments(g: &NodeWeightedGraph, ap: NodeId) -> Vec<Option<UnicastPricing>> {
    AllSourcesEngine::new().price_all_sources(g, ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::fast_payments;
    use crate::fast_symmetric::fast_symmetric_payments;

    fn diamond() -> NodeWeightedGraph {
        NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 3), (0, 2), (2, 3)], &[0, 5, 7, 0])
    }

    #[test]
    fn matches_per_source_on_diamond() {
        let g = diamond();
        let table = all_sources_payments(&g, NodeId(3));
        for v in g.node_ids() {
            let expect = (v != NodeId(3))
                .then(|| fast_payments(&g, v, NodeId(3)))
                .flatten();
            assert_eq!(table[v.index()], expect, "source {v:?}");
        }
    }

    #[test]
    fn unreachable_and_ap_slots_are_none() {
        // 0-1 connected; 2 isolated. AP = 0.
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1)], &[0, 3, 1]);
        let table = all_sources_payments(&g, NodeId(0));
        assert!(table[0].is_none());
        assert!(table[1].is_some());
        assert!(table[2].is_none());
    }

    #[test]
    fn tie_heavy_graph_falls_back_and_still_matches() {
        // The name dates from when tied sources fell back to per-source
        // pricing. Now the shared sweep must match per-source pricing on
        // ties by itself, through the canonical tie-break.
        // Equal relay costs: 4's LCP 4-2-0 is unique, but 3 reaches the
        // AP at cost 2 through 1 and through 2, both one hop from it.
        let pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (3, 4), (2, 4)];
        let g = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 2, 2, 2, 2]);
        let mut engine = AllSourcesEngine::with_threads(2);
        let table = engine.price_all_sources(&g, NodeId(0));
        let p4 = table[4].as_ref().expect("4 reaches the AP");
        assert_eq!(p4.path, vec![NodeId(4), NodeId(2), NodeId(0)]);
        // The tie at 3 goes to the lower id.
        let p3 = table[3].as_ref().expect("3 reaches the AP");
        assert_eq!(p3.path, vec![NodeId(3), NodeId(1), NodeId(0)]);
        for v in g.node_ids().skip(1) {
            assert_eq!(table[v.index()], fast_payments(&g, v, NodeId(0)));
        }
    }

    #[test]
    fn unique_costs_need_no_fallback() {
        // Distinct costs: every LCP is unique, so the shared sweep's tree
        // path is each source's path with no tie-break involved.
        let pairs = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (1, 4)];
        let g = NodeWeightedGraph::from_pairs_units(&pairs, &[0, 3, 17, 5, 11]);
        let mut engine = AllSourcesEngine::with_threads(1);
        let table = engine.price_all_sources(&g, NodeId(0));
        let p3 = table[3].as_ref().expect("3 reaches the AP");
        assert_eq!(p3.path, vec![NodeId(3), NodeId(4), NodeId(0)]);
        for v in g.node_ids().skip(1) {
            assert_eq!(table[v.index()], fast_payments(&g, v, NodeId(0)));
        }
    }

    #[test]
    fn monopoly_relay_priced_inf() {
        // Chain 0-1-2: relay 1 is a monopoly for source 2 (AP = 0).
        let g = NodeWeightedGraph::from_pairs_units(&[(0, 1), (1, 2)], &[0, 4, 0]);
        let table = all_sources_payments(&g, NodeId(0));
        let p = table[2].as_ref().unwrap();
        assert!(p.has_monopoly());
        assert_eq!(table[2], fast_payments(&g, NodeId(2), NodeId(0)));
    }

    #[test]
    fn symmetric_link_model_matches() {
        let arcs: Vec<(NodeId, NodeId, Cost)> = [
            (0u32, 1u32, 2u64),
            (1, 3, 2),
            (0, 2, 3),
            (2, 3, 4),
            (1, 2, 1),
        ]
        .iter()
        .flat_map(|&(u, v, w)| {
            [
                (NodeId(u), NodeId(v), Cost::from_units(w)),
                (NodeId(v), NodeId(u), Cost::from_units(w)),
            ]
        })
        .collect();
        let g = LinkWeightedDigraph::from_arcs(4, arcs);
        let mut engine = AllSourcesEngine::with_threads(2);
        let table = engine.price_all_sources_symmetric(&g, NodeId(3));
        for v in g.node_ids() {
            let expect = (v != NodeId(3))
                .then(|| fast_symmetric_payments(&g, v, NodeId(3)))
                .flatten();
            assert_eq!(table[v.index()], expect, "source {v:?}");
        }
    }

    #[test]
    fn asymmetric_link_model_is_all_none() {
        let g = LinkWeightedDigraph::from_arcs(2, [(NodeId(0), NodeId(1), Cost::from_units(1))]);
        let mut engine = AllSourcesEngine::new();
        assert_eq!(
            engine.price_all_sources_symmetric(&g, NodeId(1)),
            vec![None, None]
        );
    }
}
