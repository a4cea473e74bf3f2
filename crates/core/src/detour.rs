//! The slice-local detour kernel: one relay's replacement-cost row.
//!
//! The payment to relay `x` on source `y`'s LCP reads
//! `F_x(y) = ‖P_{-x}(y, ap)‖`, the cheapest `y → ap` path avoiding `x`.
//! Removing `x` cuts off exactly `S = subtree(x) \ {x}` of the AP-rooted
//! tree, so one restricted Dijkstra over `S` yields the whole row
//! `F_x(·)`: every member is seeded with its best *escape* over the arcs
//! leaving the subtree (the suffix from an outside node `w` is its
//! unconstrained `R'(w)`, because `w`'s own tree path avoids `x`), and
//! relaxation stays inside `S` (DESIGN.md §10). Both
//! [`crate::AllSourcesEngine`] and [`crate::delta::IncrementalEngine`]
//! compute every row through [`detour_row`].
//!
//! **The slice graph.** The kernel runs on a [`SliceGraph`], built once
//! per (epoch, AP) from the AP-rooted tree: an epoch-local CSR in which
//! the node at preorder position `p` sits at index `p`. Each neighbour
//! list holds neighbour *positions* in ascending order (one transpose
//! pass produces them sorted, no sort needed), and `R'`, the node costs
//! (node model) or arc weights (link model) and every position's subtree
//! exit are copied alongside. Relay `x` at position `a` with exit `b` then
//! owns the contiguous range `(a, b]`, and a member's sorted list splits
//! into four runs: neighbours below `a` and above `b` (the crossing arcs,
//! i.e. the escape candidates), `x` itself at `a`, and the interior
//! `(a, b]`. The escape scan walks in from both ends of the list, so it
//! costs `O(crossing arcs + 2)` rather than `O(degree)`; most members have
//! no crossing arc at all. Values and supports live in slice-local
//! arrays, so a finished row leaves the kernel as one contiguous copy.
//!
//! **One kernel, two seedings.** Every seed is pushed before the first
//! pop and every relaxation adds a non-negative cost, so each run is a
//! monotone Dijkstra on the [`RadixHeap`]. A cold run seeds every member
//! at its escape. A repair ([`CachedRow`]) first runs the support-forest
//! validity walk: a member keeps its cached value iff it persisted in the
//! slice, is undamaged, and its whole support chain down to an escape
//! seed persisted and stayed undamaged — the old value is then still
//! achieved by the same detour. Only the invalid members are re-seeded at
//! their escapes; the intact members bordering them are pushed at their
//! kept values. Improvements propagate out of the invalid set by ordinary
//! relaxation, and increases cannot (a valid chain still achieves its old
//! value), so both seedings settle to the same exact row in the same
//! loop.

use std::marker::PhantomData;

use truthcast_graph::radix_heap::RadixHeap;
use truthcast_graph::{Cost, LinkWeightedDigraph, NodeId, NodeWeightedGraph, SubtreeIntervals};

/// The two cost models share every phase except seeding/relaxation
/// arithmetic and the final payment formula; this trait captures the
/// differences so the crossing-edge machinery is written once.
pub(crate) trait DetourModel: Sync {
    /// Whether a detour step is priced by the arc's weight (the symmetric
    /// link model) instead of the declared cost of the node it steps back
    /// through (the node model).
    const ARC_COSTS: bool;
    fn num_nodes(&self) -> usize;
    /// Visits every out-neighbor `w` of `y` with the arc's model cost
    /// (the neighbor's node cost, or the arc weight).
    fn arcs_from<F: FnMut(NodeId, Cost)>(&self, y: NodeId, f: F);
    /// Cost of continuing toward the AP through neighbor `w`, given the
    /// arc cost and `w`'s inclusive table value `R'(w)`.
    fn onward(&self, arc: Cost, dist_w: Cost) -> Cost;
    /// `v`'s declared cost, charged when a detour steps back through `v`
    /// (read only when `ARC_COSTS` is false).
    fn node_cost(&self, v: NodeId) -> Cost;
    /// `‖P(v, ap)‖` read off the inclusive table.
    fn lcp_at(&self, v: NodeId, dist: &[Cost]) -> Cost;
    /// The declared cost a relay's VCG payment adds back: its node cost,
    /// or the cost of the arc it forwards on to `next`.
    fn declared(&self, relay: NodeId, next: NodeId) -> Cost;
}

impl DetourModel for NodeWeightedGraph {
    const ARC_COSTS: bool = false;
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }
    #[inline]
    fn arcs_from<F: FnMut(NodeId, Cost)>(&self, y: NodeId, mut f: F) {
        for &w in self.neighbors(y) {
            f(w, self.cost(w));
        }
    }
    #[inline]
    fn onward(&self, _arc: Cost, dist_w: Cost) -> Cost {
        // R'(w) already counts c_w (and is 0 at the AP itself).
        dist_w
    }
    #[inline]
    fn node_cost(&self, v: NodeId) -> Cost {
        self.cost(v)
    }
    #[inline]
    fn lcp_at(&self, v: NodeId, dist: &[Cost]) -> Cost {
        dist[v.index()].saturating_sub(self.cost(v))
    }
    #[inline]
    fn declared(&self, relay: NodeId, _next: NodeId) -> Cost {
        self.cost(relay)
    }
}

impl DetourModel for LinkWeightedDigraph {
    const ARC_COSTS: bool = true;
    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }
    #[inline]
    fn arcs_from<F: FnMut(NodeId, Cost)>(&self, y: NodeId, mut f: F) {
        for a in self.out_arcs(y) {
            f(a.head, a.weight);
        }
    }
    #[inline]
    fn onward(&self, arc: Cost, dist_w: Cost) -> Cost {
        arc.saturating_add(dist_w)
    }
    #[inline]
    fn node_cost(&self, _v: NodeId) -> Cost {
        Cost::ZERO
    }
    #[inline]
    fn lcp_at(&self, v: NodeId, dist: &[Cost]) -> Cost {
        dist[v.index()]
    }
    #[inline]
    fn declared(&self, relay: NodeId, next: NodeId) -> Cost {
        self.arc_cost(relay, next)
    }
}

/// Sentinel support: the member's value is its own best escape, not a
/// relaxation through another slice member. Shared by the slice-local
/// and the node-id encodings of a row's support forest.
pub(crate) const ESC_VIA: u32 = u32::MAX;
/// Slice-local support of a cached member whose supporting member is no
/// longer in the slice.
const GONE: u32 = u32::MAX - 1;
/// Position of a node outside the tree.
const OUT: u32 = u32::MAX;

/// Validity-walk flags: the member appeared in the cached row; its
/// cached value survives; it must be recomputed.
const IN_OLD: u8 = 1;
const VALID: u8 = 2;
const INVALID: u8 = 4;

/// The AP-rooted tree of one epoch as a preorder-relabelled CSR (see the
/// module docs). Out-of-tree nodes are dropped: their `R'` is infinite,
/// so they can neither supply an escape nor be a slice member.
pub(crate) struct SliceGraph<M> {
    /// `order[p]`: the node at preorder position `p`.
    order: Vec<NodeId>,
    /// `pos[v]`: `v`'s preorder position, [`OUT`] outside the tree.
    pos: Vec<u32>,
    /// `exit[p]`: the last position of `order[p]`'s subtree.
    exit: Vec<u32>,
    /// CSR row offsets into `adj`, one row per position.
    off: Vec<u32>,
    /// Neighbour positions, ascending within each row.
    adj: Vec<u32>,
    /// Arc weight per `adj` entry (link model; empty for the node model).
    arc: Vec<Cost>,
    /// `R'` by position.
    dist: Vec<Cost>,
    /// Declared cost by position (node model; empty for the link model).
    cost: Vec<Cost>,
    _model: PhantomData<fn(&M)>,
}

impl<M: DetourModel> SliceGraph<M> {
    /// Relabels `m` by `iv`'s preorder, with `dist` the AP-rooted `R'`
    /// table the intervals were taken from. `O(n + m)`.
    pub(crate) fn new(m: &M, iv: &SubtreeIntervals, dist: &[Cost]) -> SliceGraph<M> {
        let order = iv.order().to_vec();
        let t = order.len();
        let mut pos = vec![OUT; m.num_nodes()];
        for (p, v) in order.iter().enumerate() {
            pos[v.index()] = p as u32;
        }
        let exit: Vec<u32> = order
            .iter()
            .enumerate()
            .map(|(p, &v)| (p + iv.subtree(v).len() - 1) as u32)
            .collect();
        // Transpose: visiting heads in ascending position appends to every
        // tail's row in ascending order, so the rows come out sorted. Both
        // models are symmetric, so a node's out-arcs are its in-arcs, at
        // the same cost.
        let mut off = vec![0u32; t + 1];
        for &w in &order {
            m.arcs_from(w, |u, _| {
                if pos[u.index()] != OUT {
                    off[pos[u.index()] as usize + 1] += 1;
                }
            });
        }
        for p in 0..t {
            off[p + 1] += off[p];
        }
        let entries = off[t] as usize;
        let mut fill: Vec<u32> = off[..t].to_vec();
        let mut adj = vec![0u32; entries];
        let mut arc = if M::ARC_COSTS {
            vec![Cost::ZERO; entries]
        } else {
            Vec::new()
        };
        for (q, &w) in order.iter().enumerate() {
            m.arcs_from(w, |u, c| {
                let pu = pos[u.index()];
                if pu != OUT {
                    let e = fill[pu as usize] as usize;
                    fill[pu as usize] += 1;
                    adj[e] = q as u32;
                    if M::ARC_COSTS {
                        arc[e] = c;
                    }
                }
            });
        }
        let dist = order.iter().map(|v| dist[v.index()]).collect();
        let cost = if M::ARC_COSTS {
            Vec::new()
        } else {
            order.iter().map(|&v| m.node_cost(v)).collect()
        };
        SliceGraph {
            order,
            pos,
            exit,
            off,
            adj,
            arc,
            dist,
            cost,
            _model: PhantomData,
        }
    }

    /// The nodes by preorder position.
    pub(crate) fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Cost of escaping the slice over `adj` entry `e`.
    #[inline]
    fn escape(&self, e: usize) -> Cost {
        let d = self.dist[self.adj[e] as usize];
        if M::ARC_COSTS {
            self.arc[e].saturating_add(d)
        } else {
            d
        }
    }
}

/// A relay's row from an earlier epoch, to be repaired rather than
/// recomputed.
pub(crate) struct CachedRow<'a> {
    /// The slice members the row was computed over, in its order.
    pub(crate) members: &'a [NodeId],
    /// The cached `F` values, aligned with `members`.
    pub(crate) vals: &'a [Cost],
    /// The cached support forest in node ids ([`ESC_VIA`] = escape).
    pub(crate) vias: &'a [u32],
    /// Primitive damage by *position* of this epoch's slice graph: a
    /// damaged member's cached value, and every value supported through
    /// it, is recomputed.
    pub(crate) damaged: &'a [bool],
}

/// What one [`detour_row`] run did.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RowStats {
    /// Crossing arcs read by the escape scans.
    pub(crate) scans: u64,
    /// Queue pops.
    pub(crate) pops: u64,
    /// Members whose cached value survived (repairs only).
    pub(crate) kept: u64,
    /// Members seeded afresh at their escapes and settled.
    pub(crate) resettled: u64,
}

/// Per-worker kernel scratch. Every array is slice-local (index `k` is the
/// member at position `a + 1 + k`) and is written before it is read, so
/// nothing is reset between runs except the repair flags.
pub(crate) struct SliceScratch {
    heap: RadixHeap,
    val: Vec<Cost>,
    via: Vec<u32>,
    /// Each member's interior arcs, as an `adj` range.
    inner: Vec<(u32, u32)>,
    flag: Vec<u8>,
    chain: Vec<u32>,
    len: usize,
}

impl SliceScratch {
    pub(crate) fn new() -> SliceScratch {
        SliceScratch {
            heap: RadixHeap::new(0),
            val: Vec::new(),
            via: Vec::new(),
            inner: Vec::new(),
            flag: Vec::new(),
            chain: Vec::new(),
            len: 0,
        }
    }

    /// The last row's `F` values, in slice order.
    pub(crate) fn values(&self) -> &[Cost] {
        &self.val[..self.len]
    }

    /// The last row's support forest in node ids, in slice order; `x` is
    /// the relay the row was run for.
    pub(crate) fn supports<M>(&self, sg: &SliceGraph<M>, x: NodeId) -> Vec<u32> {
        let base = sg.pos[x.index()] as usize + 1;
        self.via[..self.len]
            .iter()
            .map(|&k| {
                if k == ESC_VIA {
                    ESC_VIA
                } else {
                    sg.order[base + k as usize].0
                }
            })
            .collect()
    }
}

/// Computes relay `x`'s row `F_x(y)` for every member `y` of its slice,
/// cold (`cached: None`) or by repairing a cached row. The row is left in
/// `sc` ([`SliceScratch::values`], [`SliceScratch::supports`]).
pub(crate) fn detour_row<M: DetourModel>(
    sg: &SliceGraph<M>,
    x: NodeId,
    cached: Option<CachedRow<'_>>,
    sc: &mut SliceScratch,
) -> RowStats {
    let a = sg.pos[x.index()] as usize;
    let b = sg.exit[a] as usize;
    let base = a + 1;
    let len = b - a;
    let SliceScratch {
        heap,
        val,
        via,
        inner,
        flag,
        chain,
        len: row_len,
    } = sc;
    *row_len = len;
    if val.len() < len {
        val.resize(len, Cost::INF);
        via.resize(len, ESC_VIA);
        inner.resize(len, (0, 0));
    }
    heap.clear();
    heap.ensure_capacity(len);
    let mut st = RowStats::default();

    let repair = cached.is_some();
    if let Some(c) = cached {
        flag.clear();
        flag.resize(len, 0);
        for ((&y, &f), &v) in c.members.iter().zip(c.vals).zip(c.vias) {
            // Members that left the slice (or the tree: OUT > b) drop out.
            let q = sg.pos[y.index()] as usize;
            if q <= a || q > b {
                continue;
            }
            let k = q - base;
            val[k] = f;
            via[k] = if v == ESC_VIA {
                ESC_VIA
            } else {
                let s = sg.pos[v as usize] as usize;
                if s > a && s <= b {
                    (s - base) as u32
                } else {
                    GONE
                }
            };
            flag[k] = IN_OLD;
        }
        // Validity walk, memoized through `flag`: each chain is traversed
        // once, and the verdict at its resolution point back-propagates to
        // every member walked to reach it. A support settled strictly
        // earlier in its run, so the forest is acyclic and the walk ends.
        for k in 0..len {
            let mut cur = k;
            let verdict = loop {
                let f = flag[cur];
                if f & (VALID | INVALID) != 0 {
                    break f & (VALID | INVALID);
                }
                if f & IN_OLD == 0 || c.damaged[base + cur] {
                    break INVALID;
                }
                match via[cur] {
                    ESC_VIA => break VALID,
                    GONE => break INVALID,
                    s => {
                        chain.push(cur as u32);
                        cur = s as usize;
                    }
                }
            };
            flag[cur] |= verdict;
            for &p in chain.iter() {
                flag[p as usize] |= verdict;
            }
            chain.clear();
        }
    }

    // Seeding. Intact members keep their certified value; every other
    // member starts at its best escape, and in a repair the intact members
    // bordering it join the queue at their kept values.
    for k in 0..len {
        let p = base + k;
        let (lo0, hi0) = (sg.off[p] as usize, sg.off[p + 1] as usize);
        let list = &sg.adj[lo0..hi0];
        let below = list.iter().take_while(|&&q| (q as usize) < a).count();
        let above = list[below..]
            .iter()
            .rev()
            .take_while(|&&q| q as usize > b)
            .count();
        let mut lo = lo0 + below;
        let hi = hi0 - above;
        if lo < hi && sg.adj[lo] as usize == a {
            lo += 1; // the arc back to x, which is removed
        }
        inner[k] = (lo as u32, hi as u32);
        st.scans += (below + above) as u64;
        if repair && flag[k] & VALID != 0 {
            st.kept += 1;
            continue;
        }
        let mut esc = Cost::INF;
        for e in (lo0..lo0 + below).chain(hi..hi0) {
            esc = esc.min(sg.escape(e));
        }
        val[k] = esc;
        via[k] = ESC_VIA;
        if esc.is_finite() {
            heap.push(k as u32, esc);
        }
        if repair {
            for &q in &sg.adj[lo..hi] {
                let kq = q as usize - base;
                if flag[kq] & VALID != 0 && val[kq].is_finite() {
                    heap.push_or_decrease(kq as u32, val[kq]);
                }
            }
        }
    }
    st.resettled = len as u64 - st.kept;

    // Settle strictly inside the slice: the escapes consumed the crossing
    // arcs, and the arc to x is excluded.
    while let Some((kk, fk)) = heap.pop_min() {
        st.pops += 1;
        let (lo, hi) = inner[kk as usize];
        let mut relax = |q: u32, cand: Cost| {
            let kq = q as usize - base;
            if cand < val[kq] {
                val[kq] = cand;
                via[kq] = kk;
                heap.push_or_decrease(kq as u32, cand);
            }
        };
        let (lo, hi) = (lo as usize, hi as usize);
        if M::ARC_COSTS {
            // Symmetric model: the detour steps from neighbour q into the
            // popped member at the cost of the stored arc the other way.
            for e in lo..hi {
                relax(sg.adj[e], fk.saturating_add(sg.arc[e]));
            }
        } else {
            let cand = fk.saturating_add(sg.cost[base + kk as usize]);
            for &q in &sg.adj[lo..hi] {
                relax(q, cand);
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use truthcast_graph::dijkstra::{dijkstra, DijkstraOptions, Direction};
    use truthcast_graph::generators::{erdos_renyi, pairs_within_range, random_placement};
    use truthcast_graph::geometry::Region;
    use truthcast_graph::node_dijkstra::{node_dijkstra, NodeDijkstraOptions};
    use truthcast_graph::{adjacency_from_pairs, Adjacency, NodeMask, Spt};
    use truthcast_rt::{Rng, SeedableRng, SmallRng};

    /// A UDG and an Erdős–Rényi topology per seed, each with a
    /// wide-range and a tie-heavy (including zero) cost draw.
    fn instances(seed: u64) -> Vec<(Adjacency, Vec<u64>)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(30..70);
        let points = random_placement(n, Region::new(1000.0, 1000.0), &mut rng);
        let pairs: Vec<(u32, u32)> = pairs_within_range(&points, 260.0)
            .into_iter()
            .map(|(u, v)| (u.0, v.0))
            .collect();
        let udg = adjacency_from_pairs(n, &pairs);
        let er = erdos_renyi(n, 0.08, &mut rng);
        let mut out = Vec::new();
        for adj in [udg, er] {
            for hi in [500_000u64, 4] {
                let costs = (0..n).map(|_| rng.gen_range(0..hi)).collect();
                out.push((adj.clone(), costs));
            }
        }
        out
    }

    /// Runs every relay's row cold against `oracle(x)` (the masked sweep's
    /// `F` per node), then repairs it from a cached copy whose damaged
    /// members hold garbage: the repair must land on the same row.
    fn check_rows<M: DetourModel>(
        m: &M,
        dist: &[Cost],
        parent: &[Option<NodeId>],
        ap: NodeId,
        rng: &mut SmallRng,
        oracle: impl Fn(NodeId) -> Vec<Cost>,
    ) -> usize {
        let iv = Spt::from_parents(ap, parent).intervals();
        let sg = SliceGraph::new(m, &iv, dist);
        let mut sc = SliceScratch::new();
        let mut rows = 0;
        for &x in &iv.order()[1..] {
            let members = &iv.subtree(x)[1..];
            if members.is_empty() {
                continue;
            }
            rows += 1;
            detour_row(&sg, x, None, &mut sc);
            let masked = oracle(x);
            let want: Vec<Cost> = members.iter().map(|y| masked[y.index()]).collect();
            assert_eq!(sc.values(), &want[..], "relay {x:?}");

            let vias = sc.supports(&sg, x);
            let damaged: Vec<bool> = (0..sg.order().len()).map(|_| rng.gen_bool(0.3)).collect();
            let mut vals = want.clone();
            for (f, &y) in vals.iter_mut().zip(members) {
                if damaged[iv.enter(y).unwrap() as usize] {
                    *f = Cost::ZERO;
                }
            }
            let cached = CachedRow {
                members,
                vals: &vals,
                vias: &vias,
                damaged: &damaged,
            };
            detour_row(&sg, x, Some(cached), &mut sc);
            assert_eq!(sc.values(), &want[..], "repaired relay {x:?}");
        }
        rows
    }

    #[test]
    fn node_rows_match_masked_sweeps() {
        let mut rows = 0;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0xDE70 + seed);
            for (adj, units) in instances(seed) {
                let n = adj.num_nodes();
                let costs = units.iter().map(|&u| Cost::from_units(u)).collect();
                let g = NodeWeightedGraph::new(adj, costs);
                let ap = NodeId(0);
                let t = node_dijkstra(&g, ap, NodeDijkstraOptions::default());
                rows += check_rows(&g, &t.dist, &t.parent, ap, &mut rng, |x| {
                    let mask = NodeMask::from_nodes(n, [x]);
                    let opts = NodeDijkstraOptions {
                        avoid: Some(&mask),
                        ..Default::default()
                    };
                    let masked = node_dijkstra(&g, ap, opts);
                    g.node_ids().map(|y| masked.lcp_cost(&g, y)).collect()
                });
            }
        }
        assert!(rows > 100, "only {rows} relay rows exercised");
    }

    #[test]
    fn link_rows_match_masked_sweeps() {
        let mut rows = 0;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x11AC + seed);
            for (adj, units) in instances(seed) {
                let n = adj.num_nodes();
                // Symmetric arc weights, drawn per undirected link from
                // the instance's cost range.
                let hi = units.iter().max().map_or(1, |&m| m + 1);
                let arcs: Vec<(NodeId, NodeId, Cost)> = adj
                    .edges()
                    .flat_map(|(u, v)| {
                        let w = Cost::from_units(rng.gen_range(0..hi));
                        [(u, v, w), (v, u, w)]
                    })
                    .collect();
                let g = LinkWeightedDigraph::from_arcs(n, arcs);
                let ap = NodeId(0);
                let t = dijkstra(&g, ap, Direction::Forward, DijkstraOptions::default());
                rows += check_rows(&g, &t.dist, &t.parent, ap, &mut rng, |x| {
                    let mask = NodeMask::from_nodes(n, [x]);
                    let opts = DijkstraOptions {
                        avoid: Some(&mask),
                        ..Default::default()
                    };
                    dijkstra(&g, ap, Direction::Forward, opts).dist
                });
            }
        }
        assert!(rows > 100, "only {rows} relay rows exercised");
    }
}
