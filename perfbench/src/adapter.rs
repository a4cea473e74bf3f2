//! Every call the benchmark makes into the program lives in this file,
//! so a change to the program's interface (for example merging
//! `begin_epoch` and `begin_epoch_mapped`) has one place to follow.
//!
//! The service is always built with one worker thread: `par_map` then
//! runs inline for both `serve_batch` and the k-shard epoch fan-out, and
//! the harness's two threads (serving, epochs) are the only busy ones.
//! The queue engine and damage threshold are left at their defaults;
//! the environment variables that would change them are refused in
//! `main`. Input generation also draws from `truthcast_rt`'s seeded RNG,
//! a utility rather than a layer under measurement.

use truthcast_core::all_sources::AllSourcesEngine;
use truthcast_core::delta::{
    classify_delta, classify_delta_severed, GraphDelta, IncrementalEngine,
};
use truthcast_graph::generators::{pairs_within_range, random_placement};
use truthcast_graph::{adjacency_from_pairs, Spt, SubtreeIntervals};
use truthcast_rt::SmallRng;
use truthcast_service::{PaymentService, ServeOutcome, ServiceConfig};
use truthcast_wireless::{Deployment, RadioParams, RandomWaypoint};

pub use truthcast_core::delta::EpochOutcome;
pub use truthcast_graph::geometry::{Point, Region};
pub use truthcast_graph::{Cost, NodeId, NodeMap, NodeWeightedGraph};
pub use truthcast_service::PaymentService as Service;

/// Radio range of every node; with the deployment densities in
/// `inputs` it gives about 12 neighbours per node.
pub const RANGE: f64 = 300.0;

// ---- inputs -------------------------------------------------------------

pub fn place(n: usize, region: Region, rng: &mut SmallRng) -> Vec<Point> {
    random_placement(n, region, rng)
}

/// Unit-disk neighbour pairs, sorted so the pair list is the same on
/// every run (the grid binning iterates a `HashMap`).
pub fn neighbour_pairs(points: &[Point]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = pairs_within_range(points, RANGE)
        .into_iter()
        .map(|(u, v)| (u.0.min(v.0), u.0.max(v.0)))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Random-waypoint mobility over a fixed node set.
pub struct Mobility {
    deployment: Deployment,
    model: RandomWaypoint,
}

impl Mobility {
    pub fn new(points: Vec<Point>, region: Region, max_speed: f64, rng: &mut SmallRng) -> Mobility {
        let n = points.len();
        let deployment = Deployment {
            positions: points,
            radios: vec![RadioParams::PAPER_SIM1; n],
            kappa: 2.0,
        };
        let model = RandomWaypoint::new(&deployment, region, 0.0, max_speed, rng);
        Mobility { deployment, model }
    }

    /// Advances `dt` simulated seconds and returns the positions.
    pub fn advance(&mut self, dt: f64, rng: &mut SmallRng) -> &mut [Point] {
        self.model.advance(&mut self.deployment, dt, rng);
        &mut self.deployment.positions
    }
}

// ---- graph layer --------------------------------------------------------

pub fn build_graph(n: usize, pairs: &[(u32, u32)], costs: &[Cost]) -> NodeWeightedGraph {
    NodeWeightedGraph::new(adjacency_from_pairs(n, pairs), costs.to_vec())
}

pub fn build_map(old_to_new: &[Option<NodeId>], new_len: usize) -> NodeMap {
    NodeMap::from_old_to_new(old_to_new.to_vec(), new_len)
}

// ---- service layer ------------------------------------------------------

pub fn new_service(
    aps: &[NodeId],
    queue_capacity: usize,
    g0: &NodeWeightedGraph,
) -> PaymentService {
    let cfg = ServiceConfig::new(aps.to_vec())
        .threads(1)
        .queue_capacity(queue_capacity);
    PaymentService::new(&cfg, g0)
}

pub fn serve_batch(svc: &PaymentService, sources: &[NodeId]) -> Vec<ServeOutcome> {
    svc.serve_batch(sources)
}

/// Drains every admission queue and drops the settlements; returns how
/// many there were.
pub fn drain(svc: &PaymentService) -> usize {
    svc.drain().len()
}

pub fn begin_epoch(
    svc: &PaymentService,
    g: &NodeWeightedGraph,
    map: Option<&NodeMap>,
) -> Vec<EpochOutcome> {
    match map {
        Some(m) => svc.begin_epoch_mapped(g, m),
        None => svc.begin_epoch(g),
    }
}

/// `(settled, shed, unreachable)` over one batch's outcomes.
pub fn tally(out: &[ServeOutcome]) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for o in out {
        match o {
            ServeOutcome::Settled(_) => t.0 += 1,
            ServeOutcome::Shed { .. } => t.1 += 1,
            ServeOutcome::Unreachable => t.2 += 1,
        }
    }
    t
}

/// What one served session came to, as the harness records it.
pub enum Served {
    /// `(ap_index, generation, digest of the settled pricing)`.
    Settled(usize, u64, u64),
    Shed,
    Unreachable,
}

pub fn served(outcome: &ServeOutcome) -> Served {
    match outcome {
        ServeOutcome::Settled(s) => {
            Served::Settled(s.ap_index, s.generation, digest(s.ap_index, &s.pricing))
        }
        ServeOutcome::Shed { .. } => Served::Shed,
        ServeOutcome::Unreachable => Served::Unreachable,
    }
}

/// What the harness reads from the published snapshots after an epoch.
pub struct Published {
    /// Non-AP nodes that no AP's snapshot can price.
    pub unreachable: usize,
    /// Bytes one AP's pricing table holds, averaged over the APs;
    /// computed from the vector sizes in `ApSnapshot.pricing`, not
    /// measured from the allocator.
    pub bytes_per_ap: usize,
    /// `table_digest` of each AP's table, in AP order.
    pub digests: Vec<u64>,
}

pub fn published(svc: &PaymentService, k: usize) -> Published {
    let snaps: Vec<_> = svc.shards().iter().map(|s| s.cell().read()).collect();
    let n = snaps.iter().map(|s| s.num_nodes()).min().unwrap_or(0);
    let unreachable = (k..n)
        .filter(|&v| snaps.iter().all(|s| s.pricing[v].is_none()))
        .count();
    let entry = std::mem::size_of::<Option<truthcast_core::UnicastPricing>>();
    let bytes: usize = snaps
        .iter()
        .flat_map(|s| s.pricing.iter())
        .map(|p| {
            entry
                + p.as_ref().map_or(0, |p| {
                    p.path.capacity() * std::mem::size_of::<NodeId>()
                        + p.payments.capacity() * std::mem::size_of::<(NodeId, Cost)>()
                })
        })
        .sum();
    Published {
        unreachable,
        bytes_per_ap: bytes / snaps.len().max(1),
        digests: snaps
            .iter()
            .map(|s| table_digest(s.ap_index, &s.pricing))
            .collect(),
    }
}

// ---- oracle -------------------------------------------------------------

/// FNV-1a, for digests the harness compares across runs and processes.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Everything a settlement quotes: winning AP, LCP cost, path and
    /// per-relay payments.
    fn pricing(&mut self, ap_index: usize, p: &truthcast_core::UnicastPricing) {
        self.eat(ap_index as u64);
        self.eat(p.lcp_cost.micros());
        self.eat(p.path.len() as u64);
        for v in &p.path {
            self.eat(u64::from(v.0));
        }
        for (v, c) in &p.payments {
            self.eat(u64::from(v.0));
            self.eat(c.micros());
        }
    }
}

fn digest(ap_index: usize, p: &truthcast_core::UnicastPricing) -> u64 {
    let mut h = Fnv::default();
    h.pricing(ap_index, p);
    h.0
}

/// One digest over a whole pricing table, entry by entry.
fn table_digest(ap_index: usize, table: &[Option<truthcast_core::UnicastPricing>]) -> u64 {
    let mut h = Fnv::default();
    for p in table {
        match p {
            Some(p) => h.pricing(ap_index, p),
            None => h.eat(u64::MAX),
        }
    }
    h.0
}

/// The oracle for one epoch graph: `all_sources_payments(g, ap)` for
/// every AP, as each table's digest and, for each of `sources`, every
/// AP's entry as `(LCP cost in micros, digest)`.
pub struct Oracle {
    pub tables: Vec<u64>,
    pub rows: Vec<Vec<Option<(u64, u64)>>>,
}

pub fn oracle(g: &NodeWeightedGraph, aps: &[NodeId], sources: &[NodeId]) -> Oracle {
    let tables: Vec<_> = aps
        .iter()
        .map(|&ap| truthcast_core::all_sources_payments(g, ap))
        .collect();
    let rows = sources
        .iter()
        .map(|s| {
            tables
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let p = t.get(s.index())?.as_ref()?;
                    Some((p.lcp_cost.micros(), digest(i, p)))
                })
                .collect()
        })
        .collect();
    Oracle {
        tables: tables
            .iter()
            .enumerate()
            .map(|(i, t)| table_digest(i, t))
            .collect(),
        rows,
    }
}

// ---- core layer (replay pass) --------------------------------------------

/// One shadow `IncrementalEngine` per AP plus one cold `AllSourcesEngine`.
pub struct Shadow {
    aps: Vec<NodeId>,
    engines: Vec<IncrementalEngine>,
    cold: AllSourcesEngine,
}

/// The previous epoch's tree for one AP, as `classify_delta` needs it.
pub struct Tree {
    iv: SubtreeIntervals,
    parent: Vec<Option<NodeId>>,
    /// Survivors whose old tree parent departed (resize epochs only).
    severed: Vec<NodeId>,
}

pub enum Delta {
    Same(GraphDelta),
    Mapped(truthcast_core::delta::MappedDelta),
}

impl Shadow {
    pub fn new(aps: &[NodeId], g: &NodeWeightedGraph) -> Shadow {
        let mut engines: Vec<IncrementalEngine> = aps
            .iter()
            .map(|_| IncrementalEngine::with_threads(1))
            .collect();
        for (e, &ap) in engines.iter_mut().zip(aps) {
            drop(e.price_epoch(g, ap));
        }
        Shadow {
            aps: aps.to_vec(),
            engines,
            cold: AllSourcesEngine::with_threads(1),
        }
    }

    /// Shadow state before the epoch: AP `i`'s tree, carried through
    /// `map` on a resize the way the engine carries it.
    pub fn tree(&self, i: usize, map: Option<&NodeMap>) -> Tree {
        let (_, parent) = self.engines[i].tables();
        let iv = Spt::from_parents(self.aps[i], parent).intervals();
        match map {
            None => Tree {
                iv,
                parent: parent.to_vec(),
                severed: Vec::new(),
            },
            Some(m) => {
                let mut moved = vec![None; m.new_len()];
                let mut severed = Vec::new();
                for (old, p) in parent.iter().enumerate() {
                    let Some(nv) = m.to_new(NodeId(old as u32)) else {
                        continue;
                    };
                    moved[nv.index()] = p.and_then(|p| m.to_new(p));
                    if p.is_some() && moved[nv.index()].is_none() {
                        severed.push(nv);
                    }
                }
                Tree {
                    iv: iv.remap(m),
                    parent: moved,
                    severed,
                }
            }
        }
    }

    pub fn diff(prev: &NodeWeightedGraph, g: &NodeWeightedGraph, map: Option<&NodeMap>) -> Delta {
        match map {
            None => Delta::Same(GraphDelta::between(prev, g).expect("same node set")),
            Some(m) => Delta::Mapped(GraphDelta::between_mapped(prev, g, m)),
        }
    }

    /// Classifies the delta for AP `i`; returns the dirty node count.
    pub fn classify(&self, i: usize, delta: &Delta, tree: &Tree) -> usize {
        let region = match delta {
            Delta::Same(d) => classify_delta(d, &tree.iv, &tree.parent, self.aps[i]),
            Delta::Mapped(md) => classify_delta_severed(
                &md.delta,
                &tree.severed,
                &tree.iv,
                &tree.parent,
                self.aps[i],
            ),
        };
        region.dirty_count
    }

    pub fn price_epoch(
        &mut self,
        i: usize,
        g: &NodeWeightedGraph,
        map: Option<&NodeMap>,
    ) -> EpochOutcome {
        let ap = self.aps[i];
        let e = &mut self.engines[i];
        let table = match map {
            Some(m) => e.price_epoch_mapped(g, ap, m),
            None => e.price_epoch(g, ap),
        };
        drop(table);
        e.last_outcome()
    }

    pub fn cold(&mut self, i: usize, g: &NodeWeightedGraph) {
        drop(self.cold.price_all_sources(g, self.aps[i]));
    }
}
