//! The three workloads and the seeded inputs they feed the program:
//! the open-loop session schedule and the epoch sequence. Generation runs
//! before any timed interval and leaves each epoch as neighbour pairs;
//! the CSR build from them (`Epoch::graph`) is part of the epoch, timed as
//! `graph.build`. The program only ever sees the generated graphs, maps
//! and source lists.

use truthcast_rt::{Rng, SeedableRng, SmallRng};

use crate::adapter::{self, Cost, NodeId, Point, Region};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// One topology; epochs republish it unchanged (`Reused`).
    Steady,
    /// Random-waypoint movement over a fixed node set.
    Mobility,
    /// Joins and leaves plus light movement, epochs through a `NodeMap`.
    Churn,
}

/// A workload's fixed parameters. The session rate is part of the
/// workload and never re-derived from a run.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Nodes at setup.
    pub n: usize,
    /// Access points, at indices `0..k`.
    pub k: usize,
    /// Nominal Poisson session rate, sessions per second.
    pub rate: f64,
    /// Wall time between scheduled epochs.
    pub period_ms: u64,
    /// One session in `sample_every` has its settlement checked
    /// against the oracle.
    pub sample_every: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-steady",
        kind: Kind::Steady,
        n: 1024,
        k: 4,
        rate: 800_000.0,
        period_ms: 100,
        sample_every: 1024,
    },
    Workload {
        name: "mobility",
        kind: Kind::Mobility,
        n: 4096,
        k: 4,
        rate: 20_000.0,
        period_ms: 200,
        sample_every: 64,
    },
    Workload {
        name: "churn",
        kind: Kind::Churn,
        n: 2048,
        k: 4,
        rate: 20_000.0,
        period_ms: 250,
        sample_every: 64,
    },
];

/// Per-shard admission queue capacity. The serving loop drains after
/// every batch, so a shed means one batch carried more than this many
/// sessions for one AP: at serve-steady's rate, a stall of about 0.3 s,
/// beyond the 100 ms hiccups a 2-vCPU VM's host occasionally imposes.
pub const QUEUE_CAPACITY: usize = 65_536;

/// Random-waypoint top speed (m/s) and simulated seconds per epoch on
/// `mobility`: up to 1 m of movement per node and epoch, which mixes
/// `Repaired` and `Fallback` outcomes at n = 4096.
const MOBILITY_SPEED: f64 = 2.0;
const MOBILITY_STEP_S: f64 = 0.5;
/// Join/leave events per epoch on `churn`, as a fraction of n.
const CHURN_RATE: f64 = 0.002;
/// Nodes moved per epoch on `churn`, as a fraction of n, and how far.
const CHURN_MOVERS: f64 = 0.005;
const CHURN_STEP_M: f64 = 60.0;

/// One epoch's topology. Epoch 0 is the setup graph.
pub struct Epoch {
    pub n: usize,
    pub pairs: Vec<(u32, u32)>,
    pub costs: Vec<Cost>,
    /// Old-to-new identity map from the previous epoch (churn only).
    pub old_to_new: Option<Vec<Option<NodeId>>>,
}

impl Epoch {
    pub fn graph(&self) -> adapter::NodeWeightedGraph {
        adapter::build_graph(self.n, &self.pairs, &self.costs)
    }
}

pub struct Inputs {
    pub aps: Vec<NodeId>,
    pub epochs: Vec<Epoch>,
    /// Scheduled time of epoch `e` (ns from the start of the live
    /// phase); index 0 is unused.
    pub epoch_due: Vec<u64>,
    /// Session `i` is due at `due[i]` ns and comes from `sources[i]`.
    pub due: Vec<u64>,
    pub sources: Vec<NodeId>,
}

/// An independent stream per purpose, so e.g. a longer session
/// schedule never shifts the topology.
pub fn stream(seed: u64, purpose: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Whether session `i` is checked against the oracle.
pub fn sampled(seed: u64, i: u64, every: u64) -> bool {
    let mut z = seed ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 29)).is_multiple_of(every)
}

/// Poisson arrival offsets (ns) at `rate` over `[0, span_ns)`.
pub fn arrivals(rng: &mut SmallRng, rate: f64, span_ns: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * span_ns as f64 / 1e9 * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate * 1e9;
        if t >= span_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Seed of every workload's deployment (placement and declared costs).
/// The deployment is part of the workload, like a dataset; the run seed
/// drives what happens on it: arrivals, sources, movement and churn.
/// Run-to-run differences then come from the traffic and the movement,
/// not from one random topology being cheaper to price than another.
const DEPLOYMENT_SEED: u64 = 0x5e41;

pub fn generate(w: &Workload, seed: u64, live_ns: u64) -> Inputs {
    let mut topo = stream(DEPLOYMENT_SEED, 1);
    let side = (w.n as f64 * adapter::RANGE * adapter::RANGE * std::f64::consts::PI / 12.0).sqrt();
    let region = Region::new(side, side);
    let points = adapter::place(w.n, region, &mut topo);
    let costs: Vec<Cost> = (0..w.n)
        .map(|_| Cost::from_f64(topo.gen_range(1.0..50.0)))
        .collect();
    let period_ns = w.period_ms * 1_000_000;
    let num_epochs = ((live_ns - 1) / period_ns) as usize;
    let mut epochs = vec![Epoch {
        n: w.n,
        pairs: adapter::neighbour_pairs(&points),
        costs: costs.clone(),
        old_to_new: None,
    }];
    let mut moves = stream(seed, 2);
    match w.kind {
        Kind::Steady => {
            for _ in 0..num_epochs {
                epochs.push(Epoch {
                    n: w.n,
                    pairs: epochs[0].pairs.clone(),
                    costs: costs.clone(),
                    old_to_new: None,
                });
            }
        }
        Kind::Mobility => {
            let aps: Vec<Point> = points[..w.k].to_vec();
            let mut model = adapter::Mobility::new(points, region, MOBILITY_SPEED, &mut moves);
            for _ in 0..num_epochs {
                let pos = model.advance(MOBILITY_STEP_S, &mut moves);
                pos[..w.k].copy_from_slice(&aps);
                epochs.push(Epoch {
                    n: w.n,
                    pairs: adapter::neighbour_pairs(pos),
                    costs: costs.clone(),
                    old_to_new: None,
                });
            }
        }
        Kind::Churn => {
            let (mut points, mut costs) = (points, costs);
            // Stable identity tags: swap-removes renumber indices, and
            // the per-epoch map is recovered by matching tags.
            let mut tags: Vec<u64> = (0..w.n as u64).collect();
            let mut next_tag = w.n as u64;
            for _ in 0..num_epochs {
                let old_tags = tags.clone();
                let events = (CHURN_RATE * points.len() as f64).ceil() as usize;
                for _ in 0..events {
                    // Leaves swap from index >= k, so the APs never move.
                    if points.len() > w.k + 2 && moves.gen_bool(0.5) {
                        let v = moves.gen_range(w.k..points.len());
                        points.swap_remove(v);
                        costs.swap_remove(v);
                        tags.swap_remove(v);
                    } else {
                        points.push(Point::new(
                            moves.gen_range(0.0..=region.width),
                            moves.gen_range(0.0..=region.height),
                        ));
                        costs.push(Cost::from_f64(moves.gen_range(1.0..50.0)));
                        tags.push(next_tag);
                        next_tag += 1;
                    }
                }
                let movers = (CHURN_MOVERS * points.len() as f64).ceil() as usize;
                for _ in 0..movers {
                    let v = moves.gen_range(w.k..points.len());
                    let p = points[v];
                    points[v] = Point::new(
                        (p.x + moves.gen_range(-CHURN_STEP_M..=CHURN_STEP_M))
                            .clamp(0.0, region.width),
                        (p.y + moves.gen_range(-CHURN_STEP_M..=CHURN_STEP_M))
                            .clamp(0.0, region.height),
                    );
                }
                let index: std::collections::HashMap<u64, usize> =
                    tags.iter().enumerate().map(|(i, &t)| (t, i)).collect();
                let old_to_new = old_tags
                    .iter()
                    .map(|t| index.get(t).map(|&i| NodeId::new(i)))
                    .collect();
                epochs.push(Epoch {
                    n: points.len(),
                    pairs: adapter::neighbour_pairs(&points),
                    costs: costs.clone(),
                    old_to_new: Some(old_to_new),
                });
            }
        }
    }
    let epoch_due = (0..=num_epochs as u64).map(|e| e * period_ns).collect();
    // Sources uniform over non-AP nodes that exist in every epoch.
    let min_n = epochs.iter().map(|e| e.n).min().unwrap_or(w.n);
    let mut sessions = stream(seed, 3);
    let due = arrivals(&mut sessions, w.rate, live_ns);
    let sources = due
        .iter()
        .map(|_| NodeId(sessions.gen_range(w.k as u32..min_n as u32)))
        .collect();
    Inputs {
        aps: (0..w.k as u32).map(NodeId).collect(),
        epochs,
        epoch_due,
        due,
        sources,
    }
}
