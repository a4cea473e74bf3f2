//! The multi-tenant front-end: anycast session admission over k per-AP
//! shards.
//!
//! [`PaymentService::serve_batch`] is the hot path. It reads the
//! service's current `ServiceEpoch` **once** per batch: one `Arc`
//! clone holding all k AP tables of one generation, priced over one
//! graph. An epoch landing mid-batch therefore cannot make two sessions
//! from the same batch price against different epochs, and no batch
//! can mix two node index spaces. Pricing is then a pure function of
//! (sources, epoch): [`truthcast_rt::par_map`] fans the argmin over the
//! front-end workers and collects results in index order, so the
//! settled prices are bit-identical at any thread count — the same
//! invariant every engine below this layer already holds. Only after
//! pricing does admission apply backpressure, shard by shard: each
//! shard locks its queue once and admits its winners in batch order,
//! which makes shed decisions deterministic too: whether session i is
//! shed depends only on the sessions before it in the batch that won
//! the same shard, never on worker scheduling.
//!
//! A [`Settlement`] copies nothing out of the epoch. Its
//! [`SettledPricing`] is a reference-counted handle on the winning AP's
//! snapshot plus the source's row index, so settling, queueing and
//! cloning a session each cost a refcount increment, and a held
//! settlement keeps that AP's table alive after later epochs retire it.
//!
//! Anycast settlement: a session from source `v` considers every AP
//! whose snapshot can price `v` and settles at the one with the
//! cheapest declared least-cost-path cost, breaking exact-cost ties
//! toward the lowest AP index. This is exactly
//! `argmin_k all_sources_payments(g, ap_k)[v]` — the differential
//! battery in `tests/service_vs_library.rs` holds the service to that
//! oracle bit-for-bit.

use std::fmt;
use std::ops::Deref;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use truthcast_core::delta::{EpochOutcome, IncrementalEngine};
use truthcast_core::UnicastPricing;
use truthcast_graph::{NodeId, NodeMap, NodeWeightedGraph};
use truthcast_rt::{default_threads, par_map};

use crate::epoch::{ApSnapshot, EpochCell};
use crate::shard::Shard;

/// Configuration for a [`PaymentService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The access points, one engine shard each. Order matters: the AP's
    /// position here is its shard index, the anycast tie-break key.
    pub aps: Vec<NodeId>,
    /// Worker threads for batch pricing and per-shard epoch warms.
    pub threads: usize,
    /// Bounded admission-queue capacity per shard; sessions settling on
    /// a full shard are shed.
    pub queue_capacity: usize,
    /// Damage threshold override for the shard engines (fraction of n
    /// above which an epoch's repair falls back to a cold sweep).
    /// `None` keeps the engine default / `TRUTHCAST_DELTA_THRESHOLD`.
    /// Purely a performance knob — settled prices are identical either
    /// way.
    pub damage_threshold: Option<f64>,
}

impl ServiceConfig {
    /// A config with `aps`, default threads and an effectively unbounded
    /// queue.
    pub fn new(aps: Vec<NodeId>) -> ServiceConfig {
        ServiceConfig {
            aps,
            threads: default_threads(),
            queue_capacity: usize::MAX,
            damage_threshold: None,
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> ServiceConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-shard bounded-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the shard engines' damage threshold.
    pub fn damage_threshold(mut self, threshold: f64) -> ServiceConfig {
        self.damage_threshold = Some(threshold);
        self
    }
}

/// A session that settled: where it was admitted and at what price.
#[derive(Clone, Debug)]
pub struct Settlement {
    /// The source node that opened the session.
    pub source: NodeId,
    /// Index of the winning shard in [`ServiceConfig::aps`].
    pub ap_index: usize,
    /// The winning access point.
    pub ap: NodeId,
    /// Generation of the epoch the session priced against — the epoch
    /// the quoted payments are valid for.
    pub generation: u64,
    /// The full VCG pricing toward the winning AP (path, LCP cost,
    /// per-relay payments), read in place from the epoch's table.
    pub pricing: SettledPricing,
}

/// A settled session's [`UnicastPricing`], viewed in place: the winning
/// AP's snapshot and the source's row in it. Dereferences to the row;
/// cloning it is one refcount increment, and while it lives it keeps
/// the snapshot's table alive.
#[derive(Clone)]
pub struct SettledPricing {
    snap: Arc<ApSnapshot>,
    source: NodeId,
}

impl Deref for SettledPricing {
    type Target = UnicastPricing;

    fn deref(&self) -> &UnicastPricing {
        self.snap.pricing[self.source.index()]
            .as_ref()
            .expect("a settlement is made only from a priced row")
    }
}

impl fmt::Debug for SettledPricing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq<UnicastPricing> for SettledPricing {
    fn eq(&self, other: &UnicastPricing) -> bool {
        **self == *other
    }
}

/// Per-session result of [`PaymentService::serve_batch`].
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// The session priced, won an AP, and was admitted.
    Settled(Settlement),
    /// The session priced and won an AP, but that shard's bounded queue
    /// was full — backpressure shed it.
    Shed {
        /// Index of the shard that would have admitted the session.
        ap_index: usize,
    },
    /// No AP's snapshot in the current epoch can price this source
    /// (disconnected, or the source is itself an AP / outside the
    /// epoch's node set).
    Unreachable,
}

impl ServeOutcome {
    /// The settlement, if the session settled.
    pub fn settlement(&self) -> Option<&Settlement> {
        match self {
            ServeOutcome::Settled(s) => Some(s),
            _ => None,
        }
    }
}

/// The multi-tenant payment service: k per-AP engine shards behind an
/// anycast batch front-end. See the module docs for the serving
/// protocol and [`crate::epoch`] for the publication protocol.
pub struct PaymentService {
    shards: Vec<Shard>,
    threads: usize,
    /// The one publication point: all k tables of the current epoch.
    epoch: Arc<EpochCell>,
    /// Serializes epoch writers, so each `begin_epoch*` re-prices every
    /// shard against the same previous epoch and publishes once.
    writer: Mutex<()>,
}

impl PaymentService {
    /// Builds the service and warms the generation-1 tables of every
    /// shard from `g0`. Also registers the service's counters with
    /// [`truthcast_obs`] so `summary_table` reports zeros for events
    /// that never fired (a shed counter that prints `0` is evidence of
    /// headroom; one that is absent is evidence of nothing).
    ///
    /// # Panics
    /// If `cfg.aps` is empty, contains a duplicate, or names a node
    /// outside `g0`.
    pub fn new(cfg: &ServiceConfig, g0: &NodeWeightedGraph) -> PaymentService {
        assert!(!cfg.aps.is_empty(), "a service needs at least one AP");
        for (i, &ap) in cfg.aps.iter().enumerate() {
            assert!(
                ap.index() < g0.num_nodes(),
                "AP {ap:?} is outside the initial graph"
            );
            assert!(
                !cfg.aps[..i].contains(&ap),
                "AP {ap:?} appears twice; shards must own distinct APs"
            );
        }
        for name in [
            "service.sessions.offered",
            "service.sessions.settled",
            "service.sessions.shed",
            "service.sessions.unreachable",
            "service.epoch.swaps",
            "service.epoch.cold_resizes",
            "service.epoch.warm_resizes",
            "service.queue.drained",
            "service.load.stalls",
        ] {
            truthcast_obs::register(name);
        }
        // Split the warm-path thread budget across shards: an epoch fans
        // the k warms out in parallel, so handing every shard the full
        // budget would run up to k×threads workers at once. Each
        // engine's output is thread-count independent (the project
        // invariant), so the split never changes a price.
        let warm_threads = (cfg.threads.max(1) / cfg.aps.len()).max(1);
        let epoch = Arc::new(EpochCell::empty());
        let shards = cfg
            .aps
            .iter()
            .enumerate()
            .map(|(i, &ap)| {
                let mut engine = IncrementalEngine::with_threads(warm_threads);
                if let Some(t) = cfg.damage_threshold {
                    engine.set_damage_threshold(t);
                }
                Shard::new(ap, i, engine, cfg.queue_capacity, epoch.clone())
            })
            .collect();
        let service = PaymentService {
            shards,
            threads: cfg.threads.max(1),
            epoch,
            writer: Mutex::new(()),
        };
        service.advance(g0, None);
        service
    }

    /// The per-AP shards, in AP-list order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of access points (= shards).
    pub fn num_aps(&self) -> usize {
        self.shards.len()
    }

    /// Advances every shard to the epoch graph `g` and publishes the k
    /// new tables as one epoch. Shards warm in parallel across the
    /// worker pool; each shard's engine was built with `threads / k`
    /// workers (floor, min 1), so the total never exceeds the configured
    /// budget — with k ≥ threads every warm runs single-threaded and the
    /// whole budget goes to the fan-out. Serving continues throughout:
    /// `&self`, and readers keep the previous epoch until the one
    /// pointer swap at the end.
    ///
    /// Returns each shard's [`EpochOutcome`], in shard order.
    ///
    /// # Panics
    /// If any shard's engine panics. Nothing is published and every
    /// shard re-warms cold on the next epoch.
    pub fn begin_epoch(&self, g: &NodeWeightedGraph) -> Vec<EpochOutcome> {
        let _span = truthcast_obs::span("service.begin_epoch");
        self.advance(g, None)
    }

    /// Advances every shard to the epoch graph `g` *through churn*: the
    /// [`NodeMap`] carries node identities from the previous epoch's
    /// index space into `g`'s, so each shard's engine repairs across the
    /// join/leave instead of re-warming cold
    /// ([`EpochOutcome::WarmResize`] instead of
    /// [`EpochOutcome::ColdResize`], bit-identical tables either way).
    ///
    /// # Panics
    /// If any shard's AP does not keep its index under `map` — APs are
    /// the service's fixed infrastructure; churn is for the client node
    /// population. (Encode AP-preserving renumberings accordingly, e.g.
    /// keep APs in the low indices so `leave_swap` never moves them.)
    /// Also as [`PaymentService::begin_epoch`] if a shard panics, for
    /// instance on a map whose lengths do not match the two graphs.
    pub fn begin_epoch_mapped(&self, g: &NodeWeightedGraph, map: &NodeMap) -> Vec<EpochOutcome> {
        let _span = truthcast_obs::span("service.begin_epoch");
        for s in &self.shards {
            assert_eq!(
                map.to_new(s.ap),
                Some(s.ap),
                "AP {:?} must keep its index across a mapped epoch",
                s.ap
            );
        }
        self.advance(g, Some(map))
    }

    /// Re-prices all k shards, then publishes their tables in one swap.
    fn advance(&self, g: &NodeWeightedGraph, map: Option<&NodeMap>) -> Vec<EpochOutcome> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let k = self.shards.len();
        let priced = catch_unwind(AssertUnwindSafe(|| {
            par_map(k, self.threads.min(k), |i| self.shards[i].price(g, map))
        }));
        let aps = match priced {
            Ok(aps) => aps,
            Err(panic) => {
                for s in &self.shards {
                    s.reset();
                }
                resume_unwind(panic);
            }
        };
        let outcomes = aps.iter().map(|s| s.outcome).collect();
        // Generation 1 is the construction warm-up, not a swap.
        if self.epoch.publish(aps) > 1 {
            truthcast_obs::add("service.epoch.swaps", 1);
        }
        outcomes
    }

    /// Generation of the current epoch.
    pub fn generation(&self) -> u64 {
        self.epoch.read().generation
    }

    /// Prices and admits a batch of sessions; `out[i]` is session `i`'s
    /// outcome. See the module docs for the determinism argument.
    pub fn serve_batch(&self, sources: &[NodeId]) -> Vec<ServeOutcome> {
        let _span = truthcast_obs::span("service.serve_batch");
        let epoch = self.epoch.read();
        let won = par_map(sources.len(), self.threads, |i| {
            settle_one(sources[i], &epoch.aps)
        });
        // Every winner is shed unless its shard admits it below.
        let mut out: Vec<ServeOutcome> = won
            .iter()
            .map(|w| match *w {
                Some(ap_index) => ServeOutcome::Shed { ap_index },
                None => ServeOutcome::Unreachable,
            })
            .collect();
        let winners = won.iter().flatten().count() as u64;
        let mut settled = 0;
        for shard in &self.shards {
            let snap = &epoch.aps[shard.index];
            settled += shard.admit_batch(&mut out, |i| Settlement {
                source: sources[i],
                ap_index: shard.index,
                ap: snap.ap,
                generation: epoch.generation,
                pricing: SettledPricing {
                    snap: Arc::clone(snap),
                    source: sources[i],
                },
            });
        }
        for (name, n) in [
            ("service.sessions.offered", sources.len() as u64),
            ("service.sessions.settled", settled),
            ("service.sessions.shed", winners - settled),
            (
                "service.sessions.unreachable",
                sources.len() as u64 - winners,
            ),
        ] {
            if n > 0 {
                truthcast_obs::add(name, n);
            }
        }
        out
    }

    /// Drains every shard's admission queue, in shard order.
    pub fn drain(&self) -> Vec<Settlement> {
        let mut all = Vec::new();
        for s in &self.shards {
            s.drain_into(&mut all);
        }
        all
    }
}

/// The anycast argmin: the index of the snapshot with the cheapest
/// declared LCP cost, exact-cost ties broken toward the lowest AP index
/// (strict `<` while scanning in index order). All snapshots come from
/// one epoch, so their indices name the same physical nodes. Pure — no
/// locks, no atomics on the decision path — so the batch fan-out stays
/// bit-deterministic.
fn settle_one(source: NodeId, snaps: &[Arc<ApSnapshot>]) -> Option<usize> {
    let mut best: Option<(usize, &UnicastPricing)> = None;
    for (i, snap) in snaps.iter().enumerate() {
        let Some(p) = snap.pricing.get(source.index()).and_then(Option::as_ref) else {
            continue;
        };
        match best {
            Some((_, b)) if p.lcp_cost >= b.lcp_cost => {}
            _ => best = Some((i, p)),
        }
    }
    best.map(|(i, _)| i)
}
