//! Per-AP engine shards: one warm [`IncrementalEngine`] per access
//! point, pricing that AP's table each epoch and admitting settled
//! sessions through a bounded queue.
//!
//! A shard owns everything that is mutable about one access point — the
//! delta engine (warm distance tables, detour rows, previous-epoch
//! graph) and the admission queue — behind coarse mutexes the serving
//! hot path never touches. A shard does not publish: the service packs
//! all k shards' tables into one epoch and publishes that once, so
//! re-warming one AP's tables never stalls pricing against any AP,
//! including its own.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use truthcast_core::delta::{EpochOutcome, IncrementalEngine};
use truthcast_graph::{NodeId, NodeMap, NodeWeightedGraph};

use crate::epoch::{ApCell, ApSnapshot, EpochCell};
use crate::service::{ServeOutcome, Settlement};

/// One access point's serving state: the epoch engine and the bounded
/// admission queue.
pub struct Shard {
    /// The access point this shard prices toward.
    pub ap: NodeId,
    /// This shard's index in the service's AP list — the anycast
    /// tie-break key, stamped into every snapshot.
    pub index: usize,
    /// The delta engine that re-warms this AP's tables each epoch.
    /// Locked only while an epoch is priced; the serving path reads `cell`.
    engine: Mutex<IncrementalEngine>,
    /// The service's publication cell, shared by every shard.
    cell: Arc<EpochCell>,
    /// Admitted-but-undrained settlements, bounded by `capacity`.
    queue: Mutex<VecDeque<Settlement>>,
    capacity: usize,
    /// Sessions this shard admitted over its lifetime.
    settled: AtomicU64,
}

impl Shard {
    /// A shard whose engine has not priced anything yet; the service
    /// warms it with the first epoch it publishes.
    pub(crate) fn new(
        ap: NodeId,
        index: usize,
        engine: IncrementalEngine,
        capacity: usize,
        cell: Arc<EpochCell>,
    ) -> Shard {
        Shard {
            ap,
            index,
            engine: Mutex::new(engine),
            cell,
            queue: Mutex::new(VecDeque::new()),
            capacity,
            settled: AtomicU64::new(0),
        }
    }

    /// This AP's table in the service's current epoch — a read-only
    /// projection of the one published epoch.
    pub fn cell(&self) -> ApCell<'_> {
        ApCell {
            cell: &self.cell,
            index: self.index,
        }
    }

    /// Re-prices this AP for the epoch graph `g` and returns the new
    /// snapshot for the service to publish. With a [`NodeMap`] the
    /// engine repairs *through* the churn (`price_epoch_mapped`);
    /// without one a node-count change re-warms cold.
    pub(crate) fn price(&self, g: &NodeWeightedGraph, map: Option<&NodeMap>) -> Arc<ApSnapshot> {
        let mut engine = self
            .engine
            .lock()
            .expect("a panicking epoch resets the engines it poisoned");
        let pricing = match map {
            Some(m) => engine.price_epoch_mapped(g, self.ap, m),
            None => engine.price_epoch(g, self.ap),
        };
        let outcome = engine.last_outcome();
        match outcome {
            EpochOutcome::ColdResize { .. } => {
                truthcast_obs::add("service.epoch.cold_resizes", 1);
            }
            EpochOutcome::WarmResize { .. } => {
                truthcast_obs::add("service.epoch.warm_resizes", 1);
            }
            _ => {}
        }
        Arc::new(ApSnapshot {
            ap: self.ap,
            ap_index: self.index,
            outcome,
            pricing,
        })
    }

    /// Replaces the engine with a fresh one of the same settings, so the
    /// next epoch re-warms cold. Called for every shard when any shard's
    /// epoch panicked: shards that finished that epoch hold state for a
    /// graph that was never published.
    pub(crate) fn reset(&self) {
        let mut engine = self.engine.lock().unwrap_or_else(PoisonError::into_inner);
        *engine = IncrementalEngine::with_threads(engine.threads())
            .with_damage_threshold(engine.damage_threshold());
        drop(engine);
        self.engine.clear_poison();
    }

    /// Admits this shard's winners of one batch, in batch order. The
    /// caller marks every winner `ServeOutcome::Shed { ap_index }`; each
    /// one naming this shard becomes `Settled(settle(i))` while the
    /// queue has room. The queue is locked once for the whole batch, so
    /// it only grows during the walk: the first winner to find it full
    /// stays shed, and so does every later one. Returns how many settled.
    pub(crate) fn admit_batch(
        &self,
        out: &mut [ServeOutcome],
        settle: impl Fn(usize) -> Settlement,
    ) -> u64 {
        let mut queue = None;
        let mut admitted = 0;
        for (i, o) in out.iter_mut().enumerate() {
            if !matches!(*o, ServeOutcome::Shed { ap_index } if ap_index == self.index) {
                continue;
            }
            let q = queue
                .get_or_insert_with(|| self.queue.lock().unwrap_or_else(PoisonError::into_inner));
            if q.len() >= self.capacity {
                break;
            }
            let s = settle(i);
            q.push_back(s.clone());
            *o = ServeOutcome::Settled(s);
            admitted += 1;
        }
        if admitted > 0 {
            self.settled.fetch_add(admitted, Ordering::Relaxed);
        }
        admitted
    }

    /// Moves every queued settlement onto the end of `all`. The back-end
    /// half of the queue: the load generator drains between rounds, a
    /// real deployment would charge payments here.
    pub(crate) fn drain_into(&self, all: &mut Vec<Settlement>) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if !q.is_empty() {
            truthcast_obs::add("service.queue.drained", q.len() as u64);
            all.extend(q.drain(..));
        }
    }

    /// Lifetime admitted-session count.
    pub fn settled(&self) -> u64 {
        self.settled.load(Ordering::Relaxed)
    }
}
