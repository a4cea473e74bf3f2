//! The service's one publication point: every epoch's k pricing tables
//! are published together, as one immutable `ServiceEpoch`.
//!
//! The serving layer's core concurrency problem is that pricing tables
//! are rebuilt every mobility epoch while the front-end keeps serving.
//! The answer here is read-copy-update with a single pointer: the epoch
//! writer re-prices all k APs *off to the side*, packs the tables into
//! one `ServiceEpoch` stamped with the next generation, and swaps the
//! cell's `Arc` under a write lock that covers the pointer exchange and
//! nothing else. A reader clones that `Arc` under a read lock, so it
//! gets either the whole old epoch or the whole new one — never a mix
//! of generations or of node index spaces, by construction. Readers
//! that raced the swap keep their `Arc` to the retired epoch, which is
//! freed when the last of them finishes (the writer drops its own
//! reference after releasing the lock).

use std::sync::{Arc, PoisonError, RwLock};

use truthcast_core::delta::{EpochOutcome, PricingTable};
use truthcast_graph::NodeId;

/// One access point's immutable pricing state for one epoch: every
/// source's unicast pricing toward this AP, pre-computed by the shard's
/// warm [`IncrementalEngine`] and shared read-only with every front-end
/// worker.
///
/// [`IncrementalEngine`]: truthcast_core::delta::IncrementalEngine
#[derive(Debug)]
pub struct ApSnapshot {
    /// The access point this snapshot prices toward.
    pub ap: NodeId,
    /// The owning shard's index in the service's AP list — the anycast
    /// tie-break key.
    pub ap_index: usize,
    /// How the shard's engine produced this epoch (cold, repaired,
    /// reused, resize, fallback) — churn epochs are reported, not hidden.
    pub outcome: EpochOutcome,
    /// `pricing[v]` is source `v`'s pricing toward [`ApSnapshot::ap`],
    /// bit-identical to `all_sources_payments(g, ap)[v]`; `None` for the
    /// AP itself and unreachable sources. The very table the shard's
    /// engine returned, shared rather than copied.
    pub pricing: PricingTable,
}

impl ApSnapshot {
    /// Number of nodes in the epoch this snapshot was priced over.
    pub fn num_nodes(&self) -> usize {
        self.pricing.len()
    }
}

/// All k APs' tables for one epoch, priced over one graph.
pub(crate) struct ServiceEpoch {
    /// 1 for the tables built at construction, +1 per `begin_epoch*`.
    pub(crate) generation: u64,
    /// One snapshot per AP, in AP-list order.
    pub(crate) aps: Vec<Arc<ApSnapshot>>,
}

/// The cell holding the current [`ServiceEpoch`]. Single writer: the
/// service serializes its epoch writers before calling
/// [`EpochCell::publish`].
pub(crate) struct EpochCell(RwLock<Arc<ServiceEpoch>>);

impl EpochCell {
    /// A cell holding an empty generation-0 epoch, to be replaced by the
    /// first [`EpochCell::publish`] before anyone reads it.
    pub(crate) fn empty() -> EpochCell {
        EpochCell(RwLock::new(Arc::new(ServiceEpoch {
            generation: 0,
            aps: Vec::new(),
        })))
    }

    /// The current epoch. The read lock is held only to clone the `Arc`
    /// (no code that can panic runs under either lock, so poisoning is
    /// unreachable and tolerated).
    pub(crate) fn read(&self) -> Arc<ServiceEpoch> {
        self.0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes `aps` as the next generation and returns it. The write
    /// lock covers only the pointer exchange; the retired epoch is
    /// dropped after the lock is released.
    pub(crate) fn publish(&self, aps: Vec<Arc<ApSnapshot>>) -> u64 {
        let generation = self.read().generation + 1;
        let next = Arc::new(ServiceEpoch { generation, aps });
        let retired = std::mem::replace(
            &mut *self.0.write().unwrap_or_else(PoisonError::into_inner),
            next,
        );
        drop(retired);
        generation
    }
}

/// One AP's read-only view of the current epoch (see
/// [`Shard::cell`](crate::shard::Shard::cell)).
pub struct ApCell<'a> {
    pub(crate) cell: &'a EpochCell,
    pub(crate) index: usize,
}

impl ApCell<'_> {
    /// This AP's snapshot in the current epoch.
    pub fn read(&self) -> Arc<ApSnapshot> {
        self.cell.read().aps[self.index].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ap: NodeId) -> Arc<ApSnapshot> {
        Arc::new(ApSnapshot {
            ap,
            ap_index: 0,
            outcome: EpochOutcome::Cold,
            pricing: Arc::new(vec![None, None]),
        })
    }

    #[test]
    fn read_returns_latest_published() {
        let cell = EpochCell::empty();
        assert_eq!(cell.read().generation, 0);
        assert_eq!(cell.publish(vec![snap(NodeId(0))]), 1);
        assert_eq!(cell.read().generation, 1);
        assert_eq!(cell.publish(vec![snap(NodeId(1))]), 2);
        let epoch = cell.read();
        assert_eq!(epoch.generation, 2);
        assert_eq!(epoch.aps[0].ap, NodeId(1));
    }

    #[test]
    fn retired_epochs_drain_when_readers_finish() {
        let cell = EpochCell::empty();
        cell.publish(vec![snap(NodeId(0))]);
        let held = cell.read();
        cell.publish(vec![snap(NodeId(0))]);
        // The stale reader still sees a complete generation-1 epoch, and
        // is its last owner.
        assert_eq!(held.generation, 1);
        assert_eq!(Arc::strong_count(&held), 1);
        drop(held);
        assert_eq!(cell.read().generation, 2);
    }
}
