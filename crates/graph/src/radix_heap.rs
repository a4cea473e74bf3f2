//! A monotone radix (bucket) priority queue over fixed-point [`Cost`].
//!
//! Dijkstra's pop sequence is non-decreasing, and every priority it pushes
//! is at least the most recent pop — the *monotone* access pattern. A
//! radix heap exploits that: entries live in buckets indexed by the
//! position of the highest bit in which their priority differs from the
//! queue's floor `last` (the minimum at the most recent redistribution).
//! `push` and `decrease` are then `O(1)` bucket inserts, and `pop_min`
//! only pays when bucket 0 runs dry: the lowest non-empty bucket is
//! drained, its minimum becomes the new floor, and — by the radix
//! invariant — every drained entry lands in a *strictly lower* bucket.
//! Each entry can drop through at most `⌈log₂ C⌉ + 1` buckets over its
//! lifetime, so a full sweep costs `O(m + n log C)` where `C` is the
//! largest finite priority. For our 64-bit micro-unit [`Cost`] that is 65
//! buckets; with realistic wireless costs (≲ 2⁴⁰ micro-units) only ~40
//! are ever touched.
//!
//! Compared to the binary [`crate::heap::IndexedHeap`] this trades
//! `O(log n)` compare-and-swap chains (pointer-chasing through a sifting
//! array) for straight-line bit arithmetic plus an occasional linear
//! redistribution — much friendlier to the cache on the hot sweep loops
//! behind every LCP and payment computation. It is the only queue behind
//! the Dijkstra sweeps; the binary heap remains the queue for
//! *non*-monotone workloads (Algorithm 1's sliding crossing-edge window
//! needs delete-by-key at arbitrary priorities).
//!
//! Like [`crate::workspace::DijkstraWorkspace`], the position table is
//! epoch-stamped: [`RadixHeap::clear`] bumps an epoch instead of touching
//! the `O(n)` table and empties only the occupied buckets, so a recycled
//! heap starts a new sweep in `O(occupied buckets)` — nothing at all after
//! a run that popped every entry.

use crate::cost::Cost;

/// One bucket per possible highest-differing-bit position (0..=64).
const NUM_BUCKETS: usize = 65;

/// Epoch-stamped location of a queued key: `stamp == epoch` means present.
#[derive(Clone, Copy, Debug)]
struct PosSlot {
    stamp: u32,
    bucket: u8,
    slot: u32,
}

const VACANT: PosSlot = PosSlot {
    stamp: 0,
    bucket: 0,
    slot: 0,
};

/// A monotone bucket priority queue over `(key: u32, priority: Cost)`
/// pairs with decrease-key.
///
/// Keys must be dense indices below the capacity passed to
/// [`RadixHeap::new`] (or grown via [`RadixHeap::ensure_capacity`]); each
/// key may be present at most once. **Monotonicity contract:** every
/// priority passed to [`push`](RadixHeap::push) or
/// [`decrease`](RadixHeap::decrease) must be ≥ the floor — the priority
/// returned by the most recent [`pop_min`](RadixHeap::pop_min) (0 after a
/// [`clear`](RadixHeap::clear)). Dijkstra with non-negative weights
/// satisfies this by construction; debug builds assert it.
#[derive(Clone, Debug)]
pub struct RadixHeap {
    /// The monotone floor: minimum of the lowest non-empty bucket at the
    /// most recent redistribution. Bucket 0 holds exactly the entries with
    /// `priority == last`.
    last: u64,
    /// Entries currently queued.
    len: usize,
    /// `buckets[b]`: entries whose priority differs from `last` first at
    /// bit `b - 1` (bucket 0: priority equals `last`).
    buckets: Vec<Vec<(u64, u32)>>,
    /// Occupancy bitmask over `buckets` (bit `b` set ⇔ bucket non-empty),
    /// so the lowest non-empty bucket is one `trailing_zeros`.
    occupied: u128,
    /// `pos[key]`: where the key currently lives, epoch-stamped.
    pos: Vec<PosSlot>,
    /// Stamp of the current use; bumped by [`RadixHeap::clear`].
    epoch: u32,
    /// Entries moved by redistributions since the last clear (the
    /// `sweep.radix_redistribute` observability counter).
    redistributed: u64,
}

impl RadixHeap {
    /// Creates an empty heap accepting keys in `0..capacity`.
    pub fn new(capacity: usize) -> RadixHeap {
        RadixHeap {
            last: 0,
            len: 0,
            buckets: vec![Vec::new(); NUM_BUCKETS],
            occupied: 0,
            pos: vec![VACANT; capacity],
            epoch: 1,
            redistributed: 0,
        }
    }

    /// Number of entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is currently present.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.pos[key as usize].stamp == self.epoch
    }

    /// The current monotone floor: every queued priority is ≥ this, and
    /// every future push must be too.
    #[inline]
    pub fn floor(&self) -> Cost {
        Cost::from_micros(self.last)
    }

    /// Entries moved by bucket redistributions since the last
    /// [`clear`](RadixHeap::clear) — the heap's only super-constant work,
    /// exported as the `radix_redistribute` sweep counter.
    #[inline]
    pub fn redistributed(&self) -> u64 {
        self.redistributed
    }

    /// The priority of `key`, if present.
    pub fn priority(&self, key: u32) -> Option<Cost> {
        let ps = self.pos[key as usize];
        (ps.stamp == self.epoch)
            .then(|| Cost::from_micros(self.buckets[ps.bucket as usize][ps.slot as usize].0))
    }

    /// Bucket for `priority` relative to the current floor: the position
    /// of the highest bit in which it differs from `last`, plus one
    /// (bucket 0 ⇔ equal to `last`).
    #[inline]
    fn bucket_of(&self, priority: u64) -> usize {
        (64 - (priority ^ self.last).leading_zeros()) as usize
    }

    #[inline]
    fn insert_entry(&mut self, key: u32, priority: u64) {
        let b = self.bucket_of(priority);
        let slot = self.buckets[b].len() as u32;
        self.buckets[b].push((priority, key));
        self.occupied |= 1 << b;
        self.pos[key as usize] = PosSlot {
            stamp: self.epoch,
            bucket: b as u8,
            slot,
        };
    }

    /// Removes the entry at `ps`, fixing up the position of whatever entry
    /// backfills its slot.
    fn remove_at(&mut self, ps: PosSlot) {
        let b = ps.bucket as usize;
        self.buckets[b].swap_remove(ps.slot as usize);
        if let Some(&(_, moved)) = self.buckets[b].get(ps.slot as usize) {
            self.pos[moved as usize].slot = ps.slot;
        }
        if self.buckets[b].is_empty() {
            self.occupied &= !(1 << b);
        }
    }

    /// Inserts `key` with `priority`. Panics in debug builds if `key` is
    /// already present or `priority` is below the floor.
    pub fn push(&mut self, key: u32, priority: Cost) {
        debug_assert!(!self.contains(key), "key {key} already in radix heap");
        debug_assert!(
            priority.micros() >= self.last,
            "monotonicity violated: push {priority:?} below floor {:?}",
            self.floor()
        );
        self.insert_entry(key, priority.micros());
        self.len += 1;
    }

    /// Lowers `key`'s priority to `priority` (which must still be ≥ the
    /// floor). A no-op if the priority is unchanged; panics in debug
    /// builds if `key` is absent or the new priority is larger.
    pub fn decrease(&mut self, key: u32, priority: Cost) {
        let ps = self.pos[key as usize];
        debug_assert!(ps.stamp == self.epoch, "key {key} not in radix heap");
        let p = priority.micros();
        let old = self.buckets[ps.bucket as usize][ps.slot as usize].0;
        debug_assert!(p <= old, "decrease to a larger priority");
        debug_assert!(p >= self.last, "monotonicity violated in decrease");
        if p == old {
            return;
        }
        self.remove_at(ps);
        self.insert_entry(key, p);
    }

    /// Inserts `key`, or lowers its priority if already present. Returns
    /// `true` if the entry was newly inserted.
    pub fn push_or_decrease(&mut self, key: u32, priority: Cost) -> bool {
        if self.contains(key) {
            self.decrease(key, priority);
            false
        } else {
            self.push(key, priority);
            true
        }
    }

    /// Removes and returns a minimum `(key, priority)` entry.
    ///
    /// Ties among minimum-priority entries resolve in an unspecified (but
    /// deterministic) order that generally differs from
    /// [`crate::heap::IndexedHeap`]'s; distances are unaffected, parent
    /// trees may differ among equal-cost paths.
    pub fn pop_min(&mut self) -> Option<(u32, Cost)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            self.redistribute();
        }
        let (p, key) = self.buckets[0].pop().expect("bucket 0 filled above");
        if self.buckets[0].is_empty() {
            self.occupied &= !1;
        }
        self.pos[key as usize].stamp = 0; // mark absent (epoch is ≥ 1)
        self.len -= 1;
        Some((key, Cost::from_micros(p)))
    }

    /// Drains the lowest non-empty bucket, advancing the floor to its
    /// minimum. Radix invariant: every drained entry shares all bits above
    /// the bucket's with the old floor, so relative to the *new* floor
    /// (one of them) it lands strictly lower — bucket 0 for the minimum
    /// itself. Each entry therefore redistributes `O(log C)` times total.
    #[cold]
    fn redistribute(&mut self) {
        let i = (self.occupied & !1).trailing_zeros() as usize;
        debug_assert!(i < NUM_BUCKETS, "redistribute on an empty heap");
        let mut drained = std::mem::take(&mut self.buckets[i]);
        self.occupied &= !(1 << i);
        self.last = drained.iter().map(|&(p, _)| p).min().expect("non-empty");
        self.redistributed += drained.len() as u64;
        for &(p, key) in &drained {
            debug_assert!(self.bucket_of(p) < i, "radix invariant");
            self.insert_entry(key, p);
        }
        drained.clear();
        self.buckets[i] = drained; // keep the drained bucket's capacity
    }

    /// Grows the accepted key range to `0..capacity` (never shrinks).
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.pos.len() < capacity {
            self.pos.resize(capacity, VACANT);
        }
    }

    /// Drops every entry and resets the floor to zero, keeping all bucket
    /// and position capacity. `O(occupied buckets + entries)`: only the
    /// buckets the occupancy mask names are emptied (a drained heap has
    /// none), and the position table is invalidated by an epoch bump, not
    /// rewritten — so recycling the heap across many tiny runs is cheap.
    pub fn clear(&mut self) {
        let mut occupied = self.occupied;
        while occupied != 0 {
            self.buckets[occupied.trailing_zeros() as usize].clear();
            occupied &= occupied - 1;
        }
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
        self.redistributed = 0;
        if self.epoch == u32::MAX {
            // Once per 2^32 clears: hard-reset so the epoch can wrap
            // without aliasing a stale position entry.
            for p in &mut self.pos {
                *p = VACANT;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(u: u64) -> Cost {
        Cost::from_micros(u)
    }

    #[test]
    fn push_pop_orders() {
        let mut h = RadixHeap::new(8);
        for (k, p) in [(3u32, 30u64), (1, 10), (2, 20), (0, 5)] {
            h.push(k, c(p));
        }
        let mut out = Vec::new();
        while let Some((k, p)) = h.pop_min() {
            out.push((k, p.micros()));
        }
        assert_eq!(out, vec![(0, 5), (1, 10), (2, 20), (3, 30)]);
        assert!(h.is_empty());
    }

    #[test]
    fn monotone_interleaving() {
        let mut h = RadixHeap::new(16);
        h.push(0, c(0));
        assert_eq!(h.pop_min(), Some((0, c(0))));
        // Pushes must be ≥ the last pop; mirror a Dijkstra relax pattern.
        h.push(1, c(7));
        h.push(2, c(3));
        assert_eq!(h.pop_min(), Some((2, c(3))));
        h.push(3, c(3)); // equal to the floor is allowed
        h.push(4, c(100));
        assert_eq!(h.pop_min(), Some((3, c(3))));
        assert_eq!(h.pop_min(), Some((1, c(7))));
        assert_eq!(h.pop_min(), Some((4, c(100))));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn decrease_key_moves_entry() {
        let mut h = RadixHeap::new(4);
        h.push(0, c(100));
        h.push(1, c(50));
        h.push(2, c(75));
        h.decrease(0, c(1));
        assert_eq!(h.priority(0), Some(c(1)));
        assert_eq!(h.pop_min(), Some((0, c(1))));
        assert_eq!(h.pop_min(), Some((1, c(50))));
        // Decrease after pops must respect the new floor (50).
        h.decrease(2, c(60));
        assert_eq!(h.pop_min(), Some((2, c(60))));
    }

    #[test]
    fn push_or_decrease_reports_insertion() {
        let mut h = RadixHeap::new(2);
        assert!(h.push_or_decrease(0, c(10)));
        assert!(!h.push_or_decrease(0, c(5)));
        assert_eq!(h.priority(0), Some(c(5)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn equal_priorities_all_surface() {
        let mut h = RadixHeap::new(8);
        for k in 0..5u32 {
            h.push(k, c(42));
        }
        let mut keys = Vec::new();
        while let Some((k, p)) = h.pop_min() {
            assert_eq!(p, c(42));
            keys.push(k);
        }
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clear_resets_floor_and_positions() {
        let mut h = RadixHeap::new(4);
        h.push(1, c(10));
        h.push(2, c(20));
        assert_eq!(h.pop_min(), Some((1, c(10))));
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(2));
        assert_eq!(h.floor(), Cost::ZERO);
        assert_eq!(h.redistributed(), 0);
        // A fresh sweep can start below the old floor again.
        h.push(1, c(0));
        assert_eq!(h.pop_min(), Some((1, c(0))));
    }

    #[test]
    fn capacity_grows() {
        let mut h = RadixHeap::new(1);
        h.push(0, c(1));
        h.ensure_capacity(10);
        h.push(9, c(2));
        assert_eq!(h.pop_min(), Some((0, c(1))));
        assert_eq!(h.pop_min(), Some((9, c(2))));
    }

    #[test]
    fn redistribution_counter_moves() {
        let mut h = RadixHeap::new(8);
        h.push(0, c(0));
        assert_eq!(h.pop_min(), Some((0, c(0))));
        // Entries far above the floor share a bucket; popping forces one
        // redistribution that separates them.
        h.push(1, c(1 << 20));
        h.push(2, c((1 << 20) + 1));
        assert_eq!(h.redistributed(), 0);
        assert_eq!(h.pop_min(), Some((1, c(1 << 20))));
        assert!(h.redistributed() >= 2);
        assert_eq!(h.pop_min(), Some((2, c((1 << 20) + 1))));
    }

    #[test]
    fn max_finite_priorities_are_handled() {
        let mut h = RadixHeap::new(4);
        h.push(0, Cost::ZERO);
        h.push(1, Cost::MAX_FINITE);
        assert_eq!(h.pop_min(), Some((0, Cost::ZERO)));
        assert_eq!(h.pop_min(), Some((1, Cost::MAX_FINITE)));
    }

    #[test]
    fn epoch_wraparound_never_aliases() {
        let mut h = RadixHeap::new(2);
        h.push(0, c(5));
        h.epoch = u32::MAX; // pretend 2^32 - 1 clears happened
        h.pos[0].stamp = u32::MAX;
        h.clear();
        assert_eq!(h.epoch, 1);
        assert!(!h.contains(0));
        h.push(0, c(1));
        assert_eq!(h.pop_min(), Some((0, c(1))));
    }

    /// Model test against a sorted reference under a random *monotone*
    /// operation sequence (the only pattern the radix heap supports).
    #[test]
    fn model_check_monotone_sequences() {
        use std::collections::BTreeMap;
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let cap = 64usize;
        for round in 0..50 {
            let mut heap = RadixHeap::new(cap);
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut floor = 0u64;
            for _ in 0..500 {
                let op = next() % 3;
                let key = (next() % cap as u64) as u32;
                // Priorities stay ≥ floor, with spread varying by round.
                let pri = floor + next() % (1 + (round % 7) * 1000);
                match op {
                    0 => {
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                            heap.push(key, c(pri));
                            e.insert(pri);
                        }
                    }
                    1 => {
                        if let Some(&old) = model.get(&key) {
                            if pri < old {
                                heap.decrease(key, c(pri));
                                model.insert(key, pri);
                            }
                        }
                    }
                    _ => {
                        let expected = model.iter().map(|(&k, &p)| (p, k)).min();
                        let got = heap.pop_min().map(|(k, p)| (p.micros(), k));
                        match (expected, got) {
                            (None, None) => {}
                            (Some((ep, _)), Some((gp, gk))) => {
                                assert_eq!(ep, gp, "round {round}");
                                assert_eq!(model.remove(&gk), Some(gp));
                                floor = gp;
                            }
                            other => panic!("round {round} mismatch: {other:?}"),
                        }
                    }
                }
                assert_eq!(heap.len(), model.len());
            }
        }
    }
}
