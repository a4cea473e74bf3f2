//! An indexed binary min-heap with decrease-key and delete.
//!
//! Dijkstra only needs `push`/`pop`, but Algorithm 1's sliding crossing-edge
//! window (step 5 of the paper) inserts each candidate edge **once** when the
//! avoided path node passes its left level and deletes it **once** when it
//! passes its right level — which requires delete-by-key. The heap maps
//! external `u32` keys to slots through a position table, giving `O(log n)`
//! `push`, `pop_min`, `update`, and `remove`.

/// Sentinel for "key not in heap" in the position table.
const ABSENT: u32 = u32::MAX;

/// A binary min-heap over `(key: u32, priority: P)` pairs with
/// decrease/increase-key and delete-by-key.
///
/// Keys must be dense indices below the capacity passed to
/// [`IndexedHeap::new`]. Each key may be present at most once.
#[derive(Clone, Debug)]
pub struct IndexedHeap<P> {
    /// Heap slots: (priority, key).
    slots: Vec<(P, u32)>,
    /// `pos[key]` = slot index, or `ABSENT`.
    pos: Vec<u32>,
}

impl<P: Ord + Copy> IndexedHeap<P> {
    /// Creates an empty heap accepting keys in `0..capacity`.
    pub fn new(capacity: usize) -> IndexedHeap<P> {
        IndexedHeap {
            slots: Vec::new(),
            pos: vec![ABSENT; capacity],
        }
    }

    /// Number of entries currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `key` is currently present.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.pos[key as usize] != ABSENT
    }

    /// The priority of `key`, if present.
    pub fn priority(&self, key: u32) -> Option<P> {
        let p = self.pos[key as usize];
        (p != ABSENT).then(|| self.slots[p as usize].0)
    }

    /// The minimum `(key, priority)` without removing it.
    pub fn peek(&self) -> Option<(u32, P)> {
        self.slots.first().map(|&(p, k)| (k, p))
    }

    /// Inserts `key` with `priority`. Panics if `key` is already present.
    pub fn push(&mut self, key: u32, priority: P) {
        assert!(!self.contains(key), "key {key} already in heap");
        let slot = self.slots.len();
        self.slots.push((priority, key));
        self.pos[key as usize] = slot as u32;
        self.sift_up(slot);
    }

    /// Inserts `key`, or updates its priority if present (either direction).
    /// Returns `true` if the entry was newly inserted.
    pub fn push_or_update(&mut self, key: u32, priority: P) -> bool {
        if self.contains(key) {
            self.update(key, priority);
            false
        } else {
            self.push(key, priority);
            true
        }
    }

    /// Lowers `key`'s priority if `priority` is smaller; returns whether it
    /// changed. Inserts if absent (returns `true`).
    pub fn relax(&mut self, key: u32, priority: P) -> bool {
        match self.priority(key) {
            None => {
                self.push(key, priority);
                true
            }
            Some(old) if priority < old => {
                self.update(key, priority);
                true
            }
            Some(_) => false,
        }
    }

    /// Sets `key`'s priority (in either direction). Panics if absent.
    pub fn update(&mut self, key: u32, priority: P) {
        let slot = self.pos[key as usize];
        assert!(slot != ABSENT, "key {key} not in heap");
        let slot = slot as usize;
        let old = self.slots[slot].0;
        self.slots[slot].0 = priority;
        if priority < old {
            self.sift_up(slot);
        } else if priority > old {
            self.sift_down(slot);
        }
    }

    /// Removes and returns the minimum `(key, priority)`.
    pub fn pop_min(&mut self) -> Option<(u32, P)> {
        if self.slots.is_empty() {
            return None;
        }
        let (p, k) = self.slots[0];
        self.remove_slot(0);
        Some((k, p))
    }

    /// Removes `key` if present; returns its priority.
    pub fn remove(&mut self, key: u32) -> Option<P> {
        let slot = self.pos[key as usize];
        if slot == ABSENT {
            return None;
        }
        let p = self.slots[slot as usize].0;
        self.remove_slot(slot as usize);
        Some(p)
    }

    /// Drops every entry (keeps capacity).
    pub fn clear(&mut self) {
        for &(_, k) in &self.slots {
            self.pos[k as usize] = ABSENT;
        }
        self.slots.clear();
    }

    fn remove_slot(&mut self, slot: usize) {
        let last = self.slots.len() - 1;
        let removed_key = self.slots[slot].1;
        self.slots.swap(slot, last);
        self.slots.pop();
        self.pos[removed_key as usize] = ABSENT;
        if slot < self.slots.len() {
            // The element swapped in from the tail may need to move either
            // way; sift up first, then down from wherever it landed.
            let moved_key = self.slots[slot].1;
            self.pos[moved_key as usize] = slot as u32;
            self.sift_up(slot);
            self.sift_down(self.pos[moved_key as usize] as usize);
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.slots[slot].0 < self.slots[parent].0 {
                self.swap_slots(slot, parent);
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let l = 2 * slot + 1;
            let r = 2 * slot + 2;
            let mut smallest = slot;
            if l < self.slots.len() && self.slots[l].0 < self.slots[smallest].0 {
                smallest = l;
            }
            if r < self.slots.len() && self.slots[r].0 < self.slots[smallest].0 {
                smallest = r;
            }
            if smallest == slot {
                break;
            }
            self.swap_slots(slot, smallest);
            slot = smallest;
        }
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        self.pos[self.slots[a].1 as usize] = a as u32;
        self.pos[self.slots[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_orders() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(8);
        for (k, p) in [(3u32, 30u64), (1, 10), (2, 20), (0, 5)] {
            h.push(k, p);
        }
        let mut out = Vec::new();
        while let Some((k, p)) = h.pop_min() {
            out.push((k, p));
        }
        assert_eq!(out, vec![(0, 5), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn decrease_key_moves_entry_up() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(4);
        h.push(0, 100);
        h.push(1, 50);
        h.push(2, 75);
        h.update(0, 1);
        assert_eq!(h.pop_min(), Some((0, 1)));
        assert_eq!(h.pop_min(), Some((1, 50)));
    }

    #[test]
    fn increase_key_moves_entry_down() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(4);
        h.push(0, 1);
        h.push(1, 50);
        h.update(0, 99);
        assert_eq!(h.pop_min(), Some((1, 50)));
        assert_eq!(h.pop_min(), Some((0, 99)));
    }

    #[test]
    fn remove_by_key() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(8);
        for k in 0..6u32 {
            h.push(k, (k as u64 + 1) * 10);
        }
        assert_eq!(h.remove(0), Some(10));
        assert_eq!(h.remove(3), Some(40));
        assert_eq!(h.remove(3), None);
        assert_eq!(h.pop_min(), Some((1, 20)));
        assert_eq!(h.len(), 3);
        assert!(!h.contains(0));
        assert!(h.contains(2));
    }

    #[test]
    fn relax_only_improves() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(2);
        assert!(h.relax(0, 10));
        assert!(!h.relax(0, 20));
        assert!(h.relax(0, 5));
        assert_eq!(h.priority(0), Some(5));
    }

    #[test]
    #[should_panic(expected = "already in heap")]
    fn double_push_panics() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(2);
        h.push(0, 1);
        h.push(0, 2);
    }

    #[test]
    fn clear_resets_positions() {
        let mut h: IndexedHeap<u64> = IndexedHeap::new(4);
        h.push(1, 10);
        h.push(2, 20);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(1));
        h.push(1, 5);
        assert_eq!(h.pop_min(), Some((1, 5)));
    }

    /// Model test: random operation sequences must agree with a sorted-map
    /// reference implementation.
    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        // Simple deterministic LCG so the test needs no external RNG.
        let mut state: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let cap = 64usize;
        let mut heap: IndexedHeap<u64> = IndexedHeap::new(cap);
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        for _ in 0..20_000 {
            let op = next() % 4;
            let key = next() % cap as u32;
            let pri = (next() % 1000) as u64;
            match op {
                0 => {
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                        heap.push(key, pri);
                        e.insert(pri);
                    }
                }
                1 => {
                    if model.contains_key(&key) {
                        heap.update(key, pri);
                        model.insert(key, pri);
                    }
                }
                2 => {
                    assert_eq!(heap.remove(key), model.remove(&key));
                }
                _ => {
                    let expected = model.iter().map(|(&k, &p)| (p, k)).min();
                    let got = heap.pop_min().map(|(k, p)| (p, k));
                    match (expected, got) {
                        (None, None) => {}
                        (Some((ep, _)), Some((gp, gk))) => {
                            // Ties may resolve to any key with min priority.
                            assert_eq!(ep, gp);
                            assert_eq!(model.remove(&gk), Some(gp));
                        }
                        other => panic!("mismatch: {other:?}"),
                    }
                }
            }
            assert_eq!(heap.len(), model.len());
        }
    }
}
