//! A generation-keyed slab: stable integer keys into a reusable arena.
//!
//! Per-connection hot-path state — armed timers, parked waiter cells —
//! used to be allocated one `Arc`/heap node per registration, so a
//! million-connection churn storm meant a million short-lived allocations
//! per wave. A slab recycles slots through a free list instead: steady
//! state inserts allocate nothing, and removal is O(1) by key. Keys carry
//! a generation so a stale key (kept by a cancelled timer handle or an
//! abandoned wait slot) can never touch a recycled slot.

/// A key naming a live slab entry. Stale keys (the entry was removed and
/// the slot possibly reused) are detected by generation mismatch and
/// rejected by every accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabKey {
    idx: u32,
    gen: u32,
}

struct Slot<T> {
    /// Bumped on every removal, so old keys to this slot stop matching.
    gen: u32,
    val: Option<T>,
}

/// The arena. Insertion reuses freed slots before growing the backing
/// vector; removal is O(1) and physically drops the value.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab (no backing allocation until the first insert).
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Stores `val`, reusing a freed slot if one exists.
    pub fn insert(&mut self, val: T) -> SlabKey {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none());
            slot.val = Some(val);
            return SlabKey { idx, gen: slot.gen };
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            gen: 0,
            val: Some(val),
        });
        SlabKey { idx, gen: 0 }
    }

    /// Removes and returns the entry, freeing its slot for reuse. `None`
    /// if the key is stale (already removed, slot possibly recycled).
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        let val = slot.val.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(key.idx);
        self.len -= 1;
        Some(val)
    }

    /// A shared reference to the entry, or `None` for a stale key.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let slot = self.slots.get(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.val.as_ref()
    }

    /// An exclusive reference to the entry, or `None` for a stale key.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.val.as_mut()
    }

    /// True if `key` still names a live entry.
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots the slab has ever grown to (live + free) — the physical
    /// footprint, for tests asserting churn does not grow the arena.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab(len={}, capacity={})", self.len, self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "double remove is a stale key");
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slots_are_recycled_and_stale_keys_rejected() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // Same physical slot, new generation.
        assert_eq!(s.capacity(), 1);
        assert_eq!(s.get(a), None, "old key must not see the new tenant");
        assert_eq!(s.get(b), Some(&2));
        assert!(!s.contains(a));
        assert!(s.contains(b));
    }

    #[test]
    fn churn_does_not_grow_capacity() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..64).map(|i| s.insert(i)).collect();
        for k in keys {
            s.remove(k);
        }
        for round in 0..1000 {
            let keys: Vec<_> = (0..64).map(|i| s.insert(i + round)).collect();
            for k in keys {
                s.remove(k);
            }
        }
        assert_eq!(s.capacity(), 64, "steady-state churn reuses slots");
        assert!(s.is_empty());
    }
}
