//! Bounded LRU cache of hot users' top-K lists.
//!
//! Hand-rolled (the container has no crates.io access): a `HashMap` from key
//! to slab slot plus an intrusive doubly-linked list over the slab, so both
//! lookup and eviction are O(1). A second intrusive chain links the slots of
//! one user's cutoffs, so per-user invalidation costs that user's entries and
//! not a scan: it runs under the lock every connection worker reads through
//! (`engine.rs`). For the same reason both maps and the slab are sized at
//! construction, so filling the cache grows (and rehashes) no table under
//! that lock. Capacity 0 disables caching entirely.

use std::collections::HashMap;

use crate::engine::Recommendation;

/// Cache key: one `(user, k)` request shape.
pub type CacheKey = (u32, usize);

const NIL: usize = usize::MAX;

struct Node {
    key: CacheKey,
    value: Vec<Recommendation>,
    prev: usize,
    next: usize,
    /// Next slot holding a list of the same user (`NIL` ends the chain).
    peer: usize,
}

/// Bounded least-recently-used cache of recommendation lists with hit/miss
/// accounting.
pub struct LruCache {
    map: HashMap<CacheKey, usize>,
    /// First slot of each cached user's chain of cutoffs (`Node::peer`).
    users: HashMap<u32, usize>,
    slab: Vec<Node>,
    /// Slab slots vacated by [`LruCache::remove_user`], reused before the
    /// slab grows.
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` lists (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            users: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of cached lists.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached lists.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit. Records
    /// one hit or miss.
    pub fn get(&mut self, key: CacheKey) -> Option<&[Recommendation]> {
        match self.map.get(&key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.detach(slot);
                self.attach_front(slot);
                Some(&self.slab[slot].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks membership without promoting or counting.
    pub fn contains(&self, key: CacheKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// when full. No-op at capacity 0.
    pub fn put(&mut self, key: CacheKey, value: Vec<Recommendation>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let slot = if let Some(slot) = self.free.pop() {
            // Reuse a slot vacated by per-user invalidation.
            self.slab[slot].key = key;
            self.slab[slot].value = value;
            slot
        } else if self.map.len() >= self.capacity {
            // Reuse the LRU slot.
            let victim = self.tail;
            self.detach(victim);
            self.unlink_user(victim);
            self.map.remove(&self.slab[victim].key);
            self.slab[victim].key = key;
            self.slab[victim].value = value;
            victim
        } else {
            self.slab.push(Node { key, value, prev: NIL, next: NIL, peer: NIL });
            self.slab.len() - 1
        };
        self.map.insert(key, slot);
        self.slab[slot].peer = self.users.insert(key.0, slot).unwrap_or(NIL);
        self.attach_front(slot);
    }

    /// Drops every entry (hit/miss counters are preserved — they describe
    /// the engine's lifetime, not one artifact generation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.users.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Drops every cached list belonging to `user` (all `k` cutoffs),
    /// leaving other users' entries hot, in time proportional to that user's
    /// entries. Returns the number of entries removed.
    pub fn remove_user(&mut self, user: u32) -> usize {
        let mut slot = self.users.remove(&user).unwrap_or(NIL);
        let mut removed = 0;
        while slot != NIL {
            self.map.remove(&self.slab[slot].key);
            self.detach(slot);
            self.slab[slot].value = Vec::new();
            self.free.push(slot);
            removed += 1;
            slot = self.slab[slot].peer;
        }
        removed
    }

    /// Takes `slot` out of its user's chain (walks that user's cutoffs).
    fn unlink_user(&mut self, slot: usize) {
        let (user, next) = (self.slab[slot].key.0, self.slab[slot].peer);
        let head = *self.users.get(&user).expect("a cached key's user has a chain");
        if head != slot {
            let mut at = head;
            while self.slab[at].peer != slot {
                at = self.slab[at].peer;
            }
            self.slab[at].peer = next;
        } else if next == NIL {
            self.users.remove(&user);
        } else {
            self.users.insert(user, next);
        }
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn recs(n: u32) -> Vec<Recommendation> {
        vec![Recommendation { item: n, score: n as f32 }]
    }

    /// The cache as a plain list, most recently used first: the oracle.
    /// `remove_user` is the O(entries) scan the per-user chain replaced.
    struct ScanLru {
        entries: Vec<(CacheKey, Vec<Recommendation>)>,
        capacity: usize,
    }

    impl ScanLru {
        fn get(&mut self, key: CacheKey) -> Option<Vec<Recommendation>> {
            let at = self.entries.iter().position(|(k, _)| *k == key)?;
            let entry = self.entries.remove(at);
            self.entries.insert(0, entry);
            Some(self.entries[0].1.clone())
        }

        fn put(&mut self, key: CacheKey, value: Vec<Recommendation>) {
            if self.capacity == 0 {
                return;
            }
            if let Some(at) = self.entries.iter().position(|(k, _)| *k == key) {
                self.entries.remove(at);
            } else if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, (key, value));
        }

        fn remove_user(&mut self, user: u32) -> usize {
            let keys: Vec<CacheKey> =
                self.entries.iter().map(|(k, _)| *k).filter(|k| k.0 == user).collect();
            self.entries.retain(|(k, _)| !keys.contains(k));
            keys.len()
        }
    }

    /// Map, recency list, user chains and free list describe one set of
    /// entries, and the recency list is the oracle's, in order.
    fn assert_consistent(c: &LruCache, oracle: &ScanLru) {
        let mut listed = Vec::new();
        let (mut slot, mut prev) = (c.head, NIL);
        while slot != NIL {
            assert_eq!(c.slab[slot].prev, prev, "back link of slot {slot}");
            assert_eq!(c.map.get(&c.slab[slot].key), Some(&slot), "map entry of slot {slot}");
            listed.push((c.slab[slot].key, c.slab[slot].value.clone()));
            (prev, slot) = (slot, c.slab[slot].next);
        }
        assert_eq!(c.tail, prev);
        assert_eq!(listed, oracle.entries, "recency order");
        assert_eq!(c.map.len(), listed.len());
        assert_eq!(c.map.len() + c.free.len(), c.slab.len());
        let mut chained = 0;
        for (&user, &head) in &c.users {
            assert_ne!(head, NIL, "user {user} has an empty chain");
            let mut slot = head;
            while slot != NIL {
                assert_eq!(c.slab[slot].key.0, user, "slot {slot} is on another user's chain");
                assert_eq!(
                    c.map.get(&c.slab[slot].key),
                    Some(&slot),
                    "chained slot {slot} is dead"
                );
                chained += 1;
                assert!(chained <= c.map.len(), "a user chain has a cycle or a duplicate");
                slot = c.slab[slot].peer;
            }
        }
        assert_eq!(chained, c.map.len(), "an entry is on no user chain");
    }

    #[test]
    fn seeded_churn_matches_the_scan_oracle_after_every_step() {
        for (seed, capacity) in [(1u64, 0usize), (2, 1), (3, 5), (4, 16), (5, 64)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = LruCache::new(capacity);
            let mut oracle = ScanLru { entries: Vec::new(), capacity };
            let mut gets = 0;
            for step in 0..4000u32 {
                // Few users and cutoffs, so chains grow, evict and refill.
                let key = (rng.gen_range(0..12u32), rng.gen_range(1..5usize));
                match rng.gen_range(0..100u32) {
                    0..=44 => {
                        c.put(key, recs(step));
                        oracle.put(key, recs(step));
                    }
                    45..=79 => {
                        gets += 1;
                        assert_eq!(c.get(key).map(<[_]>::to_vec), oracle.get(key));
                    }
                    80..=97 => assert_eq!(c.remove_user(key.0), oracle.remove_user(key.0)),
                    _ => {
                        c.clear();
                        oracle.entries.clear();
                    }
                }
                assert_eq!(c.contains(key), oracle.entries.iter().any(|(k, _)| *k == key));
                assert_consistent(&c, &oracle);
            }
            assert_eq!(c.hits() + c.misses(), gets, "every `get` is counted exactly once");
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = LruCache::new(4);
        assert!(c.get((1, 10)).is_none());
        c.put((1, 10), recs(1));
        assert_eq!(c.get((1, 10)).unwrap()[0].item, 1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put((1, 10), recs(1));
        c.put((2, 10), recs(2));
        assert!(c.get((1, 10)).is_some()); // 1 is now MRU; 2 is LRU.
        c.put((3, 10), recs(3));
        assert!(c.contains((1, 10)));
        assert!(!c.contains((2, 10)), "LRU entry survived eviction");
        assert!(c.contains((3, 10)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn same_user_different_k_are_distinct_entries() {
        let mut c = LruCache::new(4);
        c.put((7, 5), recs(5));
        c.put((7, 10), recs(10));
        assert_eq!(c.get((7, 5)).unwrap()[0].item, 5);
        assert_eq!(c.get((7, 10)).unwrap()[0].item, 10);
    }

    #[test]
    fn replacing_a_key_updates_value_in_place() {
        let mut c = LruCache::new(2);
        c.put((1, 10), recs(1));
        c.put((1, 10), recs(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get((1, 10)).unwrap()[0].item, 9);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put((1, 10), recs(1));
        assert!(c.get((1, 10)).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn clear_preserves_counters() {
        let mut c = LruCache::new(2);
        c.put((1, 10), recs(1));
        let _ = c.get((1, 10));
        let _ = c.get((2, 10));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        c.put((1, 10), recs(4));
        assert_eq!(c.get((1, 10)).unwrap()[0].item, 4);
    }

    #[test]
    fn remove_user_drops_all_cutoffs_and_reuses_slots() {
        let mut c = LruCache::new(4);
        c.put((1, 5), recs(1));
        c.put((1, 10), recs(2));
        c.put((2, 5), recs(3));
        assert_eq!(c.remove_user(1), 2);
        assert!(!c.contains((1, 5)));
        assert!(!c.contains((1, 10)));
        assert!(c.contains((2, 5)), "other user's entry was invalidated");
        assert_eq!(c.len(), 1);
        // Freed slots are reusable and the list stays consistent.
        c.put((3, 5), recs(4));
        c.put((4, 5), recs(5));
        c.put((5, 5), recs(6));
        assert_eq!(c.len(), 4);
        assert_eq!(c.get((2, 5)).unwrap()[0].item, 3);
        assert_eq!(c.remove_user(9), 0);
    }

    #[test]
    fn heavy_churn_with_removal_keeps_map_and_list_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.put((i % 13, (i % 3) as usize), recs(i));
            let _ = c.get((i % 7, (i % 3) as usize));
            if i % 11 == 0 {
                c.remove_user(i % 13);
            }
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn heavy_churn_keeps_map_and_list_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.put((i % 13, (i % 3) as usize), recs(i));
            let _ = c.get((i % 7, (i % 3) as usize));
            assert!(c.len() <= 8);
        }
    }
}
