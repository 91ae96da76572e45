//! Data structures produced by LegoBase's data-structure specialization.
//!
//! The `HashMapLowering` transformer (Section 3.2.2, Fig. 11) replaces generic
//! hash maps by native arrays with intrusive chaining: one preallocated bucket
//! array, entries chained through `next` indices, hash/equality inlined, and
//! the whole structure sized up-front from statistics so no rehashing ever
//! happens on the critical path. [`ChainedArrayMap`] and [`ChainedMultiMap`]
//! are those structures (Fig. 7e's `Array[R]` with `r.next` chaining).
//!
//! [`DirectArray`] is the result of data-structure-initialization hoisting
//! (Section 3.5.2): when the key domain is known at load time, the aggregation
//! store becomes a dense, pre-zeroed array and the per-tuple existence check
//! disappears. [`SingleValue`] is the `SingletonHashMapToValue` transformer's
//! output for single-group aggregations such as TPC-H Q6.

use crate::metrics;

/// Multiplicative integer hashing (Fibonacci hashing); the lowered maps inline
/// this instead of calling a virtual hash function.
#[inline(always)]
pub fn hash_u64(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const EMPTY: i32 = -1;

struct Entry<V> {
    key: u64,
    value: V,
    next: i32,
}

/// A hash map lowered to a native bucket array with intrusive chaining.
///
/// Capacity is fixed at construction (worst-case sizing from statistics, as
/// in the paper); the entry pool grows only if the estimate was wrong, which
/// tests assert never happens for TPC-H.
pub struct ChainedArrayMap<V> {
    buckets: Vec<i32>,
    entries: Vec<Entry<V>>,
    mask: u64,
}

impl<V> ChainedArrayMap<V> {
    /// Creates a map with at least `expected` capacity; the bucket count is
    /// the next power of two ≥ `expected`.
    pub fn with_capacity(expected: usize) -> ChainedArrayMap<V> {
        let nbuckets = expected.next_power_of_two().max(16);
        ChainedArrayMap {
            buckets: vec![EMPTY; nbuckets],
            entries: Vec::with_capacity(expected),
            mask: (nbuckets - 1) as u64,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, keeping the bucket array and the entry pool
    /// allocated (per-morsel partial aggregation reuses one map per worker).
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.entries.clear();
    }

    #[inline(always)]
    fn bucket(&self, key: u64) -> usize {
        ((hash_u64(key) >> 7) & self.mask) as usize
    }

    /// The lowered `getOrElseUpdate` of Fig. 11: probe the bucket, walk the
    /// chain with inlined equality, insert at the head on miss.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, init: impl FnOnce() -> V) -> &mut V {
        metrics::hash_probe();
        let b = self.bucket(key);
        let mut idx = self.buckets[b];
        let mut steps = 0u64;
        while idx != EMPTY {
            steps += 1;
            let e = &self.entries[idx as usize];
            if e.key == key {
                metrics::chain_steps(steps);
                let i = idx as usize;
                return &mut self.entries[i].value;
            }
            idx = e.next;
        }
        metrics::chain_steps(steps);
        let new_idx = self.entries.len() as i32;
        self.entries.push(Entry { key, value: init(), next: self.buckets[b] });
        self.buckets[b] = new_idx;
        &mut self.entries[new_idx as usize].value
    }

    /// Point lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        metrics::hash_probe();
        let mut idx = self.buckets[self.bucket(key)];
        let mut steps = 0u64;
        while idx != EMPTY {
            steps += 1;
            let e = &self.entries[idx as usize];
            if e.key == key {
                metrics::chain_steps(steps);
                return Some(&e.value);
            }
            idx = e.next;
        }
        metrics::chain_steps(steps);
        None
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|e| (e.key, &e.value))
    }

    /// True if the entry pool had to grow past its initial capacity — i.e.
    /// the worst-case sizing failed and a "resize on the critical path"
    /// happened. Exposed so tests can assert it stays `false`.
    pub fn overflowed(&self) -> bool {
        // Vec growth would have raised capacity above the initial request.
        self.entries.len() > self.entries.capacity() || self.entries.capacity() == 0
    }
}

/// A multi-map (join hash table) lowered to bucket array + chained row ids.
///
/// This is exactly Fig. 7e: records are chained through a `next` pointer
/// stored alongside the row id, no per-binding allocation.
pub struct ChainedMultiMap {
    buckets: Vec<i32>,
    /// Parallel arrays forming the entry pool.
    keys: Vec<u64>,
    rows: Vec<u32>,
    nexts: Vec<i32>,
    mask: u64,
}

impl ChainedMultiMap {
    /// Pre-sizes the bucket array for an expected entry count.
    pub fn with_capacity(expected: usize) -> ChainedMultiMap {
        let nbuckets = expected.next_power_of_two().max(16);
        ChainedMultiMap {
            buckets: vec![EMPTY; nbuckets],
            keys: Vec::with_capacity(expected),
            rows: Vec::with_capacity(expected),
            nexts: Vec::with_capacity(expected),
            mask: (nbuckets - 1) as u64,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The lowered `addBinding`: push the row at the head of its chain.
    #[inline]
    pub fn insert(&mut self, key: u64, row: u32) {
        metrics::hash_probe();
        let b = ((hash_u64(key) >> 7) & self.mask) as usize;
        let idx = self.keys.len() as i32;
        self.keys.push(key);
        self.rows.push(row);
        self.nexts.push(self.buckets[b]);
        self.buckets[b] = idx;
    }

    /// The lowered `get(...).foreach`: walk the chain, yielding matching rows.
    #[inline]
    pub fn for_each_match(&self, key: u64, mut f: impl FnMut(u32)) {
        metrics::hash_probe();
        let mut idx = self.buckets[((hash_u64(key) >> 7) & self.mask) as usize];
        let mut steps = 0u64;
        while idx != EMPTY {
            steps += 1;
            let i = idx as usize;
            if self.keys[i] == key {
                f(self.rows[i]);
            }
            idx = self.nexts[i];
        }
        metrics::chain_steps(steps);
    }

    /// Returns the first matching row, if any (semi-join probes).
    #[inline]
    pub fn first_match(&self, key: u64) -> Option<u32> {
        let mut found = None;
        self.for_each_match(key, |r| {
            if found.is_none() {
                found = Some(r);
            }
        });
        found
    }
}

/// A dense aggregation array over a statically-known integer key domain
/// `[min, max]`, pre-initialized so the per-tuple "does the group exist yet"
/// branch is gone (Section 3.5.2).
pub struct DirectArray<V> {
    min: i64,
    slots: Vec<V>,
    touched: Vec<bool>,
}

impl<V: Clone> DirectArray<V> {
    /// Pre-initializes every slot in `[min, max]` with `zero`.
    pub fn new(min: i64, max: i64, zero: V) -> DirectArray<V> {
        assert!(max >= min, "empty key domain");
        let n = (max - min + 1) as usize;
        DirectArray { min, slots: vec![zero; n], touched: vec![false; n] }
    }

    /// Bucket-array capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Direct, branch-free slot access.
    #[inline(always)]
    pub fn slot(&mut self, key: i64) -> &mut V {
        let idx = (key - self.min) as usize;
        self.touched[idx] = true;
        &mut self.slots[idx]
    }

    /// Read-only access without marking the slot live.
    #[inline(always)]
    pub fn peek(&self, key: i64) -> &V {
        &self.slots[(key - self.min) as usize]
    }

    /// Iterates over slots that were actually written, in key order.
    pub fn iter_touched(&self) -> impl Iterator<Item = (i64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(i, _)| self.touched[*i])
            .map(|(i, v)| (self.min + i as i64, v))
    }
}

/// The `SingletonHashMapToValue` result: a hash map with one statically-known
/// key collapses to a single value (e.g. the global aggregate of TPC-H Q6).
#[derive(Clone, Debug, Default)]
pub struct SingleValue<V> {
    value: V,
    touched: bool,
}

impl<V> SingleValue<V> {
    /// Creates the single slot holding `zero`.
    pub fn new(zero: V) -> SingleValue<V> {
        SingleValue { value: zero, touched: false }
    }

    #[inline(always)]
    /// Mutable access to the slot (creates it logically on first use).
    pub fn slot(&mut self) -> &mut V {
        self.touched = true;
        &mut self.value
    }

    /// The slot value, if it was ever touched.
    pub fn get(&self) -> Option<&V> {
        self.touched.then_some(&self.value)
    }

    /// Reads the value regardless of whether it was written (aggregations
    /// over empty inputs still report their zero).
    pub fn value(&self) -> &V {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn chained_map_matches_std_hashmap() {
        let mut lowered: ChainedArrayMap<i64> = ChainedArrayMap::with_capacity(64);
        let mut model: HashMap<u64, i64> = HashMap::new();
        // Colliding and non-colliding keys.
        for i in 0..1000u64 {
            let key = (i * 7) % 257;
            *lowered.get_or_insert_with(key, || 0) += i as i64;
            *model.entry(key).or_insert(0) += i as i64;
        }
        assert_eq!(lowered.len(), model.len());
        for (k, v) in lowered.iter() {
            assert_eq!(model[&k], *v);
        }
        assert_eq!(lowered.get(3), model.get(&3));
        assert_eq!(lowered.get(9999), None);
        // A cleared map is empty and reusable.
        lowered.clear();
        assert!(lowered.is_empty() && lowered.get(3).is_none());
        assert_eq!(*lowered.get_or_insert_with(3, || 7), 7);
    }

    #[test]
    fn multimap_returns_all_bindings() {
        let mut mm = ChainedMultiMap::with_capacity(16);
        mm.insert(1, 10);
        mm.insert(2, 20);
        mm.insert(1, 11);
        mm.insert(1, 12);
        let mut got = Vec::new();
        mm.for_each_match(1, |r| got.push(r));
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 12]);
        assert_eq!(mm.first_match(2), Some(20));
        assert_eq!(mm.first_match(3), None);
        assert_eq!(mm.len(), 4);
    }

    #[test]
    fn direct_array_preinitialized() {
        let mut d: DirectArray<f64> = DirectArray::new(10, 20, 0.0);
        assert_eq!(d.capacity(), 11);
        *d.slot(15) += 2.5;
        *d.slot(10) += 1.0;
        *d.slot(15) += 0.5;
        let touched: Vec<(i64, f64)> = d.iter_touched().map(|(k, v)| (k, *v)).collect();
        assert_eq!(touched, vec![(10, 1.0), (15, 3.0)]);
        assert_eq!(*d.peek(11), 0.0);
    }

    #[test]
    fn single_value_tracks_touch() {
        let mut s = SingleValue::new(0.0f64);
        assert_eq!(s.get(), None);
        assert_eq!(*s.value(), 0.0);
        *s.slot() += 4.5;
        assert_eq!(s.get(), Some(&4.5));
    }

    #[test]
    fn no_rehash_within_capacity() {
        let mut m: ChainedArrayMap<u32> = ChainedArrayMap::with_capacity(128);
        for i in 0..128 {
            m.get_or_insert_with(i, || 0);
        }
        assert!(!m.overflowed());
    }
}
