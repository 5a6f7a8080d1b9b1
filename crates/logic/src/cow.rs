//! Copy-on-write containers for the §3.6 storage substrate.
//!
//! A served write clones the theory several times — the rollback copy
//! around an update, the snapshot readers pin, a transaction workspace —
//! and the paper's cost model only holds if those copies cost what the
//! write changes, not what the theory holds. Every table a theory clone
//! copies therefore sits on one of three containers whose clone is a
//! reference-count bump and whose mutation copies only what it touches:
//!
//! * [`ChunkedVec`] — a vector split into `Arc`'d chunks of [`CHUNK`]
//!   elements under an `Arc`'d spine. Writing one element copies the
//!   spine's pointers (O(len / CHUNK)) and that element's chunk (O(CHUNK))
//!   the first time after a clone; later writes to the same chunk are in
//!   place.
//! * [`ChunkedSet`] — the same layout holding a sorted set: chunks are
//!   ordered and each chunk is sorted, so lookup is two binary searches
//!   and an insert copies one chunk. A set of at most `CHUNK` elements is
//!   one bare chunk.
//! * [`ShardedMap`] — a hash map sharded [`FANOUT`] ways by successive
//!   hash bits, each shard an `Arc`'d node that splits into `FANOUT`
//!   sub-shards once it holds more than [`SHARD_MAX`] entries. An insert
//!   copies the one shard it lands in plus the `FANOUT`-pointer branches
//!   above it — O(log R) pointers, never the map.
//!
//! A container that is not shared mutates in place: `Arc::make_mut` only
//! copies when a clone still holds the chunk or shard.

use rustc_hash::FxHasher;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Elements per chunk of a [`ChunkedVec`] (and the split size of a
/// [`ChunkedSet`] chunk).
pub const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 8;

/// Sub-shards per branch of a [`ShardedMap`].
pub const FANOUT: usize = 1 << SHARD_BITS;
const SHARD_BITS: u32 = 5;

/// Entries a [`ShardedMap`] shard holds before it splits.
pub const SHARD_MAX: usize = 32;

/// Hash bits run out after this many branch levels; a shard that deep
/// (full 64-bit collisions only) grows without splitting.
const MAX_DEPTH: u32 = 64 / SHARD_BITS;

// ----- ChunkedVec -------------------------------------------------------------

/// A growable vector whose clone is O(1) and whose writes copy one chunk.
pub struct ChunkedVec<T> {
    chunks: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        ChunkedVec {
            chunks: Arc::clone(&self.chunks),
            len: self.len,
        }
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Arc::new(Vec::new()),
            len: 0,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`, if in bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        Some(&self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)])
    }

    /// The last element.
    pub fn last(&self) -> Option<&T> {
        self.chunks.last().and_then(|c| c.last())
    }

    /// Iterates in index order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The index ranges, one per chunk, where `self` may differ from
    /// `older`: the chunks the two do not share, and the chunks only one
    /// of them has. A shared chunk proves its elements equal, so two
    /// versions of one vector are diffed in O(len / CHUNK) pointer
    /// comparisons plus whatever the caller does with the ranges. Each
    /// range is clipped to the longer vector's length.
    pub fn changed_ranges<'a>(
        &'a self,
        older: &'a Self,
    ) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
        let chunks = if Arc::ptr_eq(&self.chunks, &older.chunks) && self.len == older.len {
            0
        } else {
            self.chunks.len().max(older.chunks.len())
        };
        let len = self.len.max(older.len);
        (0..chunks)
            .filter(move |&i| match (self.chunks.get(i), older.chunks.get(i)) {
                (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
                _ => true,
            })
            .map(move |i| i * CHUNK..((i + 1) * CHUNK).min(len))
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// The element at `i`, mutably — copying its chunk first if a clone
    /// shares it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let chunk = &mut Arc::make_mut(&mut self.chunks)[i >> CHUNK_BITS];
        Some(&mut Arc::make_mut(chunk)[i & (CHUNK - 1)])
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        let spine = Arc::make_mut(&mut self.chunks);
        if self.len & (CHUNK - 1) == 0 {
            // The first chunk grows on demand so small vectors stay small.
            let cap = if self.len == 0 { 0 } else { CHUNK };
            spine.push(Arc::new(Vec::with_capacity(cap)));
        }
        let last = spine.last_mut().expect("a chunk was just ensured");
        if Arc::get_mut(last).is_none() {
            let mut copy = Vec::with_capacity(CHUNK.min(last.len() * 2));
            copy.extend_from_slice(last);
            *last = Arc::new(copy);
        }
        Arc::get_mut(last)
            .expect("unshared after the copy above")
            .push(value);
        self.len += 1;
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let spine = Arc::make_mut(&mut self.chunks);
        let last = spine.last_mut().expect("non-empty vector has a chunk");
        let value = Arc::make_mut(last).pop();
        if last.is_empty() {
            spine.pop();
        }
        self.len -= 1;
        value
    }
}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }
}

// ----- ChunkedSet -------------------------------------------------------------

/// An ordered set in sorted chunks: O(1) clone, an insert copies one chunk.
pub struct ChunkedSet<T> {
    repr: SetRepr<T>,
    len: usize,
}

enum SetRepr<T> {
    Empty,
    /// Up to `CHUNK` elements in one sorted chunk (most sets: the
    /// registered atoms mentioning one constant).
    Flat(Arc<Vec<T>>),
    /// Sorted chunks of at most `CHUNK` elements, in order.
    Chunked(Arc<Vec<Arc<Vec<T>>>>),
}

impl<T> Clone for ChunkedSet<T> {
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            SetRepr::Empty => SetRepr::Empty,
            SetRepr::Flat(c) => SetRepr::Flat(Arc::clone(c)),
            SetRepr::Chunked(cs) => SetRepr::Chunked(Arc::clone(cs)),
        };
        ChunkedSet {
            repr,
            len: self.len,
        }
    }
}

impl<T> Default for ChunkedSet<T> {
    fn default() -> Self {
        ChunkedSet {
            repr: SetRepr::Empty,
            len: 0,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T> ChunkedSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn chunks(&self) -> &[Arc<Vec<T>>] {
        match &self.repr {
            SetRepr::Empty => &[],
            SetRepr::Flat(c) => std::slice::from_ref(c),
            SetRepr::Chunked(cs) => cs,
        }
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks().iter().flat_map(|c| c.iter())
    }
}

impl<T: Ord + Clone> ChunkedSet<T> {
    /// The chunk that holds `x` if anything does: the first whose last
    /// element is ≥ `x`, else the final chunk.
    fn chunk_for(chunks: &[Arc<Vec<T>>], x: &T) -> usize {
        let i = chunks.partition_point(|c| c.last().is_some_and(|l| l < x));
        i.min(chunks.len().saturating_sub(1))
    }

    /// Inserts `x`; returns whether it was new.
    pub fn insert(&mut self, x: T) -> bool {
        if let SetRepr::Empty = self.repr {
            self.repr = SetRepr::Flat(Arc::new(vec![x]));
            self.len = 1;
            return true;
        }
        let chunks = self.chunks();
        let ci = Self::chunk_for(chunks, &x);
        let Err(pos) = chunks[ci].binary_search(&x) else {
            return false;
        };
        // Appends (the common case: ids grow) leave a full chunk full; an
        // insert in the middle splits it in half.
        let at = if pos == CHUNK { CHUNK } else { CHUNK / 2 };
        if let SetRepr::Chunked(cs) = &mut self.repr {
            let spine = Arc::make_mut(cs);
            let chunk = Arc::make_mut(&mut spine[ci]);
            chunk.insert(pos, x);
            if chunk.len() > CHUNK {
                let tail = chunk.split_off(at);
                spine.insert(ci + 1, Arc::new(tail));
            }
        } else if let SetRepr::Flat(c) = &mut self.repr {
            let chunk = Arc::make_mut(c);
            chunk.insert(pos, x);
            if chunk.len() > CHUNK {
                let tail = Arc::new(chunk.split_off(at));
                let head = std::mem::take(c);
                self.repr = SetRepr::Chunked(Arc::new(vec![head, tail]));
            }
        }
        self.len += 1;
        true
    }
}

// ----- ShardedMap -------------------------------------------------------------

/// A leaf shard: entries with their full hashes kept apart, so a lookup
/// scans a few cache lines of hashes before touching one entry.
#[derive(Clone)]
struct Shard<K, V> {
    hashes: Vec<u64>,
    entries: Vec<(K, V)>,
}

impl<K, V> Shard<K, V> {
    fn with_capacity(n: usize) -> Self {
        Shard {
            hashes: Vec::with_capacity(n),
            entries: Vec::with_capacity(n),
        }
    }

    fn position<Q>(&self, h: u64, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.hashes
            .iter()
            .enumerate()
            .find(|&(i, &eh)| eh == h && self.entries[i].0.borrow() == key)
            .map(|(i, _)| i)
    }
}

/// The sub-shards of a branch, indexed by [`shard_of`].
type Children<K, V> = [Option<Arc<Node<K, V>>>; FANOUT];

#[derive(Clone)]
enum Node<K, V> {
    Shard(Shard<K, V>),
    /// `FANOUT` sub-shards keyed by the next `SHARD_BITS` hash bits.
    Branch(Box<Children<K, V>>),
}

/// A hash map whose clone is O(1) and whose insert copies one shard.
pub struct ShardedMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for ShardedMap<K, V> {
    fn clone(&self) -> Self {
        ShardedMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap { root: None, len: 0 }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

fn hash_of<Q: Hash + ?Sized>(k: &Q) -> u64 {
    let mut h = FxHasher::default();
    k.hash(&mut h);
    h.finish()
}

/// The sub-shard of `hash` at branch depth `depth`: high bits first, since
/// they mix every input bit.
#[inline]
fn shard_of(hash: u64, depth: u32) -> usize {
    ((hash >> (64 - SHARD_BITS * (depth + 1))) as usize) & (FANOUT - 1)
}

fn new_shard<K, V>() -> Arc<Node<K, V>> {
    Arc::new(Node::Shard(Shard::with_capacity(0)))
}

impl<K, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(key, value)` pairs in shard order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: self.root.as_deref().into_iter().collect(),
            shard: [].iter(),
        }
    }

    /// Iterates over the values.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = hash_of(key);
        let mut node = self.root.as_deref()?;
        let mut depth = 0;
        loop {
            match node {
                Node::Shard(shard) => return shard.position(h, key).map(|i| &shard.entries[i].1),
                Node::Branch(children) => {
                    node = children[shard_of(h, depth)].as_deref()?;
                    depth += 1;
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// The shard `key` belongs in, copied (with the branches above it) if
    /// a clone shares it. A full shard is split first, so the caller can
    /// always add one entry.
    fn shard_mut(root: &mut Option<Arc<Node<K, V>>>, h: u64) -> &mut Shard<K, V> {
        let mut node = root.get_or_insert_with(new_shard);
        let mut depth = 0;
        loop {
            let n = Arc::make_mut(node);
            if let Node::Shard(shard) = n {
                if shard.entries.len() >= SHARD_MAX && depth < MAX_DEPTH {
                    let mut children: Box<Children<K, V>> = Box::new(std::array::from_fn(|_| None));
                    let Shard { hashes, entries } =
                        std::mem::replace(shard, Shard::with_capacity(0));
                    for (eh, e) in hashes.into_iter().zip(entries) {
                        let child = children[shard_of(eh, depth)].get_or_insert_with(|| {
                            Arc::new(Node::Shard(Shard::with_capacity(SHARD_MAX)))
                        });
                        if let Some(Node::Shard(s)) = Arc::get_mut(child) {
                            s.hashes.push(eh);
                            s.entries.push(e);
                        }
                    }
                    *n = Node::Branch(children);
                }
            }
            match n {
                Node::Shard(shard) => return shard,
                Node::Branch(children) => {
                    node = children[shard_of(h, depth)].get_or_insert_with(new_shard);
                    depth += 1;
                }
            }
        }
    }

    /// The value under `key`, mutably — copying the shard (and the branch
    /// path above it) first if a clone shares them. A missing key copies
    /// nothing.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key)?;
        let h = hash_of(key);
        let shard = Self::shard_mut(&mut self.root, h);
        let i = shard.position(h, key)?;
        Some(&mut shard.entries[i].1)
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let h = hash_of(&key);
        let shard = Self::shard_mut(&mut self.root, h);
        if let Some(i) = shard.position(h, &key) {
            return Some(std::mem::replace(&mut shard.entries[i].1, value));
        }
        shard.hashes.push(h);
        shard.entries.push((key, value));
        self.len += 1;
        None
    }

    /// The value under `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let h = hash_of(&key);
        let shard = Self::shard_mut(&mut self.root, h);
        let i = match shard.position(h, &key) {
            Some(i) => i,
            None => {
                shard.hashes.push(h);
                shard.entries.push((key, make()));
                self.len += 1;
                shard.entries.len() - 1
            }
        };
        &mut shard.entries[i].1
    }

    /// Removes `key`, returning its value. A missing key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key)?;
        let h = hash_of(key);
        let shard = Self::shard_mut(&mut self.root, h);
        let i = shard.position(h, key)?;
        shard.hashes.swap_remove(i);
        self.len -= 1;
        Some(shard.entries.swap_remove(i).1)
    }
}

/// Iterator over a [`ShardedMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    shard: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.shard.next() {
                return Some((k, v));
            }
            match self.stack.pop()? {
                Node::Shard(shard) => self.shard = shard.entries.iter(),
                Node::Branch(children) => self
                    .stack
                    .extend(children.iter().rev().filter_map(|c| c.as_deref())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_vec_push_get_pop_across_chunks() {
        let mut v = ChunkedVec::new();
        for i in 0..(3 * CHUNK + 5) {
            v.push(i);
        }
        assert_eq!(v.len(), 3 * CHUNK + 5);
        assert_eq!(v[CHUNK], CHUNK);
        assert_eq!(v.get(3 * CHUNK + 5), None);
        assert_eq!(v.last(), Some(&(3 * CHUNK + 4)));
        assert!(v.iter().copied().eq(0..3 * CHUNK + 5));
        for i in (0..(3 * CHUNK + 5)).rev() {
            assert_eq!(v.pop(), Some(i));
        }
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn chunked_vec_clone_is_isolated() {
        let mut v = ChunkedVec::new();
        for i in 0..1000u32 {
            v.push(i);
        }
        let snapshot = v.clone();
        *v.get_mut(3).unwrap() = 99;
        v.push(1000);
        assert_eq!(snapshot[3], 3);
        assert_eq!(snapshot.len(), 1000);
        assert_eq!(v[3], 99);
        // Untouched chunks are still shared.
        assert!(Arc::ptr_eq(&v.chunks[2], &snapshot.chunks[2]));
        assert!(!Arc::ptr_eq(&v.chunks[0], &snapshot.chunks[0]));
        // The diff names exactly the written chunk and the one the push
        // copied (1000 elements end in chunk 3).
        let changed: Vec<_> = v.changed_ranges(&snapshot).collect();
        assert_eq!(changed, vec![0..CHUNK, 3 * CHUNK..1001]);
        assert_eq!(snapshot.changed_ranges(&snapshot.clone()).count(), 0);
    }

    #[test]
    fn chunked_set_stays_sorted_under_any_insert_order() {
        let mut s = ChunkedSet::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut x = 12345u64;
        for _ in 0..(4 * CHUNK) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 40) % 2000;
            assert_eq!(s.insert(k), reference.insert(k));
        }
        for k in 0..2000 {
            s.insert(2000 + k);
            reference.insert(2000 + k);
        }
        assert_eq!(s.len(), reference.len());
        assert!(s.iter().eq(reference.iter()));
        assert!(!s.insert(2500));
    }

    #[test]
    fn chunked_set_clone_is_isolated() {
        let mut s = ChunkedSet::new();
        for k in 0..10u32 {
            s.insert(k * 2);
        }
        let snapshot = s.clone();
        s.insert(3);
        assert!(s.iter().any(|&k| k == 3));
        assert!(snapshot.iter().all(|&k| k != 3));
        assert_eq!(snapshot.len(), 10);
    }

    #[test]
    fn sharded_map_matches_a_hash_map() {
        let mut m = ShardedMap::new();
        let mut reference = std::collections::HashMap::new();
        for i in 0..5000u32 {
            assert_eq!(m.insert(i % 3000, i), reference.insert(i % 3000, i));
        }
        assert_eq!(m.len(), reference.len());
        for i in 0..3000u32 {
            assert_eq!(m.get(&i), reference.get(&i));
        }
        for i in (0..3000u32).step_by(7) {
            assert_eq!(m.remove(&i), reference.remove(&i));
        }
        assert_eq!(m.remove(&7), None);
        assert_eq!(m.len(), reference.len());
        let mut got: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        let mut want: Vec<(u32, u32)> = reference.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn sharded_map_clone_is_isolated_and_borrows_str_keys() {
        let mut m: ShardedMap<Arc<str>, u32> = ShardedMap::new();
        for i in 0..500 {
            m.insert(Arc::from(format!("k{i}")), i);
        }
        let snapshot = m.clone();
        *m.get_mut("k3").unwrap() = 1000;
        m.insert(Arc::from("new"), 1);
        m.remove("k4");
        assert_eq!(snapshot.get("k3"), Some(&3));
        assert_eq!(snapshot.get("k4"), Some(&4));
        assert_eq!(snapshot.get("new"), None);
        assert_eq!(m.get("k3"), Some(&1000));
        assert_eq!(m.get("k4"), None);
        assert_eq!(*m.get_or_insert_with(Arc::from("k5"), || 0), 5);
        assert_eq!(*m.get_or_insert_with(Arc::from("k9999"), || 7), 7);
    }
}
