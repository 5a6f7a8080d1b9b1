//! A small string interner.
//!
//! The cost model of §3.6 of the paper assumes that "the names of ground
//! atomic formulas cannot be physically stored with the non-axiomatic wffs
//! they appear in; however, the non-axiomatic wffs may contain pointers into
//! a separate name space". [`Interner`] is that separate name space: every
//! constant and predicate name is stored once, and all structures above it
//! traffic in dense `u32` handles.
//!
//! Both directions sit on copy-on-write containers ([`ChunkedVec`],
//! [`ShardedMap`]), so cloning an interner is O(1) and interning a new
//! name copies one chunk and one shard.

use crate::cow::{ChunkedVec, ShardedMap};
use std::sync::Arc;

/// Bidirectional map between strings and dense `u32` handles.
///
/// Lookups by name are hash-map time; lookups by handle are a vector index.
/// Handles are allocated densely starting at zero, so they double as indices
/// into side tables.
#[derive(Clone, Default, Debug)]
pub struct Interner {
    names: ChunkedVec<Arc<str>>,
    ids: ShardedMap<Arc<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its handle. Re-interning an existing name
    /// returns the original handle.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id =
            u32::try_from(self.names.len()).expect("interner overflow: more than u32::MAX symbols");
        let shared: Arc<str> = name.into();
        self.names.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// Returns the handle for `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Returns the name for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (i as u32, &**n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Orders");
        let b = i.intern("InStock");
        let a2 = i.intern("Orders");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Orders");
        assert_eq!(i.resolve(b), "InStock");
    }

    #[test]
    fn ids_are_dense() {
        let mut i = Interner::new();
        for (k, name) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(i.intern(name), k as u32);
        }
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_yields_allocation_order() {
        let mut i = Interner::new();
        i.intern("p");
        i.intern("q");
        let pairs: Vec<_> = i.iter().map(|(id, n)| (id, n.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "p".to_owned()), (1, "q".to_owned())]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
