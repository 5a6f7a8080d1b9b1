//! The completion-axiom registry.
//!
//! An extended relational theory's completion axiom for predicate `P`
//! enumerates exactly the tuples `P(c⃗)` that "appear elsewhere in T" (§2,
//! item 2); every other ground atom of `P` is false in all models. Since
//! the axioms "may be derived mechanically from the rest of T", we do not
//! store them as formulas: the registry *is* the completion axioms — a
//! per-predicate ordered index of registered atoms, giving the `O(log R)`
//! lookup/insert of the §3.6 cost model (`R` = "the greatest number of
//! distinct occurrences in T of any predicate").
//!
//! The indices are copy-on-write ([`ChunkedSet`]s under a [`ShardedMap`]
//! by predicate and a [`ChunkedVec`] by constant id, and a bitset in
//! `ChunkedVec` words), so cloning a registry is O(1) and a registration
//! copies one shard or chunk per index.

use winslett_logic::{AtomId, BitSet, ChunkedSet, ChunkedVec, ConstId, PredId, ShardedMap};

/// Per-predicate registered-atom indices plus a global registered set and
/// the §3.6 "single separate index" from constants to the registered atoms
/// mentioning them.
#[derive(Clone, Default, Debug)]
pub struct CompletionRegistry {
    by_pred: ShardedMap<PredId, ChunkedSet<AtomId>>,
    /// Indexed by constant id.
    by_const: ChunkedVec<ChunkedSet<AtomId>>,
    /// Bitset over atom ids, one `u64` word per 64 atoms.
    registered: ChunkedVec<u64>,
    count: usize,
    /// Bumped on every successful registration; feeds
    /// [`Theory::generation`](crate::Theory).
    version: u64,
}

impl CompletionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `atom` (of predicate `pred`, with arguments `args`) as a
    /// completion-axiom disjunct. Returns `true` if the atom was new. This
    /// is GUA Step 1 / Step 2′ / Step 7's "add f to the completion axiom
    /// for its predicate".
    pub fn register(&mut self, pred: PredId, atom: AtomId, args: &[ConstId]) -> bool {
        if self.is_registered(atom) {
            return false;
        }
        let (word, bit) = (atom.index() / 64, atom.index() % 64);
        while self.registered.len() <= word {
            self.registered.push(0);
        }
        *self.registered.get_mut(word).expect("grown above") |= 1 << bit;
        self.by_pred
            .get_or_insert_with(pred, ChunkedSet::new)
            .insert(atom);
        for &c in args {
            while self.by_const.len() <= c.index() {
                self.by_const.push(ChunkedSet::new());
            }
            self.by_const
                .get_mut(c.index())
                .expect("grown above")
                .insert(atom);
        }
        self.count += 1;
        self.version += 1;
        true
    }

    /// Monotone mutation counter: strictly increases on every new
    /// registration.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The atoms registered here but not in `older`, an earlier version
    /// of this registry, in id order — or `None` if `older` has a
    /// registration this registry lacks (they are not one history).
    /// Compares only the bitset chunks the two do not share: O(R / 16 384)
    /// pointer checks plus 256 words per changed chunk.
    pub(crate) fn registered_since(&self, older: &CompletionRegistry) -> Option<Vec<AtomId>> {
        let mut fresh = Vec::new();
        for range in self.registered.changed_ranges(&older.registered) {
            for w in range {
                let was = older.registered.get(w).copied().unwrap_or(0);
                let now = self.registered.get(w).copied().unwrap_or(0);
                if was & !now != 0 {
                    return None;
                }
                let mut bits = now & !was;
                while bits != 0 {
                    fresh.push(AtomId((w * 64) as u32 + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
        }
        Some(fresh)
    }

    /// Registered atoms that mention constant `c` — the constant index used
    /// by GUA Step 5, case (2).
    pub fn atoms_with_constant(&self, c: ConstId) -> impl Iterator<Item = AtomId> + '_ {
        self.by_const
            .get(c.index())
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Whether `atom` is a disjunct of some completion axiom.
    pub fn is_registered(&self, atom: AtomId) -> bool {
        self.registered
            .get(atom.index() / 64)
            .is_some_and(|w| w & (1 << (atom.index() % 64)) != 0)
    }

    /// The registered atoms of `pred`, in atom-id order.
    pub fn atoms_of(&self, pred: PredId) -> impl Iterator<Item = AtomId> + '_ {
        self.by_pred
            .get(&pred)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Number of registered atoms of `pred`.
    pub fn count_of(&self, pred: PredId) -> usize {
        self.by_pred.get(&pred).map_or(0, ChunkedSet::len)
    }

    /// The paper's `R`: the largest per-predicate registered-atom count.
    pub fn max_predicate_size(&self) -> usize {
        self.by_pred
            .values()
            .map(ChunkedSet::len)
            .max()
            .unwrap_or(0)
    }

    /// Total number of registered atoms across all predicates.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The registered set as a bitset over atom ids (built on demand).
    pub fn registered_set(&self) -> BitSet {
        let mut set = BitSet::zeros(self.registered.len() * 64);
        for (w, &word) in self.registered.iter().enumerate() {
            for bit in 0..64 {
                if word & (1 << bit) != 0 {
                    set.set(w * 64 + bit, true);
                }
            }
        }
        set
    }

    /// Iterates over all registered atoms grouped by predicate.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, AtomId)> + '_ {
        self.by_pred
            .iter()
            .flat_map(|(&p, set)| set.iter().map(move |&a| (p, a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut r = CompletionRegistry::new();
        assert!(r.register(PredId(0), AtomId(3), &[]));
        assert!(!r.register(PredId(0), AtomId(3), &[]));
        assert_eq!(r.len(), 1);
        assert!(r.is_registered(AtomId(3)));
        assert!(!r.is_registered(AtomId(4)));
    }

    #[test]
    fn per_predicate_indices() {
        let mut r = CompletionRegistry::new();
        r.register(PredId(0), AtomId(5), &[]);
        r.register(PredId(0), AtomId(2), &[]);
        r.register(PredId(1), AtomId(9), &[]);
        assert_eq!(
            r.atoms_of(PredId(0)).collect::<Vec<_>>(),
            vec![AtomId(2), AtomId(5)]
        );
        assert_eq!(r.count_of(PredId(0)), 2);
        assert_eq!(r.count_of(PredId(1)), 1);
        assert_eq!(r.count_of(PredId(7)), 0);
        assert_eq!(r.max_predicate_size(), 2);
    }

    #[test]
    fn registered_set_is_bitset() {
        let mut r = CompletionRegistry::new();
        r.register(PredId(0), AtomId(1), &[]);
        r.register(PredId(1), AtomId(4), &[]);
        assert_eq!(r.registered_set().ones().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn empty_registry() {
        let r = CompletionRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.max_predicate_size(), 0);
        assert_eq!(r.atoms_of(PredId(0)).count(), 0);
    }
}
