//! The indexed formula store — the storage substrate of §3.6.
//!
//! The paper's cost model requires that:
//!
//! * "all ground atomic formulas in the non-axiomatic section of T must
//!   appear in indices … so that lookup and insertion time is O(log R)";
//! * "all occurrences of a ground atomic formula or predicate constant in
//!   the non-axiomatic section of T are linked together in a list whose
//!   head is an index entry, so that renaming may be done rapidly";
//! * "the names of ground atomic formulas cannot be physically stored with
//!   the non-axiomatic wffs they appear in; however, the non-axiomatic wffs
//!   may contain pointers into a separate name space".
//!
//! [`FormulaStore`] realizes this with *slot indirection*: stored formulas
//! hold [`SlotId`]s, and a side table maps each slot to its current
//! [`AtomId`]. All occurrences of an atom share one slot (the paper's
//! occurrence list head), so GUA Step 2's rename of `f` to a fresh
//! predicate constant `p_f` is a single table write — O(1) regardless of
//! how many occurrences `f` has. Each slot also heads the list itself:
//! the live formulas that mention it, which is what lets the per-update
//! simplifier in `winslett-gua` visit an update's neighbourhood instead
//! of the whole section.
//!
//! Every table lives in a copy-on-write container
//! ([`ChunkedVec`], [`ShardedMap`]), so cloning a store is O(1) and a
//! write copies only the chunks and shards it touches. Removed formula
//! ids and emptied slots go on free lists and are reused by later
//! inserts, so a store that simplifies in place never accumulates
//! tombstones.

use crate::error::TheoryError;
use smallvec::SmallVec;
use std::sync::Arc;
use winslett_logic::{AtomId, ChunkedVec, Formula, ShardedMap, Wff};

/// Index of a slot in the store's indirection table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u32);

impl SlotId {
    /// Dense index of this slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a stored formula. Valid until the formula is removed; the
/// store may then reuse it for a later insert.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FormulaId(pub u32);

impl FormulaId {
    /// Dense index of this formula.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct StoredFormula {
    /// `None` once removed (the id is then on the free list). Shared, so
    /// copying a chunk of formulas never copies a formula.
    body: Option<Arc<Formula<SlotId>>>,
    /// Number of AST nodes, cached for O(1) size accounting.
    nodes: usize,
}

/// Marks an atom with no primary slot in [`Bindings::primary`].
const NO_SLOT: u32 = u32::MAX;

/// Which slots currently display each atom. In normal operation an atom
/// has at most one slot, kept in a dense table indexed by atom id; renames
/// onto an existing atom (never done by GUA, which renames onto *fresh*
/// predicate constants) can merge lists, and the extra slots go in a side
/// map. An atom has extra slots only if it has a primary one.
#[derive(Clone, Default, Debug)]
struct Bindings {
    primary: ChunkedVec<u32>,
    extra: ShardedMap<AtomId, SmallVec<[SlotId; 1]>>,
}

impl Bindings {
    fn first(&self, atom: AtomId) -> Option<SlotId> {
        self.primary
            .get(atom.index())
            .filter(|&&s| s != NO_SLOT)
            .map(|&s| SlotId(s))
    }

    fn all(&self, atom: AtomId) -> impl Iterator<Item = SlotId> + '_ {
        let extra = self.first(atom).and_then(|_| self.extra.get(&atom));
        self.first(atom)
            .into_iter()
            .chain(extra.into_iter().flatten().copied())
    }

    fn set_primary(&mut self, atom: AtomId, s: u32) {
        while self.primary.len() <= atom.index() {
            self.primary.push(NO_SLOT);
        }
        *self.primary.get_mut(atom.index()).expect("grown above") = s;
    }

    fn bind(&mut self, atom: AtomId, s: SlotId) {
        if self.first(atom).is_none() {
            self.set_primary(atom, s.0);
        } else {
            self.extra.get_or_insert_with(atom, SmallVec::new).push(s);
        }
    }

    fn unbind(&mut self, atom: AtomId, s: SlotId) {
        if self.first(atom) == Some(s) {
            let next = match self.extra.get_mut(&atom) {
                Some(list) => list.pop(),
                None => None,
            };
            if self.extra.get(&atom).is_some_and(|l| l.is_empty()) {
                self.extra.remove(&atom);
            }
            self.set_primary(atom, next.map_or(NO_SLOT, |n| n.0));
        } else if let Some(list) = self.extra.get_mut(&atom) {
            list.retain(|x| *x != s);
            if list.is_empty() {
                self.extra.remove(&atom);
            }
        }
    }

    fn take(&mut self, atom: AtomId) -> SmallVec<[SlotId; 1]> {
        let mut out = SmallVec::new();
        if let Some(s) = self.first(atom) {
            out.push(s);
            self.set_primary(atom, NO_SLOT);
            if let Some(list) = self.extra.remove(&atom) {
                out.extend(list);
            }
        }
        out
    }

    fn bound_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.primary
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != NO_SLOT)
            .map(|(a, _)| AtomId(a as u32))
    }
}

#[derive(Clone, Debug)]
struct Slot {
    /// The atom this slot currently displays.
    atom: AtomId,
    /// Occurrences over live formulas (an atom repeated within one
    /// formula counts each time).
    occurrences: usize,
    /// The occurrence list: the live formulas mentioning this slot, each
    /// once.
    formulas: SmallVec<[FormulaId; 2]>,
}

/// The non-axiomatic section of an extended relational theory, stored with
/// the indirection structure of §3.6.
#[derive(Clone, Default, Debug)]
pub struct FormulaStore {
    formulas: ChunkedVec<StoredFormula>,
    /// Per slot: its current atom (the "separate name space" pointer), its
    /// occurrence count and its occurrence list.
    slots: ChunkedVec<Slot>,
    /// Live binding: which slots currently display each atom.
    atom_slots: Bindings,
    /// Removed formula ids and emptied slots, reused before the tables
    /// grow.
    free_formulas: ChunkedVec<FormulaId>,
    free_slots: ChunkedVec<SlotId>,
    /// Live formulas that mention no atom (folded constants such as the
    /// `F` an inconsistent section collapses to). No occurrence list
    /// reaches them.
    atomless: Vec<FormulaId>,
    /// Total AST nodes over live formulas.
    live_nodes: usize,
    /// Number of live formulas.
    live_count: usize,
    /// Identifier-space ceilings (`u32::MAX` unless lowered). Lowering them
    /// makes the [`FormulaStore::try_insert`] capacity errors reachable in
    /// tests and lets an operator quota a tenant's store.
    max_slots: Option<u32>,
    max_formulas: Option<u32>,
    /// Bumped on every semantic mutation (insert, remove, rename,
    /// replace_all); feeds [`Theory::generation`](crate::Theory) so cached
    /// entailment sessions notice staleness.
    version: u64,
    /// Shared by every clone of one store, new for a store built from
    /// scratch or by [`FormulaStore::replace_all`]: two stores with the
    /// same lineage are versions of one history, whose formula ids and
    /// slots mean the same thing, so [`FormulaStore::diff_since`] applies.
    lineage: Arc<()>,
}

impl FormulaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live formulas.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether no live formulas exist.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Total AST nodes over live formulas — the store-size measure used in
    /// experiment E4 (O(g) growth per update).
    pub fn size_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Monotone mutation counter: strictly increases on every insert,
    /// remove, rename, and wholesale replacement.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Lowers the identifier-space ceilings. Inserts that would need more
    /// live slots or live formulas than a ceiling allows fail with
    /// [`TheoryError::StoreCapacity`] instead of allocating. Used by tests
    /// to make the (otherwise ~4-billion-insert) overflow path reachable,
    /// and available to deployments that quota per-database growth.
    pub fn set_capacity(&mut self, max_slots: u32, max_formulas: u32) {
        self.max_slots = Some(max_slots);
        self.max_formulas = Some(max_formulas);
    }

    fn slot_ceiling(&self) -> u64 {
        self.max_slots.map_or(u64::from(u32::MAX), u64::from)
    }

    fn formula_ceiling(&self) -> u64 {
        self.max_formulas.map_or(u64::from(u32::MAX), u64::from)
    }

    fn slot_mut(&mut self, s: SlotId) -> &mut Slot {
        self.slots.get_mut(s.index()).expect("slot ids are dense")
    }

    /// Records one occurrence of `atom` in formula `id`, binding the atom
    /// to a slot (a freed one first) if it has none. Returns the slot.
    fn occur(&mut self, atom: AtomId, id: FormulaId) -> SlotId {
        if let Some(s) = self.atom_slots.first(atom) {
            let slot = self.slot_mut(s);
            slot.occurrences += 1;
            if slot.formulas.last() != Some(&id) {
                slot.formulas.push(id);
            }
            return s;
        }
        let fresh = Slot {
            atom,
            occurrences: 1,
            formulas: SmallVec::from_slice(&[id]),
        };
        let s = match self.free_slots.pop() {
            Some(s) => {
                *self.slot_mut(s) = fresh;
                s
            }
            None => {
                let s = SlotId(u32::try_from(self.slots.len()).expect("checked by try_insert"));
                self.slots.push(fresh);
                s
            }
        };
        self.atom_slots.bind(atom, s);
        s
    }

    /// Inserts a wff, returning its handle.
    ///
    /// Panics if the store's identifier space is exhausted; fallible
    /// callers (the GUA update path) use [`FormulaStore::try_insert`].
    pub fn insert(&mut self, wff: &Wff) -> FormulaId {
        self.try_insert(wff)
            .unwrap_or_else(|e| panic!("formula store insert failed: {e}"))
    }

    /// Inserts a wff, returning its handle — or a typed
    /// [`TheoryError::StoreCapacity`] if the insert would exhaust the
    /// `u32` slot or formula identifier space (or a configured quota)
    /// rather than panicking mid-update.
    pub fn try_insert(&mut self, wff: &Wff) -> Result<FormulaId, TheoryError> {
        // Capacity is checked up front so a failed insert allocates
        // nothing. Quotas count live entries: freed ids and slots are
        // reused before the tables grow, so the live slots plus every
        // atom of `wff` without a binding must fit, and one more live
        // formula.
        if self.live_count as u64 >= self.formula_ceiling() {
            return Err(TheoryError::StoreCapacity {
                what: "formulas",
                limit: self.formula_ceiling(),
            });
        }
        let live_slots = (self.slots.len() - self.free_slots.len()) as u64;
        // Counting the atoms without a binding needs a pass over the wff;
        // skip it when even all-new atoms would fit.
        if live_slots + wff.num_atom_occurrences() as u64 > self.slot_ceiling() {
            let new_slots = wff
                .atom_set()
                .into_iter()
                .filter(|a| self.atom_slots.first(*a).is_none())
                .count() as u64;
            if live_slots + new_slots > self.slot_ceiling() {
                return Err(TheoryError::StoreCapacity {
                    what: "slots",
                    limit: self.slot_ceiling(),
                });
            }
        }
        let id = match self.free_formulas.pop() {
            Some(id) => id,
            None => FormulaId(u32::try_from(self.formulas.len()).expect("checked above")),
        };
        // Each slot lists the formula once, however often it occurs: the
        // list's last entry is this formula after its first occurrence.
        let mut atomless = true;
        let body = wff.map_atoms(&mut |a: &AtomId| {
            atomless = false;
            self.occur(*a, id)
        });
        let nodes = body.size();
        let stored = StoredFormula {
            body: Some(Arc::new(body)),
            nodes,
        };
        match self.formulas.get_mut(id.index()) {
            Some(slot) => *slot = stored,
            None => self.formulas.push(stored),
        }
        if atomless {
            self.atomless.push(id);
        }
        self.live_nodes += nodes;
        self.live_count += 1;
        self.version += 1;
        Ok(id)
    }

    /// Removes a formula (used by simplification). Idempotent. The id and
    /// any slot left without occurrences are freed for reuse.
    pub fn remove(&mut self, id: FormulaId) {
        let Some(sf) = self.formulas.get_mut(id.index()) else {
            return;
        };
        let Some(body) = sf.body.take() else {
            return;
        };
        self.live_nodes -= sf.nodes;
        self.live_count -= 1;
        self.version += 1;
        let mut atomless = true;
        body.for_each_atom(&mut |s: &SlotId| {
            atomless = false;
            let slot = self.slot_mut(*s);
            slot.occurrences -= 1;
            if let Some(i) = slot.formulas.iter().position(|&f| f == id) {
                slot.formulas.swap_remove(i);
            }
            if slot.occurrences == 0 {
                let atom = slot.atom;
                self.free_slot(atom, *s);
            }
        });
        if atomless {
            self.atomless.retain(|&f| f != id);
        }
        self.free_formulas.push(id);
    }

    /// Unbinds an emptied slot from its atom and frees it.
    fn free_slot(&mut self, atom: AtomId, s: SlotId) {
        self.atom_slots.unbind(atom, s);
        self.free_slots.push(s);
    }

    /// Whether `id` refers to a live formula.
    pub fn is_live(&self, id: FormulaId) -> bool {
        self.formulas
            .get(id.index())
            .is_some_and(|sf| sf.body.is_some())
    }

    /// Renames every occurrence of `from` to `to` in O(1) per slot (O(1)
    /// total in GUA, where `to` is always fresh). This is the paper's
    /// pointer-list renaming of Step 2.
    ///
    /// Returns the number of formula occurrences affected.
    pub fn rename_atom(&mut self, from: AtomId, to: AtomId) -> usize {
        let list = self.atom_slots.take(from);
        if list.is_empty() {
            return 0;
        }
        self.version += 1;
        let mut occurrences = 0;
        for &s in &list {
            let slot = self.slot_mut(s);
            debug_assert_eq!(slot.atom, from);
            slot.atom = to;
            occurrences += slot.occurrences;
        }
        for s in list {
            self.atom_slots.bind(to, s);
        }
        occurrences
    }

    /// Whether `atom` currently occurs in any live formula.
    pub fn contains_atom(&self, atom: AtomId) -> bool {
        self.occurrences_of(atom) > 0
    }

    /// Number of live occurrences of `atom`.
    pub fn occurrences_of(&self, atom: AtomId) -> usize {
        self.atom_slots
            .all(atom)
            .map(|s| self.slots[s.index()].occurrences)
            .sum()
    }

    /// The occurrence list of `atom`: every live formula that mentions it.
    /// A formula can be listed twice only when a merging rename left two
    /// of its slots displaying `atom`.
    pub fn formulas_with(&self, atom: AtomId) -> impl Iterator<Item = FormulaId> + '_ {
        self.atom_slots
            .all(atom)
            .flat_map(|s| self.slots[s.index()].formulas.iter().copied())
    }

    /// The live formulas that mention no atom at all.
    pub fn atomless(&self) -> &[FormulaId] {
        &self.atomless
    }

    fn body(&self, id: FormulaId) -> &Formula<SlotId> {
        self.formulas[id.index()]
            .body
            .as_deref()
            .unwrap_or_else(|| panic!("formula {} is not live", id.0))
    }

    /// Resolves a live formula back to a wff over atoms.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn resolve(&self, id: FormulaId) -> Wff {
        self.body(id)
            .map_atoms(&mut |s: &SlotId| self.slot_atom(*s))
    }

    /// Iterates over the live formulas as `(id, wff)`.
    pub fn iter(&self) -> impl Iterator<Item = (FormulaId, Wff)> + '_ {
        self.formulas.iter().enumerate().filter_map(|(i, sf)| {
            let body = sf.body.as_deref()?;
            Some((
                FormulaId(i as u32),
                body.map_atoms(&mut |s: &SlotId| self.slot_atom(*s)),
            ))
        })
    }

    /// The live formulas with their ids, bodies as stored: formulas over
    /// slots, with no wff materialised. Pair with
    /// [`FormulaStore::slot_atom`] to read a leaf's atom; this is how a
    /// SAT session loads the store in one pass.
    pub fn live(&self) -> impl Iterator<Item = (FormulaId, &Formula<SlotId>)> + '_ {
        self.formulas
            .iter()
            .enumerate()
            .filter_map(|(i, sf)| Some((FormulaId(i as u32), sf.body.as_deref()?)))
    }

    /// The body of formula `id` as stored, if it is live.
    pub(crate) fn body_of(&self, id: FormulaId) -> Option<&Formula<SlotId>> {
        self.formulas.get(id.index())?.body.as_deref()
    }

    /// What changed since `older`, an earlier version of this store:
    /// pushes to `removed` the formulas of `older` that are gone or no
    /// longer mean what they meant, and to `added` the formulas of `self`
    /// that are new or mean something new. Both come out sorted and
    /// deduplicated. A formula whose body was replaced, or one of whose
    /// slots now displays another atom, counts as removed and re-added.
    ///
    /// Returns `false`, with nothing pushed, when the stores are not
    /// versions of one history (a [`FormulaStore::replace_all`] or a
    /// separately built store lies between them).
    ///
    /// Only the chunks the two versions do not share are inspected: a
    /// shared chunk proves its formulas (whose bodies are themselves
    /// shared) or slots unchanged. So the diff costs O(R / 256) pointer
    /// comparisons plus O(256) per changed chunk, and the write path keeps
    /// no log for it.
    pub(crate) fn diff_since(
        &self,
        older: &FormulaStore,
        removed: &mut Vec<FormulaId>,
        added: &mut Vec<FormulaId>,
    ) -> bool {
        if !Arc::ptr_eq(&self.lineage, &older.lineage) {
            return false;
        }
        let body = |store: &FormulaStore, i: usize| {
            store
                .formulas
                .get(i)
                .and_then(|sf| sf.body.as_ref().map(Arc::as_ptr))
        };
        for range in self.formulas.changed_ranges(&older.formulas) {
            for i in range {
                let (was, now) = (body(older, i), body(self, i));
                if was != now {
                    removed.extend(was.map(|_| FormulaId(i as u32)));
                    added.extend(now.map(|_| FormulaId(i as u32)));
                }
            }
        }
        for range in self.slots.changed_ranges(&older.slots) {
            for s in range {
                let (was, now) = (older.slots.get(s), self.slots.get(s));
                if was.map(|slot| slot.atom) != now.map(|slot| slot.atom) {
                    removed.extend(was.into_iter().flat_map(|slot| slot.formulas.iter()));
                    added.extend(now.into_iter().flat_map(|slot| slot.formulas.iter()));
                }
            }
        }
        for ids in [removed, added] {
            ids.sort_unstable();
            ids.dedup();
        }
        true
    }

    /// Atoms whose binding to a slot may differ between `older`, an
    /// earlier version of this store, and `self`: the only atoms whose
    /// [`FormulaStore::contains_atom`] can differ between the two. Same
    /// cost shape as [`FormulaStore::diff_since`].
    pub(crate) fn rebound_since<'a>(
        &'a self,
        older: &'a FormulaStore,
    ) -> impl Iterator<Item = AtomId> + 'a {
        let (was, now) = (&older.atom_slots.primary, &self.atom_slots.primary);
        now.changed_ranges(was).flat_map(move |range| {
            range.filter_map(move |a| {
                let bound = |t: &ChunkedVec<u32>| t.get(a).is_some_and(|&s| s != NO_SLOT);
                (bound(was) != bound(now)).then_some(AtomId(a as u32))
            })
        })
    }

    /// The atom slot `s` currently displays.
    #[inline]
    pub fn slot_atom(&self, s: SlotId) -> AtomId {
        self.slots[s.index()].atom
    }

    /// Materializes all live formulas as wffs over atoms.
    pub fn wffs(&self) -> Vec<Wff> {
        self.iter().map(|(_, w)| w).collect()
    }

    /// The set of atoms with at least one live occurrence, in sorted order.
    pub fn live_atoms(&self) -> Vec<AtomId> {
        self.atom_slots
            .bound_atoms()
            .filter(|&a| self.contains_atom(a))
            .collect()
    }

    /// Replaces the entire store contents with `wffs` (used by the
    /// whole-store simplifier after a rewrite pass). Slot and occurrence
    /// bookkeeping is rebuilt from scratch.
    pub fn replace_all(&mut self, wffs: &[Wff]) {
        let (max_slots, max_formulas) = (self.max_slots, self.max_formulas);
        let version = self.version;
        // A fresh store also starts a fresh lineage: ids and slots are
        // renumbered, so no diff spans the replacement.
        *self = FormulaStore::new();
        self.max_slots = max_slots;
        self.max_formulas = max_formulas;
        // Carry the mutation counter forward (and advance it) so the reset
        // cannot rewind a generation another component has already observed.
        self.version = version + 1;
        for w in wffs {
            self.insert(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::Formula;

    fn a(i: u32) -> Wff {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn insert_and_resolve_roundtrip() {
        let mut s = FormulaStore::new();
        let w = Wff::and2(a(1), Wff::or2(a(2), a(1)).not());
        let id = s.insert(&w);
        assert_eq!(s.resolve(id), w);
        assert_eq!(s.len(), 1);
        assert_eq!(s.size_nodes(), w.size());
    }

    #[test]
    fn rename_affects_all_occurrences_across_formulas() {
        let mut s = FormulaStore::new();
        let f1 = s.insert(&Wff::or2(a(1), a(2)));
        let f2 = s.insert(&Wff::and2(a(1), a(3)));
        let n = s.rename_atom(AtomId(1), AtomId(99));
        assert_eq!(n, 2);
        assert_eq!(s.resolve(f1), Wff::or2(a(99), a(2)));
        assert_eq!(s.resolve(f2), Wff::and2(a(99), a(3)));
        assert!(!s.contains_atom(AtomId(1)));
        assert!(s.contains_atom(AtomId(99)));
    }

    #[test]
    fn rename_then_reinsert_uses_fresh_slot() {
        // After renaming a → p_a, a *new* occurrence of `a` must not be
        // captured by the old slot (GUA Step 3 re-introduces the original
        // atoms after Step 2's rename).
        let mut s = FormulaStore::new();
        let f1 = s.insert(&a(1));
        s.rename_atom(AtomId(1), AtomId(50));
        let f2 = s.insert(&a(1));
        assert_eq!(s.resolve(f1), a(50));
        assert_eq!(s.resolve(f2), a(1));
        assert_eq!(s.occurrences_of(AtomId(1)), 1);
        assert_eq!(s.occurrences_of(AtomId(50)), 1);
    }

    #[test]
    fn rename_missing_atom_is_noop() {
        let mut s = FormulaStore::new();
        s.insert(&a(1));
        assert_eq!(s.rename_atom(AtomId(7), AtomId(8)), 0);
        assert!(s.contains_atom(AtomId(1)));
    }

    #[test]
    fn rename_merge_onto_existing_atom() {
        // Not used by GUA (targets are fresh), but must stay correct.
        let mut s = FormulaStore::new();
        let f1 = s.insert(&a(1));
        let f2 = s.insert(&a(2));
        s.rename_atom(AtomId(1), AtomId(2));
        assert_eq!(s.resolve(f1), a(2));
        assert_eq!(s.resolve(f2), a(2));
        assert_eq!(s.occurrences_of(AtomId(2)), 2);
        // A further rename of the merged atom moves both slots.
        s.rename_atom(AtomId(2), AtomId(3));
        assert_eq!(s.resolve(f1), a(3));
        assert_eq!(s.resolve(f2), a(3));
    }

    #[test]
    fn remove_updates_accounting() {
        let mut s = FormulaStore::new();
        let w = Wff::or2(a(1), a(2));
        let id = s.insert(&w);
        let id2 = s.insert(&a(1));
        s.remove(id);
        assert_eq!(s.len(), 1);
        assert_eq!(s.size_nodes(), 1);
        assert_eq!(s.occurrences_of(AtomId(1)), 1);
        assert_eq!(s.occurrences_of(AtomId(2)), 0);
        assert!(!s.is_live(id));
        assert!(s.is_live(id2));
        // Removing twice is a no-op.
        s.remove(id);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn wffs_skips_dead_formulas() {
        let mut s = FormulaStore::new();
        let id = s.insert(&a(1));
        s.insert(&a(2));
        s.remove(id);
        assert_eq!(s.wffs(), vec![a(2)]);
    }

    #[test]
    fn live_atoms_sorted_and_filtered() {
        let mut s = FormulaStore::new();
        let id = s.insert(&Wff::and2(a(5), a(3)));
        s.insert(&a(9));
        assert_eq!(s.live_atoms(), vec![AtomId(3), AtomId(5), AtomId(9)]);
        s.remove(id);
        assert_eq!(s.live_atoms(), vec![AtomId(9)]);
    }

    #[test]
    fn replace_all_rebuilds() {
        let mut s = FormulaStore::new();
        s.insert(&a(1));
        s.rename_atom(AtomId(1), AtomId(2));
        s.replace_all(&[a(3), Wff::or2(a(4), a(3))]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.occurrences_of(AtomId(3)), 2);
        assert!(!s.contains_atom(AtomId(2)));
    }

    #[test]
    fn capacity_exhaustion_is_a_typed_error_not_a_panic() {
        let mut s = FormulaStore::new();
        s.set_capacity(2, 2);
        s.insert(&Wff::and2(a(1), a(2))); // fills both slots
        assert!(matches!(
            s.try_insert(&a(3)),
            Err(TheoryError::StoreCapacity {
                what: "slots",
                limit: 2
            })
        ));
        // A wff over already-slotted atoms still fits (no new slots).
        s.try_insert(&a(1)).unwrap();
        // … and now the formula table is full.
        assert!(matches!(
            s.try_insert(&a(2)),
            Err(TheoryError::StoreCapacity {
                what: "formulas",
                limit: 2
            })
        ));
        // A failed insert must not have corrupted accounting.
        assert_eq!(s.len(), 2);
        assert_eq!(s.occurrences_of(AtomId(1)), 2);
        assert_eq!(s.occurrences_of(AtomId(3)), 0);
        assert!(!s.contains_atom(AtomId(3)));
    }

    #[test]
    fn failed_insert_allocates_nothing() {
        // The capacity check runs before any slot allocation: a rejected
        // wff must not leave partial slots behind (which would corrupt
        // occurrence accounting for later renames).
        let mut s = FormulaStore::new();
        s.set_capacity(3, 10);
        s.insert(&Wff::and2(a(1), a(2)));
        // a(1) is slotted, but a(4) & a(5) need two new slots: only one fits.
        assert!(s.try_insert(&Wff::and2(a(4), a(5))).is_err());
        assert_eq!(s.occurrences_of(AtomId(4)), 0);
        assert!(!s.contains_atom(AtomId(5)));
        // The remaining slot is still usable.
        s.try_insert(&a(4)).unwrap();
        assert_eq!(s.occurrences_of(AtomId(4)), 1);
    }

    #[test]
    fn occurrence_accounting_after_merge_remove_reinsert() {
        // Regression: a merge rename (two slots now display one atom)
        // followed by remove and re-insert must keep per-atom occurrence
        // sums exact — `occurrences_of` drives simplification decisions
        // and `contains_atom` drives predicate-constant visibility.
        let mut s = FormulaStore::new();
        let f1 = s.insert(&Wff::or2(a(1), a(1)));
        let f2 = s.insert(&a(2));
        s.rename_atom(AtomId(1), AtomId(2)); // merge: atom 2 has two slots
        assert_eq!(s.occurrences_of(AtomId(2)), 3);
        s.remove(f1);
        assert_eq!(s.occurrences_of(AtomId(2)), 1);
        // Re-insert through the merged binding: the occurrence lands on
        // one of atom 2's slots and the total must reflect it.
        let f3 = s.insert(&Wff::and2(a(2), a(3)));
        assert_eq!(s.occurrences_of(AtomId(2)), 2);
        assert_eq!(s.occurrences_of(AtomId(3)), 1);
        assert_eq!(s.resolve(f3), Wff::and2(a(2), a(3)));
        assert_eq!(s.resolve(f2), a(2));
        // Removing everything zeroes the sums over *both* merged slots.
        s.remove(f2);
        s.remove(f3);
        assert_eq!(s.occurrences_of(AtomId(2)), 0);
        assert!(!s.contains_atom(AtomId(2)));
        assert_eq!(s.live_atoms(), Vec::<AtomId>::new());
    }

    #[test]
    fn replace_all_preserves_capacity_quota() {
        let mut s = FormulaStore::new();
        s.set_capacity(8, 8);
        s.replace_all(&[a(1)]);
        assert!(s
            .try_insert(&Wff::and2(
                a(2),
                Wff::and2(a(3), Wff::and2(a(4), Wff::and2(a(5), a(6))))
            ))
            .is_ok());
        // 6 slots used; 3 more distinct atoms exceed the 8-slot quota.
        assert!(s
            .try_insert(&Wff::and2(a(7), Wff::and2(a(8), a(9))))
            .is_err());
    }

    #[test]
    fn rename_cost_is_independent_of_occurrences() {
        // Structural check on the O(1) claim: renaming touches only the
        // slot table, so the number of atom_slots entries visited equals
        // the number of slots for `from` (1 here), however many
        // occurrences exist.
        let mut s = FormulaStore::new();
        for _ in 0..1000 {
            s.insert(&Wff::or2(a(1), a(1)));
        }
        assert_eq!(s.occurrences_of(AtomId(1)), 2000);
        let affected = s.rename_atom(AtomId(1), AtomId(2));
        assert_eq!(affected, 2000);
        // Every stored formula now displays the new atom.
        assert!(s.iter().all(|(_, w)| !w.contains_atom(AtomId(1))));
    }

    #[test]
    fn insert_remove_cycles_never_exhaust_a_quota() {
        // Freed formula ids and emptied slots are reused, and quotas count
        // live entries: ten times the quota in insert/remove cycles must
        // never be refused while the live store stays under it.
        let mut s = FormulaStore::new();
        s.set_capacity(4, 4);
        let keep = s.try_insert(&a(0)).unwrap();
        for i in 1..=40 {
            let id = s
                .try_insert(&Wff::or2(a(i), a(i + 1000)))
                .unwrap_or_else(|e| panic!("cycle {i}: {e}"));
            assert_eq!(s.len(), 2);
            s.remove(id);
        }
        assert!(s.is_live(keep));
        assert_eq!(s.len(), 1);
        assert_eq!(s.formulas.len(), 2, "dead ids were reused");
        assert_eq!(s.slots.len(), 3, "emptied slots were reused");
        assert_eq!(s.live_atoms(), vec![AtomId(0)]);
    }

    #[test]
    fn occurrence_lists_track_live_formulas() {
        let mut s = FormulaStore::new();
        let f1 = s.insert(&Wff::or2(a(1), a(1)));
        let f2 = s.insert(&Wff::and2(a(1), a(2)));
        let mut with1: Vec<FormulaId> = s.formulas_with(AtomId(1)).collect();
        with1.sort_unstable();
        assert_eq!(with1, vec![f1, f2]);
        assert_eq!(s.occurrences_of(AtomId(1)), 3);
        s.remove(f1);
        assert_eq!(s.formulas_with(AtomId(1)).collect::<Vec<_>>(), vec![f2]);
        // A rename moves the whole list with the slot.
        s.rename_atom(AtomId(1), AtomId(7));
        assert_eq!(s.formulas_with(AtomId(7)).collect::<Vec<_>>(), vec![f2]);
        assert_eq!(s.formulas_with(AtomId(1)).count(), 0);
        // Formulas without atoms are listed apart.
        let f = s.insert(&Wff::f());
        assert_eq!(s.atomless(), &[f]);
        s.remove(f);
        assert!(s.atomless().is_empty());
    }

    #[test]
    fn clones_are_isolated() {
        let mut s = FormulaStore::new();
        let ids: Vec<FormulaId> = (0..600).map(|i| s.insert(&a(i))).collect();
        let snapshot = s.clone();
        s.remove(ids[3]);
        s.rename_atom(AtomId(4), AtomId(9999));
        s.insert(&Wff::and2(a(1), a(2)));
        assert_eq!(snapshot.len(), 600);
        assert_eq!(snapshot.resolve(ids[3]), a(3));
        assert_eq!(snapshot.resolve(ids[4]), a(4));
        assert_eq!(snapshot.occurrences_of(AtomId(1)), 1);
        assert_eq!(s.resolve(ids[4]), a(9999));
        assert_eq!(s.occurrences_of(AtomId(1)), 2);
    }
}
