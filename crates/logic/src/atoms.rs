//! Interned ground atomic formulas.
//!
//! A ground atomic formula such as `Orders(700, 32, 9)` is a predicate
//! applied to constants. The [`AtomTable`] interns each distinct atom once
//! and hands out dense [`AtomId`]s; the table is the "index … per predicate,
//! so that lookup and insertion time is O(log R)" required by the §3.6 cost
//! model (we use hash maps for the global intern step and `BTreeMap`s for
//! the per-predicate indices kept in `winslett-theory`).

use crate::cow::{ChunkedVec, ShardedMap};
use crate::symbols::{ConstId, PredId, PredicateKind, Vocabulary};
use crate::AtomId;
use smallvec::SmallVec;
use std::fmt;

/// A ground atomic formula: a predicate applied to zero or more constants.
///
/// Predicate constants are `GroundAtom`s with an empty argument list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroundAtom {
    /// The predicate being applied.
    pub pred: PredId,
    /// The constant arguments, in positional order.
    pub args: SmallVec<[ConstId; 3]>,
}

impl GroundAtom {
    /// Builds an atom from a predicate and argument slice.
    pub fn new(pred: PredId, args: &[ConstId]) -> Self {
        GroundAtom {
            pred,
            args: SmallVec::from_slice(args),
        }
    }

    /// Builds a 0-ary atom (a predicate constant occurrence).
    pub fn nullary(pred: PredId) -> Self {
        GroundAtom {
            pred,
            args: SmallVec::new(),
        }
    }

    /// Renders the atom using the names in `vocab`.
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> AtomDisplay<'a> {
        AtomDisplay { atom: self, vocab }
    }
}

/// Helper returned by [`GroundAtom::display`]: renders `P(c1,c2,…)`, or
/// the bare name for a nullary atom.
pub struct AtomDisplay<'a> {
    atom: &'a GroundAtom,
    vocab: &'a Vocabulary,
}

impl AtomDisplay<'_> {
    /// Appends the rendering to `w` with `write_str` alone: no format
    /// machinery, so a caller rendering many atoms can reuse one buffer.
    pub fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str(&self.vocab.predicate(self.atom.pred).name)?;
        if !self.atom.args.is_empty() {
            w.write_str("(")?;
            for (i, a) in self.atom.args.iter().enumerate() {
                if i > 0 {
                    w.write_str(",")?;
                }
                w.write_str(self.vocab.constant_name(*a))?;
            }
            w.write_str(")")?;
        }
        Ok(())
    }
}

impl fmt::Display for AtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Interning table for ground atoms.
///
/// Every distinct ground atom receives a dense [`AtomId`]; the id space is
/// shared between ordinary atoms and predicate constants so that formulas,
/// valuations, and SAT variables can all be indexed by one `u32`. Both
/// directions are copy-on-write, so a clone is O(1).
#[derive(Clone, Default, Debug)]
pub struct AtomTable {
    atoms: ChunkedVec<GroundAtom>,
    ids: ShardedMap<GroundAtom, AtomId>,
}

impl AtomTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `atom`, returning its id. Idempotent.
    pub fn intern(&mut self, atom: GroundAtom) -> AtomId {
        if let Some(&id) = self.ids.get(&atom) {
            return id;
        }
        let id = AtomId(u32::try_from(self.atoms.len()).expect("atom table overflow"));
        self.atoms.push(atom.clone());
        self.ids.insert(atom, id);
        id
    }

    /// Convenience: interns `pred(args…)`.
    pub fn intern_app(&mut self, pred: PredId, args: &[ConstId]) -> AtomId {
        self.intern(GroundAtom::new(pred, args))
    }

    /// Looks up an atom without interning it.
    pub fn get(&self, atom: &GroundAtom) -> Option<AtomId> {
        self.ids.get(atom).copied()
    }

    /// Returns the atom for `id`.
    pub fn resolve(&self, id: AtomId) -> &GroundAtom {
        &self.atoms[id.index()]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over `(id, atom)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &GroundAtom)> {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (AtomId(i as u32), a))
    }

    /// Whether this table is `older` with atoms appended: every atom of
    /// `older` has the same id here. Only the chunks the two tables do not
    /// share are compared, so a table diffed against its own earlier
    /// clone costs O(len / CHUNK) pointer checks plus one chunk.
    pub fn extends(&self, older: &AtomTable) -> bool {
        self.len() >= older.len()
            && self.atoms.changed_ranges(&older.atoms).all(|range| {
                (range.start..range.end.min(older.len())).all(|i| self.atoms[i] == older.atoms[i])
            })
    }

    /// Whether `id` denotes a predicate-constant occurrence (checked against
    /// the vocabulary's predicate kinds).
    pub fn is_predicate_constant(&self, id: AtomId, vocab: &Vocabulary) -> bool {
        vocab.predicate(self.resolve(id).pred).kind == PredicateKind::PredicateConstant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::PredicateKind;

    fn vocab_with_orders() -> (Vocabulary, PredId, Vec<ConstId>) {
        let mut v = Vocabulary::new();
        let p = v
            .declare_predicate("Orders", 3, PredicateKind::Relation)
            .unwrap();
        let cs = ["700", "32", "9"].iter().map(|c| v.constant(c)).collect();
        (v, p, cs)
    }

    #[test]
    fn intern_is_idempotent() {
        let (_, p, cs) = vocab_with_orders();
        let mut t = AtomTable::new();
        let a1 = t.intern_app(p, &cs);
        let a2 = t.intern_app(p, &cs);
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_args_distinct_ids() {
        let (_, p, cs) = vocab_with_orders();
        let mut t = AtomTable::new();
        let a1 = t.intern_app(p, &cs);
        let a2 = t.intern_app(p, &[cs[0], cs[1], cs[1]]);
        assert_ne!(a1, a2);
        assert_eq!(t.resolve(a1).args.as_slice(), cs.as_slice());
    }

    #[test]
    fn display_matches_paper_syntax() {
        let (v, p, cs) = vocab_with_orders();
        let atom = GroundAtom::new(p, &cs);
        assert_eq!(atom.display(&v).to_string(), "Orders(700,32,9)");
    }

    #[test]
    fn nullary_atom_display_has_no_parens() {
        let mut v = Vocabulary::new();
        let p = v.fresh_predicate_constant();
        let atom = GroundAtom::nullary(p);
        let s = atom.display(&v).to_string();
        assert!(s.starts_with("__p"));
        assert!(!s.contains('('));
    }

    #[test]
    fn predicate_constant_detection() {
        let mut v = Vocabulary::new();
        let r = v
            .declare_predicate("R", 1, PredicateKind::Relation)
            .unwrap();
        let c = v.constant("a");
        let pc = v.fresh_predicate_constant();
        let mut t = AtomTable::new();
        let ra = t.intern_app(r, &[c]);
        let pa = t.intern(GroundAtom::nullary(pc));
        assert!(!t.is_predicate_constant(ra, &v));
        assert!(t.is_predicate_constant(pa, &v));
    }

    #[test]
    fn extends_accepts_appends_and_rejects_other_tables() {
        let (_, p, cs) = vocab_with_orders();
        let mut t = AtomTable::new();
        for i in 0..300 {
            t.intern_app(p, &[cs[0], cs[1], ConstId(i)]);
        }
        let older = t.clone();
        t.intern_app(p, &[cs[2], cs[2], cs[2]]);
        assert!(t.extends(&older));
        assert!(t.extends(&t.clone()));
        assert!(!older.extends(&t), "a shorter table extends nothing longer");
        // Same length, one atom different: not an extension.
        let mut other = AtomTable::new();
        for i in 0..300 {
            other.intern_app(p, &[cs[0], cs[1], ConstId(if i == 7 { 999 } else { i })]);
        }
        assert!(!other.extends(&older));
    }

    #[test]
    fn get_does_not_intern() {
        let (_, p, cs) = vocab_with_orders();
        let mut t = AtomTable::new();
        let probe = GroundAtom::new(p, &cs);
        assert_eq!(t.get(&probe), None);
        let id = t.intern(probe.clone());
        assert_eq!(t.get(&probe), Some(id));
    }
}
