//! Vocabularies: the language `L` of an extended relational theory.
//!
//! Section 2 of the paper defines the language as a set of constants
//! (attribute-domain elements), a finite set of predicates of arity ≥ 1
//! (database relations and attributes), and an infinite supply of 0-ary
//! *predicate constants* used internally by the update algorithm. The
//! [`Vocabulary`] type holds all three, with dense ids suitable for indexing.
//!
//! Unique-name axioms are structural: two distinct [`ConstId`]s always denote
//! distinct individuals, so `¬(c1 = c2)` never needs to be materialized.

use crate::cow::ChunkedVec;
use crate::intern::Interner;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of an interned constant (a domain element such as `700`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ConstId(pub u32);

impl ConstId {
    /// Dense index of this constant.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of an interned predicate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PredId(pub u32);

impl PredId {
    /// Dense index of this predicate.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// What role a predicate plays in the theory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PredicateKind {
    /// An ordinary database relation of arity ≥ 1 (e.g. `Orders/3`).
    Relation,
    /// A unary attribute predicate, a member of the distinguished set `A`
    /// used by type axioms (§3.5).
    Attribute,
    /// A 0-ary predicate constant, invisible in alternative worlds. These
    /// are minted by GUA Step 2 and must never appear in queries.
    PredicateConstant,
}

impl PredicateKind {
    /// Whether atoms of this predicate are visible in alternative worlds.
    ///
    /// Per §2: "predicate constants are 'invisible' in alternative worlds".
    #[inline]
    pub fn visible(self) -> bool {
        !matches!(self, PredicateKind::PredicateConstant)
    }
}

/// Metadata for one predicate of the language.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Predicate {
    /// The predicate's name as written in formulas.
    pub name: String,
    /// Number of argument positions. Zero exactly for predicate constants.
    pub arity: usize,
    /// The predicate's role.
    pub kind: PredicateKind,
}

/// The language `L`: interned constants and predicates.
///
/// Predicate constants are allocated from a reserved `__p<N>` namespace via
/// [`Vocabulary::fresh_predicate_constant`], guaranteeing GUA Step 2's
/// requirement of "a new predicate constant not previously appearing in T".
#[derive(Clone, Default, Debug)]
pub struct Vocabulary {
    consts: Interner,
    pred_names: Interner,
    /// Shared per entry so copying a chunk never copies a name.
    preds: ChunkedVec<Arc<Predicate>>,
    fresh_counter: u64,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant name, returning its id. Idempotent.
    pub fn constant(&mut self, name: &str) -> ConstId {
        ConstId(self.consts.intern(name))
    }

    /// Looks up a constant without interning.
    pub fn find_constant(&self, name: &str) -> Option<ConstId> {
        self.consts.get(name).map(ConstId)
    }

    /// Resolves a constant id to its name.
    pub fn constant_name(&self, id: ConstId) -> &str {
        self.consts.resolve(id.0)
    }

    /// Number of constants interned so far.
    pub fn num_constants(&self) -> usize {
        self.consts.len()
    }

    /// Iterates over all constants in allocation order.
    pub fn constants(&self) -> impl Iterator<Item = (ConstId, &str)> {
        self.consts.iter().map(|(id, n)| (ConstId(id), n))
    }

    /// Declares a predicate with the given arity and kind, returning its id.
    ///
    /// Re-declaring an existing name returns the existing id when arity and
    /// kind match, and `None` if they conflict.
    pub fn declare_predicate(
        &mut self,
        name: &str,
        arity: usize,
        kind: PredicateKind,
    ) -> Option<PredId> {
        debug_assert!(
            (arity == 0) == matches!(kind, PredicateKind::PredicateConstant),
            "arity 0 iff predicate constant"
        );
        if let Some(id) = self.pred_names.get(name) {
            let existing = &self.preds[id as usize];
            if existing.arity == arity && existing.kind == kind {
                return Some(PredId(id));
            }
            return None;
        }
        let id = self.pred_names.intern(name);
        debug_assert_eq!(id as usize, self.preds.len());
        self.preds.push(Arc::new(Predicate {
            name: name.to_owned(),
            arity,
            kind,
        }));
        Some(PredId(id))
    }

    /// Looks up a predicate by name.
    pub fn find_predicate(&self, name: &str) -> Option<PredId> {
        self.pred_names.get(name).map(PredId)
    }

    /// Returns the metadata for `id`.
    pub fn predicate(&self, id: PredId) -> &Predicate {
        &self.preds[id.index()]
    }

    /// Number of declared predicates (including predicate constants).
    pub fn num_predicates(&self) -> usize {
        self.preds.len()
    }

    /// Iterates over all predicates in declaration order.
    pub fn predicates(&self) -> impl Iterator<Item = (PredId, &Predicate)> {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, p)| (PredId(i as u32), &**p))
    }

    /// The current value of the fresh-name counter (the `N` of the next
    /// `__pN…` predicate constant to be minted). Persisted by the dump
    /// format of `winslett-core` so a restored theory keeps minting names
    /// disjoint from every name the saved theory ever used — including
    /// names freed by simplification, which no longer appear in the dump.
    pub fn fresh_counter(&self) -> u64 {
        self.fresh_counter
    }

    /// Raises the fresh-name counter to at least `n`. Used on restore; the
    /// counter never moves backwards.
    pub fn bump_fresh_counter_to(&mut self, n: u64) {
        self.fresh_counter = self.fresh_counter.max(n);
    }

    /// Mints a brand-new 0-ary predicate constant, guaranteed not to clash
    /// with any existing predicate. Used by GUA Step 2.
    pub fn fresh_predicate_constant(&mut self) -> PredId {
        loop {
            let name = format!("__p{}", self.fresh_counter);
            self.fresh_counter += 1;
            if self.pred_names.get(&name).is_none() {
                return self
                    .declare_predicate(&name, 0, PredicateKind::PredicateConstant)
                    .expect("fresh name cannot conflict");
            }
        }
    }

    /// Mints a fresh predicate constant whose name records the atom it
    /// replaced, e.g. `__p3_Orders_700_32_9` — purely cosmetic, for
    /// debuggability of update transcripts. The name is sanitized to
    /// identifier characters so printed theories re-parse (see the
    /// persistence layer of `winslett-core`).
    pub fn fresh_predicate_constant_for(&mut self, renamed: &str) -> PredId {
        let tag: String = renamed
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '\'' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        loop {
            let name = format!("__p{}_{}", self.fresh_counter, tag);
            self.fresh_counter += 1;
            if self.pred_names.get(&name).is_none() {
                return self
                    .declare_predicate(&name, 0, PredicateKind::PredicateConstant)
                    .expect("fresh name cannot conflict");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned_idempotently() {
        let mut v = Vocabulary::new();
        let a = v.constant("700");
        let b = v.constant("32");
        assert_eq!(v.constant("700"), a);
        assert_ne!(a, b);
        assert_eq!(v.constant_name(a), "700");
        assert_eq!(v.num_constants(), 2);
    }

    #[test]
    fn predicate_declaration_checks_conflicts() {
        let mut v = Vocabulary::new();
        let p = v
            .declare_predicate("Orders", 3, PredicateKind::Relation)
            .unwrap();
        // Same signature: same id.
        assert_eq!(
            v.declare_predicate("Orders", 3, PredicateKind::Relation),
            Some(p)
        );
        // Conflicting arity: rejected.
        assert_eq!(
            v.declare_predicate("Orders", 2, PredicateKind::Relation),
            None
        );
        assert_eq!(v.predicate(p).arity, 3);
        assert_eq!(v.predicate(p).name, "Orders");
    }

    #[test]
    fn fresh_predicate_constants_never_collide() {
        let mut v = Vocabulary::new();
        let p1 = v.fresh_predicate_constant();
        let p2 = v.fresh_predicate_constant();
        assert_ne!(p1, p2);
        assert_eq!(v.predicate(p1).kind, PredicateKind::PredicateConstant);
        assert_eq!(v.predicate(p1).arity, 0);
        assert!(!v.predicate(p1).kind.visible());
    }

    #[test]
    fn fresh_predicate_constant_skips_taken_names() {
        let mut v = Vocabulary::new();
        v.declare_predicate("__p0", 0, PredicateKind::PredicateConstant)
            .unwrap();
        let p = v.fresh_predicate_constant();
        assert_ne!(v.predicate(p).name, "__p0");
    }

    #[test]
    fn visibility_by_kind() {
        assert!(PredicateKind::Relation.visible());
        assert!(PredicateKind::Attribute.visible());
        assert!(!PredicateKind::PredicateConstant.visible());
    }

    #[test]
    fn predicate_iteration_order() {
        let mut v = Vocabulary::new();
        v.declare_predicate("A", 1, PredicateKind::Attribute)
            .unwrap();
        v.declare_predicate("R", 2, PredicateKind::Relation)
            .unwrap();
        let names: Vec<_> = v.predicates().map(|(_, p)| p.name.clone()).collect();
        assert_eq!(names, vec!["A", "R"]);
    }
}
