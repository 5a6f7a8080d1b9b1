//! # winslett-logic
//!
//! The ground first-order logic kernel underlying the reproduction of
//! Winslett, *"A Model-Theoretic Approach to Updating Logical Databases"*
//! (PODS 1986).
//!
//! Everything in the non-axiomatic section of an extended relational theory
//! — and everything in an LDML update — is a **ground** well-formed formula:
//! no variables, no equality. Over a fixed finite universe of ground atomic
//! formulas, ground FOL *is* propositional logic, so this crate provides:
//!
//! * interned vocabularies of constants and predicates ([`Vocabulary`]),
//! * interned ground atoms ([`AtomTable`], [`AtomId`]),
//! * a formula AST generic over its leaf type ([`Formula`], [`Wff`]),
//! * a parser and pretty-printer for the concrete syntax used in the paper's
//!   examples ([`parse_wff`], [`display_wff`]),
//! * NNF / CNF conversion, including Tseitin encoding ([`cnf`]),
//! * a DPLL/CDCL SAT solver with two-watched-literal propagation ([`sat`]),
//! * model enumeration, both SAT-backed and brute-force ([`enumerate`]),
//! * dense truth valuations ([`BitSet`], [`Valuation`]).
//!
//! The unique-name and completion axioms of the paper are *structural* here:
//! distinct [`ConstId`]s denote distinct individuals, and the atom universe
//! registered in an [`AtomTable`] plays the role of the completion axioms'
//! disjunct lists (see `winslett-theory`). This matches the paper's remark
//! that "in an implementation … we would not actually store any of these
//! axioms".

pub mod access;
pub mod atoms;
pub mod bitset;
pub mod cnf;
pub mod cow;
pub mod enumerate;
pub mod error;
pub mod formula;
pub mod intern;
pub mod nnf;
pub mod parser;
pub mod printer;
pub mod sat;
pub mod session;
pub mod span;
pub mod symbols;
pub mod valuation;

pub use access::AccessSet;
pub use atoms::{AtomTable, GroundAtom};
pub use bitset::BitSet;
pub use cnf::{CnfFormula, Tseitin};
pub use cow::{ChunkedSet, ChunkedVec, ShardedMap};
pub use enumerate::{enumerate_models, enumerate_models_brute, ModelLimit};
pub use error::LogicError;
pub use formula::{Formula, Polarity, Wff};
pub use intern::Interner;
pub use nnf::{forced_literals, to_nnf};
pub use parser::{parse_wff, ParseContext};
pub use printer::{display_wff, WffDisplay};
pub use sat::{backbone, Lit, SatResult, Solver, Var};
pub use session::{EntailmentSession, SessionStats};
pub use span::Span;
pub use symbols::{ConstId, PredId, Predicate, PredicateKind, Vocabulary};
pub use valuation::Valuation;

/// Identifier of an interned ground atomic formula.
///
/// Atom ids are dense `u32` indices into an [`AtomTable`]. Predicate
/// constants (the paper's auxiliary 0-ary predicates) receive atom ids from
/// the same space; they are distinguished by the [`PredicateKind`] of their
/// predicate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The dense index of this atom.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AtomId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}
