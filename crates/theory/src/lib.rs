//! # winslett-theory
//!
//! Extended relational theories (Winslett, PODS 1986, §2 and §3.5): the
//! representation of a logical database with incomplete information.
//!
//! An extended relational theory consists of
//!
//! 1. **unique-name axioms** — structural here: distinct interned constants
//!    denote distinct individuals;
//! 2. **completion axioms** — the [`CompletionRegistry`]: per-predicate
//!    ordered indices of exactly the ground atoms appearing in the theory;
//! 3. a **non-axiomatic section** of arbitrary ground wffs (which may
//!    mention predicate constants) — the [`FormulaStore`], implementing the
//!    §3.6 pointer/index substrate with O(1) atom renaming;
//! 4. optionally **type axioms** encoding the schema ([`Schema`]);
//! 5. optionally **dependency axioms** in the paper's template form
//!    ([`Dependency`]): functional, relation-inclusion, multivalued, or any
//!    custom `∀x⃗ (α → β)`.
//!
//! [`Theory`] ties these together and provides model-level operations
//! (consistency, entailment, alternative-world enumeration) via the SAT
//! kernel of `winslett-logic`.

pub mod deps;
pub mod error;
pub mod registry;
pub mod schema;
pub mod stats;
pub mod store;
pub mod theory;

pub use deps::{AtomPattern, Dependency, HeadFormula, Term};
pub use error::TheoryError;
pub use registry::CompletionRegistry;
pub use schema::Schema;
pub use stats::TheoryStats;
pub use store::{FormulaId, FormulaStore, SlotId};
pub use theory::{SessionItem, Theory, TheoryDelta};
