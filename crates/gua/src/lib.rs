//! # winslett-gua
//!
//! GUA — the Ground Update Algorithm of Winslett (PODS 1986, §3.3/§3.5) —
//! together with the §4 simplification pass.
//!
//! * [`GuaEngine`] owns an extended relational theory and performs LDML
//!   updates on it syntactically: Steps 1–4 (rename-and-restrict) plus
//!   Steps 2′ and 5–7 for theories with type and dependency axioms.
//! * [`simplify()`](simplify::simplify) keeps the theory small as updates accumulate —
//!   world-preserving constant folding, unit propagation, predicate-
//!   constant elimination, and (at [`SimplifyLevel::Full`]) SAT-backed
//!   redundancy removal.
//!
//! Correctness (Theorems 1 and 5) is checked in the workspace integration
//! tests by comparing against the possible-worlds baseline of
//! `winslett-worlds` on randomized theories and updates.

pub mod algorithm;
pub mod error;
pub mod simplify;

pub use algorithm::{apply_update, GuaEngine, GuaOptions, UpdateReport};
pub use error::GuaError;
pub use simplify::{simplify, simplify_scoped, SimplifyLevel, SimplifyReport};
