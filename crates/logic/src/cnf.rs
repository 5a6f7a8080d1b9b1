//! CNF conversion via the Tseitin transformation.
//!
//! Ground wffs are converted to clause form before being handed to the SAT
//! solver. Variables `0..num_atoms` correspond one-to-one with
//! [`AtomId`](crate::AtomId)s;
//! auxiliary Tseitin variables are allocated above the atom universe, so
//! projecting a model onto `0..num_atoms` recovers the truth valuation of
//! the ground atomic formulas — exactly an *alternative world* candidate.
//!
//! Because each auxiliary variable is functionally determined by the atom
//! variables, projected model enumeration with blocking clauses (see
//! [`crate::enumerate`]) visits each alternative world exactly once.

use crate::formula::Formula;
use crate::sat::{Lit, Solver, Var};
use crate::{AtomId, Wff};

/// A formula in conjunctive normal form.
#[derive(Clone, Default, Debug)]
pub struct CnfFormula {
    /// Total number of variables, including auxiliary ones.
    pub num_vars: usize,
    /// The clauses; an empty clause marks unsatisfiability.
    pub clauses: Vec<Vec<Lit>>,
}

impl CnfFormula {
    /// Builds a solver containing these clauses.
    pub fn into_solver(&self) -> Solver {
        let mut s = Solver::new(self.num_vars);
        for c in &self.clauses {
            if !s.add_clause(c) {
                break; // already unsat; solver remembers
            }
        }
        s
    }
}

/// Incremental Tseitin encoder.
///
/// Assert any number of wffs as true; the resulting [`CnfFormula`] is
/// satisfiable exactly when their conjunction is, and its models restricted
/// to `0..num_atoms` are exactly the models of the conjunction.
pub struct Tseitin {
    num_atoms: usize,
    next_var: u32,
    clauses: Vec<Vec<Lit>>,
    /// Lazily allocated always-true variable for `Truth` leaves.
    const_true: Option<Var>,
}

impl Tseitin {
    /// Creates an encoder whose first `num_atoms` variables are the atom
    /// universe.
    pub fn new(num_atoms: usize) -> Self {
        Tseitin {
            num_atoms,
            next_var: u32::try_from(num_atoms).expect("atom universe too large"),
            clauses: Vec::new(),
            const_true: None,
        }
    }

    /// The number of ground-atom variables.
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// Total number of variables allocated so far, auxiliaries included.
    pub fn num_vars(&self) -> usize {
        self.next_var as usize
    }

    /// Drains the clauses accumulated since the last call, leaving the
    /// encoder ready for more input. Used by incremental consumers that
    /// stream clauses into a live solver instead of calling
    /// [`Tseitin::finish`]; the buffer is kept for reuse.
    pub fn drain_clauses(&mut self) -> std::vec::Drain<'_, Vec<Lit>> {
        self.clauses.drain(..)
    }

    /// Allocates a fresh variable above the atom universe and every
    /// variable allocated so far — an auxiliary, or a session's selector.
    pub(crate) fn fresh(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    fn true_lit(&mut self) -> Lit {
        match self.const_true {
            Some(v) => Lit::pos(v),
            None => {
                let v = self.fresh();
                self.const_true = Some(v);
                self.clauses.push(vec![Lit::pos(v)]);
                Lit::pos(v)
            }
        }
    }

    /// Encodes `wff` to a literal equisatisfiably representing it.
    pub fn encode(&mut self, wff: &Wff) -> Lit {
        self.encode_with(wff, &mut |a: &AtomId| *a)
    }

    /// Encodes a formula over any leaf type, mapping each leaf to its atom
    /// with `atom_of` — how a theory's store bodies, whose leaves are
    /// storage slots, are encoded without first being resolved to wffs.
    pub fn encode_with<A, F>(&mut self, wff: &Formula<A>, atom_of: &mut F) -> Lit
    where
        F: FnMut(&A) -> AtomId,
    {
        match wff {
            Formula::Truth(true) => self.true_lit(),
            Formula::Truth(false) => self.true_lit().negate(),
            Formula::Atom(leaf) => {
                let a = atom_of(leaf);
                debug_assert!(
                    a.index() < self.num_atoms,
                    "atom {a:?} outside declared universe of {}",
                    self.num_atoms
                );
                Lit::pos(Var(a.0))
            }
            Formula::Not(x) => self.encode_with(x, atom_of).negate(),
            Formula::And(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.encode_with(x, atom_of)).collect();
                self.encode_and(&lits)
            }
            Formula::Or(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.encode_with(x, atom_of)).collect();
                self.encode_or(&lits)
            }
            Formula::Implies(a, b) => {
                let la = self.encode_with(a, atom_of).negate();
                let lb = self.encode_with(b, atom_of);
                self.encode_or(&[la, lb])
            }
            Formula::Iff(a, b) => {
                let la = self.encode_with(a, atom_of);
                let lb = self.encode_with(b, atom_of);
                let v = self.fresh();
                let lv = Lit::pos(v);
                // v ↔ (la ↔ lb)
                self.clauses.push(vec![lv.negate(), la.negate(), lb]);
                self.clauses.push(vec![lv.negate(), la, lb.negate()]);
                self.clauses.push(vec![lv, la, lb]);
                self.clauses.push(vec![lv, la.negate(), lb.negate()]);
                lv
            }
        }
    }

    fn encode_and(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.true_lit(),
            1 => lits[0],
            _ => {
                let v = self.fresh();
                let lv = Lit::pos(v);
                let mut long = Vec::with_capacity(lits.len() + 1);
                long.push(lv);
                for &l in lits {
                    self.clauses.push(vec![lv.negate(), l]);
                    long.push(l.negate());
                }
                self.clauses.push(long);
                lv
            }
        }
    }

    fn encode_or(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.true_lit().negate(),
            1 => lits[0],
            _ => {
                let v = self.fresh();
                let lv = Lit::pos(v);
                let mut long = Vec::with_capacity(lits.len() + 1);
                long.push(lv.negate());
                for &l in lits {
                    self.clauses.push(vec![lv, l.negate()]);
                    long.push(l);
                }
                self.clauses.push(long);
                lv
            }
        }
    }

    /// Asserts that `wff` is true.
    pub fn assert_true(&mut self, wff: &Wff) {
        self.assert_true_with(wff, &mut |a: &AtomId| *a);
    }

    /// Asserts that a formula over any leaf type is true, mapping leaves
    /// to atoms with `atom_of` (see [`Tseitin::encode_with`]).
    pub fn assert_true_with<A, F>(&mut self, wff: &Formula<A>, atom_of: &mut F)
    where
        F: FnMut(&A) -> AtomId,
    {
        // Shortcut top-level conjunctions to avoid needless aux variables.
        match wff {
            Formula::Truth(true) => {}
            Formula::Truth(false) => self.clauses.push(Vec::new()),
            Formula::And(xs) => {
                for x in xs {
                    self.assert_true_with(x, atom_of);
                }
            }
            Formula::Or(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.encode_with(x, atom_of)).collect();
                self.clauses.push(lits);
            }
            Formula::Implies(a, b) => {
                let la = self.encode_with(a, atom_of).negate();
                let lb = self.encode_with(b, atom_of);
                self.clauses.push(vec![la, lb]);
            }
            other => {
                let l = self.encode_with(other, atom_of);
                self.clauses.push(vec![l]);
            }
        }
    }

    /// Asserts that `wff` is false.
    pub fn assert_false(&mut self, wff: &Wff) {
        let l = self.encode(wff);
        self.clauses.push(vec![l.negate()]);
    }

    /// Finishes encoding, producing the CNF.
    pub fn finish(self) -> CnfFormula {
        CnfFormula {
            num_vars: self.next_var as usize,
            clauses: self.clauses,
        }
    }
}

/// Convenience: is the conjunction of `wffs` satisfiable over a universe of
/// `num_atoms` atoms?
pub fn satisfiable(wffs: &[&Wff], num_atoms: usize) -> bool {
    let mut ts = Tseitin::new(num_atoms);
    for w in wffs {
        ts.assert_true(w);
    }
    ts.finish().into_solver().solve().is_sat()
}

/// Convenience: is `wff` valid (true under every assignment)?
pub fn valid(wff: &Wff, num_atoms: usize) -> bool {
    let mut ts = Tseitin::new(num_atoms);
    ts.assert_false(wff);
    !ts.finish().into_solver().solve().is_sat()
}

/// Convenience: does the conjunction of `premises` entail `conclusion`?
pub fn entails(premises: &[&Wff], conclusion: &Wff, num_atoms: usize) -> bool {
    let mut ts = Tseitin::new(num_atoms);
    for p in premises {
        ts.assert_true(p);
    }
    ts.assert_false(conclusion);
    !ts.finish().into_solver().solve().is_sat()
}

/// Convenience: are two wffs logically equivalent?
pub fn equivalent(a: &Wff, b: &Wff, num_atoms: usize) -> bool {
    let mut ts = Tseitin::new(num_atoms);
    let la = ts.encode(a);
    let lb = ts.encode(b);
    // Assert a XOR b; equivalence holds iff that is unsatisfiable.
    ts.clauses.push(vec![la, lb]);
    ts.clauses.push(vec![la.negate(), lb.negate()]);
    !ts.finish().into_solver().solve().is_sat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> Wff {
        Formula::Atom(AtomId(i))
    }

    /// Checks Tseitin equisatisfiability against direct evaluation: for
    /// every assignment of the atoms, the wff is true iff the CNF is
    /// satisfiable with those atom values fixed.
    fn check_encoding(wff: &Wff, num_atoms: usize) {
        assert!(num_atoms <= 12);
        for mask in 0u32..(1 << num_atoms) {
            let expected = wff.clone().eval(&mut |x: &AtomId| (mask >> x.0) & 1 == 1);
            let mut ts = Tseitin::new(num_atoms);
            ts.assert_true(wff);
            let cnf = ts.finish();
            let mut s = cnf.into_solver();
            for v in 0..num_atoms {
                let bit = (mask >> v) & 1 == 1;
                s.add_clause(&[Lit::new(Var(v as u32), bit)]);
            }
            assert_eq!(
                s.solve().is_sat(),
                expected,
                "encoding mismatch for {wff:?} under mask {mask:b}"
            );
        }
    }

    #[test]
    fn encodes_connectives_correctly() {
        check_encoding(&Wff::and2(a(0), a(1)), 2);
        check_encoding(&Wff::or2(a(0), a(1)), 2);
        check_encoding(&Wff::implies(a(0), a(1)), 2);
        check_encoding(&Wff::iff(a(0), a(1)), 2);
        check_encoding(&a(0).not(), 1);
        check_encoding(&Wff::t(), 1);
        check_encoding(&Wff::f(), 1);
    }

    #[test]
    fn encodes_nested_formulas() {
        let w = Wff::iff(
            Wff::implies(Wff::and2(a(0), a(1).not()), Wff::or2(a(2), a(3))),
            Wff::or2(a(0).not(), a(3)),
        );
        check_encoding(&w, 4);
    }

    #[test]
    fn empty_and_or() {
        check_encoding(&Wff::And(vec![]), 1);
        check_encoding(&Wff::Or(vec![]), 1);
    }

    #[test]
    fn validity_checks() {
        assert!(valid(&Wff::or2(a(0), a(0).not()), 1)); // excluded middle
        assert!(!valid(&a(0), 1));
        assert!(valid(&Wff::implies(Wff::and2(a(0), a(1)), a(0)), 2));
    }

    #[test]
    fn entailment_checks() {
        let p = a(0);
        let p_implies_q = Wff::implies(a(0), a(1));
        assert!(entails(&[&p, &p_implies_q], &a(1), 2)); // modus ponens
        assert!(!entails(&[&p_implies_q], &a(1), 2));
    }

    #[test]
    fn equivalence_checks() {
        // De Morgan.
        let lhs = Wff::and2(a(0), a(1)).not();
        let rhs = Wff::or2(a(0).not(), a(1).not());
        assert!(equivalent(&lhs, &rhs, 2));
        assert!(!equivalent(&a(0), &a(1), 2));
        // The paper's §3.2 point: T and g ∨ ¬g ARE logically equivalent —
        // the update semantics distinguishes them, but the logic must not.
        assert!(equivalent(&Wff::t(), &Wff::or2(a(0), a(0).not()), 1));
    }

    #[test]
    fn satisfiable_conjunction() {
        assert!(satisfiable(&[&a(0), &a(1).not()], 2));
        assert!(!satisfiable(&[&a(0), &a(0).not()], 1));
    }
}
