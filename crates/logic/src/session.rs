//! Incremental entailment sessions: encode once, answer by assumptions.
//!
//! Reiter-style query answering (the paper's §3.3) is pure entailment:
//! *certain* truths hold in every alternative world, *possible* truths in
//! some. Both reduce to SAT over the theory's clause form — but a naive
//! implementation re-runs the Tseitin conversion of the entire
//! non-axiomatic section and builds a brand-new CDCL solver for every
//! single question. An [`EntailmentSession`] keeps one solver alive
//! instead:
//!
//! * the theory's *base* wffs are encoded **once** as permanent clauses
//!   ([`EntailmentSession::assert_base`]). Unit facts (`a`, `¬a`, and
//!   conjunctions of them) skip the encoder: each is one root assignment
//!   in the solver ([`Solver::add_unit`]), with no clause and no
//!   allocation. A theory loads its store through
//!   [`EntailmentSession::assert_base_with`], which reads formulas over
//!   storage slots directly, and [`EntailmentSession::assert_fact`] for
//!   its pinned-false completion units;
//! * each query wff is Tseitin-encoded to an **activation literal**
//!   ([`EntailmentSession::literal_for`]); the definitional clauses
//!   (`v ↔ subformula`) are pure auxiliary-variable definitions that never
//!   constrain the atom variables, so they can be added permanently and the
//!   wff asserted or denied per query purely through assumptions;
//! * `consistent_with(w)` is one [`Solver::satisfiable_with`] call under
//!   `[lit(w)]`, `entails(w)` one call under `[¬lit(w)]` — and the learnt
//!   clauses from every call stay alive for the next one. The solver keeps
//!   its root trail propagated and picks decisions from an order heap, so
//!   a solve on a warm session costs what the query touches, not the size
//!   of the base; verdict-only solves build no model.
//!
//! Activation literals are cached per wff, so asking the same question
//! twice (or asking `consistent_with` and `entails` of the same wff, the
//! query engine's standard pair) encodes nothing the second time.
//!
//! ## Guarded items: following a base that changes
//!
//! A snapshot reader moves its session from one theory generation to the
//! next by loading only what changed. Root facts and clauses cannot be
//! taken back, so what an advance loads goes in *guarded*, the standard
//! activation-literal scheme for incremental SAT (Eén & Sörensson,
//! *Temporal Induction by Incremental SAT Solving*, 2003):
//!
//! * each guarded item gets its own fresh **selector** `s` and is asserted
//!   as `¬s ∨ item` ([`EntailmentSession::assert_guarded_with`],
//!   [`EntailmentSession::guard_fact`]);
//! * every solve the session runs assumes all live selectors before its
//!   own assumptions, so the live guarded items hold in every answer;
//! * retracting an item ([`EntailmentSession::retract`]) adds the root
//!   unit `¬s`, which satisfies its clauses for good. Learnt clauses stay
//!   sound: they follow from the clause database, and any of them that
//!   used a guarded clause carries `¬s`.
//!
//! Items loaded at the root cannot be retracted; a caller that needs one
//! gone builds a fresh session. Each live selector costs every solve one
//! assumption, counted in [`SessionStats::selector_assumptions`]; a
//! snapshot reader rebuilds once that count passes the number of items
//! its build loaded (a ski-rental rule, at most twice the better choice).
//!
//! Atom ids are variable ids. A session created over more atoms than its
//! theory interns has spare atom variables that occur in no clause (so
//! no solve decides on them); a reader loads atoms later generations
//! intern into them without renumbering, and Tseitin auxiliaries and
//! selectors are numbered above them.

use crate::cnf::Tseitin;
use crate::sat::{Lit, SatResult, Solver, Var};
use crate::{AtomId, Formula, Wff};
use rustc_hash::FxHashMap;

/// Counters describing the work a session has performed (and avoided).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SessionStats {
    /// Base wffs asserted as permanent clauses.
    pub base_wffs: u64,
    /// Items asserted behind their own selector literal.
    pub guarded_items: u64,
    /// Guarded items retracted.
    pub retractions: u64,
    /// Query wffs freshly Tseitin-encoded to an activation literal.
    pub encoded_wffs: u64,
    /// Query wffs answered from the activation-literal cache — each one an
    /// entire theory re-encoding the legacy path would have paid.
    pub encode_reuse_hits: u64,
    /// Assumption solves issued.
    pub assumption_solves: u64,
    /// Live selectors assumed, summed over solves.
    pub selector_assumptions: u64,
    /// Generations a reader moved this session to by loading the
    /// difference (set by the reader, not the session).
    pub advances: u64,
    /// Generations a reader moved to by building a fresh session instead
    /// (set by the reader, not the session).
    pub rebuilds: u64,
}

impl SessionStats {
    /// Adds `other`'s counters to these.
    pub fn accumulate(&mut self, other: &SessionStats) {
        self.base_wffs += other.base_wffs;
        self.guarded_items += other.guarded_items;
        self.retractions += other.retractions;
        self.encoded_wffs += other.encoded_wffs;
        self.encode_reuse_hits += other.encode_reuse_hits;
        self.assumption_solves += other.assumption_solves;
        self.selector_assumptions += other.selector_assumptions;
        self.advances += other.advances;
        self.rebuilds += other.rebuilds;
    }
}

/// A persistent incremental entailment engine over a fixed atom universe.
///
/// ```
/// use winslett_logic::{AtomId, EntailmentSession, Wff};
///
/// let a = Wff::Atom(AtomId(0));
/// let b = Wff::Atom(AtomId(1));
/// let mut s = EntailmentSession::new(2);
/// s.assert_base(&a);                       // theory: { a }
/// assert!(s.entails(&a));
/// assert!(!s.entails(&b));
/// assert!(s.consistent_with(&b));          // b is possible
/// assert!(s.consistent_with(&b.clone().not()));
/// assert!(s.entails(&Wff::or2(a, b)));     // a ⊨ a ∨ b
/// ```
pub struct EntailmentSession {
    ts: Tseitin,
    solver: Solver,
    /// Activation literal of every wff encoded so far.
    lits: FxHashMap<Wff, Lit>,
    stats: SessionStats,
    /// Selectors of the live guarded items, assumed by every solve.
    selectors: Vec<Lit>,
    /// Scratch for a solve's assumptions: the selectors, then the
    /// caller's.
    staged: Vec<Lit>,
}

impl EntailmentSession {
    /// Creates a session over a universe of `num_atoms` ground atoms with
    /// an empty base — useful for pure formula-level work (validity,
    /// equivalence) where there is no theory to hold fixed.
    pub fn new(num_atoms: usize) -> Self {
        EntailmentSession {
            ts: Tseitin::new(num_atoms),
            solver: Solver::new(num_atoms),
            lits: FxHashMap::default(),
            stats: SessionStats::default(),
            selectors: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Creates a session and asserts every wff in `base` permanently.
    pub fn with_base<'a, I>(num_atoms: usize, base: I) -> Self
    where
        I: IntoIterator<Item = &'a Wff>,
    {
        let mut s = Self::new(num_atoms);
        for w in base {
            s.assert_base(w);
        }
        s
    }

    /// The size of the ground-atom universe.
    pub fn num_atoms(&self) -> usize {
        self.ts.num_atoms()
    }

    /// Work counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Unit propagations the solver has made: a deterministic measure of
    /// solving work.
    pub fn propagations(&self) -> u64 {
        self.solver.propagations
    }

    /// Clauses the solver has learnt and retained across queries.
    pub fn learned_retained(&self) -> u64 {
        self.solver.learnt_clauses
    }

    /// Direct access to the underlying solver, for incremental algorithms
    /// (backbone extraction, model enumeration) that want to share the
    /// session's clause database and learnt clauses. Adding clauses through
    /// it is safe as long as they are consequences of (or definitions over)
    /// the base — query activation literals must stay unconstrained.
    /// Solves run through it do not assume the live selectors, so they see
    /// the root base only.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Flushes clauses accumulated in the encoder into the solver.
    fn flush(&mut self) {
        self.solver.ensure_vars(self.ts.num_vars());
        for c in self.ts.drain_clauses() {
            if !self.solver.add_clause(&c) {
                // Root-level conflict: only base clauses can cause this
                // (definitional clauses always contain a fresh unassigned
                // variable). The solver remembers; every later answer is
                // the inconsistent-theory answer.
                break;
            }
        }
    }

    /// Asserts `wff` as a permanent part of the base theory.
    pub fn assert_base(&mut self, wff: &Wff) {
        self.assert_base_with(wff, &mut |a: &AtomId| *a);
    }

    /// Asserts a formula over any leaf type as part of the base, mapping
    /// each leaf to its atom with `atom_of`. Unit parts go to the solver
    /// as root assignments; only the rest is Tseitin-encoded.
    pub fn assert_base_with<A, F>(&mut self, wff: &Formula<A>, atom_of: &mut F)
    where
        F: FnMut(&A) -> AtomId,
    {
        self.stats.base_wffs += 1;
        self.assert_part(wff, atom_of);
    }

    fn assert_part<A, F>(&mut self, wff: &Formula<A>, atom_of: &mut F)
    where
        F: FnMut(&A) -> AtomId,
    {
        if let Some((leaf, truth)) = unit_literal(wff) {
            self.unit(atom_of(leaf), truth);
            return;
        }
        match wff {
            Formula::Truth(true) => {}
            Formula::And(parts) => {
                for p in parts {
                    self.assert_part(p, atom_of);
                }
            }
            other => {
                self.ts.assert_true_with(other, atom_of);
                self.flush();
            }
        }
    }

    fn atom_lit(&self, atom: AtomId, truth: bool) -> Lit {
        debug_assert!(
            atom.index() < self.num_atoms(),
            "atom {atom:?} outside the universe"
        );
        Lit::new(Var(atom.0), truth)
    }

    fn unit(&mut self, atom: AtomId, truth: bool) {
        self.solver.add_unit(self.atom_lit(atom, truth));
    }

    /// Asserts that `atom` has the truth value `truth` in every model: one
    /// root assignment, no clause.
    pub fn assert_fact(&mut self, atom: AtomId, truth: bool) {
        self.stats.base_wffs += 1;
        self.unit(atom, truth);
    }

    /// A fresh selector, live from now on.
    fn selector(&mut self) -> Lit {
        self.stats.guarded_items += 1;
        let s = Lit::pos(self.ts.fresh());
        self.solver.ensure_vars(self.ts.num_vars());
        self.selectors.push(s);
        s
    }

    /// Asserts a formula over any leaf type behind a fresh selector `s`,
    /// as `¬s ∨ wff`, and returns `s`. Every later solve assumes `s` until
    /// [`EntailmentSession::retract`] takes it back.
    pub fn assert_guarded_with<A, F>(&mut self, wff: &Formula<A>, atom_of: &mut F) -> Lit
    where
        F: FnMut(&A) -> AtomId,
    {
        let s = self.selector();
        self.guard_part(s.negate(), wff, atom_of);
        s
    }

    /// Asserts `atom = truth` behind a fresh selector (one binary clause)
    /// and returns the selector.
    pub fn guard_fact(&mut self, atom: AtomId, truth: bool) -> Lit {
        let s = self.selector();
        let l = self.atom_lit(atom, truth);
        self.solver.add_clause(&[s.negate(), l]);
        s
    }

    /// Adds `off ∨ wff` in clauses: literals and disjunctions directly,
    /// conjunctions part by part, anything else through one Tseitin
    /// literal.
    fn guard_part<A, F>(&mut self, off: Lit, wff: &Formula<A>, atom_of: &mut F)
    where
        F: FnMut(&A) -> AtomId,
    {
        if let Some((leaf, truth)) = unit_literal(wff) {
            let l = self.atom_lit(atom_of(leaf), truth);
            self.solver.add_clause(&[off, l]);
            return;
        }
        match wff {
            Formula::Truth(true) => {}
            Formula::And(parts) => {
                for p in parts {
                    self.guard_part(off, p, atom_of);
                }
            }
            Formula::Or(parts) => {
                let mut clause = vec![off];
                for p in parts {
                    clause.push(self.ts.encode_with(p, atom_of));
                }
                self.flush();
                self.solver.add_clause(&clause);
            }
            other => {
                let l = self.ts.encode_with(other, atom_of);
                self.flush();
                self.solver.add_clause(&[off, l]);
            }
        }
    }

    /// Retracts the guarded item behind `selector`: the root unit `¬s`
    /// satisfies its clauses, and later solves stop assuming `s`. A
    /// selector that is not live is ignored.
    pub fn retract(&mut self, selector: Lit) {
        if let Some(i) = self.selectors.iter().position(|&s| s == selector) {
            self.selectors.swap_remove(i);
            self.stats.retractions += 1;
            self.solver.add_unit(selector.negate());
        }
    }

    /// The live selectors followed by `assumptions`, counted in the stats.
    fn stage(&mut self, assumptions: &[Lit]) {
        self.stats.assumption_solves += 1;
        self.stats.selector_assumptions += self.selectors.len() as u64;
        self.staged.clear();
        self.staged.extend_from_slice(&self.selectors);
        self.staged.extend_from_slice(assumptions);
    }

    /// The activation literal of `wff`: encoded on first sight, cached
    /// afterwards. Assuming the literal asserts the wff for one solve;
    /// assuming its negation denies it.
    pub fn literal_for(&mut self, wff: &Wff) -> Lit {
        if let Some(&l) = self.lits.get(wff) {
            self.stats.encode_reuse_hits += 1;
            return l;
        }
        let l = self.ts.encode(wff);
        self.flush();
        self.stats.encoded_wffs += 1;
        self.lits.insert(wff.clone(), l);
        l
    }

    /// Raw assumption solve returning a model, counted in the stats. The
    /// live selectors are assumed too.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stage(assumptions);
        self.solver.solve_with(&self.staged)
    }

    /// Whether the base plus the live guarded items plus the assumptions
    /// is satisfiable. Builds no model.
    pub fn satisfiable_under(&mut self, assumptions: &[Lit]) -> bool {
        self.stage(assumptions);
        self.solver.satisfiable_with(&self.staged)
    }

    /// Whether the base itself is satisfiable.
    pub fn is_consistent(&mut self) -> bool {
        self.satisfiable_under(&[])
    }

    /// Whether some model of the base satisfies `wff` (possible truth).
    pub fn consistent_with(&mut self, wff: &Wff) -> bool {
        let l = self.literal_for(wff);
        self.satisfiable_under(&[l])
    }

    /// Whether `wff` is satisfiable together with the base. Over an empty
    /// base this is plain propositional satisfiability — the formula-level
    /// reading used by the analyzer and the equivalence theorems.
    pub fn satisfiable(&mut self, wff: &Wff) -> bool {
        self.consistent_with(wff)
    }

    /// Whether every model of the base satisfies `wff` (certain truth).
    /// Vacuously true over an inconsistent base, matching the fresh-solver
    /// semantics.
    pub fn entails(&mut self, wff: &Wff) -> bool {
        let l = self.literal_for(wff);
        !self.satisfiable_under(&[l.negate()])
    }

    /// Whether `wff` is valid — true under every assignment. Only
    /// meaningful over an empty base (formula-level sessions); over a
    /// non-empty base it coincides with [`EntailmentSession::entails`].
    pub fn valid(&mut self, wff: &Wff) -> bool {
        self.entails(wff)
    }

    /// The standard query pair `(possible, certain)` for one wff: whether
    /// some model of the base satisfies it, and whether every model does.
    /// One activation literal, at most two assumption solves — certainty
    /// is only probed when the wff is possible, so an inconsistent base
    /// answers `(false, false)` exactly like the fresh-solver convention
    /// the query engine and snapshot readers rely on.
    pub fn decide(&mut self, wff: &Wff) -> (bool, bool) {
        let l = self.literal_for(wff);
        let possible = self.satisfiable_under(&[l]);
        let certain = possible && !self.satisfiable_under(&[l.negate()]);
        (possible, certain)
    }

    /// Whether two wffs are logically equivalent (over the base; with an
    /// empty base, plain logical equivalence).
    pub fn equivalent(&mut self, a: &Wff, b: &Wff) -> bool {
        let la = self.literal_for(a);
        let lb = self.literal_for(b);
        !self.satisfiable_under(&[la, lb.negate()]) && !self.satisfiable_under(&[la.negate(), lb])
    }
}

/// The leaf and sign of a literal formula (`a` or `¬a`).
fn unit_literal<A>(wff: &Formula<A>) -> Option<(&A, bool)> {
    match wff {
        Formula::Atom(leaf) => Some((leaf, true)),
        Formula::Not(inner) => match &**inner {
            Formula::Atom(leaf) => Some((leaf, false)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cnf, AtomId, Formula};

    fn a(i: u32) -> Wff {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn matches_fresh_solver_on_basics() {
        // Base: a, a → b. Universe of 3.
        let base = [a(0), Wff::implies(a(0), a(1))];
        let mut s = EntailmentSession::with_base(3, base.iter());
        assert!(s.is_consistent());
        assert!(s.entails(&a(0)));
        assert!(s.entails(&a(1))); // modus ponens
        assert!(!s.entails(&a(2)));
        assert!(s.consistent_with(&a(2)));
        assert!(s.consistent_with(&a(2).not()));
        assert!(!s.consistent_with(&a(0).not()));
        // Cross-check against the one-shot path.
        let refs: Vec<&Wff> = base.iter().collect();
        for w in [
            a(0),
            a(1),
            a(2),
            Wff::or2(a(1), a(2)),
            Wff::and2(a(0), a(2)),
        ] {
            assert_eq!(s.entails(&w), cnf::entails(&refs, &w, 3), "{w:?}");
            let mut with = base.to_vec();
            with.push(w.clone());
            let with_refs: Vec<&Wff> = with.iter().collect();
            assert_eq!(
                s.consistent_with(&w),
                cnf::satisfiable(&with_refs, 3),
                "{w:?}"
            );
        }
    }

    #[test]
    fn inconsistent_base_answers_like_fresh_solvers() {
        let base = [a(0), a(0).not()];
        let mut s = EntailmentSession::with_base(2, base.iter());
        assert!(!s.is_consistent());
        // Everything is entailed, nothing is consistent — exactly the
        // fresh-solver convention.
        assert!(s.entails(&a(1)));
        assert!(s.entails(&a(1).not()));
        assert!(!s.consistent_with(&a(1)));
        assert!(!s.consistent_with(&Wff::t()));
    }

    #[test]
    fn base_added_after_queries_still_counts() {
        let mut s = EntailmentSession::new(2);
        assert!(!s.entails(&a(0)));
        s.assert_base(&a(0));
        assert!(s.entails(&a(0)));
        assert!(!s.consistent_with(&a(0).not()));
    }

    #[test]
    fn activation_literals_are_cached() {
        let mut s = EntailmentSession::with_base(2, [a(0)].iter());
        let w = Wff::or2(a(0), a(1));
        assert!(s.consistent_with(&w));
        assert!(s.entails(&w));
        assert!(s.entails(&w));
        let st = s.stats();
        assert_eq!(st.encoded_wffs, 1);
        assert_eq!(st.encode_reuse_hits, 2);
        assert_eq!(st.assumption_solves, 3);
        assert_eq!(st.base_wffs, 1);
    }

    #[test]
    fn decide_matches_the_individual_queries() {
        let base = [a(0), Wff::or2(a(1), a(2))];
        let mut s = EntailmentSession::with_base(3, base.iter());
        for w in [a(0), a(1), Wff::and2(a(1), a(2)), a(0).not()] {
            let (possible, certain) = s.decide(&w);
            assert_eq!(possible, s.consistent_with(&w), "{w:?}");
            assert_eq!(certain, s.entails(&w), "{w:?}");
        }
        // Inconsistent base: nothing possible, nothing certain via decide
        // (the pair short-circuits instead of reporting vacuous truth).
        let mut s = EntailmentSession::with_base(2, [a(0), a(0).not()].iter());
        assert_eq!(s.decide(&a(1)), (false, false));
    }

    #[test]
    fn query_clauses_do_not_pollute_the_base() {
        // Denying a query wff must not make it false for later queries.
        let mut s = EntailmentSession::new(2);
        let w = Wff::and2(a(0), a(1));
        assert!(!s.entails(&w)); // solves under ¬lit(w)
        assert!(s.consistent_with(&w)); // w still possible afterwards
        assert!(s.consistent_with(&a(0)));
        assert!(!s.valid(&a(0)));
    }

    #[test]
    fn validity_and_equivalence_on_empty_base() {
        let mut s = EntailmentSession::new(2);
        assert!(s.valid(&Wff::or2(a(0), a(0).not())));
        assert!(!s.valid(&a(0)));
        // De Morgan.
        let lhs = Wff::and2(a(0), a(1)).not();
        let rhs = Wff::or2(a(0).not(), a(1).not());
        assert!(s.equivalent(&lhs, &rhs));
        assert!(!s.equivalent(&a(0), &a(1)));
        assert_eq!(s.equivalent(&lhs, &rhs), cnf::equivalent(&lhs, &rhs, 2));
    }

    #[test]
    fn random_theories_match_oneshot_cnf() {
        // xorshift-driven cross-validation of the session against the
        // fresh-solver convenience functions.
        let mut state = 0x5E55_10A1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..60 {
            let n = 3 + (next() % 4) as usize;
            let base: Vec<Wff> = (0..(next() % 4))
                .map(|_| random_wff(&mut next, n, 3))
                .collect();
            let refs: Vec<&Wff> = base.iter().collect();
            let mut s = EntailmentSession::with_base(n, base.iter());
            for _ in 0..6 {
                let q = random_wff(&mut next, n, 3);
                assert_eq!(
                    s.entails(&q),
                    cnf::entails(&refs, &q, n),
                    "entails({q:?}) over {base:?}"
                );
                let mut with = base.clone();
                with.push(q.clone());
                let with_refs: Vec<&Wff> = with.iter().collect();
                assert_eq!(
                    s.consistent_with(&q),
                    cnf::satisfiable(&with_refs, n),
                    "consistent_with({q:?}) over {base:?}"
                );
            }
        }
    }

    #[test]
    fn guarded_items_answer_like_a_base_of_the_live_items() {
        // Random bases at the root, then items guarded and retracted in
        // random order: every answer must equal the one-shot answer over
        // the base plus the items still live.
        let mut state = 0x6A4D_5E1Eu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..60 {
            let n = 3 + (next() % 4) as usize;
            let base: Vec<Wff> = (0..(next() % 3))
                .map(|_| random_wff(&mut next, n, 2))
                .collect();
            let mut s = EntailmentSession::with_base(n, base.iter());
            let mut live: Vec<(Lit, Wff)> = Vec::new();
            for _ in 0..8 {
                if !live.is_empty() && next().is_multiple_of(3) {
                    let i = (next() % live.len() as u64) as usize;
                    s.retract(live.swap_remove(i).0);
                } else if next().is_multiple_of(2) {
                    let atom = AtomId((next() % n as u64) as u32);
                    let truth = next().is_multiple_of(2);
                    let item = if truth { a(atom.0) } else { a(atom.0).not() };
                    live.push((s.guard_fact(atom, truth), item));
                } else {
                    let w = random_wff(&mut next, n, 3);
                    live.push((s.assert_guarded_with(&w, &mut |x: &AtomId| *x), w));
                }
                let mut theory = base.clone();
                theory.extend(live.iter().map(|(_, w)| w.clone()));
                let refs: Vec<&Wff> = theory.iter().collect();
                assert_eq!(s.is_consistent(), cnf::satisfiable(&refs, n), "{theory:?}");
                for _ in 0..3 {
                    let q = random_wff(&mut next, n, 3);
                    assert_eq!(
                        s.entails(&q),
                        cnf::entails(&refs, &q, n),
                        "{q:?} {theory:?}"
                    );
                    let mut with = theory.clone();
                    with.push(q.clone());
                    let with_refs: Vec<&Wff> = with.iter().collect();
                    assert_eq!(
                        s.consistent_with(&q),
                        cnf::satisfiable(&with_refs, n),
                        "{q:?} {theory:?}"
                    );
                }
            }
            let stats = s.stats();
            assert_eq!(stats.guarded_items, stats.retractions + live.len() as u64);
        }
    }

    fn random_wff(next: &mut impl FnMut() -> u64, n: usize, depth: usize) -> Wff {
        if depth == 0 || next().is_multiple_of(3) {
            return match next() % 8 {
                0 => Wff::t(),
                1 => Wff::f(),
                _ => {
                    let x = a((next() % n as u64) as u32);
                    if next().is_multiple_of(2) {
                        x
                    } else {
                        x.not()
                    }
                }
            };
        }
        match next() % 4 {
            0 => random_wff(next, n, depth - 1).not(),
            1 => Formula::And(vec![
                random_wff(next, n, depth - 1),
                random_wff(next, n, depth - 1),
            ]),
            2 => Formula::Or(vec![
                random_wff(next, n, depth - 1),
                random_wff(next, n, depth - 1),
            ]),
            _ => Wff::iff(
                random_wff(next, n, depth - 1),
                random_wff(next, n, depth - 1),
            ),
        }
    }
}
