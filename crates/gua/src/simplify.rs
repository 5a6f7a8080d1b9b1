//! Heuristic simplification of extended relational theories (§4).
//!
//! "As they grow steadily longer under the update algorithms … it is in
//! large part the possibility of heuristic simplification that makes the
//! LDML algorithms more attractive than simply keeping a record of past
//! updates and recomputing the state of the theory on each new query. A
//! heuristic algorithm for simplification will be a vital part of any
//! implementation."
//!
//! Every pass here preserves the **alternative worlds** of the theory:
//!
//! * constant folding, unit propagation, duplicate removal, and
//!   tautology dropping preserve logical equivalence of the non-axiomatic
//!   section — which, per the closing remark of §3.4, is exactly what
//!   preserves the alternative-world set;
//! * predicate constants are existentially quantified from the user's
//!   standpoint (they are invisible in worlds), so a predicate constant `p`
//!   of *pure polarity* may be assigned its favourable value
//!   (`∃p F ≡ F[p:=T]` when `F` is monotone in `p`), and a `p` confined to
//!   a single formula `f` may be eliminated by Shannon expansion
//!   (`∃p f ≡ f[p:=T] ∨ f[p:=F]`);
//! * at [`SimplifyLevel::Full`], a predicate constant *spanning* a small
//!   group of formulas is eliminated by Shannon-expanding the group's
//!   conjunction (`∃p (f₁∧…∧fₖ) ≡ (∧f)[p:=T] ∨ (∧f)[p:=F]`) — this is what
//!   reclaims the chained frame residue a long uncertain-update history
//!   leaves behind — and a formula entailed by the remaining formulas is
//!   removed (SAT-checked), again preserving equivalence.
//!
//! The world-preservation property is verified against the possible-worlds
//! baseline over randomized theories in the integration tests (E6's
//! soundness leg).
//!
//! Two drivers run these rules. [`simplify`] rewrites the whole section
//! and is what compaction, recovery and explicit passes use.
//! [`simplify_scoped`] runs the `Fast` rules after an update over only the
//! update's neighbourhood — its new formulas and the §3.6 occurrence lists
//! of their atoms — which is all a section left at the previous pass's
//! fixpoint can change in, so a per-update pass costs what the update
//! touched rather than O(store).

use rustc_hash::{FxHashMap, FxHashSet};
use winslett_logic::{AtomId, EntailmentSession, Formula, Polarity, PredicateKind, Wff};
use winslett_theory::{FormulaId, Theory, TheoryError};

/// How aggressively to simplify.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimplifyLevel {
    /// Leave the theory exactly as GUA produced it.
    None,
    /// Constant folding, unit propagation, duplicate removal, pure/confined
    /// predicate-constant elimination. Linear-ish, no SAT calls.
    Fast,
    /// Everything in `Fast`, plus SAT-backed removal of formulas entailed
    /// by the rest of the section.
    Full,
}

/// What a simplification pass accomplished.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SimplifyReport {
    /// Store nodes before.
    pub nodes_before: usize,
    /// Store nodes after.
    pub nodes_after: usize,
    /// Live formulas before.
    pub formulas_before: usize,
    /// Live formulas after.
    pub formulas_after: usize,
    /// Unit literals propagated.
    pub units_propagated: usize,
    /// Predicate constants eliminated (pure or confined).
    pub pcs_eliminated: usize,
    /// Formulas removed as entailed by the rest (`Full` only).
    pub redundant_removed: usize,
}

/// Runs a simplification pass over the theory's non-axiomatic section.
pub fn simplify(theory: &mut Theory, level: SimplifyLevel) -> SimplifyReport {
    let mut report = SimplifyReport {
        nodes_before: theory.store.size_nodes(),
        formulas_before: theory.store.len(),
        ..SimplifyReport::default()
    };
    if level == SimplifyLevel::None {
        report.nodes_after = report.nodes_before;
        report.formulas_after = report.formulas_before;
        return report;
    }

    let original = theory.store.wffs();
    let mut wffs: Vec<Wff> = original
        .iter()
        .map(Formula::fold_constants)
        .filter(|w| *w != Wff::t())
        .collect();

    let is_pc = |theory: &Theory, a: AtomId| {
        theory.vocab.predicate(theory.atoms.resolve(a).pred).kind
            == PredicateKind::PredicateConstant
    };

    // Smallest coherent state seen across spanning rounds, with the
    // pcs_eliminated count that produced it: (total nodes, wffs, count).
    let mut best: Option<(usize, Vec<Wff>, usize)> = None;

    'rounds: loop {
        loop {
            let mut changed = false;

            // ---- inconsistency short-circuit -----------------------------
            if wffs.iter().any(|w| *w == Wff::f()) {
                wffs = vec![Wff::f()];
                break 'rounds;
            }

            // ---- unit propagation ----------------------------------------
            let mut units: FxHashMap<AtomId, bool> = FxHashMap::default();
            let mut conflict = false;
            for w in &wffs {
                let (atom, value) = match w {
                    Formula::Atom(a) => (*a, true),
                    Formula::Not(inner) => match inner.as_ref() {
                        Formula::Atom(a) => (*a, false),
                        _ => continue,
                    },
                    _ => continue,
                };
                if let Some(prev) = units.insert(atom, value) {
                    if prev != value {
                        conflict = true;
                        break;
                    }
                }
            }
            if conflict {
                wffs = vec![Wff::f()];
                break 'rounds;
            }
            if !units.is_empty() {
                let mut next: Vec<Wff> = Vec::with_capacity(wffs.len());
                for w in wffs.drain(..) {
                    let unit_shape = matches!(&w, Formula::Atom(_))
                        || matches!(&w, Formula::Not(x) if matches!(x.as_ref(), Formula::Atom(_)));
                    if unit_shape {
                        next.push(w);
                        continue;
                    }
                    let mut rewritten = w.clone();
                    for (&a, &v) in &units {
                        if rewritten.contains_atom(a) {
                            rewritten = rewritten.assign(a, v);
                            report.units_propagated += 1;
                            changed = true;
                        }
                    }
                    if rewritten != Wff::t() {
                        next.push(rewritten);
                    }
                }
                wffs = next;
            }

            // ---- forced-literal extraction ---------------------------------
            // For small formulas, split out literals the formula itself forces:
            // f ≡ lit₁ ∧ … ∧ litₖ ∧ f[lits], which turns hidden certainties
            // (e.g. `a ∧ (b ∨ c)` after cofactoring) into units the next round
            // can propagate.
            {
                let mut extracted: Vec<Wff> = Vec::new();
                for w in &mut wffs {
                    let unit_shape = matches!(&*w, Formula::Atom(_))
                        || matches!(&*w, Formula::Not(x) if matches!(x.as_ref(), Formula::Atom(_)));
                    if unit_shape {
                        continue;
                    }
                    if let Some(forced) = winslett_logic::forced_literals(w, 8) {
                        if forced.is_empty() {
                            continue;
                        }
                        let mut reduced = w.clone();
                        for &(a, v) in &forced {
                            reduced = reduced.assign(a, v);
                            extracted.push(if v { Wff::Atom(a) } else { Wff::Atom(a).not() });
                            report.units_propagated += 1;
                        }
                        *w = reduced;
                        changed = true;
                    }
                }
                wffs.extend(extracted);
                if changed {
                    wffs.retain(|w| *w != Wff::t());
                }
            }

            // ---- duplicate removal ----------------------------------------
            {
                let mut seen: FxHashSet<Wff> = FxHashSet::default();
                let before = wffs.len();
                wffs.retain(|w| seen.insert(w.clone()));
                if wffs.len() != before {
                    changed = true;
                }
            }

            // ---- predicate-constant elimination ----------------------------
            // Pure polarity: assign the favourable value.
            let mut polarity: FxHashMap<AtomId, Polarity> = FxHashMap::default();
            let mut occurrences: FxHashMap<AtomId, usize> = FxHashMap::default();
            for (idx, w) in wffs.iter().enumerate() {
                for a in w.atom_set() {
                    if !is_pc(theory, a) {
                        continue;
                    }
                    if let Some(p) = w.polarity_of(a) {
                        polarity
                            .entry(a)
                            .and_modify(|q| {
                                if *q != p {
                                    *q = Polarity::Both;
                                }
                            })
                            .or_insert(p);
                    }
                    // Track the single formula index holding the atom, encoded
                    // as idx+1; 0 = multiple.
                    occurrences
                        .entry(a)
                        .and_modify(|e| {
                            if *e != idx + 1 {
                                *e = 0;
                            }
                        })
                        .or_insert(idx + 1);
                }
            }
            let mut assigned: FxHashMap<AtomId, bool> = FxHashMap::default();
            for (&a, &p) in &polarity {
                match p {
                    Polarity::Positive => {
                        assigned.insert(a, true);
                    }
                    Polarity::Negative => {
                        assigned.insert(a, false);
                    }
                    Polarity::Both => {}
                }
            }
            if !assigned.is_empty() {
                report.pcs_eliminated += assigned.len();
                changed = true;
                let mut next: Vec<Wff> = Vec::with_capacity(wffs.len());
                for w in wffs.drain(..) {
                    let mut rewritten = w;
                    for (&a, &v) in &assigned {
                        if rewritten.contains_atom(a) {
                            rewritten = rewritten.assign(a, v);
                        }
                    }
                    if rewritten != Wff::t() {
                        next.push(rewritten);
                    }
                }
                wffs = next;
            } else {
                // Confined predicate constants: Shannon-expand within their
                // single formula (skip oversized formulas to avoid blow-up).
                let confined: Vec<(AtomId, usize)> = occurrences
                    .iter()
                    .filter(|&(a, &idx1)| idx1 != 0 && polarity.get(a) == Some(&Polarity::Both))
                    .map(|(&a, &idx1)| (a, idx1 - 1))
                    .collect();
                for (a, idx) in confined {
                    if idx >= wffs.len() || wffs[idx].size() > 64 {
                        continue;
                    }
                    let f = &wffs[idx];
                    if !f.contains_atom(a) {
                        continue; // already rewritten this round
                    }
                    let expanded = Wff::or2(f.assign(a, true), f.assign(a, false));
                    wffs[idx] = expanded;
                    report.pcs_eliminated += 1;
                    changed = true;
                }
                // Drop any formulas that folded to T.
                let before = wffs.len();
                wffs.retain(|w| *w != Wff::t());
                if wffs.len() != before {
                    changed = true;
                }
            }

            if !changed {
                break;
            }
        }

        if level != SimplifyLevel::Full {
            break;
        }

        // The inner fixpoint has converged, so this state is a coherent
        // local minimum; remember the smallest one. The spanning expansion
        // below may grow the section transiently while a chain collapses —
        // if the cascade never pays off, the final answer reverts to the
        // best state, so `Full` can never hand back a bigger store than
        // the cheap fixpoint alone produced.
        let size: usize = wffs.iter().map(|w| w.size()).sum();
        if best.as_ref().is_none_or(|(s, _, _)| size < *s) {
            best = Some((size, wffs.clone(), report.pcs_eliminated));
        }

        // ---- Full: spanning predicate-constant elimination ---------------
        // A constant chained across several formulas (the frame residue a
        // long uncertain-update history leaves behind) defeats both the
        // pure-polarity and the confined passes: it occurs in two or more
        // formulas with both polarities. Each elimination removes at least
        // one distinct predicate constant from the section, so the round
        // loop terminates.
        if !eliminate_spanning_pcs(theory, &mut wffs, &mut report) {
            break;
        }
    }

    // Revert to the best coherent state if the spanning cascade ended up
    // net-negative (an entangled constant whose expansion never folded).
    if let Some((size, saved, pcs)) = best {
        let current: usize = wffs.iter().map(|w| w.size()).sum();
        if current > size {
            wffs = saved;
            report.pcs_eliminated = pcs;
        }
    }

    // ---- Full: entailment-based redundancy removal -----------------------
    if level == SimplifyLevel::Full && wffs.len() > 1 {
        // One session encodes every wff once behind a selector literal;
        // each absorption check "do the other alive wffs entail wff i?"
        // is then a single assumption-solve under {s_j : j ≠ i alive} ∪
        // {¬s_i} — n solves total where the fresh-solver approach paid
        // O(n²) encodings. Duplicate wffs share a selector, which makes
        // the assumption set contradictory and the verdict `removed`,
        // matching what entailment-by-an-identical-copy concluded before.
        let mut session = EntailmentSession::new(theory.num_atoms());
        let selectors: Vec<_> = wffs.iter().map(|w| session.literal_for(w)).collect();
        // Largest formulas first: removing a big one is worth more.
        let mut order: Vec<usize> = (0..wffs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(wffs[i].size()));
        let mut removed: Vec<bool> = vec![false; wffs.len()];
        for &i in &order {
            let mut assumptions: Vec<_> = (0..wffs.len())
                .filter(|&j| j != i && !removed[j])
                .map(|j| selectors[j])
                .collect();
            assumptions.push(selectors[i].negate());
            if !session.satisfiable_under(&assumptions) {
                removed[i] = true;
                report.redundant_removed += 1;
            }
        }
        wffs = wffs
            .into_iter()
            .zip(removed)
            .filter(|(_, r)| !r)
            .map(|(w, _)| w)
            .collect();
    }

    // A section already at the fixpoint is left as it is rather than
    // rebuilt (recovery and compaction often pass one).
    if wffs != original {
        theory.store.replace_all(&wffs);
    }
    report.nodes_after = theory.store.size_nodes();
    report.formulas_after = theory.store.len();
    report
}

/// One formula of a scoped pass: where it came from and what it is now.
struct Entry {
    /// The store id it was loaded from; `None` for a formula the pass made.
    origin: Option<FormulaId>,
    wff: Wff,
    alive: bool,
    /// Differs from the stored formula (always true without an origin).
    changed: bool,
}

fn is_unit(w: &Wff) -> Option<(AtomId, bool)> {
    match w {
        Formula::Atom(a) => Some((*a, true)),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Atom(a) => Some((*a, false)),
            _ => None,
        },
        _ => None,
    }
}

/// The working set of a scoped pass: the formulas loaded so far, and the
/// atoms whose occurrence lists have been (or are queued to be) loaded.
struct Scope<'t> {
    theory: &'t Theory,
    entries: Vec<Entry>,
    loaded: FxHashSet<FormulaId>,
    /// Atoms whose every occurrence is loaded: only for these is a
    /// predicate constant's polarity or confinement known exactly.
    expanded: FxHashSet<AtomId>,
    /// Atoms whose occurrence lists are still to be loaded.
    dirty: Vec<AtomId>,
}

impl Scope<'_> {
    fn load(&mut self, id: FormulaId) {
        if !self.theory.store.is_live(id) || !self.loaded.insert(id) {
            return;
        }
        let stored = self.theory.store.resolve(id);
        let wff = stored.fold_constants();
        let changed = wff != stored;
        if changed {
            self.mark(&stored);
        }
        self.entries.push(Entry {
            origin: Some(id),
            alive: wff != Wff::t(),
            wff,
            changed,
        });
    }

    /// Queues the occurrence lists of `w`'s atoms: `w` changed, so what
    /// the rules concluded about those atoms may have changed too.
    fn mark(&mut self, w: &Wff) {
        for a in w.atom_set() {
            if !self.expanded.contains(&a) {
                self.dirty.push(a);
            }
        }
    }

    /// Loads the occurrence list of every queued atom.
    fn expand(&mut self) {
        while let Some(a) = self.dirty.pop() {
            if self.expanded.insert(a) {
                let ids: Vec<FormulaId> = self.theory.store.formulas_with(a).collect();
                for id in ids {
                    self.load(id);
                }
            }
        }
    }

    /// Replaces entry `i`'s formula with `w` (dropping it if `w` is `T`).
    fn rewrite(&mut self, i: usize, w: Wff) {
        let old = std::mem::replace(&mut self.entries[i].wff, w);
        self.mark(&old);
        let e = &mut self.entries[i];
        e.changed = true;
        e.alive = e.wff != Wff::t();
    }

    fn push_new(&mut self, w: Wff) {
        self.entries.push(Entry {
            origin: None,
            wff: w,
            alive: true,
            changed: true,
        });
    }

    fn alive(&self) -> impl Iterator<Item = (usize, &Wff)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, e)| (i, &e.wff))
    }
}

/// Runs the `Fast` rules over the neighbourhood of an update: the formulas
/// `seeds` (the ones the update inserted), plus — transitively, as the
/// rules rewrite formulas — the occurrence lists of every atom in a seed
/// or in a rewritten formula, and of `atoms` (the predicate constants the
/// update minted). Writes back with `remove`/`try_insert`.
///
/// On a section already at a `Fast` fixpoint this reaches the same
/// fixpoint [`simplify`] would (its rules can only fire where something
/// changed), at a cost proportional to the neighbourhood. On any other
/// section it is still sound: a predicate constant is only eliminated once
/// its whole occurrence list is loaded, and the other rules preserve
/// equivalence formula by formula. A unit conflict collapses the section
/// to `F`, as the whole-store pass does. If the store's quota cannot hold
/// the rewritten formulas the section is left as it was.
pub fn simplify_scoped(
    theory: &mut Theory,
    seeds: &[FormulaId],
    atoms: &[AtomId],
) -> Result<SimplifyReport, TheoryError> {
    let mut report = SimplifyReport {
        nodes_before: theory.store.size_nodes(),
        formulas_before: theory.store.len(),
        ..SimplifyReport::default()
    };
    let Some(entries) = scoped_fixpoint(theory, seeds, atoms, &mut report) else {
        theory.store.replace_all(&[Wff::f()]);
        report.nodes_after = theory.store.size_nodes();
        report.formulas_after = theory.store.len();
        return Ok(report);
    };

    // New formulas go in first, so a refused insert leaves every original
    // formula in place: undo the inserts and keep the unsimplified section.
    let mut inserted = Vec::new();
    for e in entries.iter().filter(|e| e.alive && e.changed) {
        match theory.store.try_insert(&e.wff) {
            Ok(id) => inserted.push(id),
            Err(TheoryError::StoreCapacity { .. }) => {
                for id in inserted {
                    theory.store.remove(id);
                }
                report.nodes_after = theory.store.size_nodes();
                report.formulas_after = theory.store.len();
                return Ok(report);
            }
            Err(e) => return Err(e),
        }
    }
    for e in &entries {
        if let (Some(id), true) = (e.origin, e.changed || !e.alive) {
            theory.store.remove(id);
        }
    }
    report.nodes_after = theory.store.size_nodes();
    report.formulas_after = theory.store.len();
    Ok(report)
}

/// The `Fast` fixpoint of [`simplify`], over a [`Scope`]. Returns `None`
/// when the section is inconsistent.
fn scoped_fixpoint(
    theory: &Theory,
    seeds: &[FormulaId],
    atoms: &[AtomId],
    report: &mut SimplifyReport,
) -> Option<Vec<Entry>> {
    let mut scope = Scope {
        theory,
        entries: Vec::new(),
        loaded: FxHashSet::default(),
        expanded: FxHashSet::default(),
        dirty: atoms.to_vec(),
    };
    for &id in seeds.iter().chain(theory.store.atomless()) {
        scope.load(id);
    }
    for i in 0..scope.entries.len() {
        let w = scope.entries[i].wff.clone();
        scope.mark(&w);
    }
    let is_pc = |a: AtomId| {
        theory.vocab.predicate(theory.atoms.resolve(a).pred).kind
            == PredicateKind::PredicateConstant
    };

    loop {
        scope.expand();
        let mut changed = false;

        // ---- inconsistency short-circuit and unit conflicts -------------
        let mut units: FxHashMap<AtomId, bool> = FxHashMap::default();
        for (_, w) in scope.alive() {
            if *w == Wff::f() {
                return None;
            }
            if let Some((a, v)) = is_unit(w) {
                if units.insert(a, v).is_some_and(|prev| prev != v) {
                    return None;
                }
            }
        }

        // ---- unit propagation -------------------------------------------
        if !units.is_empty() {
            for i in 0..scope.entries.len() {
                let e = &scope.entries[i];
                if !e.alive || is_unit(&e.wff).is_some() {
                    continue;
                }
                let mut rewritten = e.wff.clone();
                for a in e.wff.atom_set() {
                    if let Some(&v) = units.get(&a) {
                        rewritten = rewritten.assign(a, v);
                        report.units_propagated += 1;
                    }
                }
                if rewritten != e.wff {
                    scope.rewrite(i, rewritten);
                    changed = true;
                }
            }
        }

        // ---- forced-literal extraction ------------------------------------
        for i in 0..scope.entries.len() {
            let e = &scope.entries[i];
            if !e.alive || is_unit(&e.wff).is_some() {
                continue;
            }
            let Some(forced) = winslett_logic::forced_literals(&e.wff, 8) else {
                continue;
            };
            if forced.is_empty() {
                continue;
            }
            let mut reduced = e.wff.clone();
            for &(a, v) in &forced {
                reduced = reduced.assign(a, v);
                scope.push_new(if v { Wff::Atom(a) } else { Wff::Atom(a).not() });
                report.units_propagated += 1;
            }
            scope.rewrite(i, reduced);
            changed = true;
        }

        // ---- duplicate removal ------------------------------------------
        let mut seen: FxHashSet<Wff> = FxHashSet::default();
        let duplicates: Vec<usize> = scope
            .alive()
            .filter(|(_, w)| !seen.insert((*w).clone()))
            .map(|(i, _)| i)
            .collect();
        for i in duplicates {
            scope.rewrite(i, Wff::t());
            changed = true;
        }

        // ---- predicate-constant elimination -------------------------------
        // Only constants whose whole occurrence list is loaded qualify; any
        // other constant's formulas are all unchanged since the last pass,
        // which already found it neither pure nor confined.
        let mut polarity: FxHashMap<AtomId, Polarity> = FxHashMap::default();
        let mut holder: FxHashMap<AtomId, Option<usize>> = FxHashMap::default();
        for (i, w) in scope.alive() {
            for a in w.atom_set() {
                if !scope.expanded.contains(&a) || !is_pc(a) {
                    continue;
                }
                if let Some(p) = w.polarity_of(a) {
                    polarity
                        .entry(a)
                        .and_modify(|q| {
                            if *q != p {
                                *q = Polarity::Both;
                            }
                        })
                        .or_insert(p);
                }
                holder
                    .entry(a)
                    .and_modify(|h| {
                        if *h != Some(i) {
                            *h = None;
                        }
                    })
                    .or_insert(Some(i));
            }
        }
        let assigned: FxHashMap<AtomId, bool> = polarity
            .iter()
            .filter_map(|(&a, &p)| match p {
                Polarity::Positive => Some((a, true)),
                Polarity::Negative => Some((a, false)),
                Polarity::Both => None,
            })
            .collect();
        if !assigned.is_empty() {
            report.pcs_eliminated += assigned.len();
            changed = true;
            for i in 0..scope.entries.len() {
                let e = &scope.entries[i];
                if !e.alive {
                    continue;
                }
                let mut rewritten = e.wff.clone();
                for (&a, &v) in &assigned {
                    if rewritten.contains_atom(a) {
                        rewritten = rewritten.assign(a, v);
                    }
                }
                if rewritten != e.wff {
                    scope.rewrite(i, rewritten);
                }
            }
        } else {
            let mut confined: Vec<(AtomId, usize)> = holder
                .iter()
                .filter_map(|(&a, &h)| Some((a, h?)))
                .filter(|(a, _)| polarity.get(a) == Some(&Polarity::Both))
                .collect();
            confined.sort_unstable();
            for (a, i) in confined {
                let f = &scope.entries[i].wff;
                if f.size() > 64 || !f.contains_atom(a) {
                    continue;
                }
                let expanded = Wff::or2(f.assign(a, true), f.assign(a, false));
                scope.rewrite(i, expanded);
                report.pcs_eliminated += 1;
                changed = true;
            }
        }

        if !changed && scope.dirty.is_empty() {
            return Some(scope.entries);
        }
    }
}

/// Existentially eliminates predicate constants that span a small group of
/// formulas: `∃p (f₁ ∧ … ∧ fₖ) ≡ (∧f)[p:=T] ∨ (∧f)[p:=F]`. The group's
/// formulas are replaced by the folded expansion. Bounded by formula count
/// and total group size so a genuinely entangled constant is left alone
/// rather than blowing the store up; a single batch may still grow the
/// section transiently (a chain collapse pays off only after several
/// rounds), which is why `simplify` keeps the smallest coherent state seen
/// and reverts to it if the cascade never converges below it. Returns
/// whether anything was eliminated; callers should re-run the cheap
/// fixpoint afterwards to fold and propagate what the expansion exposed.
fn eliminate_spanning_pcs(
    theory: &Theory,
    wffs: &mut Vec<Wff>,
    report: &mut SimplifyReport,
) -> bool {
    /// Most formulas a group may have before the constant is left alone.
    const MAX_GROUP_FORMULAS: usize = 4;
    /// Largest total node count of a group's formulas; the expansion is at
    /// most twice this before folding.
    const MAX_GROUP_NODES: usize = 128;

    let mut occurrences: FxHashMap<AtomId, Vec<usize>> = FxHashMap::default();
    for (idx, w) in wffs.iter().enumerate() {
        for a in w.atom_set() {
            if theory.vocab.predicate(theory.atoms.resolve(a).pred).kind
                == PredicateKind::PredicateConstant
            {
                occurrences.entry(a).or_default().push(idx);
            }
        }
    }
    // Cheapest groups first; the AtomId tiebreak keeps runs deterministic.
    let mut candidates: Vec<(usize, AtomId)> = occurrences
        .iter()
        .filter(|(_, idxs)| idxs.len() >= 2 && idxs.len() <= MAX_GROUP_FORMULAS)
        .map(|(&a, idxs)| (idxs.iter().map(|&i| wffs[i].size()).sum::<usize>(), a))
        .filter(|&(cost, _)| cost <= MAX_GROUP_NODES)
        .collect();
    candidates.sort_unstable();

    let mut consumed: FxHashSet<usize> = FxHashSet::default();
    let mut fresh: Vec<Wff> = Vec::new();
    let mut any = false;
    for (_, a) in candidates {
        let idxs = &occurrences[&a];
        // Groups must be disjoint within a batch: a consumed formula's
        // replacement may no longer mention this constant at all.
        if idxs.iter().any(|i| consumed.contains(i)) {
            continue;
        }
        let Some(conjunction) = idxs.iter().map(|&i| wffs[i].clone()).reduce(Wff::and2) else {
            continue;
        };
        let expanded =
            Wff::or2(conjunction.assign(a, true), conjunction.assign(a, false)).fold_constants();
        consumed.extend(idxs.iter().copied());
        if expanded != Wff::t() {
            fresh.push(expanded);
        }
        report.pcs_eliminated += 1;
        any = true;
    }
    if any {
        let mut next: Vec<Wff> = wffs
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, w)| w.clone())
            .collect();
        next.append(&mut fresh);
        *wffs = next;
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::{GroundAtom, ModelLimit};

    fn fixture() -> (Theory, AtomId, AtomId) {
        let mut t = Theory::new();
        let r = t.declare_relation("R", 1).unwrap();
        let ca = t.constant("a");
        let cb = t.constant("b");
        let a = t.atom(r, &[ca]);
        let b = t.atom(r, &[cb]);
        (t, a, b)
    }

    fn worlds(t: &Theory) -> Vec<winslett_logic::BitSet> {
        t.alternative_worlds(ModelLimit::default()).unwrap()
    }

    #[test]
    fn folding_removes_tautologies() {
        let (mut t, a, _) = fixture();
        t.assert_wff(&Wff::implies(Wff::f(), Wff::Atom(a))); // ≡ T
        t.assert_atom(a);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert_eq!(report.formulas_after, 1);
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn unit_propagation_shrinks() {
        let (mut t, a, b) = fixture();
        t.assert_atom(a);
        t.assert_wff(&Wff::or2(Wff::Atom(a).not(), Wff::Atom(b))); // a → b
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert!(report.units_propagated > 0);
        // a, and b as a propagated unit.
        let wffs = t.store.wffs();
        assert!(wffs.contains(&Wff::Atom(a)));
        assert!(wffs.contains(&Wff::Atom(b)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn conflicting_units_collapse_to_false() {
        let (mut t, a, _) = fixture();
        t.assert_atom(a);
        t.assert_not_atom(a);
        simplify(&mut t, SimplifyLevel::Fast);
        assert_eq!(t.store.wffs(), vec![Wff::f()]);
        assert!(worlds(&t).is_empty());
    }

    #[test]
    fn duplicates_removed() {
        let (mut t, a, b) = fixture();
        let w = Wff::or2(Wff::Atom(a), Wff::Atom(b));
        t.assert_wff(&w);
        t.assert_wff(&w);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert_eq!(report.formulas_after, 1);
    }

    #[test]
    fn pure_predicate_constant_eliminated() {
        let (mut t, a, b) = fixture();
        let pc = t.vocab.fresh_predicate_constant();
        let p = t.atoms.intern(GroundAtom::nullary(pc));
        // p ∨ a, with p pure positive: ∃p (p ∨ a) ≡ T — the formula tells
        // the user nothing, and must disappear. (b pins the theory to keep
        // it nontrivial without introducing a unit about a.)
        t.assert_wff(&Wff::or2(Wff::Atom(p), Wff::Atom(a)));
        t.assert_not_atom(b);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert!(report.pcs_eliminated >= 1);
        assert!(t.store.wffs().iter().all(|w| !w.contains_atom(p)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn confined_predicate_constant_shannon_eliminated() {
        let (mut t, a, b) = fixture();
        let pc = t.vocab.fresh_predicate_constant();
        let p = t.atoms.intern(GroundAtom::nullary(pc));
        // (p → a) ∧ (¬p → b) in one formula: ∃p … ≡ a ∨ b.
        let w = Wff::and2(
            Wff::implies(Wff::Atom(p), Wff::Atom(a)),
            Wff::implies(Wff::Atom(p).not(), Wff::Atom(b)),
        );
        t.assert_wff(&w);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert!(report.pcs_eliminated >= 1);
        assert!(t.store.wffs().iter().all(|x| !x.contains_atom(p)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn spanning_predicate_constant_eliminated_at_full() {
        let (mut t, a, b) = fixture();
        let pc = t.vocab.fresh_predicate_constant();
        let p = t.atoms.intern(GroundAtom::nullary(pc));
        // (p → a) and (¬p → b) as *separate* formulas: p has both
        // polarities (not pure) and spans two formulas (not confined), so
        // only the Full spanning pass can touch it. ∃p … ≡ a ∨ b.
        t.assert_wff(&Wff::implies(Wff::Atom(p), Wff::Atom(a)));
        t.assert_wff(&Wff::implies(Wff::Atom(p).not(), Wff::Atom(b)));
        let before = worlds(&t);

        let mut fast = t.clone();
        simplify(&mut fast, SimplifyLevel::Fast);
        assert!(
            fast.store.wffs().iter().any(|w| w.contains_atom(p)),
            "Fast must leave a spanning constant alone"
        );

        let report = simplify(&mut t, SimplifyLevel::Full);
        assert!(report.pcs_eliminated >= 1);
        assert!(t.store.wffs().iter().all(|w| !w.contains_atom(p)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn spanning_chain_collapses_at_full() {
        // A three-link history chain p₀ ↔ p₁ ↔ p₂ with only the newest
        // constant tied to a visible atom — the shape sustained uncertain
        // updates leave behind. Full must project every link out.
        let (mut t, a, _) = fixture();
        let ps: Vec<AtomId> = (0..3)
            .map(|_| {
                let pc = t.vocab.fresh_predicate_constant();
                t.atoms.intern(GroundAtom::nullary(pc))
            })
            .collect();
        t.assert_wff(&Wff::iff(Wff::Atom(ps[0]), Wff::Atom(ps[1])));
        t.assert_wff(&Wff::iff(Wff::Atom(ps[1]), Wff::Atom(ps[2])));
        t.assert_wff(&Wff::implies(Wff::Atom(ps[2]), Wff::Atom(a)));
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Full);
        assert!(report.pcs_eliminated >= 3);
        for &p in &ps {
            assert!(t.store.wffs().iter().all(|w| !w.contains_atom(p)));
        }
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn full_removes_entailed_formulas() {
        let (mut t, a, b) = fixture();
        // Non-unit formulas so unit propagation can't pre-empt the check:
        // (a ∨ b) entails (a ∨ b ∨ (a ∧ b)).
        let w1 = Formula::Or(vec![Wff::Atom(a), Wff::Atom(b)]);
        let w2 = Formula::Or(vec![
            Wff::Atom(a),
            Wff::Atom(b),
            Formula::And(vec![Wff::Atom(a), Wff::Atom(b)]),
        ]);
        t.assert_wff(&w1);
        t.assert_wff(&w2);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Full);
        assert!(report.redundant_removed >= 1);
        assert_eq!(report.formulas_after, 1);
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn none_level_is_identity() {
        let (mut t, a, _) = fixture();
        t.assert_wff(&Wff::implies(Wff::t(), Wff::Atom(a)));
        let nodes = t.store.size_nodes();
        let report = simplify(&mut t, SimplifyLevel::None);
        assert_eq!(report.nodes_after, nodes);
        assert_eq!(t.store.size_nodes(), nodes);
    }

    #[test]
    fn worlds_preserved_on_random_sections() {
        // Randomized soundness: simplify must never change the worlds.
        let mut state = 0xFEED_FACE_CAFEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..60 {
            let mut t = Theory::new();
            let r = t.declare_relation("R", 1).unwrap();
            let mut ids = Vec::new();
            for i in 0..4 {
                let c = t.constant(&format!("c{i}"));
                ids.push(t.atom(r, &[c]));
            }
            // A couple of predicate constants in the mix.
            for _ in 0..2 {
                let pc = t.vocab.fresh_predicate_constant();
                ids.push(t.atoms.intern(GroundAtom::nullary(pc)));
            }
            let n_wffs = 1 + (next() % 5) as usize;
            for _ in 0..n_wffs {
                let w = random_wff(&mut next, &ids, 3);
                t.assert_wff(&w);
            }
            let before = worlds(&t);
            let level = if trial % 2 == 0 {
                SimplifyLevel::Fast
            } else {
                SimplifyLevel::Full
            };
            simplify(&mut t, level);
            assert_eq!(worlds(&t), before, "worlds changed at {level:?}");
        }
    }

    fn random_wff(next: &mut impl FnMut() -> u64, ids: &[AtomId], depth: usize) -> Wff {
        if depth == 0 || next().is_multiple_of(3) {
            let a = ids[(next() % ids.len() as u64) as usize];
            return if next().is_multiple_of(2) {
                Wff::Atom(a)
            } else {
                Wff::Atom(a).not()
            };
        }
        match next() % 4 {
            0 => random_wff(next, ids, depth - 1).not(),
            1 => Formula::And(vec![
                random_wff(next, ids, depth - 1),
                random_wff(next, ids, depth - 1),
            ]),
            2 => Formula::Or(vec![
                random_wff(next, ids, depth - 1),
                random_wff(next, ids, depth - 1),
            ]),
            _ => Wff::implies(
                random_wff(next, ids, depth - 1),
                random_wff(next, ids, depth - 1),
            ),
        }
    }
}
