//! GUA — the Ground Update Algorithm (§3.3, extended per §3.5).
//!
//! For `INSERT ω WHERE φ` against an extended relational theory `T`:
//!
//! 1. **Add to completion axioms** — every atom of `ω` or `φ` not yet in
//!    `T` is registered and `¬f` is added to the non-axiomatic section
//!    (Lemma 1: this does not change the models).
//!    *Step 2′* (theories with type axioms): likewise register the
//!    attribute atoms `A(c)` for every constant appearing in an atom of
//!    `ω` whose relation is typed, adding `¬A(c)`.
//! 2. **Rename** — each distinct atom `f` of `ω` is renamed throughout the
//!    non-axiomatic section to a brand-new predicate constant `p_f`. With
//!    the slot-indirected store this costs O(1) per atom.
//! 3. **Define the update** — add `(φ)σ_p → ω`.
//! 4. **Restrict the update** — add `¬(φ)σ_p → (f ↔ p_f)` for every `f` of
//!    `ω`; following §3.6 these are fused into one implication
//!    `¬(φ)σ_p → ⋀_f (f ↔ p_f)`.
//! 5. **Instantiate the type axioms** for tuples whose attribute membership
//!    the update may violate.
//! 6. **Instantiate the dependency axioms** for instances that unify with
//!    an updated atom (in body — or head, for deletions that can invalidate
//!    old instances).
//! 7. **Add to completion axioms** for atoms first introduced by Steps 5–6.
//!
//! The `winslett-worlds` diagram checker verifies Theorem 1/5 (the
//! alternative worlds of the output equal those produced by updating every
//! world individually) over randomized theories in the test suite.

use crate::error::GuaError;
use crate::simplify::{simplify, simplify_scoped, SimplifyLevel, SimplifyReport};
use rustc_hash::{FxHashMap, FxHashSet};
use winslett_ldml::{parse_update, Update};
use winslett_logic::{AtomId, GroundAtom, ParseContext, ShardedMap, Wff};
use winslett_theory::{FormulaId, Theory, TheoryError};

/// Options controlling a [`GuaEngine`].
#[derive(Clone, Copy, Debug)]
pub struct GuaOptions {
    /// Simplification applied after updates (§4: "a heuristic algorithm
    /// for simplification will be a vital part of any implementation").
    pub simplify: SimplifyLevel,
    /// Growth factor that triggers a simplification pass: GC-style, the
    /// engine simplifies only once the store has grown past `threshold ×`
    /// its size after the previous pass. A `Fast` pass is scoped to the
    /// neighbourhood of the updates applied since the previous pass (see
    /// [`simplify_scoped`]), so even `1.0` — simplify after every update —
    /// keeps an update's cost proportional to what it touched; a `Full`
    /// pass rewrites the whole store, and the threshold keeps its
    /// amortized cost per update O(g). The default is `1.5`.
    pub simplify_threshold: f64,
}

impl Default for GuaOptions {
    fn default() -> Self {
        GuaOptions {
            simplify: SimplifyLevel::Fast,
            simplify_threshold: 1.5,
        }
    }
}

impl GuaOptions {
    /// Options with a given level and the default trigger threshold.
    pub fn with_level(simplify: SimplifyLevel) -> Self {
        GuaOptions {
            simplify,
            ..GuaOptions::default()
        }
    }

    /// Options that simplify after every update (the pre-threshold
    /// behaviour; used by tests that need deterministic per-update passes).
    pub fn simplify_always(simplify: SimplifyLevel) -> Self {
        GuaOptions {
            simplify,
            simplify_threshold: 1.0,
        }
    }
}

/// Per-update cost accounting in the currency of the §3.6 analysis.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// The paper's `g`: atom occurrences in the update.
    pub g: usize,
    /// Atoms newly added to completion axioms (Steps 1, 2′, 7).
    pub completion_added: usize,
    /// Distinct atoms renamed to predicate constants (Step 2).
    pub renamed: usize,
    /// Formula occurrences affected by renaming (for the O(1)-rename claim,
    /// this number may be large while the work is constant per atom).
    pub rename_occurrences: usize,
    /// Type-axiom instances added (Step 5).
    pub type_instances: usize,
    /// Dependency instances added (Step 6).
    pub dep_instances: usize,
    /// Net growth of the store in AST nodes (the O(g) claim, E4).
    pub nodes_added: isize,
    /// Whether the update could branch (ω satisfiable more than one way).
    pub branching: bool,
}

impl std::fmt::Display for UpdateReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "g = {}, renamed {} atom(s) ({} occurrence(s)), {} completion addition(s), \
             {} type + {} dependency instance(s), {} node(s) net growth{}",
            self.g,
            self.renamed,
            self.rename_occurrences,
            self.completion_added,
            self.type_instances,
            self.dep_instances,
            self.nodes_added,
            if self.branching { ", branching" } else { "" }
        )
    }
}

/// A stateful update processor owning an extended relational theory.
///
/// ```
/// use winslett_gua::GuaEngine;
/// use winslett_logic::{ModelLimit, Wff};
/// use winslett_theory::Theory;
///
/// // The §3.3 running example: atoms a, b with section {a, a ∨ b}.
/// let mut t = Theory::new();
/// let r = t.declare_relation("Tup", 1)?;
/// let (ca, cb) = (t.constant("a"), t.constant("b"));
/// let (a, b) = (t.atom(r, &[ca]), t.atom(r, &[cb]));
/// t.assert_wff(&Wff::Atom(a));
/// t.assert_wff(&Wff::or2(Wff::Atom(a), Wff::Atom(b)));
///
/// let mut engine = GuaEngine::with_defaults(t);
/// engine.execute("MODIFY Tup(a) TO BE Tup(a') WHERE Tup(b)")?;
/// let worlds = engine.theory.alternative_worlds(ModelLimit::default())?;
/// assert_eq!(worlds.len(), 2); // {a} and {b, a'}
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct GuaEngine {
    /// The theory being maintained.
    pub theory: Theory,
    options: GuaOptions,
    /// Axiom instances already materialized (Step 5's "if it is not
    /// already present"). Copy-on-write, so cloning an engine is O(1).
    instantiated: ShardedMap<Wff, ()>,
    /// Formulas inserted, and predicate constants minted, since the last
    /// simplification pass: the seeds of the next scoped pass.
    pending: Vec<FormulaId>,
    pending_atoms: Vec<AtomId>,
    /// When tracing is on, a human-readable narration of each GUA step.
    trace: Option<Vec<String>>,
    /// Store size (nodes) right after the last simplification pass — the
    /// baseline for the growth-threshold trigger.
    last_simplified_nodes: usize,
}

impl GuaEngine {
    /// Wraps a theory with the given options.
    pub fn new(theory: Theory, options: GuaOptions) -> Self {
        let last_simplified_nodes = theory.store.size_nodes();
        GuaEngine {
            theory,
            options,
            instantiated: ShardedMap::new(),
            pending: Vec::new(),
            pending_atoms: Vec::new(),
            trace: None,
            last_simplified_nodes,
        }
    }

    /// Enables or disables step-by-step transcripts of GUA's work (the
    /// narration used by `examples/paper_walkthrough.rs` and handy when
    /// debugging an update that didn't do what you expected).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the transcript accumulated since tracing was enabled or last
    /// taken.
    pub fn take_trace(&mut self) -> Vec<String> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    fn note(&mut self, f: impl FnOnce(&Theory) -> String) {
        if self.trace.is_some() {
            let msg = f(&self.theory);
            if let Some(t) = &mut self.trace {
                t.push(msg);
            }
        }
    }

    /// Wraps a theory with default options.
    pub fn with_defaults(theory: Theory) -> Self {
        Self::new(theory, GuaOptions::default())
    }

    /// The options in force.
    pub fn options(&self) -> GuaOptions {
        self.options
    }

    /// Parses an LDML statement against the theory's vocabulary (strict:
    /// unknown predicates are errors, predicate constants rejected;
    /// constants may be new — inserting fresh tuples is the point).
    pub fn parse(&mut self, src: &str) -> Result<Update, GuaError> {
        let mut ctx = ParseContext {
            vocab: &mut self.theory.vocab,
            atoms: &mut self.theory.atoms,
            declare: false,
            allow_predicate_constants: false,
        };
        // Strict mode rejects unknown constants too; new constants are
        // legitimate in updates (new order numbers, quantities, …), so we
        // pre-intern them by reparsing permissively on failure would be
        // wrong for predicates. Instead: strict on predicates, permissive
        // on constants.
        ctx.declare = false;
        match parse_update(src, &mut ctx) {
            Ok(u) => Ok(u),
            Err(winslett_ldml::LdmlError::Logic(winslett_logic::LogicError::UnknownSymbol {
                kind: "constant",
                ..
            })) => {
                // Re-parse allowing new constants but still checking that
                // predicates exist (manually validated below).
                let mut ctx = ParseContext {
                    vocab: &mut self.theory.vocab,
                    atoms: &mut self.theory.atoms,
                    declare: true,
                    allow_predicate_constants: false,
                };
                let before_preds = ctx.vocab.num_predicates();
                let u = parse_update(src, &mut ctx).map_err(GuaError::from)?;
                if self.theory.vocab.num_predicates() != before_preds {
                    return Err(GuaError::Theory(TheoryError::UnknownPredicate {
                        name: "<declared on the fly>".into(),
                    }));
                }
                Ok(u)
            }
            Err(e) => Err(GuaError::from(e)),
        }
    }

    /// Parses and applies an LDML statement.
    pub fn execute(&mut self, src: &str) -> Result<UpdateReport, GuaError> {
        let u = self.parse(src)?;
        self.apply(&u)
    }

    /// Applies a ground update via GUA Steps 1–7, then simplifies per the
    /// engine options.
    pub fn apply(&mut self, update: &Update) -> Result<UpdateReport, GuaError> {
        self.apply_simultaneous(std::slice::from_ref(update))
    }

    /// Applies a **set** of ground updates *simultaneously* — the reduction
    /// target for updates with variables (§4). With a single update this is
    /// exactly GUA Steps 1–7; with several, the steps generalize:
    ///
    /// * Step 2 renames every atom appearing in **any** ωᵢ once;
    /// * Step 3 adds `(φᵢ)σ → ωᵢ` for each update;
    /// * Step 4's frame formula per atom `f` allows `f` to change exactly
    ///   when some update whose ω mentions `f` fired:
    ///   `¬(⋁_{i: f∈ωᵢ} (φᵢ)σ) → (f ↔ p_f)` — atoms sharing an owner set
    ///   are fused into one implication (the §3.6 optimization).
    ///
    /// An empty slice is a no-op.
    pub fn apply_simultaneous(&mut self, updates: &[Update]) -> Result<UpdateReport, GuaError> {
        let nodes_before = self.theory.store.size_nodes() as isize;
        let mut report = UpdateReport::default();
        if updates.is_empty() {
            return Ok(report);
        }
        let mut forms = Vec::with_capacity(updates.len());
        for u in updates {
            u.validate(&self.theory.vocab, &self.theory.atoms)?;
            report.g += u.num_atom_occurrences();
            let form = u.to_insert();
            report.branching |= form.may_branch_bounded(10);
            forms.push(form);
        }

        // Which updates' ω mention each atom (the atom's "owners").
        let mut owners: FxHashMap<AtomId, Vec<usize>> = FxHashMap::default();
        for (i, form) in forms.iter().enumerate() {
            for a in form.omega.atom_set() {
                owners.entry(a).or_default().push(i);
            }
        }
        let mut omega_atoms: Vec<AtomId> = owners.keys().copied().collect();
        omega_atoms.sort_unstable();
        let mut all_atoms: Vec<AtomId> = omega_atoms.clone();
        for form in &forms {
            all_atoms.extend(form.phi.atom_set());
        }
        all_atoms.sort_unstable();
        all_atoms.dedup();

        // ---- Step 1: add to completion axioms --------------------------
        for &f in &all_atoms {
            if !self.theory.registry.is_registered(f) {
                self.theory.register_atom(f);
                self.add(&Wff::Atom(f).not())?;
                report.completion_added += 1;
                self.note(|t| {
                    format!(
                        "Step 1: registered {} in its completion axiom; added ¬{} to the section",
                        t.atoms.resolve(f).display(&t.vocab),
                        t.atoms.resolve(f).display(&t.vocab)
                    )
                });
            }
        }

        // ---- Step 2′: attribute completion for typed relations ---------
        if self.theory.schema.has_type_axioms() {
            for &f in &omega_atoms {
                let ga = self.theory.atoms.resolve(f).clone();
                let Some(attrs) = self.theory.schema.type_axiom(ga.pred) else {
                    continue;
                };
                let attrs = attrs.to_vec();
                for (&attr, &c) in attrs.iter().zip(ga.args.iter()) {
                    let aa = self.theory.atoms.intern(GroundAtom::new(attr, &[c]));
                    if !self.theory.registry.is_registered(aa) {
                        self.theory.register_atom(aa);
                        self.add(&Wff::Atom(aa).not())?;
                        report.completion_added += 1;
                    }
                }
            }
        }

        // ---- Step 2: rename ---------------------------------------------
        let mut sigma: FxHashMap<AtomId, AtomId> = FxHashMap::default();
        for &f in &omega_atoms {
            let display = self
                .theory
                .atoms
                .resolve(f)
                .display(&self.theory.vocab)
                .to_string();
            let pc = self.theory.vocab.fresh_predicate_constant_for(&display);
            let pa = self.theory.atoms.intern(GroundAtom::nullary(pc));
            let occurrences = self.theory.store.rename_atom(f, pa);
            self.pending_atoms.push(pa);
            report.rename_occurrences += occurrences;
            sigma.insert(f, pa);
            report.renamed += 1;
            self.note(|t| {
                format!(
                    "Step 2: renamed {} to fresh predicate constant {} ({} occurrence(s), O(1))",
                    t.atoms.resolve(f).display(&t.vocab),
                    t.atoms.resolve(pa).display(&t.vocab),
                    occurrences
                )
            });
        }

        // ---- Step 3: define the updates -----------------------------------
        let phis_renamed: Vec<Wff> = forms
            .iter()
            .map(|form| {
                form.phi
                    .map_atoms(&mut |a: &AtomId| sigma.get(a).copied().unwrap_or(*a))
            })
            .collect();
        for (form, phi_renamed) in forms.iter().zip(phis_renamed.iter()) {
            let wff = Wff::implies(phi_renamed.clone(), form.omega.clone());
            self.add(&wff)?;
            self.note(|t| {
                format!(
                    "Step 3: added (φ)σ → ω:  {}",
                    winslett_logic::display_wff(&wff, &t.vocab, &t.atoms)
                )
            });
        }

        // ---- Step 4: restrict the updates ----------------------------------
        // Group atoms by their owner set; one fused implication per group.
        let mut groups: FxHashMap<Vec<usize>, Vec<AtomId>> = FxHashMap::default();
        for &f in &omega_atoms {
            groups.entry(owners[&f].clone()).or_default().push(f);
        }
        let mut group_keys: Vec<&Vec<usize>> = groups.keys().collect();
        group_keys.sort(); // deterministic store contents
        for key in group_keys {
            let atoms_in_group = &groups[key];
            let fired = Wff::or(key.iter().map(|&i| phis_renamed[i].clone()).collect());
            let frame: Vec<Wff> = atoms_in_group
                .iter()
                .map(|f| Wff::iff(Wff::Atom(*f), Wff::Atom(sigma[f])))
                .collect();
            let wff = Wff::implies(fired.not(), Wff::And(frame));
            self.add(&wff)?;
            self.note(|t| {
                format!(
                    "Step 4: added frame formula ¬(φ)σ → ⋀(f ↔ p_f):  {}",
                    winslett_logic::display_wff(&wff, &t.vocab, &t.atoms)
                )
            });
        }

        // ---- Steps 5–7: type and dependency axioms -----------------------
        let mut step567_atoms: Vec<AtomId> = Vec::new();
        if self.theory.schema.has_type_axioms() {
            for form in &forms {
                let this_omega_atoms: Vec<AtomId> = form.omega.atom_set().into_iter().collect();
                self.step5(
                    &form.omega,
                    &this_omega_atoms,
                    &mut report,
                    &mut step567_atoms,
                )?;
            }
        }
        if !self.theory.deps.is_empty() {
            self.step6(&omega_atoms, &mut report, &mut step567_atoms)?;
        }
        self.step7(&step567_atoms, &mut report)?;

        // ---- §4: simplification (amortized via growth threshold) ----------
        if self.options.simplify == SimplifyLevel::None {
            self.pending.clear();
            self.pending_atoms.clear();
        } else {
            let trigger = (self.last_simplified_nodes as f64 * self.options.simplify_threshold)
                .max(16.0) as usize;
            if self.theory.store.size_nodes() >= trigger {
                let r = if self.options.simplify == SimplifyLevel::Fast {
                    let seeds = std::mem::take(&mut self.pending);
                    let atoms = std::mem::take(&mut self.pending_atoms);
                    simplify_scoped(&mut self.theory, &seeds, &atoms)?
                } else {
                    self.simplify(self.options.simplify)
                };
                self.last_simplified_nodes = r.nodes_after;
                self.note(|_| {
                    format!(
                        "§4 simplification: {} → {} nodes, {} → {} formulas",
                        r.nodes_before, r.nodes_after, r.formulas_before, r.formulas_after
                    )
                });
            }
        }

        report.nodes_added = self.theory.store.size_nodes() as isize - nodes_before;
        Ok(report)
    }

    /// Step 5: instantiate type axioms. Following the §3.6 optimization,
    /// "the testing of logical implications is reduced to a test of whether
    /// `A_i(c_i)` is a conjunct of ω".
    fn step5(
        &mut self,
        omega: &Wff,
        omega_atoms: &[AtomId],
        report: &mut UpdateReport,
        new_atoms: &mut Vec<AtomId>,
    ) -> Result<(), GuaError> {
        let omega_conjuncts = positive_conjuncts(omega);

        // Case (1): P(c⃗) ∈ ω whose attribute atoms are not all guaranteed
        // by ω.
        for &f in omega_atoms {
            let ga = self.theory.atoms.resolve(f).clone();
            let Some(attrs) = self.theory.schema.type_axiom(ga.pred) else {
                continue;
            };
            let attrs = attrs.to_vec();
            let all_guaranteed = attrs.iter().zip(ga.args.iter()).all(|(&attr, &c)| {
                self.theory
                    .atoms
                    .get(&GroundAtom::new(attr, &[c]))
                    .is_some_and(|aa| omega_conjuncts.contains(&aa))
            });
            if !all_guaranteed {
                if let Some(inst) = self.theory.type_axiom_instance(f) {
                    self.add_axiom_instance(inst, new_atoms, &mut report.type_instances)?;
                }
            }
        }

        // Case (2): an attribute atom A(c) ∈ ω that ω does not guarantee
        // true — the update may strip `c` from its domain, so every
        // registered tuple mentioning `c` under a type axiom using A needs
        // its instance. The constant index makes the lookup O(log R).
        for &f in omega_atoms {
            let ga = self.theory.atoms.resolve(f).clone();
            if !self.theory.schema.is_attribute(ga.pred) || omega_conjuncts.contains(&f) {
                continue;
            }
            let c = ga.args[0];
            let candidates: Vec<AtomId> = self.theory.registry.atoms_with_constant(c).collect();
            for tuple in candidates {
                let tga = self.theory.atoms.resolve(tuple).clone();
                let Some(attrs) = self.theory.schema.type_axiom(tga.pred) else {
                    continue;
                };
                let uses_attr_at_c = attrs
                    .iter()
                    .zip(tga.args.iter())
                    .any(|(&attr, &arg)| attr == ga.pred && arg == c);
                if uses_attr_at_c {
                    if let Some(inst) = self.theory.type_axiom_instance(tuple) {
                        self.add_axiom_instance(inst, new_atoms, &mut report.type_instances)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Step 6: instantiate dependency axioms triggered by updated atoms.
    fn step6(
        &mut self,
        omega_atoms: &[AtomId],
        report: &mut UpdateReport,
        new_atoms: &mut Vec<AtomId>,
    ) -> Result<(), GuaError> {
        let deps = self.theory.deps.clone();
        for dep in &deps {
            for &f in omega_atoms {
                let insts = dep.instantiate(&self.theory.registry, &mut self.theory.atoms, Some(f));
                for inst in insts {
                    self.add_axiom_instance(inst, new_atoms, &mut report.dep_instances)?;
                }
            }
        }
        Ok(())
    }

    /// Step 7: completion-axiom upkeep for atoms first introduced by Steps
    /// 5–6, including attribute atoms for their constants.
    fn step7(&mut self, new_atoms: &[AtomId], report: &mut UpdateReport) -> Result<(), GuaError> {
        for &a in new_atoms {
            if !self.theory.registry.is_registered(a) {
                self.theory.register_atom(a);
                self.add(&Wff::Atom(a).not())?;
                report.completion_added += 1;
            }
            // Attribute completion for the constants of typed tuples.
            let ga = self.theory.atoms.resolve(a).clone();
            if let Some(attrs) = self.theory.schema.type_axiom(ga.pred) {
                let attrs = attrs.to_vec();
                for (&attr, &c) in attrs.iter().zip(ga.args.iter()) {
                    let aa = self.theory.atoms.intern(GroundAtom::new(attr, &[c]));
                    if !self.theory.registry.is_registered(aa) {
                        self.theory.register_atom(aa);
                        self.add(&Wff::Atom(aa).not())?;
                        report.completion_added += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Inserts a wff GUA derived, remembering it as a seed of the next
    /// scoped simplification pass.
    fn add(&mut self, wff: &Wff) -> Result<(), GuaError> {
        let id = self.theory.store.try_insert(wff)?;
        self.pending.push(id);
        Ok(())
    }

    fn add_axiom_instance(
        &mut self,
        inst: Wff,
        new_atoms: &mut Vec<AtomId>,
        counter: &mut usize,
    ) -> Result<(), GuaError> {
        if self.instantiated.insert(inst.clone(), ()).is_none() {
            new_atoms.extend(inst.atom_set());
            self.add(&inst)?;
            *counter += 1;
            self.note(|t| {
                format!(
                    "Step 5/6: instantiated axiom:  {}",
                    winslett_logic::display_wff(&inst, &t.vocab, &t.atoms)
                )
            });
        }
        Ok(())
    }

    /// Runs a standalone whole-store simplification pass (beyond the
    /// automatic threshold-triggered ones).
    pub fn simplify(&mut self, level: SimplifyLevel) -> SimplifyReport {
        let r = simplify(&mut self.theory, level);
        self.last_simplified_nodes = r.nodes_after;
        self.pending.clear();
        self.pending_atoms.clear();
        r
    }
}

/// The positive top-level atom conjuncts of ω — the syntactic entailment
/// test of §3.6 ("whether A_i(c_i) is a conjunct of w").
fn positive_conjuncts(w: &Wff) -> FxHashSet<AtomId> {
    let mut out = FxHashSet::default();
    match w {
        Wff::Atom(a) => {
            out.insert(*a);
        }
        Wff::And(xs) => {
            for x in xs {
                if let Wff::Atom(a) = x {
                    out.insert(*a);
                }
            }
        }
        _ => {}
    }
    out
}

/// One-shot convenience: applies `update` to `theory` in place with the
/// given options, returning the report.
pub fn apply_update(
    theory: &mut Theory,
    update: &Update,
    options: GuaOptions,
) -> Result<UpdateReport, GuaError> {
    let mut engine = GuaEngine::new(std::mem::take(theory), options);
    let result = engine.apply(update);
    *theory = engine.theory;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::ModelLimit;

    /// §3.3 running example: atoms a, b; section {a, a ∨ b}.
    fn paper_theory() -> (Theory, AtomId, AtomId) {
        let mut t = Theory::new();
        let r = t.declare_relation("Tup", 1).unwrap();
        let ca = t.constant("a");
        let cb = t.constant("b");
        let a = t.atom(r, &[ca]);
        let b = t.atom(r, &[cb]);
        t.assert_wff(&Wff::Atom(a));
        t.assert_wff(&Wff::or2(Wff::Atom(a), Wff::Atom(b)));
        (t, a, b)
    }

    fn worlds_of(t: &Theory) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = t
            .alternative_worlds(ModelLimit::default())
            .unwrap()
            .iter()
            .map(|w| t.format_world(w))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn paper_nonbranching_example() {
        // MODIFY a TO BE a′ WHERE b ∧ a ⇒ worlds {a} and {b, a′} (§3.3).
        let (mut t, a, b) = paper_theory();
        let r = t.vocab.find_predicate("Tup").unwrap();
        let ca2 = t.constant("a'");
        let a2 = t.atom(r, &[ca2]);
        let u = Update::modify(a, Wff::Atom(a2), Wff::Atom(b));
        let mut engine = GuaEngine::new(t, GuaOptions::default());
        let report = engine.apply(&u).unwrap();
        assert!(!report.branching);
        assert!(report.renamed >= 2); // a and a' (¬a and a' in ω)
        let worlds = worlds_of(&engine.theory);
        assert_eq!(
            worlds,
            vec![
                vec!["Tup(a')".to_string(), "Tup(b)".to_string()],
                vec!["Tup(a)".to_string()],
            ]
        );
    }

    #[test]
    fn paper_branching_example() {
        // MODIFY a TO BE (c ∨ a) WHERE b ∧ a ⇒ 4 worlds (§3.3).
        let (mut t, a, b) = paper_theory();
        let r = t.vocab.find_predicate("Tup").unwrap();
        let cc = t.constant("c");
        let c = t.atom(r, &[cc]);
        let u = Update::modify(a, Wff::Or(vec![Wff::Atom(c), Wff::Atom(a)]), Wff::Atom(b));
        let mut engine = GuaEngine::new(t, GuaOptions::default());
        let report = engine.apply(&u).unwrap();
        assert!(report.branching);
        let worlds = worlds_of(&engine.theory);
        assert_eq!(worlds.len(), 4);
        assert!(worlds.contains(&vec!["Tup(a)".to_string()]));
        assert!(worlds.contains(&vec!["Tup(b)".to_string(), "Tup(c)".to_string()]));
        assert!(worlds.contains(&vec!["Tup(a)".to_string(), "Tup(b)".to_string()]));
        assert!(worlds.contains(&vec![
            "Tup(a)".to_string(),
            "Tup(b)".to_string(),
            "Tup(c)".to_string()
        ]));
    }

    #[test]
    fn insert_disjunction_branches() {
        // INSERT a ∨ b WHERE T over a single empty world ⇒ 3 worlds.
        let mut t = Theory::new();
        let r = t.declare_relation("Tup", 1).unwrap();
        let ca = t.constant("a");
        let cb = t.constant("b");
        let a = t.atom(r, &[ca]);
        let b = t.atom(r, &[cb]);
        t.assert_not_atom(a);
        t.assert_not_atom(b);
        let u = Update::insert(Wff::Or(vec![Wff::Atom(a), Wff::Atom(b)]), Wff::t());
        let mut engine = GuaEngine::with_defaults(t);
        engine.apply(&u).unwrap();
        assert_eq!(worlds_of(&engine.theory).len(), 3);
    }

    #[test]
    fn assert_removes_worlds() {
        let (t, _, b) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        engine.apply(&Update::assert(Wff::Atom(b))).unwrap();
        let worlds = worlds_of(&engine.theory);
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0], vec!["Tup(a)".to_string(), "Tup(b)".to_string()]);
    }

    #[test]
    fn delete_tuple() {
        let (t, a, _) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        engine.apply(&Update::delete(a, Wff::t())).unwrap();
        let worlds = worlds_of(&engine.theory);
        // a removed from both worlds: {} and {b}.
        assert_eq!(worlds.len(), 2);
        assert!(worlds.contains(&Vec::<String>::new()));
        assert!(worlds.contains(&vec!["Tup(b)".to_string()]));
    }

    #[test]
    fn update_on_fresh_atom_registers_it() {
        let (t, _, _) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        let r = engine.theory.vocab.find_predicate("Tup").unwrap();
        let cc = engine.theory.constant("c");
        let c = engine.theory.atom(r, &[cc]);
        let report = engine
            .apply(&Update::insert(Wff::Atom(c), Wff::t()))
            .unwrap();
        assert!(report.completion_added >= 1);
        assert!(engine.theory.registry.is_registered(c));
        let worlds = worlds_of(&engine.theory);
        assert_eq!(worlds.len(), 2);
        assert!(worlds.iter().all(|w| w.contains(&"Tup(c)".to_string())));
    }

    #[test]
    fn execute_parses_and_applies() {
        let (t, _, _) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        let report = engine.execute("INSERT Tup(c) WHERE Tup(a)").unwrap();
        assert_eq!(report.renamed, 1);
        let worlds = worlds_of(&engine.theory);
        assert!(worlds.iter().all(|w| w.contains(&"Tup(c)".to_string())));
    }

    #[test]
    fn execute_rejects_unknown_predicate() {
        let (t, _, _) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        assert!(engine.execute("INSERT Nope(c) WHERE T").is_err());
    }

    #[test]
    fn update_with_predicate_constant_rejected() {
        let (mut t, a, _) = paper_theory();
        let pc = t.vocab.fresh_predicate_constant();
        let pca = t.atoms.intern(GroundAtom::nullary(pc));
        let mut engine = GuaEngine::with_defaults(t);
        let u = Update::insert(Wff::Atom(pca), Wff::Atom(a));
        assert!(matches!(
            engine.apply(&u),
            Err(GuaError::Ldml(
                winslett_ldml::LdmlError::PredicateConstantInUpdate { .. }
            ))
        ));
    }

    #[test]
    fn selection_referencing_other_tuples() {
        // Abiteboul–Grahne-style updates the paper supports but tables
        // don't: a selection clause referencing tuples other than the
        // target. INSERT b WHERE a: fires only in a-worlds.
        let (t, _, b) = paper_theory();
        // First remove certainty: worlds are {a} and {a,b}. Insert ¬b where
        // ¬b... make it interesting: DELETE b WHERE a — b removed wherever
        // a ∧ b holds.
        let mut engine = GuaEngine::with_defaults(t);
        engine.apply(&Update::delete(b, Wff::t())).unwrap();
        let worlds = worlds_of(&engine.theory);
        assert_eq!(worlds, vec![vec!["Tup(a)".to_string()]]);
    }

    #[test]
    fn sequences_of_updates_compose() {
        let (t, a, b) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        // Forget a (branch), then assert it back.
        engine
            .apply(&Update::insert(
                Wff::Or(vec![Wff::Atom(a), Wff::Atom(a).not()]),
                Wff::t(),
            ))
            .unwrap();
        assert_eq!(worlds_of(&engine.theory).len(), 4); // {a?} × {b from a∨b: when ¬a, b forced}
        engine.apply(&Update::assert(Wff::Atom(a))).unwrap();
        let worlds = worlds_of(&engine.theory);
        assert_eq!(worlds.len(), 2);
        let _ = b;
    }

    #[test]
    fn tracing_narrates_the_steps() {
        let (t, a, b) = paper_theory();
        let mut engine = GuaEngine::with_defaults(t);
        engine.set_tracing(true);
        let r = engine.theory.vocab.find_predicate("Tup").unwrap();
        let cc = engine.theory.constant("c");
        let c = engine.theory.atom(r, &[cc]);
        engine
            .apply(&Update::insert(Wff::Atom(c), Wff::Atom(b)))
            .unwrap();
        let trace = engine.take_trace();
        assert!(trace.iter().any(|l| l.starts_with("Step 1")), "{trace:?}");
        assert!(trace.iter().any(|l| l.starts_with("Step 2")), "{trace:?}");
        assert!(trace.iter().any(|l| l.starts_with("Step 3")), "{trace:?}");
        assert!(trace.iter().any(|l| l.starts_with("Step 4")), "{trace:?}");
        assert!(
            trace.iter().any(|l| l.contains("simplification")),
            "{trace:?}"
        );
        // Taking drains; tracing off produces nothing.
        assert!(engine.take_trace().is_empty());
        engine.set_tracing(false);
        engine.apply(&Update::delete(a, Wff::t())).unwrap();
        assert!(engine.take_trace().is_empty());
    }

    #[test]
    fn simplify_threshold_defers_passes() {
        // With a high threshold, small updates must not trigger passes;
        // worlds are identical either way.
        let (t, a, b) = paper_theory();
        let mut lazy = GuaEngine::new(
            t.clone(),
            GuaOptions {
                simplify: SimplifyLevel::Fast,
                simplify_threshold: 100.0,
            },
        );
        let mut eager = GuaEngine::new(t, GuaOptions::simplify_always(SimplifyLevel::Fast));
        for _ in 0..5 {
            let u = Update::insert(Wff::Atom(b), Wff::Atom(a));
            lazy.apply(&u).unwrap();
            eager.apply(&u).unwrap();
        }
        // Deferred simplification: the lazy store is strictly larger...
        assert!(lazy.theory.store.size_nodes() > eager.theory.store.size_nodes());
        // ...but the worlds agree.
        assert_eq!(
            lazy.theory
                .alternative_worlds(ModelLimit::default())
                .unwrap(),
            eager
                .theory
                .alternative_worlds(ModelLimit::default())
                .unwrap()
        );
        // An explicit pass resets the baseline and shrinks the store.
        let before = lazy.theory.store.size_nodes();
        lazy.simplify(SimplifyLevel::Fast);
        assert!(lazy.theory.store.size_nodes() <= before);
    }

    #[test]
    fn one_shot_helper() {
        let (mut t, a, _) = paper_theory();
        let report =
            apply_update(&mut t, &Update::delete(a, Wff::t()), GuaOptions::default()).unwrap();
        assert!(report.g >= 1);
        assert_eq!(worlds_of(&t).len(), 2);
    }
}
