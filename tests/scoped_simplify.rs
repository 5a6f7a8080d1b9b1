//! Occurrence-scoped simplification against the whole-store pass.
//!
//! A database simplifies after every update by running the `Fast` rules
//! over the update's neighbourhood only (`winslett_gua::simplify_scoped`).
//! Over random GUA histories — branching inserts, DELETE and MODIFY of
//! base facts, and ASSERTs that make the theory inconsistent — that must
//! leave exactly the alternative worlds the whole-store pass leaves, and
//! both must equal the possible-worlds oracle (`WorldsEngine`).

use proptest::prelude::*;
use std::collections::HashSet;
use winslett::gua::{simplify, GuaEngine, GuaOptions, SimplifyLevel};
use winslett::ldml::Update;
use winslett::logic::{AtomId, BitSet, Formula, ModelLimit, Wff};
use winslett::theory::Theory;
use winslett::worlds::check_commutes;

const NUM_ATOMS: usize = 6;
/// Atoms 0 and 1 are base facts (true), atom 2 is known false, the rest
/// are unconstrained.
const FACTS: [u32; 2] = [0, 1];

fn atom() -> impl Strategy<Value = Wff> {
    (0..NUM_ATOMS as u32).prop_map(|i| Wff::Atom(AtomId(i)))
}

fn wff() -> impl Strategy<Value = Wff> {
    let leaf = prop_oneof![
        Just(Wff::t()),
        atom(),
        (0..NUM_ATOMS as u32).prop_map(|i| Wff::Atom(AtomId(i)).not()),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|w: Wff| w.not()),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::And),
            prop::collection::vec(inner, 2..4).prop_map(Formula::Or),
        ]
    })
}

fn update() -> impl Strategy<Value = Update> {
    prop_oneof![
        // Branching inserts.
        (atom(), atom(), wff())
            .prop_map(|(a, b, phi)| Update::insert(Formula::Or(vec![a, b]), phi)),
        (wff(), wff()).prop_map(|(o, p)| Update::insert(o, p)),
        // DELETE and MODIFY of base facts (and of anything else).
        (0..2usize, wff()).prop_map(|(i, p)| Update::delete(AtomId(FACTS[i]), p)),
        (0..NUM_ATOMS as u32, wff()).prop_map(|(t, p)| Update::delete(AtomId(t), p)),
        (0..2usize, wff(), wff()).prop_map(|(i, o, p)| Update::modify(AtomId(FACTS[i]), o, p)),
        // ASSERTs, including ones that contradict a base fact.
        (0..2usize).prop_map(|i| Update::assert(Wff::Atom(AtomId(FACTS[i])).not())),
        wff().prop_map(Update::assert),
    ]
}

fn base_theory() -> Theory {
    let mut t = Theory::new();
    let r = t.declare_relation("R", 1).unwrap();
    for i in 0..NUM_ATOMS {
        let c = t.constant(&format!("c{i}"));
        let id = t.atom(r, &[c]);
        t.register_atom(id);
    }
    for f in FACTS {
        t.assert_atom(AtomId(f));
    }
    t.assert_not_atom(AtomId(2));
    t
}

fn worlds(t: &Theory) -> HashSet<BitSet> {
    t.alternative_worlds(ModelLimit::default())
        .unwrap()
        .into_iter()
        .collect()
}

fn check(updates: Vec<Update>) -> Result<(), String> {
    let before = base_theory();
    let mut scoped = GuaEngine::new(
        before.clone(),
        GuaOptions::simplify_always(SimplifyLevel::Fast),
    );
    let mut whole = GuaEngine::new(
        before.clone(),
        GuaOptions::simplify_always(SimplifyLevel::None),
    );
    for (step, u) in updates.iter().enumerate() {
        scoped.apply(u).expect("update applies");
        whole.apply(u).expect("update applies");
        simplify(&mut whole.theory, SimplifyLevel::Fast);
        prop_assert_eq!(
            worlds(&scoped.theory),
            worlds(&whole.theory),
            "scoped and whole-store simplify disagree after step {}: {:?}",
            step,
            &updates[..=step]
        );
    }
    for (label, engine) in [("scoped", &scoped), ("whole-store", &whole)] {
        let report = check_commutes(&before, &updates, &engine.theory, ModelLimit::default())
            .expect("diagram runs");
        prop_assert!(
            report.commutes,
            "{label} simplify departs from the oracle: {}\nupdates: {:?}",
            report.describe(&engine.theory),
            updates
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn scoped_simplify_matches_whole_store_and_oracle(
        updates in prop::collection::vec(update(), 1..8)
    ) {
        check(updates)?;
    }
}

/// A fixed history through inconsistency and out again: once a unit
/// conflict collapses the section to `F`, later updates keep it empty on
/// both paths.
#[test]
fn inconsistency_collapses_on_both_paths() {
    let a = Wff::Atom(AtomId(0));
    let b = Wff::Atom(AtomId(3));
    check(vec![
        Update::insert(Formula::Or(vec![a.clone(), b.clone()]), Wff::t()),
        Update::assert(a.clone().not()),
        Update::assert(a),
        Update::insert(b, Wff::t()),
    ])
    .unwrap();
}
