//! The SAT-session loader against the reference encoding.
//!
//! `Theory::fresh_entailment_session` builds a session in one pass over
//! the store's slot bodies: pinned-false atoms and unit facts become root
//! assignments, and only non-unit formulas are Tseitin-encoded. It must
//! answer exactly as a session built from the materialised
//! `model_constraints()`, the wff-level reference encoding.
//!
//! Random histories run on a `DurableDatabase<MemStorage>`: g = 1 and
//! g ≥ 2 disjunctive INSERTs, DELETE and MODIFY of base facts (which
//! rename slots to predicate constants), updates the database refuses,
//! ASSERTs that contradict a base fact (the store collapses to an atomless
//! `F`), writes to a relation under a functional dependency, and a Full
//! simplify (the `replace_all` of a compaction swap). After every step the
//! loaded session, the reference session and a `SnapshotReader` must agree
//! on consistency and on `decide` of random ground wffs. The wffs mention
//! tuples never interned (outside the universe, folded to `F` as the
//! reader does) and tuples interned but never registered. For R ≤ 12 the
//! answers must also equal the possible-worlds oracle (`WorldsEngine`).

use proptest::prelude::*;
use std::collections::BTreeSet;
use winslett::db::wal::{DurableDatabase, MemStorage, SyncPolicy, WalOptions};
use winslett::db::{DbOptions, LogicalDatabase, TheorySnapshot};
use winslett::gua::SimplifyLevel;
use winslett::logic::{parse_wff, EntailmentSession, ModelLimit, ParseContext, Wff};
use winslett::theory::{Dependency, Theory};
use winslett::worlds::WorldsEngine;

/// Constants past R name tuples that start out false.
const FRESH: usize = 4;
/// The keyed relation's key and value domains.
const KEYS: usize = 2;
const VALUES: usize = 3;
/// Tuples `R(u_i)` are interned at set-up but never registered.
const UNREGISTERED: usize = 2;

#[derive(Clone, Debug)]
enum Cond {
    T,
    Pos(usize),
    Neg(usize),
}

/// One LDML statement over `R(c_i)` (base facts `c_0 … c_{R-1}`) and the
/// functionally dependent `S(k_i, v_j)`. Indices are reduced modulo the
/// relevant domain when rendered.
#[derive(Clone, Debug)]
enum Stmt {
    Insert(usize),
    /// `INSERT t_1 | … | t_g WHERE c`, g ≥ 1.
    Branch(Vec<usize>, Cond),
    Delete(usize, Cond),
    Modify(usize, usize, Cond),
    Keyed(usize, usize, Cond),
    KeyedModify(usize, usize, usize),
}

#[derive(Clone, Debug)]
enum Step {
    Exec(Stmt),
    /// Executed under a choked store, so GUA refuses it.
    Refused(Stmt),
    /// `ASSERT ¬R(c_i)` of a base fact: inconsistent once the fact is
    /// certain, and the store collapses to `F`.
    Contradict(usize),
    /// A whole-store Full simplify, rebuilt with `replace_all`.
    Compact,
}

/// A ground query wff, kept symbolic so the oracle can evaluate it on
/// world names.
#[derive(Clone, Debug)]
enum Q {
    Truth(bool),
    Tuple(usize),
    Keyed(usize, usize),
    Unregistered(usize),
    Not(Box<Q>),
    And(Vec<Q>),
    Or(Vec<Q>),
}

fn cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::T),
        (0..64usize).prop_map(Cond::Pos),
        (0..64usize).prop_map(Cond::Neg),
    ]
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..64usize).prop_map(Stmt::Insert),
        (prop::collection::vec(0..64usize, 1..4), cond()).prop_map(|(t, c)| Stmt::Branch(t, c)),
        (0..64usize, cond()).prop_map(|(a, c)| Stmt::Delete(a, c)),
        (0..64usize, 0..64usize, cond()).prop_map(|(a, b, c)| Stmt::Modify(a, b, c)),
        (0..64usize, 0..64usize, cond()).prop_map(|(k, v, c)| Stmt::Keyed(k, v, c)),
        (0..64usize, 0..64usize, 0..64usize).prop_map(|(k, v, w)| Stmt::KeyedModify(k, v, w)),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        stmt().prop_map(Step::Exec),
        stmt().prop_map(Step::Exec),
        stmt().prop_map(Step::Exec),
        stmt().prop_map(Step::Refused),
        (0..64usize).prop_map(Step::Contradict),
        Just(Step::Compact),
    ]
}

fn query() -> impl Strategy<Value = Q> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Q::Truth),
        (0..64usize).prop_map(Q::Tuple),
        (0..64usize).prop_map(Q::Tuple),
        (0..64usize, 0..64usize).prop_map(|(k, v)| Q::Keyed(k, v)),
        (0..64usize).prop_map(Q::Unregistered),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|q| Q::Not(Box::new(q))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Q::And),
            prop::collection::vec(inner, 2..4).prop_map(Q::Or),
        ]
    })
}

/// Renders statements and queries for a base of `r` facts.
struct Render {
    r: usize,
}

impl Render {
    fn tuple(&self, i: usize) -> String {
        format!("R(c{})", i % (self.r + FRESH))
    }

    /// A base fact (certainly true at set-up).
    fn base(&self, i: usize) -> String {
        format!("R(c{})", i % self.r)
    }

    fn keyed(&self, k: usize, v: usize) -> String {
        format!("S(k{},v{})", k % KEYS, v % VALUES)
    }

    fn cond(&self, c: &Cond) -> String {
        match c {
            Cond::T => "T".into(),
            Cond::Pos(i) => self.tuple(*i),
            Cond::Neg(i) => format!("!{}", self.tuple(*i)),
        }
    }

    fn stmt(&self, s: &Stmt) -> String {
        match s {
            Stmt::Insert(i) => format!("INSERT {} WHERE T", self.tuple(*i)),
            Stmt::Branch(ts, c) => {
                let disjuncts: Vec<String> = ts.iter().map(|t| self.tuple(*t)).collect();
                format!("INSERT {} WHERE {}", disjuncts.join(" | "), self.cond(c))
            }
            Stmt::Delete(a, c) => format!("DELETE {} WHERE {}", self.base(*a), self.cond(c)),
            Stmt::Modify(a, b, c) => format!(
                "MODIFY {} TO BE {} WHERE {}",
                self.base(*a),
                self.tuple(*b),
                self.cond(c)
            ),
            Stmt::Keyed(k, v, c) => {
                format!("INSERT {} WHERE {}", self.keyed(*k, *v), self.cond(c))
            }
            Stmt::KeyedModify(k, v, w) => format!(
                "MODIFY {} TO BE {} WHERE T",
                self.keyed(*k, *v),
                self.keyed(*k, *w)
            ),
        }
    }

    fn query(&self, q: &Q) -> String {
        let join = |qs: &[Q], op: &str| {
            let parts: Vec<String> = qs.iter().map(|q| self.query(q)).collect();
            format!("({})", parts.join(op))
        };
        match q {
            Q::Truth(true) => "T".into(),
            Q::Truth(false) => "F".into(),
            Q::Tuple(i) => self.tuple(*i),
            Q::Keyed(k, v) => self.keyed(*k, *v),
            Q::Unregistered(i) => format!("R(u{})", i % UNREGISTERED),
            Q::Not(q) => format!("!{}", self.query(q)),
            Q::And(qs) => join(qs, " & "),
            Q::Or(qs) => join(qs, " | "),
        }
    }

    /// Truth of `q` in a world given by the names of its true atoms.
    fn eval(&self, q: &Q, world: &BTreeSet<String>) -> bool {
        match q {
            Q::Truth(b) => *b,
            Q::Tuple(_) | Q::Keyed(..) | Q::Unregistered(_) => world.contains(&self.query(q)),
            Q::Not(q) => !self.eval(q, world),
            Q::And(qs) => qs.iter().all(|q| self.eval(q, world)),
            Q::Or(qs) => qs.iter().any(|q| self.eval(q, world)),
        }
    }
}

/// The possible-worlds oracle: its own vocabulary (statements are parsed
/// there, never applied) and a `WorldsEngine` applying them per world.
struct Oracle {
    vocab: LogicalDatabase,
    engine: WorldsEngine,
}

impl Oracle {
    fn new(r: usize) -> Self {
        let mut vocab = LogicalDatabase::new();
        vocab.declare_relation("R", 1).unwrap();
        let s = vocab.declare_relation("S", 2).unwrap();
        vocab.add_dependency(Dependency::functional("S key", s, 2, &[0]).unwrap());
        for i in 0..r {
            vocab.load_fact("R", &[&format!("c{i}")]).unwrap();
        }
        let engine = WorldsEngine::from_theory(vocab.theory(), ModelLimit::default()).unwrap();
        Oracle { vocab, engine }
    }

    fn apply(&mut self, src: &str) {
        let u = self.vocab.parse_update(src).unwrap();
        self.engine.apply(&u, self.vocab.theory()).unwrap();
    }

    fn worlds(&self) -> Vec<BTreeSet<String>> {
        let t = self.vocab.theory();
        self.engine
            .worlds()
            .iter()
            .map(|w| t.format_world(w).into_iter().collect())
            .collect()
    }
}

fn open(r: usize) -> DurableDatabase<MemStorage> {
    let wal = WalOptions {
        policy: SyncPolicy::EveryRecord,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    };
    let (mut db, _) = DurableDatabase::open(MemStorage::new(), DbOptions::default(), wal).unwrap();
    let rel = db.declare_relation("R", 1).unwrap();
    let s = db.declare_relation("S", 2).unwrap();
    db.add_dependency(Dependency::functional("S key", s, 2, &[0]).unwrap())
        .unwrap();
    for i in 0..r {
        db.load_fact("R", &[&format!("c{i}")]).unwrap();
    }
    // Every constant a query can name, so strict parsing never fails, and
    // the tuples `R(u_i)`, interned but outside every completion axiom.
    let t = db.db_mut().theory_mut();
    for i in 0..r + FRESH {
        t.constant(&format!("c{i}"));
    }
    for k in 0..KEYS {
        t.constant(&format!("k{k}"));
    }
    for v in 0..VALUES {
        t.constant(&format!("v{v}"));
    }
    for u in 0..UNREGISTERED {
        let c = t.constant(&format!("u{u}"));
        t.atom(rel, &[c]);
    }
    db
}

/// Compares the loaded session, the reference session, a snapshot reader
/// and (when given) the oracle's worlds on `theory`.
fn compare(
    render: &Render,
    theory: &Theory,
    worlds: Option<&[BTreeSet<String>]>,
    queries: &[Q],
    at: &str,
) -> Result<(), TestCaseError> {
    let mut loaded = theory.fresh_entailment_session();
    let constraints = theory.model_constraints();
    let mut reference = EntailmentSession::with_base(theory.num_atoms(), constraints.iter());
    let consistent = reference.is_consistent();
    prop_assert_eq!(loaded.is_consistent(), consistent, "consistency {}", at);
    if let Some(worlds) = worlds {
        prop_assert_eq!(!worlds.is_empty(), consistent, "oracle consistency {}", at);
    }

    let mut reader = TheorySnapshot::capture(theory).reader();
    let (mut vocab, mut atoms) = (theory.vocab.clone(), theory.atoms.clone());
    let universe = theory.num_atoms();
    for q in queries {
        let src = render.query(q);
        let wff = parse_wff(&src, &mut ParseContext::strict(&mut vocab, &mut atoms)).unwrap();
        // Atoms the theory never interned are false in every world.
        let folded = wff.subst_atoms(&mut |a| {
            if a.index() < universe {
                Wff::Atom(*a)
            } else {
                Wff::f()
            }
        });
        let expected = reference.decide(&folded);
        prop_assert_eq!(loaded.decide(&folded), expected, "decide({}) {}", src, at);
        prop_assert_eq!(
            reader.decide(&src).unwrap(),
            expected,
            "reader decide({}) {}",
            src,
            at
        );
        if let Some(worlds) = worlds {
            let possible = worlds.iter().any(|w| render.eval(q, w));
            let certain = possible && worlds.iter().all(|w| render.eval(q, w));
            prop_assert_eq!(
                expected,
                (possible, certain),
                "oracle decide({}) {}",
                src,
                at
            );
        }
    }
    Ok(())
}

/// Runs `steps` on a database of `r` base facts, comparing after every
/// step. Returns how many steps left the store with an atomless formula.
fn check(r: usize, steps: &[Step], queries: &[Q]) -> Result<usize, TestCaseError> {
    let render = Render { r };
    let mut db = open(r);
    let mut oracle = (r <= 12).then(|| Oracle::new(r));
    let mut collapsed = 0;
    compare(
        &render,
        db.db().theory(),
        oracle.as_ref().map(|o| o.worlds()).as_deref(),
        queries,
        "at set-up",
    )?;
    for (n, step) in steps.iter().enumerate() {
        let applied = match step {
            Step::Exec(stmt) => {
                let src = render.stmt(stmt);
                db.execute(&src).unwrap();
                Some(src)
            }
            Step::Refused(stmt) => {
                let src = render.stmt(stmt);
                let len = db.db().theory().store.len() as u32;
                db.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
                // An update that needs no new formula still goes through.
                let ok = db.execute(&src).is_ok();
                let store = &mut db.db_mut().theory_mut().store;
                store.set_capacity(u32::MAX, u32::MAX);
                ok.then_some(src)
            }
            Step::Contradict(i) => {
                let src = format!("ASSERT !{}", render.base(*i));
                db.execute(&src).unwrap();
                Some(src)
            }
            Step::Compact => {
                db.db_mut().simplify(SimplifyLevel::Full);
                None
            }
        };
        if let (Some(o), Some(src)) = (oracle.as_mut(), applied) {
            o.apply(&src);
        }
        let theory = db.db().theory();
        if !theory.store.atomless().is_empty() {
            collapsed += 1;
        }
        let at = format!("after step {n} of {steps:?} (R = {r})");
        let worlds = oracle.as_ref().map(|o| o.worlds());
        compare(&render, theory, worlds.as_deref(), queries, &at)?;
    }
    Ok(collapsed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn loaded_session_matches_reference_and_oracle(
        size in 0..3usize,
        steps in prop::collection::vec(step(), 1..10),
        queries in prop::collection::vec(query(), 4..8),
    ) {
        check([4, 8, 12][size], &steps, &queries)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn loaded_session_matches_reference_on_a_larger_store(
        steps in prop::collection::vec(step(), 8..16),
        queries in prop::collection::vec(query(), 4..8),
    ) {
        check(256, &steps, &queries)?;
    }
}

/// A fixed history through every step kind, including a collapse of the
/// store to an atomless `F` and a compaction after it.
#[test]
fn every_step_kind_on_one_history() {
    let steps = vec![
        Step::Exec(Stmt::Branch(vec![5, 6, 7], Cond::T)),
        Step::Exec(Stmt::Delete(0, Cond::T)),
        Step::Exec(Stmt::Modify(1, 4, Cond::Pos(6))),
        Step::Refused(Stmt::Branch(vec![2, 8], Cond::Pos(0))),
        Step::Exec(Stmt::Keyed(0, 1, Cond::T)),
        Step::Exec(Stmt::KeyedModify(0, 1, 2)),
        Step::Compact,
        Step::Contradict(2),
        Step::Compact,
        Step::Exec(Stmt::Insert(3)),
    ];
    let queries = vec![
        Q::Tuple(5),
        Q::Or(vec![Q::Tuple(5), Q::Tuple(7)]),
        Q::Not(Box::new(Q::Tuple(1))),
        Q::Keyed(0, 2),
        Q::Unregistered(0),
        Q::Not(Box::new(Q::Unregistered(1))),
        // R(c9) at R = 6 is never interned: outside the universe.
        Q::Or(vec![Q::Tuple(9), Q::Tuple(2)]),
        Q::Truth(true),
    ];
    let collapsed = check(6, &steps, &queries).unwrap();
    assert!(collapsed > 0, "the contradiction must collapse the store");
}
