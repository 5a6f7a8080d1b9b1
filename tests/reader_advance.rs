//! `SnapshotReader::advance` against a reader built from scratch.
//!
//! A reader advanced from one snapshot to a later one keeps its SAT
//! session and loads only what `Theory::delta_since` reports changed:
//! added formulas and newly pinned-false atoms go in behind selector
//! literals, removed ones it had loaded that way are retracted, and
//! anything else (a removed root item, a store replaced wholesale, a
//! theory restored from a checkpoint image) makes it rebuild. Whichever
//! path it takes, it must answer exactly as `SnapshotReader::new` over the
//! same snapshot.
//!
//! Random histories run on a `DurableDatabase<MemStorage>`: g = 1 INSERTs
//! of fresh tuples and g ≥ 2 disjunctive INSERTs, DELETE and MODIFY of
//! base facts, DELETE of any tuple (so a tuple inserted after the base can
//! be deleted and inserted again), updates the database refuses, ASSERTs
//! that collapse the store to an atomless `F`, writes to a relation under
//! a functional dependency, a Full simplify (`replace_all`) and a restore
//! from a checkpoint image. One reader is chained through the whole
//! history by `advance`, skipping some generations. After each advance it
//! must agree with a fresh reader on consistency, on `decide` of random
//! ground wffs (naming tuples never interned and tuples interned after the
//! chained reader's build) and on explain verdicts; for R ≤ 12 both must
//! equal the possible-worlds oracle (`WorldsEngine`). Each history starts
//! with two INSERTs of fresh tuples and ends with a restore, and every
//! history must have advanced and rebuilt at least once, so the test
//! cannot pass by always rebuilding.

use proptest::prelude::*;
use std::collections::BTreeSet;
use winslett::db::wal::{DurableDatabase, MemStorage, SyncPolicy, WalOptions};
use winslett::db::{DbOptions, LogicalDatabase, SnapshotReader, TheorySnapshot, Verdict};
use winslett::gua::SimplifyLevel;
use winslett::logic::{ModelLimit, SessionStats};
use winslett::theory::Dependency;
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
    /// DELETE of a base fact.
    Delete(usize, Cond),
    /// DELETE of any tuple, base or fresh.
    Remove(usize, Cond),
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
    /// A whole-store Full simplify, rebuilt with `replace_all` if it
    /// changes anything.
    Compact,
    /// The store rebuilt with `replace_all` as it stands, as a compaction
    /// swap installs one.
    Replace,
    /// Checkpoint, then reopen the storage: the theory is rebuilt from
    /// the checkpoint image, as a replica bootstraps.
    Restore,
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
        (0..64usize).prop_map(Stmt::Insert),
        (prop::collection::vec(0..64usize, 2..4), cond()).prop_map(|(t, c)| Stmt::Branch(t, c)),
        (0..64usize, cond()).prop_map(|(a, c)| Stmt::Delete(a, c)),
        (0..64usize, cond()).prop_map(|(a, c)| Stmt::Remove(a, c)),
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
        stmt().prop_map(Step::Exec),
        stmt().prop_map(Step::Refused),
        (0..64usize).prop_map(Step::Contradict),
        Just(Step::Compact),
        Just(Step::Replace),
        Just(Step::Restore),
    ]
}

/// A step and whether the chained reader advances after it; one that does
/// not makes the next advance skip a generation.
fn planned() -> impl Strategy<Value = (Step, bool)> {
    (step(), prop_oneof![Just(true), Just(true), Just(false)])
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
            Stmt::Remove(a, c) => format!("DELETE {} WHERE {}", self.tuple(*a), self.cond(c)),
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

fn wal_options() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::EveryRecord,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    }
}

fn open(r: usize) -> DurableDatabase<MemStorage> {
    let (mut db, _) =
        DurableDatabase::open(MemStorage::new(), DbOptions::default(), wal_options()).unwrap();
    db.declare_relation("R", 1).unwrap();
    let s = db.declare_relation("S", 2).unwrap();
    db.add_dependency(Dependency::functional("S key", s, 2, &[0]).unwrap())
        .unwrap();
    for i in 0..r {
        db.load_fact("R", &[&format!("c{i}")]).unwrap();
    }
    intern_symbols(&mut db, r);
    db
}

/// Interns every constant a query can name, so strict parsing never
/// fails, and the tuples `R(u_i)`, interned but outside every completion
/// axiom. A checkpoint image keeps neither, so a restore repeats this.
fn intern_symbols(db: &mut DurableDatabase<MemStorage>, r: usize) {
    let t = db.db_mut().theory_mut();
    let rel = t.vocab.find_predicate("R").unwrap();
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
}

/// Compares the chained reader with a fresh reader of `snapshot` and,
/// when given, the oracle's worlds.
fn compare(
    render: &Render,
    chained: &mut SnapshotReader,
    snapshot: &TheorySnapshot,
    worlds: Option<&[BTreeSet<String>]>,
    queries: &[Q],
    at: &str,
) -> Result<(), TestCaseError> {
    let mut fresh = snapshot.reader();
    let consistent = fresh.is_consistent();
    prop_assert_eq!(chained.is_consistent(), consistent, "consistency {}", at);
    if let Some(worlds) = worlds {
        prop_assert_eq!(!worlds.is_empty(), consistent, "oracle consistency {}", at);
    }
    for q in queries {
        let src = render.query(q);
        let expected = fresh.decide(&src).unwrap();
        prop_assert_eq!(
            chained.decide(&src).unwrap(),
            expected,
            "decide({}) {}",
            src,
            at
        );
        let verdict = fresh.explain(&src).unwrap().verdict;
        prop_assert_eq!(
            chained.explain(&src).unwrap().verdict,
            verdict,
            "explain({}) {}",
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
            let oracle_verdict = match (possible, certain) {
                _ if worlds.is_empty() => Verdict::Inconsistent,
                (true, true) => Verdict::Certain,
                (true, false) => Verdict::Uncertain,
                (false, _) => Verdict::Impossible,
            };
            prop_assert_eq!(verdict, oracle_verdict, "oracle explain({}) {}", src, at);
        }
    }
    Ok(())
}

/// Applies one step; returns the statement applied, for the oracle.
fn apply(db: &mut DurableDatabase<MemStorage>, render: &Render, step: &Step) -> Option<String> {
    match step {
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
        Step::Replace => {
            let store = &mut db.db_mut().theory_mut().store;
            let wffs = store.wffs();
            store.replace_all(&wffs);
            None
        }
        Step::Restore => {
            db.checkpoint().unwrap();
            let storage = db.storage().clone();
            *db = DurableDatabase::open(storage, DbOptions::default(), wal_options())
                .unwrap()
                .0;
            intern_symbols(db, render.r);
            None
        }
    }
}

/// Runs `plan` on a database of `r` base facts with one reader chained by
/// `advance`, comparing after every advance. Returns the chained reader's
/// counters.
fn check(r: usize, plan: &[(Step, bool)], queries: &[Q]) -> Result<SessionStats, TestCaseError> {
    let render = Render { r };
    let mut db = open(r);
    let mut oracle = (r <= 12).then(|| Oracle::new(r));
    let first = TheorySnapshot::capture(db.db().theory());
    let mut chained = first.reader();
    let worlds = oracle.as_ref().map(|o| o.worlds());
    compare(
        &render,
        &mut chained,
        &first,
        worlds.as_deref(),
        queries,
        "at set-up",
    )?;
    let mut replaced = false;
    for (n, (step, advance)) in plan.iter().enumerate() {
        let applied = apply(&mut db, &render, step);
        replaced |= matches!(step, Step::Replace | Step::Restore);
        if let (Some(o), Some(src)) = (oracle.as_mut(), applied) {
            o.apply(&src);
        }
        if !advance && n + 1 < plan.len() {
            continue;
        }
        let at = format!("after step {n} of {plan:?} (R = {r})");
        let next = TheorySnapshot::capture(db.db().theory());
        let delta = next.theory().delta_since(chained.snapshot().theory());
        if replaced {
            prop_assert!(delta.is_none(), "a replaced store has no delta {}", at);
        }
        let before = chained.session_stats();
        chained = chained.advance(next.clone());
        let after = chained.session_stats();
        prop_assert_eq!(
            after.advances + after.rebuilds,
            before.advances + before.rebuilds + 1,
            "one path per advance {}",
            at
        );
        if delta.is_none() {
            prop_assert_eq!(
                after.rebuilds,
                before.rebuilds + 1,
                "no delta, so a rebuild {}",
                at
            );
        }
        replaced = false;
        let worlds = oracle.as_ref().map(|o| o.worlds());
        compare(
            &render,
            &mut chained,
            &next,
            worlds.as_deref(),
            queries,
            &at,
        )?;
    }
    Ok(chained.session_stats())
}

/// A random history framed so that both paths run: it opens with two
/// INSERTs of fresh tuples (the first advance rebuilds the reader with
/// spare atom variables, the second advances) and closes with a restore
/// (a rebuild).
fn framed(r: usize, steps: &[(Step, bool)], queries: &[Q]) -> Result<(), TestCaseError> {
    let mut plan = vec![
        (Step::Exec(Stmt::Insert(r)), true),
        (Step::Exec(Stmt::Insert(r + 1)), true),
    ];
    plan.extend(steps.iter().cloned());
    plan.push((Step::Restore, true));
    let stats = check(r, &plan, queries)?;
    prop_assert!(
        stats.advances > 0,
        "never advanced: {:?} over {:?}",
        stats,
        plan
    );
    prop_assert!(
        stats.rebuilds > 0,
        "never rebuilt: {:?} over {:?}",
        stats,
        plan
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn advanced_reader_matches_a_fresh_reader_and_the_oracle(
        size in 0..3usize,
        steps in prop::collection::vec(planned(), 1..10),
        queries in prop::collection::vec(query(), 4..8),
    ) {
        framed([4, 8, 12][size], &steps, &queries)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn advanced_reader_matches_a_fresh_reader_on_a_larger_store(
        steps in prop::collection::vec(planned(), 8..16),
        queries in prop::collection::vec(query(), 4..8),
    ) {
        framed(256, &steps, &queries)?;
    }
}

/// A fixed history through every step kind, with the path each advance
/// must take: fresh tuples advance, and so does deleting and re-inserting
/// one of them; touching a base fact, compacting and restoring rebuild.
#[test]
fn every_step_kind_takes_the_expected_path() {
    // Large enough that the rebuild rule never fires here: every rebuild
    // below is forced by the step.
    let r = 1024;
    let render = Render { r };
    let queries = vec![
        Q::Tuple(r),
        Q::Or(vec![Q::Tuple(r + 1), Q::Tuple(r + 2)]),
        Q::Not(Box::new(Q::Tuple(1))),
        Q::Keyed(0, 2),
        Q::Unregistered(0),
        Q::And(vec![Q::Tuple(0), Q::Not(Box::new(Q::Tuple(r + 3)))]),
        Q::Truth(true),
    ];
    // (step, advance after it, the path the advance must take: `true` to
    // advance, `false` to rebuild, `None` where the outcome depends on
    // what GUA and simplify wrote).
    let history = vec![
        // A reader built by `new` has no spare atom variables; its first
        // rebuild reserves them.
        (Step::Replace, true, Some(false)),
        (Step::Exec(Stmt::Insert(r)), true, Some(true)),
        (
            Step::Exec(Stmt::Branch(vec![r + 1, r + 2], Cond::T)),
            true,
            Some(true),
        ),
        // Delete, then re-insert, a tuple inserted after the build.
        (Step::Exec(Stmt::Remove(r, Cond::T)), true, Some(true)),
        (Step::Exec(Stmt::Insert(r)), true, Some(true)),
        // Skipped: the next advance spans two generations.
        (Step::Refused(Stmt::Insert(r + 3)), false, None),
        (Step::Exec(Stmt::Keyed(0, 1, Cond::T)), true, Some(true)),
        // The refused insert interned its tuple, which the advance above
        // pinned false; registering it now retracts that pin.
        (Step::Exec(Stmt::Insert(r + 3)), true, Some(true)),
        (Step::Exec(Stmt::Delete(5, Cond::T)), true, Some(false)),
        (Step::Exec(Stmt::Keyed(1, 0, Cond::T)), true, Some(true)),
        (Step::Exec(Stmt::KeyedModify(1, 0, 2)), true, Some(true)),
        (
            Step::Exec(Stmt::Modify(6, r + 1, Cond::T)),
            true,
            Some(false),
        ),
        (Step::Compact, true, None),
        (Step::Replace, true, Some(false)),
        (Step::Restore, true, Some(false)),
        (Step::Exec(Stmt::Keyed(0, 0, Cond::T)), true, None),
        (Step::Contradict(2), true, None),
        (Step::Exec(Stmt::Insert(r + 2)), true, None),
    ];
    let mut db = open(r);
    let first = TheorySnapshot::capture(db.db().theory());
    let mut chained = first.reader();
    for (n, (step, advance, expect_advance)) in history.iter().enumerate() {
        let applied = apply(&mut db, &render, step);
        if let Step::Refused(_) = step {
            assert!(applied.is_none(), "step {n} must be refused");
        }
        if !advance {
            continue;
        }
        let next = TheorySnapshot::capture(db.db().theory());
        let before = chained.session_stats();
        chained = chained.advance(next.clone());
        let after = chained.session_stats();
        let advanced = after.advances > before.advances;
        if let Some(expected) = expect_advance {
            assert_eq!(
                advanced, *expected,
                "step {n} {step:?}: {before:?} -> {after:?}"
            );
        }
        let at = format!("after step {n} {step:?}");
        compare(&render, &mut chained, &next, None, &queries, &at).unwrap();
    }
    let stats = chained.session_stats();
    assert!(stats.retractions > 0, "{stats:?}");
    assert!(
        !db.db().theory().store.atomless().is_empty(),
        "the contradiction collapses the store"
    );
}
