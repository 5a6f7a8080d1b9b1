//! Differential follower: a replica that applies each shipped WAL batch
//! with `replay_record` alone — no whole-store simplify between batches —
//! must track its primary exactly.
//!
//! Random histories run on a `DurableDatabase<MemStorage>` primary with
//! shipping armed: g = 1 and branching INSERTs, DELETE and MODIFY of base
//! facts, updates the primary refuses (journaled `Apply`/`Abort` pairs,
//! filtered from the shipped stream), committed and rolled-back
//! transactions, writes to a relation under a functional dependency, and
//! a mid-history checkpoint. The follower bootstraps from
//! `catchup_from(0)` and buffers transaction intents until their commit
//! marker, as the replica tailer does. After every step:
//!
//! - the follower's world set equals the primary's;
//! - both equal the possible-worlds oracle (`WorldsEngine`) when R ≤ 12;
//! - the follower's store has exactly the primary's node count, i.e.
//!   replay ran the live writer's per-update simplify, not a bulkier
//!   unsimplified apply.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use winslett::db::wal::{
    Catchup, DurableDatabase, MemStorage, SyncPolicy, WalEntry, WalOptions, WalRecord,
};
use winslett::db::{replay_record, restore_theory, DbOptions, LogicalDatabase};
use winslett::logic::ModelLimit;
use winslett::theory::Dependency;
use winslett::worlds::WorldsEngine;

/// Constants past R name tuples that start out false.
const FRESH: usize = 4;
/// The keyed relation's key and value domains.
const KEYS: usize = 2;
const VALUES: usize = 3;

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
    Branch(usize, usize, Cond),
    Delete(usize, Cond),
    Modify(usize, usize, Cond),
    Keyed(usize, usize, Cond),
    KeyedModify(usize, usize, usize),
}

#[derive(Clone, Debug)]
enum Step {
    Exec(Stmt),
    /// Executed under a choked store, so GUA refuses after journaling.
    Refused(Stmt),
    Txn(Vec<Stmt>, bool),
    Checkpoint,
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
        (0..64usize, 0..64usize, cond()).prop_map(|(a, b, c)| Stmt::Branch(a, b, c)),
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
        (prop::collection::vec(stmt(), 1..4), 0..2usize).prop_map(|(s, c)| Step::Txn(s, c == 0)),
        Just(Step::Checkpoint),
    ]
}

/// Renders statements for a base of `r` facts.
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
        format!("S(k{}, v{})", k % KEYS, v % VALUES)
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
            Stmt::Branch(a, b, c) => format!(
                "INSERT {} | {} WHERE {}",
                self.tuple(*a),
                self.tuple(*b),
                self.cond(c)
            ),
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
}

fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
    db.world_names().expect("worlds").into_iter().collect()
}

/// The constants of the `r` base facts `R(c_0) … R(c_{r-1})`.
fn base_constants(r: usize) -> Vec<String> {
    (0..r).map(|i| format!("c{i}")).collect()
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
        for c in base_constants(r) {
            vocab.load_fact("R", &[&c]).unwrap();
        }
        let engine = WorldsEngine::from_theory(vocab.theory(), ModelLimit::default()).unwrap();
        Oracle { vocab, engine }
    }

    fn apply(&mut self, src: &str) {
        let u = self.vocab.parse_update(src).unwrap();
        self.engine.apply(&u, self.vocab.theory()).unwrap();
    }

    fn world_set(&self) -> BTreeSet<Vec<String>> {
        let t = self.vocab.theory();
        self.engine
            .worlds()
            .iter()
            .map(|w| t.format_world(w))
            .collect()
    }
}

/// A follower fed shipped batches: `replay_record` per effective record,
/// with transaction intents held until their commit marker.
struct Follower {
    db: LogicalDatabase,
    pending: HashMap<u64, Vec<WalRecord>>,
}

impl Follower {
    fn bootstrap(catchup: Catchup) -> Self {
        let (db, entries) = match catchup {
            Catchup::Suffix(entries) => (LogicalDatabase::new(), entries),
            Catchup::Snapshot(snap, entries) => (
                LogicalDatabase::from_theory(
                    restore_theory(&snap.theory).unwrap(),
                    DbOptions::default(),
                ),
                entries,
            ),
        };
        let mut follower = Follower {
            db,
            pending: HashMap::new(),
        };
        follower.apply(&entries);
        follower
    }

    fn apply(&mut self, batch: &[WalEntry]) {
        for entry in batch {
            match &entry.record {
                WalRecord::TxnBegin(t) => {
                    self.pending.insert(*t, Vec::new());
                }
                WalRecord::TxnOp(t, op) => self.pending.entry(*t).or_default().push((**op).clone()),
                WalRecord::TxnAbort(t) => {
                    self.pending.remove(t);
                }
                WalRecord::TxnCommit(t) => {
                    for op in self.pending.remove(t).unwrap_or_default() {
                        replay_record(&mut self.db, &op).unwrap();
                    }
                }
                record => replay_record(&mut self.db, record).unwrap(),
            }
        }
    }
}

fn no_compaction() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::EveryRecord,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    }
}

/// Runs `steps` against a primary with `r` base facts, checking the
/// follower (and, for small `r`, the oracle) after every step. Returns how
/// many `Refused` steps the primary did refuse.
fn check(r: usize, steps: &[Step]) -> Result<usize, String> {
    let render = Render { r };
    let (mut primary, _) =
        DurableDatabase::open(MemStorage::new(), DbOptions::default(), no_compaction()).unwrap();
    primary.declare_relation("R", 1).unwrap();
    let s = primary.declare_relation("S", 2).unwrap();
    primary
        .add_dependency(Dependency::functional("S key", s, 2, &[0]).unwrap())
        .unwrap();
    for c in base_constants(r) {
        primary.load_fact("R", &[&c]).unwrap();
    }
    primary.enable_shipping();
    let mut follower = Follower::bootstrap(primary.catchup_from(0).unwrap());
    let mut oracle = (r <= 12).then(|| Oracle::new(r));
    let mut refused = 0;

    for (n, step) in steps.iter().enumerate() {
        match step {
            Step::Exec(stmt) => {
                let src = render.stmt(stmt);
                primary.execute(&src).unwrap();
                if let Some(o) = oracle.as_mut() {
                    o.apply(&src);
                }
            }
            Step::Refused(stmt) => {
                let src = render.stmt(stmt);
                let len = primary.db().theory().store.len() as u32;
                primary
                    .db_mut()
                    .theory_mut()
                    .store
                    .set_capacity(u32::MAX, len);
                // An update that needs no new formula still goes through.
                let applied = primary.execute(&src).is_ok();
                primary
                    .db_mut()
                    .theory_mut()
                    .store
                    .set_capacity(u32::MAX, u32::MAX);
                match oracle.as_mut() {
                    _ if !applied => refused += 1,
                    Some(o) => o.apply(&src),
                    None => {}
                }
            }
            Step::Txn(stmts, commit) => {
                let t = primary.txn_begin().unwrap();
                let srcs: Vec<String> = stmts.iter().map(|s| render.stmt(s)).collect();
                for src in &srcs {
                    primary.txn_execute(t, src).unwrap();
                }
                if *commit {
                    primary.txn_commit(t).unwrap();
                    if let Some(o) = oracle.as_mut() {
                        for src in &srcs {
                            o.apply(src);
                        }
                    }
                } else {
                    primary.txn_rollback(t).unwrap();
                }
            }
            Step::Checkpoint => primary.checkpoint().unwrap(),
        }
        follower.apply(&primary.drain_shipping());

        let live = world_set(primary.db());
        prop_assert_eq!(
            world_set(&follower.db),
            live.clone(),
            "R = {}: follower worlds diverge after step {} of {:?}",
            r,
            n,
            steps
        );
        if let Some(o) = &oracle {
            prop_assert_eq!(
                o.world_set(),
                live,
                "R = {}: primary departs from the oracle after step {} of {:?}",
                r,
                n,
                steps
            );
        }
        prop_assert_eq!(
            follower.db.theory().store_nodes(),
            primary.db().theory().store_nodes(),
            "R = {}: follower store size diverges after step {} of {:?}",
            r,
            n,
            steps
        );
    }

    // A follower that joins late bootstraps from the checkpoint image (if
    // one was taken) plus the suffix, and lands on the same worlds.
    let late = Follower::bootstrap(primary.catchup_from(0).unwrap());
    prop_assert_eq!(
        world_set(&late.db),
        world_set(primary.db()),
        "R = {}: late follower diverges after {:?}",
        r,
        steps
    );
    Ok(refused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn follower_matches_primary_and_oracle(
        size in 0..3usize,
        steps in prop::collection::vec(step(), 1..10)
    ) {
        check([4, 8, 12][size], &steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn follower_matches_primary_on_a_larger_store(
        steps in prop::collection::vec(step(), 8..16)
    ) {
        check(256, &steps)?;
    }
}

/// A fixed history touching every step kind, so the property holds on a
/// known trace as well as on sampled ones.
#[test]
fn every_step_kind_on_one_history() {
    let steps = vec![
        Step::Exec(Stmt::Insert(9)),
        Step::Exec(Stmt::Branch(1, 10, Cond::T)),
        Step::Refused(Stmt::Branch(2, 11, Cond::Pos(0))),
        Step::Txn(
            vec![Stmt::Delete(0, Cond::T), Stmt::Keyed(0, 1, Cond::T)],
            true,
        ),
        Step::Checkpoint,
        Step::Txn(vec![Stmt::Insert(11)], false),
        Step::Exec(Stmt::Modify(3, 8, Cond::Neg(10))),
        Step::Exec(Stmt::KeyedModify(0, 1, 2)),
        Step::Exec(Stmt::Keyed(0, 0, Cond::Pos(1))),
    ];
    assert_eq!(check(6, &steps).unwrap(), 1);
}
