//! MVCC-style snapshot reads: pin a theory generation, query it forever.
//!
//! The serving layer (`winslett-serve`) runs one writer and many readers.
//! The writer owns the [`DurableDatabase`](crate::DurableDatabase) and,
//! after each committed update, publishes an immutable [`TheorySnapshot`] —
//! a copy-on-write clone of the theory (O(1): it shares every chunk and
//! shard with the writer's copy until the writer next changes one) parked
//! behind an `Arc`, stamped with the
//! [`Theory::generation`] it was taken at. Readers clone the `Arc` (cheap)
//! and never touch the writer again: a long analytical query runs against
//! its pinned snapshot while the writer commits on.
//!
//! Reading still needs *mutable* machinery — parsing a wff interns atoms,
//! and SAT solving mutates the solver — so each reader holds a
//! [`SnapshotReader`]: a private copy of the snapshot's symbol tables plus
//! a private [`EntailmentSession`] built **once per snapshot** and reused
//! across every query the connection sends at that generation. Building
//! the session is the one O(R) step: a pass over the store's slot bodies
//! that makes one root solver assignment per unit fact and Tseitin-encodes
//! only the non-unit formulas ([`Theory::fresh_entailment_session`]).
//! Each query afterwards costs what it touches, not R. Atoms a
//! query mentions that the snapshot has never interned are outside every
//! completion axiom, hence false in every world: the reader folds them to
//! `F` before the session sees them, so answers agree exactly with what
//! [`LogicalDatabase`](crate::LogicalDatabase) would say if the same
//! question were asked at that generation.

use crate::error::DbError;
use crate::explain::{Explanation, Verdict};
use crate::query::{Answers, Query};
use std::sync::Arc;
use winslett_logic::{
    parse_wff, AtomTable, EntailmentSession, ParseContext, SatResult, SessionStats, Vocabulary, Wff,
};
use winslett_theory::Theory;

/// An immutable, generation-stamped view of a theory, shared by `Arc`.
///
/// Cloning a `TheorySnapshot` clones the `Arc`, not the theory — handing
/// the same snapshot to a hundred readers costs a hundred refcounts.
#[derive(Clone, Debug)]
pub struct TheorySnapshot {
    theory: Arc<Theory>,
    generation: u64,
}

impl TheorySnapshot {
    /// Freezes `theory` into a snapshot: one copy-on-write clone, O(1)
    /// whatever the theory's size.
    pub fn capture(theory: &Theory) -> Self {
        Self::from_theory(theory.clone())
    }

    /// Wraps an owned theory without copying.
    pub fn from_theory(theory: Theory) -> Self {
        let generation = theory.generation();
        TheorySnapshot {
            theory: Arc::new(theory),
            generation,
        }
    }

    /// The frozen theory.
    pub fn theory(&self) -> &Theory {
        &self.theory
    }

    /// The [`Theory::generation`] this snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A weak handle on the frozen theory's allocation: lets an observer
    /// (the server's retained-generation gauge) test whether this
    /// generation is still held alive anywhere — by a snapshot clone or a
    /// [`SnapshotReader`] — without extending its lifetime.
    pub fn theory_weak(&self) -> std::sync::Weak<Theory> {
        Arc::downgrade(&self.theory)
    }

    /// A fresh per-connection reader over this snapshot.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(self.clone())
    }
}

/// A private read session over one [`TheorySnapshot`].
///
/// Construction takes private copy-on-write clones of the snapshot's
/// vocabulary and atom table — O(1); a query that interns a new atom copies
/// one chunk and one shard of the reader's copy, never the snapshot's — and
/// loads the theory into a dedicated [`EntailmentSession`]: one root
/// assignment per stored unit fact and per pinned-false atom, Tseitin
/// clauses for the non-unit formulas only (about 35–45 ns per stored
/// fact). Every subsequent query is assumption solves against that one
/// session, each costing what the query touches: the solver never
/// re-propagates the root facts and picks decisions from an order heap.
pub struct SnapshotReader {
    snapshot: TheorySnapshot,
    /// Private language copy: interning a query's atoms must not race the
    /// writer or other readers.
    vocab: Vocabulary,
    atoms: AtomTable,
    session: EntailmentSession,
    /// Atom-universe size of the underlying theory; atoms interned past
    /// this bound by query parsing are false in every world.
    universe: usize,
}

impl SnapshotReader {
    /// Builds a reader: O(1) copies of the symbol tables, then one pass
    /// over the store to load the session.
    pub fn new(snapshot: TheorySnapshot) -> Self {
        let theory = snapshot.theory();
        SnapshotReader {
            vocab: theory.vocab.clone(),
            atoms: theory.atoms.clone(),
            session: theory.fresh_entailment_session(),
            universe: theory.num_atoms(),
            snapshot,
        }
    }

    /// The generation this reader is pinned at.
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &TheorySnapshot {
        &self.snapshot
    }

    /// Work counters of the private session.
    pub fn session_stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Parses a ground wff strictly against the private symbol tables and
    /// folds atoms outside the snapshot's universe to `F` (they are
    /// unregistered, hence false in every alternative world).
    fn parse(&mut self, src: &str) -> Result<Wff, DbError> {
        let mut ctx = ParseContext::strict(&mut self.vocab, &mut self.atoms);
        let wff = parse_wff(src, &mut ctx)?;
        let universe = self.universe;
        Ok(wff.subst_atoms(&mut |a| {
            if a.index() < universe {
                Wff::Atom(*a)
            } else {
                Wff::f()
            }
        }))
    }

    /// Whether `src` is true in every alternative world of the snapshot.
    pub fn is_certain(&mut self, src: &str) -> Result<bool, DbError> {
        let wff = self.parse(src)?;
        Ok(self.session.entails(&wff))
    }

    /// Whether `src` is true in some alternative world of the snapshot.
    pub fn is_possible(&mut self, src: &str) -> Result<bool, DbError> {
        let wff = self.parse(src)?;
        Ok(self.session.consistent_with(&wff))
    }

    /// The `(possible, certain)` pair for `src` — one activation literal,
    /// at most two solves.
    pub fn decide(&mut self, src: &str) -> Result<(bool, bool), DbError> {
        let wff = self.parse(src)?;
        Ok(self.session.decide(&wff))
    }

    /// Explains `src`: three-valued verdict plus witness/counterexample
    /// worlds, extracted from the private session (no world enumeration).
    pub fn explain(&mut self, src: &str) -> Result<Explanation, DbError> {
        let wff = self.parse(src)?;
        let l = self.session.literal_for(&wff);
        let witness = match self.session.solve_under(&[l]) {
            SatResult::Sat(model) => Some(self.snapshot.theory().project_model_to_world(&model)),
            SatResult::Unsat => None,
        };
        let counter = match self.session.solve_under(&[l.negate()]) {
            SatResult::Sat(model) => Some(self.snapshot.theory().project_model_to_world(&model)),
            SatResult::Unsat => None,
        };
        let verdict = match (&witness, &counter) {
            (Some(_), Some(_)) => Verdict::Uncertain,
            (Some(_), None) => Verdict::Certain,
            (None, Some(_)) => Verdict::Impossible,
            (None, None) => Verdict::Inconsistent,
        };
        let render = |w: &winslett_logic::BitSet| self.snapshot.theory().format_world(w);
        Ok(Explanation {
            verdict,
            witness: witness.as_ref().map(render),
            counterexample: counter.as_ref().map(render),
        })
    }

    /// Runs a conjunctive query against the snapshot through the private
    /// session ([`Query::evaluate_with_session`]).
    pub fn query(&mut self, src: &str) -> Result<Answers, DbError> {
        let q = Query::parse(src, self.snapshot.theory())?;
        q.evaluate_with_session(self.snapshot.theory(), &mut self.session)
    }

    /// Whether the snapshot has at least one alternative world.
    pub fn is_consistent(&mut self) -> bool {
        self.session.is_consistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::LogicalDatabase;

    fn orders_db() -> LogicalDatabase {
        let mut db = LogicalDatabase::new();
        db.declare_relation("Orders", 3).unwrap();
        db.declare_relation("InStock", 2).unwrap();
        db.load_fact("Orders", &["700", "32", "9"]).unwrap();
        db.load_fact("InStock", &["32", "1"]).unwrap();
        db
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut db = orders_db();
        let snap = TheorySnapshot::capture(db.theory());
        let pinned_gen = snap.generation();
        db.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        assert!(db.theory().generation() > pinned_gen);
        // The live database no longer has the tuple; the snapshot still does.
        assert!(db.is_certain("!Orders(700,32,9)").unwrap());
        let mut reader = snap.reader();
        assert!(reader.is_certain("Orders(700,32,9)").unwrap());
        assert_eq!(reader.generation(), pinned_gen);
    }

    #[test]
    fn dropping_reader_and_snapshot_releases_the_theory_generation() {
        // The retention contract behind the server's pinned snapshots: a
        // pinned generation is held alive by exactly the reader + snapshot
        // Arc clones, so reaping an abandoned connection (which drops its
        // reader) must actually free the pre-compaction theory.
        let db = orders_db();
        let snap = TheorySnapshot::capture(db.theory());
        let weak = std::sync::Arc::downgrade(&snap.theory);
        let reader = snap.reader();
        drop(snap);
        assert!(
            weak.upgrade().is_some(),
            "reader must keep its snapshot's theory alive"
        );
        drop(reader);
        assert!(
            weak.upgrade().is_none(),
            "dropping the last reader must release the pinned generation"
        );
    }

    #[test]
    fn reader_matches_live_database_verdicts() {
        let mut db = orders_db();
        db.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let snap = TheorySnapshot::capture(db.theory());
        let mut reader = snap.reader();
        for wff in [
            "Orders(700,32,9)",
            "Orders(100,32,1)",
            "Orders(100,32,1) | Orders(100,32,7)",
            "!InStock(32,1)",
            "Orders(100,32,1) & Orders(100,32,7)",
        ] {
            assert_eq!(
                reader.is_certain(wff).unwrap(),
                db.is_certain(wff).unwrap(),
                "certain({wff})"
            );
            assert_eq!(
                reader.is_possible(wff).unwrap(),
                db.is_possible(wff).unwrap(),
                "possible({wff})"
            );
            let (possible, certain) = reader.decide(wff).unwrap();
            assert_eq!(possible, db.is_possible(wff).unwrap());
            assert_eq!(certain, db.is_certain(wff).unwrap());
        }
    }

    #[test]
    fn reader_query_matches_live_query() {
        let mut db = orders_db();
        db.execute("INSERT Orders(800,32,5) WHERE T").unwrap();
        db.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let snap = TheorySnapshot::capture(db.theory());
        let mut reader = snap.reader();
        for q in [
            "Orders(?o, 32, ?q)",
            "Orders(?o, 32, ?q) & !InStock(32, ?q)",
        ] {
            assert_eq!(reader.query(q).unwrap(), db.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn foreign_atoms_fold_to_false_not_error() {
        let db = orders_db();
        let snap = TheorySnapshot::capture(db.theory());
        let mut reader = snap.reader();
        // `Orders(700,32,1)` mentions only known constants but was never
        // interned as an atom in the snapshot: certainly false, possibly
        // false — and its negation certainly true.
        assert!(!reader.is_possible("Orders(700,32,1)").unwrap());
        assert!(reader.is_certain("!Orders(700,32,1)").unwrap());
        // The shared theory's atom table is untouched by the probe.
        assert_eq!(snap.theory().num_atoms(), reader.universe);
        // Unknown predicates are still strict errors.
        assert!(reader.is_certain("Nope(1)").is_err());
    }

    #[test]
    fn declared_but_empty_relation_folds_closed_world() {
        // A relation that was declared but never populated interns no
        // atoms, so every ground atom over it sits outside the snapshot's
        // universe: certainly false under completion, not a parse error.
        let mut db = orders_db();
        db.declare_relation("Discontinued", 1).unwrap();
        let snap = TheorySnapshot::capture(db.theory());
        let mut reader = snap.reader();
        assert!(!reader.is_possible("Discontinued(32)").unwrap());
        assert!(reader.is_certain("!Discontinued(32)").unwrap());
        // Exactly what the live database answers for the same probe.
        assert_eq!(
            reader.is_certain("!Discontinued(32)").unwrap(),
            db.is_certain("!Discontinued(32)").unwrap()
        );
        // Folding composes under connectives: the dead disjunct drops out.
        assert!(reader
            .is_certain("Orders(700,32,9) | Discontinued(32)")
            .unwrap());
        assert!(!reader
            .is_possible("Orders(700,32,9) & Discontinued(32)")
            .unwrap());
    }

    #[test]
    fn atoms_minted_after_pin_stay_false_in_the_snapshot() {
        let mut db = orders_db();
        let snap = TheorySnapshot::capture(db.theory());
        // `Orders(700,32,1)` uses only constants the snapshot knows, but
        // the atom itself is interned by this later write: it exists in
        // the live theory, not in the pinned universe.
        db.execute("INSERT Orders(700,32,1) WHERE T").unwrap();
        assert!(db.is_certain("Orders(700,32,1)").unwrap());
        let mut reader = snap.reader();
        assert!(!reader.is_possible("Orders(700,32,1)").unwrap());
        assert!(reader.is_certain("!Orders(700,32,1)").unwrap());
        // The probe interned the atom only in the reader's private table;
        // the shared snapshot stays frozen, and a second reader over the
        // same snapshot starts from the pinned universe again.
        assert_eq!(snap.theory().num_atoms(), reader.universe);
        let mut second = snap.reader();
        assert_eq!(second.universe, reader.universe);
        assert!(!second.is_possible("Orders(700,32,1)").unwrap());
        // Constants minted after the pin are a different case: the strict
        // parse has never seen them, so the probe is an error, not a
        // silent false.
        db.execute("INSERT Orders(900,32,1) WHERE T").unwrap();
        assert!(reader.is_certain("Orders(900,32,1)").is_err());
    }

    #[test]
    fn reader_explain_matches_live_explain() {
        let mut db = orders_db();
        db.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let snap = TheorySnapshot::capture(db.theory());
        let mut reader = snap.reader();
        for wff in ["Orders(700,32,9)", "Orders(100,32,1)", "!InStock(32,1)"] {
            let live = db.explain(wff).unwrap();
            let snap_e = reader.explain(wff).unwrap();
            assert_eq!(live.verdict, snap_e.verdict, "{wff}");
            // Witness worlds may differ (any model is a legal witness);
            // presence/absence must agree.
            assert_eq!(live.witness.is_some(), snap_e.witness.is_some());
            assert_eq!(
                live.counterexample.is_some(),
                snap_e.counterexample.is_some()
            );
        }
    }

    #[test]
    fn session_is_reused_across_queries_at_one_snapshot() {
        let db = orders_db();
        let snap = TheorySnapshot::capture(db.theory());
        let mut reader = snap.reader();
        reader.is_certain("Orders(700,32,9)").unwrap();
        reader.is_certain("Orders(700,32,9)").unwrap();
        reader.is_possible("Orders(700,32,9)").unwrap();
        let stats = reader.session_stats();
        // The wff was encoded once; later asks hit the literal cache.
        assert_eq!(stats.encoded_wffs, 1);
        assert!(stats.encode_reuse_hits >= 2);
    }

    #[test]
    fn cloning_a_snapshot_shares_the_theory() {
        let db = orders_db();
        let snap = TheorySnapshot::capture(db.theory());
        let other = snap.clone();
        assert!(Arc::ptr_eq(&snap.theory, &other.theory));
        assert_eq!(snap.generation(), other.generation());
    }
}
