//! The replay-log strawman of §4.
//!
//! "It is in large part the possibility of heuristic simplification that
//! makes the LDML algorithms more attractive than **simply keeping a record
//! of past updates and recomputing the state of the theory on each new
//! query**."
//!
//! [`ReplayDatabase`] is that alternative system, built to be compared
//! against `LogicalDatabase` in experiment E8: updates are O(1) appends to
//! a log; every query replays the whole log through GUA (no
//! simplification) onto a scratch copy of the initial theory and then
//! answers on the scratch theory. Query cost therefore grows with the log,
//! while the GUA+simplify system pays per update and keeps queries cheap.

use crate::error::DbError;
use winslett_gua::{GuaEngine, GuaOptions, SimplifyLevel};
use winslett_ldml::Update;
use winslett_logic::{AtomId, Wff};
use winslett_theory::{Theory, TheoryStats};

/// Replays `updates` in order through GUA (no simplification — the §4
/// strawman's configuration) onto a scratch copy of `initial`, returning
/// the resulting theory — the recomputation behind
/// [`ReplayDatabase::materialize`]. WAL replay does not use it: it applies
/// each record through the database's own engine
/// ([`crate::wal::replay_record`]).
pub fn replay_updates(initial: &Theory, updates: &[Update]) -> Result<Theory, DbError> {
    let mut engine = GuaEngine::new(
        initial.clone(),
        GuaOptions::simplify_always(SimplifyLevel::None),
    );
    for u in updates {
        engine.apply(u)?;
    }
    Ok(engine.theory)
}

/// Checks that every atom id an update mentions is interned in `theory`.
/// An id beyond the atom table is proof the update was built against a
/// different theory; ids *within* range but minted by a different lineage
/// cannot be detected — that is what [`ReplayDatabase::update_synced`]'s
/// append-only-lineage contract exists for.
fn first_foreign_atom(update: &Update, theory: &Theory) -> Option<AtomId> {
    let form = update.to_insert();
    let n = theory.num_atoms();
    for w in [&form.omega, &form.phi] {
        for a in w.atom_set() {
            if a.index() >= n {
                return Some(a);
            }
        }
    }
    None
}

/// A logical database that stores updates as a log and recomputes on query.
#[derive(Clone, Debug)]
pub struct ReplayDatabase {
    initial: Theory,
    log: Vec<Update>,
}

impl ReplayDatabase {
    /// Wraps an initial theory.
    pub fn new(initial: Theory) -> Self {
        ReplayDatabase {
            initial,
            log: Vec::new(),
        }
    }

    /// Records an update — O(1) theory work. The update's atom ids must be
    /// interned in this database's initial theory; an update parsed
    /// against a *different* (richer) theory is rejected with
    /// [`DbError::ForeignUpdate`] instead of being logged and silently
    /// replayed as the wrong atoms later (use
    /// [`ReplayDatabase::update_synced`] for that case).
    pub fn update(&mut self, update: Update) -> Result<(), DbError> {
        if let Some(a) = first_foreign_atom(&update, &self.initial) {
            return Err(DbError::ForeignUpdate {
                atom_id: a.0,
                num_atoms: self.initial.num_atoms(),
            });
        }
        self.log.push(update);
        Ok(())
    }

    /// Records an update whose atoms were interned against `language` (a
    /// theory sharing this database's lineage). The vocabulary and atom
    /// table are append-only, so adopting the richer copies keeps every
    /// previously logged id valid. An update whose ids exceed even
    /// `language`'s atom table is rejected with [`DbError::ForeignUpdate`].
    pub fn update_synced(&mut self, update: Update, language: &Theory) -> Result<(), DbError> {
        if let Some(a) = first_foreign_atom(&update, language) {
            return Err(DbError::ForeignUpdate {
                atom_id: a.0,
                num_atoms: language.num_atoms(),
            });
        }
        self.initial.vocab = language.vocab.clone();
        self.initial.atoms = language.atoms.clone();
        self.log.push(update);
        Ok(())
    }

    /// Number of logged updates.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Replays the log onto a scratch copy of the initial theory,
    /// returning the materialized current theory. This is the per-query
    /// cost the strawman pays.
    pub fn materialize(&self) -> Result<Theory, DbError> {
        replay_updates(&self.initial, &self.log)
    }

    /// Certain truth of a ground wff, by replay.
    pub fn is_certain(&self, wff: &Wff) -> Result<bool, DbError> {
        Ok(self.materialize()?.entails(wff))
    }

    /// Possible truth of a ground wff, by replay.
    pub fn is_possible(&self, wff: &Wff) -> Result<bool, DbError> {
        Ok(self.materialize()?.consistent_with(wff))
    }

    /// Stats of the materialized theory (useful to see unbounded growth).
    pub fn materialized_stats(&self) -> Result<TheoryStats, DbError> {
        Ok(self.materialize()?.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::AtomId;

    fn setup() -> (Theory, AtomId, AtomId) {
        let mut t = Theory::new();
        let r = t.declare_relation("R", 1).unwrap();
        let ca = t.constant("a");
        let cb = t.constant("b");
        let a = t.atom(r, &[ca]);
        let b = t.atom(r, &[cb]);
        t.assert_atom(a);
        t.assert_not_atom(b);
        (t, a, b)
    }

    #[test]
    fn replay_matches_eager_execution() {
        let (t, a, b) = setup();
        let updates = vec![
            Update::delete(a, Wff::t()),
            Update::insert(Wff::Atom(b), Wff::t()),
            Update::insert(
                winslett_logic::Formula::Or(vec![Wff::Atom(a), Wff::Atom(b)]),
                Wff::t(),
            ),
        ];
        // Eager path.
        let mut eager = GuaEngine::with_defaults(t.clone());
        for u in &updates {
            eager.apply(u).unwrap();
        }
        // Replay path.
        let mut replay = ReplayDatabase::new(t);
        for u in &updates {
            replay.update(u.clone()).unwrap();
        }
        for wff in [
            Wff::Atom(a),
            Wff::Atom(b),
            Wff::or2(Wff::Atom(a), Wff::Atom(b)),
        ] {
            assert_eq!(
                replay.is_certain(&wff).unwrap(),
                eager.theory.entails(&wff),
                "certainty mismatch on {wff:?}"
            );
            assert_eq!(
                replay.is_possible(&wff).unwrap(),
                eager.theory.consistent_with(&wff),
                "possibility mismatch on {wff:?}"
            );
        }
    }

    #[test]
    fn updates_are_constant_time_appends() {
        let (t, a, _) = setup();
        let mut replay = ReplayDatabase::new(t);
        for _ in 0..100 {
            replay.update(Update::delete(a, Wff::t())).unwrap();
        }
        assert_eq!(replay.log_len(), 100);
    }

    #[test]
    fn materialized_theory_grows_with_log() {
        let (t, a, b) = setup();
        let mut replay = ReplayDatabase::new(t);
        let mut sizes = Vec::new();
        for i in 0..5 {
            replay
                .update(Update::insert(
                    winslett_logic::Formula::Or(vec![Wff::Atom(a), Wff::Atom(b)]),
                    Wff::t(),
                ))
                .unwrap();
            let _ = i;
            sizes.push(replay.materialized_stats().unwrap().store_nodes);
        }
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes: {sizes:?}");
    }

    #[test]
    fn foreign_update_rejected_with_typed_error() {
        // Regression for the documented footgun: an update parsed against
        // a richer theory used to be logged silently and replayed as
        // whatever atoms happened to occupy those ids (or panic). It must
        // be refused up front.
        let (t, _, _) = setup();
        let mut richer = t.clone();
        let extra = {
            let r = richer.vocab.find_predicate("R").unwrap();
            let c = richer.constant("zzz");
            richer.atom(r, &[c])
        };
        let mut replay = ReplayDatabase::new(t);
        let err = replay
            .update(Update::insert(Wff::Atom(extra), Wff::t()))
            .unwrap_err();
        assert_eq!(
            err,
            DbError::ForeignUpdate {
                atom_id: extra.0,
                num_atoms: replay.initial.num_atoms(),
            }
        );
        assert_eq!(replay.log_len(), 0); // nothing was logged
                                         // The φ side is validated too.
        let (t2, a, _) = setup();
        let mut replay2 = ReplayDatabase::new(t2);
        assert!(replay2
            .update(Update::insert(Wff::Atom(a), Wff::Atom(extra)))
            .is_err());
        // update_synced with the matching richer language accepts it …
        replay
            .update_synced(Update::insert(Wff::Atom(extra), Wff::t()), &richer)
            .unwrap();
        assert_eq!(replay.log_len(), 1);
        assert!(replay.is_certain(&Wff::Atom(extra)).unwrap());
        // … but still rejects ids beyond even the synced language.
        let bogus = winslett_logic::AtomId(10_000);
        assert!(matches!(
            replay.update_synced(Update::delete(bogus, Wff::t()), &richer),
            Err(DbError::ForeignUpdate { .. })
        ));
    }
}
