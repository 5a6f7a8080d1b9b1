//! The `LogicalDatabase` façade: an extended relational theory maintained
//! by GUA, queried by entailment.
//!
//! This is the API a downstream user adopts: declare a schema, load facts,
//! run LDML updates (textual or AST), ask certain/possible queries, and
//! inspect the alternative worlds. The §3.5 "additional layer … between
//! the user and algorithm GUA" that widens updates to satisfy type axioms
//! is available as [`DbOptions::widen_type_axioms`].

use crate::error::DbError;
use crate::query::{Answers, Query};
use std::sync::Arc;
use winslett_gua::{GuaEngine, GuaOptions, SimplifyLevel, UpdateReport};
use winslett_ldml::Update;
use winslett_logic::{
    parse_wff, AtomId, BitSet, ChunkedVec, Formula, ModelLimit, ParseContext, PredId, Wff,
};
use winslett_theory::{Dependency, Theory, TheoryStats};

/// Configuration for a [`LogicalDatabase`].
#[derive(Clone, Copy, Debug)]
pub struct DbOptions {
    /// Simplification level applied after each update (§4).
    pub simplify: SimplifyLevel,
    /// When true, an INSERT whose ω contains a positively occurring tuple
    /// of a typed relation is widened with that tuple's attribute atoms —
    /// the paper's example: `INSERT R(a,b,c)` becomes
    /// `INSERT R(a,b,c) ∧ A₁(a) ∧ A₂(b) ∧ A₃(c)` (§3.5).
    pub widen_type_axioms: bool,
    /// Cap on alternative-world enumeration.
    pub world_limit: ModelLimit,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            simplify: SimplifyLevel::Fast,
            widen_type_axioms: true,
            world_limit: ModelLimit::default(),
        }
    }
}

/// The log of applied updates, oldest first. Copy-on-write: cloning a
/// database shares it, and an append copies one chunk of handles.
#[derive(Clone, Default, Debug)]
pub struct UpdateLog(ChunkedVec<Arc<Update>>);

impl UpdateLog {
    /// Number of logged updates.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The most recent update.
    pub fn last(&self) -> Option<&Update> {
        self.0.last().map(|u| &**u)
    }

    /// Iterates oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Update> + '_ {
        self.0.iter().map(|u| &**u)
    }

    pub(crate) fn push(&mut self, update: Update) {
        self.0.push(Arc::new(update));
    }
}

/// A logical database with incomplete information.
///
/// ```
/// use winslett_core::LogicalDatabase;
///
/// let mut db = LogicalDatabase::new();
/// db.declare_relation("Orders", 3)?;
/// db.load_fact("Orders", &["700", "32", "9"])?;
///
/// // A branching update records genuine uncertainty …
/// db.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")?;
/// assert_eq!(db.world_names()?.len(), 3);
/// assert!(db.is_possible("Orders(100,32,1)")?);
/// assert!(!db.is_certain("Orders(100,32,1)")?);
///
/// // … and ASSERT resolves it when exact knowledge arrives.
/// db.execute("ASSERT Orders(100,32,7) & !Orders(100,32,1)")?;
/// assert!(db.is_certain("Orders(100,32,7)")?);
///
/// let answers = db.query("Orders(?o, 32, ?q)")?;
/// assert_eq!(answers.certain.len(), 2);
/// # Ok::<(), winslett_core::DbError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LogicalDatabase {
    pub(crate) engine: GuaEngine,
    options: DbOptions,
    /// The update log (for provenance and the replay baseline).
    pub(crate) log: UpdateLog,
}

impl Default for LogicalDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl LogicalDatabase {
    /// Creates an empty database with default options.
    pub fn new() -> Self {
        Self::with_options(DbOptions::default())
    }

    /// Creates an empty database with explicit options.
    pub fn with_options(options: DbOptions) -> Self {
        LogicalDatabase {
            engine: GuaEngine::new(Theory::new(), GuaOptions::simplify_always(options.simplify)),
            options,
            log: UpdateLog::default(),
        }
    }

    /// Wraps an existing theory.
    pub fn from_theory(theory: Theory, options: DbOptions) -> Self {
        LogicalDatabase {
            engine: GuaEngine::new(theory, GuaOptions::simplify_always(options.simplify)),
            options,
            log: UpdateLog::default(),
        }
    }

    /// The underlying theory (read-only).
    pub fn theory(&self) -> &Theory {
        &self.engine.theory
    }

    /// The underlying theory (mutable — for initial loading).
    pub fn theory_mut(&mut self) -> &mut Theory {
        &mut self.engine.theory
    }

    /// The options in force.
    pub fn options(&self) -> DbOptions {
        self.options
    }

    /// The update log so far.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    // ----- schema -----------------------------------------------------------

    /// Declares a unary attribute predicate.
    pub fn declare_attribute(&mut self, name: &str) -> Result<PredId, DbError> {
        Ok(self.engine.theory.declare_attribute(name)?)
    }

    /// Declares an untyped relation.
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> Result<PredId, DbError> {
        Ok(self.engine.theory.declare_relation(name, arity)?)
    }

    /// Declares a relation with a type axiom.
    pub fn declare_typed_relation(
        &mut self,
        name: &str,
        attrs: &[PredId],
    ) -> Result<PredId, DbError> {
        Ok(self.engine.theory.declare_typed_relation(name, attrs)?)
    }

    /// Adds a dependency axiom.
    pub fn add_dependency(&mut self, dep: Dependency) {
        self.engine.theory.add_dependency(dep);
    }

    // ----- initial loading ---------------------------------------------------

    /// Loads a ground fact `pred(args…)` as certainly true (initial state,
    /// bypassing GUA). Attribute atoms of typed relations are loaded too.
    pub fn load_fact(&mut self, pred: &str, args: &[&str]) -> Result<AtomId, DbError> {
        let atom = self.engine.theory.atom_by_name(pred, args)?;
        self.engine.theory.assert_atom(atom);
        // Keep the theory legal under type axioms.
        let ga = self.engine.theory.atoms.resolve(atom).clone();
        if let Some(attrs) = self.engine.theory.schema.type_axiom(ga.pred) {
            let attrs = attrs.to_vec();
            for (&attr, &c) in attrs.iter().zip(ga.args.iter()) {
                let aa = self
                    .engine
                    .theory
                    .atoms
                    .intern(winslett_logic::GroundAtom::new(attr, &[c]));
                if !self.engine.theory.entails(&Wff::Atom(aa)) {
                    self.engine.theory.assert_atom(aa);
                }
            }
        }
        Ok(atom)
    }

    /// Loads an arbitrary ground wff into the non-axiomatic section
    /// (initial state — e.g. disjunctive information), parsed permissively
    /// for constants but strictly for predicates.
    pub fn load_wff(&mut self, src: &str) -> Result<(), DbError> {
        let theory = &mut self.engine.theory;
        let before_preds = theory.vocab.num_predicates();
        let wff = {
            let mut ctx = ParseContext {
                vocab: &mut theory.vocab,
                atoms: &mut theory.atoms,
                declare: true,
                allow_predicate_constants: false,
            };
            parse_wff(src, &mut ctx)?
        };
        if theory.vocab.num_predicates() != before_preds {
            return Err(DbError::Query {
                message: format!("unknown predicate in wff `{src}`"),
            });
        }
        theory.assert_wff(&wff);
        Ok(())
    }

    // ----- updates -----------------------------------------------------------

    /// Parses and executes one LDML statement.
    pub fn execute(&mut self, src: &str) -> Result<UpdateReport, DbError> {
        let update = self.engine.parse(src)?;
        self.update(&update)
    }

    /// Executes an update AST.
    pub fn update(&mut self, update: &Update) -> Result<UpdateReport, DbError> {
        let effective =
            if self.options.widen_type_axioms && self.engine.theory.schema.has_type_axioms() {
                self.widen(update)
            } else {
                update.clone()
            };
        let report = self.engine.apply(&effective)?;
        self.log.push(effective);
        Ok(report)
    }

    /// Parses and executes an LDML statement **with variables** (§4): the
    /// statement is expanded against the registered atoms into a set of
    /// ground updates, which is applied *simultaneously*. Returns the
    /// number of ground instances together with the combined report.
    ///
    /// ```text
    /// DELETE Orders(?o, 32, ?q) WHERE T
    /// MODIFY Stored(?p, bin1) TO BE Stored(?p, bin2) WHERE T
    /// ```
    pub fn execute_variable(&mut self, src: &str) -> Result<(usize, UpdateReport), DbError> {
        let stmt = crate::vars::VarStatement::parse(src, &self.engine.theory)?;
        let ground = stmt.expand(&mut self.engine.theory)?;
        let effective: Vec<Update> =
            if self.options.widen_type_axioms && self.engine.theory.schema.has_type_axioms() {
                ground.iter().map(|u| self.widen(u)).collect()
            } else {
                ground
            };
        let report = self.engine.apply_simultaneous(&effective)?;
        let n = effective.len();
        for u in effective {
            self.log.push(u);
        }
        Ok((n, report))
    }

    /// Executes one LDML statement **atomically with respect to
    /// consistency**: if the update would leave the database with no
    /// alternative worlds (e.g. an insert that violates a dependency axiom
    /// in every world — rule 3 weeds them all out), the database is rolled
    /// back to its prior state and an error is returned instead.
    ///
    /// This is the guard a production deployment wants around ad-hoc
    /// updates: the bare semantics happily records "no world is possible"
    /// (which is faithful to the paper), but an application usually
    /// prefers refusal over a wiped database.
    pub fn execute_atomic(&mut self, src: &str) -> Result<UpdateReport, DbError> {
        let snapshot = self.clone();
        match self.execute(src) {
            Ok(report) => {
                if self.is_consistent() {
                    Ok(report)
                } else {
                    *self = snapshot;
                    Err(DbError::Query {
                        message: format!(
                            "update `{src}` would leave no possible world; rolled back"
                        ),
                    })
                }
            }
            Err(e) => {
                *self = snapshot;
                Err(e)
            }
        }
    }

    /// Runs several statements as one all-or-nothing transaction: if any
    /// statement fails, or the final state is inconsistent, everything is
    /// rolled back. Returns the per-statement reports on success.
    pub fn transaction(&mut self, statements: &[&str]) -> Result<Vec<UpdateReport>, DbError> {
        let snapshot = self.clone();
        let mut reports = Vec::with_capacity(statements.len());
        for src in statements {
            match self.execute(src) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    *self = snapshot;
                    return Err(e);
                }
            }
        }
        if !self.is_consistent() {
            *self = snapshot;
            return Err(DbError::Query {
                message: "transaction would leave no possible world; rolled back".into(),
            });
        }
        Ok(reports)
    }

    /// Runs an arbitrary closure against the database transactionally: on
    /// `Err` (or a final inconsistent state) the database is restored to
    /// its state at entry.
    pub fn with_transaction<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let snapshot = self.clone();
        match f(self) {
            Ok(v) if self.is_consistent() => Ok(v),
            Ok(_) => {
                *self = snapshot;
                Err(DbError::Query {
                    message: "transaction would leave no possible world; rolled back".into(),
                })
            }
            Err(e) => {
                *self = snapshot;
                Err(e)
            }
        }
    }

    /// Parses one LDML statement against this database's language without
    /// executing it (the WAL journals the parsed-and-widened form before
    /// GUA runs).
    pub fn parse_update(&mut self, src: &str) -> Result<Update, DbError> {
        Ok(self.engine.parse(src)?)
    }

    /// The §3.5-widened form of `update`, as [`LogicalDatabase::update`]
    /// would execute it. Identity when widening is off or no relation is
    /// typed.
    pub fn effective_update(&mut self, update: &Update) -> Update {
        if self.options.widen_type_axioms && self.engine.theory.schema.has_type_axioms() {
            self.widen(update)
        } else {
            update.clone()
        }
    }

    /// Applies an update that has **already** been widened (or needs no
    /// widening) — the WAL replay/execute path, which journals the
    /// effective update and must not widen twice.
    pub(crate) fn apply_effective(&mut self, effective: &Update) -> Result<UpdateReport, DbError> {
        let report = self.engine.apply(effective)?;
        self.log.push(effective.clone());
        Ok(report)
    }

    /// The §3.5 widening layer: conjoin attribute atoms for positively
    /// occurring typed tuples of ω.
    fn widen(&mut self, update: &Update) -> Update {
        let form = update.to_insert();
        let mut extra: Vec<Wff> = Vec::new();
        for f in form.omega.atom_set() {
            // Only widen atoms the insertion can make true.
            if form.omega.polarity_of(f) == Some(winslett_logic::Polarity::Negative) {
                continue;
            }
            let ga = self.engine.theory.atoms.resolve(f).clone();
            if let Some(attrs) = self.engine.theory.schema.type_axiom(ga.pred) {
                let attrs = attrs.to_vec();
                for (&attr, &c) in attrs.iter().zip(ga.args.iter()) {
                    let aa = self
                        .engine
                        .theory
                        .atoms
                        .intern(winslett_logic::GroundAtom::new(attr, &[c]));
                    // Unconditional conjunct, exactly as in the paper's
                    // example: INSERT R(a,b,c) ∧ A₁(a) ∧ A₂(b) ∧ A₃(c).
                    extra.push(Wff::Atom(aa));
                }
            }
        }
        if extra.is_empty() {
            return update.clone();
        }
        let mut omega_parts = vec![form.omega.clone()];
        omega_parts.extend(extra);
        Update::Insert {
            omega: Formula::And(omega_parts),
            phi: form.phi,
        }
    }

    // ----- queries ------------------------------------------------------------

    /// Parses a ground wff strictly (every symbol must exist, no predicate
    /// constants).
    pub fn parse_wff_strict(&mut self, src: &str) -> Result<Wff, DbError> {
        let theory = &mut self.engine.theory;
        let mut ctx = ParseContext::strict(&mut theory.vocab, &mut theory.atoms);
        Ok(parse_wff(src, &mut ctx)?)
    }

    /// Whether `wff` (textual) is true in every alternative world.
    pub fn is_certain(&mut self, src: &str) -> Result<bool, DbError> {
        let wff = self.parse_wff_strict(src)?;
        Ok(self.engine.theory.entails(&wff))
    }

    /// Whether `wff` (textual) is true in some alternative world.
    pub fn is_possible(&mut self, src: &str) -> Result<bool, DbError> {
        let wff = self.parse_wff_strict(src)?;
        Ok(self.engine.theory.consistent_with(&wff))
    }

    /// Runs a conjunctive query (textual form).
    pub fn query(&self, src: &str) -> Result<Answers, DbError> {
        let q = Query::parse(src, &self.engine.theory)?;
        q.evaluate(&self.engine.theory)
    }

    /// Runs a conjunctive query with per-answer *support counts*: for each
    /// possible answer, how many alternative worlds it holds in (support =
    /// world count ⇔ certain). Enumerates the worlds, so subject to the
    /// configured world limit.
    pub fn query_with_support(
        &self,
        src: &str,
    ) -> Result<(Vec<crate::query::SupportedAnswer>, usize), DbError> {
        let q = Query::parse(src, &self.engine.theory)?;
        q.evaluate_with_support(&self.engine.theory, self.options.world_limit)
    }

    /// Explains a ground wff: the three-valued verdict plus witness and
    /// counterexample worlds (one SAT call each; no world enumeration).
    pub fn explain(&mut self, src: &str) -> Result<crate::explain::Explanation, DbError> {
        let wff = self.parse_wff_strict(src)?;
        crate::explain::explain(&self.engine.theory, &wff)
    }

    /// Whether the database is consistent (has at least one world).
    pub fn is_consistent(&self) -> bool {
        self.engine.theory.is_consistent()
    }

    // ----- worlds and reporting ------------------------------------------------

    /// Materializes the alternative worlds as bitsets.
    pub fn worlds(&self) -> Result<Vec<BitSet>, DbError> {
        Ok(self
            .engine
            .theory
            .alternative_worlds(self.options.world_limit)?)
    }

    /// Materializes the alternative worlds as sorted atom-name lists.
    pub fn world_names(&self) -> Result<Vec<Vec<String>>, DbError> {
        let mut out: Vec<Vec<String>> = self
            .worlds()?
            .iter()
            .map(|w| self.engine.theory.format_world(w))
            .collect();
        out.sort();
        Ok(out)
    }

    /// The certain relational projection: tuples true in every world
    /// (backbone-driven; one incremental SAT session).
    pub fn certain_facts(&self) -> Result<crate::relational::RelationalDatabase, DbError> {
        crate::relational::certain_database(&self.engine.theory, self.options.world_limit)
    }

    /// The possible relational projection: tuples true in some world.
    pub fn possible_facts(&self) -> Result<crate::relational::RelationalDatabase, DbError> {
        crate::relational::possible_database(&self.engine.theory, self.options.world_limit)
    }

    /// Theory statistics.
    pub fn stats(&self) -> TheoryStats {
        self.engine.theory.stats()
    }

    /// Runs an explicit simplification pass.
    pub fn simplify(&mut self, level: SimplifyLevel) -> winslett_gua::SimplifyReport {
        self.engine.simplify(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §3.1 schema: Orders(OrderNo, PartNo, Quan) and
    /// InStock(PartNo, Quan).
    fn orders_db() -> LogicalDatabase {
        let mut db = LogicalDatabase::new();
        db.declare_relation("Orders", 3).unwrap();
        db.declare_relation("InStock", 2).unwrap();
        db.load_fact("Orders", &["700", "32", "9"]).unwrap();
        db.load_fact("InStock", &["32", "1"]).unwrap();
        db
    }

    #[test]
    fn paper_modify_example() {
        let mut db = orders_db();
        db.execute("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE InStock(32,1)")
            .unwrap();
        assert!(db.is_certain("Orders(700,32,1)").unwrap());
        assert!(db.is_certain("!Orders(700,32,9)").unwrap());
    }

    #[test]
    fn paper_delete_example() {
        let mut db = orders_db();
        db.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        assert!(db.is_certain("!Orders(700,32,9)").unwrap());
    }

    #[test]
    fn paper_disjunctive_insert_and_assert() {
        let mut db = orders_db();
        db.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        assert_eq!(db.world_names().unwrap().len(), 3);
        assert!(!db.is_certain("Orders(100,32,1)").unwrap());
        assert!(db.is_possible("Orders(100,32,1)").unwrap());
        assert!(db
            .is_certain("Orders(100,32,1) | Orders(100,32,7)")
            .unwrap());
        // More precise knowledge arrives.
        db.execute("ASSERT !Orders(100,32,7)").unwrap();
        assert!(db.is_certain("Orders(100,32,1)").unwrap());
        assert_eq!(db.world_names().unwrap().len(), 1);
    }

    #[test]
    fn insert_f_where_condition_enforces_constraint() {
        // Paper example: INSERT F WHERE ¬InStock(32,1) — kills worlds where
        // the part is out of stock.
        let mut db = orders_db();
        db.execute("INSERT F WHERE !InStock(32,1)").unwrap();
        assert!(db.is_consistent()); // InStock(32,1) was certain
        let mut db2 = orders_db();
        db2.execute("DELETE InStock(32,1) WHERE T").unwrap();
        db2.execute("INSERT F WHERE !InStock(32,1)").unwrap();
        assert!(!db2.is_consistent());
    }

    #[test]
    fn query_after_updates() {
        let mut db = orders_db();
        db.execute("INSERT Orders(800,32,1000) WHERE T").unwrap();
        let ans = db.query("Orders(?o, 32, ?q)").unwrap();
        assert_eq!(ans.certain.len(), 2);
    }

    #[test]
    fn widening_preserves_typed_inserts() {
        let mut db = LogicalDatabase::new();
        let part = db.declare_attribute("PartNo").unwrap();
        let quan = db.declare_attribute("Quan").unwrap();
        db.declare_typed_relation("InStock", &[part, quan]).unwrap();
        db.execute("INSERT InStock(32,5) WHERE T").unwrap();
        // With widening on (default), the tuple and its attributes arrive
        // together; without it, the type axiom would wipe the worlds.
        assert!(db.is_consistent());
        assert!(db.is_certain("InStock(32,5)").unwrap());
        assert!(db.is_certain("PartNo(32)").unwrap());
        assert!(db.is_certain("Quan(5)").unwrap());
    }

    #[test]
    fn no_widening_kills_untyped_inserts() {
        let mut db = LogicalDatabase::with_options(DbOptions {
            widen_type_axioms: false,
            ..DbOptions::default()
        });
        let part = db.declare_attribute("PartNo").unwrap();
        let quan = db.declare_attribute("Quan").unwrap();
        db.declare_typed_relation("InStock", &[part, quan]).unwrap();
        db.execute("INSERT InStock(32,5) WHERE T").unwrap();
        assert!(!db.is_consistent());
    }

    #[test]
    fn load_wff_disjunction() {
        let mut db = orders_db();
        db.load_wff("Orders(701,33,5) | Orders(701,34,5)").unwrap();
        // Inclusive disjunction: one world per satisfying valuation of the
        // two atoms (both, first-only, second-only).
        assert_eq!(db.world_names().unwrap().len(), 3);
        assert!(db
            .is_certain("Orders(701,33,5) | Orders(701,34,5)")
            .unwrap());
    }

    #[test]
    fn load_wff_rejects_unknown_predicate() {
        let mut db = orders_db();
        assert!(db.load_wff("Nope(1)").is_err());
    }

    #[test]
    fn update_log_recorded() {
        let mut db = orders_db();
        db.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        db.execute("INSERT InStock(33,2) WHERE T").unwrap();
        assert_eq!(db.log().len(), 2);
    }

    #[test]
    fn execute_atomic_rolls_back_world_wipes() {
        use winslett_theory::Dependency;
        let mut db = LogicalDatabase::new();
        let p = db.declare_relation("Price", 2).unwrap();
        db.add_dependency(Dependency::functional("fd", p, 2, &[0]).unwrap());
        db.load_fact("Price", &["widget", "10"]).unwrap();
        let before = db.world_names().unwrap();
        // A second price without vacating the first violates the FD in
        // every world: atomic execution refuses and restores.
        let r = db.execute_atomic("INSERT Price(widget,12) WHERE T");
        assert!(r.is_err());
        assert!(db.is_consistent());
        assert_eq!(db.world_names().unwrap(), before);
        assert_eq!(db.log().len(), 0); // the rejected update is not logged
                                       // The legal atomic replacement goes through.
        db.execute_atomic("INSERT Price(widget,12) & !Price(widget,10) WHERE T")
            .unwrap();
        assert!(db.is_certain("Price(widget,12)").unwrap());
    }

    #[test]
    fn transaction_all_or_nothing() {
        let mut db = orders_db();
        let before = db.world_names().unwrap();
        // Second statement fails (unknown predicate): everything rolls back.
        let r = db.transaction(&["DELETE Orders(700,32,9) WHERE T", "INSERT Nope(1) WHERE T"]);
        assert!(r.is_err());
        assert_eq!(db.world_names().unwrap(), before);
        assert_eq!(db.log().len(), 0);
        // A consistent pair commits.
        let reports = db
            .transaction(&[
                "DELETE Orders(700,32,9) WHERE T",
                "INSERT Orders(800,32,5) WHERE T",
            ])
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(db.log().len(), 2);
        assert!(db.is_certain("Orders(800,32,5)").unwrap());
    }

    #[test]
    fn with_transaction_closure_rollback() {
        let mut db = orders_db();
        let before = db.world_names().unwrap();
        let r: Result<(), DbError> = db.with_transaction(|db| {
            db.execute("DELETE Orders(700,32,9) WHERE T")?;
            db.execute("ASSERT F")?; // wipes all worlds
            Ok(())
        });
        assert!(r.is_err());
        assert_eq!(db.world_names().unwrap(), before);
        // Success path commits.
        db.with_transaction(|db| {
            db.execute("INSERT InStock(40,2) WHERE T")?;
            Ok(())
        })
        .unwrap();
        assert!(db.is_certain("InStock(40,2)").unwrap());
    }

    #[test]
    fn stats_track_growth() {
        let mut db = orders_db();
        let before = db.stats().store_nodes;
        db.execute("INSERT Orders(900,40,1) WHERE T").unwrap();
        assert!(db.stats().store_nodes > before);
    }
}
