//! Copy-on-write isolation: a database clone or a theory snapshot taken at
//! any point of a random history stays exactly what a from-scratch rebuild
//! of its own history gives — however the original, and the other clones,
//! move on afterwards. Clones share chunks and shards with each other, so
//! any write that mutated shared storage in place instead of copying it
//! would show up here as one copy seeing another's change.

use proptest::prelude::*;
use winslett::db::{LogicalDatabase, TheorySnapshot};
use winslett::gua::SimplifyLevel;
use winslett::logic::{AtomId, PredicateKind};
use winslett::theory::{FormulaId, Theory};

const RELATIONS: usize = 3;
const CONSTANTS: usize = 6;

#[derive(Clone, Debug)]
enum Op {
    Declare(usize),
    Fact(usize, usize),
    Execute(String),
    Simplify,
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn atom(rng: &mut Rng) -> String {
    format!("R{}(c{})", rng.below(RELATIONS), rng.below(CONSTANTS))
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.below(12) {
        0 => Op::Declare(rng.below(RELATIONS)),
        1 | 2 => Op::Fact(rng.below(RELATIONS), rng.below(CONSTANTS)),
        3 => Op::Simplify,
        k => Op::Execute(match k {
            4 | 5 => format!("INSERT {} WHERE T", atom(rng)),
            6 => format!("DELETE {} WHERE T", atom(rng)),
            7 => format!(
                "MODIFY {} TO BE {} WHERE {}",
                atom(rng),
                atom(rng),
                atom(rng)
            ),
            8 | 9 => format!("INSERT {} | {} WHERE {}", atom(rng), atom(rng), atom(rng)),
            10 => format!("INSERT !{} & {} WHERE !{}", atom(rng), atom(rng), atom(rng)),
            _ => format!("ASSERT {} | !{}", atom(rng), atom(rng)),
        }),
    }
}

/// Applies `op`; a refused op (an undeclared relation, say) is part of the
/// history too, and must refuse identically on the rebuild.
fn apply(db: &mut LogicalDatabase, op: &Op) {
    let _ = match op {
        Op::Declare(r) => db.declare_relation(&format!("R{r}"), 1).map(|_| ()),
        Op::Fact(r, c) => db
            .load_fact(&format!("R{r}"), &[&format!("c{c}")])
            .map(|_| ()),
        Op::Execute(src) => db.execute(src).map(|_| ()),
        Op::Simplify => {
            db.simplify(SimplifyLevel::Fast);
            Ok(())
        }
    };
}

fn rebuild(history: &[Op]) -> LogicalDatabase {
    let mut db = LogicalDatabase::new();
    for op in history {
        apply(&mut db, op);
    }
    db
}

/// Everything a theory clone carries, in comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    formulas: Vec<(u32, String)>,
    nodes: usize,
    atoms: Vec<(u32, u32, Vec<u32>)>,
    constants: Vec<String>,
    predicates: Vec<(String, usize, PredicateKind)>,
    registered: Vec<(u32, u32)>,
    occurrence_lists: Vec<(u32, Vec<u32>)>,
    generation: u64,
}

fn fingerprint(t: &Theory) -> Fingerprint {
    let formulas: Vec<(u32, String)> = t
        .store
        .iter()
        .map(|(id, w)| (id.0, format!("{w:?}")))
        .collect();
    let mut registered: Vec<(u32, u32)> = t.registry.iter().map(|(p, a)| (p.0, a.0)).collect();
    registered.sort_unstable();
    // The §3.6 occurrence lists must name exactly the live formulas that
    // mention each atom.
    let mut occurrence_lists = Vec::new();
    for (id, _) in t.atoms.iter() {
        let mut listed: Vec<FormulaId> = t.store.formulas_with(id).collect();
        listed.sort_unstable();
        listed.dedup();
        let mentioning: Vec<FormulaId> = t
            .store
            .iter()
            .filter(|(_, w)| w.contains_atom(id))
            .map(|(f, _)| f)
            .collect();
        assert_eq!(listed, mentioning, "occurrence list of {id}");
        occurrence_lists.push((id.0, listed.iter().map(|f| f.0).collect()));
    }
    Fingerprint {
        formulas,
        nodes: t.store.size_nodes(),
        atoms: t
            .atoms
            .iter()
            .map(|(AtomId(i), a)| (i, a.pred.0, a.args.iter().map(|c| c.0).collect()))
            .collect(),
        constants: t.vocab.constants().map(|(_, n)| n.to_owned()).collect(),
        predicates: t
            .vocab
            .predicates()
            .map(|(_, p)| (p.name.clone(), p.arity, p.kind))
            .collect(),
        registered,
        occurrence_lists,
        generation: t.generation(),
    }
}

enum Saved {
    Clone(Box<LogicalDatabase>),
    Snapshot(TheorySnapshot),
}

impl Saved {
    fn theory(&self) -> &Theory {
        match self {
            Saved::Clone(db) => db.theory(),
            Saved::Snapshot(s) => s.theory(),
        }
    }
}

fn check(seed: u64, steps: usize) -> Result<(), String> {
    let mut rng = Rng(seed | 1);
    let mut db = LogicalDatabase::new();
    let mut history: Vec<Op> = Vec::new();
    let mut saved: Vec<(Vec<Op>, Saved)> = Vec::new();
    for _ in 0..steps {
        match rng.below(10) {
            0 => saved.push((history.clone(), Saved::Clone(Box::new(db.clone())))),
            1 => saved.push((
                history.clone(),
                Saved::Snapshot(TheorySnapshot::capture(db.theory())),
            )),
            2 if !saved.is_empty() => {
                // Diverge a saved clone; snapshots are immutable.
                let i = rng.below(saved.len());
                let op = random_op(&mut rng);
                if let (own, Saved::Clone(c)) = &mut saved[i] {
                    apply(c, &op);
                    own.push(op);
                }
            }
            _ => {
                let op = random_op(&mut rng);
                apply(&mut db, &op);
                history.push(op);
            }
        }
    }
    saved.push((history, Saved::Clone(Box::new(db))));
    for (own, copy) in &saved {
        let expected = fingerprint(rebuild(own).theory());
        let got = fingerprint(copy.theory());
        prop_assert_eq!(
            &got,
            &expected,
            "a copy diverged from its own history (seed {}): {:?}",
            seed,
            own
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clones_and_snapshots_match_their_own_history(seed in any::<u64>()) {
        check(seed, 60)?;
    }
}

#[test]
fn long_history_with_many_copies() {
    check(0x00C0_FFEE, 400).unwrap();
}
