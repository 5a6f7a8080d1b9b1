//! The eight experiments of EXPERIMENTS.md, one function per claim.

use crate::report::Table;
use std::time::{Duration, Instant};
use winslett_core::{
    replay_record, DbOptions, DurableDatabase, LogicalDatabase, MemStorage, ReplayDatabase,
    TheorySnapshot, WalOptions, Workload,
};
use winslett_gua::{GuaEngine, GuaOptions, SimplifyLevel};
use winslett_ldml::{equivalent_brute, equivalent_updates, Update};
use winslett_logic::{AtomId, Formula, ModelLimit, Wff};
use winslett_theory::Theory;
use winslett_worlds::{check_commutes, WorldsEngine};

fn fmt_us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// E1 — Theorem 1/5: GUA equals the per-world semantics on randomized
/// workloads, at every simplification level.
pub fn e1(trials: usize) -> Table {
    let mut table = Table::new(
        "E1",
        "commutative diagram: GUA vs possible-worlds baseline",
        &["configuration", "trials", "agreements", "max worlds"],
    );
    for (label, level) in [
        ("no simplify", SimplifyLevel::None),
        ("fast simplify", SimplifyLevel::Fast),
        ("full simplify", SimplifyLevel::Full),
    ] {
        let mut agreements = 0usize;
        let mut ran = 0usize;
        let mut max_worlds = 0usize;
        let mut rng = Rng(0xE1_0001 + level as u64);
        for _ in 0..trials {
            let (theory, ids) = random_theory(&mut rng);
            if !theory.is_consistent() {
                continue;
            }
            ran += 1;
            let before = theory.clone();
            let mut engine = GuaEngine::new(theory, GuaOptions::simplify_always(level));
            let mut updates = Vec::new();
            for _ in 0..(1 + rng.below(3)) {
                let u = random_update(&mut rng, &ids);
                updates.push(u.clone());
                engine.apply(&u).expect("update applies");
            }
            let report = check_commutes(&before, &updates, &engine.theory, ModelLimit::default())
                .expect("diagram runs");
            max_worlds = max_worlds.max(report.expected.len());
            if report.commutes {
                agreements += 1;
            }
        }
        table.row(vec![
            label.into(),
            ran.to_string(),
            agreements.to_string(),
            max_worlds.to_string(),
        ]);
        assert_eq!(agreements, ran, "E1 MUST be exact ({label})");
    }
    table.note("expected shape: agreements == trials in every configuration (Theorem 1/5)");
    table
}

/// E2 — Theorems 2–4: the equivalence deciders agree with brute force, and
/// are much cheaper.
pub fn e2(pairs: usize) -> Table {
    let mut table = Table::new(
        "E2",
        "update equivalence: theorem deciders vs per-model brute force",
        &[
            "pairs",
            "agreements",
            "equivalent",
            "decider µs/pair",
            "brute µs/pair",
        ],
    );
    let mut rng = Rng(0xE2_0001);
    let mut agreements = 0usize;
    let mut equivalent = 0usize;
    let mut t_decider = Duration::ZERO;
    let mut t_brute = Duration::ZERO;
    const N: usize = 4;
    for _ in 0..pairs {
        let b1 = random_update_small(&mut rng, N);
        let b2 = random_update_small(&mut rng, N);
        let s = Instant::now();
        let d = equivalent_updates(&b1, &b2, N).expect("small").equivalent;
        t_decider += s.elapsed();
        let s = Instant::now();
        let b = equivalent_brute(&b1, &b2, N).expect("small");
        t_brute += s.elapsed();
        if d == b {
            agreements += 1;
        }
        if b {
            equivalent += 1;
        }
    }
    assert_eq!(agreements, pairs, "E2 MUST be exact");
    table.row(vec![
        pairs.to_string(),
        agreements.to_string(),
        equivalent.to_string(),
        fmt_us(t_decider / pairs as u32),
        fmt_us(t_brute / pairs as u32),
    ]);
    table.note("expected shape: 100% agreement; decider cost independent of the model space");
    table
}

/// E3 — §3.6: GUA runs in O(g · log R). Sweep g and R, report µs/update
/// and the normalized time / (g·log₂R) which should stay ~flat.
pub fn e3(reps: usize) -> Table {
    let mut table = Table::new(
        "E3",
        "GUA cost scaling in g and R (claim: O(g·log R))",
        &["R", "g", "µs/update", "µs/(g·log2 R)"],
    );
    for &r in &[256usize, 1024, 4096, 16384, 65536] {
        for &g in &[1usize, 4, 16, 64] {
            let mut w = Workload::new(0xE3 + r as u64);
            let (mut theory, atoms) = w.orders_theory(r);
            // Pre-generate updates so generation cost is excluded.
            let updates: Vec<Update> = (0..reps)
                .map(|i| w.conjunctive_insert(&mut theory, &atoms, g, i))
                .collect();
            let mut engine =
                GuaEngine::new(theory, GuaOptions::simplify_always(SimplifyLevel::None));
            let start = Instant::now();
            for u in &updates {
                engine.apply(u).expect("update applies");
            }
            let per_update = start.elapsed() / reps as u32;
            let norm = per_update.as_secs_f64() * 1e6 / (g as f64 * (r as f64).log2());
            table.row(vec![
                r.to_string(),
                g.to_string(),
                fmt_us(per_update),
                format!("{norm:.3}"),
            ]);
        }
    }
    table.note(
        "expected shape: µs/update ~ linear in g, ~flat in R (indices); last column ~constant-ish",
    );
    table
}

/// E3, shipped path — the same g = 1 insert of a fresh tuple, timed
/// through the configurations users run: a [`LogicalDatabase`] (Fast
/// simplify after every update) and a [`DurableDatabase`] with the
/// shipped WAL options (`EveryRecord`, compaction on) over in-memory
/// storage, so the figure is the write path's CPU, not the disk's. The
/// follower column times the replica side of the same writes: each
/// shipped record's [`replay_record`] plus the publication the replica
/// tailer makes after a one-record batch (generation bump and snapshot
/// capture). The reader columns time the read side at the same R: a
/// [`SnapshotReader::new`](winslett_core::SnapshotReader::new) over the
/// durable database's latest snapshot, that reader's first `decide` of a
/// written tuple, and a pinned reader following the durable database
/// write by write: one
/// [`SnapshotReader::advance`](winslett_core::SnapshotReader::advance)
/// to each write's snapshot (its occasional rebuilds included, the
/// release of the previous generation not), with a `decide` of the
/// written tuple after each, untimed. Each cell is the median over
/// `runs` batches of `writes` statements (or `writes` readers).
pub fn e3_shipped(writes: usize, runs: usize) -> Table {
    let mut table = Table::new(
        "E3s",
        "shipped write path per g = 1 insert (claim: flat in R, like bare GUA)",
        &[
            "R",
            "LogicalDatabase µs/write",
            "DurableDatabase µs/write",
            "follower µs/write",
            "SnapshotReader::new µs",
            "reader advance µs",
            "first decide µs",
        ],
    );
    let statement = |tag: usize| format!("INSERT Orders(w{tag}, 32, 1) WHERE T");
    for &r in &[256usize, 1024, 4096, 16384, 65536] {
        let mut w = Workload::new(0xE3 + r as u64);
        let (theory, _) = w.orders_theory(r);

        let mut db = LogicalDatabase::from_theory(theory.clone(), DbOptions::default());
        let mut tag = 0;
        let mut library = Vec::with_capacity(runs);
        for _ in 0..runs {
            let start = Instant::now();
            for _ in 0..writes {
                db.execute(&statement(tag)).expect("update applies");
                tag += 1;
            }
            library.push(start.elapsed() / writes as u32);
        }

        let (mut durable, _) = DurableDatabase::open(
            MemStorage::new(),
            DbOptions::default(),
            WalOptions::default(),
        )
        .expect("fresh storage opens");
        *durable.db_mut() = LogicalDatabase::from_theory(theory, DbOptions::default());
        durable.checkpoint().expect("checkpoint");
        let mut shipped = Vec::with_capacity(runs);
        for _ in 0..runs {
            let start = Instant::now();
            for _ in 0..writes {
                durable.execute(&statement(tag)).expect("update applies");
                tag += 1;
            }
            shipped.push(start.elapsed() / writes as u32);
        }

        let mut pinned = TheorySnapshot::capture(durable.db().theory()).reader();
        let mut advance = Vec::with_capacity(runs);
        for _ in 0..runs {
            let mut spent = Duration::ZERO;
            for _ in 0..writes {
                durable.execute(&statement(tag)).expect("update applies");
                let snapshot = TheorySnapshot::capture(durable.db().theory());
                // Released after the timed advance: freeing the chunks the
                // write copied is the old generation's cost, as the build
                // column does not time dropping a reader either.
                let previous = pinned.snapshot().clone();
                let start = Instant::now();
                pinned = pinned.advance(snapshot);
                spent += start.elapsed();
                drop(previous);
                let probe = format!("Orders(w{tag}, 32, 1)");
                let verdict = pinned.decide(&probe).expect("probe parses");
                assert_eq!(verdict, (true, true), "the written tuple is certain");
                tag += 1;
            }
            advance.push(spent / writes as u32);
        }
        drop(pinned);

        // The follower starts from the durable database's current state,
        // as a replica bootstrapped from a checkpoint would.
        durable.enable_shipping();
        let mut follower = durable.db().clone();
        let mut published = follower.theory().generation();
        let mut replica = Vec::with_capacity(runs);
        for _ in 0..runs {
            for _ in 0..writes {
                durable.execute(&statement(tag)).expect("update applies");
                tag += 1;
            }
            let batch = durable.drain_shipping();
            let start = Instant::now();
            for entry in &batch {
                replay_record(&mut follower, &entry.record).expect("record replays");
                follower.theory_mut().advance_generation_past(published);
                published = TheorySnapshot::capture(follower.theory()).generation();
            }
            replica.push(start.elapsed() / writes as u32);
        }

        let snapshot = TheorySnapshot::capture(durable.db().theory());
        let probe = format!("Orders(w{}, 32, 1)", tag - 1);
        let mut reader_new = Vec::with_capacity(runs);
        let mut first_decide = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (mut build, mut decide) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..writes {
                let start = Instant::now();
                let mut reader = snapshot.reader();
                build += start.elapsed();
                let start = Instant::now();
                let verdict = reader.decide(&probe).expect("probe parses");
                decide += start.elapsed();
                assert_eq!(verdict, (true, true), "the written tuple is certain");
            }
            reader_new.push(build / writes as u32);
            first_decide.push(decide / writes as u32);
        }
        table.row(vec![
            r.to_string(),
            fmt_us(median(&mut library)),
            fmt_us(median(&mut shipped)),
            fmt_us(median(&mut replica)),
            fmt_us(median(&mut reader_new)),
            fmt_us(median(&mut advance)),
            fmt_us(median(&mut first_decide)),
        ]);
    }
    table.note(format!(
        "median of {runs} runs x {writes} writes (readers); expected shape: writes flat in R \
         (copy-on-write storage and occurrence-scoped simplify keep each write O(changed)); \
         a reader's build linear in R at one root assignment per stored fact, its advance \
         across one write (amortized rebuilds included) far below the build, its first \
         decide flat"
    ));
    table
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// E4 — §3.6: the theory grows O(g) per update.
pub fn e4(reps: usize) -> Table {
    let mut table = Table::new(
        "E4",
        "store growth per update (claim: O(g) nodes, independent of R)",
        &["R", "g", "nodes/update", "nodes/(g)"],
    );
    for &r in &[1024usize, 16384] {
        for &g in &[1usize, 2, 4, 8, 16, 32, 64] {
            let mut w = Workload::new(0xE4 + g as u64);
            let (mut theory, atoms) = w.orders_theory(r);
            let updates: Vec<Update> = (0..reps)
                .map(|i| w.conjunctive_insert(&mut theory, &atoms, g, i))
                .collect();
            let mut engine =
                GuaEngine::new(theory, GuaOptions::simplify_always(SimplifyLevel::None));
            let before = engine.theory.store.size_nodes();
            for u in &updates {
                engine.apply(u).expect("update applies");
            }
            let grown = engine.theory.store.size_nodes() - before;
            let per_update = grown as f64 / reps as f64;
            table.row(vec![
                r.to_string(),
                g.to_string(),
                format!("{per_update:.1}"),
                format!("{:.2}", per_update / g as f64),
            ]);
        }
    }
    table.note("expected shape: nodes/update linear in g (ratio ~constant), independent of R");
    table
}

/// E5 — §3.6: dependency instantiation is O(g·R) worst case (every tuple
/// conflicts) and O(g·log R) best case (no conflicts).
pub fn e5(reps: usize) -> Table {
    let mut table = Table::new(
        "E5",
        "FD instantiation: engineered worst vs best case",
        &[
            "R",
            "worst µs/upd",
            "best µs/upd",
            "worst/best",
            "worst instances",
        ],
    );
    for &r in &[64usize, 256, 1024, 4096] {
        // Worst case: every existing tuple shares the inserted key.
        let mut w = Workload::new(0xE5);
        let (mut theory, _) = w.fd_theory_worst(r);
        let updates: Vec<Update> = (0..reps)
            .map(|i| w.fd_insert(&mut theory, true, i))
            .collect();
        let mut engine = GuaEngine::new(theory, GuaOptions::simplify_always(SimplifyLevel::None));
        let start = Instant::now();
        let mut instances = 0usize;
        for u in &updates {
            instances += engine.apply(u).expect("update applies").dep_instances;
        }
        let worst = start.elapsed() / reps as u32;
        let worst_instances = instances / reps;

        // Best case: fresh keys, no joins.
        let mut w = Workload::new(0xE5);
        let (mut theory, _) = w.fd_theory_best(r);
        let updates: Vec<Update> = (0..reps)
            .map(|i| w.fd_insert(&mut theory, false, i))
            .collect();
        let mut engine = GuaEngine::new(theory, GuaOptions::simplify_always(SimplifyLevel::None));
        let start = Instant::now();
        for u in &updates {
            engine.apply(u).expect("update applies");
        }
        let best = start.elapsed() / reps as u32;

        table.row(vec![
            r.to_string(),
            fmt_us(worst),
            fmt_us(best),
            format!("{:.1}", worst.as_secs_f64() / best.as_secs_f64().max(1e-9)),
            worst_instances.to_string(),
        ]);
    }
    table.note("expected shape: worst/best ratio grows ~linearly with R; worst instances ≈ 2R");
    table
}

/// E6 — §4: simplification keeps the theory small and queries fast under
/// update churn; without it the theory grows without bound.
pub fn e6(steps: usize) -> Table {
    let mut table = Table::new(
        "E6",
        "simplification under churn (insert-disjunction + ASSERT cycles)",
        &[
            "level",
            "steps",
            "final nodes",
            "final wffs",
            "update ms",
            "query µs",
        ],
    );
    for (label, level) in [
        ("none", SimplifyLevel::None),
        ("fast", SimplifyLevel::Fast),
        ("full", SimplifyLevel::Full),
    ] {
        let mut t = Theory::new();
        let r = t.declare_relation("R", 1).expect("fresh schema");
        let mut ids = Vec::new();
        for i in 0..6 {
            let c = t.constant(&format!("c{i}"));
            let id = t.atom(r, &[c]);
            if i == 0 {
                t.assert_atom(id);
            } else {
                t.assert_not_atom(id);
            }
            ids.push(id);
        }
        let mut engine = GuaEngine::new(t, GuaOptions::simplify_always(level));
        let mut rng = Rng(0xE6);
        let start = Instant::now();
        for i in 0..steps {
            let a = ids[rng.below(ids.len())];
            let b = ids[rng.below(ids.len())];
            engine
                .apply(&Update::insert(
                    Formula::Or(vec![Wff::Atom(a), Wff::Atom(b)]),
                    Wff::t(),
                ))
                .expect("update applies");
            let keep = ids[(i + 1) % ids.len()];
            engine
                .apply(&Update::assert(Formula::Or(vec![
                    Wff::Atom(keep),
                    Wff::Atom(keep).not(),
                ])))
                .expect("assert applies");
            // Every few steps, pin something down.
            if i % 3 == 0 {
                engine
                    .apply(&Update::assert(Wff::Atom(ids[i % ids.len()])))
                    .expect("assert applies");
            }
        }
        let update_time = start.elapsed();
        let probe = Wff::or2(Wff::Atom(ids[0]), Wff::Atom(ids[1]));
        let start = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            std::hint::black_box(engine.theory.entails(&probe));
        }
        let query_time = start.elapsed() / reps;
        table.row(vec![
            label.into(),
            steps.to_string(),
            engine.theory.store.size_nodes().to_string(),
            engine.theory.store.len().to_string(),
            format!("{:.1}", update_time.as_secs_f64() * 1e3),
            fmt_us(query_time),
        ]);
    }
    table.note(
        "expected shape: nodes grow ~linearly with steps at level none; stay bounded at fast/full",
    );
    table
}

/// E7 — branching updates: GUA stays polynomial while the possible-worlds
/// baseline is exponential in the number of branching updates.
pub fn e7(max_k: usize) -> Table {
    let mut table = Table::new(
        "E7",
        "k branching updates: GUA vs possible-worlds baseline",
        &[
            "k",
            "worlds",
            "GUA µs",
            "baseline µs",
            "GUA query µs",
            "baseline query µs",
        ],
    );
    for k in 1..=max_k {
        let mut w = Workload::new(0xE7);
        let (mut theory, _) = w.orders_theory(4);
        let updates: Vec<Update> = (0..k)
            .map(|i| w.disjunctive_insert(&mut theory, 2, i))
            .collect();
        let before = theory.clone();

        // GUA path (best of 3 to damp one-shot jitter).
        let mut gua_time = Duration::MAX;
        let mut engine = GuaEngine::new(
            before.clone(),
            GuaOptions::simplify_always(SimplifyLevel::Fast),
        );
        for _ in 0..3 {
            let mut candidate = GuaEngine::new(
                before.clone(),
                GuaOptions::simplify_always(SimplifyLevel::Fast),
            );
            let start = Instant::now();
            for u in &updates {
                candidate.apply(u).expect("update applies");
            }
            let elapsed = start.elapsed();
            if elapsed < gua_time {
                gua_time = elapsed;
                engine = candidate;
            }
        }
        let _ = theory;

        // Baseline path.
        let start = Instant::now();
        let mut baseline =
            WorldsEngine::from_theory(&before, ModelLimit::default()).expect("materializes");
        baseline
            .apply_all(&updates, &engine.theory)
            .expect("baseline applies");
        let baseline_time = start.elapsed();

        // A certain-truth probe on both.
        let probe = { updates[0].to_insert().omega };
        let start = Instant::now();
        std::hint::black_box(engine.theory.entails(&probe));
        let gua_query = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(baseline.entails(&probe));
        let baseline_query = start.elapsed();

        table.row(vec![
            k.to_string(),
            baseline.len().to_string(),
            fmt_us(gua_time),
            fmt_us(baseline_time),
            fmt_us(gua_query),
            fmt_us(baseline_query),
        ]);
    }
    table.note(
        "expected shape: worlds ≈ 3^k; baseline time exponential in k; GUA time ~linear in k",
    );
    table
}

/// E8 — the §4 strawman: replay-log recompute vs eager GUA+simplify, as
/// the log grows.
pub fn e8(max_log: usize) -> Table {
    let mut table = Table::new(
        "E8",
        "query cost vs update-log length: replay strawman vs GUA+simplify",
        &[
            "log len",
            "eager query µs",
            "replay query µs",
            "eager nodes",
            "replay nodes",
        ],
    );
    let mut len = 4usize;
    while len <= max_log {
        let mut w = Workload::new(0xE8);
        let (theory, atoms) = w.orders_theory(16);
        let mut eager = GuaEngine::new(
            theory.clone(),
            GuaOptions::simplify_always(SimplifyLevel::Fast),
        );
        let mut replay = ReplayDatabase::new(theory.clone());
        let mut scratch = theory;
        for i in 0..len {
            let u = if i % 4 == 3 {
                w.disjunctive_insert(&mut scratch, 2, i)
            } else {
                w.conjunctive_insert(&mut scratch, &atoms, 4, i)
            };
            // Share the language so atom ids line up in all copies.
            eager.theory.vocab = scratch.vocab.clone();
            eager.theory.atoms = scratch.atoms.clone();
            eager.apply(&u).expect("update applies");
            replay
                .update_synced(u, &scratch)
                .expect("update shares the workload lineage");
        }
        let probe = Wff::Atom(atoms[0]);
        let start = Instant::now();
        std::hint::black_box(eager.theory.entails(&probe));
        let eager_q = start.elapsed();
        let start = Instant::now();
        let materialized = replay.materialize().expect("replay materializes");
        std::hint::black_box(materialized.entails(&probe));
        let replay_q = start.elapsed();
        table.row(vec![
            len.to_string(),
            fmt_us(eager_q),
            fmt_us(replay_q),
            eager.theory.store.size_nodes().to_string(),
            materialized.store.size_nodes().to_string(),
        ]);
        len *= 2;
    }
    table.note(
        "expected shape: replay query cost grows ~linearly with log length; eager stays ~flat",
    );
    table
}

/// E9 — semantics ablation: the PODS-1986 semantics vs the PMA
/// (minimal-change) semantics the paper's §3.4 foreshadows. Measures how
/// the two diverge as disjunctive updates accumulate: world counts and the
/// number of atoms that remain certain.
pub fn e9(max_k: usize) -> Table {
    let mut table = Table::new(
        "E9",
        "semantics ablation: PODS-1986 vs PMA (minimal change)",
        &[
            "k",
            "1986 worlds",
            "PMA worlds",
            "1986 certain atoms",
            "PMA certain atoms",
        ],
    );
    for k in 1..=max_k {
        let mut w = Workload::new(0xE9);
        let (mut theory, base_atoms) = w.orders_theory(4);
        // Updates that partially overlap what is already true: ω = known ∨ new.
        let updates: Vec<Update> = (0..k)
            .map(|i| {
                let known = base_atoms[i % base_atoms.len()];
                let fresh = w.fresh_orders_atom(&mut theory, 7000 + i);
                Update::insert(
                    Formula::Or(vec![Wff::Atom(known), Wff::Atom(fresh)]),
                    Wff::t(),
                )
            })
            .collect();
        let mut std_engine =
            WorldsEngine::from_theory(&theory, ModelLimit::default()).expect("materializes");
        let mut pma_engine = std_engine.clone();
        for u in &updates {
            std_engine.apply(u, &theory).expect("std applies");
            pma_engine.apply_pma(u, &theory).expect("pma applies");
        }
        let certain = |e: &WorldsEngine| {
            (0..theory.num_atoms())
                .filter(|&i| {
                    let wff = Wff::Atom(AtomId(i as u32));
                    e.entails(&wff)
                })
                .count()
        };
        table.row(vec![
            k.to_string(),
            std_engine.len().to_string(),
            pma_engine.len().to_string(),
            certain(&std_engine).to_string(),
            certain(&pma_engine).to_string(),
        ]);
    }
    table.note("expected shape: 1986 worlds grow ~2^k (it forgets the known disjunct); PMA stays at 1 world and keeps everything certain");
    table
}

// ---------------------------------------------------------------------------
// shared randomized generators (xorshift for determinism, no external deps)
// ---------------------------------------------------------------------------

/// Deterministic xorshift RNG for the experiment generators.
pub struct Rng(pub u64);

impl Rng {
    /// Next raw value.
    #[allow(clippy::should_implement_trait)] // not an Iterator
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_wff(rng: &mut Rng, num_atoms: usize, depth: usize) -> Wff {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(8) {
            0 => Wff::t(),
            1 => Wff::f(),
            _ => {
                let a = Wff::Atom(AtomId(rng.below(num_atoms) as u32));
                if rng.below(2) == 0 {
                    a
                } else {
                    a.not()
                }
            }
        };
    }
    match rng.below(4) {
        0 => random_wff(rng, num_atoms, depth - 1).not(),
        1 => Formula::And(vec![
            random_wff(rng, num_atoms, depth - 1),
            random_wff(rng, num_atoms, depth - 1),
        ]),
        2 => Formula::Or(vec![
            random_wff(rng, num_atoms, depth - 1),
            random_wff(rng, num_atoms, depth - 1),
        ]),
        _ => Wff::implies(
            random_wff(rng, num_atoms, depth - 1),
            random_wff(rng, num_atoms, depth - 1),
        ),
    }
}

fn random_update_small(rng: &mut Rng, num_atoms: usize) -> Update {
    match rng.below(4) {
        0 => Update::insert(random_wff(rng, num_atoms, 2), random_wff(rng, num_atoms, 2)),
        1 => Update::delete(
            AtomId(rng.below(num_atoms) as u32),
            random_wff(rng, num_atoms, 1),
        ),
        2 => Update::modify(
            AtomId(rng.below(num_atoms) as u32),
            random_wff(rng, num_atoms, 1),
            random_wff(rng, num_atoms, 1),
        ),
        _ => Update::assert(random_wff(rng, num_atoms, 2)),
    }
}

fn random_theory(rng: &mut Rng) -> (Theory, Vec<AtomId>) {
    let mut t = Theory::new();
    let r = t.declare_relation("R", 1).expect("fresh schema");
    let n = 3 + rng.below(3);
    let mut ids = Vec::new();
    for i in 0..n {
        let c = t.constant(&format!("c{i}"));
        ids.push(t.atom(r, &[c]));
    }
    for _ in 0..(1 + rng.below(3)) {
        let w = random_wff(rng, n, 3);
        t.assert_wff(&w);
    }
    for &id in &ids {
        t.register_atom(id);
    }
    (t, ids)
}

fn random_update(rng: &mut Rng, ids: &[AtomId]) -> Update {
    match rng.below(4) {
        0 => Update::insert(random_wff(rng, ids.len(), 2), random_wff(rng, ids.len(), 2)),
        1 => Update::delete(ids[rng.below(ids.len())], random_wff(rng, ids.len(), 1)),
        2 => Update::modify(
            ids[rng.below(ids.len())],
            random_wff(rng, ids.len(), 1),
            random_wff(rng, ids.len(), 1),
        ),
        _ => Update::assert(random_wff(rng, ids.len(), 2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_small_run_is_exact() {
        let t = e1(10);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e2_small_run_is_exact() {
        let t = e2(20);
        assert_eq!(t.rows[0][1], "20");
    }

    #[test]
    fn e4_growth_is_linear_in_g() {
        let t = e4(10);
        // nodes/g ratio column should be bounded (constant-ish): spread
        // between min and max ratio within a factor of 6.
        let ratios: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].parse::<f64>().unwrap())
            .collect();
        let lo = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo < 6.0, "ratios: {ratios:?}");
    }

    #[test]
    fn e5_worst_case_produces_instances() {
        let t = e5(3);
        let worst_instances: usize = t.rows[0][4].parse().unwrap();
        assert!(worst_instances >= 64);
    }

    #[test]
    fn e6_simplification_bounds_growth() {
        let t = e6(20);
        let nodes: Vec<usize> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // none > fast ≥ full.
        assert!(nodes[0] > nodes[1], "{nodes:?}");
        assert!(nodes[1] >= nodes[2], "{nodes:?}");
    }

    #[test]
    fn e8_replay_store_grows_with_log() {
        let t = e8(16);
        let replay_nodes: Vec<usize> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            replay_nodes.windows(2).all(|w| w[0] < w[1]),
            "{replay_nodes:?}"
        );
    }

    #[test]
    fn e9_pma_stays_single_world() {
        let t = e9(3);
        for row in &t.rows {
            assert_eq!(row[2], "1", "PMA world count");
        }
        let w1986: Vec<usize> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert_eq!(w1986, vec![3, 9, 27]);
    }

    #[test]
    fn e7_world_counts_are_exponential() {
        let t = e7(4);
        let worlds: Vec<usize> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert_eq!(worlds, vec![3, 9, 27, 81]);
    }
}
