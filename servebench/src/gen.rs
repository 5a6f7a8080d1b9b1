//! Seeded operation scripts. Everything the server receives is generated
//! here from `(workload, seed, trial)`; the same triple always yields the
//! same bytes (see the tests at the bottom).
//!
//! Every workload uses the paper's `Orders(order,part,qty)` /
//! `InStock(part,bin)` schema. `R` counts the base facts loaded into the
//! seeded checkpoint before the server starts.

/// The four traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadMostly,
    LargeStoreWrites,
    TxnContended,
    ReplicaRyw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadMostly,
        Workload::LargeStoreWrites,
        Workload::TxnContended,
        Workload::ReplicaRyw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read_mostly",
            Workload::LargeStoreWrites => "large_store_writes",
            Workload::TxnContended => "txn_contended",
            Workload::ReplicaRyw => "replica_ryw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Base facts in the seeded checkpoint.
    pub fn base_facts(self) -> usize {
        match self {
            Workload::ReadMostly | Workload::TxnContended => 1_024,
            Workload::LargeStoreWrites => 16_384,
            Workload::ReplicaRyw => 4_096,
        }
    }
}

/// Branching updates applied to the `read_mostly` seed store, so certain
/// and possible answers differ and every check does real SAT work.
pub const READ_BRANCHES: usize = 32;
/// Reads connection A sends per `read_mostly` trial (closed loop).
pub const READ_OPS: usize = 6_000;
/// Writes connection B sends per `read_mostly` trial (open loop).
pub const READ_WRITES: usize = 40;
/// Open-loop writer rate of `read_mostly`, writes per second.
pub const READ_WRITE_RATE: f64 = 20.0;
/// Atoms the `read_mostly` writer toggles.
pub const READ_POOL: usize = 64;

/// Writes each of the two `large_store_writes` connections sends per trial.
pub const LARGE_WRITES_PER_CONN: usize = 60;

/// Transactions each `txn_contended` connection runs per trial.
pub const TXNS_PER_CONN: usize = 32;
/// Statements per transaction.
pub const TXN_LEN: usize = 8;
/// Shared atom pool the transactions contend on.
pub const TXN_POOL: usize = 32;
/// Every this-many-th transaction ends in a client `ROLLBACK`.
pub const TXN_ROLLBACK_EVERY: usize = 16;

/// Read-your-write rounds per `replica_ryw` trial.
pub const RYW_ROUNDS: usize = 160;
/// Every this-many-th round writes a transaction instead of one statement.
pub const RYW_TXN_EVERY: usize = 8;
/// Statements in a `replica_ryw` transaction.
pub const RYW_TXN_LEN: usize = 4;

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives the seed of one trial from the run seed.
pub fn trial_seed(seed: u64, trial: usize) -> u64 {
    Rng::new(seed ^ (trial as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// A ground `Orders` fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Order {
    pub order: u64,
    pub part: u64,
    pub qty: u64,
}

impl Order {
    pub fn atom(&self) -> String {
        format!("Orders({},{},{})", self.order, self.part, self.qty)
    }
}

/// The seeded store: base facts plus the statements applied before the
/// checkpoint is taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Store {
    pub orders: Vec<Order>,
    /// `(part, bin)` pairs.
    pub stock: Vec<(u64, u64)>,
    /// LDML statements applied after the facts (the `read_mostly` branches).
    pub statements: Vec<String>,
}

#[cfg(test)]
impl Store {
    pub fn facts(&self) -> usize {
        self.orders.len() + self.stock.len()
    }
}

/// What a read must answer, when the script can know it in advance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `(possible, certain)` of a `Check`.
    Truth(bool, bool),
    /// Sorted certain and possible rows of a `Query`.
    Rows(Vec<Vec<String>>, Vec<Vec<String>>),
    /// `Explain` verdict: `Some(true)` certain, `Some(false)` impossible,
    /// `None` uncertain.
    Verdict(Option<bool>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    Check,
    Query,
    Explain,
}

/// One step of one connection's script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    Read {
        kind: ReadKind,
        src: String,
        expect: Option<Expect>,
    },
    /// One plain `Execute`.
    Write(String),
    /// `BEGIN`, the statements, `COMMIT` (or `ROLLBACK`), then one `Check`
    /// of `check` on the same connection.
    Txn {
        stmts: Vec<String>,
        rollback: bool,
        check: String,
    },
    /// Write to the primary (one statement, or a transaction when `txn`),
    /// `PinAt` the acknowledged LSN on the replica, then `Check` there.
    Ryw {
        stmts: Vec<String>,
        txn: bool,
        check: String,
        expect: (bool, bool),
    },
}

/// Everything one trial sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    pub workload: Workload,
    pub store: Store,
    /// One step list per client connection.
    pub conns: Vec<Vec<Step>>,
    /// Ground wffs whose final `(possible, certain)` answers are compared
    /// between the served run and the reopened directory.
    pub probes: Vec<String>,
}

#[cfg(test)]
impl Script {
    /// Deterministic text form: the bytes the determinism tests compare.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "workload {}", self.workload.name());
        for o in &self.store.orders {
            let _ = writeln!(out, "fact {}", o.atom());
        }
        for (p, b) in &self.store.stock {
            let _ = writeln!(out, "fact InStock({p},{b})");
        }
        for s in &self.store.statements {
            let _ = writeln!(out, "seed {s}");
        }
        for (c, steps) in self.conns.iter().enumerate() {
            for s in steps {
                let _ = writeln!(out, "conn{c} {s:?}");
            }
        }
        for p in &self.probes {
            let _ = writeln!(out, "probe {p}");
        }
        out
    }

    pub fn write_statements(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .map(|s| match s {
                Step::Read { .. } => 0,
                Step::Write(_) => 1,
                Step::Txn { stmts, .. } | Step::Ryw { stmts, .. } => stmts.len(),
            })
            .sum()
    }
}

// Every constant a request names must already be known to the server
// (reads parse strictly), so the store's order ids are dense from 0 and
// every other number the scripts use lies below the order count. Atoms
// outside the store use values base facts never take: quantities 10..19
// and bins 16..31.

/// Quantity of every freshly inserted order (base quantities are 1..=9).
const FRESH_QTY: u64 = 10;
/// Bin of every pool atom (base bins are 0..16).
const POOL_BIN: u64 = 20;

fn seed_store(r: usize, rng: &mut Rng) -> Store {
    let parts = (r / 4).max(1);
    let orders = (0..(r - parts) as u64)
        .map(|order| Order {
            order,
            part: rng.below(parts) as u64,
            qty: 1 + rng.below(9) as u64,
        })
        .collect();
    let stock = (0..parts as u64)
        .map(|p| (p, rng.below(16) as u64))
        .collect();
    Store {
        orders,
        stock,
        statements: Vec::new(),
    }
}

fn pool(k: usize) -> String {
    format!("InStock({k},{POOL_BIN})")
}

/// Generates the script of one trial.
pub fn generate(workload: Workload, seed: u64, trial: usize) -> Script {
    let mut rng = Rng::new(trial_seed(seed, trial));
    let store = seed_store(workload.base_facts(), &mut rng);
    match workload {
        Workload::ReadMostly => read_mostly(store, &mut rng),
        Workload::LargeStoreWrites => large_store_writes(store, &mut rng),
        Workload::TxnContended => txn_contended(store, &mut rng),
        Workload::ReplicaRyw => replica_ryw(store, &mut rng),
    }
}

fn read_mostly(mut store: Store, rng: &mut Rng) -> Script {
    let parts = store.stock.len() as u64;
    // Branch on parts the order does not hold, so the base fact never
    // answers the branch's query.
    let branches: Vec<(u64, u64)> = (0..READ_BRANCHES)
        .map(|_| {
            let o = store.orders[rng.below(store.orders.len())];
            (o.order, (o.part + 1) % parts)
        })
        .collect();
    for (o, p) in &branches {
        store.statements.push(format!(
            "INSERT Orders({o},{p},11) | Orders({o},{p},17) WHERE T"
        ));
    }

    let mut reads = Vec::with_capacity(READ_OPS);
    for _ in 0..READ_OPS {
        let roll = rng.below(100);
        let (o, p) = branches[rng.below(branches.len())];
        let step = if roll < 70 {
            let (src, expect) = match rng.below(5) {
                0 => {
                    let f = store.orders[rng.below(store.orders.len())];
                    (f.atom(), Some(Expect::Truth(true, true)))
                }
                1 => (
                    format!("Orders({o},{p},11)"),
                    Some(Expect::Truth(true, false)),
                ),
                2 => (
                    format!("Orders({o},{p},11) | Orders({o},{p},17)"),
                    Some(Expect::Truth(true, true)),
                ),
                3 => (
                    format!("Orders({o},{p},{FRESH_QTY})"),
                    Some(Expect::Truth(false, false)),
                ),
                _ => (pool(rng.below(READ_POOL)), None),
            };
            Step::Read {
                kind: ReadKind::Check,
                src,
                expect,
            }
        } else if roll < 90 {
            Step::Read {
                kind: ReadKind::Query,
                src: format!("Orders({o}, {p}, ?q)"),
                expect: Some(Expect::Rows(
                    Vec::new(),
                    vec![vec!["11".into()], vec!["17".into()]],
                )),
            }
        } else {
            Step::Read {
                kind: ReadKind::Explain,
                src: format!("Orders({o},{p},17)"),
                expect: Some(Expect::Verdict(None)),
            }
        };
        reads.push(step);
    }
    let mut writes = Vec::with_capacity(READ_WRITES);
    let mut k = 0;
    for i in 0..READ_WRITES {
        if i % 2 == 0 {
            k = rng.below(READ_POOL);
            writes.push(Step::Write(format!("INSERT {} WHERE T", pool(k))));
        } else {
            writes.push(Step::Write(format!("DELETE {} WHERE T", pool(k))));
        }
    }
    let mut probes: Vec<String> = (0..READ_POOL).map(pool).collect();
    probes.extend(branches.iter().map(|(o, p)| format!("Orders({o},{p},11)")));
    Script {
        workload: Workload::ReadMostly,
        store,
        conns: vec![reads, writes],
        probes,
    }
}

fn large_store_writes(store: Store, rng: &mut Rng) -> Script {
    let parts = store.stock.len();
    let mut conns = Vec::new();
    let mut probes = Vec::new();
    for c in 0..2u64 {
        // Each connection owns the orders of its parity, so the two
        // footprints are disjoint and the batcher may coalesce them.
        let mut owned: Vec<Order> = store
            .orders
            .iter()
            .copied()
            .filter(|o| o.order % 2 == c)
            .collect();
        let mut fresh = owned.clone().into_iter().map(|o| o.order);
        let mut steps = Vec::with_capacity(LARGE_WRITES_PER_CONN);
        for i in 0..LARGE_WRITES_PER_CONN {
            let roll = rng.below(100);
            let part = rng.below(parts) as u64;
            let order = fresh.next().expect("more owned orders than writes");
            let stmt = if roll < 85 {
                let o = Order {
                    order,
                    part,
                    qty: FRESH_QTY,
                };
                probes.push(o.atom());
                format!("INSERT {} WHERE T", o.atom())
            } else if roll < 95 {
                let victim = owned.swap_remove(rng.below(owned.len()));
                probes.push(victim.atom());
                if i % 2 == 0 {
                    format!("DELETE {} WHERE T", victim.atom())
                } else {
                    let to = Order {
                        qty: victim.qty + FRESH_QTY,
                        ..victim
                    };
                    probes.push(to.atom());
                    format!("MODIFY {} TO BE {} WHERE T", victim.atom(), to.atom())
                }
            } else {
                let (sp, sb) = store.stock[rng.below(store.stock.len())];
                probes.push(format!("Orders({order},{part},11)"));
                format!(
                    "INSERT Orders({order},{part},11) | Orders({order},{part},17) WHERE InStock({sp},{sb})"
                )
            };
            steps.push(Step::Write(stmt));
        }
        conns.push(steps);
    }
    Script {
        workload: Workload::LargeStoreWrites,
        store,
        conns,
        probes,
    }
}

fn txn_contended(store: Store, rng: &mut Rng) -> Script {
    let mut conns = Vec::new();
    for _ in 0..2 {
        let mut steps = Vec::with_capacity(TXNS_PER_CONN);
        for t in 0..TXNS_PER_CONN {
            // Distinct pool atoms, touched in ascending order: the two
            // connections wait on each other but can never deadlock.
            let mut picks: Vec<usize> = Vec::with_capacity(TXN_LEN);
            while picks.len() < TXN_LEN {
                let k = rng.below(TXN_POOL);
                if !picks.contains(&k) {
                    picks.push(k);
                }
            }
            picks.sort_unstable();
            let stmts: Vec<String> = picks
                .iter()
                .map(|&k| {
                    let verb = if rng.below(2) == 0 {
                        "INSERT"
                    } else {
                        "DELETE"
                    };
                    format!("{verb} {} WHERE T", pool(k))
                })
                .collect();
            steps.push(Step::Txn {
                stmts,
                rollback: t % TXN_ROLLBACK_EVERY == TXN_ROLLBACK_EVERY - 1,
                check: pool(picks[0]),
            });
        }
        conns.push(steps);
    }
    Script {
        workload: Workload::TxnContended,
        store,
        conns,
        probes: (0..TXN_POOL).map(pool).collect(),
    }
}

fn replica_ryw(store: Store, rng: &mut Rng) -> Script {
    let parts = store.stock.len();
    let mut fresh = store.orders.iter().map(|o| o.order);
    let mut live: Vec<Order> = Vec::new();
    let mut steps = Vec::with_capacity(RYW_ROUNDS);
    let mut probes = Vec::new();
    for round in 0..RYW_ROUNDS {
        let txn = round % RYW_TXN_EVERY == RYW_TXN_EVERY - 1;
        let n = if txn { RYW_TXN_LEN } else { 1 };
        let mut stmts = Vec::with_capacity(n);
        let mut last = (String::new(), false);
        for _ in 0..n {
            // Three inserts of fresh orders for every delete of one this
            // script inserted earlier.
            if !live.is_empty() && rng.below(4) == 0 {
                let victim = live.swap_remove(rng.below(live.len()));
                stmts.push(format!("DELETE {} WHERE T", victim.atom()));
                last = (victim.atom(), false);
            } else {
                let o = Order {
                    order: fresh.next().expect("more orders than rounds"),
                    part: rng.below(parts) as u64,
                    qty: FRESH_QTY,
                };
                live.push(o);
                stmts.push(format!("INSERT {} WHERE T", o.atom()));
                last = (o.atom(), true);
            }
            probes.push(last.0.clone());
        }
        steps.push(Step::Ryw {
            stmts,
            txn,
            check: last.0,
            expect: (last.1, last.1),
        });
    }
    Script {
        workload: Workload::ReplicaRyw,
        store,
        conns: vec![steps],
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        for w in Workload::ALL {
            for trial in 0..2 {
                let a = generate(w, 7, trial).render();
                let b = generate(w, 7, trial).render();
                assert_eq!(a.as_bytes(), b.as_bytes(), "{}", w.name());
            }
        }
    }

    #[test]
    fn different_seed_or_trial_gives_a_different_script() {
        for w in Workload::ALL {
            let base = generate(w, 7, 0).render();
            assert_ne!(base, generate(w, 8, 0).render(), "{}", w.name());
            assert_ne!(base, generate(w, 7, 1).render(), "{}", w.name());
        }
    }

    #[test]
    fn sizes_are_fixed_by_the_workload_not_the_seed() {
        for w in Workload::ALL {
            let a = generate(w, 1, 0);
            let b = generate(w, 99, 3);
            assert_eq!(a.store.facts(), w.base_facts());
            assert_eq!(a.store.facts(), b.store.facts());
            assert_eq!(a.write_statements(), b.write_statements());
            let steps = |s: &Script| s.conns.iter().map(Vec::len).collect::<Vec<_>>();
            assert_eq!(steps(&a), steps(&b));
        }
    }

    #[test]
    fn transactions_touch_the_pool_in_ascending_order() {
        let s = generate(Workload::TxnContended, 3, 0);
        for step in s.conns.iter().flatten() {
            let Step::Txn { stmts, .. } = step else {
                panic!("txn_contended sends only transactions");
            };
            let keys: Vec<&str> = stmts
                .iter()
                .map(|s| s.split_whitespace().nth(1).expect("atom"))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_by_key(|k| {
                k.trim_start_matches("InStock(")
                    .split(',')
                    .next()
                    .and_then(|n| n.parse::<u64>().ok())
            });
            sorted.dedup();
            assert_eq!(keys, sorted);
        }
    }
}
