//! One served trial: seed a store, start the release server (and, for
//! `replica_ryw`, a replica), drive the script over TCP, `SIGKILL`, and
//! check the reopened directory against what the server acknowledged.

use crate::gen::{Expect, ReadKind, Script, Step, Workload, READ_WRITE_RATE};
use crate::proc::{until, ServerProc};
use crate::store;
use crate::trace::{Samples, Tracer};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use winslett_serve::{
    Client, ClientError, ErrorKindWire, Request, Response, StatsReply, WireVerdict,
};

/// `PinAt` attempts before a lagging replica counts as a failure.
const PINAT_RETRY_BUDGET: u64 = 20_000;
/// Fixed back-off between `PinAt` attempts.
const PINAT_BACKOFF: Duration = Duration::from_micros(100);
/// Latency recorded for a failed or refused operation: it misses every
/// latency limit.
pub const MISSED_US: f64 = 1e12;

/// What one connection observed.
#[derive(Default)]
pub struct ConnLog {
    pub lat: Samples,
    pub attempted: u64,
    pub failures: BTreeMap<String, u64>,
    pub mismatches: Vec<String>,
    /// How late the open-loop pacer sent each write, ms.
    pub late_ms: Vec<f64>,
    pub max_acked_lsn: u64,
    /// `(commit lsn, statements)` of every committed transaction.
    pub committed: Vec<(u64, Vec<String>)>,
    pub committed_stmts: u64,
    pub pinat_retries: u64,
    /// Wall time of this connection's script, s.
    pub busy_s: f64,
    /// Every request sent and response received (traced runs only).
    pub frames: Vec<(Request, Response)>,
    pub tracer: Option<Tracer>,
}

impl ConnLog {
    fn new(tracer: Option<Tracer>) -> Self {
        ConnLog {
            tracer,
            ..ConnLog::default()
        }
    }

    fn fail(&mut self, kind: String) {
        *self.failures.entry(kind).or_default() += 1;
    }

    fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 16 {
            self.mismatches.push(what);
        }
    }

    /// Sends one request, counting it; typed errors come back as `Err`.
    fn call(
        &mut self,
        client: &mut Client,
        req: Request,
        span: &'static str,
        parent: u64,
    ) -> Result<Response, ErrorKindWire> {
        self.attempted += 1;
        let start = Instant::now();
        let resp = client.request(&req);
        if let Some(t) = self.tracer.as_mut() {
            let id = t.next_id();
            t.record(id, parent, span, start);
        }
        match resp {
            Ok(Response::Error(e)) => {
                if e.kind != ErrorKindWire::LagBehind {
                    self.fail(format!("{:?}", e.kind));
                }
                if self.tracer.is_some() {
                    self.frames.push((req, Response::Error(e.clone())));
                }
                Err(e.kind)
            }
            Ok(r) => {
                if self.tracer.is_some() {
                    self.frames.push((req, r.clone()));
                }
                Ok(r)
            }
            Err(e) => {
                self.fail("Frame".into());
                self.mismatch(format!("transport failure: {e}"));
                Err(ErrorKindWire::Internal)
            }
        }
    }

    fn span_start(&self) -> (u64, Instant) {
        (
            self.tracer.as_ref().map_or(0, Tracer::next_id),
            Instant::now(),
        )
    }

    fn span_end(&mut self, id: u64, name: &'static str, start: Instant) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(id, 0, name, start);
        }
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

fn check_read(log: &mut ConnLog, src: &str, expect: &Option<Expect>, resp: &Response) {
    let Some(expect) = expect else { return };
    let ok = match (expect, resp) {
        (Expect::Truth(p, c), Response::Truth(t)) => t.possible == *p && t.certain == *c,
        (Expect::Rows(c, p), Response::Rows(r)) => {
            let mut rc = r.certain.clone();
            let mut rp = r.possible.clone();
            rc.sort();
            rp.sort();
            &rc == c && &rp == p
        }
        (Expect::Verdict(v), Response::Explained(e)) => {
            let got = match e.verdict {
                WireVerdict::Certain => Some(Some(true)),
                WireVerdict::Impossible => Some(Some(false)),
                WireVerdict::Uncertain => Some(None),
                WireVerdict::Inconsistent => None,
            };
            got == Some(*v)
        }
        _ => false,
    };
    if !ok {
        log.mismatch(format!("{src}: expected {expect:?}, got {resp:?}"));
    }
}

/// Closed-loop reads (connection A of `read_mostly`).
fn run_reader(addr: SocketAddr, steps: &[Step], log: &mut ConnLog) -> Result<(), String> {
    let mut c = connect(addr)?;
    for step in steps {
        let Step::Read { kind, src, expect } = step else {
            continue;
        };
        let (req, span) = match kind {
            ReadKind::Check => (Request::Check(src.clone()), "client.check"),
            ReadKind::Query => (Request::Query(src.clone()), "client.query"),
            ReadKind::Explain => (Request::Explain(src.clone()), "client.explain"),
        };
        let t = Instant::now();
        match log.call(&mut c, req, span, 0) {
            Ok(resp) => {
                log.lat.push("read", us_since(t));
                check_read(log, src, expect, &resp);
            }
            Err(_) => log.lat.push("read", MISSED_US),
        }
    }
    Ok(())
}

/// Plain writes, closed loop or paced at `rate` per second. Paced
/// latencies run from when each write was due.
fn run_writer(
    addr: SocketAddr,
    steps: &[Step],
    rate: Option<f64>,
    log: &mut ConnLog,
) -> Result<(), String> {
    let mut c = connect(addr)?;
    let start = Instant::now();
    for (i, step) in steps.iter().enumerate() {
        let Step::Write(src) = step else { continue };
        let due = match rate {
            Some(r) => {
                let due = start + Duration::from_secs_f64(i as f64 / r);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                log.late_ms
                    .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                due
            }
            None => Instant::now(),
        };
        match log.call(&mut c, Request::Execute(src.clone()), "client.execute", 0) {
            Ok(Response::Executed(r)) => {
                log.lat.push("write", us_since(due));
                log.max_acked_lsn = log.max_acked_lsn.max(r.lsn);
            }
            Ok(other) => {
                log.mismatch(format!("{src}: unexpected {other:?}"));
                log.lat.push("write", MISSED_US);
            }
            Err(_) => log.lat.push("write", MISSED_US),
        }
    }
    Ok(())
}

/// Runs `stmts` as one transaction; returns the commit LSN, or `None` if
/// it was rolled back (by the client or the server).
fn run_txn(
    c: &mut Client,
    stmts: &[String],
    rollback: bool,
    log: &mut ConnLog,
    parent: u64,
) -> Option<u64> {
    match log.call(c, Request::Begin, "client.begin", parent) {
        Ok(Response::TxnBegun(_)) => {}
        Ok(other) => {
            log.mismatch(format!("BEGIN: unexpected {other:?}"));
            return None;
        }
        Err(_) => return None,
    }
    for s in stmts {
        let t = Instant::now();
        match log.call(c, Request::Execute(s.clone()), "client.execute", parent) {
            Ok(Response::Executed(_)) => log.lat.push("write", us_since(t)),
            Ok(other) => {
                log.mismatch(format!("{s}: unexpected {other:?}"));
                return None;
            }
            Err(kind) => {
                log.lat.push("write", MISSED_US);
                // A lock timeout already rolled the transaction back.
                if kind != ErrorKindWire::TxnTimeout {
                    let _ = log.call(c, Request::Rollback, "client.rollback", parent);
                }
                return None;
            }
        }
    }
    if rollback {
        match log.call(c, Request::Rollback, "client.rollback", parent) {
            Ok(Response::TxnRolledBack(_)) => {}
            other => log.mismatch(format!("ROLLBACK: unexpected {other:?}")),
        }
        return None;
    }
    match log.call(c, Request::Commit, "client.commit", parent) {
        Ok(Response::TxnCommitted(r)) => {
            log.max_acked_lsn = log.max_acked_lsn.max(r.lsn);
            log.committed_stmts += stmts.len() as u64;
            log.committed.push((r.lsn, stmts.to_vec()));
            Some(r.lsn)
        }
        Ok(other) => {
            log.mismatch(format!("COMMIT: unexpected {other:?}"));
            None
        }
        Err(_) => None,
    }
}

/// One `txn_contended` connection: transaction, then a `Check`.
fn run_txn_conn(addr: SocketAddr, steps: &[Step], log: &mut ConnLog) -> Result<(), String> {
    let mut c = connect(addr)?;
    for step in steps {
        let Step::Txn {
            stmts,
            rollback,
            check,
        } = step
        else {
            continue;
        };
        let (id, t) = log.span_start();
        let committed = run_txn(&mut c, stmts, *rollback, log, id);
        log.span_end(id, "client.txn", t);
        if committed.is_some() {
            log.lat.push("txn", us_since(t));
        } else if !rollback {
            log.lat.push("txn", MISSED_US);
        }
        let t = Instant::now();
        match log.call(&mut c, Request::Check(check.clone()), "client.check", 0) {
            Ok(Response::Truth(_)) => log.lat.push("read", us_since(t)),
            Ok(other) => log.mismatch(format!("{check}: unexpected {other:?}")),
            Err(_) => log.lat.push("read", MISSED_US),
        }
    }
    Ok(())
}

/// `replica_ryw`: write on the primary, `PinAt` the ack on the replica,
/// `Check` there; every answer is checked inline.
fn run_ryw(
    primary: SocketAddr,
    replica: SocketAddr,
    steps: &[Step],
    log: &mut ConnLog,
) -> Result<(), String> {
    let mut p = connect(primary)?;
    let mut r = connect(replica)?;
    for step in steps {
        let Step::Ryw {
            stmts,
            txn,
            check,
            expect,
        } = step
        else {
            continue;
        };
        let (id, t0) = log.span_start();
        let lsn = if *txn {
            run_txn(&mut p, stmts, false, log, id)
        } else {
            match log.call(
                &mut p,
                Request::Execute(stmts[0].clone()),
                "client.execute",
                id,
            ) {
                Ok(Response::Executed(x)) => {
                    log.max_acked_lsn = log.max_acked_lsn.max(x.lsn);
                    Some(x.lsn)
                }
                Ok(other) => {
                    log.mismatch(format!("{}: unexpected {other:?}", stmts[0]));
                    None
                }
                Err(_) => None,
            }
        };
        let Some(lsn) = lsn else {
            log.lat.push("write", MISSED_US);
            log.lat.push("ryw", MISSED_US);
            log.span_end(id, "client.ryw", t0);
            continue;
        };
        log.lat.push("write", us_since(t0));
        let mut pinned = false;
        for attempt in 0..=PINAT_RETRY_BUDGET {
            match log.call(&mut r, Request::PinAt(lsn), "client.pin_at", id) {
                Ok(Response::Pinned(_)) => {
                    pinned = true;
                    break;
                }
                Err(ErrorKindWire::LagBehind) if attempt < PINAT_RETRY_BUDGET => {
                    // A retry is the same operation, not a new attempt.
                    log.attempted -= 1;
                    log.pinat_retries += 1;
                    std::thread::sleep(PINAT_BACKOFF);
                }
                Err(ErrorKindWire::LagBehind) => log.fail("LagBehind".into()),
                Ok(other) => {
                    log.mismatch(format!("PinAt({lsn}): unexpected {other:?}"));
                    break;
                }
                Err(_) => break,
            }
        }
        let answer = if pinned {
            log.call(&mut r, Request::Check(check.clone()), "client.check", id)
                .ok()
        } else {
            None
        };
        log.span_end(id, "client.ryw", t0);
        match answer {
            Some(Response::Truth(t)) => {
                log.lat.push("ryw", us_since(t0));
                if (t.possible, t.certain) != *expect {
                    log.mismatch(format!(
                        "replica read of {check} at lsn {lsn}: expected {expect:?}, got ({}, {})",
                        t.possible, t.certain
                    ));
                }
            }
            other => {
                if let Some(o) = other {
                    log.mismatch(format!("{check}: unexpected {o:?}"));
                }
                log.lat.push("ryw", MISSED_US);
            }
        }
    }
    let _ = log.call(&mut r, Request::Unpin, "client.unpin", 0);
    Ok(())
}

/// Everything one trial produced.
pub struct Trial {
    pub setup_s: f64,
    /// Wall time of the timed script (longest connection), s.
    pub script_s: f64,
    pub conns: Vec<ConnLog>,
    /// CPU time the server process(es) used during the script, s.
    pub server_cpu_s: f64,
    pub rss_mb: f64,
    pub stats: Option<StatsReply>,
    pub replica_stats: Option<StatsReply>,
    /// `DurableDatabase::open` on the killed server's directory, s.
    pub recovery_s: f64,
    pub store_nodes_end: usize,
    pub mismatches: Vec<String>,
}

impl Trial {
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().flat_map(|c| c.failures.values()).sum()
    }
}

fn final_answers(addr: SocketAddr, probes: &[String]) -> Result<Vec<(bool, bool)>, String> {
    let mut c = connect(addr)?;
    probes
        .iter()
        .map(|p| {
            c.check(p)
                .map(|t| (t.possible, t.certain))
                .map_err(|e| format!("final check {p}: {e}"))
        })
        .collect()
}

fn warm_up(addr: SocketAddr, script: &Script) -> Result<(), String> {
    let mut c = connect(addr)?;
    c.ping().map_err(|e| e.to_string())?;
    for p in script.probes.iter().take(8) {
        c.check(p).map_err(|e| format!("warm-up check {p}: {e}"))?;
    }
    Ok(())
}

/// Runs one trial of `script` in a fresh directory under `work`.
pub fn run_trial(
    bin: &Path,
    script: &Script,
    work: &Path,
    tracer: Option<&Tracer>,
) -> Result<Trial, String> {
    let dir = work.join("primary");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let setup = Instant::now();
    store::checkpoint_dir(&dir, &script.store).map_err(|e| format!("seeding: {e}"))?;
    let dir_arg = dir.to_string_lossy().into_owned();
    let mut primary = ServerProc::spawn(
        bin,
        &["serve", "--dir", &dir_arg, "--addr", "127.0.0.1:0"],
        "serving on",
    )?;
    let mut replica = None;
    if script.workload == Workload::ReplicaRyw {
        let of = primary.addr.to_string();
        let r = ServerProc::spawn(
            bin,
            &["serve", "--replica-of", &of, "--addr", "127.0.0.1:0"],
            "serving reads on",
        )?;
        // Bootstrapped once a base fact reads as certain on the replica;
        // until then its constants are unknown there.
        let fact = script.store.orders[0].atom();
        let mut c = connect(r.addr)?;
        until(Duration::from_secs(60), || match c.check(&fact) {
            Ok(t) if t.certain => Ok(Some(())),
            Ok(_) => Ok(None),
            Err(ClientError::Server(e)) if e.kind == ErrorKindWire::Parse => Ok(None),
            Err(e) => Err(format!("replica bootstrap: {e}")),
        })?;
        replica = Some(r);
    }
    warm_up(primary.addr, script)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let paddr = primary.addr;
    let raddr = replica.as_ref().map(|r| r.addr);
    let server_cpu = || -> Result<f64, String> {
        let mut cpu = primary.cpu_s()?;
        if let Some(r) = &replica {
            cpu += r.cpu_s()?;
        }
        Ok(cpu)
    };
    let cpu_before = server_cpu()?;
    let barrier = Arc::new(Barrier::new(script.conns.len()));
    let started = Instant::now();
    let conns: Vec<Result<ConnLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = script
            .conns
            .iter()
            .enumerate()
            .map(|(i, steps)| {
                let barrier = Arc::clone(&barrier);
                let mut log = ConnLog::new(tracer.map(Tracer::fork));
                s.spawn(move || {
                    barrier.wait();
                    let t = Instant::now();
                    let r = match (script.workload, i) {
                        (Workload::ReadMostly, 0) => run_reader(paddr, steps, &mut log),
                        (Workload::ReadMostly, _) => {
                            run_writer(paddr, steps, Some(READ_WRITE_RATE), &mut log)
                        }
                        (Workload::LargeStoreWrites, _) => run_writer(paddr, steps, None, &mut log),
                        (Workload::TxnContended, _) => run_txn_conn(paddr, steps, &mut log),
                        (Workload::ReplicaRyw, _) => match raddr {
                            Some(ra) => run_ryw(paddr, ra, steps, &mut log),
                            None => Err("replica_ryw without a replica".into()),
                        },
                    };
                    log.busy_s = t.elapsed().as_secs_f64();
                    r.map(|()| log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let script_s = started.elapsed().as_secs_f64();
    let server_cpu_s = server_cpu()? - cpu_before;
    let conns = conns.into_iter().collect::<Result<Vec<_>, _>>()?;

    let served = final_answers(paddr, &script.probes)?;
    let stats_of = |addr: SocketAddr| -> Result<StatsReply, String> {
        connect(addr)?.stats().map_err(|e| e.to_string())
    };
    let (stats, replica_stats) = if tracer.is_some() {
        (Some(stats_of(paddr)?), raddr.map(stats_of).transpose()?)
    } else {
        (None, None)
    };
    let mut rss_mb = primary.peak_rss_mb()?;
    if let Some(r) = &replica {
        rss_mb += r.peak_rss_mb()?;
    }
    // A crash, not a shutdown: durability must not depend on a drain.
    drop(replica);
    primary.kill();

    let mut mismatches: Vec<String> = conns.iter().flat_map(|c| c.mismatches.clone()).collect();
    let t = Instant::now();
    let mut reopened = store::reopen(&dir).map_err(|e| format!("reopen: {e}"))?;
    let recovery_s = t.elapsed().as_secs_f64();
    let max_acked = conns.iter().map(|c| c.max_acked_lsn).max().unwrap_or(0);
    if reopened.next_lsn() <= max_acked {
        mismatches.push(format!(
            "acknowledged lsn {max_acked} lost: reopened log ends before lsn {}",
            reopened.next_lsn()
        ));
    }
    let store_nodes_end = reopened.db().theory().store_nodes();
    let mut replay = if script.workload == Workload::TxnContended {
        let mut committed: Vec<&(u64, Vec<String>)> =
            conns.iter().flat_map(|c| c.committed.iter()).collect();
        committed.sort_by_key(|(lsn, _)| *lsn);
        let mut db = store::in_memory(&script.store).map_err(|e| format!("replay seed: {e}"))?;
        for (_, stmts) in committed {
            for s in stmts {
                db.execute(s).map_err(|e| format!("replay {s}: {e}"))?;
            }
        }
        Some(db)
    } else {
        None
    };
    for (probe, served) in script.probes.iter().zip(&served) {
        let got = store::decide(reopened.db_mut(), probe).map_err(|e| format!("{probe}: {e}"))?;
        if got != *served {
            mismatches.push(format!(
                "{probe}: server answered {served:?}, reopened directory {got:?}"
            ));
        }
        if let Some(db) = replay.as_mut() {
            let want = store::decide(db, probe).map_err(|e| format!("{probe}: {e}"))?;
            if got != want {
                mismatches.push(format!(
                    "{probe}: reopened {got:?}, commit-order replay {want:?}"
                ));
            }
        }
    }
    drop(reopened);
    Ok(Trial {
        setup_s,
        script_s,
        conns,
        server_cpu_s,
        rss_mb,
        stats,
        replica_stats,
        recovery_s,
        store_nodes_end,
        mismatches,
    })
}
