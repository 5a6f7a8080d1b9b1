//! The traced run's in-process part: the trial's generated operations
//! replayed through the library stack, on the same storage type
//! (`DirStorage`) and sync policy (`EveryRecord`) the server uses, with a
//! span around each call into a layer's public functions.
//!
//! * Write-path stages, one statement at a time: every statement of the
//!   script (transactional or not) is parsed, footprinted, and applied
//!   through `DurableDatabase::update`; beside it the benchmark times a
//!   clone of the live state, a whole-store Fast simplify of that clone,
//!   bare GUA (simplify off) on a side engine, the snapshot capture that
//!   follows each publication, and `replay_record` of each shipped record
//!   on a follower.
//! * Reads go through a `SnapshotReader` rebuilt after every write.
//! * Transactions, when the script has any, run again through the
//!   transaction API, one thread per connection, with the server's
//!   footprint locking.

use crate::gen::{Expect, ReadKind, Script, Step};
use crate::served::Trial;
use crate::store;
use crate::trace::{median, percentile, Samples, Span, Tracer};
use crate::Report;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use winslett_analyze::ConflictAnalyzer;
use winslett_core::{
    replay_record, DbOptions, DirStorage, DurableDatabase, LockRequest, LockTable, LogicalDatabase,
    SnapshotReader, TheorySnapshot,
};
use winslett_gua::{GuaEngine, GuaOptions, SimplifyLevel};
use winslett_serve::protocol::{decode, read_frame, OutBuf};
use winslett_serve::Request;

/// The per-layer metrics `BENCHMARK.json` lists. Every
/// workload's traced run reports each of them.
pub const CONTRACT: &[&str] = &[
    "protocol.decode_p50_us",
    "protocol.encode_p50_us",
    "ldml.parse_p50_us",
    "analyze.lock_profile_p50_us",
    "wal.update_p50_us",
    "wal.update_p99_us",
    "db.clone_p50_us",
    "gua.apply_p50_us",
    "gua.simplify_fast_p50_us",
    "snapshot.capture_p50_us",
    "snapshot.reader_new_p50_us",
    "snapshot.decide_p50_us",
    "snapshot.query_p50_us",
    "replay.record_p50_us",
    "sat.encodes",
    "sat.encode_reuse_hits",
    "sat.assumption_solves",
    "wal.records",
    "wal.syncs",
    "wal.bytes_per_update",
    "server.snapshots_published",
    "server.write_batches",
    "theory.store_nodes_end",
    "wal.recovery_s",
    "trace.unattributed_write_frac",
    "trace.overhead_frac",
];

/// The server's lock deadline (its shipped default).
const LOCK_TIMEOUT: Duration = Duration::from_millis(2000);

/// Timed calls, each recorded both as a sample and as a span.
struct Probe {
    samples: Samples,
    tracer: Tracer,
}

impl Probe {
    fn time<T>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.next_id();
        let start = Instant::now();
        let v = f();
        self.samples.push(name, start.elapsed().as_secs_f64() * 1e6);
        self.tracer.record(id, parent, name, start);
        v
    }
}

#[derive(Default)]
pub struct LayerRun {
    samples: Samples,
    pub spans: Vec<Span>,
    pub mismatches: Vec<String>,
    readers: u64,
    reuse_hits: u64,
    solves: u64,
    bytes_per_update: f64,
    lock_waits: u64,
    lock_timeouts: u64,
}

/// The read-side state: a snapshot and the reader built on it, rebuilt
/// lazily after each write.
struct Reads {
    snapshot: TheorySnapshot,
    reader: Option<SnapshotReader>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(script: &Script, dir: &Path, served: &Trial) -> Result<LayerRun, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tracer = served
        .conns
        .iter()
        .find_map(|c| c.tracer.as_ref())
        .map(Tracer::fork)
        .ok_or("traced trial has no tracer")?;
    let mut probe = Probe {
        samples: Samples::default(),
        tracer,
    };
    let mut out = LayerRun::default();

    // Protocol: the trial's own frames.
    for (req, resp) in served.conns.iter().flat_map(|c| &c.frames) {
        let mut framed = OutBuf::new();
        framed.push_value(req).map_err(err)?;
        let mut wire = Vec::new();
        framed.flush_nonblocking(&mut wire).map_err(err)?;
        let payload = read_frame(&mut wire.as_slice()).map_err(err)?;
        let decoded: Request = probe
            .time(0, "protocol.decode", || decode(&payload))
            .map_err(err)?;
        if &decoded != req {
            out.mismatches
                .push(format!("protocol round trip changed {req:?}"));
        }
        let mut buf = OutBuf::new();
        probe
            .time(0, "protocol.encode", || buf.push_value(resp))
            .map_err(err)?;
    }

    stage_probe(script, &dir.join("stages"), &mut probe, &mut out)?;
    if script
        .conns
        .iter()
        .flatten()
        .any(|s| matches!(s, Step::Txn { .. } | Step::Ryw { txn: true, .. }))
    {
        txn_replay(script, &dir.join("txn"), &mut probe, &mut out)?;
    }
    out.samples = probe.samples;
    out.spans = probe.tracer.spans;
    Ok(out)
}

fn seeded(script: &Script, dir: &Path) -> Result<DurableDatabase<DirStorage>, String> {
    store::checkpoint_dir(dir, &script.store).map_err(|e| format!("seeding: {e}"))?;
    store::reopen(dir).map_err(|e| format!("reopen: {e}"))
}

/// The script's steps in round-robin order over its connections.
fn interleaved(script: &Script) -> Vec<&Step> {
    let longest = script.conns.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| script.conns.iter().filter_map(move |c| c.get(i)))
        .collect()
}

fn stage_probe(
    script: &Script,
    dir: &Path,
    probe: &mut Probe,
    out: &mut LayerRun,
) -> Result<(), String> {
    let mut d = seeded(script, dir)?;
    d.enable_shipping();
    let mut follower = LogicalDatabase::from_theory(d.db().theory().clone(), DbOptions::default());
    let mut bare = GuaEngine::new(
        d.db().theory().clone(),
        GuaOptions::with_level(SimplifyLevel::None),
    );
    let mut reads = Reads {
        snapshot: TheorySnapshot::capture(d.db().theory()),
        reader: None,
    };
    let wal_before = d.stats();
    let mut updates = 0u64;

    let mut write = |probe: &mut Probe,
                     d: &mut DurableDatabase<DirStorage>,
                     reads: &mut Reads,
                     out: &mut LayerRun,
                     src: &str|
     -> Result<(), String> {
        let root = probe.tracer.next_id();
        let start = Instant::now();
        let u = probe
            .time(root, "ldml.parse", || d.db_mut().parse_update(src))
            .map_err(err)?;
        probe.time(root, "analyze.lock_profile", || {
            ConflictAnalyzer::default().lock_profile(src)
        });
        let mut copy = probe.time(root, "db.clone", || d.db().clone());
        probe.time(root, "gua.simplify_fast", || {
            winslett_gua::simplify(copy.theory_mut(), SimplifyLevel::Fast)
        });
        drop(copy);
        let bare_update = bare.parse(src).map_err(err)?;
        probe
            .time(root, "gua.apply", || bare.apply(&bare_update))
            .map_err(err)?;
        probe
            .time(root, "wal.update", || d.update(&u))
            .map_err(err)?;
        reads.snapshot = probe.time(root, "snapshot.capture", || {
            TheorySnapshot::capture(d.db().theory())
        });
        retire(reads, out);
        for e in d.drain_shipping() {
            probe
                .time(root, "replay.record", || {
                    replay_record(&mut follower, &e.record)
                })
                .map_err(err)?;
        }
        probe.tracer.record(root, 0, "layers.write", start);
        updates += 1;
        Ok(())
    };

    for step in interleaved(script) {
        match step {
            Step::Read { kind, src, expect } => {
                let reader = reader(probe, &mut reads, out);
                let ok = match kind {
                    ReadKind::Check => {
                        let got = probe
                            .time(0, "snapshot.decide", || reader.decide(src))
                            .map_err(err)?;
                        match expect {
                            Some(Expect::Truth(p, c)) => got == (*p, *c),
                            _ => true,
                        }
                    }
                    ReadKind::Query => {
                        probe
                            .time(0, "snapshot.query", || reader.query(src))
                            .map_err(err)?;
                        true
                    }
                    ReadKind::Explain => {
                        probe
                            .time(0, "snapshot.explain", || reader.explain(src))
                            .map_err(err)?;
                        true
                    }
                };
                if !ok {
                    out.mismatches.push(format!(
                        "in-process read of {src} disagrees with {expect:?}"
                    ));
                }
            }
            Step::Write(src) => write(probe, &mut d, &mut reads, out, src)?,
            Step::Txn { stmts, check, .. } | Step::Ryw { stmts, check, .. } => {
                for s in stmts {
                    write(probe, &mut d, &mut reads, out, s)?;
                }
                let reader = reader(probe, &mut reads, out);
                let got = probe
                    .time(0, "snapshot.decide", || reader.decide(check))
                    .map_err(err)?;
                if let Step::Ryw { expect, .. } = step {
                    if got != *expect {
                        out.mismatches.push(format!(
                            "in-process read of {check}: {got:?}, expected {expect:?}"
                        ));
                    }
                }
            }
        }
    }
    // End-of-run verification reads: every probe, and one
    // single-variable query per probe (its last argument freed).
    for p in &script.probes {
        let reader = reader(probe, &mut reads, out);
        probe
            .time(0, "snapshot.decide", || reader.decide(p))
            .map_err(err)?;
        if let Some(open) = p.rfind(',') {
            let q = format!("{}, ?x)", &p[..open]);
            probe
                .time(0, "snapshot.query", || reader.query(&q))
                .map_err(err)?;
        }
    }
    retire(&mut reads, out);
    let wal = d.stats();
    let bytes = wal.bytes_appended - wal_before.bytes_appended;
    out.bytes_per_update = bytes as f64 / updates.max(1) as f64;
    d.close().map_err(err)?;
    Ok(())
}

/// The reader for the current snapshot, built (and timed) on first use.
fn reader<'a>(
    probe: &mut Probe,
    reads: &'a mut Reads,
    out: &mut LayerRun,
) -> &'a mut SnapshotReader {
    if reads.reader.is_none() {
        let snap = reads.snapshot.clone();
        reads.reader = Some(probe.time(0, "snapshot.reader_new", || SnapshotReader::new(snap)));
        out.readers += 1;
    }
    reads.reader.as_mut().expect("reader was just built")
}

/// Drops the current reader, keeping its session counters.
fn retire(reads: &mut Reads, out: &mut LayerRun) {
    if let Some(r) = reads.reader.take() {
        let s = r.session_stats();
        out.reuse_hits += s.encode_reuse_hits;
        out.solves += s.assumption_solves;
    }
}

/// The server's lock requests for one statement (footprint atoms; the
/// global key when the analyzer cannot bound the footprint).
fn lock_requests(src: &str) -> Vec<LockRequest> {
    let profile = ConflictAnalyzer::default().lock_profile(src);
    if profile.global {
        return vec![LockRequest::global()];
    }
    profile
        .writes
        .iter()
        .map(|k| LockRequest::exclusive(k.clone()))
        .chain(profile.reads.iter().map(|k| LockRequest::shared(k.clone())))
        .collect()
}

fn txn_replay(
    script: &Script,
    dir: &Path,
    probe: &mut Probe,
    out: &mut LayerRun,
) -> Result<(), String> {
    let db = Mutex::new(seeded(script, dir)?);
    let locks = Arc::new(LockTable::new());
    let results: Vec<Result<Probe, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = script
            .conns
            .iter()
            .map(|steps| {
                let mut p = Probe {
                    samples: Samples::default(),
                    tracer: probe.tracer.fork(),
                };
                let (db, locks) = (&db, Arc::clone(&locks));
                s.spawn(move || -> Result<Probe, String> {
                    for step in steps {
                        let (stmts, rollback) = match step {
                            Step::Txn {
                                stmts, rollback, ..
                            } => (stmts, *rollback),
                            Step::Ryw {
                                stmts, txn: true, ..
                            } => (stmts, false),
                            _ => continue,
                        };
                        let lock = || db.lock().expect("a replay thread panicked");
                        let txn = lock().txn_begin().map_err(err)?;
                        let root = p.tracer.next_id();
                        let start = Instant::now();
                        let mut alive = true;
                        for src in stmts {
                            let reqs = lock_requests(src);
                            if p.time(root, "txn.lock_wait", || {
                                locks.lock_wait(txn, &reqs, LOCK_TIMEOUT)
                            })
                            .is_err()
                            {
                                alive = false;
                                break;
                            }
                            let mut g = lock();
                            p.time(root, "txn.execute", || g.txn_execute(txn, src))
                                .map_err(err)?;
                        }
                        {
                            let mut g = lock();
                            if alive && !rollback {
                                p.time(root, "txn.commit", || g.txn_commit(txn))
                                    .map_err(err)?;
                            } else {
                                g.txn_rollback(txn).map_err(err)?;
                            }
                        }
                        locks.release_all(txn);
                        p.tracer.record(root, 0, "layers.txn", start);
                    }
                    Ok(p)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("txn replay thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        let p = r?;
        probe.samples.merge(p.samples);
        probe.tracer.spans.extend(p.tracer.spans);
    }
    out.lock_waits = locks.stats.waits.load(Ordering::Relaxed);
    out.lock_timeouts = locks.stats.timeouts.load(Ordering::Relaxed);
    db.into_inner()
        .map_err(|_| "a replay thread panicked".to_string())?
        .close()
        .map_err(err)?;
    Ok(())
}

impl LayerRun {
    /// Adds every per-layer metric to `report`.
    pub fn report(&self, served: &Trial, report: &mut Report) {
        for (name, samples) in &self.samples.0 {
            if let (Some(p50), Some(p99)) = (median(samples), percentile(samples, 0.99)) {
                report.add(&format!("{name}_p50_us"), p50, "us");
                report.add(&format!("{name}_p99_us"), p99, "us");
            }
        }
        report.add("sat.encodes", self.readers as f64, "count");
        report.add("sat.encode_reuse_hits", self.reuse_hits as f64, "count");
        report.add("sat.assumption_solves", self.solves as f64, "count");
        report.add("wal.bytes_per_update", self.bytes_per_update, "B");
        if self.samples.0.contains_key("txn.lock_wait") {
            report.add("txn.inproc_lock_waits", self.lock_waits as f64, "count");
            report.add(
                "txn.inproc_lock_timeouts",
                self.lock_timeouts as f64,
                "count",
            );
        }
        if let Some(s) = &served.stats {
            let n = |v: u64| v as f64;
            report.add("wal.records", n(s.wal_records), "count");
            report.add("wal.syncs", n(s.wal_syncs), "count");
            report.add("wal.checkpoints", n(s.wal_checkpoints), "count");
            report.add(
                "server.snapshots_published",
                n(s.snapshots_published),
                "count",
            );
            report.add("server.write_batches", n(s.write_batches), "count");
            report.add(
                "server.coalesce_ratio",
                n(s.coalesced_writes) / n(s.updates.max(1)),
                "frac",
            );
            report.add("server.compactions", n(s.compactions), "count");
            report.add(
                "server.compaction_swap_pause_max_us",
                n(s.compaction_swap_pause_max_us),
                "us",
            );
            report.add("txn.lock_waits", n(s.lock_waits), "count");
            report.add("txn.lock_timeouts", n(s.lock_timeouts), "count");
            report.add("txn.conflicts", n(s.txn_conflicts), "count");
            report.add("txn.aborted", n(s.txn_aborted), "count");
        }
        if let Some(r) = &served.replica_stats {
            report.add("replica.records", r.replica_records as f64, "count");
            report.add("replica.lag_refusals", r.lag_refusals as f64, "count");
            let retries: u64 = served.conns.iter().map(|c| c.pinat_retries).sum();
            report.add("replica.pinat_retries", retries as f64, "count");
        }
        let late: Vec<f64> = served
            .conns
            .iter()
            .flat_map(|c| c.late_ms.clone())
            .collect();
        if let Some(p99) = percentile(&late, 0.99) {
            report.add("gen.late_p99_ms", p99, "ms");
        }
        report.add(
            "theory.store_nodes_end",
            served.store_nodes_end as f64,
            "count",
        );
        report.add("wal.recovery_s", served.recovery_s, "s");
        // The write-path stages a served write passes through; the rest of
        // its latency is I/O and queueing.
        let stages = [
            "ldml.parse",
            "analyze.lock_profile",
            "wal.update",
            "snapshot.capture",
        ];
        let staged: f64 = stages
            .iter()
            .filter_map(|s| median(self.samples.get(s)))
            .sum();
        if let Some(w) = report.get("write_p50_us") {
            report.add("trace.unattributed_write_frac", 1.0 - staged / w, "frac");
        }
    }
}
