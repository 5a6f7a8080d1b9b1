//! WAL-shipping read replicas.
//!
//! A replica connects to a primary `winslett-serve`, subscribes to its
//! WAL stream, and rebuilds the logical database by replaying shipped
//! records through [`replay_record`] — recovery's applier, which runs
//! each write as the primary's writer did. It then serves the read half
//! of the protocol (query / check / explain / pin) from its own snapshot
//! chain; every write-shaped request is refused with a typed `ReadOnly`
//! error.
//!
//! ## Catch-up and the stream
//!
//! On (re)connect the replica sends `Subscribe(next_lsn)` — the first LSN
//! it has not yet applied. The primary answers, atomically against its
//! writer lock, with a [`CatchupReply`]: either just a cursor (the
//! backlog follows as `WalBatch` frames read straight from the WAL
//! suffix) or a full checkpoint snapshot plus the suffix past it, when
//! the replica's cursor predates the primary's checkpoint. After the
//! backlog, live batches arrive in commit order, one shipped batch per
//! flushed write batch, with empty heartbeats while the primary is idle.
//!
//! The shipped stream is the *effective* log: aborted journal pairs are
//! filtered at the primary, so the replica tolerates LSN holes — any
//! entry at or past its cursor is applied, anything below it (a
//! resubscription overlap) is skipped.
//!
//! ## Pinned-LSN consistency
//!
//! `PinAt(min_lsn)` succeeds only once the replica's published snapshot
//! has applied every shipped record through `min_lsn`; until then the
//! client gets a typed `LagBehind` refusal and retries (or falls back to
//! the primary). Because apply order is commit order, a successful
//! `PinAt(x)` pins a state that agrees with the primary's history at `x`
//! on every verdict.

use crate::client::Client;
use crate::protocol::{
    assemble_snapshot, read_frame, recv, send, CatchupReply, ErrorKindWire, ExplainReply,
    FrameError, QueryReply, Request, Response, SnapshotReply, StatsReply, TruthReply,
    WalBatchReply, WireError,
};
use crate::reactor::{
    Completions, NetCounters, PublishedView, Reactor, ReactorConfig, Role, RoleAction,
};
use crate::server::HEARTBEAT_INTERVAL;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;
use winslett_core::snapshot::{SnapshotReader, TheorySnapshot};
use winslett_core::wal::WalRecord;
use winslett_core::{replay_record, restore_theory, DbError, DbOptions, LogicalDatabase};

/// Replica tunables.
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Hard cap on concurrently served read connections.
    pub max_connections: usize,
    /// A read connection idle this long is closed.
    pub idle_timeout: Duration,
    /// Pause between reconnection attempts to the primary.
    pub reconnect_backoff: Duration,
    /// Serve reads with the classic blocking thread-per-connection loop
    /// instead of the epoll reactor (benchmarking baseline; the reactor
    /// is the default).
    pub threaded: bool,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(50),
            threaded: false,
        }
    }
}

/// Monotone counters plus the replication cursor, updated lock-free.
#[derive(Debug, Default)]
pub struct ReplicaStats {
    /// Read connections accepted into service.
    pub accepted: AtomicU64,
    /// Read connections refused at the admission gate.
    pub rejected_busy: AtomicU64,
    /// Requests served, all kinds.
    pub requests: AtomicU64,
    /// Read requests (query/check/explain) served.
    pub reads: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closes: AtomicU64,
    /// Malformed frames / undecodable requests observed.
    pub protocol_errors: AtomicU64,
    /// Snapshot generations currently pinned by connections.
    pub pinned_generations: AtomicU64,
    /// `WalBatch` frames applied (heartbeats excluded).
    pub replica_batches: AtomicU64,
    /// Shipped records applied.
    pub replica_records: AtomicU64,
    /// Catch-up bootstraps that carried a full checkpoint snapshot.
    pub replica_snapshots_loaded: AtomicU64,
    /// Times the tailer re-established the primary connection after the
    /// first successful subscription.
    pub replica_reconnects: AtomicU64,
    /// Shipped records the replayer had to skip because applying them
    /// failed — mirrors recovery's deterministic-error accounting and
    /// should stay zero against an honest primary.
    pub replica_apply_errors: AtomicU64,
    /// `PinAt` requests refused because the replica had not yet applied
    /// the demanded LSN.
    pub lag_refusals: AtomicU64,
    /// The next LSN the tailer expects (= 1 + the highest applied LSN).
    pub next_lsn: AtomicU64,
}

/// What the tailer last published.
struct ReplicaPublished {
    snapshot: TheorySnapshot,
    /// Highest shipped LSN folded into `snapshot` (0 before the first
    /// applied record).
    last_lsn: u64,
}

struct ReplicaShared {
    published: RwLock<Arc<ReplicaPublished>>,
    stats: Arc<ReplicaStats>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    options: ReplicaOptions,
    addr: SocketAddr,
    primary: SocketAddr,
}

/// A cheap, clonable handle for poking a running replica from outside
/// its accept loop.
#[derive(Clone)]
pub struct ReplicaHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ReplicaStats>,
    active: Arc<AtomicUsize>,
}

impl ReplicaHandle {
    /// The address the replica is serving reads on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Read connections currently in service.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown of the accept loop and the tailer.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A read replica: a bound listener, a WAL tailer thread, and the shared
/// snapshot chain between them.
pub struct Replica {
    listener: TcpListener,
    shared: Arc<ReplicaShared>,
    db_options: DbOptions,
}

impl Replica {
    /// Binds `addr` for read service and records `primary` as the WAL
    /// source. The database starts empty and in memory; the first
    /// subscription's catch-up material populates it before any read can
    /// observe a non-initial generation.
    pub fn bind(
        addr: impl ToSocketAddrs,
        primary: SocketAddr,
        db_options: DbOptions,
        options: ReplicaOptions,
    ) -> Result<Self, DbError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let db = LogicalDatabase::with_options(db_options);
        let snapshot = TheorySnapshot::capture(db.theory());
        let shared = Arc::new(ReplicaShared {
            published: RwLock::new(Arc::new(ReplicaPublished {
                snapshot,
                last_lsn: 0,
            })),
            stats: Arc::new(ReplicaStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            options,
            addr,
            primary,
        });
        Ok(Replica {
            listener,
            shared,
            db_options,
        })
    }

    /// The bound read-service address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle usable from other threads (shutdown, stats).
    pub fn handle(&self) -> ReplicaHandle {
        ReplicaHandle {
            addr: self.shared.addr,
            shutdown: Arc::clone(&self.shared.shutdown),
            stats: Arc::clone(&self.shared.stats),
            active: Arc::clone(&self.shared.active),
        }
    }

    /// Serves reads until shutdown is requested, then drains live
    /// connections and joins the tailer. The default I/O core is the
    /// same epoll reactor the primary uses;
    /// [`ReplicaOptions::threaded`] selects the classic blocking loop.
    pub fn run(self) -> Result<(), DbError> {
        if self.shared.options.threaded {
            self.run_threaded()
        } else {
            self.run_epoll()
        }
    }

    /// The epoll event-loop read server (the tailer stays its own
    /// thread in both modes — it is a client of the primary, not a
    /// served connection).
    fn run_epoll(self) -> Result<(), DbError> {
        let Replica {
            listener,
            shared,
            db_options,
        } = self;
        let tailer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_tailer(&shared, db_options))
        };
        let run_result = Completions::new().and_then(|completions| {
            Reactor::new(
                listener,
                ReplicaRole {
                    shared: Arc::clone(&shared),
                },
                completions,
                ReactorConfig {
                    max_connections: shared.options.max_connections,
                    idle_timeout: shared.options.idle_timeout,
                },
                Arc::clone(&shared.shutdown),
                Arc::clone(&shared.active),
            )
            .and_then(Reactor::run)
        });
        shared.shutdown.store(true, Ordering::SeqCst);
        let _ = tailer.join();
        run_result?;
        Ok(())
    }

    /// The classic blocking loop: one kernel thread per connection.
    fn run_threaded(self) -> Result<(), DbError> {
        let Replica {
            listener,
            shared,
            db_options,
        } = self;
        let tailer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_tailer(&shared, db_options))
        };
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
            if active > shared.options.max_connections {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                reject_busy(stream, active, shared.options.max_connections);
                continue;
            }
            shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                ReplicaConnection::new(stream, Arc::clone(&shared)).serve();
                shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(listener);
        while shared.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = tailer.join();
        Ok(())
    }
}

/// The replica half of the reactor: reads, pins, and liveness are the
/// reactor's own; everything the role sees is either `Stats` (answered
/// inline — all counters are atomics) or write-shaped, refused with the
/// typed `ReadOnly` error. No writer thread exists on a replica, so no
/// request is ever deferred.
struct ReplicaRole {
    shared: Arc<ReplicaShared>,
}

impl Role for ReplicaRole {
    fn counters(&self) -> NetCounters<'_> {
        let s = &self.shared.stats;
        NetCounters {
            accepted: &s.accepted,
            rejected_busy: &s.rejected_busy,
            requests: &s.requests,
            reads: &s.reads,
            idle_closes: &s.idle_closes,
            protocol_errors: &s.protocol_errors,
            pinned_generations: &s.pinned_generations,
            lag_refusals: &s.lag_refusals,
        }
    }

    fn published(&self) -> PublishedView {
        let p = published(&self.shared);
        PublishedView {
            snapshot: p.snapshot.clone(),
            updates_applied: self.shared.stats.replica_records.load(Ordering::Relaxed),
            last_lsn: p.last_lsn,
        }
    }

    fn busy_message(&self, active: usize, cap: usize) -> String {
        format!("replica busy: {active} connections, cap {cap}")
    }

    fn lag_message(&self, have: u64, want: u64) -> String {
        format!("replica applied through lsn {have} but the pin demands lsn {want}")
    }

    fn handle(&self, _token: u64, _seq: u64, _draining: bool, request: Request) -> RoleAction {
        RoleAction::Reply(match request {
            Request::Stats => Response::Stats(Box::new(stats_reply(&self.shared))),
            Request::Execute(_)
            | Request::DeclareRelation(..)
            | Request::DeclareAttribute(_)
            | Request::LoadFact(..)
            | Request::LoadWff(_)
            | Request::Checkpoint
            | Request::Begin
            | Request::Commit
            | Request::Rollback
            | Request::Subscribe(_) => read_only(),
            other => Response::Error(WireError {
                kind: ErrorKindWire::BadRequest,
                message: format!("unroutable request: {other:?}"),
            }),
        })
    }

    fn generation_moved(&self) {}
}

/// Sends the typed `Busy` rejection (best-effort) and closes.
fn reject_busy(mut stream: TcpStream, active: usize, cap: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = send(
        &mut stream,
        &Response::Error(WireError {
            kind: ErrorKindWire::Busy,
            message: format!("replica busy: {active} connections, cap {cap}"),
        }),
    );
}

// ----- the tailer -----------------------------------------------------------

/// Transaction intents held back until their outcome marker arrives, plus
/// the bookkeeping that keeps the replication cursor honest while they
/// are held. Carried across reconnects by the tailer.
///
/// A follower must never expose effects the primary has not committed:
/// shipped [`WalRecord::TxnOp`] intents are buffered here and applied,
/// in order, only when the `TxnCommit` marker lands (dropped on
/// `TxnAbort`). While any transaction is open, the subscription cursor
/// is pinned at the oldest open transaction's begin LSN — a reconnect
/// then replays the held intents from the primary's log — and `applied`
/// remembers which LSNs past that pin are already folded in so the
/// resubscription overlap is not applied twice.
#[derive(Default)]
struct TxnBuffer {
    /// Ops of still-open transactions, keyed by txn id (= begin LSN),
    /// each tagged with the shipped LSN it arrived under.
    pending: HashMap<u64, Vec<(u64, WalRecord)>>,
    /// LSNs at or past the pinned cursor whose effects already reached
    /// the replica's database.
    applied: HashSet<u64>,
}

/// The WAL tailer: subscribe, catch up, apply, republish; reconnect from
/// the current cursor on any stream failure until shutdown.
fn run_tailer(shared: &ReplicaShared, db_options: DbOptions) {
    let mut db = LogicalDatabase::with_options(db_options);
    let mut next_lsn: u64 = 0;
    let mut buffer = TxnBuffer::default();
    let mut ever_connected = false;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // The held intents will be re-shipped from the pinned cursor on
        // the next subscription; a stale copy must not double-buffer.
        buffer.pending.clear();
        match tail_once(shared, &db_options, &mut db, &mut next_lsn, &mut buffer) {
            TailExit::Shutdown => return,
            TailExit::StreamLost => {
                if ever_connected {
                    shared
                        .stats
                        .replica_reconnects
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            TailExit::NeverConnected => {}
        }
        ever_connected = ever_connected || next_lsn > 0;
        // Backoff before redialing; shutdown cuts the wait short.
        let backoff = shared.options.reconnect_backoff;
        let step = Duration::from_millis(10).min(backoff);
        let mut waited = Duration::ZERO;
        while waited < backoff && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(step);
            waited += step;
        }
    }
}

enum TailExit {
    /// Shutdown was requested; do not reconnect.
    Shutdown,
    /// The subscription was established and then lost; reconnect.
    StreamLost,
    /// The dial or handshake itself failed; retry without counting a
    /// reconnect.
    NeverConnected,
}

/// One subscription lifetime: dial, handshake, apply until the stream
/// dies or shutdown lands.
fn tail_once(
    shared: &ReplicaShared,
    db_options: &DbOptions,
    db: &mut LogicalDatabase,
    next_lsn: &mut u64,
    buffer: &mut TxnBuffer,
) -> TailExit {
    // The primary heartbeats every HEARTBEAT_INTERVAL while idle; four
    // missed beats means the stream (or the primary) is gone — the
    // client's read deadline turns that into a typed `TimedOut` below.
    let mut stream = match Client::connect_with_timeout(
        shared.primary,
        Duration::from_secs(2),
        Some(HEARTBEAT_INTERVAL * 4),
    ) {
        Ok(c) => c.into_stream(),
        Err(_) => return TailExit::NeverConnected,
    };
    if send(&mut stream, &Request::Subscribe(*next_lsn)).is_err() {
        return TailExit::NeverConnected;
    }
    let catchup: CatchupReply = match recv::<Response>(&mut stream) {
        Ok(Response::Catchup(c)) => *c,
        Ok(Response::Error(_)) | Ok(_) | Err(_) => return TailExit::NeverConnected,
    };
    // A snapshot past the frame cap arrives as CatchupChunk frames after
    // a `chunked: true` announcement; reassemble before restoring.
    let snapshot = if catchup.chunked {
        let mut parts = Vec::new();
        loop {
            match recv::<Response>(&mut stream) {
                Ok(Response::CatchupChunk(c)) => {
                    let done = c.done;
                    parts.push(c.part);
                    if done {
                        break;
                    }
                }
                Ok(_) | Err(_) => return TailExit::NeverConnected,
            }
        }
        match assemble_snapshot(&parts) {
            Ok(s) => Some(s),
            Err(_) => return TailExit::NeverConnected,
        }
    } else {
        catchup.snapshot
    };
    if let Some(snap) = snapshot {
        // Our cursor predates the primary's checkpoint: restart from the
        // checkpoint image, exactly as recovery would.
        match restore_theory(&snap.theory) {
            Ok(theory) => {
                let generation = published(shared).snapshot.generation();
                *db = LogicalDatabase::from_theory(theory, *db_options);
                db.theory_mut().advance_generation_past(generation);
                *next_lsn = snap.lsn;
                // Checkpoints refuse while transactions are open, so the
                // snapshot boundary is transaction-clean: nothing held
                // back before it can still matter.
                buffer.pending.clear();
                buffer.applied.clear();
                shared
                    .stats
                    .replica_snapshots_loaded
                    .fetch_add(1, Ordering::Relaxed);
                republish(shared, db, *next_lsn, snap.lsn.saturating_sub(1));
            }
            Err(_) => return TailExit::NeverConnected,
        }
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return TailExit::Shutdown;
        }
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::TimedOut) => {
                // Heartbeats stopped: treat the stream as lost.
                return TailExit::StreamLost;
            }
            Err(_) => return TailExit::StreamLost,
        };
        let batch: WalBatchReply = match crate::protocol::decode::<Response>(&payload) {
            Ok(Response::WalBatch(b)) => b,
            Ok(_) | Err(_) => return TailExit::StreamLost,
        };
        if batch.entries.is_empty() {
            continue; // heartbeat
        }
        let mut applied = 0u64;
        let mut apply = |db: &mut LogicalDatabase, record: &WalRecord| {
            // The stream is the effective log: holes at abort sites are
            // expected. A record that still refuses mirrors recovery's
            // deterministic-refusal accounting — it was journaled but
            // deterministically refused, so skipping keeps us aligned
            // with the primary (`replay_record` rolls a failed record
            // back whole; nothing of it is published).
            if replay_record(db, record).is_err() {
                shared
                    .stats
                    .replica_apply_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            applied += 1;
        };
        let mut hi = *next_lsn;
        for entry in &batch.entries {
            if entry.lsn < *next_lsn || buffer.applied.contains(&entry.lsn) {
                continue; // resubscription overlap, already applied
            }
            hi = hi.max(entry.lsn + 1);
            match &entry.record {
                // Transaction intents are held back, never applied on
                // sight: a reader on this replica must not observe
                // effects the primary has not committed.
                WalRecord::TxnBegin(t) => {
                    buffer.pending.insert(*t, Vec::new());
                }
                WalRecord::TxnOp(t, op) => {
                    buffer
                        .pending
                        .entry(*t)
                        .or_default()
                        .push((entry.lsn, (**op).clone()));
                }
                WalRecord::TxnAbort(t) => {
                    buffer.pending.remove(t);
                }
                WalRecord::TxnCommit(t) => {
                    let Some(ops) = buffer.pending.remove(t) else {
                        continue; // overlap replay of an already-applied commit
                    };
                    buffer.applied.insert(*t);
                    buffer.applied.insert(entry.lsn);
                    for (lsn, op) in ops {
                        apply(db, &op);
                        buffer.applied.insert(lsn);
                    }
                }
                record => {
                    apply(db, record);
                    buffer.applied.insert(entry.lsn);
                }
            }
        }
        // Advance the cursor — but never past an open transaction's begin
        // LSN, so a reconnect re-ships its held intents.
        *next_lsn = buffer.pending.keys().min().copied().unwrap_or(hi);
        let cursor = *next_lsn;
        buffer.applied.retain(|l| *l >= cursor);
        if applied == 0 {
            continue;
        }
        shared
            .stats
            .replica_records
            .fetch_add(applied, Ordering::Relaxed);
        shared.stats.replica_batches.fetch_add(1, Ordering::Relaxed);
        // `last_lsn` advances through every *processed* entry, held-back
        // intents included: the published state agrees with the
        // primary's durable history at each of those LSNs (an
        // uncommitted intent has no effects there either), so pins need
        // not wait for an unrelated open transaction. Only the
        // resubscription cursor stays pinned.
        republish(shared, db, *next_lsn, hi.saturating_sub(1));
    }
}

/// The current published snapshot.
fn published(shared: &ReplicaShared) -> Arc<ReplicaPublished> {
    Arc::clone(
        &shared
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner),
    )
}

/// Publishes the tailer's current state. The generation is forced past
/// the previous publication's: connection read sessions are cached by
/// generation, and a checkpoint bootstrap rebuilds the database through
/// `from_theory`, which would otherwise reset it.
/// `cursor` is the resubscription point (pinned at the oldest open
/// transaction while intents are held); `last_lsn` is the highest
/// shipped LSN the published state agrees with.
fn republish(shared: &ReplicaShared, db: &mut LogicalDatabase, cursor: u64, last_lsn: u64) {
    let previous = published(shared).snapshot.generation();
    db.theory_mut().advance_generation_past(previous);
    let snapshot = TheorySnapshot::capture(db.theory());
    shared.stats.next_lsn.store(cursor, Ordering::Relaxed);
    *shared
        .published
        .write()
        .unwrap_or_else(PoisonError::into_inner) =
        Arc::new(ReplicaPublished { snapshot, last_lsn });
}

// ----- read connections -----------------------------------------------------

/// Per-connection state on the replica: the stream plus read sessions,
/// mirroring the primary's connection but with every write-shaped
/// request refused.
struct ReplicaConnection {
    stream: TcpStream,
    shared: Arc<ReplicaShared>,
    pinned: Option<SnapshotReader>,
    latest: Option<SnapshotReader>,
}

impl Drop for ReplicaConnection {
    fn drop(&mut self) {
        if self.pinned.is_some() {
            self.shared
                .stats
                .pinned_generations
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl ReplicaConnection {
    fn new(stream: TcpStream, shared: Arc<ReplicaShared>) -> Self {
        ReplicaConnection {
            stream,
            shared,
            pinned: None,
            latest: None,
        }
    }

    fn serve(&mut self) {
        let _ = self.stream.set_nodelay(true);
        let _ = self
            .stream
            .set_read_timeout(Some(self.shared.options.idle_timeout));
        loop {
            // Sampled before blocking: a request that arrives during the
            // drain is still answered, and only then is the connection
            // closed — mirrors the primary's drain discipline.
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            let payload = match read_frame(&mut self.stream) {
                Ok(p) => p,
                Err(FrameError::Closed) => break,
                Err(FrameError::TimedOut) => {
                    self.shared
                        .stats
                        .idle_closes
                        .fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e @ (FrameError::Oversized { .. } | FrameError::BadCrc { .. })) => {
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = send(
                        &mut self.stream,
                        &Response::Error(WireError {
                            kind: ErrorKindWire::BadRequest,
                            message: e.to_string(),
                        }),
                    );
                    break;
                }
                Err(_) => {
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    break;
                }
            };
            let request: Request = match crate::protocol::decode(&payload) {
                Ok(r) => r,
                Err(e) => {
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let resp = Response::Error(WireError {
                        kind: ErrorKindWire::BadRequest,
                        message: e.to_string(),
                    });
                    if send(&mut self.stream, &resp).is_err() {
                        break;
                    }
                    continue;
                }
            };
            self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            let is_shutdown = matches!(request, Request::Shutdown);
            let response = self.dispatch(request);
            if send(&mut self.stream, &response).is_err() {
                break;
            }
            // During a drain, close after answering the request that was
            // in flight when the drain started instead of letting a
            // chatty client hold the drain open: the drain is bounded by
            // the idle timeout OR one request round-trip per connection,
            // whichever ends first.
            if is_shutdown || draining {
                break;
            }
        }
    }

    fn dispatch(&mut self, request: Request) -> Response {
        match request {
            Request::Query(src) => self.read(|r| {
                let generation = r.generation();
                r.query(&src).map(|a| {
                    Response::Rows(QueryReply {
                        certain: a.certain,
                        possible: a.possible,
                        generation,
                    })
                })
            }),
            Request::Check(src) => self.read(|r| {
                let generation = r.generation();
                r.decide(&src).map(|(possible, certain)| {
                    Response::Truth(TruthReply {
                        possible,
                        certain,
                        generation,
                    })
                })
            }),
            Request::Explain(src) => self.read(|r| {
                let generation = r.generation();
                r.explain(&src).map(|e| {
                    Response::Explained(ExplainReply {
                        verdict: wire_verdict(e.verdict),
                        witness: e.witness,
                        counterexample: e.counterexample,
                        generation,
                    })
                })
            }),
            Request::Pin => self.pin(0),
            Request::PinAt(min_lsn) => self.pin(min_lsn),
            Request::Unpin => {
                if self.pinned.take().is_some() {
                    self.shared
                        .stats
                        .pinned_generations
                        .fetch_sub(1, Ordering::Relaxed);
                }
                Response::Unpinned
            }
            Request::Stats => self.stats(),
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
                Response::ShuttingDown
            }
            Request::Execute(_)
            | Request::DeclareRelation(..)
            | Request::DeclareAttribute(_)
            | Request::LoadFact(..)
            | Request::LoadWff(_)
            | Request::Checkpoint
            | Request::Begin
            | Request::Commit
            | Request::Rollback
            | Request::Subscribe(_) => read_only(),
        }
    }

    /// `Pin` / `PinAt` on the replica: the identical check the primary
    /// runs, but here `last_lsn` is the replication cursor — so a refusal
    /// means "not caught up yet", the pinned-LSN consistency contract.
    fn pin(&mut self, min_lsn: u64) -> Response {
        let published = published(&self.shared);
        if min_lsn > 0 && published.last_lsn < min_lsn {
            self.shared
                .stats
                .lag_refusals
                .fetch_add(1, Ordering::Relaxed);
            return Response::Error(WireError {
                kind: ErrorKindWire::LagBehind,
                message: format!(
                    "replica applied through lsn {} but the pin demands lsn {min_lsn}",
                    published.last_lsn
                ),
            });
        }
        let reply = SnapshotReply {
            generation: published.snapshot.generation(),
            updates_applied: self.shared.stats.replica_records.load(Ordering::Relaxed),
            last_lsn: published.last_lsn,
        };
        if self.pinned.is_none() {
            self.shared
                .stats
                .pinned_generations
                .fetch_add(1, Ordering::Relaxed);
        }
        // A re-pin advances the previous pin's reader by what changed.
        self.pinned = Some(match self.pinned.take() {
            Some(reader) => reader.advance(published.snapshot.clone()),
            None => published.snapshot.reader(),
        });
        Response::Pinned(reply)
    }

    fn read(
        &mut self,
        f: impl FnOnce(&mut SnapshotReader) -> Result<Response, DbError>,
    ) -> Response {
        self.shared.stats.reads.fetch_add(1, Ordering::Relaxed);
        let reader = if let Some(pinned) = self.pinned.as_mut() {
            pinned
        } else {
            let published = published(&self.shared);
            let current = published.snapshot.generation();
            let session = match self.latest.take() {
                Some(r) if r.generation() == current => r,
                _ => published.snapshot.reader(),
            };
            self.latest.insert(session)
        };
        match f(reader) {
            Ok(resp) => resp,
            // Same kind mapping as the primary (strict-parse errors are
            // `Parse`, dependency refusals are `Refused`, ...): a client
            // must not be able to tell the roles apart by error kind.
            Err(e) => Response::Error(crate::server::wire_error(&e)),
        }
    }

    fn stats(&mut self) -> Response {
        Response::Stats(Box::new(stats_reply(&self.shared)))
    }
}

/// Builds the replica's stats reply — everything is an atomic or the
/// published snapshot, so no lock beyond the publication slot is taken.
fn stats_reply(shared: &ReplicaShared) -> StatsReply {
    let s = &shared.stats;
    let p = published(shared);
    StatsReply {
        accepted: s.accepted.load(Ordering::Relaxed),
        rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
        requests: s.requests.load(Ordering::Relaxed),
        reads: s.reads.load(Ordering::Relaxed),
        idle_closes: s.idle_closes.load(Ordering::Relaxed),
        protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        pinned_generations: s.pinned_generations.load(Ordering::Relaxed),
        replica_batches: s.replica_batches.load(Ordering::Relaxed),
        replica_records: s.replica_records.load(Ordering::Relaxed),
        replica_snapshots_loaded: s.replica_snapshots_loaded.load(Ordering::Relaxed),
        replica_reconnects: s.replica_reconnects.load(Ordering::Relaxed),
        lag_refusals: s.lag_refusals.load(Ordering::Relaxed),
        generation: p.snapshot.generation(),
        next_lsn: s.next_lsn.load(Ordering::Relaxed),
        ..StatsReply::default()
    }
}

fn read_only() -> Response {
    Response::Error(WireError {
        kind: ErrorKindWire::ReadOnly,
        message: "replica is read-only; send writes to the primary".into(),
    })
}

fn wire_verdict(v: winslett_core::explain::Verdict) -> crate::protocol::WireVerdict {
    use crate::protocol::WireVerdict;
    use winslett_core::explain::Verdict;
    match v {
        Verdict::Certain => WireVerdict::Certain,
        Verdict::Uncertain => WireVerdict::Uncertain,
        Verdict::Impossible => WireVerdict::Impossible,
        Verdict::Inconsistent => WireVerdict::Inconsistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use crate::server::{Server, ServerOptions};
    use std::time::Instant;
    use winslett_core::{MemStorage, WalOptions};

    fn boot_primary() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let (server, _report) = Server::bind(
            ("127.0.0.1", 0),
            MemStorage::new(),
            DbOptions::default(),
            WalOptions::default(),
            ServerOptions {
                compaction: None,
                ..ServerOptions::default()
            },
        )
        .expect("bind primary");
        let addr = server.local_addr();
        let h = std::thread::spawn(move || {
            let _ = server.run();
        });
        (addr, h)
    }

    fn boot_replica(primary: std::net::SocketAddr) -> (Replica, ReplicaHandle) {
        let replica = Replica::bind(
            ("127.0.0.1", 0),
            primary,
            DbOptions::default(),
            ReplicaOptions {
                reconnect_backoff: Duration::from_millis(10),
                ..ReplicaOptions::default()
            },
        )
        .expect("bind replica");
        let handle = replica.handle();
        (replica, handle)
    }

    /// Retries `pin_at(min_lsn)` against the replica until it stops
    /// refusing with `LagBehind` or the deadline passes.
    fn pin_until_caught_up(
        client: &mut Client,
        min_lsn: u64,
        deadline: Duration,
    ) -> crate::protocol::SnapshotReply {
        let start = Instant::now();
        loop {
            match client.pin_at(min_lsn) {
                Ok(snap) => return snap,
                Err(ClientError::Server(e)) if e.kind == ErrorKindWire::LagBehind => {
                    assert!(
                        start.elapsed() < deadline,
                        "replica never caught up to lsn {min_lsn}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(other) => panic!("pin_at failed: {other}"),
            }
        }
    }

    #[test]
    fn replica_tails_the_primary_and_serves_pinned_reads() {
        let (primary_addr, primary_thread) = boot_primary();
        let mut writer = Client::connect(primary_addr).expect("connect primary");
        writer.declare_relation("R", 1).expect("declare");
        let first = writer.execute("INSERT R(a) WHERE T").expect("first insert");

        let (replica, handle) = boot_replica(primary_addr);
        let replica_addr = replica.local_addr();
        let replica_thread = std::thread::spawn(move || {
            let _ = replica.run();
        });

        let mut reader = Client::connect(replica_addr).expect("connect replica");
        // Pinned-LSN consistency: once the pin succeeds, the verdict must
        // match the primary's history at that LSN.
        let snap = pin_until_caught_up(&mut reader, first.lsn, Duration::from_secs(5));
        assert!(snap.last_lsn >= first.lsn);
        let truth = reader.check("R(a)").expect("check on replica");
        assert!(truth.certain, "R(a) is certain at lsn {}", first.lsn);
        reader.unpin().expect("unpin");

        // A later write becomes visible after a later pin.
        let second = writer.execute("DELETE R(a) WHERE T").expect("second write");
        let _ = pin_until_caught_up(&mut reader, second.lsn, Duration::from_secs(5));
        let truth = reader.check("R(a)").expect("check after delete");
        assert!(!truth.possible, "R(a) is gone at lsn {}", second.lsn);
        reader.unpin().expect("unpin");

        // An LSN from the future refuses instead of blocking or lying.
        match reader.pin_at(second.lsn + 1000) {
            Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::LagBehind),
            other => panic!("expected LagBehind, got {other:?}"),
        }

        // Every write-shaped request is a typed ReadOnly refusal.
        match reader.execute("INSERT R(b) WHERE T") {
            Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::ReadOnly),
            other => panic!("expected ReadOnly, got {other:?}"),
        }
        match reader.checkpoint() {
            Err(ClientError::Server(e)) => assert_eq!(e.kind, ErrorKindWire::ReadOnly),
            other => panic!("expected ReadOnly, got {other:?}"),
        }

        // Close the read connection so the replica's drain is immediate.
        drop(reader);
        handle.request_shutdown();
        replica_thread.join().expect("replica thread");
        writer.shutdown().expect("shutdown primary");
        primary_thread.join().expect("primary thread");
    }

    #[test]
    fn replica_assembles_a_chunked_catchup_bootstrap() {
        use crate::protocol::{CatchupChunkReply, CatchupReply};
        use winslett_core::wal::{Catchup, DurableDatabase};
        use winslett_core::{MemStorage, WalOptions};

        // Real checkpoint material to serve, prepared in-process.
        let (mut db, _) = DurableDatabase::open(
            MemStorage::new(),
            DbOptions::default(),
            WalOptions::default(),
        )
        .expect("open");
        db.declare_relation("R", 1).expect("declare");
        db.execute("INSERT R(a) WHERE T").expect("insert");
        db.checkpoint().expect("checkpoint");
        let next_lsn = db.next_lsn();
        let snap = match db.catchup_from(0).expect("catchup") {
            Catchup::Snapshot(snap, _) => *snap,
            Catchup::Suffix(_) => panic!("checkpoint must force the snapshot path"),
        };
        let pin_lsn = snap.lsn.saturating_sub(1);

        // A hand-rolled primary: one subscription, answered with the
        // snapshot split into deliberately tiny CatchupChunk parts — the
        // exact wire shape a >4 MiB bootstrap produces, without the 4 MiB.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind fake primary");
        let primary_addr = listener.local_addr().expect("addr");
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            match recv::<Request>(&mut s) {
                Ok(Request::Subscribe(0)) => {}
                other => panic!("expected Subscribe(0), got {other:?}"),
            }
            send(
                &mut s,
                &Response::Catchup(Box::new(CatchupReply {
                    snapshot: None,
                    next_lsn,
                    chunked: true,
                })),
            )
            .expect("announce");
            let json = serde_json::to_string(&snap).expect("encode");
            let bytes = json.as_bytes();
            let mut at = 0usize;
            while at < bytes.len() {
                let mut cut = (at + 64).min(bytes.len());
                while !json.is_char_boundary(cut) {
                    cut -= 1;
                }
                let part = json[at..cut].to_string();
                at = cut;
                send(
                    &mut s,
                    &Response::CatchupChunk(CatchupChunkReply {
                        part,
                        done: at == bytes.len(),
                    }),
                )
                .expect("chunk");
            }
            // Heartbeats until the replica hangs up.
            while send(
                &mut s,
                &Response::WalBatch(WalBatchReply {
                    entries: Vec::new(),
                }),
            )
            .is_ok()
            {
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        let (replica, handle) = boot_replica(primary_addr);
        let replica_addr = replica.local_addr();
        let replica_thread = std::thread::spawn(move || {
            let _ = replica.run();
        });
        let mut reader = Client::connect(replica_addr).expect("connect replica");
        let _ = pin_until_caught_up(&mut reader, pin_lsn, Duration::from_secs(5));
        let truth = reader.check("R(a)").expect("check");
        assert!(truth.certain, "R(a) folded into the chunked snapshot");
        reader.unpin().expect("unpin");
        let stats = reader.stats().expect("stats");
        assert_eq!(stats.replica_snapshots_loaded, 1, "snapshot path taken");

        drop(reader);
        handle.request_shutdown();
        replica_thread.join().expect("replica thread");
        fake.join().expect("fake primary thread");
    }

    #[test]
    fn replica_bootstraps_from_a_checkpoint_snapshot() {
        let (primary_addr, primary_thread) = boot_primary();
        let mut writer = Client::connect(primary_addr).expect("connect primary");
        writer.declare_relation("S", 1).expect("declare");
        writer.execute("INSERT S(x) WHERE T").expect("insert");
        // Checkpoint folds everything into the snapshot; a fresh replica
        // subscribing from 0 now predates the checkpoint and must take
        // the snapshot-plus-suffix path.
        writer.checkpoint().expect("checkpoint");
        let last = writer.execute("INSERT S(y) WHERE T").expect("suffix write");

        let (replica, handle) = boot_replica(primary_addr);
        let replica_addr = replica.local_addr();
        let replica_thread = std::thread::spawn(move || {
            let _ = replica.run();
        });
        let mut reader = Client::connect(replica_addr).expect("connect replica");
        let _ = pin_until_caught_up(&mut reader, last.lsn, Duration::from_secs(5));
        for probe in ["S(x)", "S(y)"] {
            let truth = reader.check(probe).expect("check");
            assert!(truth.certain, "{probe} must be certain after bootstrap");
        }
        reader.unpin().expect("unpin");
        let stats = reader.stats().expect("stats");
        assert_eq!(stats.replica_snapshots_loaded, 1, "snapshot path taken");
        assert!(stats.replica_records >= 1, "suffix replayed");

        drop(reader);
        handle.request_shutdown();
        replica_thread.join().expect("replica thread");
        writer.shutdown().expect("shutdown primary");
        primary_thread.join().expect("primary thread");
    }
}
