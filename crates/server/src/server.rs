//! The server: one writer thread-at-a-time, any number of snapshot
//! readers, bounded admission, idle timeouts, graceful drain.
//!
//! ## Concurrency model
//!
//! * **Writes** serialize through a `Mutex<DurableDatabase>`. Each
//!   acknowledged update is journaled (WAL) *before* GUA applies it, and
//!   its reply carries the WAL LSN — the serialization order.
//! * **Write batching** (on by default, [`ServerOptions::batch_writes`]):
//!   writes enqueue into a shared queue and whichever thread wins the
//!   writer lock drains it as the *leader*, applying everyone's writes
//!   and handing replies back through per-job slots. The leader runs the
//!   queued statements through [`winslett_analyze::ConflictAnalyzer`] and
//!   coalesces a run of pairwise-independent updates into one batch:
//!   applied in arrival order (never reordered), made durable with **one
//!   `fsync`**, and published as **one snapshot**. Conflicting or
//!   unanalyzable statements close the batch, so a reader can only ever
//!   miss intermediate states that provably-independent writes would have
//!   produced. Batched acks are sent *after* the batch's sync — at least
//!   as durable as the unbatched path.
//! * **Reads** never take the writer lock. After every update the writer
//!   publishes a [`TheorySnapshot`] (a copy-on-write theory clone — O(1),
//!   sharing every chunk and shard with the live theory — behind an `Arc`)
//!   into an `RwLock` slot; connections grab the `Arc` and answer from a
//!   private [`SnapshotReader`] whose entailment session is encoded once
//!   per snapshot and reused across queries. A connection may `Pin` its
//!   snapshot, keeping a long analytical session on one generation while
//!   the writer commits on.
//! * **Admission** is a hard cap on live connections: the connection over
//!   the cap receives a typed `Busy` error frame and a close — never a
//!   silent hang.
//! * **Shutdown** (protocol request or [`ServerHandle::request_shutdown`])
//!   stops the accept loop, drains live connections (bounded by the idle
//!   timeout), then closes the durable database — flushing any
//!   group-commit buffered WAL records — and hands the storage back.

use crate::protocol::{
    catchup_frames, read_frame, send, write_frame, CheckpointReply, ErrorKindWire, ExecReply,
    ExplainReply, FrameError, QueryReply, Request, Response, SnapshotReply, StatsReply, TruthReply,
    TxnReply, WalBatchReply, WireError, WireVerdict, MAX_FRAME_LEN,
};
use crate::reactor::{
    Completions, Done, NetCounters, PublishedView, Reactor, ReactorConfig, Role, RoleAction,
    TOKEN_NONE,
};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock, TryLockError, Weak};
use std::time::{Duration, Instant};
use winslett_analyze::ConflictAnalyzer;
use winslett_core::explain::Verdict;
use winslett_core::snapshot::{SnapshotReader, TheorySnapshot};
use winslett_core::wal::{Catchup, DurableDatabase, RecoveryReport, Storage, WalOptions};
use winslett_core::{DbError, DbOptions, LockRequest, LockTable, WalEntry};
use winslett_gua::SimplifyLevel;
use winslett_logic::AccessSet;
use winslett_theory::Theory;

/// How often an idle subscription stream emits an empty heartbeat batch,
/// proving liveness to the follower (whose read timeout is a multiple of
/// this).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Tunables.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Hard cap on concurrently served connections; the next connection
    /// is refused with a typed `Busy` error.
    pub max_connections: usize,
    /// A connection idle (or stalled mid-frame) this long is closed.
    pub idle_timeout: Duration,
    /// Coalesce pairwise-independent queued writes into group-commit
    /// batches (one fsync, one snapshot publication per batch). Apply
    /// order is always arrival order; batching only changes *when*
    /// durability and snapshot publication happen. Off = the classic
    /// one-publication-per-write path.
    pub batch_writes: bool,
    /// Background-compaction policy; `None` disables the compactor
    /// thread. On by default — the trigger thresholds keep it dormant on
    /// small databases.
    pub compaction: Option<CompactionPolicy>,
    /// Serve with the classic blocking thread-per-connection loop
    /// instead of the epoll reactor. Kept as the benchmarking baseline
    /// (`BENCH_connections.json` compares the two); the reactor is the
    /// default and the gated path.
    pub threaded: bool,
    /// How long a transactional statement may wait for its footprint
    /// locks before the transaction is aborted with a typed `TxnTimeout`.
    /// The timeout doubles as deadlock avoidance: two transactions that
    /// wait on each other both die at the deadline instead of hanging.
    pub lock_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            batch_writes: true,
            compaction: Some(CompactionPolicy::default()),
            threaded: false,
            lock_timeout: Duration::from_secs(2),
        }
    }
}

/// When and how the background compactor runs.
///
/// A round fires when the published theory is past `min_nodes` *and*
/// either its store has grown by `growth_factor` over the size left by
/// the previous round, or `max_lsn_lag` records have committed since the
/// previous round (so sustained small writes still get folded down even
/// when each one barely grows the store).
#[derive(Clone, Debug)]
pub struct CompactionPolicy {
    /// Trigger when live store nodes ≥ this factor × the post-compaction
    /// baseline (§3.6 store-size measure).
    pub growth_factor: f64,
    /// Node floor below which the compactor never runs.
    pub min_nodes: usize,
    /// Trigger regardless of growth once this many records have
    /// committed since the last round.
    pub max_lsn_lag: u64,
    /// How often the trigger is evaluated.
    pub poll_interval: Duration,
    /// Simplification depth for the off-lock pass.
    pub level: SimplifyLevel,
    /// Take a checkpoint from the compacted theory inside the swap's
    /// critical section, so the on-storage snapshot shrinks too.
    pub checkpoint: bool,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            growth_factor: 2.0,
            min_nodes: 512,
            max_lsn_lag: 4096,
            poll_interval: Duration::from_millis(20),
            level: SimplifyLevel::Full,
            checkpoint: true,
        }
    }
}

/// Monotone counters, updated lock-free by connection threads.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted into service.
    pub accepted: AtomicU64,
    /// Connections refused at the admission gate.
    pub rejected_busy: AtomicU64,
    /// Requests served, all kinds.
    pub requests: AtomicU64,
    /// Updates acknowledged.
    pub updates: AtomicU64,
    /// Read requests (query/check/explain) served.
    pub reads: AtomicU64,
    /// Snapshots published by the writer.
    pub snapshots_published: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closes: AtomicU64,
    /// Malformed frames / undecodable requests observed.
    pub protocol_errors: AtomicU64,
    /// Write batches flushed (each = one sync + one snapshot publication).
    pub write_batches: AtomicU64,
    /// Writes that shared a batch with at least one other write.
    pub coalesced_writes: AtomicU64,
    /// Snapshot generations currently pinned by connections (gauge:
    /// `Pin` raises it, `Unpin` and pinned-connection teardown lower it).
    pub pinned_generations: AtomicU64,
    /// Superseded published generations whose `Arc<Theory>` is still
    /// alive (gauge, refreshed on publication and stats reads).
    pub retained_generations: AtomicU64,
    /// Background-compaction swaps installed.
    pub compactions: AtomicU64,
    /// Compaction rounds abandoned at swap time.
    pub compaction_aborts: AtomicU64,
    /// Store nodes reclaimed across all swaps.
    pub compaction_nodes_reclaimed: AtomicU64,
    /// Cumulative writer-lock pause across swaps, µs.
    pub compaction_swap_pause_us: AtomicU64,
    /// Longest single swap pause, µs.
    pub compaction_swap_pause_max_us: AtomicU64,
    /// WAL records shipped to subscribers (summed over subscribers).
    pub records_shipped: AtomicU64,
    /// `PinAt` requests refused because the published snapshot had not
    /// reached the demanded LSN.
    pub lag_refusals: AtomicU64,
    /// Transactions opened with `Begin`.
    pub txn_begun: AtomicU64,
    /// Transactions committed.
    pub txn_committed: AtomicU64,
    /// Transactions rolled back — client `Rollback`, lock timeout,
    /// drain abort, or connection teardown.
    pub txn_aborted: AtomicU64,
    /// Transactions currently open (gauge).
    pub txn_active: AtomicU64,
    /// Plain (non-transactional) writes refused because they collided
    /// with locks held by an open transaction.
    pub txn_conflicts: AtomicU64,
}

/// What the writer last published: an immutable snapshot plus its place
/// in the acknowledged-update order.
struct Published {
    snapshot: TheorySnapshot,
    updates_applied: u64,
    last_lsn: u64,
}

struct Shared<S: Storage> {
    writer: Mutex<Option<DurableDatabase<S>>>,
    published: RwLock<Arc<Published>>,
    /// Pending writes awaiting a leader (batched mode only).
    queue: Mutex<VecDeque<WriteJob>>,
    /// Live WAL subscribers: each holds the sending half of its
    /// subscription channel. Registration happens under the writer lock
    /// (atomically with the catch-up computation), so no committed record
    /// can fall between the backlog and the stream. Dead subscribers are
    /// pruned when a send fails.
    subscribers: Mutex<Vec<mpsc::Sender<Vec<WalEntry>>>>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    options: ServerOptions,
    addr: SocketAddr,
    /// The reactor's completion queue, installed in epoll mode so
    /// [`ship`] can wake the event loop when records land for streaming
    /// subscribers. `None` in threaded mode (subscription threads block
    /// on their channels directly).
    notify: Mutex<Option<Arc<Completions>>>,
    /// Weak handles on superseded published generations, backing the
    /// `retained_generations` gauge: an entry whose upgrade fails has
    /// been fully released (no pin, cached session, or in-flight read
    /// holds its `Arc<Theory>` anymore) and is pruned.
    retained: Mutex<Vec<(u64, Weak<Theory>)>>,
    /// The lock table: S/X locks at footprint-atom granularity, held by
    /// open transactions under strict two-phase locking.
    locks: LockTable,
    /// Reactor-mode bookkeeping: which connection token owns which open
    /// transaction. Value `0` reserves the slot while the `Begin` is in
    /// flight to the writer thread (real transaction ids are WAL LSNs,
    /// which start at 1).
    txn_by_token: Mutex<HashMap<u64, u64>>,
}

/// Upper bound on writes coalesced into one batch, so a follower's ack
/// latency stays bounded under a deep queue.
const MAX_BATCH: usize = 32;

/// A write request in database terms, detached from its connection so the
/// leader can apply it on the submitter's behalf.
enum WriteOp {
    Execute(String),
    DeclareRelation(String, u64),
    DeclareAttribute(String),
    LoadFact(String, Vec<String>),
    LoadWff(String),
}

/// Where a write's reply goes: a blocking connection thread's slot, or
/// the reactor's completion queue.
#[derive(Clone)]
enum WriteDone {
    /// Fill the slot and wake the waiting connection thread.
    Slot(Arc<ReplySlot>),
    /// Post to the reactor, tagged for the awaiting connection.
    Reactor {
        token: u64,
        seq: u64,
        completions: Arc<Completions>,
    },
}

impl WriteDone {
    fn fill(&self, r: Response) {
        match self {
            WriteDone::Slot(slot) => slot.fill(r),
            WriteDone::Reactor {
                token,
                seq,
                completions,
            } => completions.post(*token, *seq, Done::Resp(r)),
        }
    }
}

/// One queued write plus the path its reply travels back through.
struct WriteJob {
    op: WriteOp,
    done: WriteDone,
}

/// A single-use mailbox: the leader fills it, the submitter waits on it.
#[derive(Default)]
struct ReplySlot {
    resp: Mutex<Option<Response>>,
    cv: Condvar,
}

impl ReplySlot {
    fn fill(&self, r: Response) {
        // The slot holds plain data; a poisoned lock can't corrupt it.
        let mut guard = self.resp.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(r);
        self.cv.notify_all();
    }

    fn try_take(&self) -> Option<Response> {
        self.resp
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    fn wait(&self, timeout: Duration) -> Option<Response> {
        let guard = self.resp.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut guard, _) = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.take()
    }
}

/// A cheap, clonable handle for poking a running server from outside its
/// accept loop (signal handlers, tests, sibling threads).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    active: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Connections currently in service.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown: sets the flag and pokes the accept
    /// loop awake with a throwaway connection.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake a blocking `accept` so it observes the flag. Errors are
        // fine — the listener may already be gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// The server: a bound listener plus the shared state its connection
/// threads work against.
pub struct Server<S: Storage + Send + 'static> {
    listener: TcpListener,
    shared: Arc<Shared<S>>,
}

impl<S: Storage + Send + 'static> Server<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and opens (or
    /// recovers) the durable database on `storage`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        storage: S,
        db_options: DbOptions,
        wal_options: WalOptions,
        options: ServerOptions,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (mut db, report) = DurableDatabase::open(storage, db_options, wal_options)?;
        // Arm WAL shipping up front: the retained tail is drained to
        // subscribers (or discarded when there are none) after every
        // write batch, so the cost of arming before any replica connects
        // is one Vec push per record.
        db.enable_shipping();
        let snapshot = TheorySnapshot::capture(db.db().theory());
        let last_lsn = db.next_lsn().saturating_sub(1);
        let shared = Arc::new(Shared {
            writer: Mutex::new(Some(db)),
            published: RwLock::new(Arc::new(Published {
                snapshot,
                updates_applied: 0,
                last_lsn,
            })),
            queue: Mutex::new(VecDeque::new()),
            subscribers: Mutex::new(Vec::new()),
            stats: Arc::new(ServerStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            options,
            addr,
            notify: Mutex::new(None),
            retained: Mutex::new(Vec::new()),
            locks: LockTable::new(),
            txn_by_token: Mutex::new(HashMap::new()),
        });
        Ok((Server { listener, shared }, report))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle usable from other threads (shutdown, stats).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.shared.addr,
            shutdown: Arc::clone(&self.shared.shutdown),
            stats: Arc::clone(&self.shared.stats),
            active: Arc::clone(&self.shared.active),
        }
    }

    /// Serves until shutdown is requested, drains live connections, then
    /// closes the durable database — **flushing buffered WAL records** —
    /// and returns the storage (tests reopen it to inspect final state).
    ///
    /// The default I/O core is the nonblocking epoll reactor (one thread
    /// owning every socket, writes funneled to a single writer thread,
    /// SAT reads on a small worker pool); `ServerOptions::threaded`
    /// selects the classic blocking thread-per-connection loop instead.
    pub fn run(self) -> Result<S, DbError> {
        if self.shared.options.threaded {
            self.run_threaded()
        } else {
            self.run_epoll()
        }
    }

    /// The epoll event-loop server.
    fn run_epoll(self) -> Result<S, DbError> {
        let Server { listener, shared } = self;
        let compactor = shared.options.compaction.clone().map(|policy| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_compactor(&shared, &policy))
        });
        let completions = Completions::new()?;
        *shared.notify.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::clone(&completions));
        let chan = Arc::new(WriterChan::default());
        let writer_thread = {
            let shared = Arc::clone(&shared);
            let chan = Arc::clone(&chan);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || run_writer(&shared, &chan, &completions))
        };
        let role = PrimaryRole {
            shared: Arc::clone(&shared),
            chan: Arc::clone(&chan),
            completions: Arc::clone(&completions),
        };
        let config = ReactorConfig {
            max_connections: shared.options.max_connections,
            idle_timeout: shared.options.idle_timeout,
        };
        let run_result = Reactor::new(
            listener,
            role,
            Arc::clone(&completions),
            config,
            Arc::clone(&shared.shutdown),
            Arc::clone(&shared.active),
        )
        .and_then(Reactor::run);
        // Whether the reactor drained cleanly or died on an epoll error,
        // the teardown discipline is the same: flag the shutdown so the
        // compactor exits, stop the writer thread after it finishes the
        // queued work, then close the database.
        shared.shutdown.store(true, Ordering::SeqCst);
        chan.close();
        let _ = writer_thread.join();
        *shared.notify.lock().unwrap_or_else(PoisonError::into_inner) = None;
        if let Some(handle) = compactor {
            let _ = handle.join();
        }
        rollback_orphans(&shared);
        run_result?;
        let db = shared
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match db {
            Some(db) => db.close(),
            None => Err(DbError::Storage {
                message: "writer already closed".into(),
            }),
        }
    }

    /// The classic blocking loop: one kernel thread per connection.
    fn run_threaded(self) -> Result<S, DbError> {
        let Server { listener, shared } = self;
        let compactor = shared.options.compaction.clone().map(|policy| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_compactor(&shared, &policy))
        });
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up poke, or a late arrival during drain
            }
            // Admission gate: count ourselves in, back out if over cap.
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
                Connection::new(stream, Arc::clone(&shared)).serve();
                shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(listener);
        // Drain: connection threads exit on their own (request loop, idle
        // timeout); writes arriving during the drain are refused.
        while shared.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // The compactor observes the shutdown flag; join it before taking
        // the writer so an in-flight swap completes or aborts cleanly.
        if let Some(handle) = compactor {
            let _ = handle.join();
        }
        rollback_orphans(&shared);
        // Even if a write panicked and poisoned the lock, closing is the
        // best effort left: the WAL only ever holds intact records.
        let db = shared
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match db {
            Some(db) => db.close(),
            None => Err(DbError::Storage {
                message: "writer already closed".into(),
            }),
        }
    }
}

/// Sends the typed `Busy` rejection (best-effort) and closes.
fn reject_busy(mut stream: TcpStream, active: usize, cap: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = send(
        &mut stream,
        &Response::Error(WireError {
            kind: ErrorKindWire::Busy,
            message: format!("server busy: {active} connections, cap {cap}"),
        }),
    );
}

/// Per-connection state: the stream plus this connection's read sessions.
struct Connection<S: Storage + Send + 'static> {
    stream: TcpStream,
    shared: Arc<Shared<S>>,
    /// Set while the client holds a `Pin`: reads stay on this snapshot.
    pinned: Option<SnapshotReader>,
    /// Follow-the-latest reader, rebuilt only when the published
    /// generation moves (so repeated reads reuse one entailment session).
    latest: Option<SnapshotReader>,
    /// The transaction this connection holds open, if any. All writes
    /// route into it until `Commit`/`Rollback`; teardown rolls it back.
    txn: Option<u64>,
}

impl<S: Storage + Send + 'static> Drop for Connection<S> {
    /// Releases the pinned-generation gauge entry if the connection dies
    /// while holding a pin — covers clients that disconnect (or are
    /// idle-timeout reaped) without sending `Unpin`. The reader itself
    /// drops with the struct, which is what actually frees the pinned
    /// `Arc<Theory>` generation.
    fn drop(&mut self) {
        if self.pinned.is_some() {
            self.shared
                .stats
                .pinned_generations
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<S: Storage + Send + 'static> Connection<S> {
    fn new(stream: TcpStream, shared: Arc<Shared<S>>) -> Self {
        Connection {
            stream,
            shared,
            pinned: None,
            latest: None,
            txn: None,
        }
    }

    fn serve(&mut self) {
        let _ = self.stream.set_nodelay(true);
        let _ = self
            .stream
            .set_read_timeout(Some(self.shared.options.idle_timeout));
        loop {
            // Sampled before blocking: a request that arrives during the
            // drain is still answered (typed refusal for writes), and
            // only then is the connection closed.
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
                    // The stream is not resynchronizable past a bad
                    // length/checksum: answer with the typed error, close.
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
                    // Torn mid-frame or I/O failure: nothing to say to a
                    // half-dead peer; clean close.
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
                    // The frame itself was intact, so the stream is still
                    // synchronized: report and keep serving.
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
            if let Request::Subscribe(from_lsn) = request {
                // The connection turns into a one-way WAL stream and never
                // returns to request/response service.
                self.serve_subscription(from_lsn);
                break;
            }
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
        // A connection that exits (peer gone, idle-reaped, or drained)
        // with a transaction open must not leave its locks behind.
        if let Some(txn) = self.txn.take() {
            txn_rollback_shared(&self.shared, txn);
        }
    }

    fn dispatch(&mut self, request: Request) -> Response {
        match request {
            Request::Execute(src) => self.write(WriteOp::Execute(src)),
            Request::DeclareRelation(name, arity) => {
                self.write(WriteOp::DeclareRelation(name, arity))
            }
            Request::DeclareAttribute(name) => self.write(WriteOp::DeclareAttribute(name)),
            Request::LoadFact(pred, args) => self.write(WriteOp::LoadFact(pred, args)),
            Request::LoadWff(src) => self.write(WriteOp::LoadWff(src)),
            Request::Begin => self.begin(),
            Request::Commit => self.commit(),
            Request::Rollback => self.rollback(),
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
            Request::Checkpoint => self.checkpoint(),
            Request::Shutdown => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so the drain starts now.
                let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
                Response::ShuttingDown
            }
            Request::Ping => Response::Pong,
            // Intercepted in `serve` before dispatch; reaching here means
            // a bug, answer typed rather than panic.
            Request::Subscribe(_) => Response::Error(WireError {
                kind: ErrorKindWire::BadRequest,
                message: "subscription must be the stream's own request".into(),
            }),
        }
    }

    /// `Pin` / `PinAt`: nails the connection's reads to the current
    /// published snapshot, refusing with a typed `LagBehind` when that
    /// snapshot has not yet acknowledged `min_lsn` — on the primary that
    /// only happens for an LSN from the future, but the identical check on
    /// a replica is the pinned-LSN consistency contract.
    fn pin(&mut self, min_lsn: u64) -> Response {
        let published = read_published(&self.shared);
        if min_lsn > 0 && published.last_lsn < min_lsn {
            self.shared
                .stats
                .lag_refusals
                .fetch_add(1, Ordering::Relaxed);
            return Response::Error(WireError {
                kind: ErrorKindWire::LagBehind,
                message: format!(
                    "snapshot covers lsn {} but the pin demands lsn {min_lsn}",
                    published.last_lsn
                ),
            });
        }
        let reply = SnapshotReply {
            generation: published.snapshot.generation(),
            updates_applied: published.updates_applied,
            last_lsn: published.last_lsn,
        };
        if self.pinned.is_none() {
            // Re-pinning swaps generations without changing the count of
            // connections holding one.
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

    /// Serves one WAL subscription: under the writer lock, computes the
    /// catch-up material for `from_lsn` and registers the subscription
    /// channel — atomically, so every committed record lands in exactly
    /// one of the two. Then streams the backlog and every subsequent write
    /// batch, with empty heartbeats while idle. Exits when the peer drops,
    /// a send fails, or the server drains.
    fn serve_subscription(&mut self, from_lsn: u64) {
        let _ = self
            .stream
            .set_write_timeout(Some(self.shared.options.idle_timeout));
        let (catchup, next_lsn, rx) = {
            let mut guard = match self.shared.writer.lock() {
                Ok(g) => g,
                Err(_) => {
                    let _ = send(&mut self.stream, &Response::Error(poisoned_writer()));
                    return;
                }
            };
            let Some(db) = guard.as_mut() else {
                let _ = send(&mut self.stream, &Response::Error(closed_writer()));
                return;
            };
            // Flush anything still in the shipping tail to the *existing*
            // subscribers, so our registration point is exactly the
            // storage state the catch-up reads.
            ship(&self.shared, db);
            match db.catchup_from(from_lsn) {
                Ok(c) => {
                    let (tx, rx) = mpsc::channel();
                    self.shared
                        .subscribers
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(tx);
                    (c, db.next_lsn(), rx)
                }
                Err(e) => {
                    drop(guard);
                    let _ = send(&mut self.stream, &Response::Error(wire_error(&e)));
                    return;
                }
            }
        };
        let opening = match opening_payloads(catchup, next_lsn) {
            Ok(payloads) => payloads,
            Err(e) => {
                let _ = send(&mut self.stream, &Response::Error(e));
                return;
            }
        };
        for payload in &opening {
            if write_frame(&mut self.stream, payload.as_bytes()).is_err() {
                return;
            }
        }
        loop {
            match rx.recv_timeout(HEARTBEAT_INTERVAL) {
                Ok(entries) => {
                    if ship_wal_batch(&mut self.stream, entries).is_err() {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Heartbeat: liveness, and how a dead peer is noticed.
                    if send(
                        &mut self.stream,
                        &Response::WalBatch(WalBatchReply {
                            entries: Vec::new(),
                        }),
                    )
                    .is_err()
                    {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// One write request: refused during drain (aborting any open
    /// transaction, so its locks cannot outlive the drain), routed into
    /// the connection's open transaction if one exists, else to the
    /// batching queue or the classic direct path.
    fn write(&mut self, op: WriteOp) -> Response {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            if let Some(txn) = self.txn.take() {
                txn_rollback_shared(&self.shared, txn);
                return Response::Error(drain_abort());
            }
            return Response::Error(WireError {
                kind: ErrorKindWire::ShuttingDown,
                message: "server is draining; write refused".into(),
            });
        }
        if let Some(txn) = self.txn {
            return self.txn_statement(txn, op);
        }
        if self.shared.options.batch_writes {
            self.enqueue_write(op)
        } else {
            self.write_direct(op)
        }
    }

    /// One statement inside this connection's open transaction: acquire
    /// the statement's footprint locks first (blocking, bounded by
    /// `lock_timeout`), then journal the intent and grow the private
    /// workspace under the writer lock. The order matters — waiting
    /// while holding the writer lock would block every other
    /// connection's commit, including the one that would release the
    /// very locks we wait for.
    fn txn_statement(&mut self, txn: u64, op: WriteOp) -> Response {
        let requests = lock_requests_for(&op);
        // Checked before acquisition: locks taken for *this* statement
        // must not count as "already held" (workspace refresh skip).
        let covered = self.shared.locks.holds_all(txn, &requests);
        if let Err(e) =
            self.shared
                .locks
                .lock_wait(txn, &requests, self.shared.options.lock_timeout)
        {
            // Deadlock avoidance: past the deadline the transaction dies
            // so the locks it already holds cannot wedge the system.
            self.txn = None;
            txn_rollback_shared(&self.shared, txn);
            return Response::Error(wire_error(&e));
        }
        txn_apply(&self.shared, txn, &op, covered)
    }

    /// `Begin`: opens a transaction and binds it to this connection.
    fn begin(&mut self) -> Response {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Response::Error(WireError {
                kind: ErrorKindWire::ShuttingDown,
                message: "server is draining; transaction refused".into(),
            });
        }
        if self.txn.is_some() {
            return Response::Error(WireError {
                kind: ErrorKindWire::BadRequest,
                message: "a transaction is already open on this connection".into(),
            });
        }
        let resp = txn_begin_shared(&self.shared);
        if let Response::TxnBegun(reply) = &resp {
            self.txn = Some(reply.txn);
        }
        resp
    }

    /// `Commit`. During a drain the commit is refused and the
    /// transaction aborted — commits are writes, and the drain
    /// discipline is that no new write lands after the flag.
    fn commit(&mut self) -> Response {
        let Some(txn) = self.txn.take() else {
            return Response::Error(no_open_txn());
        };
        if self.shared.shutdown.load(Ordering::SeqCst) {
            txn_rollback_shared(&self.shared, txn);
            return Response::Error(drain_abort());
        }
        txn_commit_shared(&self.shared, txn)
    }

    /// `Rollback`: always honored — it only releases state.
    fn rollback(&mut self) -> Response {
        let Some(txn) = self.txn.take() else {
            return Response::Error(no_open_txn());
        };
        txn_rollback_shared(&self.shared, txn)
    }

    /// The unbatched path: one journaled write under the writer lock, one
    /// snapshot publication, ack.
    fn write_direct(&mut self, op: WriteOp) -> Response {
        let mut guard = match self.shared.writer.lock() {
            Ok(g) => g,
            Err(_) => return Response::Error(poisoned_writer()),
        };
        let Some(db) = guard.as_mut() else {
            return Response::Error(closed_writer());
        };
        write_one(&self.shared, db, &op)
    }

    /// The batched path: enqueue the job, then either win the writer lock
    /// and drain the queue as leader (serving everyone, ourselves
    /// included) or wait as follower for a leader to fill our slot. A
    /// follower re-arms with a short timeout so the one race — a leader
    /// finishing its drain just before our job landed — resolves by us
    /// becoming the next leader instead of waiting forever.
    fn enqueue_write(&mut self, op: WriteOp) -> Response {
        let slot = Arc::new(ReplySlot::default());
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            q.push_back(WriteJob {
                op,
                done: WriteDone::Slot(Arc::clone(&slot)),
            });
        }
        loop {
            if let Some(r) = slot.try_take() {
                return r;
            }
            match self.shared.writer.try_lock() {
                Ok(mut guard) => {
                    if let Some(r) = slot.try_take() {
                        return r; // served between the check and the lock
                    }
                    match guard.as_mut() {
                        Some(db) => drain_writes(&self.shared, db),
                        None => fail_pending(&self.shared, &closed_writer()),
                    }
                }
                Err(TryLockError::WouldBlock) => {
                    if let Some(r) = slot.wait(Duration::from_millis(2)) {
                        return r;
                    }
                }
                Err(TryLockError::Poisoned(_)) => {
                    // No leader can ever serve the queue again: fail every
                    // pending job (ours included) rather than strand them.
                    fail_pending(&self.shared, &poisoned_writer());
                }
            }
        }
    }

    /// Runs `f` against the connection's current read session: the pinned
    /// snapshot if one is held, else a follow-the-latest reader rebuilt
    /// only when the published generation has moved.
    fn read(
        &mut self,
        f: impl FnOnce(&mut SnapshotReader) -> Result<Response, DbError>,
    ) -> Response {
        self.shared.stats.reads.fetch_add(1, Ordering::Relaxed);
        let reader = if let Some(pinned) = self.pinned.as_mut() {
            pinned
        } else {
            let published = read_published(&self.shared);
            let current = published.snapshot.generation();
            let session = match self.latest.take() {
                Some(r) if r.generation() == current => r,
                _ => published.snapshot.reader(),
            };
            self.latest.insert(session)
        };
        match f(reader) {
            Ok(resp) => resp,
            Err(e) => Response::Error(wire_error(&e)),
        }
    }

    fn stats(&mut self) -> Response {
        let guard = self.shared.writer.lock().ok();
        let db = guard.as_ref().and_then(|g| g.as_ref());
        Response::Stats(Box::new(stats_reply(&self.shared, db)))
    }

    fn checkpoint(&mut self) -> Response {
        let mut guard = match self.shared.writer.lock() {
            Ok(g) => g,
            Err(_) => return Response::Error(poisoned_writer()),
        };
        let Some(db) = guard.as_mut() else {
            return Response::Error(closed_writer());
        };
        match db.checkpoint() {
            Ok(()) => Response::Checkpointed(CheckpointReply {
                lsn: db.snapshot_lsn(),
            }),
            Err(e) => Response::Error(wire_error(&e)),
        }
    }
}

// ----- the write leader -----------------------------------------------------

/// Builds the stats reply from the shared counters, plus the durable
/// figures when the caller could reach the database (pass `None` when the
/// writer is closed or its lock unavailable).
fn stats_reply<S: Storage>(shared: &Shared<S>, db: Option<&DurableDatabase<S>>) -> StatsReply {
    refresh_retained(shared);
    let s = &shared.stats;
    let mut reply = StatsReply {
        accepted: s.accepted.load(Ordering::Relaxed),
        rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
        requests: s.requests.load(Ordering::Relaxed),
        updates: s.updates.load(Ordering::Relaxed),
        reads: s.reads.load(Ordering::Relaxed),
        snapshots_published: s.snapshots_published.load(Ordering::Relaxed),
        idle_closes: s.idle_closes.load(Ordering::Relaxed),
        protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
        write_batches: s.write_batches.load(Ordering::Relaxed),
        coalesced_writes: s.coalesced_writes.load(Ordering::Relaxed),
        pinned_generations: s.pinned_generations.load(Ordering::Relaxed),
        retained_generations: s.retained_generations.load(Ordering::Relaxed),
        compactions: s.compactions.load(Ordering::Relaxed),
        compaction_aborts: s.compaction_aborts.load(Ordering::Relaxed),
        compaction_nodes_reclaimed: s.compaction_nodes_reclaimed.load(Ordering::Relaxed),
        compaction_swap_pause_us: s.compaction_swap_pause_us.load(Ordering::Relaxed),
        compaction_swap_pause_max_us: s.compaction_swap_pause_max_us.load(Ordering::Relaxed),
        records_shipped: s.records_shipped.load(Ordering::Relaxed),
        lag_refusals: s.lag_refusals.load(Ordering::Relaxed),
        txn_begun: s.txn_begun.load(Ordering::Relaxed),
        txn_committed: s.txn_committed.load(Ordering::Relaxed),
        txn_aborted: s.txn_aborted.load(Ordering::Relaxed),
        txn_active: s.txn_active.load(Ordering::Relaxed),
        txn_conflicts: s.txn_conflicts.load(Ordering::Relaxed),
        lock_waits: shared.locks.stats.waits.load(Ordering::Relaxed),
        lock_timeouts: shared.locks.stats.timeouts.load(Ordering::Relaxed),
        subscribers: shared
            .subscribers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u64,
        ..StatsReply::default()
    };
    if let Some(db) = db {
        let wal = db.stats();
        reply.generation = db.db().theory().generation();
        reply.next_lsn = db.next_lsn();
        reply.wal_records = wal.records;
        reply.wal_syncs = wal.syncs;
        reply.wal_checkpoints = wal.checkpoints;
    }
    reply
}

/// The current published snapshot (the lock only ever guards an `Arc`
/// swap, so a poisoned lock still holds a consistent value).
fn read_published<S: Storage>(shared: &Shared<S>) -> Arc<Published> {
    Arc::clone(
        &shared
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner),
    )
}

/// Swaps in a new published snapshot and counts the publication. The
/// superseded generation is recorded as a weak reference so the
/// `retained_generations` gauge can report how many old `Arc<Theory>`
/// allocations are still pinned alive by readers or cached sessions.
fn publish<S: Storage>(shared: &Shared<S>, p: Published) {
    let current = p.snapshot.generation();
    let superseded = {
        let mut slot = shared
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Arc::new(p))
    };
    shared
        .stats
        .snapshots_published
        .fetch_add(1, Ordering::Relaxed);
    let old_gen = superseded.snapshot.generation();
    if old_gen != current {
        let mut retained = shared
            .retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if retained.iter().all(|(g, _)| *g != old_gen) {
            retained.push((old_gen, superseded.snapshot.theory_weak()));
        }
    }
    refresh_retained(shared);
}

/// Prunes the superseded-generation registry of entries whose theory has
/// actually been dropped (or that became current again after a no-op
/// publication) and refreshes the `retained_generations` gauge.
fn refresh_retained<S: Storage>(shared: &Shared<S>) -> u64 {
    let current = read_published(shared).snapshot.generation();
    let mut retained = shared
        .retained
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    retained.retain(|(g, w)| *g != current && w.strong_count() > 0);
    let count = retained.len() as u64;
    shared
        .stats
        .retained_generations
        .store(count, Ordering::Relaxed);
    count
}

/// Applies one write op to the database; `(nodes_added, completion_added)`
/// feed the ack.
fn apply_op<S: Storage>(db: &mut DurableDatabase<S>, op: &WriteOp) -> Result<(i64, u64), DbError> {
    match op {
        WriteOp::Execute(src) => {
            let report = db.execute(src)?;
            Ok((report.nodes_added as i64, report.completion_added as u64))
        }
        WriteOp::DeclareRelation(name, arity) => {
            db.declare_relation(name, *arity as usize)?;
            Ok((0, 0))
        }
        WriteOp::DeclareAttribute(name) => {
            db.declare_attribute(name)?;
            Ok((0, 0))
        }
        WriteOp::LoadFact(pred, args) => {
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            db.load_fact(pred, &refs)?;
            Ok((0, 0))
        }
        WriteOp::LoadWff(src) => {
            db.load_wff(src)?;
            Ok((0, 0))
        }
    }
}

/// Applies one write op under the (held) writer lock — the unbatched
/// path shared by the thread-per-connection loop and the epoll writer
/// thread. One journaled write, one snapshot publication, one shipped
/// batch; no group sync and no batch accounting (the `write_batches`
/// counter is a batched-path metric).
fn write_one<S: Storage>(
    shared: &Shared<S>,
    db: &mut DurableDatabase<S>,
    op: &WriteOp,
) -> Response {
    if let Some(e) = plain_write_conflict(shared, op) {
        return Response::Error(wire_error(&e));
    }
    let lsn = db.next_lsn();
    let response = match apply_op(db, op) {
        Ok((nodes_added, completion_added)) => {
            let generation = db.db().theory().generation();
            let snapshot = TheorySnapshot::capture(db.db().theory());
            let updates_applied = read_published(shared).updates_applied + 1;
            publish(
                shared,
                Published {
                    snapshot,
                    updates_applied,
                    last_lsn: lsn,
                },
            );
            shared.stats.updates.fetch_add(1, Ordering::Relaxed);
            Response::Executed(ExecReply {
                lsn,
                generation,
                nodes_added,
                completion_added,
            })
        }
        Err(e) => Response::Error(wire_error(&e)),
    };
    // Fan the batch out to subscribers while still holding the writer
    // lock, so shipped batches arrive in commit order. A refused op
    // ships nothing (its abort pair is filtered by the drain).
    ship(shared, db);
    response
}

/// The leader loop: repeatedly empties the queue, slicing it into batches
/// of consecutive pairwise-independent `Execute` statements. Statements
/// are *never reordered* — the footprint analysis only decides where one
/// batch ends and the next begins, so coalescing is always semantically
/// invisible; independence additionally guarantees that the intermediate
/// snapshots a batch skips publishing are ones no reader could
/// distinguish from a reordering of independent writes. Anything the
/// analyzer cannot parse (or any non-`Execute` op, which changes the
/// language itself) is a barrier that runs in a batch of its own.
fn drain_writes<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>) {
    loop {
        let jobs: Vec<WriteJob> = {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.drain(..).collect()
        };
        if jobs.is_empty() {
            return;
        }
        apply_batched(shared, db, jobs);
    }
}

/// Slices one drained job list into conflict-free batches and flushes
/// each — the shared core of the connection-thread leader above and the
/// epoll writer thread.
fn apply_batched<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>, jobs: Vec<WriteJob>) {
    // Fresh per drain: footprints only need to be comparable within
    // one drain, and a long-lived analyzer would intern atoms forever.
    let mut analyzer = ConflictAnalyzer::default();
    let mut batch: Vec<WriteJob> = Vec::new();
    let mut feet: Vec<AccessSet> = Vec::new();
    for job in jobs {
        let footprint = match &job.op {
            WriteOp::Execute(src) => analyzer.footprint(src),
            _ => None,
        };
        match footprint {
            Some(fp) if batch.len() < MAX_BATCH && feet.iter().all(|f| f.independent(&fp)) => {
                batch.push(job);
                feet.push(fp);
            }
            Some(fp) => {
                flush_batch(shared, db, std::mem::take(&mut batch));
                feet.clear();
                batch.push(job);
                feet.push(fp);
            }
            None => {
                flush_batch(shared, db, std::mem::take(&mut batch));
                feet.clear();
                flush_batch(shared, db, vec![job]);
            }
        }
    }
    flush_batch(shared, db, batch);
}

/// Applies one batch in arrival order, then makes it durable with a
/// single sync and publishes a single snapshot before acking anyone.
/// Per-job failures (parse errors, refused updates) ack individually and
/// don't abort the rest of the batch — identical to what the unbatched
/// path would have done serving them back to back.
fn flush_batch<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>, batch: Vec<WriteJob>) {
    if batch.is_empty() {
        return;
    }
    let size = batch.len();
    let mut results: Vec<(WriteDone, Result<ExecReply, DbError>)> = Vec::with_capacity(size);
    let mut applied = 0u64;
    let mut last_lsn = None;
    for job in batch {
        if let Some(e) = plain_write_conflict(shared, &job.op) {
            results.push((job.done, Err(e)));
            continue;
        }
        let lsn = db.next_lsn();
        match apply_op(db, &job.op) {
            Ok((nodes_added, completion_added)) => {
                applied += 1;
                last_lsn = Some(lsn);
                let generation = db.db().theory().generation();
                results.push((
                    job.done,
                    Ok(ExecReply {
                        lsn,
                        generation,
                        nodes_added,
                        completion_added,
                    }),
                ));
            }
            Err(e) => results.push((job.done, Err(e))),
        }
    }
    if let Some(last_lsn) = last_lsn {
        // One durability point for the whole batch. If it fails, no ack
        // may claim success: the records are applied in memory but not
        // guaranteed on storage.
        if let Err(e) = db.sync() {
            let failure = wire_error(&e);
            for (done, result) in results {
                done.fill(Response::Error(match result {
                    Ok(_) => failure.clone(),
                    Err(own) => wire_error(&own),
                }));
            }
            // The records are still the writer's live (and WAL-appended)
            // state; followers track the live primary.
            ship(shared, db);
            return;
        }
        let snapshot = TheorySnapshot::capture(db.db().theory());
        let updates_applied = read_published(shared).updates_applied + applied;
        publish(
            shared,
            Published {
                snapshot,
                updates_applied,
                last_lsn,
            },
        );
        shared.stats.updates.fetch_add(applied, Ordering::Relaxed);
    }
    shared.stats.write_batches.fetch_add(1, Ordering::Relaxed);
    if size > 1 {
        shared
            .stats
            .coalesced_writes
            .fetch_add(size as u64, Ordering::Relaxed);
    }
    for (done, result) in results {
        done.fill(match result {
            Ok(reply) => Response::Executed(reply),
            Err(e) => Response::Error(wire_error(&e)),
        });
    }
    // One shipped batch per flushed batch, in commit order (the writer
    // lock is still held).
    ship(shared, db);
}

/// Drains the shipping tail and fans it out to every live subscriber,
/// pruning subscribers whose stream side is gone. Must be called with the
/// writer lock held so batches are delivered in commit order. When no
/// subscriber is registered the drained records are simply discarded — a
/// later subscriber gets them from storage via catch-up.
fn ship<S: Storage>(shared: &Shared<S>, db: &mut DurableDatabase<S>) {
    let entries = db.drain_shipping();
    if entries.is_empty() {
        return;
    }
    let mut subs = shared
        .subscribers
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if subs.is_empty() {
        return;
    }
    let shipped = (entries.len() * subs.len()) as u64;
    subs.retain(|tx| tx.send(entries.clone()).is_ok());
    drop(subs);
    shared
        .stats
        .records_shipped
        .fetch_add(shipped, Ordering::Relaxed);
    // Under the reactor the subscriber channels are drained by the event
    // loop, not by per-connection threads: poke it awake.
    notify_shipped(shared);
}

/// Wakes the epoll reactor (if one is serving) so it pumps freshly
/// shipped entries out to streaming connections.
fn notify_shipped<S: Storage>(shared: &Shared<S>) {
    let notify = shared.notify.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(completions) = notify.as_ref() {
        completions.post(TOKEN_NONE, 0, Done::Shipped);
    }
}

/// The frame payloads that ship `entries`. A batch that fits one frame —
/// every write batch in practice — is encoded once and sent as that one
/// frame; only a larger one (a long catch-up backlog) falls back to
/// [`chunk_entries`] and is encoded per chunk. No entries ship as no
/// frame: the only empty batch on the stream is a heartbeat.
pub(crate) fn wal_batch_payloads(entries: Vec<WalEntry>) -> Result<Vec<String>, FrameError> {
    if entries.is_empty() {
        return Ok(Vec::new());
    }
    let encode = |batch: &Response| {
        serde_json::to_string(batch).map_err(|e| FrameError::Decode(e.to_string()))
    };
    let whole = Response::WalBatch(WalBatchReply { entries });
    let json = encode(&whole)?;
    if json.len() <= MAX_FRAME_LEN as usize {
        return Ok(vec![json]);
    }
    let Response::WalBatch(WalBatchReply { entries }) = whole else {
        unreachable!("built as a WalBatch above");
    };
    chunk_entries(entries)
        .into_iter()
        .map(|chunk| encode(&Response::WalBatch(WalBatchReply { entries: chunk })))
        .collect()
}

/// Writes the frames of [`wal_batch_payloads`] to a blocking stream.
fn ship_wal_batch(w: &mut impl std::io::Write, entries: Vec<WalEntry>) -> Result<(), FrameError> {
    for payload in wal_batch_payloads(entries)? {
        write_frame(w, payload.as_bytes())?;
    }
    Ok(())
}

/// Splits a shipped batch into frame-sized chunks: entries are packed
/// greedily by serialized size against the frame cap (minus wrapper
/// headroom). A single entry always fits — [`winslett_core::MAX_RECORD_LEN`]
/// is enforced at mint time precisely so this holds.
fn chunk_entries(entries: Vec<WalEntry>) -> Vec<Vec<WalEntry>> {
    let budget = MAX_FRAME_LEN as usize - 1024;
    let mut chunks = Vec::new();
    let mut chunk: Vec<WalEntry> = Vec::new();
    let mut used = 0usize;
    for entry in entries {
        // Serialized size plus the array comma; cheap relative to the
        // frame send that follows.
        let cost = serde_json::to_string(&entry)
            .map(|s| s.len() + 1)
            .unwrap_or(budget);
        if !chunk.is_empty() && used + cost > budget {
            chunks.push(std::mem::take(&mut chunk));
            used = 0;
        }
        used += cost;
        chunk.push(entry);
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    chunks
}

/// Fails every queued job with `err` — used when no leader can ever run
/// again (database closed or writer state poisoned).
fn fail_pending<S: Storage>(shared: &Shared<S>, err: &WireError) {
    let jobs: Vec<WriteJob> = {
        let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.drain(..).collect()
    };
    for job in jobs {
        job.done.fill(Response::Error(err.clone()));
    }
}

// ----- transactions ----------------------------------------------------------

/// Lock requests for one write op, at footprint-atom granularity where
/// the analyzer can prove them (Theorem 4: updates with disjoint
/// footprints commute) and the global key where it cannot. Keys are the
/// atoms' textual rendering, stable across analyzer instances, so a
/// `LoadFact` and an `Execute` touching the same ground atom contend.
fn lock_requests_for(op: &WriteOp) -> Vec<LockRequest> {
    match op {
        WriteOp::Execute(src) => {
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
        WriteOp::LoadFact(pred, args) if !args.is_empty() => {
            vec![LockRequest::exclusive(format!(
                "{pred}({})",
                args.join(",")
            ))]
        }
        WriteOp::LoadFact(pred, _) => vec![LockRequest::exclusive(pred.clone())],
        // Declarations and raw wffs change the language itself.
        _ => vec![LockRequest::global()],
    }
}

/// Refuses a plain (non-transactional) write that would collide with
/// locks held by an open transaction. Waiting is not an option here:
/// plain writes are applied by whichever thread holds the writer lock,
/// and on the epoll path that is the same thread that processes the
/// commits that would release the locks.
fn plain_write_conflict<S: Storage>(shared: &Shared<S>, op: &WriteOp) -> Option<DbError> {
    if shared.locks.holders() == 0 {
        return None; // fast path: no transaction holds anything
    }
    let key = shared.locks.would_block(&lock_requests_for(op))?;
    shared.stats.txn_conflicts.fetch_add(1, Ordering::Relaxed);
    Some(DbError::TxnConflict {
        message: format!(
            "write collides with lock `{key}` held by an open transaction; \
             retry after it finishes"
        ),
    })
}

/// Decrements a gauge without wrapping below zero (teardown paths can
/// race each other harmlessly).
fn gauge_dec(gauge: &AtomicU64) {
    let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
}

fn no_open_txn() -> WireError {
    WireError {
        kind: ErrorKindWire::BadRequest,
        message: "no transaction is open on this connection".into(),
    }
}

fn drain_abort() -> WireError {
    WireError {
        kind: ErrorKindWire::ShuttingDown,
        message: "server is draining; transaction aborted".into(),
    }
}

/// Opens a transaction on the shared writer: journals the begin marker
/// and bumps the gauges. The reply carries the new id (its `TxnBegin`
/// record's LSN).
fn txn_begin_shared<S: Storage>(shared: &Shared<S>) -> Response {
    let mut guard = match shared.writer.lock() {
        Ok(g) => g,
        Err(_) => return Response::Error(poisoned_writer()),
    };
    let Some(db) = guard.as_mut() else {
        return Response::Error(closed_writer());
    };
    match db.txn_begin() {
        Ok(txn) => {
            shared.stats.txn_begun.fetch_add(1, Ordering::Relaxed);
            shared.stats.txn_active.fetch_add(1, Ordering::Relaxed);
            Response::TxnBegun(TxnReply {
                txn,
                lsn: 0,
                statements: 0,
            })
        }
        Err(e) => Response::Error(wire_error(&e)),
    }
}

/// Applies one statement inside an open transaction. The caller already
/// holds the transaction's locks on the statement's footprint; this
/// journals the intent and grows the private workspace — the live
/// database (and published snapshot) are untouched until commit.
/// `covered` means every footprint lock was held *before* this
/// statement acquired anything, so the workspace is provably current on
/// every atom it touches and the clone-and-redo refresh is skipped.
fn txn_apply<S: Storage>(shared: &Shared<S>, txn: u64, op: &WriteOp, covered: bool) -> Response {
    let mut guard = match shared.writer.lock() {
        Ok(g) => g,
        Err(_) => return Response::Error(poisoned_writer()),
    };
    let Some(db) = guard.as_mut() else {
        return Response::Error(closed_writer());
    };
    let lsn = db.next_lsn();
    let result = match op {
        WriteOp::Execute(src) if covered => db
            .txn_execute_covered(txn, src)
            .map(|r| (r.nodes_added as i64, r.completion_added as u64)),
        WriteOp::Execute(src) => db
            .txn_execute(txn, src)
            .map(|r| (r.nodes_added as i64, r.completion_added as u64)),
        WriteOp::DeclareRelation(name, arity) => db
            .txn_declare_relation(txn, name, *arity as usize)
            .map(|_| (0, 0)),
        WriteOp::DeclareAttribute(name) => db.txn_declare_attribute(txn, name).map(|_| (0, 0)),
        WriteOp::LoadFact(pred, args) => {
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            db.txn_load_fact(txn, pred, &refs).map(|_| (0, 0))
        }
        WriteOp::LoadWff(src) => db.txn_load_wff(txn, src).map(|_| (0, 0)),
    };
    match result {
        Ok((nodes_added, completion_added)) => {
            let generation = db
                .txn_view(txn)
                .map(|w| w.theory().generation())
                .unwrap_or_default();
            Response::Executed(ExecReply {
                lsn,
                generation,
                nodes_added,
                completion_added,
            })
        }
        // A refused statement does not kill the transaction: its
        // compensation is journaled and the workspace is unchanged.
        Err(e) => Response::Error(wire_error(&e)),
    }
}

/// Commits: reapplies the statements against the live database, journals
/// the commit marker, syncs (the transaction's single durability point),
/// publishes one snapshot, ships — then releases every lock the
/// transaction held, whatever the outcome (strict two-phase locking).
fn txn_commit_shared<S: Storage>(shared: &Shared<S>, txn: u64) -> Response {
    let resp = 'commit: {
        let mut guard = match shared.writer.lock() {
            Ok(g) => g,
            Err(_) => break 'commit Response::Error(poisoned_writer()),
        };
        let Some(db) = guard.as_mut() else {
            break 'commit Response::Error(closed_writer());
        };
        match db.txn_commit(txn) {
            Ok((lsn, ops)) => {
                let snapshot = TheorySnapshot::capture(db.db().theory());
                let updates_applied = read_published(shared).updates_applied + ops as u64;
                publish(
                    shared,
                    Published {
                        snapshot,
                        updates_applied,
                        last_lsn: lsn,
                    },
                );
                shared
                    .stats
                    .updates
                    .fetch_add(ops as u64, Ordering::Relaxed);
                shared.stats.txn_committed.fetch_add(1, Ordering::Relaxed);
                ship(shared, db);
                Response::TxnCommitted(TxnReply {
                    txn,
                    lsn,
                    statements: ops as u64,
                })
            }
            Err(e) => {
                // The core rolled the transaction back (reapply or
                // journaling failure): surface the typed refusal.
                shared.stats.txn_aborted.fetch_add(1, Ordering::Relaxed);
                ship(shared, db);
                Response::Error(wire_error(&e))
            }
        }
    };
    shared.locks.release_all(txn);
    gauge_dec(&shared.stats.txn_active);
    resp
}

/// Rolls back: journals the abort marker and discards the workspace
/// (the live database never saw the intents), then releases the locks.
fn txn_rollback_shared<S: Storage>(shared: &Shared<S>, txn: u64) -> Response {
    let resp = 'rollback: {
        let mut guard = match shared.writer.lock() {
            Ok(g) => g,
            Err(_) => break 'rollback Response::Error(poisoned_writer()),
        };
        let Some(db) = guard.as_mut() else {
            break 'rollback Response::Error(closed_writer());
        };
        match db.txn_rollback(txn) {
            Ok(()) => {
                shared.stats.txn_aborted.fetch_add(1, Ordering::Relaxed);
                ship(shared, db);
                Response::TxnRolledBack(TxnReply {
                    txn,
                    lsn: 0,
                    statements: 0,
                })
            }
            Err(e) => Response::Error(wire_error(&e)),
        }
    };
    shared.locks.release_all(txn);
    gauge_dec(&shared.stats.txn_active);
    resp
}

/// Rolls back every transaction still open on the writer — the teardown
/// safety net, run after connections have drained so an in-flight
/// transaction's journaled intents are compensated before the final
/// close (recovery would do the same, but doing it live keeps the WAL's
/// final state self-describing).
fn rollback_orphans<S: Storage>(shared: &Shared<S>) {
    let Ok(mut guard) = shared.writer.lock() else {
        return;
    };
    let Some(db) = guard.as_mut() else {
        return;
    };
    for txn in db.txn_ids() {
        if db.txn_rollback(txn).is_ok() {
            shared.stats.txn_aborted.fetch_add(1, Ordering::Relaxed);
        }
        shared.locks.release_all(txn);
        gauge_dec(&shared.stats.txn_active);
    }
}

// ----- the epoll writer thread -----------------------------------------------

/// One unit of work for the epoll server's single writer thread.
enum WriterWork {
    /// A write bound for the conflict-aware batcher.
    Write(WriteJob),
    /// `Stats` — a control op that must see the post-write counters, so
    /// it acts as a barrier: pending writes flush first.
    Stats { token: u64, seq: u64 },
    /// `Checkpoint` — barrier for the same reason.
    Checkpoint { token: u64, seq: u64 },
    /// `Subscribe` — registered under the writer lock so the catch-up
    /// point is exact; also a barrier.
    Subscribe { token: u64, seq: u64, from_lsn: u64 },
    /// `Begin` — opens a transaction and binds it to the connection's
    /// reserved `txn_by_token` slot.
    TxnBegin { token: u64, seq: u64 },
    /// A statement inside an open transaction. The writer thread must
    /// never condvar-wait on locks (it is the only thread that releases
    /// them), so a contended statement parks and retries until
    /// `deadline`, then aborts the transaction with a typed timeout.
    TxnStatement {
        token: u64,
        seq: u64,
        txn: u64,
        op: WriteOp,
        deadline: Instant,
    },
    /// `Commit`.
    TxnCommit { token: u64, seq: u64, txn: u64 },
    /// `Rollback`.
    TxnRollback { token: u64, seq: u64, txn: u64 },
    /// The connection is gone (drained, errored, idle-closed) with a
    /// transaction open or pending: roll it back, release its locks,
    /// no reply.
    TxnAbandon { token: u64 },
}

/// The channel the reactor pushes [`WriterWork`] into: a mutex-guarded
/// deque with a condvar, so the writer thread batches everything that
/// accumulated while it was applying (group commit for free).
#[derive(Default)]
struct WriterChan {
    queue: Mutex<VecDeque<WriterWork>>,
    cv: Condvar,
    exit: AtomicBool,
}

impl WriterChan {
    fn push(&self, work: WriterWork) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(work);
        self.cv.notify_one();
    }

    /// Signals the writer thread to exit once the queue is empty.
    fn close(&self) {
        self.exit.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Blocks for the next run of work; `None` means closed and empty.
    fn pop_all(&self) -> Option<Vec<WriterWork>> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !q.is_empty() {
                return Some(q.drain(..).collect());
            }
            if self.exit.load(Ordering::SeqCst) {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`WriterChan::pop_all`], but gives up after `wait` and
    /// returns an empty run, so a caller with parked transactional
    /// statements can retry them (and fire their deadlines) even when no
    /// new work arrives. `None` still means closed-and-empty.
    fn pop_all_within(&self, wait: Duration) -> Option<Vec<WriterWork>> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if q.is_empty() && !self.exit.load(Ordering::SeqCst) {
            let (guard, _) = self
                .cv
                .wait_timeout(q, wait)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        if !q.is_empty() {
            return Some(q.drain(..).collect());
        }
        if self.exit.load(Ordering::SeqCst) {
            return None;
        }
        Some(Vec::new())
    }
}

/// The epoll server's writer thread: consumes [`WriterWork`] runs,
/// flushing accumulated writes through the conflict-aware batcher and
/// treating control ops as barriers. A panic while applying fails every
/// sink in the run with a typed `Internal` error instead of wedging the
/// connections awaiting completions.
fn run_writer<S: Storage>(
    shared: &Arc<Shared<S>>,
    chan: &WriterChan,
    completions: &Arc<Completions>,
) {
    // Contended transactional statements waiting for another
    // transaction's commit/rollback (processed by this same thread) to
    // release their locks.
    let mut parked: Vec<WriterWork> = Vec::new();
    loop {
        let run = if parked.is_empty() {
            match chan.pop_all() {
                Some(r) => r,
                None => break,
            }
        } else {
            // Poll with a short wait so parked deadlines fire even when
            // no new work arrives.
            match chan.pop_all_within(Duration::from_millis(3)) {
                Some(r) => r,
                None => break,
            }
        };
        // Retry parked statements first (their locks may have been
        // released by work in the previous run), then the new arrivals.
        let work: Vec<WriterWork> = parked.drain(..).chain(run).collect();
        // Sinks pre-cloned so the panic path can still reach them.
        let sinks: Vec<WriteDone> = work
            .iter()
            .filter_map(|w| match w {
                WriterWork::Write(job) => Some(job.done.clone()),
                WriterWork::TxnAbandon { .. } => None,
                WriterWork::Stats { token, seq }
                | WriterWork::Checkpoint { token, seq }
                | WriterWork::Subscribe { token, seq, .. }
                | WriterWork::TxnBegin { token, seq }
                | WriterWork::TxnStatement { token, seq, .. }
                | WriterWork::TxnCommit { token, seq, .. }
                | WriterWork::TxnRollback { token, seq, .. } => Some(WriteDone::Reactor {
                    token: *token,
                    seq: *seq,
                    completions: Arc::clone(completions),
                }),
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pending: Vec<WriteJob> = Vec::new();
            let mut still_parked: Vec<WriterWork> = Vec::new();
            for work in work {
                match work {
                    WriterWork::Write(job) => pending.push(job),
                    txn @ (WriterWork::TxnBegin { .. }
                    | WriterWork::TxnStatement { .. }
                    | WriterWork::TxnCommit { .. }
                    | WriterWork::TxnRollback { .. }
                    | WriterWork::TxnAbandon { .. }) => {
                        // Transactional ops are barriers too: plain
                        // writes queued before them flush first, so the
                        // conflict gate sees the lock table the client
                        // observed when it pipelined the requests.
                        flush_writes(shared, std::mem::take(&mut pending));
                        run_txn_work(shared, completions, txn, &mut still_parked);
                    }
                    control => {
                        flush_writes(shared, std::mem::take(&mut pending));
                        run_control(shared, completions, control);
                    }
                }
            }
            flush_writes(shared, pending);
            still_parked
        }));
        match outcome {
            Ok(still_parked) => parked = still_parked,
            Err(_) => {
                for sink in sinks {
                    sink.fill(Response::Error(poisoned_writer()));
                }
            }
        }
    }
    // The writer is exiting: parked statements can never be served.
    for work in parked {
        if let WriterWork::TxnStatement { token, seq, .. } = work {
            completions.post(token, seq, Done::Resp(Response::Error(closed_writer())));
        }
    }
}

/// One transactional op on the writer thread. This thread is the only
/// one that releases reactor-side locks, so acquisition here is strictly
/// non-blocking: contended statements go back to `parked`.
fn run_txn_work<S: Storage>(
    shared: &Arc<Shared<S>>,
    completions: &Arc<Completions>,
    work: WriterWork,
    parked: &mut Vec<WriterWork>,
) {
    match work {
        WriterWork::TxnBegin { token, seq } => {
            let resp = txn_begin_shared(shared);
            let mut map = shared
                .txn_by_token
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match &resp {
                // Fill the slot the reactor reserved — unless the
                // connection already died and `TxnAbandon` cleared it
                // (impossible before this runs, since the abandon is
                // queued behind us; the guard is cheap regardless).
                Response::TxnBegun(r) if map.contains_key(&token) => {
                    map.insert(token, r.txn);
                }
                Response::TxnBegun(r) => {
                    let txn = r.txn;
                    drop(map);
                    txn_rollback_shared(shared, txn);
                    map = shared
                        .txn_by_token
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                }
                _ => {
                    map.remove(&token);
                }
            }
            drop(map);
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::TxnStatement {
            token,
            seq,
            txn,
            op,
            deadline,
        } => {
            if !txn_mapping_current(shared, token, txn) {
                // Aborted underneath us (drain or timeout on an earlier
                // parked statement of the same transaction).
                let e = DbError::TxnUnknown { txn };
                completions.post(token, seq, Done::Resp(Response::Error(wire_error(&e))));
                return;
            }
            let requests = lock_requests_for(&op);
            // Checked before acquisition: locks taken for *this*
            // statement must not count as "already held" (refresh skip).
            let covered = shared.locks.holds_all(txn, &requests);
            match shared.locks.try_lock(txn, &requests) {
                Ok(()) => {
                    let resp = txn_apply(shared, txn, &op, covered);
                    completions.post(token, seq, Done::Resp(resp));
                }
                Err(_) if Instant::now() < deadline => {
                    shared.locks.stats.waits.fetch_add(1, Ordering::Relaxed);
                    parked.push(WriterWork::TxnStatement {
                        token,
                        seq,
                        txn,
                        op,
                        deadline,
                    });
                }
                Err(key) => {
                    // Deadline passed: abort the transaction so its held
                    // locks cannot wedge the system (deadlock avoidance).
                    shared.locks.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    shared
                        .txn_by_token
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&token);
                    txn_rollback_shared(shared, txn);
                    let e = DbError::TxnTimeout {
                        message: format!(
                            "lock `{key}` still contended at the deadline; \
                             transaction {txn} rolled back"
                        ),
                    };
                    completions.post(token, seq, Done::Resp(Response::Error(wire_error(&e))));
                }
            }
        }
        WriterWork::TxnCommit { token, seq, txn } => {
            let resp = if txn_mapping_current(shared, token, txn) {
                shared
                    .txn_by_token
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&token);
                txn_commit_shared(shared, txn)
            } else {
                Response::Error(no_open_txn())
            };
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::TxnRollback { token, seq, txn } => {
            let resp = if txn_mapping_current(shared, token, txn) {
                shared
                    .txn_by_token
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&token);
                txn_rollback_shared(shared, txn)
            } else {
                Response::Error(no_open_txn())
            };
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::TxnAbandon { token } => {
            let txn = shared
                .txn_by_token
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&token);
            // Queue order guarantees the `TxnBegin` that reserved the
            // slot ran before us, so a pending (0) mapping cannot be
            // observed here.
            if let Some(txn) = txn.filter(|&t| t != 0) {
                txn_rollback_shared(shared, txn);
            }
        }
        _ => {} // non-transactional work is routed by the caller
    }
}

/// Whether `token` still owns `txn` — false once a drain abort, timeout
/// abort, or abandon has dissolved the binding.
fn txn_mapping_current<S: Storage>(shared: &Shared<S>, token: u64, txn: u64) -> bool {
    shared
        .txn_by_token
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&token)
        == Some(&txn)
}

/// Applies one accumulated run of writes under the writer lock — through
/// the batcher when enabled, else one publication per write.
fn flush_writes<S: Storage>(shared: &Arc<Shared<S>>, jobs: Vec<WriteJob>) {
    if jobs.is_empty() {
        return;
    }
    let mut guard = match shared.writer.lock() {
        Ok(g) => g,
        Err(_) => {
            for job in jobs {
                job.done.fill(Response::Error(poisoned_writer()));
            }
            return;
        }
    };
    let Some(db) = guard.as_mut() else {
        drop(guard);
        for job in jobs {
            job.done.fill(Response::Error(closed_writer()));
        }
        return;
    };
    if shared.options.batch_writes {
        apply_batched(shared, db, jobs);
    } else {
        for job in jobs {
            let resp = write_one(shared, db, &job.op);
            job.done.fill(resp);
        }
    }
}

/// One control op on the writer thread; the reply goes back to the
/// reactor as a completion.
fn run_control<S: Storage>(
    shared: &Arc<Shared<S>>,
    completions: &Arc<Completions>,
    work: WriterWork,
) {
    match work {
        // Writes and transaction work are routed by the caller.
        WriterWork::Write(_)
        | WriterWork::TxnBegin { .. }
        | WriterWork::TxnStatement { .. }
        | WriterWork::TxnCommit { .. }
        | WriterWork::TxnRollback { .. }
        | WriterWork::TxnAbandon { .. } => {}
        WriterWork::Stats { token, seq } => {
            let guard = shared.writer.lock().ok();
            let db = guard.as_ref().and_then(|g| g.as_ref());
            let reply = stats_reply(shared, db);
            completions.post(token, seq, Done::Resp(Response::Stats(Box::new(reply))));
        }
        WriterWork::Checkpoint { token, seq } => {
            let resp = {
                let mut guard = match shared.writer.lock() {
                    Ok(g) => g,
                    Err(_) => {
                        completions.post(
                            token,
                            seq,
                            Done::Resp(Response::Error(poisoned_writer())),
                        );
                        return;
                    }
                };
                match guard.as_mut() {
                    Some(db) => match db.checkpoint() {
                        Ok(()) => Response::Checkpointed(CheckpointReply {
                            lsn: db.snapshot_lsn(),
                        }),
                        Err(e) => Response::Error(wire_error(&e)),
                    },
                    None => Response::Error(closed_writer()),
                }
            };
            completions.post(token, seq, Done::Resp(resp));
        }
        WriterWork::Subscribe {
            token,
            seq,
            from_lsn,
        } => match subscription_start(shared, from_lsn) {
            Ok((frames, rx)) => completions.post(token, seq, Done::SubStart { frames, rx }),
            Err(e) => completions.post(token, seq, Done::RespClose(Response::Error(e))),
        },
    }
}

/// The opening frames of a subscription on either I/O core, each encoded
/// once: the catch-up (a snapshot too large for one frame streams as
/// `CatchupChunk` frames after a `chunked: true` announcement), then the
/// backlog batches of [`wal_batch_payloads`].
fn opening_payloads(catchup: Catchup, next_lsn: u64) -> Result<Vec<String>, WireError> {
    let failed = || WireError {
        kind: ErrorKindWire::Internal,
        message: "catch-up snapshot serialization failed".into(),
    };
    let (snapshot, backlog) = match catchup {
        Catchup::Suffix(entries) => (None, entries),
        Catchup::Snapshot(snap, entries) => (Some(*snap), entries),
    };
    let mut payloads = catchup_frames(snapshot, next_lsn)
        .map_err(|_| failed())?
        .iter()
        .map(serde_json::to_string)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| failed())?;
    payloads.extend(wal_batch_payloads(backlog).map_err(|_| failed())?);
    Ok(payloads)
}

/// Registers a subscription under the writer lock: ships the tail to the
/// existing subscribers so the registration point is exactly the storage
/// state the catch-up reads, then encodes the [`opening_payloads`].
fn subscription_start<S: Storage>(
    shared: &Arc<Shared<S>>,
    from_lsn: u64,
) -> Result<(Vec<String>, mpsc::Receiver<Vec<WalEntry>>), WireError> {
    let mut guard = shared.writer.lock().map_err(|_| poisoned_writer())?;
    let db = guard.as_mut().ok_or_else(closed_writer)?;
    ship(shared, db);
    let catchup = db.catchup_from(from_lsn).map_err(|e| wire_error(&e))?;
    let next_lsn = db.next_lsn();
    let (tx, rx) = mpsc::channel();
    shared
        .subscribers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(tx);
    drop(guard);
    Ok((opening_payloads(catchup, next_lsn)?, rx))
}

// ----- the primary's reactor role ---------------------------------------------

/// The primary half of the reactor: writes, stats, checkpoints, and
/// subscriptions go to the writer thread; everything else the reactor
/// already owns.
struct PrimaryRole<S: Storage> {
    shared: Arc<Shared<S>>,
    chan: Arc<WriterChan>,
    completions: Arc<Completions>,
}

impl<S: Storage> PrimaryRole<S> {
    fn defer_write(&self, token: u64, seq: u64, draining: bool, op: WriteOp) -> RoleAction {
        let txn = self.open_txn(token);
        if draining {
            if txn.is_some() {
                // Satellite drain discipline: a statement inside an open
                // transaction aborts it, releasing its locks now rather
                // than at connection teardown.
                self.chan.push(WriterWork::TxnAbandon { token });
                return RoleAction::Reply(Response::Error(drain_abort()));
            }
            return RoleAction::Reply(Response::Error(WireError {
                kind: ErrorKindWire::ShuttingDown,
                message: "server is draining; write refused".into(),
            }));
        }
        if let Some(txn) = txn {
            self.chan.push(WriterWork::TxnStatement {
                token,
                seq,
                txn,
                op,
                deadline: Instant::now() + self.shared.options.lock_timeout,
            });
            return RoleAction::Deferred;
        }
        self.chan.push(WriterWork::Write(WriteJob {
            op,
            done: WriteDone::Reactor {
                token,
                seq,
                completions: Arc::clone(&self.completions),
            },
        }));
        RoleAction::Deferred
    }

    /// The transaction bound to `token`, if its `Begin` has completed.
    /// A `0` (reserved) value cannot be observed here: the connection is
    /// parked in `Await` until the `TxnBegin` completion fills it.
    fn open_txn(&self, token: u64) -> Option<u64> {
        self.shared
            .txn_by_token
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&token)
            .copied()
            .filter(|&t| t != 0)
    }
}

impl<S: Storage> Role for PrimaryRole<S> {
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
        let p = read_published(&self.shared);
        PublishedView {
            snapshot: p.snapshot.clone(),
            updates_applied: p.updates_applied,
            last_lsn: p.last_lsn,
        }
    }

    fn busy_message(&self, active: usize, cap: usize) -> String {
        format!("server busy: {active} connections, cap {cap}")
    }

    fn lag_message(&self, have: u64, want: u64) -> String {
        format!("snapshot covers lsn {have} but the pin demands lsn {want}")
    }

    fn handle(&self, token: u64, seq: u64, draining: bool, request: Request) -> RoleAction {
        match request {
            Request::Execute(src) => self.defer_write(token, seq, draining, WriteOp::Execute(src)),
            Request::DeclareRelation(name, arity) => {
                self.defer_write(token, seq, draining, WriteOp::DeclareRelation(name, arity))
            }
            Request::DeclareAttribute(name) => {
                self.defer_write(token, seq, draining, WriteOp::DeclareAttribute(name))
            }
            Request::LoadFact(pred, args) => {
                self.defer_write(token, seq, draining, WriteOp::LoadFact(pred, args))
            }
            Request::LoadWff(src) => self.defer_write(token, seq, draining, WriteOp::LoadWff(src)),
            Request::Begin => {
                if draining {
                    return RoleAction::Reply(Response::Error(WireError {
                        kind: ErrorKindWire::ShuttingDown,
                        message: "server is draining; transaction refused".into(),
                    }));
                }
                let mut map = self
                    .shared
                    .txn_by_token
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if map.contains_key(&token) {
                    return RoleAction::Reply(Response::Error(WireError {
                        kind: ErrorKindWire::BadRequest,
                        message: "a transaction is already open on this connection".into(),
                    }));
                }
                // Reserve the slot on the reactor thread so a close that
                // races the writer's `TxnBegin` still finds (and can
                // abandon) the binding.
                map.insert(token, 0);
                drop(map);
                self.chan.push(WriterWork::TxnBegin { token, seq });
                RoleAction::Deferred
            }
            Request::Commit => match self.open_txn(token) {
                None => RoleAction::Reply(Response::Error(no_open_txn())),
                Some(_) if draining => {
                    self.chan.push(WriterWork::TxnAbandon { token });
                    RoleAction::Reply(Response::Error(drain_abort()))
                }
                Some(txn) => {
                    self.chan.push(WriterWork::TxnCommit { token, seq, txn });
                    RoleAction::Deferred
                }
            },
            // Rollback is honored even mid-drain: it only releases state.
            Request::Rollback => match self.open_txn(token) {
                None => RoleAction::Reply(Response::Error(no_open_txn())),
                Some(txn) => {
                    self.chan.push(WriterWork::TxnRollback { token, seq, txn });
                    RoleAction::Deferred
                }
            },
            // Stats and checkpoints are answered even mid-drain — a
            // draining operator still wants the final counters.
            Request::Stats => {
                self.chan.push(WriterWork::Stats { token, seq });
                RoleAction::Deferred
            }
            Request::Checkpoint => {
                self.chan.push(WriterWork::Checkpoint { token, seq });
                RoleAction::Deferred
            }
            Request::Subscribe(from_lsn) => {
                if draining {
                    return RoleAction::Reply(Response::Error(WireError {
                        kind: ErrorKindWire::ShuttingDown,
                        message: "server is draining; subscription refused".into(),
                    }));
                }
                self.chan.push(WriterWork::Subscribe {
                    token,
                    seq,
                    from_lsn,
                });
                RoleAction::Deferred
            }
            // Reads, pins, liveness, and shutdown never reach the role.
            other => RoleAction::Reply(Response::Error(WireError {
                kind: ErrorKindWire::BadRequest,
                message: format!("unroutable request: {other:?}"),
            })),
        }
    }

    fn generation_moved(&self) {
        refresh_retained(&self.shared);
    }

    fn closed(&self, token: u64) {
        // A connection that dies with a transaction open (or a `Begin`
        // in flight — the slot is reserved before the push) hands it to
        // the writer thread for rollback; FIFO queue order guarantees
        // the abandon runs after any in-flight op of the same token.
        let open = self
            .shared
            .txn_by_token
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&token);
        if open {
            self.chan.push(WriterWork::TxnAbandon { token });
        }
    }
}

// ----- the background compactor ---------------------------------------------

/// The compactor thread: polls the published snapshot (never touching the
/// writer lock to *decide*), and when the trigger fires runs one
/// capture → off-lock full-simplify → swap round. The baseline for the
/// growth trigger is the store size the previous round left behind.
fn run_compactor<S: Storage>(shared: &Shared<S>, policy: &CompactionPolicy) {
    let mut baseline = read_published(shared).snapshot.theory().store_nodes();
    let mut last_round_lsn = read_published(shared).last_lsn;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(policy.poll_interval);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let published = read_published(shared);
        let nodes = published.snapshot.theory().store_nodes();
        let lag = published.last_lsn.saturating_sub(last_round_lsn);
        let grown = nodes as f64 >= policy.growth_factor * baseline.max(1) as f64;
        if nodes < policy.min_nodes || !(grown || lag >= policy.max_lsn_lag) {
            continue;
        }
        match compact_once(shared, policy) {
            Some(post_nodes) => baseline = post_nodes,
            // Swap abandoned (replay failure) or writer gone: don't spin
            // on the same trigger every poll tick.
            None => baseline = nodes,
        }
        last_round_lsn = read_published(shared).last_lsn;
    }
}

/// One compaction round. Returns the post-swap store size, or `None` if
/// the round was abandoned (writer closed/poisoned, or the swap-time
/// replay failed — in which case the live database is untouched).
fn compact_once<S: Storage>(shared: &Shared<S>, policy: &CompactionPolicy) -> Option<usize> {
    // Phase 1: capture under the writer lock (an O(1) copy-on-write clone;
    // the live theory copies a chunk or shard only when it next writes it).
    let (mut copy, from_lsn) = {
        let mut guard = shared.writer.lock().ok()?;
        let db = guard.as_mut()?;
        db.begin_compaction()
    };
    // Phase 2: simplify off-lock; the writer keeps committing and every
    // record it journals is retained for the swap-time replay.
    winslett_gua::simplify(&mut copy, policy.level);
    // Phase 3: replay the delta and swap, under the writer lock.
    let mut guard = shared.writer.lock().ok()?;
    let db = guard.as_mut()?;
    // A shutdown may have begun while we simplified off-lock. Installing
    // now would race the drain/close sequence (the final sync could land
    // after the compacted swap republished a stale view), so abandon the
    // round instead — the live database is untouched.
    if shared.shutdown.load(Ordering::SeqCst) {
        db.abort_compaction();
        shared
            .stats
            .compaction_aborts
            .fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let swap_started = Instant::now();
    match db.install_compacted(copy, from_lsn, policy.checkpoint) {
        Ok(outcome) => {
            let pause = swap_started.elapsed().as_micros() as u64;
            // Republish so readers move to the compacted generation even
            // if no write follows for a while. `updates_applied` is
            // untouched: compaction applies no updates.
            let updates_applied = read_published(shared).updates_applied;
            let snapshot = TheorySnapshot::capture(db.db().theory());
            publish(
                shared,
                Published {
                    snapshot,
                    updates_applied,
                    last_lsn: db.next_lsn().saturating_sub(1),
                },
            );
            let s = &shared.stats;
            s.compactions.fetch_add(1, Ordering::Relaxed);
            s.compaction_nodes_reclaimed
                .fetch_add(outcome.nodes_reclaimed() as u64, Ordering::Relaxed);
            s.compaction_swap_pause_us
                .fetch_add(pause, Ordering::Relaxed);
            s.compaction_swap_pause_max_us
                .fetch_max(pause, Ordering::Relaxed);
            Some(outcome.nodes_after)
        }
        Err(_) => {
            db.abort_compaction();
            shared
                .stats
                .compaction_aborts
                .fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

fn closed_writer() -> WireError {
    WireError {
        kind: ErrorKindWire::ShuttingDown,
        message: "database already closed".into(),
    }
}

fn poisoned_writer() -> WireError {
    WireError {
        kind: ErrorKindWire::Internal,
        message: "writer state poisoned by a previous panic".into(),
    }
}

pub(crate) fn wire_verdict(v: Verdict) -> WireVerdict {
    match v {
        Verdict::Certain => WireVerdict::Certain,
        Verdict::Uncertain => WireVerdict::Uncertain,
        Verdict::Impossible => WireVerdict::Impossible,
        Verdict::Inconsistent => WireVerdict::Inconsistent,
    }
}

pub(crate) fn wire_error(e: &DbError) -> WireError {
    let kind = match e {
        DbError::Ldml(_)
        | DbError::Logic(_)
        | DbError::Query { .. }
        | DbError::Gua(winslett_gua::GuaError::Ldml(_)) => ErrorKindWire::Parse,
        DbError::Theory(_) | DbError::Gua(_) => ErrorKindWire::Refused,
        DbError::RecordTooLarge { .. } => ErrorKindWire::TooLarge,
        DbError::LsnGap { .. } => ErrorKindWire::BadRequest,
        DbError::Storage { .. } | DbError::Corrupt { .. } => ErrorKindWire::Storage,
        DbError::TxnConflict { .. } => ErrorKindWire::TxnConflict,
        DbError::TxnTimeout { .. } => ErrorKindWire::TxnTimeout,
        DbError::TxnOpen { .. } => ErrorKindWire::Refused,
        DbError::TxnUnknown { .. } => ErrorKindWire::BadRequest,
        _ => ErrorKindWire::Internal,
    };
    WireError {
        kind,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_core::wal::MemStorage;

    /// A `Shared` with an open in-memory database, no listener attached —
    /// enough to drive the leader's drain loop directly.
    fn shared_with_db(relations: &[(&str, usize)]) -> Arc<Shared<MemStorage>> {
        let (mut db, _report) = DurableDatabase::open(
            MemStorage::new(),
            DbOptions::default(),
            WalOptions::default(),
        )
        .expect("open");
        for (name, arity) in relations {
            db.declare_relation(name, *arity).expect("declare");
        }
        let snapshot = TheorySnapshot::capture(db.db().theory());
        let last_lsn = db.next_lsn().saturating_sub(1);
        Arc::new(Shared {
            writer: Mutex::new(Some(db)),
            published: RwLock::new(Arc::new(Published {
                snapshot,
                updates_applied: 0,
                last_lsn,
            })),
            queue: Mutex::new(VecDeque::new()),
            subscribers: Mutex::new(Vec::new()),
            stats: Arc::new(ServerStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            options: ServerOptions::default(),
            addr: "127.0.0.1:0".parse().expect("addr"),
            notify: Mutex::new(None),
            retained: Mutex::new(Vec::new()),
            locks: LockTable::new(),
            txn_by_token: Mutex::new(HashMap::new()),
        })
    }

    fn enqueue(shared: &Shared<MemStorage>, op: WriteOp) -> Arc<ReplySlot> {
        let slot = Arc::new(ReplySlot::default());
        shared.queue.lock().expect("queue").push_back(WriteJob {
            op,
            done: WriteDone::Slot(Arc::clone(&slot)),
        });
        slot
    }

    fn drain(shared: &Shared<MemStorage>) {
        let mut guard = shared.writer.lock().expect("writer");
        let db = guard.as_mut().expect("db");
        drain_writes(shared, db);
    }

    #[test]
    fn superseded_generations_release_eagerly() {
        let shared = shared_with_db(&[("R", 1)]);
        // Hold a session on the initial generation — the pin-shaped
        // retention the gauge must report.
        let held = read_published(&shared).snapshot.clone();
        let weak_held = held.theory_weak();
        let reader = held.reader();
        drop(held);

        // Two separate publications: the middle generation has no holder
        // and must be released the moment it is superseded.
        enqueue(&shared, WriteOp::Execute("INSERT R(a) WHERE T".into()));
        drain(&shared);
        let weak_mid = read_published(&shared).snapshot.theory_weak();
        enqueue(&shared, WriteOp::Execute("INSERT R(b) WHERE T".into()));
        drain(&shared);

        assert_eq!(
            weak_mid.strong_count(),
            0,
            "unheld superseded generation must drop eagerly"
        );
        assert_eq!(refresh_retained(&shared), 1, "only the held generation");
        assert_eq!(shared.stats.retained_generations.load(Ordering::Relaxed), 1);

        // Releasing the last session releases the generation's theory.
        drop(reader);
        assert_eq!(weak_held.strong_count(), 0, "released with the session");
        assert_eq!(refresh_retained(&shared), 0);
        assert_eq!(shared.stats.retained_generations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn compactor_round_swaps_invisibly_and_republishes() {
        let shared = shared_with_db(&[("R", 1), ("S", 1)]);
        let slots: Vec<_> = (0..6)
            .map(|i| {
                enqueue(
                    &shared,
                    WriteOp::Execute(format!("INSERT R(a{i}) | S(b{i}) WHERE T")),
                )
            })
            .collect();
        drain(&shared);
        for slot in &slots {
            assert!(matches!(slot.try_take(), Some(Response::Executed(_))));
        }
        let before = read_published(&shared);
        let before_gen = before.snapshot.generation();
        let mut reader = before.snapshot.reader();
        let probes = ["R(a0)", "R(a0) | S(b0)", "S(b5)", "R(a3) & S(b3)"];
        let want: Vec<_> = probes.iter().map(|p| reader.decide(p).unwrap()).collect();

        let policy = CompactionPolicy {
            min_nodes: 0,
            growth_factor: 1.0,
            ..CompactionPolicy::default()
        };
        let post_nodes = compact_once(&shared, &policy).expect("round must install");
        let after = read_published(&shared);
        // Strictly advanced generation: no reader can confuse the
        // compacted encoding with the one it pinned.
        assert!(after.snapshot.generation() > before_gen);
        assert_eq!(after.updates_applied, before.updates_applied);
        assert!(post_nodes <= before.snapshot.theory().store_nodes());
        let mut compacted = after.snapshot.reader();
        for (probe, expected) in probes.iter().zip(&want) {
            assert_eq!(&compacted.decide(probe).unwrap(), expected, "{probe}");
        }
        let s = &shared.stats;
        assert_eq!(s.compactions.load(Ordering::Relaxed), 1);
        assert_eq!(s.compaction_aborts.load(Ordering::Relaxed), 0);
        // The checkpointing swap rewrote the on-storage snapshot from the
        // compacted theory.
        let guard = shared.writer.lock().unwrap();
        let db = guard.as_ref().unwrap();
        assert_eq!(db.stats().checkpoints, 1);
        assert_eq!(db.snapshot_lsn(), db.next_lsn());
    }

    #[test]
    fn independent_writes_coalesce_into_one_publication() {
        let shared = shared_with_db(&[("R", 1)]);
        let slots: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|c| enqueue(&shared, WriteOp::Execute(format!("INSERT R({c}) WHERE T"))))
            .collect();
        drain(&shared);
        for slot in &slots {
            match slot.try_take() {
                Some(Response::Executed(_)) => {}
                other => panic!("expected Executed, got {other:?}"),
            }
        }
        let stats = &shared.stats;
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 1);
        assert_eq!(stats.coalesced_writes.load(Ordering::Relaxed), 3);
        assert_eq!(stats.snapshots_published.load(Ordering::Relaxed), 1);
        assert_eq!(stats.updates.load(Ordering::Relaxed), 3);
        // The one published snapshot reflects every write in the batch.
        let published = read_published(&shared);
        assert_eq!(published.updates_applied, 3);
        let mut reader = published.snapshot.reader();
        for c in ["a", "b", "c"] {
            let (_possible, certain) = reader.decide(&format!("R({c})")).expect("decide");
            assert!(certain, "R({c}) must be certain after the batch");
        }
    }

    #[test]
    fn conflicting_writes_split_batches() {
        let shared = shared_with_db(&[("R", 1)]);
        // s2 reads R(a), which s1 writes: order-sensitive pair, so the
        // leader must publish between them.
        let s1 = enqueue(&shared, WriteOp::Execute("INSERT R(a) WHERE T".into()));
        let s2 = enqueue(&shared, WriteOp::Execute("INSERT R(b) WHERE R(a)".into()));
        drain(&shared);
        assert!(matches!(s1.try_take(), Some(Response::Executed(_))));
        assert!(matches!(s2.try_take(), Some(Response::Executed(_))));
        let stats = &shared.stats;
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.coalesced_writes.load(Ordering::Relaxed), 0);
        assert_eq!(stats.snapshots_published.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn barriers_and_errors_flush_correctly() {
        let shared = shared_with_db(&[("R", 1)]);
        // Independent, barrier (declare), independent again, one bad op.
        let w1 = enqueue(&shared, WriteOp::Execute("INSERT R(a) WHERE T".into()));
        let w2 = enqueue(&shared, WriteOp::Execute("INSERT R(b) WHERE T".into()));
        let barrier = enqueue(&shared, WriteOp::DeclareRelation("S".into(), 1));
        let w3 = enqueue(&shared, WriteOp::Execute("INSERT S(x) WHERE T".into()));
        let bad = enqueue(&shared, WriteOp::Execute("INSERT nonsense((".into()));
        drain(&shared);
        assert!(matches!(w1.try_take(), Some(Response::Executed(_))));
        assert!(matches!(w2.try_take(), Some(Response::Executed(_))));
        assert!(matches!(barrier.try_take(), Some(Response::Executed(_))));
        assert!(matches!(w3.try_take(), Some(Response::Executed(_))));
        match bad.try_take() {
            Some(Response::Error(e)) => assert_eq!(e.kind, ErrorKindWire::Parse),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Batches: [w1, w2], [declare], [w3], [bad]. The bad batch
        // applies nothing, so it publishes no snapshot.
        let stats = &shared.stats;
        assert_eq!(stats.write_batches.load(Ordering::Relaxed), 4);
        assert_eq!(stats.coalesced_writes.load(Ordering::Relaxed), 2);
        assert_eq!(stats.snapshots_published.load(Ordering::Relaxed), 3);
        assert_eq!(stats.updates.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn flushed_batches_fan_out_to_subscribers_in_commit_order() {
        let shared = shared_with_db(&[("R", 1)]);
        {
            let mut guard = shared.writer.lock().unwrap();
            guard.as_mut().unwrap().enable_shipping();
        }
        let (tx, rx) = mpsc::channel();
        let (dead_tx, dead_rx) = mpsc::channel::<Vec<WalEntry>>();
        drop(dead_rx);
        shared.subscribers.lock().unwrap().push(tx);
        shared.subscribers.lock().unwrap().push(dead_tx);
        for c in ["a", "b"] {
            enqueue(&shared, WriteOp::Execute(format!("INSERT R({c}) WHERE T")));
        }
        drain(&shared);
        let batch = rx.try_recv().expect("one shipped batch");
        assert_eq!(batch.len(), 2, "both applies ship in one batch");
        assert!(
            batch.windows(2).all(|w| w[0].lsn < w[1].lsn),
            "commit order preserved"
        );
        // The dead subscriber was pruned; the live one survived.
        assert_eq!(shared.subscribers.lock().unwrap().len(), 1);
        // Both entries went to both subscribers before the prune.
        assert_eq!(shared.stats.records_shipped.load(Ordering::Relaxed), 4);
        // A refused op leaves nothing in the shipping tail.
        enqueue(&shared, WriteOp::Execute("INSERT nonsense((".into()));
        drain(&shared);
        assert!(rx.try_recv().is_err(), "refused op ships nothing");
    }

    #[test]
    fn shutdown_between_compaction_phases_abandons_the_swap() {
        let shared = shared_with_db(&[("R", 1)]);
        enqueue(&shared, WriteOp::Execute("INSERT R(a) WHERE T".into()));
        drain(&shared);
        let before = read_published(&shared).snapshot.generation();
        // Shutdown lands while phase 2 runs off-lock; the gate in phase 3
        // must abandon the round instead of installing over the drain.
        shared.shutdown.store(true, Ordering::SeqCst);
        let policy = CompactionPolicy::default();
        assert_eq!(compact_once(&shared, &policy), None);
        assert_eq!(shared.stats.compactions.load(Ordering::Relaxed), 0);
        assert_eq!(shared.stats.compaction_aborts.load(Ordering::Relaxed), 1);
        assert_eq!(
            read_published(&shared).snapshot.generation(),
            before,
            "no republish after an abandoned round"
        );
        // The live database is untouched and still writable.
        shared.shutdown.store(false, Ordering::SeqCst);
        let slot = enqueue(&shared, WriteOp::Execute("INSERT R(b) WHERE T".into()));
        drain(&shared);
        assert!(matches!(slot.try_take(), Some(Response::Executed(_))));
    }

    #[test]
    fn chunking_packs_greedily_and_never_splits_an_entry() {
        assert!(chunk_entries(Vec::new()).is_empty());
        let entries: Vec<WalEntry> = (0..5)
            .map(|i| WalEntry {
                lsn: i,
                record: winslett_core::WalRecord::LoadFact("R".into(), vec![format!("{i}")]),
            })
            .collect();
        let chunks = chunk_entries(entries.clone());
        assert_eq!(chunks.len(), 1, "small entries pack into one chunk");
        assert_eq!(chunks[0], entries);
        // A payload near the record cap forces one entry per chunk.
        let big = "x".repeat((MAX_FRAME_LEN as usize - 1024) / 2);
        let entries: Vec<WalEntry> = (0..3)
            .map(|i| WalEntry {
                lsn: i,
                record: winslett_core::WalRecord::LoadFact(big.clone(), Vec::new()),
            })
            .collect();
        let chunks = chunk_entries(entries);
        assert_eq!(chunks.len(), 3, "near-cap entries go one per frame");
        for chunk in &chunks {
            let wire = serde_json::to_string(&Response::WalBatch(WalBatchReply {
                entries: chunk.clone(),
            }))
            .expect("serialize");
            assert!(wire.len() <= MAX_FRAME_LEN as usize);
        }
    }

    #[test]
    fn shipped_batches_are_one_frame_when_they_fit() {
        let entries: Vec<WalEntry> = (0..5)
            .map(|i| WalEntry {
                lsn: i,
                record: winslett_core::WalRecord::LoadFact("R".into(), vec![format!("{i}")]),
            })
            .collect();
        let batch = |entries: Vec<WalEntry>| Response::WalBatch(WalBatchReply { entries });
        let payloads = wal_batch_payloads(entries.clone()).unwrap();
        assert_eq!(
            payloads,
            vec![serde_json::to_string(&batch(entries)).unwrap()]
        );
        assert!(
            wal_batch_payloads(Vec::new()).unwrap().is_empty(),
            "no entries ship as no frame, as `chunk_entries` gives no chunk"
        );
        // Past the frame cap the batch splits exactly as `chunk_entries`.
        let big = "x".repeat((MAX_FRAME_LEN as usize - 1024) / 2);
        let entries: Vec<WalEntry> = (0..3)
            .map(|i| WalEntry {
                lsn: i,
                record: winslett_core::WalRecord::LoadFact(big.clone(), Vec::new()),
            })
            .collect();
        let payloads = wal_batch_payloads(entries.clone()).unwrap();
        let want: Vec<String> = chunk_entries(entries)
            .into_iter()
            .map(|chunk| serde_json::to_string(&batch(chunk)).unwrap())
            .collect();
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads, want);
    }

    #[test]
    fn a_subscription_opens_with_the_catchup_then_its_backlog() {
        let catchup = serde_json::to_string(&catchup_frames(None, 7).unwrap()[0]).unwrap();
        assert_eq!(
            opening_payloads(Catchup::Suffix(Vec::new()), 7).unwrap(),
            vec![catchup.clone()],
            "an empty backlog ships no batch"
        );
        let entries = vec![WalEntry {
            lsn: 6,
            record: winslett_core::WalRecord::LoadFact("R".into(), vec!["a".into()]),
        }];
        let batch = Response::WalBatch(WalBatchReply {
            entries: entries.clone(),
        });
        assert_eq!(
            opening_payloads(Catchup::Suffix(entries), 7).unwrap(),
            vec![catchup, serde_json::to_string(&batch).unwrap()]
        );
    }
}
