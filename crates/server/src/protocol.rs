//! The wire protocol: length-prefixed, CRC-checked JSON frames.
//!
//! Framing deliberately mirrors the WAL record format of
//! `winslett_core::wal` (and reuses its CRC32):
//!
//! ```text
//! ┌───────────────┬───────────────┬─────────────────────┐
//! │ len: u32 (LE) │ crc: u32 (LE) │ payload (len bytes)  │
//! └───────────────┴───────────────┴─────────────────────┘
//! ```
//!
//! where `crc = crc32(payload)` and the payload is one JSON-encoded
//! [`Request`] or [`Response`]. Every defect a peer can inflict — torn
//! header, torn payload, oversized length, checksum mismatch, unparsable
//! JSON — decodes to a typed [`FrameError`], never a panic.
//!
//! Framing a value costs time in proportion to its bytes: the JSON is
//! written straight into the payload string by the value's own
//! `serde::Serialize::write_json`, with no intermediate tree, and the CRC
//! folds the payload eight bytes per step. Decoding parses the payload
//! into a `serde::Value` tree first and reads the value out of it.

use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use winslett_core::wal::crc32;
use winslett_core::{WalEntry, WalSnapshot};

/// Hard ceiling on a frame payload (4 MiB): a length word above this is
/// treated as garbage rather than obeyed as an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 22;

/// Everything that can go wrong reading or decoding one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The read timed out (idle connection or a stalled mid-frame peer).
    TimedOut,
    /// EOF struck inside a frame: `got` of `want` bytes arrived.
    Torn {
        /// Bytes received before the cut.
        got: usize,
        /// Bytes the frame promised.
        want: usize,
    },
    /// The length word exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload checksum does not match the header.
    BadCrc {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes that arrived.
        found: u32,
    },
    /// The payload is not valid JSON for the expected type (this is also
    /// what an *unknown request kind* decodes to).
    Decode(String),
    /// Any other I/O failure, stringified.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Torn { got, want } => {
                write!(f, "torn frame: {got} of {want} bytes before EOF")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME_LEN})")
            }
            FrameError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, payload {found:#010x}"
                )
            }
            FrameError::Decode(m) => write!(f, "undecodable frame: {m}"),
            FrameError::Io(m) => write!(f, "frame i/o error: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn io_error(e: std::io::Error) -> FrameError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e.to_string()),
    }
}

/// Reads until `buf` is full or EOF; returns bytes read (≤ `buf.len()`).
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(got)
}

/// Writes one frame around `payload`. An over-cap payload is a typed
/// [`FrameError::Oversized`] before any byte hits the wire — the peer
/// would refuse it anyway, and half a giant frame would poison the
/// stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(FrameError::Oversized {
            len: payload.len().min(u32::MAX as usize) as u32,
        });
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame).map_err(io_error)?;
    w.flush().map_err(io_error)
}

/// Reads one frame, verifying length bound and checksum.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 8];
    match fill(r, &mut header)? {
        0 => return Err(FrameError::Closed),
        8 => {}
        got => return Err(FrameError::Torn { got, want: 8 }),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let got = fill(r, &mut payload)?;
    if got < len as usize {
        return Err(FrameError::Torn {
            got: 8 + got,
            want: 8 + len as usize,
        });
    }
    let found = crc32(&payload);
    if found != expected {
        return Err(FrameError::BadCrc { expected, found });
    }
    Ok(payload)
}

/// Serializes `value` into one frame.
pub fn send<T: Serialize>(w: &mut impl Write, value: &T) -> Result<(), FrameError> {
    let json = serde_json::to_string(value).map_err(|e| FrameError::Decode(e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Reads one frame and deserializes it as `T`.
pub fn recv<T: Deserialize>(r: &mut impl Read) -> Result<T, FrameError> {
    let payload = read_frame(r)?;
    decode(&payload)
}

/// Deserializes an already-read payload as `T`.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text =
        std::str::from_utf8(payload).map_err(|e| FrameError::Decode(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Decode(e.to_string()))
}

// ----- nonblocking incremental framing ---------------------------------------

/// How a nonblocking fill ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillStatus {
    /// Bytes appended to the buffer by this call.
    pub received: usize,
    /// The peer closed its write side (EOF observed).
    pub eof: bool,
}

/// Per-connection receive buffer for a nonblocking socket: bytes
/// accumulate across partial reads and frames are decoded **in place** —
/// [`FrameBuf::next_frame`] parses the length/CRC header straight out of
/// the buffer and hands back the payload's range, so the only copy a
/// request ever makes is the kernel's copy into this buffer. The range
/// feeds [`decode`] as a borrowed `&[u8]` slice; no intermediate `Vec`.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the unconsumed region; everything before it belongs to
    /// frames already handed out and is reclaimed by `compact`.
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the readable bytes of `r` (which must be nonblocking) into
    /// the buffer. `WouldBlock` is the normal stop, not an error; EOF is
    /// reported in the status so the caller can distinguish a clean close
    /// (no pending bytes) from a torn frame.
    pub fn fill_nonblocking(&mut self, r: &mut impl Read) -> std::io::Result<FillStatus> {
        const CHUNK: usize = 16 * 1024;
        let mut received = 0usize;
        loop {
            let len = self.buf.len();
            self.buf.resize(len + CHUNK, 0);
            match r.read(&mut self.buf[len..]) {
                Ok(0) => {
                    self.buf.truncate(len);
                    return Ok(FillStatus {
                        received,
                        eof: true,
                    });
                }
                Ok(n) => {
                    self.buf.truncate(len + n);
                    received += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => self.buf.truncate(len),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.buf.truncate(len);
                    return Ok(FillStatus {
                        received,
                        eof: false,
                    });
                }
                Err(e) => {
                    self.buf.truncate(len);
                    return Err(e);
                }
            }
        }
    }

    /// Parses the next complete frame in place. `Ok(Some(range))` is the
    /// payload's position (valid until the next fill or `compact`);
    /// `Ok(None)` means more bytes are needed. Oversized lengths and
    /// checksum mismatches are the same typed errors the blocking
    /// [`read_frame`] reports.
    pub fn next_frame(&mut self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        let expected = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        let total = 8 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload_start = self.start + 8;
        let range = payload_start..payload_start + len as usize;
        let found = crc32(&self.buf[range.clone()]);
        if found != expected {
            return Err(FrameError::BadCrc { expected, found });
        }
        self.start += total;
        Ok(Some(range))
    }

    /// The payload bytes of a range returned by [`FrameBuf::next_frame`].
    pub fn payload(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Unconsumed bytes currently buffered: a partial frame, or complete
    /// frames not yet parsed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Reclaims consumed space. Call between pump rounds — never between
    /// `next_frame` and the use of its range.
    pub fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.start);
        }
        self.start = 0;
    }
}

/// Per-connection transmit buffer: responses are framed into it and
/// flushed opportunistically; whatever the socket won't take stays queued
/// until the reactor sees `EPOLLOUT`.
#[derive(Debug, Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    start: usize,
}

impl OutBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// No bytes awaiting the socket.
    pub fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }

    /// Bytes awaiting the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Frames `payload` into the buffer — same refusal as [`write_frame`]:
    /// an over-cap payload never reaches the stream.
    pub fn push_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        if payload.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(FrameError::Oversized {
                len: payload.len().min(u32::MAX as usize) as u32,
            });
        }
        self.buf.reserve(8 + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Serializes `value` into one queued frame.
    pub fn push_value<T: Serialize>(&mut self, value: &T) -> Result<(), FrameError> {
        let json = serde_json::to_string(value).map_err(|e| FrameError::Decode(e.to_string()))?;
        self.push_frame(json.as_bytes())
    }

    /// Writes as much as the (nonblocking) socket will take and returns
    /// the byte count; `WouldBlock` is the normal stop. A fully drained
    /// buffer resets so its capacity is reused.
    pub fn flush_nonblocking(&mut self, w: &mut impl Write) -> std::io::Result<usize> {
        let mut wrote = 0usize;
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.start += n;
                    wrote += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(wrote)
    }
}

// ----- request/response vocabulary ------------------------------------------

/// One client request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Execute one LDML statement (`INSERT`/`DELETE`/`MODIFY`/`ASSERT`)
    /// through the journaled write path.
    Execute(String),
    /// Declare an untyped relation `(name, arity)` (journaled).
    DeclareRelation(String, u64),
    /// Declare a unary attribute predicate (journaled).
    DeclareAttribute(String),
    /// Load a ground fact `(predicate, args)` as certainly true
    /// (journaled).
    LoadFact(String, Vec<String>),
    /// Load an arbitrary ground wff into the initial state (journaled).
    LoadWff(String),
    /// Run a conjunctive query (certain + possible answer sets).
    Query(String),
    /// Entailment check on a ground wff: `(possible, certain)`.
    Check(String),
    /// Three-valued EXPLAIN with witness/counterexample worlds.
    Explain(String),
    /// Pin the connection to the current snapshot: every later read runs
    /// at this generation until `Unpin`.
    Pin,
    /// Release the pinned snapshot; reads follow the latest publication.
    Unpin,
    /// Server and WAL counters.
    Stats,
    /// Force a WAL checkpoint (snapshot + log reset).
    Checkpoint,
    /// Graceful shutdown: stop accepting, drain, flush the WAL.
    Shutdown,
    /// Liveness probe.
    Ping,
    /// Pin the connection to a snapshot whose last acknowledged LSN is
    /// **at least** the given value — the replica-consistency handshake.
    /// Refused with [`ErrorKindWire::LagBehind`] when the serving node
    /// has not caught up that far yet; the client retries or falls back
    /// to the primary.
    PinAt(u64),
    /// Become a WAL subscriber from the given LSN cursor (a replica's
    /// next-expected LSN). The server answers with one
    /// [`Response::Catchup`], then the backlog and all future records as
    /// a stream of [`Response::WalBatch`] frames; the connection speaks
    /// nothing else afterwards. Only the primary accepts this.
    Subscribe(u64),
    /// Open a multi-statement transaction on this connection. Until
    /// `Commit`/`Rollback`, every Execute/Declare/Load runs against a
    /// private workspace under footprint-granularity locks; reads on the
    /// same connection still see the published snapshot (the transaction's
    /// own writes are visible only to its statements). One transaction per
    /// connection; a second `Begin` is refused.
    Begin,
    /// Commit the connection's open transaction: reapply its statements
    /// to the live theory, journal the commit marker, fsync, publish.
    Commit,
    /// Abandon the connection's open transaction, releasing its locks.
    Rollback,
}

/// What an [`Request::Execute`] did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecReply {
    /// LSN of the journaled record — the serialization order of this
    /// update among all acknowledged writes.
    pub lsn: u64,
    /// Theory generation after the update.
    pub generation: u64,
    /// Net store growth in AST nodes (the paper's O(g) claim).
    pub nodes_added: i64,
    /// Atoms newly added to completion axioms.
    pub completion_added: u64,
}

/// Certain/possible rows for a conjunctive query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryReply {
    /// Substitutions true in every alternative world.
    pub certain: Vec<Vec<String>>,
    /// Substitutions true in some alternative world.
    pub possible: Vec<Vec<String>>,
    /// Generation of the snapshot the query ran against.
    pub generation: u64,
}

/// The two-bit answer to an entailment check.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TruthReply {
    /// True in some alternative world.
    pub possible: bool,
    /// True in every alternative world.
    pub certain: bool,
    /// Generation of the snapshot the check ran against.
    pub generation: u64,
}

/// The verdict lattice of EXPLAIN, on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireVerdict {
    /// True in every world.
    Certain,
    /// True in some worlds, false in others.
    Uncertain,
    /// False in every world.
    Impossible,
    /// The theory has no worlds at all.
    Inconsistent,
}

/// An EXPLAIN result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExplainReply {
    /// The verdict.
    pub verdict: WireVerdict,
    /// A world (atom names) where the wff holds, if any.
    pub witness: Option<Vec<String>>,
    /// A world where the wff fails, if any.
    pub counterexample: Option<Vec<String>>,
    /// Generation of the snapshot explained against.
    pub generation: u64,
}

/// The snapshot a `Pin` nailed down.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReply {
    /// Theory generation of the pinned snapshot.
    pub generation: u64,
    /// Acknowledged updates folded into this snapshot (a prefix count of
    /// the LSN order).
    pub updates_applied: u64,
    /// LSN of the last update in the snapshot (0 if none).
    pub last_lsn: u64,
}

/// What a transaction-control request accomplished.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnReply {
    /// The transaction id (the LSN of its begin record).
    pub txn: u64,
    /// For `Commit`: the LSN of the commit marker (0 for begin/rollback).
    #[serde(default)]
    pub lsn: u64,
    /// For `Commit`: how many journaled statements the transaction
    /// reapplied (0 for begin/rollback).
    #[serde(default)]
    pub statements: u64,
}

/// Server + WAL counters, over the wire.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Connections accepted into service.
    pub accepted: u64,
    /// Connections refused with `Busy` at the admission gate.
    pub rejected_busy: u64,
    /// Requests served (all kinds).
    pub requests: u64,
    /// Updates acknowledged.
    pub updates: u64,
    /// Read requests (query/check/explain) served.
    pub reads: u64,
    /// Snapshots published by the writer.
    pub snapshots_published: u64,
    /// Connections closed by the idle timeout.
    pub idle_closes: u64,
    /// Malformed frames / undecodable requests observed.
    pub protocol_errors: u64,
    /// Write batches flushed by the batching leader (each batch = one
    /// sync + one snapshot publication).
    pub write_batches: u64,
    /// Writes that shared a batch with at least one other write.
    pub coalesced_writes: u64,
    /// Current theory generation at the writer.
    pub generation: u64,
    /// Next WAL LSN.
    pub next_lsn: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL fsyncs issued.
    pub wal_syncs: u64,
    /// WAL checkpoints taken.
    pub wal_checkpoints: u64,
    /// Snapshot generations currently held pinned by connections (gauge:
    /// rises on `Pin`, falls on `Unpin` *and* when a pinned connection is
    /// closed or reaped).
    pub pinned_generations: u64,
    /// Superseded snapshot generations whose `Arc<Theory>` allocation is
    /// still alive — retained by a pin, an in-flight read, or a cached
    /// session (gauge; 0 once eager release has let them all go). Absent
    /// from older servers.
    #[serde(default)]
    pub retained_generations: u64,
    /// Background-compaction swaps installed.
    pub compactions: u64,
    /// Compaction rounds abandoned (swap-time replay failure).
    pub compaction_aborts: u64,
    /// Store nodes reclaimed across all compaction swaps.
    pub compaction_nodes_reclaimed: u64,
    /// Total writer-lock pause spent in compaction swaps, µs.
    pub compaction_swap_pause_us: u64,
    /// Longest single compaction swap pause, µs.
    pub compaction_swap_pause_max_us: u64,
    /// Primary: live WAL subscribers (replicas currently streaming).
    pub subscribers: u64,
    /// Primary: WAL records shipped to subscribers (sum over subscribers).
    pub records_shipped: u64,
    /// Replica: WAL batches applied from the subscription stream.
    pub replica_batches: u64,
    /// Replica: records replayed from the stream.
    pub replica_records: u64,
    /// Replica: snapshot bootstraps performed (initial + after falling
    /// behind the primary's checkpoint).
    pub replica_snapshots_loaded: u64,
    /// Replica: subscription reconnects after a broken stream.
    pub replica_reconnects: u64,
    /// `PinAt` requests refused with [`ErrorKindWire::LagBehind`].
    pub lag_refusals: u64,
    /// Transactions begun. Absent from older servers.
    #[serde(default)]
    pub txn_begun: u64,
    /// Transactions committed.
    #[serde(default)]
    pub txn_committed: u64,
    /// Transactions rolled back (client request, statement failure,
    /// timeout auto-abort, disconnect, or drain).
    #[serde(default)]
    pub txn_aborted: u64,
    /// Transactions currently open (gauge).
    #[serde(default)]
    pub txn_active: u64,
    /// Lock acquisitions that had to wait for a holder.
    #[serde(default)]
    pub lock_waits: u64,
    /// Lock acquisitions that gave up at their deadline.
    #[serde(default)]
    pub lock_timeouts: u64,
    /// Plain (non-transactional) writes refused or requeued because an
    /// open transaction held a conflicting lock.
    #[serde(default)]
    pub txn_conflicts: u64,
}

/// The opening answer to a [`Request::Subscribe`]: everything the
/// follower needs before the live stream starts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CatchupReply {
    /// `Some` when the subscriber's cursor predates the primary's
    /// checkpoint — the log no longer reaches back that far, so the
    /// follower must rebuild from this snapshot (records with
    /// `lsn < snapshot.lsn` are already folded in). `None` when the log
    /// suffix alone suffices.
    pub snapshot: Option<WalSnapshot>,
    /// The primary's next LSN at subscription time; the follower is
    /// caught up once it has applied everything below this.
    pub next_lsn: u64,
    /// `true` when the snapshot was too large to ride inline: `snapshot`
    /// is `None` and the document follows as a series of
    /// [`Response::CatchupChunk`] frames, terminated by the chunk whose
    /// `done` flag is set. Absent (false) from older primaries.
    #[serde(default)]
    pub chunked: bool,
}

/// One piece of a chunked catch-up snapshot: the JSON document of the
/// [`WalSnapshot`], split on character boundaries into frame-sized parts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CatchupChunkReply {
    /// The next run of the snapshot document.
    pub part: String,
    /// Set on the final chunk — the stream's terminator; the `WalBatch`
    /// backlog begins after it.
    pub done: bool,
}

/// One batch of shipped WAL records — the backlog during catch-up, then
/// each write batch as the primary commits it. An empty batch is a
/// heartbeat: the stream is alive, there is just nothing to ship.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalBatchReply {
    /// Effective records (aborted pairs already removed), in LSN order.
    /// LSN holes mark annulled operations and are harmless.
    pub entries: Vec<WalEntry>,
}

/// What a `Checkpoint` accomplished.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointReply {
    /// LSN the on-storage snapshot is now current through.
    pub lsn: u64,
}

/// Machine-readable failure category.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKindWire {
    /// The statement or wff did not parse / referenced unknown symbols.
    Parse,
    /// GUA (or schema validation) refused the operation.
    Refused,
    /// Admission control: too many concurrent connections.
    Busy,
    /// The frame decoded but the request is not usable (e.g. unknown
    /// request kind, wrong payload shape).
    BadRequest,
    /// The server is draining for shutdown; no new writes.
    ShuttingDown,
    /// Storage-layer failure underneath the write path.
    Storage,
    /// The node serving this request is a read replica that has not yet
    /// replayed up to the LSN a [`Request::PinAt`] demanded. Retry after
    /// the lag closes, or read from the primary.
    LagBehind,
    /// The node is a read replica; writes, checkpoints, and subscriptions
    /// must go to the primary.
    ReadOnly,
    /// The journaled form of the statement would exceed the WAL record
    /// cap (and therefore the wire-frame cap); the operation was refused
    /// before anything was written.
    TooLarge,
    /// The operation conflicts with locks held by an open transaction and
    /// could not proceed within its patience. Retry once the holder
    /// commits or rolls back.
    TxnConflict,
    /// A lock acquisition inside a transaction gave up at its
    /// deadlock-avoidance deadline. The transaction has been rolled back;
    /// begin again and retry.
    TxnTimeout,
    /// Anything else; the message says what.
    Internal,
}

/// A typed server-side error.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The category.
    pub kind: ErrorKindWire,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Execute` succeeded.
    Executed(ExecReply),
    /// `Query` result.
    Rows(QueryReply),
    /// `Check` result.
    Truth(TruthReply),
    /// `Explain` result.
    Explained(ExplainReply),
    /// `Pin` took a snapshot.
    Pinned(SnapshotReply),
    /// `Unpin` released it.
    Unpinned,
    /// `Stats` counters.
    Stats(Box<StatsReply>),
    /// `Checkpoint` completed.
    Checkpointed(CheckpointReply),
    /// `Shutdown` acknowledged; the server is draining.
    ShuttingDown,
    /// `Ping` reply.
    Pong,
    /// First answer on a subscription stream: catch-up material.
    Catchup(Box<CatchupReply>),
    /// One piece of a chunked catch-up snapshot; follows a
    /// `Catchup { chunked: true, .. }` reply.
    CatchupChunk(CatchupChunkReply),
    /// One shipped batch on a subscription stream (empty = heartbeat).
    WalBatch(WalBatchReply),
    /// `Begin` opened a transaction.
    TxnBegun(TxnReply),
    /// `Commit` made the transaction durable.
    TxnCommitted(TxnReply),
    /// `Rollback` abandoned the transaction (also sent when the server
    /// itself aborted it, e.g. on a lock timeout).
    TxnRolledBack(TxnReply),
    /// The request failed; the connection stays usable.
    Error(WireError),
}

// ----- catch-up snapshot chunking --------------------------------------------

/// Headroom for the `Catchup` wrapper around an inline snapshot: the enum
/// tag, the `next_lsn` and `chunked` fields, and frame overhead.
const CATCHUP_WRAPPER_HEADROOM: usize = 256;

/// Plans the opening frames of a subscription stream. A snapshot that
/// fits the frame cap rides inline in the `Catchup` reply exactly as it
/// always has; a larger one is announced with `chunked: true` and then
/// streamed as [`Response::CatchupChunk`] frames, split on character
/// boundaries, terminated by the chunk whose `done` flag is set.
pub fn catchup_frames(
    snapshot: Option<WalSnapshot>,
    next_lsn: u64,
) -> Result<Vec<Response>, FrameError> {
    catchup_frames_with_budget(snapshot, next_lsn, MAX_FRAME_LEN as usize)
}

/// The budget-parameterized core, so tests can probe the cap boundary
/// exactly (±1 byte) without minting a 4 MiB theory.
fn catchup_frames_with_budget(
    snapshot: Option<WalSnapshot>,
    next_lsn: u64,
    budget: usize,
) -> Result<Vec<Response>, FrameError> {
    let Some(snap) = snapshot else {
        return Ok(vec![Response::Catchup(Box::new(CatchupReply {
            snapshot: None,
            next_lsn,
            chunked: false,
        }))]);
    };
    let json = serde_json::to_string(&snap).map_err(|e| FrameError::Decode(e.to_string()))?;
    if json.len() + CATCHUP_WRAPPER_HEADROOM <= budget {
        return Ok(vec![Response::Catchup(Box::new(CatchupReply {
            snapshot: Some(snap),
            next_lsn,
            chunked: false,
        }))]);
    }
    let mut frames = vec![Response::Catchup(Box::new(CatchupReply {
        snapshot: None,
        next_lsn,
        chunked: true,
    }))];
    // Conservative raw size per part: JSON string escaping at most
    // doubles a JSON document (quotes and backslashes), so a quarter of
    // the budget leaves the escaped part plus its wrapper far under cap.
    let part_raw = (budget / 4).max(1);
    let mut rest = json.as_str();
    while !rest.is_empty() {
        let mut cut = part_raw.min(rest.len());
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (part, tail) = rest.split_at(cut);
        rest = tail;
        frames.push(Response::CatchupChunk(CatchupChunkReply {
            part: part.to_string(),
            done: rest.is_empty(),
        }));
    }
    Ok(frames)
}

/// Reassembles the parts collected from a chunked catch-up into the
/// snapshot document they were split from.
pub fn assemble_snapshot(parts: &[String]) -> Result<WalSnapshot, FrameError> {
    let joined: String = parts.concat();
    serde_json::from_str(&joined).map_err(|e| FrameError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello frames");
        assert_eq!(read_frame(&mut r).unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn request_response_roundtrip() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Execute("INSERT R(1) WHERE T".into())).unwrap();
        send(&mut buf, &Request::Pin).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            recv::<Request>(&mut r).unwrap(),
            Request::Execute("INSERT R(1) WHERE T".into())
        );
        assert_eq!(recv::<Request>(&mut r).unwrap(), Request::Pin);

        let resp = Response::Truth(TruthReply {
            possible: true,
            certain: false,
            generation: 7,
        });
        let mut buf = Vec::new();
        send(&mut buf, &resp).unwrap();
        assert_eq!(recv::<Response>(&mut &buf[..]).unwrap(), resp);
    }

    #[test]
    fn torn_header_and_payload_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Cut inside the header.
        assert!(matches!(
            read_frame(&mut &buf[..5]),
            Err(FrameError::Torn { got: 5, want: 8 })
        ));
        // Cut inside the payload.
        assert!(matches!(
            read_frame(&mut &buf[..10]),
            Err(FrameError::Torn { got: 10, want: 14 })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err(),
            FrameError::Oversized { len: u32::MAX }
        );
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn oversized_write_is_refused_before_the_wire() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0u8; MAX_FRAME_LEN as usize + 1]).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: MAX_FRAME_LEN + 1
            }
        );
        assert!(buf.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn record_cap_leaves_batch_headroom_inside_the_frame_cap() {
        // A single max-size WAL record, JSON-wrapped into a WalBatch
        // response, must still fit in one frame — that is the whole point
        // of holding MAX_RECORD_LEN under MAX_FRAME_LEN. 1 KiB of
        // headroom covers the enum wrapper, the entries array, and the
        // LSN field with two orders of magnitude to spare.
        const { assert!(winslett_core::MAX_RECORD_LEN + 1024 <= MAX_FRAME_LEN) };
    }

    #[test]
    fn subscription_vocabulary_roundtrips() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Subscribe(42)).unwrap();
        send(&mut buf, &Request::PinAt(7)).unwrap();
        let mut r = &buf[..];
        assert_eq!(recv::<Request>(&mut r).unwrap(), Request::Subscribe(42));
        assert_eq!(recv::<Request>(&mut r).unwrap(), Request::PinAt(7));

        let batch = Response::WalBatch(WalBatchReply {
            entries: vec![winslett_core::WalEntry {
                lsn: 9,
                record: winslett_core::WalRecord::LoadFact("R".into(), vec!["1".into()]),
            }],
        });
        let mut buf = Vec::new();
        send(&mut buf, &batch).unwrap();
        assert_eq!(recv::<Response>(&mut &buf[..]).unwrap(), batch);

        let catchup = Response::Catchup(Box::new(CatchupReply {
            snapshot: None,
            next_lsn: 10,
            chunked: false,
        }));
        let mut buf = Vec::new();
        send(&mut buf, &catchup).unwrap();
        assert_eq!(recv::<Response>(&mut &buf[..]).unwrap(), catchup);

        // A wire image without the chunked flag (an older primary) still
        // decodes, defaulting to the inline interpretation.
        let legacy = br#"{"Catchup":{"snapshot":null,"next_lsn":10}}"#;
        let mut buf = Vec::new();
        write_frame(&mut buf, legacy).unwrap();
        assert_eq!(recv::<Response>(&mut &buf[..]).unwrap(), catchup);
    }

    /// A reader that hands out one byte per call, then `WouldBlock` —
    /// the pathological peer the incremental decoder must handle.
    struct Dribble {
        data: Vec<u8>,
        at: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.data.len() {
                return Ok(0);
            }
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.ready = false;
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn framebuf_decodes_across_partial_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let total = wire.len();
        let mut src = Dribble {
            data: wire,
            at: 0,
            ready: false,
        };
        let mut fb = FrameBuf::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut eof = false;
        let mut rounds = 0;
        while !eof {
            rounds += 1;
            assert!(rounds <= 2 * total + 4, "dribble must terminate");
            let status = fb.fill_nonblocking(&mut src).unwrap();
            eof = status.eof;
            while let Some(range) = fb.next_frame().unwrap() {
                got.push(fb.payload(range).to_vec());
            }
            fb.compact();
        }
        assert_eq!(got, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(fb.pending(), 0, "clean EOF leaves nothing buffered");
    }

    #[test]
    fn framebuf_reports_oversized_and_bad_crc_in_place() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        fb.fill_nonblocking(&mut &wire[..]).unwrap();
        assert_eq!(
            fb.next_frame().unwrap_err(),
            FrameError::Oversized { len: u32::MAX }
        );

        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        fb.fill_nonblocking(&mut &wire[..]).unwrap();
        assert!(matches!(fb.next_frame(), Err(FrameError::BadCrc { .. })));
    }

    /// A writer that takes at most three bytes per call, then `WouldBlock`.
    struct Throttle {
        out: Vec<u8>,
        ready: bool,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.ready = false;
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbuf_flushes_incrementally_and_refuses_oversized() {
        let mut ob = OutBuf::new();
        ob.push_value(&Response::Pong).unwrap();
        ob.push_frame(b"tail").unwrap();
        let want_len = ob.pending();
        let mut sink = Throttle {
            out: Vec::new(),
            ready: false,
        };
        let mut rounds = 0;
        while !ob.is_empty() {
            rounds += 1;
            assert!(rounds <= want_len + 4, "throttle must drain");
            ob.flush_nonblocking(&mut sink).unwrap();
        }
        assert_eq!(sink.out.len(), want_len);
        let mut r = &sink.out[..];
        assert_eq!(recv::<Response>(&mut r).unwrap(), Response::Pong);
        assert_eq!(read_frame(&mut r).unwrap(), b"tail");

        let err = ob
            .push_frame(&vec![0u8; MAX_FRAME_LEN as usize + 1])
            .unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
        assert!(ob.is_empty(), "refused payload leaves nothing queued");
    }

    fn sample_snapshot() -> winslett_core::WalSnapshot {
        let mut db = winslett_core::LogicalDatabase::new();
        db.declare_relation("R", 1).unwrap();
        db.load_fact("R", &["chunky"]).unwrap();
        winslett_core::WalSnapshot {
            version: 1,
            lsn: 7,
            theory: winslett_core::dump_theory(db.theory()),
        }
    }

    #[test]
    fn catchup_chunking_splits_exactly_at_the_cap() {
        let snap = sample_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let fits = json.len() + 256; // CATCHUP_WRAPPER_HEADROOM
                                     // One byte of budget decides inline vs chunked: at the cap the
                                     // snapshot rides inline, one under it streams as chunks.
        let inline = catchup_frames_with_budget(Some(snap.clone()), 9, fits).unwrap();
        assert_eq!(inline.len(), 1);
        match &inline[0] {
            Response::Catchup(c) => {
                assert!(!c.chunked);
                assert_eq!(c.next_lsn, 9);
                assert_eq!(c.snapshot.as_ref().map(|s| s.lsn), Some(7));
            }
            other => panic!("expected Catchup, got {other:?}"),
        }
        let chunked = catchup_frames_with_budget(Some(snap.clone()), 9, fits - 1).unwrap();
        assert!(chunked.len() >= 2, "announcement plus at least one chunk");
        match &chunked[0] {
            Response::Catchup(c) => {
                assert!(c.chunked);
                assert!(c.snapshot.is_none());
                assert_eq!(c.next_lsn, 9);
            }
            other => panic!("expected Catchup, got {other:?}"),
        }
        let mut parts = Vec::new();
        for (i, frame) in chunked[1..].iter().enumerate() {
            match frame {
                Response::CatchupChunk(c) => {
                    assert_eq!(
                        c.done,
                        i == chunked.len() - 2,
                        "done terminates the sequence"
                    );
                    parts.push(c.part.clone());
                }
                other => panic!("expected CatchupChunk, got {other:?}"),
            }
        }
        let back = assemble_snapshot(&parts).unwrap();
        assert_eq!(back.lsn, snap.lsn);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // Every planned frame must itself fit the real cap.
        for frame in catchup_frames(Some(snap), 9).unwrap() {
            let wire = serde_json::to_string(&frame).unwrap();
            assert!(wire.len() <= MAX_FRAME_LEN as usize);
        }
    }

    #[test]
    fn txn_vocabulary_roundtrips() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Begin).unwrap();
        send(&mut buf, &Request::Commit).unwrap();
        send(&mut buf, &Request::Rollback).unwrap();
        let mut r = &buf[..];
        assert_eq!(recv::<Request>(&mut r).unwrap(), Request::Begin);
        assert_eq!(recv::<Request>(&mut r).unwrap(), Request::Commit);
        assert_eq!(recv::<Request>(&mut r).unwrap(), Request::Rollback);

        let resp = Response::TxnCommitted(TxnReply {
            txn: 12,
            lsn: 19,
            statements: 3,
        });
        let mut buf = Vec::new();
        send(&mut buf, &resp).unwrap();
        assert_eq!(recv::<Response>(&mut &buf[..]).unwrap(), resp);

        // Stats from an older server (no txn counters) still decode.
        let legacy = br#"{"accepted":1,"rejected_busy":0,"requests":2,"updates":0,"reads":0,"snapshots_published":0,"idle_closes":0,"protocol_errors":0,"write_batches":0,"coalesced_writes":0,"generation":0,"next_lsn":1,"wal_records":0,"wal_syncs":0,"wal_checkpoints":0,"pinned_generations":0,"compactions":0,"compaction_aborts":0,"compaction_nodes_reclaimed":0,"compaction_swap_pause_us":0,"compaction_swap_pause_max_us":0,"subscribers":0,"records_shipped":0,"replica_batches":0,"replica_records":0,"replica_snapshots_loaded":0,"replica_reconnects":0,"lag_refusals":0}"#;
        let stats: StatsReply = decode(legacy).unwrap();
        assert_eq!(stats.txn_begun, 0);
        assert_eq!(stats.txn_active, 0);
    }

    #[test]
    fn unknown_request_kind_is_a_decode_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"FlushCaches":[]}"#).unwrap();
        assert!(matches!(
            recv::<Request>(&mut &buf[..]),
            Err(FrameError::Decode(_))
        ));
    }
}
