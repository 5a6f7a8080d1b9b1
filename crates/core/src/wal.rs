//! Durable write-ahead logging and crash recovery for [`LogicalDatabase`].
//!
//! The paper's §4 observes that "simply keeping a record of past updates
//! and recomputing the state of the theory on each new query" is the
//! strawman alternative to GUA-plus-simplification. A *write-ahead log* is
//! that record put to honest work: every LDML update (and every schema
//! change) is journaled — length-prefixed, CRC32-checksummed, versioned —
//! **before** GUA applies it, so that after a crash the database state can
//! be reconstructed by loading the latest [`TheoryDump`] snapshot and
//! replaying the WAL suffix through [`replay_record`] — the same
//! long-lived-engine apply the live writer runs, which replicas and
//! compaction installs use too. Recovery truncates at the first torn or corrupt
//! record, which gives the atomicity guarantee the fault-injection tests
//! enforce: whatever byte a crash lands on, the recovered theory's
//! alternative-world set equals the world set after some *prefix* of the
//! acknowledged operations — never a third state.
//!
//! Layout on storage (two named files behind the [`Storage`] trait):
//!
//! ```text
//! snapshot.json   { version, lsn, theory: TheoryDump }      (atomic replace)
//! wal.log         "WWAL" ++ u32 version ++ record*          (append-only)
//! record        = u32 payload_len ++ u32 crc32(payload) ++ payload
//! payload       = JSON of { lsn, record: WalRecord }
//! ```
//!
//! Records carry monotonically increasing LSNs; the snapshot stores the
//! LSN up to which it is current, so a crash *between* writing a new
//! snapshot and resetting the WAL is harmless — recovery skips records
//! the snapshot already covers. Snapshot-triggered log compaction is
//! keyed off [`Theory::store_nodes`] growth (the §3.6 store-size
//! measure): when the live store has grown past a configurable factor of
//! its size at the last snapshot, a checkpoint folds the log into a new
//! snapshot.

use crate::db::{DbOptions, LogicalDatabase};
use crate::error::DbError;
use crate::persist::{self, DependencyDump, TheoryDump};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::HashSet;
use std::collections::VecDeque;
use winslett_gua::{SimplifyReport, UpdateReport};
use winslett_ldml::Update;
use winslett_logic::{display_wff, parse_wff, AtomId, Formula, ParseContext, PredId, Wff};
use winslett_theory::{Dependency, Theory};

/// WAL file name within a [`Storage`].
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name within a [`Storage`].
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"WWAL";
/// The newest WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;
/// The newest snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Upper bound on a single record's payload, enforced when the record is
/// minted (a typed [`DbError::RecordTooLarge`] refusal, before anything is
/// journaled) and used by [`parse_wal`] as the corruption bound (a larger
/// length prefix is treated as tail corruption, not an allocation
/// request). Deliberately held 1 KiB under the server's 4 MiB wire-frame
/// cap so any single record — JSON-wrapped into a replication batch —
/// always fits in one frame; without the headroom a near-cap record would
/// kill the subscription stream with a frame error instead of being
/// refused up front at write time.
pub const MAX_RECORD_LEN: u32 = (1 << 22) - 1024;

// ----- CRC32 (IEEE, slicing-by-8; no external dependency) ------------------

/// `CRC32_TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes. Row 0 is the classic byte-at-a-time table;
/// rows 1–7 let [`crc32`] fold eight bytes per step with eight independent
/// lookups instead of a chain of eight dependent ones (slicing-by-8,
/// Kounavis & Berry, ISCC 2005).
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----- storage abstraction --------------------------------------------------

/// A tiny named-file layer under the WAL: enough surface for an
/// append-only log plus an atomically replaced snapshot, and small enough
/// to shim with a deterministic fault injector ([`FailpointStorage`]).
pub trait Storage {
    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError>;
    /// Appends `data` to `name`, creating it if missing.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError>;
    /// Durably flushes `name` (fsync; no-op if it does not exist).
    fn sync(&mut self, name: &str) -> Result<(), DbError>;
    /// Atomically replaces the contents of `name` with `data`: after a
    /// crash either the old or the new contents are visible, never a mix.
    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError>;
}

/// In-memory storage (tests, and the substrate of [`FailpointStorage`]).
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    files: HashMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct access to a file's bytes (test corruption helpers).
    pub fn get(&self, name: &str) -> Option<&Vec<u8>> {
        self.files.get(name)
    }

    /// Overwrites a file's bytes wholesale (test corruption helpers).
    pub fn put(&mut self, name: &str, data: Vec<u8>) {
        self.files.insert(name.to_string(), data);
    }

    /// Deletes a file (test helpers).
    pub fn remove(&mut self, name: &str) {
        self.files.remove(name);
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        Ok(self.files.get(name).cloned())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        self.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> Result<(), DbError> {
        Ok(())
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        self.files.insert(name.to_string(), data.to_vec());
        Ok(())
    }
}

/// Directory-backed storage: each name is a file under `dir`. Appends go
/// through `O_APPEND`; [`Storage::sync`] is a real fsync;
/// [`Storage::replace`] writes a temp file, fsyncs it, renames it into
/// place, and fsyncs the directory.
#[derive(Clone, Debug)]
pub struct DirStorage {
    dir: std::path::PathBuf,
}

impl DirStorage {
    /// Opens (creating if needed) the directory.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Result<Self, DbError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirStorage { dir })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }
}

impl Storage for DirStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)?;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), DbError> {
        match std::fs::File::open(self.path(name)) {
            Ok(f) => Ok(f.sync_all()?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, data)?;
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, self.path(name))?;
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Deterministic fault injection: behaves like [`MemStorage`] until a
/// byte budget is exhausted, then tears the in-flight write at exactly
/// that byte and fails every subsequent operation — a crash at a chosen
/// kill point.
///
/// State is shared across clones (`Rc<RefCell<…>>`), so a test can keep a
/// sibling handle, hand the storage to a [`DurableDatabase`], and — even
/// if the crash fires inside `open` itself — read the surviving on-disk
/// image back out with [`FailpointStorage::survivor`].
///
/// `replace` is modeled as atomic (temp-file-plus-rename semantics): its
/// bytes are charged against the budget, but if the budget runs out the
/// old contents survive untouched rather than being half-overwritten.
#[derive(Clone, Debug)]
pub struct FailpointStorage {
    state: std::rc::Rc<std::cell::RefCell<FailState>>,
}

#[derive(Debug)]
struct FailState {
    inner: MemStorage,
    /// The durable image: what the platters hold. Appends land only in
    /// `inner` (the OS page cache); `sync` copies the named file down,
    /// and `replace` is durable by construction (temp file + fsync +
    /// rename + directory fsync).
    durable: MemStorage,
    budget: u64,
    bytes_written: u64,
    dead: bool,
}

impl FailState {
    fn injected(&self) -> DbError {
        DbError::Storage {
            message: format!("injected crash after {} bytes", self.bytes_written),
        }
    }
}

impl FailpointStorage {
    /// Storage that crashes once `kill_after_bytes` bytes have been
    /// written (appends tear mid-record; replaces fail atomically).
    pub fn new(kill_after_bytes: u64) -> Self {
        FailpointStorage {
            state: std::rc::Rc::new(std::cell::RefCell::new(FailState {
                inner: MemStorage::new(),
                durable: MemStorage::new(),
                budget: kill_after_bytes,
                bytes_written: 0,
                dead: false,
            })),
        }
    }

    /// Storage that never crashes (the probe run that measures how many
    /// bytes a script writes in total).
    pub fn unlimited() -> Self {
        Self::new(u64::MAX)
    }

    /// Total bytes accepted so far (torn prefixes included).
    pub fn bytes_written(&self) -> u64 {
        self.state.borrow().bytes_written
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.borrow().dead
    }

    /// A copy of the surviving on-disk state, as recovery would see it
    /// after a **process** crash (the OS lived on, so buffered appends
    /// reached the files even if never fsynced).
    pub fn survivor(&self) -> MemStorage {
        self.state.borrow().inner.clone()
    }

    /// A copy of the surviving on-disk state after a **power loss**: only
    /// what a [`Storage::sync`] or an atomic [`Storage::replace`] made
    /// durable. Appends that were never synced are gone.
    pub fn power_loss_survivor(&self) -> MemStorage {
        self.state.borrow().durable.clone()
    }
}

impl Storage for FailpointStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DbError> {
        let st = self.state.borrow();
        if st.dead {
            return Err(st.injected());
        }
        st.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let mut st = self.state.borrow_mut();
        if st.dead {
            return Err(st.injected());
        }
        if (data.len() as u64) <= st.budget {
            st.budget -= data.len() as u64;
            st.bytes_written += data.len() as u64;
            st.inner.append(name, data)
        } else {
            let keep = st.budget as usize;
            st.inner.append(name, &data[..keep])?;
            st.bytes_written += keep as u64;
            st.budget = 0;
            st.dead = true;
            Err(st.injected())
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), DbError> {
        let mut st = self.state.borrow_mut();
        if st.dead {
            return Err(st.injected());
        }
        // fsync: the cached file becomes the durable file.
        match st.inner.get(name).cloned() {
            Some(bytes) => st.durable.put(name, bytes),
            None => st.durable.remove(name),
        }
        Ok(())
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> Result<(), DbError> {
        let mut st = self.state.borrow_mut();
        if st.dead {
            return Err(st.injected());
        }
        if (data.len() as u64) <= st.budget {
            st.budget -= data.len() as u64;
            st.bytes_written += data.len() as u64;
            st.inner.replace(name, data)?;
            // temp file + fsync + rename + dir fsync: durable on return.
            st.durable.replace(name, data)
        } else {
            // The rename never happens: old contents survive.
            st.bytes_written += st.budget;
            st.budget = 0;
            st.dead = true;
            Err(st.injected())
        }
    }
}

// ----- record format --------------------------------------------------------

/// A journaled update, rendered in the portable name-based concrete
/// syntax of [`winslett_logic::parse_wff`] (the same convention as
/// [`TheoryDump`]), so records survive re-interning.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum UpdateDump {
    /// `INSERT ω WHERE φ` as `(ω, φ)`.
    Insert(String, String),
    /// `DELETE t WHERE φ ∧ t` as `(t, φ)`.
    Delete(String, String),
    /// `MODIFY t TO BE ω WHERE φ ∧ t` as `(t, ω, φ)`.
    Modify(String, String, String),
    /// `ASSERT φ` as `(φ)`.
    Assert(String),
}

/// One journaled operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// `declare_attribute(name)`.
    DeclareAttribute(String),
    /// `declare_relation(name, arity)`.
    DeclareRelation(String, usize),
    /// `declare_typed_relation(name, attribute names)`.
    DeclareTypedRelation(String, Vec<String>),
    /// `add_dependency`, in the portable form of [`DependencyDump`].
    AddDependency(DependencyDump),
    /// `load_fact(pred, args)`.
    LoadFact(String, Vec<String>),
    /// `load_wff(src)`.
    LoadWff(String),
    /// One LDML update in its **effective** (§3.5-widened) form — exactly
    /// what GUA applied, so recovery replays without re-widening.
    Apply(UpdateDump),
    /// Annuls the record at the given LSN: the live database journaled
    /// the intent but GUA refused the operation, so recovery must skip
    /// it instead of replaying a state the live system never reached.
    Abort(u64),
    /// Opens a transaction. The id is the LSN of this record, so ids are
    /// unique across the log's lifetime without extra bookkeeping.
    TxnBegin(u64),
    /// Commits a transaction: every intact [`WalRecord::TxnOp`] carrying
    /// this id becomes effective. The commit marker's durability *is* the
    /// transaction's durability — a WAL whose tail lacks it rolls the
    /// transaction back on recovery.
    TxnCommit(u64),
    /// Aborts a transaction: every [`WalRecord::TxnOp`] carrying this id
    /// is annulled. Written by explicit rollback, by a failed commit
    /// re-application, and by recovery itself as the compensation record
    /// for a transaction left unfinished by a crash.
    TxnAbort(u64),
    /// One operation journaled inside an open transaction, as
    /// `(owning txn id, operation)` — an intent that recovery and
    /// followers must buffer until the transaction's commit marker
    /// arrives. Replaying a committed transaction's ops at their journal
    /// positions (rather than at the commit point) is correct because
    /// the lock table guarantees everything interleaved between them is
    /// footprint-disjoint, hence commutative with them (Theorems 3/4).
    /// The inner record is never itself a txn record.
    TxnOp(u64, Box<WalRecord>),
}

/// A WAL entry: an operation stamped with its log sequence number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalEntry {
    /// Position in the logical log (monotonic across compactions).
    pub lsn: u64,
    /// The journaled operation.
    pub record: WalRecord,
}

/// The snapshot file: a theory dump plus the LSN it is current through.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// Records with `lsn < self.lsn` are already folded into the dump.
    pub lsn: u64,
    /// The folded theory.
    pub theory: TheoryDump,
}

/// What a replication follower needs to catch up from a given LSN cursor
/// ([`DurableDatabase::catchup_from`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Catchup {
    /// The cursor is at or past the checkpoint: replaying the effective
    /// log suffix (aborted pairs already removed) is enough.
    Suffix(Vec<WalEntry>),
    /// The cursor predates the checkpoint, so the intervening records are
    /// gone from the log: bootstrap from the snapshot, then replay the
    /// effective suffix from the snapshot's LSN onward.
    Snapshot(Box<WalSnapshot>, Vec<WalEntry>),
}

/// Drops abort records and the records they annul: what remains is the
/// *effective* log — exactly the records recovery would replay. Shipping
/// only effective records means a follower never applies a state the
/// primary refused; the resulting LSN holes are harmless because they
/// correspond to operations with no effect.
fn effective_entries(entries: Vec<WalEntry>) -> Vec<WalEntry> {
    let aborted: HashSet<u64> = entries
        .iter()
        .filter_map(|e| match e.record {
            WalRecord::Abort(lsn) => Some(lsn),
            _ => None,
        })
        .collect();
    entries
        .into_iter()
        .filter(|e| !aborted.contains(&e.lsn) && !matches!(e.record, WalRecord::Abort(_)))
        .collect()
}

/// What each journaled entry contributes to the state, in journal order.
/// `None` marks an entry that takes no effect: one below `floor` (covered
/// by a snapshot or capture), one annulled by an `Abort` record, the abort
/// records themselves, transaction markers, and intents of transactions
/// whose commit marker is not in `entries`. A committed intent takes
/// effect at its journal position: the lock table made everything
/// interleaved with it footprint-disjoint, so that equals applying it at
/// the commit point (Theorems 3/4).
fn effective_ops(entries: &[WalEntry], floor: u64) -> impl Iterator<Item = Option<&WalRecord>> {
    let mut aborted = HashSet::new();
    let mut committed = HashSet::new();
    for e in entries {
        match e.record {
            WalRecord::Abort(lsn) => aborted.insert(lsn),
            WalRecord::TxnCommit(txn) => committed.insert(txn),
            _ => false,
        };
    }
    entries.iter().map(move |e| match &e.record {
        _ if e.lsn < floor || aborted.contains(&e.lsn) => None,
        WalRecord::TxnOp(txn, op) if committed.contains(txn) => Some(op.as_ref()),
        WalRecord::Abort(_)
        | WalRecord::TxnOp(..)
        | WalRecord::TxnBegin(_)
        | WalRecord::TxnCommit(_)
        | WalRecord::TxnAbort(_) => None,
        other => Some(other),
    })
}

/// Reads and validates the snapshot file, without restoring the theory.
fn read_snapshot<S: Storage>(storage: &S) -> Result<Option<WalSnapshot>, DbError> {
    let Some(bytes) = storage.read(SNAPSHOT_FILE)? else {
        return Ok(None);
    };
    let text = String::from_utf8(bytes).map_err(|e| DbError::Corrupt {
        message: format!("snapshot is not UTF-8: {e}"),
    })?;
    let snap: WalSnapshot = serde_json::from_str(&text).map_err(|e| DbError::Corrupt {
        message: format!("snapshot does not parse: {e}"),
    })?;
    if snap.version == 0 || snap.version > SNAPSHOT_VERSION {
        return Err(DbError::UnsupportedVersion {
            what: "wal snapshot",
            found: snap.version,
            supported: SNAPSHOT_VERSION,
        });
    }
    Ok(Some(snap))
}

fn wal_header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

fn encode_entry(entry: &WalEntry) -> Result<Vec<u8>, DbError> {
    let payload = serde_json::to_string(entry)
        .map_err(|e| DbError::Query {
            message: format!("wal record serialization failed: {e}"),
        })?
        .into_bytes();
    if payload.len() > MAX_RECORD_LEN as usize {
        return Err(DbError::RecordTooLarge {
            len: payload.len(),
            max: MAX_RECORD_LEN as usize,
        });
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

struct ParsedWal {
    entries: Vec<WalEntry>,
    /// `Some(reason)` if the tail was torn or corrupt and records were
    /// dropped there.
    truncated: Option<String>,
}

/// Decodes a WAL image, truncating at the first torn or corrupt record.
/// Structural damage *before* any record can be read (bad magic, future
/// version) is an error, not a truncation.
fn parse_wal(bytes: &[u8]) -> Result<ParsedWal, DbError> {
    let header = wal_header();
    if bytes.len() < 8 {
        return if header.starts_with(bytes) {
            Ok(ParsedWal {
                entries: Vec::new(),
                truncated: Some(format!("wal header torn at byte {}", bytes.len())),
            })
        } else {
            Err(DbError::Corrupt {
                message: "wal header does not carry the WWAL magic".into(),
            })
        };
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(DbError::Corrupt {
            message: "wal header does not carry the WWAL magic".into(),
        });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version == 0 || version > WAL_VERSION {
        return Err(DbError::UnsupportedVersion {
            what: "wal",
            found: version,
            supported: WAL_VERSION,
        });
    }
    let mut entries = Vec::new();
    let mut truncated = None;
    let mut offset = 8usize;
    let mut prev_lsn: Option<u64> = None;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            truncated = Some(format!("record header torn at offset {offset}"));
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN {
            truncated = Some(format!(
                "implausible record length {len} at offset {offset}"
            ));
            break;
        }
        let len = len as usize;
        if rest.len() - 8 < len {
            truncated = Some(format!("record payload torn at offset {offset}"));
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            truncated = Some(format!("checksum mismatch at offset {offset}"));
            break;
        }
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => {
                truncated = Some(format!("non-UTF-8 payload at offset {offset}"));
                break;
            }
        };
        let entry: WalEntry = match serde_json::from_str(text) {
            Ok(e) => e,
            Err(e) => {
                truncated = Some(format!("undecodable payload at offset {offset}: {e}"));
                break;
            }
        };
        if let Some(p) = prev_lsn {
            if entry.lsn != p + 1 {
                truncated = Some(format!(
                    "lsn discontinuity at offset {offset}: {} after {p}",
                    entry.lsn
                ));
                break;
            }
        }
        prev_lsn = Some(entry.lsn);
        entries.push(entry);
        offset += 8 + len;
    }
    Ok(ParsedWal { entries, truncated })
}

// ----- update rendering -----------------------------------------------------

fn dump_update(u: &Update, t: &Theory) -> UpdateDump {
    let wff = |w: &Wff| display_wff(w, &t.vocab, &t.atoms).to_string();
    let atom = |a: AtomId| t.atoms.resolve(a).display(&t.vocab).to_string();
    match u {
        Update::Insert { omega, phi } => UpdateDump::Insert(wff(omega), wff(phi)),
        Update::Delete { t: tt, phi } => UpdateDump::Delete(atom(*tt), wff(phi)),
        Update::Modify { t: tt, omega, phi } => UpdateDump::Modify(atom(*tt), wff(omega), wff(phi)),
        Update::Assert { phi } => UpdateDump::Assert(wff(phi)),
    }
}

fn parse_wal_wff(src: &str, theory: &mut Theory) -> Result<Wff, DbError> {
    let mut ctx = ParseContext {
        vocab: &mut theory.vocab,
        atoms: &mut theory.atoms,
        declare: true, // constants may be new to the snapshot
        allow_predicate_constants: true,
    };
    Ok(parse_wff(src, &mut ctx)?)
}

fn parse_wal_atom(src: &str, theory: &mut Theory) -> Result<AtomId, DbError> {
    match parse_wal_wff(src, theory)? {
        Formula::Atom(id) => Ok(id),
        other => Err(DbError::Corrupt {
            message: format!("journaled target `{src}` is not an atom: {other:?}"),
        }),
    }
}

fn restore_update(d: &UpdateDump, theory: &mut Theory) -> Result<Update, DbError> {
    Ok(match d {
        UpdateDump::Insert(omega, phi) => Update::Insert {
            omega: parse_wal_wff(omega, theory)?,
            phi: parse_wal_wff(phi, theory)?,
        },
        UpdateDump::Delete(t, phi) => Update::Delete {
            t: parse_wal_atom(t, theory)?,
            phi: parse_wal_wff(phi, theory)?,
        },
        UpdateDump::Modify(t, omega, phi) => Update::Modify {
            t: parse_wal_atom(t, theory)?,
            omega: parse_wal_wff(omega, theory)?,
            phi: parse_wal_wff(phi, theory)?,
        },
        UpdateDump::Assert(phi) => Update::Assert {
            phi: parse_wal_wff(phi, theory)?,
        },
    })
}

// ----- options, stats, reports ----------------------------------------------

/// When WAL appends are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record: smallest loss window, highest latency.
    EveryRecord,
    /// fsync once per `n` records (group commit), and at every explicit
    /// [`DurableDatabase::sync`] or checkpoint.
    GroupCommit(usize),
    /// fsync only on explicit [`DurableDatabase::sync`] and checkpoints.
    Manual,
}

/// WAL tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Commit durability policy.
    pub policy: SyncPolicy,
    /// Auto-checkpoint when the live store's node count exceeds this
    /// factor of its count at the last snapshot; `None` disables
    /// compaction.
    pub compact_growth_factor: Option<f64>,
    /// Node floor below which auto-compaction never triggers.
    pub compact_min_nodes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            policy: SyncPolicy::EveryRecord,
            compact_growth_factor: Some(4.0),
            compact_min_nodes: 256,
        }
    }
}

/// Counters kept by a [`DurableDatabase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (aborts included).
    pub records: u64,
    /// fsync calls issued.
    pub syncs: u64,
    /// Checkpoints taken (explicit and auto-compaction).
    pub checkpoints: u64,
    /// Bytes appended to the log.
    pub bytes_appended: u64,
    /// Background-compaction swaps installed.
    pub compactions: u64,
}

/// What [`DurableDatabase::open`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN the snapshot was current through (0 if no snapshot).
    pub snapshot_lsn: u64,
    /// Intact records decoded from the WAL.
    pub records_seen: usize,
    /// Records replayed into the recovered state.
    pub replayed: usize,
    /// Records skipped: already covered by the snapshot, annulled by an
    /// abort record, or the abort records themselves.
    pub skipped: usize,
    /// `Some(reason)` if a torn/corrupt tail was dropped.
    pub truncated: Option<String>,
    /// `Some(error)` if replay stopped early at a failing record; the
    /// recovered state is the longest replayable prefix.
    pub replay_error: Option<String>,
    /// Whether `open` took a repair checkpoint (truncation or replay
    /// error observed) to make the on-storage files consistent again.
    pub repaired: bool,
    /// Transactions found unfinished at the end of the log (begun, never
    /// committed or aborted) and rolled back by `open`, which appends a
    /// compensating [`WalRecord::TxnAbort`] for each.
    pub rolled_back: usize,
    /// What the post-replay simplification pass accomplished. Each
    /// replayed record already ran the live writer's occurrence-scoped
    /// simplify; recovery then runs the whole-store pass once (O(R) per
    /// `open`, not per record) over whatever the scoped passes left. This
    /// is that pass's report — all zeros when `open` replayed no record
    /// (fresh storage, or a checkpoint with no suffix to apply).
    pub simplify: SimplifyReport,
}

impl RecoveryReport {
    /// Store nodes reclaimed by the post-replay simplification pass.
    pub fn nodes_reclaimed(&self) -> usize {
        self.simplify
            .nodes_before
            .saturating_sub(self.simplify.nodes_after)
    }
}

/// What one background-compaction swap accomplished
/// ([`DurableDatabase::install_compacted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// First LSN that was *not* reflected in the captured theory; the
    /// swap replayed every retained record at or past it.
    pub from_lsn: u64,
    /// Records replayed onto the compacted copy during the swap.
    pub replayed: usize,
    /// Live store nodes at swap time (§3.6 measure).
    pub nodes_before: usize,
    /// Store nodes after the swap.
    pub nodes_after: usize,
    /// Live theory generation the swap retired.
    pub generation_before: u64,
    /// Generation of the installed theory — strictly greater than
    /// `generation_before`, always.
    pub generation_after: u64,
    /// Whether the swap also took a checkpoint, so the on-storage
    /// snapshot shrank with the theory.
    pub checkpointed: bool,
}

impl CompactionOutcome {
    /// Net store nodes reclaimed by the swap (zero if the suffix replay
    /// out-grew the simplification savings).
    pub fn nodes_reclaimed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

// ----- the durable database -------------------------------------------------

/// A [`LogicalDatabase`] whose every state transition is journaled to a
/// [`Storage`] before GUA applies it, with snapshot-based log compaction
/// and crash recovery.
#[derive(Clone, Debug)]
pub struct DurableDatabase<S: Storage> {
    db: LogicalDatabase,
    /// `None` only after [`DurableDatabase::close`] /
    /// [`DurableDatabase::into_storage`] moved the storage out (which is
    /// what lets those methods coexist with the flush-on-[`Drop`] impl).
    storage: Option<S>,
    wal_options: WalOptions,
    next_lsn: u64,
    snapshot_lsn: u64,
    unsynced: usize,
    nodes_at_snapshot: usize,
    /// `Some` while a background-compaction capture is outstanding: every
    /// appended record is also retained here so
    /// [`DurableDatabase::install_compacted`] can replay the delta at
    /// swap time without re-reading (and re-parsing) the whole on-storage
    /// log under the writer lock. Bounded by the capture→install window.
    compaction_tail: Option<Vec<WalEntry>>,
    /// `Some` once [`DurableDatabase::enable_shipping`] armed WAL
    /// shipping: every appended record is also retained here until the
    /// next [`DurableDatabase::drain_shipping`], which hands the batch to
    /// the replication fan-out. Bounded by the append→drain window (one
    /// write batch on the server).
    shipping_tail: Option<Vec<WalEntry>>,
    /// Open transactions, keyed by id (= the begin record's LSN). Each
    /// holds a read-your-writes workspace and the redo list its commit
    /// re-applies to the live database.
    txns: HashMap<u64, OpenTxn>,
    /// Bumped whenever the *live* database mutates (plain journaled
    /// writes, transaction commits, compaction swaps) — the staleness
    /// stamp transaction workspaces are rebuilt against.
    applied_version: u64,
    /// The records behind the most recent `applied_version` bumps,
    /// tagged with the version each one produced — the delta a stale
    /// transaction workspace catches up on without cloning the live
    /// database (everything here is footprint-disjoint from any open
    /// transaction's held atoms, hence commutative with its ops —
    /// Theorems 3/4). Bounded by [`RECENT_CAP`]; compaction swaps clear
    /// it (the delta cannot express a re-encoding).
    recent: VecDeque<(u64, WalRecord)>,
    /// Highest version evicted from (or never covered by) `recent`: the
    /// deque covers exactly `(recent_floor, applied_version]`. A
    /// workspace whose basis fell below the floor takes the full
    /// clone-and-redo rebuild instead.
    recent_floor: u64,
    stats: WalStats,
}

/// How many live-mutation records [`DurableDatabase::recent`] retains
/// for delta workspace refreshes before falling back to full rebuilds.
const RECENT_CAP: usize = 256;

/// One open transaction's private state.
#[derive(Clone, Debug)]
struct OpenTxn {
    /// The live database as of `basis_version`, plus this transaction's
    /// own ops — what its statements parse and apply against, giving
    /// read-your-writes without touching the shared state.
    workspace: LogicalDatabase,
    /// [`DurableDatabase::applied_version`] the workspace was built at;
    /// when the live database has advanced past it, the workspace is
    /// rebuilt (fresh clone + redo replay) before the next statement.
    basis_version: u64,
    /// Journaled intents in order — the redo list commit re-applies to
    /// the live database.
    ops: Vec<WalRecord>,
}

/// How a journaled transactional statement failed.
enum TxnJournalErr {
    /// The statement was refused; the workspace was restored and the
    /// transaction stays open.
    Refused(DbError),
    /// The workspace could not be restored after a refused apply, or a
    /// refresh left it partly refreshed; the transaction must self-abort.
    Broken(DbError),
}

impl<S: Storage> DurableDatabase<S> {
    /// Opens a durable database on `storage`: recovers if a snapshot or
    /// WAL is present, otherwise initializes a fresh one. When recovery
    /// observes a torn tail or a replay error, `open` takes a repair
    /// checkpoint so the storage is consistent with the recovered state.
    pub fn open(
        mut storage: S,
        db_options: DbOptions,
        wal_options: WalOptions,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let have_snapshot = storage.read(SNAPSHOT_FILE)?.is_some();
        let wal_missing = storage.read(WAL_FILE)?.is_none();
        if !have_snapshot && wal_missing {
            storage.append(WAL_FILE, &wal_header())?;
            let db = LogicalDatabase::with_options(db_options);
            let nodes = db.theory().store_nodes();
            let me = DurableDatabase {
                db,
                storage: Some(storage),
                wal_options,
                next_lsn: 0,
                snapshot_lsn: 0,
                unsynced: 0,
                nodes_at_snapshot: nodes,
                compaction_tail: None,
                shipping_tail: None,
                txns: HashMap::new(),
                applied_version: 0,
                recent: VecDeque::new(),
                recent_floor: 0,
                stats: WalStats::default(),
            };
            return Ok((me, RecoveryReport::default()));
        }
        let (db, next_lsn, snapshot_lsn, mut report, unfinished) =
            Self::recover(&storage, db_options)?;
        if wal_missing {
            // Snapshot-only storage (e.g. the WAL was lost with the
            // snapshot intact): start a fresh log.
            storage.append(WAL_FILE, &wal_header())?;
        }
        let mut me = DurableDatabase {
            db,
            storage: Some(storage),
            wal_options,
            next_lsn,
            snapshot_lsn,
            unsynced: 0,
            nodes_at_snapshot: 0,
            compaction_tail: None,
            shipping_tail: None,
            txns: HashMap::new(),
            applied_version: 0,
            recent: VecDeque::new(),
            recent_floor: 0,
            stats: WalStats::default(),
        };
        me.nodes_at_snapshot = me.db.theory().store_nodes();
        // Roll back transactions the crash left in flight: append the
        // compensating abort marker so the *next* recovery skips their
        // intents without rescanning for an unfinished tail.
        for txn in &unfinished {
            me.append_entry(WalRecord::TxnAbort(*txn))?;
        }
        if !unfinished.is_empty() {
            me.sync()?;
            report.rolled_back = unfinished.len();
        }
        if report.truncated.is_some() || report.replay_error.is_some() {
            me.checkpoint()?;
            report.repaired = true;
        }
        Ok((me, report))
    }

    /// Loads the snapshot (if any) and replays the WAL suffix through
    /// [`replay_record`], stopping at the first failing record.
    #[allow(clippy::type_complexity)]
    fn recover(
        storage: &S,
        db_options: DbOptions,
    ) -> Result<(LogicalDatabase, u64, u64, RecoveryReport, Vec<u64>), DbError> {
        let (mut db, snapshot_lsn) = match read_snapshot(storage)? {
            Some(snap) => {
                let theory = persist::restore_theory(&snap.theory)?;
                (LogicalDatabase::from_theory(theory, db_options), snap.lsn)
            }
            None => (LogicalDatabase::with_options(db_options), 0),
        };
        let parsed = match storage.read(WAL_FILE)? {
            Some(bytes) => parse_wal(&bytes)?,
            None => ParsedWal {
                entries: Vec::new(),
                truncated: None,
            },
        };
        // The boundary contract: the suffix must *meet* the checkpoint.
        // `parse_wal` enforces LSN contiguity only within the file, so a
        // log whose first surviving record skips past the snapshot's LSN
        // (a spliced or mis-rotated log) would otherwise replay a
        // wrong-state suffix silently. A first LSN at or below the
        // snapshot's is fine — that is the normal old-WAL-beside-new-
        // snapshot window, and covered records are skipped below.
        if let Some(first) = parsed.entries.first() {
            if first.lsn > snapshot_lsn {
                return Err(DbError::LsnGap {
                    expected: snapshot_lsn,
                    found: first.lsn,
                });
            }
        }
        let mut report = RecoveryReport {
            snapshot_lsn,
            records_seen: parsed.entries.len(),
            truncated: parsed.truncated,
            ..RecoveryReport::default()
        };
        let next_lsn = parsed
            .entries
            .last()
            .map(|e| e.lsn + 1)
            .unwrap_or(0)
            .max(snapshot_lsn);
        // A TxnOp is effective only if its commit marker made it into the
        // intact log. Anything begun but neither committed nor aborted is
        // an in-flight transaction the crash interrupted — its intents
        // are skipped and `open` appends the compensating abort marker.
        let mut txn_seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut txn_ended: HashSet<u64> = HashSet::new();
        for entry in &parsed.entries {
            match &entry.record {
                WalRecord::TxnBegin(t) | WalRecord::TxnOp(t, _) => txn_seen.insert(*t),
                WalRecord::TxnCommit(t) | WalRecord::TxnAbort(t) => txn_ended.insert(*t),
                _ => false,
            };
        }
        let unfinished: Vec<u64> = txn_seen
            .into_iter()
            .filter(|t| !txn_ended.contains(t))
            .collect();
        for effective in effective_ops(&parsed.entries, snapshot_lsn) {
            let Some(record) = effective else {
                report.skipped += 1;
                continue;
            };
            match replay_record(&mut db, record) {
                Ok(()) => report.replayed += 1,
                Err(e) => {
                    report.replay_error = Some(e.to_string());
                    break;
                }
            }
        }
        // Each record ran the scoped per-update simplify; one whole-store
        // pass folds whatever those left. `simplify` is infallible (it
        // returns a report, not a Result), so the only thing to lose here
        // is the report itself — surface it. With nothing replayed the
        // store is the checkpoint's, which is what the live database
        // carried.
        if report.replayed > 0 {
            report.simplify = db.simplify(db_options.simplify);
        }
        Ok((db, next_lsn, snapshot_lsn, report, unfinished))
    }
}

/// Applies one journaled operation to `db` exactly as the live writer
/// did: an `Apply` record runs through the database's own long-lived
/// engine (GUA plus the occurrence-scoped simplify), so a replayed write
/// costs what the original did. Recovery, replication followers and
/// compaction installs use it; transaction workspace refreshes use its
/// body without the rollback.
///
/// Atomic: on `Err` the database is restored to its state before the
/// call (GUA's apply can fail mid-step), so a caller that counts the
/// error and continues never keeps a half-applied record.
pub fn replay_record(db: &mut LogicalDatabase, record: &WalRecord) -> Result<(), DbError> {
    let before = db.clone(); // copy-on-write: O(1)
    let result = apply_record(db, record);
    if result.is_err() {
        *db = before;
    }
    result
}

/// [`replay_record`] without the rollback, for transaction workspace
/// refreshes: when a replay fails they rebuild the workspace from the
/// live database instead, so the rollback clone would be pure cost.
fn apply_record(db: &mut LogicalDatabase, record: &WalRecord) -> Result<(), DbError> {
    match record {
        WalRecord::DeclareAttribute(name) => {
            db.declare_attribute(name)?;
        }
        WalRecord::DeclareRelation(name, arity) => {
            db.declare_relation(name, *arity)?;
        }
        WalRecord::DeclareTypedRelation(name, attrs) => {
            let ids: Result<Vec<PredId>, DbError> = attrs
                .iter()
                .map(|a| {
                    db.theory()
                        .vocab
                        .find_predicate(a)
                        .ok_or_else(|| DbError::Corrupt {
                            message: format!(
                                "journaled type axiom references unknown attribute `{a}`"
                            ),
                        })
                })
                .collect();
            db.declare_typed_relation(name, &ids?)?;
        }
        WalRecord::AddDependency(dd) => {
            let dep = persist::restore_dependency(dd, db.theory_mut())?;
            db.add_dependency(dep);
        }
        WalRecord::LoadFact(pred, args) => {
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            db.load_fact(pred, &refs)?;
        }
        WalRecord::LoadWff(src) => {
            db.load_wff(src)?;
        }
        WalRecord::Apply(ud) => {
            let u = restore_update(ud, db.theory_mut())?;
            db.apply_effective(&u)?;
        }
        WalRecord::Abort(_) => {}
        // Transaction markers carry no state transition of their own. A
        // `TxnOp` applies its inner operation — callers (recovery, the
        // replica's tailer) gate on the commit marker *before* handing
        // the op here, buffering or dropping uncommitted intents.
        WalRecord::TxnBegin(_) | WalRecord::TxnCommit(_) | WalRecord::TxnAbort(_) => {}
        WalRecord::TxnOp(_, op) => apply_record(db, op)?,
    }
    Ok(())
}

impl<S: Storage> DurableDatabase<S> {
    // ----- journaling core --------------------------------------------------

    /// The storage, mutable. Panics only if called after `close`/
    /// `into_storage` moved it out — impossible from safe client code,
    /// since both consume `self`.
    fn storage_mut(&mut self) -> &mut S {
        self.storage.as_mut().expect("storage moved out")
    }

    fn append_entry(&mut self, record: WalRecord) -> Result<u64, DbError> {
        let lsn = self.next_lsn;
        let entry = WalEntry { lsn, record };
        let bytes = encode_entry(&entry)?;
        self.storage_mut().append(WAL_FILE, &bytes)?;
        if let Some(tail) = self.compaction_tail.as_mut() {
            tail.push(entry.clone());
        }
        if let Some(tail) = self.shipping_tail.as_mut() {
            tail.push(entry);
        }
        self.next_lsn += 1;
        self.unsynced += 1;
        self.stats.records += 1;
        self.stats.bytes_appended += bytes.len() as u64;
        match self.wal_options.policy {
            SyncPolicy::EveryRecord => self.sync()?,
            SyncPolicy::GroupCommit(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Manual => {}
        }
        Ok(lsn)
    }

    /// Journal `record`, then run `apply` on the inner database. If GUA
    /// refuses the operation, a compensating [`WalRecord::Abort`] is
    /// appended (best-effort) so recovery will not replay a state the
    /// live database never reached; if that append is itself lost in a
    /// crash, the refused record is the WAL tail and recovery's replay
    /// stops at the same deterministic error.
    fn journaled<T>(
        &mut self,
        record: WalRecord,
        apply: impl FnOnce(&mut LogicalDatabase) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let copy = record.clone();
        let lsn = self.append_entry(record)?;
        // The rollback copy is a copy-on-write clone: O(1) to take, and the
        // update below copies only the chunks and shards it writes.
        let before = self.db.clone();
        match apply(&mut self.db) {
            Ok(v) => {
                self.applied_version += 1;
                self.push_recent(self.applied_version, copy);
                Ok(v)
            }
            Err(e) => {
                // GUA's apply is not atomic in memory (a store-capacity
                // error can strike mid-step), so restore the pre-intent
                // state: live and recovered views must agree.
                self.db = before;
                if self.append_entry(WalRecord::Abort(lsn)).is_ok() {
                    let _ = self.sync();
                }
                Err(e)
            }
        }
    }

    fn maybe_compact(&mut self) -> Result<(), DbError> {
        // A checkpoint taken mid-transaction would strand a later commit's
        // early intents below the snapshot boundary; wait for quiescence.
        if !self.txns.is_empty() {
            return Ok(());
        }
        let Some(factor) = self.wal_options.compact_growth_factor else {
            return Ok(());
        };
        let nodes = self.db.theory().store_nodes();
        if nodes >= self.wal_options.compact_min_nodes
            && nodes as f64 >= factor * self.nodes_at_snapshot.max(1) as f64
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ----- public API -------------------------------------------------------

    /// Declares a unary attribute predicate (journaled).
    pub fn declare_attribute(&mut self, name: &str) -> Result<PredId, DbError> {
        self.journaled(WalRecord::DeclareAttribute(name.to_string()), |db| {
            db.declare_attribute(name)
        })
    }

    /// Declares an untyped relation (journaled).
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> Result<PredId, DbError> {
        self.journaled(WalRecord::DeclareRelation(name.to_string(), arity), |db| {
            db.declare_relation(name, arity)
        })
    }

    /// Declares a relation with a type axiom (journaled).
    pub fn declare_typed_relation(
        &mut self,
        name: &str,
        attrs: &[PredId],
    ) -> Result<PredId, DbError> {
        let attr_names: Vec<String> = attrs
            .iter()
            .map(|a| self.db.theory().vocab.predicate(*a).name.clone())
            .collect();
        self.journaled(
            WalRecord::DeclareTypedRelation(name.to_string(), attr_names),
            |db| db.declare_typed_relation(name, attrs),
        )
    }

    /// Adds a dependency axiom (journaled).
    pub fn add_dependency(&mut self, dep: Dependency) -> Result<(), DbError> {
        let dump = persist::dump_dependency(&dep, self.db.theory());
        self.journaled(WalRecord::AddDependency(dump), move |db| {
            db.add_dependency(dep);
            Ok(())
        })
    }

    /// Loads a ground fact as certainly true (journaled).
    pub fn load_fact(&mut self, pred: &str, args: &[&str]) -> Result<AtomId, DbError> {
        let record = WalRecord::LoadFact(
            pred.to_string(),
            args.iter().map(|s| s.to_string()).collect(),
        );
        self.journaled(record, |db| db.load_fact(pred, args))
    }

    /// Loads an arbitrary ground wff into the initial state (journaled).
    pub fn load_wff(&mut self, src: &str) -> Result<(), DbError> {
        self.journaled(WalRecord::LoadWff(src.to_string()), |db| db.load_wff(src))
    }

    /// Parses and executes one LDML statement, journaling its effective
    /// (widened) form before GUA applies it.
    pub fn execute(&mut self, src: &str) -> Result<UpdateReport, DbError> {
        let parsed = self.db.parse_update(src)?;
        self.update(&parsed)
    }

    /// Executes an update AST, journaling its effective (widened) form
    /// before GUA applies it.
    pub fn update(&mut self, update: &Update) -> Result<UpdateReport, DbError> {
        let effective = self.db.effective_update(update);
        {
            let t = self.db.theory();
            effective.validate(&t.vocab, &t.atoms)?;
        }
        let dump = dump_update(&effective, self.db.theory());
        let report = self.journaled(WalRecord::Apply(dump), move |db| {
            db.apply_effective(&effective)
        })?;
        self.maybe_compact()?;
        Ok(report)
    }

    // ----- multi-statement transactions -------------------------------------
    //
    // A transaction is a private workspace (clone of the live database)
    // plus a redo list of journaled `TxnOp` intents. Statements parse and
    // apply against the workspace — read-your-writes, with no effect on
    // the live state — and commit re-applies the redo list to the live
    // database under the caller's writer lock, then appends the commit
    // marker whose durability *is* the transaction's durability.
    //
    // Correctness of deferred re-application rests on the server's lock
    // discipline: every statement's footprint atoms are locked (strict
    // 2PL) before its intent is journaled, and every non-transactional
    // write checks the lock table under the same writer lock before it
    // applies. Everything that commits between a statement's workspace
    // application and its transaction's commit is therefore
    // footprint-disjoint from it, hence commutative with it (Theorems
    // 3/4) — so replaying the redo list at commit lands the same state
    // the workspace computed.

    /// Opens a transaction, returning its id (the begin record's LSN).
    pub fn txn_begin(&mut self) -> Result<u64, DbError> {
        let id = self.next_lsn;
        self.append_entry(WalRecord::TxnBegin(id))?;
        self.txns.insert(
            id,
            OpenTxn {
                workspace: self.db.clone(),
                basis_version: self.applied_version,
                ops: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Number of open transactions.
    pub fn txn_active(&self) -> usize {
        self.txns.len()
    }

    /// Whether `txn` is open.
    pub fn txn_open(&self, txn: u64) -> bool {
        self.txns.contains_key(&txn)
    }

    /// Ids of every open transaction (the drain path aborts them all).
    pub fn txn_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.txns.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The transaction's read-your-writes view, if it is open. The
    /// workspace may lag the live database by concurrently committed
    /// footprint-disjoint writes until the next statement rebuilds it.
    pub fn txn_view(&self, txn: u64) -> Option<&LogicalDatabase> {
        self.txns.get(&txn).map(|s| &s.workspace)
    }

    /// Retains one live-mutation record for delta refreshes, evicting
    /// whole version groups (a transaction commit lands several records
    /// under one version; covering a version partially is useless) and
    /// advancing the floor past what was evicted.
    fn push_recent(&mut self, version: u64, record: WalRecord) {
        self.recent.push_back((version, record));
        while self.recent.len() > RECENT_CAP {
            let Some(&(v, _)) = self.recent.front() else {
                break;
            };
            while self.recent.front().is_some_and(|(f, _)| *f == v) {
                self.recent.pop_front();
            }
            self.recent_floor = v;
        }
    }

    /// Brings the workspace current when the live database has advanced
    /// under it. Fast path: replay just the foreign delta from
    /// [`DurableDatabase::recent`] onto the workspace in place — sound
    /// because everything committed while this transaction is open is
    /// footprint-disjoint from every atom it holds (the server's lock
    /// discipline), hence commutative with its ops (Theorems 3/4).
    /// Fallback when the delta was evicted (or a delta op refuses):
    /// fresh clone plus redo replay. Either way the refreshed view
    /// agrees with the old one on every atom the transaction touches.
    ///
    /// A failed rebuild leaves the workspace as it was, which is
    /// [`TxnJournalErr::Refused`] — unless a failed delta replay had
    /// already changed it: that partly refreshed workspace still carries
    /// the old `basis_version`, so a retry would replay part of the delta
    /// twice, and the error is [`TxnJournalErr::Broken`].
    fn refresh_workspace(&mut self, state: &mut OpenTxn) -> Result<(), TxnJournalErr> {
        if state.basis_version == self.applied_version {
            return Ok(());
        }
        let delta_len = if state.basis_version >= self.recent_floor {
            self.recent
                .iter()
                .filter(|(v, _)| *v > state.basis_version)
                .count()
        } else {
            usize::MAX
        };
        // Both paths cost one replayed op per record; take the shorter
        // list (the rebuild's clone is worth about one op).
        let mut touched = false;
        if delta_len <= state.ops.len() + 1 {
            let mut ok = true;
            for (v, r) in &self.recent {
                if *v <= state.basis_version {
                    continue;
                }
                touched = true;
                if apply_record(&mut state.workspace, r).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                state.basis_version = self.applied_version;
                return Ok(());
            }
            // A refused delta op leaves the workspace partially caught
            // up; the full rebuild below replaces it wholesale.
        }
        let mut ws = self.db.clone();
        for op in &state.ops {
            apply_record(&mut ws, op).map_err(|e| {
                if touched {
                    TxnJournalErr::Broken(e)
                } else {
                    TxnJournalErr::Refused(e)
                }
            })?;
        }
        state.workspace = ws;
        state.basis_version = self.applied_version;
        Ok(())
    }

    /// Journals one intent for `txn` and applies it to the workspace,
    /// with the same intent/compensation pairing as the plain
    /// [`DurableDatabase::journaled`] path: a refused op appends
    /// [`WalRecord::Abort`] for its own LSN, so recovery and followers
    /// drop it even when the transaction later commits.
    ///
    /// Unlike the plain path, no defensive pre-apply clone is paid per
    /// statement: a refused apply (which can strike mid-step) is undone
    /// by rebuilding the workspace from the live database plus the redo
    /// list — the rare failure pays the clone instead of every success.
    /// If that rebuild itself fails, the workspace is unrecoverable and
    /// the error is [`TxnJournalErr::Broken`]: the caller must not keep
    /// the transaction open (see [`DurableDatabase::txn_settle`]).
    fn txn_journal<T>(
        &mut self,
        state: &mut OpenTxn,
        txn: u64,
        inner: WalRecord,
        apply: impl FnOnce(&mut LogicalDatabase) -> Result<T, DbError>,
    ) -> Result<T, TxnJournalErr> {
        let lsn = self
            .append_entry(WalRecord::TxnOp(txn, Box::new(inner.clone())))
            .map_err(TxnJournalErr::Refused)?;
        match apply(&mut state.workspace) {
            Ok(v) => {
                state.ops.push(inner);
                Ok(v)
            }
            Err(e) => {
                if self.append_entry(WalRecord::Abort(lsn)).is_ok() {
                    let _ = self.sync();
                }
                let mut ws = self.db.clone();
                for op in &state.ops {
                    if let Err(re) = apply_record(&mut ws, op) {
                        return Err(TxnJournalErr::Broken(re));
                    }
                }
                state.workspace = ws;
                state.basis_version = self.applied_version;
                Err(TxnJournalErr::Refused(e))
            }
        }
    }

    /// Puts a transaction back in the open map after a statement —
    /// unless its workspace could not be restored, in which case the
    /// transaction self-aborts (compensating marker journaled) exactly
    /// like a failed re-application at commit.
    fn txn_settle<T>(
        &mut self,
        txn: u64,
        state: OpenTxn,
        result: Result<T, TxnJournalErr>,
    ) -> Result<T, DbError> {
        match result {
            Ok(v) => {
                self.txns.insert(txn, state);
                Ok(v)
            }
            Err(TxnJournalErr::Refused(e)) => {
                self.txns.insert(txn, state);
                Err(e)
            }
            Err(TxnJournalErr::Broken(e)) => {
                if self.append_entry(WalRecord::TxnAbort(txn)).is_ok() {
                    let _ = self.sync();
                }
                Err(e)
            }
        }
    }

    /// Takes the open transaction out of the map (so `self` can journal
    /// while the state is borrowed) with a typed error when it is not
    /// open, refreshing its workspace on the way out.
    fn txn_take(&mut self, txn: u64) -> Result<OpenTxn, DbError> {
        self.txn_take_with(txn, true)
    }

    /// [`Self::txn_take`] with the workspace refresh made optional.
    /// Skipping is sound only when the caller can prove the statement
    /// about to run cannot observe anything committed since the last
    /// refresh — see [`Self::txn_execute_covered`].
    fn txn_take_with(&mut self, txn: u64, refresh: bool) -> Result<OpenTxn, DbError> {
        let mut state = self.txns.remove(&txn).ok_or(DbError::TxnUnknown { txn })?;
        if refresh {
            if let Err(e) = self.refresh_workspace(&mut state) {
                // A workspace the refresh broke is not put back: the
                // transaction self-aborts, as after a failed restore.
                return self.txn_settle(txn, state, Err(e));
            }
        }
        Ok(state)
    }

    /// Executes one LDML statement inside `txn`: parsed, widened, and
    /// validated against the transaction's workspace, journaled as a
    /// [`WalRecord::TxnOp`] intent, applied to the workspace only.
    pub fn txn_execute(&mut self, txn: u64, src: &str) -> Result<UpdateReport, DbError> {
        self.txn_execute_inner(txn, src, true)
    }

    /// [`Self::txn_execute`] for a statement whose entire lock
    /// footprint is already held by `txn` (see
    /// [`crate::txn::LockTable::holds_all`]). Held atoms cannot have
    /// been changed by another writer since they were first locked —
    /// and the statement that first locked each atom ran through the
    /// refreshing path — so the workspace is current on every atom this
    /// statement reads or writes and the clone-and-redo rebuild can be
    /// skipped even when other transactions committed in between.
    pub fn txn_execute_covered(&mut self, txn: u64, src: &str) -> Result<UpdateReport, DbError> {
        self.txn_execute_inner(txn, src, false)
    }

    fn txn_execute_inner(
        &mut self,
        txn: u64,
        src: &str,
        refresh: bool,
    ) -> Result<UpdateReport, DbError> {
        let mut state = self.txn_take_with(txn, refresh)?;
        let result = (|| {
            let parsed = state
                .workspace
                .parse_update(src)
                .map_err(TxnJournalErr::Refused)?;
            let effective = state.workspace.effective_update(&parsed);
            {
                let t = state.workspace.theory();
                effective
                    .validate(&t.vocab, &t.atoms)
                    .map_err(|e| TxnJournalErr::Refused(e.into()))?;
            }
            let dump = dump_update(&effective, state.workspace.theory());
            self.txn_journal(&mut state, txn, WalRecord::Apply(dump), move |db| {
                db.apply_effective(&effective)
            })
        })();
        self.txn_settle(txn, state, result)
    }

    /// Declares an untyped relation inside `txn` (journaled intent).
    pub fn txn_declare_relation(
        &mut self,
        txn: u64,
        name: &str,
        arity: usize,
    ) -> Result<(), DbError> {
        let mut state = self.txn_take(txn)?;
        let result = self.txn_journal(
            &mut state,
            txn,
            WalRecord::DeclareRelation(name.to_string(), arity),
            |db| db.declare_relation(name, arity).map(|_| ()),
        );
        self.txn_settle(txn, state, result)
    }

    /// Declares a unary attribute predicate inside `txn` (journaled
    /// intent).
    pub fn txn_declare_attribute(&mut self, txn: u64, name: &str) -> Result<(), DbError> {
        let mut state = self.txn_take(txn)?;
        let result = self.txn_journal(
            &mut state,
            txn,
            WalRecord::DeclareAttribute(name.to_string()),
            |db| db.declare_attribute(name).map(|_| ()),
        );
        self.txn_settle(txn, state, result)
    }

    /// Loads a ground fact inside `txn` (journaled intent).
    pub fn txn_load_fact(&mut self, txn: u64, pred: &str, args: &[&str]) -> Result<(), DbError> {
        let mut state = self.txn_take(txn)?;
        let record = WalRecord::LoadFact(
            pred.to_string(),
            args.iter().map(|s| s.to_string()).collect(),
        );
        let result = self.txn_journal(&mut state, txn, record, |db| {
            db.load_fact(pred, args).map(|_| ())
        });
        self.txn_settle(txn, state, result)
    }

    /// Loads a ground wff inside `txn` (journaled intent).
    pub fn txn_load_wff(&mut self, txn: u64, src: &str) -> Result<(), DbError> {
        let mut state = self.txn_take(txn)?;
        let result = self.txn_journal(&mut state, txn, WalRecord::LoadWff(src.to_string()), |db| {
            db.load_wff(src)
        });
        self.txn_settle(txn, state, result)
    }

    /// Commits `txn`: brings the workspace current (a no-op unless a
    /// foreign commit landed since its last rebuild — then it is one
    /// clone-and-redo refresh), installs it as the live database, appends
    /// the commit marker, and makes it durable (the transaction's single
    /// fsync point). The install is sound because every live mutation
    /// bumps `applied_version`, so a current-basis workspace *is* the
    /// live database plus this transaction's redo list — the same state
    /// the old re-apply-at-commit loop computed, without cloning the
    /// live theory on the happy path. Returns the commit LSN and the
    /// number of ops made effective. A redo re-application failure
    /// during the refresh (possible only if the lock discipline was
    /// bypassed, or on a store-capacity class error) leaves the live
    /// state untouched and aborts the transaction instead.
    pub fn txn_commit(&mut self, txn: u64) -> Result<(u64, usize), DbError> {
        let mut state = self.txns.remove(&txn).ok_or(DbError::TxnUnknown { txn })?;
        if let Err(TxnJournalErr::Refused(e) | TxnJournalErr::Broken(e)) =
            self.refresh_workspace(&mut state)
        {
            if self.append_entry(WalRecord::TxnAbort(txn)).is_ok() {
                let _ = self.sync();
            }
            return Err(e);
        }
        let ops = state.ops.len();
        // A workspace cloned this version shares the retired theory's
        // generation counters; force the installed generation strictly
        // past it so snapshot readers keyed on the old generation can
        // never mistake one encoding for the other (same discipline as
        // the compaction swap).
        let generation_before = self.db.theory().generation();
        state
            .workspace
            .theory_mut()
            .advance_generation_past(generation_before);
        let before = std::mem::replace(&mut self.db, state.workspace);
        let lsn = match self.append_entry(WalRecord::TxnCommit(txn)) {
            Ok(lsn) => lsn,
            Err(e) => {
                // Unacknowledged and unmarked: recovery rolls it back, so
                // the live view must match.
                self.db = before;
                return Err(e);
            }
        };
        self.sync()?;
        self.applied_version += 1;
        // The redo list is the delta other open workspaces need to catch
        // up on this commit — one version group.
        for op in state.ops {
            self.push_recent(self.applied_version, op);
        }
        self.maybe_compact()?;
        Ok((lsn, ops))
    }

    /// Rolls `txn` back: the workspace is dropped, the abort marker is
    /// journaled, and the live database is untouched (nothing to undo —
    /// intents never applied to it).
    pub fn txn_rollback(&mut self, txn: u64) -> Result<(), DbError> {
        let state = self.txns.remove(&txn).ok_or(DbError::TxnUnknown { txn })?;
        drop(state);
        self.append_entry(WalRecord::TxnAbort(txn))?;
        self.sync()
    }

    /// Durably flushes all appended records (a group-commit sync point).
    pub fn sync(&mut self) -> Result<(), DbError> {
        if self.unsynced > 0 {
            self.storage_mut().sync(WAL_FILE)?;
            self.stats.syncs += 1;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Takes a snapshot of the current theory and resets the log: the
    /// compaction step. Crash-safe in every window — the snapshot is
    /// replaced atomically and carries the LSN through which it is
    /// current, so an old WAL alongside a new snapshot merely replays
    /// zero records.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        // Refused while transactions are open: the snapshot would fold in
        // only the *live* state, and resetting the log would drop the
        // journaled intents a still-open transaction needs to commit.
        if !self.txns.is_empty() {
            return Err(DbError::TxnOpen {
                active: self.txns.len(),
            });
        }
        self.sync()?;
        let snap = WalSnapshot {
            version: SNAPSHOT_VERSION,
            lsn: self.next_lsn,
            theory: persist::dump_theory(self.db.theory()),
        };
        let json = serde_json::to_string(&snap).map_err(|e| DbError::Query {
            message: format!("snapshot serialization failed: {e}"),
        })?;
        self.storage_mut().replace(SNAPSHOT_FILE, json.as_bytes())?;
        self.storage_mut().replace(WAL_FILE, &wal_header())?;
        self.snapshot_lsn = self.next_lsn;
        self.unsynced = 0;
        self.nodes_at_snapshot = self.db.theory().store_nodes();
        self.stats.checkpoints += 1;
        Ok(())
    }

    // ----- wal shipping (replication) ---------------------------------------

    /// Arms WAL shipping: from now on every appended record is also
    /// retained in memory until the next
    /// [`DurableDatabase::drain_shipping`]. Idempotent; an already-armed
    /// tail is left in place (retained but undrained records are not
    /// dropped).
    pub fn enable_shipping(&mut self) {
        if self.shipping_tail.is_none() {
            self.shipping_tail = Some(Vec::new());
        }
    }

    /// Takes the records retained since the last drain, reduced to the
    /// *effective* log (abort records and the records they annul are
    /// removed — a refused operation completes its journal pair before
    /// the owning write returns, so pairs never straddle a drain). The
    /// caller fans these out to subscribed followers. Empty when shipping
    /// is not armed or nothing was appended.
    pub fn drain_shipping(&mut self) -> Vec<WalEntry> {
        match self.shipping_tail.as_mut() {
            Some(tail) if !tail.is_empty() => effective_entries(std::mem::take(tail)),
            _ => Vec::new(),
        }
    }

    /// Computes what a follower whose next-expected LSN is `from_lsn`
    /// needs in order to catch up: the effective log suffix alone if the
    /// cursor is at or past the on-storage checkpoint, or the checkpoint
    /// snapshot plus the suffix when the log no longer reaches back that
    /// far. Enforces the same boundary contract as recovery — a log whose
    /// first surviving record skips past the checkpoint's LSN is a typed
    /// [`DbError::LsnGap`], never a silently wrong suffix — and refuses a
    /// cursor from the future (a follower of some other primary) the same
    /// way.
    pub fn catchup_from(&self, from_lsn: u64) -> Result<Catchup, DbError> {
        if from_lsn > self.next_lsn {
            return Err(DbError::LsnGap {
                expected: self.next_lsn,
                found: from_lsn,
            });
        }
        let parsed = match self.storage().read(WAL_FILE)? {
            Some(bytes) => parse_wal(&bytes)?,
            None => ParsedWal {
                entries: Vec::new(),
                truncated: None,
            },
        };
        if let Some(reason) = parsed.truncated {
            // A live, recovered primary has no torn tail; finding one
            // mid-flight means the storage under us is damaged.
            return Err(DbError::Corrupt {
                message: format!("wal tail unreadable during catch-up: {reason}"),
            });
        }
        if let Some(first) = parsed.entries.first() {
            if first.lsn > self.snapshot_lsn {
                return Err(DbError::LsnGap {
                    expected: self.snapshot_lsn,
                    found: first.lsn,
                });
            }
        }
        let entries = effective_entries(parsed.entries);
        if from_lsn >= self.snapshot_lsn {
            Ok(Catchup::Suffix(
                entries.into_iter().filter(|e| e.lsn >= from_lsn).collect(),
            ))
        } else {
            let snap = read_snapshot(self.storage())?.ok_or_else(|| DbError::Corrupt {
                message: format!(
                    "catch-up from lsn {from_lsn} needs the checkpoint snapshot \
                     (current through lsn {}), but no snapshot file exists",
                    self.snapshot_lsn
                ),
            })?;
            let suffix = entries.into_iter().filter(|e| e.lsn >= snap.lsn).collect();
            Ok(Catchup::Snapshot(Box::new(snap), suffix))
        }
    }

    // ----- background compaction --------------------------------------------
    //
    // The LSM-style three-phase protocol. Phase 1 (`begin_compaction`,
    // under the writer lock) captures a copy-on-write clone of the live
    // theory (O(1)) and
    // starts retaining every subsequently journaled record in memory.
    // Phase 2 (off-lock, owned by the caller) runs full `gua::simplify`
    // on the copy while the writer keeps committing. Phase 3
    // (`install_compacted`, under the writer lock again) replays the
    // retained LSN delta onto the compacted copy and swaps it in — so the
    // swap pause is proportional to the capture→install write volume,
    // never to the theory or log size.

    /// Phase 1: captures a copy-on-write clone of the live theory (O(1),
    /// the same as one snapshot publication) plus the first LSN not
    /// reflected in it, and starts retaining appended records so
    /// [`DurableDatabase::install_compacted`] can replay the delta. A previously
    /// outstanding capture is silently superseded.
    pub fn begin_compaction(&mut self) -> (Theory, u64) {
        self.compaction_tail = Some(Vec::new());
        (self.db.theory().clone(), self.next_lsn)
    }

    /// Abandons an outstanding capture, releasing the retained tail.
    /// Harmless when none is outstanding.
    pub fn abort_compaction(&mut self) {
        self.compaction_tail = None;
    }

    /// Whether a [`DurableDatabase::begin_compaction`] capture is
    /// outstanding (and records are being retained for it).
    pub fn compaction_pending(&self) -> bool {
        self.compaction_tail.is_some()
    }

    /// Phase 3: atomically swaps `compacted` (the
    /// [`DurableDatabase::begin_compaction`] copy after the caller's
    /// simplification pass) in for the live theory, first replaying the
    /// records journaled since the capture onto it. On any replay error
    /// the live database is untouched and the round is simply abandoned.
    ///
    /// The installed theory's [`Theory::generation`] is forced strictly
    /// past the retired theory's, so cached entailment sessions and
    /// per-snapshot readers keyed on the old generation can never mistake
    /// the swapped encoding for the one they saw. With `checkpoint` set,
    /// the on-storage snapshot is rewritten from the compacted theory in
    /// the same critical section — checkpoints shrink with the theory.
    pub fn install_compacted(
        &mut self,
        compacted: Theory,
        from_lsn: u64,
        checkpoint: bool,
    ) -> Result<CompactionOutcome, DbError> {
        let tail = self
            .compaction_tail
            .take()
            .ok_or_else(|| DbError::Compaction {
                message: "install_compacted without an outstanding begin_compaction capture".into(),
            })?;
        if tail.first().map(|e| e.lsn > from_lsn).unwrap_or(false) {
            return Err(DbError::Compaction {
                message: format!(
                    "retained tail starts at lsn {} but the capture was taken at lsn {from_lsn}",
                    tail[0].lsn
                ),
            });
        }
        let generation_before = self.db.theory().generation();
        let nodes_before = self.db.theory().store_nodes();
        // The tail is filtered exactly as recovery filters its suffix: only
        // committed transactions reached the live theory (the server never
        // captures while transactions are open, so none straddles the
        // capture point). It replays as the live writer applied it, so
        // the installed theory is never bulkier than the one it replaces.
        let mut scratch = LogicalDatabase::from_theory(compacted, self.db.options());
        let mut replayed = 0usize;
        for record in effective_ops(&tail, from_lsn).flatten() {
            replay_record(&mut scratch, record)?;
            replayed += 1;
        }
        // The live log already contains the suffix ops (they were applied
        // live); carry it over whole for provenance rather than keeping
        // only the replayed tail.
        scratch.log = std::mem::take(&mut self.db.log);
        scratch
            .theory_mut()
            .advance_generation_past(generation_before);
        self.db = scratch;
        self.applied_version += 1;
        // A compaction swap re-encodes the whole theory; no record delta
        // can express it, so stale workspaces must take the full rebuild.
        self.recent.clear();
        self.recent_floor = self.applied_version;
        let nodes_after = self.db.theory().store_nodes();
        let generation_after = self.db.theory().generation();
        debug_assert!(generation_after > generation_before);
        // A transaction may have begun after the capture; checkpointing
        // now would hit the open-transaction refusal, so skip it and let
        // the next quiescent round (or auto-compaction) fold the log.
        let checkpoint = checkpoint && self.txns.is_empty();
        if checkpoint {
            self.checkpoint()?;
        }
        self.stats.compactions += 1;
        Ok(CompactionOutcome {
            from_lsn,
            replayed,
            nodes_before,
            nodes_after,
            generation_before,
            generation_after,
            checkpointed: checkpoint,
        })
    }

    /// The inner database, read-only.
    pub fn db(&self) -> &LogicalDatabase {
        &self.db
    }

    /// The inner database, mutable — **for queries only** (textual query
    /// paths intern atoms and need `&mut`). Mutating state through this
    /// handle bypasses the journal and will not survive recovery.
    pub fn db_mut(&mut self) -> &mut LogicalDatabase {
        &mut self.db
    }

    /// WAL counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The LSN the next record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN the on-storage snapshot is current through.
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot_lsn
    }

    /// The storage, read-only.
    pub fn storage(&self) -> &S {
        self.storage.as_ref().expect("storage moved out")
    }

    /// Consumes the database, returning the storage (fault-injection
    /// tests recover from the survivor of a crashed instance). Unlike
    /// [`DurableDatabase::close`] this deliberately does **not** flush —
    /// it models pulling the plug on a live instance.
    pub fn into_storage(mut self) -> S {
        self.storage.take().expect("storage moved out")
    }

    /// Graceful shutdown: durably flushes any group-commit buffered
    /// records, then returns the storage. Under
    /// [`SyncPolicy::GroupCommit`] records appended since the last sync
    /// point are only in the OS cache; a process that exits without this
    /// call leans on the best-effort [`Drop`] flush, which cannot report
    /// failure. Call `close` on every orderly shutdown path.
    pub fn close(mut self) -> Result<S, DbError> {
        self.sync()?;
        Ok(self.storage.take().expect("storage moved out"))
    }
}

impl<S: Storage> Drop for DurableDatabase<S> {
    /// Best-effort flush of buffered records. Errors are swallowed (there
    /// is no one to report them to in `drop`); shutdown paths that need
    /// the sync to be *confirmed* must call [`DurableDatabase::close`].
    fn drop(&mut self) {
        if self.unsynced > 0 {
            if let Some(storage) = self.storage.as_mut() {
                let _ = storage.sync(WAL_FILE);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use winslett_gua::SimplifyLevel;

    fn opts_nocompact() -> WalOptions {
        WalOptions {
            policy: SyncPolicy::EveryRecord,
            compact_growth_factor: None,
            compact_min_nodes: 0,
        }
    }

    fn world_set(db: &LogicalDatabase) -> BTreeSet<Vec<String>> {
        db.world_names().unwrap().into_iter().collect()
    }

    /// Opens a fresh MemStorage database with the paper's Orders/InStock
    /// schema journaled, plus two facts.
    fn seeded(wal_options: WalOptions) -> DurableDatabase<MemStorage> {
        let (mut ddb, report) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), wal_options).unwrap();
        assert_eq!(report, RecoveryReport::default());
        ddb.declare_relation("Orders", 3).unwrap();
        ddb.declare_relation("InStock", 2).unwrap();
        ddb.load_fact("Orders", &["700", "32", "9"]).unwrap();
        ddb.load_fact("InStock", &["32", "1"]).unwrap();
        ddb
    }

    fn reopen(storage: MemStorage) -> (DurableDatabase<MemStorage>, RecoveryReport) {
        DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn entry_roundtrip_through_wire_format() {
        let entry = WalEntry {
            lsn: 7,
            record: WalRecord::Apply(UpdateDump::Modify(
                "Orders(700,32,9)".into(),
                "Orders(700,32,1)".into(),
                "InStock(32,1)".into(),
            )),
        };
        let mut bytes = wal_header().to_vec();
        bytes.extend_from_slice(&encode_entry(&entry).unwrap());
        let parsed = parse_wal(&bytes).unwrap();
        assert!(parsed.truncated.is_none());
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].lsn, 7);
        match &parsed.entries[0].record {
            WalRecord::Apply(UpdateDump::Modify(t, o, p)) => {
                assert_eq!(t, "Orders(700,32,9)");
                assert_eq!(o, "Orders(700,32,1)");
                assert_eq!(p, "InStock(32,1)");
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn reopen_recovers_schema_facts_and_updates() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE InStock(32,1)")
            .unwrap();
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let live = world_set(ddb.db());
        assert!(live.len() > 1); // the disjunctive insert branched
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.replayed, 6); // 2 declares + 2 facts + 2 updates
        assert_eq!(report.truncated, None);
        assert_eq!(report.replay_error, None);
        assert!(!report.repaired);
    }

    #[test]
    fn appends_after_reopen_continue_the_log() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let (mut ddb2, _) = reopen(ddb.into_storage());
        ddb2.execute("INSERT InStock(33,5) WHERE T").unwrap();
        let live = world_set(ddb2.db());
        let (recovered, report) = reopen(ddb2.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.records_seen, 6);
        assert_eq!(report.replayed, 6);
    }

    #[test]
    fn checkpoint_folds_log_into_snapshot() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        ddb.execute("INSERT Orders(800,32,5) WHERE T").unwrap();
        let live = world_set(ddb.db());
        assert_eq!(ddb.stats().checkpoints, 1);
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.snapshot_lsn, 5);
        assert_eq!(report.records_seen, 1); // only the post-checkpoint update
        assert_eq!(report.replayed, 1);
    }

    #[test]
    fn old_wal_alongside_new_snapshot_is_skipped() {
        // Simulates a crash between snapshot replace and WAL reset: the
        // snapshot is current but the log still holds folded records.
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let wal_before = ddb.storage().get(WAL_FILE).unwrap().clone();
        ddb.checkpoint().unwrap();
        let live = world_set(ddb.db());
        let mut storage = ddb.into_storage();
        storage.put(WAL_FILE, wal_before); // undo the WAL reset only
        let (recovered, report) = reopen(storage);
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.records_seen, 5);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.skipped, 5);
    }

    #[test]
    fn empty_wal_recovers_to_empty_database() {
        let (ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.records_seen, 0);
        assert_eq!(report.replayed, 0);
        assert!(!report.repaired);
        assert_eq!(world_set(recovered.db()).len(), 1); // the one empty world
    }

    #[test]
    fn snapshot_only_storage_recovers() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        let live = world_set(ddb.db());
        let mut storage = ddb.into_storage();
        storage.remove(WAL_FILE); // the log is lost; the snapshot survives
        let (recovered, report) = reopen(storage);
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.records_seen, 0);
        assert!(!report.repaired);
        // And the reopened database can keep journaling.
        let mut recovered = recovered;
        recovered.execute("INSERT InStock(40,1) WHERE T").unwrap();
        let live2 = world_set(recovered.db());
        let (again, _) = reopen(recovered.into_storage());
        assert_eq!(world_set(again.db()), live2);
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_repaired() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let before = world_set(ddb.db());
        ddb.execute("INSERT Orders(900,40,1) WHERE T").unwrap();
        let mut storage = ddb.into_storage();
        // Tear the final record: drop its last 3 bytes.
        let mut wal = storage.get(WAL_FILE).unwrap().clone();
        let n = wal.len();
        wal.truncate(n - 3);
        storage.put(WAL_FILE, wal);
        let (recovered, report) = reopen(storage);
        assert_eq!(world_set(recovered.db()), before); // last update dropped
        assert!(report.truncated.is_some(), "{report:?}");
        assert!(report.repaired);
        // The repair checkpoint made storage clean: reopening is quiet.
        let (again, report2) = reopen(recovered.into_storage());
        assert_eq!(report2.truncated, None);
        assert!(!report2.repaired);
        assert_eq!(world_set(again.db()), before);
    }

    #[test]
    fn mid_file_checksum_damage_truncates_the_suffix() {
        let mut ddb = seeded(opts_nocompact());
        let after_schema = world_set(ddb.db());
        let wal_schema_only = ddb.storage().get(WAL_FILE).unwrap().clone();
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let mut storage = ddb.into_storage();
        let mut wal = storage.get(WAL_FILE).unwrap().clone();
        // Flip one payload byte in the first post-schema record.
        wal[wal_schema_only.len() + 10] ^= 0x01;
        storage.put(WAL_FILE, wal);
        let (recovered, report) = reopen(storage);
        assert!(report
            .truncated
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        assert_eq!(world_set(recovered.db()), after_schema);
    }

    #[test]
    fn replay_error_mid_suffix_keeps_the_prefix() {
        // Hand-build a WAL whose third update is refused by GUA (it
        // mentions a predicate constant, which §3.1 excludes from L′):
        // recovery must keep the two-record prefix and report the error.
        let mut storage = MemStorage::new();
        storage.append(WAL_FILE, &wal_header()).unwrap();
        let records = [
            WalRecord::DeclareRelation("R".into(), 1),
            WalRecord::Apply(UpdateDump::Insert("R(a)".into(), "T".into())),
            WalRecord::Apply(UpdateDump::Insert("__pc_bad".into(), "T".into())),
            WalRecord::Apply(UpdateDump::Insert("R(b)".into(), "T".into())),
        ];
        for (lsn, record) in records.into_iter().enumerate() {
            let entry = WalEntry {
                lsn: lsn as u64,
                record,
            };
            storage
                .append(WAL_FILE, &encode_entry(&entry).unwrap())
                .unwrap();
        }
        let (recovered, report) = reopen(storage);
        assert!(report.replay_error.is_some(), "{report:?}");
        assert_eq!(report.replayed, 2);
        assert!(report.repaired);
        let mut db = recovered;
        assert!(db.db_mut().is_certain("R(a)").unwrap());
        // The constant `b` never arrived: the suffix was not replayed.
        assert!(db.db_mut().is_possible("R(b)").is_err());
    }

    #[test]
    fn refused_update_is_annulled_by_an_abort_record() {
        let mut ddb = seeded(opts_nocompact());
        // Choke the formula store so GUA fails *after* the intent was
        // journaled — the compensation path.
        let len = ddb.db().theory().store.len() as u32;
        ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
        let err = ddb.execute("INSERT Orders(800,32,5) WHERE T");
        assert!(err.is_err());
        let live = world_set(ddb.db());
        // Lift the cap and keep going; the aborted record must not be
        // replayed on recovery.
        ddb.db_mut()
            .theory_mut()
            .store
            .set_capacity(u32::MAX, u32::MAX);
        ddb.execute("DELETE Orders(700,32,9) WHERE T").unwrap();
        let live2 = world_set(ddb.db());
        assert_ne!(live, live2);
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live2);
        assert_eq!(report.replay_error, None);
        assert!(report.skipped >= 2); // the refused record and its abort
    }

    #[test]
    fn auto_compaction_triggers_on_store_growth() {
        let wal_options = WalOptions {
            policy: SyncPolicy::GroupCommit(4),
            compact_growth_factor: Some(1.1),
            compact_min_nodes: 1,
        };
        let mut ddb = seeded(wal_options);
        for i in 0..6 {
            ddb.execute(&format!("INSERT InStock({}, {}) WHERE T", 50 + i, i))
                .unwrap();
        }
        assert!(ddb.stats().checkpoints >= 1, "{:?}", ddb.stats());
        let live = world_set(ddb.db());
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn group_commit_syncs_less_often() {
        let every = seeded(opts_nocompact());
        let grouped = seeded(WalOptions {
            policy: SyncPolicy::GroupCommit(8),
            compact_growth_factor: None,
            compact_min_nodes: 0,
        });
        assert_eq!(every.stats().records, grouped.stats().records);
        assert!(every.stats().syncs > grouped.stats().syncs);
        let mut grouped = grouped;
        grouped.sync().unwrap(); // the explicit sync point flushes
        assert_eq!(grouped.stats().syncs, 1);
    }

    #[test]
    fn bad_magic_is_corrupt_not_truncated() {
        let mut storage = MemStorage::new();
        storage.put(WAL_FILE, b"NOPE0000".to_vec());
        let err =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap_err();
        assert!(matches!(err, DbError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn future_wal_version_rejected() {
        let mut storage = MemStorage::new();
        let mut header = wal_header().to_vec();
        header[4..].copy_from_slice(&99u32.to_le_bytes());
        storage.put(WAL_FILE, header);
        let err =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap_err();
        assert_eq!(
            err,
            DbError::UnsupportedVersion {
                what: "wal",
                found: 99,
                supported: WAL_VERSION,
            }
        );
    }

    #[test]
    fn future_snapshot_version_rejected() {
        let mut ddb = seeded(opts_nocompact());
        ddb.checkpoint().unwrap();
        let mut storage = ddb.into_storage();
        let snap = String::from_utf8(storage.get(SNAPSHOT_FILE).unwrap().clone()).unwrap();
        let snap = snap.replacen("\"version\":1", "\"version\":42", 1);
        storage.put(SNAPSHOT_FILE, snap.into_bytes());
        let err =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap_err();
        assert_eq!(
            err,
            DbError::UnsupportedVersion {
                what: "wal snapshot",
                found: 42,
                supported: SNAPSHOT_VERSION,
            }
        );
    }

    #[test]
    fn widening_is_journaled_not_reapplied() {
        // The journaled form is the §3.5-widened update; recovery must
        // reach the same worlds without widening twice.
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        let part = ddb.declare_attribute("PartNo").unwrap();
        let quan = ddb.declare_attribute("Quan").unwrap();
        ddb.declare_typed_relation("InStock", &[part, quan])
            .unwrap();
        ddb.execute("INSERT InStock(32,5) WHERE T").unwrap();
        assert!(ddb.db().is_consistent());
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        let mut recovered = recovered;
        assert!(recovered.db_mut().is_certain("PartNo(32)").unwrap());
    }

    #[test]
    fn dependencies_and_wffs_are_journaled() {
        let (mut ddb, _) =
            DurableDatabase::open(MemStorage::new(), DbOptions::default(), opts_nocompact())
                .unwrap();
        let p = ddb.declare_relation("Price", 2).unwrap();
        ddb.add_dependency(Dependency::functional("price-fd", p, 2, &[0]).unwrap())
            .unwrap();
        ddb.load_wff("Price(widget,10) | Price(widget,12)").unwrap();
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(recovered.db().theory().deps.len(), 1);
        // The restored FD still bites: a second price for the same part
        // violates it in every world (rule 3 weeds them all out).
        let mut recovered = recovered;
        recovered
            .execute("INSERT Price(widget,11) WHERE T")
            .unwrap();
        assert!(!recovered.db().is_consistent());
    }

    #[test]
    fn dir_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("winslett-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = DirStorage::new(&dir).unwrap();
        let (mut ddb, _) =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap();
        ddb.declare_relation("R", 1).unwrap();
        ddb.execute("INSERT R(a) | R(b) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        ddb.execute("ASSERT R(a)").unwrap();
        let live = world_set(ddb.db());
        drop(ddb);
        let storage = DirStorage::new(&dir).unwrap();
        let (recovered, report) =
            DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()).unwrap();
        assert_eq!(report.replay_error, None);
        assert_eq!(world_set(recovered.db()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_appends_after_replace_land_in_the_new_file() {
        let dir = std::env::temp_dir().join(format!("winslett-wal-replace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut storage = DirStorage::new(&dir).unwrap();
        storage.append("log", b"old-1;").unwrap();
        storage.append("log", b"old-2;").unwrap();
        storage.replace("log", b"new;").unwrap();
        storage.append("log", b"after;").unwrap();
        storage.sync("log").unwrap();
        assert_eq!(storage.read("log").unwrap().unwrap(), b"new;after;");
        // Syncing a name never written is a no-op.
        storage.sync("absent").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_simplifies_to_live_size_class() {
        let mut ddb = seeded(WalOptions {
            policy: SyncPolicy::Manual,
            compact_growth_factor: None,
            compact_min_nodes: 0,
        });
        for i in 0..4 {
            ddb.execute(&format!("DELETE Orders(700,32,9) WHERE InStock(32,{i})"))
                .unwrap();
        }
        ddb.sync().unwrap();
        let live_nodes = ddb.db().theory().store_nodes();
        let (recovered, _) = DurableDatabase::open(
            ddb.into_storage(),
            DbOptions {
                simplify: SimplifyLevel::Fast,
                ..DbOptions::default()
            },
            opts_nocompact(),
        )
        .unwrap();
        // Replay runs unsimplified; the post-recovery pass folds the
        // store back to the same order of magnitude as the live run.
        assert!(
            recovered.db().theory().store_nodes() <= live_nodes.max(1) * 4,
            "recovered {} vs live {}",
            recovered.db().theory().store_nodes(),
            live_nodes
        );
    }

    fn group_commit_opts() -> WalOptions {
        WalOptions {
            policy: SyncPolicy::GroupCommit(1024),
            compact_growth_factor: None,
            compact_min_nodes: 0,
        }
    }

    fn fp_seeded(fp: &FailpointStorage) -> DurableDatabase<FailpointStorage> {
        let (mut ddb, _) =
            DurableDatabase::open(fp.clone(), DbOptions::default(), group_commit_opts()).unwrap();
        ddb.declare_relation("Orders", 3).unwrap();
        ddb.load_fact("Orders", &["700", "32", "9"]).unwrap();
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        ddb
    }

    #[test]
    fn group_commit_buffer_lost_to_power_loss_kept_by_close() {
        let fp = FailpointStorage::unlimited();
        let ddb = fp_seeded(&fp);
        let live = world_set(ddb.db());

        // Power loss before any sync point: the whole buffered tail —
        // every record since open — never reached the platters.
        let (cold, _) = reopen(fp.power_loss_survivor());
        assert_ne!(world_set(cold.db()), live);

        // Graceful shutdown flushes the group-commit buffer; the same
        // power-loss image now recovers the full state.
        ddb.close().unwrap();
        let (recovered, report) = reopen(fp.power_loss_survivor());
        assert_eq!(world_set(recovered.db()), live);
        assert_eq!(report.truncated, None);
    }

    #[test]
    fn drop_flushes_group_commit_buffer_best_effort() {
        let fp = FailpointStorage::unlimited();
        let ddb = fp_seeded(&fp);
        let live = world_set(ddb.db());
        drop(ddb); // no close(): the Drop impl must still flush
        let (recovered, _) = reopen(fp.power_loss_survivor());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn into_storage_still_models_pulling_the_plug() {
        let fp = FailpointStorage::unlimited();
        let ddb = fp_seeded(&fp);
        let live = world_set(ddb.db());
        let _ = ddb.into_storage(); // crash simulation: must NOT flush
        let (cold, _) = reopen(fp.power_loss_survivor());
        assert_ne!(world_set(cold.db()), live);
        // ...but the process-crash survivor (OS cache intact) has it all.
        let (warm, _) = reopen(fp.survivor());
        assert_eq!(world_set(warm.db()), live);
    }

    // ----- background compaction -------------------------------------------

    #[test]
    fn recovery_report_surfaces_simplification() {
        let mut ddb = seeded(opts_nocompact());
        for i in 0..4 {
            ddb.execute(&format!("DELETE Orders(700,32,9) WHERE InStock(32,{i})"))
                .unwrap();
        }
        let (_, report) = reopen(ddb.into_storage());
        // The post-replay whole-store pass must have seen the replayed
        // store and its report must be visible, not discarded.
        assert!(report.simplify.nodes_before > 0, "{report:?}");
        assert!(report.simplify.nodes_after <= report.simplify.nodes_before);
        assert_eq!(
            report.nodes_reclaimed(),
            report.simplify.nodes_before - report.simplify.nodes_after
        );
    }

    #[test]
    fn compaction_swap_preserves_worlds_and_replays_racing_writes() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let (mut copy, from_lsn) = ddb.begin_compaction();
        assert!(ddb.compaction_pending());
        // Writes racing the off-lock simplification...
        ddb.execute("INSERT InStock(40,2) WHERE T").unwrap();
        ddb.execute("DELETE Orders(100,32,7) WHERE InStock(40,2)")
            .unwrap();
        let live = world_set(ddb.db());
        let nodes_live = ddb.db().theory().store_nodes();
        // ...while the copy gets the full pass.
        winslett_gua::simplify(&mut copy, SimplifyLevel::Full);
        let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
        assert!(!ddb.compaction_pending());
        assert_eq!(outcome.replayed, 2);
        assert_eq!(outcome.nodes_before, nodes_live);
        assert!(outcome.nodes_after <= outcome.nodes_before);
        assert_eq!(world_set(ddb.db()), live);
        assert_eq!(ddb.stats().compactions, 1);
        // The swapped theory must still recover identically.
        ddb.sync().unwrap();
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn compaction_generation_strictly_advances_across_swap() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        // No racing writes at all: the compacted clone's component
        // counters tie the live theory's, the worst case for stale-session
        // detection — only the epoch can break the tie.
        let (copy, from_lsn) = ddb.begin_compaction();
        let before = ddb.db().theory().generation();
        let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
        assert_eq!(outcome.generation_before, before);
        assert!(outcome.generation_after > outcome.generation_before);
        assert_eq!(ddb.db().theory().generation(), outcome.generation_after);
    }

    #[test]
    fn compaction_checkpoint_shrinks_snapshot() {
        let mut ddb = seeded(opts_nocompact());
        for i in 0..6 {
            ddb.execute(&format!("DELETE Orders(700,32,9) WHERE InStock(32,{i})"))
                .unwrap();
        }
        ddb.checkpoint().unwrap();
        let fat = ddb.storage().get(SNAPSHOT_FILE).unwrap().len();
        let (mut copy, from_lsn) = ddb.begin_compaction();
        winslett_gua::simplify(&mut copy, SimplifyLevel::Full);
        let live = world_set(ddb.db());
        let outcome = ddb.install_compacted(copy, from_lsn, true).unwrap();
        assert!(outcome.checkpointed);
        let slim = ddb.storage().get(SNAPSHOT_FILE).unwrap().len();
        assert!(
            slim <= fat,
            "checkpoint grew across compaction: {fat} -> {slim}"
        );
        // The compacted snapshot alone (log was just reset) recovers the
        // same worlds.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replayed, 0);
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn compaction_swap_skips_aborted_suffix_records() {
        let mut ddb = seeded(opts_nocompact());
        let (copy, from_lsn) = ddb.begin_compaction();
        // A refused update journals an intent then a compensating abort;
        // neither may replay onto the compacted copy. Choke the store so
        // GUA fails after the intent was journaled.
        let len = ddb.db().theory().store.len() as u32;
        ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
        assert!(ddb.execute("INSERT Orders(800,32,5) WHERE T").is_err());
        ddb.db_mut()
            .theory_mut()
            .store
            .set_capacity(u32::MAX, u32::MAX);
        ddb.execute("INSERT InStock(50,5) WHERE T").unwrap();
        let live = world_set(ddb.db());
        let outcome = ddb.install_compacted(copy, from_lsn, false).unwrap();
        assert_eq!(outcome.replayed, 1); // only the surviving insert
        assert_eq!(world_set(ddb.db()), live);
    }

    #[test]
    fn install_without_capture_is_a_typed_error() {
        let mut ddb = seeded(opts_nocompact());
        let copy = ddb.db().theory().clone();
        let err = ddb.install_compacted(copy, 0, false).unwrap_err();
        assert!(matches!(err, DbError::Compaction { .. }), "{err:?}");
        // abort_compaction on an idle database is harmless.
        ddb.abort_compaction();
        assert!(!ddb.compaction_pending());
    }

    // ----- recovery-boundary and replication tests --------------------------

    /// Splits a WAL image into (header, record byte ranges).
    fn record_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut off = 8usize;
        while off < bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            spans.push(off..off + 8 + len);
            off += 8 + len;
        }
        spans
    }

    #[test]
    fn spliced_suffix_past_the_checkpoint_is_a_typed_lsn_gap() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT InStock(33,1) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        let boundary = ddb.snapshot_lsn();
        ddb.execute("INSERT InStock(34,1) WHERE T").unwrap();
        ddb.execute("INSERT InStock(35,1) WHERE T").unwrap();
        let mut storage = ddb.close().unwrap();
        // Splice out the first post-checkpoint record: the survivor now
        // starts one LSN past what the snapshot is current through —
        // within-file contiguity holds, so only the boundary check can
        // catch it.
        let bytes = storage.get(WAL_FILE).unwrap().clone();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 2);
        let mut spliced = bytes[..8].to_vec();
        spliced.extend_from_slice(&bytes[spans[1].clone()]);
        storage.put(WAL_FILE, spliced);
        let err = match DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()) {
            Err(e) => e,
            Ok(_) => panic!("gap must be rejected"),
        };
        assert_eq!(
            err,
            DbError::LsnGap {
                expected: boundary,
                found: boundary + 1,
            }
        );
    }

    #[test]
    fn spliced_log_without_a_snapshot_is_also_rejected() {
        let ddb = seeded(opts_nocompact());
        let mut storage = ddb.close().unwrap();
        let bytes = storage.get(WAL_FILE).unwrap().clone();
        let spans = record_spans(&bytes);
        // Drop the first record (lsn 0): the survivor starts at lsn 1 but
        // no snapshot covers lsn 0.
        let mut spliced = bytes[..8].to_vec();
        for span in &spans[1..] {
            spliced.extend_from_slice(&bytes[span.clone()]);
        }
        storage.put(WAL_FILE, spliced);
        let err = match DurableDatabase::open(storage, DbOptions::default(), opts_nocompact()) {
            Err(e) => e,
            Ok(_) => panic!("gap must be rejected"),
        };
        assert_eq!(
            err,
            DbError::LsnGap {
                expected: 0,
                found: 1
            }
        );
    }

    #[test]
    fn old_wal_with_kill_byte_tails_still_recovers_after_checkpoint() {
        // A torn tail (kill-byte damage) is *truncation*, not a gap: the
        // surviving prefix still meets the checkpoint, so recovery must
        // keep accepting it.
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT InStock(33,1) WHERE T").unwrap();
        let mut storage = ddb.close().unwrap();
        let mut bytes = storage.get(WAL_FILE).unwrap().clone();
        bytes.truncate(bytes.len() - 3); // tear the last record
        storage.put(WAL_FILE, bytes);
        let (recovered, report) = reopen(storage);
        assert!(report.truncated.is_some());
        assert!(report.repaired);
        drop(recovered);
    }

    #[test]
    fn record_cap_is_exact_at_the_mint_boundary() {
        let overhead = {
            let probe = WalEntry {
                lsn: 0,
                record: WalRecord::LoadWff(String::new()),
            };
            serde_json::to_string(&probe).unwrap().len()
        };
        let entry = |n: usize| WalEntry {
            lsn: 0,
            record: WalRecord::LoadWff("x".repeat(n)),
        };
        let fits = MAX_RECORD_LEN as usize - overhead;
        assert!(encode_entry(&entry(fits)).is_ok());
        match encode_entry(&entry(fits + 1)) {
            Err(DbError::RecordTooLarge { len, max }) => {
                assert_eq!(len, MAX_RECORD_LEN as usize + 1);
                assert_eq!(max, MAX_RECORD_LEN as usize);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_record_is_refused_before_anything_is_journaled() {
        let mut ddb = seeded(opts_nocompact());
        let before = ddb.next_lsn();
        let wal_len = ddb.storage().get(WAL_FILE).unwrap().len();
        let huge = format!("InStock({},1)", "9".repeat(MAX_RECORD_LEN as usize));
        let err = ddb.load_wff(&huge).unwrap_err();
        assert!(matches!(err, DbError::RecordTooLarge { .. }), "{err:?}");
        // Nothing was appended, no LSN burned, and the database stays
        // fully usable.
        assert_eq!(ddb.next_lsn(), before);
        assert_eq!(ddb.storage().get(WAL_FILE).unwrap().len(), wal_len);
        ddb.execute("INSERT InStock(36,1) WHERE T").unwrap();
    }

    #[test]
    fn drain_shipping_carries_only_effective_records() {
        let mut ddb = seeded(opts_nocompact());
        ddb.enable_shipping();
        // Records journaled before arming were not retained; the first
        // drain starts empty.
        assert!(ddb.drain_shipping().is_empty());
        ddb.execute("INSERT InStock(40,1) WHERE T").unwrap();
        // Choke the store so GUA refuses after journaling the intent: the
        // Apply/Abort pair must be filtered out of the shipped batch.
        let len = ddb.db().theory().store.len() as u32;
        ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, len);
        assert!(ddb.execute("INSERT Orders(800,32,5) WHERE T").is_err());
        ddb.db_mut()
            .theory_mut()
            .store
            .set_capacity(u32::MAX, u32::MAX);
        ddb.execute("INSERT InStock(41,1) WHERE T").unwrap();
        let batch = ddb.drain_shipping();
        assert_eq!(batch.len(), 2, "{batch:?}");
        assert!(batch
            .iter()
            .all(|e| matches!(e.record, WalRecord::Apply(_))));
        // Drained means gone.
        assert!(ddb.drain_shipping().is_empty());
        // A follower replaying the batch (plus the pre-arm prefix via
        // catch-up) reaches the primary's exact world set.
        let mut follower = LogicalDatabase::with_options(DbOptions::default());
        match ddb.catchup_from(0).unwrap() {
            Catchup::Suffix(entries) => {
                for e in entries {
                    replay_record(&mut follower, &e.record).unwrap();
                }
            }
            other => panic!("no checkpoint yet, expected Suffix: {other:?}"),
        }
        assert_eq!(world_set(&follower), world_set(ddb.db()));
    }

    #[test]
    fn catchup_serves_suffix_or_snapshot_depending_on_cursor() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT InStock(42,1) WHERE T").unwrap();
        ddb.checkpoint().unwrap();
        let boundary = ddb.snapshot_lsn();
        ddb.execute("INSERT InStock(43,1) WHERE T").unwrap();
        let live = world_set(ddb.db());

        // A cursor at/past the checkpoint gets the bare suffix.
        match ddb.catchup_from(boundary).unwrap() {
            Catchup::Suffix(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].lsn, boundary);
            }
            other => panic!("expected Suffix: {other:?}"),
        }
        // A cursor from before the checkpoint needs the snapshot, and the
        // rebuilt follower matches the live world set exactly.
        match ddb.catchup_from(0).unwrap() {
            Catchup::Snapshot(snap, entries) => {
                assert_eq!(snap.lsn, boundary);
                let theory = persist::restore_theory(&snap.theory).unwrap();
                let mut follower = LogicalDatabase::from_theory(theory, DbOptions::default());
                for e in entries {
                    assert!(e.lsn >= boundary);
                    replay_record(&mut follower, &e.record).unwrap();
                }
                assert_eq!(world_set(&follower), live);
            }
            other => panic!("expected Snapshot: {other:?}"),
        }
        // A cursor from the future is a typed gap (wrong primary).
        let next = ddb.next_lsn();
        assert_eq!(
            ddb.catchup_from(next + 5).unwrap_err(),
            DbError::LsnGap {
                expected: next,
                found: next + 5,
            }
        );
        // Catch-up at exactly next_lsn is an empty suffix, not an error.
        assert_eq!(ddb.catchup_from(next).unwrap(), Catchup::Suffix(vec![]));
    }

    #[test]
    fn replay_record_is_atomic_when_an_apply_fails_partway() {
        let mut ddb = seeded(opts_nocompact());
        ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
            .unwrap();
        let mut follower = LogicalDatabase::with_options(DbOptions::default());
        match ddb.catchup_from(0).unwrap() {
            Catchup::Suffix(entries) => {
                for e in entries {
                    replay_record(&mut follower, &e.record).unwrap();
                }
            }
            other => panic!("no checkpoint yet, expected Suffix: {other:?}"),
        }
        // Room for one more formula: GUA gets partway into the branching
        // insert (new constants interned, a formula stored) and then
        // hits the store-capacity ceiling.
        let len = follower.theory().store.len() as u32;
        follower.theory_mut().store.set_capacity(u32::MAX, len + 1);
        let record = WalRecord::Apply(UpdateDump::Insert(
            "Orders(800,32,5) | Orders(801,32,5)".into(),
            "InStock(32,1)".into(),
        ));
        let fingerprint = |db: &LogicalDatabase| {
            (
                world_set(db),
                db.theory().store_nodes(),
                db.theory().atoms.len(),
                db.log().len(),
                db.theory().generation(),
            )
        };
        let before = fingerprint(&follower);
        // The unguarded applier leaves a trace on its way to the error...
        let mut bare = follower.clone();
        let err = apply_record(&mut bare, &record).unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
        assert_ne!(fingerprint(&bare), before);
        // ...which replay_record rolls back.
        assert!(replay_record(&mut follower, &record).is_err());
        assert_eq!(fingerprint(&follower), before);
        // The restored follower keeps replaying.
        follower.theory_mut().store.set_capacity(u32::MAX, u32::MAX);
        replay_record(&mut follower, &record).unwrap();
        ddb.execute("INSERT Orders(800,32,5) | Orders(801,32,5) WHERE InStock(32,1)")
            .unwrap();
        assert_eq!(world_set(&follower), world_set(ddb.db()));
    }

    // ----- transactions -----------------------------------------------------

    #[test]
    fn txn_commit_applies_and_rollback_discards() {
        let mut ddb = seeded(opts_nocompact());
        let before = world_set(ddb.db());

        // A rolled-back transaction leaves no trace on the live state.
        let t1 = ddb.txn_begin().unwrap();
        ddb.txn_execute(t1, "INSERT Orders(1,1,1) WHERE T").unwrap();
        assert_eq!(world_set(ddb.db()), before, "intents stay in the workspace");
        ddb.txn_rollback(t1).unwrap();
        assert_eq!(world_set(ddb.db()), before);
        assert_eq!(ddb.txn_active(), 0);

        // A committed transaction lands atomically, and its workspace gave
        // read-your-writes along the way.
        let t2 = ddb.txn_begin().unwrap();
        ddb.txn_execute(t2, "INSERT Orders(2,2,2) WHERE T").unwrap();
        ddb.txn_execute(t2, "DELETE Orders(2,2,2) WHERE T").unwrap();
        ddb.txn_execute(t2, "INSERT Orders(3,3,3) WHERE T").unwrap();
        let view = ddb.txn_view(t2).unwrap();
        assert_ne!(world_set(view), before, "workspace sees own writes");
        let (lsn, ops) = ddb.txn_commit(t2).unwrap();
        assert_eq!(ops, 3);
        assert!(lsn > t2);
        let committed = world_set(ddb.db());
        assert_ne!(committed, before);

        // Recovery reconstructs exactly the committed state.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), committed);
        assert_eq!(report.rolled_back, 0);
    }

    #[test]
    fn txn_interleaves_with_plain_writes_on_disjoint_atoms() {
        let mut ddb = seeded(opts_nocompact());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(5,5,5) WHERE T")
            .unwrap();
        // A disjoint plain write commits mid-transaction; the next
        // statement rebuilds the workspace over it.
        ddb.execute("INSERT InStock(9,9) WHERE T").unwrap();
        ddb.txn_execute(txn, "INSERT Orders(6,6,6) WHERE InStock(9,9)")
            .unwrap();
        ddb.txn_commit(txn).unwrap();
        let live = world_set(ddb.db());
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
        let mut probe = recovered;
        for wff in ["Orders(5,5,5)", "Orders(6,6,6)", "InStock(9,9)"] {
            assert!(
                probe.db_mut().is_certain(wff).unwrap(),
                "{wff} must be certain after commit"
            );
        }
    }

    #[test]
    fn recovery_rolls_back_unfinished_transaction() {
        let mut ddb = seeded(opts_nocompact());
        let base = world_set(ddb.db());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(7,7,7) WHERE T")
            .unwrap();
        ddb.txn_execute(txn, "DELETE Orders(700,32,9) WHERE T")
            .unwrap();
        // Crash before commit: the storage holds begin + two intents and
        // no marker.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 1, "one in-flight txn rolled back");
        assert_eq!(world_set(recovered.db()), base);
        // The compensation marker is durable: a second recovery sees a
        // finished (aborted) transaction, not another rollback.
        let (again, report2) = reopen(recovered.into_storage());
        assert_eq!(report2.rolled_back, 0);
        assert_eq!(world_set(again.db()), base);
    }

    #[test]
    fn txn_statement_refusal_journals_compensation_inside_txn() {
        let mut ddb = seeded(opts_nocompact());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(8,8,8) WHERE T")
            .unwrap();
        // An unparseable statement refuses without killing the txn.
        assert!(ddb.txn_execute(txn, "INSERT nonsense((").is_err());
        assert!(ddb.txn_open(txn));
        ddb.txn_commit(txn).unwrap();
        let live = world_set(ddb.db());
        let (recovered, _) = reopen(ddb.into_storage());
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn txn_aborts_when_a_failed_refresh_leaves_its_workspace_half_caught_up() {
        let mut ddb = seeded(opts_nocompact());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(5,5,5) WHERE T")
            .unwrap();
        // Two foreign commits: short enough for the delta replay.
        ddb.execute("INSERT Orders(6,6,6) WHERE T").unwrap();
        ddb.execute("INSERT Orders(7,7,7) WHERE T").unwrap();
        let live = world_set(ddb.db());
        let basis = ddb.txns[&txn].basis_version;
        let records: Vec<WalRecord> = ddb
            .recent
            .iter()
            .filter(|(v, _)| *v > basis)
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(records.len(), 2);
        // Quota the workspace's store at the fewest live formulas that
        // still take the first foreign record, so the second one fails.
        let workspace = &ddb.txns[&txn].workspace;
        let fits = |quota: u32, n: usize| {
            let mut probe = workspace.clone();
            probe.theory_mut().store.set_capacity(u32::MAX, quota);
            records[..n]
                .iter()
                .all(|r| apply_record(&mut probe, r).is_ok())
        };
        let quota = (0..u32::MAX).find(|&q| fits(q, 1)).unwrap();
        assert!(!fits(quota, 2), "the second record must overflow the quota");
        let state = ddb.txns.get_mut(&txn).unwrap();
        state
            .workspace
            .theory_mut()
            .store
            .set_capacity(u32::MAX, quota);
        // And the fallback rebuild cannot redo the transaction's insert.
        let full = ddb.db().theory().store.len() as u32;
        ddb.db_mut().theory_mut().store.set_capacity(u32::MAX, full);
        assert!(ddb
            .txn_execute(txn, "INSERT Orders(8,8,8) WHERE T")
            .is_err());
        // The half-refreshed workspace is gone, not kept for a retry that
        // would replay the first foreign record twice.
        assert!(!ddb.txn_open(txn));
        assert!(matches!(
            ddb.txn_commit(txn),
            Err(DbError::TxnUnknown { .. })
        ));
        assert_eq!(world_set(ddb.db()), live);
        // The abort marker is journaled: recovery sees a finished
        // transaction, not one to roll back, and none of its effects.
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 0);
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn checkpoint_refused_while_txn_open_then_allowed() {
        let mut ddb = seeded(opts_nocompact());
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_execute(txn, "INSERT Orders(9,9,9) WHERE T")
            .unwrap();
        assert!(matches!(
            ddb.checkpoint(),
            Err(DbError::TxnOpen { active: 1 })
        ));
        ddb.txn_commit(txn).unwrap();
        ddb.checkpoint().unwrap();
        let live = world_set(ddb.db());
        let (recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.replayed, 0, "checkpoint folded everything");
        assert_eq!(world_set(recovered.db()), live);
    }

    #[test]
    fn txn_unknown_ids_are_typed_errors() {
        let mut ddb = seeded(opts_nocompact());
        assert!(matches!(
            ddb.txn_commit(999),
            Err(DbError::TxnUnknown { txn: 999 })
        ));
        assert!(matches!(
            ddb.txn_rollback(999),
            Err(DbError::TxnUnknown { txn: 999 })
        ));
        assert!(matches!(
            ddb.txn_execute(999, "INSERT Orders(1,1,1) WHERE T"),
            Err(DbError::TxnUnknown { txn: 999 })
        ));
        // Double-commit: the first consumes the txn.
        let txn = ddb.txn_begin().unwrap();
        ddb.txn_commit(txn).unwrap();
        assert!(matches!(
            ddb.txn_commit(txn),
            Err(DbError::TxnUnknown { .. })
        ));
    }

    #[test]
    fn concurrent_txns_with_disjoint_footprints_both_commit() {
        let mut ddb = seeded(opts_nocompact());
        let t1 = ddb.txn_begin().unwrap();
        let t2 = ddb.txn_begin().unwrap();
        ddb.txn_execute(t1, "INSERT Orders(10,1,1) WHERE T")
            .unwrap();
        ddb.txn_execute(t2, "INSERT InStock(20,2) WHERE T").unwrap();
        ddb.txn_execute(t1, "INSERT Orders(11,1,1) WHERE T")
            .unwrap();
        ddb.txn_commit(t2).unwrap();
        ddb.txn_commit(t1).unwrap();
        let live = world_set(ddb.db());
        let (mut recovered, report) = reopen(ddb.into_storage());
        assert_eq!(report.rolled_back, 0);
        assert_eq!(world_set(recovered.db()), live);
        for wff in ["Orders(10,1,1)", "Orders(11,1,1)", "InStock(20,2)"] {
            assert!(recovered.db_mut().is_certain(wff).unwrap(), "{wff}");
        }
    }
}
