//! The O(changed) write path, checked in bytes rather than seconds.
//!
//! A counting global allocator measures how many bytes a theory clone, a
//! snapshot capture and one g = 1 durable write allocate. With
//! copy-on-write storage and occurrence-scoped simplification none of them
//! depends on the size of the store beyond a spine of chunk pointers, so
//! at R = 2¹⁶ base facts each must stay within 2× of its cost at R = 2¹⁰.
//! Allocation counts are deterministic, so unlike a timing window this
//! cannot flake.
//!
//! The file holds a single test so no other test thread allocates while
//! it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use winslett::db::{DbOptions, DurableDatabase, MemStorage, TheorySnapshot, WalOptions};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is only a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated while `f` runs (what it returns is dropped afterwards,
/// outside the window).
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::SeqCst);
    let value = f();
    (value, BYTES.load(Ordering::SeqCst) - before)
}

#[derive(Debug, Clone, Copy)]
struct Costs {
    clone: u64,
    capture: u64,
    execute: u64,
}

/// A durable database over `r` base facts, checkpointed the way a server
/// is seeded, then the bytes of each operation under test. A write's cost
/// is the median of several, so a chunk or shard boundary that one write
/// happens to cross does not decide the figure.
fn costs(r: usize) -> Costs {
    let (mut d, _) = DurableDatabase::open(
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
    )
    .expect("fresh storage opens");
    d.declare_relation("Orders", 3).expect("declares");
    for i in 0..r {
        let (order, part, qty) = (i.to_string(), (i % 64).to_string(), (i % 19).to_string());
        d.db_mut()
            .load_fact("Orders", &[&order, &part, &qty])
            .expect("loads");
    }
    d.checkpoint().expect("checkpoints");
    let mut write = 0;
    let mut execute = |d: &mut DurableDatabase<MemStorage>| {
        write += 1;
        let src = format!("INSERT Orders(w{write}, 32, 1) WHERE T");
        allocated(|| d.execute(&src).expect("update applies")).1
    };
    for _ in 0..4 {
        execute(&mut d);
    }
    let mut writes: Vec<u64> = (0..9).map(|_| execute(&mut d)).collect();
    writes.sort_unstable();
    let (copy, clone) = allocated(|| d.db().theory().clone());
    drop(copy);
    let (snapshot, capture) = allocated(|| TheorySnapshot::capture(d.db().theory()));
    drop(snapshot);
    Costs {
        clone,
        capture,
        execute: writes[writes.len() / 2],
    }
}

#[test]
fn clone_capture_and_write_cost_do_not_grow_with_the_store() {
    let small = costs(1 << 10);
    let large = costs(1 << 16);
    eprintln!("bytes allocated at R = 2^10: {small:?}; at R = 2^16: {large:?}");
    for (what, s, l) in [
        ("Theory::clone", small.clone, large.clone),
        ("TheorySnapshot::capture", small.capture, large.capture),
        ("DurableDatabase::execute", small.execute, large.execute),
    ] {
        assert!(
            l <= 2 * s,
            "{what} allocates {l} B at R = 2^16 against {s} B at R = 2^10 \
             (small {small:?}, large {large:?})"
        );
    }
}
