//! Encoding a reply allocates per reply, not per atom.
//!
//! An `Explain` reply carries two worlds of about R atoms each. The JSON
//! encoder writes them straight into one output string, so the only
//! allocations are that string's growth steps, logarithmic in its length.
//! An encoder that built an intermediate value tree would allocate at
//! least twice per atom (a tree node and a copy of the string).
//!
//! This file holds a single test so the counting allocator sees no other
//! test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use winslett_serve::{ExplainReply, Response, WireVerdict};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// An `Explain` reply whose witness and counterexample hold `n` atoms
/// each, shaped like the `Orders(order,part,qty)` worlds a server returns.
fn reply(n: usize) -> Response {
    let world = |flip: usize| -> Vec<String> {
        (0..n)
            .map(|i| format!("Orders({i},{},{})", i % 97, (i + flip) % 13))
            .collect()
    };
    Response::Explained(ExplainReply {
        verdict: WireVerdict::Uncertain,
        witness: Some(world(0)),
        counterexample: Some(world(1)),
        generation: 42,
    })
}

/// Allocations made by one encode of `value`, and the encoded length.
fn encode_allocations(value: &Response) -> (usize, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let text = serde_json::to_string(value).expect("encodes");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (made, text.len())
}

#[test]
fn encoding_an_explain_reply_allocates_independently_of_its_atom_count() {
    let small = reply(256);
    let large = reply(4096);
    // Warm up once so lazily initialised runtime state is not counted.
    encode_allocations(&small);
    let (small_allocs, small_len) = encode_allocations(&small);
    let (large_allocs, large_len) = encode_allocations(&large);
    assert!(
        large_len > 15 * small_len,
        "{small_len} vs {large_len} bytes"
    );
    assert!(
        large_allocs <= small_allocs + 16,
        "encoding 2×4096 atoms made {large_allocs} allocations, 2×256 made {small_allocs}: \
         the encoder allocates per atom"
    );
}
