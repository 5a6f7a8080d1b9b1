//! The O(changed) re-pin, checked in counts rather than seconds.
//!
//! `SnapshotReader::advance` loads only the difference between its
//! snapshot and the next one. Once a reader has advanced (its first
//! advance rebuilds it with spare atom variables), advancing across one
//! g = 1 INSERT of a fresh
//! tuple must load no more items (guarded formulas and pinned-false atoms,
//! plus retractions) at R = 2¹⁴ base facts than at R = 2¹⁰, where a fresh
//! build loads one item per fact. A warm `decide` on the advanced reader
//! must then do at most 2× the solver propagations at R = 2¹⁴ as at
//! R = 2¹⁰, the bound `tests/solve_cost.rs` sets for a freshly built
//! session. Both counts are deterministic, so this cannot flake.

use winslett::db::{DbOptions, LogicalDatabase, TheorySnapshot, Workload};

/// Items one advance across a fresh INSERT loads, and the propagations of
/// a warm `decide` on the advanced reader, over `r` base facts.
fn advance_cost(r: usize) -> (u64, u64) {
    let (theory, _) = Workload::new(0x5017).orders_theory(r);
    let mut db = LogicalDatabase::from_theory(theory, DbOptions::default());
    for i in 0..4 {
        db.execute(&format!(
            "INSERT Orders(b{i},32,1) | Orders(b{i},32,7) WHERE T"
        ))
        .unwrap();
    }
    let mut reader = TheorySnapshot::capture(db.theory()).reader();
    assert_eq!(reader.decide("Orders(b0,32,1)").unwrap(), (true, false));
    // A reader's first advance rebuilds it with spare atom variables.
    db.execute("INSERT Orders(n0,32,1) WHERE T").unwrap();
    reader = reader.advance(TheorySnapshot::capture(db.theory()));
    assert_eq!(reader.session_stats().rebuilds, 1);

    db.execute("INSERT Orders(n1,32,1) WHERE T").unwrap();
    let before = reader.session_stats();
    reader = reader.advance(TheorySnapshot::capture(db.theory()));
    let after = reader.session_stats();
    assert_eq!(after.advances, before.advances + 1, "the re-pin advanced");
    assert_eq!(
        after.rebuilds, before.rebuilds,
        "the re-pin did not rebuild"
    );
    let loaded =
        after.guarded_items - before.guarded_items + after.retractions - before.retractions;

    let probe = "(Orders(b0,32,1) | Orders(b1,32,7)) & !Orders(b2,32,1) & Orders(n1,32,1)";
    // Warm: the probe's activation literal is encoded and solved once.
    assert_eq!(reader.decide(probe).unwrap(), (true, false));
    let start = reader.propagations();
    assert_eq!(reader.decide(probe).unwrap(), (true, false));
    (loaded, reader.propagations() - start)
}

#[test]
fn an_advance_costs_what_changed_not_the_store() {
    let (small_items, small_props) = advance_cost(1 << 10);
    let (large_items, large_props) = advance_cost(1 << 14);
    assert!(small_items > 0, "the insert must load something");
    assert!(
        large_items <= small_items,
        "advance loaded {small_items} items at R = 2^10, {large_items} at R = 2^14"
    );
    assert!(small_props > 0, "the probe must exercise propagation");
    assert!(
        large_props <= 2 * small_props,
        "warm decide propagations grew with R: {small_props} at R = 2^10, \
         {large_props} at R = 2^14"
    );
}
