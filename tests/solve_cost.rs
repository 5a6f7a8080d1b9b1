//! The O(query) read path, checked in solver propagations rather than
//! seconds.
//!
//! A snapshot reader's session holds one root assignment per stored unit
//! fact. The solver keeps that root trail propagated between calls, so a
//! `decide` on a warm session propagates only what its own assumptions and
//! decisions imply: at R = 2¹⁴ base facts it must do at most 2× the
//! propagations it does at R = 2¹⁰. Propagation counts are deterministic,
//! so unlike a timing window this cannot flake. A solver that re-propagated
//! the root trail on every solve would grow with R.

use winslett::db::{DbOptions, LogicalDatabase, Workload};
use winslett::logic::Wff;

/// Propagations of one warm `decide` of a fixed wff over a store of `r`
/// base facts plus a fixed number of branching inserts.
fn warm_decide_propagations(r: usize) -> u64 {
    let (theory, _) = Workload::new(0x5017).orders_theory(r);
    let mut db = LogicalDatabase::from_theory(theory, DbOptions::default());
    for i in 0..4 {
        db.execute(&format!(
            "INSERT Orders(b{i},32,1) | Orders(b{i},32,7) WHERE T"
        ))
        .unwrap();
    }
    let wff: Wff = db
        .parse_wff_strict(
            "(Orders(b0,32,1) | Orders(b1,32,7)) & !Orders(b2,32,1) & Orders(100,32,1)",
        )
        .unwrap();
    let mut session = db.theory().fresh_entailment_session();
    // Warm: the wff's activation literal is encoded and solved once.
    assert_eq!(session.decide(&wff), (true, false));
    let before = session.solver_mut().propagations;
    assert_eq!(session.decide(&wff), (true, false));
    session.solver_mut().propagations - before
}

#[test]
fn warm_decide_propagations_do_not_grow_with_the_store() {
    let small = warm_decide_propagations(1 << 10);
    let large = warm_decide_propagations(1 << 14);
    assert!(small > 0, "the probe must exercise propagation");
    assert!(
        large <= 2 * small,
        "warm decide propagations grew with R: {small} at R = 2^10, {large} at R = 2^14"
    );
}
