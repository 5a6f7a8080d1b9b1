//! Building the seeded store: the same facts either as a checkpointed
//! directory the server recovers from, or as an in-memory database the
//! checks replay against.

use crate::gen::Store;
use std::path::Path;
use winslett_core::{
    DbError, DbOptions, DirStorage, DurableDatabase, LogicalDatabase, SyncPolicy, WalOptions,
};

fn load(db: &mut LogicalDatabase, store: &Store) -> Result<(), DbError> {
    for o in &store.orders {
        let (a, b, c) = (o.order.to_string(), o.part.to_string(), o.qty.to_string());
        db.load_fact("Orders", &[&a, &b, &c])?;
    }
    for (p, b) in &store.stock {
        db.load_fact("InStock", &[&p.to_string(), &b.to_string()])?;
    }
    for s in &store.statements {
        db.execute(s)?;
    }
    Ok(())
}

/// The seeded state as a plain in-memory database.
pub fn in_memory(store: &Store) -> Result<LogicalDatabase, DbError> {
    let mut db = LogicalDatabase::with_options(DbOptions::default());
    db.declare_relation("Orders", 3)?;
    db.declare_relation("InStock", 2)?;
    load(&mut db, store)?;
    Ok(db)
}

/// Writes the seeded state to `dir` as a checkpoint. The declarations are
/// journaled, so the checkpoint sits past LSN 0 and a replica subscribing
/// from 0 bootstraps from it; the facts go straight into the in-memory
/// state the checkpoint folds (journaling 16 k loads one by one would
/// cost O(R²) and measure nothing the workloads send).
pub fn checkpoint_dir(dir: &Path, store: &Store) -> Result<(), DbError> {
    let storage = DirStorage::new(dir)?;
    let wal = WalOptions {
        policy: SyncPolicy::Manual,
        ..WalOptions::default()
    };
    let (mut d, _) = DurableDatabase::open(storage, DbOptions::default(), wal)?;
    d.declare_relation("Orders", 3)?;
    d.declare_relation("InStock", 2)?;
    load(d.db_mut(), store)?;
    d.checkpoint()?;
    d.close()?;
    Ok(())
}

/// Opens `dir` the way the server does (shipped defaults).
pub fn reopen(dir: &Path) -> Result<DurableDatabase<DirStorage>, DbError> {
    let storage = DirStorage::new(dir)?;
    let (d, _) = DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())?;
    Ok(d)
}

/// `(possible, certain)` of a ground wff.
pub fn decide(db: &mut LogicalDatabase, src: &str) -> Result<(bool, bool), DbError> {
    Ok((db.is_possible(src)?, db.is_certain(src)?))
}
