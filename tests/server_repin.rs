//! Re-pinning a connection moves its reader to the new generation.
//!
//! A connection that already holds a pinned reader and pins again keeps
//! the reader and advances it (`SnapshotReader::advance`): on the epoll
//! core the first read after the pin does it on a solver worker, on the
//! threaded core and on a replica connection the pin itself does. Each
//! path must answer exactly what a fresh reader of the new snapshot
//! would. A read-your-writes loop drives each of them: write on the
//! primary, re-pin (on the primary, or `PinAt` the acknowledged LSN on a
//! replica), check the written tuple and every earlier one, with inserts
//! of fresh tuples, deletes of tuples inserted earlier in the loop and a
//! delete of a base fact, on both I/O cores. A pin held across later
//! writes must keep answering at its own generation.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use winslett::db::{DbError, DbOptions, MemStorage, WalOptions};
use winslett_serve::{
    Client, ClientError, ErrorKindWire, Replica, ReplicaHandle, ReplicaOptions, Server,
    ServerOptions,
};

fn boot(threaded: bool) -> (JoinHandle<Result<MemStorage, DbError>>, SocketAddr) {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions::default(),
        ServerOptions {
            threaded,
            idle_timeout: Duration::from_secs(10),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    (std::thread::spawn(move || server.run()), addr)
}

fn boot_replica(
    primary: SocketAddr,
    threaded: bool,
) -> (ReplicaHandle, JoinHandle<()>, SocketAddr) {
    let replica = Replica::bind(
        ("127.0.0.1", 0),
        primary,
        DbOptions::default(),
        ReplicaOptions {
            threaded,
            idle_timeout: Duration::from_secs(10),
            reconnect_backoff: Duration::from_millis(10),
            ..ReplicaOptions::default()
        },
    )
    .expect("bind replica");
    let addr = replica.local_addr();
    let handle = replica.handle();
    (
        handle,
        std::thread::spawn(move || {
            let _ = replica.run();
        }),
        addr,
    )
}

/// Pins `reader` at `min_lsn`, retrying while a replica lags.
fn pin_at(reader: &mut Client, min_lsn: u64) {
    let start = Instant::now();
    loop {
        match reader.pin_at(min_lsn) {
            Ok(snap) => {
                assert!(snap.last_lsn >= min_lsn);
                return;
            }
            Err(ClientError::Server(e)) if e.kind == ErrorKindWire::LagBehind => {
                assert!(start.elapsed() < Duration::from_secs(10), "stuck at {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("pin_at({min_lsn}): {e}"),
        }
    }
}

/// The read-your-writes loop: `writer` writes on the primary, `reader`
/// re-pins at the acknowledged LSN and checks every tuple the loop has
/// touched, against what the writes imply.
fn drive(writer: &mut Client, reader: &mut Client) {
    writer.declare_relation("Orders", 2).expect("declare");
    for i in 0..64 {
        writer
            .load_fact("Orders", &[&i.to_string(), "1"])
            .expect("load");
    }
    // Every tuple the loop has touched, and whether it now holds.
    let mut expected: Vec<(String, bool)> = vec![("Orders(5,1)".into(), true)];
    let mut live: Vec<String> = Vec::new();
    for round in 0..24 {
        let (tuple, insert) = if round == 10 {
            ("Orders(5,1)".to_string(), false)
        } else if round % 4 == 3 {
            (live.remove(round % live.len()), false)
        } else {
            let tuple = format!("Orders({},2)", 100 + round);
            live.push(tuple.clone());
            (tuple, true)
        };
        let verb = if insert { "INSERT" } else { "DELETE" };
        let lsn = writer
            .execute(&format!("{verb} {tuple} WHERE T"))
            .expect("write")
            .lsn;
        match expected.iter_mut().find(|(t, _)| *t == tuple) {
            Some((_, truth)) => *truth = insert,
            None => expected.push((tuple.clone(), insert)),
        }
        pin_at(reader, lsn);
        for (tuple, truth) in &expected {
            let reply = reader.check(tuple).expect("check");
            assert_eq!(
                (reply.possible, reply.certain),
                (*truth, *truth),
                "{tuple} after round {round}: {verb} {tuple}"
            );
        }
        if round == 12 {
            // A write after the pin stays invisible to it; the next
            // round's re-pin sees it.
            writer.execute("INSERT Orders(7,2) WHERE T").expect("write");
            let reply = reader.check("Orders(7,2)").expect("check");
            assert!(!reply.possible, "a later write leaked into the pin");
            expected.push(("Orders(7,2)".into(), true));
        }
    }
}

#[test]
fn repin_on_the_primary_answers_the_new_generation() {
    for threaded in [false, true] {
        let (server, addr) = boot(threaded);
        let mut writer = Client::connect(addr).expect("connect");
        let mut reader = Client::connect(addr).expect("connect");
        drive(&mut writer, &mut reader);
        drop(reader);
        writer.shutdown().expect("shutdown");
        server.join().expect("join").expect("run");
    }
}

#[test]
fn repin_on_a_replica_answers_the_new_generation() {
    for threaded in [false, true] {
        let (server, addr) = boot(false);
        let (replica, thread, raddr) = boot_replica(addr, threaded);
        let mut writer = Client::connect(addr).expect("connect");
        let mut reader = Client::connect(raddr).expect("connect replica");
        drive(&mut writer, &mut reader);
        drop(reader);
        replica.request_shutdown();
        thread.join().expect("replica join");
        writer.shutdown().expect("shutdown");
        server.join().expect("join").expect("run");
    }
}
