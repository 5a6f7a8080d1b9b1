//! Byte identity of everything the JSON codec, the frame checksum and the
//! world renderer produce.
//!
//! Frames, WAL records and snapshots are persisted or sent to peers built
//! from other revisions, so their bytes are a format, not an
//! implementation detail. The golden strings below were captured from the
//! value-tree encoder this codec replaced; every derive shape, scalar
//! edge case and real wire type must still encode to exactly these bytes,
//! and a WAL written by that encoder must recover unchanged.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use winslett_core::persist::{DependencyDump, HeadDump, TermDump};
use winslett_core::wal::{crc32, UpdateDump};
use winslett_core::{
    DbOptions, DurableDatabase, LogicalDatabase, MemStorage, SyncPolicy, WalEntry, WalOptions,
    WalRecord, WalSnapshot,
};
use winslett_serve::{
    ErrorKindWire, ExecReply, ExplainReply, QueryReply, Request, Response, SnapshotReply,
    StatsReply, TruthReply, TxnReply, WalBatchReply, WireError, WireVerdict,
};
use winslett_theory::Dependency;

// ----- derive shapes ----------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u64,
    label: String,
    ratio: f64,
    tags: Vec<String>,
    parent: Option<Box<Named>>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i64, String);

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Wrapped(String),
    Triple(u8, bool, Vec<u16>),
}

/// Every character class the string escaper treats differently: quotes,
/// backslashes, the named and the `\u` control escapes, DEL (passed
/// through), two- and three-byte characters and astral characters.
const TRICKY: &str = "q\"b\\n\nr\rt\t\u{1}\u{0}\u{8}\u{c}\u{1f}\u{7f} é € 𝄞😀 plain";

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("encodes")
}

// ----- real values ------------------------------------------------------------

fn every_record() -> Vec<WalRecord> {
    let dep = DependencyDump {
        name: "price-fd".into(),
        num_vars: 3,
        body: vec![
            (
                "Price".into(),
                vec![TermDump::V(0), TermDump::V(1), TermDump::C("eur".into())],
            ),
            ("Price".into(), vec![TermDump::V(0), TermDump::V(2)]),
        ],
        head: HeadDump::And(vec![
            HeadDump::Eq(TermDump::V(1), TermDump::V(2)),
            HeadDump::Not(Box::new(HeadDump::Truth(false))),
            HeadDump::Or(vec![
                HeadDump::Atom("Cheap".into(), vec![TermDump::V(1)]),
                HeadDump::Truth(true),
            ]),
        ]),
    };
    vec![
        WalRecord::DeclareAttribute("PartNo".into()),
        WalRecord::DeclareRelation("Orders".into(), 3),
        WalRecord::DeclareTypedRelation("InStock".into(), vec!["PartNo".into(), "Quan".into()]),
        WalRecord::AddDependency(dep),
        WalRecord::LoadFact("Orders".into(), vec!["700".into(), "32".into(), "9".into()]),
        WalRecord::LoadWff("Orders(1,2,3) | !Orders(1,2,4)".into()),
        WalRecord::Apply(UpdateDump::Insert(
            "Orders(100,32,1) | Orders(100,32,7)".into(),
            "T".into(),
        )),
        WalRecord::Apply(UpdateDump::Delete("Orders(700,32,9)".into(), "T".into())),
        WalRecord::Apply(UpdateDump::Modify(
            "Orders(700,32,9)".into(),
            "Orders(700,32,1)".into(),
            "InStock(32,1)".into(),
        )),
        WalRecord::Apply(UpdateDump::Assert("!Orders(1,2,4)".into())),
        WalRecord::Abort(12),
        WalRecord::TxnBegin(13),
        WalRecord::TxnOp(
            13,
            Box::new(WalRecord::Apply(UpdateDump::Insert(
                "Orders(5,6,7)".into(),
                "T".into(),
            ))),
        ),
        WalRecord::TxnCommit(13),
        WalRecord::TxnAbort(u64::MAX),
    ]
}

fn every_entry() -> Vec<WalEntry> {
    every_record()
        .into_iter()
        .enumerate()
        .map(|(i, record)| WalEntry {
            lsn: i as u64 + 1,
            record,
        })
        .collect()
}

/// A small database with branching, so an explain has a witness and a
/// counterexample.
fn explained() -> Response {
    let mut db = LogicalDatabase::new();
    db.declare_relation("Orders", 3).unwrap();
    db.declare_relation("InStock", 2).unwrap();
    db.load_fact("Orders", &["700", "32", "9"]).unwrap();
    db.load_fact("InStock", &["32", "1"]).unwrap();
    db.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
        .unwrap();
    let e = db.explain("Orders(100,32,1)").unwrap();
    Response::Explained(ExplainReply {
        verdict: WireVerdict::Uncertain,
        witness: e.witness,
        counterexample: e.counterexample,
        generation: 4,
    })
}

fn wal_options() -> WalOptions {
    WalOptions {
        policy: SyncPolicy::EveryRecord,
        compact_growth_factor: None,
        compact_min_nodes: 0,
    }
}

/// Runs a fixed script through a durable database: one record of every
/// kind the write path journals, a checkpoint halfway, a committed and a
/// rolled-back transaction after it.
fn scripted_storage() -> MemStorage {
    let (mut ddb, _) =
        DurableDatabase::open(MemStorage::new(), DbOptions::default(), wal_options()).unwrap();
    let part = ddb.declare_attribute("PartNo").unwrap();
    ddb.declare_relation("Orders", 3).unwrap();
    let price = ddb.declare_relation("Price", 2).unwrap();
    ddb.declare_typed_relation("Stock", &[part]).unwrap();
    ddb.add_dependency(Dependency::functional("price-fd", price, 2, &[0]).unwrap())
        .unwrap();
    ddb.load_fact("Orders", &["700", "32", "9"]).unwrap();
    ddb.load_fact("PartNo", &["32"]).unwrap();
    ddb.load_wff("Orders(1,2,3) | Orders(1,2,4)").unwrap();
    ddb.execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
        .unwrap();
    ddb.checkpoint().unwrap();
    ddb.execute("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE T")
        .unwrap();
    ddb.execute("DELETE Orders(1,2,3) WHERE Orders(1,2,4)")
        .unwrap();
    ddb.execute("INSERT Price(widget,10) WHERE T").unwrap();
    let txn = ddb.txn_begin().unwrap();
    ddb.txn_execute(txn, "INSERT Stock(32) WHERE T").unwrap();
    ddb.txn_commit(txn).unwrap();
    let txn = ddb.txn_begin().unwrap();
    ddb.txn_execute(txn, "INSERT Orders(9,9,9) WHERE T")
        .unwrap();
    ddb.txn_rollback(txn).unwrap();
    ddb.execute("ASSERT !Orders(100,32,7)").unwrap();
    ddb.into_storage()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// `(name, encoding)` for every golden case, in table order.
fn cases() -> Vec<(&'static str, String)> {
    let named = Named {
        id: 7,
        label: "top".into(),
        ratio: 0.5,
        tags: vec!["a".into(), String::new()],
        parent: Some(Box::new(Named {
            id: 0,
            label: TRICKY.into(),
            ratio: -2.0,
            tags: Vec::new(),
            parent: None,
        })),
    };
    let storage = scripted_storage();
    let snapshot_text = String::from_utf8(
        storage
            .get(winslett_core::wal::SNAPSHOT_FILE)
            .unwrap()
            .clone(),
    )
    .unwrap();
    let snapshot: WalSnapshot = serde_json::from_str(&snapshot_text).unwrap();
    let (recovered, _) =
        DurableDatabase::open(storage.clone(), DbOptions::default(), wal_options()).unwrap();
    let recovered = recovered.db();
    let stats = StatsReply {
        accepted: 1,
        reads: u64::MAX,
        txn_conflicts: 3,
        ..StatsReply::default()
    };
    vec![
        ("named", json(&named)),
        ("empty_struct", json(&Empty {})),
        ("newtype_struct", json(&Newtype(42))),
        ("tuple_struct", json(&Pair(-5, "x".into()))),
        ("unit_variant", json(&Shape::Unit)),
        ("newtype_variant", json(&Shape::Wrapped("w".into()))),
        (
            "tuple_variant",
            json(&Shape::Triple(255, false, vec![1, 65535])),
        ),
        ("option_none", json(&None::<u8>)),
        ("option_some", json(&Some(3u8))),
        ("vec", json(&vec![1u32, 2, 3])),
        ("empty_vec", json(&Vec::<u32>::new())),
        ("tuple", json(&(1u8, "a".to_string(), true, -1i32))),
        ("u64_max", json(&u64::MAX)),
        ("i64_min", json(&i64::MIN)),
        ("i64_negative", json(&-42i64)),
        ("zero", json(&0usize)),
        ("f64_one", json(&1.0f64)),
        ("f64_tenth", json(&0.1f64)),
        ("f64_1e300", json(&1e300f64)),
        ("f64_tiny", json(&2.5e-8f64)),
        ("f64_negative_zero", json(&-0.0f64)),
        ("f64_nan", json(&f64::NAN)),
        ("f64_infinity", json(&f64::NEG_INFINITY)),
        ("f32", json(&1.5f32)),
        ("string_tricky", json(TRICKY)),
        ("string_empty", json("")),
        (
            "request_execute",
            json(&Request::Execute(
                "INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T".into(),
            )),
        ),
        (
            "request_load_fact",
            json(&Request::LoadFact(
                "Orders".into(),
                vec!["7".into(), "a\"b".into()],
            )),
        ),
        ("request_pin_at", json(&Request::PinAt(9))),
        ("request_ping", json(&Request::Ping)),
        ("response_explained", json(&explained())),
        (
            "response_executed",
            json(&Response::Executed(ExecReply {
                lsn: 3,
                generation: 4,
                nodes_added: -12,
                completion_added: 2,
            })),
        ),
        (
            "response_rows",
            json(&Response::Rows(QueryReply {
                certain: vec![vec!["700".into(), "9".into()]],
                possible: vec![],
                generation: 2,
            })),
        ),
        (
            "response_truth",
            json(&Response::Truth(TruthReply {
                possible: true,
                certain: false,
                generation: 1,
            })),
        ),
        (
            "response_pinned",
            json(&Response::Pinned(SnapshotReply {
                generation: 5,
                updates_applied: 6,
                last_lsn: 7,
            })),
        ),
        ("response_stats", json(&Response::Stats(Box::new(stats)))),
        (
            "response_txn",
            json(&Response::TxnCommitted(TxnReply {
                txn: 3,
                lsn: 9,
                statements: 2,
            })),
        ),
        (
            "response_error",
            json(&Response::Error(WireError {
                kind: ErrorKindWire::TxnTimeout,
                message: TRICKY.into(),
            })),
        ),
        ("response_pong", json(&Response::Pong)),
        (
            "wal_batch",
            json(&Response::WalBatch(WalBatchReply {
                entries: every_entry(),
            })),
        ),
        (
            "wal_heartbeat",
            json(&Response::WalBatch(WalBatchReply {
                entries: Vec::new(),
            })),
        ),
        ("snapshot_file", snapshot_text),
        ("snapshot_compact", json(&snapshot)),
        (
            "snapshot_pretty",
            serde_json::to_string_pretty(&snapshot).unwrap(),
        ),
        (
            "save_theory",
            winslett_core::save_theory(recovered.theory()).unwrap(),
        ),
        ("recovered_worlds", json(&recovered.world_names().unwrap())),
        (
            "wal_file_hex",
            hex(storage.get(winslett_core::wal::WAL_FILE).unwrap()),
        ),
    ]
}

/// The encodings [`cases`] produced with the value-tree encoder, in the
/// same order.
const GOLDEN: &[(&str, &str)] = &[
    ("named", "{\"id\":7,\"label\":\"top\",\"ratio\":0.5,\"tags\":[\"a\",\"\"],\"parent\":{\"id\":0,\"label\":\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u0000\\u0008\\u000c\\u001f\u{7f} é € 𝄞😀 plain\",\"ratio\":-2.0,\"tags\":[],\"parent\":null}}"),
    ("empty_struct", "{}"),
    ("newtype_struct", "42"),
    ("tuple_struct", "[-5,\"x\"]"),
    ("unit_variant", "\"Unit\""),
    ("newtype_variant", "{\"Wrapped\":\"w\"}"),
    ("tuple_variant", "{\"Triple\":[255,false,[1,65535]]}"),
    ("option_none", "null"),
    ("option_some", "3"),
    ("vec", "[1,2,3]"),
    ("empty_vec", "[]"),
    ("tuple", "[1,\"a\",true,-1]"),
    ("u64_max", "18446744073709551615"),
    ("i64_min", "-9223372036854775808"),
    ("i64_negative", "-42"),
    ("zero", "0"),
    ("f64_one", "1.0"),
    ("f64_tenth", "0.1"),
    ("f64_1e300", "1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0"),
    ("f64_tiny", "0.000000025"),
    ("f64_negative_zero", "-0.0"),
    ("f64_nan", "null"),
    ("f64_infinity", "null"),
    ("f32", "1.5"),
    ("string_tricky", "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u0000\\u0008\\u000c\\u001f\u{7f} é € 𝄞😀 plain\""),
    ("string_empty", "\"\""),
    ("request_execute", "{\"Execute\":\"INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T\"}"),
    ("request_load_fact", "{\"LoadFact\":[\"Orders\",[\"7\",\"a\\\"b\"]]}"),
    ("request_pin_at", "{\"PinAt\":9}"),
    ("request_ping", "\"Ping\""),
    ("response_explained", "{\"Explained\":{\"verdict\":\"Uncertain\",\"witness\":[\"InStock(32,1)\",\"Orders(100,32,1)\",\"Orders(700,32,9)\"],\"counterexample\":[\"InStock(32,1)\",\"Orders(100,32,7)\",\"Orders(700,32,9)\"],\"generation\":4}}"),
    ("response_executed", "{\"Executed\":{\"lsn\":3,\"generation\":4,\"nodes_added\":-12,\"completion_added\":2}}"),
    ("response_rows", "{\"Rows\":{\"certain\":[[\"700\",\"9\"]],\"possible\":[],\"generation\":2}}"),
    ("response_truth", "{\"Truth\":{\"possible\":true,\"certain\":false,\"generation\":1}}"),
    ("response_pinned", "{\"Pinned\":{\"generation\":5,\"updates_applied\":6,\"last_lsn\":7}}"),
    ("response_stats", "{\"Stats\":{\"accepted\":1,\"rejected_busy\":0,\"requests\":0,\"updates\":0,\"reads\":18446744073709551615,\"snapshots_published\":0,\"idle_closes\":0,\"protocol_errors\":0,\"write_batches\":0,\"coalesced_writes\":0,\"generation\":0,\"next_lsn\":0,\"wal_records\":0,\"wal_syncs\":0,\"wal_checkpoints\":0,\"pinned_generations\":0,\"retained_generations\":0,\"compactions\":0,\"compaction_aborts\":0,\"compaction_nodes_reclaimed\":0,\"compaction_swap_pause_us\":0,\"compaction_swap_pause_max_us\":0,\"subscribers\":0,\"records_shipped\":0,\"replica_batches\":0,\"replica_records\":0,\"replica_snapshots_loaded\":0,\"replica_reconnects\":0,\"lag_refusals\":0,\"txn_begun\":0,\"txn_committed\":0,\"txn_aborted\":0,\"txn_active\":0,\"lock_waits\":0,\"lock_timeouts\":0,\"txn_conflicts\":3}}"),
    ("response_txn", "{\"TxnCommitted\":{\"txn\":3,\"lsn\":9,\"statements\":2}}"),
    ("response_error", "{\"Error\":{\"kind\":\"TxnTimeout\",\"message\":\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u0000\\u0008\\u000c\\u001f\u{7f} é € 𝄞😀 plain\"}}"),
    ("response_pong", "\"Pong\""),
    ("wal_batch", "{\"WalBatch\":{\"entries\":[{\"lsn\":1,\"record\":{\"DeclareAttribute\":\"PartNo\"}},{\"lsn\":2,\"record\":{\"DeclareRelation\":[\"Orders\",3]}},{\"lsn\":3,\"record\":{\"DeclareTypedRelation\":[\"InStock\",[\"PartNo\",\"Quan\"]]}},{\"lsn\":4,\"record\":{\"AddDependency\":{\"name\":\"price-fd\",\"num_vars\":3,\"body\":[[\"Price\",[{\"V\":0},{\"V\":1},{\"C\":\"eur\"}]],[\"Price\",[{\"V\":0},{\"V\":2}]]],\"head\":{\"And\":[{\"Eq\":[{\"V\":1},{\"V\":2}]},{\"Not\":{\"Truth\":false}},{\"Or\":[{\"Atom\":[\"Cheap\",[{\"V\":1}]]},{\"Truth\":true}]}]}}}},{\"lsn\":5,\"record\":{\"LoadFact\":[\"Orders\",[\"700\",\"32\",\"9\"]]}},{\"lsn\":6,\"record\":{\"LoadWff\":\"Orders(1,2,3) | !Orders(1,2,4)\"}},{\"lsn\":7,\"record\":{\"Apply\":{\"Insert\":[\"Orders(100,32,1) | Orders(100,32,7)\",\"T\"]}}},{\"lsn\":8,\"record\":{\"Apply\":{\"Delete\":[\"Orders(700,32,9)\",\"T\"]}}},{\"lsn\":9,\"record\":{\"Apply\":{\"Modify\":[\"Orders(700,32,9)\",\"Orders(700,32,1)\",\"InStock(32,1)\"]}}},{\"lsn\":10,\"record\":{\"Apply\":{\"Assert\":\"!Orders(1,2,4)\"}}},{\"lsn\":11,\"record\":{\"Abort\":12}},{\"lsn\":12,\"record\":{\"TxnBegin\":13}},{\"lsn\":13,\"record\":{\"TxnOp\":[13,{\"Apply\":{\"Insert\":[\"Orders(5,6,7)\",\"T\"]}}]}},{\"lsn\":14,\"record\":{\"TxnCommit\":13}},{\"lsn\":15,\"record\":{\"TxnAbort\":18446744073709551615}}]}}"),
    ("wal_heartbeat", "{\"WalBatch\":{\"entries\":[]}}"),
    ("snapshot_file", "{\"version\":1,\"lsn\":9,\"theory\":{\"version\":2,\"fresh_counter\":2,\"attributes\":[\"PartNo\"],\"relations\":[[\"Orders\",3,null],[\"Price\",2,null],[\"Stock\",1,[\"PartNo\"]]],\"predicate_constants\":[\"__p0_Orders_100_32_1_\",\"__p1_Orders_100_32_7_\"],\"dependencies\":[{\"name\":\"price-fd\",\"num_vars\":3,\"body\":[[\"Price\",[{\"V\":0},{\"V\":1}]],[\"Price\",[{\"V\":0},{\"V\":2}]]],\"head\":{\"Eq\":[{\"V\":1},{\"V\":2}]}}],\"registered\":[\"Orders(1,2,3)\",\"Orders(1,2,4)\",\"Orders(100,32,1)\",\"Orders(100,32,7)\",\"Orders(700,32,9)\",\"PartNo(32)\"],\"wffs\":[\"Orders(700,32,9)\",\"PartNo(32)\",\"Orders(1,2,3) | Orders(1,2,4)\",\"Orders(100,32,1) | Orders(100,32,7)\"]}}"),
    ("snapshot_compact", "{\"version\":1,\"lsn\":9,\"theory\":{\"version\":2,\"fresh_counter\":2,\"attributes\":[\"PartNo\"],\"relations\":[[\"Orders\",3,null],[\"Price\",2,null],[\"Stock\",1,[\"PartNo\"]]],\"predicate_constants\":[\"__p0_Orders_100_32_1_\",\"__p1_Orders_100_32_7_\"],\"dependencies\":[{\"name\":\"price-fd\",\"num_vars\":3,\"body\":[[\"Price\",[{\"V\":0},{\"V\":1}]],[\"Price\",[{\"V\":0},{\"V\":2}]]],\"head\":{\"Eq\":[{\"V\":1},{\"V\":2}]}}],\"registered\":[\"Orders(1,2,3)\",\"Orders(1,2,4)\",\"Orders(100,32,1)\",\"Orders(100,32,7)\",\"Orders(700,32,9)\",\"PartNo(32)\"],\"wffs\":[\"Orders(700,32,9)\",\"PartNo(32)\",\"Orders(1,2,3) | Orders(1,2,4)\",\"Orders(100,32,1) | Orders(100,32,7)\"]}}"),
    ("snapshot_pretty", "{\n  \"version\": 1,\n  \"lsn\": 9,\n  \"theory\": {\n    \"version\": 2,\n    \"fresh_counter\": 2,\n    \"attributes\": [\n      \"PartNo\"\n    ],\n    \"relations\": [\n      [\n        \"Orders\",\n        3,\n        null\n      ],\n      [\n        \"Price\",\n        2,\n        null\n      ],\n      [\n        \"Stock\",\n        1,\n        [\n          \"PartNo\"\n        ]\n      ]\n    ],\n    \"predicate_constants\": [\n      \"__p0_Orders_100_32_1_\",\n      \"__p1_Orders_100_32_7_\"\n    ],\n    \"dependencies\": [\n      {\n        \"name\": \"price-fd\",\n        \"num_vars\": 3,\n        \"body\": [\n          [\n            \"Price\",\n            [\n              {\n                \"V\": 0\n              },\n              {\n                \"V\": 1\n              }\n            ]\n          ],\n          [\n            \"Price\",\n            [\n              {\n                \"V\": 0\n              },\n              {\n                \"V\": 2\n              }\n            ]\n          ]\n        ],\n        \"head\": {\n          \"Eq\": [\n            {\n              \"V\": 1\n            },\n            {\n              \"V\": 2\n            }\n          ]\n        }\n      }\n    ],\n    \"registered\": [\n      \"Orders(1,2,3)\",\n      \"Orders(1,2,4)\",\n      \"Orders(100,32,1)\",\n      \"Orders(100,32,7)\",\n      \"Orders(700,32,9)\",\n      \"PartNo(32)\"\n    ],\n    \"wffs\": [\n      \"Orders(700,32,9)\",\n      \"PartNo(32)\",\n      \"Orders(1,2,3) | Orders(1,2,4)\",\n      \"Orders(100,32,1) | Orders(100,32,7)\"\n    ]\n  }\n}"),
    ("save_theory", "{\n  \"version\": 2,\n  \"fresh_counter\": 8,\n  \"attributes\": [\n    \"PartNo\"\n  ],\n  \"relations\": [\n    [\n      \"Orders\",\n      3,\n      null\n    ],\n    [\n      \"Price\",\n      2,\n      null\n    ],\n    [\n      \"Stock\",\n      1,\n      [\n        \"PartNo\"\n      ]\n    ]\n  ],\n  \"predicate_constants\": [\n    \"__p0_Orders_100_32_1_\",\n    \"__p1_Orders_100_32_7_\",\n    \"__p2_Orders_700_32_9_\",\n    \"__p3_Orders_700_32_1_\",\n    \"__p4_Orders_1_2_3_\",\n    \"__p5_Price_widget_10_\",\n    \"__p6_PartNo_32_\",\n    \"__p7_Stock_32_\"\n  ],\n  \"dependencies\": [\n    {\n      \"name\": \"price-fd\",\n      \"num_vars\": 3,\n      \"body\": [\n        [\n          \"Price\",\n          [\n            {\n              \"V\": 0\n            },\n            {\n              \"V\": 1\n            }\n          ]\n        ],\n        [\n          \"Price\",\n          [\n            {\n              \"V\": 0\n            },\n            {\n              \"V\": 2\n            }\n          ]\n        ]\n      ],\n      \"head\": {\n        \"Eq\": [\n          {\n            \"V\": 1\n          },\n          {\n            \"V\": 2\n          }\n        ]\n      }\n    }\n  ],\n  \"registered\": [\n    \"Orders(1,2,3)\",\n    \"Orders(1,2,4)\",\n    \"Orders(100,32,1)\",\n    \"Orders(100,32,7)\",\n    \"Orders(700,32,1)\",\n    \"Orders(700,32,9)\",\n    \"PartNo(32)\",\n    \"Price(widget,10)\",\n    \"Stock(32)\"\n  ],\n  \"wffs\": [\n    \"Orders(1,2,4) & __p4_Orders_1_2_3_ -> !Orders(1,2,3)\",\n    \"__p4_Orders_1_2_3_ | Orders(1,2,4)\",\n    \"!Orders(100,32,7)\",\n    \"!(Orders(1,2,4) & __p4_Orders_1_2_3_) -> (Orders(1,2,3) <-> __p4_Orders_1_2_3_)\",\n    \"Orders(100,32,1)\",\n    \"!Orders(700,32,9)\",\n    \"Orders(700,32,1)\",\n    \"Price(widget,10)\",\n    \"PartNo(32)\",\n    \"Stock(32)\"\n  ]\n}"),
    ("recovered_worlds", "[[\"Orders(1,2,3)\",\"Orders(100,32,1)\",\"Orders(700,32,1)\",\"PartNo(32)\",\"Price(widget,10)\",\"Stock(32)\"],[\"Orders(1,2,4)\",\"Orders(100,32,1)\",\"Orders(700,32,1)\",\"PartNo(32)\",\"Price(widget,10)\",\"Stock(32)\"]]"),
    ("wal_file_hex", "5757414c0100000053000000bce7cabb7b226c736e223a392c227265636f7264223a7b224170706c79223a7b224d6f64696679223a5b224f7264657273283730302c33322c3929222c224f7264657273283730302c33322c3129222c2254225d7d7d7d4a0000006adee3d87b226c736e223a31302c227265636f7264223a7b224170706c79223a7b2244656c657465223a5b224f726465727328312c322c3329222c224f726465727328312c322c3429225d7d7d7d410000000a3679c37b226c736e223a31312c227265636f7264223a7b224170706c79223a7b22496e73657274223a5b225072696365287769646765742c313029222c2254225d7d7d7d2300000015cf25e77b226c736e223a31322c227265636f7264223a7b2254786e426567696e223a31327d7d56000000450f5d3a7b226c736e223a31332c227265636f7264223a7b2254786e4f70223a5b31322c7b224170706c79223a7b22496e73657274223a5b2253746f636b28333229202620506172744e6f28333229222c2254225d7d7d5d7d7d2400000028f9121c7b226c736e223a31342c227265636f7264223a7b2254786e436f6d6d6974223a31327d7d23000000169fbf307b226c736e223a31352c227265636f7264223a7b2254786e426567696e223a31357d7d4d000000c99ba0717b226c736e223a31362c227265636f7264223a7b2254786e4f70223a5b31352c7b224170706c79223a7b22496e73657274223a5b224f726465727328392c392c3929222c2254225d7d7d5d7d7d2300000009983ecf7b226c736e223a31372c227265636f7264223a7b2254786e41626f7274223a31357d7d3c000000d8c499eb7b226c736e223a31382c227265636f7264223a7b224170706c79223a7b22417373657274223a22214f7264657273283130302c33322c3729227d7d7d"),
];

#[test]
fn every_case_encodes_to_its_golden_bytes() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, got), (golden_name, want)) in cases.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "case table out of order");
        assert_eq!(got, want, "case `{name}` changed its bytes");
    }
}

fn golden(name: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
        .unwrap_or_else(|| panic!("no golden case `{name}`"))
}

/// Decoding a golden document and encoding it again reproduces it, so
/// decode and encode agree on every shape.
#[test]
fn golden_documents_decode_and_reencode_identically() {
    fn again<T: Serialize + Deserialize>(name: &str) {
        let text = golden(name);
        let value: T = serde_json::from_str(text).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        assert_eq!(json(&value), text, "`{name}` did not survive a round trip");
    }
    again::<Named>("named");
    again::<Empty>("empty_struct");
    again::<Newtype>("newtype_struct");
    again::<Pair>("tuple_struct");
    for name in ["unit_variant", "newtype_variant", "tuple_variant"] {
        again::<Shape>(name);
    }
    again::<(u8, String, bool, i32)>("tuple");
    again::<u64>("u64_max");
    again::<i64>("i64_min");
    again::<String>("string_tricky");
    for name in [
        "f64_one",
        "f64_tenth",
        "f64_1e300",
        "f64_tiny",
        "f64_negative_zero",
    ] {
        again::<f64>(name);
    }
    for name in [
        "request_execute",
        "request_load_fact",
        "request_pin_at",
        "request_ping",
    ] {
        again::<Request>(name);
    }
    for name in [
        "response_explained",
        "response_executed",
        "response_rows",
        "response_truth",
        "response_pinned",
        "response_stats",
        "response_txn",
        "response_error",
        "response_pong",
        "wal_batch",
        "wal_heartbeat",
    ] {
        again::<Response>(name);
    }
    again::<WalSnapshot>("snapshot_file");
    let pretty: WalSnapshot = serde_json::from_str(golden("snapshot_pretty")).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&pretty).unwrap(),
        golden("snapshot_pretty")
    );
}

/// A WAL and snapshot written by the value-tree encoder recover to the
/// same worlds and the same dump.
#[test]
fn a_wal_written_by_the_value_tree_encoder_recovers_unchanged() {
    let mut storage = MemStorage::new();
    storage.put(winslett_core::wal::WAL_FILE, unhex(golden("wal_file_hex")));
    storage.put(
        winslett_core::wal::SNAPSHOT_FILE,
        golden("snapshot_file").as_bytes().to_vec(),
    );
    let (ddb, report) =
        DurableDatabase::open(storage, DbOptions::default(), wal_options()).unwrap();
    assert_eq!(report.replay_error, None);
    assert_eq!(
        json(&ddb.db().world_names().unwrap()),
        golden("recovered_worlds")
    );
    assert_eq!(
        winslett_core::save_theory(ddb.db().theory()).unwrap(),
        golden("save_theory")
    );
}

// ----- round trips over random values ------------------------------------------

/// Characters from every escape class, so random strings exercise each.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', '€', '\u{ffff}', '𝄞', '😀',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..PALETTE.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(text(), 0..5)
}

fn maybe_texts() -> impl Strategy<Value = Option<Vec<String>>> {
    (any::<bool>(), texts()).prop_map(|(some, t)| some.then_some(t))
}

fn leaf_record() -> BoxedStrategy<WalRecord> {
    prop_oneof![
        text().prop_map(WalRecord::DeclareAttribute),
        (text(), any::<usize>()).prop_map(|(n, a)| WalRecord::DeclareRelation(n, a)),
        (text(), texts()).prop_map(|(n, a)| WalRecord::DeclareTypedRelation(n, a)),
        (text(), texts()).prop_map(|(n, a)| WalRecord::LoadFact(n, a)),
        text().prop_map(WalRecord::LoadWff),
        (text(), text()).prop_map(|(o, p)| WalRecord::Apply(UpdateDump::Insert(o, p))),
        (text(), text()).prop_map(|(t, p)| WalRecord::Apply(UpdateDump::Delete(t, p))),
        (text(), text(), text())
            .prop_map(|(t, o, p)| WalRecord::Apply(UpdateDump::Modify(t, o, p))),
        text().prop_map(|p| WalRecord::Apply(UpdateDump::Assert(p))),
        (text(), any::<u16>(), text()).prop_map(|(name, v, c)| {
            WalRecord::AddDependency(DependencyDump {
                name,
                num_vars: v,
                body: vec![(c.clone(), vec![TermDump::V(v), TermDump::C(c)])],
                head: HeadDump::Not(Box::new(HeadDump::Truth(v % 2 == 0))),
            })
        }),
        any::<u64>().prop_map(WalRecord::Abort),
        any::<u64>().prop_map(WalRecord::TxnBegin),
        any::<u64>().prop_map(WalRecord::TxnCommit),
        any::<u64>().prop_map(WalRecord::TxnAbort),
    ]
    .boxed()
}

fn entry() -> impl Strategy<Value = WalEntry> {
    let record = prop_oneof![
        leaf_record(),
        (any::<u64>(), leaf_record()).prop_map(|(t, r)| WalRecord::TxnOp(t, Box::new(r))),
    ];
    (any::<u64>(), record).prop_map(|(lsn, record)| WalEntry { lsn, record })
}

fn response() -> impl Strategy<Value = Response> {
    let verdict = prop_oneof![
        Just(WireVerdict::Certain),
        Just(WireVerdict::Uncertain),
        Just(WireVerdict::Impossible),
        Just(WireVerdict::Inconsistent),
    ];
    prop_oneof![
        (verdict, maybe_texts(), maybe_texts(), any::<u64>()).prop_map(|(v, w, c, g)| {
            Response::Explained(ExplainReply {
                verdict: v,
                witness: w,
                counterexample: c,
                generation: g,
            })
        }),
        (any::<u64>(), any::<u64>(), any::<i64>(), any::<u64>()).prop_map(|(l, g, n, c)| {
            Response::Executed(ExecReply {
                lsn: l,
                generation: g,
                nodes_added: n,
                completion_added: c,
            })
        }),
        (prop::collection::vec(texts(), 0..3), any::<u64>()).prop_map(|(rows, g)| {
            Response::Rows(QueryReply {
                certain: rows.clone(),
                possible: rows,
                generation: g,
            })
        }),
        (any::<bool>(), any::<bool>(), any::<u64>()).prop_map(|(p, c, g)| {
            Response::Truth(TruthReply {
                possible: p,
                certain: c,
                generation: g,
            })
        }),
        prop::collection::vec(entry(), 0..4)
            .prop_map(|entries| Response::WalBatch(WalBatchReply { entries })),
        text().prop_map(|message| Response::Error(WireError {
            kind: ErrorKindWire::Parse,
            message,
        })),
        Just(Response::Pong),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn responses_round_trip(r in response()) {
        let text = json(&r);
        let back: Response = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(json(&back), text);
    }

    #[test]
    fn wal_entries_round_trip(e in entry()) {
        let text = json(&e);
        let back: WalEntry = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        prop_assert_eq!(&back, &e);
        prop_assert_eq!(json(&back), text);
    }
}

// ----- checksum ----------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) one bit at a time: the definition the
/// table-driven checksum must agree with.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[test]
fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the standard check value");
    let mut state = 0x9E37_79B9u32;
    let data: Vec<u8> = (0..1024 + 8)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state as u8
        })
        .collect();
    for offset in 0..8 {
        for len in 0..=1024 {
            let slice = &data[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bitwise(slice),
                "length {len} at offset {offset}"
            );
        }
    }
}

// ----- world rendering -----------------------------------------------------------

#[test]
fn format_world_matches_sorted_display_strings() {
    use winslett_logic::{AtomId, BitSet};
    use winslett_theory::Theory;

    let mut t = Theory::new();
    let r = t.declare_relation("Orders", 3).unwrap();
    let s = t.declare_relation("S", 1).unwrap();
    let names = ["700", "32", "9", "a", "B", "zz", "10"];
    let consts: Vec<_> = names.iter().map(|n| t.constant(n)).collect();
    let mut atoms = Vec::new();
    for (i, &a) in consts.iter().enumerate() {
        atoms.push(t.atom(s, &[a]));
        for (j, &b) in consts.iter().enumerate() {
            atoms.push(t.atom(r, &[a, b, consts[(i * j) % consts.len()]]));
        }
    }
    for _ in 0..3 {
        let p = t.vocab.fresh_predicate_constant();
        atoms.push(t.atom(p, &[]));
    }
    let n = t.num_atoms();
    let mut state = 0x2545_F491u32;
    for round in 0..32 {
        let mut world = BitSet::zeros(n);
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            world.set(i, round == 0 || state.is_multiple_of(3));
        }
        let mut want: Vec<String> = world
            .ones()
            .map(|i| {
                t.atoms
                    .resolve(AtomId(i as u32))
                    .display(&t.vocab)
                    .to_string()
            })
            .collect();
        want.sort();
        assert_eq!(t.format_world(&world), want, "round {round}");
    }
    assert!(t.format_world(&BitSet::zeros(n)).is_empty());
    let all = t.format_world(&{
        let mut w = BitSet::zeros(n);
        for a in &atoms {
            w.set(a.index(), true);
        }
        w
    });
    assert!(
        all.iter().any(|a| a.starts_with("__p")),
        "nullary atoms rendered: {all:?}"
    );
}
