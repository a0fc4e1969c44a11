//! End-to-end service tests: application execution, replication, the
//! read-only fast path, forwarding & session consistency, script apps and
//! live code updates, failure handling.

use ccf_consensus::invariants::InvariantChecker;
use ccf_consensus::message::{AppendEntries, Message, ReplicatedEntry};
use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::node::CcfNode;
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_ledger::entry::EntryKind;
use ccf_ledger::files::LedgerChunk;
use ccf_ledger::LedgerEntry;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

fn logging_app() -> Application {
    Application::new("logging v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"stored".to_vec())
        }))
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("no such message"),
            }
        }))
        .endpoint(EndpointDef::write("POST", "/log_public", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_public("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"stored".to_vec())
        }))
        .endpoint(EndpointDef::write("POST", "/log_both", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            ctx.put_public("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"stored".to_vec())
        }))
}

fn start_open(seed: u64, nodes: usize) -> ServiceCluster {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes, members: 3, seed, ..ServiceOpts::default() },
        Arc::new(logging_app()),
    );
    service.open_service();
    service
}

#[test]
fn write_then_read_across_all_nodes() {
    let mut service = start_open(10, 3);
    let resp = service.user_request(0, "POST", "/log", b"42=hello world");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    // Reads are served by EVERY node (including backups), §3.4 / §6.3.
    for i in 0..3 {
        let resp = service.user_request(i, "GET", "/log?id=42", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "hello world");
        // Read responses carry the last-applied txid, not a new one.
        assert!(resp.txid.is_some());
    }
    // Missing key → 404 with app message.
    let resp = service.user_request(1, "GET", "/log?id=999", b"");
    assert_eq!(resp.status, 404);
}

#[test]
fn service_not_open_rejects_users() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 11, ..ServiceOpts::default() },
        Arc::new(logging_app()),
    );
    let resp = service.user_request(0, "POST", "/log", b"1=x");
    assert_eq!(resp.status, 503);
    service.open_service();
    let resp = service.user_request(0, "POST", "/log", b"1=x");
    assert_eq!(resp.status, 200);
}

#[test]
fn unknown_users_rejected() {
    let mut service = start_open(12, 1);
    let resp = service.user_request_as("mallory", 0, "POST", "/log", b"1=x");
    assert_eq!(resp.status, 403);
    let resp = service.user_request_as("user1", 0, "POST", "/log", b"1=x");
    assert_eq!(resp.status, 200);
}

#[test]
fn writes_forward_to_primary_and_sessions_stick() {
    let mut service = start_open(13, 3);
    let primary = service.primary().unwrap();
    let backup_idx = service.nodes.keys().position(|id| *id != primary).unwrap();
    let session = service.open_session(backup_idx);
    // A write through a backup is forwarded (§4.3).
    let resp = service.session_request(session, "POST", "/log", b"7=via backup");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    // Subsequent reads on the same session follow to the primary.
    let resp = service.session_request(session, "GET", "/log?id=7", b"");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "via backup");
}

#[test]
fn session_terminates_on_primary_change() {
    let mut service = start_open(14, 3);
    let session = service.open_session(0);
    let resp = service.session_request(session, "POST", "/log", b"1=x");
    assert_eq!(resp.status, 200);
    let old_primary = service.primary().unwrap();
    service.crash(&old_primary);
    assert!(service.run_until(30_000, |c| {
        c.primary().is_some_and(|p| p != old_primary)
    }));
    // The pinned session must terminate, not silently switch (§4.3).
    let resp = service.session_request(session, "GET", "/log?id=1", b"");
    assert_eq!(resp.status, 503);
    // A fresh session works against the new primary.
    let resp = service.user_request(0, "POST", "/log", b"2=y");
    assert_eq!(resp.status, 200, "{}", resp.text());
}

#[test]
fn primary_is_the_self_declared_primary_of_the_highest_view() {
    // A primary cut off from its quorum keeps calling itself primary until
    // its leadership-ack window runs out, here longer than the test: each
    // partition below leaves two self-declared primaries. Seed 1 makes
    // the second partition's stale primary the one with the later id and
    // as many role changes as the new primary.
    let mut opts = ServiceOpts { nodes: 3, members: 3, seed: 1, ..ServiceOpts::default() };
    opts.consensus.leadership_ack_window = 60_000;
    let mut service = ServiceCluster::start(opts, Arc::new(logging_app()));
    service.open_service();
    for _ in 0..2 {
        let stale = service.primary().expect("primary");
        let others: BTreeSet<String> =
            service.nodes.keys().filter(|id| **id != stale).cloned().collect();
        service.net.partition(vec![[stale.clone()].into(), others]);
        let elected = |c: &ServiceCluster| {
            c.nodes.iter().find(|(id, n)| **id != stale && n.is_primary()).map(|(id, _)| id.clone())
        };
        assert!(service.run_until(10_000, |c| elected(c).is_some()), "no primary elected");
        let new = elected(&service).unwrap();
        assert!(service.nodes[&stale].is_primary(), "{stale} stepped down early");
        assert!(service.nodes[&new].view() > service.nodes[&stale].view());
        assert_eq!(service.primary(), Some(new), "stale {stale} chosen");
        service.net.heal();
        assert!(service.run_until(10_000, |c| !c.nodes[&stale].is_primary()));
        service.run_for(500);
    }
}

#[test]
fn user_request_as_skips_a_crashed_node() {
    let mut service = start_open(42, 3);
    let old_primary = service.primary().unwrap();
    let old_idx = service.nodes.keys().position(|id| *id == old_primary).unwrap();
    let old_view = service.user_request(0, "POST", "/log", b"1=x").txid.unwrap().view;
    service.crash(&old_primary);
    assert!(service.run_until(30_000, |c| c.primary().is_some_and(|p| p != old_primary)));
    // The crashed node still believes it is primary; a request routed to
    // it would get a txid from the dead view that never commits. Like
    // `user_request`, a named user's request must reach a live primary.
    let resp = service.user_request_as("user1", old_idx, "POST", "/log", b"2=y");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let txid = resp.txid.unwrap();
    assert!(txid.view > old_view, "{txid} was served by the crashed view-{old_view} primary");
    service.run_until_committed(txid);
}

#[test]
fn primary_crash_preserves_committed_writes() {
    let mut service = start_open(15, 3);
    let resp = service.user_request(0, "POST", "/log", b"99=durable");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    let primary = service.primary().unwrap();
    service.crash(&primary);
    assert!(service.run_until(30_000, |c| c.primary().is_some_and(|p| p != primary)));
    for id in service.live_nodes() {
        assert_eq!(service.nodes[id].tx_status(txid), TxStatus::Committed);
    }
    let live = service.live_nodes()[0].clone();
    let idx = service.nodes.keys().position(|k| *k == live).unwrap();
    let resp = service.user_request(idx, "GET", "/log?id=99", b"");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), "durable");
}

#[test]
fn tx_status_endpoint() {
    let mut service = start_open(16, 3);
    let resp = service.user_request(0, "POST", "/log", b"5=msg");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    let resp = service.user_request(
        0,
        "GET",
        &format!("/node/tx?view={}&seqno={}", txid.view, txid.seqno),
        b"",
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "Committed");
    let resp = service.user_request(0, "GET", "/node/tx?view=99&seqno=99999", b"");
    assert_eq!(resp.text(), "Unknown");
}

#[test]
fn private_maps_are_encrypted_on_the_ledger_public_maps_are_not() {
    let mut service = start_open(17, 1);
    let secret_msg = b"attack at dawn (private)";
    let public_msg = b"published announcement";
    let _ = service.user_request(0, "POST", "/log", &[b"1=".as_slice(), secret_msg].concat());
    let r2 =
        service.user_request(0, "POST", "/log_public", &[b"2=".as_slice(), public_msg].concat());
    service.run_until_committed(r2.txid.unwrap());
    // Inspect what the HOST persists (outside the trust boundary).
    let node = service.nodes.values().next().unwrap();
    let blobs = node.persisted_ledger();
    let all: Vec<u8> = blobs.concat();
    let contains = |needle: &[u8]| all.windows(needle.len()).any(|w| w == needle);
    assert!(
        !contains(secret_msg),
        "private payload leaked to host storage in plaintext"
    );
    assert!(contains(public_msg), "public map update should be in plaintext (§6.1 audit)");
}

#[test]
fn script_application_runs_and_live_updates() {
    // Install a script app by governance (set_js_app), then update it
    // live (§5, §6.4 "live code updates").
    let mut service = start_open(18, 3);
    let state = service.propose_and_accept(Proposal::single(
        "set_js_app",
        Value::obj([(
            "app".to_string(),
            Value::str(ccf_core::app::logging_script_app()),
        )]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);
    let resp = service.user_request(0, "POST", "/log", b"10=native still wins");
    assert_eq!(resp.status, 200);
    // Install a v2 script with a new endpoint, live.
    let v2 = r#"
        function endpoints() {
            return [{ method: "GET", path: "/version", func: "version", read_only: true }];
        }
        function version(caller, body, params) { return "v2"; }
    "#;
    let state = service.propose_and_accept(Proposal::single(
        "set_js_app",
        Value::obj([("app".to_string(), Value::str(v2))]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);
    let resp = service.user_request(0, "GET", "/version", b"");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), "v2");
}

#[test]
fn occ_increments_are_applied_exactly_once() {
    // An endpoint that read-modify-writes a single hot key: the node runs
    // one transaction at a time, so no update is lost or applied twice.
    let counter_app = Application::new("counter v1")
        .endpoint(EndpointDef::write("POST", "/incr", |ctx| {
            let current = ctx
                .get_private("counters", b"hits")
                .map(|v| String::from_utf8_lossy(&v).parse::<u64>().unwrap_or(0))
                .unwrap_or(0);
            ctx.put_private("counters", b"hits", (current + 1).to_string().as_bytes());
            AppResult::ok((current + 1).to_string().into_bytes())
        }))
        .endpoint(EndpointDef::read("GET", "/count", |ctx| {
            AppResult::ok(ctx.get_private("counters", b"hits").unwrap_or_else(|| b"0".to_vec()))
        }));
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 19, ..ServiceOpts::default() },
        Arc::new(counter_app),
    );
    service.open_service();
    for _ in 0..20 {
        let resp = service.user_request(0, "POST", "/incr", b"");
        assert_eq!(resp.status, 200);
    }
    let resp = service.user_request(0, "GET", "/count", b"");
    assert_eq!(resp.text(), "20");
}

#[test]
fn endpoint_auth_policies() {
    let app = Application::new("authz v1")
        .endpoint(
            EndpointDef::read("GET", "/public_info", |_| AppResult::ok(b"anyone".to_vec()))
                .with_auth(ccf_core::app::AuthPolicy::NoAuth),
        )
        .endpoint(EndpointDef::read("GET", "/user_only", |_| AppResult::ok(b"user".to_vec())));
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 20, ..ServiceOpts::default() },
        Arc::new(app),
    );
    service.open_service();
    let node = service.nodes.values().next().unwrap().clone();
    let anon =
        ccf_core::app::Request::new("GET", "/public_info", ccf_core::app::Caller::Anonymous, b"");
    assert_eq!(node.handle_request(&anon).status, 200);
    let anon =
        ccf_core::app::Request::new("GET", "/user_only", ccf_core::app::Caller::Anonymous, b"");
    assert_eq!(node.handle_request(&anon).status, 403);
}

#[test]
fn read_only_endpoint_writing_is_an_error() {
    let bad_app = Application::new("bad v1").endpoint(EndpointDef::read("GET", "/oops", |ctx| {
        ctx.put_private("m", b"k", b"v"); // read-only endpoint writing!
        AppResult::ok(vec![])
    }));
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 21, ..ServiceOpts::default() },
        Arc::new(bad_app.clone()),
    );
    service.open_service();
    let resp = service.user_request(0, "GET", "/oops", b"");
    assert_eq!(resp.status, 500);

    // At the primary and at a backup of three nodes alike, and no entry
    // is proposed.
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 1, seed: 21, ..ServiceOpts::default() },
        Arc::new(bad_app),
    );
    service.open_service();
    let primary = service.nodes[&service.primary().expect("primary")].clone();
    let before = primary.last_applied();
    let user0 = ccf_core::app::Caller::User("user0".into());
    let req = ccf_core::app::Request::new("GET", "/oops", user0, b"");
    for node in service.nodes.values() {
        let resp = node.handle_request(&req);
        assert_eq!(resp.status, 500, "{}", resp.text());
        assert_eq!(resp.text(), "endpoint declared read-only but wrote to the store");
    }
    assert_eq!(primary.last_applied(), before);
}

#[test]
fn app_cannot_write_reserved_maps() {
    let evil_app =
        Application::new("evil v1").endpoint(EndpointDef::write("POST", "/evil", |ctx| {
            ctx.tx.put(
                &MapName::new("public:ccf.gov.members.certs"),
                b"mallory",
                b"fake-cert",
            );
            AppResult::ok(vec![])
        }));
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 22, ..ServiceOpts::default() },
        Arc::new(evil_app),
    );
    service.open_service();
    let resp = service.user_request(0, "POST", "/evil", b"");
    assert_eq!(resp.status, 403, "{}", resp.text());
}

#[test]
fn historical_queries_and_index() {
    let mut service = start_open(23, 1);
    let node = service.nodes.values().next().unwrap().clone();
    node.register_key_index("msgs");
    let mut txids = Vec::new();
    for i in 0..5 {
        let resp =
            service.user_request(0, "POST", "/log", format!("k{}={}", i % 2, i).as_bytes());
        txids.push(resp.txid.unwrap());
    }
    service.run_until_committed(*txids.last().unwrap());
    node.with_indexer(|idx| {
        assert!(idx.processed_upto() >= txids.last().unwrap().seqno);
    });
    // Historical range query returns verified, decrypted write sets.
    let from = txids[0].seqno;
    let to = txids[4].seqno;
    let hist = node.historical_writes(from, to).unwrap();
    assert_eq!(hist.len(), (to - from + 1) as usize);
    assert!(hist.iter().any(|(t, _)| *t == txids[2]));
    // Out-of-range queries are rejected.
    assert!(node.historical_writes(0, 1).is_err());
    assert!(node.historical_writes(1, 99999).is_err());
}

/// Each private write is opened once per backup and never by the primary
/// that sealed it: a lone primary opens nothing.
#[test]
fn entries_are_decrypted_once_per_backup_and_applied_identically() {
    for nodes in [1, 3] {
        decrypted_once_per_backup_and_applied_identically(nodes);
    }
}

fn decrypted_once_per_backup_and_applied_identically(nodes: u64) {
    let mut service = start_open(24, nodes as usize);
    for node in service.nodes.values() {
        node.register_key_index("msgs");
        node.register_key_index("public:msgs");
    }
    let sealed = service.obs().counter("crypto.gcm_sealed_bytes");
    let opened = service.obs().counter("crypto.gcm_opened_bytes");
    let (sealed_before, opened_before) = (sealed.get(), opened.get());
    let mut txids = Vec::new();
    for i in 0..24 {
        let path = ["/log", "/log_public", "/log_both"][i % 3];
        let resp = service.user_request(0, "POST", path, format!("k{}={i}", i % 5).as_bytes());
        assert_eq!(resp.status, 200, "{}", resp.text());
        txids.push(resp.txid.unwrap());
    }
    service.run_until_committed(*txids.last().unwrap());
    assert!(
        service.run_until(5_000, |c| {
            let first = c.nodes.values().next().unwrap().commit_seqno();
            c.nodes.values().all(|n| n.commit_seqno() == first)
        }),
        "nodes never agreed on a commit seqno"
    );

    // Backups open each private write once; the primary never opens the
    // entries it sealed, and the indexer reuses the writes applied at
    // append. No historical query runs in this window.
    let (sealed, opened) = (sealed.get() - sealed_before, opened.get() - opened_before);
    assert!(sealed > 0);
    assert_eq!(opened, (nodes - 1) * sealed, "{nodes} nodes opened {opened} B, sealed {sealed} B");

    // The primary's executed write set and the backups' decoded ones
    // leave byte-identical state at the common commit seqno.
    let states: Vec<Vec<u8>> = service
        .nodes
        .values()
        .map(|n| n.latest_snapshot().unwrap().kv_state)
        .collect();
    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "kv state diverged across nodes"
    );

    // Both indexes list the same txids on the primary and on the backups.
    let index = |node: &CcfNode| {
        node.with_indexer(|idx| {
            (0..2)
                .map(|i| {
                    let keys = idx.strategy(i).unwrap();
                    (0..5)
                        .map(|k| keys.txids_for(format!("k{k}").as_bytes()).to_vec())
                        .collect()
                })
                .collect::<Vec<Vec<_>>>()
        })
    };
    let primary = index(&service.nodes[&service.primary().unwrap()]);
    assert_eq!(primary[0].iter().map(Vec::len).sum::<usize>(), 16);
    assert_eq!(primary[1].iter().map(Vec::len).sum::<usize>(), 16);
    for node in service.nodes.values() {
        assert_eq!(
            index(node),
            primary,
            "index on {} differs from the primary's",
            node.id
        );
    }
}

/// A node that joins from the primary's snapshot records its install and
/// boot commit in the service registry: `consensus.snapshots_installed`
/// counts it, and the invariant checker consumes the boot commit record.
#[test]
fn snapshot_join_records_its_boot_install_and_commit() {
    let mut service = start_open(26, 3);
    let r = service.user_request(0, "POST", "/log", b"1=before join");
    service.run_until_committed(r.txid.unwrap());
    let primary = service.primary().unwrap();
    let snap_seqno = service.nodes[&primary].latest_snapshot().unwrap().last_txid.seqno;

    let mut checker = InvariantChecker::new(service.obs());
    let installs = service.obs().counter("consensus.snapshots_installed");
    let before = installs.get();
    let id = service.join_pending("n3", Some(&primary));
    assert_eq!(installs.get(), before + 1, "the boot install was not counted");
    checker.check(service.nodes.iter().map(|(id, node)| (id, node.as_ref())));
    assert!(checker.ok(), "{:?}", checker.violations());
    assert_eq!(checker.record_commit(&id), snap_seqno, "no boot commit record for {id}");
}

#[test]
fn partitioned_primary_rolls_back_into_a_closed_chunk() {
    let mut service = start_open(25, 3);
    let r = service.user_request(0, "POST", "/log", b"1=kept");
    service.run_until_committed(r.txid.unwrap());
    let old = service.primary().unwrap();
    let index_of = |s: &ServiceCluster, id: &str| s.nodes.keys().position(|k| k == id).unwrap();
    let others: BTreeSet<String> =
        service.nodes.keys().filter(|id| **id != old).cloned().collect();
    service.net.partition(vec![[old.clone()].into(), others.clone()]);

    // The isolated primary accepts a write and signs it, closing a chunk
    // that only it holds.
    let lost = service.user_request(index_of(&service, &old), "POST", "/log", b"2=lost");
    assert_eq!(lost.status, 200, "{}", lost.text());
    let lost = lost.txid.unwrap();
    service.run_for(50);
    let last_closed = LedgerChunk::decode(service.nodes[&old].persisted_ledger().last().unwrap())
        .unwrap()
        .last_txid()
        .unwrap();
    assert!(last_closed.seqno > lost.seqno, "the lost write's chunk never closed");

    // The majority elects a new primary and commits a write of its own.
    assert!(service.run_until(30_000, |c| others.iter().any(|id| c.nodes[id].is_primary())));
    let new = others.iter().find(|id| service.nodes[*id].is_primary()).unwrap().clone();
    let kept = service.user_request(index_of(&service, &new), "POST", "/log", b"3=majority");
    assert_eq!(kept.status, 200, "{}", kept.text());
    let kept = kept.txid.unwrap();
    assert!(service.run_until(30_000, |c| {
        others.iter().all(|id| c.nodes[id].tx_status(kept) == TxStatus::Committed)
    }));

    // Healing hands the old primary the majority's log, which cuts into
    // its closed chunk.
    let rollbacks = service.obs().counter("consensus.rollbacks");
    let rollbacks_before = rollbacks.get();
    service.net.heal();
    service.run_until_committed(kept);
    service.run_for(200);
    assert!(rollbacks.get() > rollbacks_before, "the old primary never rolled back");

    let node = service.nodes[&old].clone();
    assert_eq!(node.tx_status(lost), TxStatus::Invalid);
    let r = service.user_request(index_of(&service, &old), "GET", "/log?id=2", b"");
    assert_eq!(r.status, 404, "{}", r.text());
    let ledger = node.persisted_ledger();
    for other in service.nodes.values() {
        assert!(other.persisted_ledger() == ledger, "{}'s ledger files differ", other.id);
    }
    let commit = node.commit_seqno();
    assert_eq!(node.historical_writes(1, commit).unwrap().len() as u64, commit);
}

/// An index on a primary cut off from its quorum never lists the writes
/// it loses: they are fed on append but reach the index only on commit,
/// and the rollback drops them. After healing, the index lists the new
/// primary's committed writes to the same keys, in seqno order.
#[test]
fn index_lists_no_rolled_back_write() {
    let mut service = start_open(29, 3);
    for node in service.nodes.values() {
        node.register_key_index("msgs");
    }
    let r = service.user_request(0, "POST", "/log", b"1=kept");
    service.run_until_committed(r.txid.unwrap());
    let kept = r.txid.unwrap();
    let old = service.primary().unwrap();
    let index_of = |s: &ServiceCluster, id: &str| s.nodes.keys().position(|k| k == id).unwrap();
    let others: BTreeSet<String> =
        service.nodes.keys().filter(|id| **id != old).cloned().collect();
    service.net.partition(vec![[old.clone()].into(), others.clone()]);
    let txids_for = |s: &ServiceCluster, id: &str, key: &[u8]| {
        s.nodes[id].with_indexer(|idx| idx.strategy(0).unwrap().txids_for(key).to_vec())
    };

    let lost: Vec<TxId> = ["1=lost", "2=lost", "1=lost again"]
        .iter()
        .map(|body| {
            let r = service.user_request(index_of(&service, &old), "POST", "/log", body.as_bytes());
            assert_eq!(r.status, 200, "{}", r.text());
            r.txid.unwrap()
        })
        .collect();
    service.run_for(50);
    assert_eq!(service.nodes[&old].with_indexer(|idx| idx.processed_upto()), lost[2].seqno + 1);
    assert_eq!(txids_for(&service, &old, b"1"), [kept], "an uncommitted write was indexed");
    assert!(txids_for(&service, &old, b"2").is_empty(), "an uncommitted write was indexed");

    assert!(service.run_until(30_000, |c| others.iter().any(|id| c.nodes[id].is_primary())));
    let new = others.iter().find(|id| service.nodes[*id].is_primary()).unwrap().clone();
    let written: Vec<TxId> = ["2=new", "1=new", "2=newer"]
        .iter()
        .map(|body| {
            let r = service.user_request(index_of(&service, &new), "POST", "/log", body.as_bytes());
            assert_eq!(r.status, 200, "{}", r.text());
            r.txid.unwrap()
        })
        .collect();
    service.net.heal();
    service.run_until_committed(written[2]);
    service.run_for(200);

    assert_eq!(service.nodes[&old].tx_status(lost[0]), TxStatus::Invalid);
    for id in service.nodes.keys() {
        assert_eq!(txids_for(&service, id, b"1"), [kept, written[1]], "key 1 on {id}");
        assert_eq!(txids_for(&service, id, b"2"), [written[0], written[2]], "key 2 on {id}");
    }
}

/// A 3-node service whose primary signs after every third entry and never
/// on a timer, settled so that its log ends in a committed signature.
/// Returns the service and the ids of (primary, a backup, the other
/// backup).
fn start_signing_every_third(seed: u64) -> (ServiceCluster, NodeId, NodeId, NodeId) {
    let mut service = start_open(seed, 3);
    service.run_for(100);
    let primary = service.primary().unwrap();
    let node = &service.nodes[&primary];
    assert_eq!(node.commit_seqno(), node.last_applied().seqno, "log did not settle");
    for node in service.nodes.values() {
        node.set_signature_policy(3, 0);
    }
    let mut backups = service.nodes.keys().filter(|id| **id != primary).cloned();
    let (backup, other) = (backups.next().unwrap(), backups.next().unwrap());
    (service, primary, backup, other)
}

/// Writes private, public and mixed messages `ids` through `node`, two
/// keys overwritten in turn; returns their txids.
fn write_messages(service: &mut ServiceCluster, node: &str, ids: Range<usize>) -> Vec<TxId> {
    let idx = service.nodes.keys().position(|k| k == node).unwrap();
    ids.map(|i| {
        let path = ["/log", "/log_public", "/log_both"][i % 3];
        let r = service.user_request(idx, "POST", path, format!("k{}=v{i}", i % 2).as_bytes());
        assert_eq!(r.status, 200, "{}", r.text());
        r.txid.unwrap()
    })
    .collect()
}

/// Hands `node` an AppendEntries from `leader` as primary of the next
/// view, carrying one empty entry after `prev`: a node holding another
/// entry after `prev` rolls back to `prev.seqno` before appending it.
fn append_next_view_entry(node: &CcfNode, leader: &NodeId, prev: TxId) {
    let txid = TxId::new(prev.view + 1, prev.seqno + 1);
    let entry = LedgerEntry {
        txid,
        kind: EntryKind::User,
        public_ws: Vec::new(),
        private_ws_enc: Vec::new(),
        claims_digest: [0; 32],
    };
    let entry = ReplicatedEntry { entry, config: None, trace: ccf_obs::TraceId::NONE };
    let entries = Arc::from([Arc::new(entry)]);
    let commit_seqno = node.commit_seqno();
    let ae = AppendEntries { view: txid.view, leader: leader.clone(), prev, entries, commit_seqno };
    node.receive(leader, Message::AppendEntries(ae));
}

/// A partitioned primary that appended entries past a signature rolls
/// back to an unsigned entry between two signatures. The node keeps a
/// store state only at signatures and no write set, so it rebuilds the
/// target state from the signature's state plus the entry above it, read
/// back from its own log and opened again, and ends byte-identical to a
/// backup that never held the lost entries.
#[test]
fn rollback_between_signatures_replays_logged_entries() {
    let (mut service, primary, backup, other) = start_signing_every_third(27);
    // Three writes, the signature they trigger, and one unsigned private
    // write, replicated everywhere.
    let sealed = service.obs().counter("crypto.gcm_sealed_bytes");
    let mut kept = write_messages(&mut service, &primary, 0..3);
    let sealed_before = sealed.get();
    kept.extend(write_messages(&mut service, &primary, 3..4));
    let replayed_bytes = sealed.get() - sealed_before;
    assert!(replayed_bytes > 0, "the unsigned write is not private");
    let signed = TxId::new(kept[2].view, kept[2].seqno + 1);
    assert_eq!(kept[3].seqno, signed.seqno + 1);
    service.run_for(50);
    assert_eq!(service.nodes[&primary].tx_status(signed), TxStatus::Committed);
    assert_eq!(service.nodes[&backup].store_state().version, kept[3].seqno);

    // Cut off, the primary appends two more writes and signs them.
    service.net.partition(vec![[primary.clone()].into(), [backup.clone(), other.clone()].into()]);
    let lost = write_messages(&mut service, &primary, 4..6);
    service.run_for(20);
    let old = service.nodes[&primary].clone();
    assert_eq!(old.store_state().version, lost[1].seqno + 1, "the lost writes were not signed");

    // The next view's log continues after the unsigned write.
    let rollbacks = service.obs().counter("consensus.rollbacks");
    let before = rollbacks.get();
    let opened = service.obs().counter("crypto.gcm_opened_bytes");
    let opened_before = opened.get();
    for id in [&primary, &backup] {
        append_next_view_entry(&service.nodes[id], &other, kept[3]);
    }
    assert_eq!(rollbacks.get(), before + 1, "only the old primary rolls back");
    assert_eq!(opened.get() - opened_before, replayed_bytes, "the replay opened other bytes");
    assert_eq!(old.tx_status(lost[0]), TxStatus::Invalid);
    assert_eq!(old.store_state().version, kept[3].seqno + 1);
    assert!(
        old.store_state().serialize() == service.nodes[&backup].store_state().serialize(),
        "the rolled-back state differs from the backup's"
    );
}

/// A rollback exactly to a signature installs the state kept there and
/// re-applies nothing.
#[test]
fn rollback_to_a_signature_reapplies_nothing() {
    let (mut service, primary, backup, other) = start_signing_every_third(28);
    let kept = write_messages(&mut service, &primary, 0..3);
    let signed = TxId::new(kept[2].view, kept[2].seqno + 1);
    service.run_for(50);
    assert_eq!(service.nodes[&primary].tx_status(signed), TxStatus::Committed);
    assert_eq!(service.nodes[&backup].store_state().version, signed.seqno);

    // Cut off, the primary appends two writes it never signs.
    service.net.partition(vec![[primary.clone()].into(), [backup.clone(), other.clone()].into()]);
    let lost = write_messages(&mut service, &primary, 3..5);
    service.run_for(20);
    let old = service.nodes[&primary].clone();
    assert_eq!(old.store_state().version, lost[1].seqno);

    let rollbacks = service.obs().counter("consensus.rollbacks");
    let before = rollbacks.get();
    for id in [&primary, &backup] {
        append_next_view_entry(&service.nodes[id], &other, signed);
    }
    assert_eq!(rollbacks.get(), before + 1, "only the old primary rolls back");
    assert_eq!(old.tx_status(lost[0]), TxStatus::Invalid);
    assert_eq!(old.store_state().version, signed.seqno + 1);
    assert!(
        old.store_state().serialize() == service.nodes[&backup].store_state().serialize(),
        "the rolled-back state differs from the backup's"
    );
}
