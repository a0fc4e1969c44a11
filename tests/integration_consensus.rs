//! Integration: full nodes (not bare replicas) under reconfiguration,
//! node replacement, and snapshot-based joining — the Figure 9 operator
//! workflow end to end.

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::sync::Arc;

fn app() -> Application {
    Application::new("logging v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"ok".to_vec())
        }))
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("missing"),
            }
        }))
}

#[test]
fn figure9_replace_failed_primary() {
    // 3 nodes, 3 members; kill the primary (A); operator prepares n3 from
    // a snapshot and joins it (B); a member proposes trust(n3)+remove(n0)
    // (C); members approve (D); reconfiguration completes (E).
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed: 42, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    // Some traffic before the fault.
    for i in 0..10 {
        let r = service.user_request(0, "POST", "/log", format!("{i}=pre").as_bytes());
        assert_eq!(r.status, 200);
    }
    let last = service.user_request(0, "POST", "/log", b"99=last before crash");
    service.run_until_committed(last.txid.unwrap());

    // (A) kill the primary.
    let n0 = service.primary().unwrap();
    service.crash(&n0);
    assert!(
        service.run_until(30_000, |c| c.primary().is_some_and(|p| p != n0)),
        "no failover"
    );
    // Reads kept working on backups throughout (checked by Fig 9 bench in
    // detail); writes resume now.
    let r = service.user_request(1, "POST", "/log", b"100=after failover");
    assert_eq!(r.status, 200, "{}", r.text());

    // (B) operator prepares n3 from a surviving node's snapshot and joins.
    let survivor = service.live_nodes()[0].clone();
    let n3 = service.join_pending("n3", Some(&survivor));
    // (C)+(D) one proposal: trust n3 AND remove n0 (atomic, §4.4).
    let proposal = Proposal::new(vec![
        ccf_governance::proposal::ActionInvocation {
            name: "transition_node_to_trusted".into(),
            args: Value::obj([("node_id".to_string(), Value::str(n3.clone()))]),
        },
        ccf_governance::proposal::ActionInvocation {
            name: "remove_node".into(),
            args: Value::obj([("node_id".to_string(), Value::str(n0.clone()))]),
        },
    ]);
    let state = service.propose_and_accept(proposal);
    assert_eq!(state, ProposalState::Accepted);

    // (E) reconfiguration completes: n3 catches up and participates.
    assert!(
        service.run_until(60_000, |c| {
            c.nodes[&n3].commit_seqno() > 0
                && c.nodes[&n3].role() != ccf_consensus::replica::Role::Pending
        }),
        "n3 never joined consensus"
    );
    // Old data is readable via the new node.
    let idx = service.nodes.keys().position(|k| *k == n3).unwrap();
    let r = service.user_request(idx, "GET", "/log?id=99", b"");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "last before crash");
    // And n0's retirement is recorded (Listing 2's final state).
    let live = service.live_nodes()[0].clone();
    let state = service.nodes[&live].store_state();
    let info = ccf_governance::actions::get_node_info(&state.begin(), &n0).unwrap();
    assert!(
        matches!(info.status, ccf_governance::NodeStatus::Retiring | ccf_governance::NodeStatus::Retired),
        "n0 is {:?}", info.status
    );
}

#[test]
fn snapshot_join_does_not_need_full_history() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 43, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    for i in 0..40 {
        service.user_request(0, "POST", "/log", format!("{i}=v{i}").as_bytes());
    }
    service.run_for(500);
    let n1 = service.join_and_trust("n1", Some("n0"));
    // The new node serves reads of data it never replayed entry-by-entry.
    let idx = service.nodes.keys().position(|k| *k == n1).unwrap();
    let r = service.user_request(idx, "GET", "/log?id=5", b"");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "v5");
}

/// A primary booted from a snapshot catches up a node that joins with no
/// snapshot by sending it the one it was built from: the new node's next
/// entry lies below the primary's base.
#[test]
fn snapshot_booted_primary_catches_up_a_node_behind_its_base() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 47, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    for i in 0..40 {
        service.user_request(0, "POST", "/log", format!("{i}=v{i}").as_bytes());
    }
    service.run_for(500);
    service.join_and_trust("n1", Some("n0"));
    assert!(service.run_until(30_000, |c| c.primary().is_some()), "no primary after n1 joined");
    service.join_and_trust("n2", Some("n0"));
    service.run_for(1000);

    // Every live node but n0 now starts at a snapshot base.
    service.crash("n0");
    assert!(
        service.run_until(30_000, |c| c.primary().is_some_and(|p| p != "n0")),
        "no failover"
    );
    let sent = service.obs().counter("consensus.snapshots_sent").get();
    let n3 = service.join_and_trust("n3", None);
    assert!(service.obs().counter("consensus.snapshots_sent").get() > sent);
    let idx = service.nodes.keys().position(|k| *k == n3).unwrap();
    let r = service.user_request(idx, "GET", "/log?id=5", b"");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "v5");
}

#[test]
fn join_rejected_for_unknown_code_id() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 44, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    // A node built from different (un-allow-listed) code.
    let rogue = ccf_core::node::CcfNode::new_joining_node(
        ccf_core::node::NodeOpts { id: "rogue".into(), seed: 999, ..Default::default() },
        Arc::new(Application::new("evil code v666")),
        None,
    );
    let primary = service.nodes.values().next().unwrap();
    let err = primary.handle_join(&rogue.join_request()).unwrap_err();
    assert!(err.contains("not allowed to join"), "{err}");
}

#[test]
fn join_rejected_for_key_substitution() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 45, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let honest = ccf_core::node::CcfNode::new_joining_node(
        ccf_core::node::NodeOpts { id: "nx".into(), seed: 1000, ..Default::default() },
        service.app().clone(),
        None,
    );
    let mut req = honest.join_request();
    // Attacker swaps in their own key, keeping the honest quote.
    let mallory = ccf_crypto::SigningKey::from_seed([0x66; 32]);
    req.node_public = mallory.verifying_key();
    let primary = service.nodes.values().next().unwrap();
    let err = primary.handle_join(&req).unwrap_err();
    assert!(err.contains("does not bind"), "{err}");
}

#[test]
fn code_update_allows_new_version_to_join() {
    // add_node_code for v2, then a v2 node joins (Listing 1's workflow).
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 46, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let v2_app = Arc::new(
        Application::new("logging v2").endpoint(EndpointDef::read("GET", "/two", |_| {
            AppResult::ok(b"2".to_vec())
        })),
    );
    let v2_code = ccf_tee::attestation::CodeId::measure(b"logging v2");
    // v2 cannot join yet.
    let node_v2 = ccf_core::node::CcfNode::new_joining_node(
        ccf_core::node::NodeOpts { id: "n1".into(), seed: 1001, ..Default::default() },
        v2_app.clone(),
        None,
    );
    {
        let primary = service.nodes.values().next().unwrap();
        assert!(primary.handle_join(&node_v2.join_request()).is_err());
    }
    // Governance allow-lists v2.
    let state = service.propose_and_accept(Proposal::single(
        "add_node_code",
        Value::obj([("code_id".to_string(), Value::str(v2_code.to_hex()))]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(200);
    // Now the join handshake succeeds.
    let primary = service.nodes.values().next().unwrap();
    let secrets = primary.handle_join(&node_v2.join_request()).unwrap();
    node_v2.install_secrets(&secrets);
}
