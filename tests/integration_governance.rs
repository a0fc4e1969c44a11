//! Governance end-to-end over a replicated service: proposals and
//! ballots from multiple members, custom constitutions, membership and
//! user management, constitution updates, and ledger rekeying.

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::actions::NodeInfo;
use ccf_governance::proposal::ActionInvocation;
use ccf_governance::NodeStatus;
use ccf_governance::ScriptConstitution;
use std::sync::Arc;

fn app() -> Application {
    Application::new("app v1").endpoint(EndpointDef::write("POST", "/put", |ctx| {
        let (k, v) = ctx.body_kv()?;
        ctx.put_private("data", k.as_bytes(), v.as_bytes());
        AppResult::ok(vec![])
    }))
}

#[test]
fn add_and_remove_user_via_governance() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, users: 1, seed: 60, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    // carol does not exist yet.
    assert_eq!(service.user_request_as("carol", 0, "POST", "/put", b"k=v").status, 403);
    let state = service.propose_and_accept(Proposal::single(
        "set_user",
        Value::obj([
            ("user_id".to_string(), Value::str("carol")),
            ("cert".to_string(), Value::str("cert-carol")),
        ]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);
    assert_eq!(service.user_request_as("carol", 0, "POST", "/put", b"k=v").status, 200);
    // Remove her again.
    let state = service.propose_and_accept(Proposal::single(
        "remove_user",
        Value::obj([("user_id".to_string(), Value::str("carol"))]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);
    assert_eq!(service.user_request_as("carol", 0, "POST", "/put", b"k=v").status, 403);
}

#[test]
fn majority_is_required_and_ballots_are_recorded_on_ledger() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 3, seed: 61, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let (pid, state) = service.propose(Proposal::single(
        "set_user",
        Value::obj([
            ("user_id".to_string(), Value::str("dave")),
            ("cert".to_string(), Value::str("cert-dave")),
        ]),
    ));
    assert_eq!(state, ProposalState::Open);
    // One ballot of three: still open.
    let member0 = service.members.keys().next().unwrap().clone();
    let nonce = {
        let m = service.members.get_mut(&member0).unwrap();
        let n = m.next_nonce;
        m.next_nonce += 1;
        n
    };
    let primary = service.primary().unwrap();
    let key = &service.members[&member0].signing;
    let resp = service.nodes[&primary].submit_ballot(key, &pid, &Ballot::approve(), nonce);
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("Open"), "{}", resp.text());
    // Second ballot: majority → accepted.
    let member1 = service.members.keys().nth(1).unwrap().clone();
    let nonce = {
        let m = service.members.get_mut(&member1).unwrap();
        let n = m.next_nonce;
        m.next_nonce += 1;
        n
    };
    let key = &service.members[&member1].signing;
    let resp = service.nodes[&primary].submit_ballot(key, &pid, &Ballot::approve(), nonce);
    assert!(resp.text().contains("Accepted"), "{}", resp.text());
    service.run_for(200);

    // Everything is auditable from public maps: the proposal, its info
    // with ballots, and the signed envelopes in gov history.
    let node = service.nodes.values().next().unwrap();
    let state = node.store_state();
    let tx = state.begin();
    assert!(tx.get(&MapName::new(ccf_kv::builtin::PROPOSALS), pid.as_bytes()).is_some());
    let info = tx
        .get(&MapName::new(ccf_kv::builtin::PROPOSALS_INFO), pid.as_bytes())
        .unwrap();
    let info = ccf_governance::proposal::ProposalInfo::from_json(
        std::str::from_utf8(&info).unwrap(),
    )
    .unwrap();
    assert_eq!(info.state, ProposalState::Accepted);
    assert_eq!(info.ballots.len(), 2);
    assert_eq!(info.final_votes.values().filter(|v| **v).count(), 2);
    let mut history = 0;
    tx.for_each(&MapName::new(ccf_kv::builtin::GOV_HISTORY), |_, v| {
        // Each history entry is a verifiable signed envelope.
        let env = ccf_governance::SignedRequest::decode(v).unwrap();
        env.verify().unwrap();
        history += 1;
    });
    assert!(history >= 3, "expected proposal + 2 ballots in history, got {history}");
}

#[test]
fn operator_constitution_grants_unilateral_node_actions() {
    // Custom constitution: member 0 is the operator with unilateral
    // power over node membership (§5.1's example).
    let operator_signing =
        ccf_crypto::SigningKey::from_seed(ccf_crypto::sha2::sha256(b"member-62-0"));
    let operator_id = ccf_governance::member_id(&operator_signing.verifying_key());
    let constitution = ScriptConstitution::operator_script(&operator_id);
    let mut service = ServiceCluster::start(
        ServiceOpts {
            nodes: 1,
            members: 3,
            seed: 62,
            constitution: Some(constitution),
            ..ServiceOpts::default()
        },
        Arc::new(app()),
    );
    service.open_service();
    // Operator joins a node and trusts it single-handedly: the proposal
    // is accepted immediately with zero ballots.
    let n1 = service.join_pending("n1", None);
    let (_, state) = service.propose_as(
        &operator_id,
        Proposal::single(
            "transition_node_to_trusted",
            Value::obj([("node_id".to_string(), Value::str(n1.clone()))]),
        ),
    );
    assert_eq!(state, ProposalState::Accepted, "operator should act unilaterally");
    // But a non-node action from the operator still needs majority.
    let (_, state) = service.propose_as(
        &operator_id,
        Proposal::single(
            "set_user",
            Value::obj([
                ("user_id".to_string(), Value::str("eve")),
                ("cert".to_string(), Value::str("c"))
            ]),
        ),
    );
    assert_eq!(state, ProposalState::Open);
}

#[test]
fn constitution_can_be_replaced_by_proposal() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 2, seed: 63, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    // New constitution: unanimity required.
    let unanimous = r#"
        function resolve(proposal, proposer_id, votes, member_count) {
            let yes = 0;
            for (v of votes) { if (v.vote) { yes = yes + 1; } }
            if (yes >= member_count) { return "Accepted"; }
            let no = 0;
            for (v of votes) { if (!v.vote) { no = no + 1; } }
            if (no > 0) { return "Rejected"; }
            return "Open";
        }
    "#;
    let state = service.propose_and_accept(Proposal::single(
        "set_constitution",
        Value::obj([("constitution".to_string(), Value::str(unanimous))]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);
    // Under the new constitution, 1 of 2 votes is NOT enough.
    let (pid, _) = service.propose(Proposal::single(
        "set_user",
        Value::obj([
            ("user_id".to_string(), Value::str("frank")),
            ("cert".to_string(), Value::str("c")),
        ]),
    ));
    let member0 = service.members.keys().next().unwrap().clone();
    let primary = service.primary().unwrap();
    let nonce = {
        let m = service.members.get_mut(&member0).unwrap();
        let n = m.next_nonce;
        m.next_nonce += 1;
        n
    };
    let key = &service.members[&member0].signing;
    let resp = service.nodes[&primary].submit_ballot(key, &pid, &Ballot::approve(), nonce);
    assert!(resp.text().contains("Open"), "1/2 must stay open under unanimity: {}", resp.text());
    // Second member's vote accepts.
    let member1 = service.members.keys().nth(1).unwrap().clone();
    let nonce = {
        let m = service.members.get_mut(&member1).unwrap();
        let n = m.next_nonce;
        m.next_nonce += 1;
        n
    };
    let key = &service.members[&member1].signing;
    let resp = service.nodes[&primary].submit_ballot(key, &pid, &Ballot::approve(), nonce);
    assert!(resp.text().contains("Accepted"), "{}", resp.text());
}

#[test]
fn multi_action_proposal_is_atomic() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 1, members: 1, seed: 64, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    // Second action fails (unknown node) → neither action applies.
    let p = Proposal::new(vec![
        ActionInvocation {
            name: "set_user".into(),
            args: Value::obj([
                ("user_id".to_string(), Value::str("ghostuser")),
                ("cert".to_string(), Value::str("c")),
            ]),
        },
        ActionInvocation {
            name: "transition_node_to_trusted".into(),
            args: Value::obj([("node_id".to_string(), Value::str("no-such-node"))]),
        },
    ]);
    let state = service.propose_and_accept(p);
    assert_eq!(state, ProposalState::Failed);
    service.run_for(200);
    assert_eq!(service.user_request_as("ghostuser", 0, "POST", "/put", b"a=b").status, 403);
}

#[test]
fn ledger_rekey_via_governance() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 1, seed: 65, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let r = service.user_request(0, "POST", "/put", b"before=rekey");
    service.run_until_committed(r.txid.unwrap());
    let state =
        service.propose_and_accept(Proposal::single("trigger_ledger_rekey", Value::Null));
    assert_eq!(state, ProposalState::Accepted);
    // Let the rekey distribution commit and replicate.
    service.run_for(1000);
    // Writes continue under the new secret, on all nodes.
    let r = service.user_request(0, "POST", "/put", b"after=rekey");
    assert_eq!(r.status, 200, "{}", r.text());
    service.run_until_committed(r.txid.unwrap());
    // Old data still decrypts (historical query crosses the rekey).
    let node = service.nodes.values().next().unwrap();
    let all = node.historical_writes(1, node.commit_seqno()).unwrap();
    assert!(all.len() as u64 == node.commit_seqno());
}

/// The first committed seqno on `node` whose writes to `map_name` contain
/// an entry satisfying `pred`.
fn first_write(
    node: &ccf_core::CcfNode,
    map_name: &str,
    pred: impl Fn(&[u8], Option<&[u8]>) -> bool,
) -> Option<Seqno> {
    let writes = node.historical_writes(1, node.commit_seqno()).unwrap();
    writes.into_iter().find_map(|(txid, ws)| {
        let hit = ws
            .maps
            .get(&MapName::new(map_name))
            .is_some_and(|w| w.iter().any(|(k, v)| pred(k, v.as_deref())));
        hit.then_some(txid.seqno)
    })
}

#[test]
fn retirement_and_rekey_land_at_pinned_seqnos() {
    // The primary's post-commit duties write `Retired` once a retirement
    // leaves the committed configuration, and rekey once governance asks.
    // Running them only when armed must not move either write.
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 4, members: 1, seed: 66, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let primary = service.primary().unwrap();
    let victim = service.nodes.keys().find(|id| **id != primary).unwrap().clone();
    let state = service.propose_and_accept(Proposal::single(
        "remove_node",
        Value::obj([("node_id".to_string(), Value::str(victim.clone()))]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(1000);
    let state =
        service.propose_and_accept(Proposal::single("trigger_ledger_rekey", Value::Null));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(1000);

    let node = &service.nodes[&service.primary().unwrap()];
    let retired = first_write(node, ccf_kv::builtin::NODES_INFO, |k, v| {
        let info = v.and_then(|v| NodeInfo::from_json(std::str::from_utf8(v).ok()?));
        k == victim.as_bytes() && info.is_some_and(|i| i.status == NodeStatus::Retired)
    });
    let rekeyed = first_write(node, ccf_kv::builtin::LEDGER_SECRET, |k, v| {
        k == b"rekey_requested" && v.is_none()
    });
    assert_eq!((retired, rekeyed), (Some(22), Some(28)));
}

#[test]
fn steady_state_writes_run_no_duty_scans() {
    // After the last governance write commits, nothing arms the primary's
    // post-commit duties, so plain writes never scan `nodes.info`, even
    // with a signature (and so a commit) per write.
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 1, seed: 67, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    for node in service.nodes.values() {
        node.set_signature_policy(1, 10);
    }
    service.run_for(500);
    let scans = |s: &ServiceCluster| s.obs().snapshot().counters["node.duty_scans"];
    let before = scans(&service);
    assert!(before > 0, "governance writes arm the duties");
    for i in 0..500 {
        let r = service.user_request(0, "POST", "/put", format!("k{i}=v{i}").as_bytes());
        assert_eq!(r.status, 200, "{}", r.text());
        service.run_until_committed(r.txid.unwrap());
    }
    assert_eq!(scans(&service), before, "steady-state writes ran duty scans");
}

/// A primary cut off right after it appends a ledger rekey's distribution
/// loses that entry to the majority's next view. The secret the entry
/// handed it goes with the rollback: the old primary then opens the new
/// primary's private writes at those seqnos with the secret they were
/// sealed under, and commits them (it used to panic on a tag mismatch).
#[test]
fn rolled_back_rekey_drops_its_secret() {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 1, seed: 70, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let old = service.primary().unwrap();
    let index_of = |s: &ServiceCluster, id: &str| s.nodes.keys().position(|k| k == id).unwrap();
    let proposal = Proposal::single("trigger_ledger_rekey", Value::Null);
    assert_eq!(service.try_propose_and_vote(&proposal), Ok(ProposalState::Accepted));
    let dist = format!("dist/{old}");
    assert!(service.run_until(5_000, |c| {
        c.nodes[&old].store_state().get(ccf_kv::builtin::LEDGER_SECRET, dist.as_bytes()).is_some()
    }));
    let others: std::collections::BTreeSet<String> =
        service.nodes.keys().filter(|id| **id != old).cloned().collect();
    service.net.partition(vec![[old.clone()].into(), others.clone()]);

    let old_view = service.nodes[&old].view();
    assert!(service.run_until(30_000, |c| {
        others.iter().any(|id| c.nodes[id].is_primary() && c.nodes[id].view() > old_view)
    }));
    let new = others.iter().find(|id| service.nodes[*id].is_primary()).unwrap().clone();
    let new_idx = index_of(&service, &new);
    let txids: Vec<TxId> = (0..5)
        .map(|i| {
            let r = service.user_request(new_idx, "POST", "/put", format!("k{i}=v{i}").as_bytes());
            assert_eq!(r.status, 200, "{}", r.text());
            r.txid.unwrap()
        })
        .collect();
    service.run_for(500);
    service.net.heal();
    service.run_for(2000);

    let node = &service.nodes[&old];
    for txid in &txids {
        assert_eq!(node.tx_status(*txid), TxStatus::Committed, "{txid} on the old primary");
    }
    let state = node.store_state();
    assert_eq!(state.get("data", b"k4"), Some(&b"v4"[..]));
    let commit = node.commit_seqno();
    assert_eq!(node.historical_writes(1, commit).unwrap().len() as u64, commit);
}
