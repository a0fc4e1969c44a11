//! Disaster recovery end-to-end (§5.2): total cluster loss, best-effort
//! restart from one copy of the ledger files, member share submission,
//! private-state recovery, new service identity, and reopening.

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::node::NodeOpts;
use ccf_core::prelude::*;
use ccf_core::recovery::{restart_service, RecoveryCoordinator};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::sync::Arc;

fn app() -> Application {
    Application::new("dr app v1")
        .endpoint(EndpointDef::write("POST", "/put", |ctx| {
            let (k, v) = ctx.body_kv()?;
            ctx.put_private("data", k.as_bytes(), v.as_bytes());
            AppResult::ok(vec![])
        }))
        .endpoint(EndpointDef::read("GET", "/get", |ctx| {
            let k = ctx.query("k")?;
            match ctx.get_private("data", k.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("missing"),
            }
        }))
}

/// Runs a service, writes data, destroys everything, and returns the
/// surviving ledger blobs plus what's needed to recover.
fn run_and_destroy(
    seed: u64,
    members: usize,
    threshold: usize,
) -> (Vec<Vec<u8>>, std::collections::BTreeMap<String, ccf_core::service::MemberKeys>, ccf_crypto::VerifyingKey)
{
    let mut service = ServiceCluster::start(
        ServiceOpts {
            nodes: 3,
            members,
            seed,
            recovery_threshold: threshold,
            ..ServiceOpts::default()
        },
        Arc::new(app()),
    );
    service.open_service();
    for i in 0..15 {
        let r = service.user_request(0, "POST", "/put", format!("k{i}=value-{i}").as_bytes());
        assert_eq!(r.status, 200);
    }
    let last = service.user_request(0, "POST", "/put", b"final=committed");
    service.run_until_committed(last.txid.unwrap());
    service.run_for(100);
    let old_identity = service.service_identity();
    // Catastrophe: all nodes die. One copy of the ledger files survives.
    let blobs = service.nodes.values().next().unwrap().persisted_ledger();
    let members = std::mem::take(&mut service.members);
    (blobs, members, old_identity)
}

#[test]
fn full_disaster_recovery_flow() {
    let (blobs, member_keys, old_identity) = run_and_destroy(80, 3, 2);

    // 1. Replay + verify public state.
    let mut coordinator = RecoveryCoordinator::from_ledger(&blobs).expect("recovery start");
    assert!(coordinator.recovered_len() > 15);
    assert!(coordinator.previous_identity.is_some());

    // 2. Below-threshold reconstruction fails.
    assert!(coordinator.try_complete().is_err());

    // 3. Two of three members (k=2) submit their shares.
    for (id, keys) in member_keys.iter().take(2) {
        let share = coordinator.member_share(id, &keys.encryption).expect("member share");
        coordinator.submit_share(id.clone(), share);
    }
    coordinator.try_complete().expect("threshold met");
    assert!(coordinator.is_complete());

    // 4. Restart as a fresh service with a NEW identity.
    let (mut recovered, previous, new_identity) = restart_service(
        &coordinator,
        Arc::new(app()),
        NodeOpts { id: "r0".into(), seed: 4242, ..Default::default() },
        member_keys,
        80,
    )
    .expect("restart");
    assert_ne!(new_identity.0, old_identity.0, "recovery must change the service identity");
    assert_eq!(
        previous.clone().unwrap(),
        ccf_crypto::hex::to_hex(&old_identity.0),
        "old identity must be recorded"
    );

    // 5. Members open the service, binding old and new identities (§5.2).
    let state = recovered.propose_and_accept(Proposal::single(
        "transition_service_to_open",
        Value::obj([
            ("previous_identity".to_string(), Value::str(previous.clone().unwrap_or_default())),
            (
                "next_identity".to_string(),
                Value::str(ccf_crypto::hex::to_hex(&new_identity.0)),
            ),
        ]),
    ));
    assert_eq!(state, ProposalState::Accepted);
    recovered.run_for(500);

    // 6. PRIVATE data written before the disaster is readable again.
    let r = recovered.user_request(0, "GET", "/get?k=k3", b"");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "value-3");
    let r = recovered.user_request(0, "GET", "/get?k=final", b"");
    assert_eq!(r.text(), "committed");

    // 7. And the service accepts new writes.
    let r = recovered.user_request(0, "POST", "/put", b"post_recovery=yes");
    assert_eq!(r.status, 200, "{}", r.text());
    recovered.run_until_committed(r.txid.unwrap());

    // 8. The service grows back: a node that joins with no snapshot is
    // sent the one the recovered node was built from, and serves
    // pre-disaster data.
    let r1 = recovered.join_and_trust("r1", None);
    let idx = recovered.nodes.keys().position(|k| *k == r1).unwrap();
    let r = recovered.user_request(idx, "GET", "/get?k=k3", b"");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), "value-3");
}

#[test]
fn recovery_discards_tampered_suffix() {
    let (mut blobs, _members, _) = run_and_destroy(81, 1, 1);
    let full = RecoveryCoordinator::from_ledger(&blobs).unwrap();
    // The malicious host tampers with a chunk in the middle of the ledger
    // — bytes that a later signature transaction covers.
    let n = blobs.len();
    assert!(n >= 2, "need multiple chunks");
    let len = blobs[n - 2].len();
    blobs[n - 2][len / 2] ^= 0xff;
    // Recovery either rejects the bad chunk outright or — when the damage
    // hits payload bytes — stops at the last verifiable signature, with
    // the replayed state rolled back to it.
    if let Ok(c) = RecoveryCoordinator::from_ledger(&blobs) {
        assert!(
            c.recovered_len() < full.recovered_len(),
            "tampered suffix must be discarded ({} vs {})",
            c.recovered_len(),
            full.recovered_len()
        );
        assert_eq!(c.recovered_state().version(), c.recovered_len());
    }
}

#[test]
fn recovery_fails_without_enough_shares() {
    let (blobs, member_keys, _) = run_and_destroy(82, 3, 3); // k = 3
    let mut coordinator = RecoveryCoordinator::from_ledger(&blobs).unwrap();
    for (id, keys) in member_keys.iter().take(2) {
        let share = coordinator.member_share(id, &keys.encryption).unwrap();
        coordinator.submit_share(id.clone(), share);
    }
    assert!(coordinator.try_complete().is_err(), "2 < k=3 shares must not recover");
    assert!(!coordinator.is_complete());
}

#[test]
fn wrong_member_key_cannot_obtain_share()  {
    let (blobs, member_keys, _) = run_and_destroy(83, 2, 2);
    let coordinator = RecoveryCoordinator::from_ledger(&blobs).unwrap();
    let (id0, _) = member_keys.iter().next().unwrap();
    let (_, keys1) = member_keys.iter().nth(1).unwrap();
    // Member 1's encryption key cannot decrypt member 0's share.
    assert!(coordinator.member_share(id0, &keys1.encryption).is_err());
}

#[test]
fn recovery_from_empty_or_garbage_ledger_fails_cleanly() {
    assert!(RecoveryCoordinator::from_ledger(&[]).is_err());
    assert!(RecoveryCoordinator::from_ledger(&[vec![1, 2, 3]]).is_err());
}
