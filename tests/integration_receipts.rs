//! Receipts end-to-end (§3.5): issuance from a live replicated service,
//! fully offline verification against the service identity, claims
//! binding, and tamper rejection.

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::sync::Arc;

fn app() -> Application {
    Application::new("receipts app v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"ok".to_vec())
        }))
        .endpoint(EndpointDef::write("POST", "/log_claimed", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            // §3.5: "the application logic may also choose to attach
            // arbitrary claims to a transaction and thus its receipt".
            ctx.attach_claims(format!("posted:{id}").as_bytes());
            AppResult::ok(b"ok".to_vec())
        }))
}

fn start() -> (ServiceCluster, ccf_crypto::VerifyingKey) {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed: 70, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let identity = service.service_identity();
    (service, identity)
}

#[test]
fn receipt_for_committed_transaction_verifies_offline() {
    let (mut service, identity) = start();
    let resp = service.user_request(0, "POST", "/log", b"1=provable message");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    service.run_for(100);
    let receipt = service.receipt(txid).expect("receipt for committed tx");
    // Offline verification: no node involved, only the service identity.
    receipt.verify(&identity).unwrap();
    assert_eq!(receipt.txid, txid);
    // Wire roundtrip preserves verifiability (receipts travel to third
    // parties).
    let decoded = ccf_ledger::Receipt::decode(&receipt.encode()).unwrap();
    decoded.verify(&identity).unwrap();
}

#[test]
fn receipts_served_by_backups_too() {
    let (mut service, identity) = start();
    let resp = service.user_request(0, "POST", "/log", b"2=msg");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    service.run_for(200);
    let primary = service.primary().unwrap();
    let mut from_backup = 0;
    for (id, node) in &service.nodes {
        if *id == primary {
            continue;
        }
        if let Some(r) = node.receipt(txid) {
            r.verify(&identity).unwrap();
            from_backup += 1;
        }
    }
    assert!(from_backup >= 1, "read-only receipt serving must work on backups (§6.3)");
}

#[test]
fn receipt_endpoint_returns_encodable_receipt() {
    let (mut service, identity) = start();
    let resp = service.user_request(0, "POST", "/log", b"3=via endpoint");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    service.run_for(100);
    let resp = service.user_request(
        0,
        "GET",
        &format!("/node/receipt?view={}&seqno={}", txid.view, txid.seqno),
        b"",
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    let receipt = ccf_ledger::Receipt::decode(&resp.body).unwrap();
    receipt.verify(&identity).unwrap();
    // Uncommitted/unknown transactions yield 404.
    let resp = service.user_request(0, "GET", "/node/receipt?view=9&seqno=99999", b"");
    assert_eq!(resp.status, 404);
}

#[test]
fn claims_are_bound_into_receipts() {
    let (mut service, identity) = start();
    let resp = service.user_request(0, "POST", "/log_claimed", b"7=claimed message");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    service.run_for(100);
    let receipt = service.receipt(txid).unwrap();
    receipt.verify(&identity).unwrap();
    // The verifier can check the out-of-band claims against the digest.
    let expected_claims = ccf_crypto::sha2::sha256(b"posted:7");
    assert_eq!(receipt.claims_digest, expected_claims);
    // A receipt for a claim-less transaction has the zero digest.
    let resp = service.user_request(0, "POST", "/log", b"8=no claims");
    let txid2 = resp.txid.unwrap();
    service.run_until_committed(txid2);
    service.run_for(100);
    let receipt2 = service.receipt(txid2).unwrap();
    assert_eq!(receipt2.claims_digest, [0u8; 32]);
}

#[test]
fn tampered_receipts_fail_verification() {
    let (mut service, identity) = start();
    let resp = service.user_request(0, "POST", "/log", b"9=tamper target");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    service.run_for(100);
    let receipt = service.receipt(txid).unwrap();

    let mut r = receipt.clone();
    r.txid = TxId::new(r.txid.view, r.txid.seqno + 1);
    assert!(r.verify(&identity).is_err(), "claiming a different txid must fail");

    let mut r = receipt.clone();
    r.public_digest[5] ^= 1;
    assert!(r.verify(&identity).is_err(), "claiming different content must fail");

    let mut r = receipt.clone();
    r.claims_digest = ccf_crypto::sha2::sha256(b"forged claims");
    assert!(r.verify(&identity).is_err(), "forged claims must fail");

    // Verification against the WRONG service identity fails — this is
    // exactly how users detect a disaster-recovered (different) service.
    let other = ccf_crypto::SigningKey::from_seed([9u8; 32]).verifying_key();
    assert!(receipt.verify(&other).is_err());
}

#[test]
fn receipts_survive_primary_failover() {
    let (mut service, identity) = start();
    let resp = service.user_request(0, "POST", "/log", b"10=pre-failover");
    let txid = resp.txid.unwrap();
    service.run_until_committed(txid);
    let primary = service.primary().unwrap();
    service.crash(&primary);
    assert!(service.run_until(30_000, |c| c.primary().is_some_and(|p| p != primary)));
    service.run_for(500);
    // A receipt for the old transaction is still obtainable from the
    // survivors, signed under a signature transaction by whichever node.
    let receipt = service.receipt(txid).expect("receipt after failover");
    receipt.verify(&identity).unwrap();
}
