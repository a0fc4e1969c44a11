//! Integration tests for the batched signed-user-request path: the
//! envelopes of one `signed_user_requests` call are signature-checked
//! together through `ccf_crypto::verify_batch`, and answered in that call,
//! with a per-signature fallback when the batch rejects.

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::SignedRequest;
use std::sync::Arc;

fn app() -> Application {
    Application::new("signed-batch v1")
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
}

fn start() -> ServiceCluster {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    service
}

#[test]
fn signed_request_roundtrip_via_queue() {
    let mut service = start();
    let key = service.register_user_key("alice");
    let resp = service.signed_user_request(&key, 0, "POST", "/log", b"7=queued hello", 1);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let txid = resp.txid.expect("write returns txid");
    service.run_until_committed(txid);
    let read = service.signed_user_request(&key, 1, "GET", "/log?id=7", b"", 2);
    assert_eq!(read.status, 200);
    assert_eq!(read.body, b"queued hello");
}

#[test]
fn batch_of_signed_requests_all_succeed() {
    let mut service = start();
    let key = service.register_user_key("alice");
    let envelopes: Vec<SignedRequest> = (0..16)
        .map(|i| {
            SignedRequest::sign(
                &key,
                "user/POST /log",
                format!("{i}=payload-{i}").as_bytes(),
                100 + i,
            )
        })
        .collect();
    let responses = service.signed_user_requests(0, envelopes);
    assert_eq!(responses.len(), 16);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.status, 200, "request {i}: {}", resp.text());
    }
    let last = responses.last().unwrap().txid.unwrap();
    service.run_until_committed(last);
    for i in 0..16 {
        let read = service.signed_user_request(&key, 0, "GET", &format!("/log?id={i}"), b"", 500 + i);
        assert_eq!(read.body, format!("payload-{i}").into_bytes(), "read {i}");
    }
}

#[test]
fn bad_signature_in_batch_fails_alone() {
    let mut service = start();
    let key = service.register_user_key("alice");
    let mut envelopes: Vec<SignedRequest> = (0..8)
        .map(|i| {
            SignedRequest::sign(&key, "user/POST /log", format!("{i}=v{i}").as_bytes(), 10 + i)
        })
        .collect();
    // Corrupt one envelope's signature: the batch check must reject, the
    // per-signature fallback must pinpoint exactly this request, and the
    // other seven must still execute.
    envelopes[3].signature.0[17] ^= 0x40;
    let responses = service.signed_user_requests(0, envelopes);
    for (i, resp) in responses.iter().enumerate() {
        if i == 3 {
            assert_eq!(resp.status, 401, "corrupted request must 401");
        } else {
            assert_eq!(resp.status, 200, "request {i}: {}", resp.text());
        }
    }
}

#[test]
fn unregistered_signer_is_rejected() {
    let mut service = start();
    // Valid signature, but the key is not in users.certs.
    let stranger = ccf_crypto::SigningKey::from_seed(ccf_crypto::sha256(b"stranger"));
    let resp = service.signed_user_request(&stranger, 0, "POST", "/log", b"1=x", 1);
    assert_eq!(resp.status, 403);
}

#[test]
fn purpose_binds_method_and_path() {
    let mut service = start();
    let key = service.register_user_key("alice");
    // Sign for GET but the envelope purpose drives dispatch; a tampered
    // purpose breaks the signature.
    let mut envelope = SignedRequest::sign(&key, "user/POST /log", b"9=orig", 1);
    envelope.purpose = "user/GET /log".to_string();
    let responses = service.signed_user_requests(0, vec![envelope]);
    assert_eq!(responses[0].status, 401);
}

fn envelopes(key: &ccf_crypto::SigningKey, n: u64) -> Vec<SignedRequest> {
    (0..n)
        .map(|i| SignedRequest::sign(key, "user/POST /log", format!("{i}=v{i}").as_bytes(), 40 + i))
        .collect()
}

/// Index of the primary, and of a backup, in `service.nodes` order.
fn primary_and_backup(service: &ServiceCluster) -> (usize, usize) {
    let primary = service.primary().expect("primary");
    let position = |backup: bool| service.nodes.keys().position(|id| (*id != primary) == backup);
    (position(false).unwrap(), position(true).unwrap())
}

/// Sends `n` signed writes to node `idx` and returns how much the batch
/// verify counters (verifies, signatures) rose.
fn send_signed_writes(service: &mut ServiceCluster, idx: usize, n: u64) -> (u64, u64) {
    let key = service.register_user_key("alice");
    let verifies = service.obs().counter("crypto.ed25519_batch_verifies");
    let sigs = service.obs().counter("crypto.ed25519_batch_sigs");
    let (verifies0, sigs0, now) = (verifies.get(), sigs.get(), service.now());
    let responses = service.signed_user_requests(idx, envelopes(&key, n));
    assert_eq!(responses.len() as u64, n);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.status, 200, "request {i}: {}", resp.text());
        assert!(resp.txid.is_some(), "request {i} has no txid");
    }
    // The batch is verified and answered in the call that brings it.
    assert_eq!(service.now(), now, "virtual time passed while answering");
    (verifies.get() - verifies0, sigs.get() - sigs0)
}

#[test]
fn signed_batch_at_primary_is_answered_in_one_call() {
    let mut service = start();
    let (primary, _) = primary_and_backup(&service);
    assert_eq!(send_signed_writes(&mut service, primary, 6), (1, 6));
}

#[test]
fn signed_write_batch_at_backup_is_verified_only_at_the_primary() {
    let mut service = start();
    let (_, backup) = primary_and_backup(&service);
    // The backup answers 307 without checking the signatures; the
    // primary it names verifies and runs the batch.
    assert_eq!(send_signed_writes(&mut service, backup, 6), (1, 6));
}

#[test]
fn signed_reads_at_backup_are_verified_and_served_there() {
    let mut service = start();
    let (primary, backup) = primary_and_backup(&service);
    let key = service.register_user_key("alice");
    let write = service.signed_user_request(&key, primary, "POST", "/log", b"3=held", 1);
    service.run_until_committed(write.txid.expect("write txid"));
    let forwards = service.obs().counter("node.leader_forwards");
    let verifies = service.obs().counter("crypto.ed25519_batch_verifies");
    let sigs = service.obs().counter("crypto.ed25519_batch_sigs");
    let before = (forwards.get(), verifies.get(), sigs.get());
    let reads: Vec<SignedRequest> =
        (0..4).map(|i| SignedRequest::sign(&key, "user/GET /log?id=3", b"", 10 + i)).collect();
    for resp in service.signed_user_requests(backup, reads) {
        assert_eq!((resp.status, resp.body.as_slice()), (200, &b"held"[..]), "{}", resp.text());
    }
    let after = (forwards.get(), verifies.get(), sigs.get());
    assert_eq!(after, (before.0, before.1 + 1, before.2 + 4), "(forwards, verifies, signatures)");
}

#[test]
fn forged_write_at_backup_is_refused_by_the_primary() {
    let mut service = start();
    let (_, backup) = primary_and_backup(&service);
    let key = service.register_user_key("alice");
    let read = SignedRequest::sign(&key, "user/GET /log?id=8", b"", 1);
    let mut forged = SignedRequest::sign(&key, "user/POST /log", b"8=forged", 2);
    forged.payload = b"8=rewritten".to_vec();
    let single = service.obs().counter("crypto.ed25519_single_verifies");
    let single0 = single.get();
    let responses = service.signed_user_requests(backup, vec![read, forged]);
    // The backup serves the read and forwards the write unverified; the
    // primary's check catches the forgery, which never runs.
    assert_eq!(responses[0].status, 404, "{}", responses[0].text());
    assert_eq!(responses[1].status, 401, "{}", responses[1].text());
    assert_eq!(single.get() - single0, 1, "only the primary re-checks the rejected batch");
    let probe = service.signed_user_request(&key, backup, "GET", "/log?id=8", b"", 3);
    assert_eq!(probe.status, 404, "the forged write must not have run");
}

#[test]
fn receipt_from_a_backup_records_its_receipt_stage() {
    let mut service = start();
    let (primary, backup) = primary_and_backup(&service);
    let resp = service.user_request(primary, "POST", "/log", b"5=traced");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let txid = resp.txid.expect("write txid");
    let backup_id = service.nodes.keys().nth(backup).unwrap().clone();
    let node = service.nodes[&backup_id].clone();
    // A receipt needs a committed signature after the write on the backup.
    assert!(service.run_until(5_000, |_| node.tx_status(txid) == ccf_consensus::TxStatus::Committed));
    assert!(service.run_until(5_000, |_| node.receipt(txid).is_some()), "backup never issued a receipt");
    let trace = node.trace_of(txid);
    assert!(trace.is_some(), "the backup's logged entry carries no trace");
    let spans = service.obs().snapshot().trace_spans;
    assert!(
        spans.iter().any(|s| s.trace == trace.0 && s.stage == "receipt" && s.node == backup_id),
        "no receipt span on {backup_id} for trace {}",
        trace.0
    );
}
