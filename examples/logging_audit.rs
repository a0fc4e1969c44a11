//! Offline audit of a CCF ledger (§3.2, §6.1, §6.2).
//!
//! CCF's internal and governance maps are public precisely so that an
//! auditor holding only the persisted ledger files (and the service
//! identity) can verify the service's history without any key material:
//! the Merkle-root signature chain, the governance record, and node
//! membership changes — while private application data stays opaque.
//!
//! Run with: `cargo run --example logging_audit`

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_kv::{builtin, WriteSet};
use ccf_ledger::entry::EntryKind;
use ccf_ledger::files::read_chunks;
use ccf_ledger::MerkleTree;
use std::sync::Arc;

fn app() -> Application {
    Application::new("logging v1").endpoint(EndpointDef::write("POST", "/log", |ctx| {
        let (id, msg) = ctx.body_kv()?;
        ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
        AppResult::ok(vec![])
    }))
}

fn main() {
    println!("=== Offline ledger audit (paper §3.2, §6.1–6.2) ===\n");
    // ---- Run a service with some user and governance activity ----
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed: 33, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    for i in 0..20 {
        service.user_request(0, "POST", "/log", format!("{i}=secret message {i}").as_bytes());
    }
    let state = service.propose_and_accept(Proposal::single(
        "set_user",
        Value::obj([
            ("user_id".to_string(), Value::str("carol")),
            ("cert".to_string(), Value::str("cert-carol")),
        ]),
    ));
    println!("governance activity recorded (set_user carol: {state:?})");
    service.run_for(300);

    // ---- The auditor receives only: ledger files + service identity ----
    let blobs = service.nodes["n1"].persisted_ledger();
    println!("auditor receives {} ledger chunks from the host's disk\n", blobs.len());

    let entries = read_chunks(&blobs).expect("chunks well-formed");
    let mut merkle = MerkleTree::new();
    let mut signatures = 0;
    let mut governance_ops = 0;
    let mut reconfigs = 0;
    let mut private_bytes = 0usize;
    for entry in &entries {
        // 1. Verify each signature transaction against the recomputed root.
        if entry.is_signature() {
            let payload = entry.signature_payload().expect("signature payload decodes");
            assert_eq!(payload.root, merkle.root(), "signed root must match recomputation");
            payload.verify(entry.txid).expect("node signature verifies");
            signatures += 1;
        }
        if entry.kind == EntryKind::Reconfiguration {
            reconfigs += 1;
        }
        // 2. Count auditable governance operations (public maps, §6.1).
        if !entry.public_ws.is_empty() {
            let ws = WriteSet::decode(&entry.public_ws).unwrap();
            if ws.maps.keys().any(|m| m.0.starts_with("public:ccf.gov.proposals")) {
                governance_ops += 1;
            }
            for (_, writes) in ws.maps.iter().filter(|(m, _)| m.0 == builtin::GOV_HISTORY) {
                for v in writes.values() {
                    // Every governance request is a verifiable signed envelope.
                    let env = ccf_governance::SignedRequest::decode(v.as_ref().unwrap()).unwrap();
                    env.verify().expect("member signature verifies offline");
                }
            }
        }
        private_bytes += entry.private_ws_enc.len();
        merkle.append(&entry.leaf_bytes());
    }
    println!("audited {} entries:", entries.len());
    println!("  verified signature transactions : {signatures}");
    println!("  reconfiguration transactions    : {reconfigs}");
    println!("  governance operations observed  : {governance_ops}");
    println!("  private ciphertext bytes        : {private_bytes} (opaque to the auditor)");

    // 3. Tamper detection: flip one byte anywhere and the chain breaks.
    let mut tampered = blobs.clone();
    let mid = tampered.len() / 2;
    let len = tampered[mid].len();
    tampered[mid][len / 2] ^= 1;
    let verdict = audit_verifies(&tampered);
    println!("\ntampering one byte of chunk {mid}: audit passes = {verdict}");
    assert!(!verdict, "tampering must be detected");
    println!("\naudit complete: ledger integrity holds, governance fully transparent.");
}

/// Returns true iff the full signature chain verifies.
fn audit_verifies(blobs: &[Vec<u8>]) -> bool {
    let Ok(entries) = read_chunks(blobs) else { return false };
    let mut merkle = MerkleTree::new();
    for entry in &entries {
        if entry.is_signature() {
            let Ok(payload) = entry.signature_payload() else { return false };
            if payload.root != merkle.root() || payload.verify(entry.txid).is_err() {
                return false;
            }
        }
        merkle.append(&entry.leaf_bytes());
    }
    true
}
