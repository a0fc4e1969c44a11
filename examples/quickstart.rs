//! Quickstart: the paper's distributed logging application on a
//! three-node, three-member CCF service.
//!
//! Run with: `cargo run --example quickstart`

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::sync::Arc;

fn logging_app() -> Application {
    Application::new("logging v1")
        // write_message: POST /log with body "id=message" (§2's example).
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(format!("stored message {id}").into_bytes())
        }))
        // read_message: GET /log?id=... — read-only fast path (§3.4).
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("no such message"),
            }
        }))
}

fn main() {
    println!("=== CCF quickstart: distributed logging (paper §2, §7) ===\n");

    println!("starting a 3-node service governed by 3 consortium members…");
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed: 7, ..ServiceOpts::default() },
        Arc::new(logging_app()),
    );
    println!(
        "  nodes: {:?}, primary: {:?}",
        service.nodes.keys().collect::<Vec<_>>(),
        service.primary().unwrap()
    );

    println!("members vote to open the service (§5.1)…");
    service.open_service();

    println!("\nuser writes a message (executed on the primary, replicated):");
    let resp = service.user_request(0, "POST", "/log", b"42=hello confidential world");
    let txid = resp.txid.expect("write gets a transaction ID");
    println!("  -> {} (txid {txid})", resp.text());

    println!("waiting for global commit (signature transaction replicated)…");
    service.run_until_committed(txid);
    println!("  -> status: {:?}", service.nodes["n0"].tx_status(txid));

    println!("\nreads are served by every node, including backups (§6.3):");
    for i in 0..3 {
        let resp = service.user_request(i, "GET", "/log?id=42", b"");
        println!("  node #{i}: {} (status {})", resp.text(), resp.status);
    }

    println!("\nfetching a verifiable receipt (§3.5)…");
    service.run_for(100);
    let receipt = service.receipt(txid).expect("receipt");
    let identity = service.service_identity();
    receipt.verify(&identity).expect("receipt verifies offline");
    println!(
        "  receipt for {txid}: {} bytes, signed by {}, VERIFIED against the service identity",
        receipt.encode().len(),
        receipt.node_id
    );

    println!("\nthe host's persisted ledger never sees the private message:");
    let blobs = service.nodes["n0"].persisted_ledger();
    let all: Vec<u8> = blobs.concat();
    let leaked = all.windows(b"hello confidential world".len()).any(|w| w == b"hello confidential world");
    println!("  plaintext on disk: {leaked} (ledger bytes: {})", all.len());
    assert!(!leaked);

    println!("\ndone.");
}
