//! The paper's banking example (§2): a service managed by a consortium of
//! financial institutions, with credit/debit/transfer endpoints, an
//! audit endpoint restricted to a regulator, and per-account statements
//! backed by the indexing strategy of §3.4.
//!
//! Run with: `cargo run --example banking`

use ccf_core::app::{AppError, AppResult, Application, EndpointDef};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::sync::Arc;

const ACCOUNTS: &str = "accounts"; // private map: account id -> balance (USD cents)

fn balance(ctx: &mut ccf_core::app::EndpointContext<'_, '_>, id: &str) -> u64 {
    ctx.get_private(ACCOUNTS, id.as_bytes())
        .map(|v| String::from_utf8_lossy(&v).parse().unwrap_or(0))
        .unwrap_or(0)
}

fn set_balance(ctx: &mut ccf_core::app::EndpointContext<'_, '_>, id: &str, amount: u64) {
    ctx.put_private(ACCOUNTS, id.as_bytes(), amount.to_string().as_bytes());
}

fn banking_app() -> Application {
    Application::new("banking v1")
        .endpoint(EndpointDef::write("POST", "/credit", |ctx| {
            let body = ctx.body_json()?;
            let account = body.get("account").and_then(|v| v.as_str()).ok_or_else(|| AppError::bad_request("account"))?;
            let amount = body.get("amount").and_then(|v| v.as_num()).ok_or_else(|| AppError::bad_request("amount"))? as u64;
            let new_balance = balance(ctx, account) + amount;
            set_balance(ctx, account, new_balance);
            AppResult::ok(new_balance.to_string().into_bytes())
        }))
        .endpoint(EndpointDef::write("POST", "/debit", |ctx| {
            let body = ctx.body_json()?;
            let account = body.get("account").and_then(|v| v.as_str()).ok_or_else(|| AppError::bad_request("account"))?;
            let amount = body.get("amount").and_then(|v| v.as_num()).ok_or_else(|| AppError::bad_request("amount"))? as u64;
            let current = balance(ctx, account);
            if current < amount {
                return AppResult::bad_request("insufficient funds");
            }
            set_balance(ctx, account, current - amount);
            AppResult::ok((current - amount).to_string().into_bytes())
        }))
        .endpoint(EndpointDef::write("POST", "/transfer", |ctx| {
            let body = ctx.body_json()?;
            let from = body.get("from").and_then(|v| v.as_str()).ok_or_else(|| AppError::bad_request("from"))?.to_string();
            let to = body.get("to").and_then(|v| v.as_str()).ok_or_else(|| AppError::bad_request("to"))?.to_string();
            let amount = body.get("amount").and_then(|v| v.as_num()).ok_or_else(|| AppError::bad_request("amount"))? as u64;
            let from_balance = balance(ctx, &from);
            if from_balance < amount {
                return AppResult::bad_request("insufficient funds");
            }
            let to_balance = balance(ctx, &to);
            // Atomic: both updates commit in one transaction or neither.
            set_balance(ctx, &from, from_balance - amount);
            set_balance(ctx, &to, to_balance + amount);
            ctx.attach_claims(format!("transfer:{from}->{to}:{amount}").as_bytes());
            AppResult::ok(b"transferred".to_vec())
        }))
        .endpoint(EndpointDef::read("GET", "/balance", |ctx| {
            let account = ctx.query("account")?;
            AppResult::ok(balance(ctx, &account).to_string().into_bytes())
        }))
        // audit: available only to the regulator — returns accounts whose
        // balance exceeds a threshold (§2's example).
        .endpoint(EndpointDef::read("GET", "/audit", |ctx| {
            if ctx.caller.user_id() != Some("regulator") {
                return AppResult::forbidden("audit is restricted to the financial regulator");
            }
            let threshold: u64 =
                ctx.query("threshold")?.parse().map_err(|_| AppError::bad_request("threshold"))?;
            let mut hits = Vec::new();
            let mut pairs = Vec::new();
            ctx.tx.for_each(&MapName::new(ACCOUNTS), |k, v| {
                pairs.push((k.to_vec(), v.to_vec()));
            });
            for (k, v) in pairs {
                let bal: u64 = String::from_utf8_lossy(&v).parse().unwrap_or(0);
                if bal > threshold {
                    hits.push(format!("{}:{}", String::from_utf8_lossy(&k), bal));
                }
            }
            AppResult::ok(hits.join(",").into_bytes())
        }))
}

fn main() {
    println!("=== CCF banking consortium (paper §2) ===\n");
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, users: 0, seed: 21, ..ServiceOpts::default() },
        Arc::new(banking_app()),
    );

    println!("governance registers the banks' customers and the regulator (§5.1)…");
    for user in ["alice", "bob", "regulator"] {
        let state = service.propose_and_accept(Proposal::single(
            "set_user",
            Value::obj([
                ("user_id".to_string(), Value::str(user)),
                ("cert".to_string(), Value::str(format!("cert-{user}"))),
            ]),
        ));
        println!("  set_user {user}: {state:?}");
    }
    service.open_service();

    println!("\ncredits and a transfer (atomic, isolated — §6.4):");
    let r = service.user_request_as("alice", 0, "POST", "/credit", br#"{"account":"alice","amount":10000}"#);
    println!("  credit alice 10000 -> balance {}", r.text());
    let r = service.user_request_as("bob", 0, "POST", "/credit", br#"{"account":"bob","amount":500}"#);
    println!("  credit bob     500 -> balance {}", r.text());
    let r = service.user_request_as(
        "alice",
        0,
        "POST",
        "/transfer",
        br#"{"from":"alice","to":"bob","amount":2500}"#,
    );
    let transfer_txid = r.txid.expect("transfer txid");
    println!("  transfer alice->bob 2500 -> {} (txid {transfer_txid})", r.text());

    let r = service.user_request_as(
        "alice",
        0,
        "POST",
        "/transfer",
        br#"{"from":"alice","to":"bob","amount":999999}"#,
    );
    println!("  overdraft attempt -> {} {}", r.status, r.text());

    service.run_until_committed(transfer_txid);
    println!("\nbalances (reads on any node):");
    for account in ["alice", "bob"] {
        let r = service.user_request_as(account, 1, "GET", &format!("/balance?account={account}"), b"");
        println!("  {account}: {}", r.text());
    }

    println!("\nthe regulator audits accounts over 5000 (restricted endpoint):");
    let r = service.user_request_as("regulator", 0, "GET", "/audit?threshold=5000", b"");
    println!("  audit -> {}", r.text());
    let r = service.user_request_as("alice", 0, "GET", "/audit?threshold=5000", b"");
    println!("  alice tries to audit -> {} {}", r.status, r.text());

    println!("\na receipt proves the transfer happened, offline (§3.5):");
    service.run_for(100);
    let receipt = service.receipt(transfer_txid).expect("receipt");
    receipt.verify(&service.service_identity()).unwrap();
    let claims = ccf_crypto::sha2::sha256(b"transfer:alice->bob:2500");
    println!(
        "  verified; claims digest matches 'transfer:alice->bob:2500': {}",
        receipt.claims_digest == claims
    );

    println!("\ndone.");
}
