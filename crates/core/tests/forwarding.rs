//! The forwarding rule (§4.3): a node that is neither primary nor
//! retiring answers every write 307, naming the primary, before running
//! it — a plain request, a signed envelope and a governance proposal
//! alike — and serves reads itself. A retiring primary forwards nothing
//! and answers writes 503.

use ccf_consensus::replica::Role;
use ccf_core::app::{AppResult, Application, Caller, EndpointDef, Request, Response};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::{Proposal, ProposalState, SignedRequest};
use ccf_script::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A logging app whose write endpoint counts its own calls.
fn counting_app(calls: Arc<AtomicU64>) -> Application {
    Application::new("forwarding v1")
        .endpoint(EndpointDef::write("POST", "/log", move |ctx| {
            calls.fetch_add(1, Ordering::Relaxed);
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

fn start(nodes: usize, calls: &Arc<AtomicU64>) -> ServiceCluster {
    let opts = ServiceOpts { nodes, members: 3, ..ServiceOpts::default() };
    let mut service = ServiceCluster::start(opts, Arc::new(counting_app(calls.clone())));
    service.open_service();
    service
}

fn user0(method: &str, path: &str, body: &[u8]) -> Request {
    Request::new(method, path, Caller::User("user0".into()), body)
}

fn set_user(user: &str) -> Proposal {
    Proposal::single(
        "set_user",
        Value::obj([
            ("user_id".to_string(), Value::str(user)),
            ("cert".to_string(), Value::str(format!("cert-{user}"))),
        ]),
    )
}

/// Status, body and txid of a response, for comparing whole answers.
fn answer(resp: &Response) -> (u16, String, Option<ccf_ledger::TxId>) {
    (resp.status, resp.text(), resp.txid)
}

#[test]
fn a_backup_forwards_every_write_before_running_it() {
    let calls = Arc::new(AtomicU64::new(0));
    let mut service = start(3, &calls);
    let key = service.register_user_key("alice");
    let primary_id = service.primary().expect("primary");
    let backup_id = service.nodes.keys().find(|id| **id != primary_id).unwrap().clone();
    let (primary, backup) = (service.nodes[&primary_id].clone(), service.nodes[&backup_id].clone());
    // The last trace id minted so far is this write's.
    let first = primary.handle_request(&user0("POST", "/log", b"1=first"));
    assert_eq!(first.status, 200, "{}", first.text());
    let last_trace = primary.trace_of(first.txid.unwrap());
    assert!(last_trace.is_some());
    let forwards = service.obs().counter("node.leader_forwards");
    let (calls0, forwards0) = (calls.load(Ordering::Relaxed), forwards.get());

    let plain = backup.handle_request(&user0("POST", "/log", b"2=plain"));
    let envelope = SignedRequest::sign(&key, "user/POST /log", b"3=signed", 1);
    let signed = backup.handle_signed_user_requests(&[envelope]).remove(0);
    let member = service.members.values().next().unwrap();
    let governance = backup.submit_proposal(&member.signing, &set_user("bob"), 1);
    for (what, resp) in [("plain", &plain), ("signed", &signed), ("governance", &governance)] {
        assert_eq!(answer(resp), (307, primary_id.clone(), None), "{what}");
    }
    assert_eq!(calls.load(Ordering::Relaxed), calls0, "a backup ran a write it forwarded");
    assert_eq!(forwards.get(), forwards0 + 3);

    // The write runs first at the primary, which mints the next trace id.
    let resp = primary.handle_request(&user0("POST", "/log", b"2=plain"));
    assert_eq!(resp.status, 200, "{}", resp.text());
    let txid = resp.txid.unwrap();
    assert_eq!(primary.trace_of(txid).0, last_trace.0 + 1, "a trace id was minted elsewhere");
    assert_eq!(calls.load(Ordering::Relaxed), calls0 + 1);

    // A read is served where it lands.
    service.run_until_committed(txid);
    let read = backup.handle_request(&user0("GET", "/log?id=2", b""));
    assert_eq!((read.status, read.text()), (200, "plain".to_string()));
    assert_eq!(forwards.get(), forwards0 + 3, "a read was forwarded");
}

#[test]
fn a_retiring_primary_answers_writes_503() {
    let calls = Arc::new(AtomicU64::new(0));
    let mut service = start(4, &calls);
    let primary_id = service.primary().expect("primary");
    let remove = Proposal::single(
        "remove_node",
        Value::obj([("node_id".to_string(), Value::str(primary_id.clone()))]),
    );
    let (pid, state) = service.propose(remove);
    if !state.is_final() {
        assert_eq!(service.vote_all(&pid), ProposalState::Accepted);
    }
    let primary = service.nodes[&primary_id].clone();
    assert!(
        service.run_until(10_000, |_| primary.role() == Role::Retiring),
        "{primary_id} never retired"
    );
    let forwards = service.obs().counter("node.leader_forwards");
    let forwards0 = forwards.get();
    let plain = primary.handle_request(&user0("POST", "/log", b"1=late"));
    let member = service.members.values().next().unwrap();
    let governance = primary.submit_proposal(&member.signing, &set_user("bob"), 99);
    for (what, resp) in [("plain", &plain), ("governance", &governance)] {
        assert_eq!(resp.status, 503, "{what}: {}", resp.text());
    }
    assert_eq!(forwards.get(), forwards0, "a retiring primary forwarded a write");
}
