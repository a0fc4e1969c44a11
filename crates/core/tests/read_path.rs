//! The read fast path (§3.4): a read-only endpoint, native or script, is
//! served by any node and proposes nothing. A read-only endpoint that
//! writes is refused.

use ccf_core::app::{AppResult, Application, Caller, EndpointDef, Request};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::{Proposal, ProposalState};
use ccf_script::Value;
use std::sync::Arc;

/// Native endpoints under `/native`; the script app serves `/log`.
fn native_app() -> Application {
    Application::new("read path v1")
        .endpoint(EndpointDef::write("POST", "/native", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("native", id.as_bytes(), msg.as_bytes());
            AppResult::ok(b"stored".to_vec())
        }))
        .endpoint(EndpointDef::read("GET", "/native", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("native", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("no such message"),
            }
        }))
}

fn user0(method: &str, path: &str, body: &[u8]) -> Request {
    Request::new(method, path, Caller::User("user0".into()), body)
}

#[test]
fn native_and_script_reads_answer_at_the_primary_and_at_a_backup() {
    let opts = ServiceOpts { nodes: 3, members: 3, seed: 26, ..ServiceOpts::default() };
    let mut service = ServiceCluster::start(opts, Arc::new(native_app()));
    service.open_service();
    let script = Value::obj([("app".to_string(), Value::str(ccf_core::app::logging_script_app()))]);
    let state = service.propose_and_accept(Proposal::single("set_js_app", script));
    assert_eq!(state, ProposalState::Accepted);
    service.run_for(300);

    let primary_id = service.primary().expect("primary");
    let backup_id = service.nodes.keys().find(|id| **id != primary_id).unwrap().clone();
    let (primary, backup) = (service.nodes[&primary_id].clone(), service.nodes[&backup_id].clone());
    for (path, body) in [("/native", &b"1=native message"[..]), ("/log", b"2=script message")] {
        let resp = primary.handle_request(&user0("POST", path, body));
        assert_eq!(resp.status, 200, "{path}: {}", resp.text());
        service.run_until_committed(resp.txid.unwrap());
    }

    let proposed = primary.last_applied();
    for node in [&primary, &backup] {
        let answers = [
            ("/native?id=1", 200, "native message"),
            ("/log?id=2", 200, "script message"),
            ("/native?id=2", 404, "no such message"),
            ("/log?id=1", 404, "no such message"),
            ("/native", 400, "missing query parameter id"),
        ];
        for (path, status, body) in answers {
            let resp = node.handle_request(&user0("GET", path, b""));
            assert_eq!((resp.status, resp.text().as_str()), (status, body), "{path}");
            if status == 200 {
                // A read carries the last applied txid, not a new one.
                assert_eq!(resp.txid, Some(node.last_applied()), "{path}");
            }
        }
    }
    assert_eq!(primary.last_applied(), proposed, "a read proposed an entry");
}
