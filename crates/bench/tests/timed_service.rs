//! `TimedService` steps the service through the same `SimNet::step` as
//! `ServiceCluster::step`, only with a timing closure: from the same seed
//! and the same requests, its steps leave byte-identical metrics to
//! `ServiceCluster::run_for`, so timing changes nothing it measures.

use ccf_bench::{bench_opts, logging_app, TimedService, MESSAGE};
use ccf_core::app::{Caller, Request};
use ccf_core::service::ServiceCluster;
use std::sync::Arc;

const ROUNDS: u64 = 5;
const STEPS_PER_ROUND: u64 = 40;

fn opened() -> ServiceCluster {
    let mut service = ServiceCluster::start(bench_opts(3, 7), Arc::new(logging_app()));
    service.open_service();
    service
}

/// Round `r`'s requests: writes on the primary, then a read on each node.
fn requests(r: u64, primary: usize, nodes: usize) -> Vec<(usize, Request)> {
    let user = Caller::User("user0".into());
    let mut out: Vec<(usize, Request)> = (0..4)
        .map(|i| {
            let body = format!("{}={MESSAGE}", r * 10 + i);
            (
                primary,
                Request::new("POST", "/log", user.clone(), body.as_bytes()),
            )
        })
        .collect();
    for node in 0..nodes {
        let path = format!("/log?id={}", r * 10);
        out.push((node, Request::new("GET", &path, user.clone(), b"")));
    }
    out
}

#[test]
fn timed_steps_match_run_for() {
    let mut plain = opened();
    let mut timed = TimedService::new(opened());
    let nodes: Vec<_> = plain.nodes.values().cloned().collect();
    for r in 0..ROUNDS {
        for (idx, req) in requests(r, timed.primary, nodes.len()) {
            let want = nodes[idx].handle_request(&req);
            let (got, _) = timed.request(idx, &req);
            assert_eq!((got.status, got.body), (want.status, want.body));
        }
        plain.run_for(STEPS_PER_ROUND);
        for _ in 0..STEPS_PER_ROUND {
            timed.step();
        }
    }
    assert_eq!(
        plain.obs().snapshot().to_json(),
        timed.service.obs().snapshot().to_json()
    );
    assert!(
        timed.busy_ns.iter().all(|&ns| ns > 0),
        "every node was timed"
    );
}
