//! Serializability at the node: a node runs one transaction at a time,
//! from begin to proposal under its lock, so read-modify-write requests
//! sent to every node of a service are applied one after another, each on
//! the state the previous one left, and none is lost or applied twice.

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A counter: `POST /incr` reads the key and writes it back plus one.
fn counter_app() -> Application {
    let count = |ctx: &mut ccf_core::app::EndpointContext<'_, '_>| {
        ctx.get_private("counters", b"hits")
            .map(|v| String::from_utf8_lossy(&v).parse::<u64>().expect("counter is a number"))
            .unwrap_or(0)
    };
    Application::new("counter v1")
        .endpoint(EndpointDef::write("POST", "/incr", move |ctx| {
            let next = count(ctx) + 1;
            ctx.put_private("counters", b"hits", next.to_string().as_bytes());
            AppResult::ok(next.to_string().into_bytes())
        }))
        .endpoint(EndpointDef::read("GET", "/count", move |ctx| {
            AppResult::ok(count(ctx).to_string().into_bytes())
        }))
}

#[test]
fn increments_sent_to_every_node_are_each_applied_once() {
    const N: u64 = 30;
    let opts = ServiceOpts { nodes: 3, members: 3, seed: 28, ..ServiceOpts::default() };
    let mut service = ServiceCluster::start(opts, Arc::new(counter_app()));
    service.open_service();
    let nodes = service.nodes.len();
    assert_eq!(nodes, 3);

    // Round-robin over all nodes: a backup answers 307 and the harness
    // resends to the primary.
    let forwards = service.obs().counter("node.leader_forwards");
    let forwarded_before = forwards.get();
    let mut txids = BTreeSet::new();
    let mut last = None;
    for i in 0..N {
        let resp = service.user_request(i as usize % nodes, "POST", "/incr", b"");
        assert_eq!(resp.status, 200, "increment {i}: {}", resp.text());
        // Each increment saw every earlier one.
        assert_eq!(resp.text(), (i + 1).to_string(), "increment {i}");
        let txid = resp.txid.expect("a write carries its txid");
        assert!(txids.insert(txid), "txid {txid} given twice");
        last = Some(txid);
    }
    assert_eq!(txids.len() as u64, N);
    let forwarded = forwards.get() - forwarded_before;
    assert_eq!(forwarded, 2 * N / 3, "two in three increments land on a backup");

    service.run_until_committed(last.unwrap());
    for idx in 0..nodes {
        let resp = service.user_request(idx, "GET", "/count", b"");
        assert_eq!((resp.status, resp.text()), (200, N.to_string()), "node {idx}");
    }
}
