//! A tour of multiparty governance (paper §5): proposals, conditional
//! ballots, custom constitutions, live application updates, node
//! membership changes, and the Listing 2 trace.
//!
//! Run with: `cargo run --example governance_tour`

use ccf_core::app::{AppResult, Application, EndpointDef};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::proposal::ActionInvocation;
use std::sync::Arc;

fn app() -> Application {
    Application::new("tour v1").endpoint(EndpointDef::write("POST", "/put", |ctx| {
        let (k, v) = ctx.body_kv()?;
        ctx.put_private("data", k.as_bytes(), v.as_bytes());
        AppResult::ok(vec![])
    }))
}

fn main() {
    println!("=== Multiparty governance tour (paper §5) ===\n");
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed: 55, ..ServiceOpts::default() },
        Arc::new(app()),
    );
    service.open_service();
    let members: Vec<String> = service.members.keys().cloned().collect();
    println!("consortium: {} members; default constitution = strict majority\n", members.len());

    // ---- 1. A proposal with a conditional ballot (§5.1) ----
    println!("1. member 0 proposes set_user(grace); member 1 votes with a");
    println!("   CONDITIONAL ballot that only approves set_user actions:");
    let (pid, state) = service.propose_as(
        &members[0],
        Proposal::single(
            "set_user",
            Value::obj([
                ("user_id".to_string(), Value::str("grace")),
                ("cert".to_string(), Value::str("cert-grace")),
            ]),
        ),
    );
    println!("   proposal {} … state {:?}", &pid[..12], state);
    let conditional = Ballot::custom(
        r#"function vote(proposal, proposer_id) {
            for (a of proposal.actions) {
                if (a.name != "set_user") { return false; }
            }
            return true;
        }"#,
    );
    for (i, m) in members.iter().enumerate().take(2) {
        let nonce = 100 + i as u64;
        let primary = service.primary().unwrap();
        let key = &service.members[m].signing;
        let ballot = if i == 0 { Ballot::approve() } else { conditional.clone() };
        let resp = service.nodes[&primary].submit_ballot(key, &pid, &ballot, nonce);
        println!("   member {i} votes -> {}", resp.text());
    }
    service.run_for(300);

    // ---- 2. Proposals are easy to inspect offline (§5.1) ----
    println!("\n2. the proposal as recorded on the ledger (succinct JSON):");
    let node = service.nodes.values().next().unwrap();
    let state = node.store_state();
    let stored = state.get(ccf_kv::builtin::PROPOSALS, pid.as_bytes()).unwrap();
    println!("   {}", String::from_utf8_lossy(stored));

    // ---- 3. Live application update (set_js_app, §6.4) ----
    println!("\n3. live code update: installing a script endpoint without restart:");
    let v2 = r#"
        function endpoints() {
            return [{ method: "GET", path: "/motd", func: "motd", read_only: true }];
        }
        function motd(caller, body, params) {
            return "governance-installed endpoint, hello " + caller;
        }
    "#;
    let state = service.propose_and_accept(Proposal::single(
        "set_js_app",
        Value::obj([("app".to_string(), Value::str(v2))]),
    ));
    println!("   set_js_app: {state:?}");
    service.run_for(300);
    let resp = service.user_request(0, "GET", "/motd", b"");
    println!("   GET /motd -> {}", resp.text());

    // ---- 4. Node replacement in ONE atomic proposal (§4.4, Listing 2) ----
    println!("\n4. replacing a node: add n3, remove the current primary — one proposal:");
    let n0 = service.primary().unwrap();
    let n3 = service.join_pending("n3", Some(&n0));
    println!("   n3 joined as Pending (attestation verified)");
    let state = service.propose_and_accept(Proposal::new(vec![
        ActionInvocation {
            name: "transition_node_to_trusted".into(),
            args: Value::obj([("node_id".to_string(), Value::str(n3.clone()))]),
        },
        ActionInvocation {
            name: "remove_node".into(),
            args: Value::obj([("node_id".to_string(), Value::str(n0.clone()))]),
        },
    ]));
    println!("   proposal: {state:?}");
    service.run_for(3000);
    // Listing 2's end state: n0 retiring/retired, n3 trusted.
    let live = service.live_nodes()[0].clone();
    let state = service.nodes[&live].store_state();
    let tx = state.begin();
    for id in [&n0, &n3] {
        let info = ccf_governance::actions::get_node_info(&tx, id).unwrap();
        println!("   nodes.info[{id}] = {{status: {:?}}}", info.status);
    }

    // ---- 5. Rejection: the consortium says no ----
    println!("\n5. a proposal the members reject:");
    let (pid, _) = service.propose_as(
        &members[0],
        Proposal::single(
            "set_recovery_threshold",
            Value::obj([("recovery_threshold".to_string(), Value::Num(1.0))]),
        ),
    );
    for (i, m) in members.iter().enumerate().take(2) {
        let nonce = 200 + i as u64;
        let primary = service.primary().unwrap();
        let key = &service.members[m].signing;
        let resp = service.nodes[&primary].submit_ballot(key, &pid, &Ballot::reject(), nonce);
        println!("   member {i} votes NO -> {}", resp.text());
    }

    println!("\ndone: every operation above is on the public ledger, signed and auditable.");
}
