//! Figure 9 + Listing 2: impact of primary failure (A) and node
//! replacement (B–E) on the availability of reads and writes.
//!
//! Run with: `cargo run --release -p ccf-bench --bin fig9`
//!
//! Setup follows the paper: three nodes {n0,n1,n2}, three members
//! {m0,m1,m2}, default (majority) constitution. One user sends writes to
//! the primary, another sends reads to a backup. We kill the primary at
//! A; the test infrastructure (operator) prepares a replacement node n3
//! from a snapshot and joins it (B); member m0 proposes
//! transition_node_to_trusted(n3) + remove_node(n0) (C); members vote and
//! the proposal is accepted (D); the reconfiguration completes and fault
//! tolerance is restored (E). Running on the deterministic simulator, so
//! the timeline is in virtual milliseconds.

use ccf_bench::{bar, logging_app, MESSAGE};
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_governance::proposal::ActionInvocation;
use std::sync::Arc;

const BUCKET_MS: u64 = 250;
const WRITE_ATTEMPTS_PER_MS: usize = 2;
const READ_ATTEMPTS_PER_MS: usize = 4;

struct Timeline {
    buckets: Vec<(u64, u64)>, // (writes ok, reads ok) per bucket
    events: Vec<(u64, String)>,
}

impl Timeline {
    fn record(&mut self, now: u64, writes: u64, reads: u64) {
        let idx = (now / BUCKET_MS) as usize;
        while self.buckets.len() <= idx {
            self.buckets.push((0, 0));
        }
        self.buckets[idx].0 += writes;
        self.buckets[idx].1 += reads;
    }

    fn event(&mut self, now: u64, label: impl Into<String>) {
        self.events.push((now, label.into()));
    }
}

fn main() {
    println!("=== Figure 9 (paper §7): availability through failure & replacement ===\n");
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed: 909, ..ServiceOpts::default() },
        Arc::new(logging_app()),
    );
    service.open_service();
    let n0 = service.primary().expect("initial primary");
    let reader_node = service
        .nodes
        .keys()
        .find(|id| **id != n0)
        .cloned()
        .unwrap();
    println!("initial primary: {n0}; reader connected to backup {reader_node}\n");

    let mut tl = Timeline { buckets: Vec::new(), events: Vec::new() };
    let mut key = 0u64;
    let mut phase = 0; // 0 running, 1 killed, 2 joined, 3 proposed, 4 accepted, 5 replaced
    let mut n3_id = String::new();
    let mut proposal_id = String::new();
    let kill_at = 3000u64;
    let end_at = 14_000u64;

    while service.now() < end_at {
        service.step();
        let now = service.now();

        // ---- the two users ----
        let mut writes_ok = 0;
        for _ in 0..WRITE_ATTEMPTS_PER_MS {
            if let Some(primary) = service.primary() {
                key += 1;
                let resp = service.nodes[&primary].handle_request(&ccf_core::app::Request::new(
                    "POST",
                    "/log",
                    ccf_core::app::Caller::User("user0".into()),
                    format!("{key}={MESSAGE}").as_bytes(),
                ));
                if resp.status == 200 {
                    writes_ok += 1;
                }
            }
        }
        let mut reads_ok = 0;
        for i in 0..READ_ATTEMPTS_PER_MS {
            let resp = service.nodes[&reader_node].handle_request(&ccf_core::app::Request::new(
                "GET",
                &format!("/log?id={}", (key + i as u64) % key.max(1)),
                ccf_core::app::Caller::User("user1".into()),
                b"",
            ));
            if resp.status == 200 || resp.status == 404 {
                reads_ok += 1; // served (hit or honest miss) = available
            }
        }
        tl.record(now, writes_ok, reads_ok as u64);

        // ---- the operator & members (the paper's test infrastructure) ----
        match phase {
            0 if now >= kill_at => {
                tl.event(now, format!("A: primary {n0} killed"));
                service.crash(&n0);
                phase = 1;
            }
            1 if now >= kill_at + 1000 && service.primary().is_some() => {
                // Operator detects the failure and prepares n3 from a
                // snapshot copied off a surviving node; n3 joins (B).
                tl.event(now, format!("new primary elected: {}", service.primary().unwrap()));
                n3_id = service.join_pending("n3", Some(&reader_node));
                tl.event(service.now(), "B: n3 joined (attestation verified, Pending)");
                phase = 2;
            }
            2 => {
                // (C) m0 proposes: trust n3, remove n0.
                let (pid, state) = service.propose(Proposal::new(vec![
                    ActionInvocation {
                        name: "transition_node_to_trusted".into(),
                        args: Value::obj([("node_id".to_string(), Value::str(n3_id.clone()))]),
                    },
                    ActionInvocation {
                        name: "remove_node".into(),
                        args: Value::obj([("node_id".to_string(), Value::str(n0.clone()))]),
                    },
                ]));
                proposal_id = pid;
                tl.event(service.now(), format!("C: proposal p3 submitted by m0 (state {state:?})"));
                phase = 3;
            }
            3 => {
                // (D) remaining members submit ballots.
                let state = service.vote_all(&proposal_id);
                tl.event(service.now(), format!("D: ballots submitted, proposal {state:?}"));
                phase = 4;
            }
            4 if !n3_id.is_empty()
                && service.nodes[&n3_id].commit_seqno() > 0
                && service.nodes[&n3_id].role() != ccf_consensus::replica::Role::Pending =>
            {
                // (E) reconfiguration completes: n3 trusted & caught up.
                tl.event(
                    service.now(),
                    "E: reconfiguration complete — fault tolerance restored",
                );
                phase = 5;
            }
            _ => {}
        }
    }

    // ---- Print the figure ----
    println!("virtual time series ({BUCKET_MS} ms buckets); rates are per-second:");
    println!("{:>8} | {:>9} {:<26} | {:>9} {:<26}", "t (ms)", "writes/s", "", "reads/s", "");
    let wmax = tl.buckets.iter().map(|b| b.0).max().unwrap_or(1) as f64;
    let rmax = tl.buckets.iter().map(|b| b.1).max().unwrap_or(1) as f64;
    let scale = 1000.0 / BUCKET_MS as f64;
    for (i, &(w, r)) in tl.buckets.iter().enumerate() {
        let t = i as u64 * BUCKET_MS;
        let marks: Vec<&str> = tl
            .events
            .iter()
            .filter(|(et, _)| *et >= t && *et < t + BUCKET_MS)
            .map(|(_, l)| &l[..1])
            .collect();
        println!(
            "{t:>8} | {:>9.0} {:<26} | {:>9.0} {:<26} {}",
            w as f64 * scale,
            bar(w as f64, wmax, 26),
            r as f64 * scale,
            bar(r as f64, rmax, 26),
            marks.join("")
        );
    }
    println!("\nevents:");
    for (t, label) in &tl.events {
        println!("  t={t:>6} ms  {label}");
    }

    // ---- Listing 2: the governance key updates from the ledger ----
    println!("\nListing 2 analog — key updates recorded in the public governance maps:");
    let live = service.live_nodes()[0].clone();
    let state = service.nodes[&live].store_state();
    let tx = state.begin();
    for node in ["n0", "n3"] {
        if let Some(info) = ccf_governance::actions::get_node_info(&tx, node) {
            println!("  public:ccf.gov.nodes.info[{node}] = {{status: {:?}}}", info.status);
        }
    }
    if let Some(p) = tx.get(&MapName::new(ccf_kv::builtin::PROPOSALS), proposal_id.as_bytes()) {
        println!("  public:ccf.gov.proposals[p3] = {}", String::from_utf8_lossy(&p));
    }
    if let Some(info) =
        tx.get(&MapName::new(ccf_kv::builtin::PROPOSALS_INFO), proposal_id.as_bytes())
    {
        println!("  public:ccf.gov.proposals_info[p3] = {}", String::from_utf8_lossy(&info));
    }

    ccf_bench::write_obs("fig9", &service.obs().snapshot());

    // ---- Shape checks ----
    println!("\nshape checks:");
    let kill_bucket = (kill_at / BUCKET_MS) as usize;
    let writes_stalled = tl.buckets[kill_bucket + 1].0 == 0 || tl.buckets[kill_bucket].0 < tl.buckets[kill_bucket - 2].0;
    let writes_resumed = tl.buckets.last().map(|b| b.0 > 0).unwrap_or(false);
    let reads_continuous = tl.buckets[kill_bucket..].iter().all(|b| b.1 > 0);
    println!("  writes stall at A:            {}", if writes_stalled { "PASS" } else { "MARGINAL" });
    println!("  writes resume after election: {}", if writes_resumed { "PASS" } else { "FAIL" });
    println!("  reads continue throughout:    {}", if reads_continuous { "PASS" } else { "FAIL" });
    println!("  full A→E sequence completed:  {}", if phase == 5 { "PASS" } else { "FAIL" });
}
