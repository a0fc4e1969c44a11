//! Per-stage commit-latency accounting on the deterministic sim cluster.
//!
//! Run with: `cargo run --release -p ccf-bench --bin bench_latency`
//!
//! Unlike `bench_figures` (wall-clock time per node call), this one
//! drives a 3-node [`ServiceCluster`] entirely in virtual time: every
//! latency below is a deterministic function of the seed. Writes enter
//! through a session pinned to a *backup* (so they take the 307
//! forwarding hop) and as signed batches sent to that backup (which
//! answers them 307 unverified; the primary pays the batch signature
//! verification, in the call that brings them), then flow
//! forward → request → append → replicate/sign → commit → receipt, each
//! stage recorded as a causal trace span and a virtual-time histogram
//! observation (DESIGN.md §12).
//!
//! Percentiles are computed from the integer histogram bucket bounds —
//! no floats anywhere, so the output (and the committed
//! `BENCH_latency.json`) is byte-identical across same-seed runs.
//! `--smoke` runs a short workload and writes the full observability
//! snapshot to `OBS_latency.json`; the tier-1 gate runs it twice, diffs
//! the two files byte-for-byte, and fails if the result differs from the
//! committed `OBS_latency.json` (the reference virtual-time schedule).

use ccf_bench::{bench_opts, hist_percentile, logging_app, MESSAGE};
use ccf_core::service::ServiceCluster;
use ccf_ledger::TxId;
use std::sync::Arc;

const SEED: u64 = 4242;

/// The per-stage virtual-time histograms the sim cluster populates.
const STAGES: &[&str] = &[
    "node.commit_latency_ms",
    "consensus.sign_latency_ms",
    "consensus.replication_latency_ms",
    "consensus.commit_latency_ms",
];

fn drive_until_committed(service: &mut ServiceCluster, txids: &[TxId]) {
    for _ in 0..20_000 {
        let all = txids.iter().all(|txid| {
            service
                .nodes
                .values()
                .any(|n| n.tx_status(*txid) == ccf_consensus::TxStatus::Committed)
        });
        if all {
            return;
        }
        service.step();
    }
    panic!("writes did not commit within the step budget");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let unsigned_writes = if smoke { 24 } else { 120 };
    let signed_batches = if smoke { 3 } else { 12 };
    let signed_batch_size = 4;

    println!("=== Per-stage commit latency (virtual time, sim cluster, seed {SEED}) ===\n");

    let mut service =
        ServiceCluster::start(bench_opts(3, SEED), Arc::new(logging_app()));
    service.open_service();
    let primary = service.primary().expect("primary");
    // A session on a node that is NOT the primary: every write takes the
    // 307 forwarding hop and records a `forward` stage on its trace.
    let backup_idx = service
        .nodes
        .keys()
        .position(|id| *id != primary)
        .expect("backup exists");
    let session = service.open_session(backup_idx);

    let mut txids = Vec::new();
    for i in 0..unsigned_writes {
        let body = format!("{i}={MESSAGE}");
        let resp = service.session_request(session, "POST", "/log", body.as_bytes());
        assert_eq!(resp.status, 200, "write failed: {}", resp.text());
        txids.push(resp.txid.expect("write txid"));
        // Interleave a little virtual time so latencies are not all
        // measured against one frozen instant.
        for _ in 0..3 {
            service.step();
        }
    }

    // Signed writes in batches (exercises batch signature verification).
    let key = service.register_user_key("bench-user");
    let mut nonce = 0u64;
    for b in 0..signed_batches {
        let envelopes: Vec<_> = (0..signed_batch_size)
            .map(|i| {
                let body = format!("s{b}x{i}={MESSAGE}");
                nonce += 1;
                ccf_governance::SignedRequest::sign(
                    &key,
                    "user/POST /log",
                    body.as_bytes(),
                    nonce,
                )
            })
            .collect();
        for resp in service.signed_user_requests(backup_idx, envelopes) {
            assert_eq!(resp.status, 200, "signed write failed: {}", resp.text());
            txids.push(resp.txid.expect("signed write txid"));
        }
    }

    drive_until_committed(&mut service, &txids);
    // Receipts close the causal story: each records a `receipt` marker
    // on the committed trace.
    for txid in &txids {
        assert!(service.receipt(*txid).is_some(), "no receipt for {txid}");
    }

    let snap = service.obs().snapshot();

    println!(
        "{} writes committed ({} forwarded via a backup session, {} signed in batches)\n",
        txids.len(),
        unsigned_writes,
        signed_batches * signed_batch_size
    );
    println!("{:<36} {:>8} {:>8} {:>8} {:>8}", "stage histogram", "count", "p50", "p90", "p99");
    for name in STAGES {
        let h = snap.histograms.get(*name).cloned().unwrap_or_default();
        println!(
            "{:<36} {:>8} {:>6}ms {:>6}ms {:>6}ms",
            name,
            h.count,
            hist_percentile(&h, 50, 100),
            hist_percentile(&h, 90, 100),
            hist_percentile(&h, 99, 100),
        );
    }

    // One fully assembled trace as a worked example: the critical path
    // of the last committed write.
    let trees = ccf_obs::trace::assemble(&snap.trace_spans);
    let example = trees
        .iter()
        .rev()
        .find(|t| t.committed())
        .map(ccf_obs::trace::critical_path);
    println!("\nexample critical path (last committed trace):");
    match &example {
        Some(p) => println!("  {}", p.render()),
        None => println!("  (no committed trace retained in the ring)"),
    }
    println!(
        "\ntrace spans recorded: {} ({} retained)   flight events: {} ({} retained)",
        snap.trace_spans_total,
        snap.trace_spans.len(),
        snap.flight_total,
        snap.flight.len()
    );

    if smoke {
        // The determinism artifact: the full snapshot, byte-identical
        // across same-seed runs (tier-1 diffs two of these).
        ccf_bench::write_obs("latency", &snap);
        return;
    }

    // The committed artifact: integer percentiles per stage plus the
    // example critical path. Built by hand so the encoding is stable.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"writes\": {},\n", txids.len()));
    json.push_str("  \"stages\": {\n");
    for (i, name) in STAGES.iter().enumerate() {
        let h = snap.histograms.get(*name).cloned().unwrap_or_default();
        json.push_str(&format!(
            "    \"{name}\": {{\"count\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}}}{}\n",
            h.count,
            hist_percentile(&h, 50, 100),
            hist_percentile(&h, 90, 100),
            hist_percentile(&h, 99, 100),
            if i + 1 < STAGES.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    let path = example.map(|p| p.render()).unwrap_or_default();
    json.push_str(&format!(
        "  \"example_critical_path\": \"{}\"\n",
        path.replace('\\', "\\\\").replace('"', "\\\"")
    ));
    json.push_str("}\n");
    match std::fs::write("BENCH_latency.json", &json) {
        Ok(()) => println!("\nwrote BENCH_latency.json"),
        Err(e) => eprintln!("\nwarning: could not write BENCH_latency.json: {e}"),
    }
}
