//! Figure 7, Figure 8 and Table 5 (paper §7) on the simulated service.
//!
//! Run with: `cargo run --release -p ccf-bench --bin bench_figures`
//! (`-- --smoke` for short points; CI runs it for the shape gates).
//!
//! The paper runs each node on its own VM. Here each point drives the
//! deterministic sim service one virtual ms at a time under open-loop
//! load, times every node's `receive`, `tick` and `handle_request` calls
//! from outside, and reports ops ÷ the busiest node's busy time: the
//! throughput of the same service with one machine per node. Writes go
//! to the primary, reads to every node in turn. What the service does is
//! fixed by the seeds; only the wall times vary by machine.
//!
//! Shapes to reproduce: writes decline gently as nodes are added while
//! reads scale with them (Fig. 7 left/centre); throughput rises with the
//! read fraction (Fig. 7 right); a write that appends a signature is a
//! spike over the steady write cost, and write throughput grows with the
//! signature interval (Fig. 8); native beats script and virtual beats
//! simulated SGX (Table 5, whose SGX column is the same runs under
//! `ccf_bench::SGX_REQUEST_TAX` — see DESIGN.md).
//!
//! The full run writes `BENCH_figures.json`; `--smoke` writes nothing.
//! Both exit non-zero if a gated shape check fails.

use ccf_bench::{
    bar, bench_opts, fmt_rate, logging_app, logging_script_source, prefill, run_load, Load, TimedService,
    KEY_SPACE,
};
use ccf_core::app::Application;
use ccf_core::prelude::*;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use std::sync::Arc;

const NODE_COUNTS: [u64; 4] = [1, 3, 5, 7];
/// Read % of the mixed loads in Fig. 7 (right). Its 100 % point is the
/// same load as Fig. 7 (centre)'s n = 1 point, so it is not run twice.
const READ_PERCENTS: [u64; 4] = [0, 50, 75, 90];
const SIG_INTERVALS: [u64; 8] = [1, 2, 5, 10, 50, 100, 500, 1000];
/// Virtual ms of load in one run of a point.
const RUN_MS: u64 = 100;
/// Writes per virtual ms in every write point (a run's 1000 writes end
/// on a signature at every interval swept).
const WRITES_PER_MS: u64 = 10;
/// Reads per virtual ms, per node, in every read point.
const READS_PER_NODE_MS: u64 = 20;
/// Ops per virtual ms in the read-ratio sweep: one node's read load.
const MIX_OPS_PER_MS: u64 = READS_PER_NODE_MS;
/// Sequential writes, one per virtual ms, in the Fig. 8 trace.
const TRACE_WRITES: u64 = 1000;
/// Runs per point in the full run; `--smoke` takes 3.
const FULL_ROUNDS: u64 = 10;
/// Runs of each gated Table 5 read point, in every run. Each run is a few
/// ms of wall time, so one descheduling on a shared host spoils it; the
/// best of 10 still fell below the gate about once in 20 smoke runs.
const GATED_READ_ROUNDS: u64 = 30;

/// An open, prefilled service, stepped by [`TimedService`]. The script variant
/// installs the script app by governance over an empty native app, so
/// requests route to the interpreter.
fn service(opts: ServiceOpts, script: bool) -> TimedService {
    let app = if script { Application::new("bench logging v1") } else { logging_app() };
    let mut service = ServiceCluster::start(opts, Arc::new(app));
    if script {
        let app = Value::str(logging_script_source());
        let proposal = Proposal::single("set_js_app", Value::obj([("app".to_string(), app)]));
        assert_eq!(service.propose_and_accept(proposal), ProposalState::Accepted);
    }
    service.open_service();
    prefill(&mut service, KEY_SPACE);
    TimedService::new(service)
}

/// A one-node service with count-only signing every `interval` entries.
fn signing_every(interval: u64, seed: u64) -> TimedService {
    let t = service(bench_opts(1, seed), false);
    t.nodes[0].set_signature_policy(interval, 0);
    t
}

fn load(writes: u64, reads: u64) -> Load {
    Load { writes, reads, ms: RUN_MS }
}

/// Ops/s of each service under its load, and the same under the SGX
/// model, each from the fastest of `rounds` runs: other work on the
/// machine only ever adds time. The points of one comparison take turns,
/// one run each per round, so that all of them see the machine over the
/// same stretch of time.
fn measure(services: &mut [TimedService], loads: &[Load], rounds: u64) -> [Vec<f64>; 2] {
    let mut best = [vec![0.0f64; loads.len()], vec![0.0f64; loads.len()]];
    for round in 0..rounds {
        for (i, (t, &load)) in services.iter_mut().zip(loads).enumerate() {
            let m = run_load(t, load, round * 100 + i as u64);
            best[0][i] = best[0][i].max(m.ops_per_sec());
            best[1][i] = best[1][i].max(m.sgx_ops_per_sec());
        }
    }
    best
}

/// Records each value as `{key}{label}` and prints them as a table.
fn report(fields: &mut Vec<(String, f64)>, title: &str, key: &str, labels: &[u64], values: &[f64]) {
    let max = values.iter().copied().fold(0.0, f64::max);
    println!("\n{title}");
    for (label, &v) in labels.iter().zip(values) {
        println!("{label:>6} | {:>10} | {}", fmt_rate(v), bar(v, max, 40));
        fields.push((format!("{key}{label}"), v));
    }
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns.get(ns.len() / 2).copied().unwrap_or(0) as f64 / 1e3
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds = if smoke { 3 } else { FULL_ROUNDS };
    let mut fields: Vec<(String, f64)> = Vec::new();
    println!("=== Figure 7, Figure 8, Table 5 (paper §7): ops/s with one machine per node ===");
    println!(
        "best of {rounds} runs (Table 5 reads: {GATED_READ_ROUNDS}) of {RUN_MS} virtual ms; \
         ops ÷ the busiest node's busy time"
    );

    // ---- Figure 7 (left, centre): one service per node count ----
    let mut svcs: Vec<TimedService> =
        NODE_COUNTS.iter().map(|&n| service(bench_opts(n as usize, 100 + n), false)).collect();
    let loads: Vec<Load> = NODE_COUNTS.iter().map(|n| load(0, READS_PER_NODE_MS * n)).collect();
    let [reads, _] = measure(&mut svcs, &loads, rounds);
    let [writes, _] = measure(&mut svcs, &[load(WRITES_PER_MS, 0); 4], rounds);
    let title = "Figure 7 (left): writes/s vs nodes";
    report(&mut fields, title, "fig7_writes_per_sec_n", &NODE_COUNTS, &writes);
    let title = "Figure 7 (centre): aggregate reads/s vs nodes";
    report(&mut fields, title, "fig7_reads_per_sec_n", &NODE_COUNTS, &reads);

    // ---- Figure 7 (right): one one-node service per read % ----
    let mut svcs: Vec<TimedService> =
        READ_PERCENTS.iter().map(|&p| service(bench_opts(1, 300 + p), false)).collect();
    let loads: Vec<Load> = READ_PERCENTS
        .iter()
        .map(|p| load(MIX_OPS_PER_MS * (100 - p) / 100, MIX_OPS_PER_MS * p / 100))
        .collect();
    let [mut mix, _] = measure(&mut svcs, &loads, rounds);
    // 100 % reads on one node is Fig. 7 (centre)'s n = 1 point.
    mix.push(reads[0]);
    let percents: Vec<u64> = READ_PERCENTS.iter().copied().chain([100]).collect();
    let title = "Figure 7 (right): ops/s vs read %, one node";
    report(&mut fields, title, "fig7_ops_per_sec_read_pct", &percents, &mix);

    // ---- Figure 8 (left, centre): sequential write calls, signature every 100 ----
    let mut t = signing_every(100, 800);
    let trace = run_load(&mut t, Load { writes: 1, reads: 0, ms: TRACE_WRITES }, 8);
    let calls = |sig: bool| trace.write_calls.iter().filter(|c| c.1 == sig).map(|c| c.0).collect();
    let (sig_p50, plain_p50) = (median_us(calls(true)), median_us(calls(false)));
    let at: Vec<usize> = (0..trace.write_calls.len()).filter(|&i| trace.write_calls[i].1).collect();
    let gap = (at.last().unwrap_or(&0) - at.first().unwrap_or(&0)) as f64 / (at.len().max(2) - 1) as f64;
    println!("\nFigure 8 (left/centre): {TRACE_WRITES} sequential writes on one node, signature every 100");
    println!("  plain write p50 {plain_p50:.1} µs; signing write p50 {sig_p50:.1} µs");
    println!("  {} signing writes, {gap:.0} writes apart (paper: ~100)", at.len());
    fields.push(("fig8_plain_write_p50_us".into(), plain_p50));
    fields.push(("fig8_sig_write_p50_us".into(), sig_p50));
    fields.push(("fig8_sig_writes".into(), at.len() as f64));
    fields.push(("fig8_sig_gap_writes".into(), gap));

    // ---- Figure 8 (right): one one-node service per signature interval ----
    let mut svcs: Vec<TimedService> = SIG_INTERVALS.iter().map(|&i| signing_every(i, 900 + i)).collect();
    let [by_interval, _] = measure(&mut svcs, &[load(WRITES_PER_MS, 0); 8], rounds);
    let title = "Figure 8 (right): writes/s vs signature interval, one node";
    report(&mut fields, title, "fig8_writes_per_sec_sig", &SIG_INTERVALS, &by_interval);

    // ---- Table 5: {native, script} x {virtual, sgx-sim}, five nodes ----
    let mut svcs = vec![service(bench_opts(5, 500), false), service(bench_opts(5, 500), true)];
    let reads = measure(&mut svcs, &[load(0, 5 * READS_PER_NODE_MS); 2], GATED_READ_ROUNDS);
    let writes = measure(&mut svcs, &[load(WRITES_PER_MS, 0); 2], rounds);
    println!("\nTable 5: writes / reads per second, five nodes");
    println!("{:>8} | {:>17} | {:>17}", "", "virtual", "sgx-sim");
    for (row, runtime) in ["native", "script"].into_iter().enumerate() {
        let cell = |col: usize| format!("{:>7} / {:>7}", fmt_rate(writes[col][row]), fmt_rate(reads[col][row]));
        println!("{runtime:>8} | {:>17} | {:>17}", cell(0), cell(1));
        for (col, platform) in ["virtual", "sgx"].into_iter().enumerate() {
            fields.push((format!("table5_{runtime}_{platform}_writes_per_sec"), writes[col][row]));
            fields.push((format!("table5_{runtime}_{platform}_reads_per_sec"), reads[col][row]));
        }
    }
    // Native virtual over native sgx-sim ([1][0]) and script virtual ([0][1]).
    for (name, (col, row)) in [("virtual_over_sgx", (1, 0)), ("native_over_script", (0, 1))] {
        for (side, v) in [("writes", &writes), ("reads", &reads)] {
            println!("  {name} ({side}): {:.2}x", v[0][0] / v[col][row]);
            fields.push((format!("table5_{name}_{side}"), v[0][0] / v[col][row]));
        }
    }

    // ---- Shape checks: only directions with wide margins are gated ----
    let f = |name: &str| fields.iter().find(|(k, _)| k == name).expect(name).1;
    let checks = [
        ("Fig. 7: writes n=1 > n=7", f("fig7_writes_per_sec_n1") > f("fig7_writes_per_sec_n7")),
        ("Fig. 7: reads n=5 > 1.5x n=1", f("fig7_reads_per_sec_n5") > 1.5 * f("fig7_reads_per_sec_n1")),
        (
            "Fig. 7: 100% reads > 0% reads",
            f("fig7_ops_per_sec_read_pct100") > f("fig7_ops_per_sec_read_pct0"),
        ),
        (
            "Fig. 8: interval 100 >= 1.5x interval 1",
            f("fig8_writes_per_sec_sig100") >= 1.5 * f("fig8_writes_per_sec_sig1"),
        ),
        ("Fig. 8: signing write p50 >= 1.5x plain", sig_p50 >= 1.5 * plain_p50),
        ("Table 5: reads virtual >= 1.3x sgx-sim", f("table5_virtual_over_sgx_reads") >= 1.3),
        ("Table 5: reads native >= 1.2x script", f("table5_native_over_script_reads") >= 1.2),
    ];
    println!("\nshape checks:");
    for (name, ok) in checks {
        println!("  {name:<42} {}", if ok { "PASS" } else { "FAIL" });
    }

    if !smoke {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v:.2}")).collect();
        std::fs::write("BENCH_figures.json", format!("{{{}}}\n", body.join(",")))
            .expect("write BENCH_figures.json");
        println!("\nwrote BENCH_figures.json");
    }
    if checks.iter().any(|(_, ok)| !ok) {
        std::process::exit(1);
    }
}
