//! Seed-sweep chaos runner: the CCF-style "structured fuzzing" gate.
//!
//! For every seed in the range, generates a mixed fault schedule (primary
//! kills, asymmetric partitions, duplication, reordering, restarts,
//! reconfiguration races, snapshot joins) and runs it against
//!
//! 1. the consensus-layer `Cluster`, and
//! 2. the full `ServiceCluster` (KV traffic, governance, rekey, joins,
//!    receipt verification),
//!
//! with safety invariants checked after every simulation step. On a
//! violation (or a panic), the runner delta-debugs the schedule down to a
//! minimal failing subsequence, prints the seed and the shrunk schedule,
//! and exits non-zero. Everything is deterministic in the seed: rerunning
//! with `--only <seed>` replays the failure bit-for-bit. Each harness also
//! prints how many replica transition records its checker consumed from
//! the flight recorder, and the sweep fails if a harness consumed none:
//! a checker that read nothing vouched for nothing.
//!
//! ```text
//! chaos [--seeds N] [--start S] [--horizon MS] [--service-horizon MS]
//!       [--events K] [--harness consensus|service|both] [--only SEED]
//! ```

use ccf_consensus::chaos::{run_consensus_chaos, ChaosReport};
use ccf_core::chaos::run_service_chaos;
use ccf_sim::nemesis::FaultSchedule;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Clone, Copy, PartialEq)]
enum Harness {
    Consensus,
    Service,
}

impl Harness {
    fn name(self) -> &'static str {
        match self {
            Harness::Consensus => "consensus",
            Harness::Service => "service",
        }
    }
}

enum Outcome {
    Pass(ChaosReport),
    Violation(ChaosReport),
    Panic(String),
}

fn run_one(harness: Harness, seed: u64, schedule: &FaultSchedule, horizon: u64) -> Outcome {
    let schedule = schedule.clone();
    let result = catch_unwind(AssertUnwindSafe(|| match harness {
        Harness::Consensus => run_consensus_chaos(seed, &schedule, horizon),
        Harness::Service => run_service_chaos(seed, &schedule, horizon),
    }));
    match result {
        Ok(report) if report.ok() => Outcome::Pass(report),
        Ok(report) => Outcome::Violation(report),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Outcome::Panic(msg)
        }
    }
}

fn fails(harness: Harness, seed: u64, schedule: &FaultSchedule, horizon: u64) -> bool {
    !matches!(run_one(harness, seed, schedule, horizon), Outcome::Pass(_))
}

fn arg(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds = arg(&args, "--seeds").unwrap_or(100);
    let start = arg(&args, "--start").unwrap_or(0);
    let horizon = arg(&args, "--horizon").unwrap_or(20_000);
    let service_horizon = arg(&args, "--service-horizon").unwrap_or(8_000);
    let events = arg(&args, "--events").unwrap_or(24) as usize;
    let only = arg(&args, "--only");
    let harness_filter = args
        .iter()
        .position(|a| a == "--harness")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("both")
        .to_string();

    let harnesses: Vec<(Harness, u64, usize)> = [
        (Harness::Consensus, horizon, events),
        (Harness::Service, service_horizon, events.min(12)),
    ]
    .into_iter()
    .filter(|(h, _, _)| harness_filter == "both" || harness_filter == h.name())
    .collect();

    let seed_range: Vec<u64> = match only {
        Some(s) => vec![s],
        None => (start..start + seeds).collect(),
    };

    // Panics inside a run are caught and reported with their seed; the
    // default hook would spray backtraces mid-sweep.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut failures = 0u64;
    let mut total_commits = 0u64;
    let mut total_faults = 0usize;
    let mut vacuous = false;
    // Last passing seed's metrics: the baseline for the per-seed diff
    // printed when an invariant trips.
    let mut last_pass_metrics: Option<ccf_obs::Snapshot> = None;
    // The OBS_chaos.json artifact: the last passing service seed that
    // sealed a private write and recorded a trace span, so the committed
    // file covers the write path and not just an idle service.
    let mut obs_metrics: Option<(u64, ccf_obs::Snapshot)> = None;
    let wall = std::time::Instant::now();
    for &(harness, h_ms, n_events) in &harnesses {
        let mut virt_ms = 0u64;
        let mut records = 0u64;
        for &seed in &seed_range {
            let schedule = FaultSchedule::generate(seed, h_ms, n_events);
            virt_ms += h_ms;
            match run_one(harness, seed, &schedule, h_ms) {
                Outcome::Pass(report) => {
                    records += report.protocol_records;
                    total_commits += report.max_commit;
                    total_faults += report.faults_applied;
                    if only.is_some() {
                        println!(
                            "[{}] seed {seed}: PASS steps={} commits={} faults={}",
                            harness.name(),
                            report.steps,
                            report.max_commit,
                            report.faults_applied
                        );
                    }
                    let wrote = report.metrics.counters.get("crypto.gcm_sealed_bytes") > Some(&0)
                        && report.metrics.trace_spans_total > 0;
                    if harness == Harness::Service && wrote {
                        obs_metrics = Some((seed, report.metrics.clone()));
                    }
                    last_pass_metrics = Some(report.metrics);
                }
                outcome => {
                    failures += 1;
                    match &outcome {
                        Outcome::Violation(report) => {
                            println!(
                                "[{}] seed {seed}: INVARIANT VIOLATION",
                                harness.name()
                            );
                            for v in &report.violations {
                                println!("    {v}");
                            }
                            if let Some(baseline) = &last_pass_metrics {
                                let diff = report.metrics.diff(baseline);
                                if !diff.is_empty() {
                                    println!(
                                        "  metrics diff vs last passing seed (failing / passing):"
                                    );
                                    for line in diff.render().lines() {
                                        println!("    {line}");
                                    }
                                }
                            }
                            if let Some(forensics) = &report.forensics {
                                println!("  crash forensics:");
                                for line in forensics.render().lines() {
                                    println!("    {line}");
                                }
                            }
                        }
                        Outcome::Panic(msg) => {
                            println!("[{}] seed {seed}: PANIC: {msg}", harness.name())
                        }
                        Outcome::Pass(_) => unreachable!(),
                    }
                    let shrunk = schedule
                        .shrink(&mut |c: &FaultSchedule| fails(harness, seed, c, h_ms));
                    println!(
                        "  minimal schedule ({} of {} events):",
                        shrunk.events.len(),
                        schedule.events.len()
                    );
                    for e in &shrunk.events {
                        println!("    t={}ms {:?}", e.at, e.op);
                    }
                    println!(
                        "  replay: chaos --only {seed} --harness {} --horizon {h_ms} --events {n_events}",
                        harness.name()
                    );
                }
            }
        }
        println!(
            "[{}] {} seeds x {:.1} virtual min: {} failures, {} protocol records checked",
            harness.name(),
            seed_range.len(),
            virt_ms as f64 / 60_000.0,
            failures,
            records
        );
        if records == 0 {
            println!("[{}] the checker consumed no protocol records", harness.name());
            vacuous = true;
        }
    }
    std::panic::set_hook(default_hook);
    if let Some((seed, metrics)) = &obs_metrics {
        println!("metrics snapshot of service seed {seed}");
        ccf_bench::write_obs("chaos", metrics);
    }
    println!(
        "swept {} seeds ({} harnesses) in {:.1}s: {} commits, {} faults, {} failures",
        seed_range.len(),
        harnesses.len(),
        wall.elapsed().as_secs_f64(),
        total_commits,
        total_faults,
        failures
    );
    if failures > 0 || vacuous {
        std::process::exit(1);
    }
}
