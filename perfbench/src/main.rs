//! Wall-clock cost per committed write and per read on the simulated CCF
//! service, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. A run is a sequence of *epochs*. Each epoch
//! generates its inputs, sets up a fresh service (timed as set-up), offers
//! the generated schedule open-loop in virtual time, steps the cluster
//! until the primary has committed every write (timed as the measured
//! phase), and then checks the outputs. Epochs cycle through
//! [`ROTATION`] sub-seeds derived from `--seed`, so the virtual-time
//! metrics pool several network and arrival patterns, and repeat until
//! the measured phases add up to `--seconds`. Every sub-seed runs at
//! least twice, and its epochs must agree exactly on every count and
//! virtual time: that is the run's determinism check.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` every other round of sub-seeds times each call into a
//! layer from outside, and the run prints the per-layer metrics. The last
//! line of standard output is one JSON object; a human summary goes to
//! standard error.

mod calib;
mod driver;
mod report;
mod workload;

use driver::{run_epoch, Deterministic, Epoch, Service};
use std::process::ExitCode;
use std::time::Instant;

/// Sub-seeds an epoch cycles through. Commit latency is deterministic per
/// sub-seed; pooling several keeps its tail steady from seed to seed.
const ROTATION: usize = 4;

/// Largest share of traced wall time the timed calls may leave
/// unaccounted (the closure check).
const MAX_UNACCOUNTED: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::specs()
        .into_iter()
        .find(|s| s.name == args.workload)
    else {
        let names: Vec<_> = workload::specs().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };

    let budget_ns = (args.seconds * 1e9) as u64;
    let mut setup_s = Vec::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut latencies = Vec::new();
    let mut dets: Vec<Option<Deterministic>> = vec![None; ROTATION];
    let mut deterministic = true;
    let mut measured_ns = 0u64;
    while epochs.len() < 2 * ROTATION
        || measured_ns < budget_ns
        || !epochs.len().is_multiple_of(ROTATION)
    {
        let sub = epochs.len() % ROTATION;
        let seed = args
            .seed
            .wrapping_mul(ROTATION as u64)
            .wrapping_add(sub as u64);
        let traced = args.trace && (epochs.len() / ROTATION) % 2 == 1;
        let inputs = workload::generate(&spec, seed);
        let t0 = Instant::now();
        let mut svc = match Service::set_up(&spec, seed, &inputs) {
            Ok(svc) => svc,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let setup = t0.elapsed().as_secs_f64();
        let (epoch, samples, det) = run_epoch(&mut svc, &inputs, traced, seed);
        drop(svc);
        setup_s.push(setup * epoch.scale);
        if !traced {
            latencies.push(report::call_quantiles(&samples, epoch.scale));
        }
        match &dets[sub] {
            None => dets[sub] = Some(det),
            Some(first) => deterministic &= *first == det,
        }
        measured_ns += epoch.wall_ns;
        epochs.push(epoch);
    }
    let dets: Vec<Deterministic> = dets
        .into_iter()
        .map(|d| d.expect("every sub-seed ran"))
        .collect();
    let det = Deterministic::pool(&dets);

    let attempted: u64 = epochs.iter().map(|e| e.attempted).sum();
    let failed: u64 = epochs.iter().map(|e| e.failed).sum();
    let (traced, untraced): (Vec<&Epoch>, Vec<&Epoch>) =
        epochs.iter().partition(|e| e.layers.is_some());
    let mut correct = failed == 0 && deterministic;

    eprintln!(
        "perfbench {} seed {}: {} epochs ({} traced) over {ROTATION} sub-seeds, {} virtual ms each",
        spec.name,
        args.seed,
        epochs.len(),
        traced.len(),
        spec.epoch_ms,
    );
    for (i, e) in epochs.iter().enumerate() {
        eprintln!(
            "  epoch {i}: set-up {:.3} s, measured {:.3} s (x{:.3} for machine speed), {} ok ops, {} failed{}",
            setup_s[i],
            e.wall_ns as f64 / 1e9,
            e.scale,
            e.ok_ops,
            e.failed,
            if e.layers.is_some() { ", traced" } else { "" },
        );
    }
    eprintln!("  same-seed epochs identical: {deterministic}");
    eprintln!("  fail_frac: {failed} of {attempted} ops failed");

    let metrics = if args.trace {
        let unaccounted = report::unaccounted_share(&traced);
        let closes = unaccounted <= MAX_UNACCOUNTED;
        eprintln!(
            "  closure: {:.2}% of traced wall time outside timed calls (limit {:.0}%): {}",
            100.0 * unaccounted,
            100.0 * MAX_UNACCOUNTED,
            if closes { "pass" } else { "FAIL" },
        );
        correct &= closes;
        report::per_layer(&traced, &untraced, &det)
    } else {
        eprintln!("  samples: {} commit latencies", det.commit_ns.len());
        report::end_to_end(&setup_s, &untraced, &latencies, &det)
    };
    for m in &metrics {
        eprintln!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
