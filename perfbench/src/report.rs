//! Turns epochs into the benchmark's metrics.

use crate::driver::{Deterministic, Epoch, Layers};

/// A named metric value with its unit.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `samples`.
fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One epoch's request latencies in µs, multiplied by `scale`: p50 and
/// p95. The tail is p95, not p99: the p99 of signing writes moves by a
/// quarter from run to run with the load other tenants put on the host.
pub fn call_quantiles(samples: &[u64], scale: f64) -> [f64; 2] {
    let us = |q| quantile(samples, q) as f64 * scale / 1_000.0;
    [us(0.50), us(0.95)]
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics: throughput and call latencies as medians over
/// untraced `epochs` (each epoch's quantiles in `latencies`), so an epoch
/// slowed by another tenant of the machine does not set them, and commit
/// latency from the pooled deterministic outcome.
pub fn end_to_end(
    setup_s: &[f64],
    epochs: &[&Epoch],
    latencies: &[[f64; 2]],
    det: &Deterministic,
) -> Vec<Metric> {
    let tput: Vec<f64> = epochs
        .iter()
        .map(|e| ratio(e.ok_ops as f64, e.wall_ns as f64 * e.scale / 1e9))
        .collect();
    let call = |i: usize| median(&latencies.iter().map(|l| l[i]).collect::<Vec<_>>());
    let commit_vms = |q| quantile(&det.commit_ns, q) as f64 / 1e6;
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("tput_ops", median(&tput), "1/s"),
        metric("resp_p50_us", call(0), "us"),
        metric("resp_p95_us", call(1), "us"),
        metric("commit_vms_p50", commit_vms(0.50), "vms"),
        metric("commit_vms_p99", commit_vms(0.99), "vms"),
        metric("rss_peak_mb", rss_peak_mb(), "MB"),
    ]
}

/// Share of a traced epoch's wall time that the driver spent outside
/// every timed call.
pub fn unaccounted_share(traced: &[&Epoch]) -> f64 {
    let wall: u64 = traced.iter().map(|e| e.wall_ns).sum();
    let timed: u64 = traced
        .iter()
        .filter_map(|e| e.layers.as_ref())
        .map(Layers::timed_ns)
        .sum();
    ratio(wall.saturating_sub(timed) as f64, wall as f64)
}

/// Per-layer metrics: call times from `traced` epochs, counts from the
/// pooled registry diffs `det` of one epoch per sub-seed (same-seed
/// epochs count alike), and the tracing overhead as traced against
/// `untraced` epoch wall time.
pub fn per_layer(traced: &[&Epoch], untraced: &[&Epoch], det: &Deterministic) -> Vec<Metric> {
    let mut l = Layers::default();
    for e in traced {
        l.add(
            e.layers.as_ref().expect("traced epoch has layer times"),
            e.scale,
        );
    }
    let ops = traced.iter().map(|e| e.ok_ops).sum::<u64>() as f64;
    let writes = traced.iter().map(|e| e.committed_writes).sum::<u64>() as f64;
    let det_writes = det.commit_ns.len() as f64;
    let n = det.nodes as f64;
    let entries = det.entries as f64;
    let us = |ns: u64| ns as f64 / 1_000.0;
    let recv = |kinds: &[&str], at_primary: bool| -> u64 {
        l.recv_ns
            .iter()
            .filter(|((kind, p), _)| *p == at_primary && kinds.contains(kind))
            .map(|(_, ns)| *ns)
            .sum()
    };
    let backup_busy = l.busy_ns.iter().skip(1).copied().max().unwrap_or(0);
    let wall: u64 = traced
        .iter()
        .map(|e| (e.wall_ns as f64 * e.scale) as u64)
        .sum();
    let driver = wall.saturating_sub(l.timed_ns());
    let median_wall = |es: &[&Epoch]| {
        median(
            &es.iter()
                .map(|e| e.wall_ns as f64 * e.scale)
                .collect::<Vec<_>>(),
        )
    };
    let per_write = |name: &str| ratio(det.count(name) as f64, det_writes);
    vec![
        metric(
            "node.write_call_us",
            ratio(us(l.write_call_ns), l.write_calls as f64),
            "us",
        ),
        metric(
            "node.sig_write_call_us",
            ratio(us(l.sig_write_call_ns), l.sig_write_calls as f64),
            "us",
        ),
        metric(
            "node.read_call_us",
            ratio(us(l.read_call_ns), l.read_calls as f64),
            "us",
        ),
        metric(
            "node.primary_busy_us_per_op",
            ratio(us(l.busy_ns[0]), ops),
            "us",
        ),
        metric(
            "node.backup_busy_us_per_op",
            ratio(us(backup_busy), ops),
            "us",
        ),
        metric("node.tick_us_per_op", ratio(us(l.tick_ns), ops), "us"),
        metric(
            "node.entries_applied_per_needed",
            ratio(det.count("node.entries_applied") as f64, n * entries),
            "ratio",
        ),
        metric(
            "consensus.ae_recv_us_per_write",
            ratio(us(recv(&["append_entries", "heartbeat"], false)), writes),
            "us",
        ),
        metric(
            "consensus.aer_recv_us_per_write",
            ratio(us(recv(&["append_entries_response"], true)), writes),
            "us",
        ),
        metric(
            "consensus.append_batches_per_write",
            per_write("consensus.append_batches"),
            "count",
        ),
        metric(
            "consensus.entry_copies_per_needed",
            ratio(
                det.count("consensus.append_batch_entries.sum") as f64,
                (n - 1.0) * entries,
            ),
            "ratio",
        ),
        metric(
            "consensus.signature_txs_per_write",
            per_write("consensus.signature_txs"),
            "count",
        ),
        metric(
            "consensus.retransmits",
            det.count("consensus.retransmits") as f64,
            "count",
        ),
        metric(
            "consensus.negative_acks",
            det.count("consensus.negative_acks") as f64,
            "count",
        ),
        metric(
            "consensus.elections_started",
            det.count("consensus.elections_started") as f64,
            "count",
        ),
        metric(
            "net.messages_per_write",
            per_write("net.messages_sent"),
            "count",
        ),
        metric("net.us_per_write", ratio(us(l.net_ns), writes), "us"),
        metric(
            "crypto.gcm_open_per_seal",
            ratio(
                det.count("crypto.gcm_opened_bytes") as f64,
                det.count("crypto.gcm_sealed_bytes") as f64,
            ),
            "ratio",
        ),
        metric(
            "crypto.gcm_sealed_bytes_per_write",
            per_write("crypto.gcm_sealed_bytes"),
            "B",
        ),
        metric(
            "ledger.merkle_appends_per_write",
            per_write("ledger.merkle_appends"),
            "count",
        ),
        metric(
            "ledger.bytes_per_write",
            ratio(det.ledger_bytes as f64, det_writes),
            "B",
        ),
        metric("bench.driver_us_per_op", ratio(us(driver), ops), "us"),
        metric(
            "trace_overhead_pct",
            100.0 * (ratio(median_wall(traced), median_wall(untraced)) - 1.0),
            "%",
        ),
    ]
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
