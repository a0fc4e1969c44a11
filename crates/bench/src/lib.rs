//! Shared harness for the paper-reproduction benchmarks.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§7); see EXPERIMENTS.md for the index and
//! paper-vs-measured results. This library provides the logging app,
//! service options, the timed sim stepper and the per-call timing helper
//! they share.

#![forbid(unsafe_code)]

use ccf_consensus::{NodeId, TxStatus};
use ccf_core::app::{AppResult, Application, Caller, EndpointDef, Request, Response};
use ccf_core::node::CcfNode;
use ccf_core::service::{ServiceCluster, ServiceOpts};
use ccf_crypto::chacha::ChaChaRng;
use std::sync::Arc;
use std::time::Instant;

/// The paper's evaluation application (§7): a logging app where messages
/// with identifiers are posted (private, 20 characters) and retrieved
/// with read-only transactions.
pub fn logging_app() -> Application {
    Application::new("bench logging v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(Vec::new())
        }))
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("missing"),
            }
        }))
}

/// Median nanoseconds per call over `samples` timed samples of `iters`
/// calls each (after one warm-up sample).
pub fn median_ns_per_call(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_call[per_call.len() / 2]
}

/// A 20-character message, as in the paper's setup.
pub const MESSAGE: &str = "twenty.characters.xx";

/// Key space for the workload (pre-filled so reads hit).
pub const KEY_SPACE: u64 = 1_000;

/// Pre-fills the key space through `user_request` so that reads hit,
/// then steps the service until every node has committed it.
pub fn prefill(service: &mut ServiceCluster, keys: u64) {
    let mut last = None;
    for k in 0..keys {
        let resp = service.user_request(0, "POST", "/log", format!("{k}={MESSAGE}").as_bytes());
        assert_eq!(resp.status, 200, "prefill failed: {}", resp.text());
        last = resp.txid;
    }
    if let Some(txid) = last {
        service.run_until_committed(txid);
    }
}

/// Virtual ms a point may take to commit its last write everywhere.
const COMMIT_LIMIT_MS: u64 = 30_000;

/// Untimed virtual ms before each point, so that replication streams left
/// running by earlier work have ended and every point starts alike.
const SETTLE_MS: u64 = 100;

/// Extra time a request call costs inside an SGX enclave, as a share of
/// its measured time: the paper (§7, Table 5) observes SGX at about 1.8×
/// the native service's cost. Real SGX is unavailable, so Table 5's SGX
/// column adds this share of each node's request time to its busy time
/// ([`Measured::sgx_ops_per_sec`]); the node itself runs no model.
pub const SGX_REQUEST_TAX: f64 = 0.8;

/// A service driven one virtual millisecond at a time, with the wall
/// time each node spends inside `receive`, `tick` and `handle_request`
/// measured from outside. With every node on its own machine, as in the
/// paper's testbed, the busiest node bounds throughput.
pub struct TimedService {
    /// The service.
    pub service: ServiceCluster,
    /// The nodes, in id order.
    pub nodes: Vec<Arc<CcfNode>>,
    ids: Vec<NodeId>,
    /// Index of the primary in `nodes`.
    pub primary: usize,
    /// Wall ns inside each node's calls, indexed like `nodes`.
    pub busy_ns: Vec<u64>,
    /// The part of `busy_ns` spent in `handle_request` calls.
    pub request_ns: Vec<u64>,
}

impl TimedService {
    /// Takes over driving `service` (no node may be crashed).
    pub fn new(service: ServiceCluster) -> TimedService {
        let ids: Vec<NodeId> = service.nodes.keys().cloned().collect();
        let primary_id = service.primary().expect("primary");
        TimedService {
            nodes: service.nodes.values().cloned().collect(),
            primary: ids.iter().position(|id| *id == primary_id).expect("primary is a node"),
            busy_ns: vec![0; ids.len()],
            request_ns: vec![0; ids.len()],
            ids,
            service,
        }
    }

    /// One millisecond of virtual time: `ServiceCluster::step`'s calls
    /// through the same [`ccf_sim::SimNet::step`], each timed into its
    /// node.
    pub fn step(&mut self) {
        let (ids, busy_ns) = (&self.ids, &mut self.busy_ns);
        let svc = &mut self.service;
        svc.net.step(&mut svc.nodes, |id, node, input| {
            let idx = ids.iter().position(|i| i == id).expect("known node");
            let t0 = Instant::now();
            let out = node.step(input);
            busy_ns[idx] += t0.elapsed().as_nanos() as u64;
            out
        });
    }

    /// Sends `req` to node `idx`; returns the response and the call's
    /// wall ns.
    pub fn request(&mut self, idx: usize, req: &Request) -> (Response, u64) {
        let t0 = Instant::now();
        let resp = self.nodes[idx].handle_request(req);
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns[idx] += ns;
        self.request_ns[idx] += ns;
        (resp, ns)
    }
}

/// Open-loop offered load for one figure point, per virtual ms.
#[derive(Clone, Copy)]
pub struct Load {
    /// Writes per virtual ms, all sent to the primary.
    pub writes: u64,
    /// Reads per virtual ms, sent to every node in turn.
    pub reads: u64,
    /// Virtual ms of load.
    pub ms: u64,
}

/// What one figure point measured.
#[derive(Default)]
pub struct Measured {
    /// Writes issued (each answered 200; the last committed everywhere).
    pub writes: u64,
    /// Reads issued (each answered 200).
    pub reads: u64,
    /// Wall ns of the busiest node, load plus commit drain.
    pub busiest_ns: u64,
    /// The same under the SGX model: the most any node's busy time
    /// reaches with [`SGX_REQUEST_TAX`] of its request time added.
    pub busiest_sgx_ns: u64,
    /// Each write call's wall ns, and whether it appended a signature.
    pub write_calls: Vec<(u64, bool)>,
}

impl Measured {
    /// Ops per second with every node on its own machine: ops ÷ the
    /// busiest node's busy time.
    pub fn ops_per_sec(&self) -> f64 {
        (self.writes + self.reads) as f64 * 1e9 / self.busiest_ns.max(1) as f64
    }

    /// Ops per second of the same run inside SGX enclaves: ops ÷ the
    /// busiest node's busy time under the SGX model. The tax can make a
    /// different node the busiest.
    pub fn sgx_ops_per_sec(&self) -> f64 {
        (self.writes + self.reads) as f64 * 1e9 / self.busiest_sgx_ns.max(1) as f64
    }

    /// Records the busiest node from each node's busy and request ns.
    fn record_busiest(&mut self, busy_ns: &[u64], request_ns: &[u64]) {
        self.busiest_ns = busy_ns.iter().copied().max().unwrap_or(0);
        self.busiest_sgx_ns = busy_ns
            .iter()
            .zip(request_ns)
            .map(|(&busy, &req)| busy + (req as f64 * SGX_REQUEST_TAX).round() as u64)
            .max()
            .unwrap_or(0);
    }
}

/// Settles `t` for `SETTLE_MS`, runs `load` on it with fresh busy
/// counters, then steps until its last write is committed on every node.
/// Panics if any request fails or the last write never commits: a point
/// must not count broken work.
pub fn run_load(t: &mut TimedService, load: Load, seed: u64) -> Measured {
    for _ in 0..SETTLE_MS {
        t.step();
    }
    t.busy_ns.iter_mut().chain(&mut t.request_ns).for_each(|b| *b = 0);
    let sig_txs = t.service.obs().counter("consensus.signature_txs");
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let user = Caller::User("user0".into());
    let mut m = Measured::default();
    let mut last = None;
    for _ in 0..load.ms {
        for _ in 0..load.writes {
            let body = format!("{}={MESSAGE}", rng.gen_range(KEY_SPACE));
            let req = Request::new("POST", "/log", user.clone(), body.as_bytes());
            let sigs = sig_txs.get();
            let (resp, ns) = t.request(t.primary, &req);
            assert_eq!(resp.status, 200, "write failed: {}", resp.text());
            m.write_calls.push((ns, sig_txs.get() > sigs));
            last = resp.txid;
        }
        for _ in 0..load.reads {
            let path = format!("/log?id={}", rng.gen_range(KEY_SPACE));
            let req = Request::new("GET", &path, user.clone(), b"");
            let node = (m.reads % t.nodes.len() as u64) as usize;
            let (resp, _) = t.request(node, &req);
            assert_eq!(resp.status, 200, "read failed: {}", resp.text());
            m.reads += 1;
        }
        t.step();
    }
    if let Some(txid) = last {
        for waited in 0.. {
            if t.nodes.iter().all(|n| n.tx_status(txid) == TxStatus::Committed) {
                break;
            }
            assert!(waited < COMMIT_LIMIT_MS, "{txid} never committed on every node");
            t.step();
        }
    }
    m.writes = m.write_calls.len() as u64;
    m.record_busiest(&t.busy_ns, &t.request_ns);
    m
}

/// Human formatting: 64.8 K style, as in the paper's Table 5.
pub fn fmt_rate(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2} M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1} K", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

/// The paper's CScript logging app (Table 5's "JS" rows).
pub fn logging_script_source() -> &'static str {
    ccf_core::app::logging_script_app()
}

/// Default service options for throughput benches.
pub fn bench_opts(nodes: usize, seed: u64) -> ServiceOpts {
    ServiceOpts {
        nodes,
        members: 1,
        users: 1,
        seed,
        ..ServiceOpts::default()
    }
}

/// A simple text bar for console "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "█".repeat(n.min(width))
}

/// Nearest-rank percentile over histogram buckets, in pure integer
/// arithmetic (deterministic across platforms). `q_num / q_den` is the
/// quantile (e.g. 99/100 for p99). Returns the inclusive upper bound of
/// the bucket containing that rank; observations past the last bound live
/// in the overflow bucket, reported as `2 * last_bound` to keep the value
/// finite and obviously saturated. Returns 0 for an empty histogram.
pub fn hist_percentile(h: &ccf_obs::HistogramSnapshot, q_num: u64, q_den: u64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = (h.count * q_num).div_ceil(q_den).max(1);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return match h.bounds.get(i) {
                Some(&b) => b,
                None => h.bounds.last().copied().unwrap_or(0) * 2,
            };
        }
    }
    h.bounds.last().copied().unwrap_or(0) * 2
}

/// Writes an observability snapshot to `OBS_<name>.json` in the current
/// directory (a generated artifact — gitignored) and returns the path.
/// Failures are reported but not fatal: metrics never break a bench run.
pub fn write_obs(name: &str, snapshot: &ccf_obs::Snapshot) -> std::path::PathBuf {
    let path = std::path::PathBuf::from(format!("OBS_{name}.json"));
    match std::fs::write(&path, snapshot.to_json()) {
        Ok(()) => println!("metrics snapshot written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgx_tax_can_move_the_busiest_node() {
        // Node A is busiest untaxed, all of it receive and tick time;
        // node B does less work but 500 ns of it is requests, so the
        // tax (400 ns) makes B the busiest at 1200 ns.
        let mut m = Measured { writes: 6, ..Measured::default() };
        m.record_busiest(&[1000, 800], &[0, 500]);
        assert_eq!((m.busiest_ns, m.busiest_sgx_ns), (1000, 1200));
        assert_eq!(m.ops_per_sec(), 6e6);
        assert_eq!(m.sgx_ops_per_sec(), 5e6);

        // With no request time anywhere the two rates are equal.
        m.record_busiest(&[1000, 800], &[0, 0]);
        assert_eq!(m.sgx_ops_per_sec(), m.ops_per_sec());
    }
}
