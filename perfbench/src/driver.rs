//! Drives one simulated service through one epoch of generated load.
//!
//! [`Service::step`] is a copy of `ServiceCluster::step` built on the
//! cluster's public parts (`net`, `nodes`, `obs().set_now`,
//! `CcfNode::receive`, `CcfNode::tick`), calling them in the same order so
//! the service does identical work. The copy exists so that a traced epoch
//! can time every call into a layer from outside: the benchmark adds no
//! instrumentation to the program. Load is open-loop in virtual time (the
//! generator runs on the simulated clock, so it never falls behind) and
//! flat out in wall time.

use crate::calib::Speed;
use crate::workload::{logging_app, Inputs, Op, Spec};
use ccf_consensus::{NodeId, TxStatus};
use ccf_core::node::CcfNode;
use ccf_core::service::ServiceCluster;
use ccf_crypto::chacha::ChaChaRng;
use ccf_ledger::TxId;
use ccf_obs::Snapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Virtual ms a drain may take before its writes count as uncommitted.
const DRAIN_LIMIT_MS: u64 = 30_000;

/// Reference chunks (see `calib`) run at evenly spaced points of each
/// epoch's schedule, outside its timed phase.
const SPEED_SAMPLES: usize = 20;

/// Committed writes per epoch whose receipts are fetched and verified.
const RECEIPT_SAMPLE: usize = 4;

/// Wall-clock time spent inside each layer's calls during a traced epoch,
/// in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Primary write calls that appended no signature transaction.
    pub write_call_ns: u64,
    /// Number of such calls.
    pub write_calls: u64,
    /// Primary write calls that also appended a signature transaction.
    pub sig_write_call_ns: u64,
    /// Number of such calls.
    pub sig_write_calls: u64,
    /// Read calls, on any node.
    pub read_call_ns: u64,
    /// Number of read calls.
    pub read_calls: u64,
    /// `CcfNode::receive`, keyed by `(Message::kind, received by the primary)`.
    pub recv_ns: BTreeMap<(&'static str, bool), u64>,
    /// `CcfNode::tick`, all nodes.
    pub tick_ns: u64,
    /// `SimNet::deliveries_until` and `SimNet::send`.
    pub net_ns: u64,
    /// Time inside every call above, per node (net excluded); the
    /// primary's is first.
    pub busy_ns: Vec<u64>,
}

impl Layers {
    fn new(nodes: usize) -> Layers {
        Layers {
            busy_ns: vec![0; nodes],
            ..Layers::default()
        }
    }

    /// Time inside every timed call.
    pub fn timed_ns(&self) -> u64 {
        self.busy_ns.iter().sum::<u64>() + self.net_ns
    }

    /// Adds `other`, its times multiplied by `scale`, into `self`.
    pub fn add(&mut self, other: &Layers, scale: f64) {
        let s = |ns: u64| (ns as f64 * scale) as u64;
        self.write_call_ns += s(other.write_call_ns);
        self.write_calls += other.write_calls;
        self.sig_write_call_ns += s(other.sig_write_call_ns);
        self.sig_write_calls += other.sig_write_calls;
        self.read_call_ns += s(other.read_call_ns);
        self.read_calls += other.read_calls;
        for (k, v) in &other.recv_ns {
            *self.recv_ns.entry(*k).or_default() += s(*v);
        }
        self.tick_ns += s(other.tick_ns);
        self.net_ns += s(other.net_ns);
        self.busy_ns
            .resize(other.busy_ns.len().max(self.busy_ns.len()), 0);
        for (a, b) in self.busy_ns.iter_mut().zip(&other.busy_ns) {
            *a += s(*b);
        }
    }
}

fn start(on: bool) -> Option<Instant> {
    on.then(Instant::now)
}

fn lap(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// An open service ready for load, plus the driver's view of it.
pub struct Service {
    cluster: ServiceCluster,
    ids: Vec<NodeId>,
    nodes: Vec<Arc<CcfNode>>,
    primary: usize,
    now: u64,
}

impl Service {
    /// Starts and opens a service for `spec` (`bench_opts` defaults),
    /// applies the workload's signature policy, writes the prefill and
    /// waits until every node has committed it.
    pub fn set_up(spec: &Spec, seed: u64, inputs: &Inputs) -> Result<Service, String> {
        let opts = ccf_bench::bench_opts(spec.nodes, seed);
        let mut cluster = ServiceCluster::start(opts, Arc::new(logging_app()));
        cluster.open_service();
        if let Some((interval, interval_ms)) = spec.sig_policy {
            for node in cluster.nodes.values() {
                node.set_signature_policy(interval, interval_ms);
            }
        }
        let primary_id = cluster.primary().ok_or("no primary after opening")?;
        let mut last = None;
        for req in &inputs.prefill {
            let resp = cluster.nodes[&primary_id].handle_request(req);
            if resp.status != 200 || resp.txid.is_none() {
                return Err(format!("prefill write failed with status {}", resp.status));
            }
            last = resp.txid;
        }
        // Settle: every node has committed everything the primary holds.
        let settled = cluster.run_until(DRAIN_LIMIT_MS, |c| {
            let p = &c.nodes[&primary_id];
            let target = p.last_applied().seqno.max(last.map_or(0, |t| t.seqno));
            p.commit_seqno() >= target
                && c.nodes
                    .values()
                    .all(|n| n.commit_seqno() == p.commit_seqno())
        });
        if !settled {
            return Err("set-up never settled".to_string());
        }
        let ids: Vec<NodeId> = cluster.nodes.keys().cloned().collect();
        let nodes = cluster.nodes.values().cloned().collect();
        let primary = ids
            .iter()
            .position(|id| *id == primary_id)
            .expect("primary is a node");
        let now = cluster.now();
        Ok(Service {
            cluster,
            ids,
            nodes,
            primary,
            now,
        })
    }

    /// One millisecond of virtual time: the same calls, in the same
    /// order, as `ServiceCluster::step` (no node is ever crashed here).
    /// With `layers`, each call is timed into its layer.
    fn step(&mut self, layers: &mut Option<Layers>) {
        let on = layers.is_some();
        self.now += 1;
        let cluster = &mut self.cluster;
        cluster.obs().set_now(self.now);
        let t0 = start(on);
        let deliveries = cluster.net.deliveries_until(self.now);
        let mut net_ns = lap(t0);
        for d in deliveries {
            if let Some(node) = cluster.nodes.get(&d.to) {
                let kind = d.msg.kind();
                let t0 = start(on);
                let out = node.receive(&d.from, d.msg);
                let ns = lap(t0);
                if let Some(l) = layers.as_mut() {
                    let idx = self
                        .ids
                        .iter()
                        .position(|id| *id == d.to)
                        .expect("known node");
                    *l.recv_ns.entry((kind, idx == self.primary)).or_default() += ns;
                    l.busy_ns[idx] += ns;
                }
                for (to, msg) in out {
                    let t0 = start(on);
                    cluster.net.send(&d.to, &to, msg);
                    net_ns += lap(t0);
                }
            }
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            let t0 = start(on);
            let out = node.tick(self.now);
            let ns = lap(t0);
            if let Some(l) = layers.as_mut() {
                l.tick_ns += ns;
                l.busy_ns[idx] += ns;
            }
            for (to, msg) in out {
                let t0 = start(on);
                cluster.net.send(&self.ids[idx], &to, msg);
                net_ns += lap(t0);
            }
        }
        if let Some(l) = layers.as_mut() {
            l.net_ns += net_ns;
        }
    }

    fn primary(&self) -> &Arc<CcfNode> {
        &self.nodes[self.primary]
    }

    fn ledger_bytes(&self) -> u64 {
        self.primary()
            .persisted_ledger()
            .iter()
            .map(|b| b.len() as u64)
            .sum()
    }
}

/// What one epoch measured, apart from its latency samples.
pub struct Epoch {
    /// Wall time of the open-loop schedule plus its commit drain.
    pub wall_ns: u64,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed: error status, never committed, committed on some
    /// node but not all, a read value never written, or a bad receipt.
    pub failed: u64,
    /// Writes committed at the primary during the timed phase plus reads
    /// answered 200.
    pub ok_ops: u64,
    /// Writes committed at the primary during the timed phase.
    pub committed_writes: u64,
    /// Per-layer call times, for a traced epoch.
    pub layers: Option<Layers>,
    /// Factor converting this epoch's wall times to the nominal machine
    /// speed (see `calib`).
    pub scale: f64,
}

/// The deterministic outcome of an epoch: counts and virtual times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Deterministic {
    /// Counter deltas, plus `<histogram>.count` / `<histogram>.sum`
    /// deltas, over the timed phase.
    pub counts: BTreeMap<String, u64>,
    /// Virtual ns from each write's due time until the primary's commit
    /// seqno covered it, in submission order.
    pub commit_ns: Vec<u64>,
    /// Transaction ids the writes were given.
    pub txids: Vec<TxId>,
    /// Entries the primary appended (writes plus signatures).
    pub entries: u64,
    /// Growth of the primary's persisted ledger.
    pub ledger_bytes: u64,
    /// Nodes in the service.
    pub nodes: usize,
}

impl Deterministic {
    /// The outcomes of several epochs as one: counts, entries and bytes
    /// summed, latencies and txids concatenated.
    pub fn pool(dets: &[Deterministic]) -> Deterministic {
        let mut out = Deterministic {
            counts: BTreeMap::new(),
            commit_ns: Vec::new(),
            txids: Vec::new(),
            entries: 0,
            ledger_bytes: 0,
            nodes: dets.first().map_or(0, |d| d.nodes),
        };
        for d in dets {
            for (name, v) in &d.counts {
                *out.counts.entry(name.clone()).or_default() += v;
            }
            out.commit_ns.extend(&d.commit_ns);
            out.txids.extend(&d.txids);
            out.entries += d.entries;
            out.ledger_bytes += d.ledger_bytes;
        }
        out
    }

    /// The delta of counter (or `<histogram>.sum`) `name`, 0 if unchanged.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

fn deltas(before: &Snapshot, after: &Snapshot) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = after
        .diff(before)
        .counters
        .into_iter()
        .map(|(name, a, b)| (name, a.saturating_sub(b)))
        .collect();
    for (name, h) in &after.histograms {
        let (count0, sum0) = before
            .histograms
            .get(name)
            .map_or((0, 0), |b| (b.count, b.sum));
        if h.count != count0 {
            out.insert(format!("{name}.count"), h.count - count0);
            out.insert(format!("{name}.sum"), h.sum - sum0);
        }
    }
    out
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs one epoch of `inputs` on `svc` and then checks its outputs
/// outside the timed phase. Returns what the epoch measured, the wall
/// time of each request call in issue order (ns), and its deterministic
/// outcome.
pub fn run_epoch(
    svc: &mut Service,
    inputs: &Inputs,
    traced: bool,
    seed: u64,
) -> (Epoch, Vec<u64>, Deterministic) {
    let obs = svc.cluster.obs().clone();
    let sig_txs = obs.counter("consensus.signature_txs");
    let before = obs.snapshot();
    let ledger_before = svc.ledger_bytes();
    let commit_before = svc.primary().commit_seqno();
    let mut layers = traced.then(|| Layers::new(svc.nodes.len()));
    let mut resp_ns = Vec::with_capacity((inputs.writes + inputs.reads) as usize);
    let mut reads = Vec::with_capacity(inputs.reads as usize);
    let mut txids = Vec::with_capacity(inputs.writes as usize);
    let mut pending: VecDeque<(TxId, u64)> = VecDeque::new();
    let mut commit_ns = Vec::with_capacity(inputs.writes as usize);
    let mut failed = 0u64;
    let primary = svc.primary;
    let epoch_start = svc.now;

    let resolve = |svc: &Service, pending: &mut VecDeque<(TxId, u64)>, out: &mut Vec<u64>| {
        let commit = svc.primary().commit_seqno();
        let now_ns = (svc.now - epoch_start) * 1_000_000;
        while pending
            .front()
            .is_some_and(|(txid, _)| txid.seqno <= commit)
        {
            let (_, due_ns) = pending.pop_front().expect("front exists");
            out.push(now_ns - due_ns);
        }
    };

    let mut speed = Speed::default();
    let sample_every = (inputs.schedule.len() / SPEED_SAMPLES).max(1);
    let mut wall_ns = 0;
    let mut t_epoch = Instant::now();
    for (slot, ops) in inputs.schedule.iter().enumerate() {
        for op in ops {
            match op {
                Op::Write { req, due_ns } => {
                    let sigs = sig_txs.get();
                    let t0 = Instant::now();
                    let resp = svc.nodes[primary].handle_request(req);
                    let ns = ns_since(t0);
                    resp_ns.push(ns);
                    if let Some(l) = layers.as_mut() {
                        if sig_txs.get() > sigs {
                            l.sig_write_call_ns += ns;
                            l.sig_write_calls += 1;
                        } else {
                            l.write_call_ns += ns;
                            l.write_calls += 1;
                        }
                        l.busy_ns[primary] += ns;
                    }
                    match (resp.status, resp.txid) {
                        (200, Some(txid)) => {
                            pending.push_back((txid, *due_ns));
                            txids.push(txid);
                        }
                        _ => failed += 1,
                    }
                }
                Op::Read { req, node, .. } => {
                    let idx = *node;
                    let t0 = Instant::now();
                    let resp = svc.nodes[idx].handle_request(req);
                    let ns = ns_since(t0);
                    resp_ns.push(ns);
                    if let Some(l) = layers.as_mut() {
                        l.read_call_ns += ns;
                        l.read_calls += 1;
                        l.busy_ns[idx] += ns;
                    }
                    reads.push((resp.status, resp.body));
                }
            }
        }
        // Sample the machine's speed after the slot's requests, so the
        // cluster step (not a timed request) absorbs the cache misses.
        if slot % sample_every == 0 {
            wall_ns += ns_since(t_epoch);
            speed.sample();
            t_epoch = Instant::now();
        }
        svc.step(&mut layers);
        resolve(svc, &mut pending, &mut commit_ns);
    }
    let mut drain = 0;
    while !pending.is_empty() && drain < DRAIN_LIMIT_MS {
        svc.step(&mut layers);
        resolve(svc, &mut pending, &mut commit_ns);
        drain += 1;
    }
    wall_ns += ns_since(t_epoch);

    // Everything below is outside the timed phase.
    if let Some(l) = layers.as_mut() {
        l.busy_ns.swap(0, primary);
    }
    let after = obs.snapshot();
    let committed_writes = commit_ns.len() as u64;
    failed += pending.len() as u64;
    let ok_reads = reads.iter().filter(|(status, _)| *status == 200).count() as u64;
    let det = Deterministic {
        counts: deltas(&before, &after),
        commit_ns,
        entries: svc.primary().commit_seqno() - commit_before,
        ledger_bytes: svc.ledger_bytes() - ledger_before,
        txids,
        nodes: svc.nodes.len(),
    };
    failed += check_outputs(svc, inputs, &reads, &det.txids, seed);
    let epoch = Epoch {
        wall_ns,
        attempted: inputs.writes + inputs.reads,
        failed,
        ok_ops: committed_writes + ok_reads,
        committed_writes,
        layers,
        scale: speed.scale(),
    };
    (epoch, resp_ns, det)
}

/// The correctness gate: every write Committed on every node, every
/// read a 200 carrying a value written to its key before it was issued,
/// and a seeded sample of receipts verifying against the service
/// identity. Returns the number of failed checks.
fn check_outputs(
    svc: &mut Service,
    inputs: &Inputs,
    reads: &[(u16, Vec<u8>)],
    txids: &[TxId],
    seed: u64,
) -> u64 {
    let mut failed = 0;
    let last = txids.iter().map(|t| t.seqno).max().unwrap_or(0);
    let mut drain = 0;
    while svc.nodes.iter().any(|n| n.commit_seqno() < last) && drain < DRAIN_LIMIT_MS {
        svc.step(&mut None);
        drain += 1;
    }
    for txid in txids {
        if svc
            .nodes
            .iter()
            .any(|n| n.tx_status(*txid) != TxStatus::Committed)
        {
            failed += 1;
        }
    }
    let read_ops = inputs.schedule.iter().flatten().filter_map(|op| match op {
        Op::Read { key, at, .. } => Some((*key, *at)),
        Op::Write { .. } => None,
    });
    for ((key, at), (status, body)) in read_ops.zip(reads) {
        if *status != 200 || !inputs.read_is_valid(key, at, body) {
            failed += 1;
        }
    }
    if !txids.is_empty() {
        let identity = svc.cluster.service_identity();
        let mut rng = ChaChaRng::seed_from_u64(seed).fork(b"receipts");
        for _ in 0..RECEIPT_SAMPLE {
            let txid = txids[rng.gen_range(txids.len() as u64) as usize];
            let ok = svc
                .primary()
                .receipt(txid)
                .is_some_and(|r| r.verify(&identity).is_ok());
            if !ok {
                failed += 1;
            }
        }
    }
    failed
}
