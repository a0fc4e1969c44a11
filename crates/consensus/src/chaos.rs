//! The chaos driver: applies a seeded [`FaultSchedule`] to a cluster
//! while checking safety invariants after every step. [`run_chaos`] is
//! the one run loop and fault dispatcher; a [`ChaosHarness`] supplies
//! what differs per cluster. This crate's harness is the consensus-level
//! [`Cluster`]; `ccf-core` adds the full service.
//!
//! Everything — cluster timeouts, network latency, the fault schedule —
//! derives from the one seed, so `run_consensus_chaos(seed, …)` is a pure
//! function: a failing seed replays bit-for-bit, and schedule shrinking
//! (re-running with events removed) is meaningful.

use crate::harness::Cluster;
use crate::invariants::{forensics, Forensics, InvariantChecker, Violation};
use crate::message::Message;
use crate::replica::ReplicaConfig;
use crate::{Config, NodeId, Seqno};
use ccf_sim::nemesis::{FaultSchedule, NemesisOp};
use ccf_sim::{NetConfig, SimNet, Time};

/// Outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the run (cluster + schedule) derives from.
    pub seed: u64,
    /// Simulation steps executed.
    pub steps: u64,
    /// Highest commit seqno reached on any node.
    pub max_commit: Seqno,
    /// Client transactions successfully proposed.
    pub proposals: u64,
    /// Fault events actually applied.
    pub faults_applied: usize,
    /// Invariant violations (empty = run passed).
    pub violations: Vec<Violation>,
    /// Replica transition records the invariant checker consumed.
    pub protocol_records: u64,
    /// End-of-run observability snapshot (deterministic in the seed:
    /// same-seed runs produce `==` snapshots and byte-identical JSON).
    pub metrics: ccf_obs::Snapshot,
    /// Crash-forensics bundle (flight-recorder tail + critical paths of
    /// affected traces), assembled only when an invariant tripped.
    pub forensics: Option<Forensics>,
}

impl ChaosReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replica timing used by chaos runs: aggressive signature cadence so the
/// commit point keeps moving even between client bursts.
pub fn chaos_replica_config() -> ReplicaConfig {
    ReplicaConfig {
        leadership_ack_window: 400,
        signature_interval: 4,
        signature_interval_ms: 25,
        max_batch: 64,
    }
}

/// Network parameters chaos runs start from (the schedule mutates
/// latency/drop/duplication as it goes).
pub fn chaos_net_config() -> NetConfig {
    NetConfig { latency: (1, 10), drop_probability: 0.0 }
}

/// A cluster a chaos run can drive. [`run_chaos`] owns the run loop, the
/// report and every network and crash fault; a harness supplies only what
/// differs between the consensus cluster and the full service.
pub trait ChaosHarness {
    /// The simulated network: crash, partition and link faults act on it.
    fn net(&mut self) -> &mut SimNet<Message>;
    /// Advances the cluster by one virtual millisecond.
    fn step(&mut self);
    /// Every node id, crashed or not, in id order.
    fn node_ids(&self) -> Vec<NodeId>;
    /// The nodes a kill may pick from, in id order.
    fn live_ids(&self) -> Vec<NodeId>;
    /// The current primary, if any.
    fn primary(&self) -> Option<NodeId>;
    /// Feeds every node's state to `checker`.
    fn check(&self, checker: &mut InvariantChecker);
    /// The highest commit seqno on any node.
    fn max_commit(&self) -> Seqno;
    /// Submits `k` client transactions ([`NemesisOp::ClientBurst`]).
    fn client_burst(&mut self, k: usize, report: &mut ChaosReport);
    /// Starts adding a node ([`NemesisOp::AddNode`]).
    fn join_node(&mut self);
    /// Starts removing the node at `slot` ([`NemesisOp::RemoveNode`]).
    fn remove_node(&mut self, slot: usize);
    /// Checks the harness's own invariants into `report`: called before
    /// every fault and once when the run ends.
    fn audit(&mut self, _report: &mut ChaosReport) {}
}

/// Runs `harness` under `schedule` for `horizon` virtual ms from its
/// current time, checking invariants after every step. `seed` is the one
/// the harness and schedule derive from; the run is deterministic in it.
pub fn run_chaos(
    harness: &mut impl ChaosHarness,
    seed: u64,
    schedule: &FaultSchedule,
    horizon: Time,
) -> ChaosReport {
    let reg = harness.net().registry().clone();
    let mut checker = InvariantChecker::new(&reg);
    let mut report = ChaosReport {
        seed,
        steps: 0,
        max_commit: 0,
        proposals: 0,
        faults_applied: 0,
        violations: Vec::new(),
        protocol_records: 0,
        metrics: ccf_obs::Snapshot::default(),
        forensics: None,
    };
    let start = harness.net().now();
    let mut events = schedule.events.iter().peekable();
    while harness.net().now() - start < horizon {
        let offset = harness.net().now() - start;
        while let Some(event) = events.next_if(|e| e.at <= offset) {
            report.faults_applied += 1;
            harness.audit(&mut report);
            apply_fault(harness, &event.op, &mut report);
        }
        harness.step();
        report.steps += 1;
        harness.check(&mut checker);
        if !checker.ok() {
            break;
        }
    }
    harness.audit(&mut report);
    report.max_commit = harness.max_commit();
    report.violations.extend(checker.violations().iter().cloned());
    report.protocol_records = checker.protocol_records();
    if !report.ok() {
        report.forensics = Some(forensics(&reg, 64, 4));
    }
    report.metrics = reg.snapshot();
    report
}

/// Applies one fault. Slots resolve against the membership at this
/// moment, so a shrunk schedule still means something.
fn apply_fault(harness: &mut impl ChaosHarness, op: &NemesisOp, report: &mut ChaosReport) {
    let ids = harness.node_ids();
    match op {
        NemesisOp::KillPrimary => {
            if let Some(p) = harness.primary() {
                if harness.live_ids().len() > 1 {
                    harness.net().crash(&p);
                }
            }
        }
        NemesisOp::KillNode(slot) => {
            let live = harness.live_ids();
            if live.len() > 1 {
                harness.net().crash(&live[slot % live.len()]);
            }
        }
        NemesisOp::RestartNode(slot) => {
            let net = harness.net();
            let down: Vec<&NodeId> = ids.iter().filter(|id| net.is_crashed(id)).collect();
            if !down.is_empty() {
                net.restart(down[slot % down.len()]);
            }
        }
        NemesisOp::Partition { left } => {
            let cut = (*left).clamp(1, ids.len().saturating_sub(1));
            if cut < ids.len() {
                let a = ids[..cut].iter().cloned().collect();
                let b = ids[cut..].iter().cloned().collect();
                harness.net().partition(vec![a, b]);
            }
        }
        NemesisOp::OneWayBlock { from, to } => {
            let (f, t) = (&ids[from % ids.len()], &ids[to % ids.len()]);
            if f != t {
                harness.net().block_link(f, t);
            }
        }
        NemesisOp::Heal => harness.net().heal(),
        NemesisOp::SetDuplication(p) => {
            harness.net().set_duplicate_probability(f64::from(*p) / 100.0)
        }
        NemesisOp::SetDrop(p) => harness.net().set_drop_probability(f64::from(*p) / 100.0),
        NemesisOp::SetLatency { lo, hi } => harness.net().set_latency(*lo, *hi),
        NemesisOp::ClientBurst(k) => harness.client_burst(*k, report),
        NemesisOp::AddNode => harness.join_node(),
        NemesisOp::RemoveNode(slot) => harness.remove_node(*slot),
    }
}

/// Nodes in a consensus chaos run's initial cluster.
const CHAOS_NODES: usize = 5;

/// Runs a 5-node cluster under `schedule` for `horizon` virtual ms,
/// checking invariants after every step. Deterministic in `(seed,
/// schedule, horizon)`.
pub fn run_consensus_chaos(seed: u64, schedule: &FaultSchedule, horizon: Time) -> ChaosReport {
    let mut cluster =
        Cluster::new(CHAOS_NODES, chaos_replica_config(), chaos_net_config(), seed);
    run_chaos(&mut cluster, seed, schedule, horizon)
}

impl ChaosHarness for Cluster {
    fn net(&mut self) -> &mut SimNet<Message> {
        &mut self.net
    }

    fn step(&mut self) {
        Cluster::step(self)
    }

    fn node_ids(&self) -> Vec<NodeId> {
        self.replicas.keys().cloned().collect()
    }

    fn live_ids(&self) -> Vec<NodeId> {
        Cluster::live_ids(self)
    }

    fn primary(&self) -> Option<NodeId> {
        Cluster::primary(self)
    }

    /// Crashed replicas included: their frozen state must still agree
    /// with history.
    fn check(&self, checker: &mut InvariantChecker) {
        checker.check(&self.replicas)
    }

    fn max_commit(&self) -> Seqno {
        self.replicas.values().map(|r| r.commit_seqno()).max().unwrap_or(0)
    }

    fn client_burst(&mut self, k: usize, report: &mut ChaosReport) {
        for i in 0..k {
            let payload = format!("chaos-{}-{}", report.faults_applied, i);
            if self.propose(payload.as_bytes()).is_ok() {
                report.proposals += 1;
            }
        }
    }

    fn join_node(&mut self) {
        // Cap growth; every other join (the 2nd, 4th, …) bootstraps from
        // a snapshot of the current primary (snapshot-join under churn).
        // Replicas are never removed, so the count names the next join.
        if self.replicas.len() >= 9 {
            return;
        }
        let joined = self.replicas.len() - CHAOS_NODES;
        let id = format!("c{joined}");
        let snapshot = if joined % 2 == 1 {
            self.primary().and_then(|p| self.replicas[&p].snapshot_descriptor(Vec::new()))
        } else {
            None
        };
        self.add_node(id.clone(), chaos_replica_config(), snapshot);
        if let Some(p) = self.primary() {
            let mut config: Config = self.replicas[&p].config_union();
            config.insert(id);
            let _ = self.propose_reconfig(&config);
        }
    }

    fn remove_node(&mut self, slot: usize) {
        if let Some(p) = self.primary() {
            let config: Config = self.replicas[&p].config_union();
            if config.len() > 2 {
                let ids: Vec<NodeId> = config.iter().cloned().collect();
                let victim = ids[slot % ids.len()].clone();
                let remaining: Config = config.into_iter().filter(|n| n != &victim).collect();
                let _ = self.propose_reconfig(&remaining);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_runs_produce_identical_metrics_snapshots() {
        let schedule = FaultSchedule::generate(11, 5_000, 10);
        let a = run_consensus_chaos(11, &schedule, 5_000);
        let b = run_consensus_chaos(11, &schedule, 5_000);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        // And the run actually exercised the instrumented paths.
        let commits = a.metrics.counters.get("consensus.commits").copied().unwrap_or(0);
        assert!(commits > 0, "chaos run produced no commits: {:?}", a.metrics.counters);
        assert!(a.metrics.counters.get("net.messages_sent").copied().unwrap_or(0) > 0);
        // The checker read the replicas' transition records.
        assert!(a.protocol_records > 0);
        assert_eq!(a.protocol_records, b.protocol_records);
    }
}
