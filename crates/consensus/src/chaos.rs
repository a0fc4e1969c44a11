//! The consensus-level chaos driver: applies a seeded [`FaultSchedule`]
//! to a [`Cluster`] while checking safety invariants after every step.
//!
//! Everything — cluster timeouts, network latency, the fault schedule —
//! derives from the one seed, so `run_consensus_chaos(seed, …)` is a pure
//! function: a failing seed replays bit-for-bit, and schedule shrinking
//! (re-running with events removed) is meaningful.

use crate::harness::Cluster;
use crate::invariants::{forensics, Forensics, InvariantChecker, Violation};
use crate::replica::ReplicaConfig;
use crate::{Config, NodeId, Seqno};
use ccf_sim::nemesis::{FaultSchedule, NemesisOp};
use ccf_sim::{NetConfig, Time};

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
        election_timeout: (150, 300),
        heartbeat_interval: 20,
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

/// Runs a 5-node cluster under `schedule` for `horizon` virtual ms,
/// checking invariants after every step. Deterministic in `(seed,
/// schedule, horizon)`.
pub fn run_consensus_chaos(seed: u64, schedule: &FaultSchedule, horizon: Time) -> ChaosReport {
    let mut cluster = Cluster::new(5, chaos_replica_config(), chaos_net_config(), seed);
    let mut checker = InvariantChecker::new(cluster.obs());
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
    let mut next_event = 0;
    let mut added_nodes: u64 = 0;

    while cluster.now() < horizon {
        while next_event < schedule.events.len() && schedule.events[next_event].at <= cluster.now()
        {
            let op = schedule.events[next_event].op.clone();
            next_event += 1;
            apply_op(&mut cluster, &op, &mut report, &mut added_nodes);
        }
        cluster.step();
        report.steps += 1;
        checker.check_cluster(&cluster);
        if !checker.ok() {
            report.violations = checker.violations().to_vec();
            report.forensics = Some(forensics(cluster.obs(), 64, 4));
            break;
        }
    }
    report.max_commit = cluster
        .replicas
        .values()
        .map(|r| r.commit_seqno())
        .max()
        .unwrap_or(0);
    if report.violations.is_empty() {
        report.violations = checker.violations().to_vec();
    }
    report.protocol_records = checker.protocol_records();
    report.metrics = cluster.obs().snapshot();
    report
}

fn apply_op(cluster: &mut Cluster, op: &NemesisOp, report: &mut ChaosReport, added: &mut u64) {
    report.faults_applied += 1;
    match op {
        NemesisOp::KillPrimary => {
            if let Some(p) = cluster.primary() {
                if cluster.live_ids().len() > 1 {
                    cluster.crash(&p);
                }
            }
        }
        NemesisOp::KillNode(slot) => {
            let live = cluster.live_ids();
            if live.len() > 1 {
                let victim = live[slot % live.len()].clone();
                cluster.crash(&victim);
            }
        }
        NemesisOp::RestartNode(slot) => {
            let down: Vec<NodeId> = cluster
                .replicas
                .keys()
                .filter(|id| cluster.is_crashed(id))
                .cloned()
                .collect();
            if !down.is_empty() {
                let back = down[slot % down.len()].clone();
                cluster.restart(&back);
            }
        }
        NemesisOp::Partition { left } => {
            let ids: Vec<NodeId> = cluster.replicas.keys().cloned().collect();
            let cut = (*left).clamp(1, ids.len().saturating_sub(1));
            if cut < ids.len() {
                let a = ids[..cut].iter().cloned().collect();
                let b = ids[cut..].iter().cloned().collect();
                cluster.net.partition(vec![a, b]);
            }
        }
        NemesisOp::OneWayBlock { from, to } => {
            let ids: Vec<NodeId> = cluster.replicas.keys().cloned().collect();
            let f = &ids[from % ids.len()];
            let t = &ids[to % ids.len()];
            if f != t {
                cluster.net.block_link(f, t);
            }
        }
        NemesisOp::Heal => cluster.net.heal(),
        NemesisOp::SetDuplication(p) => {
            cluster.net.set_duplicate_probability(f64::from(*p) / 100.0)
        }
        NemesisOp::SetDrop(p) => cluster.net.set_drop_probability(f64::from(*p) / 100.0),
        NemesisOp::SetLatency { lo, hi } => cluster.net.set_latency(*lo, *hi),
        NemesisOp::ClientBurst(k) => {
            for i in 0..*k {
                let payload = format!("chaos-{}-{}", report.faults_applied, i);
                if cluster.propose(payload.as_bytes()).is_ok() {
                    report.proposals += 1;
                }
            }
        }
        NemesisOp::AddNode => {
            // Cap growth; every other join bootstraps from a snapshot of
            // the current primary (snapshot-join under churn).
            if cluster.replicas.len() >= 9 {
                return;
            }
            let id = format!("c{added}");
            *added += 1;
            let snapshot = if (*added).is_multiple_of(2) {
                cluster.primary().and_then(|p| {
                    let primary = &cluster.replicas[&p];
                    let snap = primary.snapshot_descriptor(Vec::new());
                    if let Some(s) = snap.clone() {
                        cluster.replicas.get_mut(&p).unwrap().set_latest_snapshot(s);
                    }
                    snap
                })
            } else {
                None
            };
            cluster.add_node(id.clone(), chaos_replica_config(), snapshot);
            if let Some(p) = cluster.primary() {
                let mut config: Config = cluster.replicas[&p].config_union();
                config.insert(id);
                let _ = cluster.propose_reconfig(&config);
            }
        }
        NemesisOp::RemoveNode(slot) => {
            if let Some(p) = cluster.primary() {
                let config: Config = cluster.replicas[&p].config_union();
                if config.len() > 2 {
                    let ids: Vec<NodeId> = config.iter().cloned().collect();
                    let victim = ids[slot % ids.len()].clone();
                    let remaining: Config =
                        config.into_iter().filter(|n| n != &victim).collect();
                    let _ = cluster.propose_reconfig(&remaining);
                }
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
