//! The service-level chaos driver: a full [`ServiceCluster`] — KV
//! application traffic, governance proposals, ledger rekeys, node joins
//! and retirements — under a seeded [`FaultSchedule`], with consensus
//! safety invariants checked every step and receipts verified against
//! the service identity.
//!
//! The run loop, report, checker and network/crash faults are
//! [`ccf_consensus::chaos::run_chaos`]'s; this module supplies the
//! service's client traffic, governance-driven joins and removals, and
//! the extra invariant of paper §5.4: every receipt a node hands out for
//! a committed transaction must verify against the service identity.

use crate::app::{AppResult, Application, EndpointDef};
use crate::service::{ServiceCluster, ServiceOpts};
use ccf_consensus::chaos::{run_chaos, ChaosHarness, ChaosReport};
use ccf_consensus::invariants::{InvariantChecker, StateView, Violation};
use ccf_consensus::message::Message;
use ccf_consensus::{NodeId, Seqno, TxStatus};
use ccf_crypto::Digest32;
use ccf_governance::Proposal;
use ccf_ledger::entry::EntryKind;
use ccf_ledger::TxId;
use ccf_script::Value;
use ccf_sim::nemesis::FaultSchedule;
use ccf_sim::{SimNet, Time};
use std::sync::Arc;

impl StateView for crate::node::CcfNode {
    fn commit_seqno(&self) -> Seqno {
        crate::node::CcfNode::commit_seqno(self)
    }

    fn entry_info(&self, seqno: Seqno) -> Option<(TxId, Digest32, EntryKind)> {
        crate::node::CcfNode::entry_info(self, seqno)
    }
}

fn chaos_app() -> Application {
    Application::new("chaos v1")
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

/// Nodes in a service chaos run's initial cluster.
const CHAOS_NODES: usize = 3;

/// The service under chaos, plus the driver state that lives across
/// faults.
struct ServiceChaos {
    service: ServiceCluster,
    /// Successful write txids not yet receipt-verified.
    pending_receipts: Vec<TxId>,
    /// Client bursts so far; every few stir governance as well.
    bursts: u64,
}

impl ChaosHarness for ServiceChaos {
    fn net(&mut self) -> &mut SimNet<Message> {
        &mut self.service.net
    }

    fn step(&mut self) {
        self.service.step()
    }

    fn node_ids(&self) -> Vec<NodeId> {
        self.service.nodes.keys().cloned().collect()
    }

    fn live_ids(&self) -> Vec<NodeId> {
        self.service.live_nodes().into_iter().cloned().collect()
    }

    fn primary(&self) -> Option<NodeId> {
        self.service.primary()
    }

    fn check(&self, checker: &mut InvariantChecker) {
        checker.check(self.service.nodes.iter().map(|(id, node)| (id, node.as_ref())));
    }

    fn max_commit(&self) -> Seqno {
        self.service.nodes.values().map(|n| n.commit_seqno()).max().unwrap_or(0)
    }

    fn client_burst(&mut self, k: usize, report: &mut ChaosReport) {
        for i in 0..k {
            let body = format!("{}={}", report.faults_applied * 100 + i, "m");
            let resp =
                self.service.user_request(i + report.faults_applied, "POST", "/log", body.as_bytes());
            if resp.status == 200 {
                report.proposals += 1;
                if let Some(txid) = resp.txid {
                    self.pending_receipts.push(txid);
                }
            }
        }
        // Every few bursts, stir governance as well: ledger rekeys and
        // user registration race the fault schedule. No primary, or a
        // refusal mid-election, is expected under chaos.
        self.bursts += 1;
        let proposal = match self.bursts % 4 {
            1 => Proposal::single("trigger_ledger_rekey", Value::Null),
            3 => {
                let user = format!("chaos-user-{}", self.bursts);
                Proposal::single(
                    "set_user",
                    Value::obj([
                        ("user_id".to_string(), Value::str(&user)),
                        ("cert".to_string(), Value::str(format!("cert-{user}"))),
                    ]),
                )
            }
            _ => return,
        };
        let _ = self.service.try_propose_and_vote(&proposal);
    }

    fn join_node(&mut self) {
        // Joining needs a reachable primary; every other join (the 2nd,
        // 4th, …) copies a snapshot from it (snapshot-join under churn).
        // Nodes are never removed, so the count names the next join.
        let Some(primary) = self.service.primary() else { return };
        if self.service.nodes.len() >= 7 {
            return;
        }
        let joined = self.service.nodes.len() - CHAOS_NODES;
        let snapshot_from = (joined % 2 == 1).then_some(primary);
        let id = self.service.join_pending(&format!("c{joined}"), snapshot_from.as_deref());
        let _ = self.service.try_propose_and_vote(&Proposal::single(
            "transition_node_to_trusted",
            Value::obj([("node_id".to_string(), Value::str(id))]),
        ));
    }

    fn remove_node(&mut self, slot: usize) {
        let live = self.live_ids();
        if live.len() > 2 {
            let victim = live[slot % live.len()].clone();
            let _ = self.service.try_propose_and_vote(&Proposal::single(
                "remove_node",
                Value::obj([("node_id".to_string(), Value::str(victim))]),
            ));
        }
    }

    /// Verifies receipts for writes that have committed since the last
    /// call. A committed transaction whose receipt fails to verify
    /// against the service identity is a safety violation (§5.4).
    fn audit(&mut self, report: &mut ChaosReport) {
        let identity = self.service.service_identity();
        let mut still_pending = Vec::new();
        for txid in std::mem::take(&mut self.pending_receipts) {
            let committed = self
                .service
                .live_nodes()
                .iter()
                .any(|id| self.service.nodes[*id].tx_status(txid) == TxStatus::Committed);
            if !committed {
                still_pending.push(txid);
                continue;
            }
            // A missing receipt is tolerated: nodes may have compacted
            // the proof below their snapshot base (availability, not
            // safety). A receipt that fails to verify is a violation.
            if let Some(receipt) = self.service.receipt(txid) {
                if let Err(e) = receipt.verify(&identity) {
                    report.violations.push(Violation {
                        node: "service".to_string(),
                        detail: format!("receipt for committed {txid} failed: {e:?}"),
                    });
                }
            }
        }
        self.pending_receipts = still_pending;
    }
}

/// Runs a 3-node service under `schedule` for `horizon` virtual ms past
/// service-open, checking invariants after every step and verifying
/// receipts for committed writes. Deterministic in `(seed, schedule,
/// horizon)`.
pub fn run_service_chaos(seed: u64, schedule: &FaultSchedule, horizon: Time) -> ChaosReport {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: CHAOS_NODES, members: 3, seed, ..ServiceOpts::default() },
        Arc::new(chaos_app()),
    );
    service.open_service();
    let mut chaos = ServiceChaos { service, pending_receipts: Vec::new(), bursts: 0 };
    run_chaos(&mut chaos, seed, schedule, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full service stack — traces, flight recorder, histograms —
    /// is deterministic in the seed: same-seed chaos runs serialize to
    /// byte-identical observability JSON.
    #[test]
    fn same_seed_service_runs_emit_byte_identical_trace_json() {
        let schedule = FaultSchedule::generate(7, 2_500, 6);
        let a = run_service_chaos(7, &schedule, 2_500);
        let b = run_service_chaos(7, &schedule, 2_500);
        assert!(
            !a.metrics.trace_spans.is_empty(),
            "service chaos recorded no trace spans"
        );
        assert!(!a.metrics.flight.is_empty(), "service chaos recorded no flight events");
        assert_eq!(a.metrics.trace_spans, b.metrics.trace_spans);
        assert_eq!(a.metrics.flight, b.metrics.flight);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }
}
