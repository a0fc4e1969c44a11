//! The service-level chaos driver: a full [`ServiceCluster`] — KV
//! application traffic, governance proposals, ledger rekeys, node joins
//! and retirements — under a seeded [`FaultSchedule`], with consensus
//! safety invariants checked every step and receipts verified against
//! the service identity.
//!
//! Reuses the checker and report types from
//! [`ccf_consensus::invariants`] / [`ccf_consensus::chaos`]; the extra
//! invariant here is paper §5.4: every receipt a node hands out for a
//! committed transaction must verify against the service identity.

use crate::app::{AppResult, Application, EndpointDef};
use crate::service::{ServiceCluster, ServiceOpts};
use ccf_consensus::chaos::ChaosReport;
use ccf_consensus::invariants::{InvariantChecker, StateView, Violation};
use ccf_consensus::NodeId;
use ccf_crypto::Digest32;
use ccf_governance::{Ballot, Proposal};
use ccf_ledger::entry::EntryKind;
use ccf_ledger::TxId;
use ccf_script::Value;
use ccf_sim::nemesis::{FaultSchedule, NemesisOp};
use ccf_sim::Time;
use std::sync::Arc;

impl StateView for crate::node::CcfNode {
    fn commit_seqno(&self) -> ccf_consensus::Seqno {
        crate::node::CcfNode::commit_seqno(self)
    }

    fn entry_info(&self, seqno: ccf_consensus::Seqno) -> Option<(TxId, Digest32, EntryKind)> {
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

/// Driver state that lives across fault applications.
struct ServiceChaos {
    service: ServiceCluster,
    checker: InvariantChecker,
    /// Successful write txids not yet receipt-verified.
    pending_receipts: Vec<TxId>,
    joins: u64,
    gov_counter: u64,
}

impl ServiceChaos {
    /// Submits `proposal` from the first member without panicking on
    /// failure (no primary / rejected mid-election are expected under
    /// chaos), then has every member vote for it.
    fn try_govern(&mut self, proposal: Proposal) {
        let Some(primary) = self.service.primary() else { return };
        let member_ids: Vec<String> = self.service.members.keys().cloned().collect();
        let Some(first) = member_ids.first() else { return };
        let nonce = {
            let m = self.service.members.get_mut(first).unwrap();
            let n = m.next_nonce;
            m.next_nonce += 1;
            n
        };
        let key = &self.service.members[first].signing;
        let resp = self.service.nodes[&primary].submit_proposal(key, &proposal, nonce);
        if resp.status != 200 {
            return;
        }
        let Ok(doc) = ccf_script::parse_json(&resp.text()) else { return };
        let Some(pid) = doc.get("proposal_id").and_then(|v| v.as_str()).map(String::from) else {
            return;
        };
        for m in member_ids {
            let Some(primary) = self.service.primary() else { return };
            let nonce = {
                let mk = self.service.members.get_mut(&m).unwrap();
                let n = mk.next_nonce;
                mk.next_nonce += 1;
                n
            };
            let key = &self.service.members[&m].signing;
            let resp =
                self.service.nodes[&primary].submit_ballot(key, &pid, &Ballot::approve(), nonce);
            if resp.status != 200 {
                return; // already final, or primary lost — both fine
            }
        }
    }

    /// Verifies receipts for writes that have committed since the last
    /// call. A committed transaction whose receipt fails to verify
    /// against the service identity is a safety violation (§5.4).
    fn check_receipts(&mut self, report: &mut ChaosReport) {
        let identity = self.service.service_identity();
        let mut still_pending = Vec::new();
        for txid in std::mem::take(&mut self.pending_receipts) {
            let committed = self
                .service
                .live_nodes()
                .iter()
                .any(|id| self.service.nodes[*id].tx_status(txid) == ccf_consensus::TxStatus::Committed);
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

    fn check_invariants(&mut self) {
        self.checker.check(self.service.nodes.iter().map(|(id, node)| (id, node.as_ref())));
    }

    fn apply_op(&mut self, op: &NemesisOp, report: &mut ChaosReport) {
        report.faults_applied += 1;
        // Receipt checking rides on fault application so its cost stays
        // proportional to the schedule, not the step count.
        self.check_receipts(report);
        let all_ids: Vec<NodeId> = self.service.nodes.keys().cloned().collect();
        match op {
            NemesisOp::KillPrimary => {
                if let Some(p) = self.service.primary() {
                    if self.service.live_nodes().len() > 1 {
                        self.service.crash(&p);
                    }
                }
            }
            NemesisOp::KillNode(slot) => {
                let live: Vec<NodeId> =
                    self.service.live_nodes().into_iter().cloned().collect();
                if live.len() > 1 {
                    let victim = live[slot % live.len()].clone();
                    self.service.crash(&victim);
                }
            }
            NemesisOp::RestartNode(slot) => {
                let down: Vec<NodeId> = all_ids
                    .iter()
                    .filter(|id| self.service.is_crashed(id))
                    .cloned()
                    .collect();
                if !down.is_empty() {
                    let back = down[slot % down.len()].clone();
                    self.service.restart(&back);
                }
            }
            NemesisOp::Partition { left } => {
                let cut = (*left).clamp(1, all_ids.len().saturating_sub(1));
                if cut < all_ids.len() {
                    let a = all_ids[..cut].iter().cloned().collect();
                    let b = all_ids[cut..].iter().cloned().collect();
                    self.service.net.partition(vec![a, b]);
                }
            }
            NemesisOp::OneWayBlock { from, to } => {
                let f = &all_ids[from % all_ids.len()];
                let t = &all_ids[to % all_ids.len()];
                if f != t {
                    self.service.net.block_link(f, t);
                }
            }
            NemesisOp::Heal => self.service.net.heal(),
            NemesisOp::SetDuplication(p) => {
                self.service.net.set_duplicate_probability(f64::from(*p) / 100.0)
            }
            NemesisOp::SetDrop(p) => {
                self.service.net.set_drop_probability(f64::from(*p) / 100.0)
            }
            NemesisOp::SetLatency { lo, hi } => self.service.net.set_latency(*lo, *hi),
            NemesisOp::ClientBurst(k) => {
                for i in 0..*k {
                    let body =
                        format!("{}={}", report.faults_applied * 100 + i, "m");
                    let resp = self.service.user_request(
                        i + report.faults_applied,
                        "POST",
                        "/log",
                        body.as_bytes(),
                    );
                    if resp.status == 200 {
                        report.proposals += 1;
                        if let Some(txid) = resp.txid {
                            self.pending_receipts.push(txid);
                        }
                    }
                }
                // Every few bursts, stir governance as well: ledger
                // rekeys and user registration race the fault schedule.
                self.gov_counter += 1;
                match self.gov_counter % 4 {
                    1 => self.try_govern(Proposal::single("trigger_ledger_rekey", Value::Null)),
                    3 => {
                        let user = format!("chaos-user-{}", self.gov_counter);
                        self.try_govern(Proposal::single(
                            "set_user",
                            Value::obj([
                                ("user_id".to_string(), Value::str(&user)),
                                ("cert".to_string(), Value::str(format!("cert-{user}"))),
                            ]),
                        ));
                    }
                    _ => {}
                }
            }
            NemesisOp::AddNode => {
                // Joining needs a reachable primary; every other join
                // copies a snapshot from it (snapshot-join under churn).
                if self.service.nodes.len() >= 7 || self.service.primary().is_none() {
                    return;
                }
                let id = format!("c{}", self.joins);
                self.joins += 1;
                let snapshot_from = if self.joins.is_multiple_of(2) {
                    self.service.primary()
                } else {
                    None
                };
                let joined =
                    self.service.join_pending(&id, snapshot_from.as_deref());
                self.try_govern(Proposal::single(
                    "transition_node_to_trusted",
                    Value::obj([("node_id".to_string(), Value::str(joined))]),
                ));
            }
            NemesisOp::RemoveNode(slot) => {
                let live: Vec<NodeId> =
                    self.service.live_nodes().into_iter().cloned().collect();
                if live.len() > 2 {
                    let victim = live[slot % live.len()].clone();
                    self.try_govern(Proposal::single(
                        "remove_node",
                        Value::obj([("node_id".to_string(), Value::str(victim))]),
                    ));
                }
            }
        }
    }
}

/// Runs a 3-node service under `schedule` for `horizon` virtual ms past
/// service-open, checking invariants after every step and verifying
/// receipts for committed writes. Deterministic in `(seed, schedule,
/// horizon)`.
pub fn run_service_chaos(seed: u64, schedule: &FaultSchedule, horizon: Time) -> ChaosReport {
    let mut service = ServiceCluster::start(
        ServiceOpts { nodes: 3, members: 3, seed, ..ServiceOpts::default() },
        Arc::new(chaos_app()),
    );
    service.open_service();
    let start = service.now();

    let mut chaos = ServiceChaos {
        checker: InvariantChecker::new(service.obs()),
        service,
        pending_receipts: Vec::new(),
        joins: 0,
        gov_counter: 0,
    };
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

    while chaos.service.now() - start < horizon {
        let offset = chaos.service.now() - start;
        while next_event < schedule.events.len() && schedule.events[next_event].at <= offset {
            let op = schedule.events[next_event].op.clone();
            next_event += 1;
            chaos.apply_op(&op, &mut report);
        }
        chaos.service.step();
        report.steps += 1;
        chaos.check_invariants();
        if !chaos.checker.ok() {
            report.forensics =
                Some(ccf_consensus::invariants::forensics(chaos.service.obs(), 64, 4));
            break;
        }
    }
    chaos.check_receipts(&mut report);
    report.max_commit = chaos
        .service
        .nodes
        .values()
        .map(|n| n.commit_seqno())
        .max()
        .unwrap_or(0);
    report
        .violations
        .extend(chaos.checker.violations().iter().cloned());
    report.protocol_records = chaos.checker.protocol_records();
    if !report.violations.is_empty() && report.forensics.is_none() {
        // Receipt-check violations surface outside the step loop.
        report.forensics =
            Some(ccf_consensus::invariants::forensics(chaos.service.obs(), 64, 4));
    }
    report.metrics = chaos.service.obs().snapshot();
    report
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
