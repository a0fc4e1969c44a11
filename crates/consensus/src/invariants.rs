//! Safety-invariant checking for chaos/nemesis runs.
//!
//! The checker is incremental: call it after every simulation step and it
//! inspects only state and flight records that changed since the last
//! call, so a multi-minute virtual run stays cheap. Its one event source
//! is the run's flight recorder: each replica writes one record per
//! transition (named in `replica::record`) and the checker reads the
//! records added since its last read ([`ccf_obs::Registry::flight_since`]).
//! Each invariant encodes a claim from the paper:
//!
//! * **Committed-prefix agreement** — all replicas agree on the entry
//!   (TxId *and* payload digest) at every committed seqno, across the
//!   whole run, not just pairwise at the end (§4.1: commit is final).
//! * **Commit only at signature transactions** — the commit point only
//!   ever rests on a signature transaction (§4.1).
//! * **At most one primary per view** — two nodes never both win the same
//!   view (§4.2: quorum intersection over all active configs, §4.4).
//! * **No rollback past commit** — a truncation below a node's own commit
//!   point never happens (§4.1 durability).
//! * **Commit monotonicity** — a node's commit seqno never decreases.
//! * **No invariant rejections** — the hardened `Replica` error paths
//!   (refusing rollbacks past commit, gapped appends) must never fire
//!   among honest nodes; if one does, our own protocol logic produced a
//!   Byzantine-looking message.
//! * **No lost records** — if more records arrived between two reads than
//!   the bounded ring holds, the checker cannot vouch for the overwritten
//!   ones, and says so as a violation.
//!
//! Receipt verifiability against the service identity is checked at the
//! service layer (`ccf-core`), where the identity exists.

use crate::replica::{record, Replica};
use crate::{NodeId, Seqno, View};
use ccf_crypto::Digest32;
use ccf_ledger::entry::EntryKind;
use ccf_ledger::TxId;
use std::collections::BTreeMap;

/// A read-only window onto one replica's ledger state, so the checker
/// works over both the consensus harness and the full service node.
pub trait StateView {
    /// The node's commit seqno.
    fn commit_seqno(&self) -> Seqno;
    /// `(txid, payload digest, kind)` of the retained entry at `seqno`,
    /// or `None` if it is below the snapshot base / past the end.
    fn entry_info(&self, seqno: Seqno) -> Option<(TxId, Digest32, EntryKind)>;
}

impl StateView for Replica {
    fn commit_seqno(&self) -> Seqno {
        Replica::commit_seqno(self)
    }

    fn entry_info(&self, seqno: Seqno) -> Option<(TxId, Digest32, EntryKind)> {
        self.entry_at(seqno).map(|e| (e.entry.txid, e.entry.digest(), e.entry.kind))
    }
}

/// One invariant violation, attributed to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The node on which the violation was observed.
    pub node: NodeId,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.node, self.detail)
    }
}

/// Incremental checker over one run's registry; keep one per run and
/// feed it every step.
pub struct InvariantChecker {
    reg: ccf_obs::Registry,
    /// The registry's flight total at the last read.
    flight_read: u64,
    /// Replica transition records checked so far.
    protocol_records: u64,
    /// Global committed history: seqno → (txid, digest, kind), as first
    /// observed on any node. Later observations must match — including
    /// from nodes that committed, rolled state forward, and re-report.
    history: BTreeMap<Seqno, (TxId, Digest32, EntryKind)>,
    /// Highest commit seqno already cross-checked per node.
    checked_commit: BTreeMap<NodeId, Seqno>,
    /// Which node won each view.
    primary_of_view: BTreeMap<View, NodeId>,
    /// Per-node running commit point as seen through its records.
    record_commit: BTreeMap<NodeId, Seqno>,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// A checker reading `reg`'s flight recorder from its current total
    /// on: records written before this call are not checked.
    pub fn new(reg: &ccf_obs::Registry) -> InvariantChecker {
        InvariantChecker {
            reg: reg.clone(),
            flight_read: reg.flight_total(),
            protocol_records: 0,
            history: BTreeMap::new(),
            checked_commit: BTreeMap::new(),
            primary_of_view: BTreeMap::new(),
            record_commit: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// All violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True while no invariant has been violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Replica transition records (commit, rollback, election won,
    /// invariant rejected) checked so far. A run whose checker consumed
    /// none checked nothing.
    pub fn protocol_records(&self) -> u64 {
        self.protocol_records
    }

    /// The highest commit seqno `node`'s records have reported (0 if none).
    pub fn record_commit(&self, node: &str) -> Seqno {
        self.record_commit.get(node).copied().unwrap_or(0)
    }

    fn violation(&mut self, node: &str, detail: String) {
        self.violations.push(Violation { node: node.to_string(), detail });
    }

    /// Checks every node's new state, then every flight record added
    /// since the last call. Records name their node; one whose node is
    /// not in `nodes` is checked without its state.
    pub fn check<'a, S: StateView + 'a>(
        &mut self,
        nodes: impl IntoIterator<Item = (&'a NodeId, &'a S)>,
    ) {
        let nodes: BTreeMap<&str, &S> = nodes.into_iter().map(|(id, s)| (id.as_str(), s)).collect();
        for (id, state) in &nodes {
            self.check_state(id, *state);
        }
        let (total, records) = self.reg.flight_since(self.flight_read);
        let lost = total - self.flight_read - records.len() as u64;
        self.flight_read = total;
        if lost > 0 {
            self.violation(
                "flight-recorder",
                format!("{lost} records were overwritten before the checker read them"),
            );
        }
        for r in &records {
            let state = nodes.get(r.node.as_str()).map(|s| *s as &dyn StateView);
            self.check_record(r, state);
        }
    }

    /// Commit monotonicity and committed-prefix agreement for one node.
    fn check_state(&mut self, node: &str, state: &dyn StateView) {
        let commit = state.commit_seqno();
        let checked = self.checked_commit.get(node).copied().unwrap_or(0);
        if commit < checked {
            self.violation(
                node,
                format!("commit seqno moved backwards: {checked} -> {commit}"),
            );
        }
        for s in checked + 1..=commit {
            let Some(info) = state.entry_info(s) else {
                // Below the node's snapshot base: vouched for by the
                // snapshotting node, which already cross-checked it.
                continue;
            };
            match self.history.get(&s) {
                None => {
                    self.history.insert(s, info);
                }
                Some(prev) if *prev == info => {}
                Some(prev) => {
                    self.violation(
                        node,
                        format!(
                            "committed-prefix divergence at seqno {s}: \
                             node has {:?} but history recorded {:?}",
                            (info.0, info.2),
                            (prev.0, prev.2)
                        ),
                    );
                }
            }
        }
        self.checked_commit.insert(node.to_string(), checked.max(commit));
    }

    /// The record-stream invariants, for one flight record.
    fn check_record(&mut self, r: &ccf_obs::FlightRecord, state: Option<&dyn StateView>) {
        let node = r.node.as_str();
        match (r.kind.as_str(), r.tag.as_str()) {
            record::PRIMARY => {
                let view = r.a;
                match self.primary_of_view.get(&view) {
                    Some(winner) if winner != node => {
                        let winner = winner.clone();
                        self.violation(
                            node,
                            format!("two primaries in view {view}: {winner} and {node}"),
                        );
                    }
                    _ => {
                        self.primary_of_view.insert(view, node.to_string());
                    }
                }
            }
            record::COMMIT => {
                let seqno = r.b;
                let running = self.record_commit(node);
                if seqno < running {
                    self.violation(
                        node,
                        format!("commit record moved backwards: {running} -> {seqno}"),
                    );
                }
                self.record_commit.insert(node.to_string(), running.max(seqno));
                // Commit only at signature transactions (§4.1). The
                // entry cannot roll back after commit, so reading it
                // now (post-hoc) is sound; below-base means a snapshot
                // covered it, which also only cuts at signature points.
                if let Some((_, _, kind)) = state.and_then(|s| s.entry_info(seqno)) {
                    if kind != EntryKind::Signature {
                        self.violation(
                            node,
                            format!("commit point {seqno} is a {kind:?}, not a signature"),
                        );
                    }
                }
            }
            record::ROLLBACK => {
                let seqno = r.b;
                let running = self.record_commit(node);
                if seqno < running {
                    self.violation(
                        node,
                        format!("rolled back to {seqno}, below own commit {running}"),
                    );
                }
            }
            record::REJECTED => {
                let peer = if r.peer.is_empty() { "itself" } else { r.peer.as_str() };
                self.violation(
                    node,
                    format!(
                        "replica refused a message from {peer}: seqno {} would cross commit {}",
                        r.a, r.b
                    ),
                );
            }
            _ => return,
        }
        self.protocol_records += 1;
    }
}

/// A crash-forensics bundle assembled from an observability registry at
/// the moment an invariant trips: the tail of the bounded flight recorder
/// (already causally ordered — ring order is global sequence order) plus
/// the critical paths of the traces most likely implicated (in-flight,
/// i.e. not yet committed; if every trace committed, the most recent
/// ones). See DESIGN.md §12.
#[derive(Debug, Clone)]
pub struct Forensics {
    /// Last protocol/net events, oldest first.
    pub flight: Vec<ccf_obs::FlightRecord>,
    /// Critical paths of affected traces.
    pub critical_paths: Vec<ccf_obs::trace::CriticalPath>,
}

impl Forensics {
    /// Multi-line human-readable dump (flight excerpt, then traces).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("flight recorder (last {} events):\n", self.flight.len()));
        for r in &self.flight {
            out.push_str("  ");
            out.push_str(&r.render());
            out.push('\n');
        }
        out.push_str(&format!("affected traces ({}):\n", self.critical_paths.len()));
        for p in &self.critical_paths {
            out.push_str("  ");
            out.push_str(&p.render());
            out.push('\n');
        }
        out
    }
}

/// Assembles a [`Forensics`] bundle from `reg`, keeping at most
/// `max_events` flight records and `max_traces` trace critical paths.
pub fn forensics(reg: &ccf_obs::Registry, max_events: usize, max_traces: usize) -> Forensics {
    let snap = reg.snapshot();
    let mut flight = snap.flight.clone();
    if flight.len() > max_events {
        flight.drain(..flight.len() - max_events);
    }
    let trees = ccf_obs::trace::assemble(&snap.trace_spans);
    // Affected = traces whose commit stage never closed; when everything
    // committed (violation unrelated to any one request), show the most
    // recent traces instead.
    let affected: Vec<&ccf_obs::trace::TraceTree> = {
        let inflight: Vec<_> = trees.iter().filter(|t| !t.committed()).collect();
        if inflight.is_empty() { trees.iter().collect() } else { inflight }
    };
    let skip = affected.len().saturating_sub(max_traces);
    let critical_paths =
        affected.into_iter().skip(skip).map(ccf_obs::trace::critical_path).collect();
    Forensics { flight, critical_paths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_obs::Registry;

    /// A node whose log holds `kinds[s - 1]` at seqno `s`, committed up
    /// to `commit`.
    struct Stub {
        commit: Seqno,
        kinds: Vec<EntryKind>,
    }

    impl StateView for Stub {
        fn commit_seqno(&self) -> Seqno {
            self.commit
        }

        fn entry_info(&self, seqno: Seqno) -> Option<(TxId, Digest32, EntryKind)> {
            let kind = *self.kinds.get(usize::try_from(seqno).ok()?.checked_sub(1)?)?;
            Some((TxId::new(1, seqno), [seqno as u8; 32], kind))
        }
    }

    /// Two stub nodes, `n0` and `n1`, each holding user entries at odd
    /// seqnos and signatures at even ones, 1..=4, with a checker on a
    /// fresh registry that the tests write records into by hand.
    struct Fixture {
        reg: Registry,
        checker: InvariantChecker,
        nodes: BTreeMap<NodeId, Stub>,
    }

    impl Fixture {
        fn new() -> Fixture {
            let reg = Registry::new();
            let checker = InvariantChecker::new(&reg);
            let (user, sig) = (EntryKind::User, EntryKind::Signature);
            let kinds = vec![user, sig, user, sig];
            let nodes = ["n0", "n1"]
                .into_iter()
                .map(|n| (n.to_string(), Stub { commit: 0, kinds: kinds.clone() }))
                .collect();
            Fixture { reg, checker, nodes }
        }

        fn record(&self, node: &str, (kind, tag): (&'static str, &'static str), a: u64, b: u64) {
            self.reg.flight(self.reg.node_ref(node), kind, tag, None, a, b);
        }

        /// Runs the checker; returns the violations found so far.
        fn check(&mut self) -> Vec<String> {
            self.checker.check(&self.nodes);
            self.checker.violations().iter().map(|v| v.to_string()).collect()
        }
    }

    #[test]
    fn two_primaries_in_one_view_are_flagged() {
        let mut f = Fixture::new();
        f.record("n0", record::PRIMARY, 3, 0);
        f.record("n1", record::PRIMARY, 4, 0);
        assert!(f.check().is_empty());
        f.record("n1", record::PRIMARY, 3, 0);
        let v = f.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("two primaries in view 3: n0 and n1"), "{v:?}");
        assert_eq!(f.checker.protocol_records(), 3);
    }

    #[test]
    fn commit_at_a_non_signature_is_flagged() {
        let mut f = Fixture::new();
        f.record("n0", record::COMMIT, 1, 2);
        assert!(f.check().is_empty());
        f.record("n0", record::COMMIT, 1, 3);
        let v = f.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("commit point 3 is a User, not a signature"), "{v:?}");
        assert_eq!(f.checker.record_commit("n0"), 3);
    }

    #[test]
    fn rollback_below_own_commit_is_flagged() {
        let mut f = Fixture::new();
        f.record("n0", record::COMMIT, 1, 4);
        // Truncating to the commit point, or another node's rollback,
        // is legal.
        f.record("n0", record::ROLLBACK, 1, 4);
        f.record("n1", record::ROLLBACK, 1, 2);
        assert!(f.check().is_empty());
        f.record("n0", record::ROLLBACK, 1, 2);
        let v = f.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[n0] rolled back to 2, below own commit 4"), "{v:?}");
    }

    #[test]
    fn invariant_rejection_is_flagged() {
        let mut f = Fixture::new();
        f.record("n1", record::REJECTED, 1, 2);
        let v = f.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("[n1] replica refused"), "{v:?}");
    }

    #[test]
    fn records_overwritten_between_reads_are_flagged() {
        let mut f = Fixture::new();
        let reg = f.reg.clone();
        let (n0, n1) = (reg.node_ref("n0"), reg.node_ref("n1"));
        let fill = |k: usize| {
            for _ in 0..k {
                reg.flight(n0, "send", "append_entries", Some(n1), 1, 0);
            }
        };
        // A full ring between two reads is fine; one more is a loss.
        fill(ccf_obs::DEFAULT_FLIGHT_CAPACITY);
        assert!(f.check().is_empty());
        fill(ccf_obs::DEFAULT_FLIGHT_CAPACITY + 1);
        let v = f.check();
        assert_eq!(v, vec!["[flight-recorder] 1 records were overwritten before the checker read them"]);
        // Net records are read but are not protocol records.
        assert_eq!(f.checker.protocol_records(), 0);
    }
}
