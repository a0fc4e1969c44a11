//! Cluster-level consensus tests: elections, replication, commit safety,
//! reconfiguration, retirement, and the paper's Figure 5 / Table 2
//! election scenario — all on the deterministic simulator.

use ccf_consensus::harness::{reconfig_entry, user_entry, Cluster};
use ccf_consensus::invariants::InvariantChecker;
use ccf_consensus::message::{AppendEntries, Message, RequestVote};
use ccf_consensus::replica::{ReplicaConfig, Role};
use ccf_consensus::{Config, NodeId, TxStatus};
use ccf_ledger::TxId;
use ccf_sim::{Input, NetConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

fn fast_cfg() -> ReplicaConfig {
    ReplicaConfig {
        election_timeout: (150, 300),
        heartbeat_interval: 20,
        leadership_ack_window: 400,
        signature_interval: 5,
        signature_interval_ms: 0, // tests drive signatures explicitly
        max_batch: 64,
    }
}

fn quiet_net() -> NetConfig {
    NetConfig { latency: (1, 5), drop_probability: 0.0 }
}

#[test]
fn single_node_commits_alone() {
    let mut cluster = Cluster::new(1, fast_cfg(), quiet_net(), 1);
    assert!(cluster.run_until(2000, |c| c.primary().is_some()));
    for i in 0..10 {
        cluster.propose(format!("op{i}").as_bytes()).unwrap();
    }
    cluster.emit_signature();
    cluster.run_for(50);
    let commit = cluster.replicas["n0"].commit_seqno();
    // 10 user entries + view-opening signature + at least one more sig.
    assert!(commit >= 12, "commit {commit}");
    assert_eq!(cluster.replicas["n0"].role(), Role::Primary);
}

#[test]
fn three_nodes_elect_and_commit() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 2);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()), "no primary elected");
    let txid = cluster.propose(b"hello").unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(5000, |c| c.min_commit() >= txid.seqno),
        "entry never committed everywhere: {:?}",
        cluster.commit_seqnos()
    );
    cluster.assert_committed_prefixes_consistent();
    // All replicas report the transaction committed.
    for r in cluster.replicas.values() {
        assert_eq!(r.tx_status(txid), TxStatus::Committed);
    }
}

#[test]
fn exactly_one_primary_per_view() {
    let mut cluster = Cluster::new(5, fast_cfg(), quiet_net(), 3);
    cluster.run_for(3000);
    // Count primaries per view across the whole run's end state.
    let mut by_view: std::collections::HashMap<u64, Vec<NodeId>> = Default::default();
    for (id, r) in &cluster.replicas {
        if r.is_primary() {
            by_view.entry(r.view()).or_default().push(id.clone());
        }
    }
    for (view, primaries) in by_view {
        assert!(primaries.len() <= 1, "two primaries in view {view}: {primaries:?}");
    }
}

#[test]
fn primary_failure_triggers_failover_and_preserves_committed_data() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 4);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let first_primary = cluster.primary().unwrap();

    let txid = cluster.propose(b"durable").unwrap();
    cluster.emit_signature();
    assert!(cluster.run_until(5000, |c| c.min_commit() >= txid.seqno));

    let crashed_view = cluster.replicas[&first_primary].view();
    cluster.crash(&first_primary);
    assert!(
        cluster.run_until(10_000, |c| c.primary().is_some_and(|p| p != first_primary)),
        "no new primary elected after crash"
    );
    let new_primary = cluster.primary().unwrap();
    // Writes resume under the new primary.
    let txid2 = cluster.propose(b"after failover").unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(5000, |c| {
            c.replicas
                .iter()
                .filter(|(id, _)| !c.is_crashed(id))
                .all(|(_, r)| r.commit_seqno() >= txid2.seqno)
        }),
        "no commits after failover"
    );
    // The pre-crash committed entry survived on the survivors.
    for (id, r) in &cluster.replicas {
        if !cluster.is_crashed(id) {
            assert_eq!(r.tx_status(txid), TxStatus::Committed, "{id}");
        }
    }
    cluster.assert_committed_prefixes_consistent();
    assert!(cluster.replicas[&new_primary].view() > crashed_view);
}

#[test]
fn minority_cannot_commit() {
    let mut cluster = Cluster::new(5, fast_cfg(), quiet_net(), 5);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let primary = cluster.primary().unwrap();
    // Partition the primary with just one backup (minority side).
    let backup = cluster
        .replicas
        .keys()
        .find(|id| **id != primary)
        .cloned()
        .unwrap();
    let minority: BTreeSet<NodeId> = [primary.clone(), backup.clone()].into();
    let majority: BTreeSet<NodeId> = cluster
        .replicas
        .keys()
        .filter(|id| !minority.contains(*id))
        .cloned()
        .collect();
    cluster.net.partition(vec![minority.clone(), majority.clone()]);

    let commit_before = cluster.replicas[&primary].commit_seqno();
    // Propose on the (stale) primary while partitioned.
    let stale_primary = cluster.replicas.get_mut(&primary).unwrap();
    if let Ok((_, actions)) = stale_primary.propose(|txid| user_entry(txid, b"doomed")) {
        cluster.send_at_tick(&primary, actions.messages);
    }
    cluster.run_for(3000);
    // Nothing on the minority side may commit beyond the pre-partition point
    // plus what was already replicated majority-wide.
    let commit_after = cluster.replicas[&primary].commit_seqno();
    assert!(
        commit_after <= commit_before,
        "minority committed: {commit_before} -> {commit_after}"
    );
    // The majority side elects a new primary and keeps going.
    let new_primary = cluster
        .replicas
        .iter()
        .filter(|(id, _)| majority.contains(*id))
        .find(|(_, r)| r.is_primary())
        .map(|(id, _)| id.clone());
    assert!(new_primary.is_some(), "majority side failed to elect");
    cluster.net.heal();
    cluster.run_for(3000);
    cluster.assert_committed_prefixes_consistent();
}

#[test]
fn divergent_suffix_rolled_back_after_heal() {
    let mut cluster = Cluster::new(5, fast_cfg(), quiet_net(), 6);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let old_primary = cluster.primary().unwrap();
    let partner = cluster.replicas.keys().find(|id| **id != old_primary).cloned().unwrap();
    let minority: BTreeSet<NodeId> = [old_primary.clone(), partner.clone()].into();
    let majority: BTreeSet<NodeId> =
        cluster.replicas.keys().filter(|id| !minority.contains(*id)).cloned().collect();
    cluster.net.partition(vec![minority, majority.clone()]);

    // Stale primary appends a suffix that can never commit.
    let mut stale = Vec::new();
    for i in 0..5 {
        let r = cluster.replicas.get_mut(&old_primary).unwrap();
        let (txid, actions) = r
            .propose(|txid| user_entry(txid, format!("stale{i}").as_bytes()))
            .expect("still primary right after the partition");
        cluster.send_at_tick(&old_primary, actions.messages);
        stale.push(txid);
    }
    let signed = cluster.replicas.get_mut(&old_primary).unwrap().emit_signature();
    cluster.send_at_tick(&old_primary, signed.messages);
    cluster.run_for(2000);
    // Majority commits its own entries under a new primary.
    let new_primary = cluster
        .replicas
        .iter()
        .filter(|(id, _)| majority.contains(*id))
        .find(|(_, r)| r.is_primary())
        .map(|(id, _)| id.clone())
        .expect("majority elected");
    for i in 0..3 {
        let r = cluster.replicas.get_mut(&new_primary).unwrap();
        let proposed = r.propose(|txid| user_entry(txid, format!("good{i}").as_bytes()));
        if let Ok((_, actions)) = proposed {
            cluster.send_at_tick(&new_primary, actions.messages);
        }
    }
    let signed = cluster.replicas.get_mut(&new_primary).unwrap().emit_signature();
    cluster.send_at_tick(&new_primary, signed.messages);
    cluster.run_for(2000);
    let rollbacks = cluster.obs().counter("consensus.rollbacks");
    let rollbacks_before = rollbacks.get();
    cluster.net.heal();
    cluster.run_for(5000);
    // The old primary must have rolled back its stale suffix and adopted
    // the majority ledger.
    cluster.assert_committed_prefixes_consistent();
    let old = &cluster.replicas[&old_primary];
    let new = &cluster.replicas[&new_primary];
    assert!(old.commit_seqno() >= new.commit_seqno().min(old.last_seqno()));
    assert!(rollbacks.get() > rollbacks_before, "stale primary never rolled back");
    for txid in stale {
        assert_eq!(old.tx_status(txid), TxStatus::Invalid, "stale {txid} survived");
    }
}

/// The Figure 5 (left) / Table 2 election scenario: five nodes whose last
/// signature transactions are ordered n0 < n1 < n3 = n4 < n2, all in view
/// 3. The paper's vote matrix must be reproduced exactly.
#[test]
fn table2_election_vote_matrix() {
    // Build the canonical view-3 ledger: signatures at seqnos 2, 4, 6, 8.
    let mk_entries = |upto: u64| {
        let mut entries = Vec::new();
        for s in 1..=upto {
            if s % 2 == 0 {
                // A signature entry (content irrelevant for voting rules —
                // built by `LedgerEntry::signature` in real runs; kind matters here).
                let mut e = user_entry(TxId::new(3, s), b"sig");
                e.entry.kind = ccf_ledger::entry::EntryKind::Signature;
                entries.push(Arc::new(e));
            } else {
                entries.push(Arc::new(user_entry(TxId::new(3, s), b"user")));
            }
        }
        entries
    };
    // Ledger lengths chosen so last sigs are: n0→2, n1→4, n2→8, n3→6, n4→6.
    let lengths: &[(&str, u64)] = &[("n0", 3), ("n1", 5), ("n2", 8), ("n3", 6), ("n4", 7)];
    let last_sig = |len: u64| TxId::new(3, len - len % 2);

    // For each candidate, rebuild a fresh cluster (voting consumes the
    // per-view vote) and ask everyone to vote.
    let mut could_win = Vec::new();
    for (candidate, cand_len) in lengths {
        let mut cluster = Cluster::new(5, fast_cfg(), quiet_net(), 42);
        // Install the ledgers via append_entries from the view-3 primary.
        for (id, len) in lengths {
            let r = cluster.replicas.get_mut(*id).unwrap();
            r.step(Input::Receive {
                from: "n2".to_string(),
                msg: Message::AppendEntries(AppendEntries {
                    view: 3,
                    leader: "n2".into(),
                    prev: TxId::ZERO,
                    entries: mk_entries(*len).into(),
                    commit_seqno: 0,
                }),
            });
            assert_eq!(r.last_signature(), last_sig(*len), "{id}");
        }
        let mut votes = 1; // candidate votes for itself
        let mut row = Vec::new();
        for (voter, _) in lengths {
            if voter == candidate {
                row.push(true);
                continue;
            }
            let v = cluster.replicas.get_mut(*voter).unwrap();
            let sent = v.step(Input::Receive {
                from: candidate.to_string(),
                msg: Message::RequestVote(RequestVote {
                    view: 4,
                    candidate: candidate.to_string(),
                    last_signature: last_sig(*cand_len),
                }),
            });
            let granted = sent.messages.iter().any(|(_, m)| {
                matches!(m, Message::RequestVoteResponse(r) if r.granted)
            });
            if granted {
                votes += 1;
            }
            row.push(granted);
        }
        could_win.push((*candidate, row.clone(), votes >= 3));
    }

    // Table 2, row by row (votes from n0..n4, and "could win?").
    let expect = [
        ("n0", [true, false, false, false, false], false),
        ("n1", [true, true, false, false, false], false),
        ("n2", [true, true, true, true, true], true),
        ("n3", [true, true, false, true, true], true),
        ("n4", [true, true, false, true, true], true),
    ];
    for ((cand, row, win), (e_cand, e_row, e_win)) in could_win.iter().zip(expect.iter()) {
        assert_eq!(cand, e_cand);
        assert_eq!(row.as_slice(), e_row.as_slice(), "votes for candidate {cand}");
        assert_eq!(win, e_win, "could-win for {cand}");
    }
}

#[test]
fn reconfiguration_add_node() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 7);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let txid = cluster.propose(b"pre-reconfig").unwrap();
    cluster.emit_signature();
    assert!(cluster.run_until(5000, |c| c.min_commit() >= txid.seqno));

    // New node joins as PENDING.
    let new_id = cluster.add_node("n3", fast_cfg(), None);
    let new_config: Config =
        ["n0", "n1", "n2", "n3"].iter().map(|s| s.to_string()).collect();
    let rtx = cluster.propose_reconfig(&new_config).unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(10_000, |c| c.min_commit() >= rtx.seqno),
        "reconfig never committed: {:?}",
        cluster.commit_seqnos()
    );
    // The new node replicates the full ledger and participates.
    assert!(
        cluster.run_until(10_000, |c| c.replicas[&new_id].commit_seqno() >= rtx.seqno),
        "new node never caught up"
    );
    assert_eq!(cluster.replicas[&new_id].tx_status(txid), TxStatus::Committed);
    // Current config on the primary includes n3.
    let primary = cluster.primary().unwrap();
    let configs = cluster.replicas[&primary].active_configs();
    assert!(configs.iter().any(|c| c.nodes.contains("n3")));
    cluster.assert_committed_prefixes_consistent();
}

#[test]
fn atomic_reconfiguration_replace_majority() {
    // Move from {n0,n1,n2} to {n0,n3,n4} in ONE transaction (§4.4:
    // arbitrary transitions, unlike one-at-a-time Raft reconfiguration).
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 8);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    cluster.add_node("n3", fast_cfg(), None);
    cluster.add_node("n4", fast_cfg(), None);
    let target: Config = ["n0", "n3", "n4"].iter().map(|s| s.to_string()).collect();
    let rtx = cluster.propose_reconfig(&target).unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(20_000, |c| {
            ["n0", "n3", "n4"].iter().all(|id| {
                c.replicas[&id.to_string()].commit_seqno() >= rtx.seqno
            })
        }),
        "new configuration never converged: {:?}",
        cluster.commit_seqnos()
    );
    // Eventually the old nodes n1, n2 are no longer needed: crash them and
    // verify the new configuration still makes progress.
    cluster.run_for(1000);
    cluster.crash("n1");
    cluster.crash("n2");
    assert!(cluster.run_until(15_000, |c| c.primary().is_some()));
    let t2 = cluster.propose(b"new era").unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(10_000, |c| {
            ["n0", "n3", "n4"]
                .iter()
                .all(|id| c.replicas[&id.to_string()].commit_seqno() >= t2.seqno)
        }),
        "no progress in new configuration"
    );
    cluster.assert_committed_prefixes_consistent();
}

#[test]
fn retiring_primary_stops_proposing_and_successor_emerges() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 9);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let primary = cluster.primary().unwrap();
    // Reconfigure the primary out.
    let remaining: Config = cluster
        .replicas
        .keys()
        .filter(|id| **id != primary)
        .cloned()
        .collect();
    let rtx = cluster.propose_reconfig(&remaining).unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(10_000, |c| c.replicas[&primary].commit_seqno() >= rtx.seqno),
        "reconfig did not commit on the retiring primary"
    );
    // The primary saw its retirement commit.
    assert_eq!(cluster.replicas[&primary].role(), Role::Retiring);
    // It now refuses proposals…
    {
        let r = cluster.replicas.get_mut(&primary).unwrap();
        assert!(r.propose(|t| user_entry(t, b"x")).is_err());
    }
    // …and a successor from the new configuration takes over.
    assert!(
        cluster.run_until(15_000, |c| {
            c.replicas
                .iter()
                .any(|(id, r)| *id != primary && r.is_primary() && remaining.contains(id))
        }),
        "no successor primary"
    );
    // The retired node can now be shut down and the service continues.
    cluster.crash(&primary);
    let t = cluster.propose(b"post-retirement").unwrap();
    cluster.emit_signature();
    assert!(cluster.run_until(10_000, |c| {
        remaining.iter().all(|id| c.replicas[id].commit_seqno() >= t.seqno)
    }));
    cluster.assert_committed_prefixes_consistent();
}

#[test]
fn snapshot_bootstraps_new_node_without_full_replay() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 10);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let early = cluster.propose(b"entry0").unwrap();
    for i in 1..50 {
        let _ = cluster.propose(format!("entry{i}").as_bytes());
    }
    cluster.emit_signature();
    let primary = cluster.primary().unwrap();
    assert!(cluster.run_until(5000, |c| c.replicas[&primary].commit_seqno() >= 50));

    // Produce a snapshot on the primary (kv payload is the node layer's
    // business; empty here).
    let snapshot = cluster.replicas[&primary].snapshot_descriptor(Vec::new()).unwrap();
    let snap_seqno = snapshot.last_txid.seqno;
    assert!(snap_seqno >= 50);

    // New node starts FROM the snapshot.
    let new_id = cluster.add_node("n3", fast_cfg(), Some(snapshot));
    assert_eq!(cluster.replicas[&new_id].last_seqno(), snap_seqno);
    let all: Config = ["n0", "n1", "n2", "n3"].iter().map(|s| s.to_string()).collect();
    let rtx = cluster.propose_reconfig(&all).unwrap();
    cluster.emit_signature();
    assert!(
        cluster.run_until(10_000, |c| c.replicas[&new_id].commit_seqno() >= rtx.seqno),
        "snapshot-started node never joined: commit {:?}",
        cluster.replicas[&new_id].commit_seqno()
    );
    // It only holds entries after the snapshot point.
    let joiner = &cluster.replicas[&new_id];
    assert!(joiner.entry_at(1).is_none());
    assert!(joiner.entry_at(snap_seqno + 1).is_some());
    // Yet it knows the status of a transaction the snapshot covers: its
    // view history decides, as for any committed seqno (Fig. 4).
    assert!(joiner.entry_at(early.seqno).is_none());
    assert_eq!(joiner.tx_status(early), TxStatus::Committed);
    assert_eq!(joiner.tx_status(TxId::new(early.view + 1, early.seqno)), TxStatus::Invalid);
    cluster.assert_committed_prefixes_consistent();
}

/// A node booted from a snapshot records its install and boot commit
/// like any other transition: `consensus.snapshots_installed` counts it,
/// and the invariant checker consumes the boot commit record.
#[test]
fn snapshot_join_records_its_boot_install_and_commit() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 12);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    for i in 0..8 {
        cluster.propose(format!("entry{i}").as_bytes()).unwrap();
    }
    cluster.emit_signature();
    let primary = cluster.primary().unwrap();
    assert!(cluster.run_until(5000, |c| c.replicas[&primary].commit_seqno() >= 8));
    let snapshot = cluster.replicas[&primary].snapshot_descriptor(Vec::new()).unwrap();
    let snap_seqno = snapshot.last_txid.seqno;

    let mut checker = InvariantChecker::new(cluster.obs());
    let installs = cluster.obs().counter("consensus.snapshots_installed");
    let before = installs.get();
    let id = cluster.add_node("n3", fast_cfg(), Some(snapshot));
    assert_eq!(installs.get(), before + 1, "the boot install was not counted");
    checker.check(&cluster.replicas);
    assert!(checker.ok(), "{:?}", checker.violations());
    assert_eq!(checker.record_commit(&id), snap_seqno, "no boot commit record for {id}");
}

#[test]
fn tx_status_lifecycle() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 11);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let primary = cluster.primary().unwrap();
    let txid = cluster.propose(b"status-test").unwrap();
    // Immediately after propose: pending on the primary, unknown elsewhere.
    assert_eq!(cluster.replicas[&primary].tx_status(txid), TxStatus::Pending);
    cluster.emit_signature();
    assert!(cluster.run_until(5000, |c| c.min_commit() >= txid.seqno));
    for r in cluster.replicas.values() {
        assert_eq!(r.tx_status(txid), TxStatus::Committed);
    }
    // A transaction id with the right seqno but a stale view is Invalid.
    let fake = TxId::new(txid.view.saturating_sub(1), txid.seqno);
    if fake.view > 0 {
        assert_eq!(cluster.replicas[&primary].tx_status(fake), TxStatus::Invalid);
    }
    // A far-future txid is Unknown.
    assert_eq!(
        cluster.replicas[&primary].tx_status(TxId::new(99, 9999)),
        TxStatus::Unknown
    );
}

#[test]
fn safety_under_random_fault_schedules() {
    // Shake many seeds with drops, a crash, and a partition window; the
    // committed prefixes must stay consistent in every run.
    for seed in 0..25u64 {
        let mut cluster = Cluster::new(
            5,
            fast_cfg(),
            NetConfig { latency: (1, 15), drop_probability: 0.05 },
            1000 + seed,
        );
        cluster.run_for(2000);
        for i in 0..20 {
            let _ = cluster.propose(format!("w{i}").as_bytes());
            if i % 5 == 4 {
                cluster.emit_signature();
                cluster.run_for(100);
            }
        }
        // Crash whoever is primary.
        if let Some(p) = cluster.primary() {
            cluster.crash(&p);
        }
        cluster.run_for(3000);
        for i in 0..10 {
            let _ = cluster.propose(format!("x{i}").as_bytes());
        }
        cluster.emit_signature();
        // Random partition among the survivors, then heal.
        let survivors: Vec<NodeId> = cluster
            .replicas
            .keys()
            .filter(|id| !cluster.is_crashed(id))
            .cloned()
            .collect();
        let (a, b) = survivors.split_at(survivors.len() / 2);
        cluster
            .net
            .partition(vec![a.iter().cloned().collect(), b.iter().cloned().collect()]);
        cluster.run_for(2000);
        cluster.net.heal();
        cluster.run_for(4000);
        cluster.assert_committed_prefixes_consistent();
    }
}

#[test]
fn reconfig_rolls_back_with_its_suffix() {
    // A reconfiguration appended on a soon-to-be-deposed primary must be
    // removed from the active configurations when its suffix rolls back.
    let mut cluster = Cluster::new(5, fast_cfg(), quiet_net(), 12);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let old_primary = cluster.primary().unwrap();
    let partner = cluster.replicas.keys().find(|id| **id != old_primary).cloned().unwrap();
    let minority: BTreeSet<NodeId> = [old_primary.clone(), partner.clone()].into();
    let majority: BTreeSet<NodeId> =
        cluster.replicas.keys().filter(|id| !minority.contains(*id)).cloned().collect();
    cluster.net.partition(vec![minority, majority.clone()]);
    // Reconfig proposed on the doomed primary; can never commit.
    {
        let r = cluster.replicas.get_mut(&old_primary).unwrap();
        let cfg: Config = ["n0", "n1"].iter().map(|s| s.to_string()).collect();
        let proposed = r.propose(|txid| reconfig_entry(txid, &cfg));
        assert!(r.active_configs().len() >= 2, "reconfig should be active immediately");
        if let Ok((_, actions)) = proposed {
            cluster.send_at_tick(&old_primary, actions.messages);
        }
    }
    cluster.run_for(2500);
    cluster.net.heal();
    cluster.run_for(5000);
    // After healing, the doomed reconfig must be gone from the old primary.
    let r = &cluster.replicas[&old_primary];
    assert_eq!(r.active_configs().len(), 1, "stale reconfig still active");
    assert_eq!(r.active_configs()[0].nodes.len(), 5);
    cluster.assert_committed_prefixes_consistent();
}
