//! End-to-end causal-tracing tests (DESIGN.md §12): traces piggybacked
//! on consensus messages survive leader changes, same-seed runs emit
//! byte-identical trace JSON, and the crash-forensics bundle carries the
//! flight-recorder tail plus critical paths of in-flight traces.

use ccf_consensus::harness::{traced_user_entry, user_entry, Cluster};
use ccf_consensus::invariants::forensics;
use ccf_consensus::replica::{Actions, Replica, ReplicaConfig};
use ccf_consensus::{AppendEntries, Config, Message};
use ccf_crypto::SigningKey;
use ccf_ledger::{LedgerEntry, TxId};
use ccf_obs::TraceId;
use ccf_sim::{Input, NetConfig};
use std::collections::BTreeSet;

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

/// A signed-but-uncommitted user request must still close (reach its
/// `commit` stage) after a leader change: backups learn the trace id
/// purely from the piggyback on the dead primary's `ReplicatedEntry`s,
/// the entry survives the new primary's truncate-to-last-signature, and
/// the new view commits it — closing the trace on a different node than
/// the one that minted it.
#[test]
fn trace_survives_leader_change() {
    let reg = ccf_obs::Registry::default();
    // Minted where the request entered: the soon-to-die primary "p".
    let trace = reg.mint_trace();

    let mut b = replica(&reg, "b", &["p", "b", "c"]);
    let mut c = replica(&reg, "c", &["p", "b", "c"]);

    // "p" replicates the traced write and its covering signature to both
    // backups, then dies before its commit point ever reaches them.
    let from_p = AppendEntries {
        view: 1,
        leader: "p".to_string(),
        prev: TxId::ZERO,
        entries: vec![
            traced_user_entry(TxId::new(1, 1), b"traced-write", trace).into(),
            ccf_consensus::message::ReplicatedEntry {
                entry: LedgerEntry::signature(TxId::new(1, 2), [0u8; 32], "p", &key("p")),
                config: None,
                trace: TraceId::NONE,
            }
            .into(),
        ]
        .into(),
        commit_seqno: 0,
    };
    receive(&mut b, "p", Message::AppendEntries(from_p.clone()));
    receive(&mut c, "p", Message::AppendEntries(from_p));
    assert_eq!(b.commit_seqno(), 0, "nothing committed before the crash");

    let snap = reg.snapshot();
    let append_nodes: BTreeSet<&str> = snap
        .trace_spans
        .iter()
        .filter(|s| s.trace == trace.0 && s.stage == "append")
        .map(|s| s.node.as_str())
        .collect();
    assert_eq!(
        append_nodes,
        BTreeSet::from(["b", "c"]),
        "both backups must carry the piggybacked trace"
    );

    // Failover: "b" times out, wins "c"'s vote, and opens the new view.
    b.step(Input::Tick(10_000));
    let view = b.view();
    receive(
        &mut b,
        "c",
        Message::RequestVoteResponse(ccf_consensus::message::RequestVoteResponse {
            view,
            from: "c".to_string(),
            granted: true,
        }),
    );
    assert!(b.is_primary(), "b must win the election");
    assert_eq!(b.last_seqno(), 3, "signed suffix survives, new view adds its signature");

    // "c" acks the new view's opening signature: quorum of {b, c} -> commit.
    let view = b.view();
    receive(
        &mut b,
        "c",
        Message::AppendEntriesResponse(ccf_consensus::message::AppendEntriesResponse {
            view,
            from: "c".to_string(),
            success: true,
            last_seqno: 3,
        }),
    );
    assert!(b.commit_seqno() >= 2, "new view must commit the inherited entries");

    let snap = reg.snapshot();
    let trees = ccf_obs::trace::assemble(&snap.trace_spans);
    let tree = trees.iter().find(|t| t.trace == trace.0).expect("trace retained");
    assert!(tree.committed(), "trace must reach its commit stage after failover");
    let commit_nodes: BTreeSet<&str> = tree
        .nodes
        .iter()
        .filter(|n| n.span.stage == "commit")
        .map(|n| n.span.node.as_str())
        .collect();
    assert!(
        commit_nodes.contains("b") && !commit_nodes.contains("p"),
        "commit stage must come from the surviving node, got {commit_nodes:?}"
    );
    // The critical path over the surviving spans is well-formed.
    let path = ccf_obs::trace::critical_path(tree);
    assert_eq!(path.trace, trace.0);
    assert!(path.end >= path.start);
}

fn traced_scenario(seed: u64) -> ccf_obs::Snapshot {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), seed);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    for i in 0..5 {
        let _ = cluster.propose(format!("w{i}").as_bytes());
    }
    cluster.emit_signature();
    cluster.run_for(200);
    cluster.obs().snapshot()
}

/// Trace spans and flight events are part of the deterministic surface:
/// two same-seed runs serialize to byte-identical JSON.
#[test]
fn same_seed_runs_emit_byte_identical_trace_json() {
    let a = traced_scenario(33);
    let b = traced_scenario(33);
    assert!(!a.trace_spans.is_empty(), "scenario recorded no trace spans");
    assert!(!a.flight.is_empty(), "scenario recorded no flight events");
    assert_eq!(a.trace_spans, b.trace_spans);
    assert_eq!(a.flight, b.flight);
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

/// Each stage latency histogram is read off that stage's spans: on the
/// primary and on every backup, its count is the number of spans and its
/// sum their summed durations, all on the registry's one clock.
#[test]
fn stage_histograms_agree_with_their_spans() {
    let mut cluster = Cluster::new(3, fast_cfg(), quiet_net(), 21);
    assert!(cluster.run_until(5000, |c| c.primary().is_some()));
    let mut last = TxId::ZERO;
    for round in 0..4 {
        for i in 0..5 {
            last = cluster.propose(format!("w{round}-{i}").as_bytes()).unwrap();
            cluster.run_for(2);
        }
        cluster.emit_signature();
        cluster.run_for(30);
    }
    assert!(cluster.run_until(5000, |c| c.min_commit() > last.seqno));
    let snap = cluster.obs().snapshot();
    assert_eq!(snap.trace_spans_total, snap.trace_spans.len() as u64, "the span ring overflowed");
    for (stage, histogram) in [
        ("sign", "consensus.sign_latency_ms"),
        ("replicate", "consensus.replication_latency_ms"),
        ("commit", "consensus.commit_latency_ms"),
    ] {
        let spans: Vec<_> = snap.trace_spans.iter().filter(|s| s.stage == stage).collect();
        let h = &snap.histograms[histogram];
        // 20 traced entries, each closed on all 3 replicas.
        assert_eq!((h.count, spans.len()), (60, 60), "{stage}");
        let span_sum: u64 = spans.iter().map(|s| s.end - s.start).sum();
        assert!(span_sum > 0, "{stage} spans took no virtual time");
        assert_eq!(h.sum, span_sum, "{histogram} disagrees with the {stage} spans");
    }
}

fn key(id: &str) -> SigningKey {
    let mut seed = [7u8; 32];
    seed[..id.len().min(32)].copy_from_slice(&id.as_bytes()[..id.len().min(32)]);
    SigningKey::from_seed(seed)
}

fn replica(reg: &ccf_obs::Registry, id: &str, config: &[&str]) -> Replica {
    let config: Config = config.iter().map(|s| s.to_string()).collect();
    Replica::new(id, config, ReplicaConfig::default(), 1, key(id), reg)
}

fn receive(r: &mut Replica, from: &str, msg: Message) -> Actions {
    r.step(Input::Receive { from: from.to_string(), msg })
}

/// When an invariant trips, [`forensics`] bundles the flight-recorder
/// tail (including the `invariant` event itself) with the critical paths
/// of the traces caught mid-flight.
#[test]
fn forensics_bundle_has_flight_tail_and_affected_trace() {
    let reg = ccf_obs::Registry::default();
    let mut b = replica(&reg, "b", &["p", "b", "c"]);
    let committed = reg.mint_trace();
    let inflight = reg.mint_trace();

    // Committed prefix: a traced user entry plus the signature covering it.
    let sig = ccf_consensus::message::ReplicatedEntry {
        entry: LedgerEntry::signature(TxId::new(1, 2), [0u8; 32], "p", &key("p")),
        config: None,
        trace: TraceId::NONE,
    };
    receive(
        &mut b,
        "p",
        Message::AppendEntries(AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::ZERO,
            entries: vec![
                traced_user_entry(TxId::new(1, 1), b"committed", committed).into(),
                sig.into(),
            ]
            .into(),
            commit_seqno: 2,
        }),
    );
    assert_eq!(b.commit_seqno(), 2);

    // A second traced entry above the commit point: still in flight.
    receive(
        &mut b,
        "p",
        Message::AppendEntries(AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![traced_user_entry(TxId::new(1, 3), b"in-flight", inflight).into()].into(),
            commit_seqno: 2,
        }),
    );

    // A forged primary tries to rewrite the committed prefix: refused,
    // and the refusal lands in the flight recorder.
    receive(
        &mut b,
        "q",
        Message::AppendEntries(AppendEntries {
            view: 2,
            leader: "q".to_string(),
            prev: TxId::ZERO,
            entries: vec![user_entry(TxId::new(2, 1), b"rewritten-history").into()].into(),
            commit_seqno: 0,
        }),
    );
    assert_eq!(b.commit_seqno(), 2, "forged rewrite must be refused");

    let f = forensics(&reg, 64, 4);
    assert!(
        f.flight.iter().any(|r| r.kind == "invariant" && r.node == "b" && r.peer == "q"),
        "flight tail must contain the invariant rejection: {:?}",
        f.flight
    );
    assert!(
        f.critical_paths.iter().any(|p| p.trace == inflight.0),
        "forensics must include the in-flight trace's critical path"
    );
    // The committed trace is NOT affected — only in-flight ones show up.
    assert!(f.critical_paths.iter().all(|p| p.trace != committed.0));
    // And the rendering is the human-readable dump the chaos sweeper prints.
    let dump = f.render();
    assert!(dump.contains("flight recorder"));
    assert!(dump.contains("affected traces"));

    // TraceId import is exercised for the NONE sentinel too.
    assert!(TraceId::NONE.is_none());
}
