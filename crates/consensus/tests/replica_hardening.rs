//! Pinned regression tests for the fault-path bugs the chaos harness
//! flushed out of `Replica`. Each test drives a single replica with
//! hand-crafted messages — no network, no timing — so the exact buggy
//! branch is hit deterministically, in release builds as well as debug
//! (two of the original bugs were `debug_assert!`s that vanished under
//! `--release` and silently corrupted state). The last tests guard the
//! write path's sharing of entries between the log and its batches, and
//! the order of the commands a call returns, which the node layer applies
//! as given, and the leadership-ack window of a node that a
//! reconfiguration adds.

use ccf_consensus::harness::{reconfig_entry, user_entry};
use ccf_consensus::invariants::InvariantChecker;
use ccf_consensus::message::ReplicatedEntry;
use ccf_consensus::replica::{Actions, Command, Replica, ReplicaConfig, Role};
use ccf_consensus::{AppendEntries, AppendEntriesResponse, Config, Message, RequestVoteResponse};
use ccf_crypto::SigningKey;
use ccf_ledger::{LedgerEntry, TxId};
use ccf_obs::Registry;
use ccf_sim::Input;
use std::sync::Arc;

fn key(id: &str) -> SigningKey {
    let mut seed = [7u8; 32];
    seed[..id.len().min(32)].copy_from_slice(&id.as_bytes()[..id.len().min(32)]);
    SigningKey::from_seed(seed)
}

fn replica_on(reg: &Registry, id: &str, config: &[&str]) -> Replica {
    let config: Config = config.iter().map(|s| s.to_string()).collect();
    Replica::new(id, config, ReplicaConfig::default(), 1, key(id), reg)
}

fn replica(id: &str, config: &[&str]) -> Replica {
    replica_on(&Registry::new(), id, config)
}

fn rejections(reg: &Registry) -> u64 {
    reg.counter("consensus.invariant_rejections").get()
}

fn sig_entry(author: &str, txid: TxId) -> Arc<ReplicatedEntry> {
    Arc::new(ReplicatedEntry {
        entry: LedgerEntry::signature(txid, [0u8; 32], author, &key(author)),
        config: None,
        trace: ccf_obs::TraceId::NONE,
    })
}

fn receive(r: &mut Replica, from: &str, msg: Message) -> Actions {
    r.step(Input::Receive { from: from.to_string(), msg })
}

/// Sends `m` as an AppendEntries from `from` and returns the responses
/// produced (ignoring any other outbound traffic).
fn deliver(
    r: &mut Replica,
    from: &str,
    m: AppendEntries,
) -> Vec<AppendEntriesResponse> {
    receive(r, from, Message::AppendEntries(m))
        .messages
        .into_iter()
        .filter_map(|(_, msg)| match msg {
            Message::AppendEntriesResponse(resp) => Some(resp),
            _ => None,
        })
        .collect()
}

/// Replicates a two-entry prefix (user tx then signature) from primary
/// `p` and commits it, returning the backup, which reports into `reg`.
fn backup_with_committed_prefix(reg: &Registry) -> Replica {
    let mut b = replica_on(reg, "b", &["p", "b", "c"]);
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::ZERO,
            entries: vec![
                user_entry(TxId::new(1, 1), b"committed-payload").into(),
                sig_entry("p", TxId::new(1, 2)),
            ]
            .into(),
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success));
    assert_eq!(b.commit_seqno(), 2);
    b
}

/// Bug 1 (was `debug_assert!` in `truncate_to`): an AppendEntries whose
/// entries conflict with the *committed* prefix must be refused. The old
/// guard compiled away under `--release`, so a Byzantine or corrupted
/// primary could roll a backup back past its commit point — breaking the
/// durability promise of §4.1. This test runs in release CI precisely to
/// exercise the path where the debug_assert used to vanish.
#[test]
fn conflicting_entries_below_commit_are_refused() {
    let reg = Registry::new();
    let mut b = backup_with_committed_prefix(&reg);
    let committed_txid = b.entry_at(1).unwrap().entry.txid;

    let resps = rewrite_history(&mut b);

    // Refused: negative reply pointing at our commit point, committed
    // entry untouched, and the violation is counted (and recorded).
    let resp = resps.last().expect("a reply must be sent");
    assert!(!resp.success);
    assert_eq!(resp.last_seqno, 2);
    assert_eq!(b.commit_seqno(), 2);
    assert_eq!(b.entry_at(1).unwrap().entry.txid, committed_txid);
    assert_eq!(rejections(&reg), 1, "rollback-past-commit attempt must count a rejection");
}

/// "q" claims a newer view and rewrites `b`'s history from seqno 1.
fn rewrite_history(b: &mut Replica) -> Vec<AppendEntriesResponse> {
    deliver(
        b,
        "q",
        AppendEntries {
            view: 2,
            leader: "q".to_string(),
            prev: TxId::ZERO,
            entries: vec![user_entry(TxId::new(2, 1), b"rewritten-history").into()].into(),
            commit_seqno: 0,
        },
    )
}

/// The same refusal seen end to end: the invariant checker reads the
/// backup's flight records (its commit, then the rejection) from the
/// shared registry and reports exactly one violation, on the backup.
#[test]
fn checker_reports_the_refused_rewrite_once() {
    let reg = Registry::new();
    let mut checker = InvariantChecker::new(&reg);
    let mut b = backup_with_committed_prefix(&reg);
    let id = "b".to_string();
    checker.check([(&id, &b)]);
    assert!(checker.ok(), "{:?}", checker.violations());
    assert_eq!(checker.record_commit("b"), 2, "the commit record was not consumed");

    rewrite_history(&mut b);
    checker.check([(&id, &b)]);
    assert_eq!(checker.violations().len(), 1, "{:?}", checker.violations());
    assert_eq!(checker.violations()[0].node, "b");
    checker.check([(&id, &b)]);
    assert_eq!(checker.violations().len(), 1, "a record must be checked once");
}

/// Same bug, via the `truncate_to` path: the conflict sits *above* the
/// commit point but truncating to `s - 1` would cut below it. With the
/// committed prefix at 2, a conflict at seqno 3 truncates to 2 — legal —
/// but a batch conflicting at exactly commit+1 with `prev` below commit
/// would ask to truncate to the commit point, which must succeed, while
/// anything lower is refused inside `truncate_to` itself.
#[test]
fn truncate_never_crosses_commit_point() {
    let reg = Registry::new();
    let mut b = backup_with_committed_prefix(&reg);
    // Extend with an uncommitted entry at 3.
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(1, 3), b"uncommitted").into()].into(),
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success));

    // A new honest primary in view 2 replaces the uncommitted suffix.
    let resps = deliver(
        &mut b,
        "c",
        AppendEntries {
            view: 2,
            leader: "c".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(2, 3), b"replacement").into()].into(),
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success), "truncating at commit is legal");
    assert_eq!(b.entry_at(3).unwrap().entry.txid, TxId::new(2, 3));
    assert_eq!(b.commit_seqno(), 2);
    assert_eq!(rejections(&reg), 0, "honest suffix replacement must not be flagged");
}

/// Bug 2 (was `debug_assert_eq!(s, last_seqno + 1)`): a batch whose
/// `prev` matches but whose entries skip ahead of the local log must be
/// rejected with a retransmission hint. In release the assert vanished
/// and the replica appended entries with holes below them, producing a
/// ledger whose Merkle tree no longer matched its seqnos.
#[test]
fn gapped_batch_is_rejected_with_retransmission_hint() {
    let mut b = backup_with_committed_prefix(&Registry::new());

    // prev = (1,2) matches our tip, but the batch starts at seqno 4.
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(1, 4), b"gapped").into()].into(),
            commit_seqno: 2,
        },
    );

    let resp = resps.last().expect("a reply must be sent");
    assert!(!resp.success, "gapped batch must not be acked");
    assert_eq!(resp.last_seqno, 2, "hint must point at our last seqno");
    assert_eq!(b.last_seqno(), 2, "nothing may be appended");
    assert!(b.entry_at(4).is_none());
}

/// A backup whose uncommitted tip is from an older view must ack only
/// the entries the new primary's message proved. The backup holds
/// `(1,1) (1,2) (1,3)`; the view-2 primary sends `prev = (1,1)` with
/// `[(1,2)]`. Acking its whole log (3) would set the primary's match
/// index over `(1,3)`, which the primary never checked: it could then
/// count this backup toward a quorum for a different entry at seqno 3.
#[test]
fn ack_from_stale_tip_claims_only_the_batch() {
    let mut b = replica("b", &["p", "b", "c"]);
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::ZERO,
            entries: vec![
                user_entry(TxId::new(1, 1), b"signed").into(),
                sig_entry("p", TxId::new(1, 2)),
                user_entry(TxId::new(1, 3), b"stale-suffix").into(),
            ]
            .into(),
            commit_seqno: 0,
        },
    );
    assert_eq!(resps.last().map(|r| (r.success, r.last_seqno)), Some((true, 3)));

    let resps = deliver(
        &mut b,
        "c",
        AppendEntries {
            view: 2,
            leader: "c".to_string(),
            prev: TxId::new(1, 1),
            entries: vec![sig_entry("p", TxId::new(1, 2))].into(),
            commit_seqno: 0,
        },
    );
    let resp = resps.last().expect("a reply must be sent");
    assert!(resp.success);
    assert_eq!(resp.last_seqno, 2, "the ack must not cover the unchecked (1,3)");
    assert_eq!(b.last_seqno(), 3, "a matching batch truncates nothing");
}

/// Times `p` out and feeds it `b`'s vote: what winning returns.
fn win_election(p: &mut Replica) -> Actions {
    p.step(Input::Tick(10_000)); // well past any election timeout draw
    assert_eq!(p.role(), Role::Candidate);
    let view = p.view();
    let vote = RequestVoteResponse { view, from: "b".to_string(), granted: true };
    let won = receive(p, "b", Message::RequestVoteResponse(vote));
    assert_eq!(p.role(), Role::Primary);
    won
}

/// Drives `p` to primary of a {p, b} configuration, dropping what the
/// election sent.
fn elected_primary() -> Replica {
    let mut p = replica("p", &["p", "b"]);
    win_election(&mut p);
    p
}

/// [`elected_primary`] with a log of `n` user entries plus a closing
/// signature, sent nowhere.
fn primary_with_log(n: u64) -> Replica {
    let mut p = elected_primary();
    for i in 0..n {
        p.propose(|txid| user_entry(txid, format!("entry-{i}").as_bytes())).unwrap();
    }
    p.emit_signature();
    p
}

/// Feeds `p` a negative ack from "b" hinting `hint`, and returns the
/// `prev.seqno` values of the AppendEntries it sends back — one element
/// per round trip simulated, stopping when the probe reaches `hint` or
/// after `cap` trips.
fn probe_seqnos(p: &mut Replica, hint: u64, cap: usize) -> Vec<u64> {
    let mut probes = Vec::new();
    for _ in 0..cap {
        let view = p.view();
        let nack =
            AppendEntriesResponse { view, from: "b".to_string(), success: false, last_seqno: hint };
        let probe = receive(p, "b", Message::AppendEntriesResponse(nack))
            .messages
            .into_iter()
            .rev()
            .find_map(|(to, msg)| match msg {
                Message::AppendEntries(ae) if to == "b" => Some(ae.prev.seqno),
                _ => None,
            })
            .expect("negative ack must trigger an immediate retransmission");
        probes.push(probe);
        if probe == hint {
            break;
        }
    }
    probes
}

/// Bug 3: on a negative ack the primary decremented its probe by one per
/// round trip instead of jumping to the peer's hint, so catching up a
/// follower cost O(divergence) round trips — and when the hint was
/// *ahead* of the probe (a freshly snapshot-restored follower reporting
/// its base), the clamp to `current - 1` moved away from it and the pair
/// livelocked. The fix jumps straight to `hint + 1`; this test counts
/// round trips in both directions.
#[test]
fn negative_ack_backoff_reaches_hint_in_one_round_trip() {
    let mut p = primary_with_log(60);
    let last = p.last_seqno();
    assert!(last > 50);

    // Forward jump: probe starts at 0 (nothing acked yet), follower
    // reports a base far ahead. One round trip, not a livelock.
    let forward = probe_seqnos(&mut p, 40, 50);
    assert_eq!(forward, vec![40], "expected one round trip, got probes {forward:?}");

    // Backward jump: first ack the full log, then have the follower
    // reject with a low hint (conflicting-suffix truncation). Again one
    // round trip, not O(divergence).
    let view = p.view();
    let ack =
        AppendEntriesResponse { view, from: "b".to_string(), success: true, last_seqno: last };
    receive(&mut p, "b", Message::AppendEntriesResponse(ack));
    let backward = probe_seqnos(&mut p, 5, 50);
    assert_eq!(backward, vec![5], "expected one round trip, got probes {backward:?}");
}

/// AppendEntries batches carry the primary's log entries themselves, not
/// copies, and a backup appends the allocation it received: re-sending an
/// entry costs a refcount. Fails if a deep copy comes back anywhere on the
/// path from the primary's log to the backup's.
#[test]
fn batches_share_the_log_entries() {
    let mut p = elected_primary();
    for i in 0..4 {
        p.propose(|txid| user_entry(txid, format!("entry-{i}").as_bytes())).unwrap();
    }
    let ae = p
        .emit_signature()
        .messages
        .into_iter()
        .find_map(|(to, msg)| match msg {
            Message::AppendEntries(ae) if to == "b" => Some(ae),
            _ => None,
        })
        .expect("the signature must be broadcast");
    assert_eq!(ae.prev, TxId::ZERO);
    assert_eq!(ae.entries.len(), 6, "view-opening signature, 4 writes, closing signature");
    let logged = p.entries_from(1);
    assert_eq!(logged.len(), ae.entries.len());
    for (sent, held) in ae.entries.iter().zip(logged) {
        assert!(Arc::ptr_eq(sent, held), "batch entry {} is a copy", sent.entry.txid);
    }

    let sent = ae.entries.clone();
    let mut b = replica("b", &["p", "b"]);
    let resps = deliver(&mut b, "p", ae);
    assert!(resps.last().is_some_and(|r| r.success));
    let appended = b.entries_from(1);
    assert_eq!(appended.len(), sent.len());
    for (sent, held) in sent.iter().zip(appended) {
        assert!(Arc::ptr_eq(sent, held), "backup entry {} is a copy", sent.entry.txid);
    }
}

/// The node layer applies commands in the order a call returns them. An
/// AppendEntries that replaces an uncommitted suffix must return the
/// rollback before the replacement entries' appends, and the commit they
/// enable last; each `Appended` carries the entry the log now holds.
#[test]
fn suffix_replacement_rolls_back_then_appends_then_commits() {
    let mut b = backup_with_committed_prefix(&Registry::new());
    let resps = deliver(
        &mut b,
        "p",
        AppendEntries {
            view: 1,
            leader: "p".to_string(),
            prev: TxId::new(1, 2),
            entries: vec![user_entry(TxId::new(1, 3), b"uncommitted").into()].into(),
            commit_seqno: 2,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success));

    let replacement =
        vec![user_entry(TxId::new(2, 3), b"replacement").into(), sig_entry("c", TxId::new(2, 4))];
    let actions = receive(
        &mut b,
        "c",
        Message::AppendEntries(AppendEntries {
            view: 2,
            leader: "c".to_string(),
            prev: TxId::new(1, 2),
            entries: replacement.clone().into(),
            commit_seqno: 4,
        }),
    );
    let [
        Command::RolledBack { seqno: 2 },
        Command::Appended(user),
        Command::Appended(sig),
        Command::Committed { seqno: 4 },
    ] = actions.commands.as_slice()
    else {
        panic!("unexpected command order: {:?}", actions.commands);
    };
    assert!(Arc::ptr_eq(user, &replacement[0]) && Arc::ptr_eq(sig, &replacement[1]));
    assert!(Arc::ptr_eq(user, &b.entries_from(3)[0]), "the command shares the logged entry");
}

/// A won election returns `BecamePrimary`, after rolling back the unsigned
/// suffix (§4.2), and then the `Appended` of the signature that opens the
/// new view, which it also sends.
#[test]
fn won_election_becomes_primary_then_appends_its_view_signature() {
    let mut p = replica("p", &["p", "b", "c"]);
    let resps = deliver(
        &mut p,
        "c",
        AppendEntries {
            view: 1,
            leader: "c".to_string(),
            prev: TxId::ZERO,
            entries: vec![
                user_entry(TxId::new(1, 1), b"signed").into(),
                sig_entry("c", TxId::new(1, 2)),
                user_entry(TxId::new(1, 3), b"unsigned").into(),
            ]
            .into(),
            commit_seqno: 0,
        },
    );
    assert!(resps.last().is_some_and(|r| r.success));

    let won = win_election(&mut p);
    let [
        Command::RolledBack { seqno: 2 },
        Command::BecamePrimary { view: 2 },
        Command::Appended(sig),
    ] = won.commands.as_slice()
    else {
        panic!("unexpected command order: {:?}", won.commands);
    };
    assert!(sig.entry.is_signature());
    assert_eq!(sig.entry.txid, TxId::new(2, 3));
    let carries_sig = |m: &Message| match m {
        Message::AppendEntries(ae) => ae.entries.last().is_some_and(|e| Arc::ptr_eq(e, sig)),
        _ => false,
    };
    let sent = won.messages.iter().filter(|(_, m)| carries_sig(m));
    assert_eq!(sent.count(), 2, "the view signature goes to both peers");
}

/// A node added by a reconfiguration gets a full leadership-ack window
/// from the append, as `become_primary` gives every peer (§4.2): a lone
/// primary that grows its configuration to two nodes keeps leading until
/// the newcomer has had the whole window to answer.
#[test]
fn node_added_by_reconfiguration_gets_a_full_ack_window() {
    let mut p = replica("p", &["p"]);
    p.step(Input::Tick(10_000));
    assert_eq!(p.role(), Role::Primary, "a one-node configuration elects itself");
    let grown: Config = ["p", "b"].iter().map(|s| s.to_string()).collect();
    p.propose(|txid| reconfig_entry(txid, &grown)).unwrap();
    let window = ReplicaConfig::default().leadership_ack_window;
    for now in [10_001, 10_000 + window] {
        p.step(Input::Tick(now));
        assert_eq!(p.role(), Role::Primary, "stepped down at {now}, inside b's window");
    }
    p.step(Input::Tick(10_001 + window));
    assert_eq!(p.role(), Role::Backup, "b never answered within its window");
}
