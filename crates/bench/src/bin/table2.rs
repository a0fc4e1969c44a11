//! Table 2: possible votes and primaries during an election, based on the
//! Figure 5 (left) ledgers.
//!
//! Run with: `cargo run --release -p ccf-bench --bin table2`
//!
//! Reconstructs five nodes whose last signature transactions are ordered
//! n0 < n1 < (n3 = n4) < n2 (all in view 3), asks each node to vote for
//! each candidate, and prints the exact matrix from the paper.

use ccf_consensus::harness::{user_entry, Cluster};
use ccf_consensus::message::{AppendEntries, Message, RequestVote};
use ccf_consensus::quorum;
use ccf_consensus::replica::ReplicaConfig;
use ccf_ledger::TxId;
use ccf_sim::{Input, NetConfig};
use std::sync::Arc;

fn cfg() -> ReplicaConfig {
    ReplicaConfig { signature_interval_ms: 0, ..ReplicaConfig::default() }
}

fn main() {
    println!("=== Table 2 (paper §4.2): election vote matrix from Figure 5 ===\n");
    // The canonical view-3 ledger: signature transactions at seqnos 2,4,6,8.
    let mk_entries = |upto: u64| {
        let mut entries = Vec::new();
        for s in 1..=upto {
            let mut e = user_entry(TxId::new(3, s), b"payload");
            if s % 2 == 0 {
                e.entry.kind = ccf_ledger::entry::EntryKind::Signature;
            }
            entries.push(Arc::new(e));
        }
        entries
    };
    // Ledger lengths: last signatures at n0→2, n1→4, n2→8, n3→6, n4→6.
    let lengths: &[(&str, u64)] = &[("n0", 3), ("n1", 5), ("n2", 8), ("n3", 6), ("n4", 7)];
    let last_sig = |len: u64| TxId::new(3, len - len % 2);

    println!("ledgers (last signature transaction):");
    for (id, len) in lengths {
        println!("  {id}: {len} entries, last signature at {}", last_sig(*len));
    }
    println!();
    println!(
        "{:>9} | {:>5} {:>5} {:>5} {:>5} {:>5} | could win?",
        "candidate", "n0", "n1", "n2", "n3", "n4"
    );

    for (candidate, cand_len) in lengths {
        let mut cluster = Cluster::new(5, cfg(), NetConfig::default(), 777);
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
        }
        let mut votes = 0usize;
        let mut row = Vec::new();
        for (voter, _) in lengths {
            if voter == candidate {
                row.push("✓".to_string()); // candidate votes for itself
                votes += 1;
                continue;
            }
            let v = cluster.replicas.get_mut(*voter).unwrap();
            let granted = v
                .step(Input::Receive {
                    from: candidate.to_string(),
                    msg: Message::RequestVote(RequestVote {
                        view: 4,
                        candidate: candidate.to_string(),
                        last_signature: last_sig(*cand_len),
                    }),
                })
                .messages
                .iter()
                .any(|(_, m)| matches!(m, Message::RequestVoteResponse(r) if r.granted));
            if granted {
                votes += 1;
            }
            row.push(if granted { "✓" } else { "✗" }.to_string());
        }
        let wins = votes >= quorum(5);
        println!(
            "{candidate:>9} | {:>5} {:>5} {:>5} {:>5} {:>5} | {}",
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            if wins { "✓" } else { "✗" }
        );
    }
    println!("\npaper's Table 2: n0 ✗, n1 ✗, n2 ✓, n3 ✓, n4 ✓ — matrix above must match.");
}
