//! CCF's consensus layer (paper §4): a Raft-inspired protocol adapted for
//! trusted execution.
//!
//! Differences from textbook Raft, following the paper:
//!
//! * **Commit requires signature transactions.** The primary periodically
//!   appends a *signature transaction* carrying its signature over the
//!   Merkle root of the ledger prefix; only signature transactions (and
//!   thereby their predecessors) can commit. The last committed transaction
//!   is therefore always a signature transaction (§4.1).
//! * **Elections compare last signature transactions**, not last entries:
//!   a candidate is at least as up-to-date as a voter iff its last
//!   signature transaction has a greater view, or the same view and a
//!   greater-or-equal seqno (§4.2, Table 2).
//! * **New primaries roll back to their last signature transaction** and
//!   open the view with a fresh signature transaction (§4.2).
//! * **Atomic reconfiguration**: one transaction can move from any node
//!   set to any other. A configuration becomes *active* as soon as the
//!   reconfiguration transaction is appended (not committed); elections and
//!   commits need majorities in **every** active configuration; committed
//!   reconfigurations retire all earlier configurations (§4.4).
//! * **Nodes are ephemeral**: a crashed node never resumes from disk — it
//!   rejoins through reconfiguration with a fresh identity, which is how
//!   CCF avoids dedicated rollback-protection hardware (§6.2).
//!
//! The state machine in [`replica`] is *deterministic and I/O-free*: each
//! call returns the messages it sends and the commands it gives the node
//! layer, time comes in as a tick, and randomness is injected as a seed —
//! which is what lets the test-suite model-check scenarios like Figure
//! 5/Table 2 exactly, and lets `ccf-sim` run thousands of seeded fault
//! schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod harness;
pub mod invariants;
pub mod message;
pub mod replica;

pub use message::{AppendEntries, AppendEntriesResponse, Message, RequestVote, RequestVoteResponse};
pub use replica::{Actions, Command, Replica, ReplicaConfig, Role};

use ccf_ledger::TxId;
use std::collections::BTreeSet;

/// A node identifier (hex of the node's public key digest in the full
/// system; arbitrary strings in tests).
pub type NodeId = String;

/// A consensus view number.
pub type View = u64;

/// A ledger sequence number (1-based).
pub type Seqno = u64;

/// A set of nodes forming one configuration.
pub type Config = BTreeSet<NodeId>;

/// The number of votes/acks required in a configuration of `n` nodes:
/// a strict majority, tolerating f = floor((n-1)/2) faults.
pub fn quorum(n: usize) -> usize {
    n / 2 + 1
}

/// Transaction status as reported by the built-in `tx` endpoint (Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// The node has never seen this transaction ID.
    Unknown,
    /// The transaction is in the local ledger but not yet committed.
    Pending,
    /// The transaction is committed; this is final.
    Committed,
    /// A different transaction committed at this seqno (or the view was
    /// superseded); this is final.
    Invalid,
}

/// An active configuration: the reconfiguration transaction that created
/// it and the node set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActiveConfig {
    /// Seqno of the reconfiguration transaction (0 for the initial config).
    pub seqno: Seqno,
    /// The nodes in this configuration.
    pub nodes: Config,
}

/// A point-in-time snapshot used to bootstrap joining nodes (§4.4) and for
/// disaster recovery: everything a node needs to participate from
/// `last_txid` onwards without replaying history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The snapshot covers the ledger up to and including this transaction.
    pub last_txid: TxId,
    /// Serialized `ccf_kv::store::StoreState` at `last_txid`.
    pub kv_state: Vec<u8>,
    /// Merkle leaf digests for the covered prefix, so the tree (and hence
    /// future roots and receipts) can be continued.
    pub merkle_leaves: Vec<[u8; 32]>,
    /// Active configurations at the snapshot point.
    pub configs: Vec<ActiveConfig>,
    /// View history: (view, start seqno) pairs for all views so far.
    pub view_history: Vec<(View, Seqno)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 3);
        assert_eq!(quorum(7), 4);
    }
}
