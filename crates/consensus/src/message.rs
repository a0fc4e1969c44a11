//! Consensus RPCs (paper §4.1–§4.2).
//!
//! Messages are passed as values and delivered by `ccf-sim`. CCF sends
//! them over authenticated TEE-to-TEE channels; nothing encrypts
//! node-to-node messages here, and `ccf_tee::channel` is on no message
//! path. Each message carries the sender's view; receivers update their
//! own view (or reply negatively) per §4.2.

use crate::{NodeId, Seqno, View};
use ccf_ledger::{LedgerEntry, TxId};
use ccf_obs::TraceId;
use std::sync::Arc;

/// An entry as replicated: the ledger entry plus, for reconfiguration
/// transactions, the configuration it installs (so backups can activate it
/// on append, before commit — §4.4).
///
/// Entries are immutable once proposed and are shared behind an [`Arc`]:
/// the replica log and every [`AppendEntries`] batch cut from it point at
/// the same allocation, so putting an entry in a batch costs a refcount,
/// not a copy of its write sets. The type is deliberately not `Clone`.
#[derive(Debug, PartialEq, Eq)]
pub struct ReplicatedEntry {
    /// The ledger entry.
    pub entry: LedgerEntry,
    /// For reconfiguration entries: the new node set.
    pub config: Option<crate::Config>,
    /// Causal-trace piggyback (DESIGN.md §12): a traced user entry's own
    /// id, [`TraceId::NONE`] on untraced and signature entries. A
    /// signature ends the `sign` stage of every in-flight trace below
    /// it, so backups record per-node `append`/`sign`/`commit` stage
    /// spans without any extra protocol round.
    pub trace: TraceId,
}

/// `append_entries`: ledger replication plus heartbeat (§4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendEntries {
    /// The sender's (primary's) view.
    pub view: View,
    /// The primary's node ID.
    pub leader: NodeId,
    /// Transaction ID of the entry immediately before `entries`. The
    /// backup must have exactly this entry (the Raft consistency check,
    /// strengthened to full TxIds).
    pub prev: TxId,
    /// The entries to append (empty for a pure heartbeat), shared with the
    /// sender's log. The slice itself is immutable and shared too: the
    /// primary hands every send of the same ledger range the batch it last
    /// built, so re-sending a batch costs one refcount, and the receiver
    /// clones only the entries it appends.
    pub entries: Arc<[Arc<ReplicatedEntry>]>,
    /// The primary's commit sequence number, so backups advance theirs.
    pub commit_seqno: Seqno,
}

/// Reply to [`AppendEntries`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendEntriesResponse {
    /// The responder's view (may be greater than the primary's).
    pub view: View,
    /// The responder.
    pub from: NodeId,
    /// Whether the append matched and was applied.
    pub success: bool,
    /// On success: the responder's last ledger seqno (the match index).
    /// On failure: the responder's best guess at the latest common point,
    /// from which the primary should resend (§4.2).
    pub last_seqno: Seqno,
}

/// `request_vote`: sent by candidates, carrying the view and seqno of the
/// candidate's **last signature transaction** (§4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestVote {
    /// The candidate's (already incremented) view.
    pub view: View,
    /// The candidate.
    pub candidate: NodeId,
    /// TxId of the candidate's last signature transaction
    /// ([`TxId::ZERO`] if none).
    pub last_signature: TxId,
}

/// Reply to [`RequestVote`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestVoteResponse {
    /// The voter's view.
    pub view: View,
    /// The voter.
    pub from: NodeId,
    /// Whether the vote was granted.
    pub granted: bool,
}

/// The snapshot a primary was built from, sent to a peer whose next entry
/// lies at or below the primary's snapshot base (nodes normally start from
/// an operator-provided snapshot; this is the in-protocol fallback). A
/// snapshot is committed state: the receiver commits up to its seqno.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallSnapshot {
    /// The sender's view.
    pub view: View,
    /// The primary's node ID.
    pub leader: NodeId,
    /// The snapshot itself.
    pub snapshot: crate::Snapshot,
}

/// All consensus messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Ledger replication / heartbeat.
    AppendEntries(AppendEntries),
    /// Replication acknowledgement.
    AppendEntriesResponse(AppendEntriesResponse),
    /// Election vote request.
    RequestVote(RequestVote),
    /// Election vote.
    RequestVoteResponse(RequestVoteResponse),
    /// Snapshot transfer.
    InstallSnapshot(InstallSnapshot),
}

impl Message {
    /// The view carried by the message (every RPC includes one, §4.2).
    pub fn view(&self) -> View {
        match self {
            Message::AppendEntries(m) => m.view,
            Message::AppendEntriesResponse(m) => m.view,
            Message::RequestVote(m) => m.view,
            Message::RequestVoteResponse(m) => m.view,
            Message::InstallSnapshot(m) => m.view,
        }
    }

    /// Short tag for logging.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::AppendEntries(m) if m.entries.is_empty() => "heartbeat",
            Message::AppendEntries(_) => "append_entries",
            Message::AppendEntriesResponse(_) => "append_entries_response",
            Message::RequestVote(_) => "request_vote",
            Message::RequestVoteResponse(_) => "request_vote_response",
            Message::InstallSnapshot(_) => "install_snapshot",
        }
    }
}
