//! The consensus replica state machine (paper §4).
//!
//! A [`Replica`] is deterministic and I/O-free: every call that changes
//! it — [`Replica::step`] (a tick or a received message),
//! [`Replica::propose`], [`Replica::emit_signature`], a snapshot-booted
//! [`Replica::join`] — returns what it did as [`Actions`]: the messages to
//! send and the commands for the node layer (apply, roll back, commit,
//! install snapshot), in order. Between calls it holds no pending output.
//! All randomness (election jitter) comes from a seeded generator, so
//! whole cluster executions replay exactly from a seed.

use crate::message::{
    AppendEntries, AppendEntriesResponse, InstallSnapshot, Message, ReplicatedEntry, RequestVote,
    RequestVoteResponse,
};
use crate::{quorum, ActiveConfig, Config, NodeId, Seqno, Snapshot, TxStatus, View};
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::SigningKey;
use ccf_ledger::entry::EntryKind;
use ccf_ledger::{LedgerEntry, MerkleTree, TxId};
use ccf_sim::Input;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Milliseconds of virtual (or real) time.
pub type Time = u64;

/// Consensus timing and batching parameters.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Election timeout range [min, max): a fresh timeout is drawn
    /// uniformly on every reset to de-synchronize candidates (§4.2).
    pub election_timeout: (Time, Time),
    /// Interval between primary heartbeats.
    pub heartbeat_interval: Time,
    /// A primary steps down if it has not heard from a quorum of backups
    /// within this window (§4.2, partial-partition defence).
    pub leadership_ack_window: Time,
    /// Append a signature transaction automatically after this many
    /// unsigned entries ("signature interval"; Figure 8 sweeps this).
    pub signature_interval: u64,
    /// Also sign after this much time with unsigned entries pending
    /// (the paper's primary signs "periodically"; commit latency is
    /// bounded by this). 0 disables the timer.
    pub signature_interval_ms: Time,
    /// Maximum entries per append_entries message.
    pub max_batch: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            election_timeout: (150, 300),
            heartbeat_interval: 20,
            leadership_ack_window: 500,
            signature_interval: 100,
            signature_interval_ms: 10,
            max_batch: 256,
        }
    }
}

/// The replica's role (Figure 6). `Retiring` is a primary whose removal
/// from the configuration has committed: it stops proposing and
/// heartbeating but keeps replicating and voting while a successor
/// establishes itself (§4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Joined but not yet participating in consensus.
    Pending,
    /// Follower, replicating from the primary.
    Backup,
    /// Election in progress.
    Candidate,
    /// The leader for the current view.
    Primary,
    /// A primary excluded by a committed reconfiguration (§4.5).
    Retiring,
}

/// Commands for the node layer, returned in the order they must be
/// applied. Every command but [`Command::Appended`] is also written once to
/// the run's flight recorder, which the chaos invariant checker reads.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// An entry was appended (speculatively — may still roll back). The
    /// node layer applies its write set to the kv store; the entry is the
    /// one the log holds, shared.
    Appended(Arc<ReplicatedEntry>),
    /// Everything up to `seqno` is durable: will never roll back.
    Committed {
        /// The new commit seqno.
        seqno: Seqno,
    },
    /// Entries after `seqno` were discarded (view change); the node layer
    /// must restore kv state as of `seqno`.
    RolledBack {
        /// The surviving prefix.
        seqno: Seqno,
    },
    /// This replica became primary for `view`.
    BecamePrimary {
        /// The new view.
        view: View,
    },
    /// This replica stopped being primary/candidate.
    BecameBackup {
        /// The view in which it stepped down.
        view: View,
    },
    /// A snapshot replaced local state; the node layer must install
    /// `kv_state` and restart its indexes.
    SnapshotInstalled {
        /// The installed snapshot.
        snapshot: Snapshot,
    },
    /// This node's removal from the configuration has committed (§4.5).
    RetirementCommitted,
}

/// What one replica call did, in order: the messages to send and the
/// commands for the node layer.
#[derive(Debug, Default)]
pub struct Actions {
    /// Messages to send, as `(destination, message)`.
    pub messages: Vec<(NodeId, Message)>,
    /// Commands for the node layer.
    pub commands: Vec<Command>,
}

/// Flight-recorder `(kind, tag)` of each replica transition record. `a`
/// is the replica's view and `b` the seqno the transition concerns,
/// except for [`REJECTED`](record::REJECTED).
pub(crate) mod record {
    /// The commit point advanced to `b` ([`Command::Committed`](super::Command::Committed)).
    pub const COMMIT: (&str, &str) = ("commit", "advance");
    /// Entries after `b` were discarded ([`Command::RolledBack`](super::Command::RolledBack)).
    pub const ROLLBACK: (&str, &str) = ("rollback", "truncate");
    /// Became primary for view `a`, log ending at `b`.
    pub const PRIMARY: (&str, &str) = ("election", "won");
    /// Stepped down from primary or candidate, log ending at `b`.
    pub const BACKUP: (&str, &str) = ("election", "step_down");
    /// A snapshot up to `b` replaced local state.
    pub const SNAPSHOT: (&str, &str) = ("snapshot", "installed");
    /// This node's removal committed at `b`.
    pub const RETIREMENT: (&str, &str) = ("retirement", "committed");
    /// A safety guard refused a message or a truncation to `a` because it
    /// would cross the commit point `b`. Unlike a `debug_assert!`, the
    /// guard fires in release builds too; the chaos checker treats any
    /// occurrence among honest nodes as a bug. Not a node-layer command.
    pub const REJECTED: (&str, &str) = ("invariant", "rejected");
}

/// Errors from [`Replica::propose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProposeError {
    /// Only the primary accepts proposals.
    NotPrimary,
    /// The primary is retiring and no longer accepts new transactions.
    Retiring,
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::NotPrimary => write!(f, "not primary"),
            ProposeError::Retiring => write!(f, "primary is retiring"),
        }
    }
}

/// Histogram bounds for append-entries batch sizes (max_batch ≤ 256 in
/// every config used here).
const BATCH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Histogram bounds for rollback depths (entries discarded per rollback).
const ROLLBACK_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];
/// Histogram bounds for per-stage virtual-time latencies (ms). Shared by
/// every `*_latency_ms` histogram so bench percentiles compare across
/// stages bucket-for-bucket.
pub const LATENCY_BUCKETS: &[u64] =
    &[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// Cached observability handles (`consensus.*`); created once at
/// construction so hot-path increments are lock-free.
struct ReplicaMetrics {
    reg: ccf_obs::Registry,
    node: ccf_obs::NodeRef,
    elections_started: ccf_obs::Counter,
    elections_won: ccf_obs::Counter,
    append_batches: ccf_obs::Counter,
    append_batch_entries: ccf_obs::Histogram,
    signature_txs: ccf_obs::Counter,
    commits: ccf_obs::Counter,
    commit_seqno: ccf_obs::Gauge,
    retransmits: ccf_obs::Counter,
    negative_acks: ccf_obs::Counter,
    rollbacks: ccf_obs::Counter,
    rollback_entries: ccf_obs::Histogram,
    invariant_rejections: ccf_obs::Counter,
    snapshots_sent: ccf_obs::Counter,
    snapshots_installed: ccf_obs::Counter,
    sign_latency: ccf_obs::Histogram,
    replication_latency: ccf_obs::Histogram,
    commit_latency: ccf_obs::Histogram,
    traces_dropped: ccf_obs::Counter,
}

impl ReplicaMetrics {
    fn new(reg: &ccf_obs::Registry, id: &NodeId) -> ReplicaMetrics {
        ReplicaMetrics {
            reg: reg.clone(),
            node: reg.node_ref(id),
            elections_started: reg.counter("consensus.elections_started"),
            elections_won: reg.counter("consensus.elections_won"),
            append_batches: reg.counter("consensus.append_batches"),
            append_batch_entries: reg.histogram("consensus.append_batch_entries", BATCH_BUCKETS),
            signature_txs: reg.counter("consensus.signature_txs"),
            commits: reg.counter("consensus.commits"),
            commit_seqno: reg.gauge("consensus.commit_seqno"),
            retransmits: reg.counter("consensus.retransmits"),
            negative_acks: reg.counter("consensus.negative_acks"),
            rollbacks: reg.counter("consensus.rollbacks"),
            rollback_entries: reg.histogram("consensus.rollback_entries", ROLLBACK_BUCKETS),
            invariant_rejections: reg.counter("consensus.invariant_rejections"),
            snapshots_sent: reg.counter("consensus.snapshots_sent"),
            snapshots_installed: reg.counter("consensus.snapshots_installed"),
            sign_latency: reg.histogram("consensus.sign_latency_ms", LATENCY_BUCKETS),
            replication_latency: reg.histogram("consensus.replication_latency_ms", LATENCY_BUCKETS),
            commit_latency: reg.histogram("consensus.commit_latency_ms", LATENCY_BUCKETS),
            traces_dropped: reg.counter("consensus.traces_dropped"),
        }
    }
}

/// Per-replica bookkeeping for one traced entry between append and
/// commit (DESIGN.md §12): its open stage tokens, which carry the trace
/// and each stage's start. Tokens are `Copy` and record nothing until
/// exited, so dropping the whole struct on rollback erases the stages
/// as if they never happened.
struct InflightTrace {
    /// `sign` stage: local append → covering signature tx appended.
    sign: Option<ccf_obs::TraceSpanToken>,
    /// `replicate` stage: signature appended → commit point covers it.
    replicate: Option<ccf_obs::TraceSpanToken>,
    /// `commit` stage: local append → commit point covers it.
    commit: ccf_obs::TraceSpanToken,
}

/// The consensus replica.
pub struct Replica {
    id: NodeId,
    cfg: ReplicaConfig,
    /// The node's identity key, which signs its signature transactions.
    key: SigningKey,
    rng: ChaChaRng,

    role: Role,
    view: View,
    voted_for: Option<NodeId>,
    leader_hint: Option<NodeId>,

    // Ledger: entries [base_seqno+1 ..= last_seqno], shared with the
    // AppendEntries batches that carry them.
    ledger: Vec<Arc<ReplicatedEntry>>,
    base_seqno: Seqno,
    base_txid: TxId,
    merkle: MerkleTree,
    last_sig: TxId,
    unsigned_since_sig: u64,
    commit_seqno: Seqno,
    view_history: Vec<(View, Seqno)>,
    active_configs: Vec<ActiveConfig>,
    participating: bool,

    // Primary volatile state.
    next_seqno: HashMap<NodeId, Seqno>,
    match_seqno: HashMap<NodeId, Seqno>,
    last_ack: HashMap<NodeId, Time>,
    /// The snapshot this replica was built from (at join or by an
    /// `InstallSnapshot`); sent to peers behind `base_seqno`.
    snapshot: Option<Snapshot>,
    /// The last AppendEntries batch built, by its first seqno: every send
    /// of that exact ledger range shares it. Dropped whenever the log
    /// below its end may change (truncation, snapshot install).
    last_batch: Option<(Seqno, Arc<[Arc<ReplicatedEntry>]>)>,
    /// Set when a commit retired configurations: a signature the old
    /// quorums held back may now commit, so the next ack re-checks even
    /// if it raises no match.
    recheck_commit: bool,

    // Candidate volatile state.
    votes: BTreeSet<NodeId>,

    now: Time,
    election_deadline: Time,
    next_heartbeat: Time,
    last_sig_emit: Time,

    metrics: ReplicaMetrics,
    /// Traced entries appended but not yet committed, by seqno. Pruned
    /// on commit (closing their stage spans) and on rollback (dropping
    /// them silently).
    inflight_traces: std::collections::BTreeMap<Seqno, InflightTrace>,
}

impl Replica {
    /// Creates a replica that is part of the service's initial
    /// configuration (service start, §2), signing its signature
    /// transactions with `key`. It reports into `reg`: the
    /// `consensus.*` metrics, the Merkle tree's `ledger.merkle_*`, and a
    /// flight record per transition.
    pub fn new(
        id: impl Into<NodeId>,
        initial_config: Config,
        cfg: ReplicaConfig,
        seed: u64,
        key: SigningKey,
        reg: &ccf_obs::Registry,
    ) -> Self {
        let id = id.into();
        let participating = initial_config.contains(&id);
        let mut merkle = MerkleTree::new();
        merkle.set_registry(reg);
        let metrics = ReplicaMetrics::new(reg, &id);
        let mut r = Replica {
            id,
            cfg,
            key,
            rng: ChaChaRng::seed_from_u64(seed),
            role: if participating { Role::Backup } else { Role::Pending },
            view: 0,
            voted_for: None,
            leader_hint: None,
            ledger: Vec::new(),
            base_seqno: 0,
            base_txid: TxId::ZERO,
            merkle,
            last_sig: TxId::ZERO,
            unsigned_since_sig: 0,
            commit_seqno: 0,
            view_history: Vec::new(),
            active_configs: vec![ActiveConfig { seqno: 0, nodes: initial_config }],
            participating,
            next_seqno: HashMap::new(),
            match_seqno: HashMap::new(),
            last_ack: HashMap::new(),
            snapshot: None,
            last_batch: None,
            recheck_commit: false,
            votes: BTreeSet::new(),
            now: 0,
            election_deadline: 0,
            next_heartbeat: 0,
            last_sig_emit: 0,
            metrics,
            inflight_traces: std::collections::BTreeMap::new(),
        };
        r.reset_election_timer();
        r
    }

    /// Creates a joining replica (status PENDING until a reconfiguration
    /// adds it, §4.4), optionally bootstrapped from a snapshot, whose
    /// install and commit are recorded and returned like any other.
    pub fn join(
        id: impl Into<NodeId>,
        cfg: ReplicaConfig,
        seed: u64,
        key: SigningKey,
        snapshot: Option<Snapshot>,
        reg: &ccf_obs::Registry,
    ) -> (Self, Actions) {
        let mut r = Self::new(id, Config::new(), cfg, seed, key, reg);
        r.role = Role::Pending;
        r.participating = false;
        r.active_configs.clear();
        let mut out = Actions::default();
        if let Some(snap) = snapshot {
            r.install_snapshot_internal(snap, &mut out);
        }
        (r, out)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This replica's node ID.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// True when this replica believes it is the primary.
    pub fn is_primary(&self) -> bool {
        matches!(self.role, Role::Primary)
    }

    /// The current primary, as far as this replica knows (§4.3 forwarding).
    pub fn leader_hint(&self) -> Option<&NodeId> {
        if self.is_primary() {
            Some(&self.id)
        } else {
            self.leader_hint.as_ref()
        }
    }

    /// Seqno of the last ledger entry.
    pub fn last_seqno(&self) -> Seqno {
        self.base_seqno + self.ledger.len() as u64
    }

    /// TxId of the last ledger entry.
    pub fn last_txid(&self) -> TxId {
        self.ledger.last().map(|e| e.entry.txid).unwrap_or(self.base_txid)
    }

    /// The commit sequence number.
    pub fn commit_seqno(&self) -> Seqno {
        self.commit_seqno
    }

    /// TxId of the last signature transaction ([`TxId::ZERO`] if none).
    pub fn last_signature(&self) -> TxId {
        self.last_sig
    }

    /// Inclusion proof for the entry at `seqno` against the tree as of
    /// `tree_size` leaves — i.e. against the root signed by the signature
    /// transaction at seqno `tree_size + 1` (receipts, §3.5).
    pub fn merkle_proof_at(
        &self,
        seqno: Seqno,
        tree_size: Seqno,
    ) -> Option<ccf_ledger::MerkleProof> {
        seqno.checked_sub(1).and_then(|i| self.merkle.prove_at_size(i, tree_size))
    }

    /// The active configurations, current first (§4.4).
    pub fn active_configs(&self) -> &[ActiveConfig] {
        &self.active_configs
    }

    /// All nodes across the active configurations.
    pub fn config_union(&self) -> Config {
        let mut all = Config::new();
        for c in &self.active_configs {
            all.extend(c.nodes.iter().cloned());
        }
        all
    }

    /// The entry at `seqno`, if retained locally.
    pub fn entry_at(&self, seqno: Seqno) -> Option<&ReplicatedEntry> {
        if seqno <= self.base_seqno || seqno > self.last_seqno() {
            return None;
        }
        self.ledger.get((seqno - self.base_seqno - 1) as usize).map(Arc::as_ref)
    }

    /// All retained entries from `from` (exclusive of base) onwards.
    pub fn entries_from(&self, from: Seqno) -> &[Arc<ReplicatedEntry>] {
        let start = from.max(self.base_seqno + 1);
        if start > self.last_seqno() {
            return &[];
        }
        &self.ledger[(start - self.base_seqno - 1) as usize..]
    }

    /// The view-history: (view, first seqno of that view) pairs.
    pub fn view_history(&self) -> &[(View, Seqno)] {
        &self.view_history
    }

    /// Virtual time of the last `tick`.
    pub fn now(&self) -> Time {
        self.now
    }

    fn txid_at(&self, seqno: Seqno) -> Option<TxId> {
        if seqno == self.base_seqno {
            return Some(self.base_txid);
        }
        self.entry_at(seqno).map(|e| e.entry.txid)
    }

    /// Transaction status per Figure 4.
    pub fn tx_status(&self, txid: TxId) -> TxStatus {
        if txid.seqno == 0 {
            return TxStatus::Unknown;
        }
        match self.txid_at(txid.seqno) {
            Some(local) if local == txid => {
                if txid.seqno <= self.commit_seqno {
                    TxStatus::Committed
                } else {
                    TxStatus::Pending
                }
            }
            Some(_) => {
                if txid.seqno <= self.commit_seqno {
                    TxStatus::Invalid
                } else {
                    // A different uncommitted entry occupies the slot; the
                    // asked-about transaction may still win, we just don't
                    // have it.
                    self.status_from_view_history(txid)
                }
            }
            // Committed but not held (below a snapshot base): the view
            // that covers the seqno decides.
            None if txid.seqno <= self.commit_seqno => {
                if self.view_covering(txid.seqno) == Some(txid.view) {
                    TxStatus::Committed
                } else {
                    TxStatus::Invalid
                }
            }
            // Past our commit point and not held: use view history.
            None => self.status_from_view_history(txid),
        }
    }

    /// The view of the entry at `seqno`: the last view in the history
    /// that started at or below it.
    fn view_covering(&self, seqno: Seqno) -> Option<View> {
        self.view_history.iter().rev().find(|&&(_, start)| start <= seqno).map(|&(view, _)| view)
    }

    /// A transaction is Invalid if a greater view started at a
    /// smaller-or-equal sequence number (§4.3); otherwise Unknown.
    fn status_from_view_history(&self, txid: TxId) -> TxStatus {
        for &(view, start) in self.view_history.iter().rev() {
            if view > txid.view && start <= txid.seqno {
                return TxStatus::Invalid;
            }
        }
        TxStatus::Unknown
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    fn reset_election_timer(&mut self) {
        let (lo, hi) = self.cfg.election_timeout;
        self.election_deadline = self.now + self.rng.gen_range_in(lo, hi.max(lo + 1));
    }

    /// Handles one input — a tick (advance time, fire due timers) or a
    /// received consensus message — and returns what it did.
    pub fn step(&mut self, input: Input<Message>) -> Actions {
        let mut out = Actions::default();
        match input {
            Input::Tick(now) => self.tick(now, &mut out),
            Input::Receive { from, msg } => match msg {
                Message::AppendEntries(m) => self.on_append_entries(&from, m, &mut out),
                Message::AppendEntriesResponse(m) => self.on_append_entries_response(m, &mut out),
                Message::RequestVote(m) => self.on_request_vote(m, &mut out),
                Message::RequestVoteResponse(m) => self.on_request_vote_response(m, &mut out),
                Message::InstallSnapshot(m) => self.on_install_snapshot(m, &mut out),
            },
        }
        out
    }

    fn tick(&mut self, now: Time, out: &mut Actions) {
        self.now = self.now.max(now);
        match self.role {
            Role::Pending => {}
            Role::Backup | Role::Candidate => {
                if self.participating && self.now >= self.election_deadline {
                    self.start_election(out);
                }
            }
            Role::Primary => {
                if self.now >= self.next_heartbeat {
                    self.broadcast_entries(out);
                    self.next_heartbeat = self.now + self.cfg.heartbeat_interval;
                }
                // Time-based signing: bound commit latency even at low
                // write rates (§4.1 "regularly appends signature
                // transactions").
                if self.cfg.signature_interval_ms > 0
                    && self.unsigned_since_sig > 0
                    && self.now >= self.last_sig_emit + self.cfg.signature_interval_ms
                {
                    self.sign(out);
                }
                self.check_leadership_acks(out);
            }
            Role::Retiring => {
                // No heartbeats: let a successor election happen (§4.5).
                // Still replicate pending entries once per interval so the
                // successor can catch up.
                if self.now >= self.next_heartbeat {
                    self.broadcast_entries_to_stale_only(out);
                    self.next_heartbeat = self.now + self.cfg.heartbeat_interval;
                }
            }
        }
    }

    fn check_leadership_acks(&mut self, out: &mut Actions) {
        // Count members (excluding self) heard from within the window, per
        // active config; step down when any config lacks a quorum (§4.2).
        let window_start = self.now.saturating_sub(self.cfg.leadership_ack_window);
        if self.now < self.cfg.leadership_ack_window {
            return; // not enough history yet
        }
        for config in &self.active_configs {
            let mut heard = 0;
            for node in &config.nodes {
                if node == &self.id {
                    heard += 1;
                    continue;
                }
                if self.last_ack.get(node).copied().unwrap_or(0) >= window_start {
                    heard += 1;
                }
            }
            if heard < quorum(config.nodes.len()) && !config.nodes.is_empty() {
                // Lost contact with a quorum.
                let view = self.view;
                self.become_backup(view, out);
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Proposals (primary only)
    // ------------------------------------------------------------------

    /// Proposes a new entry. The builder receives the assigned transaction
    /// ID (it is needed for private-payload encryption nonces). Returns
    /// the assigned TxId and what the proposal did, the new entry's
    /// [`Command::Appended`] first.
    pub fn propose(
        &mut self,
        build: impl FnOnce(TxId) -> ReplicatedEntry,
    ) -> Result<(TxId, Actions), ProposeError> {
        match self.role {
            Role::Primary => {}
            Role::Retiring => return Err(ProposeError::Retiring),
            _ => return Err(ProposeError::NotPrimary),
        }
        let txid = TxId::new(self.view, self.last_seqno() + 1);
        let entry = build(txid);
        assert_eq!(entry.entry.txid, txid, "builder must use the assigned TxId");
        let mut out = Actions::default();
        self.append_local(Arc::new(entry), &mut out);
        if self.unsigned_since_sig >= self.cfg.signature_interval {
            self.sign(&mut out);
        }
        Ok((txid, out))
    }

    /// Appends a signature transaction now (primaries also sign on a timer
    /// and via the automatic count-based policy).
    pub fn emit_signature(&mut self) -> Actions {
        let mut out = Actions::default();
        self.sign(&mut out);
        out
    }

    fn sign(&mut self, out: &mut Actions) {
        if !matches!(self.role, Role::Primary | Role::Retiring) {
            return;
        }
        if self.unsigned_since_sig == 0 {
            return; // last entry is already a signature
        }
        self.metrics.signature_txs.inc();
        self.last_sig_emit = self.now;
        let txid = TxId::new(self.view, self.last_seqno() + 1);
        let entry = LedgerEntry::signature(txid, self.merkle.root(), &self.id, &self.key);
        let trace = ccf_obs::TraceId::NONE;
        self.append_local(Arc::new(ReplicatedEntry { entry, config: None, trace }), out);
        // Replicate eagerly: commit latency is dominated by signature
        // round-trips (Figure 8).
        self.broadcast_entries(out);
    }

    /// Changes the signature policy at runtime (benchmarks sweep this;
    /// Figure 8 sets count-only signing after bootstrap).
    pub fn set_signature_policy(&mut self, interval: u64, interval_ms: Time) {
        self.cfg.signature_interval = interval;
        self.cfg.signature_interval_ms = interval_ms;
    }

    fn append_local(&mut self, entry: Arc<ReplicatedEntry>, out: &mut Actions) {
        debug_assert_eq!(entry.entry.txid.seqno, self.last_seqno() + 1);
        self.merkle.append(&entry.entry.leaf_bytes());
        if entry.entry.kind == EntryKind::Signature {
            self.last_sig = entry.entry.txid;
            self.unsigned_since_sig = 0;
            // A newly added node participates from the first signature
            // transaction following the reconfiguration that added it.
            if !self.participating && self.active_configs.iter().any(|c| c.nodes.contains(&self.id))
            {
                self.participating = true;
                if self.role == Role::Pending {
                    self.role = Role::Backup;
                    self.reset_election_timer();
                }
            }
        } else {
            self.unsigned_since_sig += 1;
        }
        if let Some(config) = &entry.config {
            // A node the reconfiguration adds gets a full leadership-ack
            // window, as `become_primary` gives every peer (§4.2).
            for node in config {
                self.last_ack.entry(node.clone()).or_insert(self.now);
            }
            self.active_configs.push(ActiveConfig {
                seqno: entry.entry.txid.seqno,
                nodes: config.clone(),
            });
        }
        let view = entry.entry.txid.view;
        if self.view_history.last().is_none_or(|&(v, _)| v < view) {
            self.view_history.push((view, entry.entry.txid.seqno));
        }
        self.note_append_traces(&entry);
        self.emit(Command::Appended(entry.clone()), out);
        self.ledger.push(entry);
        // A single-node configuration commits its own signatures instantly.
        if self.is_primary() {
            self.try_advance_commit(out);
        }
    }

    /// Trace bookkeeping at append time (DESIGN.md §12). A traced user
    /// entry opens this node's `append` marker plus in-flight `sign` and
    /// `commit` stages; a signature entry closes the `sign` stage of
    /// every in-flight trace below it and opens their `replicate` stages.
    /// Runs identically on the primary (its own appends) and on backups
    /// (the ids the entries carry), so traces survive leader changes.
    fn note_append_traces(&mut self, entry: &ReplicatedEntry) {
        let m = &self.metrics;
        if entry.entry.kind == EntryKind::Signature {
            for t in self.inflight_traces.values_mut() {
                if let Some(tok) = t.sign.take() {
                    let sign_id = m.reg.trace_exit(tok);
                    t.replicate = Some(m.reg.trace_enter(tok.trace(), sign_id, "replicate", m.node));
                }
            }
        } else if !entry.trace.is_none() {
            let trace = entry.trace;
            let append_id = m.reg.trace_mark(trace, ccf_obs::SpanId::NONE, "append", m.node);
            self.inflight_traces.insert(
                entry.entry.txid.seqno,
                InflightTrace {
                    sign: Some(m.reg.trace_enter(trace, append_id, "sign", m.node)),
                    replicate: None,
                    commit: m.reg.trace_enter(trace, append_id, "commit", m.node),
                },
            );
        }
    }

    /// Closes the stage spans of every traced entry the new commit point
    /// covers, and feeds the per-stage virtual-time histograms. Each
    /// latency is read off its span, start and end on the registry clock,
    /// so a histogram's sum is its stage's span durations summed.
    fn close_committed_traces(&mut self, seqno: Seqno) {
        if self.inflight_traces.is_empty() {
            return;
        }
        let rest = self.inflight_traces.split_off(&(seqno + 1));
        let done = std::mem::replace(&mut self.inflight_traces, rest);
        let m = &self.metrics;
        let now = m.reg.now();
        for t in done.into_values() {
            m.commit_latency.observe(now - t.commit.start());
            if let Some(tok) = t.replicate {
                m.sign_latency.observe(tok.start() - t.commit.start());
                m.replication_latency.observe(now - tok.start());
                m.reg.trace_exit(tok);
            }
            m.reg.trace_exit(t.commit);
        }
    }

    /// Drops traces above the rollback point: their tokens die unexited,
    /// so a rolled-back stage leaves no span — the trace simply resumes
    /// when the entry is re-proposed or survives on another node.
    fn drop_rolled_back_traces(&mut self, seqno: Seqno) {
        let dropped = self.inflight_traces.split_off(&(seqno + 1));
        if !dropped.is_empty() {
            self.metrics.traces_dropped.add(dropped.len() as u64);
        }
    }

    // ------------------------------------------------------------------
    // Replication (primary)
    // ------------------------------------------------------------------

    fn peers(&self) -> Vec<NodeId> {
        self.config_union().into_iter().filter(|n| n != &self.id).collect()
    }

    fn broadcast_entries(&mut self, out: &mut Actions) {
        for peer in self.peers() {
            self.send_entries_to(&peer, out);
        }
    }

    /// Used by retiring primaries: replicate to peers that are behind but
    /// send no pure heartbeats (which would suppress elections).
    fn broadcast_entries_to_stale_only(&mut self, out: &mut Actions) {
        for peer in self.peers() {
            let next = self.next_seqno.get(&peer).copied().unwrap_or(self.last_seqno() + 1);
            if next <= self.last_seqno() {
                self.send_entries_to(&peer, out);
            }
        }
    }

    /// Sends `peer` its next batch of entries from `next_seqno`, or, when
    /// that entry lies at or below `base_seqno`, the snapshot this replica
    /// was built from. `base_seqno` moves only when a snapshot is
    /// installed, so a replica with a base always holds one.
    fn send_entries_to(&mut self, peer: &NodeId, out: &mut Actions) {
        let next = self.next_seqno.get(peer).copied().unwrap_or(self.last_seqno() + 1);
        if next <= self.base_seqno {
            let snapshot =
                self.snapshot.as_ref().expect("a replica with a base holds its snapshot");
            let m = &self.metrics;
            m.snapshots_sent.inc();
            let to = m.reg.node_ref(peer);
            let seqno = snapshot.last_txid.seqno;
            m.reg.flight(m.node, "snapshot", "sent", Some(to), self.view, seqno);
            out.messages.push((
                peer.clone(),
                Message::InstallSnapshot(InstallSnapshot {
                    view: self.view,
                    leader: self.id.clone(),
                    snapshot: snapshot.clone(),
                }),
            ));
            return;
        }
        let prev = self
            .txid_at(next - 1)
            .expect("next-1 is within the retained ledger by the check above");
        let from_idx = (next - self.base_seqno - 1) as usize;
        let to_idx = (from_idx + self.cfg.max_batch).min(self.ledger.len());
        let entries = match &self.last_batch {
            Some((first, batch)) if *first == next && batch.len() == to_idx - from_idx => {
                batch.clone()
            }
            _ => {
                // Copies pointers: the batch shares the log's entries.
                let batch: Arc<[_]> = self.ledger[from_idx..to_idx].into();
                self.last_batch = Some((next, batch.clone()));
                batch
            }
        };
        self.metrics.append_batches.inc();
        self.metrics.append_batch_entries.observe(entries.len() as u64);
        out.messages.push((
            peer.clone(),
            Message::AppendEntries(AppendEntries {
                view: self.view,
                leader: self.id.clone(),
                prev,
                entries,
                commit_seqno: self.commit_seqno,
            }),
        ));
    }

    fn try_advance_commit(&mut self, out: &mut Actions) {
        if !matches!(self.role, Role::Primary | Role::Retiring) {
            return;
        }
        self.recheck_commit = false;
        // Highest signature transaction of the current view replicated to a
        // quorum of every active configuration (§4.1, §4.4). Nothing after
        // the last signature can qualify, so the scan starts there; the
        // primary calls this on every append, and walking the unsigned
        // suffix each time made a write cost O(signature interval).
        if self.last_sig.seqno <= self.commit_seqno {
            return;
        }
        let end = self.last_sig.seqno.saturating_sub(self.base_seqno) as usize;
        let mut candidate = None;
        for e in self.ledger[..end].iter().rev() {
            let txid = e.entry.txid;
            if txid.seqno <= self.commit_seqno {
                break;
            }
            if e.entry.kind != EntryKind::Signature || txid.view != self.view {
                continue;
            }
            if self.replicated_to_all_quorums(txid.seqno) {
                candidate = Some(txid.seqno);
                break;
            }
        }
        if let Some(seqno) = candidate {
            self.advance_commit(seqno, out);
            // Let backups learn promptly (commit piggybacks on the next
            // append_entries; send one now).
            self.broadcast_entries(out);
        }
    }

    fn replicated_to_all_quorums(&self, seqno: Seqno) -> bool {
        for config in &self.active_configs {
            if config.nodes.is_empty() {
                continue;
            }
            let mut acks = 0;
            for node in &config.nodes {
                let matched = if node == &self.id {
                    self.last_seqno()
                } else {
                    self.match_seqno.get(node).copied().unwrap_or(0)
                };
                if matched >= seqno {
                    acks += 1;
                }
            }
            if acks < quorum(config.nodes.len()) {
                return false;
            }
        }
        true
    }

    /// Adds `command` to the call's output and, for every command but
    /// [`Command::Appended`] (which fires per entry; the log itself records
    /// it), writes its flight record: the one place a transition is
    /// recorded. Commits, won elections and snapshot installs are also
    /// counted here.
    fn emit(&self, command: Command, out: &mut Actions) {
        let m = &self.metrics;
        let ((kind, tag), seqno) = match &command {
            Command::Appended(_) => {
                out.commands.push(command);
                return;
            }
            Command::Committed { seqno } => {
                // The gauge is shared by every replica on the registry,
                // so it tracks the cluster-wide maximum.
                m.commits.inc();
                m.commit_seqno.fetch_max(*seqno);
                (record::COMMIT, *seqno)
            }
            Command::RolledBack { seqno } => (record::ROLLBACK, *seqno),
            Command::BecamePrimary { .. } => {
                m.elections_won.inc();
                (record::PRIMARY, self.last_seqno())
            }
            Command::BecameBackup { .. } => (record::BACKUP, self.last_seqno()),
            Command::SnapshotInstalled { snapshot } => {
                m.snapshots_installed.inc();
                (record::SNAPSHOT, snapshot.last_txid.seqno)
            }
            Command::RetirementCommitted => (record::RETIREMENT, self.commit_seqno),
        };
        m.reg.flight(m.node, kind, tag, None, self.view, seqno);
        out.commands.push(command);
    }

    /// Counts and records a refusal by a safety guard (see
    /// [`record::REJECTED`]).
    fn reject(&self, peer: Option<&NodeId>, seqno: Seqno) {
        let m = &self.metrics;
        m.invariant_rejections.inc();
        let peer = peer.map(|p| m.reg.node_ref(p));
        let (kind, tag) = record::REJECTED;
        m.reg.flight(m.node, kind, tag, peer, seqno, self.commit_seqno);
    }

    /// Moves the commit point to `seqno`: found by the primary's quorum
    /// search, or taken from the primary's AppendEntries on a backup.
    fn advance_commit(&mut self, seqno: Seqno, out: &mut Actions) {
        debug_assert!(seqno > self.commit_seqno);
        debug_assert!(seqno <= self.last_seqno());
        self.commit_seqno = seqno;
        self.close_committed_traces(seqno);
        self.emit(Command::Committed { seqno }, out);
        // §4.5: retirement commits when the node was in the current
        // configuration and a newly committed reconfiguration excludes it.
        let was_in_current = self
            .active_configs
            .first()
            .is_some_and(|c| c.nodes.contains(&self.id));
        // Retire configurations superseded by a committed reconfiguration
        // (§4.4): drop every config older than the newest committed one.
        let newest_committed = self
            .active_configs
            .iter()
            .rev()
            .find(|c| c.seqno <= seqno)
            .map(|c| c.seqno);
        if let Some(newest) = newest_committed {
            let before = self.active_configs.len();
            self.active_configs.retain(|c| c.seqno >= newest);
            self.recheck_commit |= self.active_configs.len() < before;
        }
        let in_current = self
            .active_configs
            .first()
            .is_some_and(|c| c.nodes.contains(&self.id));
        if was_in_current
            && !in_current
            && self.active_configs.first().is_some_and(|c| c.seqno <= seqno)
        {
            self.emit(Command::RetirementCommitted, out);
            if self.role == Role::Primary {
                self.role = Role::Retiring;
            }
        }
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    fn start_election(&mut self, out: &mut Actions) {
        let m = &self.metrics;
        m.elections_started.inc();
        m.reg.flight(m.node, "election", "start", None, self.view + 1, self.last_sig.seqno);
        self.role = Role::Candidate;
        self.view += 1;
        self.voted_for = Some(self.id.clone());
        self.votes = BTreeSet::from([self.id.clone()]);
        self.leader_hint = None;
        self.reset_election_timer();
        let req = RequestVote {
            view: self.view,
            candidate: self.id.clone(),
            last_signature: self.last_sig,
        };
        for peer in self.peers() {
            out.messages.push((peer, Message::RequestVote(req.clone())));
        }
        self.check_election_won(out);
    }

    fn check_election_won(&mut self, out: &mut Actions) {
        if self.role != Role::Candidate {
            return;
        }
        for config in &self.active_configs {
            if config.nodes.is_empty() {
                continue;
            }
            let votes_in = config.nodes.iter().filter(|n| self.votes.contains(*n)).count();
            if votes_in < quorum(config.nodes.len()) {
                return;
            }
        }
        self.become_primary(out);
    }

    fn become_primary(&mut self, out: &mut Actions) {
        // Discard everything after the last signature transaction (§4.2).
        self.truncate_to(self.last_sig.seqno.max(self.commit_seqno), out);
        self.role = Role::Primary;
        self.leader_hint = Some(self.id.clone());
        self.emit(Command::BecamePrimary { view: self.view }, out);
        let last = self.last_seqno();
        self.next_seqno.clear();
        self.match_seqno.clear();
        self.last_ack.clear();
        for peer in self.peers() {
            self.next_seqno.insert(peer.clone(), last + 1);
            self.match_seqno.insert(peer.clone(), 0);
            self.last_ack.insert(peer.clone(), self.now);
        }
        // The new view begins with a signature transaction (§4.2), which
        // becomes committable as soon as a quorum replicates it.
        self.unsigned_since_sig = 1; // force emission even right after a sig
        self.sign(out);
        self.next_heartbeat = self.now + self.cfg.heartbeat_interval;
    }

    fn become_backup(&mut self, view: View, out: &mut Actions) {
        let was_leaderish = matches!(self.role, Role::Primary | Role::Candidate | Role::Retiring);
        if view > self.view {
            self.view = view;
            self.voted_for = None;
        }
        if self.role != Role::Pending {
            self.role = Role::Backup;
        }
        if was_leaderish {
            self.emit(Command::BecameBackup { view: self.view }, out);
        }
        self.votes.clear();
        self.reset_election_timer();
    }

    /// Discards all ledger entries after `seqno`. Returns `false` — and
    /// leaves the log untouched — if that would roll back committed
    /// entries: commit is a durability promise (§4.1), so the guard must
    /// hold in release builds, not only under `debug_assert!`.
    fn truncate_to(&mut self, seqno: Seqno, out: &mut Actions) -> bool {
        if seqno < self.commit_seqno {
            self.reject(None, seqno);
            return false;
        }
        if seqno >= self.last_seqno() {
            return true;
        }
        self.metrics.rollbacks.inc();
        self.metrics.rollback_entries.observe(self.last_seqno() - seqno);
        self.drop_rolled_back_traces(seqno);
        self.last_batch = None;
        self.ledger.truncate((seqno - self.base_seqno) as usize);
        self.merkle.truncate(seqno);
        // Roll back active configurations introduced after the cut (§4.4);
        // the current configuration (seqno <= commit) always survives.
        self.active_configs.retain(|c| c.seqno <= seqno);
        debug_assert!(!self.active_configs.is_empty());
        // Roll back view history.
        self.view_history.retain(|&(_, start)| start <= seqno);
        // Recompute last signature from the surviving prefix.
        self.last_sig = self
            .ledger
            .iter()
            .rev()
            .find(|e| e.entry.kind == EntryKind::Signature)
            .map(|e| e.entry.txid)
            .unwrap_or(if self.base_seqno > 0 { self.base_txid } else { TxId::ZERO });
        self.unsigned_since_sig = self
            .ledger
            .iter()
            .rev()
            .take_while(|e| e.entry.kind != EntryKind::Signature)
            .count() as u64;
        self.emit(Command::RolledBack { seqno }, out);
        true
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn on_append_entries(&mut self, from: &NodeId, m: AppendEntries, out: &mut Actions) {
        if m.view < self.view {
            // Stale primary: reply negatively with our view (§4.2).
            self.ack(from, false, self.last_seqno(), out);
            return;
        }
        if m.view > self.view || matches!(self.role, Role::Primary | Role::Candidate) {
            self.become_backup(m.view, out);
        }
        if self.role == Role::Pending {
            // First contact from the service: we are now receiving the
            // ledger, though not yet participating in elections.
            self.role = Role::Backup;
        }
        self.set_leader_hint(&m.leader);
        self.reset_election_timer();

        // Consistency check on the previous transaction ID (§4.1).
        if m.prev.seqno < self.base_seqno {
            // The primary is sending from before our snapshot base; ask it
            // to fast-forward to our base.
            self.ack(from, false, self.base_seqno, out);
            return;
        }
        if self.txid_at(m.prev.seqno) != Some(m.prev) {
            // Mismatch: report our best guess at the latest common point.
            let hint = self.last_seqno().min(m.prev.seqno.saturating_sub(1));
            self.ack(from, false, hint, out);
            return;
        }

        // Append, resolving conflicts in the primary's favour (§4.2). The
        // batch is shared with the sender: only appended entries are
        // cloned, and every entry's txid is still compared with the log.
        let batch_end = m.prev.seqno + m.entries.len() as u64;
        for re in m.entries.iter() {
            let s = re.entry.txid.seqno;
            if s <= self.base_seqno {
                // Below our snapshot base: already covered by durable
                // state, nothing to compare against.
                continue;
            }
            match self.txid_at(s) {
                Some(local) if local == re.entry.txid => continue, // duplicate
                Some(_) if s <= self.commit_seqno => {
                    // An entry conflicting with our *committed* prefix can
                    // only come from a Byzantine or corrupted primary —
                    // quorum intersection guarantees an honest one extends
                    // what we committed. Refuse the whole message (§4.1);
                    // truncate_to would also refuse, but rejecting here
                    // records the violation before touching any state.
                    self.reject(Some(from), s);
                    self.ack(from, false, self.commit_seqno, out);
                    return;
                }
                Some(_) => {
                    // Conflicting uncommitted suffix: delete ours, then
                    // append. truncate_to refuses (returning false) if it
                    // would cross the commit point.
                    if !self.truncate_to(s - 1, out) {
                        self.ack(from, false, self.commit_seqno, out);
                        return;
                    }
                    self.append_local(re.clone(), out);
                }
                None => {
                    if s != self.last_seqno() + 1 {
                        // Gapped batch: the prev check passed but the
                        // entries skip ahead of our log. The old
                        // `debug_assert_eq!` vanished in release and we
                        // appended entries with holes below them; instead
                        // reply failure with our last seqno as the
                        // retransmission hint.
                        self.ack(from, false, self.last_seqno(), out);
                        return;
                    }
                    self.append_local(re.clone(), out);
                }
            }
        }

        // Advance commit from the primary's commit seqno, floored to the
        // newest signature transaction we hold: the commit point only ever
        // rests on signature transactions (§4.1), and when the primary's
        // commit outruns the entries delivered so far, the raw
        // `min(last_seqno)` could land mid-unsigned-block.
        let new_commit = m.commit_seqno.min(self.last_sig.seqno.max(self.base_seqno));
        if new_commit > self.commit_seqno {
            self.advance_commit(new_commit, out);
        }

        // Claim only what this message proved. A tip from the current view
        // was written by this primary, so by Log Matching the whole log
        // matches; otherwise a stale suffix from an older view may lie
        // beyond the batch, and acking it would let the primary count us
        // toward a quorum for entries it never checked.
        let matched = if self.last_txid().view == self.view {
            self.last_seqno()
        } else {
            batch_end
        };
        self.ack(from, true, matched, out);
    }

    /// Records `leader` as the primary to forward to, writing only a
    /// change.
    fn set_leader_hint(&mut self, leader: &NodeId) {
        if self.leader_hint.as_ref() != Some(leader) {
            self.leader_hint = Some(leader.clone());
        }
    }

    /// Sends an [`AppendEntriesResponse`] to `to` in the current view.
    fn ack(&self, to: &NodeId, success: bool, last_seqno: Seqno, out: &mut Actions) {
        let resp =
            AppendEntriesResponse { view: self.view, from: self.id.clone(), success, last_seqno };
        out.messages.push((to.clone(), Message::AppendEntriesResponse(resp)));
    }

    fn on_append_entries_response(&mut self, m: AppendEntriesResponse, out: &mut Actions) {
        if m.view > self.view {
            self.become_backup(m.view, out);
            return;
        }
        if !matches!(self.role, Role::Primary | Role::Retiring) || m.view < self.view {
            return;
        }
        *slot(&mut self.last_ack, &m.from) = self.now;
        if m.success {
            let matched = slot(&mut self.match_seqno, &m.from);
            let raised = m.last_seqno > *matched;
            *matched = (*matched).max(m.last_seqno);
            *slot(&mut self.next_seqno, &m.from) = m.last_seqno + 1;
            // Only a raised match (or configurations a commit retired) can
            // move the commit point: appends re-check it themselves.
            if raised || self.recheck_commit {
                self.try_advance_commit(out);
            }
            // Stream further entries if the peer is still behind.
            if m.last_seqno < self.last_seqno() {
                self.send_entries_to(&m.from, out);
            }
        } else {
            self.metrics.negative_acks.inc();
            self.metrics.retransmits.inc();
            // Jump straight to the peer's hint (§4.2) — in either
            // direction. The hint is the peer's last matching seqno (or
            // its snapshot base), so `hint + 1` is the exact next entry it
            // needs: a peer that truncated a conflicting suffix needs us
            // lower, while a freshly snapshot-restored follower reports a
            // base far *ahead* of our probe. The previous code clamped to
            // `current - 1`, degenerating to one-seqno-per-round-trip
            // catch-up (O(log length) round trips instead of O(1)).
            let next = (m.last_seqno + 1).min(self.last_seqno() + 1).max(1);
            *slot(&mut self.next_seqno, &m.from) = next;
            self.send_entries_to(&m.from, out);
        }
    }

    fn on_request_vote(&mut self, m: RequestVote, out: &mut Actions) {
        if m.view > self.view {
            self.become_backup(m.view, out);
        }
        let up_to_date = m.last_signature.view > self.last_sig.view
            || (m.last_signature.view == self.last_sig.view
                && m.last_signature.seqno >= self.last_sig.seqno);
        let granted = m.view >= self.view
            && up_to_date
            && self.voted_for.as_ref().is_none_or(|v| v == &m.candidate);
        if granted {
            self.voted_for = Some(m.candidate.clone());
            self.reset_election_timer();
        }
        out.messages.push((
            m.candidate.clone(),
            Message::RequestVoteResponse(RequestVoteResponse {
                view: self.view,
                from: self.id.clone(),
                granted,
            }),
        ));
    }

    fn on_request_vote_response(&mut self, m: RequestVoteResponse, out: &mut Actions) {
        if m.view > self.view {
            self.become_backup(m.view, out);
            return;
        }
        if self.role != Role::Candidate || m.view < self.view || !m.granted {
            return;
        }
        self.votes.insert(m.from);
        self.check_election_won(out);
    }

    fn on_install_snapshot(&mut self, m: InstallSnapshot, out: &mut Actions) {
        if m.view < self.view {
            return;
        }
        if m.view > self.view || matches!(self.role, Role::Primary | Role::Candidate) {
            self.become_backup(m.view, out);
        }
        if self.role == Role::Pending {
            self.role = Role::Backup;
        }
        self.set_leader_hint(&m.leader);
        self.reset_election_timer();
        if m.snapshot.last_txid.seqno <= self.last_seqno() {
            // We already have everything the snapshot covers.
            self.ack(&m.leader, true, self.last_seqno(), out);
            return;
        }
        self.install_snapshot_internal(m.snapshot, out);
        self.ack(&m.leader, true, self.last_seqno(), out);
    }

    /// Replaces local state with `snapshot` and keeps it to send to peers
    /// behind it. A snapshot is committed state, so the commit point moves
    /// to its seqno.
    fn install_snapshot_internal(&mut self, snapshot: Snapshot, out: &mut Actions) {
        self.ledger.clear();
        self.last_batch = None;
        // Traced entries the snapshot replaces were committed elsewhere;
        // this node's view of them ends here (tokens die unexited).
        self.inflight_traces.clear();
        self.base_seqno = snapshot.last_txid.seqno;
        self.base_txid = snapshot.last_txid;
        self.merkle = MerkleTree::new();
        // The fresh tree must keep reporting into the same registry.
        self.merkle.set_registry(&self.metrics.reg);
        for leaf in &snapshot.merkle_leaves {
            self.merkle.append_digest(*leaf);
        }
        self.active_configs = snapshot.configs.clone();
        self.view_history = snapshot.view_history.clone();
        // Never regress below the snapshot's views (fresh TxIds must sort
        // after everything the snapshot covers — e.g. disaster recovery).
        if let Some(&(max_view, _)) = self.view_history.last() {
            self.view = self.view.max(max_view);
        }
        self.last_sig = snapshot.last_txid;
        self.unsigned_since_sig = 0;
        self.commit_seqno = snapshot.last_txid.seqno;
        self.participating = self
            .active_configs
            .iter()
            .any(|c| c.nodes.contains(&self.id));
        if self.participating && self.role == Role::Pending {
            // A snapshot that already includes this node's configuration
            // makes it a full participant (e.g. disaster recovery).
            self.role = Role::Backup;
            self.reset_election_timer();
        }
        self.emit(Command::SnapshotInstalled { snapshot: snapshot.clone() }, out);
        self.snapshot = Some(snapshot);
        if self.commit_seqno > 0 {
            self.emit(Command::Committed { seqno: self.commit_seqno }, out);
        }
    }

    /// Builds a snapshot descriptor of the current committed prefix; the
    /// node layer supplies the serialized kv state matching `commit_seqno`.
    /// Returns None until the last committed entry is a signature tx (it
    /// always is, §4.1, except before the first signature).
    pub fn snapshot_descriptor(&self, kv_state: Vec<u8>) -> Option<Snapshot> {
        if self.commit_seqno == 0 {
            return None;
        }
        let last = self.txid_at(self.commit_seqno)?;
        let leaves = (0..self.commit_seqno)
            .map(|i| self.merkle.leaf(i).copied())
            .collect::<Option<Vec<_>>>()?;
        Some(Snapshot {
            last_txid: last,
            kv_state,
            merkle_leaves: leaves,
            configs: self
                .active_configs
                .iter()
                .filter(|c| c.seqno <= self.commit_seqno)
                .cloned()
                .collect(),
            view_history: self
                .view_history
                .iter()
                .filter(|&&(_, s)| s <= self.commit_seqno)
                .copied()
                .collect(),
        })
    }
}

/// `map[key]`, inserted as `V::default()` on first use: a per-ack update
/// clones the peer id only the first time that peer answers.
fn slot<'a, V: Default>(map: &'a mut HashMap<NodeId, V>, key: &NodeId) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.clone(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{reconfig_entry, user_entry};

    fn replica(id: &str, config: &[&str], max_batch: usize) -> Replica {
        let config = config.iter().map(|s| s.to_string()).collect();
        let cfg = ReplicaConfig { max_batch, ..ReplicaConfig::default() };
        let key = SigningKey::from_seed(ccf_crypto::sha256(id.as_bytes()));
        Replica::new(id, config, cfg, 1, key, &ccf_obs::Registry::new())
    }

    fn receive(r: &mut Replica, from: &str, msg: Message) -> Actions {
        r.step(Input::Receive { from: from.to_string(), msg })
    }

    /// Times `r` out at `now` and hands it `voter`'s vote; returns what
    /// winning did.
    fn win(r: &mut Replica, now: Time, voter: &str) -> Actions {
        r.step(Input::Tick(now));
        let vote = RequestVoteResponse { view: r.view, from: voter.to_string(), granted: true };
        let won = receive(r, voter, Message::RequestVoteResponse(vote));
        assert_eq!(r.role, Role::Primary);
        won
    }

    fn ack(r: &mut Replica, from: &str, success: bool, last_seqno: Seqno) -> Actions {
        let view = r.view;
        let resp = AppendEntriesResponse { view, from: from.to_string(), success, last_seqno };
        receive(r, from, Message::AppendEntriesResponse(resp))
    }

    /// The batch of the last AppendEntries in `out` addressed to `to`.
    fn batch_to(out: &Actions, to: &str) -> Arc<[Arc<ReplicatedEntry>]> {
        out.messages
            .iter()
            .rev()
            .find_map(|(dest, msg)| match msg {
                Message::AppendEntries(ae) if dest == to => Some(ae.entries.clone()),
                _ => None,
            })
            .expect("an AppendEntries to the peer")
    }

    fn txids(batch: &[Arc<ReplicatedEntry>]) -> Vec<TxId> {
        batch.iter().map(|e| e.entry.txid).collect()
    }

    fn committed(out: &Actions) -> Vec<Seqno> {
        out.commands
            .iter()
            .filter_map(|c| match c {
                Command::Committed { seqno } => Some(*seqno),
                _ => None,
            })
            .collect()
    }

    /// A primary of {p, b, c} in view 1, batching at most `max_batch`
    /// entries, whose log holds its view signature and two user entries;
    /// a negative ack from `b` has made it send (and keep) the batch
    /// [2, 3].
    fn primary_with_cached_batch(max_batch: usize) -> (Replica, Arc<[Arc<ReplicatedEntry>]>) {
        let mut p = replica("p", &["p", "b", "c"], max_batch);
        win(&mut p, 10_000, "b");
        for i in 0..2 {
            p.propose(|txid| user_entry(txid, format!("view-1-{i}").as_bytes())).unwrap();
        }
        let batch = batch_to(&ack(&mut p, "b", false, 1), "b");
        assert_eq!(txids(&batch), [TxId::new(1, 2), TxId::new(1, 3)]);
        assert!(p.last_batch.is_some());
        (p, batch)
    }

    #[test]
    fn sends_of_one_range_share_one_batch() {
        let mut p = replica("p", &["p", "b", "c"], 256);
        let won = win(&mut p, 10_000, "b");
        let (to_b, to_c) = (batch_to(&won, "b"), batch_to(&won, "c"));
        assert_eq!(txids(&to_b), [TxId::new(1, 1)], "the view signature");
        assert!(Arc::ptr_eq(&to_b, &to_c), "both peers get the batch built once");

        for i in 0..3 {
            p.propose(|txid| user_entry(txid, format!("w{i}").as_bytes())).unwrap();
        }
        let signed = p.emit_signature();
        let (to_b, to_c) = (batch_to(&signed, "b"), batch_to(&signed, "c"));
        assert_eq!(to_b.len(), 5);
        assert!(Arc::ptr_eq(&to_b, &to_c));
        // A heartbeat re-sends the same range: one more refcount.
        let heartbeat = p.step(Input::Tick(10_000 + p.cfg.heartbeat_interval));
        assert!(Arc::ptr_eq(&batch_to(&heartbeat, "b"), &to_b));
        assert!(Arc::ptr_eq(&batch_to(&heartbeat, "c"), &to_b));
    }

    #[test]
    fn a_replaced_suffix_is_never_sent_from_the_cached_batch() {
        let (mut p, old) = primary_with_cached_batch(2);
        // The view-2 primary replaces [2, 3] with entries of its own.
        let new: Vec<Arc<ReplicatedEntry>> = vec![
            Arc::new(user_entry(TxId::new(2, 2), b"view-2")),
            Arc::new(ReplicatedEntry {
                entry: LedgerEntry::signature(TxId::new(2, 3), [0; 32], "c", &p.key),
                config: None,
                trace: ccf_obs::TraceId::NONE,
            }),
        ];
        let ae = AppendEntries {
            view: 2,
            leader: "c".to_string(),
            prev: TxId::new(1, 1),
            entries: new.clone().into(),
            commit_seqno: 0,
        };
        let out = receive(&mut p, "c", Message::AppendEntries(ae));
        assert!(out.commands.contains(&Command::RolledBack { seqno: 1 }));
        assert!(p.last_batch.is_none(), "truncation must drop the cached batch");

        // Back to primary in view 3; b asks for [2, 3] again.
        win(&mut p, 20_000, "b");
        let resent = batch_to(&ack(&mut p, "b", false, 1), "b");
        assert_eq!(txids(&resent), [TxId::new(2, 2), TxId::new(2, 3)]);
        assert!(!Arc::ptr_eq(&resent, &old));
        assert!(resent.iter().zip(&new).all(|(sent, held)| Arc::ptr_eq(sent, held)));
    }

    /// A snapshot always ends past the log it replaces, so no later send
    /// can name the cached range again; the install must still drop the
    /// batch rather than keep the replaced entries alive.
    #[test]
    fn a_snapshot_install_drops_the_cached_batch() {
        let (mut p, old) = primary_with_cached_batch(2);
        let nodes: Config = ["p", "b", "c"].iter().map(|s| s.to_string()).collect();
        let snapshot = Snapshot {
            last_txid: TxId::new(2, 5),
            kv_state: Vec::new(),
            merkle_leaves: vec![[0; 32]; 5],
            configs: vec![ActiveConfig { seqno: 0, nodes }],
            view_history: vec![(1, 1), (2, 4)],
        };
        let msg = InstallSnapshot { view: 2, leader: "c".to_string(), snapshot };
        receive(&mut p, "c", Message::InstallSnapshot(msg));
        assert_eq!(p.last_seqno(), 5);
        assert!(p.last_batch.is_none(), "a snapshot install must drop the cached batch");
        assert_eq!(Arc::strong_count(&old), 1, "the replaced entries' batch is freed");

        win(&mut p, 20_000, "b");
        let sent = batch_to(&ack(&mut p, "b", false, 5), "b");
        assert_eq!(txids(&sent), [TxId::new(3, 6)], "the first batch above the new base");
    }

    #[test]
    fn only_an_ack_that_raises_a_match_can_commit() {
        // Two identical primaries; only the first also hears acks that
        // raise no match.
        let primary = || {
            let mut p = replica("p", &["p", "b", "c"], 256);
            win(&mut p, 10_000, "b");
            p.propose(|txid| user_entry(txid, b"w")).unwrap();
            p.emit_signature();
            assert_eq!(committed(&ack(&mut p, "b", true, 1)), [1]);
            p
        };
        let (mut heard_more, mut twin) = (primary(), primary());
        for (from, last_seqno) in [("b", 1), ("b", 0), ("c", 0)] {
            let out = ack(&mut heard_more, from, true, last_seqno);
            assert!(committed(&out).is_empty(), "ack {from}@{last_seqno} committed");
        }
        let raising = ack(&mut heard_more, "b", true, 3);
        assert_eq!(committed(&raising), [3]);
        let expected = ack(&mut twin, "b", true, 3);
        assert_eq!(raising.commands, expected.commands);
        assert_eq!(raising.messages, expected.messages);
    }

    /// Retiring a configuration can make a signature the old quorum held
    /// back committable, with no match raised: the next ack commits it.
    #[test]
    fn a_commit_that_retires_a_configuration_lets_the_next_ack_commit() {
        let mut p = replica("p", &["p", "b", "c"], 256);
        win(&mut p, 10_000, "b");
        let next: Config = ["p", "d"].iter().map(|s| s.to_string()).collect();
        p.propose(|txid| reconfig_entry(txid, &next)).unwrap();
        p.emit_signature(); // 3
        p.propose(|txid| user_entry(txid, b"w")).unwrap();
        p.emit_signature(); // 5
        assert!(committed(&ack(&mut p, "d", true, 5)).is_empty(), "{{p, b, c}} has no quorum");
        // b's ack commits 3, which retires {p, b, c}; 5 then needs only d.
        assert_eq!(committed(&ack(&mut p, "b", true, 3)), [3]);
        assert_eq!(committed(&ack(&mut p, "d", true, 5)), [5]);
    }
}
