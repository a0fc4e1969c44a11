//! A CCF node: the composition of store, ledger, consensus, TEE and
//! governance into one unit of the service (paper Figure 2).
//!
//! The node is internally synchronized: request execution reads from
//! lock-free store snapshots, while a single commit lock serializes
//! OCC validation → consensus proposal → state application. All state
//! mutation flows through the consensus [`Command`]s each replica call
//! returns, on the primary and on backups alike, which is what makes
//! rollback after view changes (and snapshot install) a matter of
//! restoring an earlier CHAMP snapshot.
//! They differ only in where an entry's write set comes from: a backup
//! decrypts and decodes each entry once, on append; the primary applies
//! the write set it validated and sealed, and never opens its own
//! ciphertext. Either way the applied writes are kept until commit, when
//! they feed the indexer.
//!
//! The store is updated in place. A store state is kept only at signature
//! transactions (the only commit points) and at a snapshot-install base;
//! rollback installs the newest kept state at or below its target and
//! re-applies the kept write sets above it.

use crate::app::{
    split_query, AppError, Application, AuthPolicy, Caller, EndpointContext, Request, Response,
    ScriptApp,
};
use crate::indexer::{Indexer, KeyToTxIds};
use ccf_consensus::message::{Message, ReplicatedEntry};
use ccf_consensus::replica::{Actions, Command, ProposeError, Replica, ReplicaConfig, Role};
use ccf_consensus::{NodeId, Seqno, Snapshot, TxStatus};
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::sha2::sha256;
use ccf_crypto::x25519::DhKeyPair;
use ccf_crypto::{SigningKey, VerifyingKey};
use ccf_governance::actions::{put_node_info, trusted_nodes, NodeInfo};
use ccf_governance::engine::requests;
use ccf_governance::recovery::write_recovery_material;
use ccf_governance::{
    Ballot, DefaultConstitution, GovernanceEngine, NodeStatus, Proposal, ScriptConstitution,
    ServiceStatus, SignedRequest,
};
use ccf_kv::store::StoreState;
use ccf_kv::{builtin, MapName, Store, Transaction, WriteSet};
use ccf_ledger::entry::EntryKind;
use ccf_ledger::files::closed_chunks;
use ccf_ledger::receipt::endorsement_bytes;
use ccf_ledger::secrets::LedgerSecrets;
use ccf_ledger::{LedgerEntry, Receipt, TxId};
use ccf_sim::Input;
use ccf_tee::attestation::{AttestationReport, CodeId};
use ccf_tee::TeePlatform;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

fn map(name: &str) -> MapName {
    MapName::new(name)
}

/// OCC retries (§6.4) before a conflicted request gets a 409.
const MAX_OCC_RETRIES: u32 = 8;

/// Node construction options.
#[derive(Clone)]
pub struct NodeOpts {
    /// The node's identifier.
    pub id: NodeId,
    /// Consensus timing/batching.
    pub consensus: ReplicaConfig,
    /// TEE platform (virtual vs simulated SGX).
    pub platform: TeePlatform,
    /// Seed for all node-local randomness.
    pub seed: u64,
    /// Produce a snapshot every this many committed entries (0 = never).
    pub snapshot_interval: u64,
    /// Observability registry the node reports into. Nodes of one
    /// service share a registry (cluster-wide counters); the default is
    /// a fresh private one.
    pub obs: ccf_obs::Registry,
}

impl Default for NodeOpts {
    fn default() -> Self {
        NodeOpts {
            id: "n0".to_string(),
            consensus: ReplicaConfig::default(),
            platform: TeePlatform::Virtual,
            seed: 0,
            snapshot_interval: 0,
            obs: ccf_obs::Registry::new(),
        }
    }
}

/// Histogram buckets for signed-request batch sizes (powers of two up to
/// the service-level burst sizes the harnesses generate).
const VERIFY_BATCH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Histogram buckets for the virtual-ms gap between consecutive ticks.
const TICK_GAP_BUCKETS: &[u64] = &[1, 2, 5, 10, 20, 50, 100];

/// Cached metric handles for the node's hot paths (the `node.*`,
/// `crypto.*` and `ledger.encrypted_bytes` series; DESIGN.md §10).
struct NodeMetrics {
    reg: ccf_obs::Registry,
    node: ccf_obs::NodeRef,
    ticks: ccf_obs::Counter,
    tick_gap_ms: ccf_obs::Histogram,
    last_tick_ms: std::sync::atomic::AtomicU64,
    signed_batches: ccf_obs::Counter,
    signed_queue_depth: ccf_obs::Gauge,
    batch_verify_size: ccf_obs::Histogram,
    leader_forwards: ccf_obs::Counter,
    entries_applied: ccf_obs::Counter,
    encrypted_bytes: ccf_obs::Counter,
    batch_verifies: ccf_obs::Counter,
    batch_verify_sigs: ccf_obs::Counter,
    single_verifies: ccf_obs::Counter,
    /// Primary post-commit duty scans (`complete_retirements` +
    /// `process_rekey_request`); zero while nothing arms them.
    duty_scans: ccf_obs::Counter,
    /// Request entry → global commit, per traced user request
    /// (DESIGN.md §12; the node-level counterpart of
    /// `consensus.commit_latency_ms`).
    commit_latency: ccf_obs::Histogram,
    /// Signed-request enqueue → batch drain.
    queue_latency: ccf_obs::Histogram,
}

impl NodeMetrics {
    fn new(reg: &ccf_obs::Registry, id: &NodeId) -> NodeMetrics {
        use ccf_consensus::replica::LATENCY_BUCKETS;
        NodeMetrics {
            reg: reg.clone(),
            node: reg.node_ref(id),
            ticks: reg.counter("node.ticks"),
            tick_gap_ms: reg.histogram("node.tick_gap_ms", TICK_GAP_BUCKETS),
            last_tick_ms: std::sync::atomic::AtomicU64::new(0),
            signed_batches: reg.counter("node.signed_batches"),
            signed_queue_depth: reg.gauge("node.signed_queue_depth"),
            batch_verify_size: reg.histogram("node.batch_verify_size", VERIFY_BATCH_BUCKETS),
            leader_forwards: reg.counter("node.leader_forwards"),
            entries_applied: reg.counter("node.entries_applied"),
            encrypted_bytes: reg.counter("ledger.encrypted_bytes"),
            batch_verifies: reg.counter("crypto.ed25519_batch_verifies"),
            batch_verify_sigs: reg.counter("crypto.ed25519_batch_sigs"),
            single_verifies: reg.counter("crypto.ed25519_single_verifies"),
            duty_scans: reg.counter("node.duty_scans"),
            commit_latency: reg.histogram("node.commit_latency_ms", LATENCY_BUCKETS),
            queue_latency: reg.histogram("node.queue_latency_ms", LATENCY_BUCKETS),
        }
    }
}

/// Secrets handed to a joining node after its attestation verifies
/// (Table 1: service key + ledger secret go to *trusted* nodes only; in
/// production over an attested TLS channel, here via `ccf-tee` channels
/// or directly in the in-process harness).
#[derive(Clone, Debug)]
pub struct ServiceSecrets {
    /// The service identity private key seed.
    pub service_key_seed: [u8; 32],
    /// Serialized ledger secrets.
    pub ledger_secrets: Vec<u8>,
}

/// A join request from a new node (§4.4, §5.1).
#[derive(Clone)]
pub struct JoinRequest {
    /// The joining node's id.
    pub node_id: NodeId,
    /// Attestation report; report data binds the node's keys.
    pub report: AttestationReport,
    /// The node's identity public key.
    pub node_public: VerifyingKey,
    /// The node's X25519 encryption key.
    pub enc_public: [u8; 32],
}

impl JoinRequest {
    /// What the report data must equal: a digest over both public keys.
    pub fn expected_report_data(node_public: &VerifyingKey, enc_public: &[u8; 32]) -> [u8; 32] {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&node_public.0);
        buf.extend_from_slice(enc_public);
        sha256(&buf)
    }
}

struct NodeInner {
    replica: Replica,
    secrets: Option<LedgerSecrets>,
    service_identity: Option<VerifyingKey>,
    service_key: Option<SigningKey>,
    /// Entries that may still roll back, plus the commit point (which
    /// always keeps its state).
    recent_states: BTreeMap<Seqno, Applied>,
    indexer: Indexer,
    /// Messages sent by replica calls since the last `step` returned (the
    /// proposals of requests, joins, governance); the next step sends them
    /// ahead of its own.
    unsent: Vec<(NodeId, Message)>,
    gov: GovernanceEngine,
    rng: ChaChaRng,
    commits_since_snapshot: u64,
    retired: bool,
    handled_rekey: Option<Vec<u8>>,
    /// Whether the primary's post-commit duties may have work: set when an
    /// appended entry writes `nodes.info` or the ledger-secret map, and on
    /// rollback, snapshot install and role change; cleared only by a scan
    /// that finds no `Retiring` node and no unhandled rekey marker.
    duties_armed: bool,
    /// Monotonic count of primary changes (terminates forwarded sessions).
    view_epoch: u64,
    /// Signed user requests queued for the next tick; drained as one
    /// batch so their signatures verify together.
    signed_request_queue: Vec<(u64, SignedRequest)>,
    /// Responses for drained queued requests, by ticket.
    signed_request_responses: BTreeMap<u64, Response>,
    /// Next queued-request ticket.
    next_signed_ticket: u64,
    /// Causal-trace id per proposed seqno (DESIGN.md §12). Bounded:
    /// pruned from the front past `TRACE_MAP_CAPACITY`; survives commit
    /// so receipts and forwarders can look traces up after the fact.
    trace_by_seqno: BTreeMap<Seqno, ccf_obs::TraceId>,
    /// Traced user requests proposed here and not yet globally
    /// committed: seqno → (trace, request entry time).
    inflight_traces: BTreeMap<Seqno, (ccf_obs::TraceId, u64)>,
    /// Virtual enqueue time per signed-request ticket (queue-stage
    /// accounting).
    signed_enqueue_times: BTreeMap<u64, u64>,
}

/// An applied entry, kept until commit: the writes it applied (for the
/// indexer and rollback replay) and, at a signature transaction or a
/// snapshot-install base, the store state after it (a rollback base and
/// the source of snapshots). Keeping a state makes the next update copy
/// the store paths it shares, so other entries keep none.
struct Applied {
    state: Option<Arc<StoreState>>,
    txid: TxId,
    writes: WriteSet,
}

/// How many seqno → trace-id mappings a node retains (receipt markers
/// and forward lookups only need recent history).
const TRACE_MAP_CAPACITY: usize = 1024;

/// A CCF node.
pub struct CcfNode {
    /// Node id.
    pub id: NodeId,
    opts: NodeOpts,
    app: Arc<Application>,
    store: Store,
    inner: Mutex<NodeInner>,
    // Read-path state kept outside the commit lock so the read-only fast
    // path (§3.4) never contends with replication.
    last_applied_view: std::sync::atomic::AtomicU64,
    last_applied_seqno: std::sync::atomic::AtomicU64,
    script_app_cache: parking_lot::RwLock<Option<Arc<ScriptApp>>>,
    node_key: SigningKey,
    dh_key: DhKeyPair,
    code_id: CodeId,
    metrics: NodeMetrics,
}

impl CcfNode {
    /// Creates a node that is the first node of a brand-new service.
    pub fn new_start_node(opts: NodeOpts, app: Arc<Application>) -> Arc<CcfNode> {
        Self::assemble(opts, app, |o, key| {
            let (id, cfg) = (o.id.clone(), o.consensus.clone());
            let replica = Replica::new(id.clone(), [id].into(), cfg, o.seed, key, &o.obs);
            (replica, Actions::default())
        })
    }

    /// Creates a joining node (PENDING), optionally from a snapshot copied
    /// over by the operator (§4.4, Figure 9's step B).
    pub fn new_joining_node(
        opts: NodeOpts,
        app: Arc<Application>,
        snapshot: Option<Snapshot>,
    ) -> Arc<CcfNode> {
        Self::assemble(opts, app, |o, key| {
            Replica::join(o.id.clone(), o.consensus.clone(), o.seed, key, snapshot, &o.obs)
        })
    }

    /// Derives the node's keys from its seed, wraps the replica that
    /// `make_replica` builds around the node's identity key, and applies
    /// what building it did (a boot snapshot's install).
    fn assemble(
        opts: NodeOpts,
        app: Arc<Application>,
        make_replica: impl FnOnce(&NodeOpts, SigningKey) -> (Replica, Actions),
    ) -> Arc<CcfNode> {
        let mut rng = ChaChaRng::seed_from_u64(opts.seed ^ 0xCCF);
        let node_key = SigningKey::generate(&mut rng);
        let dh_key = DhKeyPair::generate(&mut rng);
        let code_id = CodeId::measure(app.code_version.as_bytes());
        let (replica, boot) = make_replica(&opts, node_key.clone());
        let metrics = NodeMetrics::new(&opts.obs, &opts.id);
        let node = Arc::new(CcfNode {
            id: opts.id.clone(),
            app,
            store: Store::new(),
            inner: Mutex::new(NodeInner {
                replica,
                secrets: None,
                service_identity: None,
                service_key: None,
                recent_states: BTreeMap::new(),
                indexer: Indexer::new(),
                unsent: Vec::new(),
                gov: GovernanceEngine::new(Box::new(DefaultConstitution)),
                rng,
                commits_since_snapshot: 0,
                retired: false,
                handled_rekey: None,
                duties_armed: true,
                view_epoch: 0,
                signed_request_queue: Vec::new(),
                signed_request_responses: BTreeMap::new(),
                next_signed_ticket: 0,
                trace_by_seqno: BTreeMap::new(),
                inflight_traces: BTreeMap::new(),
                signed_enqueue_times: BTreeMap::new(),
            }),
            last_applied_view: std::sync::atomic::AtomicU64::new(0),
            last_applied_seqno: std::sync::atomic::AtomicU64::new(0),
            script_app_cache: parking_lot::RwLock::new(None),
            node_key,
            dh_key,
            code_id,
            metrics,
            opts,
        });
        node.apply(&mut node.inner.lock(), boot);
        node
    }

    // ------------------------------------------------------------------
    // Identity & attestation
    // ------------------------------------------------------------------

    /// This node's identity public key.
    pub fn node_public(&self) -> VerifyingKey {
        self.node_key.verifying_key()
    }

    /// This node's encryption public key.
    pub fn enc_public(&self) -> [u8; 32] {
        self.dh_key.public
    }

    /// This node's measured code identity.
    pub fn code_id(&self) -> CodeId {
        self.code_id
    }

    /// Produces this node's join request (attestation report binding its
    /// keys, §2's remote attestation).
    pub fn join_request(&self) -> JoinRequest {
        let data =
            JoinRequest::expected_report_data(&self.node_key.verifying_key(), &self.dh_key.public);
        JoinRequest {
            node_id: self.id.clone(),
            report: AttestationReport::generate(self.code_id, data),
            node_public: self.node_key.verifying_key(),
            enc_public: self.dh_key.public,
        }
    }

    /// The service identity, once known.
    pub fn service_identity(&self) -> Option<VerifyingKey> {
        self.inner.lock().service_identity.clone()
    }

    /// Installs the service secrets (join handshake, after attestation).
    pub fn install_secrets(&self, secrets: &ServiceSecrets) {
        let mut inner = self.inner.lock();
        let service_key = SigningKey::from_seed(secrets.service_key_seed);
        inner.service_identity = Some(service_key.verifying_key());
        inner.service_key = Some(service_key);
        let mut ledger_secrets = LedgerSecrets::deserialize(&secrets.ledger_secrets)
            .expect("valid serialized ledger secrets");
        ledger_secrets.set_registry(&self.metrics.reg);
        inner.secrets = Some(ledger_secrets);
    }

    /// Exports the service secrets for a verified joiner (trusted nodes
    /// hold the service key, Table 1).
    pub fn export_secrets(&self) -> Option<ServiceSecrets> {
        let inner = self.inner.lock();
        Some(ServiceSecrets {
            service_key_seed: inner.service_key.as_ref()?.seed(),
            ledger_secrets: inner.secrets.as_ref()?.serialize(),
        })
    }

    // ------------------------------------------------------------------
    // Service genesis
    // ------------------------------------------------------------------

    /// Submits the genesis transaction. Must be called once this start
    /// node has become primary of the single-node network. Members are
    /// (signing key, encryption public key) pairs; users are
    /// (user id, cert hex) pairs.
    pub fn submit_genesis(
        &self,
        members: &[(VerifyingKey, [u8; 32])],
        users: &[(String, String)],
        constitution_script: Option<&str>,
        recovery_threshold: usize,
    ) -> Result<TxId, String> {
        let mut inner = self.inner.lock();
        assert!(inner.replica.is_primary(), "genesis requires primacy");
        // Service identity & ledger secret are born here (Table 1).
        let service_key = SigningKey::generate(&mut inner.rng);
        let initial_secret = inner.rng.gen_seed();
        let mut secrets = LedgerSecrets::new(initial_secret);
        secrets.set_registry(&self.metrics.reg);
        inner.service_identity = Some(service_key.verifying_key());
        inner.service_key = Some(service_key.clone());
        inner.secrets = Some(secrets.clone());

        let mut tx = self.store.begin();
        // Members.
        let mut member_enc = BTreeMap::new();
        for (signing, enc) in members {
            let id = GovernanceEngine::genesis_add_member(&mut tx, signing, enc);
            member_enc.insert(id, *enc);
        }
        // Users.
        for (user, cert) in users {
            tx.put(&map(builtin::USERS_CERTS), user.as_bytes(), cert.as_bytes());
        }
        // Constitution.
        let constitution_src =
            constitution_script.unwrap_or(ScriptConstitution::default_script());
        let constitution = ScriptConstitution::new(constitution_src)
            .map_err(|e| format!("constitution: {e}"))?;
        tx.put(
            &map(builtin::CONSTITUTION),
            b"constitution",
            constitution_src.as_bytes(),
        );
        inner.gov.set_constitution(Box::new(constitution));
        // Allowed code + this node's info.
        tx.put(
            &map(builtin::NODES_CODE_IDS),
            self.code_id.to_hex().as_bytes(),
            b"AllowedToJoin",
        );
        put_node_info(
            &mut tx,
            &self.id,
            &NodeInfo {
                status: NodeStatus::Trusted,
                cert: ccf_crypto::hex::to_hex(&self.node_key.verifying_key().0),
                code_id: self.code_id.to_hex(),
                enc_key: ccf_crypto::hex::to_hex(&self.dh_key.public),
            },
        );
        // Service info: identity cert + Opening status (§5.1: a proposal
        // must open the service before users are admitted).
        tx.put(
            &map(builtin::SERVICE_INFO),
            b"cert",
            ccf_crypto::hex::to_hex(&service_key.verifying_key().0).as_bytes(),
        );
        tx.put(
            &map(builtin::SERVICE_INFO),
            b"status",
            ServiceStatus::Opening.as_str().as_bytes(),
        );
        // Recovery material (§5.2).
        let threshold = recovery_threshold.clamp(1, member_enc.len().max(1));
        write_recovery_material(&mut tx, &secrets, &member_enc, threshold, &mut inner.rng)
            .map_err(|e| format!("recovery material: {e}"))?;
        self.propose_tx(&mut inner, tx).map_err(|e| format!("genesis propose: {e}"))
    }

    // ------------------------------------------------------------------
    // The uniform propose/apply pipeline
    // ------------------------------------------------------------------

    /// Validates `tx` and proposes its write set as a ledger entry; the
    /// state application happens via its `Appended` command. Caller holds
    /// the inner lock.
    fn propose_tx(&self, inner: &mut NodeInner, tx: Transaction) -> Result<TxId, ProposeError> {
        // Surface conflicts as a retryable error at the caller.
        self.store
            .validate(&tx)
            .map_err(|_| ProposeError::NotPrimary(None))?;
        self.propose_write_set(inner, tx.into_write_set(), None, ccf_obs::TraceId::NONE)
    }

    /// Proposes a prepared write set with optional claims. A non-NONE
    /// `trace` rides the replicated entry so every replica records
    /// per-stage spans for it (DESIGN.md §12); internal writes pass
    /// [`ccf_obs::TraceId::NONE`].
    fn propose_write_set(
        &self,
        inner: &mut NodeInner,
        ws: WriteSet,
        claims: Option<Vec<u8>>,
        trace: ccf_obs::TraceId,
    ) -> Result<TxId, ProposeError> {
        let (public_ws, private_ws) = ws.split_visibility();
        // Reconfiguration detection: a transaction that changes the set of
        // trusted nodes is a reconfiguration transaction (§4.4).
        let new_config = self.config_change(&ws);
        let secrets = inner.secrets.clone();
        let claims_digest = claims.map(|c| sha256(&c)).unwrap_or([0u8; 32]);
        let kind = if new_config.is_some() {
            EntryKind::Reconfiguration
        } else {
            EntryKind::User
        };
        let encrypted_bytes = self.metrics.encrypted_bytes.clone();
        let (txid, mut actions) = inner.replica.propose(|txid| {
            let public_bytes = if public_ws.is_empty() { Vec::new() } else { public_ws.encode() };
            let private_bytes = if private_ws.is_empty() {
                Vec::new()
            } else {
                let plain = private_ws.encode();
                let ct = secrets
                    .as_ref()
                    .expect("cannot write private maps before secrets are installed")
                    .encrypt(txid, &sha256(&public_bytes), &plain);
                encrypted_bytes.add(ct.len() as u64);
                ct
            };
            ReplicatedEntry {
                entry: LedgerEntry {
                    txid,
                    kind,
                    public_ws: public_bytes,
                    private_ws_enc: private_bytes,
                    claims_digest,
                },
                config: new_config.clone(),
                traces: if trace.is_none() { Vec::new() } else { vec![trace] },
            }
        })?;
        if trace.is_some() {
            inner.trace_by_seqno.insert(txid.seqno, trace);
            while inner.trace_by_seqno.len() > TRACE_MAP_CAPACITY {
                inner.trace_by_seqno.pop_first();
            }
        }
        // The proposal's own `Appended` comes first: it applies the write
        // set validated here, never a decrypt of the entry just sealed.
        let Command::Appended(entry) = actions.commands.remove(0) else {
            unreachable!("propose returns the new entry's Appended first")
        };
        self.on_appended(inner, &entry.entry, Some(ws));
        self.apply(inner, actions);
        Ok(txid)
    }

    /// If `ws` changes `nodes.info` statuses, returns the resulting
    /// trusted-node set (the new consensus configuration).
    fn config_change(&self, ws: &WriteSet) -> Option<std::collections::BTreeSet<NodeId>> {
        let touches_nodes = ws.maps.get(builtin::NODES_INFO).is_some_and(|w| !w.is_empty());
        if !touches_nodes {
            return None;
        }
        // Compute the trusted set from current state + this write set.
        let mut tx = self.store.begin();
        for (name, writes) in &ws.maps {
            for (k, v) in writes {
                match v {
                    Some(val) => tx.put(name, k, val),
                    None => tx.remove(name, k),
                }
            }
        }
        let after = trusted_nodes(&tx);
        // Only a *change* to the trusted set is a reconfiguration (e.g.
        // registering a Pending node is not).
        let before = {
            let tx = self.store.begin();
            trusted_nodes(&tx)
        };
        (after != before).then_some(after)
    }

    /// Proposes a CCF-internal transaction (recovery genesis, operator
    /// tooling). Bypasses the reserved-map guard by design.
    pub fn propose_internal(&self, tx: Transaction) -> Result<TxId, String> {
        let mut inner = self.inner.lock();
        self.store.validate(&tx).map_err(|e| e.to_string())?;
        self.propose_write_set(&mut inner, tx.into_write_set(), None, ccf_obs::TraceId::NONE)
            .map_err(|e| e.to_string())
    }

    fn publish_last_applied(&self, txid: TxId) {
        use std::sync::atomic::Ordering;
        self.last_applied_view.store(txid.view, Ordering::Relaxed);
        self.last_applied_seqno.store(txid.seqno, Ordering::Relaxed);
    }

    /// The last transaction applied to this node's store (read fast path).
    pub fn last_applied(&self) -> TxId {
        use std::sync::atomic::Ordering;
        TxId::new(
            self.last_applied_view.load(Ordering::Relaxed),
            self.last_applied_seqno.load(Ordering::Relaxed),
        )
    }

    /// Queues what a replica call sent for the next step's output and
    /// applies its commands in order. Caller holds the inner lock.
    fn apply(&self, inner: &mut NodeInner, actions: Actions) {
        inner.unsent.extend(actions.messages);
        for command in actions.commands {
            match command {
                Command::Appended(entry) => self.on_appended(inner, &entry.entry, None),
                Command::Committed { seqno } => self.on_committed(inner, seqno),
                Command::RolledBack { seqno } => self.on_rolled_back(inner, seqno),
                Command::SnapshotInstalled { snapshot } => {
                    let state = StoreState::deserialize(&snapshot.kv_state)
                        .expect("snapshot kv state must deserialize");
                    self.publish_last_applied(snapshot.last_txid);
                    self.store.install(state);
                    inner.recent_states.clear();
                    self.keep_applied(inner, snapshot.last_txid, WriteSet::new(), true);
                    inner.indexer.reset_to(snapshot.last_txid.seqno);
                    self.reload_dynamic_state(inner);
                    inner.duties_armed = true;
                }
                Command::BecamePrimary { .. } | Command::BecameBackup { .. } => {
                    inner.view_epoch += 1;
                    inner.duties_armed = true;
                }
                Command::RetirementCommitted => inner.retired = true,
            }
        }
    }

    /// Applies appended entry `e`: `own` is the write set of this node's
    /// own proposal; any other entry (a backup's, or a signature the
    /// replica built) is decoded here, once.
    fn on_appended(&self, inner: &mut NodeInner, e: &LedgerEntry, own: Option<WriteSet>) {
        self.metrics.entries_applied.inc();
        let txid = e.txid;
        if txid.seqno <= self.store.version() {
            // Duplicate delivery (can happen after snapshot install).
            return;
        }
        let ws = own.unwrap_or_else(|| self.decode_entry_writes(inner, e));
        self.store.apply_at(&ws, txid.seqno);
        self.publish_last_applied(txid);
        // React to writes addressed to this node (ledger rekey dist).
        self.check_rekey_distribution(inner, &ws, txid);
        if ws.maps.contains_key(builtin::NODES_INFO) || ws.maps.contains_key(builtin::LEDGER_SECRET) {
            inner.duties_armed = true;
        }
        // Live app / constitution updates take effect on append (they are
        // rolled back with the entry if it never commits, restoring the
        // previous app on the state rollback path).
        if ws.maps.contains_key(builtin::MODULES) || ws.maps.contains_key(builtin::CONSTITUTION) {
            self.reload_dynamic_state(inner);
        }
        self.keep_applied(inner, txid, ws, e.is_signature());
    }

    /// Records an applied entry; `keep_state` also keeps the store state
    /// after it.
    fn keep_applied(&self, inner: &mut NodeInner, txid: TxId, writes: WriteSet, keep_state: bool) {
        let state = keep_state.then(|| self.store.snapshot());
        inner.recent_states.insert(txid.seqno, Applied { state, txid, writes });
    }

    /// Decodes an entry into its full (public + decrypted private) writes.
    fn decode_entry_writes(&self, inner: &NodeInner, entry: &LedgerEntry) -> WriteSet {
        let mut ws = if entry.public_ws.is_empty() {
            WriteSet::new()
        } else {
            WriteSet::decode(&entry.public_ws).expect("replicated entries are well-formed")
        };
        if !entry.private_ws_enc.is_empty() {
            let secrets = inner
                .secrets
                .as_ref()
                .expect("nodes hold ledger secrets before replicating private data");
            let plain = secrets
                .decrypt(entry.txid, &sha256(&entry.public_ws), &entry.private_ws_enc)
                .expect("ledger entry decryption");
            ws.merge(WriteSet::decode(&plain).expect("private write set decodes"));
        }
        ws
    }

    fn on_committed(&self, inner: &mut NodeInner, seqno: Seqno) {
        // Close traced user requests covered by this commit: observe the
        // node-level end-to-end latency (request entry → global commit).
        if inner
            .inflight_traces
            .first_key_value()
            .is_some_and(|(s, _)| *s <= seqno)
        {
            let rest = inner.inflight_traces.split_off(&(seqno + 1));
            let done = std::mem::replace(&mut inner.inflight_traces, rest);
            let now = self.metrics.reg.now();
            for (_, (_, entered_at)) in done {
                self.metrics.commit_latency.observe(now.saturating_sub(entered_at));
            }
        }
        // Feed the indexer, in order, with the writes applied at append.
        while inner.indexer.processed_upto() < seqno {
            let next = inner.indexer.processed_upto() + 1;
            match inner.recent_states.get(&next) {
                Some(applied) => inner.indexer.feed(applied.txid, &applied.writes),
                // Entry below our snapshot base; skip forward.
                None => inner.indexer.reset_to(next),
            }
        }
        // Prune rollback snapshots: only seqnos >= commit can roll back.
        inner.recent_states = inner.recent_states.split_off(&seqno);
        // Snapshot production (§4.4).
        inner.commits_since_snapshot += 1;
        if self.opts.snapshot_interval > 0
            && inner.commits_since_snapshot >= self.opts.snapshot_interval
        {
            inner.commits_since_snapshot = 0;
            if let Some(state) = Self::committed_state(inner) {
                if let Some(snapshot) = inner.replica.snapshot_descriptor(state.serialize()) {
                    inner.replica.set_latest_snapshot(snapshot);
                }
            }
        }
        // Primary post-commit duties, only while armed. They read the
        // uncommitted store, so the arming follows appends, not commits;
        // an entry they propose re-arms them through its own append.
        if inner.replica.is_primary() && inner.duties_armed {
            self.metrics.duty_scans.inc();
            inner.duties_armed = false;
            let retiring = self.complete_retirements(inner);
            let rekey = self.process_rekey_request(inner);
            inner.duties_armed |= retiring || rekey;
        }
    }

    /// §4.5 step two: once a retirement (Retiring, out of committed
    /// config) commits, the primary records RETIRED. Returns whether it
    /// found a `Retiring` node: one still in the committed config is
    /// retired by a later scan, once the config without it commits.
    fn complete_retirements(&self, inner: &mut NodeInner) -> bool {
        let current_config: std::collections::BTreeSet<NodeId> = inner
            .replica
            .active_configs()
            .first()
            .map(|c| c.nodes.iter().cloned().collect())
            .unwrap_or_default();
        let tx = self.store.begin();
        let mut retiring = false;
        let mut to_retire = Vec::new();
        tx.for_each(&map(builtin::NODES_INFO), |k, v| {
            if let (Ok(id), Ok(text)) = (std::str::from_utf8(k), std::str::from_utf8(v)) {
                if let Some(info) = NodeInfo::from_json(text) {
                    if info.status == NodeStatus::Retiring {
                        retiring = true;
                        if !current_config.contains(id) {
                            to_retire.push((id.to_string(), info));
                        }
                    }
                }
            }
        });
        if to_retire.is_empty() {
            return retiring;
        }
        let mut tx = self.store.begin();
        for (id, mut info) in to_retire {
            info.status = NodeStatus::Retired;
            put_node_info(&mut tx, &id, &info);
        }
        let ws = tx.into_write_set();
        let _ = self.propose_write_set(inner, ws, None, ccf_obs::TraceId::NONE);
        retiring
    }

    /// Ledger rekey (§5.2 note on rekeying): generates a fresh secret,
    /// seals it to every trusted node, refreshes recovery shares, and
    /// clears the request marker — all in one transaction. Returns whether
    /// it found an unhandled marker (and so handled it).
    fn process_rekey_request(&self, inner: &mut NodeInner) -> bool {
        let mut tx = self.store.begin();
        let marker = tx.get(&map(builtin::LEDGER_SECRET), b"rekey_requested");
        let Some(marker) = marker else { return false };
        if inner.handled_rekey.as_deref() == Some(&marker) {
            return false;
        }
        inner.handled_rekey = Some(marker.clone());
        let new_key = inner.rng.gen_seed();
        // Seal to each trusted node's encryption key.
        let mut dist: Vec<(String, Vec<u8>)> = Vec::new();
        let mut enc_keys: Vec<(String, [u8; 32])> = Vec::new();
        tx.for_each(&map(builtin::NODES_INFO), |k, v| {
            if let (Ok(id), Ok(text)) = (std::str::from_utf8(k), std::str::from_utf8(v)) {
                if let Some(info) = NodeInfo::from_json(text) {
                    if matches!(info.status, NodeStatus::Trusted | NodeStatus::Pending) {
                        if let Ok(enc) = ccf_crypto::hex::from_hex_array::<32>(&info.enc_key) {
                            enc_keys.push((id.to_string(), enc));
                        }
                    }
                }
            }
        });
        for (id, enc) in enc_keys {
            let sealed = ccf_crypto::x25519::seal_box(
                &mut inner.rng,
                &enc,
                b"ccf-ledger-rekey",
                &new_key,
            );
            dist.push((id, sealed));
        }
        for (id, sealed) in dist {
            tx.put(&map(builtin::LEDGER_SECRET), format!("dist/{id}").as_bytes(), &sealed);
        }
        tx.remove(&map(builtin::LEDGER_SECRET), b"rekey_requested");
        // Refresh recovery material under the new secret set.
        let mut new_secrets = inner.secrets.clone().expect("primary holds secrets");
        // The new secret applies from the seqno after this transaction.
        let from = inner.replica.last_seqno() + 2;
        new_secrets.rekey(from, new_key);
        let members = {
            let mut m = BTreeMap::new();
            let ids = GovernanceEngine::members(&tx);
            for id in ids {
                if let Some(enc_hex) = tx.get(&map(builtin::MEMBERS_ENC_KEYS), id.as_bytes()) {
                    if let Ok(enc) = ccf_crypto::hex::from_hex_array::<32>(
                        std::str::from_utf8(&enc_hex).unwrap_or(""),
                    ) {
                        m.insert(id, enc);
                    }
                }
            }
            m
        };
        let threshold = ccf_governance::recovery::recovery_threshold(&mut tx).unwrap_or(1);
        let _ = write_recovery_material(
            &mut tx,
            &new_secrets,
            &members,
            threshold.min(members.len().max(1)),
            &mut inner.rng,
        );
        let ws = tx.into_write_set();
        let _ = self.propose_write_set(inner, ws, None, ccf_obs::TraceId::NONE);
        true
    }

    /// Applies a sealed rekey distribution addressed to this node.
    fn check_rekey_distribution(&self, inner: &mut NodeInner, ws: &WriteSet, txid: TxId) {
        let Some(writes) = ws.maps.get(builtin::LEDGER_SECRET) else { return };
        let key = format!("dist/{}", self.id).into_bytes();
        if let Some(Some(sealed)) = writes.get(&key) {
            if let Ok(new_key) =
                ccf_crypto::x25519::open_box(&self.dh_key, b"ccf-ledger-rekey", sealed)
            {
                if let Ok(new_key) = <[u8; 32]>::try_from(new_key.as_slice()) {
                    if let Some(secrets) = inner.secrets.as_mut() {
                        // Applies from the entry after the distribution tx.
                        secrets.rekey(txid.seqno + 1, new_key);
                    }
                }
            }
        }
    }

    fn on_rolled_back(&self, inner: &mut NodeInner, seqno: Seqno) {
        // Rolled-back proposals never commit here; their traces close on
        // whichever primary re-proposes them (or never).
        inner.inflight_traces.split_off(&(seqno + 1));
        inner.trace_by_seqno.split_off(&(seqno + 1));
        // The target entry is kept (every entry from the commit point up
        // is), and so is a state at or below it (the commit point's).
        let kept = &inner.recent_states;
        let base = kept.range(..=seqno).rev().find_map(|(s, a)| Some((*s, a.state.clone()?)));
        let Some((base, state)) = base.filter(|_| kept.contains_key(&seqno)) else {
            panic!(
                "{}: no kept entry for rollback to {seqno} (have {:?})",
                self.id,
                kept.keys().collect::<Vec<_>>()
            )
        };
        self.store.install((*state).clone());
        // Re-apply the kept write sets above the base: `skip(1)`, since
        // `range(base + 1..=seqno)` panics when the target is the base.
        for (_, applied) in kept.range(base..=seqno).skip(1) {
            self.store.apply_at(&applied.writes, applied.txid.seqno);
        }
        inner.recent_states.split_off(&(seqno + 1));
        self.publish_last_applied(inner.replica.last_txid());
        self.reload_dynamic_state(inner);
        inner.duties_armed = true;
    }

    /// Re-derives app/constitution caches from the (possibly reverted)
    /// store state.
    fn reload_dynamic_state(&self, inner: &mut NodeInner) {
        let mut tx = self.store.begin();
        if let Some(src) = tx.get(&map(builtin::MODULES), b"app") {
            if let Ok(app) = ScriptApp::compile(&String::from_utf8_lossy(&src)) {
                *self.script_app_cache.write() = Some(Arc::new(app));
            }
        } else {
            *self.script_app_cache.write() = None;
        }
        if let Some(src) = tx.get(&map(builtin::CONSTITUTION), b"constitution") {
            if let Ok(c) = ScriptConstitution::new(&String::from_utf8_lossy(&src)) {
                inner.gov.set_constitution(Box::new(c));
            }
        }
    }

    // ------------------------------------------------------------------
    // Time & network plumbing (driven by the harness / node thread)
    // ------------------------------------------------------------------

    /// Drives the node with one input and returns the messages to send:
    /// those of proposals made since the last step, then the input's own.
    /// A tick first drains the signed user requests queued since the last
    /// tick, as one batch-verified round.
    pub fn step(&self, input: Input<Message>) -> Vec<(NodeId, Message)> {
        if let Input::Tick(now_ms) = input {
            use std::sync::atomic::Ordering;
            self.metrics.reg.set_now(now_ms);
            self.metrics.ticks.inc();
            let prev = self.metrics.last_tick_ms.swap(now_ms, Ordering::Relaxed);
            if prev > 0 && now_ms > prev {
                self.metrics.tick_gap_ms.observe(now_ms - prev);
            }
            self.drain_signed_requests();
        }
        let mut inner = self.inner.lock();
        let actions = inner.replica.step(input);
        self.apply(&mut inner, actions);
        std::mem::take(&mut inner.unsent)
    }

    /// Advances consensus time ([`CcfNode::step`]).
    pub fn tick(&self, now_ms: u64) -> Vec<(NodeId, Message)> {
        self.step(Input::Tick(now_ms))
    }

    /// Delivers a consensus message ([`CcfNode::step`]).
    pub fn receive(&self, from: &NodeId, msg: Message) -> Vec<(NodeId, Message)> {
        self.step(Input::Receive { from: from.clone(), msg })
    }

    /// Changes the signature policy (benchmark parameter sweeps).
    pub fn set_signature_policy(&self, interval: u64, interval_ms: u64) {
        self.inner.lock().replica.set_signature_policy(interval, interval_ms);
    }

    /// Current consensus role.
    pub fn role(&self) -> Role {
        self.inner.lock().replica.role()
    }

    /// True when this node believes it is the primary.
    pub fn is_primary(&self) -> bool {
        self.inner.lock().replica.is_primary()
    }

    /// The primary this node would forward to (§4.3).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.inner.lock().replica.leader_hint().cloned()
    }

    /// Commit sequence number.
    pub fn commit_seqno(&self) -> Seqno {
        self.inner.lock().replica.commit_seqno()
    }

    /// Status of a transaction (Figure 4).
    pub fn tx_status(&self, txid: TxId) -> TxStatus {
        self.inner.lock().replica.tx_status(txid)
    }

    /// The latest snapshot produced (operators copy this to new nodes;
    /// always computed on demand from the committed prefix).
    pub fn latest_snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.lock();
        let state = Self::committed_state(&inner)?;
        inner.replica.snapshot_descriptor(state.serialize())
    }

    /// The store state at the commit point, which is always kept (a
    /// signature transaction or a snapshot-install base). None before the
    /// first commit.
    fn committed_state(inner: &NodeInner) -> Option<&Arc<StoreState>> {
        let commit = inner.replica.commit_seqno();
        inner.recent_states.get(&commit)?.state.as_ref()
    }

    /// Persisted ledger chunk blobs (what the host's disk holds — the
    /// input to disaster recovery): the closed chunks of the replica's
    /// log, each ending at a signature transaction.
    pub fn persisted_ledger(&self) -> Vec<Vec<u8>> {
        let inner = self.inner.lock();
        closed_chunks(inner.replica.entries_from(0).iter().map(|e| &e.entry))
    }

    /// True once this node's own retirement has committed.
    pub fn is_retired(&self) -> bool {
        self.inner.lock().retired
    }

    /// A counter that changes whenever this node's role changes —
    /// sessions pinned to a forwarding target terminate when it does
    /// (§4.3 session consistency).
    pub fn view_epoch(&self) -> u64 {
        self.inner.lock().view_epoch
    }

    // ------------------------------------------------------------------
    // Chaos / invariant checking hooks
    // ------------------------------------------------------------------

    /// `(txid, payload digest, kind)` of the retained ledger entry at
    /// `seqno` (`None` below the snapshot base / past the end) — the
    /// [`ccf_consensus::invariants::StateView`] window for chaos runs.
    pub fn entry_info(
        &self,
        seqno: Seqno,
    ) -> Option<(TxId, ccf_crypto::Digest32, EntryKind)> {
        self.inner
            .lock()
            .replica
            .entry_at(seqno)
            .map(|e| (e.entry.txid, e.entry.digest(), e.entry.kind))
    }

    // ------------------------------------------------------------------
    // Join handling (primary side)
    // ------------------------------------------------------------------

    /// Processes a join request: verifies the attestation, checks the
    /// code id allow-list, records the node as PENDING, and returns the
    /// service secrets for the (now verified) enclave.
    pub fn handle_join(&self, req: &JoinRequest) -> Result<ServiceSecrets, String> {
        let mut inner = self.inner.lock();
        if !inner.replica.is_primary() {
            return Err("not primary".to_string());
        }
        // 1. Attestation verifies under the hardware root.
        let code_id = req.report.verify().map_err(|e| format!("attestation: {e}"))?;
        // 2. Report data binds the presented keys (no key substitution).
        let expected = JoinRequest::expected_report_data(&req.node_public, &req.enc_public);
        if req.report.report_data != expected {
            return Err("report data does not bind the presented keys".to_string());
        }
        // 3. The code id must be allow-listed (Listing 1's map).
        let mut tx = self.store.begin();
        let allowed = tx
            .get(&map(builtin::NODES_CODE_IDS), code_id.to_hex().as_bytes())
            .is_some_and(|v| v == b"AllowedToJoin");
        if !allowed {
            return Err(format!("code id {} is not allowed to join", code_id.to_hex()));
        }
        // 4. Record as PENDING (governance will trust it, §5.1).
        put_node_info(
            &mut tx,
            &req.node_id,
            &NodeInfo {
                status: NodeStatus::Pending,
                cert: ccf_crypto::hex::to_hex(&req.node_public.0),
                code_id: code_id.to_hex(),
                enc_key: ccf_crypto::hex::to_hex(&req.enc_public),
            },
        );
        let ws = tx.into_write_set();
        self.propose_write_set(&mut inner, ws, None, ccf_obs::TraceId::NONE)
            .map_err(|e| format!("join propose: {e}"))?;
        // 5. Share the service secrets with the verified enclave.
        drop(inner);
        self.export_secrets().ok_or_else(|| "secrets not available".to_string())
    }

    // ------------------------------------------------------------------
    // Request handling
    // ------------------------------------------------------------------

    fn authenticate(&self, tx: &mut Transaction, req: &Request) -> Result<(), AppError> {
        match &req.caller {
            Caller::Anonymous => Ok(()),
            Caller::User(id) => {
                if tx.get(&map(builtin::USERS_CERTS), id.as_bytes()).is_some() {
                    Ok(())
                } else {
                    Err(AppError::forbidden(format!("unknown user {id}")))
                }
            }
            Caller::Member(id) => {
                if tx.get(&map(builtin::MEMBERS_CERTS), id.as_bytes()).is_some() {
                    Ok(())
                } else {
                    Err(AppError::forbidden(format!("unknown member {id}")))
                }
            }
        }
    }

    fn check_policy(caller: &Caller, policy: AuthPolicy) -> Result<(), AppError> {
        match (policy, caller) {
            (AuthPolicy::NoAuth, _) => Ok(()),
            (AuthPolicy::UserCert, Caller::User(_)) => Ok(()),
            (AuthPolicy::MemberCert, Caller::Member(_)) => Ok(()),
            _ => Err(AppError::forbidden("endpoint authentication policy not satisfied")),
        }
    }

    fn service_open(&self, tx: &mut Transaction) -> bool {
        tx.get(&map(builtin::SERVICE_INFO), b"status")
            .and_then(|v| String::from_utf8(v).ok())
            .and_then(|s| ServiceStatus::parse(&s))
            == Some(ServiceStatus::Open)
    }

    /// Handles a request. Writes must land on the primary — other nodes
    /// return a 307 with the primary hint in the body (the service harness
    /// implements the forwarding of §4.3 on top).
    pub fn handle_request(&self, req: &Request) -> Response {
        let platform = self.opts.platform;
        platform.run(|| self.handle_request_inner(req))
    }

    fn handle_request_inner(&self, req: &Request) -> Response {
        // Captured up front so the eventual root "request" span covers
        // routing, auth, and endpoint execution (DESIGN.md §12).
        let entered_at = self.metrics.reg.now();
        let (path, params) = split_query(&req.path);
        // Built-in endpoints (§3.2's tx, §3.5's receipt, governance).
        if path.starts_with("/node/") || path.starts_with("/gov/") {
            return self.handle_builtin(req, &path, &params);
        }

        // Application endpoints require the service to be open.
        let script_app = self.script_app_cache.read().clone();
        enum Routed {
            Native(crate::app::EndpointDef),
            Script(Arc<ScriptApp>, String, bool),
        }
        let routed = if let Some(def) = self.app.route(&req.method, &path) {
            Routed::Native(def.clone())
        } else if let Some(sa) = script_app {
            match sa.route(&req.method, &path) {
                Some((func, ro)) => {
                    let f = func.to_string();
                    Routed::Script(sa, f, ro)
                }
                None => return Response::error(404, "no such endpoint"),
            }
        } else {
            return Response::error(404, "no such endpoint");
        };
        let (auth, read_only) = match &routed {
            Routed::Native(def) => (def.auth, def.read_only),
            Routed::Script(_, _, ro) => (AuthPolicy::UserCert, *ro),
        };
        if let Err(e) = Self::check_policy(&req.caller, auth) {
            return Response::error(e.status, &e.message);
        }

        let mut attempts = 0;
        loop {
            attempts += 1;
            let mut tx = self.store.begin();
            if !self.service_open(&mut tx) {
                return Response::error(503, "service is not open");
            }
            if let Err(e) = self.authenticate(&mut tx, req) {
                return Response::error(e.status, &e.message);
            }
            let mut ctx = EndpointContext {
                tx: &mut tx,
                caller: &req.caller,
                body: &req.body,
                params: params.clone(),
                claims: None,
            };
            let result = match &routed {
                Routed::Native(def) => def.invoke(&mut ctx),
                Routed::Script(sa, func, _) => sa.invoke(func, &mut ctx, 10_000_000),
            };
            let claims = ctx.claims.take();
            match result {
                Err(e) => return Response::error(e.status, &e.message),
                Ok(body) => {
                    // Read-only fast path (§3.4): nothing recorded, the
                    // response carries the last applied txid.
                    if tx.is_read_only() {
                        return Response { status: 200, body, txid: Some(self.last_applied()) };
                    }
                    if read_only {
                        return Response::error(
                            500,
                            "endpoint declared read-only but wrote to the store",
                        );
                    }
                    // Application logic may not touch reserved maps.
                    if let Some(name) =
                        tx.write_set().maps.keys().find(|n| n.is_reserved())
                    {
                        return Response::error(
                            403,
                            &format!("application wrote reserved map {name}"),
                        );
                    }
                    let mut inner = self.inner.lock();
                    if self.store.validate(&tx).is_err() {
                        drop(inner);
                        if attempts <= MAX_OCC_RETRIES {
                            continue; // §6.4: re-executed, applied once
                        }
                        return Response::error(409, "transaction conflict");
                    }
                    let ws = tx.into_write_set();
                    // Trace ids are minted only once the request reaches
                    // its primary with a validated write set, so ids stay
                    // dense and deterministic across forwarding. The root
                    // "request" span is opened (seq assigned) before the
                    // proposal so the stages it causes sort under it; on
                    // propose failure the token is dropped unexited and
                    // nothing is recorded.
                    let trace = self.metrics.reg.mint_trace();
                    let tok = self.metrics.reg.trace_enter_at(
                        trace,
                        ccf_obs::SpanId::NONE,
                        "request",
                        self.metrics.node,
                        entered_at,
                    );
                    match self.propose_write_set(&mut inner, ws, claims, trace) {
                        Ok(txid) => {
                            self.metrics.reg.trace_exit(tok);
                            inner.inflight_traces.insert(txid.seqno, (trace, entered_at));
                            return Response { status: 200, body, txid: Some(txid) };
                        }
                        Err(ProposeError::NotPrimary(hint)) => {
                            let hint = hint
                                .or_else(|| inner.replica.leader_hint().cloned())
                                .unwrap_or_default();
                            self.metrics.leader_forwards.inc();
                            return Response {
                                status: 307,
                                body: hint.into_bytes(),
                                txid: None,
                            };
                        }
                        Err(ProposeError::Retiring) => {
                            return Response::error(503, "node is retiring");
                        }
                    }
                }
            }
        }
    }

    fn handle_builtin(
        &self,
        req: &Request,
        path: &str,
        params: &std::collections::HashMap<String, String>,
    ) -> Response {
        match (req.method.as_str(), path) {
            ("GET", "/node/tx") => {
                let txid = match parse_txid(params) {
                    Ok(t) => t,
                    Err(e) => return Response::error(400, &e),
                };
                let status = self.tx_status(txid);
                Response::ok(format!("{status:?}").into_bytes())
            }
            ("GET", "/node/receipt") => {
                let txid = match parse_txid(params) {
                    Ok(t) => t,
                    Err(e) => return Response::error(400, &e),
                };
                match self.receipt(txid) {
                    Some(receipt) => Response::ok(receipt.encode()),
                    None => Response::error(404, "transaction not committed or not held here"),
                }
            }
            ("GET", "/node/network") => {
                let inner = self.inner.lock();
                let body = format!(
                    "{{\"view\":{},\"primary\":{:?},\"commit\":{}}}",
                    inner.replica.view(),
                    inner.replica.leader_hint().cloned().unwrap_or_default(),
                    inner.replica.commit_seqno()
                );
                Response::ok(body.into_bytes())
            }
            ("GET", "/node/historical") => {
                let from: u64 = params.get("from").and_then(|s| s.parse().ok()).unwrap_or(1);
                let to: u64 = params.get("to").and_then(|s| s.parse().ok()).unwrap_or(from);
                match self.historical_writes(from, to) {
                    Ok(list) => {
                        let mut out = String::from("[");
                        for (i, (txid, ws)) in list.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            out.push_str(&format!(
                                "{{\"txid\":\"{txid}\",\"updates\":{}}}",
                                ws.update_count()
                            ));
                        }
                        out.push(']');
                        Response::ok(out.into_bytes())
                    }
                    Err(e) => Response::error(400, &e),
                }
            }
            ("POST", "/gov/proposals") => self.handle_gov(req, GovOp::Propose),
            ("POST", "/gov/ballots") => {
                let Some(id) = params.get("proposal_id").cloned() else {
                    return Response::error(400, "missing proposal_id");
                };
                self.handle_gov(req, GovOp::Vote(id))
            }
            ("POST", "/gov/withdraw") => {
                let Some(id) = params.get("proposal_id").cloned() else {
                    return Response::error(400, "missing proposal_id");
                };
                self.handle_gov(req, GovOp::Withdraw(id))
            }
            ("GET", "/gov/proposals") => {
                let Some(id) = params.get("proposal_id") else {
                    return Response::error(400, "missing proposal_id");
                };
                let mut tx = self.store.begin();
                match GovernanceEngine::proposal_state(&mut tx, id) {
                    Ok(state) => Response::ok(state.as_str().as_bytes().to_vec()),
                    Err(e) => Response::error(404, &e.to_string()),
                }
            }
            _ => Response::error(404, "no such built-in endpoint"),
        }
    }

    fn handle_gov(&self, req: &Request, op: GovOp) -> Response {
        let envelope = match SignedRequest::decode(&req.body) {
            Ok(e) => e,
            Err(e) => return Response::error(400, &format!("bad envelope: {e}")),
        };
        let mut inner = self.inner.lock();
        if !inner.replica.is_primary() {
            let hint = inner.replica.leader_hint().cloned().unwrap_or_default();
            self.metrics.leader_forwards.inc();
            return Response { status: 307, body: hint.into_bytes(), txid: None };
        }
        let mut tx = self.store.begin();
        let outcome = match &op {
            GovOp::Propose => inner
                .gov
                .propose(&mut tx, &envelope)
                .map(|(id, state)| format!("{{\"proposal_id\":\"{id}\",\"state\":\"{}\"}}", state.as_str())),
            GovOp::Vote(id) => inner
                .gov
                .vote(&mut tx, id, &envelope)
                .map(|state| format!("{{\"state\":\"{}\"}}", state.as_str())),
            GovOp::Withdraw(id) => inner
                .gov
                .withdraw(&mut tx, id, &envelope)
                .map(|state| format!("{{\"state\":\"{}\"}}", state.as_str())),
        };
        match outcome {
            Err(e) => Response::error(400, &e.to_string()),
            Ok(body) => {
                if self.store.validate(&tx).is_err() {
                    return Response::error(409, "governance transaction conflict");
                }
                let ws = tx.into_write_set();
                match self.propose_write_set(&mut inner, ws, None, ccf_obs::TraceId::NONE) {
                    Ok(txid) => Response { status: 200, body: body.into_bytes(), txid: Some(txid) },
                    Err(e) => Response::error(503, &format!("propose failed: {e}")),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Receipts & history (§3.4, §3.5)
    // ------------------------------------------------------------------

    /// Builds a verifiable receipt for a committed transaction, if this
    /// node retains the entry and a covering signature transaction.
    pub fn receipt(&self, txid: TxId) -> Option<Receipt> {
        let inner = self.inner.lock();
        if inner.replica.tx_status(txid) != TxStatus::Committed {
            return None;
        }
        let entry = inner.replica.entry_at(txid.seqno)?.entry.clone();
        // Find the first signature transaction after txid (its root covers
        // entries [1, sig.seqno - 1] ⊇ txid); issue nothing over a
        // signature that does not verify.
        let sig = (txid.seqno + 1..=inner.replica.commit_seqno())
            .filter_map(|s| inner.replica.entry_at(s))
            .find(|e| e.entry.is_signature())?;
        let sig_txid = sig.entry.txid;
        let payload = sig.entry.signature_payload().ok()?;
        payload.verify(sig_txid).ok()?;
        let proof = inner.replica.merkle_proof_at(txid.seqno, sig_txid.seqno - 1)?;
        let service_key = inner.service_key.as_ref()?;
        let endorsement =
            service_key.sign(&endorsement_bytes(&payload.node_id, &payload.node_public));
        // Receipt issuance is the last stage of a traced request's life.
        if let Some(trace) = inner.trace_by_seqno.get(&txid.seqno).copied() {
            self.metrics.reg.trace_mark(
                trace,
                ccf_obs::SpanId::NONE,
                "receipt",
                self.metrics.node,
            );
        }
        Some(Receipt {
            txid,
            kind: entry.kind,
            public_digest: sha256(&entry.public_ws),
            private_digest: sha256(&entry.private_ws_enc),
            claims_digest: entry.claims_digest,
            proof,
            root: payload.root,
            signature_txid: sig_txid,
            node_id: payload.node_id.clone(),
            node_public: payload.node_public.clone(),
            node_signature: payload.signature,
            service_endorsement: endorsement,
        })
    }

    /// Historical range query (§3.4): reads committed entries from the
    /// replica's log, decrypts them, and returns the write sets.
    pub fn historical_writes(
        &self,
        from: Seqno,
        to: Seqno,
    ) -> Result<Vec<(TxId, WriteSet)>, String> {
        let inner = self.inner.lock();
        if from == 0 || to < from {
            return Err("invalid range".to_string());
        }
        if to > inner.replica.commit_seqno() {
            return Err("range exceeds committed prefix".to_string());
        }
        (from..=to)
            .map(|s| {
                let entry = &inner
                    .replica
                    .entry_at(s)
                    .ok_or_else(|| format!("entry {s} not retained in enclave"))?
                    .entry;
                Ok((entry.txid, self.decode_entry_writes(&inner, entry)))
            })
            .collect()
    }

    /// Runs a read-only closure over the node's indexer.
    pub fn with_indexer<T>(&self, f: impl FnOnce(&Indexer) -> T) -> T {
        f(&self.inner.lock().indexer)
    }

    /// Registers the built-in key→txids index over `map_name`.
    pub fn register_key_index(&self, map_name: &str) {
        self.inner.lock().indexer.register(KeyToTxIds::new(map_name));
    }

    /// Direct store access for operators/tests (reads only by convention).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The application this node runs.
    pub fn app_handle(&self) -> Arc<Application> {
        self.app.clone()
    }

    /// The observability registry this node reports into (shared with the
    /// rest of its service when started through [`crate::service`]).
    pub fn obs(&self) -> &ccf_obs::Registry {
        &self.metrics.reg
    }

    /// The causal-trace id minted for `txid` on this node, if this node
    /// proposed it recently ([`ccf_obs::TraceId::NONE`] otherwise).
    /// Forwarding layers use this to attach their own stages (e.g. the
    /// service harness's "forward" marker) to the request's trace.
    pub fn trace_of(&self, txid: TxId) -> ccf_obs::TraceId {
        self.inner
            .lock()
            .trace_by_seqno
            .get(&txid.seqno)
            .copied()
            .unwrap_or(ccf_obs::TraceId::NONE)
    }

    /// Handles a batch of *signed* user requests (§6.4: "optional support
    /// for user request signing, via the same mechanism that consortium
    /// members sign governance operations"). Each envelope's purpose must
    /// be `user/<METHOD> <path>`; the signer's key must match a registered
    /// user cert (stored as the hex public key). Authentication is
    /// cryptographic — no transport identity needed — and the envelope is
    /// replay-bound to the method+path. All envelope signatures are
    /// checked with a single batched verification
    /// ([`ccf_crypto::verify_batch`] — one shared doubling chain for the
    /// whole round); if the batch rejects, each envelope is re-verified
    /// individually so only the offending requests get a 401 and the rest
    /// proceed normally.
    fn handle_signed_user_requests(&self, envelopes: &[SignedRequest]) -> Vec<Response> {
        let messages: Vec<Vec<u8>> = envelopes.iter().map(|e| e.signed_bytes()).collect();
        let triples: Vec<(&[u8], &ccf_crypto::Signature, &VerifyingKey)> = envelopes
            .iter()
            .zip(&messages)
            .map(|(e, m)| (m.as_slice(), &e.signature, &e.signer))
            .collect();
        let all_valid = ccf_crypto::verify_batch(&triples).is_ok();
        self.metrics.batch_verifies.inc();
        self.metrics.batch_verify_sigs.add(envelopes.len() as u64);
        envelopes
            .iter()
            .map(|envelope| {
                let valid = all_valid || {
                    self.metrics.single_verifies.inc();
                    envelope.verify().is_ok()
                };
                if valid {
                    self.dispatch_signed_user_request(envelope)
                } else {
                    Response::error(401, "invalid request signature")
                }
            })
            .collect()
    }

    /// Queues a signed user request for the next consensus tick. All
    /// requests queued within one round are signature-checked together
    /// as one batch. Returns a ticket to redeem with
    /// [`CcfNode::take_signed_response`] once a tick has drained the queue.
    pub fn enqueue_signed_user_request(&self, envelope: SignedRequest) -> u64 {
        let mut inner = self.inner.lock();
        let ticket = inner.next_signed_ticket;
        inner.next_signed_ticket += 1;
        inner.signed_request_queue.push((ticket, envelope));
        inner.signed_enqueue_times.insert(ticket, self.metrics.reg.now());
        ticket
    }

    /// Takes the response for a queued envelope, if its round has run.
    pub fn take_signed_response(&self, ticket: u64) -> Option<Response> {
        self.inner.lock().signed_request_responses.remove(&ticket)
    }

    /// Drains the queued signed requests as one batch-verified round.
    /// Runs lock-free with respect to `inner` during execution: requests
    /// are moved out under the lock, handled, and the responses filed
    /// under the lock again (request dispatch itself takes `inner`).
    fn drain_signed_requests(&self) {
        let batch = {
            let mut inner = self.inner.lock();
            self.metrics.signed_queue_depth.set(inner.signed_request_queue.len() as u64);
            if inner.signed_request_queue.is_empty() {
                return;
            }
            std::mem::take(&mut inner.signed_request_queue)
        };
        let (tickets, envelopes): (Vec<u64>, Vec<SignedRequest>) = batch.into_iter().unzip();
        self.metrics.signed_batches.inc();
        self.metrics.batch_verify_size.observe(envelopes.len() as u64);
        let responses = self.handle_signed_user_requests(&envelopes);
        let mut inner = self.inner.lock();
        let now = self.metrics.reg.now();
        for (ticket, resp) in tickets.into_iter().zip(responses) {
            // Queue-stage accounting: enqueue → this drain, attributed to
            // the request's trace (backdated span; DESIGN.md §12).
            if let Some(at) = inner.signed_enqueue_times.remove(&ticket) {
                self.metrics.queue_latency.observe(now.saturating_sub(at));
                let trace = resp
                    .txid
                    .and_then(|txid| inner.trace_by_seqno.get(&txid.seqno).copied())
                    .unwrap_or(ccf_obs::TraceId::NONE);
                let tok = self.metrics.reg.trace_enter_at(
                    trace,
                    ccf_obs::SpanId::NONE,
                    "queue",
                    self.metrics.node,
                    at,
                );
                self.metrics.reg.trace_exit(tok);
            }
            inner.signed_request_responses.insert(ticket, resp);
        }
    }

    /// Post-verification half of signed user request handling: resolve the
    /// purpose and signer, then execute as an authenticated user.
    fn dispatch_signed_user_request(&self, envelope: &SignedRequest) -> Response {
        let Some(rest) = envelope.purpose.strip_prefix("user/") else {
            return Response::error(400, "purpose must be user/<METHOD> <path>");
        };
        let Some((method, path)) = rest.split_once(' ') else {
            return Response::error(400, "purpose must be user/<METHOD> <path>");
        };
        // Resolve the signer to a registered user id by cert match.
        let signer_hex = ccf_crypto::hex::to_hex(&envelope.signer.0);
        let mut user_id = None;
        {
            let tx = self.store.begin();
            tx.for_each(&map(builtin::USERS_CERTS), |k, v| {
                if v == signer_hex.as_bytes() {
                    user_id = std::str::from_utf8(k).ok().map(str::to_string);
                }
            });
        }
        let Some(user_id) = user_id else {
            return Response::error(403, "signer is not a registered user");
        };
        self.handle_request(&Request::new(
            method,
            path,
            Caller::User(user_id),
            &envelope.payload,
        ))
    }

    /// Member-facing convenience: a signed proposal envelope builder is in
    /// [`ccf_governance::engine::requests`]; this submits it at this node.
    pub fn submit_proposal(
        &self,
        key: &SigningKey,
        proposal: &Proposal,
        nonce: u64,
    ) -> Response {
        let envelope = requests::propose(key, proposal, nonce);
        self.handle_request(&Request::new(
            "POST",
            "/gov/proposals",
            Caller::Member(ccf_governance::member_id(&key.verifying_key())),
            &envelope.encode(),
        ))
    }

    /// Submits a ballot at this node.
    pub fn submit_ballot(
        &self,
        key: &SigningKey,
        proposal_id: &str,
        ballot: &Ballot,
        nonce: u64,
    ) -> Response {
        let envelope = requests::ballot(key, &proposal_id.to_string(), ballot, nonce);
        self.handle_request(&Request::new(
            "POST",
            &format!("/gov/ballots?proposal_id={proposal_id}"),
            Caller::Member(ccf_governance::member_id(&key.verifying_key())),
            &envelope.encode(),
        ))
    }
}

enum GovOp {
    Propose,
    Vote(String),
    Withdraw(String),
}

fn parse_txid(params: &std::collections::HashMap<String, String>) -> Result<TxId, String> {
    let view = params
        .get("view")
        .and_then(|s| s.parse().ok())
        .ok_or("missing/invalid view")?;
    let seqno = params
        .get("seqno")
        .and_then(|s| s.parse().ok())
        .ok_or("missing/invalid seqno")?;
    Ok(TxId::new(view, seqno))
}
