//! A CCF node: the composition of store, ledger, consensus, TEE and
//! governance into one unit of the service (paper Figure 2).
//!
//! All of a node's state sits behind one lock, and each public call takes
//! it once: a request (or a whole batch of signed ones) holds it from
//! routing to proposal. It begins its transaction, which borrows the
//! store, runs the endpoint and proposes the write set (consensus
//! proposal → state application) under one hold. The borrow ends before
//! the apply, so no other transaction runs in between, and the write set
//! is proposed exactly as it executed, with no validation and no retry:
//! serializability holds because a node runs one transaction at a time.
//!
//! All state mutation flows through the consensus [`Command`]s each
//! replica call returns, on the primary and on backups alike, which is
//! what makes rollback after view changes (and snapshot install) a matter
//! of restoring an earlier CHAMP snapshot.
//! They differ only in where an entry's write set comes from: a backup
//! decrypts and decodes each entry once, on append; the primary applies
//! the write set it executed and sealed, and never opens its own
//! ciphertext. Either way the write set feeds the indexer and then moves
//! into the store: no write set is kept once applied.
//!
//! The store is updated in place. A store state is kept only at signature
//! transactions (the only commit points) and at a snapshot-install base;
//! rollback installs the newest kept state at or below its target and
//! replays the entries above it from the replica's log.
//!
//! Requests follow one route and one forwarding rule. An application
//! request is routed to the native app's endpoint, else to the live script
//! app's (both are [`EndpointDef`]s). A node that is neither primary nor
//! retiring answers every write route 307 with its leader hint before
//! running it (§4.3): a plain request once its endpoint's auth policy
//! holds, a signed envelope before its signature is checked, a governance
//! POST before its envelope is decoded. Reads are served where they land.

use crate::app::{
    split_query, AppError, Application, AuthPolicy, Caller, EndpointContext, EndpointDef, Request,
    Response, ScriptApp,
};
use crate::indexer::{Indexer, KeyToTxIds};
use ccf_consensus::message::{Message, ReplicatedEntry};
use ccf_consensus::replica::{Actions, Command, ProposeError, Replica, ReplicaConfig, Role};
use ccf_consensus::{NodeId, Seqno, Snapshot, TxStatus, View};
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::sha2::sha256;
use ccf_crypto::x25519::DhKeyPair;
use ccf_crypto::{SigningKey, VerifyingKey};
use ccf_governance::actions::{put_node_info, trusted_nodes, NodeInfo};
use ccf_governance::engine::requests;
use ccf_governance::recovery::write_recovery_material;
use ccf_governance::{
    Ballot, GovernanceEngine, NodeStatus, Proposal, ScriptConstitution,
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
use std::collections::BTreeMap;
use std::sync::Arc;

fn map(name: &str) -> MapName {
    MapName::new(name)
}

/// Node construction options. No option governs snapshots: a node makes
/// one only when an operator asks ([`CcfNode::latest_snapshot`]), and its
/// replica sends a peer behind its base the snapshot it was built from.
#[derive(Clone)]
pub struct NodeOpts {
    /// The node's identifier.
    pub id: NodeId,
    /// Consensus timing/batching.
    pub consensus: ReplicaConfig,
    /// Seed for all node-local randomness.
    pub seed: u64,
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
            seed: 0,
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
}

impl NodeMetrics {
    fn new(reg: &ccf_obs::Registry, id: &NodeId) -> NodeMetrics {
        use ccf_consensus::replica::LATENCY_BUCKETS;
        NodeMetrics {
            reg: reg.clone(),
            node: reg.node_ref(id),
            ticks: reg.counter("node.ticks"),
            tick_gap_ms: reg.histogram("node.tick_gap_ms", TICK_GAP_BUCKETS),
            batch_verify_size: reg.histogram("node.batch_verify_size", VERIFY_BATCH_BUCKETS),
            leader_forwards: reg.counter("node.leader_forwards"),
            entries_applied: reg.counter("node.entries_applied"),
            encrypted_bytes: reg.counter("ledger.encrypted_bytes"),
            batch_verifies: reg.counter("crypto.ed25519_batch_verifies"),
            batch_verify_sigs: reg.counter("crypto.ed25519_batch_sigs"),
            single_verifies: reg.counter("crypto.ed25519_single_verifies"),
            duty_scans: reg.counter("node.duty_scans"),
            commit_latency: reg.histogram("node.commit_latency_ms", LATENCY_BUCKETS),
        }
    }
}

/// Secrets handed to a joining node after its attestation verifies
/// (Table 1: service key + ledger secret go to *trusted* nodes only). In
/// production they travel over an attested TLS channel; here the
/// in-process harness hands them over directly, and a `ccf-tee` channel
/// carries them only in `tests/integration_security.rs`.
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
    store: Store,
    /// The last transaction applied to `store` (the read fast path's txid).
    last_applied: TxId,
    /// The live script app (`MODULES["app"]`), recompiled on change.
    script_app: Option<Arc<Application>>,
    /// Virtual time of the previous tick (0 before the first).
    last_tick_ms: u64,
    secrets: Option<LedgerSecrets>,
    service_identity: Option<VerifyingKey>,
    service_key: Option<SigningKey>,
    /// The store state after each signature transaction and snapshot-install
    /// base from the commit point (always one of those) up: the rollback
    /// bases and the source of snapshots. No entry keeps its write set.
    recent_states: BTreeMap<Seqno, Arc<StoreState>>,
    indexer: Indexer,
    /// Messages sent by replica calls since the last `step` returned (the
    /// proposals of requests, joins, governance); the next step sends them
    /// ahead of its own.
    unsent: Vec<(NodeId, Message)>,
    gov: GovernanceEngine,
    rng: ChaChaRng,
    retired: bool,
    handled_rekey: Option<Vec<u8>>,
    /// Whether the primary's post-commit duties may have work: set when an
    /// appended entry writes `nodes.info` or the ledger-secret map, and on
    /// rollback, snapshot install and role change; cleared only by a scan
    /// that finds no `Retiring` node and no unhandled rekey marker.
    duties_armed: bool,
    /// Traced user requests proposed here and not yet globally
    /// committed: seqno → start of the request's root span.
    inflight_traces: BTreeMap<Seqno, u64>,
}

/// A CCF node.
pub struct CcfNode {
    /// Node id.
    pub id: NodeId,
    app: Arc<Application>,
    inner: std::sync::Mutex<NodeInner>,
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
            id: opts.id,
            app,
            inner: std::sync::Mutex::new(NodeInner {
                replica,
                store: Store::new(),
                last_applied: TxId::new(0, 0),
                script_app: None,
                last_tick_ms: 0,
                secrets: None,
                service_identity: None,
                service_key: None,
                recent_states: BTreeMap::new(),
                indexer: Indexer::new(),
                unsent: Vec::new(),
                gov: GovernanceEngine::new(ScriptConstitution::default()),
                rng,
                retired: false,
                handled_rekey: None,
                duties_armed: true,
                inflight_traces: BTreeMap::new(),
            }),
            node_key,
            dh_key,
            code_id,
            metrics,
        });
        node.apply(&mut node.lock(), boot);
        node
    }

    /// The node's state. A panic under the lock poisons it, and nothing
    /// reuses a node after a panic.
    fn lock(&self) -> impl std::ops::DerefMut<Target = NodeInner> + '_ {
        self.inner.lock().expect("node state lock poisoned")
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
        self.lock().service_identity.clone()
    }

    /// Installs the service secrets (join handshake, after attestation).
    pub fn install_secrets(&self, secrets: &ServiceSecrets) {
        let mut inner = self.lock();
        let service_key = SigningKey::from_seed(secrets.service_key_seed);
        inner.service_identity = Some(service_key.verifying_key());
        inner.service_key = Some(service_key);
        let mut ledger_secrets = LedgerSecrets::deserialize(&secrets.ledger_secrets)
            .expect("valid serialized ledger secrets");
        ledger_secrets.set_registry(&self.metrics.reg);
        inner.secrets = Some(ledger_secrets);
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
        let inner = &mut *self.lock();
        assert!(inner.replica.is_primary(), "genesis requires primacy");
        // Service identity & ledger secret are born here (Table 1).
        let service_key = SigningKey::generate(&mut inner.rng);
        let initial_secret = inner.rng.gen_seed();
        let mut secrets = LedgerSecrets::new(initial_secret);
        secrets.set_registry(&self.metrics.reg);
        inner.service_identity = Some(service_key.verifying_key());
        inner.service_key = Some(service_key.clone());
        inner.secrets = Some(secrets.clone());

        let mut tx = inner.store.begin();
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
        inner.gov.set_constitution(constitution);
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
        let ws = tx.into_write_set();
        self.propose_write_set(inner, ws, None, ccf_obs::TraceId::NONE)
            .map_err(|e| format!("genesis propose: {e}"))
    }

    // ------------------------------------------------------------------
    // The uniform propose/apply pipeline
    // ------------------------------------------------------------------

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
        let new_config = Self::config_change(&inner.store, &ws);
        let claims_digest = claims.map(|c| sha256(&c)).unwrap_or([0u8; 32]);
        let kind = if new_config.is_some() {
            EntryKind::Reconfiguration
        } else {
            EntryKind::User
        };
        let (txid, mut actions) = inner.replica.propose(|txid| {
            let public_bytes = if public_ws.is_empty() { Vec::new() } else { public_ws.encode() };
            let private_bytes = if private_ws.is_empty() {
                Vec::new()
            } else {
                let plain = private_ws.encode();
                let ct = inner
                    .secrets
                    .as_ref()
                    .expect("cannot write private maps before secrets are installed")
                    .encrypt(txid, &sha256(&public_bytes), &plain);
                self.metrics.encrypted_bytes.add(ct.len() as u64);
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
                trace,
            }
        })?;
        // The proposal's own `Appended` comes first: it applies the write
        // set executed here, never a decrypt of the entry just sealed.
        let Command::Appended(entry) = actions.commands.remove(0) else {
            unreachable!("propose returns the new entry's Appended first")
        };
        self.on_appended(inner, &entry.entry, Some(ws));
        self.apply(inner, actions);
        Ok(txid)
    }

    /// If `ws` changes `nodes.info` statuses, returns the resulting
    /// trusted-node set (the new consensus configuration).
    fn config_change(store: &Store, ws: &WriteSet) -> Option<std::collections::BTreeSet<NodeId>> {
        let touches_nodes = ws.maps.get(builtin::NODES_INFO).is_some_and(|w| !w.is_empty());
        if !touches_nodes {
            return None;
        }
        // Compute the trusted set from current state + this write set.
        let mut tx = store.begin();
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
        let before = trusted_nodes(&store.begin());
        (after != before).then_some(after)
    }

    /// Proposes a CCF-internal transaction (recovery genesis, operator
    /// tooling): `write` runs on a transaction begun under the node's
    /// lock, and what it wrote is proposed under the same hold. Bypasses
    /// the reserved-map guard by design.
    pub fn propose_internal(&self, write: impl FnOnce(&mut Transaction)) -> Result<TxId, String> {
        let mut inner = self.lock();
        let mut tx = inner.store.begin();
        write(&mut tx);
        let ws = tx.into_write_set();
        self.propose_write_set(&mut inner, ws, None, ccf_obs::TraceId::NONE)
            .map_err(|e| e.to_string())
    }

    /// The last transaction applied to this node's store (read fast path).
    pub fn last_applied(&self) -> TxId {
        self.lock().last_applied
    }

    /// Queues what a replica call sent for the next step's output and
    /// applies its commands in order. Caller holds the inner lock.
    fn apply(&self, inner: &mut NodeInner, actions: Actions) {
        if inner.unsent.is_empty() {
            // Nothing queued: the replica's own vec becomes the queue.
            inner.unsent = actions.messages;
        } else {
            inner.unsent.extend(actions.messages);
        }
        for command in actions.commands {
            match command {
                Command::Appended(entry) => self.on_appended(inner, &entry.entry, None),
                Command::Committed { seqno } => self.on_committed(inner, seqno),
                Command::RolledBack { seqno } => self.on_rolled_back(inner, seqno),
                Command::SnapshotInstalled { snapshot } => {
                    let state = StoreState::deserialize(&snapshot.kv_state)
                        .expect("snapshot kv state must deserialize");
                    inner.last_applied = snapshot.last_txid;
                    inner.store.install(state);
                    let base = snapshot.last_txid.seqno;
                    inner.recent_states = [(base, inner.store.snapshot())].into();
                    inner.indexer.reset_to(base);
                    self.reload_dynamic_state(inner);
                    inner.duties_armed = true;
                }
                Command::BecamePrimary { .. } | Command::BecameBackup { .. } => {
                    inner.duties_armed = true;
                }
                Command::RetirementCommitted => inner.retired = true,
            }
        }
    }

    /// Applies appended entry `e`: `own` is the write set of this node's
    /// own proposal; any other entry (a backup's, or a signature the
    /// replica built) is decoded here, once. The write set is read by the
    /// checks and the indexer, then moved into the store: nothing keeps it.
    fn on_appended(&self, inner: &mut NodeInner, e: &LedgerEntry, own: Option<WriteSet>) {
        self.metrics.entries_applied.inc();
        let txid = e.txid;
        if txid.seqno <= inner.store.version() {
            // Duplicate delivery (can happen after snapshot install).
            return;
        }
        let ws = own.unwrap_or_else(|| self.decode_entry_writes(inner, e));
        // React to writes addressed to this node (ledger rekey dist).
        self.check_rekey_distribution(inner, &ws, txid);
        if ws.maps.contains_key(builtin::NODES_INFO) || ws.maps.contains_key(builtin::LEDGER_SECRET) {
            inner.duties_armed = true;
        }
        // Live app / constitution updates take effect on append (they are
        // rolled back with the entry if it never commits, restoring the
        // previous app on the state rollback path).
        let reload =
            ws.maps.contains_key(builtin::MODULES) || ws.maps.contains_key(builtin::CONSTITUTION);
        inner.indexer.feed(txid, &ws);
        inner.store.apply_at(ws, txid.seqno);
        inner.last_applied = txid;
        if reload {
            self.reload_dynamic_state(inner);
        }
        if e.is_signature() {
            inner.recent_states.insert(txid.seqno, inner.store.snapshot());
        }
    }

    /// Decodes an entry into its full (public + decrypted private) writes.
    fn decode_entry_writes(&self, inner: &NodeInner, entry: &LedgerEntry) -> WriteSet {
        entry.open(inner.secrets.as_ref()).expect("replicated entries open")
    }

    /// The logged entry at `seqno`, decoded (rollback replay, historical
    /// queries); `None` if the log does not hold it.
    fn logged_writes(&self, inner: &NodeInner, seqno: Seqno) -> Option<(TxId, WriteSet)> {
        let entry = &inner.replica.entry_at(seqno)?.entry;
        Some((entry.txid, self.decode_entry_writes(inner, entry)))
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
            for entered_at in done.into_values() {
                self.metrics.commit_latency.observe(now.saturating_sub(entered_at));
            }
        }
        inner.indexer.commit(seqno);
        // Prune rollback bases: only seqnos >= commit can roll back.
        inner.recent_states = inner.recent_states.split_off(&seqno);
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
        let tx = inner.store.begin();
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
        let mut tx = inner.store.begin();
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
        let mut tx = inner.store.begin();
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
                if let Some(enc_hex) = tx.read(builtin::MEMBERS_ENC_KEYS, id.as_bytes()) {
                    if let Ok(enc) = ccf_crypto::hex::from_hex_array::<32>(
                        std::str::from_utf8(enc_hex).unwrap_or(""),
                    ) {
                        m.insert(id, enc);
                    }
                }
            }
            m
        };
        let threshold = ccf_governance::recovery::recovery_threshold(&tx).unwrap_or(1);
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
        // A state at or below the target is kept (the commit point's).
        let kept = &inner.recent_states;
        let Some((&base, state)) = kept.range(..=seqno).next_back() else {
            panic!(
                "{}: no kept entry for rollback to {seqno} (have {:?})",
                self.id,
                kept.keys().collect::<Vec<_>>()
            )
        };
        inner.store.install((**state).clone());
        inner.recent_states.split_off(&(seqno + 1));
        // A rekey distributed by a lost entry goes with it.
        if let Some(secrets) = inner.secrets.as_mut() {
            secrets.roll_back_to(seqno);
        }
        // Replay the entries above the base from the log, which holds
        // every entry above the commit point.
        for s in base + 1..=seqno {
            let (_, ws) = self.logged_writes(inner, s).expect("the log holds entries above commit");
            inner.store.apply_at(ws, s);
        }
        inner.indexer.reset_to(seqno);
        inner.last_applied = inner.replica.last_txid();
        self.reload_dynamic_state(inner);
        inner.duties_armed = true;
    }

    /// Re-derives app/constitution caches from the (possibly reverted)
    /// store state.
    fn reload_dynamic_state(&self, inner: &mut NodeInner) {
        let tx = inner.store.begin();
        if let Some(src) = tx.get(&map(builtin::MODULES), b"app") {
            if let Ok(app) = ScriptApp::compile(&String::from_utf8_lossy(&src)) {
                inner.script_app = Some(Arc::new(app));
            }
        } else {
            inner.script_app = None;
        }
        if let Some(src) = tx.get(&map(builtin::CONSTITUTION), b"constitution") {
            if let Ok(c) = ScriptConstitution::new(&String::from_utf8_lossy(&src)) {
                inner.gov.set_constitution(c);
            }
        }
    }

    // ------------------------------------------------------------------
    // Time & network plumbing (driven by the harness / node thread)
    // ------------------------------------------------------------------

    /// Drives the node with one input and returns the messages to send:
    /// those of proposals made since the last step, then the input's own.
    pub fn step(&self, input: Input<Message>) -> Vec<(NodeId, Message)> {
        let mut inner = self.lock();
        if let Input::Tick(now_ms) = input {
            self.metrics.reg.set_now(now_ms);
            self.metrics.ticks.inc();
            let prev = std::mem::replace(&mut inner.last_tick_ms, now_ms);
            if prev > 0 && now_ms > prev {
                self.metrics.tick_gap_ms.observe(now_ms - prev);
            }
        }
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
        self.lock().replica.set_signature_policy(interval, interval_ms);
    }

    /// Current consensus role.
    pub fn role(&self) -> Role {
        self.lock().replica.role()
    }

    /// True when this node believes it is the primary.
    pub fn is_primary(&self) -> bool {
        self.lock().replica.is_primary()
    }

    /// The primary this node would forward to (§4.3).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.lock().replica.leader_hint().cloned()
    }

    /// Commit sequence number.
    pub fn commit_seqno(&self) -> Seqno {
        self.lock().replica.commit_seqno()
    }

    /// Status of a transaction (Figure 4).
    pub fn tx_status(&self, txid: TxId) -> TxStatus {
        self.lock().replica.tx_status(txid)
    }

    /// A snapshot of the committed prefix, serialized on demand: the one
    /// source of snapshots (operators copy it to new nodes, Figure 9's
    /// step B).
    pub fn latest_snapshot(&self) -> Option<Snapshot> {
        let inner = self.lock();
        // The commit point's state is always kept (none before the first
        // commit).
        let state = inner.recent_states.get(&inner.replica.commit_seqno())?;
        inner.replica.snapshot_descriptor(state.serialize())
    }

    /// Persisted ledger chunk blobs (what the host's disk holds — the
    /// input to disaster recovery): the closed chunks of the replica's
    /// log, each ending at a signature transaction.
    pub fn persisted_ledger(&self) -> Vec<Vec<u8>> {
        let inner = self.lock();
        closed_chunks(inner.replica.entries_from(0).iter().map(|e| &e.entry))
    }

    /// True once this node's own retirement has committed.
    pub fn is_retired(&self) -> bool {
        self.lock().retired
    }

    /// The consensus view this node is in. A view has at most one
    /// primary, so of two nodes that both call themselves primary, the
    /// one in the higher view is the service's.
    pub fn view(&self) -> View {
        self.lock().replica.view()
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
        self.lock()
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
        let mut inner = self.lock();
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
        let mut tx = inner.store.begin();
        let allowed = tx.read(builtin::NODES_CODE_IDS, code_id.to_hex().as_bytes())
            == Some(b"AllowedToJoin");
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
        // 5. Share the service secrets with the verified enclave (trusted
        // nodes hold the service key, Table 1).
        let (Some(key), Some(secrets)) = (&inner.service_key, &inner.secrets) else {
            return Err("secrets not available".to_string());
        };
        Ok(ServiceSecrets { service_key_seed: key.seed(), ledger_secrets: secrets.serialize() })
    }

    // ------------------------------------------------------------------
    // Request handling
    // ------------------------------------------------------------------

    fn authenticate(&self, tx: &Transaction, req: &Request) -> Result<(), AppError> {
        match &req.caller {
            Caller::Anonymous => Ok(()),
            Caller::User(id) => {
                if tx.read(builtin::USERS_CERTS, id.as_bytes()).is_some() {
                    Ok(())
                } else {
                    Err(AppError::forbidden(format!("unknown user {id}")))
                }
            }
            Caller::Member(id) => {
                if tx.read(builtin::MEMBERS_CERTS, id.as_bytes()).is_some() {
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

    fn service_open(&self, tx: &Transaction) -> bool {
        tx.read(builtin::SERVICE_INFO, b"status")
            .and_then(|v| std::str::from_utf8(v).ok())
            .and_then(ServiceStatus::parse)
            == Some(ServiceStatus::Open)
    }

    /// Handles a request. Writes run only on the primary: other nodes
    /// answer them 307 with the primary hint in the body, a retiring
    /// primary 503 (the service harness follows the 307, §4.3).
    pub fn handle_request(&self, req: &Request) -> Response {
        self.serve(&mut self.lock(), req)
    }

    /// Serves one request under the caller's hold of the lock, from
    /// routing to proposal: no other transaction runs between this one's
    /// reads and its proposal, so its write set is proposed exactly as it
    /// executed.
    fn serve(&self, inner: &mut NodeInner, req: &Request) -> Response {
        let (path, params) = split_query(&req.path);
        // Built-in endpoints (§3.2's tx, §3.5's receipt, governance).
        if path.starts_with("/node/") || path.starts_with("/gov/") {
            return self.handle_builtin(inner, req, path, &params);
        }
        let Some(def) = self.endpoint(inner.script_app.as_deref(), &req.method, path) else {
            return Response::error(404, "no such endpoint");
        };
        if let Err(e) = Self::check_policy(&req.caller, def.auth) {
            return Response::error(e.status, &e.message);
        }
        if !def.read_only {
            if let Some(forward) = self.forward_write(inner) {
                return forward;
            }
        }
        let mut tx = inner.store.begin();
        // Application endpoints require the service to be open.
        if !self.service_open(&tx) {
            return Response::error(503, "service is not open");
        }
        if let Err(e) = self.authenticate(&tx, req) {
            return Response::error(e.status, &e.message);
        }
        let mut ctx = EndpointContext {
            tx: &mut tx,
            caller: &req.caller,
            body: &req.body,
            params: &params,
            claims: None,
        };
        let result = def.invoke(&mut ctx);
        let claims = ctx.claims.take();
        let body = match result {
            Err(e) => return Response::error(e.status, &e.message),
            Ok(body) => body,
        };
        // Read-only fast path (§3.4): nothing recorded, the response
        // carries the last applied txid.
        if tx.is_read_only() {
            return Response { status: 200, body, txid: Some(inner.last_applied) };
        }
        if def.read_only {
            return Response::error(500, "endpoint declared read-only but wrote to the store");
        }
        // Application logic may not touch reserved maps.
        if let Some(name) = tx.write_set().maps.keys().find(|n| n.is_reserved()) {
            return Response::error(403, &format!("application wrote reserved map {name}"));
        }
        let ws = tx.into_write_set();
        // Trace ids are minted only here, at a primary with a write set to
        // propose (a backup forwarded the write before running it), so ids
        // stay dense and deterministic across forwarding. The root
        // "request" span is opened (seq assigned) before the proposal so
        // the stages it causes sort under it; no virtual time passes
        // within a call, so it starts when the request entered. On propose
        // failure the token is dropped unexited and nothing is recorded.
        let trace = self.metrics.reg.mint_trace();
        let tok =
            self.metrics.reg.trace_enter(trace, ccf_obs::SpanId::NONE, "request", self.metrics.node);
        match self.propose_write_set(inner, ws, claims, trace) {
            Ok(txid) => {
                self.metrics.reg.trace_exit(tok);
                inner.inflight_traces.insert(txid.seqno, tok.start());
                Response { status: 200, body, txid: Some(txid) }
            }
            Err(e) => Response::error(503, &format!("propose failed: {e}")),
        }
    }

    /// The endpoint serving `method` `path` (no query string): the native
    /// app's, else the live script app's.
    fn endpoint<'a>(
        &'a self,
        script_app: Option<&'a Application>,
        method: &str,
        path: &str,
    ) -> Option<&'a EndpointDef> {
        self.app.route(method, path).or_else(|| script_app?.route(method, path))
    }

    /// §4.3 forwarding: a node that is neither primary nor retiring runs
    /// no write. It answers each write route 307, the body naming the
    /// primary it knows of (empty if none), and the client resends there.
    /// This is the only place that builds that answer.
    fn forward_write(&self, inner: &NodeInner) -> Option<Response> {
        let replica = &inner.replica;
        if matches!(replica.role(), Role::Primary | Role::Retiring) {
            return None;
        }
        self.metrics.leader_forwards.inc();
        let hint = replica.leader_hint().cloned().unwrap_or_default();
        Some(Response { status: 307, body: hint.into_bytes(), txid: None })
    }

    fn handle_builtin(
        &self,
        inner: &mut NodeInner,
        req: &Request,
        path: &str,
        params: &std::collections::HashMap<&str, &str>,
    ) -> Response {
        match (req.method.as_str(), path) {
            ("GET", "/node/tx") => {
                let txid = match parse_txid(params) {
                    Ok(t) => t,
                    Err(e) => return Response::error(400, &e),
                };
                let status = inner.replica.tx_status(txid);
                Response::ok(format!("{status:?}").into_bytes())
            }
            ("GET", "/node/receipt") => {
                let txid = match parse_txid(params) {
                    Ok(t) => t,
                    Err(e) => return Response::error(400, &e),
                };
                match self.receipt_in(inner, txid) {
                    Some(receipt) => Response::ok(receipt.encode()),
                    None => Response::error(404, "transaction not committed or not held here"),
                }
            }
            ("GET", "/node/network") => {
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
                match self.historical_writes_in(inner, from, to) {
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
            ("POST", "/gov/proposals") => self.handle_gov(inner, req, GovOp::Propose),
            ("POST", "/gov/ballots") => {
                let Some(id) = params.get("proposal_id").map(|id| id.to_string()) else {
                    return Response::error(400, "missing proposal_id");
                };
                self.handle_gov(inner, req, GovOp::Vote(id))
            }
            ("POST", "/gov/withdraw") => {
                let Some(id) = params.get("proposal_id").map(|id| id.to_string()) else {
                    return Response::error(400, "missing proposal_id");
                };
                self.handle_gov(inner, req, GovOp::Withdraw(id))
            }
            ("GET", "/gov/proposals") => {
                let Some(id) = params.get("proposal_id") else {
                    return Response::error(400, "missing proposal_id");
                };
                match GovernanceEngine::proposal_state(&inner.store.begin(), &id.to_string()) {
                    Ok(state) => Response::ok(state.as_str().as_bytes().to_vec()),
                    Err(e) => Response::error(404, &e.to_string()),
                }
            }
            _ => Response::error(404, "no such built-in endpoint"),
        }
    }

    fn handle_gov(&self, inner: &mut NodeInner, req: &Request, op: GovOp) -> Response {
        if let Some(forward) = self.forward_write(inner) {
            return forward;
        }
        let envelope = match SignedRequest::decode(&req.body) {
            Ok(e) => e,
            Err(e) => return Response::error(400, &format!("bad envelope: {e}")),
        };
        let mut tx = inner.store.begin();
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
                let ws = tx.into_write_set();
                match self.propose_write_set(inner, ws, None, ccf_obs::TraceId::NONE) {
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
        self.receipt_in(&self.lock(), txid)
    }

    fn receipt_in(&self, inner: &NodeInner, txid: TxId) -> Option<Receipt> {
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
        let trace = Self::logged_trace(inner, txid.seqno);
        if trace.is_some() {
            self.metrics.reg.trace_mark(trace, ccf_obs::SpanId::NONE, "receipt", self.metrics.node);
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
        self.historical_writes_in(&self.lock(), from, to)
    }

    fn historical_writes_in(
        &self,
        inner: &NodeInner,
        from: Seqno,
        to: Seqno,
    ) -> Result<Vec<(TxId, WriteSet)>, String> {
        if from == 0 || to < from {
            return Err("invalid range".to_string());
        }
        if to > inner.replica.commit_seqno() {
            return Err("range exceeds committed prefix".to_string());
        }
        (from..=to)
            .map(|s| {
                let writes = self.logged_writes(inner, s);
                writes.ok_or_else(|| format!("entry {s} not retained in enclave"))
            })
            .collect()
    }

    /// Runs a read-only closure over the node's indexer.
    pub fn with_indexer<T>(&self, f: impl FnOnce(&Indexer) -> T) -> T {
        f(&self.lock().indexer)
    }

    /// Registers the built-in key→txids index over `map_name`.
    pub fn register_key_index(&self, map_name: &str) {
        self.lock().indexer.register(KeyToTxIds::new(map_name));
    }

    /// The latest store state (tests, examples, operator tooling), read
    /// with [`StoreState::get`] or a transaction from
    /// [`StoreState::begin`]. Nothing written there is proposed: a write
    /// runs in [`CcfNode::propose_internal`], on a transaction begun under
    /// the node's lock.
    pub fn store_state(&self) -> Arc<StoreState> {
        self.lock().store.snapshot()
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

    /// The causal-trace id logged with the user entry at `txid`'s seqno,
    /// if this node retains it ([`ccf_obs::TraceId::NONE`] otherwise).
    /// Forwarding layers use this to attach their own stages (e.g. the
    /// service harness's "forward" marker) to the request's trace.
    pub fn trace_of(&self, txid: TxId) -> ccf_obs::TraceId {
        Self::logged_trace(&self.lock(), txid.seqno)
    }

    /// The trace id a user entry carries in the log (DESIGN.md §12.2).
    fn logged_trace(inner: &NodeInner, seqno: Seqno) -> ccf_obs::TraceId {
        inner.replica.entry_at(seqno).map_or(ccf_obs::TraceId::NONE, |e| e.trace)
    }

    /// Handles a batch of *signed* user requests (§6.4: "optional support
    /// for user request signing, via the same mechanism that consortium
    /// members sign governance operations"). Each envelope's purpose must
    /// be `user/<METHOD> <path>`; the signer's key must match a registered
    /// user cert (stored as the hex public key). Authentication is
    /// cryptographic — no transport identity needed — and the envelope is
    /// replay-bound to the method+path. The envelopes this node serves are
    /// signature-checked with a single batched verification
    /// ([`ccf_crypto::verify_batch`] — one shared doubling chain for the
    /// whole batch) in this call; if the batch rejects, each envelope is
    /// re-verified individually so only the offending requests get a 401
    /// and the rest proceed normally. An envelope naming an application
    /// write endpoint is forwarded like a plain write, unverified, since
    /// the primary verifies it anyway. The whole batch runs under one hold
    /// of the node lock.
    pub fn handle_signed_user_requests(&self, envelopes: &[SignedRequest]) -> Vec<Response> {
        let mut inner = self.lock();
        let forwards: Vec<Option<Response>> = envelopes
            .iter()
            .map(|envelope| {
                let (method, path) = signed_route(&envelope.purpose)?;
                let path = path.split_once('?').map_or(path, |(path, _)| path);
                let def = self.endpoint(inner.script_app.as_deref(), method, path)?;
                if def.read_only { None } else { self.forward_write(&inner) }
            })
            .collect();
        let served: Vec<&SignedRequest> =
            envelopes.iter().zip(&forwards).filter(|(_, f)| f.is_none()).map(|(e, _)| e).collect();
        let mut valid = self.verify_envelopes(&served).into_iter();
        envelopes
            .iter()
            .zip(forwards)
            .map(|(envelope, forward)| {
                forward.unwrap_or_else(|| {
                    if valid.next() == Some(true) {
                        self.dispatch_signed_user_request(&mut inner, envelope)
                    } else {
                        Response::error(401, "invalid request signature")
                    }
                })
            })
            .collect()
    }

    /// Checks the envelopes' signatures in one batch, then one by one if
    /// the batch rejects; an empty slice costs nothing.
    fn verify_envelopes(&self, envelopes: &[&SignedRequest]) -> Vec<bool> {
        if envelopes.is_empty() {
            return Vec::new();
        }
        let messages: Vec<Vec<u8>> = envelopes.iter().map(|e| e.signed_bytes()).collect();
        let triples: Vec<(&[u8], &ccf_crypto::Signature, &VerifyingKey)> = envelopes
            .iter()
            .zip(&messages)
            .map(|(e, m)| (m.as_slice(), &e.signature, &e.signer))
            .collect();
        let all_valid = ccf_crypto::verify_batch(&triples).is_ok();
        self.metrics.batch_verifies.inc();
        self.metrics.batch_verify_sigs.add(envelopes.len() as u64);
        self.metrics.batch_verify_size.observe(envelopes.len() as u64);
        envelopes
            .iter()
            .map(|envelope| {
                all_valid || {
                    self.metrics.single_verifies.inc();
                    envelope.verify().is_ok()
                }
            })
            .collect()
    }

    /// Post-verification half of signed user request handling: resolve the
    /// purpose and signer, then serve the request as an authenticated
    /// user, as [`CcfNode::handle_request`] does.
    fn dispatch_signed_user_request(
        &self,
        inner: &mut NodeInner,
        envelope: &SignedRequest,
    ) -> Response {
        let Some((method, path)) = signed_route(&envelope.purpose) else {
            return Response::error(400, "purpose must be user/<METHOD> <path>");
        };
        // Resolve the signer to a registered user id by cert match.
        let signer_hex = ccf_crypto::hex::to_hex(&envelope.signer.0);
        let mut user_id = None;
        inner.store.begin().for_each(&map(builtin::USERS_CERTS), |k, v| {
            if v == signer_hex.as_bytes() {
                user_id = std::str::from_utf8(k).ok().map(str::to_string);
            }
        });
        let Some(user_id) = user_id else {
            return Response::error(403, "signer is not a registered user");
        };
        let req = Request::new(method, path, Caller::User(user_id), &envelope.payload);
        self.serve(inner, &req)
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

/// The method and path (query included) a signed user request's purpose,
/// `user/<METHOD> <path>`, names.
fn signed_route(purpose: &str) -> Option<(&str, &str)> {
    purpose.strip_prefix("user/")?.split_once(' ')
}

fn parse_txid(params: &std::collections::HashMap<&str, &str>) -> Result<TxId, String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// perfbench holds its nodes as `Arc<CcfNode>`, and clippy's default
    /// `arc_with_non_send_sync` lint rejects an `Arc` of a type that is not
    /// `Send + Sync`; the node's state must stay behind a real lock.
    #[test]
    fn node_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CcfNode>();
    }
}
