//! A full CCF service over the deterministic simulator (paper Figure 1).
//!
//! `ServiceCluster` wires N [`CcfNode`]s through `ccf-sim`, plays the
//! roles around the service — operators (start/join/replace nodes, copy
//! snapshots), consortium members (propose/vote), and users (sessions
//! with §4.3 forwarding and session consistency) — and drives virtual
//! time. Every experiment and integration test runs on this harness; the
//! throughput benches time its nodes' calls from outside.

use crate::app::{Application, Caller, Request, Response};
use crate::node::{CcfNode, NodeOpts, ServiceSecrets};
use ccf_consensus::message::Message;
use ccf_consensus::replica::ReplicaConfig;
use ccf_consensus::{NodeId, TxStatus};
use ccf_crypto::sha2::sha256;
use ccf_crypto::x25519::DhKeyPair;
use ccf_crypto::{SigningKey, VerifyingKey};
use ccf_governance::{member_id, Ballot, Proposal, ProposalState};
use ccf_ledger::{Receipt, TxId};
use ccf_script::Value;
use ccf_sim::{NetConfig, SimNet};
use ccf_tee::TeePlatform;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A consortium member's key material (held offline by the member).
pub struct MemberKeys {
    /// Signing key (certificates, envelopes).
    pub signing: SigningKey,
    /// Encryption key pair (recovery shares).
    pub encryption: DhKeyPair,
    /// Monotonic nonce for signed requests.
    pub next_nonce: u64,
}

/// Options for starting a service.
pub struct ServiceOpts {
    /// Number of CCF nodes.
    pub nodes: usize,
    /// Number of consortium members.
    pub members: usize,
    /// Number of pre-registered users (user0, user1, …).
    pub users: usize,
    /// Consensus configuration.
    pub consensus: ReplicaConfig,
    /// Network behaviour.
    pub net: NetConfig,
    /// TEE platform for every node.
    pub platform: TeePlatform,
    /// Master seed.
    pub seed: u64,
    /// Constitution script (None = default majority constitution).
    pub constitution: Option<String>,
    /// Recovery threshold k (clamped to member count).
    pub recovery_threshold: usize,
    /// Snapshot production interval in commits (0 = on demand only).
    pub snapshot_interval: u64,
}

impl Default for ServiceOpts {
    fn default() -> Self {
        ServiceOpts {
            nodes: 3,
            members: 3,
            users: 2,
            consensus: ReplicaConfig {
                election_timeout: (150, 300),
                heartbeat_interval: 20,
                leadership_ack_window: 400,
                signature_interval: 10,
                signature_interval_ms: 10,
                max_batch: 128,
            },
            net: NetConfig { latency: (1, 5), drop_probability: 0.0 },
            platform: TeePlatform::Virtual,
            seed: 1,
            constitution: None,
            recovery_threshold: 1,
            snapshot_interval: 20,
        }
    }
}

/// A user session (§4.3): pinned to a node; once a request has been
/// forwarded to the primary, all subsequent requests follow, and the
/// session terminates if that primary changes.
struct Session {
    node: NodeId,
    forwarded_to: Option<(NodeId, u64)>, // (primary, its view_epoch)
}

/// The running service.
pub struct ServiceCluster {
    /// All nodes ever started (including crashed/retired), by id.
    pub nodes: BTreeMap<NodeId, Arc<CcfNode>>,
    /// The simulated network.
    pub net: SimNet<Message>,
    /// Member key material, by member id.
    pub members: BTreeMap<String, MemberKeys>,
    app: Arc<Application>,
    opts_consensus: ReplicaConfig,
    platform: TeePlatform,
    snapshot_interval: u64,
    now: u64,
    crashed: std::collections::HashSet<NodeId>,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    service_identity: Option<VerifyingKey>,
    next_seed: u64,
    /// Shared observability registry: every node, the network, and the
    /// virtual clock report into this one registry.
    obs: ccf_obs::Registry,
}

impl ServiceCluster {
    /// Starts a service: first node starts alone, the rest join and are
    /// trusted by governance, users are registered, and the cluster is
    /// run until the configuration has converged. The service is still
    /// `Opening`; call [`ServiceCluster::open_service`].
    pub fn start(opts: ServiceOpts, app: Arc<Application>) -> ServiceCluster {
        let mut members = BTreeMap::new();
        let mut member_material = Vec::new();
        for i in 0..opts.members {
            let signing = SigningKey::from_seed(sha256(format!("member-{}-{}", opts.seed, i).as_bytes()));
            let encryption =
                DhKeyPair::from_secret(sha256(format!("member-enc-{}-{}", opts.seed, i).as_bytes()));
            member_material.push((signing.verifying_key(), encryption.public));
            members.insert(
                member_id(&signing.verifying_key()),
                MemberKeys { signing, encryption, next_nonce: 1 },
            );
        }
        let users: Vec<(String, String)> = (0..opts.users)
            .map(|i| (format!("user{i}"), format!("cert-user{i}")))
            .collect();

        let obs = ccf_obs::Registry::new();
        let start_node = CcfNode::new_start_node(
            NodeOpts {
                id: "n0".to_string(),
                consensus: opts.consensus.clone(),
                platform: opts.platform,
                seed: opts.seed * 100,
                snapshot_interval: opts.snapshot_interval,
                max_occ_retries: 8,
                obs: obs.clone(),
            },
            app.clone(),
        );
        let net = SimNet::new(opts.net.clone(), opts.seed, &obs, Message::kind);
        let mut cluster = ServiceCluster {
            nodes: BTreeMap::from([(start_node.id.clone(), start_node.clone())]),
            net,
            members,
            app: app.clone(),
            opts_consensus: opts.consensus.clone(),
            platform: opts.platform,
            snapshot_interval: opts.snapshot_interval,
            now: 0,
            crashed: Default::default(),
            sessions: BTreeMap::new(),
            next_session: 0,
            service_identity: None,
            next_seed: 1,
            obs,
        };
        // Single node elects itself…
        assert!(
            cluster.run_until(10_000, |c| c.primary().is_some()),
            "start node failed to become primary"
        );
        // …and writes the genesis transaction.
        let genesis = start_node
            .submit_genesis(
                &member_material,
                &users,
                opts.constitution.as_deref(),
                opts.recovery_threshold,
            )
            .expect("genesis");
        cluster.service_identity = start_node.service_identity();
        assert!(
            cluster.run_until(10_000, |c| {
                c.nodes["n0"].tx_status(genesis) == TxStatus::Committed
            }),
            "genesis never committed"
        );
        // Remaining nodes join (attestation) and are trusted (governance).
        for i in 1..opts.nodes {
            let id = format!("n{i}");
            cluster.join_and_trust(&id, None);
        }
        cluster
    }

    /// The trusted application.
    pub fn app(&self) -> &Arc<Application> {
        &self.app
    }

    /// The service-wide observability registry (shared by every node,
    /// the simulated network, and the virtual clock).
    pub fn obs(&self) -> &ccf_obs::Registry {
        &self.obs
    }

    /// Assembles a cluster around a single already-configured node — the
    /// disaster-recovery path ([`crate::recovery::restart_service`]),
    /// where the node boots from a recovered snapshot rather than genesis.
    pub fn assemble_recovered(
        node: Arc<CcfNode>,
        members: BTreeMap<String, MemberKeys>,
        seed: u64,
    ) -> ServiceCluster {
        let app = node.app_handle();
        let service_identity = node.service_identity();
        let obs = node.obs().clone();
        let net = SimNet::new(NetConfig::default(), seed, &obs, Message::kind);
        ServiceCluster {
            nodes: BTreeMap::from([(node.id.clone(), node)]),
            net,
            members,
            app,
            opts_consensus: ReplicaConfig::default(),
            platform: TeePlatform::Virtual,
            snapshot_interval: 20,
            now: 0,
            crashed: Default::default(),
            sessions: BTreeMap::new(),
            next_session: 0,
            service_identity,
            next_seed: 1,
            obs,
        }
    }

    /// Creates a node, performs the join handshake against the primary,
    /// and runs the governance flow to trust it (§4.4, §5.1; Figure 9's
    /// steps B–E). Returns its id.
    pub fn join_and_trust(&mut self, id: &str, snapshot_from: Option<&str>) -> NodeId {
        let id = self.join_pending(id, snapshot_from);
        // Governance: transition to trusted (all members approve).
        let (pid, _) = self.propose(Proposal::single(
            "transition_node_to_trusted",
            Value::obj([("node_id".to_string(), Value::str(id.clone()))]),
        ));
        self.vote_all(&pid);
        let deadline_ok = self.run_until(30_000, |c| {
            c.nodes[&id].role() != ccf_consensus::replica::Role::Pending
                && c.nodes[&id].commit_seqno() > 0
        });
        assert!(deadline_ok, "joined node {id} never became trusted/caught up");
        id
    }

    /// Joins a node as PENDING only (attestation handshake, no trust yet).
    pub fn join_pending(&mut self, id: &str, snapshot_from: Option<&str>) -> NodeId {
        let snapshot = snapshot_from.and_then(|from| self.nodes[from].latest_snapshot());
        self.next_seed += 1;
        let node = CcfNode::new_joining_node(
            NodeOpts {
                id: id.to_string(),
                consensus: self.opts_consensus.clone(),
                platform: self.platform,
                seed: self.next_seed * 7919,
                snapshot_interval: self.snapshot_interval,
                max_occ_retries: 8,
                obs: self.obs.clone(),
            },
            self.app.clone(),
            snapshot,
        );
        let primary = self.primary().expect("join requires a primary");
        let join = node.join_request();
        let secrets: ServiceSecrets = self.nodes[&primary]
            .handle_join(&join)
            .expect("join handshake");
        node.install_secrets(&secrets);
        self.nodes.insert(id.to_string(), node);
        id.to_string()
    }

    /// Opens the service to users (§5.1's `transition_service_to_open`).
    pub fn open_service(&mut self) {
        let (pid, state) =
            self.propose(Proposal::single("transition_service_to_open", Value::Null));
        if state != ProposalState::Accepted {
            self.vote_all(&pid);
        }
        assert!(
            self.run_until(10_000, |c| {
                let node = &c.nodes[&c.primary().unwrap_or_else(|| "n0".into())];
                let mut tx = node.store().begin();
                tx.get(&ccf_kv::MapName::new(ccf_kv::builtin::SERVICE_INFO), b"status")
                    == Some(b"Open".to_vec())
            }),
            "service never opened"
        );
        // Let the open-state replicate everywhere.
        self.run_for(200);
    }

    // ------------------------------------------------------------------
    // Simulation driving
    // ------------------------------------------------------------------

    /// Current virtual time (ms).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// One millisecond of virtual time.
    pub fn step(&mut self) {
        self.now += 1;
        self.obs.set_now(self.now);
        for d in self.net.deliveries_until(self.now) {
            if self.crashed.contains(&d.to) {
                continue;
            }
            if let Some(node) = self.nodes.get(&d.to) {
                for (to, msg) in node.receive(&d.from, d.msg) {
                    self.net.send(&d.to, &to, msg);
                }
            }
        }
        let ids: Vec<NodeId> = self.nodes.keys().cloned().collect();
        for id in ids {
            if self.crashed.contains(&id) {
                continue;
            }
            let node = self.nodes[&id].clone();
            for (to, msg) in node.tick(self.now) {
                self.net.send(&id, &to, msg);
            }
        }
    }

    /// Runs for `ms` of virtual time.
    pub fn run_for(&mut self, ms: u64) {
        for _ in 0..ms {
            self.step();
        }
    }

    /// Runs until `pred` holds (true) or `deadline_ms` passes (false).
    pub fn run_until(&mut self, deadline_ms: u64, mut pred: impl FnMut(&ServiceCluster) -> bool) -> bool {
        let deadline = self.now + deadline_ms;
        while self.now < deadline {
            if pred(self) {
                return true;
            }
            self.step();
        }
        pred(self)
    }

    /// Runs until `txid` is committed on every live node.
    pub fn run_until_committed(&mut self, txid: TxId) {
        assert!(
            self.run_until(30_000, |c| {
                c.live_nodes()
                    .iter()
                    .all(|id| c.nodes[*id].tx_status(txid) == TxStatus::Committed)
            }),
            "transaction {txid} never committed cluster-wide"
        );
    }

    /// The current primary (if any live node is one).
    pub fn primary(&self) -> Option<NodeId> {
        let mut best: Option<(NodeId, u64)> = None;
        for (id, node) in &self.nodes {
            if self.crashed.contains(id) {
                continue;
            }
            if node.is_primary() {
                let epoch = node.view_epoch();
                if best.as_ref().is_none_or(|(_, e)| epoch >= *e) {
                    best = Some((id.clone(), epoch));
                }
            }
        }
        best.map(|(id, _)| id)
    }

    /// Live (non-crashed, non-retired) node ids.
    pub fn live_nodes(&self) -> Vec<&NodeId> {
        self.nodes
            .keys()
            .filter(|id| !self.crashed.contains(*id) && !self.nodes[*id].is_retired())
            .collect()
    }

    /// Crashes a node (silent, permanent — CCF nodes are ephemeral, §6.2).
    pub fn crash(&mut self, id: &str) {
        self.crashed.insert(id.to_string());
        self.net.crash(&id.to_string());
    }

    /// True if crashed.
    pub fn is_crashed(&self, id: &str) -> bool {
        self.crashed.contains(id)
    }

    /// Revives a crashed node with its in-memory state intact (chaos
    /// harness only). Production CCF nodes never resume (§6.2); an
    /// in-memory resume is safety-equivalent to healing a long full
    /// partition of that node, so it is a valid — and stronger — fault
    /// for the nemesis to inject.
    pub fn restart(&mut self, id: &str) {
        if self.crashed.remove(id) {
            self.net.restart(&id.to_string());
        }
    }

    // ------------------------------------------------------------------
    // Users
    // ------------------------------------------------------------------

    /// Opens a user session against node index `node_idx` (connect to any
    /// node, §4.3). Crashed nodes are skipped — a real client's TCP
    /// connect would fail and it would retry the next node (§6.3).
    pub fn open_session(&mut self, node_idx: usize) -> u64 {
        let live: Vec<NodeId> = self
            .nodes
            .keys()
            .filter(|id| !self.crashed.contains(*id))
            .cloned()
            .collect();
        let node = live[node_idx % live.len()].clone();
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, Session { node, forwarded_to: None });
        id
    }

    /// Issues a request on a session, implementing forwarding and session
    /// consistency (§4.3). Returns the response, or a 503 if the session's
    /// node is down / the session had to terminate.
    pub fn session_request(
        &mut self,
        session_id: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Response {
        let Some(session) = self.sessions.get(&session_id) else {
            return Response::error(400, "no such session");
        };
        if self.crashed.contains(&session.node) {
            return Response::error(503, "node unreachable; reconnect to another node");
        }
        // Session consistency: once forwarded, always forwarded — and if
        // the forwarding target's epoch changed, terminate the session.
        let target = match &session.forwarded_to {
            Some((primary, epoch)) => {
                if self.crashed.contains(primary)
                    || self.nodes[primary].view_epoch() != *epoch
                    || !self.nodes[primary].is_primary()
                {
                    self.sessions.remove(&session_id);
                    return Response::error(503, "session terminated: primary changed");
                }
                primary.clone()
            }
            None => session.node.clone(),
        };
        let req = Request::new(method, path, Caller::User("user0".to_string()), body);
        let resp = self.nodes[&target].handle_request(&req);
        if resp.status == 307 {
            // Forward to the primary hint and pin the session (§4.3).
            let mut hint = String::from_utf8_lossy(&resp.body).to_string();
            if hint.is_empty() || self.crashed.contains(&hint) || !self.nodes.contains_key(&hint) {
                // Stale hint (e.g. the old primary just crashed): fall
                // back to the cluster's current primary, as a retrying
                // client scanning nodes would find it.
                match self.primary() {
                    Some(p) => hint = p,
                    None => return Response::error(503, "no reachable primary"),
                }
            }
            let epoch = self.nodes[&hint].view_epoch();
            self.sessions.get_mut(&session_id).unwrap().forwarded_to = Some((hint.clone(), epoch));
            let forwarded = self.nodes[&hint].handle_request(&req);
            // The forwarding hop is a zero-duration stage on the request's
            // trace, attributed to the backup that issued the 307.
            if let Some(txid) = forwarded.txid {
                let trace = self.nodes[&hint].trace_of(txid);
                self.obs.trace_mark(
                    trace,
                    ccf_obs::SpanId::NONE,
                    "forward",
                    self.obs.node_ref(&target),
                );
            }
            return forwarded;
        }
        resp
    }

    /// One-shot user request against node index `node_idx`, following
    /// forwarding (convenience for tests/benches).
    pub fn user_request(&mut self, node_idx: usize, method: &str, path: &str, body: &[u8]) -> Response {
        let s = self.open_session(node_idx);
        let resp = self.session_request(s, method, path, body);
        self.sessions.remove(&s);
        resp
    }

    /// Registers `user` with a fresh signing key via governance (the cert
    /// stored in `users.certs` is the hex public key), enabling *signed*
    /// user requests from that key. Returns the user's signing key.
    pub fn register_user_key(&mut self, user: &str) -> SigningKey {
        let key = SigningKey::from_seed(sha256(format!("user-key-{user}").as_bytes()));
        let cert = ccf_crypto::hex::to_hex(&key.verifying_key().0);
        let state = self.propose_and_accept(ccf_governance::Proposal::single(
            "set_user",
            ccf_script::Value::obj([
                ("user_id".to_string(), ccf_script::Value::str(user)),
                ("cert".to_string(), ccf_script::Value::str(&cert)),
            ]),
        ));
        assert_eq!(state, ProposalState::Accepted, "set_user proposal not accepted");
        key
    }

    /// Signs and submits one user request through the queued batch path
    /// (convenience wrapper over [`ServiceCluster::signed_user_requests`]).
    pub fn signed_user_request(
        &mut self,
        key: &SigningKey,
        node_idx: usize,
        method: &str,
        path: &str,
        body: &[u8],
        nonce: u64,
    ) -> Response {
        let purpose = format!("user/{method} {path}");
        let envelope = ccf_governance::SignedRequest::sign(key, &purpose, body, nonce);
        self.signed_user_requests(node_idx, vec![envelope]).remove(0)
    }

    /// Submits pre-signed envelopes to node `node_idx` through the queued
    /// path: all are enqueued before any virtual time passes, so the next
    /// tick verifies their signatures as a single batch. Drives the
    /// cluster until every ticket resolves; follows 307 forwarding to the
    /// primary (re-queued there, again as one batch).
    pub fn signed_user_requests(
        &mut self,
        node_idx: usize,
        envelopes: Vec<ccf_governance::SignedRequest>,
    ) -> Vec<Response> {
        let live: Vec<NodeId> = self
            .nodes
            .keys()
            .filter(|id| !self.crashed.contains(*id))
            .cloned()
            .collect();
        let node_id = live[node_idx % live.len()].clone();
        let mut responses = self.drive_signed_batch(&node_id, envelopes);
        // Follow forwarding: a backup answers 307 with a leader hint.
        let hint = responses
            .iter()
            .find(|(_, r, _)| r.status == 307)
            .map(|(_, r, _)| String::from_utf8_lossy(&r.body).to_string());
        if let Some(mut hint) = hint {
            if hint.is_empty() || self.crashed.contains(&hint) || !self.nodes.contains_key(&hint) {
                hint = match self.primary() {
                    Some(p) => p,
                    None => {
                        return responses.into_iter().map(|(_, r, _)| r).collect();
                    }
                };
            }
            let redo: Vec<ccf_governance::SignedRequest> = responses
                .iter()
                .filter(|(_, r, _)| r.status == 307)
                .map(|(_, _, e)| e.clone())
                .collect();
            let redone = self.drive_signed_batch(&hint, redo);
            let mut redone_iter = redone.into_iter();
            for slot in responses.iter_mut() {
                if slot.1.status == 307 {
                    let (_, r, e) = redone_iter.next().expect("redone response");
                    slot.1 = r;
                    slot.2 = e;
                }
            }
        }
        responses.into_iter().map(|(_, r, _)| r).collect()
    }

    /// Enqueues `envelopes` at `node_id` and steps virtual time until all
    /// tickets have responses. Returns (index, response, envelope) so the
    /// caller can retry forwarded entries.
    fn drive_signed_batch(
        &mut self,
        node_id: &NodeId,
        envelopes: Vec<ccf_governance::SignedRequest>,
    ) -> Vec<(usize, Response, ccf_governance::SignedRequest)> {
        let node = self.nodes[node_id].clone();
        let tickets: Vec<u64> = envelopes
            .iter()
            .map(|e| node.enqueue_signed_user_request(e.clone()))
            .collect();
        let mut out: Vec<Option<Response>> = vec![None; tickets.len()];
        for _ in 0..10_000 {
            if out.iter().all(Option::is_some) {
                break;
            }
            for (slot, ticket) in out.iter_mut().zip(&tickets) {
                if slot.is_none() {
                    *slot = node.take_signed_response(*ticket);
                }
            }
            if out.iter().all(Option::is_some) {
                break;
            }
            self.step();
        }
        envelopes
            .into_iter()
            .enumerate()
            .zip(out)
            .map(|((i, e), r)| (i, r.expect("queued signed request never answered"), e))
            .collect()
    }

    /// A request as a specific user id.
    pub fn user_request_as(
        &mut self,
        user: &str,
        node_idx: usize,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Response {
        let node = self
            .nodes
            .keys()
            .nth(node_idx % self.nodes.len())
            .cloned()
            .expect("node exists");
        let req = Request::new(method, path, Caller::User(user.to_string()), body);
        let resp = self.nodes[&node].handle_request(&req);
        if resp.status == 307 {
            let hint = String::from_utf8_lossy(&resp.body).to_string();
            if let Some(primary) = self.nodes.get(&hint) {
                let forwarded = primary.handle_request(&req);
                if let Some(txid) = forwarded.txid {
                    let trace = primary.trace_of(txid);
                    self.obs.trace_mark(
                        trace,
                        ccf_obs::SpanId::NONE,
                        "forward",
                        self.obs.node_ref(&node),
                    );
                }
                return forwarded;
            }
        }
        resp
    }

    // ------------------------------------------------------------------
    // Governance (member tooling)
    // ------------------------------------------------------------------

    fn bump_nonce(&mut self, member: &str) -> u64 {
        let m = self.members.get_mut(member).expect("member exists");
        let n = m.next_nonce;
        m.next_nonce += 1;
        n
    }

    /// Submits `proposal` signed by the first member. Returns (id, state).
    pub fn propose(&mut self, proposal: Proposal) -> (String, ProposalState) {
        let member = self.members.keys().next().cloned().expect("members exist");
        self.propose_as(&member, proposal)
    }

    /// Submits `proposal` signed by `member`.
    pub fn propose_as(&mut self, member: &str, proposal: Proposal) -> (String, ProposalState) {
        let nonce = self.bump_nonce(member);
        let primary = self.primary().expect("no primary for proposal");
        let key = &self.members[member].signing;
        let resp = self.nodes[&primary].submit_proposal(key, &proposal, nonce);
        assert_eq!(resp.status, 200, "proposal failed: {}", resp.text());
        let doc = ccf_script::parse_json(&resp.text()).expect("proposal response json");
        let id = doc.get("proposal_id").unwrap().as_str().unwrap().to_string();
        let state = ProposalState::parse(doc.get("state").unwrap().as_str().unwrap()).unwrap();
        (id, state)
    }

    /// Every member submits an approving ballot until accepted.
    pub fn vote_all(&mut self, proposal_id: &str) -> ProposalState {
        let member_ids: Vec<String> = self.members.keys().cloned().collect();
        let mut last = ProposalState::Open;
        for m in member_ids {
            let nonce = self.bump_nonce(&m);
            let primary = self.primary().expect("no primary for ballot");
            let key = &self.members[&m].signing;
            let resp = self.nodes[&primary].submit_ballot(key, proposal_id, &Ballot::approve(), nonce);
            if resp.status != 200 {
                // Proposal may already be closed (accepted) — stop.
                break;
            }
            let doc = ccf_script::parse_json(&resp.text()).unwrap();
            last = ProposalState::parse(doc.get("state").unwrap().as_str().unwrap()).unwrap();
            if last.is_final() {
                break;
            }
        }
        last
    }

    /// Proposes and gets majority approval in one call, then waits for the
    /// commit. Returns the proposal state.
    pub fn propose_and_accept(&mut self, proposal: Proposal) -> ProposalState {
        let (pid, state) = self.propose(proposal);
        let state = if state.is_final() { state } else { self.vote_all(&pid) };
        self.run_for(200);
        state
    }

    // ------------------------------------------------------------------
    // Service facts
    // ------------------------------------------------------------------

    /// The service identity (Table 1).
    pub fn service_identity(&self) -> VerifyingKey {
        self.service_identity.clone().expect("service started")
    }

    /// Fetches a receipt for a committed transaction from any live node.
    pub fn receipt(&self, txid: TxId) -> Option<Receipt> {
        for id in self.live_nodes() {
            if let Some(r) = self.nodes[id].receipt(txid) {
                return Some(r);
            }
        }
        None
    }
}
