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
use ccf_consensus::{NodeId, TxStatus, View};
use ccf_crypto::sha2::sha256;
use ccf_crypto::x25519::DhKeyPair;
use ccf_crypto::{SigningKey, VerifyingKey};
use ccf_governance::{member_id, Ballot, Proposal, ProposalState};
use ccf_ledger::{Receipt, TxId};
use ccf_script::Value;
use ccf_sim::{NetConfig, SimNet};
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

/// Options for starting a service. No option governs snapshots: a node
/// joins from one taken on demand ([`ServiceCluster::join_and_trust`]'s
/// `snapshot_from`), and no node makes them periodically.
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
    /// Master seed.
    pub seed: u64,
    /// Constitution script (None = default majority constitution).
    pub constitution: Option<String>,
    /// Recovery threshold k (clamped to member count).
    pub recovery_threshold: usize,
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
            seed: 1,
            constitution: None,
            recovery_threshold: 1,
        }
    }
}

/// A user session (§4.3): a caller pinned to a node; once a request has
/// been forwarded to the primary, all subsequent requests follow, and the
/// session terminates if that primary changes.
struct Session {
    node: NodeId,
    caller: Caller,
    forwarded_to: Option<(NodeId, View)>, // (primary, its view)
}

/// The running service.
pub struct ServiceCluster {
    /// All nodes ever started (including crashed/retired), by id.
    pub nodes: BTreeMap<NodeId, Arc<CcfNode>>,
    /// The simulated network. It also holds the virtual clock and the
    /// observability registry every node reports into.
    pub net: SimNet<Message>,
    /// Member key material, by member id.
    pub members: BTreeMap<String, MemberKeys>,
    app: Arc<Application>,
    opts_consensus: ReplicaConfig,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    service_identity: Option<VerifyingKey>,
    next_seed: u64,
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
                seed: opts.seed * 100,
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
            sessions: BTreeMap::new(),
            next_session: 0,
            service_identity: None,
            next_seed: 1,
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
        self.net.registry()
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
        let net = SimNet::new(NetConfig::default(), seed, node.obs(), Message::kind);
        ServiceCluster {
            nodes: BTreeMap::from([(node.id.clone(), node)]),
            net,
            members,
            app,
            opts_consensus: ReplicaConfig::default(),
            sessions: BTreeMap::new(),
            next_session: 0,
            service_identity,
            next_seed: 1,
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
                seed: self.next_seed * 7919,
                obs: self.obs().clone(),
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
                node.store_state().get(ccf_kv::builtin::SERVICE_INFO, b"status") == Some(b"Open")
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
        self.net.now()
    }

    /// One millisecond of virtual time ([`SimNet::step`]).
    pub fn step(&mut self) {
        self.net.step(&mut self.nodes, |_, node, input| node.step(input));
    }

    /// Runs for `ms` of virtual time.
    pub fn run_for(&mut self, ms: u64) {
        for _ in 0..ms {
            self.step();
        }
    }

    /// Runs until `pred` holds (true) or `deadline_ms` passes (false).
    pub fn run_until(&mut self, deadline_ms: u64, mut pred: impl FnMut(&ServiceCluster) -> bool) -> bool {
        let deadline = self.now() + deadline_ms;
        while self.now() < deadline {
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

    /// The current primary: of the live nodes that call themselves
    /// primary, the one in the highest view. A primary cut off from its
    /// quorum keeps the title until its leadership-ack window runs out,
    /// but a view has at most one primary.
    pub fn primary(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter(|(id, node)| !self.is_crashed(id) && node.is_primary())
            .max_by_key(|(_, node)| node.view())
            .map(|(id, _)| id.clone())
    }

    /// Live (non-crashed, non-retired) node ids.
    pub fn live_nodes(&self) -> Vec<&NodeId> {
        self.nodes
            .keys()
            .filter(|id| !self.is_crashed(id) && !self.nodes[*id].is_retired())
            .collect()
    }

    /// Crashes a node (silent, permanent — CCF nodes are ephemeral, §6.2).
    pub fn crash(&mut self, id: &str) {
        self.net.crash(id);
    }

    /// True if crashed.
    pub fn is_crashed(&self, id: &str) -> bool {
        self.net.is_crashed(id)
    }

    /// Revives a crashed node with its in-memory state intact (chaos
    /// harness only). Production CCF nodes never resume (§6.2); an
    /// in-memory resume is safety-equivalent to healing a long full
    /// partition of that node, so it is a valid — and stronger — fault
    /// for the nemesis to inject.
    pub fn restart(&mut self, id: &str) {
        self.net.restart(id);
    }

    // ------------------------------------------------------------------
    // Users
    // ------------------------------------------------------------------

    /// The live node at index `node_idx` (modulo the live count): a real
    /// client's TCP connect to a crashed node fails and it retries the
    /// next node (§6.3).
    fn live_node(&self, node_idx: usize) -> NodeId {
        let live: Vec<&NodeId> = self.nodes.keys().filter(|id| !self.is_crashed(id)).collect();
        live[node_idx % live.len()].clone()
    }

    /// Where to follow a 307 whose body is the leader `hint`: the hinted
    /// node if it is live, else the cluster's current primary, as a
    /// retrying client scanning nodes would find it (the hint goes stale
    /// when the old primary crashes). `None` when no primary is reachable.
    fn forward_target(&self, hint: &[u8]) -> Option<NodeId> {
        let hint = String::from_utf8_lossy(hint).to_string();
        if self.nodes.contains_key(&hint) && !self.is_crashed(&hint) {
            Some(hint)
        } else {
            self.primary()
        }
    }

    /// Opens a session for `user0` against node index `node_idx` (connect
    /// to any live node, §4.3).
    pub fn open_session(&mut self, node_idx: usize) -> u64 {
        self.open_session_as("user0", node_idx)
    }

    fn open_session_as(&mut self, user: &str, node_idx: usize) -> u64 {
        let node = self.live_node(node_idx);
        let id = self.next_session;
        self.next_session += 1;
        let caller = Caller::User(user.to_string());
        self.sessions.insert(id, Session { node, caller, forwarded_to: None });
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
        if self.is_crashed(&session.node) {
            return Response::error(503, "node unreachable; reconnect to another node");
        }
        // Session consistency: once forwarded, always forwarded — and if
        // the forwarding target is no longer primary of the view it was
        // pinned in, terminate the session.
        let target = match &session.forwarded_to {
            Some((primary, view)) => {
                if self.is_crashed(primary)
                    || self.nodes[primary].view() != *view
                    || !self.nodes[primary].is_primary()
                {
                    self.sessions.remove(&session_id);
                    return Response::error(503, "session terminated: primary changed");
                }
                primary.clone()
            }
            None => session.node.clone(),
        };
        let req = Request::new(method, path, session.caller.clone(), body);
        let resp = self.nodes[&target].handle_request(&req);
        if resp.status != 307 {
            return resp;
        }
        // Forward to the primary and pin the session (§4.3).
        let Some(primary) = self.forward_target(&resp.body) else {
            return Response::error(503, "no reachable primary");
        };
        let view = self.nodes[&primary].view();
        self.sessions.get_mut(&session_id).unwrap().forwarded_to = Some((primary.clone(), view));
        let forwarded = self.nodes[&primary].handle_request(&req);
        // The forwarding hop is a zero-duration stage on the request's
        // trace, attributed to the backup that issued the 307.
        if let Some(txid) = forwarded.txid {
            let trace = self.nodes[&primary].trace_of(txid);
            let obs = self.obs();
            obs.trace_mark(trace, ccf_obs::SpanId::NONE, "forward", obs.node_ref(&target));
        }
        forwarded
    }

    /// One-shot `user0` request against node index `node_idx`, following
    /// forwarding (convenience for tests/benches).
    pub fn user_request(&mut self, node_idx: usize, method: &str, path: &str, body: &[u8]) -> Response {
        self.user_request_as("user0", node_idx, method, path, body)
    }

    /// One-shot request as `user` against the live node at index
    /// `node_idx`, following forwarding like [`ServiceCluster::user_request`].
    pub fn user_request_as(
        &mut self,
        user: &str,
        node_idx: usize,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Response {
        let s = self.open_session_as(user, node_idx);
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

    /// Signs and submits one user request as a batch of one
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

    /// Submits pre-signed envelopes to node `node_idx` as one batch: the
    /// node verifies their signatures together and answers in the same
    /// call, with no virtual time passing. Requests a backup answers with
    /// 307 are sent once more, as one batch, to the primary it names.
    pub fn signed_user_requests(
        &mut self,
        node_idx: usize,
        envelopes: Vec<ccf_governance::SignedRequest>,
    ) -> Vec<Response> {
        let node_id = self.live_node(node_idx);
        let mut responses = self.nodes[&node_id].handle_signed_user_requests(&envelopes);
        // Follow forwarding: a backup answers 307 with a leader hint.
        let primary = responses
            .iter()
            .find(|r| r.status == 307)
            .and_then(|r| self.forward_target(&r.body));
        if let Some(primary) = primary {
            let (redo, slots): (Vec<_>, Vec<_>) = envelopes
                .into_iter()
                .zip(responses.iter_mut())
                .filter(|(_, r)| r.status == 307)
                .unzip();
            let redone = self.nodes[&primary].handle_signed_user_requests(&redo);
            for (slot, r) in slots.into_iter().zip(redone) {
                *slot = r;
            }
        }
        responses
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

    /// Submits `proposal` signed by `member`. Returns (id, state).
    pub fn propose_as(&mut self, member: &str, proposal: Proposal) -> (String, ProposalState) {
        self.try_propose_as(member, &proposal).unwrap_or_else(|e| panic!("proposal failed: {e}"))
    }

    /// [`ServiceCluster::propose_as`] without panicking: `Err` says why
    /// the proposal was not submitted (no primary, or the primary refused
    /// it).
    fn try_propose_as(
        &mut self,
        member: &str,
        proposal: &Proposal,
    ) -> Result<(String, ProposalState), String> {
        let primary = self.primary().ok_or("no primary for proposal")?;
        let nonce = self.bump_nonce(member);
        let key = &self.members[member].signing;
        let resp = self.nodes[&primary].submit_proposal(key, proposal, nonce);
        let doc = gov_reply(&resp)?;
        let id = doc.get("proposal_id").and_then(|v| v.as_str()).ok_or("no proposal_id")?;
        Ok((id.to_string(), proposal_state(&doc)?))
    }

    /// Every member submits an approving ballot in turn, stopping once the
    /// proposal is final, a ballot is refused (e.g. the proposal already
    /// closed) or no primary is reachable. Returns the last state a ballot
    /// reported.
    pub fn vote_all(&mut self, proposal_id: &str) -> ProposalState {
        let member_ids: Vec<String> = self.members.keys().cloned().collect();
        let mut last = ProposalState::Open;
        for m in member_ids {
            let Some(primary) = self.primary() else { break };
            let nonce = self.bump_nonce(&m);
            let key = &self.members[&m].signing;
            let resp = self.nodes[&primary].submit_ballot(key, proposal_id, &Ballot::approve(), nonce);
            match gov_reply(&resp).and_then(|doc| proposal_state(&doc)) {
                Ok(state) => last = state,
                Err(_) => break,
            }
            if last.is_final() {
                break;
            }
        }
        last
    }

    /// Submits `proposal` from the first member and, unless that settles
    /// it, has every member vote for it. Never panics: `Err` says why the
    /// proposal was not submitted.
    pub fn try_propose_and_vote(&mut self, proposal: &Proposal) -> Result<ProposalState, String> {
        let member = self.members.keys().next().cloned().ok_or("no members")?;
        let (pid, state) = self.try_propose_as(&member, proposal)?;
        Ok(if state.is_final() { state } else { self.vote_all(&pid) })
    }

    /// Proposes and gets majority approval in one call, then waits for the
    /// commit. Returns the proposal state.
    pub fn propose_and_accept(&mut self, proposal: Proposal) -> ProposalState {
        let state = self
            .try_propose_and_vote(&proposal)
            .unwrap_or_else(|e| panic!("proposal failed: {e}"));
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

/// The JSON body of a 200 governance response, or why there is none.
fn gov_reply(resp: &Response) -> Result<Value, String> {
    if resp.status != 200 {
        return Err(format!("{}: {}", resp.status, resp.text()));
    }
    ccf_script::parse_json(&resp.text()).map_err(|e| format!("bad response json: {e:?}"))
}

/// The `state` field of a governance response.
fn proposal_state(doc: &Value) -> Result<ProposalState, String> {
    doc.get("state")
        .and_then(|v| v.as_str())
        .and_then(ProposalState::parse)
        .ok_or_else(|| "response has no proposal state".to_string())
}
