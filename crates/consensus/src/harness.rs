//! A seeded cluster harness: replicas wired through the `ccf-sim`
//! discrete-event network.
//!
//! Used by the consensus test-suite (elections, reconfiguration, fault
//! schedules), by `ccf-bench`'s Figure 9 availability experiment, and by
//! property tests that shake thousands of seeds looking for safety
//! violations. All randomness — timeouts, latency, drops — derives from
//! one seed, so failures replay exactly.

use crate::message::{Message, ReplicatedEntry};
use crate::replica::{ProposeError, Replica, ReplicaConfig, SignatureFactory};
use crate::{Config, NodeId, Seqno, View};
use ccf_crypto::Digest32;
use ccf_kv::{builtin, MapName, WriteSet};
use ccf_ledger::entry::EntryKind;
use ccf_ledger::{LedgerEntry, SignaturePayload, TxId};
use ccf_sim::{Input, NetConfig, SimNet};
use std::collections::BTreeMap;

/// A [`SignatureFactory`] backed by a real Ed25519 node key, producing
/// signature entries whose payload lands in the
/// `public:ccf.internal.signatures` map exactly as in the full system.
pub struct KeyedSignatureFactory {
    node_id: NodeId,
    key: ccf_crypto::SigningKey,
}

impl KeyedSignatureFactory {
    /// Creates a factory for `node_id` signing with `key`.
    pub fn new(node_id: impl Into<NodeId>, key: ccf_crypto::SigningKey) -> Self {
        KeyedSignatureFactory { node_id: node_id.into(), key }
    }

    /// The verifying key (for receipt checks in tests).
    pub fn verifying_key(&self) -> ccf_crypto::VerifyingKey {
        self.key.verifying_key()
    }
}

impl SignatureFactory for KeyedSignatureFactory {
    fn make_signature(&mut self, txid: TxId, root: Digest32) -> LedgerEntry {
        let payload = SignaturePayload {
            node_id: self.node_id.clone(),
            root,
            signature: self.key.sign(&SignaturePayload::signing_bytes(&root, txid)),
            node_public: self.key.verifying_key(),
        };
        let mut ws = WriteSet::new();
        ws.write(
            MapName::new(builtin::SIGNATURES),
            b"latest".to_vec(),
            payload.encode(),
        );
        LedgerEntry {
            txid,
            kind: EntryKind::Signature,
            public_ws: ws.encode(),
            private_ws_enc: Vec::new(),
            claims_digest: [0u8; 32],
        }
    }
}

/// Builds a plain user entry for tests/benches (no private part).
pub fn user_entry(txid: TxId, payload: &[u8]) -> ReplicatedEntry {
    traced_user_entry(txid, payload, ccf_obs::TraceId::NONE)
}

/// [`user_entry`] carrying a causal-trace id (DESIGN.md §12); the id
/// rides the entry through replication so every replica records its own
/// per-stage spans for it.
pub fn traced_user_entry(txid: TxId, payload: &[u8], trace: ccf_obs::TraceId) -> ReplicatedEntry {
    let mut ws = WriteSet::new();
    ws.write(MapName::new("public:app.data"), txid.seqno.to_le_bytes().to_vec(), payload.to_vec());
    ReplicatedEntry {
        entry: LedgerEntry {
            txid,
            kind: EntryKind::User,
            public_ws: ws.encode(),
            private_ws_enc: Vec::new(),
            claims_digest: [0u8; 32],
        },
        config: None,
        traces: if trace.is_none() { Vec::new() } else { vec![trace] },
    }
}

/// Builds a reconfiguration entry installing `config`.
pub fn reconfig_entry(txid: TxId, config: &Config) -> ReplicatedEntry {
    let mut ws = WriteSet::new();
    let members: Vec<u8> = config.iter().flat_map(|n| {
        let mut v = (n.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(n.as_bytes());
        v
    }).collect();
    ws.write(MapName::new(builtin::CONFIGURATIONS), txid.seqno.to_le_bytes().to_vec(), members);
    ReplicatedEntry {
        entry: LedgerEntry {
            txid,
            kind: EntryKind::Reconfiguration,
            public_ws: ws.encode(),
            private_ws_enc: Vec::new(),
            claims_digest: [0u8; 32],
        },
        config: Some(config.clone()),
        traces: Vec::new(),
    }
}

/// A cluster of replicas over a simulated network.
pub struct Cluster {
    /// The replicas, by node ID (crashed ones remain, frozen).
    pub replicas: BTreeMap<NodeId, Replica<KeyedSignatureFactory>>,
    /// The simulated network (and the run's clock and registry).
    pub net: SimNet<Message>,
    seed: u64,
    next_node_seed: u64,
}

impl Cluster {
    /// Creates a cluster of `n` nodes (`n0`..`n{n-1}`) with the given
    /// consensus config, network behaviour, and seed.
    pub fn new(n: usize, cfg: ReplicaConfig, net_cfg: NetConfig, seed: u64) -> Cluster {
        let obs = ccf_obs::Registry::new();
        let ids: Vec<NodeId> = (0..n).map(|i| format!("n{i}")).collect();
        let initial: Config = ids.iter().cloned().collect();
        let mut replicas = BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            let key = ccf_crypto::SigningKey::from_seed(
                ccf_crypto::sha2::sha256(format!("node-key-{seed}-{i}").as_bytes()),
            );
            let factory = KeyedSignatureFactory::new(id.clone(), key);
            let node_seed = seed * 1000 + i as u64;
            let replica =
                Replica::new(id.clone(), initial.clone(), cfg.clone(), node_seed, factory, &obs);
            replicas.insert(id.clone(), replica);
        }
        let net = SimNet::new(net_cfg, seed, &obs, Message::kind);
        Cluster { replicas, net, seed, next_node_seed: n as u64 }
    }

    /// Current virtual time (ms).
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// The observability registry shared by every replica and the
    /// network. Snapshot it to see where a run spent its virtual time.
    pub fn obs(&self) -> &ccf_obs::Registry {
        self.net.registry()
    }

    /// Adds a fresh (PENDING) node, optionally bootstrapped from a
    /// snapshot, with config `cfg`. Returns its ID.
    pub fn add_node(
        &mut self,
        id: impl Into<NodeId>,
        cfg: ReplicaConfig,
        snapshot: Option<crate::Snapshot>,
    ) -> NodeId {
        let id = id.into();
        let key = ccf_crypto::SigningKey::from_seed(ccf_crypto::sha2::sha256(
            format!("node-key-{}-{}", self.seed, self.next_node_seed).as_bytes(),
        ));
        self.next_node_seed += 1;
        let factory = KeyedSignatureFactory::new(id.clone(), key);
        let mut replica = Replica::join(
            id.clone(),
            cfg,
            self.seed * 1000 + self.next_node_seed,
            factory,
            snapshot,
            self.net.registry(),
        );
        replica.tick(self.now());
        self.replicas.insert(id.clone(), replica);
        id
    }

    /// Advances the simulation by one millisecond ([`SimNet::step`]). A
    /// replica's outbox is flushed only at its tick, never right after a
    /// receive, which is the schedule every pinned seed replays.
    /// Node-layer events are dropped: there is no node layer here, and
    /// every transition is already in the registry's flight recorder.
    pub fn step(&mut self) {
        self.net.step(&mut self.replicas, |_, replica, input| match input {
            Input::Receive { from, msg } => {
                replica.receive(&from, msg);
                Vec::new()
            }
            Input::Tick(now) => {
                replica.tick(now);
                replica.drain_events();
                replica.drain_outbox()
            }
        });
    }

    /// Runs until `pred` holds or `deadline_ms` of virtual time passes.
    /// Returns whether the predicate held.
    pub fn run_until(&mut self, deadline_ms: u64, mut pred: impl FnMut(&Cluster) -> bool) -> bool {
        let deadline = self.now() + deadline_ms;
        while self.now() < deadline {
            if pred(self) {
                return true;
            }
            self.step();
        }
        pred(self)
    }

    /// Runs for a fixed duration.
    pub fn run_for(&mut self, ms: u64) {
        for _ in 0..ms {
            self.step();
        }
    }

    /// The current primary, if exactly one live replica believes it is
    /// primary in the highest view.
    pub fn primary(&self) -> Option<NodeId> {
        let mut primaries: Vec<(&NodeId, View)> = self
            .replicas
            .iter()
            .filter(|(id, r)| !self.is_crashed(id) && r.is_primary())
            .map(|(id, r)| (id, r.view()))
            .collect();
        primaries.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        primaries.first().map(|&(id, _)| id.clone())
    }

    /// Proposes a user entry on the current primary. Returns the TxId.
    ///
    /// Every harness proposal is traced: a fresh [`ccf_obs::TraceId`] is
    /// minted (dense from 1, so same-seed runs assign identical ids) and
    /// piggybacked on the entry, giving consensus-level runs full
    /// per-stage causal traces without a node layer on top.
    pub fn propose(&mut self, payload: &[u8]) -> Result<TxId, ProposeError> {
        let primary = self
            .primary()
            .ok_or(ProposeError::NotPrimary(None))?;
        let trace = self.obs().mint_trace();
        let replica = self.replicas.get_mut(&primary).unwrap();
        replica.propose(|txid| traced_user_entry(txid, payload, trace))
    }

    /// Proposes a reconfiguration on the current primary.
    pub fn propose_reconfig(&mut self, config: &Config) -> Result<TxId, ProposeError> {
        let primary = self.primary().ok_or(ProposeError::NotPrimary(None))?;
        let replica = self.replicas.get_mut(&primary).unwrap();
        replica.propose(|txid| reconfig_entry(txid, config))
    }

    /// Forces a signature transaction on the primary.
    pub fn emit_signature(&mut self) {
        if let Some(primary) = self.primary() {
            self.replicas.get_mut(&primary).unwrap().emit_signature();
        }
    }

    /// Kills a node (crash fault: silent, permanent).
    pub fn crash(&mut self, id: &str) {
        self.net.crash(id);
    }

    /// Revives a crashed node with its in-memory state intact.
    ///
    /// Real CCF nodes never resume after a crash (§6.2) — they rejoin as
    /// fresh nodes — but for fault-injection a resume is strictly
    /// stronger than Raft-style persistence: the node returns with
    /// *exactly* the state it had, equivalent to a long full partition of
    /// that node, so every safety property must still hold.
    pub fn restart(&mut self, id: &str) {
        self.net.restart(id);
    }

    /// True if the node was crashed.
    pub fn is_crashed(&self, id: &str) -> bool {
        self.net.is_crashed(id)
    }

    /// IDs of live (non-crashed) nodes, in deterministic order.
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.replicas
            .keys()
            .filter(|id| !self.is_crashed(id))
            .cloned()
            .collect()
    }

    /// Commit seqno on each live node.
    pub fn commit_seqnos(&self) -> BTreeMap<NodeId, Seqno> {
        self.replicas
            .iter()
            .filter(|(id, _)| !self.is_crashed(id))
            .map(|(id, r)| (id.clone(), r.commit_seqno()))
            .collect()
    }

    /// The minimum commit seqno across live participating nodes.
    pub fn min_commit(&self) -> Seqno {
        self.commit_seqnos().values().copied().min().unwrap_or(0)
    }

    /// Checks the fundamental safety property: committed prefixes on all
    /// live nodes are identical (same TxIds in the same order). Panics
    /// with diagnostics on violation.
    pub fn assert_committed_prefixes_consistent(&self) {
        let live: Vec<_> = self
            .replicas
            .iter()
            .filter(|(id, _)| !self.is_crashed(id))
            .collect();
        for window in live.windows(2) {
            let (id_a, a) = window[0];
            let (id_b, b) = window[1];
            let common = a.commit_seqno().min(b.commit_seqno());
            for s in 1..=common {
                let ta = a.entry_at(s).map(|e| e.entry.txid);
                let tb = b.entry_at(s).map(|e| e.entry.txid);
                // Entries below a node's snapshot base are unavailable;
                // skip those (they were committed by construction).
                if let (Some(ta), Some(tb)) = (ta, tb) {
                    assert_eq!(
                        ta, tb,
                        "SAFETY VIOLATION: {id_a} and {id_b} disagree at committed seqno {s}"
                    );
                    // Stronger: full payload bytes must match, not just ids.
                    let da = a.entry_at(s).map(|e| e.entry.digest());
                    let db = b.entry_at(s).map(|e| e.entry.digest());
                    assert_eq!(
                        da, db,
                        "SAFETY VIOLATION: {id_a} and {id_b} have different payloads at {s}"
                    );
                }
            }
        }
    }
}
