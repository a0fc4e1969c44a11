//! Disaster recovery (paper §5.2).
//!
//! When more than a minority of nodes is lost, consensus cannot make
//! progress; the service restarts *best-effort* from whatever ledger
//! files survive on (untrusted) persistent storage:
//!
//! 1. A node starts in recovery mode from the ledger chunks. The public
//!    parts are replayed; every signature transaction is re-verified
//!    (root recomputation + node signature + the signing node's standing
//!    in `nodes.info`), and any unverifiable suffix is discarded.
//! 2. The recovered service presents a **new service identity**, so the
//!    recovery — and any rollback it implies — is visible to users.
//! 3. Consortium members fetch their sealed recovery shares from the
//!    restored public state, decrypt them offline, and submit them; at
//!    the configured threshold the ledger-secret wrapping key is
//!    reconstructed, the ledger secrets unwrapped, and the private state
//!    decrypted and applied.
//! 4. Members then vote to open the new service, the proposal explicitly
//!    binding the old and new identities.

use crate::app::Application;
use crate::node::{CcfNode, NodeOpts, ServiceSecrets};
use crate::service::ServiceCluster;
use ccf_consensus::{ActiveConfig, Snapshot};
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::shamir::Share;
use ccf_crypto::{SigningKey, VerifyingKey};
use ccf_governance::actions::NodeInfo;
use ccf_governance::recovery::ShareCollector;
use ccf_governance::{MemberId, NodeStatus};
use ccf_kv::{builtin, MapName, Store};
use ccf_ledger::files::read_chunks;
use ccf_ledger::secrets::LedgerSecrets;
use ccf_ledger::{LedgerEntry, MerkleTree, TxId};

fn map(name: &str) -> MapName {
    MapName::new(name)
}

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryFailure {
    /// The chunks were unreadable or discontinuous.
    BadLedger(String),
    /// No verifiable signature transaction was found — nothing can be
    /// trusted.
    NothingVerifiable,
    /// Share submission / reconstruction error.
    Shares(ccf_governance::recovery::RecoveryError),
}

impl std::fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryFailure::BadLedger(m) => write!(f, "unreadable ledger: {m}"),
            RecoveryFailure::NothingVerifiable => {
                write!(f, "no verifiable signature transaction in the ledger")
            }
            RecoveryFailure::Shares(e) => write!(f, "share reconstruction: {e}"),
        }
    }
}

impl std::error::Error for RecoveryFailure {}

/// Phase 1–3 of disaster recovery: public replay, verification, share
/// collection, private decryption.
pub struct RecoveryCoordinator {
    /// Entries retained after verification (up to the last valid
    /// signature transaction).
    entries: Vec<LedgerEntry>,
    /// Public-only state (until shares reconstruct the secrets).
    store: Store,
    merkle: MerkleTree,
    view_history: Vec<(u64, u64)>,
    collector: ShareCollector,
    /// The previous service identity (hex), read from the recovered state.
    pub previous_identity: Option<String>,
    secrets: Option<LedgerSecrets>,
}

impl RecoveryCoordinator {
    /// Replays and verifies ledger chunk blobs (§5.2 step 1).
    pub fn from_ledger(blobs: &[Vec<u8>]) -> Result<RecoveryCoordinator, RecoveryFailure> {
        let mut entries =
            read_chunks(blobs).map_err(|e| RecoveryFailure::BadLedger(e.to_string()))?;
        let mut store = Store::new();
        let mut merkle = MerkleTree::new();
        let mut view_history: Vec<(u64, u64)> = Vec::new();
        let mut last_verified: usize = 0; // number of entries proven good
        let mut verified_state = None; // store state as of `last_verified`

        for (i, entry) in entries.iter().enumerate() {
            if entry.txid.seqno != i as u64 + 1 {
                return Err(RecoveryFailure::BadLedger(format!(
                    "sequence discontinuity at {}",
                    entry.txid
                )));
            }
            // Verify signature transactions as we go: the signed root must
            // equal the recomputed root over the preceding prefix, and the
            // signature must verify under the embedded node key, which in
            // turn must match a trusted node in the replayed `nodes.info`.
            if entry.is_signature() {
                let Ok(payload) = entry.signature_payload() else { break };
                if payload.root != merkle.root() {
                    break; // host tampered with the prefix
                }
                if payload.verify(entry.txid).is_err() {
                    break;
                }
                // The signer must be a registered node with this cert.
                let tx = store.begin();
                let registered = ccf_governance::actions::get_node_info(&tx, &payload.node_id)
                    .is_some_and(|info| {
                        info.cert == ccf_crypto::hex::to_hex(&payload.node_public.0)
                            && info.status != NodeStatus::Retired
                    })
                    // The genesis entry registers the first node within
                    // this very transaction; allow the bootstrap case.
                    || i == 0;
                if !registered {
                    break;
                }
            }
            // Apply the public part (absent for private-only transactions).
            let Ok(ws) = entry.public_writes() else { break };
            store.apply_at(ws, entry.txid.seqno);
            merkle.append(&entry.leaf_bytes());
            if view_history.last().is_none_or(|&(v, _)| v < entry.txid.view) {
                view_history.push((entry.txid.view, entry.txid.seqno));
            }
            if entry.is_signature() {
                last_verified = i + 1;
                verified_state = Some(store.snapshot());
            }
        }
        let Some(verified_state) = verified_state else {
            return Err(RecoveryFailure::NothingVerifiable);
        };
        // Best-effort: discard the unverified suffix (§5.2 — committed
        // transactions beyond the last surviving signature are lost).
        entries.truncate(last_verified);
        store.install((*verified_state).clone());
        merkle.truncate(last_verified as u64);
        view_history.retain(|&(_, start)| start <= last_verified as u64);
        let previous_identity = verified_state
            .get(builtin::SERVICE_INFO, b"cert")
            .map(|v| String::from_utf8_lossy(v).to_string());
        Ok(RecoveryCoordinator {
            entries,
            store,
            merkle,
            view_history,
            collector: ShareCollector::new(),
            previous_identity,
            secrets: None,
        })
    }

    /// Number of verified entries recovered.
    pub fn recovered_len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// A member fetches their sealed share from the recovered public
    /// state and decrypts it with their encryption key (member tooling).
    pub fn member_share(
        &self,
        member: &MemberId,
        enc: &ccf_crypto::x25519::DhKeyPair,
    ) -> Result<Share, ccf_governance::recovery::RecoveryError> {
        ccf_governance::recovery::decrypt_my_share(&self.store.begin(), member, enc)
    }

    /// Submits a member's share (§5.2 step 3).
    pub fn submit_share(&mut self, member: MemberId, share: Share) {
        self.collector.submit(member, share);
    }

    /// Shares submitted so far.
    pub fn shares_submitted(&self) -> usize {
        self.collector.count()
    }

    /// Attempts to reconstruct the ledger secrets and decrypt the private
    /// state. On success the coordinator holds the fully recovered state.
    pub fn try_complete(&mut self) -> Result<(), RecoveryFailure> {
        let secrets = self
            .collector
            .try_reconstruct(&self.store.begin())
            .map_err(RecoveryFailure::Shares)?;
        // Decrypt and apply every private write set, rebuilding the store
        // with both halves.
        let mut full = Store::new();
        for entry in &self.entries {
            let ws = entry
                .open(Some(&secrets))
                .map_err(|e| RecoveryFailure::BadLedger(format!("entry {}: {e}", entry.txid)))?;
            full.apply_at(ws, entry.txid.seqno);
        }
        self.store = full;
        self.secrets = Some(secrets);
        Ok(())
    }

    /// True once private state has been recovered.
    pub fn is_complete(&self) -> bool {
        self.secrets.is_some()
    }

    /// The recovered state (requires [`RecoveryCoordinator::try_complete`]).
    pub fn recovered_state(&self) -> &Store {
        &self.store
    }

    /// Builds the snapshot a fresh recovery node boots from, with the
    /// recovery node as the sole (new) configuration.
    fn recovery_snapshot(&self, node_id: &str) -> Snapshot {
        let last = self
            .entries
            .last()
            .map(|e| e.txid)
            .unwrap_or(TxId::ZERO);
        Snapshot {
            last_txid: last,
            kv_state: self.store.snapshot().serialize(),
            merkle_leaves: (0..self.merkle.len())
                .map(|i| *self.merkle.leaf(i).unwrap())
                .collect(),
            configs: vec![ActiveConfig {
                seqno: last.seqno,
                nodes: [node_id.to_string()].into_iter().collect(),
            }],
            view_history: self.view_history.clone(),
        }
    }
}

/// Phase 4: restart the service as a fresh cluster around the recovered
/// state, with a **new service identity**. Returns the cluster plus the
/// (old, new) identity pair that the opening proposal should bind.
pub fn restart_service(
    coordinator: &RecoveryCoordinator,
    app: std::sync::Arc<Application>,
    node_opts: NodeOpts,
    member_keys: std::collections::BTreeMap<String, crate::service::MemberKeys>,
    seed: u64,
) -> Result<(ServiceCluster, Option<String>, VerifyingKey), RecoveryFailure> {
    assert!(coordinator.is_complete(), "recover private state before restarting");
    let node_id = node_opts.id.clone();
    let snapshot = coordinator.recovery_snapshot(&node_id);
    let node = CcfNode::new_joining_node(node_opts, app.clone(), Some(snapshot));

    // New service identity (§5.2: "the newly recovered service will have a
    // new service identity, making it clear to users that a disaster
    // recovery has occurred").
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xDEAD);
    let new_service_key = SigningKey::generate(&mut rng);
    let new_identity = new_service_key.verifying_key();
    node.install_secrets(&ServiceSecrets {
        service_key_seed: new_service_key.seed(),
        ledger_secrets: coordinator.secrets.as_ref().unwrap().serialize(),
    });

    let mut cluster = ServiceCluster::assemble_recovered(node.clone(), member_keys, seed);
    // Single recovered node elects itself primary of the new config.
    assert!(
        cluster.run_until(30_000, |c| c.primary().is_some()),
        "recovered node failed to elect itself"
    );
    // Recovery genesis: retire all old nodes, trust the recovery node,
    // install the new service identity, mark Recovering.
    node.propose_internal(|tx| {
        let mut old_nodes: Vec<(String, NodeInfo)> = Vec::new();
        tx.for_each(&map(builtin::NODES_INFO), |k, v| {
            if let (Ok(id), Ok(text)) = (std::str::from_utf8(k), std::str::from_utf8(v)) {
                if let Some(info) = NodeInfo::from_json(text) {
                    old_nodes.push((id.to_string(), info));
                }
            }
        });
        for (id, mut info) in old_nodes {
            info.status = NodeStatus::Retired;
            ccf_governance::actions::put_node_info(tx, &id, &info);
        }
        ccf_governance::actions::put_node_info(
            tx,
            &node_id,
            &NodeInfo {
                status: NodeStatus::Trusted,
                cert: ccf_crypto::hex::to_hex(&node.node_public().0),
                code_id: node.code_id().to_hex(),
                enc_key: ccf_crypto::hex::to_hex(&node.enc_public()),
            },
        );
        tx.put(
            &map(builtin::SERVICE_INFO),
            b"cert",
            ccf_crypto::hex::to_hex(&new_identity.0).as_bytes(),
        );
        tx.put(
            &map(builtin::SERVICE_INFO),
            b"previous_cert",
            coordinator.previous_identity.clone().unwrap_or_default().as_bytes(),
        );
        tx.put(
            &map(builtin::SERVICE_INFO),
            b"status",
            ccf_governance::ServiceStatus::Recovering.as_str().as_bytes(),
        );
    })
    .map_err(|e| RecoveryFailure::BadLedger(format!("recovery genesis: {e}")))?;
    cluster.run_for(500);
    Ok((cluster, coordinator.previous_identity.clone(), new_identity))
}
