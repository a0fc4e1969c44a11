//! The governance engine: proposal lifecycle over the kv store (§5.1).
//!
//! Every operation executes inside an open kv transaction on the primary
//! — so proposals, ballots, state changes, and applied actions all land
//! on the ledger atomically, in public maps, signed by the requesting
//! member (the envelope is preserved in `public:ccf.gov.history`).

use crate::actions;
use crate::constitution::ScriptConstitution;
use crate::envelope::SignedRequest;
use crate::proposal::{
    proposal_id_of, Ballot, Proposal, ProposalId, ProposalInfo, ProposalState,
};
use crate::{member_id, MemberId};
use ccf_crypto::VerifyingKey;
use ccf_kv::{builtin, MapName, Transaction};
use ccf_script::{parse_json, Value};
use std::collections::BTreeMap;

/// Errors from governance request processing.
#[derive(Debug, Clone, PartialEq)]
pub enum GovError {
    /// The envelope signature or purpose was invalid.
    BadEnvelope(String),
    /// The signer is not an active consortium member.
    NotAMember,
    /// The request body was malformed.
    BadRequest(String),
    /// The referenced proposal does not exist.
    UnknownProposal(ProposalId),
    /// The proposal is no longer open.
    ProposalClosed(ProposalState),
    /// The constitution rejected the proposal's actions.
    Validation(String),
}

impl std::fmt::Display for GovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GovError::BadEnvelope(m) => write!(f, "bad signed request: {m}"),
            GovError::NotAMember => write!(f, "signer is not an active consortium member"),
            GovError::BadRequest(m) => write!(f, "malformed request: {m}"),
            GovError::UnknownProposal(id) => write!(f, "unknown proposal {id}"),
            GovError::ProposalClosed(s) => write!(f, "proposal is {}", s.as_str()),
            GovError::Validation(m) => write!(f, "constitution rejected proposal: {m}"),
        }
    }
}

impl std::error::Error for GovError {}

fn map(name: &str) -> MapName {
    MapName::new(name)
}

/// The governance engine, parameterized by a constitution.
pub struct GovernanceEngine {
    constitution: ScriptConstitution,
}

impl GovernanceEngine {
    /// Creates an engine with the given constitution.
    pub fn new(constitution: ScriptConstitution) -> GovernanceEngine {
        GovernanceEngine { constitution }
    }

    /// Replaces the constitution (after a committed `set_constitution`).
    pub fn set_constitution(&mut self, constitution: ScriptConstitution) {
        self.constitution = constitution;
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Registers a consortium member directly (genesis only; later changes
    /// go through `set_member` proposals).
    pub fn genesis_add_member(
        tx: &mut Transaction,
        signing: &VerifyingKey,
        encryption_public: &[u8; 32],
    ) -> MemberId {
        let id = member_id(signing);
        tx.put(
            &map(builtin::MEMBERS_CERTS),
            id.as_bytes(),
            ccf_crypto::hex::to_hex(&signing.0).as_bytes(),
        );
        tx.put(
            &map(builtin::MEMBERS_ENC_KEYS),
            id.as_bytes(),
            ccf_crypto::hex::to_hex(encryption_public).as_bytes(),
        );
        id
    }

    /// Looks up an active member by signing key.
    pub fn member_of(tx: &Transaction, key: &VerifyingKey) -> Option<MemberId> {
        let id = member_id(key);
        let stored = tx.read(builtin::MEMBERS_CERTS, id.as_bytes())?;
        (stored == ccf_crypto::hex::to_hex(&key.0).as_bytes()).then_some(id)
    }

    /// The number of active members.
    pub fn active_member_count(tx: &Transaction) -> usize {
        let mut n = 0;
        tx.for_each(&map(builtin::MEMBERS_CERTS), |_, _| n += 1);
        n
    }

    /// All active member ids.
    pub fn members(tx: &Transaction) -> Vec<MemberId> {
        let mut out = Vec::new();
        tx.for_each(&map(builtin::MEMBERS_CERTS), |k, _| {
            if let Ok(id) = std::str::from_utf8(k) {
                out.push(id.to_string());
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // Proposal lifecycle
    // ------------------------------------------------------------------

    fn authenticate(
        &self,
        tx: &Transaction,
        envelope: &SignedRequest,
        purpose: &str,
    ) -> Result<MemberId, GovError> {
        envelope
            .verify_for(purpose)
            .map_err(|e| GovError::BadEnvelope(e.to_string()))?;
        Self::member_of(tx, &envelope.signer).ok_or(GovError::NotAMember)
    }

    fn record_history(tx: &mut Transaction, envelope: &SignedRequest) {
        let key = ccf_crypto::hex::to_hex(&ccf_crypto::sha2::sha256(&envelope.encode()));
        tx.put(&map(builtin::GOV_HISTORY), key.as_bytes(), &envelope.encode());
    }

    fn load_proposal(
        tx: &Transaction,
        id: &ProposalId,
    ) -> Result<(Proposal, ProposalInfo), GovError> {
        let pbytes = tx
            .read(builtin::PROPOSALS, id.as_bytes())
            .ok_or_else(|| GovError::UnknownProposal(id.clone()))?;
        let proposal = Proposal::from_json(
            std::str::from_utf8(pbytes).map_err(|_| GovError::BadRequest("utf8".into()))?,
        )
        .map_err(GovError::BadRequest)?;
        let ibytes = tx
            .read(builtin::PROPOSALS_INFO, id.as_bytes())
            .ok_or_else(|| GovError::UnknownProposal(id.clone()))?;
        let info = ProposalInfo::from_json(
            std::str::from_utf8(ibytes).map_err(|_| GovError::BadRequest("utf8".into()))?,
        )
        .map_err(GovError::BadRequest)?;
        Ok((proposal, info))
    }

    fn store_info(tx: &mut Transaction, id: &ProposalId, info: &ProposalInfo) {
        tx.put(&map(builtin::PROPOSALS_INFO), id.as_bytes(), info.to_json().as_bytes());
    }

    /// Submits a proposal (signed by a member). Returns its id and state
    /// (which may already be `Accepted` under constitutions that accept
    /// with zero ballots, e.g. operator rules).
    pub fn propose(
        &self,
        tx: &mut Transaction,
        envelope: &SignedRequest,
    ) -> Result<(ProposalId, ProposalState), GovError> {
        let proposer = self.authenticate(tx, envelope, "gov/proposals")?;
        let proposal = Proposal::from_json(
            std::str::from_utf8(&envelope.payload)
                .map_err(|_| GovError::BadRequest("payload is not utf8".into()))?,
        )
        .map_err(GovError::BadRequest)?;
        self.constitution
            .validate(&proposal)
            .map_err(|e| GovError::Validation(e.to_string()))?;
        let id = proposal_id_of(&envelope.encode());
        Self::record_history(tx, envelope);
        tx.put(&map(builtin::PROPOSALS), id.as_bytes(), proposal.to_json().as_bytes());
        let info = ProposalInfo::open(proposer);
        Self::store_info(tx, &id, &info);
        let state = self.resolve_and_maybe_apply(tx, &id)?;
        Ok((id, state))
    }

    /// Submits a ballot for an open proposal. Returns the new state.
    pub fn vote(
        &self,
        tx: &mut Transaction,
        proposal_id: &ProposalId,
        envelope: &SignedRequest,
    ) -> Result<ProposalState, GovError> {
        let member =
            self.authenticate(tx, envelope, &format!("gov/ballots/{proposal_id}"))?;
        let (_, mut info) = Self::load_proposal(tx, proposal_id)?;
        if info.state.is_final() {
            return Err(GovError::ProposalClosed(info.state));
        }
        let body = parse_json(
            std::str::from_utf8(&envelope.payload)
                .map_err(|_| GovError::BadRequest("payload is not utf8".into()))?,
        )
        .map_err(GovError::BadRequest)?;
        let script = body
            .get("ballot")
            .and_then(|b| b.as_str())
            .ok_or_else(|| GovError::BadRequest("body must be {\"ballot\": \"...\"}".into()))?;
        Self::record_history(tx, envelope);
        info.ballots.insert(member, Ballot::custom(script));
        Self::store_info(tx, proposal_id, &info);
        self.resolve_and_maybe_apply(tx, proposal_id)
    }

    /// Withdraws an open proposal (proposer only).
    pub fn withdraw(
        &self,
        tx: &mut Transaction,
        proposal_id: &ProposalId,
        envelope: &SignedRequest,
    ) -> Result<ProposalState, GovError> {
        let member =
            self.authenticate(tx, envelope, &format!("gov/withdraw/{proposal_id}"))?;
        let (_, mut info) = Self::load_proposal(tx, proposal_id)?;
        if info.state.is_final() {
            return Err(GovError::ProposalClosed(info.state));
        }
        if info.proposer != member {
            return Err(GovError::BadRequest("only the proposer may withdraw".into()));
        }
        Self::record_history(tx, envelope);
        info.state = ProposalState::Withdrawn;
        Self::store_info(tx, proposal_id, &info);
        Ok(ProposalState::Withdrawn)
    }

    /// Re-evaluates ballots, resolves, and applies if newly accepted.
    fn resolve_and_maybe_apply(
        &self,
        tx: &mut Transaction,
        proposal_id: &ProposalId,
    ) -> Result<ProposalState, GovError> {
        let (proposal, mut info) = Self::load_proposal(tx, proposal_id)?;
        if info.state.is_final() {
            return Ok(info.state);
        }
        // Evaluate every submitted ballot against the proposal (§5.1:
        // ballots are conditional on the proposal and the current state).
        let votes: BTreeMap<MemberId, bool> = info
            .ballots
            .iter()
            .map(|(m, b)| (m.clone(), b.evaluate(&proposal, &info.proposer)))
            .collect();
        let members = Self::active_member_count(tx);
        let state = self.constitution.resolve(&proposal, &info.proposer, &votes, members);
        match state {
            ProposalState::Open => Ok(ProposalState::Open),
            ProposalState::Accepted => {
                info.final_votes = votes;
                // Apply atomically: roll the write buffer back if any
                // action fails, leaving only the Failed marker.
                let savepoint = tx.save_writes();
                let applied = proposal
                    .actions
                    .iter()
                    .try_for_each(|action| actions::apply(action, tx, proposal_id));
                match applied {
                    Ok(()) => {
                        info.state = ProposalState::Accepted;
                        Self::store_info(tx, proposal_id, &info);
                        Ok(ProposalState::Accepted)
                    }
                    // The failure is recorded as the Failed state.
                    Err(_) => {
                        tx.restore_writes(savepoint);
                        info.state = ProposalState::Failed;
                        Self::store_info(tx, proposal_id, &info);
                        Ok(ProposalState::Failed)
                    }
                }
            }
            other => {
                info.final_votes = votes;
                info.state = other;
                Self::store_info(tx, proposal_id, &info);
                Ok(other)
            }
        }
    }

    /// Reads a proposal's current state.
    pub fn proposal_state(
        tx: &Transaction,
        proposal_id: &ProposalId,
    ) -> Result<ProposalState, GovError> {
        Ok(Self::load_proposal(tx, proposal_id)?.1.state)
    }
}

/// Convenience builders for signed governance requests (member tooling).
pub mod requests {
    use super::*;
    use ccf_crypto::SigningKey;

    /// Signs a proposal submission.
    pub fn propose(key: &SigningKey, proposal: &Proposal, nonce: u64) -> SignedRequest {
        SignedRequest::sign(key, "gov/proposals", proposal.to_json().as_bytes(), nonce)
    }

    /// Signs a ballot for `proposal_id`.
    pub fn ballot(
        key: &SigningKey,
        proposal_id: &ProposalId,
        ballot: &Ballot,
        nonce: u64,
    ) -> SignedRequest {
        let body = ccf_script::to_json(&Value::obj([(
            "ballot".to_string(),
            Value::str(ballot.script.clone()),
        )]));
        SignedRequest::sign(key, &format!("gov/ballots/{proposal_id}"), body.as_bytes(), nonce)
    }

    /// Signs a withdrawal.
    pub fn withdraw(key: &SigningKey, proposal_id: &ProposalId, nonce: u64) -> SignedRequest {
        SignedRequest::sign(key, &format!("gov/withdraw/{proposal_id}"), b"{}", nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_crypto::sha2::sha256;
    use ccf_crypto::SigningKey;
    use ccf_kv::Store;

    struct Ctx {
        store: Store,
        engine: GovernanceEngine,
        members: Vec<SigningKey>,
    }

    fn setup(n_members: usize) -> Ctx {
        let mut store = Store::new();
        let engine = GovernanceEngine::new(ScriptConstitution::default());
        let members: Vec<SigningKey> = (0..n_members)
            .map(|i| SigningKey::from_seed(sha256(format!("member{i}").as_bytes())))
            .collect();
        let mut tx = store.begin();
        for m in &members {
            GovernanceEngine::genesis_add_member(&mut tx, &m.verifying_key(), &[0u8; 32]);
        }
        store.apply_at(tx.into_write_set(), 1);
        Ctx { store, engine, members }
    }

    fn user_proposal() -> Proposal {
        Proposal::single(
            "set_user",
            Value::obj([
                ("user_id".to_string(), Value::str("alice")),
                ("cert".to_string(), Value::str("aabb")),
            ]),
        )
    }

    #[test]
    fn full_lifecycle_accept() {
        let ctx = setup(3);
        let mut tx = ctx.store.begin();
        let env = requests::propose(&ctx.members[0], &user_proposal(), 1);
        let (id, state) = ctx.engine.propose(&mut tx, &env).unwrap();
        assert_eq!(state, ProposalState::Open);

        // First ballot: still open (1 of 3).
        let b0 = requests::ballot(&ctx.members[0], &id, &Ballot::approve(), 2);
        assert_eq!(ctx.engine.vote(&mut tx, &id, &b0).unwrap(), ProposalState::Open);
        // Second ballot: strict majority → accepted and applied.
        let b1 = requests::ballot(&ctx.members[1], &id, &Ballot::approve(), 3);
        assert_eq!(ctx.engine.vote(&mut tx, &id, &b1).unwrap(), ProposalState::Accepted);
        assert_eq!(
            tx.get(&MapName::new(builtin::USERS_CERTS), b"alice"),
            Some(b"aabb".to_vec())
        );
        // Further ballots rejected (closed).
        let b2 = requests::ballot(&ctx.members[2], &id, &Ballot::approve(), 4);
        assert!(matches!(
            ctx.engine.vote(&mut tx, &id, &b2),
            Err(GovError::ProposalClosed(ProposalState::Accepted))
        ));
        // History recorded (proposal + 2 ballots).
        let mut history = 0;
        tx.for_each(&MapName::new(builtin::GOV_HISTORY), |_, _| history += 1);
        assert_eq!(history, 3);
    }

    #[test]
    fn rejection_by_majority_no() {
        let ctx = setup(3);
        let mut tx = ctx.store.begin();
        let env = requests::propose(&ctx.members[0], &user_proposal(), 1);
        let (id, _) = ctx.engine.propose(&mut tx, &env).unwrap();
        for (i, m) in ctx.members.iter().enumerate().take(2) {
            let b = requests::ballot(m, &id, &Ballot::reject(), 10 + i as u64);
            let state = ctx.engine.vote(&mut tx, &id, &b).unwrap();
            if i == 1 {
                assert_eq!(state, ProposalState::Rejected);
            }
        }
        // Nothing applied.
        assert_eq!(tx.get(&MapName::new(builtin::USERS_CERTS), b"alice"), None);
    }

    #[test]
    fn non_members_rejected() {
        let ctx = setup(2);
        let outsider = SigningKey::from_seed(sha256(b"outsider"));
        let mut tx = ctx.store.begin();
        let env = requests::propose(&outsider, &user_proposal(), 1);
        assert!(matches!(ctx.engine.propose(&mut tx, &env), Err(GovError::NotAMember)));
    }

    #[test]
    fn bad_signature_rejected() {
        let ctx = setup(2);
        let mut tx = ctx.store.begin();
        let mut env = requests::propose(&ctx.members[0], &user_proposal(), 1);
        env.nonce = 999; // breaks the signature
        assert!(matches!(ctx.engine.propose(&mut tx, &env), Err(GovError::BadEnvelope(_))));
    }

    #[test]
    fn conditional_ballots_decide_on_content() {
        let ctx = setup(1);
        let mut tx = ctx.store.begin();
        // A single-member consortium where the ballot only approves
        // set_user proposals.
        let cond = Ballot::custom(
            r#"function vote(proposal, proposer_id) {
                return proposal.actions[0].name == "set_user";
            }"#,
        );
        let env = requests::propose(&ctx.members[0], &user_proposal(), 1);
        let (id, _) = ctx.engine.propose(&mut tx, &env).unwrap();
        let b = requests::ballot(&ctx.members[0], &id, &cond, 2);
        assert_eq!(ctx.engine.vote(&mut tx, &id, &b).unwrap(), ProposalState::Accepted);

        // Same ballot on a different action: evaluates false → with one
        // member that's a majority-no → rejected.
        let other = Proposal::single(
            "set_recovery_threshold",
            Value::obj([("recovery_threshold".to_string(), Value::Num(2.0))]),
        );
        let env = requests::propose(&ctx.members[0], &other, 3);
        let (id2, _) = ctx.engine.propose(&mut tx, &env).unwrap();
        let b = requests::ballot(&ctx.members[0], &id2, &cond, 4);
        assert_eq!(ctx.engine.vote(&mut tx, &id2, &b).unwrap(), ProposalState::Rejected);
    }

    #[test]
    fn withdraw_only_by_proposer_while_open() {
        let ctx = setup(3);
        let mut tx = ctx.store.begin();
        let env = requests::propose(&ctx.members[0], &user_proposal(), 1);
        let (id, _) = ctx.engine.propose(&mut tx, &env).unwrap();
        // Someone else cannot withdraw.
        let w = requests::withdraw(&ctx.members[1], &id, 2);
        assert!(ctx.engine.withdraw(&mut tx, &id, &w).is_err());
        // The proposer can.
        let w = requests::withdraw(&ctx.members[0], &id, 3);
        assert_eq!(ctx.engine.withdraw(&mut tx, &id, &w).unwrap(), ProposalState::Withdrawn);
        // And voting afterwards fails.
        let b = requests::ballot(&ctx.members[1], &id, &Ballot::approve(), 4);
        assert!(matches!(ctx.engine.vote(&mut tx, &id, &b), Err(GovError::ProposalClosed(_))));
    }

    #[test]
    fn failed_application_rolls_back_writes() {
        let ctx = setup(1);
        let mut tx = ctx.store.begin();
        // Two actions: the first valid, the second applies to a missing
        // node → whole application must roll back.
        let p = Proposal::new(vec![
            crate::proposal::ActionInvocation {
                name: "set_user".into(),
                args: Value::obj([
                    ("user_id".to_string(), Value::str("bob")),
                    ("cert".to_string(), Value::str("cc")),
                ]),
            },
            crate::proposal::ActionInvocation {
                name: "transition_node_to_trusted".into(),
                args: Value::obj([("node_id".to_string(), Value::str("ghost"))]),
            },
        ]);
        let env = requests::propose(&ctx.members[0], &p, 1);
        let (id, _) = ctx.engine.propose(&mut tx, &env).unwrap();
        let b = requests::ballot(&ctx.members[0], &id, &Ballot::approve(), 2);
        assert_eq!(ctx.engine.vote(&mut tx, &id, &b).unwrap(), ProposalState::Failed);
        // The first action's write did NOT survive.
        assert_eq!(tx.get(&MapName::new(builtin::USERS_CERTS), b"bob"), None);
        // State is recorded as Failed.
        assert_eq!(
            GovernanceEngine::proposal_state(&tx, &id).unwrap(),
            ProposalState::Failed
        );
    }

    #[test]
    fn duplicate_identical_proposals_get_distinct_ids() {
        let ctx = setup(2);
        let mut tx = ctx.store.begin();
        let e1 = requests::propose(&ctx.members[0], &user_proposal(), 1);
        let e2 = requests::propose(&ctx.members[0], &user_proposal(), 2); // new nonce
        let (id1, _) = ctx.engine.propose(&mut tx, &e1).unwrap();
        let (id2, _) = ctx.engine.propose(&mut tx, &e2).unwrap();
        assert_ne!(id1, id2);
    }
}
