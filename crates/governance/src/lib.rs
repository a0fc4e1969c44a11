//! Multiparty governance (paper §5).
//!
//! A CCF service is *managed by a consortium*: operators run nodes, but
//! only the consortium members — via signed proposals and ballots,
//! adjudicated by a programmable constitution — can change who the users
//! are, what code may join, the application logic, or the constitution
//! itself. Everything here executes over the replicated key-value store,
//! in public maps, so governance is fully auditable offline (§6.2).
//!
//! * [`envelope`] — signed request envelopes (the COSE-Sign1 analog used
//!   for member requests; optionally for user requests too).
//! * [`proposal`] — proposals (sets of actions as JSON), ballots, and
//!   proposal lifecycle state.
//! * [`actions`] — the built-in governance actions of Table 4
//!   (`set_user`, `add_node_code`, `transition_node_to_trusted`, …).
//! * [`constitution`] — the CScript-programmable constitution; its
//!   default script accepts on a strict majority, mirroring
//!   [the default constitution](https://github.com/microsoft/CCF).
//! * [`engine`] — the governance engine: validates envelopes, records
//!   proposals/ballots in the governance maps, resolves and applies.
//! * [`recovery`] — recovery shares: Shamir-splitting the ledger-secret
//!   wrapping key to members' encryption keys, and reassembly during
//!   disaster recovery (§5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod constitution;
pub mod engine;
pub mod envelope;
pub mod proposal;
pub mod recovery;

pub use constitution::ScriptConstitution;
pub use engine::GovernanceEngine;
pub use envelope::SignedRequest;
pub use proposal::{Ballot, Proposal, ProposalId, ProposalState};

/// A member identifier: hex digest of the member's signing certificate.
pub type MemberId = String;

/// Computes a member's ID from their verifying key.
pub fn member_id(key: &ccf_crypto::VerifyingKey) -> MemberId {
    ccf_crypto::hex::to_hex(&ccf_crypto::sha2::sha256(&key.0))
}

/// Node status values stored in `public:ccf.gov.nodes.info` (Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Joined, attested, awaiting a governance decision.
    Pending,
    /// Part of the service (primary, backup, or candidate).
    Trusted,
    /// Removal committed at the consensus layer; shutting down (§4.5).
    Retiring,
    /// Fully removed.
    Retired,
}

impl NodeStatus {
    /// The string form stored in the map.
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeStatus::Pending => "Pending",
            NodeStatus::Trusted => "Trusted",
            NodeStatus::Retiring => "Retiring",
            NodeStatus::Retired => "Retired",
        }
    }

    /// Parses the string form.
    pub fn parse(s: &str) -> Option<NodeStatus> {
        match s {
            "Pending" => Some(NodeStatus::Pending),
            "Trusted" => Some(NodeStatus::Trusted),
            "Retiring" => Some(NodeStatus::Retiring),
            "Retired" => Some(NodeStatus::Retired),
            _ => None,
        }
    }
}

/// Service status values stored in `public:ccf.gov.service.info`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceStatus {
    /// Started, governance only, not yet accepting user requests.
    Opening,
    /// Fully open to users.
    Open,
    /// Recovering from ledger files; private state still sealed.
    Recovering,
}

impl ServiceStatus {
    /// The string form stored in the map.
    pub fn as_str(&self) -> &'static str {
        match self {
            ServiceStatus::Opening => "Opening",
            ServiceStatus::Open => "Open",
            ServiceStatus::Recovering => "Recovering",
        }
    }

    /// Parses the string form.
    pub fn parse(s: &str) -> Option<ServiceStatus> {
        match s {
            "Opening" => Some(ServiceStatus::Opening),
            "Open" => Some(ServiceStatus::Open),
            "Recovering" => Some(ServiceStatus::Recovering),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_string_roundtrips() {
        for s in [NodeStatus::Pending, NodeStatus::Trusted, NodeStatus::Retiring, NodeStatus::Retired]
        {
            assert_eq!(NodeStatus::parse(s.as_str()), Some(s));
        }
        for s in [ServiceStatus::Opening, ServiceStatus::Open, ServiceStatus::Recovering] {
            assert_eq!(ServiceStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(NodeStatus::parse("Bogus"), None);
    }

    #[test]
    fn member_ids_distinct() {
        let a = ccf_crypto::SigningKey::from_seed([1; 32]);
        let b = ccf_crypto::SigningKey::from_seed([2; 32]);
        assert_ne!(member_id(&a.verifying_key()), member_id(&b.verifying_key()));
        assert_eq!(member_id(&a.verifying_key()).len(), 64);
    }
}
