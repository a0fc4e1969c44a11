//! The transactional key-value store at the heart of every CCF node (§3.3).
//!
//! The store consists of named *maps* — collections of key-value pairs —
//! each either **private** (updates encrypted before leaving the enclave)
//! or **public** (written to the ledger in plain text, e.g. all of CCF's
//! internal and governance maps, enabling offline audit).
//!
//! Maps are backed by a persistent CHAMP trie ([`champ`]) — the same data
//! structure the production CCF uses — giving O(1) snapshots: a state
//! kept for rollback or a snapshot (one `Arc` clone) stays as it was while
//! the store moves on.
//!
//! [`store::Store`] provides transactions ([`store::Transaction`]) that
//! borrow the store's state and buffer writes into a deterministic
//! [`writeset::WriteSet`] for the ledger. The borrow means nothing applies
//! while a transaction lives: a node runs one transaction at a time, so a
//! write set needs no validation before it is proposed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod champ;
pub mod codec;
pub mod store;
pub mod writeset;

pub use champ::ChampMap;
pub use store::{Store, Transaction};
pub use writeset::{MapWrites, WriteSet};

/// A map name, e.g. `public:ccf.gov.nodes.info` or `msgs` (private).
///
/// Following the paper (§3.3, §6.1): names starting with `public:` denote
/// maps whose updates are recorded on the ledger unencrypted; everything
/// else is private and encrypted with the ledger secret.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MapName(pub String);

impl MapName {
    /// Creates a map name.
    pub fn new(name: impl Into<String>) -> MapName {
        MapName(name.into())
    }

    /// True iff updates to this map appear on the ledger in plain text.
    pub fn is_public(&self) -> bool {
        self.0.starts_with("public:")
    }

    /// True iff updates to this map are encrypted with the ledger secret.
    pub fn is_private(&self) -> bool {
        !self.is_public()
    }

    /// True for CCF-internal and governance maps, which application code
    /// may read but never write.
    pub fn is_reserved(&self) -> bool {
        self.0.starts_with("public:ccf.") || self.0.starts_with("ccf.")
    }
}

impl std::fmt::Display for MapName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lets maps keyed by `MapName` be searched with a `&str`, such as a
/// [`builtin`] constant, without allocating a `MapName` (the derived
/// `Eq`, `Ord` and `Hash` agree with `str`'s).
impl std::borrow::Borrow<str> for MapName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for MapName {
    fn from(s: &str) -> MapName {
        MapName::new(s)
    }
}

/// Well-known built-in map names (Table 3 of the paper).
pub mod builtin {
    /// User certificates.
    pub const USERS_CERTS: &str = "public:ccf.gov.users.certs";
    /// Consortium member certificates.
    pub const MEMBERS_CERTS: &str = "public:ccf.gov.members.certs";
    /// Members' public encryption keys (for recovery shares).
    pub const MEMBERS_ENC_KEYS: &str = "public:ccf.gov.members.encryption_public_keys";
    /// Node identity certificates & properties.
    pub const NODES_INFO: &str = "public:ccf.gov.nodes.info";
    /// Code versions allowed to join.
    pub const NODES_CODE_IDS: &str = "public:ccf.gov.nodes.code_ids";
    /// Service identity certificate & status.
    pub const SERVICE_INFO: &str = "public:ccf.gov.service.info";
    /// Merkle roots and signatures (signature transactions).
    pub const SIGNATURES: &str = "public:ccf.internal.signatures";
    /// Serialized Merkle tree metadata for historical receipts.
    pub const TREE: &str = "public:ccf.internal.tree";
    /// Governance operations signed by members.
    pub const GOV_HISTORY: &str = "public:ccf.gov.history";
    /// The service constitution.
    pub const CONSTITUTION: &str = "public:ccf.gov.constitution";
    /// Script application logic modules.
    pub const MODULES: &str = "public:ccf.gov.modules";
    /// Script endpoint routing table.
    pub const ENDPOINTS: &str = "public:ccf.gov.endpoints";
    /// Open governance proposals.
    pub const PROPOSALS: &str = "public:ccf.gov.proposals";
    /// Status and ballots of governance proposals.
    pub const PROPOSALS_INFO: &str = "public:ccf.gov.proposals_info";
    /// The encrypted ledger secret.
    pub const LEDGER_SECRET: &str = "public:ccf.internal.ledger_secret";
    /// Encrypted shares to recover the ledger secret.
    pub const RECOVERY_SHARES: &str = "public:ccf.gov.recovery_shares";
    /// Configured recovery threshold k.
    pub const RECOVERY_THRESHOLD: &str = "public:ccf.gov.recovery_threshold";
    /// Reconfiguration marker map. Only the consensus harness's synthetic
    /// reconfiguration entries write it; a node's reconfiguration goes
    /// through governance (`nodes.info`).
    pub const CONFIGURATIONS: &str = "public:ccf.internal.configurations";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_name_visibility() {
        assert!(MapName::new("public:ccf.gov.users.certs").is_public());
        assert!(MapName::new("public:app.prices").is_public());
        assert!(MapName::new("msgs").is_private());
        assert!(!MapName::new("msgs").is_public());
    }

    #[test]
    fn reserved_names() {
        assert!(MapName::new(builtin::SIGNATURES).is_reserved());
        assert!(MapName::new("ccf.internal.x").is_reserved());
        assert!(!MapName::new("public:app.prices").is_reserved());
        assert!(!MapName::new("msgs").is_reserved());
    }
}
