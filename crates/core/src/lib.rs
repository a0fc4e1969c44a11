//! The Confidential Consortium Framework, reproduced in Rust.
//!
//! This crate is the paper's primary contribution: a framework that turns
//! *application logic* — a set of endpoints over a transactional key-value
//! store — into a confidential, integrity-protected, highly available
//! multiparty service (paper §1–§2). It composes every substrate in this
//! workspace:
//!
//! | Layer | Crate |
//! |---|---|
//! | cryptography | `ccf-crypto` |
//! | transactional kv store (CHAMP snapshots, write sets) | `ccf-kv` |
//! | Merkle ledger, receipts, ledger secrets | `ccf-ledger` |
//! | consensus (CCF's Raft variant) | `ccf-consensus` |
//! | TEE simulation (attestation, node channels) | `ccf-tee` |
//! | governance (constitution, proposals, recovery shares) | `ccf-governance` |
//! | script runtime (QuickJS stand-in) | `ccf-script` |
//! | deterministic network simulation | `ccf-sim` |
//!
//! # Quick start
//!
//! ```
//! use ccf_core::app::{AppResult, Application, EndpointDef};
//! use ccf_core::service::{ServiceCluster, ServiceOpts};
//! use std::sync::Arc;
//!
//! // 1. Application logic: endpoints over the kv store.
//! fn app() -> Application {
//!     Application::new("logging v1")
//!         .endpoint(EndpointDef::write("POST", "/log", |ctx| {
//!             let (id, msg) = ctx.body_kv()?;
//!             ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
//!             AppResult::ok(b"stored".to_vec())
//!         }))
//!         .endpoint(EndpointDef::read("GET", "/log", |ctx| {
//!             let id = ctx.query("id")?;
//!             match ctx.get_private("msgs", id.as_bytes()) {
//!                 Some(v) => AppResult::ok(v),
//!                 None => AppResult::not_found("no such message"),
//!             }
//!         }))
//! }
//!
//! // 2. Start a three-node service with three consortium members.
//! let mut service = ServiceCluster::start(ServiceOpts {
//!     nodes: 3,
//!     members: 3,
//!     ..ServiceOpts::default()
//! }, Arc::new(app()));
//! service.open_service(); // members vote to open (§5.1)
//!
//! // 3. Users invoke endpoints; writes replicate; commits are provable.
//! let resp = service.user_request(0, "POST", "/log", b"42=hello world");
//! assert_eq!(resp.status, 200);
//! let txid = resp.txid.unwrap();
//! service.run_until_committed(txid);
//! let receipt = service.receipt(txid).expect("committed ⇒ receipt");
//! receipt.verify(&service.service_identity()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod chaos;
pub mod http;
pub mod indexer;
pub mod node;
pub mod recovery;
pub mod service;

pub use app::{Application, EndpointDef, Request, Response};
pub use node::{CcfNode, NodeOpts};
pub use service::{ServiceCluster, ServiceOpts};

/// Re-exports of the substrate crates, so applications depend only on
/// `ccf-core`.
pub mod prelude {
    pub use ccf_consensus::{NodeId, Seqno, TxStatus, View};
    pub use ccf_crypto::{SigningKey, VerifyingKey};
    pub use ccf_governance::{Ballot, Proposal, ProposalState};
    pub use ccf_kv::{MapName, Store, Transaction};
    pub use ccf_ledger::{Receipt, TxId};
    pub use ccf_script::Value;
}
