//! A simulated trusted execution environment substrate (paper §2, §3, §7).
//!
//! The production CCF runs each node's trusted code inside an Intel SGX
//! enclave. This reproduction cannot assume SGX hardware, so this crate
//! simulates the *protocol-visible* properties of a TEE (see DESIGN.md's
//! substitution table):
//!
//! * [`attestation`] — measurements (code identities), attestation reports
//!   binding a measurement and report data under a simulated hardware
//!   root of trust, and verification. This is what CCF's join protocol
//!   checks against `nodes.code_ids` before sharing service secrets.
//! * [`platform`] — the platform cost model: `Virtual` (no overhead, the
//!   paper's virtual mode) vs `SgxSim` (an injected cost proportional to
//!   each request's execution time, calibrated to the paper's observed
//!   SGX slowdown), used by the Table 5 experiment.
//! * [`channel`] — authenticated encrypted node-to-node channels
//!   (X25519 + HKDF + AES-256-GCM), standing in for the paper's
//!   Diffie-Hellman node-to-node encryption (§7).
//!
//! CCF's host↔enclave ringbuffer pair (§7) is not modelled: nodes are
//! in-process, and the untrusted host's view is the ledger chunks and
//! consensus messages the node hands out (DESIGN.md §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;
pub mod platform;

pub use attestation::{AttestationReport, CodeId, HardwareRoot};
pub use platform::TeePlatform;
