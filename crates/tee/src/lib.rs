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
//! * [`channel`] — authenticated encrypted node-to-node channels
//!   (X25519 + HKDF + AES-256-GCM), standing in for the paper's
//!   Diffie-Hellman node-to-node encryption (§7).
//!
//! CCF's host↔enclave ringbuffer pair (§7) is not modelled: nodes are
//! in-process, and the untrusted host's view is the ledger chunks and
//! consensus messages the node hands out (DESIGN.md §3).
//!
//! Nor is SGX's performance cost: a node runs at native speed, and
//! `ccf-bench` derives Table 5's SGX column from the request time it
//! measures (DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;

pub use attestation::{AttestationReport, CodeId, HardwareRoot};
