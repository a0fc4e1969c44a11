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
//! * [`ringbuffer`] — the host↔enclave boundary: a pair of SPSC
//!   ringbuffers carrying serialized messages, mirroring CCF's design of
//!   minimizing expensive TEE transitions by batching through shared
//!   memory rings.
//! * [`platform`] — the platform cost model: `Virtual` (no overhead, the
//!   paper's virtual mode) vs `SgxSim` (an injected cost proportional to
//!   each request's execution time, calibrated to the paper's observed
//!   SGX slowdown), used by the Table 5 experiment.
//! * [`channel`] — authenticated encrypted node-to-node channels
//!   (X25519 + HKDF + AES-256-GCM), standing in for the paper's
//!   Diffie-Hellman node-to-node encryption (§7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod channel;
pub mod platform;
pub mod ringbuffer;

pub use attestation::{AttestationReport, CodeId, HardwareRoot};
pub use platform::TeePlatform;
pub use ringbuffer::{RingBuffer, RingPair};
