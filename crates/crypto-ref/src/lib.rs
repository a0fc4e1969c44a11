//! Frozen seed implementations of `ccf-crypto`'s optimised primitives,
//! kept as equivalence oracles and benchmark baselines.
//!
//! * [`aes`] — byte-wise AES-256 (explicit SubBytes/ShiftRows/MixColumns).
//! * [`gcm`] — AES-256-GCM over that cipher with the bit-by-bit GF(2^128)
//!   multiply.
//! * [`sha2`] — SHA-256 with sequential rounds, a materialized 64-word
//!   schedule and byte-at-a-time padding.
//! * [`ed25519`] — double-and-add scalar multiplication, the doubling-table
//!   base-point multiplication and the seed signature verification.
//!
//! Each oracle carries its own copy of the seed code it needs — the S-box
//! and key schedule, the GHASH multiply, the SHA-256 constant derivation,
//! the extended-coordinate point arithmetic — so a fault in a fast path's
//! shared tables cannot hide as agreement. From `ccf-crypto` it uses only
//! the public API: the field and scalar arithmetic, SHA-512, the
//! constant-time compare and the key, signature and error types.
//!
//! Only tests and benchmarks depend on this crate; no node links it. Its
//! own tests pin each oracle with official known-answer vectors and assert
//! that the `ccf-crypto` fast path produces byte-identical outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ed25519;
pub mod gcm;
pub mod sha2;
