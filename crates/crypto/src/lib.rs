//! From-scratch cryptographic primitives for the CCF reproduction.
//!
//! The offline crate registry used for this reproduction carries no
//! cryptographic crates, and the goal of the project is to build every
//! substrate the paper depends on. This crate therefore implements, in pure
//! Rust with no dependencies:
//!
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4), with round constants
//!   *derived at runtime* from the fractional parts of the square/cube roots
//!   of the first primes, so the tables cannot be mis-transcribed. SHA-256
//!   has a fully unrolled compression function plus fixed-input digests
//!   ([`sha2::sha256_fixed64`] / [`sha2::sha256_fixed65`]) for the Merkle
//!   hot path; the seed pipeline is frozen as [`sha2::reference`].
//! * [`hmac`] — HMAC (RFC 2104) and HKDF (RFC 5869) over either hash.
//! * [`aes`] — AES-128/256 block cipher (FIPS 197); the S-box is derived
//!   from the GF(2^8) inverse + affine map rather than hardcoded, and the
//!   encrypt direction runs on 32-bit T-tables derived from that S-box.
//!   The byte-wise seed cipher is frozen as [`aes::reference`].
//! * [`gcm`] — AES-GCM authenticated encryption (NIST SP 800-38D) with
//!   Shoup 4-bit-table GHASH and multi-block CTR keystream generation; the
//!   bit-by-bit seed pipeline is frozen as [`gcm::reference`].
//!
//! The fast/reference split follows the pattern set by [`ed25519`] in PR 1:
//! every optimised path keeps its original implementation as a frozen
//! oracle, and equivalence is enforced by property tests plus official
//! known-answer vectors.
//! * [`chacha`] — ChaCha20 (RFC 8439) used as a deterministic random bit
//!   generator ([`chacha::ChaChaRng`]).
//! * [`ed25519`] — Ed25519 signatures (RFC 8032) over a from-scratch
//!   Curve25519 field ([`field25519`]) and a bignum scalar ring ([`bignum`]).
//!   Signing multiplies the base point with signed radix-256 digits against
//!   a once-built table (at most 32 additions, no doublings); the seed
//!   double-and-add paths are frozen as [`ed25519::reference`].
//! * [`x25519`] — X25519 Diffie-Hellman (RFC 7748) and an ECIES-style
//!   sealed box used for governance recovery shares.
//! * [`shamir`] — Shamir k-of-n secret sharing over GF(2^8) (per byte).
//!
//! # Security disclaimer
//!
//! This code exists to reproduce a research paper. It is **not** audited,
//! not constant-time in several places, and must not be used to protect
//! real data. The *protocols built on top of it* are the object of study.
//! Among the variable-time paths: signing's fixed-base multiplication
//! (table lookups indexed by secret nonce digits) and the safegcd field
//! inversion ([`field25519::Fe::invert`]), which `compress` runs on a Z
//! derived from that nonce and X25519 on its ladder output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod chacha;
pub mod ct;
pub mod ed25519;
pub mod field25519;
pub mod gcm;
pub mod hex;
pub mod hmac;
pub mod pem;
pub mod shamir;
pub mod sha2;
pub mod x25519;

pub use ed25519::{verify_batch, SigningKey, VerifyingKey, Signature};
pub use gcm::AesGcm256;
pub use sha2::{sha256, sha512, Sha256, Sha512};

/// A 32-byte SHA-256 digest, the unit of integrity throughout the ledger.
pub type Digest32 = [u8; 32];

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// An AEAD tag failed to verify (ciphertext or associated data tampered).
    TagMismatch,
    /// A signature failed to verify.
    BadSignature,
    /// An encoded public key / point was not a valid curve element.
    InvalidPoint,
    /// An input had the wrong length for the operation.
    InvalidLength {
        /// What the operation expected.
        expected: usize,
        /// What the caller supplied.
        got: usize,
    },
    /// Shamir reconstruction was given fewer shares than the threshold,
    /// duplicate x-coordinates, or inconsistent share lengths.
    BadShares(&'static str),
    /// Hex / PEM decoding failed.
    Encoding(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::InvalidPoint => write!(f, "invalid curve point encoding"),
            CryptoError::InvalidLength { expected, got } => {
                write!(f, "invalid length: expected {expected}, got {got}")
            }
            CryptoError::BadShares(why) => write!(f, "bad secret shares: {why}"),
            CryptoError::Encoding(why) => write!(f, "encoding error: {why}"),
        }
    }
}

impl std::error::Error for CryptoError {}
