//! Property-based tests over the cryptographic primitives: roundtrips,
//! tamper-rejection, and algebraic laws over arbitrary inputs.

use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::gcm::AesGcm256;
use ccf_crypto::hex::{from_hex, to_hex};
use ccf_crypto::pem::{base64_decode, base64_encode, pem_decode, pem_encode};
use ccf_crypto::sha2::{sha256, Sha256};
use ccf_crypto::shamir;
use ccf_crypto::SigningKey;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
    }

    #[test]
    fn pem_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let pem = pem_encode("TEST BLOB", &data);
        let (label, decoded) = pem_decode(&pem).unwrap();
        prop_assert_eq!(label, "TEST BLOB");
        prop_assert_eq!(decoded, data);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        splits in proptest::collection::vec(0usize..1024, 0..5),
    ) {
        let mut h = Sha256::new();
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for cut in cuts {
            h.update(&data[prev..cut]);
            prev = cut;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn gcm_seal_open_roundtrip(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        plaintext in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = AesGcm256::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn gcm_rejects_any_single_bitflip(
        key in any::<[u8; 32]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let gcm = AesGcm256::new(&key);
        let nonce = [7u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", &plaintext);
        let idx = flip_byte % sealed.len();
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(gcm.open(&nonce, b"aad", &sealed).is_err());
    }

    #[test]
    fn ed25519_sign_verify_any_message(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let key = SigningKey::from_seed(seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
        // A different message must not verify.
        let mut other = msg.clone();
        other.push(0x42);
        prop_assert!(key.verifying_key().verify(&other, &sig).is_err());
    }

    #[test]
    fn shamir_any_threshold_subset(
        secret in proptest::collection::vec(any::<u8>(), 1..48),
        k in 1usize..5,
        extra in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let shares = shamir::split(&secret, k, n, &mut rng).unwrap();
        // Any k-subset reconstructs (take a pseudo-random one).
        let mut idx: Vec<usize> = (0..n).collect();
        // rotate deterministically by seed for subset variety
        idx.rotate_left((seed as usize) % n);
        let subset: Vec<_> = idx.into_iter().take(k).map(|i| shares[i].clone()).collect();
        prop_assert_eq!(shamir::combine(&subset).unwrap(), secret);
    }

    #[test]
    fn x25519_agreement_always_matches(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        use ccf_crypto::x25519::DhKeyPair;
        let ka = DhKeyPair::from_secret(a);
        let kb = DhKeyPair::from_secret(b);
        prop_assert_eq!(ka.agree(&kb.public), kb.agree(&ka.public));
    }

    #[test]
    fn scalar_ring_laws_hold(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
        use ccf_crypto::bignum::Scalar;
        let a = Scalar::from_bytes_reduced(&a);
        let b = Scalar::from_bytes_reduced(&b);
        let c = Scalar::from_bytes_reduced(&c);
        prop_assert_eq!(a.add(b), b.add(a));
        prop_assert_eq!(a.mul(b), b.mul(a));
        prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn field_laws_hold(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        use ccf_crypto::field25519::Fe;
        let a = Fe::from_bytes(&a);
        let b = Fe::from_bytes(&b);
        prop_assert_eq!(a.mul(b), b.mul(a));
        prop_assert_eq!(a.add(b), b.add(a));
        prop_assert_eq!(a.sub(a), Fe::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a.mul(a.invert()), Fe::ONE);
        }
    }

    #[test]
    fn invert_matches_fermat_on_raw_limbs(
        l0 in any::<u64>(),
        l1 in any::<u64>(),
        l2 in any::<u64>(),
        l3 in any::<u64>(),
    ) {
        // Arbitrary limbs, not from_bytes (which masks bit 255), so values
        // in [p, 2^256) reach the safegcd inversion too.
        use ccf_crypto::field25519::{Fe, P};
        let a = Fe([l0, l1, l2, l3]);
        let mut p_minus_2 = P;
        p_minus_2[0] -= 2;
        let inv = a.invert();
        prop_assert_eq!(inv, a.pow(&p_minus_2));
        if !a.is_zero() {
            prop_assert_eq!(a.mul(inv), Fe::ONE);
        }
    }

    // ------------------------------------------------------------------
    // Fast-path verification equivalence: the windowed Strauss–Shamir
    // verify and the batch verify must accept *exactly* the same
    // (message, signature, key) triples as the frozen seed double-and-add
    // pipeline (`ed25519::reference`).
    // ------------------------------------------------------------------

    #[test]
    fn fast_verify_agrees_with_reference_on_valid_and_tampered(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
        tamper_at in 0usize..64,
        tamper_bit in 0u8..8,
    ) {
        use ccf_crypto::ed25519::reference;
        use ccf_crypto::{Signature, SigningKey};
        let key = SigningKey::from_seed(seed);
        let vk = key.verifying_key();
        let sig = key.sign(&msg);
        // Valid triple: both paths accept.
        prop_assert!(vk.verify(&msg, &sig).is_ok());
        prop_assert!(reference::verify(&vk, &msg, &sig).is_ok());
        // Any single-bit corruption of the signature: the two paths must
        // still agree (almost always both reject; a flip in unused high
        // bits could be accepted by both — agreement is the property).
        let mut bad = sig.0;
        bad[tamper_at] ^= 1 << tamper_bit;
        let tampered = Signature(bad);
        prop_assert_eq!(
            vk.verify(&msg, &tampered).is_ok(),
            reference::verify(&vk, &msg, &tampered).is_ok(),
        );
        // Corrupted message: agreement again.
        let mut wrong_msg = msg.clone();
        wrong_msg.push(0x5a);
        prop_assert_eq!(
            vk.verify(&wrong_msg, &sig).is_ok(),
            reference::verify(&vk, &wrong_msg, &sig).is_ok(),
        );
    }

    #[test]
    fn non_canonical_s_rejected_by_both_paths(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use ccf_crypto::ed25519::reference;
        use ccf_crypto::{Signature, SigningKey};
        let key = SigningKey::from_seed(seed);
        let vk = key.verifying_key();
        let sig = key.sign(&msg);
        // Malleate: s' = s + L encodes the same residue but is
        // non-canonical; RFC 8032 verification must reject it.
        let mut bad = sig.0;
        let mut carry = 0u16;
        for (i, limb) in ccf_crypto::bignum::L.iter().enumerate() {
            for (j, lb) in limb.to_le_bytes().iter().enumerate() {
                let k = 32 + i * 8 + j;
                let sum = bad[k] as u16 + *lb as u16 + carry;
                bad[k] = sum as u8;
                carry = sum >> 8;
            }
        }
        prop_assert_eq!(carry, 0, "s + L must fit in 32 bytes");
        let malleated = Signature(bad);
        prop_assert!(vk.verify(&msg, &malleated).is_err());
        prop_assert!(reference::verify(&vk, &msg, &malleated).is_err());
        prop_assert!(ccf_crypto::verify_batch(&[(msg.as_slice(), &malleated, &vk)]).is_err());
    }

    #[test]
    fn batch_verify_is_exactly_the_conjunction_of_single_verifies(
        seed in any::<u64>(),
        n in 1usize..12,
        corrupt_mask in any::<u16>(),
    ) {
        use ccf_crypto::{verify_batch, Signature, SigningKey};
        use ccf_crypto::sha2::sha256;
        let keys: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(sha256(format!("batch-{seed}-{i}").as_bytes())))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("message {seed} {i}").into_bytes()).collect();
        let mut sigs: Vec<Signature> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        // Corrupt the subset of signatures selected by the mask.
        for (i, sig) in sigs.iter_mut().enumerate() {
            if corrupt_mask & (1 << i) != 0 {
                sig.0[(seed as usize + i) % 64] ^= 0x20;
            }
        }
        let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
        let triples: Vec<(&[u8], &Signature, &ccf_crypto::VerifyingKey)> = msgs
            .iter()
            .zip(&sigs)
            .zip(&vks)
            .map(|((m, s), v)| (m.as_slice(), s, v))
            .collect();
        let singles: Vec<bool> =
            triples.iter().map(|(m, s, v)| v.verify(m, s).is_ok()).collect();
        // The batch accepts iff every member verifies individually.
        prop_assert_eq!(verify_batch(&triples).is_ok(), singles.iter().all(|ok| *ok));
        // When the batch rejects, the per-signature fallback pinpoints
        // exactly the corrupted members.
        if !singles.iter().all(|ok| *ok) {
            let culprits: Vec<usize> = singles
                .iter()
                .enumerate()
                .filter(|(_, ok)| !**ok)
                .map(|(i, _)| i)
                .collect();
            let expected: Vec<usize> =
                (0..n).filter(|i| corrupt_mask & (1 << i) != 0).collect();
            prop_assert_eq!(culprits, expected);
        }
    }

    #[test]
    fn fast_gcm_equals_reference_oracle(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        plaintext in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        use ccf_crypto::gcm::reference;
        let fast = AesGcm256::new(&key);
        let slow = reference::AesGcm256::new(&key);
        let sealed_fast = fast.seal(&nonce, &aad, &plaintext);
        let sealed_slow = slow.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(&sealed_fast, &sealed_slow);
        // Cross-open: each pipeline accepts the other's ciphertext.
        prop_assert_eq!(fast.open(&nonce, &aad, &sealed_slow).unwrap(), plaintext.clone());
        prop_assert_eq!(slow.open(&nonce, &aad, &sealed_fast).unwrap(), plaintext);
        // Both reject the same tampered ciphertext.
        if !sealed_fast.is_empty() {
            let mut bad = sealed_fast;
            bad[0] ^= 1;
            prop_assert!(fast.open(&nonce, &aad, &bad).is_err());
            prop_assert!(slow.open(&nonce, &aad, &bad).is_err());
        }
    }

    #[test]
    fn fast_sha256_equals_reference_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        prop_assert_eq!(sha256(&data), ccf_crypto::sha2::reference::sha256(&data));
    }
}
