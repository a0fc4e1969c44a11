//! AES-256-GCM authenticated encryption (NIST SP 800-38D).
//!
//! The paper encrypts private-map updates on the ledger, indexer spill
//! files, and node-to-node payloads with AES256-GCM (§7); this module is
//! that primitive. Nonces are 96-bit; callers derive them deterministically
//! from transaction IDs so a (key, nonce) pair is never reused.
//!
//! [`AesGcm256`] runs CTR keystream generation on the T-table AES
//! ([`crate::aes::Aes`]), four counter blocks per loop iteration, and
//! GHASH via per-byte-position Shoup tables: sixteen 256-entry tables of
//! byte·H products, built once per key in [`AesGcm256::new`] from the
//! bit-by-bit GF(2^128) multiply, turning the 128-iteration per-block loop
//! into 16 independent lookups. The frozen seed pipeline (byte-wise AES,
//! bit-by-bit GHASH) lives in the dev-only `ccf-crypto-ref` crate, whose
//! tests assert seal/open are byte-identical across the two at every
//! chunk-boundary length; the SP 800-38D known-answer vectors pin both.

use crate::aes::Aes;
use crate::ct::ct_eq;
use crate::CryptoError;
use std::sync::OnceLock;

/// Multiplication in GF(2^128) with the GCM bit convention (leftmost bit
/// of the block is the coefficient of x^0), one bit per step. Only
/// [`AesGcm256::new`] calls it, to seed the per-key tables.
fn ghash_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z: u128 = 0;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// The key-independent reduction table for multiplying by x^8 in the GCM
/// field: `rtab[n]` is the reduction contribution of the low byte `n` that
/// an 8-bit right shift pushes out. Derived from the single-bit
/// step (shift right + conditional xor of 0xe1·x^120), which is
/// GF(2)-linear, so eight applications to the isolated byte give exactly
/// the correction term.
fn rtab() -> &'static [u128; 256] {
    static T: OnceLock<[u128; 256]> = OnceLock::new();
    T.get_or_init(|| {
        const R: u128 = 0xe1 << 120;
        let mut t = [0u128; 256];
        for (n, slot) in t.iter_mut().enumerate() {
            let mut v = n as u128;
            for _ in 0..8 {
                let lsb = v & 1;
                v >>= 1;
                if lsb == 1 {
                    v ^= R;
                }
            }
            *slot = v;
        }
        t
    })
}

/// An AES-256-GCM key.
pub struct AesGcm256 {
    aes: Aes,
    /// Per-byte-position Shoup tables: `m[p][b]` is the GHASH product of H
    /// with the block whose byte at u128 bit offset `8p` is `b` (all other
    /// bits zero). X·H is then 16 *independent* table lookups XORed
    /// together — no reduction chain at multiply time, so the loads
    /// pipeline. 64 KiB per key, paid once per cached context.
    m: Box<[[u128; 256]; 16]>,
}

/// Size in bytes of the GCM authentication tag.
pub const TAG_LEN: usize = 16;
/// Size in bytes of the GCM nonce.
pub const NONCE_LEN: usize = 12;

impl AesGcm256 {
    /// Prepares a GCM context from a 256-bit key: the AES key schedule plus
    /// the per-position byte·H tables. The top-position table is seeded
    /// with the bit-by-bit multiply via GF(2)-linearity — a byte is its high nibble at
    /// the same position plus its low nibble shifted down by x^4 — and each
    /// lower position is the one above multiplied by x^8, one reduction
    /// lookup per entry.
    pub fn new(key: &[u8; 32]) -> Self {
        let aes = Aes::new_256(key);
        let mut zero = [0u8; 16];
        aes.encrypt_block(&mut zero);
        let h = u128::from_be_bytes(zero);
        let mut nib = [0u128; 16];
        for (n, slot) in nib.iter_mut().enumerate() {
            *slot = ghash_mul((n as u128) << 124, h);
        }
        // One single-bit reduction step applied four times = multiply by
        // x^4, moving a nibble product one nibble position down.
        let shift4 = |mut v: u128| {
            const R: u128 = 0xe1 << 120;
            for _ in 0..4 {
                let lsb = v & 1;
                v >>= 1;
                if lsb == 1 {
                    v ^= R;
                }
            }
            v
        };
        let rt = rtab();
        let mut m = Box::new([[0u128; 256]; 16]);
        for b in 0..256 {
            m[15][b] = nib[b >> 4] ^ shift4(nib[b & 0xf]);
        }
        for p in (0..15).rev() {
            for b in 0..256 {
                let v = m[p + 1][b];
                m[p][b] = (v >> 8) ^ rt[(v & 0xff) as usize];
            }
        }
        AesGcm256 { aes, m }
    }

    /// X·H via the per-position tables: 16 independent lookups, one per
    /// byte of X, XORed together.
    #[inline]
    fn mul_h(&self, x: u128) -> u128 {
        let m = &*self.m;
        let mut z = 0u128;
        for (p, table) in m.iter().enumerate() {
            z ^= table[((x >> (8 * p)) & 0xff) as usize];
        }
        z
    }

    /// GHASH over `aad` then `ct` with the standard length block, on the
    /// table-driven multiply.
    fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        let mut y: u128 = 0;
        for data in [aad, ct] {
            let mut chunks = data.chunks_exact(16);
            for chunk in &mut chunks {
                y = self.mul_h(y ^ u128::from_be_bytes(chunk.try_into().unwrap()));
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut block = [0u8; 16];
                block[..rem.len()].copy_from_slice(rem);
                y = self.mul_h(y ^ u128::from_be_bytes(block));
            }
        }
        let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        self.mul_h(y ^ lens)
    }

    /// CTR keystream XOR, four counter blocks (64 bytes) generated per
    /// loop iteration so the round keys and T-tables stay hot.
    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        // J0 = nonce || 0x00000001; encryption starts at counter 2.
        let w0 = u32::from_be_bytes(nonce[0..4].try_into().unwrap());
        let w1 = u32::from_be_bytes(nonce[4..8].try_into().unwrap());
        let w2 = u32::from_be_bytes(nonce[8..12].try_into().unwrap());
        let mut counter: u32 = 2;
        let mut chunks = data.chunks_exact_mut(64);
        for chunk in &mut chunks {
            let ks = self.aes.encrypt4_words([
                [w0, w1, w2, counter],
                [w0, w1, w2, counter.wrapping_add(1)],
                [w0, w1, w2, counter.wrapping_add(2)],
                [w0, w1, w2, counter.wrapping_add(3)],
            ]);
            for (j, blk) in ks.iter().enumerate() {
                for (i, w) in blk.iter().enumerate() {
                    let at = j * 16 + i * 4;
                    let d = u32::from_be_bytes(chunk[at..at + 4].try_into().unwrap());
                    chunk[at..at + 4].copy_from_slice(&(d ^ w).to_be_bytes());
                }
            }
            counter = counter.wrapping_add(4);
        }
        for chunk in chunks.into_remainder().chunks_mut(16) {
            let s = self.aes.encrypt_words([w0, w1, w2, counter]);
            let mut ks = [0u8; 16];
            for (i, w) in s.iter().enumerate() {
                ks[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
            }
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = self.ghash(aad, ct);
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        self.aes.encrypt_block(&mut j0);
        (s ^ u128::from_be_bytes(j0)).to_be_bytes()
    }

    /// Encrypts `plaintext`, authenticating `aad`, returning ct || tag.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.ctr_xor(nonce, &mut out);
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `sealed` (ct || tag), verifying `aad`. Returns the plaintext
    /// or [`CryptoError::TagMismatch`] on any tampering.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength { expected: TAG_LEN, got: sealed.len() });
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expect = self.tag(nonce, aad, ct);
        if !ct_eq(&expect, tag) {
            return Err(CryptoError::TagMismatch);
        }
        let mut out = ct.to_vec();
        self.ctr_xor(nonce, &mut out);
        Ok(out)
    }
}

/// Derives a 96-bit nonce from a domain label and two counters (e.g. a
/// transaction's view and sequence number), guaranteeing uniqueness as long
/// as (a, b) pairs are unique within the label.
pub fn derive_nonce(label: u8, a: u64, b: u64) -> [u8; NONCE_LEN] {
    let mut n = [0u8; NONCE_LEN];
    n[0] = label;
    // 40 bits of a, 48 bits of b: plenty for views and sequence numbers.
    n[1..6].copy_from_slice(&a.to_be_bytes()[3..]);
    n[6..12].copy_from_slice(&b.to_be_bytes()[2..]);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::{from_hex, from_hex_array, to_hex};

    #[test]
    fn ghash_mul_identity_and_commutativity() {
        // The GCM field identity element is 0x80000...0 (x^0 with the
        // reflected convention).
        let one: u128 = 1 << 127;
        let a: u128 = 0x0123456789abcdef_fedcba9876543210;
        assert_eq!(ghash_mul(a, one), a);
        assert_eq!(ghash_mul(one, a), a);
        let b: u128 = 0xdeadbeefdeadbeef_0123456789abcdef;
        assert_eq!(ghash_mul(a, b), ghash_mul(b, a));
        // Distributivity over XOR (field law).
        let c: u128 = 0x1111222233334444_5555666677778888;
        assert_eq!(
            ghash_mul(a ^ b, c),
            ghash_mul(a, c) ^ ghash_mul(b, c)
        );
    }

    #[test]
    fn table_mul_matches_bitwise_mul() {
        // The table multiply must agree with the bit-by-bit multiply that
        // seeds it, for arbitrary operands (H exercised via a real context).
        let gcm = AesGcm256::new(&[0x42u8; 32]);
        let h = {
            let mut zero = [0u8; 16];
            crate::aes::Aes::new_256(&[0x42u8; 32]).encrypt_block(&mut zero);
            u128::from_be_bytes(zero)
        };
        let mut rng = crate::chacha::ChaChaRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut x = [0u8; 16];
            rng.fill_bytes(&mut x);
            let x = u128::from_be_bytes(x);
            assert_eq!(gcm.mul_h(x), ghash_mul(x, h));
        }
        // Edge operands.
        for x in [0u128, 1, 1 << 127, u128::MAX] {
            assert_eq!(gcm.mul_h(x), ghash_mul(x, h));
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let gcm = AesGcm256::new(&[7u8; 32]);
        let nonce = derive_nonce(1, 2, 3);
        let pt = b"private map update: credit account 42 by 100 USD";
        let aad = b"txid 2.3";
        let sealed = gcm.seal(&nonce, aad, pt);
        assert_eq!(sealed.len(), pt.len() + TAG_LEN);
        let opened = gcm.open(&nonce, aad, &sealed).unwrap();
        assert_eq!(opened, pt);
    }

    #[test]
    fn empty_plaintext() {
        let gcm = AesGcm256::new(&[1u8; 32]);
        let nonce = [0u8; 12];
        let sealed = gcm.seal(&nonce, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn tamper_detection() {
        let gcm = AesGcm256::new(&[9u8; 32]);
        let nonce = derive_nonce(0, 0, 1);
        let sealed = gcm.seal(&nonce, b"aad", b"payload");
        // Flip each byte of ciphertext and tag in turn.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert_eq!(gcm.open(&nonce, b"aad", &bad), Err(CryptoError::TagMismatch));
        }
        // Wrong AAD.
        assert_eq!(gcm.open(&nonce, b"aax", &sealed), Err(CryptoError::TagMismatch));
        // Wrong nonce.
        let other = derive_nonce(0, 0, 2);
        assert_eq!(gcm.open(&other, b"aad", &sealed), Err(CryptoError::TagMismatch));
        // Truncated.
        assert!(gcm.open(&nonce, b"aad", &sealed[..TAG_LEN - 1]).is_err());
    }

    #[test]
    fn distinct_nonces_produce_distinct_ciphertexts() {
        let gcm = AesGcm256::new(&[3u8; 32]);
        let a = gcm.seal(&derive_nonce(1, 0, 1), b"", b"same message");
        let b = gcm.seal(&derive_nonce(1, 0, 2), b"", b"same message");
        assert_ne!(a, b);
    }

    #[test]
    fn derive_nonce_unique() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..10u64 {
            for b in 0..10u64 {
                assert!(seen.insert(derive_nonce(5, a, b)));
            }
        }
        assert_ne!(derive_nonce(1, 2, 3), derive_nonce(2, 2, 3));
    }

    // ------------------------------------------------------------------
    // NIST SP 800-38D known-answer tests (the AES-256 test cases of the
    // GCM submission's appendix B, plus a CAVP AAD-only vector). The
    // frozen reference pipeline in `ccf-crypto-ref` is pinned by the same
    // vectors in its own tests.
    // ------------------------------------------------------------------

    fn check_kat(key_hex: &str, iv_hex: &str, aad_hex: &str, pt_hex: &str, ct_tag_hex: &str) {
        let key = from_hex_array::<32>(key_hex).unwrap();
        let iv = from_hex_array::<12>(iv_hex).unwrap();
        let aad = from_hex(aad_hex).unwrap();
        let pt = from_hex(pt_hex).unwrap();
        let fast = AesGcm256::new(&key);
        assert_eq!(to_hex(&fast.seal(&iv, &aad, &pt)), ct_tag_hex, "seal");
        let sealed = from_hex(ct_tag_hex).unwrap();
        assert_eq!(fast.open(&iv, &aad, &sealed).unwrap(), pt, "open");
        // Tag truncation must be rejected, never silently accepted.
        if sealed.len() > TAG_LEN {
            assert!(fast.open(&iv, &aad, &sealed[..sealed.len() - 1]).is_err());
        }
        assert!(fast.open(&iv, &aad, &sealed[..TAG_LEN - 1]).is_err());
    }

    #[test]
    fn sp800_38d_case13_empty_everything() {
        // Zero key, zero IV, no AAD, no plaintext: the tag is E_K(J0) ^ 0.
        check_kat(
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "530f8afbc74536b9a963b4f1c4cb738b",
        );
    }

    #[test]
    fn sp800_38d_case14_single_zero_block() {
        check_kat(
            "0000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "00000000000000000000000000000000",
            "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919",
        );
    }

    #[test]
    fn sp800_38d_case15_four_blocks_no_aad() {
        check_kat(
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad\
             b094dac5d93471bdec1a502270e3cc6c",
        );
    }

    #[test]
    fn sp800_38d_case16_partial_block_with_aad() {
        check_kat(
            "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662\
             76fc6ece0f4e1768cddf8853bb2d551b",
        );
    }

    #[test]
    fn cavp_aad_only_vector() {
        // NIST CAVP gcmEncryptExtIV256, PTlen=0, AADlen=128, count 0.
        check_kat(
            "78dc4e0aaf52d935c3c01eea57428f00ca1fd475f5da86a49c8dd73d68c8e223",
            "d79cf22d504cc793c3fb6c8a",
            "b96baa8c1c75a671bfb2d08d06be5f36",
            "",
            "3e5d486aa2e30b22e040b85723a06e76",
        );
    }

    #[test]
    fn nist_zero_key_structure() {
        // With the all-zero key and nonce, GCM of empty input is just
        // E_K(J0); cross-check tag length and determinism.
        let gcm = AesGcm256::new(&[0u8; 32]);
        let t1 = gcm.seal(&[0u8; 12], b"", b"");
        let t2 = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(t1, t2);
        assert_eq!(to_hex(&t1).len(), 32);
    }
}
