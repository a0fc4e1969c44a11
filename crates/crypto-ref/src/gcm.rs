//! The frozen seed AES-256-GCM pipeline: the byte-wise AES of
//! [`crate::aes`] and the bit-by-bit GF(2^128) multiply. The oracle for
//! `ccf_crypto::gcm::AesGcm256`'s table-driven GHASH and interleaved CTR
//! keystream.

use crate::aes::Aes;
use ccf_crypto::ct::ct_eq;
use ccf_crypto::gcm::{NONCE_LEN, TAG_LEN};
use ccf_crypto::CryptoError;

/// Multiplication in GF(2^128) with the GCM bit convention
/// (leftmost bit of the block is the coefficient of x^0).
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

/// GHASH over `aad` then `ct`, with the standard length block.
fn ghash(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y: u128 = 0;
    let mut absorb = |data: &[u8]| {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = ghash_mul(y ^ u128::from_be_bytes(block), h);
        }
    };
    absorb(aad);
    absorb(ct);
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    ghash_mul(y ^ lens, h)
}

/// An AES-256-GCM key on the frozen byte-wise pipeline.
pub struct AesGcm256 {
    aes: Aes,
    h: u128,
}

impl AesGcm256 {
    /// Prepares a reference GCM context from a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        let aes = Aes::new_256(key);
        let mut zero = [0u8; 16];
        aes.encrypt_block(&mut zero);
        AesGcm256 { aes, h: u128::from_be_bytes(zero) }
    }

    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        // J0 = nonce || 0x00000001; encryption starts at counter 2.
        let mut counter_block = [0u8; 16];
        counter_block[..12].copy_from_slice(nonce);
        let mut counter: u32 = 2;
        for chunk in data.chunks_mut(16) {
            counter_block[12..].copy_from_slice(&counter.to_be_bytes());
            let mut ks = counter_block;
            self.aes.encrypt_block(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = ghash(self.h, aad, ct);
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

    /// Decrypts `sealed` (ct || tag), verifying `aad`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_crypto::chacha::ChaChaRng;
    use ccf_crypto::gcm::derive_nonce;
    use ccf_crypto::hex::{from_hex, from_hex_array, to_hex};

    /// The NIST SP 800-38D AES-256 cases 13–16 and a CAVP AAD-only vector
    /// (gcmEncryptExtIV256, PTlen=0, AADlen=128, count 0), the same ones
    /// `ccf-crypto` checks its fast path against.
    #[test]
    fn reference_matches_sp800_38d_vectors() {
        let vectors = [
            (
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000000000000000000",
                "",
                "",
                "530f8afbc74536b9a963b4f1c4cb738b",
            ),
            (
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000000000000000000",
                "",
                "00000000000000000000000000000000",
                "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919",
            ),
            (
                "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
                "cafebabefacedbaddecaf888",
                "",
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad\
                 b094dac5d93471bdec1a502270e3cc6c",
            ),
            (
                "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
                "cafebabefacedbaddecaf888",
                "feedfacedeadbeeffeedfacedeadbeefabaddad2",
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
                "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662\
                 76fc6ece0f4e1768cddf8853bb2d551b",
            ),
            (
                "78dc4e0aaf52d935c3c01eea57428f00ca1fd475f5da86a49c8dd73d68c8e223",
                "d79cf22d504cc793c3fb6c8a",
                "b96baa8c1c75a671bfb2d08d06be5f36",
                "",
                "3e5d486aa2e30b22e040b85723a06e76",
            ),
        ];
        for (key, iv, aad, pt, ct_tag) in vectors {
            let oracle = AesGcm256::new(&from_hex_array::<32>(key).unwrap());
            let iv = from_hex_array::<12>(iv).unwrap();
            let aad = from_hex(aad).unwrap();
            let pt = from_hex(pt).unwrap();
            assert_eq!(to_hex(&oracle.seal(&iv, &aad, &pt)), ct_tag, "seal");
            let sealed = from_hex(ct_tag).unwrap();
            assert_eq!(oracle.open(&iv, &aad, &sealed).unwrap(), pt, "open");
        }
    }

    #[test]
    fn fast_and_reference_agree_on_boundary_lengths() {
        let mut rng = ChaChaRng::seed_from_u64(2024);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 255] {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            let mut pt = vec![0u8; len];
            rng.fill_bytes(&mut pt);
            let mut aad = vec![0u8; len % 40];
            rng.fill_bytes(&mut aad);
            let nonce = derive_nonce(9, 1, len as u64);
            let fast = ccf_crypto::AesGcm256::new(&key);
            let oracle = AesGcm256::new(&key);
            let a = fast.seal(&nonce, &aad, &pt);
            let b = oracle.seal(&nonce, &aad, &pt);
            assert_eq!(a, b, "len={len}");
            assert_eq!(oracle.open(&nonce, &aad, &a).unwrap(), pt);
            assert_eq!(fast.open(&nonce, &aad, &b).unwrap(), pt);
        }
    }
}
