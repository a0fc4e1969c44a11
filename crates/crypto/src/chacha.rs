//! ChaCha20 (RFC 8439) and a deterministic random bit generator built on it.
//!
//! The DRBG seeds every source of randomness in the reproduction — key
//! generation, election timeouts, simulated network jitter — so that whole
//! cluster runs are reproducible from a single 32-byte seed.

/// The ChaCha20 block function: 512-bit output from key, counter and nonce.
fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let mut w = state;
    for _ in 0..10 {
        // Column rounds.
        quarter(&mut w, 0, 4, 8, 12);
        quarter(&mut w, 1, 5, 9, 13);
        quarter(&mut w, 2, 6, 10, 14);
        quarter(&mut w, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter(&mut w, 0, 5, 10, 15);
        quarter(&mut w, 1, 6, 11, 12);
        quarter(&mut w, 2, 7, 8, 13);
        quarter(&mut w, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let v = w[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// A deterministic random generator: the ChaCha20 keystream under a seed.
///
/// Not `rand`-compatible by design — this crate has no dependencies — but
/// provides the handful of sampling methods the rest of the workspace needs.
#[derive(Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    nonce: [u8; 12],
    counter: u32,
    buf: [u8; 64],
    used: usize,
}

impl ChaChaRng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng { key: seed, nonce: [0; 12], counter: 0, buf: [0; 64], used: 64 }
    }

    /// Convenience: seeds from a u64 (expanded through SHA-256).
    pub fn seed_from_u64(v: u64) -> Self {
        let seed = crate::sha2::sha256(&v.to_le_bytes());
        Self::from_seed(seed)
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            if self.used == 64 {
                self.buf = chacha20_block(&self.key, self.counter, &self.nonce);
                self.counter = self.counter.wrapping_add(1);
                self.used = 0;
            }
            *b = self.buf[self.used];
            self.used += 1;
        }
    }

    /// A uniformly random u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// A uniform value in `[0, bound)` using rejection sampling.
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniform value in `[lo, hi)`.
    pub fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.gen_range(hi - lo)
    }

    /// A uniform f64 in [0, 1).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A fresh 32-byte value, e.g. for key generation.
    pub fn gen_seed(&mut self) -> [u8; 32] {
        let mut s = [0u8; 32];
        self.fill_bytes(&mut s);
        s
    }

    /// Derives an independent child generator labelled by `label`,
    /// so subsystems can draw randomness without interleaving effects.
    pub fn fork(&mut self, label: &[u8]) -> ChaChaRng {
        let mut material = self.gen_seed().to_vec();
        material.extend_from_slice(label);
        ChaChaRng::from_seed(crate::sha2::sha256(&material))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn block_function_consistent_with_stream() {
        // The generator's stream is the keystream under its seed, nonce
        // zero, block by block from counter 0.
        let key = [0x42u8; 32];
        let nonce = [0u8; 12];
        let mut stream = vec![0u8; 130];
        ChaChaRng::from_seed(key).fill_bytes(&mut stream);
        let b0 = chacha20_block(&key, 0, &nonce);
        let b1 = chacha20_block(&key, 1, &nonce);
        let b2 = chacha20_block(&key, 2, &nonce);
        assert_eq!(&stream[..64], &b0[..]);
        assert_eq!(&stream[64..128], &b1[..]);
        assert_eq!(&stream[128..], &b2[..2]);
        // Distinct counters and nonces give distinct blocks.
        assert_ne!(b0, b1);
        assert_ne!(chacha20_block(&key, 0, &[8u8; 12])[..], b0[..]);
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 section 2.4.2: the first ciphertext block is the
        // plaintext XOR the keystream block at counter 1.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let keystream = chacha20_block(&key, 1, &nonce);
        let ciphertext: Vec<u8> = plaintext.iter().zip(keystream).map(|(p, k)| p ^ k).collect();
        assert_eq!(
            to_hex(&ciphertext[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
    }

    #[test]
    fn deterministic_and_fork_independent() {
        let mut a = ChaChaRng::seed_from_u64(7);
        let mut b = ChaChaRng::seed_from_u64(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut f1 = a.fork(b"x");
        let mut f2 = b.fork(b"y");
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = ChaChaRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.gen_range(7);
            assert!(v < 7);
            let w = rng.gen_range_in(10, 20);
            assert!((10..20).contains(&w));
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "badly skewed: {counts:?}");
        }
    }
}
