//! The frozen byte-wise seed AES-256 (FIPS 197), encryption only: the
//! oracle for `ccf_crypto::aes::Aes`'s T-table rounds.
//!
//! The S-box derivation and the key schedule are this module's own copies,
//! so a fault in the fast path's tables or schedule shows up as a mismatch.

use std::sync::OnceLock;

const ROUNDS: usize = 14;

/// GF(2^8) multiplication with the AES reduction polynomial x^8+x^4+x^3+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// The S-box: the GF(2^8) inverse (via log/antilog tables on generator 3)
/// followed by the affine map.
#[allow(clippy::needless_range_loop)] // log/antilog tables index by the loop value
fn sbox() -> &'static [u8; 256] {
    static T: OnceLock<[u8; 256]> = OnceLock::new();
    T.get_or_init(|| {
        let mut alog = [0u8; 256];
        let mut log = [0u8; 256];
        let mut v: u8 = 1;
        for i in 0..255 {
            alog[i] = v;
            log[v as usize] = i as u8;
            v = gf_mul(v, 3);
        }
        alog[255] = 1;
        let inv = |x: u8| -> u8 {
            if x == 0 {
                0
            } else {
                alog[(255 - log[x as usize] as usize) % 255]
            }
        };
        let mut sbox = [0u8; 256];
        for x in 0..256 {
            let b = inv(x as u8);
            sbox[x] = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
        }
        sbox
    })
}

/// FIPS 197 key expansion for a 256-bit key (Nk = 8), byte by byte.
fn expand_round_keys(key: &[u8; 32]) -> Vec<[u8; 16]> {
    let sbox = sbox();
    let total_words = 4 * (ROUNDS + 1);
    let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
    for i in 0..8 {
        w.push(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let mut rcon: u8 = 1;
    for i in 8..total_words {
        let mut temp = w[i - 1];
        if i % 8 == 0 {
            temp.rotate_left(1);
            for b in temp.iter_mut() {
                *b = sbox[*b as usize];
            }
            temp[0] ^= rcon;
            rcon = gf_mul(rcon, 2);
        } else if i % 8 == 4 {
            for b in temp.iter_mut() {
                *b = sbox[*b as usize];
            }
        }
        let prev = w[i - 8];
        w.push([
            prev[0] ^ temp[0],
            prev[1] ^ temp[1],
            prev[2] ^ temp[2],
            prev[3] ^ temp[3],
        ]);
    }
    w.chunks(4)
        .map(|c| {
            let mut rk = [0u8; 16];
            for (i, word) in c.iter().enumerate() {
                rk[i * 4..i * 4 + 4].copy_from_slice(word);
            }
            rk
        })
        .collect()
}

/// An expanded AES-256 key for the byte-wise reference rounds.
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

impl Aes {
    /// Expands a 256-bit key (14 rounds).
    pub fn new_256(key: &[u8; 32]) -> Self {
        Aes { round_keys: expand_round_keys(key) }
    }

    /// Encrypts one 16-byte block in place, one byte operation at a time
    /// (the seed pipeline).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let sbox = sbox();
        xor16(block, &self.round_keys[0]);
        for r in 1..ROUNDS {
            sub_bytes(block, sbox);
            shift_rows(block);
            mix_columns(block);
            xor16(block, &self.round_keys[r]);
        }
        sub_bytes(block, sbox);
        shift_rows(block);
        xor16(block, &self.round_keys[ROUNDS]);
    }
}

fn xor16(block: &mut [u8; 16], key: &[u8; 16]) {
    for i in 0..16 {
        block[i] ^= key[i];
    }
}

fn sub_bytes(block: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in block.iter_mut() {
        *b = sbox[*b as usize];
    }
}

// State is column-major: byte index = 4*col + row.
fn shift_rows(b: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = b[1];
    b[1] = b[5];
    b[5] = b[9];
    b[9] = b[13];
    b[13] = t;
    // Row 2: shift left by 2.
    b.swap(2, 10);
    b.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = b[15];
    b[15] = b[11];
    b[11] = b[7];
    b[7] = b[3];
    b[3] = t;
}

fn mix_columns(b: &mut [u8; 16]) {
    for col in 0..4 {
        let i = col * 4;
        let (a0, a1, a2, a3) = (b[i], b[i + 1], b[i + 2], b[i + 3]);
        b[i] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
        b[i + 1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
        b[i + 2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
        b[i + 3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_crypto::chacha::ChaChaRng;
    use ccf_crypto::hex::{from_hex_array, to_hex};

    #[test]
    fn reference_matches_fips_vectors() {
        // FIPS 197 appendix C.3.
        let key =
            from_hex_array::<32>("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap();
        let mut block = from_hex_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        Aes::new_256(&key).encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "8ea2b7ca516745bfeafc49904b496089");
    }

    #[test]
    fn fast_path_matches_reference_on_random_blocks() {
        let mut rng = ChaChaRng::seed_from_u64(4242);
        for _ in 0..50 {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            let fast = ccf_crypto::aes::Aes::new_256(&key);
            let oracle = Aes::new_256(&key);
            for _ in 0..20 {
                let mut block = [0u8; 16];
                rng.fill_bytes(&mut block);
                let mut a = block;
                let mut b = block;
                fast.encrypt_block(&mut a);
                oracle.encrypt_block(&mut b);
                assert_eq!(a, b);
            }
        }
    }
}
