//! The AES-256 block cipher (FIPS 197), encryption only: GCM runs AES in
//! counter mode and never decrypts a block.
//!
//! The S-box is derived at first use from its mathematical definition — the
//! multiplicative inverse in GF(2^8) followed by the affine transform —
//! instead of being hardcoded, eliminating table transcription as a failure
//! mode. The FIPS 197 appendix C.3 known-answer test pins the result.
//!
//! Encryption uses the classic 32-bit T-table formulation: SubBytes +
//! ShiftRows + MixColumns for one output word collapse into four table
//! lookups and three XORs. The four tables are *derived* from the S-box
//! and the GF(2^8) arithmetic at first use, so they inherit the
//! no-transcription property. The frozen byte-wise seed cipher lives in
//! the dev-only `ccf-crypto-ref` crate, whose tests assert this path is
//! byte-identical to it on random blocks.
//!
//! Not constant-time (see the crate-level security disclaimer).

use std::sync::OnceLock;

/// Rounds of AES-256.
const ROUNDS: usize = 14;

/// GF(2^8) multiplication with the AES reduction polynomial x^8+x^4+x^3+x+1.
pub(crate) fn gf_mul(mut a: u8, mut b: u8) -> u8 {
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

#[allow(clippy::needless_range_loop)] // log/antilog tables index by the loop value
fn sbox() -> &'static [u8; 256] {
    static T: OnceLock<[u8; 256]> = OnceLock::new();
    T.get_or_init(|| {
        // Build the GF(2^8) inverse via log/antilog tables on generator 3.
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

/// The four encryption T-tables. `te[0][x]` packs the MixColumns column
/// produced by S-box output `S(x)` in row 0 — bytes `(2·S, S, S, 3·S)` from
/// most to least significant — and `te[j]` is `te[0]` byte-rotated right by
/// `j`, matching the row the byte lands in after ShiftRows.
struct EncTables {
    te: [[u32; 256]; 4],
}

fn enc_tables() -> &'static EncTables {
    static T: OnceLock<EncTables> = OnceLock::new();
    T.get_or_init(|| {
        let sbox = sbox();
        let mut te = [[0u32; 256]; 4];
        for (x, &s) in sbox.iter().enumerate() {
            let t0 = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            te[0][x] = t0;
            te[1][x] = t0.rotate_right(8);
            te[2][x] = t0.rotate_right(16);
            te[3][x] = t0.rotate_right(24);
        }
        EncTables { te }
    })
}

/// FIPS 197 key expansion for a 256-bit key (Nk = 8), as big-endian
/// words, four per round key — the form the T-table rounds consume.
fn expand_key(key: &[u8; 32]) -> [[u32; 4]; ROUNDS + 1] {
    let sbox = sbox();
    let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| sbox[b as usize]));
    let mut w = [0u32; 4 * (ROUNDS + 1)];
    for (i, word) in key.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(word.try_into().unwrap());
    }
    let mut rcon: u8 = 1;
    for i in 8..w.len() {
        let mut temp = w[i - 1];
        if i % 8 == 0 {
            temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
            rcon = gf_mul(rcon, 2);
        } else if i % 8 == 4 {
            temp = sub_word(temp);
        }
        w[i] = w[i - 8] ^ temp;
    }
    let mut keys = [[0u32; 4]; ROUNDS + 1];
    for (k, words) in keys.iter_mut().zip(w.chunks_exact(4)) {
        k.copy_from_slice(words);
    }
    keys
}

/// One full T-table round (SubBytes + ShiftRows + MixColumns + AddRoundKey)
/// over the state as four big-endian column words.
#[inline(always)]
fn t_round(te: &[[u32; 256]; 4], s: [u32; 4], k: &[u32; 4]) -> [u32; 4] {
    [
        te[0][(s[0] >> 24) as usize]
            ^ te[1][((s[1] >> 16) & 0xff) as usize]
            ^ te[2][((s[2] >> 8) & 0xff) as usize]
            ^ te[3][(s[3] & 0xff) as usize]
            ^ k[0],
        te[0][(s[1] >> 24) as usize]
            ^ te[1][((s[2] >> 16) & 0xff) as usize]
            ^ te[2][((s[3] >> 8) & 0xff) as usize]
            ^ te[3][(s[0] & 0xff) as usize]
            ^ k[1],
        te[0][(s[2] >> 24) as usize]
            ^ te[1][((s[3] >> 16) & 0xff) as usize]
            ^ te[2][((s[0] >> 8) & 0xff) as usize]
            ^ te[3][(s[1] & 0xff) as usize]
            ^ k[2],
        te[0][(s[3] >> 24) as usize]
            ^ te[1][((s[0] >> 16) & 0xff) as usize]
            ^ te[2][((s[1] >> 8) & 0xff) as usize]
            ^ te[3][(s[2] & 0xff) as usize]
            ^ k[3],
    ]
}

/// The final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
#[inline(always)]
fn last_round(sbox: &[u8; 256], s: [u32; 4], k: &[u32; 4]) -> [u32; 4] {
    let sub = |a: u32, b: u32, c: u32, d: u32| -> u32 {
        ((sbox[(a >> 24) as usize] as u32) << 24)
            | ((sbox[((b >> 16) & 0xff) as usize] as u32) << 16)
            | ((sbox[((c >> 8) & 0xff) as usize] as u32) << 8)
            | (sbox[(d & 0xff) as usize] as u32)
    };
    [
        sub(s[0], s[1], s[2], s[3]) ^ k[0],
        sub(s[1], s[2], s[3], s[0]) ^ k[1],
        sub(s[2], s[3], s[0], s[1]) ^ k[2],
        sub(s[3], s[0], s[1], s[2]) ^ k[3],
    ]
}

/// An expanded AES-256 key, ready for block encryption.
pub struct Aes {
    /// Round keys as big-endian words, the form the T-table rounds consume.
    enc_keys: [[u32; 4]; ROUNDS + 1],
}

impl Aes {
    /// Expands a 256-bit key (14 rounds).
    pub fn new_256(key: &[u8; 32]) -> Self {
        Aes { enc_keys: expand_key(key) }
    }

    /// One encryption over the state as four big-endian column words.
    /// Word `i` of a round output pulls its bytes from columns
    /// `i, i+1, i+2, i+3` (mod 4) — that is ShiftRows — and each T-table
    /// lookup contributes that byte's SubBytes + MixColumns product.
    #[inline]
    pub(crate) fn encrypt_words(&self, mut s: [u32; 4]) -> [u32; 4] {
        let te = &enc_tables().te;
        let rk = &self.enc_keys;
        for i in 0..4 {
            s[i] ^= rk[0][i];
        }
        for k in &rk[1..ROUNDS] {
            s = t_round(te, s, k);
        }
        last_round(sbox(), s, &rk[ROUNDS])
    }

    /// Four encryptions interleaved round-by-round: each round loads its
    /// key once and runs four independent dependency chains through the
    /// T-tables, so the loads pipeline instead of serializing. This is the
    /// CTR keystream workhorse.
    #[inline]
    pub(crate) fn encrypt4_words(&self, mut s: [[u32; 4]; 4]) -> [[u32; 4]; 4] {
        let te = &enc_tables().te;
        let rk = &self.enc_keys;
        for blk in &mut s {
            for i in 0..4 {
                blk[i] ^= rk[0][i];
            }
        }
        for k in &rk[1..ROUNDS] {
            for blk in &mut s {
                *blk = t_round(te, *blk, k);
            }
        }
        let sbox = sbox();
        let k = &rk[ROUNDS];
        s.map(|blk| last_round(sbox, blk, k))
    }

    /// Encrypts one 16-byte block in place (T-table fast path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let s = self.encrypt_words([
            u32::from_be_bytes(block[0..4].try_into().unwrap()),
            u32::from_be_bytes(block[4..8].try_into().unwrap()),
            u32::from_be_bytes(block[8..12].try_into().unwrap()),
            u32::from_be_bytes(block[12..16].try_into().unwrap()),
        ]);
        for (i, w) in s.iter().enumerate() {
            block[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::{from_hex_array, to_hex};

    #[test]
    fn sbox_spot_values() {
        let sbox = sbox();
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        // S-box is a permutation.
        let mut seen = [false; 256];
        for &v in sbox.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn t_tables_encode_mix_columns_of_sbox() {
        let t = enc_tables();
        for (x, &sx) in sbox().iter().enumerate() {
            let expect = u32::from_be_bytes([gf_mul(sx, 2), sx, sx, gf_mul(sx, 3)]);
            assert_eq!(t.te[0][x], expect);
            assert_eq!(t.te[1][x], expect.rotate_right(8));
            assert_eq!(t.te[2][x], expect.rotate_right(16));
            assert_eq!(t.te[3][x], expect.rotate_right(24));
        }
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key =
            from_hex_array::<32>("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap();
        let mut block = from_hex_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        Aes::new_256(&key).encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "8ea2b7ca516745bfeafc49904b496089");
    }
}
