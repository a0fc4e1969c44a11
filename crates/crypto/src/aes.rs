//! The AES block cipher (FIPS 197), key sizes 128 and 256.
//!
//! The S-box is derived at first use from its mathematical definition — the
//! multiplicative inverse in GF(2^8) followed by the affine transform —
//! instead of being hardcoded, eliminating table transcription as a failure
//! mode. The FIPS 197 appendix C known-answer tests pin the result.
//!
//! Two encryption pipelines share the one key schedule:
//!
//! * The **fast path** ([`Aes::encrypt_block`]) uses the classic 32-bit
//!   T-table formulation: SubBytes + ShiftRows + MixColumns for one output
//!   word collapse into four table lookups and three XORs. The four tables
//!   are *derived* from the S-box and the GF(2^8) arithmetic at first use,
//!   so they inherit the no-transcription property.
//! * The **reference oracle** ([`reference::Aes`]) is the frozen byte-wise
//!   seed implementation (explicit SubBytes/ShiftRows/MixColumns with
//!   per-byte `gf_mul`). Property tests assert the fast path is
//!   byte-identical to it on random blocks; the FIPS vectors pin both.
//!
//! Neither path is constant-time (see the crate-level security disclaimer).

use std::sync::OnceLock;

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

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
}

#[allow(clippy::needless_range_loop)] // log/antilog tables index by the loop value
fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
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
        let mut inv_sbox = [0u8; 256];
        for x in 0..256 {
            let b = inv(x as u8);
            let s = b
                ^ b.rotate_left(1)
                ^ b.rotate_left(2)
                ^ b.rotate_left(3)
                ^ b.rotate_left(4)
                ^ 0x63;
            sbox[x] = s;
            inv_sbox[s as usize] = x as u8;
        }
        Tables { sbox, inv_sbox }
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
        let sbox = &tables().sbox;
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

/// FIPS 197 key expansion, shared by the fast path and the reference
/// oracle (the schedule itself has no fast/slow variants).
fn expand_round_keys(key: &[u8], nk: usize, rounds: usize) -> Vec<[u8; 16]> {
    let sbox = &tables().sbox;
    let total_words = 4 * (rounds + 1);
    let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
    for i in 0..nk {
        w.push(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let mut rcon: u8 = 1;
    for i in nk..total_words {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp.rotate_left(1);
            for b in temp.iter_mut() {
                *b = sbox[*b as usize];
            }
            temp[0] ^= rcon;
            rcon = gf_mul(rcon, 2);
        } else if nk > 6 && i % nk == 4 {
            for b in temp.iter_mut() {
                *b = sbox[*b as usize];
            }
        }
        let prev = w[i - nk];
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

/// An expanded AES key, ready for block operations.
///
/// Encryption runs the T-table fast path; decryption keeps the byte-wise
/// inverse rounds (it is off the hot path — GCM only ever encrypts).
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    /// Round keys as big-endian words, the form the T-table rounds consume.
    enc_keys: Vec<[u32; 4]>,
    rounds: usize,
}

impl Aes {
    /// Expands a 128-bit key (10 rounds).
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 4, 10)
    }

    /// Expands a 256-bit key (14 rounds).
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 8, 14)
    }

    fn expand(key: &[u8], nk: usize, rounds: usize) -> Self {
        let round_keys = expand_round_keys(key, nk, rounds);
        let enc_keys = round_keys
            .iter()
            .map(|rk| {
                [
                    u32::from_be_bytes(rk[0..4].try_into().unwrap()),
                    u32::from_be_bytes(rk[4..8].try_into().unwrap()),
                    u32::from_be_bytes(rk[8..12].try_into().unwrap()),
                    u32::from_be_bytes(rk[12..16].try_into().unwrap()),
                ]
            })
            .collect();
        Aes { round_keys, enc_keys, rounds }
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
        for k in &rk[1..self.rounds] {
            s = t_round(te, s, k);
        }
        last_round(&tables().sbox, s, &rk[self.rounds])
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
        for k in &rk[1..self.rounds] {
            for blk in &mut s {
                *blk = t_round(te, *blk, k);
            }
        }
        let sbox = &tables().sbox;
        let k = &rk[self.rounds];
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

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let inv_sbox = &tables().inv_sbox;
        xor16(block, &self.round_keys[self.rounds]);
        inv_shift_rows(block);
        inv_sub_bytes(block, inv_sbox);
        for r in (1..self.rounds).rev() {
            xor16(block, &self.round_keys[r]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block, inv_sbox);
        }
        xor16(block, &self.round_keys[0]);
    }
}

/// The frozen byte-wise seed implementation, kept as the equivalence
/// oracle for the T-table fast path (the same pattern as
/// [`crate::ed25519::reference`]).
pub mod reference {
    use super::*;

    /// An expanded AES key for the byte-wise reference rounds.
    pub struct Aes {
        round_keys: Vec<[u8; 16]>,
        rounds: usize,
    }

    impl Aes {
        /// Expands a 128-bit key (10 rounds).
        pub fn new_128(key: &[u8; 16]) -> Self {
            Aes { round_keys: expand_round_keys(key, 4, 10), rounds: 10 }
        }

        /// Expands a 256-bit key (14 rounds).
        pub fn new_256(key: &[u8; 32]) -> Self {
            Aes { round_keys: expand_round_keys(key, 8, 14), rounds: 14 }
        }

        /// Encrypts one 16-byte block in place, one byte operation at a
        /// time (the seed pipeline).
        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            let sbox = &tables().sbox;
            xor16(block, &self.round_keys[0]);
            for r in 1..self.rounds {
                sub_bytes(block, sbox);
                shift_rows(block);
                mix_columns(block);
                xor16(block, &self.round_keys[r]);
            }
            sub_bytes(block, sbox);
            shift_rows(block);
            xor16(block, &self.round_keys[self.rounds]);
        }

        /// Decrypts one 16-byte block in place.
        pub fn decrypt_block(&self, block: &mut [u8; 16]) {
            let inv_sbox = &tables().inv_sbox;
            xor16(block, &self.round_keys[self.rounds]);
            inv_shift_rows(block);
            inv_sub_bytes(block, inv_sbox);
            for r in (1..self.rounds).rev() {
                xor16(block, &self.round_keys[r]);
                inv_mix_columns(block);
                inv_shift_rows(block);
                inv_sub_bytes(block, inv_sbox);
            }
            xor16(block, &self.round_keys[0]);
        }
    }
}

#[inline]
fn xor16(block: &mut [u8; 16], key: &[u8; 16]) {
    for i in 0..16 {
        block[i] ^= key[i];
    }
}

#[inline]
fn sub_bytes(block: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in block.iter_mut() {
        *b = sbox[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(block: &mut [u8; 16], inv_sbox: &[u8; 256]) {
    for b in block.iter_mut() {
        *b = inv_sbox[*b as usize];
    }
}

// State is column-major: byte index = 4*col + row.
#[inline]
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

#[inline]
fn inv_shift_rows(b: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = b[13];
    b[13] = b[9];
    b[9] = b[5];
    b[5] = b[1];
    b[1] = t;
    // Row 2: shift right by 2.
    b.swap(2, 10);
    b.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = b[3];
    b[3] = b[7];
    b[7] = b[11];
    b[11] = b[15];
    b[15] = t;
}

#[inline]
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

#[inline]
fn inv_mix_columns(b: &mut [u8; 16]) {
    for col in 0..4 {
        let i = col * 4;
        let (a0, a1, a2, a3) = (b[i], b[i + 1], b[i + 2], b[i + 3]);
        b[i] = gf_mul(a0, 14) ^ gf_mul(a1, 11) ^ gf_mul(a2, 13) ^ gf_mul(a3, 9);
        b[i + 1] = gf_mul(a0, 9) ^ gf_mul(a1, 14) ^ gf_mul(a2, 11) ^ gf_mul(a3, 13);
        b[i + 2] = gf_mul(a0, 13) ^ gf_mul(a1, 9) ^ gf_mul(a2, 14) ^ gf_mul(a3, 11);
        b[i + 3] = gf_mul(a0, 11) ^ gf_mul(a1, 13) ^ gf_mul(a2, 9) ^ gf_mul(a3, 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::{from_hex_array, to_hex};

    #[test]
    fn sbox_spot_values() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.inv_sbox[0x63], 0x00);
        // S-box is a permutation.
        let mut seen = [false; 256];
        for &v in t.sbox.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn t_tables_encode_mix_columns_of_sbox() {
        let t = enc_tables();
        let s = tables().sbox;
        for (x, &sx) in s.iter().enumerate() {
            let expect = u32::from_be_bytes([gf_mul(sx, 2), sx, sx, gf_mul(sx, 3)]);
            assert_eq!(t.te[0][x], expect);
            assert_eq!(t.te[1][x], expect.rotate_right(8));
            assert_eq!(t.te[2][x], expect.rotate_right(16));
            assert_eq!(t.te[3][x], expect.rotate_right(24));
        }
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key = from_hex_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let mut block = from_hex_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let aes = Aes::new_128(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        aes.decrypt_block(&mut block);
        assert_eq!(to_hex(&block), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key =
            from_hex_array::<32>("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap();
        let mut block = from_hex_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let aes = Aes::new_256(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "8ea2b7ca516745bfeafc49904b496089");
        aes.decrypt_block(&mut block);
        assert_eq!(to_hex(&block), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn reference_matches_fips_vectors() {
        let key =
            from_hex_array::<32>("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap();
        let mut block = from_hex_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let aes = reference::Aes::new_256(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "8ea2b7ca516745bfeafc49904b496089");
        aes.decrypt_block(&mut block);
        assert_eq!(to_hex(&block), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn fast_path_matches_reference_on_random_blocks() {
        let mut rng = crate::chacha::ChaChaRng::seed_from_u64(4242);
        for _ in 0..50 {
            let mut key256 = [0u8; 32];
            rng.fill_bytes(&mut key256);
            let fast = Aes::new_256(&key256);
            let oracle = reference::Aes::new_256(&key256);
            let mut key128 = [0u8; 16];
            rng.fill_bytes(&mut key128);
            let fast128 = Aes::new_128(&key128);
            let oracle128 = reference::Aes::new_128(&key128);
            for _ in 0..20 {
                let mut block = [0u8; 16];
                rng.fill_bytes(&mut block);
                let mut a = block;
                let mut b = block;
                fast.encrypt_block(&mut a);
                oracle.encrypt_block(&mut b);
                assert_eq!(a, b);
                let mut a = block;
                let mut b = block;
                fast128.encrypt_block(&mut a);
                oracle128.encrypt_block(&mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_random() {
        let aes = Aes::new_256(&[0x5a; 32]);
        let mut rng = crate::chacha::ChaChaRng::seed_from_u64(99);
        for _ in 0..100 {
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut block);
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }
}
