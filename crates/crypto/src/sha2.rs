//! SHA-256 and SHA-512 (FIPS 180-4).
//!
//! The round constants are the first 32/64 bits of the fractional parts of
//! the cube roots of the first 64/80 primes, and the initial hash values are
//! derived from square roots of the first 8 primes. Rather than hardcode
//! those tables (and risk a silent transcription error that known-answer
//! tests might only partially catch), this module *computes* them once at
//! first use with exact integer root extraction (the `consts` module). The `abc`
//! and empty-string known-answer tests then pin the whole construction.
//!
//! SHA-256 has a fast path: the compression function unrolls all 64 rounds
//! with rotating registers over a circular 16-word message schedule,
//! `finalize` writes the padding directly into the block buffer (the seed
//! version pushed padding one byte at a time through `update`), and
//! [`sha256_fixed64`] / [`sha256_fixed65`] digest fixed-size inputs — the
//! shapes Merkle interior nodes (1 + 32 + 32 bytes) and 64-byte leaves
//! take — with the padding block precomputed. The frozen seed pipeline is
//! kept as [`reference::sha256`], and equivalence tests assert the two are
//! byte-identical at every buffer-boundary length.

use std::sync::OnceLock;

/// Computes the SHA-256 digest of `data` in one shot. The empty input's
/// digest is computed once and cached: every ledger entry hashes an empty
/// write-set half (the public half of a private write, the private half of
/// a public or signature entry).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    if data.is_empty() {
        static EMPTY: OnceLock<[u8; 32]> = OnceLock::new();
        return *EMPTY.get_or_init(|| Sha256::new().finalize());
    }
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the SHA-512 digest of `data` in one shot.
pub fn sha512(data: &[u8]) -> [u8; 64] {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

/// Exact integer-root derivation of the FIPS 180-4 constants.
mod consts {
    /// Little helper: a 256-bit unsigned integer as four little-endian u64
    /// limbs, with just enough arithmetic to compute x^2 and x^3 for
    /// candidate roots up to ~2^70 and compare them against `p << shift`.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct U256(pub [u64; 4]);

    impl Ord for U256 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Numeric order: compare from the most significant limb down.
            self.0.iter().rev().cmp(other.0.iter().rev())
        }
    }

    impl PartialOrd for U256 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl U256 {
        pub fn from_u128(v: u128) -> U256 {
            U256([v as u64, (v >> 64) as u64, 0, 0])
        }

        /// `v << s` for s < 256; panics on overflow (callers stay in range).
        pub fn shl(self, s: u32) -> U256 {
            let mut out = [0u64; 4];
            let limb = (s / 64) as usize;
            let bits = s % 64;
            for i in 0..4 {
                if i + limb < 4 {
                    out[i + limb] |= self.0[i] << bits;
                    if bits > 0 && i + limb + 1 < 4 {
                        out[i + limb + 1] |= self.0[i] >> (64 - bits);
                    }
                }
            }
            U256(out)
        }

        /// Full 256-bit multiply, panicking on overflow (inputs are small
        /// enough here that x^3 < 2^208).
        pub fn mul(self, rhs: U256) -> U256 {
            let mut acc = [0u128; 8];
            for i in 0..4 {
                for j in 0..4 {
                    let p = self.0[i] as u128 * rhs.0[j] as u128;
                    acc[i + j] += p & 0xffff_ffff_ffff_ffff;
                    if i + j + 1 < 8 {
                        acc[i + j + 1] += p >> 64;
                    }
                }
            }
            // Carry propagation.
            let mut out = [0u64; 8];
            let mut carry: u128 = 0;
            for k in 0..8 {
                let v = acc[k] + carry;
                out[k] = v as u64;
                carry = v >> 64;
            }
            assert!(carry == 0 && out[4..].iter().all(|&w| w == 0), "U256 overflow");
            U256([out[0], out[1], out[2], out[3]])
        }
    }

    /// First `n` primes by trial division.
    pub fn primes(n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut c = 2u64;
        while out.len() < n {
            if out.iter().all(|&p| !c.is_multiple_of(p)) {
                out.push(c);
            }
            c += 1;
        }
        out
    }

    /// floor(root_k(p * 2^shift)) via binary search with exact arithmetic.
    /// The scaled root can exceed 64 bits (e.g. floor(cbrt(p)·2^64) for the
    /// SHA-512 constants is up to ~7·2^64), hence u128.
    fn int_root(p: u64, shift: u32, k: u32) -> u128 {
        let target = U256::from_u128(p as u128).shl(shift);
        // root < 2^(ceil((log2(p) + shift) / k) + 1)
        let bits = 64 - p.leading_zeros() + shift;
        let mut hi: u128 = 1u128 << (bits / k + 1).min(127);
        let mut lo: u128 = 0;
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let m = U256::from_u128(mid);
            let mut pow = m;
            for _ in 1..k {
                pow = pow.mul(m);
            }
            if pow <= target {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// frac(root(p)) * 2^bits, truncated: taking the scaled root modulo
    /// 2^bits removes the (small) integer part, which only contributes
    /// whole multiples of 2^bits.
    fn root_frac(p: u64, bits: u32, k: u32) -> u64 {
        let root = int_root(p, k * bits, k);
        (root & ((1u128 << bits) - 1)) as u64
    }

    /// frac(cbrt(p)) * 2^bits, truncated — the K round constants.
    pub fn cbrt_frac(p: u64, bits: u32) -> u64 {
        root_frac(p, bits, 3)
    }

    /// frac(sqrt(p)) * 2^bits, truncated — the H initial values.
    pub fn sqrt_frac(p: u64, bits: u32) -> u64 {
        root_frac(p, bits, 2)
    }
}

fn k256() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let ps = consts::primes(64);
        let mut k = [0u32; 64];
        for (i, &p) in ps.iter().enumerate() {
            k[i] = consts::cbrt_frac(p, 32) as u32;
        }
        k
    })
}

fn h256() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let ps = consts::primes(8);
        let mut h = [0u32; 8];
        for (i, &p) in ps.iter().enumerate() {
            h[i] = consts::sqrt_frac(p, 32) as u32;
        }
        h
    })
}

fn k512() -> &'static [u64; 80] {
    static K: OnceLock<[u64; 80]> = OnceLock::new();
    K.get_or_init(|| {
        let ps = consts::primes(80);
        let mut k = [0u64; 80];
        for (i, &p) in ps.iter().enumerate() {
            k[i] = consts::cbrt_frac(p, 64);
        }
        k
    })
}

fn h512() -> &'static [u64; 8] {
    static H: OnceLock<[u64; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let ps = consts::primes(8);
        let mut h = [0u64; 8];
        for (i, &p) in ps.iter().enumerate() {
            h[i] = consts::sqrt_frac(p, 64);
        }
        h
    })
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 { state: *h256(), buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return; // buffer state is already correct
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Completes the hash and returns the 32-byte digest. Padding is
    /// written straight into the block buffer — one or two compressions,
    /// no per-byte buffering.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let len = self.buf_len;
        self.buf[len] = 0x80;
        if len < 56 {
            self.buf[len + 1..56].fill(0);
            self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
            compress256(&mut self.state, &self.buf.clone());
        } else {
            self.buf[len + 1..64].fill(0);
            compress256(&mut self.state, &self.buf.clone());
            let mut last = [0u8; 64];
            last[56..64].copy_from_slice(&bit_len.to_be_bytes());
            compress256(&mut self.state, &last);
        }
        digest_from_state256(&self.state)
    }

    #[inline]
    fn compress(&mut self, block: &[u8; 64]) {
        compress256(&mut self.state, block);
    }
}

#[inline]
fn digest_from_state256(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function: all 64 rounds unrolled with rotating
/// registers, the message schedule kept in a circular 16-word window that
/// is extended in-place inside rounds 16..64.
#[allow(clippy::identity_op)] // `$base + 0` keeps the unrolled rows uniform
fn compress256(state: &mut [u32; 8], block: &[u8; 64]) {
    let k = k256();
    let mut w = [0u32; 16];
    for (i, slot) in w.iter_mut().enumerate() {
        *slot = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // One round with the registers in rotated positions: $h accumulates T1
    // then becomes the next round's working `a`; $d absorbs T1 as the next
    // `e`. Rotating the names instead of shifting eight registers removes
    // seven moves per round.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            $h = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add(k[$t])
                .wrapping_add(w[$t & 15]);
            $d = $d.wrapping_add($h);
            $h = $h
                .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        };
    }
    // Rounds 16..64 first extend the circular schedule window:
    // w[t] = w[t-16] + σ0(w[t-15]) + w[t-7] + σ1(w[t-2]), indices mod 16.
    macro_rules! sched_round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            let w15 = w[($t + 1) & 15];
            let w2 = w[($t + 14) & 15];
            w[$t & 15] = w[$t & 15]
                .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                .wrapping_add(w[($t + 9) & 15])
                .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            round!($a, $b, $c, $d, $e, $f, $g, $h, $t);
        };
    }
    macro_rules! eight_rounds {
        ($mac:ident, $base:expr) => {
            $mac!(a, b, c, d, e, f, g, h, $base + 0);
            $mac!(h, a, b, c, d, e, f, g, $base + 1);
            $mac!(g, h, a, b, c, d, e, f, $base + 2);
            $mac!(f, g, h, a, b, c, d, e, $base + 3);
            $mac!(e, f, g, h, a, b, c, d, $base + 4);
            $mac!(d, e, f, g, h, a, b, c, $base + 5);
            $mac!(c, d, e, f, g, h, a, b, $base + 6);
            $mac!(b, c, d, e, f, g, h, a, $base + 7);
        };
    }
    eight_rounds!(round, 0);
    eight_rounds!(round, 8);
    eight_rounds!(sched_round, 16);
    eight_rounds!(sched_round, 24);
    eight_rounds!(sched_round, 32);
    eight_rounds!(sched_round, 40);
    eight_rounds!(sched_round, 48);
    eight_rounds!(sched_round, 56);
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Digest of an exactly-64-byte input: one data compression plus one
/// compression of the precomputed padding block (0x80, zeros, length 512).
/// No buffering, no length bookkeeping.
pub fn sha256_fixed64(block: &[u8; 64]) -> [u8; 32] {
    let mut state = *h256();
    compress256(&mut state, block);
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad[62] = 0x02; // 512 bits, big-endian
    compress256(&mut state, &pad);
    digest_from_state256(&state)
}

/// Digest of an exactly-65-byte input — the shape of a Merkle interior
/// node (0x01 prefix + two 32-byte children). The second block carries the
/// one spill byte plus precomputed padding (length 520 bits).
pub fn sha256_fixed65(data: &[u8; 65]) -> [u8; 32] {
    let mut state = *h256();
    compress256(&mut state, data[..64].try_into().unwrap());
    let mut last = [0u8; 64];
    last[0] = data[64];
    last[1] = 0x80;
    last[62] = 0x02; // 520 bits, big-endian
    last[63] = 0x08;
    compress256(&mut state, &last);
    digest_from_state256(&state)
}

/// The frozen seed SHA-256 pipeline — sequential rounds, a 64-word
/// materialized message schedule, and byte-at-a-time padding — kept as the
/// equivalence oracle for the unrolled fast path (the same pattern as
/// [`crate::ed25519::reference`]).
pub mod reference {
    use super::{h256, k256};

    /// One-shot reference SHA-256 digest.
    pub fn sha256(data: &[u8]) -> [u8; 32] {
        let mut state = *h256();
        let mut buf = [0u8; 64];
        let mut buf_len = 0usize;
        let absorb = |state: &mut [u32; 8], buf: &mut [u8; 64], buf_len: &mut usize, bytes: &[u8]| {
            for &byte in bytes {
                buf[*buf_len] = byte;
                *buf_len += 1;
                if *buf_len == 64 {
                    compress_seed(state, buf);
                    *buf_len = 0;
                }
            }
        };
        absorb(&mut state, &mut buf, &mut buf_len, data);
        let bit_len = (data.len() as u64).wrapping_mul(8);
        absorb(&mut state, &mut buf, &mut buf_len, &[0x80]);
        while buf_len != 56 {
            absorb(&mut state, &mut buf, &mut buf_len, &[0]);
        }
        absorb(&mut state, &mut buf, &mut buf_len, &bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The seed compression function: materialized 64-word schedule,
    /// sequential register shifts.
    fn compress_seed(state: &mut [u32; 8], block: &[u8; 64]) {
        let k = k256();
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Incremental SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha512 { state: *h512(), buf: [0; 128], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 128 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return; // buffer state is already correct
            }
        }
        while data.len() >= 128 {
            let (block, rest) = data.split_at(128);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Completes the hash and returns the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        self.total_len = self.total_len.wrapping_sub(1);
        while self.buf_len != 112 {
            self.update(&[0]);
            self.total_len = self.total_len.wrapping_sub(1);
        }
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 64];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 128]) {
        let k = k512();
        let mut w = [0u64; 80];
        for i in 0..16 {
            w[i] = u64::from_be_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn derived_constants_match_fips() {
        // Spot-check the derived tables against well-known values.
        assert_eq!(k256()[0], 0x428a2f98);
        assert_eq!(k256()[63], 0xc67178f2);
        assert_eq!(h256()[0], 0x6a09e667);
        assert_eq!(h256()[7], 0x5be0cd19);
        assert_eq!(k512()[0], 0x428a2f98d728ae22);
        assert_eq!(h512()[0], 0x6a09e667f3bcc908);
        // SHA-512's K constants extend SHA-256's K with more fractional bits.
        for i in 0..64 {
            assert_eq!((k512()[i] >> 32) as u32, k256()[i], "K[{i}] prefix");
        }
    }

    #[test]
    fn sha256_known_answers() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha512_known_answers() {
        assert_eq!(
            to_hex(&sha512(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(' ', "")
        );
        assert_eq!(
            to_hex(&sha512(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn sha256_two_block_896_bit_vector() {
        // NIST FIPS 180 example: 896-bit (112-byte) message spanning the
        // one-block/two-block padding boundary.
        assert_eq!(
            to_hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn fixed_input_digests_match_streaming() {
        let mut block64 = [0u8; 64];
        let mut block65 = [0u8; 65];
        for (i, b) in block64.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        for (i, b) in block65.iter_mut().enumerate() {
            *b = (i * 11 + 5) as u8;
        }
        assert_eq!(sha256_fixed64(&block64), sha256(&block64));
        assert_eq!(sha256_fixed65(&block65), sha256(&block65));
        // The Merkle interior-node shape: domain byte + two child digests.
        let mut node = [0u8; 65];
        node[0] = 0x01;
        assert_eq!(sha256_fixed65(&node), sha256(&node));
    }

    #[test]
    fn fast_path_matches_reference_at_boundary_lengths() {
        let data: Vec<u8> = (0..4200u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097] {
            assert_eq!(sha256(&data[..len]), reference::sha256(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 128, 129, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");

            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha512(&data), "split {split}");
        }
    }
}
