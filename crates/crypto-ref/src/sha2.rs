//! The frozen seed SHA-256 pipeline (FIPS 180-4) — sequential rounds, a
//! 64-word materialized message schedule and byte-at-a-time padding — the
//! oracle for `ccf_crypto::sha2`'s unrolled compression and fixed-input
//! digests.
//!
//! The round constants and initial hash values are derived here too, with
//! plain u128 arithmetic, independently of the limb arithmetic that
//! `ccf-crypto` derives them with.

use std::sync::OnceLock;

/// First `n` primes by trial division.
fn primes(n: usize) -> Vec<u64> {
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

/// frac(p^(1/k)) · 2^32, truncated: the low 32 bits of
/// floor(root_k(p · 2^(32k))), found by binary search. The integer part
/// of the root only adds whole multiples of 2^32. For the first 64 primes
/// the root is below 2^36, so its cube fits in a u128.
fn root_frac32(p: u64, k: u32) -> u32 {
    let target = (p as u128) << (32 * k);
    let (mut lo, mut hi) = (0u128, 1u128 << 40);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if mid.checked_pow(k).is_some_and(|v| v <= target) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo as u32
}

/// The round constants K: cube roots of the first 64 primes.
fn k256() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let mut k = [0u32; 64];
        for (slot, p) in k.iter_mut().zip(primes(64)) {
            *slot = root_frac32(p, 3);
        }
        k
    })
}

/// The initial hash values H: square roots of the first 8 primes.
fn h256() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let mut h = [0u32; 8];
        for (slot, p) in h.iter_mut().zip(primes(8)) {
            *slot = root_frac32(p, 2);
        }
        h
    })
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_crypto::hex::to_hex;

    #[test]
    fn reference_matches_known_answers() {
        assert_eq!((k256()[0], k256()[63]), (0x428a2f98, 0xc67178f2));
        assert_eq!((h256()[0], h256()[7]), (0x6a09e667, 0x5be0cd19));
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
    fn fast_path_matches_reference_at_boundary_lengths() {
        let data: Vec<u8> = (0..4200u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097] {
            assert_eq!(ccf_crypto::sha256(&data[..len]), sha256(&data[..len]), "len {len}");
        }
    }
}
