//! Minimal fixed-width big-integer helpers and the Ed25519 scalar ring
//! (integers modulo the group order L).
//!
//! Only the handful of operations the signature scheme needs are
//! implemented: addition, subtraction, comparison, schoolbook
//! multiplication, and modular reduction. Reduction mod L uses quotient
//! estimation ([`reduce_wide_mod_l`]); the tests cross-check it against
//! binary long division.

// `Scalar::add`/`Scalar::mul` are deliberately inherent methods with value
// semantics, not `std::ops` impls: modular arithmetic behind operators
// invites accidental mixed-width expressions, and the explicit calls keep
// reductions visible at every use site.
#![allow(clippy::should_implement_trait)]

/// Compares two little-endian limb slices of equal length.
pub fn cmp_limbs(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// `a += b`, returning the carry out.
pub fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = 0u64;
    for i in 0..a.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    carry != 0
}

/// `a -= b`, returning the borrow out. Caller ensures `a >= b` when the
/// borrow must not happen.
pub fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow != 0
}

/// Schoolbook multiply: `out = a * b` where `out.len() == a.len() + b.len()`.
pub fn mul_limbs(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    out.fill(0);
    for i in 0..a.len() {
        let mut carry: u128 = 0;
        for j in 0..b.len() {
            let cur = out[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// Schoolbook squaring: `out = a * a` with the off-diagonal products
/// computed once and doubled, roughly 10 limb multiplies for 4 limbs
/// against 16 for [`mul_limbs`]. `out.len() == 2 * a.len()`. The 4-limb
/// case — every Curve25519 field squaring — takes a fully unrolled path.
pub fn square_limbs(a: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), 2 * a.len());
    if a.len() == 4 {
        square4(a.try_into().unwrap(), out.try_into().unwrap());
        return;
    }
    out.fill(0);
    // Off-diagonal products a_i · a_j for i < j, each computed once.
    for i in 0..a.len() {
        let mut carry: u128 = 0;
        for j in i + 1..a.len() {
            let cur = out[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + a.len()] = carry as u64;
    }
    // Double them (shift left by one bit)...
    let mut carry = 0u64;
    for limb in out.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = next;
    }
    // ...and add the diagonal squares a_i² in place (allocation-free:
    // this routine sits under every field squaring on the verify path).
    let mut carry = 0u64;
    for i in 0..a.len() {
        let sq = a[i] as u128 * a[i] as u128;
        let lo = out[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
        out[2 * i] = lo as u64;
        let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
        out[2 * i + 1] = hi as u64;
        carry = (hi >> 64) as u64;
    }
    debug_assert_eq!(carry, 0, "a_i^2 terms cannot overflow 2n limbs");
}

/// Unrolled 4-limb squaring: 10 limb multiplies, no loops, no passes over
/// intermediate storage. `mac` chains keep every carry in registers.
fn square4(a: &[u64; 4], out: &mut [u64; 8]) {
    #[inline(always)]
    fn mac(acc: u64, x: u64, y: u64, carry: u64) -> (u64, u64) {
        let wide = acc as u128 + x as u128 * y as u128 + carry as u128;
        (wide as u64, (wide >> 64) as u64)
    }
    let [a0, a1, a2, a3] = *a;
    // Off-diagonal products, each once.
    let (r1, c) = mac(0, a0, a1, 0);
    let (r2, c) = mac(0, a0, a2, c);
    let (r3, c) = mac(0, a0, a3, c);
    let r4 = c;
    let (r3, c) = mac(r3, a1, a2, 0);
    let (r4, c) = mac(r4, a1, a3, c);
    let r5 = c;
    let (r5, c) = mac(r5, a2, a3, 0);
    let r6 = c;
    // Double the cross terms (shift left one bit into r7)...
    let r7 = r6 >> 63;
    let r6 = (r6 << 1) | (r5 >> 63);
    let r5 = (r5 << 1) | (r4 >> 63);
    let r4 = (r4 << 1) | (r3 >> 63);
    let r3 = (r3 << 1) | (r2 >> 63);
    let r2 = (r2 << 1) | (r1 >> 63);
    let r1 = r1 << 1;
    // ...and add the diagonal squares with one carry chain.
    let d0 = a0 as u128 * a0 as u128;
    let d1 = a1 as u128 * a1 as u128;
    let d2 = a2 as u128 * a2 as u128;
    let d3 = a3 as u128 * a3 as u128;
    out[0] = d0 as u64;
    let t = r1 as u128 + (d0 >> 64);
    out[1] = t as u64;
    let t = r2 as u128 + (d1 as u64) as u128 + (t >> 64);
    out[2] = t as u64;
    let t = r3 as u128 + (d1 >> 64) + (t >> 64);
    out[3] = t as u64;
    let t = r4 as u128 + (d2 as u64) as u128 + (t >> 64);
    out[4] = t as u64;
    let t = r5 as u128 + (d2 >> 64) + (t >> 64);
    out[5] = t as u64;
    let t = r6 as u128 + (d3 as u64) as u128 + (t >> 64);
    out[6] = t as u64;
    let t = r7 as u128 + (d3 >> 64) + (t >> 64);
    out[7] = t as u64;
    debug_assert_eq!(t >> 64, 0, "a^2 fits in 8 limbs");
}

/// Reduces a 512-bit little-endian value modulo [`L`] by quotient
/// estimation against L's 2^252 leading term — a handful of single-limb
/// multiplies instead of a bit-by-bit long division. This
/// sits under every scalar multiplication and every SHA-512 → scalar
/// folding on the signature paths, where the generic division was costing
/// microseconds per call.
pub fn reduce_wide_mod_l(wide: &[u64; 8]) -> [u64; 4] {
    let mut v = [0u64; 9];
    v[..8].copy_from_slice(wide);
    // Eliminate everything above 2^(252 + 64j), top rung first. The
    // estimate q = v >> (252 + 64j) never *under*shoots (it ignores only
    // L's low term δ = L - 2^252 < 2^125), so v strictly decreases; when
    // the δ part makes q·L overshoot v we add one L back and move down a
    // rung — the residue is within one L<<64j and the next rung (or the
    // final subtraction) absorbs it.
    for j in (0..=4).rev() {
        loop {
            let q128 = ((v[j + 4] as u128) << 4) | ((v[j + 3] >> 60) as u128);
            if q128 == 0 {
                break;
            }
            let q = u64::try_from(q128).unwrap_or(u64::MAX);
            let mut t = [0u64; 9];
            mul_limbs(&[q], &L, &mut t[j..j + 5]);
            if sub_assign(&mut v, &t) {
                let mut back = [0u64; 9];
                back[j..j + 4].copy_from_slice(&L);
                let carry = add_assign(&mut v, &back);
                debug_assert!(carry, "add-back must cancel the borrow");
                break;
            }
        }
    }
    let mut r = [v[0], v[1], v[2], v[3]];
    while cmp_limbs(&r, &L) != std::cmp::Ordering::Less {
        sub_assign(&mut r, &L);
    }
    r
}

/// The Ed25519 group order
/// `L = 2^252 + 27742317777372353535851937790883648493`.
pub const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// An integer modulo L, the order of the Ed25519 base point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub [u64; 4]);

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces a 64-byte little-endian value (e.g. a SHA-512 digest) mod L.
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for i in 0..8 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        }
        Scalar(reduce_wide_mod_l(&limbs))
    }

    /// Interprets 32 little-endian bytes, reducing mod L.
    pub fn from_bytes_reduced(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Interprets 32 little-endian bytes, rejecting non-canonical values
    /// (>= L). Used when verifying signatures to enforce canonical `s`.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        }
        if cmp_limbs(&limbs, &L) == std::cmp::Ordering::Less {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Serializes to 32 little-endian bytes (canonical).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// `(self + rhs) mod L`.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&self.0);
        let mut b = [0u64; 4];
        b.copy_from_slice(&rhs.0);
        if add_assign(&mut wide[..4], &b) {
            wide[4] = 1;
        }
        Scalar(reduce_wide_mod_l(&wide))
    }

    /// `(self * rhs) mod L`.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        mul_limbs(&self.0, &rhs.0, &mut wide);
        Scalar(reduce_wide_mod_l(&wide))
    }

    /// `(self * b + c) mod L` — the core of Ed25519 signing.
    pub fn mul_add(self, b: Scalar, c: Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// True iff this is the zero scalar.
    pub fn is_zero(self) -> bool {
        self.0 == [0; 4]
    }

    /// The i-th bit (little-endian) of the scalar, for ladder iteration.
    pub fn bit(&self, i: usize) -> u8 {
        ((self.0[i / 64] >> (i % 64)) & 1) as u8
    }

    /// Width-`w` non-adjacent form: signed odd digits `d` with
    /// `|d| < 2^(w-1)`, at most one non-zero digit in any `w` consecutive
    /// positions (so roughly one addition every `w+1` doublings when used
    /// for scalar multiplication). `digits[i]` has weight `2^i`.
    pub fn naf(&self, w: u32) -> [i8; 257] {
        debug_assert!((2..=8).contains(&w), "window width must fit signed i8 digits");
        // Reads each w-bit window straight out of the limbs instead of
        // shifting a multi-limb accumulator once per bit; the borrow from a
        // negative digit is a single carry flag folded into the next window.
        // Requires self < 2^255 (always true for reduced scalars), which
        // guarantees the carry resolves before position 256.
        debug_assert!(self.0[3] >> 63 == 0, "scalar must be < 2^255");
        let mut digits = [0i8; 257];
        let width = 1i64 << w;
        let mask = (width - 1) as u64;
        let mut carry = 0u64;
        let mut pos = 0usize;
        while pos < 256 {
            let limb = pos / 64;
            let bit = pos % 64;
            let raw = if bit + w as usize <= 64 {
                self.0[limb] >> bit
            } else {
                let hi = if limb + 1 < 4 { self.0[limb + 1] } else { 0 };
                (self.0[limb] >> bit) | (hi << (64 - bit))
            };
            let window = carry + (raw & mask);
            if window & 1 == 0 {
                pos += 1;
                continue;
            }
            if (window as i64) < width / 2 {
                carry = 0;
                digits[pos] = window as i8;
            } else {
                carry = 1;
                digits[pos] = (window as i64 - width) as i8;
            }
            pos += w as usize;
        }
        debug_assert_eq!(carry, 0, "carry must resolve for scalars < 2^255");
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduces an arbitrary little-endian limb value modulo `m` (non-zero) by
    /// binary long division. `m.len()` limbs are returned.
    fn mod_limbs(x: &[u64], m: &[u64]) -> Vec<u64> {
        let n = m.len();
        let mut r = vec![0u64; n + 1]; // one spare limb for the shifted value
        let mut m_ext = m.to_vec();
        m_ext.push(0);
        let bits = x.len() * 64;
        for i in (0..bits).rev() {
            // r = (r << 1) | bit_i(x)
            let mut carry = (x[i / 64] >> (i % 64)) & 1;
            for limb in r.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            if cmp_limbs(&r, &m_ext) != std::cmp::Ordering::Less {
                sub_assign(&mut r, &m_ext);
            }
        }
        r.truncate(n);
        r
    }

    /// Parses a decimal string into little-endian limbs, to check constants
    /// against their published decimal forms.
    fn from_decimal(s: &str) -> Vec<u64> {
        let mut limbs = vec![0u64];
        for ch in s.chars() {
            let d = ch.to_digit(10).expect("decimal digit") as u64;
            // limbs = limbs * 10 + d
            let mut carry: u128 = d as u128;
            for limb in limbs.iter_mut() {
                let cur = *limb as u128 * 10 + carry;
                *limb = cur as u64;
                carry = cur >> 64;
            }
            if carry != 0 {
                limbs.push(carry as u64);
            }
        }
        limbs
    }

    #[test]
    fn l_matches_decimal_definition() {
        // L = 2^252 + delta, with delta's published decimal expansion.
        let delta = from_decimal("27742317777372353535851937790883648493");
        let mut l = vec![0u64; 4];
        l[3] = 1 << 60; // 2^252
        let mut d4 = delta.clone();
        d4.resize(4, 0);
        add_assign(&mut l, &d4);
        assert_eq!(&l[..], &L[..]);
    }

    #[test]
    fn mod_limbs_small_cases() {
        assert_eq!(mod_limbs(&[17], &[5]), vec![2]);
        assert_eq!(mod_limbs(&[0, 1], &[7]), vec![2]); // 2^64 mod 7
        assert_eq!(mod_limbs(&[100, 0, 0], &[3, 0]), vec![1, 0]);
    }

    #[test]
    fn reduce_wide_mod_l_matches_long_division() {
        let check = |wide: [u64; 8]| {
            let fast = reduce_wide_mod_l(&wide);
            let mut slow = mod_limbs(&wide, &L);
            slow.resize(4, 0);
            assert_eq!(&fast[..], &slow[..], "wide = {wide:x?}");
        };
        // Edges: zero, one, all-ones, exactly L, L - 1, L + 1, 2^252,
        // multiples of L shifted into every limb position.
        check([0; 8]);
        check([1, 0, 0, 0, 0, 0, 0, 0]);
        check([u64::MAX; 8]);
        check([L[0], L[1], L[2], L[3], 0, 0, 0, 0]);
        check([L[0] - 1, L[1], L[2], L[3], 0, 0, 0, 0]);
        check([L[0] + 1, L[1], L[2], L[3], 0, 0, 0, 0]);
        check([0, 0, 0, 1 << 60, 0, 0, 0, 0]);
        for shift in 0..4 {
            let mut w = [0u64; 8];
            w[shift..shift + 4].copy_from_slice(&L);
            check(w);
            w[0] |= 1;
            check(w);
        }
        // Deterministic pseudo-random coverage via SplitMix64.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let mut w = [0u64; 8];
            for limb in w.iter_mut() {
                *limb = next();
            }
            // Occasionally zero out high limbs to vary the magnitude.
            let top = (next() % 9) as usize;
            for limb in w.iter_mut().skip(top) {
                *limb = 0;
            }
            check(w);
        }
    }

    #[test]
    fn scalar_ring_laws() {
        let a = Scalar::from_bytes_reduced(&[1u8; 32]);
        let b = Scalar::from_bytes_reduced(&[2u8; 32]);
        let c = Scalar::from_bytes_reduced(&[3u8; 32]);
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        assert_eq!(a.mul(Scalar::ONE), a);
        assert_eq!(a.add(Scalar::ZERO), a);
        assert_eq!(a.mul(Scalar::ZERO), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_is_canonical() {
        let s = Scalar::from_bytes_wide(&[0xff; 64]);
        assert_eq!(cmp_limbs(&s.0, &L), std::cmp::Ordering::Less);
        // Round-trips through canonical bytes.
        assert_eq!(Scalar::from_canonical_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn canonical_rejects_l_and_above() {
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert_eq!(Scalar::from_canonical_bytes(&l_bytes), None);
        assert!(Scalar::from_canonical_bytes(&[0xff; 32]).is_none());
        assert_eq!(Scalar::from_canonical_bytes(&[0; 32]), Some(Scalar::ZERO));
    }

    #[test]
    fn square_matches_mul() {
        let cases = [
            [0u64; 4],
            [1, 0, 0, 0],
            [u64::MAX; 4],
            [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 7, u64::MAX / 3],
        ];
        for a in cases {
            let mut via_mul = [0u64; 8];
            mul_limbs(&a, &a, &mut via_mul);
            let mut via_sq = [0u64; 8];
            square_limbs(&a, &mut via_sq);
            assert_eq!(via_sq, via_mul);
        }
    }

    /// Reconstructs the integer a NAF represents, mod L, for checking.
    fn naf_value(digits: &[i8; 257]) -> Scalar {
        let two = Scalar([2, 0, 0, 0]);
        let mut acc = Scalar::ZERO;
        for &d in digits.iter().rev() {
            acc = acc.mul(two);
            if d != 0 {
                let mag = Scalar([d.unsigned_abs() as u64, 0, 0, 0]);
                // L - mag ≡ -mag (mod L)
                let term = if d > 0 {
                    mag
                } else {
                    let mut neg = L;
                    sub_assign(&mut neg, &mag.0);
                    Scalar(neg)
                };
                acc = acc.add(term);
            }
        }
        acc
    }

    #[test]
    fn naf_reconstructs_and_is_well_formed() {
        for seed in 0u8..16 {
            let s = Scalar::from_bytes_reduced(&[seed.wrapping_mul(17).wrapping_add(3); 32]);
            for w in [2u32, 4, 5, 8] {
                let digits = s.naf(w);
                assert_eq!(naf_value(&digits), s, "w={w} seed={seed}");
                for (i, &d) in digits.iter().enumerate() {
                    if d == 0 {
                        continue;
                    }
                    assert_eq!(d & 1, 1, "digit at {i} must be odd");
                    assert!((d as i64).abs() < 1 << (w - 1), "digit at {i} too large for w={w}");
                    // Non-adjacency: next w-1 digits are zero.
                    for (j, &dj) in digits.iter().enumerate().take(i + w as usize).skip(i + 1) {
                        assert_eq!(dj, 0, "digits {i} and {j} both set (w={w})");
                    }
                }
            }
        }
    }

    #[test]
    fn decimal_parser() {
        assert_eq!(from_decimal("0"), vec![0]);
        assert_eq!(from_decimal("18446744073709551616"), vec![0, 1]); // 2^64
        assert_eq!(from_decimal("340282366920938463463374607431768211456"), vec![0, 0, 1]); // 2^128
    }
}
