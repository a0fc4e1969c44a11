//! Arithmetic in GF(2^255 - 19), the field underlying Ed25519 and X25519.
//!
//! Elements are four little-endian u64 limbs kept below 2^256 between
//! operations and canonicalized (< p) on serialization and comparison.
//! Reduction uses the identity 2^256 ≡ 38 (mod p).
//!
//! Inversion is not an exponentiation: [`Fe::invert`] runs Bernstein and
//! Yang's safegcd ("Fast constant-time gcd computation and modular
//! inversion", TCHES 2019) in the variable-time form of libsecp256k1's
//! `modinv64_var`, over five signed 62-bit limbs. It takes time that
//! depends on its input.

// `Fe::add`/`sub`/`mul`/`neg` are deliberately inherent methods with value
// semantics, not `std::ops` impls: the explicit calls keep the lazy
// (non-canonical) representation visible at every use site.
#![allow(clippy::should_implement_trait)]

/// A field element (not necessarily canonical between operations).
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub [u64; 4]);

/// p = 2^255 - 19 as limbs.
pub const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}
impl Eq for Fe {}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 4]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0]);

    /// Builds a field element from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe([v, 0, 0, 0])
    }

    /// Deserializes 32 little-endian bytes; the top bit is ignored
    /// (callers that need it — point decompression — extract it first).
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        }
        limbs[3] &= 0x7fff_ffff_ffff_ffff;
        Fe(limbs)
    }

    /// Serializes canonically (value reduced into [0, p)).
    pub fn to_bytes(self) -> [u8; 32] {
        let r = self.reduce_full();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&r.0[i].to_le_bytes());
        }
        out
    }

    /// Brings the value into [0, p).
    fn reduce_full(self) -> Fe {
        let mut r = self.0;
        // The limbs may represent a value up to 2^256 - 1 < 2p + 38·…;
        // clear the top bit first by folding it: bit 255 has weight 2^255 ≡ 19.
        let top = r[3] >> 63;
        r[3] &= 0x7fff_ffff_ffff_ffff;
        let mut carry = (top as u128) * 19;
        for limb in r.iter_mut() {
            let cur = *limb as u128 + carry;
            *limb = cur as u64;
            carry = cur >> 64;
        }
        // One more fold in case the addition re-set bit 255.
        let top = r[3] >> 63;
        r[3] &= 0x7fff_ffff_ffff_ffff;
        let mut carry = (top as u128) * 19;
        for limb in r.iter_mut() {
            let cur = *limb as u128 + carry;
            *limb = cur as u64;
            carry = cur >> 64;
        }
        // Now r < 2^255; subtract p if needed.
        if crate::bignum::cmp_limbs(&r, &P) != std::cmp::Ordering::Less {
            crate::bignum::sub_assign(&mut r, &P);
        }
        Fe(r)
    }

    /// Addition.
    pub fn add(self, rhs: Fe) -> Fe {
        let mut r = self.0;
        let carry = crate::bignum::add_assign(&mut r, &rhs.0);
        if carry {
            // 2^256 ≡ 38.
            let mut c: u128 = 38;
            for limb in r.iter_mut() {
                let cur = *limb as u128 + c;
                *limb = cur as u64;
                c = cur >> 64;
            }
            // c can only be non-zero if r was all-ones, impossible after fold.
            debug_assert_eq!(c, 0);
        }
        Fe(r)
    }

    /// Subtraction: `self + (2p - rhs')` keeps everything positive. The
    /// subtrahend only needs its top bit folded (one pass), not a full
    /// canonical reduction — after the fold `rhs' < 2^255 + 38 < 2p`, so
    /// `2p - rhs'` cannot underflow. Subtractions pepper the point
    /// add/double formulas, so the saved passes show up in verify latency.
    pub fn sub(self, rhs: Fe) -> Fe {
        // 2p = 2^256 - 38, which still fits in four limbs.
        const TWO_P: [u64; 4] = [
            0xffff_ffff_ffff_ffda,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
        ];
        let mut r = rhs.0;
        let top = r[3] >> 63;
        r[3] &= 0x7fff_ffff_ffff_ffff;
        let mut carry = (top as u128) * 19;
        for limb in r.iter_mut() {
            let cur = *limb as u128 + carry;
            *limb = cur as u64;
            carry = cur >> 64;
        }
        let mut neg = TWO_P;
        crate::bignum::sub_assign(&mut neg, &r);
        self.add(Fe(neg))
    }

    /// Negation.
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Folds a 512-bit product into 256 bits using 2^256 ≡ 38 (mod p).
    fn fold_wide(wide: &[u64; 8]) -> Fe {
        let mut r = [0u64; 4];
        r.copy_from_slice(&wide[..4]);
        let mut carry: u128 = 0;
        for i in 0..4 {
            let cur = r[i] as u128 + wide[4 + i] as u128 * 38 + carry;
            r[i] = cur as u64;
            carry = cur >> 64;
        }
        // carry < 38 "2^256 units" remain; fold until none do (the second
        // fold can itself overflow limb 3 when r is near 2^256).
        let mut extra = carry as u64;
        while extra != 0 {
            let mut c = extra as u128 * 38;
            for limb in r.iter_mut() {
                let cur = *limb as u128 + c;
                *limb = cur as u64;
                c = cur >> 64;
            }
            extra = c as u64;
        }
        Fe(r)
    }

    /// Multiplication.
    pub fn mul(self, rhs: Fe) -> Fe {
        let mut wide = [0u64; 8];
        crate::bignum::mul_limbs(&self.0, &rhs.0, &mut wide);
        Fe::fold_wide(&wide)
    }

    /// Squaring, via the dedicated limb squaring (10 limb multiplies
    /// against 16 for a general multiply). Squarings dominate the doubling
    /// chain of scalar multiplication, so this matters for verify latency.
    pub fn square(self) -> Fe {
        let mut wide = [0u64; 8];
        crate::bignum::square_limbs(&self.0, &mut wide);
        Fe::fold_wide(&wide)
    }

    /// Exponentiation by a 256-bit little-endian exponent.
    pub fn pow(self, exp: &[u64; 4]) -> Fe {
        let mut result = Fe::ONE;
        for i in (0..256).rev() {
            result = result.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                result = result.mul(self);
            }
        }
        result
    }

    /// `self^(2^k)`: k successive squarings.
    fn pow2k(self, k: u32) -> Fe {
        let mut r = self;
        for _ in 0..k {
            r = r.square();
        }
        r
    }

    /// `self^(2^250 - 1)`, the long run of ones in (p−5)/8 = 2^252 − 3
    /// ([`Fe::pow_p58`] is its only caller), by a repeated-doubling chain:
    /// 249 squarings and 10 multiplies against ~250 multiplies for
    /// generic square-and-multiply ([`Fe::pow`]).
    fn pow22501(self) -> Fe {
        let t2 = self.square(); // x^2
        let x9 = t2.square().square().mul(self); // x^9
        let x11 = x9.mul(t2); // x^11
        let x31 = x11.square().mul(x9); // x^31 = x^(2^5 - 1)
        let f10 = x31.pow2k(5).mul(x31); // x^(2^10 - 1)
        let f20 = f10.pow2k(10).mul(f10); // x^(2^20 - 1)
        let f40 = f20.pow2k(20).mul(f20); // x^(2^40 - 1)
        let f50 = f40.pow2k(10).mul(f10); // x^(2^50 - 1)
        let f100 = f50.pow2k(50).mul(f50); // x^(2^100 - 1)
        let f200 = f100.pow2k(100).mul(f100); // x^(2^200 - 1)
        f200.pow2k(50).mul(f50) // x^(2^250 - 1)
    }

    /// Multiplicative inverse by safegcd; returns zero for zero.
    ///
    /// Starting from (f, g) = (p, self) with d = 0, e = 1, each round runs
    /// 62 divsteps on the low limbs only (`divsteps_62_var`) and applies
    /// the resulting matrix to (f, g) and, mod p, to (d, e), which keeps
    /// d·self ≡ f and e·self ≡ g (mod p). When g reaches 0, f is
    /// ±gcd(p, self) = ±1, so ±d is the inverse. Variable time: the number
    /// of rounds and every branch in the divsteps depend on the value.
    pub fn invert(self) -> Fe {
        let mut d: Signed62 = [0; 5];
        let mut e: Signed62 = [1, 0, 0, 0, 0];
        let mut f = P62;
        let mut g = to_signed62(&self.reduce_full().0);
        let mut len = 5;
        let mut eta = -1; // −delta; delta starts at 1
        loop {
            let t;
            (eta, t) = divsteps_62_var(eta, f[0] as u64, g[0] as u64);
            update_de(&mut d, &mut e, &t);
            update_fg(&mut f[..len], &mut g[..len], &t);
            if g[..len].iter().all(|&limb| limb == 0) {
                break;
            }
            // f and g shrink by about 62 bits per round: once both top
            // limbs are sign-only (0 or −1), fold them into the limb below.
            let (ftop, gtop) = (f[len - 1], g[len - 1]);
            if len > 1 && (ftop ^ (ftop >> 63)) | (gtop ^ (gtop >> 63)) == 0 {
                f[len - 2] |= ((ftop as u64) << 62) as i64;
                g[len - 2] |= ((gtop as u64) << 62) as i64;
                len -= 1;
            }
        }
        normalize62(d, f[len - 1] < 0)
    }

    /// `self^((p-5)/8)`, the square-root-candidate exponent of
    /// [`Fe::sqrt_ratio`].
    fn pow_p58(self) -> Fe {
        // (p-5)/8 = 2^252 - 3 = (2^250 - 1)·2^2 + 1.
        self.pow22501().pow2k(2).mul(self)
    }

    /// True iff the canonical value is zero.
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Parity of the canonical value (used as the "sign" of x-coordinates).
    pub fn is_odd(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Square root for p ≡ 5 (mod 8): candidate = x^((p+3)/8), fixed up by
    /// sqrt(-1) when needed. Returns `None` if no root exists.
    pub fn sqrt(self) -> Option<Fe> {
        // (p+3)/8 = 2^252 - 2, computed from P to avoid transcription.
        let mut e = P;
        e[0] += 3; // no carry: ...ed + 3 = ...f0
        // divide by 8
        for i in 0..4 {
            e[i] >>= 3;
            if i + 1 < 4 {
                e[i] |= e[i + 1] << 61;
            }
        }
        let candidate = self.pow(&e);
        if candidate.square() == self {
            return Some(candidate);
        }
        let candidate = candidate.mul(sqrt_m1());
        if candidate.square() == self {
            return Some(candidate);
        }
        None
    }

    /// `sqrt(u/v)` in a single exponentiation (RFC 8032 §5.1.3): the
    /// candidate is `u·v³·(u·v⁷)^((p-5)/8)`, fixed up by sqrt(-1) when
    /// `v·x² == -u`. Replaces the separate invert-then-sqrt (two
    /// exponentiations) on the point-decompression path. Returns `None`
    /// when `u/v` is a non-residue, including `v = 0` with `u != 0`.
    pub fn sqrt_ratio(u: Fe, v: Fe) -> Option<Fe> {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let candidate = u.mul(v3).mul(u.mul(v7).pow_p58());
        let check = v.mul(candidate.square());
        if check == u {
            return Some(candidate);
        }
        if check == u.neg() {
            return Some(candidate.mul(sqrt_m1()));
        }
        None
    }
}

/// An integer as five signed 62-bit limbs, Σ v[i]·2^(62·i): the working
/// form of [`Fe::invert`]. Limbs below the top one stay in [0, 2^62)
/// after each update, so the top limb carries the sign.
type Signed62 = [i64; 5];

const M62: u64 = u64::MAX >> 2;

/// p in balanced signed-62 digits (each lower digit in [−2^61, 2^61)):
/// {−19, 0, 0, 0, 128}. Zero middle limbs make the modulus terms of
/// [`update_de`] fold away.
const P62: Signed62 = {
    let mut v = to_signed62(&P);
    let mut i = 0;
    while i < 4 {
        if v[i] >= 1 << 61 {
            v[i] -= 1 << 62;
            v[i + 1] += 1;
        }
        i += 1;
    }
    v
};

/// p⁻¹ mod 2^62 by Newton iteration: x ← x·(2 − p·x) doubles the number
/// of correct low bits, and x = p is already right to three (p² ≡ 1 mod 8
/// for odd p), so five steps reach 96 ≥ 62.
const P_INV62: u64 = {
    let p = P[0];
    let mut x = p;
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(x)));
        i += 1;
    }
    x & M62
};

/// Splits four 64-bit limbs (a value below 2^256) into 62-bit limbs.
const fn to_signed62(a: &[u64; 4]) -> Signed62 {
    [
        (a[0] & M62) as i64,
        ((a[0] >> 62 | a[1] << 2) & M62) as i64,
        ((a[1] >> 60 | a[2] << 4) & M62) as i64,
        ((a[2] >> 58 | a[3] << 6) & M62) as i64,
        (a[3] >> 56) as i64,
    ]
}

/// The transition matrix of 62 divsteps, scaled by 2^62: they take
/// (f, g) to ((u·f + v·g) / 2^62, (q·f + r·g) / 2^62).
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Runs 62 divsteps on the low 64 bits of f (odd) and g, returning the new
/// eta (= −delta) and the matrix. Runs of zero bits in g are skipped in
/// one shift, and each other step cancels up to 6 (eta < 0) or 4 low bits
/// of g at once. f and g are tracked mod 2^64 only, and the matrix entries
/// (which fit in i64: |u| + |v| ≤ 2^62) are kept as two's-complement u64,
/// so every update wraps explicitly.
fn divsteps_62_var(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut i = 62u32;
    loop {
        // The sentinel bits above i stop the count at the steps left.
        let zeros = (g | (u64::MAX << i)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        i -= zeros;
        if i == 0 {
            break;
        }
        // f and g are odd here. No more than i bits may be cancelled, nor
        // more than eta + 1, past which eta's sign flips again.
        let w;
        if eta < 0 {
            // Swap: (f, g) ← (g, −f).
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            let limit = (eta + 1).min(i64::from(i)) as u32;
            let m = (u64::MAX >> (64 - limit)) & 63;
            // f·(f² − 2) ≡ −f⁻¹ (mod 64), so w·f ≡ −g on the masked bits.
            w = f.wrapping_mul(g).wrapping_mul(f.wrapping_mul(f).wrapping_sub(2)) & m;
        } else {
            let limit = (eta + 1).min(i64::from(i)) as u32;
            let m = (u64::MAX >> (64 - limit)) & 15;
            // f + ((f + 1) & 4)·2 ≡ f⁻¹ (mod 16).
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            w = f_inv.wrapping_neg().wrapping_mul(g) & m;
        }
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Trans { u: u as i64, v: v as i64, q: q as i64, r: r as i64 };
    (eta, t)
}

/// (d, e) ← (t·(d, e) + p·(md, me)) / 2^62, with md and me chosen so that
/// the division is exact. Inputs and outputs lie in (−2p, p).
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Trans) {
    let (u, v, q, r) = (i128::from(t.u), i128::from(t.v), i128::from(t.q), i128::from(t.r));
    // Start md, me at the columns of t that meet a negative d or e, which
    // keeps the outputs above −2p.
    let mut md = (if d[4] < 0 { t.u } else { 0 }) + (if e[4] < 0 { t.v } else { 0 });
    let mut me = (if d[4] < 0 { t.q } else { 0 }) + (if e[4] < 0 { t.r } else { 0 });
    let mut cd = u * i128::from(d[0]) + v * i128::from(e[0]);
    let mut ce = q * i128::from(d[0]) + r * i128::from(e[0]);
    // Clear the low 62 bits: md ≡ −cd·p⁻¹ (mod 2^62).
    md -= (P_INV62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (P_INV62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    let (md, me) = (i128::from(md), i128::from(me));
    cd += i128::from(P62[0]) * md;
    ce += i128::from(P62[0]) * me;
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += u * i128::from(d[i]) + v * i128::from(e[i]) + i128::from(P62[i]) * md;
        ce += q * i128::from(d[i]) + r * i128::from(e[i]) + i128::from(P62[i]) * me;
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// (f, g) ← t·(f, g) / 2^62 over the live limbs (the divsteps made the
/// low 62 bits of both products zero).
fn update_fg(f: &mut [i64], g: &mut [i64], t: &Trans) {
    let (u, v, q, r) = (i128::from(t.u), i128::from(t.v), i128::from(t.q), i128::from(t.r));
    let mut cf = u * i128::from(f[0]) + v * i128::from(g[0]);
    let mut cg = q * i128::from(f[0]) + r * i128::from(g[0]);
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    let len = f.len();
    for i in 1..len {
        cf += u * i128::from(f[i]) + v * i128::from(g[i]);
        cg += q * i128::from(f[i]) + r * i128::from(g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// Maps d in (−2p, p), negated first when `negate`, into [0, p) and back
/// to four 64-bit limbs.
fn normalize62(mut d: Signed62, negate: bool) -> Fe {
    fn add_p_if_negative(d: &mut Signed62) {
        if d[4] < 0 {
            for (limb, p) in d.iter_mut().zip(P62) {
                *limb += p;
            }
        }
    }
    fn propagate(d: &mut Signed62) {
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    }
    add_p_if_negative(&mut d); // now in (−p, p)
    if negate {
        for limb in d.iter_mut() {
            *limb = -*limb;
        }
    }
    propagate(&mut d);
    add_p_if_negative(&mut d); // now in [0, p)
    propagate(&mut d);
    let d = d.map(|limb| limb as u64);
    Fe([
        d[0] | d[1] << 62,
        d[1] >> 2 | d[2] << 60,
        d[2] >> 4 | d[3] << 58,
        d[3] >> 6 | d[4] << 56,
    ])
}

/// sqrt(-1) = 2^((p-1)/4) mod p, derived once.
pub fn sqrt_m1() -> Fe {
    use std::sync::OnceLock;
    static V: OnceLock<Fe> = OnceLock::new();
    *V.get_or_init(|| {
        // (p-1)/4: p-1 = 2^255 - 20; divide by 4.
        let mut e = P;
        e[0] -= 1;
        for i in 0..4 {
            e[i] >>= 2;
            if i + 1 < 4 {
                e[i] |= e[i + 1] << 62;
            }
        }
        Fe::from_u64(2).pow(&e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    /// p − 2: `x.pow(&P_MINUS_2)` is the Fermat inverse, the oracle for
    /// the safegcd [`Fe::invert`].
    const P_MINUS_2: [u64; 4] = {
        let mut e = P;
        e[0] -= 2;
        e
    };

    /// Checks `invert` against the Fermat oracle and, for non-zero
    /// inputs, against the defining identity.
    fn assert_inverse(x: Fe) {
        let inv = x.invert();
        assert_eq!(inv, x.pow(&P_MINUS_2), "invert({:x?})", x.0);
        if !x.is_zero() {
            assert_eq!(x.mul(inv), Fe::ONE, "x·x⁻¹ for {:x?}", x.0);
        }
    }

    #[test]
    fn addition_chain_matches_generic_pow() {
        // pow_p58's addition chain (the sqrt_ratio exponent, the only
        // caller of pow22501) must agree with plain square-and-multiply
        // over the published exponent; invert, now safegcd, is checked
        // against the Fermat exponent alongside it.
        let p58 = {
            let mut e = P;
            e[0] -= 5;
            for i in 0..4 {
                e[i] >>= 3;
                if i + 1 < 4 {
                    e[i] |= e[i + 1] << 61;
                }
            }
            e
        };
        for v in [1u64, 2, 3, 19, 123456789, u64::MAX] {
            let x = fe(v);
            assert_eq!(x.invert(), x.pow(&P_MINUS_2), "invert({v})");
            assert_eq!(x.pow_p58(), x.pow(&p58), "pow_p58({v})");
        }
        let big = Fe::from_bytes(&[0xa7; 32]);
        assert_eq!(big.invert(), big.pow(&P_MINUS_2));
        assert_eq!(big.pow_p58(), big.pow(&p58));
    }

    #[test]
    fn field_laws() {
        let a = fe(123456789);
        let b = fe(987654321);
        let c = fe(31337);
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        assert_eq!(a.sub(a), Fe::ZERO);
        assert_eq!(a.add(a.neg()), Fe::ZERO);
        assert_eq!(a.mul(Fe::ONE), a);
    }

    #[test]
    fn inverse() {
        let a = fe(1234567890123456789);
        assert_eq!(a.mul(a.invert()), Fe::ONE);
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
        assert_eq!(Fe::ONE.invert(), Fe::ONE);
        // −1 is its own inverse.
        let p_minus_1 = Fe([P[0] - 1, P[1], P[2], P[3]]);
        assert_eq!(p_minus_1.invert(), p_minus_1);
        for x in [Fe::ZERO, Fe::ONE, fe(2), fe(19), p_minus_1] {
            assert_inverse(x);
        }
    }

    #[test]
    fn safegcd_constants() {
        assert_eq!(P62, [-19, 0, 0, 0, 128]);
        assert_eq!(P[0].wrapping_mul(P_INV62) & M62, 1);
    }

    #[test]
    fn invert_non_canonical_limbs() {
        // Fe may hold values in [p, 2^256): p itself is zero, p + 1 is
        // one, and 2^256 − 1 ≡ 2·19 − 1 = 37.
        assert_eq!(Fe(P).invert(), Fe::ZERO);
        let p_plus_1 = Fe([P[0] + 1, P[1], P[2], P[3]]);
        assert_eq!(p_plus_1.invert(), Fe::ONE);
        let all_ones = Fe([u64::MAX; 4]);
        assert_eq!(all_ones, fe(37));
        assert_eq!(all_ones.invert(), fe(37).invert());
        for x in [Fe(P), p_plus_1, all_ones] {
            assert_inverse(x);
        }
    }

    #[test]
    fn invert_matches_fermat_on_seeded_sweep() {
        // Raw limbs, top bit included: from_bytes would mask bit 255 and
        // never produce a non-canonical input.
        let mut rng = crate::chacha::ChaChaRng::seed_from_u64(2019);
        for _ in 0..10_000 {
            assert_inverse(Fe([rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]));
        }
        // Small and sparse values take the fewest divsteps rounds.
        for shift in 0..256 {
            let mut limbs = [0u64; 4];
            limbs[shift / 64] = 1 << (shift % 64);
            assert_inverse(Fe(limbs));
            limbs[0] |= 1;
            assert_inverse(Fe(limbs));
        }
    }

    #[test]
    fn p_wraps_to_zero() {
        let p = Fe(P);
        assert!(p.is_zero());
        assert_eq!(p.add(Fe::ONE), Fe::ONE);
        // 2^255 ≡ 19: set bit 255 via doubling 2^254.
        let mut x = Fe::ONE;
        for _ in 0..255 {
            x = x.add(x);
        }
        assert_eq!(x, fe(19));
    }

    #[test]
    fn sqrt_minus_one_squares_to_minus_one() {
        let i = sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
    }

    #[test]
    fn sqrt_roundtrip() {
        for v in [1u64, 2, 4, 9, 16, 25, 31337, 999983] {
            let x = fe(v);
            let sq = x.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == x || root == x.neg(), "v={v}");
        }
    }

    #[test]
    fn nonresidue_has_no_root() {
        // In GF(p) with p ≡ 5 (mod 8), exactly half the non-zero elements
        // are squares; find one non-square among small values.
        let mut found_none = false;
        for v in 2u64..40 {
            if fe(v).sqrt().is_none() {
                found_none = true;
                break;
            }
        }
        assert!(found_none, "expected a quadratic non-residue among small ints");
    }

    #[test]
    fn dedicated_square_matches_mul() {
        let mut vals = vec![Fe::ZERO, Fe::ONE, Fe(P), sqrt_m1()];
        let mut x = fe(0x1234_5678_9abc_def0);
        for _ in 0..32 {
            x = x.mul(x.add(Fe::ONE));
            vals.push(x);
        }
        for v in vals {
            assert_eq!(v.square(), v.mul(v));
        }
    }

    #[test]
    fn sqrt_ratio_agrees_with_invert_then_sqrt() {
        let mut x = fe(3);
        for _ in 0..48 {
            x = x.mul(x).add(Fe::ONE);
            let u = x;
            let v = x.add(fe(17));
            let reference = u.mul(v.invert()).sqrt();
            let fast = Fe::sqrt_ratio(u, v);
            match (reference, fast) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(a == b || a == b.neg(), "roots differ beyond sign");
                    assert_eq!(v.mul(b.square()), u);
                }
                (a, b) => panic!("residue disagreement: {:?} vs {:?}", a, b),
            }
        }
        // Edge cases: 0/v has root 0; u/0 has no root for u != 0.
        assert_eq!(Fe::sqrt_ratio(Fe::ZERO, fe(7)), Some(Fe::ZERO));
        assert_eq!(Fe::sqrt_ratio(fe(7), Fe::ZERO), None);
    }

    #[test]
    fn serialization_canonical() {
        // p + 5 serializes as 5.
        let mut limbs = P;
        limbs[0] += 5;
        assert_eq!(Fe(limbs).to_bytes(), fe(5).to_bytes());
        // Round-trip.
        let a = fe(0xdead_beef_cafe_f00d);
        assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let x = fe(7);
        let mut expect = Fe::ONE;
        for _ in 0..13 {
            expect = expect.mul(x);
        }
        assert_eq!(x.pow(&[13, 0, 0, 0]), expect);
    }
}
