//! The frozen seed Ed25519 paths: generic double-and-add scalar
//! multiplication, the doubling-table base-point multiplication and the
//! seed signature verification (RFC 8032).
//!
//! Kept for two jobs: the *baseline* in the benchmarks (so speedups are
//! measured against what the code did before the windowed kernels landed),
//! and an *independent oracle* for the equivalence tests. The
//! extended-coordinate point arithmetic, the curve constant d, the base
//! point and decompression are this module's own copies on
//! `ccf_crypto`'s field [`Fe`], so they share no point, table or
//! decompression code with the fast paths. Field squarings go through
//! `mul`, as the seed's did.

use ccf_crypto::bignum::Scalar;
use ccf_crypto::field25519::Fe;
use ccf_crypto::sha2::Sha512;
use ccf_crypto::{CryptoError, Signature, VerifyingKey};
use std::sync::OnceLock;

/// A point on -x² + y² = 1 + d·x²y² in extended coordinates
/// (X : Y : Z : T) with T = XY/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// d = -121665 / 121666.
fn d() -> Fe {
    static D: OnceLock<Fe> = OnceLock::new();
    *D.get_or_init(|| Fe::from_u64(121665).neg().mul(Fe::from_u64(121666).invert()))
}

fn d2() -> Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    *D2.get_or_init(|| d().add(d()))
}

/// The standard base point B (y = 4/5, x even).
pub fn base_point() -> &'static Point {
    static B: OnceLock<Point> = OnceLock::new();
    B.get_or_init(|| {
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        Point::from_y(y, false).expect("base point must decompress")
    })
}

impl Point {
    fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The seed decompression from y: invert-then-sqrt (two
    /// exponentiations).
    fn from_y(y: Fe, x_odd: bool) -> Option<Point> {
        let yy = y.mul(y);
        let u = yy.sub(Fe::ONE);
        let v = d().mul(yy).add(Fe::ONE);
        let mut x = u.mul(v.invert()).sqrt()?;
        if x.is_odd() != x_odd {
            x = x.neg();
        }
        if x.is_zero() && x_odd {
            return None; // "negative zero" is not a valid encoding
        }
        Some(Point { x, y, z: Fe::ONE, t: x.mul(y) })
    }

    /// Decompresses a 32-byte encoding, rejecting non-canonical y and
    /// invalid points.
    fn decompress(bytes: &[u8; 32]) -> Result<Point, CryptoError> {
        let x_odd = bytes[31] & 0x80 != 0;
        let y = Fe::from_bytes(bytes);
        let mut canonical = *bytes;
        canonical[31] &= 0x7f;
        if y.to_bytes() != canonical {
            return Err(CryptoError::InvalidPoint);
        }
        Point::from_y(y, x_odd).ok_or(CryptoError::InvalidPoint)
    }

    /// The standard 32-byte encoding (y with x's sign bit), the form in
    /// which outputs are compared with `ccf_crypto::ed25519::Point`.
    pub fn compress(&self) -> [u8; 32] {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let mut out = self.y.mul(zi).to_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// Affine equality: x1·z2 == x2·z1 and y1·z2 == y2·z1.
    fn equals(&self, other: &Point) -> bool {
        self.x.mul(other.z) == other.x.mul(self.z) && self.y.mul(other.z) == other.y.mul(self.z)
    }
}

fn add_seed(p: &Point, q: &Point) -> Point {
    let a = p.y.sub(p.x).mul(q.y.sub(q.x));
    let b = p.y.add(p.x).mul(q.y.add(q.x));
    let c = p.t.mul(d2()).mul(q.t);
    let dd = p.z.mul(q.z).add(p.z.mul(q.z));
    let e = b.sub(a);
    let f = dd.sub(c);
    let g = dd.add(c);
    let h = b.add(a);
    Point { x: e.mul(f), y: g.mul(h), z: f.mul(g), t: e.mul(h) }
}

fn double_seed(p: &Point) -> Point {
    let a = p.x.mul(p.x);
    let b = p.y.mul(p.y);
    let c = p.z.mul(p.z).add(p.z.mul(p.z));
    let h = a.add(b);
    let xy = p.x.add(p.y);
    let e = h.sub(xy.mul(xy));
    let g = a.sub(b);
    let f = c.add(g);
    Point { x: e.mul(f), y: g.mul(h), z: f.mul(g), t: e.mul(h) }
}

/// Generic double-and-add scalar multiplication (the seed `Point::mul`).
pub fn mul_seed(p: &Point, s: &Scalar) -> Point {
    let mut acc = Point::identity();
    for i in (0..256).rev() {
        acc = double_seed(&acc);
        if s.bit(i) == 1 {
            acc = add_seed(&acc, p);
        }
    }
    acc
}

/// The seed base-point table: B, 2B, 4B, …, 2^255·B.
fn base_doubles_table() -> &'static Vec<Point> {
    static T: OnceLock<Vec<Point>> = OnceLock::new();
    T.get_or_init(|| {
        let mut v = Vec::with_capacity(256);
        let mut p = *base_point();
        for _ in 0..256 {
            v.push(p);
            p = double_seed(&p);
        }
        v
    })
}

/// The seed `Point::mul_base`: one table addition per set scalar bit.
pub fn mul_base_seed(s: &Scalar) -> Point {
    let mut acc = Point::identity();
    for (i, p) in base_doubles_table().iter().enumerate() {
        if s.bit(i) == 1 {
            acc = add_seed(&acc, p);
        }
    }
    acc
}

/// The seed `VerifyingKey::verify`: S·B == R + k·A with independent
/// scalar multiplications and the doubling-table base-point path.
pub fn verify(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
    let r_bytes: [u8; 32] = sig.0[..32].try_into().unwrap();
    let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
    let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::BadSignature)?;
    let r = Point::decompress(&r_bytes).map_err(|_| CryptoError::BadSignature)?;
    let a = Point::decompress(&key.0).map_err(|_| CryptoError::BadSignature)?;
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(&key.0);
    h.update(msg);
    let k = Scalar::from_bytes_wide(&h.finalize());
    let lhs = mul_base_seed(&s);
    let rhs = add_seed(&r, &mul_seed(&a, &k));
    if lhs.equals(&rhs) {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_crypto::bignum::L;
    use ccf_crypto::chacha::ChaChaRng;
    use ccf_crypto::SigningKey;

    #[test]
    fn fast_verify_matches_reference_verify() {
        let mut rng = ChaChaRng::seed_from_u64(2024);
        let key = SigningKey::generate(&mut rng);
        let pk = key.verifying_key();
        let msg = b"equivalence of fast and seed verification";
        let sig = key.sign(msg);
        assert!(pk.verify(msg, &sig).is_ok());
        assert!(verify(&pk, msg, &sig).is_ok());
        // Tampering rejected identically by both paths.
        for i in [0usize, 17, 32, 63] {
            let mut bad = sig.0;
            bad[i] ^= 0x40;
            let bad = Signature(bad);
            assert_eq!(pk.verify(msg, &bad).is_err(), verify(&pk, msg, &bad).is_err());
            assert!(pk.verify(msg, &bad).is_err(), "byte {i}");
        }
    }

    /// The radix-256 `mul_base` against the seed doubling table (and, for
    /// a few scalars, the seed double-and-add) on compressed points.
    #[test]
    fn mul_base_matches_seed_paths() {
        use ccf_crypto::ed25519::Point as FastPoint;
        let check = |s: &Scalar| {
            assert_eq!(
                FastPoint::mul_base(s).compress(),
                mul_base_seed(s).compress(),
                "scalar {:?}",
                s.0
            );
        };
        let mut lm1 = L;
        lm1[0] -= 1;
        for s in [Scalar::ZERO, Scalar::ONE, Scalar(lm1), Scalar([0, 0, 0, 1 << 60])] {
            check(&s);
        }
        // Bytes at the ±128 carry boundary (a top byte of 0x0f keeps each
        // scalar below 2^252 < L).
        for fill in [0x7fu8, 0x80, 0xff] {
            let mut bytes = [fill; 32];
            bytes[31] = 0x0f;
            check(&Scalar::from_canonical_bytes(&bytes).unwrap());
        }
        let mut rng = ChaChaRng::seed_from_u64(1234);
        for i in 0..200 {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let s = Scalar::from_bytes_wide(&wide);
            check(&s);
            if i < 20 {
                assert_eq!(
                    FastPoint::mul_base(&s).compress(),
                    mul_seed(base_point(), &s).compress()
                );
            }
        }
    }
}
