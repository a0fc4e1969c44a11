//! Ed25519 signatures (RFC 8032).
//!
//! All curve constants are *derived*, not transcribed: d = -121665/121666,
//! the base point is decompressed from y = 4/5 with even x, and sqrt(-1)
//! comes from [`crate::field25519`]. Self-consistency tests then verify the
//! derivations (point on curve, L·B = identity, sign/verify roundtrips).
//!
//! Signing costs two SHA-512 hashes, one fixed-base multiplication
//! ([`Point::mul_base`]: at most 32 affine additions on a radix-256 table
//! of 4096 precomputed multiples of B) and one field inversion (in
//! [`Point::compress`]; a variable-time safegcd, [`Fe::invert`], whose
//! input Z derives from the secret nonce). Verification uses a width-8
//! wNAF base table and one shared doubling chain.
//!
//! Used throughout the reproduction for: node identities, the service
//! identity, signature transactions over Merkle roots, receipts, member
//! request signing (COSE-Sign1-analog envelopes), and certificates.

use crate::bignum::Scalar;
use crate::field25519::Fe;
use crate::sha2::Sha512;
use crate::CryptoError;
use std::sync::OnceLock;

/// A point on the twisted Edwards curve -x² + y² = 1 + d·x²y², in extended
/// coordinates (X : Y : Z : T) with T = XY/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

fn d() -> Fe {
    static D: OnceLock<Fe> = OnceLock::new();
    *D.get_or_init(|| {
        // d = -121665 / 121666.
        Fe::from_u64(121665).neg().mul(Fe::from_u64(121666).invert())
    })
}

fn d2() -> Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    *D2.get_or_init(|| d().add(d()))
}

/// The standard base point B (y = 4/5, x even), derived by decompression.
pub fn base_point() -> &'static Point {
    static B: OnceLock<Point> = OnceLock::new();
    B.get_or_init(|| {
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        Point::from_y(y, false).expect("base point must decompress")
    })
}

/// Cached form of a point for repeated additions: (Y+X, Y−X, Z, 2d·T).
/// Feeding an addition from this form saves the per-add recomputation of
/// Y±X and 2d·T, cutting the unified add from 10 field multiplies to 8.
#[derive(Clone, Copy, Debug)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

impl Cached {
    fn from_point(p: &Point) -> Cached {
        Cached {
            y_plus_x: p.y.add(p.x),
            y_minus_x: p.y.sub(p.x),
            z: p.z,
            t2d: p.t.mul(d2()),
        }
    }

    /// Negation: swap Y±X and flip 2d·T.
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

/// Affine Niels form (y+x, y−x, 2d·x·y) with Z = 1 implicit; one multiply
/// cheaper again than [`Cached`] (7 per add). Only worth precomputing for
/// long-lived tables since normalizing to Z = 1 costs an inversion —
/// amortized below via Montgomery batch inversion.
#[derive(Clone, Copy, Debug)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl AffineNiels {
    fn neg(&self) -> AffineNiels {
        AffineNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// Normalizes a batch of points to affine Niels form with a single field
/// inversion (Montgomery's trick: invert the product of all Z's, then
/// peel off individual inverses with two multiplies each).
fn batch_to_affine(points: &[Point]) -> Vec<AffineNiels> {
    let n = points.len();
    let mut prefix = Vec::with_capacity(n); // prefix[i] = z_0·…·z_i
    let mut acc = Fe::ONE;
    for p in points {
        acc = acc.mul(p.z);
        prefix.push(acc);
    }
    let mut suffix_inv = acc.invert(); // (z_0·…·z_{n-1})^-1; Z is never 0
    let mut out = vec![
        AffineNiels { y_plus_x: Fe::ZERO, y_minus_x: Fe::ZERO, xy2d: Fe::ZERO };
        n
    ];
    for i in (0..n).rev() {
        let z_inv = if i == 0 { suffix_inv } else { prefix[i - 1].mul(suffix_inv) };
        suffix_inv = suffix_inv.mul(points[i].z);
        let x = points[i].x.mul(z_inv);
        let y = points[i].y.mul(z_inv);
        out[i] = AffineNiels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(d2()),
        };
    }
    out
}

/// Width-8 wNAF table for the base point: odd multiples B, 3B, …, 127B in
/// affine Niels form, for the shared-doubling verification kernel.
fn base_wnaf_table() -> &'static Vec<AffineNiels> {
    static T: OnceLock<Vec<AffineNiels>> = OnceLock::new();
    T.get_or_init(|| {
        let b2 = base_point().double();
        let c2 = Cached::from_point(&b2);
        let mut odds = Vec::with_capacity(64);
        odds.push(*base_point());
        for j in 1..64 {
            let prev: Point = odds[j - 1];
            odds.push(prev.add_cached(&c2));
        }
        batch_to_affine(&odds)
    })
}

/// Radix-256 fixed-window table for the base point:
/// `table[i][j] = (j+1)·256^i·B` for i < 32, j < 128. With signed digits
/// in [-128, 128] this turns `mul_base` into at most 32 table additions
/// and zero doublings (the doublings are baked into the 256^i rows).
/// 4096 affine points, about 393 KB, built once per process with a single
/// batched inversion.
fn base_radix256_table() -> &'static Vec<[AffineNiels; 128]> {
    static T: OnceLock<Vec<[AffineNiels; 128]>> = OnceLock::new();
    T.get_or_init(|| {
        let mut pts = Vec::with_capacity(32 * 128);
        let mut row_base = *base_point();
        for _ in 0..32 {
            let step = Cached::from_point(&row_base);
            let mut cur = row_base;
            for j in 0..128 {
                pts.push(cur);
                if j < 127 {
                    cur = cur.add_cached(&step);
                }
            }
            // cur is now 128·256^i·B, so the next row base is its double.
            row_base = cur.double();
        }
        let affine = batch_to_affine(&pts);
        affine.chunks_exact(128).map(|c| <[AffineNiels; 128]>::try_from(c).unwrap()).collect()
    })
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// Recovers a point from its y-coordinate and the sign (oddness) of x.
    pub fn from_y(y: Fe, x_odd: bool) -> Option<Point> {
        // x² = (y² - 1) / (d·y² + 1), solved with a single exponentiation
        // (Fe::sqrt_ratio) instead of invert-then-sqrt; decompression is a
        // fixed cost on every signature verification, so halving its
        // exponentiation count is worth it.
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = d().mul(yy).add(Fe::ONE);
        let mut x = Fe::sqrt_ratio(u, v)?;
        if x.is_odd() != x_odd {
            x = x.neg();
        }
        if x.is_zero() && x_odd {
            return None; // "negative zero" is not a valid encoding
        }
        let p = Point { x, y, z: Fe::ONE, t: x.mul(y) };
        debug_assert!(p.is_on_curve());
        Some(p)
    }

    /// Checks the curve equation (in projective form).
    pub fn is_on_curve(&self) -> bool {
        // -X² + Y² = Z² + d·T², and T·Z = X·Y.
        let lhs = self.y.square().sub(self.x.square());
        let rhs = self.z.square().add(d().mul(self.t.square()));
        lhs == rhs && self.t.mul(self.z) == self.x.mul(self.y)
    }

    /// Unified point addition (complete for a = -1 twisted Edwards).
    pub fn add(&self, q: &Point) -> Point {
        self.add_cached(&Cached::from_point(q))
    }

    /// Addition against a precomputed [`Cached`] operand (8 multiplies).
    fn add_cached(&self, q: &Cached) -> Point {
        let a = self.y.sub(self.x).mul(q.y_minus_x);
        let b = self.y.add(self.x).mul(q.y_plus_x);
        let c = self.t.mul(q.t2d);
        let zz = self.z.mul(q.z);
        let dd = zz.add(zz);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        Point { x: e.mul(f), y: g.mul(h), z: f.mul(g), t: e.mul(h) }
    }

    /// Addition against an affine Niels operand, Z = 1 (7 multiplies).
    fn add_affine(&self, q: &AffineNiels) -> Point {
        let a = self.y.sub(self.x).mul(q.y_minus_x);
        let b = self.y.add(self.x).mul(q.y_plus_x);
        let c = self.t.mul(q.xy2d);
        let dd = self.z.add(self.z);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        Point { x: e.mul(f), y: g.mul(h), z: f.mul(g), t: e.mul(h) }
    }

    /// Point doubling (the Z² is shared; 4 squarings + 4 multiplies).
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        let h = a.add(b);
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = c.add(g);
        Point { x: e.mul(f), y: g.mul(h), z: f.mul(g), t: e.mul(h) }
    }

    /// Negation.
    pub fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// Scalar multiplication (double-and-add; not constant time — see the
    /// crate security disclaimer).
    pub fn mul(&self, s: &Scalar) -> Point {
        let mut acc = Point::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if s.bit(i) == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Fast base-point multiplication: signed radix-256 digits against the
    /// precomputed `(j+1)·256^i·B` table — at most 32 affine additions and
    /// no doublings. `s` must be reduced (< L), as every `Scalar`
    /// constructor except the raw limb tuple guarantees.
    pub fn mul_base(s: &Scalar) -> Point {
        // One digit per scalar byte, carry-adjusted to signed digits in
        // [-128, 127]. Scalars are < L < 2^253, so the top digit absorbs
        // the final carry without overflow.
        let mut e = s.to_bytes().map(i16::from);
        let mut carry = 0i16;
        for digit in e.iter_mut().take(31) {
            *digit += carry;
            carry = (*digit + 128) >> 8;
            *digit -= carry << 8;
        }
        e[31] += carry;
        let table = base_radix256_table();
        let mut acc = Point::identity();
        for (row, &digit) in table.iter().zip(e.iter()) {
            if digit != 0 {
                let entry = row[(digit.unsigned_abs() as usize) - 1];
                let entry = if digit > 0 { entry } else { entry.neg() };
                acc = acc.add_affine(&entry);
            }
        }
        acc
    }

    /// Compresses to the standard 32-byte encoding (y with x's sign bit).
    pub fn compress(&self) -> [u8; 32] {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let y = self.y.mul(zi);
        let mut out = y.to_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding; errors on invalid points.
    pub fn decompress(bytes: &[u8; 32]) -> Result<Point, CryptoError> {
        let x_odd = bytes[31] & 0x80 != 0;
        let y = Fe::from_bytes(bytes);
        // Reject non-canonical y (>= p) to make encodings unique.
        let mut canonical = *bytes;
        canonical[31] &= 0x7f;
        if y.to_bytes() != canonical {
            return Err(CryptoError::InvalidPoint);
        }
        Point::from_y(y, x_odd).ok_or(CryptoError::InvalidPoint)
    }

    /// Affine equality.
    pub fn equals(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  <=>  x1·z2 == x2·z1, same for y.
        self.x.mul(other.z) == other.x.mul(self.z)
            && self.y.mul(other.z) == other.y.mul(self.z)
    }

    /// True iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.equals(&Point::identity())
    }
}

/// Odd multiples P, 3P, 5P, …, 15P in cached form: the per-point table for
/// width-5 wNAF in the multiscalar kernel.
fn odd_multiples_cached(p: &Point) -> [Cached; 8] {
    let step = Cached::from_point(&p.double());
    let mut pts = [*p; 8];
    for j in 1..8 {
        pts[j] = pts[j - 1].add_cached(&step);
    }
    pts.map(|q| Cached::from_point(&q))
}

/// The shared-doubling multiscalar kernel (Strauss–Shamir interleaving):
/// computes `base·B + Σ sᵢ·Pᵢ` with ONE doubling chain for all scalars.
/// The base-point term uses width-8 wNAF against the static affine table;
/// each dynamic point gets a width-5 wNAF and an 8-entry cached table.
///
/// Single verification calls this with one pair (`s·B + k·(−A)`); batch
/// verification with `2n` pairs — the doubling chain, which dominates a
/// solo multiplication, is then amortized across the whole batch.
fn ms_mul(base: Option<&Scalar>, pairs: &[(Scalar, Point)]) -> Point {
    let base_naf = base.map(|s| s.naf(8));
    let pair_nafs: Vec<[i8; 257]> = pairs.iter().map(|(s, _)| s.naf(5)).collect();
    let tables: Vec<[Cached; 8]> = pairs.iter().map(|(_, p)| odd_multiples_cached(p)).collect();
    let top = base_naf
        .iter()
        .chain(pair_nafs.iter())
        .filter_map(|naf| naf.iter().rposition(|&d| d != 0))
        .max();
    let Some(top) = top else {
        return Point::identity(); // all scalars zero
    };
    let wnaf_base = base_wnaf_table();
    let mut acc = Point::identity();
    for i in (0..=top).rev() {
        acc = acc.double();
        if let Some(naf) = &base_naf {
            let digit = naf[i];
            if digit != 0 {
                let entry = wnaf_base[(digit.unsigned_abs() as usize - 1) / 2];
                let entry = if digit > 0 { entry } else { entry.neg() };
                acc = acc.add_affine(&entry);
            }
        }
        for (naf, table) in pair_nafs.iter().zip(&tables) {
            let digit = naf[i];
            if digit != 0 {
                let entry = table[(digit.unsigned_abs() as usize - 1) / 2];
                let entry = if digit > 0 { entry } else { entry.neg() };
                acc = acc.add_cached(&entry);
            }
        }
    }
    acc
}

/// An Ed25519 signature (R || S, 64 bytes).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({}…)", crate::hex::to_hex(&self.0[..8]))
    }
}

impl Signature {
    /// Parses from raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Signature, CryptoError> {
        let arr: [u8; 64] = bytes
            .try_into()
            .map_err(|_| CryptoError::InvalidLength { expected: 64, got: bytes.len() })?;
        Ok(Signature(arr))
    }

    /// The raw 64-byte encoding.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }
}

/// An Ed25519 private signing key (the 32-byte seed plus cached state).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    a: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(pub {})", crate::hex::to_hex(&self.public.0[..8]))
    }
}

impl SigningKey {
    /// Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(&seed);
        let digest = h.finalize();
        let mut a_bytes: [u8; 32] = digest[..32].try_into().unwrap();
        // Clamp.
        a_bytes[0] &= 248;
        a_bytes[31] &= 127;
        a_bytes[31] |= 64;
        let a = Scalar::from_bytes_reduced(&a_bytes);
        let prefix: [u8; 32] = digest[32..].try_into().unwrap();
        let public = VerifyingKey(Point::mul_base(&a).compress());
        SigningKey { seed, a, prefix, public }
    }

    /// Generates a key from a random generator.
    pub fn generate(rng: &mut crate::chacha::ChaChaRng) -> SigningKey {
        SigningKey::from_seed(rng.gen_seed())
    }

    /// The 32-byte seed (for serialization into sealed stores).
    pub fn seed(&self) -> [u8; 32] {
        self.seed
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public.clone()
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = Point::mul_base(&r).compress();
        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&self.public.0);
        h.update(msg);
        let k = Scalar::from_bytes_wide(&h.finalize());
        let s = k.mul_add(self.a, r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

/// An Ed25519 public verification key (compressed point).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey(pub [u8; 32]);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({}…)", crate::hex::to_hex(&self.0[..8]))
    }
}

impl VerifyingKey {
    /// Parses from raw bytes, validating the point.
    pub fn from_bytes(bytes: &[u8]) -> Result<VerifyingKey, CryptoError> {
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| CryptoError::InvalidLength { expected: 32, got: bytes.len() })?;
        Point::decompress(&arr)?;
        Ok(VerifyingKey(arr))
    }

    /// The raw 32-byte encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0
    }

    /// Verifies `sig` over `msg`: checks S·B == R + k·A, evaluated as
    /// `S·B − k·A == R` so both scalar multiplications share one doubling
    /// chain through the wNAF multiscalar kernel.
    ///
    /// This path is variable-time in the scalars, which is fine here: S, R
    /// and k are all public values of a (purported) signature, so timing
    /// reveals nothing secret. Signing, which handles the secret nonce,
    /// indexes the radix-256 base table by its digits and skips zero
    /// digits, so it is not constant time either (see the crate security
    /// disclaimer).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let (s, r, a, k) = self.parse_for_verify(msg, sig)?;
        if ms_mul(Some(&s), &[(k, a.neg())]).equals(&r) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Shared parsing/validation for single and batch verification: splits
    /// the signature, enforces canonical S (malleability defence),
    /// decompresses R and A, and derives the challenge k = H(R ‖ A ‖ M).
    fn parse_for_verify(
        &self,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(Scalar, Point, Point, Scalar), CryptoError> {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::BadSignature)?;
        let r = Point::decompress(&r_bytes).map_err(|_| CryptoError::BadSignature)?;
        let a = Point::decompress(&self.0).map_err(|_| CryptoError::BadSignature)?;
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(msg);
        let k = Scalar::from_bytes_wide(&h.finalize());
        Ok((s, r, a, k))
    }
}

/// Batch signature verification with random linear combination: checks
///
/// ```text
/// (Σ zᵢ·sᵢ)·B − Σ zᵢ·Rᵢ − Σ (zᵢ·kᵢ)·Aᵢ == identity
/// ```
///
/// for random 128-bit coefficients zᵢ. Every term of a valid batch is
/// individually the identity, so a batch of valid signatures always
/// passes; for a batch containing any invalid signature, the combination
/// is a non-trivial random linear relation and passes with probability at
/// most ~2⁻¹²⁸. All 2n+1 scalar multiplications share a single doubling
/// chain, so per-signature cost drops well below a solo [`VerifyingKey::verify`].
///
/// The zᵢ are derived from a ChaCha20 DRBG seeded by hashing the whole
/// batch transcript — deterministic (reproducible in the simulator, no
/// environmental randomness) yet unpredictable to a signer, who would
/// have to find a collision against every coefficient it influences.
///
/// On `Err`, callers that need to pinpoint the offending signature(s)
/// should fall back to per-signature [`VerifyingKey::verify`], which this
/// batch check exactly refines (it accepts whenever every individual
/// check accepts).
pub fn verify_batch(batch: &[(&[u8], &Signature, &VerifyingKey)]) -> Result<(), CryptoError> {
    if batch.is_empty() {
        return Ok(());
    }
    // Coefficient DRBG: domain-separated hash of the full batch.
    let mut transcript = crate::sha2::Sha256::new();
    transcript.update(b"ccf-ed25519-batch-v1");
    transcript.update(&(batch.len() as u64).to_le_bytes());
    for (msg, sig, key) in batch {
        transcript.update(&(msg.len() as u64).to_le_bytes());
        transcript.update(msg);
        transcript.update(&sig.0);
        transcript.update(&key.0);
    }
    let mut rng = crate::chacha::ChaChaRng::from_seed(transcript.finalize());
    let mut b_coef = Scalar::ZERO;
    let mut pairs = Vec::with_capacity(batch.len() * 2);
    for (msg, sig, key) in batch {
        let (s, r, a, k) = key.parse_for_verify(msg, sig)?;
        let mut z_bytes = [0u8; 16];
        rng.fill_bytes(&mut z_bytes);
        z_bytes[0] |= 1; // never zero, so no signature drops out of the sum
        let z = Scalar([
            u64::from_le_bytes(z_bytes[..8].try_into().unwrap()),
            u64::from_le_bytes(z_bytes[8..].try_into().unwrap()),
            0,
            0,
        ]);
        b_coef = b_coef.add(z.mul(s));
        pairs.push((z, r.neg()));
        pairs.push((z.mul(k), a.neg()));
    }
    if ms_mul(Some(&b_coef), &pairs).is_identity() {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

/// The seed implementation of signature verification, frozen verbatim.
///
/// Kept for two jobs: the *baseline* in the micro-benchmarks (so speedups
/// are measured against what the code actually did before the windowed
/// kernel landed), and an *independent oracle* for the equivalence
/// property tests — it shares no scalar-multiplication or decompression
/// code with the fast path. Field squarings go through `mul`, exactly as
/// the seed's `Fe::square` did.
pub mod reference {
    use super::*;

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

    /// The seed decompression: invert-then-sqrt (two exponentiations).
    fn decompress_seed(bytes: &[u8; 32]) -> Result<Point, CryptoError> {
        let x_odd = bytes[31] & 0x80 != 0;
        let y = Fe::from_bytes(bytes);
        let mut canonical = *bytes;
        canonical[31] &= 0x7f;
        if y.to_bytes() != canonical {
            return Err(CryptoError::InvalidPoint);
        }
        let yy = y.mul(y);
        let u = yy.sub(Fe::ONE);
        let v = d().mul(yy).add(Fe::ONE);
        let xx = u.mul(v.invert());
        let mut x = xx.sqrt().ok_or(CryptoError::InvalidPoint)?;
        if x.is_odd() != x_odd {
            x = x.neg();
        }
        if x.is_zero() && x_odd {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(Point { x, y, z: Fe::ONE, t: x.mul(y) })
    }

    /// The seed `VerifyingKey::verify`: S·B == R + k·A with independent
    /// scalar multiplications and the doubling-table base-point path.
    pub fn verify(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::BadSignature)?;
        let r = decompress_seed(&r_bytes).map_err(|_| CryptoError::BadSignature)?;
        let a = decompress_seed(&key.0).map_err(|_| CryptoError::BadSignature)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::L;
    use crate::chacha::ChaChaRng;

    #[test]
    fn base_point_on_curve_and_order() {
        let b = base_point();
        assert!(b.is_on_curve());
        // L·B must be the identity — pins both the curve arithmetic and L.
        let l = Scalar(L);
        // Scalar(L) is not reduced (it equals 0 mod L) so multiply the raw
        // limbs via the generic ladder instead.
        let lb = b.mul(&l);
        assert!(lb.is_identity());
        // (L-1)·B = -B.
        let mut lm1 = L;
        lm1[0] -= 1;
        let lm1b = b.mul(&Scalar(lm1));
        assert!(lm1b.equals(&b.neg()));
    }

    #[test]
    fn base_table_matches_generic_mul() {
        let s = Scalar::from_bytes_reduced(&[0x42; 32]);
        assert!(Point::mul_base(&s).equals(&base_point().mul(&s)));
    }

    #[test]
    fn radix256_mul_base_matches_seed_paths() {
        let check = |s: &Scalar| {
            let fast = Point::mul_base(s);
            assert!(fast.equals(&reference::mul_base_seed(s)), "scalar {:?}", s.0);
        };
        // Edge scalars: 0, 1, L−1 and 2^252.
        assert!(Point::mul_base(&Scalar::ZERO).is_identity());
        assert!(Point::mul_base(&Scalar::ONE).equals(base_point()));
        let mut lm1 = L;
        lm1[0] -= 1;
        check(&Scalar(lm1));
        check(&Scalar([0, 0, 0, 1 << 60]));
        // Bytes at the ±128 carry boundary: runs of 0x7f, 0x80 and 0xff
        // (a top byte of 0x0f keeps each scalar below 2^252 < L).
        for fill in [0x7fu8, 0x80, 0xff] {
            for run in [1usize, 2, 8, 31] {
                for start in [0, 5, 31 - run].into_iter().filter(|s| s + run <= 31) {
                    let mut bytes = [0x11u8; 32];
                    bytes[start..start + run].fill(fill);
                    bytes[31] = 0x0f;
                    check(&Scalar::from_canonical_bytes(&bytes).unwrap());
                }
            }
        }
        // 1000 seeded random scalars; a few also against the generic ladder.
        let mut rng = ChaChaRng::seed_from_u64(1234);
        for i in 0..1000 {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let s = Scalar::from_bytes_wide(&wide);
            check(&s);
            if i < 20 {
                assert!(Point::mul_base(&s).equals(&reference::mul_seed(base_point(), &s)));
            }
        }
    }

    /// RFC 8032 §7.1 test vectors: key derivation and signatures byte for
    /// byte, and each signature verifies.
    #[test]
    fn rfc8032_known_answers() {
        use crate::hex::{from_hex, from_hex_array, to_hex};
        let vectors = [
            (
                "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
                "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
                "",
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
            ),
            (
                "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
                "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
                "72",
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
            ),
            (
                "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
                "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
                "af82",
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
            ),
            (
                "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
                "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
                "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
                "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b58909351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
            ),
        ];
        for (seed, public, msg, sig) in vectors {
            let key = SigningKey::from_seed(from_hex_array(seed).unwrap());
            assert_eq!(to_hex(&key.verifying_key().0), public);
            let msg = from_hex(msg).unwrap();
            let signature = key.sign(&msg);
            assert_eq!(to_hex(&signature.0), sig);
            key.verifying_key().verify(&msg, &signature).unwrap();
        }
    }

    #[test]
    fn ms_mul_matches_separate_multiplications() {
        let mut rng = ChaChaRng::seed_from_u64(4321);
        for n_pairs in 0..4 {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let base_s = Scalar::from_bytes_wide(&wide);
            let mut pairs = Vec::new();
            let mut expected = reference::mul_base_seed(&base_s);
            for _ in 0..n_pairs {
                rng.fill_bytes(&mut wide);
                let s = Scalar::from_bytes_wide(&wide);
                rng.fill_bytes(&mut wide);
                let p = Point::mul_base(&Scalar::from_bytes_wide(&wide));
                expected = expected.add(&reference::mul_seed(&p, &s));
                pairs.push((s, p));
            }
            assert!(ms_mul(Some(&base_s), &pairs).equals(&expected), "n_pairs={n_pairs}");
        }
        // All-zero scalars hit the empty-NAF early return.
        assert!(ms_mul(Some(&Scalar::ZERO), &[(Scalar::ZERO, *base_point())]).is_identity());
        assert!(ms_mul(None, &[]).is_identity());
    }

    #[test]
    fn fast_verify_matches_reference_verify() {
        let mut rng = ChaChaRng::seed_from_u64(2024);
        let key = SigningKey::generate(&mut rng);
        let pk = key.verifying_key();
        let msg = b"equivalence of fast and seed verification";
        let sig = key.sign(msg);
        assert!(pk.verify(msg, &sig).is_ok());
        assert!(reference::verify(&pk, msg, &sig).is_ok());
        // Tampering rejected identically by both paths.
        for i in [0usize, 17, 32, 63] {
            let mut bad = sig.0;
            bad[i] ^= 0x40;
            let bad = Signature(bad);
            assert_eq!(pk.verify(msg, &bad).is_err(), reference::verify(&pk, msg, &bad).is_err());
            assert!(pk.verify(msg, &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let mut rng = ChaChaRng::seed_from_u64(31415);
        let keys: Vec<SigningKey> = (0..8).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> =
            (0..8).map(|i| format!("request payload #{i}").into_bytes()).collect();
        let sigs: Vec<Signature> =
            keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        let pks: Vec<VerifyingKey> = keys.iter().map(|k| k.verifying_key()).collect();
        let batch: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
            .iter()
            .zip(&sigs)
            .zip(&pks)
            .map(|((m, s), k)| (m.as_slice(), s, k))
            .collect();
        verify_batch(&batch).unwrap();
        verify_batch(&batch[..1]).unwrap();
        verify_batch(&[]).unwrap();
    }

    #[test]
    fn batch_verify_rejects_any_bad_signature() {
        let mut rng = ChaChaRng::seed_from_u64(92653);
        let keys: Vec<SigningKey> = (0..5).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; 24]).collect();
        let mut sigs: Vec<Signature> =
            keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        sigs[3].0[5] ^= 1; // corrupt one signature
        let pks: Vec<VerifyingKey> = keys.iter().map(|k| k.verifying_key()).collect();
        let batch: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
            .iter()
            .zip(&sigs)
            .zip(&pks)
            .map(|((m, s), k)| (m.as_slice(), s, k))
            .collect();
        assert!(verify_batch(&batch).is_err());
        // Per-signature fallback pinpoints exactly the corrupted entry.
        let bad: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, (m, s, k))| k.verify(m, s).is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad, vec![3]);
    }

    #[test]
    fn group_laws() {
        let b = base_point();
        let p2 = b.double();
        assert!(p2.is_on_curve());
        assert!(b.add(b).equals(&p2));
        let p3a = p2.add(b);
        let p3b = b.add(&p2);
        assert!(p3a.equals(&p3b));
        assert!(b.add(&Point::identity()).equals(b));
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn compression_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        for _ in 0..10 {
            let s = Scalar::from_bytes_wide(&{
                let mut b = [0u8; 64];
                rng.fill_bytes(&mut b);
                b
            });
            let p = Point::mul_base(&s);
            let c = p.compress();
            let q = Point::decompress(&c).unwrap();
            assert!(p.equals(&q));
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 7 should (with overwhelming probability for this fixed value)
        // either decompress to a curve point or fail; flip bits until we
        // find an invalid encoding to prove rejection happens.
        let mut found_invalid = false;
        for v in 2u64..40 {
            let mut enc = Fe::from_u64(v).to_bytes();
            enc[31] &= 0x7f;
            if Point::decompress(&enc).is_err() {
                found_invalid = true;
                break;
            }
        }
        assert!(found_invalid);
        // Non-canonical y (= p) must be rejected even though p ≡ 0.
        let mut p_enc = [0u8; 32];
        for (i, limb) in crate::field25519::P.iter().enumerate() {
            p_enc[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert!(Point::decompress(&p_enc).is_err());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(77);
        let key = SigningKey::generate(&mut rng);
        let msg = b"the merkle root at txid 2.300";
        let sig = key.sign(msg);
        key.verifying_key().verify(msg, &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message_and_key() {
        let mut rng = ChaChaRng::seed_from_u64(78);
        let key = SigningKey::generate(&mut rng);
        let other = SigningKey::generate(&mut rng);
        let sig = key.sign(b"message");
        assert!(key.verifying_key().verify(b"messagx", &sig).is_err());
        assert!(other.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let mut rng = ChaChaRng::seed_from_u64(79);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"message");
        for i in [0, 31, 32, 63] {
            let mut bad = sig.0;
            bad[i] ^= 1;
            assert!(
                key.verifying_key().verify(b"message", &Signature(bad)).is_err(),
                "byte {i}"
            );
        }
    }

    #[test]
    fn verify_rejects_noncanonical_s() {
        // s >= L must be rejected (malleability defence).
        let mut rng = ChaChaRng::seed_from_u64(80);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"m");
        let mut bad = sig.0;
        // Add L to s: guaranteed >= L.
        let s = Scalar::from_canonical_bytes(&bad[32..].try_into().unwrap()).unwrap();
        let mut wide = [0u64; 5];
        wide[..4].copy_from_slice(&s.0);
        crate::bignum::add_assign(&mut wide[..4], &L);
        for i in 0..4 {
            bad[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&wide[i].to_le_bytes());
        }
        assert!(key.verifying_key().verify(b"m", &Signature(bad)).is_err());
    }

    #[test]
    fn deterministic_signatures() {
        let key = SigningKey::from_seed([9u8; 32]);
        assert_eq!(key.sign(b"x").0, key.sign(b"x").0);
        assert_ne!(key.sign(b"x").0, key.sign(b"y").0);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = SigningKey::from_seed([1u8; 32]);
        let b = SigningKey::from_seed([2u8; 32]);
        assert_ne!(a.verifying_key().0, b.verifying_key().0);
    }
}
