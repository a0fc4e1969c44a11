//! Fast-path cryptography numbers for EXPERIMENTS.md: signing and its
//! parts (fixed-base multiplication, radix-256 table vs the seed doubling
//! table; the safegcd field inversion; point compression), the seed
//! double-and-add verify vs the windowed Strauss–Shamir verify, batched
//! verification at consensus-round sizes, and Merkle append, root and
//! inclusion proof.
//!
//! Run with: `cargo run --release -p ccf-bench --bin bench_crypto`
//!
//! Emits a single-line JSON object to stdout and to `BENCH_crypto.json`
//! in the current directory; each metric is the median of 30 samples.
//! With `--smoke` the run first asserts the fast paths against their
//! oracles on seeded inputs, then times with 5 samples and prints the
//! JSON without writing any file.

use ccf_bench::median_ns_per_call;
use ccf_crypto::bignum::Scalar;
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::ed25519::Point;
use ccf_crypto_ref::ed25519 as reference;
use ccf_crypto::field25519::{Fe, P};
use ccf_crypto::{Signature, SigningKey, VerifyingKey};
use ccf_ledger::MerkleTree;

fn signed_triples(n: usize) -> (Vec<Vec<u8>>, Vec<Signature>, Vec<VerifyingKey>) {
    let keys: Vec<SigningKey> = (0..n)
        .map(|i| SigningKey::from_seed(ccf_crypto::sha256(format!("bench-key-{i}").as_bytes())))
        .collect();
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("consensus round request {i}").into_bytes()).collect();
    let sigs: Vec<Signature> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
    let vks: Vec<VerifyingKey> = keys.iter().map(|k| k.verifying_key()).collect();
    (msgs, sigs, vks)
}

/// Field elements from raw seeded limbs (non-canonical ones included).
fn seeded_fes(rng: &mut ChaChaRng, n: usize) -> Vec<Fe> {
    (0..n).map(|_| Fe([rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()])).collect()
}

/// `--smoke` gate: the safegcd inversion must equal the Fermat inverse
/// x^(p−2), and the radix-256 `mul_base` the frozen seed multiplication,
/// on seeded inputs before any number is reported.
fn smoke_check() {
    let mut rng = ChaChaRng::from_seed(*b"bench-crypto-smoke-seed-00000019");
    let mut p_minus_2 = P;
    p_minus_2[0] -= 2;
    for x in seeded_fes(&mut rng, 1000) {
        assert_eq!(x.invert(), x.pow(&p_minus_2), "invert mismatch at {:x?}", x.0);
    }
    for _ in 0..64 {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        let s = Scalar::from_bytes_wide(&wide);
        assert_eq!(
            Point::mul_base(&s).compress(),
            reference::mul_base_seed(&s).compress(),
            "mul_base mismatch"
        );
    }
    eprintln!("smoke: invert == pow(p - 2), mul_base == mul_base_seed on seeded inputs");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        smoke_check();
    }
    let samples = if smoke { 5 } else { 30 };
    let mut fields: Vec<(String, f64)> = Vec::new();

    // Signing: two SHA-512 passes, one fixed-base multiplication and one
    // inversion (compress). The multiplication alone, radix-256 table vs
    // the frozen seed doubling table, on the nonce scalar of this message.
    let key = SigningKey::from_seed([7u8; 32]);
    let vk = key.verifying_key();
    let msg = b"merkle root placeholder: 32 bytes of data....";
    let sig_ns = median_ns_per_call(samples, 200, || {
        std::hint::black_box(key.sign(msg));
    });
    let nonce = Scalar::from_bytes_wide(&ccf_crypto::sha512(msg));
    let mul_base_ns = median_ns_per_call(samples, 200, || {
        std::hint::black_box(Point::mul_base(&nonce));
    });
    let mul_base_seed_ns = median_ns_per_call(samples, 50, || {
        std::hint::black_box(reference::mul_base_seed(&nonce));
    });
    // The inversion on its own, cycling through seeded elements (its time
    // depends on the value), and the compression that calls it.
    let inputs = seeded_fes(&mut ChaChaRng::seed_from_u64(19), 64);
    let mut next = 0;
    let invert_ns = median_ns_per_call(samples, 1_000, || {
        next = (next + 1) % inputs.len();
        std::hint::black_box(inputs[next].invert());
    });
    let point = Point::mul_base(&nonce);
    let compress_ns = median_ns_per_call(samples, 1_000, || {
        std::hint::black_box(std::hint::black_box(&point).compress());
    });
    fields.push(("ed25519_sign_ns".into(), sig_ns));
    fields.push(("ed25519_mul_base_ns".into(), mul_base_ns));
    fields.push(("ed25519_mul_base_seed_ns".into(), mul_base_seed_ns));
    fields.push(("fe_invert_ns".into(), invert_ns));
    fields.push(("ed25519_compress_ns".into(), compress_ns));

    // Single verify: frozen seed pipeline vs the windowed fast path.
    let sig = key.sign(msg);
    let seed_ns = median_ns_per_call(samples, 50, || {
        reference::verify(&vk, msg, &sig).unwrap();
    });
    let fast_ns = median_ns_per_call(samples, 50, || {
        vk.verify(msg, &sig).unwrap();
    });
    fields.push(("ed25519_verify_seed_ns".into(), seed_ns));
    fields.push(("ed25519_verify_fast_ns".into(), fast_ns));
    fields.push(("ed25519_verify_speedup".into(), seed_ns / fast_ns));

    // Batched verification, reported per signature.
    for n in [1usize, 16, 64] {
        let (msgs, sigs, vks) = signed_triples(n);
        let triples: Vec<(&[u8], &Signature, &VerifyingKey)> =
            msgs.iter().zip(&sigs).zip(&vks).map(|((m, s), v)| (m.as_slice(), s, v)).collect();
        let iters = (128 / n).max(2) as u64;
        let batch_ns = median_ns_per_call(samples, iters, || {
            ccf_crypto::verify_batch(&triples).unwrap();
        });
        fields.push((format!("ed25519_verify_batch_{n}_per_sig_ns"), batch_ns / n as f64));
    }
    let batch64_per_sig = fields
        .iter()
        .find(|(k, _)| k == "ed25519_verify_batch_64_per_sig_ns")
        .map(|(_, v)| *v)
        .unwrap();
    fields.push(("ed25519_batch64_speedup_vs_fast_single".into(), fast_ns / batch64_per_sig));

    // Merkle: 100 appends + root on a 10k-leaf tree.
    let mut base = MerkleTree::new();
    for i in 0..10_000u64 {
        base.append(&i.to_le_bytes());
    }
    let leaves: Vec<[u8; 8]> = (0..100u64).map(|i| i.to_le_bytes()).collect();
    let append_ns = median_ns_per_call(samples, 20, || {
        let mut t = base.clone();
        for l in &leaves {
            t.append(l);
        }
        std::hint::black_box(t.root());
    });
    fields.push(("merkle_append_100_then_root_ns".into(), append_ns));

    // Root read on an idle tree: a fold over its peaks.
    let root_ns = median_ns_per_call(samples, 10_000, || {
        std::hint::black_box(base.root());
    });
    fields.push(("merkle_root_ns".into(), root_ns));

    // One inclusion proof (a receipt's Merkle path) on the 10k-leaf tree,
    // cycling through leaf indices.
    let mut index = 0u64;
    let prove_ns = median_ns_per_call(samples, 1_000, || {
        index = (index + 7_919) % base.len();
        std::hint::black_box(base.prove(index));
    });
    fields.push(("merkle_prove_10k_ns".into(), prove_ns));

    let json = format!(
        "{{{}}}",
        fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.1}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{json}");
    if !smoke {
        std::fs::write("BENCH_crypto.json", format!("{json}\n")).expect("write BENCH_crypto.json");
        eprintln!("wrote BENCH_crypto.json");
    }
}
