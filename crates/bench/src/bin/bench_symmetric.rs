//! Symmetric fast-path numbers for EXPERIMENTS.md: table-driven AES-GCM
//! vs the frozen byte-wise/bit-by-bit reference pipeline, the unrolled
//! SHA-256 vs the seed compression function, the fixed-input Merkle node
//! digest, and an end-to-end private-map ledger append.
//!
//! Run with: `cargo run --release -p ccf-bench --bin bench_symmetric`
//!
//! Emits a single-line JSON object to stdout and to `BENCH_symmetric.json`
//! in the current directory. `CCF_BENCH_SAMPLES` overrides the per-metric
//! sample count (default 30). With `--smoke` the run first asserts
//! fast == reference on a fixed seed, then uses a reduced sample count so
//! CI can afford it; the JSON is printed but no file is written.

use ccf_bench::{bench_opts, logging_app, MESSAGE};
use ccf_core::service::ServiceCluster;
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::gcm::AesGcm256;
use ccf_crypto::sha2::{sha256, sha256_fixed64, sha256_fixed65};
use ccf_crypto_ref::{gcm, sha2};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median nanoseconds per call over `samples` timed samples of `iters`
/// calls each (after one warm-up sample).
fn median_ns_per_call(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_call[per_call.len() / 2]
}

/// `--smoke` gate: the fast pipelines must agree with the frozen oracles
/// on a fixed seed before any number is reported.
fn smoke_check() {
    let mut rng = ChaChaRng::from_seed(*b"bench-symmetric-smoke-seed-0007!");
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let fast = AesGcm256::new(&key);
    let slow = gcm::AesGcm256::new(&key);
    for len in [0usize, 1, 16, 64, 1024, 4097] {
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let mut pt = vec![0u8; len];
        rng.fill_bytes(&mut pt);
        let sealed = fast.seal(&nonce, b"smoke", &pt);
        assert_eq!(sealed, slow.seal(&nonce, b"smoke", &pt), "gcm mismatch at {len}");
        assert_eq!(slow.open(&nonce, b"smoke", &sealed).unwrap(), pt);
        assert_eq!(sha256(&pt), sha2::sha256(&pt), "sha mismatch at {len}");
    }
    let mut node = [0u8; 65];
    rng.fill_bytes(&mut node);
    assert_eq!(sha256_fixed65(&node), sha2::sha256(&node));
    eprintln!("smoke: fast == reference on fixed seed");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        smoke_check();
    }
    let samples: usize = std::env::var("CCF_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 5 } else { 30 });
    let mut fields: Vec<(String, f64)> = Vec::new();

    // AES-256-GCM seal/open: fast T-table + Shoup-table pipeline vs the
    // frozen byte-wise/bit-by-bit reference, at ledger-relevant sizes.
    let key = [7u8; 32];
    let fast = AesGcm256::new(&key);
    let slow = gcm::AesGcm256::new(&key);
    let nonce = [3u8; 12];
    let aad = b"txid+public-digest aad bytes....................";
    for (label, len, iters) in [("64B", 64usize, 2000u64), ("1KiB", 1024, 400), ("64KiB", 65536, 8)] {
        let iters = if smoke { iters / 8 + 1 } else { iters };
        let pt = vec![0x5au8; len];
        let sealed = fast.seal(&nonce, aad, &pt);
        let fast_seal = median_ns_per_call(samples, iters, || {
            black_box(fast.seal(&nonce, aad, &pt));
        });
        let slow_seal = median_ns_per_call(samples, iters.div_ceil(8), || {
            black_box(slow.seal(&nonce, aad, &pt));
        });
        let fast_open = median_ns_per_call(samples, iters, || {
            black_box(fast.open(&nonce, aad, &sealed).unwrap());
        });
        fields.push((format!("gcm_seal_{label}_fast_ns"), fast_seal));
        fields.push((format!("gcm_seal_{label}_reference_ns"), slow_seal));
        fields.push((format!("gcm_seal_{label}_speedup"), slow_seal / fast_seal));
        fields.push((format!("gcm_open_{label}_fast_ns"), fast_open));
    }

    // GCM context setup (key schedule + GHASH tables): what LedgerSecrets
    // used to pay on *every* encrypt/decrypt and now pays once per version.
    let setup_ns = median_ns_per_call(samples, 200, || {
        black_box(AesGcm256::new(&key));
    });
    fields.push(("gcm_context_setup_ns".into(), setup_ns));

    // SHA-256: unrolled streaming path vs the frozen seed pipeline, plus
    // the fixed-input digests used by the Merkle tree.
    let kib = vec![0xa5u8; 1024];
    let sha_fast = median_ns_per_call(samples, 1000, || {
        black_box(sha256(&kib));
    });
    let sha_ref = median_ns_per_call(samples, 1000, || {
        black_box(sha2::sha256(&kib));
    });
    fields.push(("sha256_1KiB_fast_ns".into(), sha_fast));
    fields.push(("sha256_1KiB_reference_ns".into(), sha_ref));
    fields.push(("sha256_1KiB_speedup".into(), sha_ref / sha_fast));

    let block = [0x42u8; 64];
    let stream64 = median_ns_per_call(samples, 4000, || {
        black_box(sha256(&block));
    });
    let fixed64 = median_ns_per_call(samples, 4000, || {
        black_box(sha256_fixed64(&block));
    });
    fields.push(("sha256_64B_streaming_ns".into(), stream64));
    fields.push(("sha256_64B_fixed_input_ns".into(), fixed64));

    // Merkle interior node digest: 65-byte fixed-input fast path vs the
    // seed pipeline hashing the same bytes.
    let mut node = [0u8; 65];
    node[0] = 0x01;
    let node_fast = median_ns_per_call(samples, 4000, || {
        black_box(sha256_fixed65(&node));
    });
    let node_ref = median_ns_per_call(samples, 4000, || {
        black_box(sha2::sha256(&node));
    });
    fields.push(("merkle_node_digest_fast_ns".into(), node_fast));
    fields.push(("merkle_node_digest_reference_ns".into(), node_ref));
    fields.push(("merkle_node_digest_speedup".into(), node_ref / node_fast));

    // End-to-end: committed private-map appends through a 3-node virtual
    // cluster (seal + Merkle + replication per request), reported per
    // committed append. Smoke keeps the request count CI-sized.
    let appends: u64 = if smoke { 50 } else { 400 };
    let mut sc = ServiceCluster::start(bench_opts(3, 42), Arc::new(logging_app()));
    sc.open_service();
    sc.user_request(0, "POST", "/log", format!("0={MESSAGE}").as_bytes()); // warm-up
    let start = Instant::now();
    for i in 1..=appends {
        let resp = sc.user_request(0, "POST", "/log", format!("{i}={MESSAGE}").as_bytes());
        assert_eq!(resp.status, 200, "append {i} failed");
    }
    let e2e_ns = start.elapsed().as_nanos() as f64 / appends as f64;
    fields.push(("e2e_private_append_ns".into(), e2e_ns));

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
        std::fs::write("BENCH_symmetric.json", format!("{json}\n")).expect("write BENCH_symmetric.json");
        eprintln!("wrote BENCH_symmetric.json");
    }

    let speedup = fields
        .iter()
        .find(|(k, _)| k == "gcm_seal_1KiB_speedup")
        .map(|(_, v)| *v)
        .unwrap();
    eprintln!("gcm seal 1KiB speedup vs reference: {speedup:.1}x");
}
