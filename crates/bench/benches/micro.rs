//! Criterion micro-benchmarks: the hot paths behind the paper's figures,
//! plus the ablations called out in DESIGN.md §6 (CHAMP vs clone-on-write
//! BTreeMap snapshots, encryption on/off, signature cost, replication
//! step cost).

use ccf_consensus::harness::Cluster;
use ccf_consensus::replica::ReplicaConfig;
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::gcm::AesGcm256;
use ccf_crypto::SigningKey;
use ccf_kv::{ChampMap, MapName, Store};
use ccf_ledger::secrets::LedgerSecrets;
use ccf_ledger::{LedgerEntry, MerkleTree, TxId};
use ccf_sim::NetConfig;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let key = SigningKey::from_seed([7u8; 32]);
    let msg = b"merkle root placeholder: 32 bytes of data....";
    let sig = key.sign(msg);
    let public = key.verifying_key();
    g.bench_function("ed25519_sign", |b| b.iter(|| key.sign(black_box(msg))));
    g.bench_function("ed25519_verify", |b| {
        b.iter(|| public.verify(black_box(msg), black_box(&sig)).unwrap())
    });
    // The seed's double-and-add verification pipeline, kept as a frozen
    // baseline (and equivalence oracle) in `ccf_crypto_ref::ed25519`.
    g.bench_function("ed25519_verify_seed_baseline", |b| {
        b.iter(|| {
            ccf_crypto_ref::ed25519::verify(black_box(&public), black_box(msg), black_box(&sig))
                .unwrap()
        })
    });
    // Batched verification at the sizes a consensus round sees.
    for n in [1usize, 16, 64] {
        let keys: Vec<SigningKey> =
            (0..n).map(|i| SigningKey::from_seed([i as u8 + 1; 32])).collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("request {i}").into_bytes()).collect();
        let sigs: Vec<ccf_crypto::Signature> =
            keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        let vks: Vec<ccf_crypto::VerifyingKey> = keys.iter().map(|k| k.verifying_key()).collect();
        let triples: Vec<(&[u8], &ccf_crypto::Signature, &ccf_crypto::VerifyingKey)> =
            msgs.iter().zip(&sigs).zip(&vks).map(|((m, s), v)| (m.as_slice(), s, v)).collect();
        g.bench_function(&format!("ed25519_verify_batch_{n}"), |b| {
            b.iter(|| ccf_crypto::verify_batch(black_box(&triples)).unwrap())
        });
    }
    let gcm = AesGcm256::new(&[9u8; 32]);
    let payload = vec![0x5au8; 256];
    g.bench_function("aes256gcm_seal_256B", |b| {
        b.iter(|| gcm.seal(&[0u8; 12], b"aad", black_box(&payload)))
    });
    g.bench_function("sha256_1KiB", |b| {
        let data = vec![1u8; 1024];
        b.iter(|| ccf_crypto::sha2::sha256(black_box(&data)))
    });
    g.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut g = c.benchmark_group("merkle");
    // Append+root at the signature interval (the Figure 8 hot path).
    g.bench_function("append_100_then_root", |b| {
        b.iter_batched(
            || {
                let mut t = MerkleTree::new();
                for i in 0..10_000u64 {
                    t.append(&i.to_le_bytes());
                }
                t
            },
            |mut t| {
                for i in 0..100u64 {
                    t.append(&i.to_le_bytes());
                }
                black_box(t.root())
            },
            BatchSize::LargeInput,
        )
    });
    let mut tree = MerkleTree::new();
    for i in 0..10_000u64 {
        tree.append(&i.to_le_bytes());
    }
    g.bench_function("root", |b| b.iter(|| black_box(tree.root())));
    g.bench_function("prove_in_10k_tree", |b| b.iter(|| tree.prove(black_box(5_000)).unwrap()));
    let proof = tree.prove(5000).unwrap();
    let root = tree.root();
    g.bench_function("verify_proof", |b| {
        b.iter(|| assert!(proof.verify(black_box(&5000u64.to_le_bytes()), &root)))
    });
    g.finish();
}

/// DESIGN.md ablation 2: CHAMP snapshots are O(1); cloning a std BTreeMap
/// (the naive alternative) is O(n). The gap is why speculative execution
/// and rollback are cheap. A held snapshot is not free, though: the next
/// update copies the path it shares, and the old path is freed only when
/// the snapshot goes, while an update to an unshared map changes it in
/// place.
fn bench_kv_snapshots(c: &mut Criterion) {
    let mut g = c.benchmark_group("kv_snapshot_ablation");
    const N: u64 = 10_000;
    let mut champ: ChampMap<u64, Vec<u8>> = ChampMap::new();
    let mut btree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for i in 0..N {
        champ.insert(i, vec![0u8; 20]);
        btree.insert(i, vec![0u8; 20]);
    }
    g.bench_function("champ_snapshot_10k", |b| b.iter(|| black_box(champ.clone())));
    g.bench_function("btreemap_clone_10k", |b| b.iter(|| black_box(btree.clone())));
    g.bench_function("champ_insert_after_snapshot_10k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut next = champ.clone();
            next.insert(i % N, vec![1u8; 20]);
            black_box(next)
        })
    });
    // Built separately, so it shares no node with `champ`.
    let mut unshared: ChampMap<u64, Vec<u8>> = ChampMap::new();
    for i in 0..N {
        unshared.insert(i, vec![0u8; 20]);
    }
    g.bench_function("champ_insert_in_place_10k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            unshared.insert(i % N, vec![1u8; 20]);
        })
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    let store = Store::new();
    let map = MapName::new("msgs");
    for i in 0..1000u64 {
        let mut tx = store.begin();
        tx.put(&map, &i.to_le_bytes(), b"twenty.characters.xx");
        store.commit(tx, false).unwrap();
    }
    g.bench_function("write_tx_commit", |b| {
        let mut i = 1000u64;
        b.iter(|| {
            i += 1;
            let mut tx = store.begin();
            tx.put(&map, &(i % 5000).to_le_bytes(), b"twenty.characters.xx");
            store.commit(tx, false).unwrap()
        })
    });
    g.bench_function("read_tx_snapshot", |b| {
        b.iter(|| {
            let mut tx = store.begin();
            black_box(tx.get(&map, &42u64.to_le_bytes()))
        })
    });
    g.finish();
}

/// DESIGN.md ablation 3: private (encrypted) vs public (plaintext) ledger
/// entries — the paper reports "similar performance using public maps
/// instead of private ones".
fn bench_ledger_crypt(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger_crypt_ablation");
    let secrets = LedgerSecrets::new([3u8; 32]);
    let payload = vec![0xabu8; 256];
    let pd = [0u8; 32];
    g.bench_function("encrypt_private_ws_256B", |b| {
        let mut s = 0u64;
        b.iter(|| {
            s += 1;
            black_box(secrets.encrypt(TxId::new(2, s), &pd, &payload))
        })
    });
    let ct = secrets.encrypt(TxId::new(2, 1), &pd, &payload);
    g.bench_function("decrypt_private_ws_256B", |b| {
        b.iter(|| secrets.decrypt(TxId::new(2, 1), &pd, black_box(&ct)).unwrap())
    });
    g.finish();
}

/// Single-node consensus pipeline: propose → signature → self-commit (the
/// floor under every write in Figure 7).
fn bench_consensus_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus");
    g.bench_function("propose_on_primary", |b| {
        let mut cluster = Cluster::new(
            1,
            ReplicaConfig { signature_interval: 1000, signature_interval_ms: 0, ..Default::default() },
            NetConfig::default(),
            5,
        );
        assert!(cluster.run_until(2000, |c| c.primary().is_some()));
        b.iter(|| cluster.propose(b"twenty.characters.xx").unwrap())
    });
    g.bench_function("signature_emission", |b| {
        let mut cluster = Cluster::new(
            1,
            ReplicaConfig { signature_interval: u64::MAX, signature_interval_ms: 0, ..Default::default() },
            NetConfig::default(),
            6,
        );
        assert!(cluster.run_until(2000, |c| c.primary().is_some()));
        b.iter(|| {
            cluster.propose(b"x").unwrap();
            cluster.emit_signature();
        })
    });
    // 3-node replication round-trip in virtual time (message costs only).
    g.bench_function("replicate_and_commit_3_nodes", |b| {
        let mut cluster = Cluster::new(
            3,
            ReplicaConfig { signature_interval: u64::MAX, signature_interval_ms: 0, ..Default::default() },
            NetConfig { latency: (1, 2), drop_probability: 0.0 },
            7,
        );
        assert!(cluster.run_until(5000, |c| c.primary().is_some()));
        b.iter(|| {
            let txid = cluster.propose(b"twenty.characters.xx").unwrap();
            cluster.emit_signature();
            assert!(cluster.run_until(1000, |c| c.min_commit() > txid.seqno));
        })
    });
    g.finish();
}

/// Table 5's runtime dimension at micro scale: one native handler
/// execution vs one interpreted handler execution.
fn bench_script_vs_native(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_ablation");
    let store = Store::new();
    let map = MapName::new("msgs");
    g.bench_function("native_handler", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut tx = store.begin();
            tx.put(&map, i.to_string().as_bytes(), b"twenty.characters.xx");
            black_box(tx.write_set().update_count())
        })
    });
    let program = ccf_script::compile(
        r#"function handler(key, msg) { kv_put("msgs", key, msg); return "ok"; }"#,
    )
    .unwrap();
    struct H<'a>(&'a mut ccf_kv::Transaction);
    impl ccf_script::Host for H<'_> {
        fn kv_get(&mut self, m: &str, k: &str) -> Result<Option<String>, String> {
            Ok(self.0.get(&MapName::new(m), k.as_bytes()).map(|v| String::from_utf8_lossy(&v).to_string()))
        }
        fn kv_put(&mut self, m: &str, k: &str, v: &str) -> Result<(), String> {
            self.0.put(&MapName::new(m), k.as_bytes(), v.as_bytes());
            Ok(())
        }
        fn kv_remove(&mut self, m: &str, k: &str) -> Result<(), String> {
            self.0.remove(&MapName::new(m), k.as_bytes());
            Ok(())
        }
        fn kv_keys(&mut self, _m: &str) -> Result<Vec<String>, String> {
            Ok(vec![])
        }
    }
    g.bench_function("script_handler", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut tx = store.begin();
            let mut host = H(&mut tx);
            let mut interp = ccf_script::Interpreter::new(&program, 100_000);
            interp
                .call(
                    "handler",
                    vec![
                        ccf_script::Value::str(i.to_string()),
                        ccf_script::Value::str("twenty.characters.xx"),
                    ],
                    &mut host,
                )
                .unwrap()
        })
    });
    g.finish();
}

fn bench_signature_entry(c: &mut Criterion) {
    let mut g = c.benchmark_group("signature_entry");
    let key = SigningKey::from_seed([1u8; 32]);
    let mut rng = ChaChaRng::seed_from_u64(3);
    g.bench_function("build_signature_entry", |b| {
        let mut s = 0u64;
        b.iter(|| {
            s += 1;
            let mut root = [0u8; 32];
            rng.fill_bytes(&mut root);
            black_box(LedgerEntry::signature(TxId::new(1, s), root, "n0", &key))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_crypto, bench_merkle, bench_kv_snapshots, bench_store, bench_ledger_crypt, bench_consensus_step, bench_script_vs_native, bench_signature_entry
}
criterion_main!(benches);
