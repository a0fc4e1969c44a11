//! Ledger secrets: encryption of private-map updates (Table 1, §5.2, §6.1).
//!
//! Updates to private maps are encrypted with the symmetric *ledger secret*
//! before leaving the enclave. The secret can be *rekeyed* by governance:
//! each secret version applies from a given sequence number, and decryption
//! of historical entries picks the secret that was current at that seqno.
//! The AAD binds every ciphertext to its transaction ID and to the digest
//! of the public part, so entries cannot be spliced together.
//!
//! # Context caching
//!
//! Preparing an [`AesGcm256`] means expanding the AES key schedule and
//! building the GHASH multiplication tables — hundreds of times the cost of
//! sealing a small write set. Each secret version therefore carries a
//! lazily-built, `Arc`-shared context: the first seal/open under a version
//! pays the setup once per process, and every clone of the `LedgerSecrets`
//! (a rekey builds the next set from a clone) shares the same prepared
//! context. The `crypto.gcm_*` counters report cache behaviour to
//! `ccf-obs`; `crypto.gcm_ctx_cache_misses` counts the setups, which tests
//! pin at "one key schedule per version, not per call".

use crate::entry::TxId;
use ccf_crypto::gcm::{derive_nonce, AesGcm256};
use ccf_crypto::{CryptoError, Digest32};
use ccf_kv::codec::{CodecError, Reader, Writer};
use std::sync::{Arc, OnceLock};

const NONCE_LABEL_LEDGER: u8 = 0x01;

/// Histogram buckets for private write-set sizes (bytes).
const SEAL_SIZE_BUCKETS: &[u64] = &[64, 256, 1024, 4096, 16384, 65536];

/// One version of the ledger secret.
#[derive(Clone)]
pub struct SecretVersion {
    /// First sequence number this secret applies to.
    pub from_seqno: u64,
    /// The raw 256-bit AES key.
    pub key: [u8; 32],
}

/// Cached observability handles (`crypto.gcm_*`, `ledger.seal_*`). Clones
/// share the underlying counters, mirroring `MerkleMetrics`.
#[derive(Clone)]
struct SecretsMetrics {
    sealed_bytes: ccf_obs::Counter,
    opened_bytes: ccf_obs::Counter,
    ctx_cache_hits: ccf_obs::Counter,
    ctx_cache_misses: ccf_obs::Counter,
    seal_writeset_bytes: ccf_obs::Histogram,
}

impl SecretsMetrics {
    fn new(reg: &ccf_obs::Registry) -> SecretsMetrics {
        SecretsMetrics {
            sealed_bytes: reg.counter("crypto.gcm_sealed_bytes"),
            opened_bytes: reg.counter("crypto.gcm_opened_bytes"),
            ctx_cache_hits: reg.counter("crypto.gcm_ctx_cache_hits"),
            ctx_cache_misses: reg.counter("crypto.gcm_ctx_cache_misses"),
            seal_writeset_bytes: reg.histogram("ledger.seal_writeset_bytes", SEAL_SIZE_BUCKETS),
        }
    }
}

/// The ordered set of ledger secret versions held inside the enclave.
#[derive(Clone, Default)]
pub struct LedgerSecrets {
    // Sorted by from_seqno ascending; always non-empty after init.
    versions: Vec<SecretVersion>,
    // Parallel to `versions`: the prepared GCM context for each secret,
    // built on first use and shared across clones via `Arc`.
    ctxs: Vec<Arc<OnceLock<AesGcm256>>>,
    metrics: Option<SecretsMetrics>,
}

fn fresh_ctxs(n: usize) -> Vec<Arc<OnceLock<AesGcm256>>> {
    (0..n).map(|_| Arc::new(OnceLock::new())).collect()
}

impl LedgerSecrets {
    /// Initializes with a single secret applying from the first entry.
    pub fn new(initial_key: [u8; 32]) -> LedgerSecrets {
        LedgerSecrets::from_versions(vec![SecretVersion { from_seqno: 1, key: initial_key }])
    }

    /// Restores from explicit versions (disaster recovery). Versions must
    /// be sorted by `from_seqno` and non-empty.
    pub fn from_versions(versions: Vec<SecretVersion>) -> LedgerSecrets {
        assert!(!versions.is_empty(), "ledger secrets cannot be empty");
        assert!(
            versions.windows(2).all(|w| w[0].from_seqno < w[1].from_seqno),
            "secret versions must be strictly ordered"
        );
        let ctxs = fresh_ctxs(versions.len());
        LedgerSecrets { versions, ctxs, metrics: None }
    }

    /// Attaches observability counters (`crypto.gcm_*`,
    /// `ledger.seal_writeset_bytes`) from `reg`. Without this the secrets
    /// record nothing.
    pub fn set_registry(&mut self, reg: &ccf_obs::Registry) {
        self.metrics = Some(SecretsMetrics::new(reg));
    }

    /// Adds a new secret applying from `from_seqno` (governance rekey).
    pub fn rekey(&mut self, from_seqno: u64, key: [u8; 32]) {
        assert!(
            from_seqno > self.versions.last().map_or(0, |v| v.from_seqno),
            "rekey must move forward"
        );
        self.versions.push(SecretVersion { from_seqno, key });
        self.ctxs.push(Arc::new(OnceLock::new()));
    }

    /// Drops the versions that entries after `seqno` brought (a rollback
    /// to `seqno`): a version distributed by the entry at `d` applies from
    /// `d + 1`, so only versions from `seqno + 1` or earlier survive.
    pub fn roll_back_to(&mut self, seqno: u64) {
        let keep = self.versions.partition_point(|v| v.from_seqno <= seqno + 1);
        self.versions.truncate(keep);
        self.ctxs.truncate(keep);
    }

    /// The secret in force at `seqno`.
    pub fn key_for(&self, seqno: u64) -> Option<&[u8; 32]> {
        self.version_index_for(seqno).map(|i| &self.versions[i].key)
    }

    fn version_index_for(&self, seqno: u64) -> Option<usize> {
        self.versions.iter().rposition(|v| v.from_seqno <= seqno)
    }

    /// The prepared GCM context for version `idx`, building (and counting)
    /// it on first use.
    fn context(&self, idx: usize) -> &AesGcm256 {
        let cell = &self.ctxs[idx];
        if let Some(ctx) = cell.get() {
            if let Some(m) = &self.metrics {
                m.ctx_cache_hits.inc();
            }
            return ctx;
        }
        cell.get_or_init(|| {
            if let Some(m) = &self.metrics {
                m.ctx_cache_misses.inc();
            }
            AesGcm256::new(&self.versions[idx].key)
        })
    }

    /// Number of secret versions (1 unless rekeyed).
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// All versions (for wrapping into recovery storage).
    pub fn versions(&self) -> &[SecretVersion] {
        &self.versions
    }

    /// Encrypts a private write-set for the entry at `txid`. The AAD binds
    /// the ciphertext to the transaction and the public part's digest.
    pub fn encrypt(
        &self,
        txid: TxId,
        public_digest: &Digest32,
        private_plain: &[u8],
    ) -> Vec<u8> {
        if private_plain.is_empty() {
            return Vec::new();
        }
        let idx = self.version_index_for(txid.seqno).expect("no ledger secret for seqno");
        let gcm = self.context(idx);
        if let Some(m) = &self.metrics {
            m.sealed_bytes.add(private_plain.len() as u64);
            m.seal_writeset_bytes.observe(private_plain.len() as u64);
        }
        let nonce = derive_nonce(NONCE_LABEL_LEDGER, txid.view, txid.seqno);
        gcm.seal(&nonce, &Self::aad(txid, public_digest), private_plain)
    }

    /// Decrypts a private write-set blob produced by [`LedgerSecrets::encrypt`].
    pub fn decrypt(
        &self,
        txid: TxId,
        public_digest: &Digest32,
        private_enc: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if private_enc.is_empty() {
            return Ok(Vec::new());
        }
        let idx = self
            .version_index_for(txid.seqno)
            .ok_or(CryptoError::BadShares("no ledger secret covers this seqno"))?;
        let gcm = self.context(idx);
        let nonce = derive_nonce(NONCE_LABEL_LEDGER, txid.view, txid.seqno);
        let plain = gcm.open(&nonce, &Self::aad(txid, public_digest), private_enc)?;
        if let Some(m) = &self.metrics {
            m.opened_bytes.add(plain.len() as u64);
        }
        Ok(plain)
    }

    fn aad(txid: TxId, public_digest: &Digest32) -> Vec<u8> {
        let mut w = Writer::with_capacity(48);
        w.u64(txid.view);
        w.u64(txid.seqno);
        w.raw(public_digest);
        w.finish()
    }

    /// Serializes all secret versions (sealed before storage: callers wrap
    /// this in [`wrap`]/[`unwrap_with`]).
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.versions.len() as u32);
        for v in &self.versions {
            w.u64(v.from_seqno);
            w.raw(&v.key);
        }
        w.finish()
    }

    /// Restores [`LedgerSecrets::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<LedgerSecrets, CodecError> {
        let mut r = Reader::new(bytes);
        let count = r.u32("secret version count")?;
        if count == 0 {
            return Err(CodecError::BadValue { context: "secret version count" });
        }
        let mut versions = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let from_seqno = r.u64("secret from_seqno")?;
            let key = r.array::<32>("secret key")?;
            versions.push(SecretVersion { from_seqno, key });
        }
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "secret trailing bytes" });
        }
        Ok(LedgerSecrets::from_versions(versions))
    }
}

/// Wraps serialized ledger secrets under the *ledger secret wrapping key*
/// — the key that is Shamir-shared to consortium members (§5.2). The
/// wrapped blob is what `public:ccf.internal.ledger_secret` stores.
pub fn wrap(wrapping_key: &[u8; 32], secrets: &LedgerSecrets) -> Vec<u8> {
    let nonce = derive_nonce(0x02, 0, 0);
    AesGcm256::new(wrapping_key).seal(&nonce, b"ccf-ledger-secret-wrap", &secrets.serialize())
}

/// Unwraps [`wrap`] output.
pub fn unwrap_with(
    wrapping_key: &[u8; 32],
    wrapped: &[u8],
) -> Result<LedgerSecrets, CryptoError> {
    let nonce = derive_nonce(0x02, 0, 0);
    let plain = AesGcm256::new(wrapping_key).open(&nonce, b"ccf-ledger-secret-wrap", wrapped)?;
    LedgerSecrets::deserialize(&plain).map_err(|_| CryptoError::Encoding("bad wrapped secrets"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let secrets = LedgerSecrets::new([1u8; 32]);
        let txid = TxId::new(2, 10);
        let pd = [5u8; 32];
        let ct = secrets.encrypt(txid, &pd, b"private payload");
        assert_ne!(ct, b"private payload");
        assert_eq!(secrets.decrypt(txid, &pd, &ct).unwrap(), b"private payload");
    }

    #[test]
    fn aad_binds_txid_and_public_digest() {
        let secrets = LedgerSecrets::new([1u8; 32]);
        let txid = TxId::new(2, 10);
        let pd = [5u8; 32];
        let ct = secrets.encrypt(txid, &pd, b"payload");
        assert!(secrets.decrypt(TxId::new(2, 11), &pd, &ct).is_err());
        assert!(secrets.decrypt(TxId::new(3, 10), &pd, &ct).is_err());
        assert!(secrets.decrypt(txid, &[6u8; 32], &ct).is_err());
    }

    #[test]
    fn empty_private_part() {
        let secrets = LedgerSecrets::new([1u8; 32]);
        let ct = secrets.encrypt(TxId::new(1, 1), &[0u8; 32], b"");
        assert!(ct.is_empty());
        assert_eq!(secrets.decrypt(TxId::new(1, 1), &[0u8; 32], &ct).unwrap(), b"");
    }

    #[test]
    fn rekey_selects_correct_version() {
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        secrets.rekey(100, [2u8; 32]);
        secrets.rekey(200, [3u8; 32]);
        assert_eq!(secrets.key_for(1), Some(&[1u8; 32]));
        assert_eq!(secrets.key_for(99), Some(&[1u8; 32]));
        assert_eq!(secrets.key_for(100), Some(&[2u8; 32]));
        assert_eq!(secrets.key_for(199), Some(&[2u8; 32]));
        assert_eq!(secrets.key_for(200), Some(&[3u8; 32]));
        assert_eq!(secrets.key_for(u64::MAX), Some(&[3u8; 32]));
        // Entries encrypted before a rekey still decrypt after it.
        let pd = [0u8; 32];
        let early = secrets.encrypt(TxId::new(1, 50), &pd, b"old data");
        secrets.rekey(300, [4u8; 32]);
        assert_eq!(secrets.decrypt(TxId::new(1, 50), &pd, &early).unwrap(), b"old data");
    }

    #[test]
    fn roll_back_drops_versions_from_lost_entries() {
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        // Distributed by entries 9 and 20.
        secrets.rekey(10, [2u8; 32]);
        secrets.rekey(21, [3u8; 32]);
        secrets.roll_back_to(20);
        assert_eq!(secrets.version_count(), 3, "entry 20 survives, and so does its secret");
        secrets.roll_back_to(19);
        assert_eq!(secrets.key_for(25), Some(&[2u8; 32]));
        secrets.roll_back_to(0);
        assert_eq!(secrets.version_count(), 1, "the initial secret always survives");
        // The lost version's seqnos can be rekeyed again.
        secrets.rekey(15, [4u8; 32]);
        assert_eq!(secrets.key_for(15), Some(&[4u8; 32]));
    }

    #[test]
    fn serialize_roundtrip() {
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        secrets.rekey(10, [2u8; 32]);
        let restored = LedgerSecrets::deserialize(&secrets.serialize()).unwrap();
        assert_eq!(restored.version_count(), 2);
        assert_eq!(restored.key_for(5), Some(&[1u8; 32]));
        assert_eq!(restored.key_for(15), Some(&[2u8; 32]));
        assert!(LedgerSecrets::deserialize(&[]).is_err());
    }

    #[test]
    fn wrap_unwrap() {
        let mut secrets = LedgerSecrets::new([7u8; 32]);
        secrets.rekey(10, [8u8; 32]);
        let wk = [9u8; 32];
        let wrapped = wrap(&wk, &secrets);
        // Wrapping is deterministic in the key and the secrets.
        assert_eq!(wrapped, wrap(&wk, &secrets));
        let restored = unwrap_with(&wk, &wrapped).unwrap();
        assert_eq!(restored.version_count(), 2);
        assert_eq!(restored.key_for(1), Some(&[7u8; 32]));
        assert_eq!(restored.key_for(15), Some(&[8u8; 32]));
        assert!(unwrap_with(&[8u8; 32], &wrapped).is_err());
        let mut tampered = wrapped.clone();
        tampered[0] ^= 1;
        assert!(unwrap_with(&wk, &tampered).is_err());
    }

    /// Key-schedule setups recorded in `reg` (one per cache miss).
    fn setups(reg: &ccf_obs::Registry) -> u64 {
        reg.counter("crypto.gcm_ctx_cache_misses").get()
    }

    #[test]
    fn context_cache_one_setup_per_version() {
        let reg = ccf_obs::Registry::new();
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        secrets.set_registry(&reg);
        assert_eq!(setups(&reg), 0, "setup is lazy");
        let pd = [0u8; 32];
        for seqno in 1..=100 {
            let txid = TxId::new(1, seqno);
            let ct = secrets.encrypt(txid, &pd, b"payload");
            secrets.decrypt(txid, &pd, &ct).unwrap();
        }
        assert_eq!(setups(&reg), 1, "one key schedule per version, not per call");
    }

    #[test]
    fn context_cache_shared_across_clones_and_rekeys() {
        let reg = ccf_obs::Registry::new();
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        secrets.set_registry(&reg);
        let pd = [0u8; 32];
        secrets.encrypt(TxId::new(1, 1), &pd, b"x");
        let clone = secrets.clone();
        // The clone reuses the already-built context rather than its own.
        clone.encrypt(TxId::new(1, 2), &pd, b"y");
        assert_eq!(setups(&reg), 1);
        // A rekey adds exactly one more setup, on first use of the new key.
        secrets.rekey(100, [2u8; 32]);
        secrets.encrypt(TxId::new(1, 100), &pd, b"z");
        secrets.encrypt(TxId::new(1, 101), &pd, b"w");
        assert_eq!(setups(&reg), 2);
        // Old-version traffic still hits the original cached context.
        secrets.encrypt(TxId::new(1, 50), &pd, b"old");
        assert_eq!(setups(&reg), 2);
    }

    #[test]
    fn cache_metrics_report_hits_and_misses() {
        let reg = ccf_obs::Registry::new();
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        secrets.set_registry(&reg);
        let pd = [0u8; 32];
        for seqno in 1..=10 {
            secrets.encrypt(TxId::new(1, seqno), &pd, b"payload");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("crypto.gcm_ctx_cache_misses"), Some(&1));
        assert_eq!(snap.counters.get("crypto.gcm_ctx_cache_hits"), Some(&9));
        assert_eq!(snap.counters.get("crypto.gcm_sealed_bytes"), Some(&70));
        let hist = snap.histograms.get("ledger.seal_writeset_bytes").unwrap();
        assert_eq!(hist.count, 10);
    }

    #[test]
    #[should_panic(expected = "move forward")]
    fn rekey_backwards_panics() {
        let mut secrets = LedgerSecrets::new([1u8; 32]);
        secrets.rekey(100, [2u8; 32]);
        secrets.rekey(50, [3u8; 32]);
    }
}
