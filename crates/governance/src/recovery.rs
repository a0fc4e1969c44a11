//! Recovery shares and the disaster recovery protocol (paper §5.2).
//!
//! The ledger secret is wrapped by the *ledger secret wrapping key*, which
//! is Shamir-split into one share per consortium member, each sealed to
//! that member's public encryption key and recorded (public, but
//! encrypted) in `public:ccf.gov.recovery_shares`. During disaster
//! recovery, members decrypt and submit their shares; once the configured
//! threshold k is reached, the wrapping key is reconstructed inside the
//! TEE, the ledger secret unwrapped, and the private state decrypted.

use crate::MemberId;
use ccf_crypto::chacha::ChaChaRng;
use ccf_crypto::shamir::{self, Share};
use ccf_crypto::x25519::{open_box, seal_box, DhKeyPair};
use ccf_crypto::CryptoError;
use ccf_kv::{builtin, MapName, Transaction};
use ccf_ledger::secrets::{self, LedgerSecrets};
use std::collections::BTreeMap;

fn map(name: &str) -> MapName {
    MapName::new(name)
}

/// Errors from the recovery protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// Share decryption or reconstruction failed.
    Crypto(CryptoError),
    /// Not enough shares submitted yet.
    BelowThreshold {
        /// Shares submitted so far.
        have: usize,
        /// The configured threshold k.
        need: usize,
    },
    /// The reconstructed key failed to unwrap the ledger secret —
    /// submitted shares were wrong or the wrapped blob was corrupted.
    UnwrapFailed,
    /// Recovery state was missing from the store.
    MissingState(&'static str),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Crypto(e) => write!(f, "recovery crypto failure: {e}"),
            RecoveryError::BelowThreshold { have, need } => {
                write!(f, "have {have} shares, need {need}")
            }
            RecoveryError::UnwrapFailed => write!(f, "reconstructed key failed to unwrap secrets"),
            RecoveryError::MissingState(what) => write!(f, "missing recovery state: {what}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<CryptoError> for RecoveryError {
    fn from(e: CryptoError) -> Self {
        RecoveryError::Crypto(e)
    }
}

/// Writes the full recovery material into the store: the wrapped ledger
/// secrets and one sealed share per member. Called at genesis, after
/// membership changes, after rekeys, and after `set_recovery_threshold`
/// (share refresh).
///
/// `members` maps member id → X25519 encryption public key.
pub fn write_recovery_material(
    tx: &mut Transaction,
    secrets: &LedgerSecrets,
    members: &BTreeMap<MemberId, [u8; 32]>,
    threshold: usize,
    rng: &mut ChaChaRng,
) -> Result<(), RecoveryError> {
    assert!(threshold >= 1 && threshold <= members.len().max(1), "bad threshold");
    // Fresh wrapping key on every refresh (old shares become useless).
    let wrapping_key = rng.gen_seed();
    let wrapped = secrets::wrap(&wrapping_key, secrets);
    tx.put(&map(builtin::LEDGER_SECRET), b"wrapped", &wrapped);
    tx.put(
        &map(builtin::RECOVERY_THRESHOLD),
        b"k",
        threshold.to_string().as_bytes(),
    );
    // Clear stale shares (membership may have shrunk).
    let stale: Vec<Vec<u8>> = {
        let mut v = Vec::new();
        tx.for_each(&map(builtin::RECOVERY_SHARES), |k, _| v.push(k.to_vec()));
        v
    };
    for k in stale {
        tx.remove(&map(builtin::RECOVERY_SHARES), &k);
    }
    if members.is_empty() {
        return Ok(());
    }
    let shares = shamir::split(&wrapping_key, threshold, members.len(), rng)
        .map_err(RecoveryError::Crypto)?;
    for ((member, enc_key), share) in members.iter().zip(shares) {
        let sealed = seal_box(rng, enc_key, b"ccf-recovery-share", &share.to_bytes());
        tx.put(&map(builtin::RECOVERY_SHARES), member.as_bytes(), &sealed);
    }
    Ok(())
}

/// Member-side: fetches and decrypts this member's share.
pub fn decrypt_my_share(
    tx: &Transaction,
    member: &MemberId,
    enc_keypair: &DhKeyPair,
) -> Result<Share, RecoveryError> {
    let sealed = tx
        .read(builtin::RECOVERY_SHARES, member.as_bytes())
        .ok_or(RecoveryError::MissingState("no share for this member"))?;
    let plain = open_box(enc_keypair, b"ccf-recovery-share", sealed)?;
    Share::from_bytes(&plain).map_err(RecoveryError::Crypto)
}

/// The configured recovery threshold k.
pub fn recovery_threshold(tx: &Transaction) -> Result<usize, RecoveryError> {
    let bytes = tx
        .read(builtin::RECOVERY_THRESHOLD, b"k")
        .ok_or(RecoveryError::MissingState("recovery threshold"))?;
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(RecoveryError::MissingState("recovery threshold"))
}

/// Service-side share collector used while the service is in
/// `Recovering` state: accumulates member submissions until k are
/// present, then reconstructs the ledger secrets.
#[derive(Default)]
pub struct ShareCollector {
    shares: BTreeMap<MemberId, Share>,
}

impl ShareCollector {
    /// An empty collector.
    pub fn new() -> ShareCollector {
        ShareCollector::default()
    }

    /// Records a member's submitted share (later submissions overwrite).
    pub fn submit(&mut self, member: MemberId, share: Share) {
        self.shares.insert(member, share);
    }

    /// Number of distinct submissions so far.
    pub fn count(&self) -> usize {
        self.shares.len()
    }

    /// Attempts reconstruction against the wrapped blob in the store.
    pub fn try_reconstruct(&self, tx: &Transaction) -> Result<LedgerSecrets, RecoveryError> {
        let need = recovery_threshold(tx)?;
        if self.count() < need {
            return Err(RecoveryError::BelowThreshold { have: self.count(), need });
        }
        let wrapped = tx
            .read(builtin::LEDGER_SECRET, b"wrapped")
            .ok_or(RecoveryError::MissingState("wrapped ledger secret"))?;
        let shares: Vec<Share> = self.shares.values().cloned().collect();
        let key_bytes = shamir::combine(&shares).map_err(RecoveryError::Crypto)?;
        let key: [u8; 32] =
            key_bytes.try_into().map_err(|_| RecoveryError::UnwrapFailed)?;
        secrets::unwrap_with(&key, wrapped).map_err(|_| RecoveryError::UnwrapFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_kv::Store;

    fn members(n: usize) -> (BTreeMap<MemberId, [u8; 32]>, BTreeMap<MemberId, DhKeyPair>) {
        let mut pubs = BTreeMap::new();
        let mut keys = BTreeMap::new();
        for i in 0..n {
            let kp = DhKeyPair::from_secret(ccf_crypto::sha2::sha256(
                format!("member-enc-{i}").as_bytes(),
            ));
            let id = format!("m{i}");
            pubs.insert(id.clone(), kp.public);
            keys.insert(id, kp);
        }
        (pubs, keys)
    }

    #[test]
    fn end_to_end_recovery() {
        let mut store = Store::new();
        let secrets = LedgerSecrets::new([0x11; 32]);
        let (pubs, keys) = members(5);
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut tx = store.begin();
        write_recovery_material(&mut tx, &secrets, &pubs, 3, &mut rng).unwrap();
        store.apply_at(tx.into_write_set(), 1);

        // Members m1, m3, m4 submit.
        let tx = store.begin();
        let mut collector = ShareCollector::new();
        for id in ["m1", "m3", "m4"] {
            let share = decrypt_my_share(&tx, &id.to_string(), &keys[id]).unwrap();
            collector.submit(id.to_string(), share);
            if collector.count() < 3 {
                assert!(matches!(
                    collector.try_reconstruct(&tx),
                    Err(RecoveryError::BelowThreshold { .. })
                ));
            }
        }
        let recovered = collector.try_reconstruct(&tx).unwrap();
        assert_eq!(recovered.key_for(1), Some(&[0x11; 32]));
    }

    #[test]
    fn wrong_member_cannot_decrypt_anothers_share() {
        let store = Store::new();
        let secrets = LedgerSecrets::new([0x22; 32]);
        let (pubs, keys) = members(3);
        let mut rng = ChaChaRng::seed_from_u64(2);
        let mut tx = store.begin();
        write_recovery_material(&mut tx, &secrets, &pubs, 2, &mut rng).unwrap();
        // m0's key cannot open m1's share.
        assert!(decrypt_my_share(&tx, &"m1".to_string(), &keys["m0"]).is_err());
    }

    #[test]
    fn corrupted_share_fails_unwrap() {
        let store = Store::new();
        let secrets = LedgerSecrets::new([0x33; 32]);
        let (pubs, keys) = members(3);
        let mut rng = ChaChaRng::seed_from_u64(3);
        let mut tx = store.begin();
        write_recovery_material(&mut tx, &secrets, &pubs, 2, &mut rng).unwrap();
        let mut collector = ShareCollector::new();
        let good = decrypt_my_share(&tx, &"m0".to_string(), &keys["m0"]).unwrap();
        collector.submit("m0".to_string(), good);
        // A forged share passes structure checks but breaks reconstruction.
        let mut forged = decrypt_my_share(&tx, &"m1".to_string(), &keys["m1"]).unwrap();
        forged.y[0] ^= 1;
        collector.submit("m1".to_string(), forged);
        assert!(matches!(collector.try_reconstruct(&tx), Err(RecoveryError::UnwrapFailed)));
    }

    #[test]
    fn refresh_invalidates_old_shares() {
        let store = Store::new();
        let secrets = LedgerSecrets::new([0x44; 32]);
        let (pubs, keys) = members(3);
        let mut rng = ChaChaRng::seed_from_u64(4);
        let mut tx = store.begin();
        write_recovery_material(&mut tx, &secrets, &pubs, 2, &mut rng).unwrap();
        let old0 = decrypt_my_share(&tx, &"m0".to_string(), &keys["m0"]).unwrap();
        let old1 = decrypt_my_share(&tx, &"m1".to_string(), &keys["m1"]).unwrap();
        // Refresh (e.g. threshold change).
        write_recovery_material(&mut tx, &secrets, &pubs, 2, &mut rng).unwrap();
        let mut collector = ShareCollector::new();
        collector.submit("m0".to_string(), old0);
        collector.submit("m1".to_string(), old1);
        // Old shares reconstruct the OLD wrapping key — unwrap must fail.
        assert!(matches!(collector.try_reconstruct(&tx), Err(RecoveryError::UnwrapFailed)));
        // Fresh shares work.
        let mut collector = ShareCollector::new();
        for id in ["m0", "m2"] {
            collector
                .submit(id.to_string(), decrypt_my_share(&tx, &id.to_string(), &keys[id]).unwrap());
        }
        assert!(collector.try_reconstruct(&tx).is_ok());
    }

    #[test]
    fn membership_shrink_clears_stale_shares() {
        let store = Store::new();
        let secrets = LedgerSecrets::new([0x55; 32]);
        let (pubs, _) = members(4);
        let mut rng = ChaChaRng::seed_from_u64(5);
        let mut tx = store.begin();
        write_recovery_material(&mut tx, &secrets, &pubs, 2, &mut rng).unwrap();
        let mut fewer = pubs.clone();
        fewer.remove("m3");
        write_recovery_material(&mut tx, &secrets, &fewer, 2, &mut rng).unwrap();
        assert!(tx
            .get(&map(builtin::RECOVERY_SHARES), b"m3")
            .is_none());
        let mut n = 0;
        tx.for_each(&map(builtin::RECOVERY_SHARES), |_, _| n += 1);
        assert_eq!(n, 3);
    }
}
