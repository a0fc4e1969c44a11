//! Application-defined indexing of committed transactions (paper §3.4).
//!
//! Historical range queries would otherwise fetch and decrypt many ledger
//! entries; CCF lets applications register an *indexing strategy* that
//! pre-processes each committed transaction in order and keeps derived
//! state for fast lookup. This reproduction ships the paper's one example
//! strategy, [`KeyToTxIds`]. Index state is in-memory but can be offloaded
//! to (untrusted) persistent storage, encrypted with the ledger secret.

use ccf_kv::{MapName, WriteSet};
use ccf_ledger::secrets::LedgerSecrets;
use ccf_ledger::TxId;
use std::collections::BTreeMap;

/// The built-in strategy from the paper's example: for each key of a
/// watched map, every transaction ID that wrote it — enough to implement
/// `get_statement`-style endpoints (all recent credits/debits of an
/// account).
pub struct KeyToTxIds {
    map: MapName,
    index: BTreeMap<Vec<u8>, Vec<TxId>>,
}

impl KeyToTxIds {
    /// Indexes writes to `map`.
    pub fn new(map: impl Into<MapName>) -> KeyToTxIds {
        KeyToTxIds { map: map.into(), index: BTreeMap::new() }
    }

    /// Processes one committed transaction with its (decrypted) write set.
    pub fn handle_committed(&mut self, txid: TxId, writes: &WriteSet) {
        if let Some(map_writes) = writes.maps.get(&self.map) {
            for key in map_writes.keys() {
                self.index.entry(key.clone()).or_default().push(txid);
            }
        }
    }

    /// All transactions that wrote `key`, oldest first.
    pub fn txids_for(&self, key: &[u8]) -> &[TxId] {
        self.index.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of indexed keys.
    pub fn key_count(&self) -> usize {
        self.index.len()
    }

    /// Serializes and encrypts the index for offload to host storage
    /// (§3.4: "can be offloaded to persistent storage if needed",
    /// encrypted with AES-GCM per §7).
    pub fn offload(&self, secrets: &LedgerSecrets, at: TxId) -> Vec<u8> {
        let mut w = ccf_kv::codec::Writer::new();
        w.u32(self.index.len() as u32);
        for (key, txids) in &self.index {
            w.bytes(key);
            w.u32(txids.len() as u32);
            for t in txids {
                w.u64(t.view);
                w.u64(t.seqno);
            }
        }
        // Bind to the strategy + position so blobs cannot be swapped.
        let digest = ccf_crypto::sha2::sha256(self.map.0.as_bytes());
        secrets.encrypt(at, &digest, &w.finish())
    }

    /// Restores an offloaded index blob.
    pub fn restore(
        map: impl Into<MapName>,
        secrets: &LedgerSecrets,
        at: TxId,
        blob: &[u8],
    ) -> Result<KeyToTxIds, String> {
        let map = map.into();
        let digest = ccf_crypto::sha2::sha256(map.0.as_bytes());
        let plain = secrets
            .decrypt(at, &digest, blob)
            .map_err(|e| format!("index decrypt: {e}"))?;
        let mut r = ccf_kv::codec::Reader::new(&plain);
        let n = r.u32("index size").map_err(|e| e.to_string())?;
        let mut index = BTreeMap::new();
        for _ in 0..n {
            let key = r.bytes("index key").map_err(|e| e.to_string())?.to_vec();
            let count = r.u32("txid count").map_err(|e| e.to_string())?;
            let mut txids = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let view = r.u64("view").map_err(|e| e.to_string())?;
                let seqno = r.u64("seqno").map_err(|e| e.to_string())?;
                txids.push(TxId::new(view, seqno));
            }
            index.insert(key, txids);
        }
        Ok(KeyToTxIds { map, index })
    }
}

/// The indexer: drives registered strategies over committed transactions,
/// strictly in order, tracking the high-water mark.
#[derive(Default)]
pub struct Indexer {
    strategies: Vec<KeyToTxIds>,
    processed_upto: u64,
}

impl Indexer {
    /// An empty indexer.
    pub fn new() -> Indexer {
        Indexer::default()
    }

    /// Registers a strategy. Strategies added after transactions have
    /// been processed only see subsequent ones (callers wanting full
    /// history re-feed from the ledger — the "lazy" option in §3.4).
    pub fn register(&mut self, strategy: KeyToTxIds) {
        self.strategies.push(strategy);
    }

    /// Feeds one committed transaction (seqnos must be consecutive).
    pub fn feed(&mut self, txid: TxId, writes: &WriteSet) {
        assert_eq!(
            txid.seqno,
            self.processed_upto + 1,
            "indexer must see commits in order"
        );
        for s in &mut self.strategies {
            s.handle_committed(txid, writes);
        }
        self.processed_upto = txid.seqno;
    }

    /// Highest seqno processed.
    pub fn processed_upto(&self) -> u64 {
        self.processed_upto
    }

    /// Resets to a new position (snapshot install / recovery).
    pub fn reset_to(&mut self, seqno: u64) {
        self.processed_upto = seqno;
    }

    /// Access a registered strategy by index, in registration order.
    pub fn strategy(&self, i: usize) -> Option<&KeyToTxIds> {
        self.strategies.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(map: &str, keys: &[&str]) -> WriteSet {
        let mut w = WriteSet::new();
        for k in keys {
            w.write(MapName::new(map), k.as_bytes().to_vec(), b"v".to_vec());
        }
        w
    }

    #[test]
    fn key_to_txids_accumulates_in_order() {
        let mut idx = KeyToTxIds::new("accounts");
        idx.handle_committed(TxId::new(1, 1), &ws("accounts", &["alice"]));
        idx.handle_committed(TxId::new(1, 2), &ws("accounts", &["bob", "alice"]));
        idx.handle_committed(TxId::new(1, 3), &ws("other", &["alice"]));
        assert_eq!(idx.txids_for(b"alice"), &[TxId::new(1, 1), TxId::new(1, 2)]);
        assert_eq!(idx.txids_for(b"bob"), &[TxId::new(1, 2)]);
        assert_eq!(idx.txids_for(b"carol"), &[] as &[TxId]);
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn indexer_enforces_order() {
        let mut indexer = Indexer::new();
        indexer.register(KeyToTxIds::new("m"));
        indexer.feed(TxId::new(1, 1), &ws("m", &["a"]));
        indexer.feed(TxId::new(1, 2), &ws("m", &["b"]));
        assert_eq!(indexer.processed_upto(), 2);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn indexer_rejects_gaps() {
        let mut indexer = Indexer::new();
        indexer.feed(TxId::new(1, 5), &WriteSet::new());
    }

    #[test]
    fn offload_and_restore_encrypted() {
        let secrets = LedgerSecrets::new([9u8; 32]);
        let mut idx = KeyToTxIds::new("accounts");
        idx.handle_committed(TxId::new(1, 1), &ws("accounts", &["alice", "bob"]));
        idx.handle_committed(TxId::new(2, 5), &ws("accounts", &["alice"]));
        let at = TxId::new(2, 5);
        let blob = idx.offload(&secrets, at);
        // Blob is ciphertext: must not contain key material in the clear.
        assert!(!blob.windows(5).any(|w| w == b"alice"));
        let restored = KeyToTxIds::restore("accounts", &secrets, at, &blob).unwrap();
        assert_eq!(restored.txids_for(b"alice"), idx.txids_for(b"alice"));
        // Wrong map binding fails.
        assert!(KeyToTxIds::restore("other", &secrets, at, &blob).is_err());
        // Tampered blob fails.
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(KeyToTxIds::restore("accounts", &secrets, at, &bad).is_err());
    }
}
