//! Application-defined indexing of committed transactions (paper §3.4).
//!
//! Historical range queries would otherwise fetch and decrypt many ledger
//! entries; CCF lets applications register an *indexing strategy* that
//! pre-processes each committed transaction in order and keeps derived
//! state for fast lookup. This reproduction ships the paper's one example
//! strategy, [`KeyToTxIds`]. Index state lives in memory only; the paper's
//! offload of index state to host storage is not modelled.

use ccf_kv::{MapName, WriteSet};
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
}
