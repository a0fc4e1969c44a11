//! Application-defined indexing of committed transactions (paper §3.4).
//!
//! Historical range queries would otherwise fetch and decrypt many ledger
//! entries; CCF lets applications register an *indexing strategy* that
//! pre-processes each committed transaction in order and keeps derived
//! state for fast lookup. This reproduction ships the paper's one example
//! strategy, [`KeyToTxIds`]. Index state lives in memory only; the paper's
//! offload of index state to host storage is not modelled.
//!
//! The node feeds each entry on append. The indexer keeps only the keys
//! the strategies watch, and hands them over once the entry commits; a
//! rollback drops those of lost entries. With no strategy, nothing is kept.

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

/// The indexer: fed every applied entry strictly in order, it drives the
/// registered strategies over those that commit.
#[derive(Default)]
pub struct Indexer {
    strategies: Vec<KeyToTxIds>,
    /// Watched keys of fed entries not yet committed, in seqno order:
    /// (txid, strategy, key).
    pending: Vec<(TxId, usize, Vec<u8>)>,
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

    /// Feeds one applied entry (seqnos must be consecutive). Its watched
    /// keys reach the strategies when [`Indexer::commit`] covers it.
    pub fn feed(&mut self, txid: TxId, writes: &WriteSet) {
        assert_eq!(txid.seqno, self.processed_upto + 1, "indexer must see entries in order");
        for (i, strategy) in self.strategies.iter().enumerate() {
            let keys = writes.maps.get(&strategy.map).into_iter().flat_map(|w| w.keys());
            self.pending.extend(keys.map(|key| (txid, i, key.clone())));
        }
        self.processed_upto = txid.seqno;
    }

    /// Hands the strategies the pending keys of entries up to `seqno`,
    /// which has committed.
    pub fn commit(&mut self, seqno: u64) {
        let done = self.pending.partition_point(|(txid, _, _)| txid.seqno <= seqno);
        for (txid, i, key) in self.pending.drain(..done) {
            self.strategies[i].index.entry(key).or_default().push(txid);
        }
    }

    /// Highest seqno fed.
    pub fn processed_upto(&self) -> u64 {
        self.processed_upto
    }

    /// Restarts the feed after `seqno` (a rollback's target or a snapshot
    /// base), dropping the pending keys above it, or all of them for a
    /// snapshot past every fed entry: it replaced the log they came from.
    pub fn reset_to(&mut self, seqno: u64) {
        let keep = if seqno > self.processed_upto { 0 } else { seqno };
        let kept = self.pending.partition_point(|(txid, _, _)| txid.seqno <= keep);
        self.pending.truncate(kept);
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
    fn strategies_see_committed_entries_only() {
        let mut indexer = Indexer::new();
        indexer.register(KeyToTxIds::new("m"));
        for seqno in 1..=4 {
            indexer.feed(TxId::new(1, seqno), &ws("m", &["a"]));
        }
        let txids = |i: &Indexer| i.strategy(0).unwrap().txids_for(b"a").to_vec();
        assert!(txids(&indexer).is_empty(), "nothing has committed");
        indexer.commit(2);
        assert_eq!(txids(&indexer), [TxId::new(1, 1), TxId::new(1, 2)]);
        // Entry 4 rolls back and another view's entry replaces it.
        indexer.reset_to(3);
        indexer.feed(TxId::new(2, 4), &ws("m", &["a"]));
        indexer.commit(4);
        assert_eq!(txids(&indexer)[2..], [TxId::new(1, 3), TxId::new(2, 4)]);
        // A snapshot past every fed entry drops what is pending.
        indexer.feed(TxId::new(2, 5), &ws("m", &["a"]));
        indexer.reset_to(9);
        indexer.commit(9);
        assert_eq!(txids(&indexer).len(), 4);
        assert_eq!(indexer.processed_upto(), 9);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn indexer_rejects_gaps() {
        let mut indexer = Indexer::new();
        indexer.feed(TxId::new(1, 5), &WriteSet::new());
    }
}
