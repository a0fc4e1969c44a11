//! The store and its transactions.
//!
//! Execution model (paper §3.3, §6.4): every endpoint invocation runs a
//! [`Transaction`] against a snapshot of the latest state and buffers its
//! writes. The production CCF runs many transactions at once on worker
//! threads and validates each one's reads optimistically before it
//! commits. A node here runs one transaction at a time, from begin to
//! proposal under its one lock, and the types say so: a transaction
//! borrows the state it reads, so nothing can apply to the store while it
//! lives, and there is no validation. The write set becomes a ledger
//! entry, and [`Store::apply_at`] applies it on the primary and on
//! backups alike.

use crate::champ::ChampMap;
use crate::writeset::WriteSet;
use crate::MapName;
use std::collections::HashMap;
use std::sync::Arc;

type Map = ChampMap<Vec<u8>, Vec<u8>>;

/// An immutable snapshot of the whole store.
#[derive(Clone, Default)]
pub struct StoreState {
    /// Version of the last applied transaction (ledger seqno).
    pub version: u64,
    maps: HashMap<MapName, Map>,
}

impl StoreState {
    /// Reads a value from the snapshot.
    pub fn get(&self, map: &str, key: &[u8]) -> Option<&[u8]> {
        self.maps.get(map)?.get(key).map(Vec::as_slice)
    }

    /// Begins a transaction that reads this state.
    pub fn begin(&self) -> Transaction<'_> {
        Transaction { snapshot: self, writes: WriteSet::new() }
    }

    /// Iterates over all entries of a map.
    pub fn for_each<'a>(&'a self, map: &MapName, mut f: impl FnMut(&'a [u8], &'a [u8])) {
        if let Some(m) = self.maps.get(map) {
            m.for_each(|k, v| f(k, v));
        }
    }

    /// Collects the entries of a map, sorted by key (deterministic).
    pub fn entries_sorted(&self, map: &MapName) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.begin().for_each(map, |k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    /// Names of all maps that currently exist (have ever been written).
    pub fn map_names(&self) -> Vec<MapName> {
        let mut names: Vec<_> = self.maps.keys().cloned().collect();
        names.sort();
        names
    }

    /// Serializes the full state deterministically — the basis of CCF
    /// snapshots (§4.4).
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        w.u64(self.version);
        let names = self.map_names();
        w.u32(names.len() as u32);
        for name in names {
            w.str(&name.0);
            let mut entries = Vec::new();
            self.for_each(&name, |k, v| entries.push((k, v)));
            entries.sort_unstable_by_key(|(k, _)| *k);
            w.u32(entries.len() as u32);
            for (k, v) in entries {
                w.bytes(k);
                w.bytes(v);
            }
        }
        w.finish()
    }

    /// Restores a state serialized by [`StoreState::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<StoreState, crate::codec::CodecError> {
        let mut r = crate::codec::Reader::new(bytes);
        let version = r.u64("snapshot version")?;
        let map_count = r.u32("snapshot map count")?;
        let mut maps = HashMap::new();
        for _ in 0..map_count {
            let name = MapName::new(r.str("snapshot map name")?);
            let entry_count = r.u32("snapshot entry count")?;
            let mut m = Map::new();
            for _ in 0..entry_count {
                let k = r.bytes("snapshot key")?.to_vec();
                let data = r.bytes("snapshot value")?.to_vec();
                m.insert(k, data);
            }
            maps.insert(name, m);
        }
        if !r.is_at_end() {
            return Err(crate::codec::CodecError::BadLength { context: "snapshot trailing" });
        }
        Ok(StoreState { version, maps })
    }

    /// Applies `ws` in place as version `new_version`, moving its map
    /// names, keys and values into the maps. Only the CHAMP nodes another
    /// state still shares are copied.
    fn apply_write_set(&mut self, ws: WriteSet, new_version: u64) {
        for (name, writes) in ws.maps {
            let m = self.maps.entry(name).or_default();
            for (key, value) in writes {
                match value {
                    Some(data) => m.insert(key, data),
                    None => {
                        m.remove(key.as_slice());
                    }
                }
            }
        }
        self.version = new_version;
    }
}

/// The mutable store: the current state, which a transaction borrows and
/// a state that outlives a call (a kept rollback base) holds by cloning
/// one `Arc`. A writer updates the state in place when no such state
/// holds it, and copies only what a held state shares.
#[derive(Default)]
pub struct Store {
    current: Arc<StoreState>,
}

impl Store {
    /// An empty store at version 0.
    pub fn new() -> Store {
        Store::default()
    }

    /// Takes an immutable snapshot of the latest state, to keep.
    pub fn snapshot(&self) -> Arc<StoreState> {
        self.current.clone()
    }

    /// The version of the latest applied transaction.
    pub fn version(&self) -> u64 {
        self.current.version
    }

    /// Begins a transaction against the latest state. It borrows the
    /// store, so no write set can apply until it ends.
    pub fn begin(&self) -> Transaction<'_> {
        self.current.begin()
    }

    /// Applies a write set at `version`, the one apply: a proposer's own
    /// write set and a replicated or replayed entry alike. `version` must
    /// be `current version + 1`. The write set is consumed: its keys and
    /// values move into the store, and nothing is cloned.
    pub fn apply_at(&mut self, ws: WriteSet, version: u64) {
        assert_eq!(
            version,
            self.current.version + 1,
            "write sets must be applied in sequence order"
        );
        Arc::make_mut(&mut self.current).apply_write_set(ws, version);
    }

    /// Replaces the whole state (rollback after view change, snapshot
    /// installation, disaster recovery).
    pub fn install(&mut self, state: StoreState) {
        self.current = Arc::new(state);
    }
}

/// An in-flight transaction: reads of the state it borrows, plus
/// buffered writes. The borrow is the invariant that one transaction runs
/// at a time: the store cannot apply anything while a transaction from
/// [`Store::begin`] lives.
///
/// ```compile_fail,E0502
/// use ccf_kv::{Store, WriteSet};
/// let mut store = Store::new();
/// let tx = store.begin();
/// store.apply_at(WriteSet::new(), 1);
/// tx.is_read_only();
/// ```
pub struct Transaction<'s> {
    snapshot: &'s StoreState,
    writes: WriteSet,
}

impl Transaction<'_> {
    /// Reads a key by reference: own writes first, then the snapshot.
    pub fn read(&self, map: &str, key: &[u8]) -> Option<&[u8]> {
        if let Some(v) = self.writes.maps.get(map).and_then(|w| w.get(key)) {
            return v.as_deref();
        }
        self.snapshot.get(map, key)
    }

    /// Reads a key as an owned copy ([`Transaction::read`]).
    pub fn get(&self, map: &MapName, key: &[u8]) -> Option<Vec<u8>> {
        self.read(&map.0, key).map(<[u8]>::to_vec)
    }

    /// Writes a key (buffered until proposal).
    pub fn put(&mut self, map: &MapName, key: &[u8], value: &[u8]) {
        self.writes.write(map.clone(), key.to_vec(), value.to_vec());
    }

    /// Removes a key (buffered until proposal).
    pub fn remove(&mut self, map: &MapName, key: &[u8]) {
        self.writes.remove(map.clone(), key.to_vec());
    }

    /// Iterates over a map as seen by this transaction (snapshot overlaid
    /// with the transaction's own writes), in sorted key order. Nothing
    /// is copied: it sorts borrowed pairs.
    pub fn for_each(&self, map: &MapName, mut f: impl FnMut(&[u8], &[u8])) {
        let writes = self.writes.maps.get(map);
        let mut entries: Vec<(&[u8], &[u8])> = Vec::new();
        self.snapshot.for_each(map, |k, v| {
            if !writes.is_some_and(|w| w.contains_key(k)) {
                entries.push((k, v));
            }
        });
        let own = writes.into_iter().flatten();
        entries.extend(own.filter_map(|(k, v)| Some((k.as_slice(), v.as_deref()?))));
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.into_iter().for_each(|(k, v)| f(k, v));
    }

    /// Snapshots the current write buffer (savepoint). Combined with
    /// [`Transaction::restore_writes`], callers get atomic sub-operations:
    /// governance applies a proposal's actions and rolls them back as a
    /// unit if any action fails.
    pub fn save_writes(&self) -> WriteSet {
        self.writes.clone()
    }

    /// Restores a write buffer captured by [`Transaction::save_writes`].
    pub fn restore_writes(&mut self, ws: WriteSet) {
        self.writes = ws;
    }

    /// True iff the transaction has buffered no writes (read-only fast
    /// path, §3.4: such transactions are never recorded on the ledger).
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// The buffered write set (e.g. for inspection in tests).
    pub fn write_set(&self) -> &WriteSet {
        &self.writes
    }

    /// Ends the transaction, keeping only its write set, and with it the
    /// borrow of the store: only then can the write set be applied, and
    /// the apply updates the store in place.
    pub fn into_write_set(self) -> WriteSet {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(name: &str) -> MapName {
        MapName::new(name)
    }

    /// Applies a transaction's writes as the next version, as a node does
    /// once it has proposed them.
    fn commit(ws: WriteSet, store: &mut Store) -> u64 {
        let version = store.version() + 1;
        store.apply_at(ws, version);
        version
    }

    #[test]
    fn basic_commit_and_read() {
        let mut store = Store::new();
        let mut tx = store.begin();
        assert_eq!(tx.get(&map("m"), b"k"), None);
        tx.put(&map("m"), b"k", b"v");
        // Read-your-writes.
        assert_eq!(tx.get(&map("m"), b"k"), Some(b"v".to_vec()));
        assert_eq!(tx.write_set().update_count(), 1);
        assert_eq!(commit(tx.into_write_set(), &mut store), 1);
        let tx2 = store.begin();
        assert_eq!(tx2.get(&map("m"), b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn apply_at_replays_in_order() {
        let mut store = Store::new();
        let mut ws1 = WriteSet::new();
        ws1.write(map("m"), b"a".to_vec(), b"1".to_vec());
        let mut ws2 = WriteSet::new();
        ws2.write(map("m"), b"b".to_vec(), b"2".to_vec());
        ws2.remove(map("m"), b"a".to_vec());
        store.apply_at(ws1, 1);
        store.apply_at(ws2, 2);
        assert_eq!(store.version(), 2);
        let tx = store.begin();
        assert_eq!(tx.get(&map("m"), b"a"), None);
        assert_eq!(tx.get(&map("m"), b"b"), Some(b"2".to_vec()));
    }

    #[test]
    #[should_panic(expected = "sequence order")]
    fn apply_at_out_of_order_panics() {
        let mut store = Store::new();
        store.apply_at(WriteSet::new(), 5);
    }

    #[test]
    fn snapshot_isolation() {
        let mut store = Store::new();
        let mut t0 = store.begin();
        t0.put(&map("m"), b"k", b"old");
        commit(t0.into_write_set(), &mut store);
        let snap = store.snapshot();
        let mut t1 = store.begin();
        t1.put(&map("m"), b"k", b"new");
        commit(t1.into_write_set(), &mut store);
        // The old snapshot still reads the old value.
        assert_eq!(snap.get("m", b"k"), Some(&b"old"[..]));
        // A fresh transaction reads the new one.
        let tx = store.begin();
        assert_eq!(tx.get(&map("m"), b"k"), Some(b"new".to_vec()));
    }

    #[test]
    fn unshared_state_is_updated_in_place() {
        let mut store = Store::new();
        let mut tx = store.begin();
        tx.put(&map("m"), b"k", b"v");
        commit(tx.into_write_set(), &mut store);
        let state = Arc::as_ptr(&store.snapshot());
        // The transaction ends before the apply, so nothing holds the state.
        let mut tx = store.begin();
        tx.put(&map("m"), b"k", b"w");
        commit(tx.into_write_set(), &mut store);
        store.apply_at(WriteSet::new(), 3);
        assert_eq!(Arc::as_ptr(&store.snapshot()), state);
        // A held snapshot is copied on the next apply, and keeps its value.
        let held = store.snapshot();
        store.apply_at(WriteSet::new(), 4);
        assert_ne!(Arc::as_ptr(&store.snapshot()), state);
        assert_eq!(held.get("m", b"k"), Some(&b"w"[..]));
    }

    #[test]
    fn for_each_overlays_writes() {
        let mut store = Store::new();
        let mut t0 = store.begin();
        for (k, v) in [(b"a", b"1"), (b"b", b"2"), (b"d", b"4"), (b"f", b"6")] {
            t0.put(&map("m"), k, v);
        }
        commit(t0.into_write_set(), &mut store);
        let mut tx = store.begin();
        tx.put(&map("m"), b"c", b"3");
        tx.put(&map("m"), b"d", b"5");
        tx.put(&map("m"), b"g", b"7");
        tx.remove(&map("m"), b"a");
        tx.remove(&map("m"), b"z");
        let mut seen = Vec::new();
        tx.for_each(&map("m"), |k, v| seen.push((k.to_vec(), v.to_vec())));
        // A removal hides a snapshot key, an own write lands between two
        // snapshot keys and another overwrites one, in key order.
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            [("b", "2"), ("c", "3"), ("d", "5"), ("f", "6"), ("g", "7")]
                .iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn state_serialize_roundtrip() {
        let mut store = Store::new();
        for i in 0..10u8 {
            let mut tx = store.begin();
            tx.put(&map("m"), &[i], &[i * 2]);
            tx.put(&map("public:x"), &[i], b"pub");
            commit(tx.into_write_set(), &mut store);
        }
        let state = store.snapshot();
        let bytes = state.serialize();
        let restored = StoreState::deserialize(&bytes).unwrap();
        assert_eq!(restored.version, state.version);
        assert_eq!(
            restored.entries_sorted(&map("m")),
            state.entries_sorted(&map("m"))
        );
        // Deterministic encoding.
        assert_eq!(restored.serialize(), bytes);
    }

    #[test]
    fn read_only_fast_path_detection() {
        let store = Store::new();
        let mut tx = store.begin();
        let _ = tx.get(&map("m"), b"k");
        assert!(tx.is_read_only());
        tx.put(&map("m"), b"k", b"v");
        assert!(!tx.is_read_only());
    }
}
