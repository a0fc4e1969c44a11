//! The versioned store and its optimistic transactions.
//!
//! Execution model (paper §3.3, §6.4): every endpoint invocation runs a
//! [`Transaction`] against an immutable snapshot of the latest state. Reads
//! record the version of each value they observed; on commit the read-set
//! is validated against the current state and, if still fresh, the write
//! buffer is applied atomically under a new monotonic version. A stale
//! read-set yields [`CommitError::Conflict`] and the caller (the node)
//! re-executes — application logic therefore need not be
//! deterministic, but its committed transaction is applied exactly once.
//!
//! A read transaction ([`Store::begin_read`], the §3.4 fast path) keeps
//! no read-set: it is never validated, and [`Store::validate`] and
//! [`Store::commit`] refuse it with [`CommitError::ReadTransaction`].

use crate::champ::ChampMap;
use crate::writeset::WriteSet;
use crate::MapName;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A value plus the store version at which it was last written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned {
    /// Store version (= ledger sequence number) of the writing transaction.
    pub version: u64,
    /// The value bytes.
    pub data: Vec<u8>,
}

type Map = ChampMap<Vec<u8>, Versioned>;

/// An immutable snapshot of the whole store.
#[derive(Clone, Default)]
pub struct StoreState {
    /// Version of the last applied transaction (ledger seqno).
    pub version: u64,
    maps: HashMap<MapName, Map>,
}

impl StoreState {
    /// Reads a value (with its version) from the snapshot.
    pub fn get(&self, map: &str, key: &[u8]) -> Option<&Versioned> {
        self.maps.get(map)?.get(key)
    }

    /// Iterates over all entries of a map.
    pub fn for_each(&self, map: &MapName, mut f: impl FnMut(&[u8], &[u8])) {
        if let Some(m) = self.maps.get(map) {
            m.for_each(|k, v| f(k, &v.data));
        }
    }

    /// Collects the entries of a map, sorted by key (deterministic).
    pub fn entries_sorted(&self, map: &MapName) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.for_each(map, |k, v| out.push((k.to_vec(), v.to_vec())));
        out.sort();
        out
    }

    /// Names of all maps that currently exist (have ever been written).
    pub fn map_names(&self) -> Vec<MapName> {
        let mut names: Vec<_> = self.maps.keys().cloned().collect();
        names.sort();
        names
    }

    /// Serializes the full state deterministically — the basis of CCF
    /// snapshots (§4.4). Includes per-value versions so a restored store
    /// continues to validate OCC reads correctly.
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        w.u64(self.version);
        let names = self.map_names();
        w.u32(names.len() as u32);
        for name in names {
            w.str(&name.0);
            let mut entries = Vec::new();
            if let Some(m) = self.maps.get(&name) {
                m.for_each(|k, v| entries.push((k, v)));
            }
            entries.sort_unstable_by_key(|(k, _)| *k);
            w.u32(entries.len() as u32);
            for (k, v) in entries {
                w.bytes(k);
                w.u64(v.version);
                w.bytes(&v.data);
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
                let ver = r.u64("snapshot value version")?;
                let data = r.bytes("snapshot value")?.to_vec();
                m.insert(k, Versioned { version: ver, data });
            }
            maps.insert(name, m);
        }
        if !r.is_at_end() {
            return Err(crate::codec::CodecError::BadLength { context: "snapshot trailing" });
        }
        Ok(StoreState { version, maps })
    }

    /// Applies `ws` in place as version `new_version`. Only the CHAMP
    /// nodes another state still shares are copied.
    fn apply_write_set(&mut self, ws: &WriteSet, new_version: u64) {
        for (name, writes) in &ws.maps {
            if !self.maps.contains_key(name) {
                self.maps.insert(name.clone(), Map::new());
            }
            let m = self.maps.get_mut(name).expect("inserted above");
            for (key, value) in writes {
                match value {
                    Some(data) => m.insert(
                        key.clone(),
                        Versioned { version: new_version, data: data.clone() },
                    ),
                    None => {
                        m.remove(key.as_slice());
                    }
                }
            }
        }
        self.version = new_version;
    }
}

/// Why a transaction failed to commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// Another transaction wrote a key in this transaction's read-set after
    /// its snapshot was taken: re-execute (optimistic concurrency).
    Conflict {
        /// The first conflicting map observed.
        map: MapName,
        /// The first conflicting key observed.
        key: Vec<u8>,
    },
    /// The transaction attempted to write a reserved (`ccf.`) map without
    /// the internal privilege.
    ReservedMap(MapName),
    /// A read transaction ([`Store::begin_read`]) keeps no read-set, so
    /// validating it would pass vacuously.
    ReadTransaction,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Conflict { map, key } => {
                write!(f, "write conflict on {map} key {:?}", String::from_utf8_lossy(key))
            }
            CommitError::ReservedMap(m) => write!(f, "application wrote reserved map {m}"),
            CommitError::ReadTransaction => f.write_str("a read transaction cannot be validated"),
        }
    }
}

impl std::error::Error for CommitError {}

/// The mutable store: the current state, which readers snapshot by
/// cloning one `Arc`. A writer updates the state in place when no
/// snapshot holds it, and copies only what a held snapshot shares.
#[derive(Default)]
pub struct Store {
    current: Arc<StoreState>,
}

impl Store {
    /// An empty store at version 0.
    pub fn new() -> Store {
        Store::default()
    }

    /// Takes an immutable snapshot of the latest state.
    pub fn snapshot(&self) -> Arc<StoreState> {
        self.current.clone()
    }

    /// The version of the latest committed transaction.
    pub fn version(&self) -> u64 {
        self.current.version
    }

    /// Begins a transaction against the latest state.
    pub fn begin(&self) -> Transaction {
        Transaction {
            snapshot: self.snapshot(),
            reads: Some(ReadSet::new()),
            writes: WriteSet::new(),
        }
    }

    /// Begins a read transaction (§3.4 fast path): it records no read-set,
    /// and [`Store::validate`] and [`Store::commit`] refuse it.
    pub fn begin_read(&self) -> Transaction {
        Transaction { snapshot: self.snapshot(), reads: None, writes: WriteSet::new() }
    }

    /// Validates a transaction's read-set against the current state
    /// WITHOUT applying it. The full node uses this: validation happens
    /// under the node's lock, the write set becomes a ledger entry via
    /// consensus, and application flows through the uniform
    /// `Appended`-event path (`apply_at`) on primary and backups alike.
    pub fn validate(&self, tx: &Transaction) -> Result<(), CommitError> {
        let reads = tx.reads.as_ref().ok_or(CommitError::ReadTransaction)?;
        for ((map, key), observed) in reads {
            let now = self.current.get(&map.0, key).map(|v| v.version);
            if now != *observed {
                return Err(CommitError::Conflict { map: map.clone(), key: key.clone() });
            }
        }
        Ok(())
    }

    /// Validates and applies a transaction. On success returns the new
    /// version (the transaction's sequence number) and its write set.
    ///
    /// `allow_reserved` is set only by CCF-internal writers (governance
    /// application, signature transactions, join processing).
    pub fn commit(
        &mut self,
        tx: Transaction,
        allow_reserved: bool,
    ) -> Result<(u64, WriteSet), CommitError> {
        if tx.reads.is_none() {
            return Err(CommitError::ReadTransaction);
        }
        if !allow_reserved {
            if let Some(name) = tx.writes.maps.keys().find(|n| n.is_reserved()) {
                return Err(CommitError::ReservedMap(name.clone()));
            }
        }
        // OCC validation: every read must still observe the same version.
        self.validate(&tx)?;
        let new_version = self.current.version + 1;
        // Releasing the transaction's snapshot first lets the apply below
        // update in place.
        let writes = tx.into_write_set();
        Arc::make_mut(&mut self.current).apply_write_set(&writes, new_version);
        Ok((new_version, writes))
    }

    /// Applies a write set directly at `version` (replication/replay path:
    /// backups apply exactly what the primary committed, no validation).
    /// `version` must be `current version + 1`.
    pub fn apply_at(&mut self, ws: &WriteSet, version: u64) {
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

/// The version each read observed (`None`: the key was absent).
type ReadSet = BTreeMap<(MapName, Vec<u8>), Option<u64>>;

/// An in-flight transaction: snapshot reads + buffered writes.
pub struct Transaction {
    snapshot: Arc<StoreState>,
    /// For OCC validation; `None` for a read transaction, which is never
    /// validated.
    reads: Option<ReadSet>,
    writes: WriteSet,
}

impl Transaction {
    /// Reads a key by reference: own writes first, then the snapshot. A
    /// tracked transaction records the observed version for OCC
    /// validation; a read transaction records nothing.
    pub fn read(&mut self, map: &str, key: &[u8]) -> Option<&[u8]> {
        if let Some(v) = self.writes.maps.get(map).and_then(|w| w.get(key)) {
            return v.as_deref();
        }
        let found = self.snapshot.get(map, key);
        if let Some(reads) = &mut self.reads {
            reads
                .entry((MapName::new(map), key.to_vec()))
                .or_insert_with(|| found.map(|v| v.version));
        }
        found.map(|v| v.data.as_slice())
    }

    /// Reads a key as an owned copy ([`Transaction::read`]).
    pub fn get(&mut self, map: &MapName, key: &[u8]) -> Option<Vec<u8>> {
        self.read(&map.0, key).map(<[u8]>::to_vec)
    }

    /// Writes a key (buffered until commit).
    pub fn put(&mut self, map: &MapName, key: &[u8], value: &[u8]) {
        self.writes.write(map.clone(), key.to_vec(), value.to_vec());
    }

    /// Removes a key (buffered until commit).
    pub fn remove(&mut self, map: &MapName, key: &[u8]) {
        self.writes.remove(map.clone(), key.to_vec());
    }

    /// Iterates over a map as seen by this transaction (snapshot overlaid
    /// with the transaction's own writes), in sorted key order.
    ///
    /// Note: iteration does not record per-key read dependencies (matching
    /// the production CCF, where `foreach` is not conflict-checked against
    /// concurrent inserts); use targeted `get`s where strict OCC matters.
    pub fn for_each(&self, map: &MapName, mut f: impl FnMut(&[u8], &[u8])) {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        self.snapshot.for_each(map, |k, v| {
            merged.insert(k.to_vec(), Some(v.to_vec()));
        });
        if let Some(writes) = self.writes.maps.get(map) {
            for (k, v) in writes {
                merged.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in merged {
            if let Some(v) = v {
                f(&k, &v);
            }
        }
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
    /// A read transaction may still buffer writes, which its caller must
    /// refuse, since the store never commits it.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// The buffered write set (e.g. for inspection in tests).
    pub fn write_set(&self) -> &WriteSet {
        &self.writes
    }

    /// Ends the transaction, keeping only its write set. Proposers use
    /// this so no snapshot outlives validation: the apply that follows
    /// then updates the store in place.
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

    #[test]
    fn basic_commit_and_read() {
        let mut store = Store::new();
        let mut tx = store.begin();
        assert_eq!(tx.get(&map("m"), b"k"), None);
        tx.put(&map("m"), b"k", b"v");
        // Read-your-writes.
        assert_eq!(tx.get(&map("m"), b"k"), Some(b"v".to_vec()));
        let (version, ws) = store.commit(tx, false).unwrap();
        assert_eq!(version, 1);
        assert_eq!(ws.update_count(), 1);
        let mut tx2 = store.begin();
        assert_eq!(tx2.get(&map("m"), b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn conflict_detection() {
        let mut store = Store::new();
        let mut seed = store.begin();
        seed.put(&map("m"), b"k", b"0");
        store.commit(seed, false).unwrap();

        let mut t1 = store.begin();
        let mut t2 = store.begin();
        let v1 = t1.get(&map("m"), b"k").unwrap();
        let v2 = t2.get(&map("m"), b"k").unwrap();
        t1.put(&map("m"), b"k", &[v1[0] + 1]);
        t2.put(&map("m"), b"k", &[v2[0] + 1]);
        store.commit(t1, false).unwrap();
        match store.commit(t2, false) {
            Err(CommitError::Conflict { map: m, key }) => {
                assert_eq!(m, map("m"));
                assert_eq!(key, b"k");
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn no_conflict_on_disjoint_keys() {
        let mut store = Store::new();
        let mut t1 = store.begin();
        let mut t2 = store.begin();
        t1.put(&map("m"), b"a", b"1");
        t2.put(&map("m"), b"b", b"2");
        store.commit(t1, false).unwrap();
        store.commit(t2, false).unwrap();
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn blind_writes_do_not_conflict() {
        // Writes without reads carry no read-set, hence cannot conflict.
        let mut store = Store::new();
        let mut t1 = store.begin();
        let mut t2 = store.begin();
        t1.put(&map("m"), b"k", b"1");
        t2.put(&map("m"), b"k", b"2");
        store.commit(t1, false).unwrap();
        store.commit(t2, false).unwrap();
        let mut t = store.begin();
        assert_eq!(t.get(&map("m"), b"k"), Some(b"2".to_vec()));
    }

    #[test]
    fn conflict_on_read_of_deleted_key() {
        let mut store = Store::new();
        let mut seed = store.begin();
        seed.put(&map("m"), b"k", b"0");
        store.commit(seed, false).unwrap();

        let mut t1 = store.begin();
        let _ = t1.get(&map("m"), b"k");
        t1.put(&map("m"), b"other", b"x");

        let mut t2 = store.begin();
        t2.remove(&map("m"), b"k");
        store.commit(t2, false).unwrap();
        // t1's read of k is stale... but deletion removes the versioned
        // value entirely, which must also be detected.
        assert!(matches!(store.commit(t1, false), Err(CommitError::Conflict { .. })));
    }

    #[test]
    fn read_of_absent_key_conflicts_with_insert() {
        let mut store = Store::new();
        let mut t1 = store.begin();
        assert_eq!(t1.get(&map("m"), b"k"), None);
        t1.put(&map("m"), b"out", b"x");
        let mut t2 = store.begin();
        t2.put(&map("m"), b"k", b"now exists");
        store.commit(t2, false).unwrap();
        assert!(matches!(store.commit(t1, false), Err(CommitError::Conflict { .. })));
    }

    #[test]
    fn reserved_maps_guarded() {
        let mut store = Store::new();
        let mut tx = store.begin();
        tx.put(&map(crate::builtin::SIGNATURES), b"k", b"v");
        assert!(matches!(store.commit(tx, false), Err(CommitError::ReservedMap(_))));
        let mut tx = store.begin();
        tx.put(&map(crate::builtin::SIGNATURES), b"k", b"v");
        assert!(store.commit(tx, true).is_ok());
    }

    #[test]
    fn apply_at_replays_in_order() {
        let mut store = Store::new();
        let mut ws1 = WriteSet::new();
        ws1.write(map("m"), b"a".to_vec(), b"1".to_vec());
        let mut ws2 = WriteSet::new();
        ws2.write(map("m"), b"b".to_vec(), b"2".to_vec());
        ws2.remove(map("m"), b"a".to_vec());
        store.apply_at(&ws1, 1);
        store.apply_at(&ws2, 2);
        assert_eq!(store.version(), 2);
        let mut tx = store.begin();
        assert_eq!(tx.get(&map("m"), b"a"), None);
        assert_eq!(tx.get(&map("m"), b"b"), Some(b"2".to_vec()));
    }

    #[test]
    #[should_panic(expected = "sequence order")]
    fn apply_at_out_of_order_panics() {
        let mut store = Store::new();
        let ws = WriteSet::new();
        store.apply_at(&ws, 5);
    }

    #[test]
    fn snapshot_isolation() {
        let mut store = Store::new();
        let mut t0 = store.begin();
        t0.put(&map("m"), b"k", b"old");
        store.commit(t0, false).unwrap();
        let snap = store.snapshot();
        let mut t1 = store.begin();
        t1.put(&map("m"), b"k", b"new");
        store.commit(t1, false).unwrap();
        // The old snapshot still reads the old value.
        assert_eq!(snap.get("m", b"k").unwrap().data, b"old");
        // A fresh transaction reads the new one.
        let mut tx = store.begin();
        assert_eq!(tx.get(&map("m"), b"k"), Some(b"new".to_vec()));
    }

    #[test]
    fn unshared_state_is_updated_in_place() {
        let mut store = Store::new();
        let mut tx = store.begin();
        tx.put(&map("m"), b"k", b"v");
        store.commit(tx, false).unwrap();
        let state = Arc::as_ptr(&store.snapshot());
        // The transaction's own snapshot is released before the apply.
        let mut tx = store.begin();
        tx.put(&map("m"), b"k", b"w");
        store.commit(tx, false).unwrap();
        store.apply_at(&WriteSet::new(), 3);
        assert_eq!(Arc::as_ptr(&store.snapshot()), state);
        // A held snapshot is copied on the next apply, and keeps its value.
        let held = store.snapshot();
        store.apply_at(&WriteSet::new(), 4);
        assert_ne!(Arc::as_ptr(&store.snapshot()), state);
        assert_eq!(held.get("m", b"k").unwrap().data, b"w");
    }

    #[test]
    fn for_each_overlays_writes() {
        let mut store = Store::new();
        let mut t0 = store.begin();
        t0.put(&map("m"), b"a", b"1");
        t0.put(&map("m"), b"b", b"2");
        store.commit(t0, false).unwrap();
        let mut tx = store.begin();
        tx.put(&map("m"), b"c", b"3");
        tx.remove(&map("m"), b"a");
        let mut seen = Vec::new();
        tx.for_each(&map("m"), |k, v| seen.push((k.to_vec(), v.to_vec())));
        assert_eq!(
            seen,
            vec![(b"b".to_vec(), b"2".to_vec()), (b"c".to_vec(), b"3".to_vec())]
        );
    }

    #[test]
    fn state_serialize_roundtrip() {
        let mut store = Store::new();
        for i in 0..10u8 {
            let mut tx = store.begin();
            tx.put(&map("m"), &[i], &[i * 2]);
            tx.put(&map("public:x"), &[i], b"pub");
            store.commit(tx, false).unwrap();
        }
        let state = store.snapshot();
        let bytes = state.serialize();
        let restored = StoreState::deserialize(&bytes).unwrap();
        assert_eq!(restored.version, state.version);
        assert_eq!(
            restored.entries_sorted(&map("m")),
            state.entries_sorted(&map("m"))
        );
        // Versions preserved for OCC.
        assert_eq!(
            restored.get("m", &[3]).unwrap().version,
            state.get("m", &[3]).unwrap().version
        );
        // Deterministic encoding.
        assert_eq!(restored.serialize(), bytes);
    }

    #[test]
    fn read_transaction_records_no_read_set() {
        let store = Store::new();
        let mut tracked = store.begin();
        let mut read = store.begin_read();
        for tx in [&mut tracked, &mut read] {
            let _ = tx.read("m", b"k");
            let _ = tx.get(&map("m"), b"j");
        }
        assert_eq!(tracked.reads.as_ref().map(BTreeMap::len), Some(2));
        assert!(read.reads.is_none());
    }

    #[test]
    fn read_transaction_returns_what_a_tracked_one_does() {
        let mut store = Store::new();
        let mut seed = store.begin();
        seed.put(&map("m"), b"present", b"v");
        seed.put(&map("m"), b"removed", b"gone");
        store.commit(seed, false).unwrap();
        let mut tracked = store.begin();
        let mut read = store.begin_read();
        for tx in [&mut tracked, &mut read] {
            tx.put(&map("m"), b"own", b"buffered");
            tx.remove(&map("m"), b"removed");
        }
        for key in [&b"present"[..], b"absent", b"own", b"removed"] {
            assert_eq!(read.read("m", key), tracked.read("m", key), "key {key:?}");
            assert_eq!(read.get(&map("m"), key), tracked.get(&map("m"), key));
            assert_eq!(read.read("other", key), None);
        }
        assert_eq!(read.read("m", b"present"), Some(&b"v"[..]));
        assert_eq!(read.read("m", b"own"), Some(&b"buffered"[..]));
    }

    #[test]
    fn read_transaction_cannot_be_validated_or_committed() {
        let mut store = Store::new();
        let mut read = store.begin_read();
        assert_eq!(read.read("m", b"k"), None);
        assert_eq!(store.validate(&read), Err(CommitError::ReadTransaction));
        // Even one that buffered a write, reserved maps allowed.
        read.put(&map("m"), b"k", b"v");
        assert_eq!(store.validate(&read), Err(CommitError::ReadTransaction));
        assert_eq!(store.commit(read, true), Err(CommitError::ReadTransaction));
        assert_eq!(store.version(), 0);
        assert_eq!(store.begin_read().read("m", b"k"), None);
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
