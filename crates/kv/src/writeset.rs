//! Write sets: the deterministic record of what a transaction changed.
//!
//! Each ledger transaction carries the set of updates — writes and removals
//! of single keys — applied atomically to the maps (§3.3). Updates are
//! subdivided into public (plain text on the ledger) and private
//! (encrypted with the ledger secret before leaving the enclave).

use crate::codec::{CodecError, Reader, Writer};
use crate::MapName;
use std::collections::BTreeMap;

/// Updates to one map: key → Some(value) for writes, None for removals.
/// A `BTreeMap` keyed by the raw key bytes gives deterministic encoding.
pub type MapWrites = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// The changes of one transaction, keyed by map name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteSet {
    /// Per-map updates, ordered by map name for deterministic encoding.
    pub maps: BTreeMap<MapName, MapWrites>,
}

impl WriteSet {
    /// An empty write set (read-only transaction).
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// True iff no map is updated.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty() || self.maps.values().all(|w| w.is_empty())
    }

    /// Records a write.
    pub fn write(&mut self, map: MapName, key: Vec<u8>, value: Vec<u8>) {
        self.maps.entry(map).or_default().insert(key, Some(value));
    }

    /// Records a removal.
    pub fn remove(&mut self, map: MapName, key: Vec<u8>) {
        self.maps.entry(map).or_default().insert(key, None);
    }

    /// Merges `other` into `self` (later writes win on key conflicts).
    pub fn merge(&mut self, other: WriteSet) {
        for (name, writes) in other.maps {
            self.maps.entry(name).or_default().extend(writes);
        }
    }

    /// Total number of key updates.
    pub fn update_count(&self) -> usize {
        self.maps.values().map(|w| w.len()).sum()
    }

    /// Deterministic binary encoding.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_maps(&self.updated_maps().collect::<Vec<_>>())
    }

    /// Encodes only the public maps (`public == true`) or only the
    /// private ones, in the [`WriteSet::encode`] layout and straight from
    /// this write set: a ledger entry's two halves. A half with no update
    /// encodes as empty bytes.
    pub fn encode_half(&self, public: bool) -> Vec<u8> {
        let maps: Vec<_> = self.updated_maps().filter(|(name, _)| name.is_public() == public).collect();
        if maps.is_empty() {
            return Vec::new();
        }
        Self::encode_maps(&maps)
    }

    /// The maps with at least one update, ordered by name.
    fn updated_maps(&self) -> impl Iterator<Item = (&MapName, &MapWrites)> {
        self.maps.iter().filter(|(_, writes)| !writes.is_empty())
    }

    fn encode_maps(maps: &[(&MapName, &MapWrites)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(maps.len() as u32);
        for (name, writes) in maps {
            w.str(&name.0);
            w.u32(writes.len() as u32);
            for (key, value) in *writes {
                w.bytes(key);
                w.opt_bytes(value.as_deref());
            }
        }
        w.finish()
    }

    /// Decodes the [`WriteSet::encode`] layout.
    pub fn decode(bytes: &[u8]) -> Result<WriteSet, CodecError> {
        let mut r = Reader::new(bytes);
        let ws = WriteSet::decode_from(&mut r)?;
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "write set trailing bytes" });
        }
        Ok(ws)
    }

    /// Decodes from a reader (for embedding in larger structures).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<WriteSet, CodecError> {
        let map_count = r.u32("write set map count")?;
        let mut maps = BTreeMap::new();
        for _ in 0..map_count {
            let name = MapName::new(r.str("map name")?);
            let entry_count = r.u32("map entry count")?;
            let mut writes = MapWrites::new();
            for _ in 0..entry_count {
                let key = r.bytes("write key")?.to_vec();
                let value = r.opt_bytes("write value")?.map(|v| v.to_vec());
                writes.insert(key, value);
            }
            maps.insert(name, writes);
        }
        Ok(WriteSet { maps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WriteSet {
        let mut ws = WriteSet::new();
        ws.write(MapName::new("msgs"), b"k1".to_vec(), b"v1".to_vec());
        ws.write(MapName::new("public:ccf.gov.users.certs"), b"alice".to_vec(), b"cert".to_vec());
        ws.remove(MapName::new("msgs"), b"k2".to_vec());
        ws
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ws = sample();
        let decoded = WriteSet::decode(&ws.encode()).unwrap();
        assert_eq!(ws, decoded);
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_insertion_order() {
        let mut a = WriteSet::new();
        a.write(MapName::new("m1"), b"a".to_vec(), b"1".to_vec());
        a.write(MapName::new("m2"), b"b".to_vec(), b"2".to_vec());
        let mut b = WriteSet::new();
        b.write(MapName::new("m2"), b"b".to_vec(), b"2".to_vec());
        b.write(MapName::new("m1"), b"a".to_vec(), b"1".to_vec());
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn encode_half_splits_by_visibility_and_round_trips() {
        let ws = sample();
        let public = WriteSet::decode(&ws.encode_half(true)).unwrap();
        assert_eq!(public.maps.len(), 1);
        assert!(public.maps.keys().all(|n| n.is_public()));
        let private = WriteSet::decode(&ws.encode_half(false)).unwrap();
        assert_eq!(private.maps.len(), 1);
        assert!(private.maps.keys().all(|n| n.is_private()));
        // Each half is the plain encoding of its maps, and recombining
        // the halves preserves everything.
        assert_eq!(ws.encode_half(true), public.encode());
        assert_eq!(ws.encode_half(false), private.encode());
        let mut merged = public;
        merged.merge(private);
        assert_eq!(merged, ws);
        // A half with no update (here, also one whose map is empty)
        // encodes as empty bytes.
        let mut only_private = WriteSet::new();
        only_private.write(MapName::new("msgs"), b"k".to_vec(), b"v".to_vec());
        only_private.maps.insert(MapName::new("public:empty"), MapWrites::new());
        assert!(only_private.encode_half(true).is_empty());
        assert_eq!(only_private.encode_half(false), only_private.encode());
    }

    #[test]
    fn empty_maps_are_skipped_in_encoding() {
        let mut ws = WriteSet::new();
        ws.maps.insert(MapName::new("empty"), MapWrites::new());
        assert!(ws.is_empty());
        let decoded = WriteSet::decode(&ws.encode()).unwrap();
        assert!(decoded.maps.is_empty());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0xff);
        assert!(WriteSet::decode(&bytes).is_err());
    }

    #[test]
    fn update_count() {
        assert_eq!(sample().update_count(), 3);
    }
}
