//! Property-based tests: CHAMP vs a reference map under arbitrary
//! operation sequences, codec, write-set and snapshot roundtrips, and the
//! decoders on arbitrary bytes.

use ccf_kv::codec::{Reader, Writer};
use ccf_kv::store::StoreState;
use ccf_kv::{ChampMap, MapName, Store, WriteSet};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 512)),
    ]
}

/// An in-place update of the live map, or `Retain`: keep a clone of the
/// live map as it is now.
#[derive(Debug, Clone)]
enum VersionOp {
    Update(Op),
    Retain,
}

fn version_op_strategy() -> impl Strategy<Value = VersionOp> {
    prop_oneof![
        op_strategy().prop_map(VersionOp::Update),
        op_strategy().prop_map(VersionOp::Update),
        op_strategy().prop_map(VersionOp::Update),
        Just(VersionOp::Retain),
    ]
}

fn map() -> MapName {
    MapName::new("m")
}

/// The state after applying one write per `(key, value)` to map `m`, each
/// as the next version.
fn state_from(writes: &[(Vec<u8>, Vec<u8>)]) -> Arc<StoreState> {
    let mut store = Store::new();
    for (k, v) in writes {
        let mut ws = WriteSet::new();
        ws.write(map(), k.clone(), v.clone());
        store.apply_at(ws, store.version() + 1);
    }
    store.snapshot()
}

fn contents(map: &ChampMap<u16, u32>) -> HashMap<u16, u32> {
    let mut out = HashMap::new();
    map.for_each(|k, v| {
        out.insert(*k, *v);
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In-place updates copy whatever a retained clone shares, so every
    /// clone keeps the contents (and length) it had when it was taken.
    #[test]
    fn champ_in_place_updates_leave_retained_clones_intact(
        ops in proptest::collection::vec(version_op_strategy(), 0..400),
    ) {
        let mut champ: ChampMap<u16, u32> = ChampMap::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        let mut retained = Vec::new();
        for op in &ops {
            match op {
                VersionOp::Retain => retained.push((champ.clone(), model.clone())),
                VersionOp::Update(Op::Insert(k, v)) => {
                    champ.insert(*k, *v);
                    model.insert(*k, *v);
                }
                VersionOp::Update(Op::Remove(k)) => {
                    prop_assert_eq!(champ.remove(k), model.remove(k).is_some());
                }
            }
            prop_assert_eq!(champ.len(), model.len());
        }
        retained.push((champ, model));
        for (version, snapshot) in &retained {
            prop_assert_eq!(version.len(), snapshot.len());
            prop_assert_eq!(&contents(version), snapshot);
        }
    }

    /// CHAMP's canonical form: the trie's shape, and so its iteration
    /// order, depends only on the keys present. A map reached by inserts
    /// and then in-place removes (which pull lone entries back up)
    /// iterates exactly like one built fresh from the surviving keys.
    #[test]
    fn champ_canonical_form_after_in_place_removes(
        inserts in proptest::collection::vec((any::<u16>(), any::<u32>()), 1..300),
        removes in proptest::collection::vec(any::<u16>(), 0..300),
        retain_every in 1usize..16,
    ) {
        let mut champ: ChampMap<u16, u32> = ChampMap::new();
        for (k, v) in &inserts {
            champ.insert(*k, *v);
        }
        // Retained clones make some removes copy shared paths instead
        // of updating in place; both must collapse the same way.
        let mut retained = Vec::new();
        for (i, r) in removes.iter().enumerate() {
            if i % retain_every == 0 {
                retained.push(champ.clone());
            }
            champ.remove(&inserts[*r as usize % inserts.len()].0);
        }
        let mut survivors: Vec<(u16, u32)> = contents(&champ).into_iter().collect();
        survivors.sort_unstable();
        let mut fresh: ChampMap<u16, u32> = ChampMap::new();
        for (k, v) in &survivors {
            fresh.insert(*k, *v);
        }
        prop_assert_eq!(champ.entries(), fresh.entries());
    }

    #[test]
    fn champ_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 0..400)) {
        let mut champ: ChampMap<u16, u32> = ChampMap::new();
        let mut reference: HashMap<u16, u32> = HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    champ.insert(*k, *v);
                    reference.insert(*k, *v);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(champ.remove(k), reference.remove(k).is_some());
                }
            }
            prop_assert_eq!(champ.len(), reference.len());
        }
        for (k, v) in &reference {
            prop_assert_eq!(champ.get(k), Some(v));
        }
        let mut seen = 0;
        champ.for_each(|k, v| {
            assert_eq!(reference.get(k), Some(v));
            seen += 1;
        });
        prop_assert_eq!(seen, reference.len());
    }

    #[test]
    fn champ_snapshots_are_immutable(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        snap_at in 0usize..99,
    ) {
        let mut champ: ChampMap<u16, u32> = ChampMap::new();
        let mut snapshot = None;
        let mut snapshot_contents: Option<Vec<(u16, u32)>> = None;
        for (i, op) in ops.iter().enumerate() {
            if i == snap_at.min(ops.len() - 1) {
                let mut contents: Vec<(u16, u32)> = Vec::new();
                champ.for_each(|k, v| contents.push((*k, *v)));
                contents.sort_unstable();
                snapshot = Some(champ.clone());
                snapshot_contents = Some(contents);
            }
            match op {
                Op::Insert(k, v) => champ.insert(*k, *v),
                Op::Remove(k) => {
                    champ.remove(k);
                }
            }
        }
        if let (Some(snap), Some(expected)) = (snapshot, snapshot_contents) {
            let mut got: Vec<(u16, u32)> = Vec::new();
            snap.for_each(|k, v| got.push((*k, *v)));
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn writeset_encode_decode_roundtrip(
        entries in proptest::collection::vec(
            ("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..16),
             proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32))),
            0..20,
        )
    ) {
        let mut ws = WriteSet::new();
        for (map, key, value) in entries {
            match value {
                Some(v) => ws.write(MapName::new(map), key, v),
                None => ws.remove(MapName::new(map), key),
            }
        }
        let decoded = WriteSet::decode(&ws.encode()).unwrap();
        prop_assert_eq!(ws, decoded);
    }

    #[test]
    fn writeset_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = WriteSet::decode(&bytes); // must not panic, only Err
    }

    #[test]
    fn codec_roundtrip(
        a in any::<u64>(),
        b in any::<u32>(),
        s in "[ -~]{0,32}",
        blob in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut w = Writer::new();
        w.u64(a);
        w.u32(b);
        w.str(&s);
        w.bytes(&blob);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.u64("a").unwrap(), a);
        prop_assert_eq!(r.u32("b").unwrap(), b);
        prop_assert_eq!(r.str("s").unwrap(), s);
        prop_assert_eq!(r.bytes("blob").unwrap(), blob);
        prop_assert!(r.is_at_end());
    }

    #[test]
    fn store_state_serialization_roundtrip(
        writes in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..8),
             proptest::collection::vec(any::<u8>(), 0..16)),
            1..30,
        )
    ) {
        let state = state_from(&writes);
        let restored = StoreState::deserialize(&state.serialize()).unwrap();
        prop_assert_eq!(restored.version, state.version);
        prop_assert_eq!(restored.entries_sorted(&map()), state.entries_sorted(&map()));
        // Determinism: same bytes again.
        prop_assert_eq!(restored.serialize(), state.serialize());
    }

    /// A joining node decodes a snapshot from bytes its host supplies:
    /// arbitrary bytes never panic the decoder.
    #[test]
    fn store_state_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = StoreState::deserialize(&bytes); // must not panic, only Err
    }

    /// Every strict prefix of a valid serialization is refused: the
    /// encoding is length-prefixed throughout, so a cut snapshot never
    /// decodes as a smaller state.
    #[test]
    fn store_state_decode_refuses_every_strict_prefix(
        writes in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..8),
             proptest::collection::vec(any::<u8>(), 0..16)),
            0..12,
        )
    ) {
        let bytes = state_from(&writes).serialize();
        for len in 0..bytes.len() {
            prop_assert!(StoreState::deserialize(&bytes[..len]).is_err(), "prefix of {} bytes", len);
        }
    }
}
