//! A persistent Compressed Hash-Array Mapped Prefix-tree (CHAMP).
//!
//! The production CCF bases its map on CHAMP (Steindorfer & Vinju, §7 of
//! the paper) because endpoint execution needs cheap immutable snapshots:
//! every transaction reads from a frozen root pointer while the committer
//! installs new roots, and rolled-back speculative state is dropped by
//! forgetting a pointer. Structural sharing makes snapshot = one `Arc`
//! clone, and an update walks an O(log32 n) path, changing it in place and
//! copying only the nodes on it that a snapshot still shares. Entries are
//! shared too, so a copied node copies pointers, not keys or values.
//!
//! Layout follows the CHAMP paper: each internal node keeps two bitmaps —
//! `data_map` for inline key-value entries and `node_map` for sub-nodes —
//! over a 32-way branch, with entries stored before child pointers in one
//! compact vector pair. Hash collisions beyond the 60-bit hash path fall
//! back to a small collision node.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

const BITS: u32 = 5;
const FANOUT: usize = 1 << BITS; // 32
const MAX_DEPTH: u32 = 64 / BITS + 1; // hash exhausted below this

/// Key bound: hashable, comparable, cheap to clone (keys are `Vec<u8>` or
/// small strings throughout the workspace).
pub trait Key: Eq + Hash + Clone {}
impl<T: Eq + Hash + Clone> Key for T {}

fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    // FNV-1a over the key's Hash stream: deterministic across processes
    // (unlike `RandomState`), which matters because map iteration feeds
    // deterministic serialization. A borrowed form (`[u8]` for `Vec<u8>`)
    // feeds the same stream, so lookups by it find the owned key.
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }
    let mut h = Fnv(0xcbf29ce484222325);
    key.hash(&mut h);
    std::hash::Hasher::finish(&h)
}

/// One key-value pair, shared by every map version that holds it: copying
/// a node copies pointers, never keys or values.
type Entry<K, V> = Arc<(K, V)>;

#[derive(Clone)]
enum Node<K, V> {
    Bitmap(BitmapNode<K, V>),
    Collision(CollisionNode<K, V>),
}

#[derive(Clone)]
struct BitmapNode<K, V> {
    data_map: u32,
    node_map: u32,
    entries: Vec<Entry<K, V>>,
    children: Vec<Arc<Node<K, V>>>,
}

/// Keys whose whole 64-bit hash is equal, below `MAX_DEPTH`.
#[derive(Clone)]
struct CollisionNode<K, V> {
    entries: Vec<Entry<K, V>>,
}

impl<K, V> BitmapNode<K, V> {
    fn empty() -> Self {
        BitmapNode { data_map: 0, node_map: 0, entries: Vec::new(), children: Vec::new() }
    }

    fn data_index(&self, bit: u32) -> usize {
        (self.data_map & (bit - 1)).count_ones() as usize
    }

    fn node_index(&self, bit: u32) -> usize {
        (self.node_map & (bit - 1)).count_ones() as usize
    }
}

fn frag(hash: u64, depth: u32) -> u32 {
    1u32 << ((hash >> (depth * BITS)) & (FANOUT as u64 - 1)) as u32
}

impl<K: Key, V: Clone> Node<K, V> {
    fn get<Q>(&self, key: &Q, hash: u64, depth: u32) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Node::Collision(c) => {
                c.entries.iter().find(|e| e.0.borrow() == key).map(|e| &e.1)
            }
            Node::Bitmap(b) => {
                let bit = frag(hash, depth);
                if b.data_map & bit != 0 {
                    let e = &b.entries[b.data_index(bit)];
                    (e.0.borrow() == key).then_some(&e.1)
                } else if b.node_map & bit != 0 {
                    b.children[b.node_index(bit)].get(key, hash, depth + 1)
                } else {
                    None
                }
            }
        }
    }

    /// Binds `key` to `value` in place, copying on the way down only the
    /// sub-nodes another map version still shares. Returns true if the key
    /// was added (false: its value was replaced).
    fn insert(&mut self, key: K, value: V, hash: u64, depth: u32) -> bool {
        match self {
            Node::Collision(c) => {
                if let Some(slot) = c.entries.iter_mut().find(|e| e.0 == key) {
                    *slot = Arc::new((key, value));
                    false
                } else {
                    c.entries.push(Arc::new((key, value)));
                    true
                }
            }
            Node::Bitmap(b) => {
                let bit = frag(hash, depth);
                if b.data_map & bit != 0 {
                    let idx = b.data_index(bit);
                    if b.entries[idx].0 == key {
                        b.entries[idx] = Arc::new((key, value));
                        return false;
                    }
                    // Push the existing entry down one level and insert
                    // both into a fresh sub-node.
                    let existing = b.entries.remove(idx);
                    b.data_map &= !bit;
                    let existing_hash = hash_of(&existing.0);
                    let sub = Node::merge_two(
                        existing,
                        existing_hash,
                        Arc::new((key, value)),
                        hash,
                        depth + 1,
                    );
                    b.children.insert(b.node_index(bit), Arc::new(sub));
                    b.node_map |= bit;
                    true
                } else if b.node_map & bit != 0 {
                    let idx = b.node_index(bit);
                    Arc::make_mut(&mut b.children[idx]).insert(key, value, hash, depth + 1)
                } else {
                    b.entries.insert(b.data_index(bit), Arc::new((key, value)));
                    b.data_map |= bit;
                    true
                }
            }
        }
    }

    fn merge_two(e1: Entry<K, V>, h1: u64, e2: Entry<K, V>, h2: u64, depth: u32) -> Node<K, V> {
        if depth >= MAX_DEPTH {
            return Node::Collision(CollisionNode { entries: vec![e1, e2] });
        }
        let b1 = frag(h1, depth);
        let b2 = frag(h2, depth);
        if b1 == b2 {
            let sub = Node::merge_two(e1, h1, e2, h2, depth + 1);
            return Node::Bitmap(BitmapNode {
                data_map: 0,
                node_map: b1,
                entries: Vec::new(),
                children: vec![Arc::new(sub)],
            });
        }
        // Order entries by bit position to keep the compact layout sorted.
        let entries = if b1 < b2 { vec![e1, e2] } else { vec![e2, e1] };
        Node::Bitmap(BitmapNode { data_map: b1 | b2, node_map: 0, entries, children: Vec::new() })
    }

    /// Removes `key`, which must be present, in place (copying shared
    /// sub-nodes as [`Node::insert`] does). Maintains the CHAMP canonical
    /// form: a sub-node left holding one entry and no sub-nodes is pulled
    /// up inline into this node.
    fn remove<Q>(&mut self, key: &Q, hash: u64, depth: u32)
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Node::Collision(c) => c.entries.retain(|e| e.0.borrow() != key),
            Node::Bitmap(b) => {
                let bit = frag(hash, depth);
                if b.data_map & bit != 0 {
                    b.entries.remove(b.data_index(bit));
                    b.data_map &= !bit;
                    return;
                }
                debug_assert!(b.node_map & bit != 0, "removed key must be present");
                let idx = b.node_index(bit);
                let child = Arc::make_mut(&mut b.children[idx]);
                child.remove(key, hash, depth + 1);
                if let Some(lone) = child.lone_entry() {
                    b.children.remove(idx);
                    b.node_map &= !bit;
                    b.entries.insert(b.data_index(bit), lone);
                    b.data_map |= bit;
                }
            }
        }
    }

    /// The entry of a node holding exactly one entry and no sub-nodes,
    /// which canonical form keeps inline in the parent instead.
    fn lone_entry(&self) -> Option<Entry<K, V>> {
        let entries = match self {
            Node::Bitmap(b) if b.children.is_empty() => &b.entries,
            Node::Collision(c) => &c.entries,
            Node::Bitmap(_) => return None,
        };
        (entries.len() == 1).then(|| entries[0].clone())
    }

    fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a K, &'a V)) {
        match self {
            Node::Collision(c) => {
                for e in &c.entries {
                    f(&e.0, &e.1);
                }
            }
            Node::Bitmap(b) => {
                for e in &b.entries {
                    f(&e.0, &e.1);
                }
                for child in &b.children {
                    child.for_each(f);
                }
            }
        }
    }
}

/// A hash map with O(1) snapshots (clone) and O(log32 n) in-place updates.
///
/// Versions share structure: `clone` copies one pointer, and an update
/// copies only the nodes on its path that another version still holds.
/// An unshared map therefore updates without copying anything, and a
/// caller that wants to keep the old version clones before updating.
pub struct ChampMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for ChampMap<K, V> {
    fn clone(&self) -> Self {
        ChampMap { root: self.root.clone(), len: self.len }
    }
}

impl<K: Key, V: Clone> Default for ChampMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Clone> ChampMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        ChampMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up a key by any borrowed form of it (`&[u8]` for `Vec<u8>`).
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.root.as_ref()?.get(key, hash_of(key), 0)
    }

    /// True iff `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Binds `key` to `value`, replacing any previous value.
    pub fn insert(&mut self, key: K, value: V) {
        let hash = hash_of(&key);
        let root = self.root.get_or_insert_with(|| Arc::new(Node::Bitmap(BitmapNode::empty())));
        if Arc::make_mut(root).insert(key, value, hash, 0) {
            self.len += 1;
        }
    }

    /// Removes `key`; returns whether it was present. Removing an absent
    /// key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = hash_of(key);
        let Some(root) = self.root.as_mut().filter(|r| r.get(key, hash, 0).is_some()) else {
            return false;
        };
        Arc::make_mut(root).remove(key, hash, 0);
        self.len -= 1;
        if self.len == 0 {
            self.root = None;
        }
        true
    }

    /// Visits every entry (order is deterministic but unspecified).
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(&'a K, &'a V)) {
        if let Some(root) = &self.root {
            root.for_each(&mut f);
        }
    }

    /// Collects all entries into a vector (deterministic order).
    pub fn entries(&self) -> Vec<(&K, &V)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|k, v| out.push((k, v)));
        out
    }
}

impl<K: Key + std::fmt::Debug, V: Clone + std::fmt::Debug> std::fmt::Debug for ChampMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        self.for_each(|k, v| {
            m.entry(k, v);
        });
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut m = ChampMap::new();
        m.insert("a".to_string(), 1);
        m.insert("b".to_string(), 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.get("b"), Some(&2));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.len(), 2);
        let mut m2 = m.clone();
        assert!(m2.remove("a"));
        assert_eq!(m2.get("a"), None);
        assert_eq!(m2.len(), 1);
        // Persistence: the clone taken before the update is untouched.
        assert_eq!(m.get("a"), Some(&1));
    }

    #[test]
    fn replace_keeps_len() {
        let mut m = ChampMap::new();
        m.insert(1u64, "x");
        m.insert(1u64, "y");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1), Some(&"y"));
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut m = ChampMap::new();
        m.insert(1u64, 1);
        let root = m.root.clone();
        assert!(!m.remove(&2));
        assert_eq!(m.len(), 1);
        // Nothing was copied: the shared root is still the same node.
        assert!(Arc::ptr_eq(m.root.as_ref().unwrap(), root.as_ref().unwrap()));
    }

    #[test]
    fn unshared_updates_do_not_copy_nodes() {
        let mut m = ChampMap::new();
        for i in 0..1000u64 {
            m.insert(i, i);
        }
        let root = Arc::as_ptr(m.root.as_ref().unwrap());
        m.insert(5, 50);
        m.remove(&6);
        assert_eq!(Arc::as_ptr(m.root.as_ref().unwrap()), root);
        // A held snapshot forces exactly one copy of the root.
        let snap = m.clone();
        m.insert(7, 70);
        assert_ne!(Arc::as_ptr(m.root.as_ref().unwrap()), root);
        assert_eq!(snap.get(&7), Some(&7));
        assert_eq!(m.get(&7), Some(&70));
    }

    #[test]
    fn agrees_with_hashmap_under_random_ops() {
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut champ: ChampMap<u64, u64> = ChampMap::new();
        let mut rng = ccf_crypto::chacha::ChaChaRng::seed_from_u64(42);
        for _ in 0..20_000 {
            let key = rng.gen_range(512);
            match rng.gen_range(3) {
                0 | 1 => {
                    let val = rng.next_u64();
                    reference.insert(key, val);
                    champ.insert(key, val);
                }
                _ => {
                    assert_eq!(champ.remove(&key), reference.remove(&key).is_some());
                }
            }
            assert_eq!(champ.len(), reference.len());
        }
        for (k, v) in &reference {
            assert_eq!(champ.get(k), Some(v), "key {k}");
        }
        let mut count = 0;
        champ.for_each(|k, v| {
            assert_eq!(reference.get(k), Some(v));
            count += 1;
        });
        assert_eq!(count, reference.len());
    }

    #[test]
    fn snapshots_are_independent() {
        let mut m = ChampMap::new();
        let mut snapshots = Vec::new();
        for i in 0..100u64 {
            m.insert(i, i * 10);
            snapshots.push(m.clone());
        }
        for (i, snap) in snapshots.iter().enumerate() {
            assert_eq!(snap.len(), i + 1);
            assert_eq!(snap.get(&(i as u64)), Some(&(i as u64 * 10)));
            assert_eq!(snap.get(&(i as u64 + 1)), None);
        }
    }

    #[test]
    fn many_keys_deep_trie() {
        let mut m = ChampMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in (0..10_000u64).step_by(97) {
            assert_eq!(m.get(&i), Some(&i));
        }
        for i in 0..5_000u64 {
            m.remove(&i);
        }
        assert_eq!(m.len(), 5_000);
        assert_eq!(m.get(&100), None);
        assert_eq!(m.get(&7000), Some(&7000));
    }

    #[test]
    fn byte_keys() {
        let mut m: ChampMap<Vec<u8>, Vec<u8>> = ChampMap::new();
        for i in 0..100u32 {
            m.insert(i.to_le_bytes().to_vec(), vec![i as u8; 20]);
        }
        // Looked up by the borrowed slice, without building a `Vec`.
        assert_eq!(m.get(&5u32.to_le_bytes()[..]), Some(&vec![5u8; 20]));
    }
}
