//! An incremental Merkle tree over ledger entries.
//!
//! Shape follows RFC 6962 (Certificate Transparency), which is also the
//! shape used by the production `merklecpp`: the tree over n leaves splits
//! at the largest power of two strictly less than n. Leaves are
//! domain-separated from interior nodes (0x00 / 0x01 prefixes) so a leaf
//! can never be confused with a node.
//!
//! The tree keeps, per level, the digest of every complete (perfect,
//! aligned) subtree built so far: level 0 holds the leaves, level h the
//! roots of leaves `[i·2^h, (i+1)·2^h)`. Appends are O(1) amortized, and
//! the root at any size — needed every signature interval — folds the at
//! most log n "peaks" of that size, so it is O(log n). Inclusion proofs
//! read their siblings from the same levels in O(log n). Consensus can
//! roll back uncommitted suffixes after a view change, so the tree
//! supports truncation, which cuts each level in O(log n).

use ccf_crypto::sha2::{sha256_fixed65, Sha256};
use ccf_crypto::Digest32;

fn leaf_hash(leaf: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(leaf);
    h.finalize()
}

// An interior node is always exactly 65 bytes (domain byte + two child
// digests), so the fixed-input digest skips all padding bookkeeping.
fn node_hash(left: &Digest32, right: &Digest32) -> Digest32 {
    let mut buf = [0u8; 65];
    buf[0] = 0x01;
    buf[1..33].copy_from_slice(left);
    buf[33..65].copy_from_slice(right);
    sha256_fixed65(&buf)
}

/// The empty tree's root: H("ccf empty merkle tree").
pub fn empty_root() -> Digest32 {
    ccf_crypto::sha2::sha256(b"ccf empty merkle tree")
}

/// One step of a Merkle inclusion proof: the sibling digest and whether it
/// sits to the left of the running hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// True if the sibling is the left child at this level.
    pub sibling_on_left: bool,
    /// The sibling digest.
    pub sibling: Digest32,
}

/// A Merkle inclusion proof for one leaf against a root over `tree_size`
/// leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: u64,
    /// Number of leaves in the tree the proof was generated against.
    pub tree_size: u64,
    /// Path from the leaf to the root.
    pub path: Vec<ProofStep>,
}

impl MerkleProof {
    /// Recomputes the root implied by `leaf_digest` under this proof.
    pub fn compute_root(&self, leaf_digest: &Digest32) -> Digest32 {
        let mut acc = *leaf_digest;
        for step in &self.path {
            acc = if step.sibling_on_left {
                node_hash(&step.sibling, &acc)
            } else {
                node_hash(&acc, &step.sibling)
            };
        }
        acc
    }

    /// Verifies the proof of `leaf` (raw bytes, hashed here) against `root`.
    pub fn verify(&self, leaf: &[u8], root: &Digest32) -> bool {
        self.verify_digest(&leaf_hash(leaf), root)
    }

    /// Verifies when the caller already has the leaf digest.
    pub fn verify_digest(&self, leaf_digest: &Digest32, root: &Digest32) -> bool {
        self.compute_root(leaf_digest) == *root
    }

    /// Serializes the proof.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ccf_kv::codec::Writer::new();
        w.u64(self.leaf_index);
        w.u64(self.tree_size);
        w.u32(self.path.len() as u32);
        for step in &self.path {
            w.bool(step.sibling_on_left);
            w.raw(&step.sibling);
        }
        w.finish()
    }

    /// Decodes [`MerkleProof::encode`].
    pub fn decode(bytes: &[u8]) -> Result<MerkleProof, ccf_kv::codec::CodecError> {
        let mut r = ccf_kv::codec::Reader::new(bytes);
        let leaf_index = r.u64("proof leaf index")?;
        let tree_size = r.u64("proof tree size")?;
        let steps = r.u32("proof path length")?;
        if steps > 64 {
            return Err(ccf_kv::codec::CodecError::BadLength { context: "proof path length" });
        }
        let mut path = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            let sibling_on_left = r.bool("proof step side")?;
            let sibling = r.array::<32>("proof step sibling")?;
            path.push(ProofStep { sibling_on_left, sibling });
        }
        Ok(MerkleProof { leaf_index, tree_size, path })
    }
}

/// Cached observability handles (`ledger.merkle_*`). Clones share the
/// underlying counters, so a cloned tree (snapshots, rollback probes)
/// keeps reporting into the same registry.
#[derive(Clone, Debug)]
struct MerkleMetrics {
    appends: ccf_obs::Counter,
    truncations: ccf_obs::Counter,
}

impl MerkleMetrics {
    fn new(reg: &ccf_obs::Registry) -> MerkleMetrics {
        MerkleMetrics {
            appends: reg.counter("ledger.merkle_appends"),
            truncations: reg.counter("ledger.merkle_truncations"),
        }
    }
}

/// The incremental Merkle tree.
#[derive(Clone, Debug, Default)]
pub struct MerkleTree {
    /// `levels[h][i]` is the root of the complete subtree over leaves
    /// `[i·2^h, (i+1)·2^h)`; `levels[0]` holds the leaf digests. Level h
    /// holds exactly `len() >> h` digests.
    levels: Vec<Vec<Digest32>>,
    metrics: Option<MerkleMetrics>,
}

impl MerkleTree {
    /// An empty tree.
    pub fn new() -> MerkleTree {
        MerkleTree::default()
    }

    /// Attaches observability counters (`ledger.merkle_*`) from `reg`.
    /// Without this the tree records nothing.
    pub fn set_registry(&mut self, reg: &ccf_obs::Registry) {
        self.metrics = Some(MerkleMetrics::new(reg));
    }

    /// Number of leaves.
    pub fn len(&self) -> u64 {
        self.levels.first().map_or(0, |l| l.len() as u64)
    }

    /// True iff there are no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a leaf (raw bytes; hashed with the leaf prefix).
    pub fn append(&mut self, leaf: &[u8]) {
        self.append_digest(leaf_hash(leaf));
    }

    /// Appends a precomputed leaf digest.
    pub fn append_digest(&mut self, digest: Digest32) {
        if let Some(m) = &self.metrics {
            m.appends.inc();
        }
        self.merge_peak(digest);
    }

    /// Pushes a leaf and every complete subtree it completes: while a level
    /// holds an even count, its last two digests form the next level's
    /// newest entry (amortized O(1) per leaf).
    fn merge_peak(&mut self, digest: Digest32) {
        let mut node = digest;
        for h in 0.. {
            if self.levels.len() == h {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[h];
            level.push(node);
            if level.len() % 2 == 1 {
                break;
            }
            node = node_hash(&level[level.len() - 2], &node);
        }
    }

    /// The leaf digest at `index`.
    pub fn leaf(&self, index: u64) -> Option<&Digest32> {
        self.levels.first()?.get(index as usize)
    }

    /// The current root.
    pub fn root(&self) -> Digest32 {
        self.range_root(0, self.len())
    }

    /// Removes all leaves at index >= `new_len` (consensus rollback).
    pub fn truncate(&mut self, new_len: u64) {
        assert!(new_len <= self.len(), "cannot truncate to a larger size");
        if let Some(m) = &self.metrics {
            m.truncations.inc();
        }
        for (h, level) in self.levels.iter_mut().enumerate() {
            level.truncate((new_len >> h) as usize);
        }
    }

    /// Generates an inclusion proof for `leaf_index` against the current
    /// tree. O(log n) time and proof size.
    pub fn prove(&self, leaf_index: u64) -> Option<MerkleProof> {
        self.prove_at_size(leaf_index, self.len())
    }

    /// Generates a proof against the tree as it was at `size` leaves —
    /// needed for receipts, which prove inclusion under the root that a
    /// *historical* signature transaction signed, not the current root.
    pub fn prove_at_size(&self, leaf_index: u64, size: u64) -> Option<MerkleProof> {
        if leaf_index >= size || size > self.len() {
            return None;
        }
        // Walk the RFC 6962 split top-down, collecting siblings; the path
        // is bottom-up, so reverse at the end.
        let mut path = Vec::new();
        let (mut start, mut end) = (0, size);
        while end - start > 1 {
            let split = start + largest_power_of_two_below((end - start) as usize) as u64;
            let step = if leaf_index < split {
                let sibling = self.range_root(split, end);
                end = split;
                ProofStep { sibling_on_left: false, sibling }
            } else {
                let sibling = self.range_root(start, split);
                start = split;
                ProofStep { sibling_on_left: true, sibling }
            };
            path.push(step);
        }
        path.reverse();
        Some(MerkleProof { leaf_index, tree_size: size, path })
    }

    /// The root of the prefix of the first `size` leaves (the root a
    /// signature transaction at seqno `size + 1` signed).
    pub fn root_at_size(&self, size: u64) -> Option<Digest32> {
        (size <= self.len()).then(|| self.range_root(0, size))
    }

    /// RFC 6962 root of leaves `[start, end)`, for ranges the split
    /// recursion produces: `start` is a multiple of the largest power of
    /// two not above `end - start`. Such a range is a run of complete
    /// subtrees of decreasing height (one per set bit of its length), each
    /// aligned, so each is one stored digest; they fold right to left, from
    /// the lowest peak up.
    fn range_root(&self, start: u64, end: u64) -> Digest32 {
        let len = end - start;
        let mut acc: Option<Digest32> = None;
        for h in 0..u64::BITS - len.leading_zeros() {
            if len >> h & 1 == 1 {
                let offset = start + (len >> (h + 1) << (h + 1));
                let peak = &self.levels[h as usize][(offset >> h) as usize];
                acc = Some(match acc {
                    None => *peak,
                    Some(right) => node_hash(peak, &right),
                });
            }
        }
        acc.unwrap_or_else(empty_root)
    }

    /// Root of an arbitrary leaf range (RFC 6962 recursion).
    fn subtree_root(leaves: &[Digest32]) -> Digest32 {
        match leaves.len() {
            0 => empty_root(),
            1 => leaves[0],
            n => {
                let split = largest_power_of_two_below(n);
                node_hash(
                    &Self::subtree_root(&leaves[..split]),
                    &Self::subtree_root(&leaves[split..]),
                )
            }
        }
    }

    /// Recomputes the root the slow recursive way from the leaves (test
    /// oracle for the level-based computation).
    pub fn root_recursive(&self) -> Digest32 {
        Self::subtree_root(self.levels.first().map_or(&[], |l| l.as_slice()))
    }

    /// Hashes a raw leaf the way [`MerkleTree::append`] does, for callers
    /// that verify proofs.
    pub fn hash_leaf(leaf: &[u8]) -> Digest32 {
        leaf_hash(leaf)
    }
}

fn largest_power_of_two_below(n: usize) -> usize {
    debug_assert!(n >= 2);
    let p = n.next_power_of_two();
    if p == n {
        n / 2
    } else {
        p / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn incremental_root_matches_recursive_for_all_sizes() {
        let mut tree = MerkleTree::new();
        assert_eq!(tree.root(), empty_root());
        for (i, leaf) in leaves(130).iter().enumerate() {
            tree.append(leaf);
            assert_eq!(tree.root(), tree.root_recursive(), "size {}", i + 1);
        }
    }

    /// The RFC 6962 recursive proof over a leaf slice (the oracle the
    /// level-based proofs must match).
    fn prove_recursive(leaves: &[Digest32], index: usize, path: &mut Vec<ProofStep>) {
        if leaves.len() <= 1 {
            return;
        }
        let split = largest_power_of_two_below(leaves.len());
        let (sibling_on_left, sibling) = if index < split {
            prove_recursive(&leaves[..split], index, path);
            (false, MerkleTree::subtree_root(&leaves[split..]))
        } else {
            prove_recursive(&leaves[split..], index - split, path);
            (true, MerkleTree::subtree_root(&leaves[..split]))
        };
        path.push(ProofStep { sibling_on_left, sibling });
    }

    fn assert_matches_oracle(tree: &MerkleTree) {
        let all: Vec<Digest32> = (0..tree.len()).map(|i| *tree.leaf(i).unwrap()).collect();
        for size in 0..=tree.len() {
            let prefix = &all[..size as usize];
            assert_eq!(tree.root_at_size(size), Some(MerkleTree::subtree_root(prefix)));
            for index in 0..size {
                let mut path = Vec::new();
                prove_recursive(prefix, index as usize, &mut path);
                let expected = MerkleProof { leaf_index: index, tree_size: size, path };
                assert_eq!(tree.prove_at_size(index, size), Some(expected), "({index}, {size})");
            }
        }
    }

    #[test]
    fn proofs_match_recursive_oracle_before_and_after_truncation() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(130) {
            tree.append(&leaf);
        }
        assert_matches_oracle(&tree);
        // Cut to a size with several peaks, then regrow with a divergent
        // suffix: the cut levels must rebuild exactly.
        tree.truncate(77);
        assert_matches_oracle(&tree);
        for i in 77..130 {
            tree.append(format!("other-{i}").as_bytes());
        }
        assert_matches_oracle(&tree);
        assert_eq!(tree.root(), tree.root_recursive());
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in [1u64, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100] {
            let mut tree = MerkleTree::new();
            let ls = leaves(n);
            for leaf in &ls {
                tree.append(leaf);
            }
            let root = tree.root();
            for (i, leaf) in ls.iter().enumerate() {
                let proof = tree.prove(i as u64).unwrap();
                assert!(proof.verify(leaf, &root), "n={n} i={i}");
                assert_eq!(proof.tree_size, n);
                // Wrong leaf fails.
                assert!(!proof.verify(b"other", &root));
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_root_and_tamper() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(10) {
            tree.append(&leaf);
        }
        let proof = tree.prove(4).unwrap();
        let root = tree.root();
        assert!(proof.verify(b"leaf-4", &root));
        let mut bad_root = root;
        bad_root[0] ^= 1;
        assert!(!proof.verify(b"leaf-4", &bad_root));
        let mut tampered = proof.clone();
        if let Some(step) = tampered.path.first_mut() {
            step.sibling[0] ^= 1;
        }
        assert!(!tampered.verify(b"leaf-4", &root));
        let mut flipped = proof.clone();
        if let Some(step) = flipped.path.first_mut() {
            step.sibling_on_left = !step.sibling_on_left;
        }
        assert!(!flipped.verify(b"leaf-4", &root));
    }

    #[test]
    fn proof_encoding_roundtrip() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(13) {
            tree.append(&leaf);
        }
        let proof = tree.prove(7).unwrap();
        let decoded = MerkleProof::decode(&proof.encode()).unwrap();
        assert_eq!(proof, decoded);
        assert!(MerkleProof::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn prove_out_of_range() {
        let mut tree = MerkleTree::new();
        tree.append(b"x");
        assert!(tree.prove(1).is_none());
        assert!(MerkleTree::new().prove(0).is_none());
    }

    #[test]
    fn truncate_restores_earlier_root() {
        let mut tree = MerkleTree::new();
        let mut roots = vec![tree.root()];
        for leaf in leaves(50) {
            tree.append(&leaf);
            roots.push(tree.root());
        }
        for n in (0..=50u64).rev() {
            let mut t = tree.clone();
            t.truncate(n);
            assert_eq!(t.root(), roots[n as usize], "truncate to {n}");
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn domain_separation() {
        // A leaf equal to the concatenation of two digests must not produce
        // the same root as the two-leaf tree (second-preimage defence).
        let mut two = MerkleTree::new();
        two.append(b"a");
        two.append(b"b");
        let concat = {
            let mut v = Vec::new();
            v.extend_from_slice(&MerkleTree::hash_leaf(b"a"));
            v.extend_from_slice(&MerkleTree::hash_leaf(b"b"));
            v
        };
        let mut one = MerkleTree::new();
        one.append(&concat);
        assert_ne!(two.root(), one.root());
    }

    #[test]
    fn historical_proofs_at_size() {
        let mut tree = MerkleTree::new();
        let ls = leaves(30);
        let mut roots = Vec::new();
        for leaf in &ls {
            tree.append(leaf);
            roots.push(tree.root());
        }
        // For each historical size, proofs verify against that era's root.
        for size in 1..=30u64 {
            assert_eq!(tree.root_at_size(size).unwrap(), roots[size as usize - 1]);
            for i in (0..size).step_by(7) {
                let proof = tree.prove_at_size(i, size).unwrap();
                assert!(proof.verify(&ls[i as usize], &roots[size as usize - 1]), "i={i} size={size}");
                // …and (generally) not against other roots.
                if size >= 2 && i + 1 < size {
                    assert!(!proof.verify(&ls[i as usize], &roots[(size - 2) as usize]));
                }
            }
        }
        assert!(tree.prove_at_size(5, 31).is_none());
        assert!(tree.prove_at_size(10, 10).is_none());
    }

    #[test]
    fn metrics_count_appends_and_truncations() {
        let reg = ccf_obs::Registry::new();
        let mut tree = MerkleTree::new();
        tree.set_registry(&reg);
        for leaf in [b"a", b"b", b"c"] {
            tree.append(leaf);
        }
        tree.truncate(1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ledger.merkle_appends"], 3);
        assert_eq!(snap.counters["ledger.merkle_truncations"], 1);
    }

    #[test]
    fn tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MerkleTree>();
    }

    #[test]
    fn append_after_truncate() {
        let mut tree = MerkleTree::new();
        for leaf in leaves(20) {
            tree.append(&leaf);
        }
        let mut other = MerkleTree::new();
        for leaf in leaves(10) {
            other.append(&leaf);
        }
        tree.truncate(10);
        // Divergent suffix replaced: both trees must now evolve identically.
        tree.append(b"new");
        other.append(b"new");
        assert_eq!(tree.root(), other.root());
        assert_eq!(tree.len(), other.len());
    }
}
