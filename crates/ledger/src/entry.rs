//! Ledger entry encoding: transaction IDs, write sets split by visibility,
//! signature transactions (paper §3.1–§3.3).
//!
//! This module is the one home of the signature-transaction format: the
//! primary builds it with [`LedgerEntry::signature`], and receipts,
//! recovery and offline auditors read it back with
//! [`LedgerEntry::signature_payload`] and [`SignaturePayload::verify`].

use crate::secrets::LedgerSecrets;
use ccf_crypto::sha2::{sha256, Sha256};
use ccf_crypto::{CryptoError, Digest32, Signature, SigningKey, VerifyingKey};
use ccf_kv::codec::{CodecError, Reader, Writer};
use ccf_kv::{builtin, MapName, WriteSet};

/// The key a signature transaction writes its payload under, in the
/// `public:ccf.internal.signatures` map.
const SIGNATURE_KEY: &[u8] = b"latest";

/// A transaction ID: the ordered pair (view, sequence number) — unique per
/// transaction across the whole service lifetime (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId {
    /// The consensus view in which the transaction was created.
    pub view: u64,
    /// The index of the transaction in the ledger (1-based; 0 = none).
    pub seqno: u64,
}

impl TxId {
    /// Creates a transaction ID.
    pub fn new(view: u64, seqno: u64) -> TxId {
        TxId { view, seqno }
    }

    /// The "no transaction" sentinel (before the first entry).
    pub const ZERO: TxId = TxId { view: 0, seqno: 0 };
}

impl std::fmt::Debug for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.view, self.seqno)
    }
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.view, self.seqno)
    }
}

/// What kind of transaction an entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryKind {
    /// A user/application transaction (or governance write).
    User = 0,
    /// A signature transaction: the primary's signature over the Merkle
    /// root of the preceding ledger prefix (§3.2).
    Signature = 1,
    /// A reconfiguration transaction: updates to `nodes.info` changing the
    /// set of trusted nodes (§4.4). Affects consensus directly.
    Reconfiguration = 2,
}

impl EntryKind {
    fn from_u8(v: u8) -> Result<EntryKind, CodecError> {
        match v {
            0 => Ok(EntryKind::User),
            1 => Ok(EntryKind::Signature),
            2 => Ok(EntryKind::Reconfiguration),
            _ => Err(CodecError::BadValue { context: "entry kind" }),
        }
    }
}

/// The payload of a signature transaction, stored under key `"latest"` in
/// the `public:ccf.internal.signatures` map and on the ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignaturePayload {
    /// The signing (primary) node.
    pub node_id: String,
    /// The Merkle root over the ledger up to and including the previous
    /// entry.
    pub root: Digest32,
    /// Ed25519 signature by the node identity key over
    /// `signing_bytes(root, txid)`.
    pub signature: Signature,
    /// The node's public key, so auditors can check against `nodes.info`.
    pub node_public: VerifyingKey,
}

impl SignaturePayload {
    /// The exact bytes a node signs for a signature transaction at `txid`.
    pub fn signing_bytes(root: &Digest32, txid: TxId) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.raw(b"ccf-signature-tx");
        w.u64(txid.view);
        w.u64(txid.seqno);
        w.raw(root);
        w.finish()
    }

    /// Checks the Ed25519 signature over `signing_bytes(root, txid)`
    /// under the embedded node key. Whether the signed root matches the
    /// ledger, and whether the key belongs to a trusted node, is the
    /// caller's to check.
    pub fn verify(&self, txid: TxId) -> Result<(), CryptoError> {
        self.node_public.verify(&Self::signing_bytes(&self.root, txid), &self.signature)
    }

    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.node_id);
        w.raw(&self.root);
        w.raw(&self.signature.0);
        w.raw(&self.node_public.0);
        w.finish()
    }

    /// Decodes [`SignaturePayload::encode`].
    pub fn decode(bytes: &[u8]) -> Result<SignaturePayload, CodecError> {
        let mut r = Reader::new(bytes);
        let node_id = r.str("signature node id")?.to_string();
        let root = r.array::<32>("signature root")?;
        let sig = r.array::<64>("signature bytes")?;
        let node_public = r.array::<32>("signature node key")?;
        Ok(SignaturePayload {
            node_id,
            root,
            signature: Signature(sig),
            node_public: VerifyingKey(node_public),
        })
    }
}

/// Why [`LedgerEntry::open`] could not read an entry's write sets.
#[derive(Debug)]
pub enum OpenError {
    /// A write set did not decode.
    Codec(CodecError),
    /// The private write set did not decrypt.
    Crypto(CryptoError),
    /// The entry has private writes and no ledger secrets were given.
    NoSecrets,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Codec(e) => write!(f, "write set: {e}"),
            OpenError::Crypto(e) => write!(f, "private write set: {e}"),
            OpenError::NoSecrets => write!(f, "private write set without ledger secrets"),
        }
    }
}

impl std::error::Error for OpenError {}

/// One entry of the ledger, as replicated between nodes and persisted by
/// the host. Private-map updates are already encrypted at this layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The transaction ID assigned by the primary.
    pub txid: TxId,
    /// What kind of transaction this is.
    pub kind: EntryKind,
    /// Public-map updates, in plain text (encoded [`ccf_kv::WriteSet`]).
    pub public_ws: Vec<u8>,
    /// Private-map updates, encrypted with the ledger secret
    /// (AES-256-GCM ciphertext || tag); empty if none.
    pub private_ws_enc: Vec<u8>,
    /// Digest of application-attached claims (§3.5); zero if none.
    pub claims_digest: Digest32,
}

impl LedgerEntry {
    /// The leaf digest contributed to the Merkle tree: a hash over the
    /// transaction ID, the digests of both write-set parts, and the claims
    /// digest — everything a receipt must commit to.
    pub fn leaf_bytes(&self) -> Vec<u8> {
        Self::leaf_bytes_from_digests(
            self.txid,
            self.kind,
            &sha256(&self.public_ws),
            &sha256(&self.private_ws_enc),
            &self.claims_digest,
        )
    }

    /// Builds leaf bytes from precomputed digests (receipt verification
    /// path, where the verifier may only hold digests).
    pub fn leaf_bytes_from_digests(
        txid: TxId,
        kind: EntryKind,
        public_digest: &Digest32,
        private_digest: &Digest32,
        claims_digest: &Digest32,
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(112);
        w.u64(txid.view);
        w.u64(txid.seqno);
        w.u8(kind as u8);
        w.raw(public_digest);
        w.raw(private_digest);
        w.raw(claims_digest);
        w.finish()
    }

    /// Digest of the encoded entry (used in append-entries integrity
    /// checks).
    pub fn digest(&self) -> Digest32 {
        let mut h = Sha256::new();
        h.update(&self.encode());
        h.finalize()
    }

    /// Serializes the entry for replication and persistence.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.public_ws.len() + self.private_ws_enc.len());
        w.u64(self.txid.view);
        w.u64(self.txid.seqno);
        w.u8(self.kind as u8);
        w.bytes(&self.public_ws);
        w.bytes(&self.private_ws_enc);
        w.raw(&self.claims_digest);
        w.finish()
    }

    /// Decodes [`LedgerEntry::encode`].
    pub fn decode(bytes: &[u8]) -> Result<LedgerEntry, CodecError> {
        let mut r = Reader::new(bytes);
        let entry = Self::decode_from(&mut r)?;
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "ledger entry trailing bytes" });
        }
        Ok(entry)
    }

    /// Decodes one entry from a stream (ledger files hold many).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<LedgerEntry, CodecError> {
        let view = r.u64("entry view")?;
        let seqno = r.u64("entry seqno")?;
        let kind = EntryKind::from_u8(r.u8("entry kind")?)?;
        let public_ws = r.bytes("entry public ws")?.to_vec();
        let private_ws_enc = r.bytes("entry private ws")?.to_vec();
        let claims_digest = r.array::<32>("entry claims digest")?;
        Ok(LedgerEntry { txid: TxId::new(view, seqno), kind, public_ws, private_ws_enc, claims_digest })
    }

    /// True for signature transactions.
    pub fn is_signature(&self) -> bool {
        self.kind == EntryKind::Signature
    }

    /// Decodes the public write set (empty when the entry has none).
    pub fn public_writes(&self) -> Result<WriteSet, CodecError> {
        if self.public_ws.is_empty() {
            return Ok(WriteSet::new());
        }
        WriteSet::decode(&self.public_ws)
    }

    /// Decodes the full write set: the public writes, merged with the
    /// private writes decrypted under `secrets`. Only an entry with no
    /// private writes opens without secrets.
    pub fn open(&self, secrets: Option<&LedgerSecrets>) -> Result<WriteSet, OpenError> {
        let mut ws = self.public_writes().map_err(OpenError::Codec)?;
        if !self.private_ws_enc.is_empty() {
            let plain = secrets
                .ok_or(OpenError::NoSecrets)?
                .decrypt(self.txid, &sha256(&self.public_ws), &self.private_ws_enc)
                .map_err(OpenError::Crypto)?;
            ws.merge(WriteSet::decode(&plain).map_err(OpenError::Codec)?);
        }
        Ok(ws)
    }

    /// Builds the signature transaction at `txid`: `node_id`'s signature
    /// with `key` over Merkle root `root`, written in its public write set.
    pub fn signature(txid: TxId, root: Digest32, node_id: &str, key: &SigningKey) -> LedgerEntry {
        let payload = SignaturePayload {
            node_id: node_id.to_string(),
            root,
            signature: key.sign(&SignaturePayload::signing_bytes(&root, txid)),
            node_public: key.verifying_key(),
        };
        let mut ws = WriteSet::new();
        ws.write(MapName::new(builtin::SIGNATURES), SIGNATURE_KEY.to_vec(), payload.encode());
        LedgerEntry {
            txid,
            kind: EntryKind::Signature,
            public_ws: ws.encode(),
            private_ws_enc: Vec::new(),
            claims_digest: [0u8; 32],
        }
    }

    /// Reads back the payload of a signature transaction built by
    /// [`LedgerEntry::signature`]. Fails for any other kind of entry, a
    /// write set without the payload, or payload bytes that do not decode.
    pub fn signature_payload(&self) -> Result<SignaturePayload, CodecError> {
        if !self.is_signature() {
            return Err(CodecError::BadValue { context: "signature entry kind" });
        }
        let ws = self.public_writes()?;
        let payload = ws
            .maps
            .get(&MapName::new(builtin::SIGNATURES))
            .and_then(|writes| writes.get(SIGNATURE_KEY))
            .and_then(|value| value.as_deref())
            .ok_or(CodecError::BadValue { context: "signature payload missing" })?;
        SignaturePayload::decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> LedgerEntry {
        let mut ws = WriteSet::new();
        ws.write(MapName::new("public:app.m"), b"k".to_vec(), b"v".to_vec());
        LedgerEntry {
            txid: TxId::new(2, 7),
            kind: EntryKind::User,
            public_ws: ws.encode(),
            private_ws_enc: vec![1, 2, 3],
            claims_digest: [0u8; 32],
        }
    }

    /// `open` merges the decrypted private writes into the public ones,
    /// and refuses an entry it cannot read instead of guessing.
    #[test]
    fn open_merges_private_writes_and_refuses_what_it_cannot_read() {
        let secrets = LedgerSecrets::new([5u8; 32]);
        let mut public = WriteSet::new();
        public.write(MapName::new("public:app.m"), b"k".to_vec(), b"v".to_vec());
        let mut private = WriteSet::new();
        private.write(MapName::new("app.secret"), b"s".to_vec(), b"hidden".to_vec());
        let txid = TxId::new(2, 7);
        let public_ws = public.encode();
        let private_ws_enc = secrets.encrypt(txid, &sha256(&public_ws), &private.encode());
        let entry = LedgerEntry {
            txid,
            kind: EntryKind::User,
            public_ws,
            private_ws_enc,
            claims_digest: [0u8; 32],
        };
        let mut both = public.clone();
        both.merge(private);
        assert_eq!(entry.open(Some(&secrets)).unwrap(), both);
        assert_eq!(entry.public_writes().unwrap(), public);
        assert!(matches!(entry.open(None), Err(OpenError::NoSecrets)));
        let wrong = LedgerSecrets::new([6u8; 32]);
        assert!(matches!(entry.open(Some(&wrong)), Err(OpenError::Crypto(_))));
        let garbled = LedgerEntry { public_ws: vec![0xff; 3], ..entry };
        assert!(garbled.public_writes().is_err());
        assert!(matches!(garbled.open(Some(&secrets)), Err(OpenError::Codec(_))));
        let public_only = LedgerEntry { private_ws_enc: Vec::new(), ..sample_entry() };
        assert_eq!(public_only.open(None).unwrap(), public);
    }

    #[test]
    fn txid_ordering_and_display() {
        assert!(TxId::new(1, 5) < TxId::new(2, 1));
        assert!(TxId::new(2, 1) < TxId::new(2, 2));
        assert_eq!(TxId::new(3, 14).to_string(), "3.14");
    }

    #[test]
    fn entry_roundtrip() {
        let e = sample_entry();
        let decoded = LedgerEntry::decode(&e.encode()).unwrap();
        assert_eq!(e, decoded);
    }

    #[test]
    fn entry_rejects_truncation_and_trailing() {
        let bytes = sample_entry().encode();
        assert!(LedgerEntry::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(LedgerEntry::decode(&extra).is_err());
    }

    #[test]
    fn entry_rejects_bad_kind() {
        let mut bytes = sample_entry().encode();
        bytes[16] = 99; // kind byte follows the two u64s
        assert!(LedgerEntry::decode(&bytes).is_err());
    }

    #[test]
    fn leaf_binds_all_components() {
        let base = sample_entry();
        let l0 = base.leaf_bytes();
        let mut e = base.clone();
        e.txid = TxId::new(2, 8);
        assert_ne!(e.leaf_bytes(), l0);
        let mut e = base.clone();
        e.private_ws_enc = vec![9];
        assert_ne!(e.leaf_bytes(), l0);
        let mut e = base.clone();
        e.claims_digest = [1u8; 32];
        assert_ne!(e.leaf_bytes(), l0);
        let mut e = base.clone();
        e.kind = EntryKind::Signature;
        assert_ne!(e.leaf_bytes(), l0);
    }

    #[test]
    fn signature_payload_roundtrip() {
        let mut rng = ccf_crypto::chacha::ChaChaRng::seed_from_u64(3);
        let key = ccf_crypto::SigningKey::generate(&mut rng);
        let root = [7u8; 32];
        let txid = TxId::new(1, 100);
        let payload = SignaturePayload {
            node_id: "n0".into(),
            root,
            signature: key.sign(&SignaturePayload::signing_bytes(&root, txid)),
            node_public: key.verifying_key(),
        };
        let decoded = SignaturePayload::decode(&payload.encode()).unwrap();
        assert_eq!(payload, decoded);
        decoded
            .node_public
            .verify(&SignaturePayload::signing_bytes(&root, txid), &decoded.signature)
            .unwrap();
    }

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed([seed; 32])
    }

    #[test]
    fn signature_entry_roundtrips_and_verifies() {
        let txid = TxId::new(3, 42);
        let root = [9u8; 32];
        let entry = LedgerEntry::signature(txid, root, "n0", &key(1));
        assert!(entry.is_signature());
        assert!(entry.private_ws_enc.is_empty());
        let payload = entry.signature_payload().unwrap();
        assert_eq!(payload.node_id, "n0");
        assert_eq!(payload.root, root);
        assert_eq!(payload.node_public, key(1).verifying_key());
        payload.verify(txid).unwrap();
        // Survives the ledger's own encoding, as an auditor reads it.
        let decoded = LedgerEntry::decode(&entry.encode()).unwrap();
        assert_eq!(decoded.signature_payload().unwrap(), payload);
    }

    #[test]
    fn signature_payload_rejects_other_entries() {
        // A user entry, even one carrying a well-formed payload.
        let mut user = LedgerEntry::signature(TxId::new(1, 2), [0u8; 32], "n0", &key(1));
        user.kind = EntryKind::User;
        assert!(user.signature_payload().is_err());
        assert!(sample_entry().signature_payload().is_err());

        // A signature entry whose write set lacks the "latest" key.
        let mut ws = WriteSet::new();
        ws.write(MapName::new(builtin::SIGNATURES), b"other".to_vec(), vec![1, 2, 3]);
        let mut missing = LedgerEntry::signature(TxId::new(1, 2), [0u8; 32], "n0", &key(1));
        missing.public_ws = ws.encode();
        assert!(missing.signature_payload().is_err());

        // A signature entry whose payload is cut short.
        let good = LedgerEntry::signature(TxId::new(1, 2), [0u8; 32], "n0", &key(1));
        let bytes = good.signature_payload().unwrap().encode();
        let cut = bytes[..bytes.len() - 1].to_vec();
        let mut ws = WriteSet::new();
        ws.write(MapName::new(builtin::SIGNATURES), b"latest".to_vec(), cut);
        let mut truncated = good;
        truncated.public_ws = ws.encode();
        assert!(truncated.signature_payload().is_err());
    }

    #[test]
    fn signature_verify_binds_txid_root_and_key() {
        let txid = TxId::new(3, 42);
        let payload = LedgerEntry::signature(txid, [9u8; 32], "n0", &key(1))
            .signature_payload()
            .unwrap();
        payload.verify(txid).unwrap();
        assert!(payload.verify(TxId::new(3, 43)).is_err());
        assert!(payload.verify(TxId::new(4, 42)).is_err());
        let mut other_root = payload.clone();
        other_root.root = [8u8; 32];
        assert!(other_root.verify(txid).is_err());
        let mut other_key = payload.clone();
        other_key.node_public = key(2).verifying_key();
        assert!(other_key.verify(txid).is_err());
    }

    #[test]
    fn stream_decoding_multiple_entries() {
        let e1 = sample_entry();
        let mut e2 = sample_entry();
        e2.txid = TxId::new(2, 8);
        let mut buf = e1.encode();
        buf.extend_from_slice(&e2.encode());
        let mut r = Reader::new(&buf);
        assert_eq!(LedgerEntry::decode_from(&mut r).unwrap(), e1);
        assert_eq!(LedgerEntry::decode_from(&mut r).unwrap(), e2);
        assert!(r.is_at_end());
    }
}
