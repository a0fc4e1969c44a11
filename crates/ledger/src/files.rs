//! Physical ledger files (paper §3.2).
//!
//! The logical ledger is divided into chunks, each terminating with a
//! signature transaction, as it is written to persistent storage *by the
//! host* — i.e. outside the trust boundary. A malicious host can drop,
//! truncate or corrupt chunks; everything read back is therefore treated
//! as untrusted input and re-verified (entry decoding, signature chain)
//! during disaster recovery.

use crate::entry::{LedgerEntry, TxId};
use ccf_kv::codec::{CodecError, Reader, Writer};

const CHUNK_MAGIC: u32 = 0xCCF1_ED6E;

/// One physical ledger file: a header plus consecutive entries, the last
/// of which is a signature transaction (except possibly the final,
/// still-open chunk at crash time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerChunk {
    /// Sequence number of the first entry.
    pub first_seqno: u64,
    /// The entries, in seqno order.
    pub entries: Vec<LedgerEntry>,
}

impl LedgerChunk {
    /// Serializes the chunk as stored on disk.
    pub fn encode(&self) -> Vec<u8> {
        encode_chunk(self.first_seqno, self.entries.iter())
    }

    /// Decodes and structurally validates a chunk read from (untrusted)
    /// storage.
    pub fn decode(bytes: &[u8]) -> Result<LedgerChunk, CodecError> {
        let mut r = Reader::new(bytes);
        if r.u32("chunk magic")? != CHUNK_MAGIC {
            return Err(CodecError::BadValue { context: "chunk magic" });
        }
        let first_seqno = r.u64("chunk first seqno")?;
        let count = r.u32("chunk entry count")?;
        let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
        for i in 0..count {
            let entry = LedgerEntry::decode(r.bytes("chunk entry")?)?;
            if entry.txid.seqno != first_seqno + i as u64 {
                return Err(CodecError::BadValue { context: "chunk entry seqno" });
            }
            entries.push(entry);
        }
        if !r.is_at_end() {
            return Err(CodecError::BadLength { context: "chunk trailing bytes" });
        }
        Ok(LedgerChunk { first_seqno, entries })
    }

    /// Last transaction ID in this chunk.
    pub fn last_txid(&self) -> Option<TxId> {
        self.entries.last().map(|e| e.txid)
    }

    /// True when the chunk is closed by a signature transaction.
    pub fn is_complete(&self) -> bool {
        self.entries.last().is_some_and(|e| e.is_signature())
    }
}

/// Encodes the closed chunks of a run of consecutive entries as the host
/// writes them to storage: a chunk ends at each signature transaction and
/// the next one starts after it. The unsigned suffix is left out — it is
/// lost on crash, exactly as in the paper's model. In production these
/// chunks are files named `ledger_<first>-<last>.committed`.
pub fn closed_chunks<'a>(entries: impl IntoIterator<Item = &'a LedgerEntry>) -> Vec<Vec<u8>> {
    let mut blobs = Vec::new();
    let mut open: Vec<&LedgerEntry> = Vec::new();
    for entry in entries {
        open.push(entry);
        if entry.is_signature() {
            blobs.push(encode_chunk(open[0].txid.seqno, open.drain(..)));
        }
    }
    blobs
}

fn encode_chunk<'a>(
    first_seqno: u64,
    entries: impl ExactSizeIterator<Item = &'a LedgerEntry>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(CHUNK_MAGIC);
    w.u64(first_seqno);
    w.u32(entries.len() as u32);
    for e in entries {
        w.bytes(&e.encode());
    }
    w.finish()
}

/// Reads a set of persisted chunk blobs back into an ordered entry stream,
/// validating structure and sequence continuity. Used by disaster recovery
/// and by new nodes catching up from files. Tolerates a truncated tail
/// (missing later chunks) but rejects gaps and corruption.
pub fn read_chunks(blobs: &[Vec<u8>]) -> Result<Vec<LedgerEntry>, CodecError> {
    let mut chunks: Vec<LedgerChunk> = Vec::with_capacity(blobs.len());
    for blob in blobs {
        chunks.push(LedgerChunk::decode(blob)?);
    }
    chunks.sort_by_key(|c| c.first_seqno);
    let mut entries = Vec::new();
    let mut expected = 1u64;
    for chunk in chunks {
        if chunk.first_seqno != expected {
            return Err(CodecError::BadValue { context: "chunk sequence gap" });
        }
        expected += chunk.entries.len() as u64;
        entries.extend(chunk.entries);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryKind;

    fn entry(view: u64, seqno: u64, kind: EntryKind) -> LedgerEntry {
        LedgerEntry {
            txid: TxId::new(view, seqno),
            kind,
            public_ws: format!("ws-{seqno}").into_bytes(),
            private_ws_enc: Vec::new(),
            claims_digest: [0u8; 32],
        }
    }

    /// Entries `from..=upto` in view 1, a signature at every multiple of
    /// `sig_every`.
    fn run(from: u64, upto: u64, sig_every: u64) -> Vec<LedgerEntry> {
        (from..=upto)
            .map(|s| {
                let kind = if s % sig_every == 0 { EntryKind::Signature } else { EntryKind::User };
                entry(1, s, kind)
            })
            .collect()
    }

    fn decoded(entries: &[LedgerEntry]) -> Vec<LedgerChunk> {
        closed_chunks(entries).iter().map(|b| LedgerChunk::decode(b).unwrap()).collect()
    }

    #[test]
    fn chunks_close_at_signatures() {
        let chunks = decoded(&run(1, 10, 5));
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.is_complete()));
        assert_eq!(chunks[0].first_seqno, 1);
        assert_eq!(chunks[1].first_seqno, 6);

        // 11, 12 are unsigned and stay off storage.
        let chunks = decoded(&run(1, 12, 5));
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].last_txid(), Some(TxId::new(1, 10)));
    }

    #[test]
    fn chunks_after_snapshot_start_at_first_retained_entry() {
        // A node that installed a snapshot at 7 holds entries from 8 on.
        let chunks = decoded(&run(8, 16, 5));
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].first_seqno, 8);
        assert_eq!(chunks[0].entries.len(), 3);
        assert_eq!(chunks[1].first_seqno, 11);
    }

    #[test]
    fn chunk_encode_decode() {
        let entries = run(1, 5, 5);
        let blob = closed_chunks(&entries).remove(0);
        let decoded = LedgerChunk::decode(&blob).unwrap();
        assert_eq!(decoded, LedgerChunk { first_seqno: 1, entries });
        assert_eq!(decoded.encode(), blob);
        // Corruption rejected.
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(LedgerChunk::decode(&bad).is_err());
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad.truncate(last);
        assert!(LedgerChunk::decode(&bad).is_err());
    }

    #[test]
    fn read_chunks_reassembles_in_order() {
        let mut blobs = closed_chunks(&run(1, 20, 4));
        blobs.reverse(); // order on disk is arbitrary
        let entries = read_chunks(&blobs).unwrap();
        assert_eq!(entries.len(), 20);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.txid.seqno, i as u64 + 1);
        }
    }

    #[test]
    fn read_chunks_rejects_gaps() {
        let mut blobs = closed_chunks(&run(1, 20, 4));
        blobs.remove(1); // lose chunk 5..8
        assert!(read_chunks(&blobs).is_err());
    }

    #[test]
    fn read_chunks_tolerates_missing_tail() {
        let mut blobs = closed_chunks(&run(1, 20, 4));
        blobs.pop(); // final chunk lost — best-effort recovery still works
        let entries = read_chunks(&blobs).unwrap();
        assert_eq!(entries.len(), 16);
    }

    #[test]
    fn truncate_within_open_suffix() {
        // chunks [1-5],[6-10], open [11,12]: cutting 12 changes no file.
        let entries = run(1, 12, 5);
        assert_eq!(closed_chunks(&entries[..11]), closed_chunks(&entries));
        assert_eq!(closed_chunks(&entries[..11]).len(), 2);
    }

    #[test]
    fn truncate_into_closed_chunk_reopens_it() {
        let entries = run(1, 12, 5);
        let mut kept = entries[..8].to_vec();
        assert_eq!(closed_chunks(&kept), closed_chunks(&entries)[..1]);
        // A new signature closes the reopened chunk again: 6, 7, 8, 9.
        kept.push(entry(2, 9, EntryKind::Signature));
        let chunks = decoded(&kept);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].first_seqno, 6);
        assert_eq!(chunks[1].entries.len(), 4);
        assert!(chunks[1].is_complete());
    }

    #[test]
    fn truncate_everything() {
        let entries = run(1, 12, 5);
        assert!(closed_chunks(&entries[..0]).is_empty());
        assert_eq!(closed_chunks(&run(1, 5, 5)).len(), 1);
    }
}
