//! Sorted-string-table files: the LSM tree's immutable on-device runs.
//!
//! Layout within a backend file:
//!
//! ```text
//! [data block 0][data block 1]...[index block][bloom block][footer]
//! ```
//!
//! Data blocks hold length-prefixed entries in key order; the index block
//! records each block's first key and byte range; the bloom block holds a
//! filter over all keys; the fixed-size footer points at both. Readers
//! load index + bloom at open (charged device reads) and afterwards serve
//! a point lookup with at most one data-block read.
//!
//! Entries are never materialised as owned values on the data path. A
//! decoded entry is an [`EntryRef`] borrowing the [`FileView`]
//! `StorageBackend::read_shared` returned, which shares the file's bytes
//! with the backend: [`Sst::get`] searches its block in place and copies
//! a value only on a hit, compaction merges [`Sst::read_blocks`] output
//! in the crate's `merge` module, and
//! [`SstBuilder`] encodes from borrowed slices — per entry it stores one
//! `u64` key hash for the bloom filter (which can only be sized at
//! [`SstBuilder::finish`]) and allocates once per data block, for the
//! index key.

use crate::backend::{FileHint, FileId, FileView, StorageBackend};
use crate::bloom::{key_hash, BloomFilter};
use crate::error::KvError;
use crate::memtable::Mutation;
use crate::Result;
use bh_metrics::Nanos;
use std::cmp::Ordering;

/// Tombstones are encoded with this value-length marker.
const TOMBSTONE: u32 = u32::MAX;
/// Footer: index_off, index_len, bloom_off, bloom_len (4 × u64).
const FOOTER_BYTES: u64 = 32;

/// One entry borrowed from encoded bytes; `value` is `None` for a
/// tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// The key.
    pub key: &'a [u8],
    /// Sequence number of the mutation.
    pub seq: u64,
    /// The value, or `None` for a tombstone.
    pub value: Option<&'a [u8]>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_bytes<'d>(data: &'d [u8], at: &mut usize, len: usize) -> Result<&'d [u8]> {
    let end = at.checked_add(len).ok_or(KvError::Corrupt("bytes"))?;
    let bytes = data.get(*at..end).ok_or(KvError::Corrupt("bytes"))?;
    *at = end;
    Ok(bytes)
}

/// The `N` bytes at `*at`, advancing `*at` past them.
fn get_array<const N: usize>(data: &[u8], at: &mut usize) -> Option<[u8; N]> {
    let bytes = *data.get(*at..)?.first_chunk::<N>()?;
    *at += N;
    Some(bytes)
}

fn get_u32(data: &[u8], at: &mut usize) -> Result<u32> {
    get_array(data, at)
        .map(u32::from_le_bytes)
        .ok_or(KvError::Corrupt("u32"))
}

fn get_u64(data: &[u8], at: &mut usize) -> Result<u64> {
    get_array(data, at)
        .map(u64::from_le_bytes)
        .ok_or(KvError::Corrupt("u64"))
}

/// Encodes one entry: `[klen][vlen|TOMBSTONE][seq][key][value]`.
pub(crate) fn encode_entry(out: &mut Vec<u8>, e: EntryRef<'_>) {
    put_u32(out, e.key.len() as u32);
    put_u32(out, e.value.map_or(TOMBSTONE, |v| v.len() as u32));
    put_u64(out, e.seq);
    out.extend_from_slice(e.key);
    out.extend_from_slice(e.value.unwrap_or_default());
}

/// Decodes the entry at `*at` in place, advancing `*at` past it.
pub(crate) fn decode_entry<'d>(data: &'d [u8], at: &mut usize) -> Result<EntryRef<'d>> {
    let klen = get_u32(data, at)? as usize;
    let vlen = get_u32(data, at)?;
    let seq = get_u64(data, at)?;
    let key = get_bytes(data, at, klen)?;
    let value = if vlen == TOMBSTONE {
        None
    } else {
        Some(get_bytes(data, at, vlen as usize)?)
    };
    Ok(EntryRef { key, seq, value })
}

/// One data block's index entry.
#[derive(Debug, Clone)]
struct IndexEntry {
    first_key: Vec<u8>,
    offset: u64,
    len: u64,
}

/// An open SST: file handle plus in-memory index and bloom filter.
#[derive(Debug)]
pub struct Sst {
    /// Backing file.
    pub file: FileId,
    /// LSM level the file belongs to.
    pub level: u32,
    /// Smallest key in the table.
    pub smallest: Vec<u8>,
    /// Largest key in the table.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub entries: u64,
    /// Total bytes of data blocks (for level sizing).
    pub data_bytes: u64,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
}

impl Sst {
    /// True if `key` could be in this table's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        key >= self.smallest.as_slice() && key <= self.largest.as_slice()
    }

    /// True if the key ranges of `self` and `other` overlap.
    pub fn overlaps(&self, smallest: &[u8], largest: &[u8]) -> bool {
        !(largest < self.smallest.as_slice() || smallest > self.largest.as_slice())
    }

    /// Point lookup. Returns the newest `(seq, mutation)` for `key` in
    /// this table, plus the completion instant of any device reads. The
    /// block is searched in place; only a hit copies its value out.
    pub fn get(
        &self,
        backend: &mut dyn StorageBackend,
        key: &[u8],
        now: Nanos,
    ) -> Result<(Option<(u64, Mutation)>, Nanos)> {
        self.get_hashed(backend, key, key_hash(key), now)
    }

    /// [`Sst::get`] for a key whose [`key_hash`] the caller already has,
    /// so a lookup that probes several tables hashes its key once.
    pub fn get_hashed(
        &self,
        backend: &mut dyn StorageBackend,
        key: &[u8],
        hash: u64,
        now: Nanos,
    ) -> Result<(Option<(u64, Mutation)>, Nanos)> {
        // The filter first: nearly every table a lookup probes covers the
        // key, and nearly every filter rules it out.
        if !self.bloom.contains_hash(hash) || !self.covers(key) {
            return Ok((None, now));
        }
        // Last block whose first key <= key.
        let idx = match self
            .index
            .partition_point(|e| e.first_key.as_slice() <= key)
        {
            0 => return Ok((None, now)),
            n => n - 1,
        };
        let entry = &self.index[idx];
        let (view, done) = backend.read_shared(self.file, entry.offset, entry.len, now)?;
        let block: &[u8] = &view;
        let mut at = 0usize;
        while at < block.len() {
            let e = decode_entry(block, &mut at)?;
            match e.key.cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => {
                    return Ok((Some((e.seq, e.value.map(<[u8]>::to_vec))), done));
                }
                Ordering::Greater => break,
            }
        }
        Ok((None, done))
    }

    /// Reads every data block in index order, chaining `now` through the
    /// reads, and pushes a view of each onto `blocks` (compaction input,
    /// decoded in place by the crate's `merge` module). Returns the
    /// completion instant.
    pub fn read_blocks(
        &self,
        backend: &mut dyn StorageBackend,
        blocks: &mut Vec<FileView>,
        now: Nanos,
    ) -> Result<Nanos> {
        let mut t = now;
        for entry in &self.index {
            let (block, done) = backend.read_shared(self.file, entry.offset, entry.len, t)?;
            t = done;
            blocks.push(block);
        }
        Ok(t)
    }

    /// Opens an SST by reading its footer, index, and bloom filter from
    /// the backend. Every offset, length and count in those blocks is
    /// untrusted file content: ranges are checked by the backend's read,
    /// and counts are bounded by the bytes present before anything is
    /// allocated for them.
    pub fn open(
        backend: &mut dyn StorageBackend,
        file: FileId,
        level: u32,
        now: Nanos,
    ) -> Result<(Sst, Nanos)> {
        let len = backend.len(file)?;
        if len < FOOTER_BYTES {
            return Err(KvError::Corrupt("sst footer"));
        }
        let (footer, t1) = backend.read_shared(file, len - FOOTER_BYTES, FOOTER_BYTES, now)?;
        let mut at = 0usize;
        let index_off = get_u64(&footer, &mut at)?;
        let index_len = get_u64(&footer, &mut at)?;
        let bloom_off = get_u64(&footer, &mut at)?;
        let bloom_len = get_u64(&footer, &mut at)?;
        let (index_raw, t2) = backend.read_shared(file, index_off, index_len, t1)?;
        let (bloom_raw, t3) = backend.read_shared(file, bloom_off, bloom_len, t2)?;

        // Index: [n][klen key off len]*
        let mut at = 0usize;
        let n = get_u32(&index_raw, &mut at)? as usize;
        // An index entry is at least klen + off + len = 20 bytes.
        if n > index_raw.len() / 20 {
            return Err(KvError::Corrupt("sst index count"));
        }
        let mut index = Vec::with_capacity(n);
        for _ in 0..n {
            let klen = get_u32(&index_raw, &mut at)? as usize;
            let first_key = get_bytes(&index_raw, &mut at, klen)?.to_vec();
            let offset = get_u64(&index_raw, &mut at)?;
            let len = get_u64(&index_raw, &mut at)?;
            index.push(IndexEntry {
                first_key,
                offset,
                len,
            });
        }
        // Bloom: [num_bits][hashes][nwords][words]*
        let mut at = 0usize;
        let num_bits = get_u64(&bloom_raw, &mut at)?;
        let hashes = get_u32(&bloom_raw, &mut at)?;
        let nwords = get_u32(&bloom_raw, &mut at)? as usize;
        if nwords > bloom_raw.len() / 8 || num_bits == 0 || num_bits.div_ceil(64) != nwords as u64 {
            return Err(KvError::Corrupt("sst bloom size"));
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(get_u64(&bloom_raw, &mut at)?);
        }
        // Trailer of the bloom block: entry count, smallest, largest.
        let entries = get_u64(&bloom_raw, &mut at)?;
        let klen = get_u32(&bloom_raw, &mut at)? as usize;
        let smallest = get_bytes(&bloom_raw, &mut at, klen)?.to_vec();
        let klen = get_u32(&bloom_raw, &mut at)? as usize;
        let largest = get_bytes(&bloom_raw, &mut at, klen)?.to_vec();

        Ok((
            Sst {
                file,
                level,
                smallest,
                largest,
                entries,
                data_bytes: index_off,
                index,
                bloom: BloomFilter::from_words(words, num_bits, hashes),
            },
            t3,
        ))
    }
}

/// Streams sorted entries into a new SST file.
pub struct SstBuilder {
    file: FileId,
    level: u32,
    block_bytes: usize,
    /// The data block being filled; reused across blocks.
    block: Vec<u8>,
    index: Vec<IndexEntry>,
    /// [`key_hash`] of every key added; the bloom filter is sized and
    /// filled from these at [`SstBuilder::finish`].
    key_hashes: Vec<u64>,
    written: u64,
    smallest: Vec<u8>,
    /// Last key added; the buffer is reused.
    largest: Vec<u8>,
}

impl SstBuilder {
    /// Starts a new table at `level`, cutting data blocks at
    /// `block_bytes`.
    pub fn new(backend: &mut dyn StorageBackend, level: u32, block_bytes: usize) -> Self {
        let file = backend.create(FileHint::Sst { level });
        SstBuilder {
            file,
            level,
            block_bytes,
            block: Vec::new(),
            index: Vec::new(),
            key_hashes: Vec::new(),
            written: 0,
            smallest: Vec::new(),
            largest: Vec::new(),
        }
    }

    /// Current data bytes emitted (for file-size cutting by the caller).
    pub fn data_bytes(&self) -> u64 {
        self.written + self.block.len() as u64
    }

    /// Adds an entry; keys must arrive in strictly increasing order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when keys are out of order — the caller
    /// (memtable iteration or merge) is sorted by construction.
    pub fn add(
        &mut self,
        backend: &mut dyn StorageBackend,
        e: EntryRef<'_>,
        now: Nanos,
    ) -> Result<Nanos> {
        debug_assert!(
            self.key_hashes.is_empty() || e.key > self.largest.as_slice(),
            "keys must be added in order"
        );
        if self.key_hashes.is_empty() {
            self.smallest.extend_from_slice(e.key);
        }
        encode_entry(&mut self.block, e);
        self.key_hashes.push(key_hash(e.key));
        self.largest.clear();
        self.largest.extend_from_slice(e.key);
        if self.block.len() >= self.block_bytes {
            return self.flush_block(backend, now);
        }
        Ok(now)
    }

    fn flush_block(&mut self, backend: &mut dyn StorageBackend, now: Nanos) -> Result<Nanos> {
        if self.block.is_empty() {
            return Ok(now);
        }
        // The block's first key is the key of its first encoded entry.
        let first_key = decode_entry(&self.block, &mut 0)?.key.to_vec();
        let len = self.block.len() as u64;
        let done = backend.append(self.file, &self.block, now)?;
        self.index.push(IndexEntry {
            first_key,
            offset: self.written,
            len,
        });
        self.written += len;
        self.block.clear();
        Ok(done)
    }

    /// Finishes the table: writes index, bloom, and footer, syncs the
    /// file, and returns the open [`Sst`].
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Corrupt`] if no entries were added — empty
    /// tables are a logic error upstream.
    pub fn finish(mut self, backend: &mut dyn StorageBackend, now: Nanos) -> Result<(Sst, Nanos)> {
        if self.key_hashes.is_empty() {
            return Err(KvError::Corrupt("empty sst"));
        }
        let mut t = self.flush_block(backend, now)?;

        let index_off = self.written;
        let mut index_raw = Vec::new();
        put_u32(&mut index_raw, self.index.len() as u32);
        for e in &self.index {
            put_u32(&mut index_raw, e.first_key.len() as u32);
            index_raw.extend_from_slice(&e.first_key);
            put_u64(&mut index_raw, e.offset);
            put_u64(&mut index_raw, e.len);
        }
        t = backend.append(self.file, &index_raw, t)?;

        let entries = self.key_hashes.len() as u64;
        let mut bloom = BloomFilter::with_capacity(self.key_hashes.len(), 10);
        for &h in &self.key_hashes {
            bloom.insert_hash(h);
        }
        let (words, num_bits, hashes) = bloom.to_words();
        let bloom_off = index_off + index_raw.len() as u64;
        let mut bloom_raw = Vec::new();
        put_u64(&mut bloom_raw, num_bits);
        put_u32(&mut bloom_raw, hashes);
        put_u32(&mut bloom_raw, words.len() as u32);
        for w in words {
            put_u64(&mut bloom_raw, *w);
        }
        put_u64(&mut bloom_raw, entries);
        put_u32(&mut bloom_raw, self.smallest.len() as u32);
        bloom_raw.extend_from_slice(&self.smallest);
        put_u32(&mut bloom_raw, self.largest.len() as u32);
        bloom_raw.extend_from_slice(&self.largest);
        t = backend.append(self.file, &bloom_raw, t)?;

        let mut footer = Vec::new();
        put_u64(&mut footer, index_off);
        put_u64(&mut footer, index_raw.len() as u64);
        put_u64(&mut footer, bloom_off);
        put_u64(&mut footer, bloom_raw.len() as u64);
        t = backend.append(self.file, &footer, t)?;
        t = backend.sync(self.file, t)?;

        Ok((
            Sst {
                file: self.file,
                level: self.level,
                smallest: self.smallest,
                largest: self.largest,
                entries,
                data_bytes: index_off,
                index: self.index,
                bloom,
            },
            t,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ConvBackend;
    use bh_conv::{ConvConfig, ConvSsd};
    use bh_flash::{FlashConfig, Geometry};

    fn backend() -> ConvBackend {
        let geo = Geometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        ConvBackend::new(ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.15)).unwrap())
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:08}").into_bytes()
    }

    fn entry<'a>(key: &'a [u8], seq: u64, value: Option<&'a [u8]>) -> EntryRef<'a> {
        EntryRef { key, seq, value }
    }

    /// Keys `key(0)..key(n)` step `step`, every tenth a tombstone, cut
    /// into `block_bytes` data blocks.
    fn build_stepped(backend: &mut ConvBackend, n: u32, step: u32, block_bytes: usize) -> Sst {
        let mut b = SstBuilder::new(backend, 1, block_bytes);
        let mut t = Nanos::ZERO;
        for i in (0..n).step_by(step as usize) {
            let value = format!("value-{i}").into_bytes();
            let value = (i % 10 != 9).then_some(value.as_slice());
            t = b.add(backend, entry(&key(i), i as u64, value), t).unwrap();
        }
        b.finish(backend, t).unwrap().0
    }

    fn build(backend: &mut ConvBackend, n: u32) -> Sst {
        build_stepped(backend, n, 1, 4096)
    }

    #[test]
    fn entry_encoding_roundtrip() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, entry(b"k1", 7, Some(b"v1")));
        encode_entry(&mut buf, entry(b"k2", 8, None));
        encode_entry(&mut buf, entry(b"k3", 9, Some(b"")));
        let mut at = 0;
        assert_eq!(
            decode_entry(&buf, &mut at).unwrap(),
            entry(b"k1", 7, Some(b"v1"))
        );
        assert_eq!(decode_entry(&buf, &mut at).unwrap(), entry(b"k2", 8, None));
        assert_eq!(
            decode_entry(&buf, &mut at).unwrap(),
            entry(b"k3", 9, Some(b""))
        );
        assert_eq!(at, buf.len());
    }

    #[test]
    fn decode_of_truncated_entry_fails() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, entry(b"key", 1, Some(b"value")));
        buf.truncate(buf.len() - 2);
        let mut at = 0;
        assert!(decode_entry(&buf, &mut at).is_err());
    }

    #[test]
    fn build_and_get() {
        let mut be = backend();
        let sst = build(&mut be, 500);
        assert_eq!(sst.entries, 500);
        // Values present.
        let (hit, _) = sst.get(&mut be, &key(42), Nanos::ZERO).unwrap();
        assert_eq!(hit, Some((42, Some(b"value-42".to_vec()))));
        // Tombstones preserved.
        let (hit, _) = sst.get(&mut be, &key(9), Nanos::ZERO).unwrap();
        assert_eq!(hit, Some((9, None)));
        // Misses (in and out of range).
        let (miss, _) = sst.get(&mut be, b"key99999999", Nanos::ZERO).unwrap();
        assert_eq!(miss, None);
        let (miss, _) = sst.get(&mut be, b"aaa", Nanos::ZERO).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn open_roundtrips_metadata() {
        let mut be = backend();
        let sst = build(&mut be, 300);
        let file = sst.file;
        let (reopened, _) = Sst::open(&mut be, file, 1, Nanos::ZERO).unwrap();
        assert_eq!(reopened.entries, 300);
        assert_eq!(reopened.smallest, key(0));
        assert_eq!(reopened.largest, key(299));
        let (hit, _) = reopened.get(&mut be, &key(123), Nanos::ZERO).unwrap();
        assert_eq!(hit, Some((123, Some(b"value-123".to_vec()))));
    }

    /// Every entry of every block `read_blocks` returns, decoded.
    fn decode_all(blocks: &[FileView]) -> Vec<EntryRef<'_>> {
        let mut out = Vec::new();
        for block in blocks {
            let mut at = 0;
            while at < block.len() {
                out.push(decode_entry(block, &mut at).unwrap());
            }
        }
        out
    }

    #[test]
    fn read_blocks_returns_every_entry_in_order() {
        let mut be = backend();
        let sst = build_stepped(&mut be, 200, 1, 512);
        let mut blocks = Vec::new();
        let done = sst.read_blocks(&mut be, &mut blocks, Nanos::ZERO).unwrap();
        assert!(done > Nanos::ZERO);
        assert_eq!(blocks.len(), sst.index.len());
        assert!(
            blocks.len() > 4,
            "want several blocks, got {}",
            blocks.len()
        );
        let entries = decode_all(&blocks);
        assert_eq!(entries.len(), 200);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn get_at_block_edges_and_between_blocks() {
        let mut be = backend();
        // Even keys only, in small blocks: odd keys fall inside or
        // between blocks without being present.
        let sst = build_stepped(&mut be, 400, 2, 256);
        let mut blocks = Vec::new();
        sst.read_blocks(&mut be, &mut blocks, Nanos::ZERO).unwrap();
        assert!(blocks.len() > 8);
        for (b, block) in blocks.iter().enumerate() {
            let entries = decode_all(std::slice::from_ref(block));
            let (first, last) = (entries[0], entries[entries.len() - 1]);
            for e in [first, last] {
                let (hit, _) = sst.get(&mut be, e.key, Nanos::ZERO).unwrap();
                assert_eq!(hit, Some((e.seq, e.value.map(<[u8]>::to_vec))), "block {b}");
            }
            // The odd key just past a block's last key sorts before the
            // next block's first key.
            let gap = key(last.seq as u32 + 1);
            assert!(gap.as_slice() > last.key);
            if let Some(next) = blocks.get(b + 1) {
                assert!(gap.as_slice() < decode_all(std::slice::from_ref(next))[0].key);
            }
            // Whether the bloom filter or the block search rejects it,
            // the answer is a miss.
            let (miss, _) = sst.get(&mut be, &gap, Nanos::ZERO).unwrap();
            assert_eq!(miss, None, "gap after block {b}");
        }
    }

    #[test]
    fn tombstone_hit_is_reported_as_a_hit() {
        let mut be = backend();
        let sst = build(&mut be, 100);
        let (hit, _) = sst.get(&mut be, &key(19), Nanos::ZERO).unwrap();
        assert_eq!(hit, Some((19, None)));
    }

    #[test]
    fn bloom_false_positive_reads_the_block_and_misses() {
        let mut be = backend();
        let sst = build_stepped(&mut be, 2000, 2, 4096);
        // Absent (odd) keys inside the key range that the filter lets
        // through: ~1% of them at 10 bits per key.
        let false_positives: Vec<Vec<u8>> = (1..2000)
            .step_by(2)
            .map(key)
            .filter(|k| sst.bloom.contains(k))
            .collect();
        assert!(
            !false_positives.is_empty(),
            "no false positive among 1000 absent keys"
        );
        for k in &false_positives {
            let (miss, done) = sst.get(&mut be, k, Nanos::ZERO).unwrap();
            assert_eq!(miss, None);
            assert!(done > Nanos::ZERO, "a false positive pays the block read");
        }
        // A true negative costs no device read.
        let negative = (1..2000)
            .step_by(2)
            .map(key)
            .find(|k| !sst.bloom.contains(k))
            .unwrap();
        let (miss, done) = sst.get(&mut be, &negative, Nanos::ZERO).unwrap();
        assert_eq!((miss, done), (None, Nanos::ZERO));
    }

    /// Copies `file` into a new backend file with `edit` applied to its
    /// bytes — what a reader finds after media corruption.
    fn corrupted(be: &mut ConvBackend, file: FileId, edit: impl FnOnce(&mut Vec<u8>)) -> FileId {
        let len = be.len(file).unwrap();
        let (mut content, _) = be.read(file, 0, len, Nanos::ZERO).unwrap();
        edit(&mut content);
        let copy = be.create(FileHint::Sst { level: 1 });
        be.append(copy, &content, Nanos::ZERO).unwrap();
        copy
    }

    fn footer_of(content: &[u8]) -> [u64; 4] {
        let mut at = content.len() - FOOTER_BYTES as usize;
        [(); 4].map(|()| get_u64(content, &mut at).unwrap())
    }

    #[test]
    fn hostile_footer_is_a_typed_error_not_a_panic() {
        let mut be = backend();
        let file = build(&mut be, 300).file;
        // Sanity: an unedited copy opens.
        let copy = corrupted(&mut be, file, |_| {});
        assert_eq!(
            Sst::open(&mut be, copy, 1, Nanos::ZERO).unwrap().0.entries,
            300
        );

        const MAX: u64 = u64::MAX;
        // [index_off, index_len, bloom_off, bloom_len]; `None` keeps the
        // real value. Every range either overflows u64 or overruns the
        // file.
        let footers: [[Option<u64>; 4]; 7] = [
            [Some(MAX), Some(2), None, None],
            [Some(2), Some(MAX), None, None],
            [None, None, Some(MAX - 5), Some(10)],
            [None, None, Some(1), Some(MAX)],
            [Some(MAX), Some(MAX), Some(MAX), Some(MAX)],
            [Some(MAX / 2 + 1), Some(MAX / 2 + 1), None, None],
            [None, Some(1 << 40), None, None],
        ];
        for footer in footers {
            let copy = corrupted(&mut be, file, |content| {
                let real = footer_of(content);
                content.truncate(content.len() - FOOTER_BYTES as usize);
                for (hostile, real) in footer.iter().zip(real) {
                    put_u64(content, hostile.unwrap_or(real));
                }
            });
            assert!(
                matches!(
                    Sst::open(&mut be, copy, 1, Nanos::ZERO),
                    Err(KvError::ShortRead { .. })
                ),
                "footer {footer:?}"
            );
        }
    }

    #[test]
    fn hostile_counts_are_bounded_by_the_bytes_present() {
        let mut be = backend();
        let file = build(&mut be, 300).file;
        // (offset into the index or bloom block, which block) of each
        // count that sizes an allocation: the index's `n`, the first
        // index key's `klen`, the bloom's `nwords`.
        for (block, at) in [(0usize, 0usize), (0, 4), (2, 12)] {
            let copy = corrupted(&mut be, file, |content| {
                let off = footer_of(content)[block] as usize + at;
                content[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            });
            assert!(
                matches!(
                    Sst::open(&mut be, copy, 1, Nanos::ZERO),
                    Err(KvError::Corrupt(_))
                ),
                "count at {at} of footer field {block}"
            );
        }
        // A bloom whose bit count disagrees with its word count would
        // index out of bounds on the first lookup.
        let copy = corrupted(&mut be, file, |content| {
            let off = footer_of(content)[2] as usize;
            content[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert!(matches!(
            Sst::open(&mut be, copy, 1, Nanos::ZERO),
            Err(KvError::Corrupt("sst bloom size"))
        ));
    }

    #[test]
    fn overlap_and_cover_checks() {
        let mut be = backend();
        let sst = build(&mut be, 100);
        assert!(sst.covers(&key(50)));
        assert!(!sst.covers(&key(100)));
        assert!(sst.overlaps(&key(90), &key(200)));
        assert!(!sst.overlaps(&key(100), &key(200)));
        assert!(sst.overlaps(b"a".as_slice(), b"z".as_slice()));
    }

    #[test]
    fn empty_table_is_rejected() {
        let mut be = backend();
        let b = SstBuilder::new(&mut be, 0, 4096);
        assert!(matches!(
            b.finish(&mut be, Nanos::ZERO),
            Err(KvError::Corrupt("empty sst"))
        ));
    }
}
