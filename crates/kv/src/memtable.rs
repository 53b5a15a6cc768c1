//! The in-memory sorted write buffer.

use std::collections::BTreeMap;
use std::ops::Bound;

/// One logical mutation: a value or a tombstone.
pub type Mutation = Option<Vec<u8>>;

/// A sorted in-memory buffer of the newest mutations.
///
/// Keys map to `(sequence, mutation)`; a `None` mutation is a tombstone
/// shadowing older versions in the SST levels below.
#[derive(Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<Vec<u8>, (u64, Mutation)>,
    /// Bytes inserted since the last [`Memtable::take`]; see
    /// [`Memtable::approximate_bytes`].
    bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a mutation with its sequence number, replacing any older
    /// entry for the key.
    pub fn insert(&mut self, key: Vec<u8>, seq: u64, mutation: Mutation) {
        self.bytes += key.len() + mutation.as_ref().map(Vec::len).unwrap_or(0) + 24;
        self.entries.insert(key, (seq, mutation));
    }

    /// Looks up the newest mutation for `key`, if buffered.
    pub fn get(&self, key: &[u8]) -> Option<&(u64, Mutation)> {
        self.entries.get(key)
    }

    /// Number of buffered keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes *inserted* since the last [`Memtable::take`]: key + value +
    /// 24 per insert, arena-style as in RocksDB — replacing a key does
    /// not give its old entry's bytes back. The flush trigger compares
    /// this with `DbConfig::memtable_bytes`, so flush timing, and with it
    /// every E5/E6 number, depends on this rule; "fixing" it to resident
    /// bytes is a model change.
    pub fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &(u64, Mutation))> {
        self.entries.iter()
    }

    /// Iterates entries with keys in `[from, to)`.
    pub fn range(
        &self,
        from: &[u8],
        to: &[u8],
    ) -> impl Iterator<Item = (&Vec<u8>, &(u64, Mutation))> {
        self.entries
            .range::<[u8], _>((Bound::Included(from), Bound::Excluded(to)))
    }

    /// Drains the table for a flush, leaving it empty.
    pub fn take(&mut self) -> BTreeMap<Vec<u8>, (u64, Mutation)> {
        self.bytes = 0;
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_latest_wins() {
        let mut m = Memtable::new();
        m.insert(b"a".to_vec(), 1, Some(b"1".to_vec()));
        m.insert(b"a".to_vec(), 2, Some(b"2".to_vec()));
        assert_eq!(m.get(b"a"), Some(&(2, Some(b"2".to_vec()))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstones_are_entries() {
        let mut m = Memtable::new();
        m.insert(b"a".to_vec(), 1, Some(b"1".to_vec()));
        m.insert(b"a".to_vec(), 2, None);
        assert_eq!(m.get(b"a"), Some(&(2, None)));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Memtable::new();
        for k in [b"c".to_vec(), b"a".to_vec(), b"b".to_vec()] {
            m.insert(k, 0, None);
        }
        let keys: Vec<_> = m.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn range_is_half_open() {
        let mut m = Memtable::new();
        for k in [b"a", b"b", b"c", b"d"] {
            m.insert(k.to_vec(), 0, None);
        }
        let keys: Vec<_> = m.range(b"b", b"d").map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn replacing_a_key_counts_both_inserts() {
        let mut m = Memtable::new();
        m.insert(b"key".to_vec(), 1, Some(vec![0; 100]));
        assert_eq!(m.approximate_bytes(), 3 + 100 + 24);
        m.insert(b"key".to_vec(), 2, Some(vec![0; 10]));
        assert_eq!(m.len(), 1);
        assert_eq!(m.approximate_bytes(), (3 + 100 + 24) + (3 + 10 + 24));
        m.insert(b"key".to_vec(), 3, None);
        assert_eq!(
            m.approximate_bytes(),
            (3 + 100 + 24) + (3 + 10 + 24) + (3 + 24)
        );
    }

    #[test]
    fn take_empties_and_resets_size() {
        let mut m = Memtable::new();
        m.insert(b"a".to_vec(), 1, Some(vec![0; 100]));
        assert!(m.approximate_bytes() >= 100);
        let drained = m.take();
        assert_eq!(drained.len(), 1);
        assert!(m.is_empty());
        assert_eq!(m.approximate_bytes(), 0);
    }
}
