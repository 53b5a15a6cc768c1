//! Compaction's k-way merge over borrowed block bytes.
//!
//! A *run* is a list of encoded data blocks whose entries, read block
//! after block, are in strictly increasing key order: one L0 file, or
//! the disjoint key-ordered files of a deeper level taken together. The
//! merge decodes every entry in place — the blocks are the
//! [`FileView`]s `StorageBackend::read_shared` returned, sharing the
//! input files' bytes with the backend, and what reaches the caller is
//! an [`EntryRef`] borrowing them — so compaction copies no input block,
//! moves each input byte once, into the output block, and allocates
//! nothing per entry.

use crate::backend::FileView;
use crate::sst::{decode_entry, EntryRef};
use crate::Result;
use std::cmp::Ordering;

/// The blocks of one sorted run, in order.
pub(crate) type Run = Vec<FileView>;

/// A position in a run, with the entry there decoded.
struct Cursor<'a> {
    /// The current block's bytes.
    block: &'a [u8],
    /// The blocks after the current one.
    rest: std::slice::Iter<'a, FileView>,
    /// Offset of the entry after `head` in the current block.
    at: usize,
    head: Option<EntryRef<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(run: &'a Run) -> Result<Self> {
        let mut c = Cursor {
            block: &[],
            rest: run.iter(),
            at: 0,
            head: None,
        };
        c.advance()?;
        Ok(c)
    }

    fn advance(&mut self) -> Result<()> {
        while self.at >= self.block.len() {
            let Some(next) = self.rest.next() else {
                self.head = None;
                return Ok(());
            };
            self.block = next;
            self.at = 0;
        }
        self.head = Some(decode_entry(self.block, &mut self.at)?);
        Ok(())
    }
}

/// Merges `runs` and hands `emit` the surviving entries in key order:
/// for each key the entry with the highest sequence number, the earliest
/// run winning a tie. With `drop_tombstones` (compaction into the bottom
/// of the tree, where nothing below can resurrect a key) a key whose
/// newest entry is a tombstone is dropped.
///
/// Compactions merge one lower-level run and at most `l0_files + 1`
/// upper files, so the smallest head is found by a linear scan.
pub(crate) fn merge_runs<'a>(
    runs: &'a [Run],
    drop_tombstones: bool,
    mut emit: impl FnMut(EntryRef<'a>) -> Result<()>,
) -> Result<()> {
    let mut cursors = runs.iter().map(Cursor::new).collect::<Result<Vec<_>>>()?;
    loop {
        let mut newest: Option<EntryRef<'a>> = None;
        for e in cursors.iter().filter_map(|c| c.head) {
            let better = match newest {
                None => true,
                Some(n) => match e.key.cmp(n.key) {
                    Ordering::Less => true,
                    Ordering::Equal => e.seq > n.seq,
                    Ordering::Greater => false,
                },
            };
            if better {
                newest = Some(e);
            }
        }
        let Some(newest) = newest else {
            return Ok(());
        };
        // A run holds a key at most once: step every run that is on it.
        for c in &mut cursors {
            if c.head.is_some_and(|e| e.key == newest.key) {
                c.advance()?;
            }
        }
        if !(drop_tombstones && newest.value.is_none()) {
            emit(newest)?;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::KvError;
    use crate::memtable::Mutation;
    use crate::sst::encode_entry;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    pub(crate) type Owned = (Vec<u8>, u64, Mutation);

    /// The seeds a property runs: `cases` fixed ones derived from `base`,
    /// or the one `BH_PROP_SEED` names, to replay a failure.
    pub(crate) fn seeds(base: u64, cases: u64) -> Vec<u64> {
        match std::env::var("BH_PROP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            Some(seed) => vec![seed],
            None => (0..cases).map(|c| base ^ c).collect(),
        }
    }

    /// Encodes a sorted run, cutting a block whenever it reaches
    /// `block_bytes` (as `SstBuilder` does) and starting a new "file"
    /// with an empty block now and then — an exhausted block in the
    /// middle of a run is legal input.
    fn encode_run(entries: &[Owned], block_bytes: usize, rng: &mut SmallRng) -> Run {
        let mut run: Vec<Vec<u8>> = vec![Vec::new()];
        for (key, seq, value) in entries {
            if rng.gen_range(0u32..16) == 0 {
                run.push(Vec::new());
            }
            let e = EntryRef {
                key,
                seq: *seq,
                value: value.as_deref(),
            };
            let block = run.last_mut().unwrap();
            encode_entry(block, e);
            if block.len() >= block_bytes {
                run.push(Vec::new());
            }
        }
        run.into_iter().map(FileView::from).collect()
    }

    /// The merge this module replaced: every entry through a `BTreeMap`,
    /// runs in order, an entry replacing what is there only when its
    /// sequence number is strictly higher.
    pub(crate) fn reference(runs: &[Vec<Owned>], drop_tombstones: bool) -> Vec<Owned> {
        let mut merged: BTreeMap<Vec<u8>, (u64, Mutation)> = BTreeMap::new();
        for run in runs {
            for (key, seq, value) in run {
                match merged.get(key) {
                    Some(&(existing_seq, _)) if existing_seq >= *seq => {}
                    _ => {
                        merged.insert(key.clone(), (*seq, value.clone()));
                    }
                }
            }
        }
        merged
            .into_iter()
            .filter(|(_, (_, value))| !(drop_tombstones && value.is_none()))
            .map(|(key, (seq, value))| (key, seq, value))
            .collect()
    }

    pub(crate) fn merged(runs: &[Run], drop_tombstones: bool) -> Vec<Owned> {
        let mut out = Vec::new();
        merge_runs(runs, drop_tombstones, |e| {
            out.push((e.key.to_vec(), e.seq, e.value.map(<[u8]>::to_vec)));
            Ok(())
        })
        .unwrap();
        out
    }

    fn random_runs(rng: &mut SmallRng) -> Vec<Vec<Owned>> {
        let n_runs = rng.gen_range(0usize..7);
        let key_space = rng.gen_range(1u32..400);
        (0..n_runs)
            .map(|_| {
                // Empty, single-entry and dense runs all occur.
                let density = rng.gen_range(0u32..4);
                let mut run = Vec::new();
                for k in 0..key_space {
                    if density == 0 || rng.gen_range(0u32..4) >= density {
                        continue;
                    }
                    // Few distinct sequence numbers, so ties across runs
                    // are common and the earliest-run rule is exercised.
                    let seq = rng.gen_range(0u64..12);
                    let value = match rng.gen_range(0u32..4) {
                        0 => None,
                        _ => {
                            let len = rng.gen_range(0usize..90);
                            Some((0..len).map(|_| rng.gen_range(0u32..256) as u8).collect())
                        }
                    };
                    run.push((format!("k{k:05}").into_bytes(), seq, value));
                }
                run
            })
            .collect()
    }

    #[test]
    fn merge_matches_the_btreemap_reference() {
        for seed in seeds(0x4D45_5247, 300) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let runs = random_runs(&mut rng);
            let block_bytes = rng.gen_range(1usize..600);
            let encoded: Vec<Run> = runs
                .iter()
                .map(|r| encode_run(r, block_bytes, &mut rng))
                .collect();
            for drop_tombstones in [false, true] {
                assert_eq!(
                    merged(&encoded, drop_tombstones),
                    reference(&runs, drop_tombstones),
                    "BH_PROP_SEED={seed} drop_tombstones={drop_tombstones}"
                );
            }
        }
    }

    #[test]
    fn equal_sequence_numbers_keep_the_earliest_run() {
        let run = |v: &[u8]| vec![(b"k".to_vec(), 5u64, Some(v.to_vec()))];
        let runs = vec![run(b"first"), run(b"second")];
        let mut rng = SmallRng::seed_from_u64(0);
        let encoded: Vec<Run> = runs.iter().map(|r| encode_run(r, 64, &mut rng)).collect();
        assert_eq!(merged(&encoded, false), run(b"first"));
        assert_eq!(merged(&encoded, false), reference(&runs, false));
    }

    #[test]
    fn no_runs_and_empty_runs_emit_nothing() {
        assert!(merged(&[], true).is_empty());
        let empty = || FileView::from(Vec::new());
        assert!(merged(&[vec![], vec![empty(), empty()]], false).is_empty());
    }

    #[test]
    fn a_truncated_block_is_a_typed_error() {
        let mut block = Vec::new();
        encode_entry(
            &mut block,
            EntryRef {
                key: b"key",
                seq: 1,
                value: Some(b"value"),
            },
        );
        block.truncate(block.len() - 2);
        let runs = vec![vec![FileView::from(block)]];
        let r = merge_runs(&runs, false, |_| Ok(()));
        assert!(matches!(r, Err(KvError::Corrupt(_))));
    }
}
