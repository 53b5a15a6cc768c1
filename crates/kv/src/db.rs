//! The LSM database: WAL + memtable + leveled SSTs.
//!
//! A deliberately RocksDB-shaped engine: puts append to a write-ahead log
//! and a sorted memtable; full memtables flush to level-0 tables; leveled
//! compaction keeps each level within a size target growing by a fixed
//! multiplier. Reads consult memtable → L0 (newest first) → L1+ (one
//! table per level by key range).
//!
//! Every operation takes and returns virtual instants, so experiment E5
//! can measure read tail latency while compaction traffic hits the
//! device, and E6 can compare device-level write amplification across
//! backends.
//!
//! Flush and compaction never own an entry: the memtable lends its keys
//! and values to [`SstBuilder`], and compaction k-way merges (`merge`)
//! views of the input blocks that share the backend's bytes. The *order*
//! of backend calls is part of the model — each call advances virtual
//! time on the device — so a compaction reads every input block (lower
//! files in level order, then upper files in list order) before it
//! creates its first output. Interleaving reads with writes would issue the same
//! I/O at different instants and move every E5/E6 number;
//! `tests/tests/kv_lockstep.rs` pins the call transcript.

use crate::backend::{FileHint, FileId, StorageBackend};
use crate::bloom::key_hash;
use crate::memtable::{Memtable, Mutation};
use crate::merge::{merge_runs, Run};
use crate::sst::{decode_entry, encode_entry, EntryRef, Sst, SstBuilder};
use crate::Result;
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::{KvEvent, Tracer};

/// Tuning parameters for a [`Db`].
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Flush the memtable at this resident size.
    pub memtable_bytes: usize,
    /// Compact L0 when it holds more than this many files.
    pub l0_files: usize,
    /// Size target for L1; level `n` targets `level_base_bytes ×
    /// multiplier^(n-1)`.
    pub level_base_bytes: u64,
    /// Per-level size multiplier (RocksDB default: 10).
    pub level_multiplier: u64,
    /// Cut SST files at this many data bytes during compaction.
    pub sst_bytes: u64,
    /// Data-block size inside SSTs.
    pub block_bytes: usize,
    /// Sync the WAL every N puts (group commit).
    pub sync_every: u32,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            memtable_bytes: 256 << 10,
            l0_files: 4,
            level_base_bytes: 1 << 20,
            level_multiplier: 10,
            sst_bytes: 256 << 10,
            block_bytes: 4096,
            sync_every: 64,
        }
    }
}

/// Activity counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbStats {
    /// Puts and deletes accepted.
    pub writes: u64,
    /// Gets served.
    pub reads: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Application payload bytes written (keys + values).
    pub app_bytes: u64,
    /// Encoded record bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Bytes written into SSTs by flushes and compactions.
    pub sst_bytes_written: u64,
    /// The compactions' share of `sst_bytes_written`.
    pub compaction_bytes: u64,
}

impl DbStats {
    /// Application-level write amplification: SST bytes per payload byte.
    pub fn app_write_amplification(&self) -> f64 {
        if self.app_bytes == 0 {
            return 1.0;
        }
        self.sst_bytes_written as f64 / self.app_bytes as f64
    }
}

/// An LSM key-value store over a [`StorageBackend`].
///
/// # Examples
///
/// ```
/// use bh_kv::{ConvBackend, Db, DbConfig};
/// use bh_conv::{ConvConfig, ConvSsd};
/// use bh_flash::{FlashConfig, Geometry};
/// use bh_metrics::Nanos;
///
/// let geo = Geometry::experiment(16);
/// let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.1)).unwrap();
/// let mut db = Db::new(ConvBackend::new(ssd), DbConfig::default()).unwrap();
/// let t = db.put(b"k".to_vec(), b"v".to_vec(), Nanos::ZERO).unwrap();
/// let (v, _) = db.get(b"k", t).unwrap();
/// assert_eq!(v, Some(b"v".to_vec()));
/// ```
pub struct Db<B: StorageBackend> {
    backend: B,
    cfg: DbConfig,
    mem: Memtable,
    wal: FileId,
    puts_since_sync: u32,
    /// `levels[0]` holds overlapping files newest-last; deeper levels are
    /// sorted by key and non-overlapping.
    levels: Vec<Vec<Sst>>,
    seq: u64,
    stats: DbStats,
    tracer: Tracer,
    /// Reusable WAL-record encode buffer, so each put/delete serializes
    /// without allocating.
    record: Vec<u8>,
}

impl<B: StorageBackend> Db<B> {
    /// Opens an empty database over `backend`.
    pub fn new(mut backend: B, cfg: DbConfig) -> Result<Self> {
        let wal = backend.create(FileHint::Wal);
        Ok(Db {
            backend,
            cfg,
            mem: Memtable::new(),
            wal,
            puts_since_sync: 0,
            levels: vec![Vec::new()],
            seq: 0,
            stats: DbStats::default(),
            tracer: Tracer::disabled(),
            record: Vec::new(),
        })
    }

    /// Installs a tracer, cascading it into the storage backend so LSM
    /// events and device events share one ordered stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.backend.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The tracer currently installed (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Writes the backend's slots of `snap` and the store's WAL and
    /// compaction bytes, from the stats each layer keeps.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.backend.obs_into(snap);
        snap.set(Ctr::KvWalBytes, self.stats.wal_bytes);
        snap.set(Ctr::KvCompactionBytes, self.stats.compaction_bytes);
    }

    /// Activity counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The storage backend, for device-level statistics.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Files per level, for shape assertions in tests.
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    fn write_internal(&mut self, key: Vec<u8>, mutation: Mutation, now: Nanos) -> Result<Nanos> {
        self.seq += 1;
        self.stats.writes += 1;
        self.stats.app_bytes += (key.len() + mutation.as_ref().map(Vec::len).unwrap_or(0)) as u64;
        let mut record = std::mem::take(&mut self.record);
        record.clear();
        encode_entry(
            &mut record,
            EntryRef {
                key: &key,
                seq: self.seq,
                value: mutation.as_deref(),
            },
        );
        self.stats.wal_bytes += record.len() as u64;
        let append = self.backend.append(self.wal, &record, now);
        self.record = record;
        let mut t = append?;
        self.puts_since_sync += 1;
        if self.puts_since_sync >= self.cfg.sync_every {
            t = self.backend.sync(self.wal, t)?;
            self.puts_since_sync = 0;
        }
        self.mem.insert(key, self.seq, mutation);
        if self.mem.approximate_bytes() >= self.cfg.memtable_bytes {
            t = self.flush(t)?;
            t = self.maybe_compact(t)?;
        }
        Ok(t)
    }

    /// Stores `value` under `key`. Returns the completion instant,
    /// including any flush/compaction the write triggered (write stalls
    /// are real in LSM stores).
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>, now: Nanos) -> Result<Nanos> {
        self.write_internal(key, Some(value), now)
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&mut self, key: Vec<u8>, now: Nanos) -> Result<Nanos> {
        self.write_internal(key, None, now)
    }

    /// Looks up `key`. Returns the value (or `None`) and the completion
    /// instant of the device reads involved.
    pub fn get(&mut self, key: &[u8], now: Nanos) -> Result<(Option<Vec<u8>>, Nanos)> {
        self.stats.reads += 1;
        if let Some((_seq, mutation)) = self.mem.get(key) {
            return Ok((mutation.clone(), now));
        }
        let hash = key_hash(key);
        // L0: newest file first (files are pushed in flush order).
        let mut t = now;
        for sst in self.levels[0].iter().rev() {
            let (hit, done) = sst.get_hashed(&mut self.backend, key, hash, t)?;
            t = done;
            if let Some((_seq, mutation)) = hit {
                return Ok((mutation, t));
            }
        }
        // Deeper levels: at most one file covers the key.
        for level in self.levels.iter().skip(1) {
            let idx = level.partition_point(|s| s.largest.as_slice() < key);
            if let Some(sst) = level.get(idx) {
                let (hit, done) = sst.get_hashed(&mut self.backend, key, hash, t)?;
                t = done;
                if let Some((_seq, mutation)) = hit {
                    return Ok((mutation, t));
                }
            }
        }
        Ok((None, t))
    }

    /// Flushes the memtable into a new L0 table and starts a fresh WAL.
    /// No-op when the memtable is empty.
    pub fn flush(&mut self, now: Nanos) -> Result<Nanos> {
        if self.mem.is_empty() {
            return Ok(now);
        }
        let entries = self.mem.take();
        let mut builder = SstBuilder::new(&mut self.backend, 0, self.cfg.block_bytes);
        let mut t = now;
        for (key, (seq, mutation)) in &entries {
            let e = EntryRef {
                key,
                seq: *seq,
                value: mutation.as_deref(),
            };
            t = builder.add(&mut self.backend, e, t)?;
        }
        let (sst, done) = builder.finish(&mut self.backend, t)?;
        t = done;
        self.stats.sst_bytes_written += sst.data_bytes;
        if self.tracer.enabled() {
            let page = self.backend.page_bytes() as u64;
            self.tracer.emit(
                t,
                KvEvent::Flush {
                    entries: entries.len() as u64,
                    pages: sst.data_bytes.div_ceil(page),
                },
            );
        }
        self.levels[0].push(sst);
        self.stats.flushes += 1;
        // The WAL's contents are now durable in the SST; replace it.
        let old = self.wal;
        self.wal = self.backend.create(FileHint::Wal);
        self.puts_since_sync = 0;
        t = self.backend.delete(old, t)?;
        t = self.backend.maintenance(t)?;
        Ok(t)
    }

    /// Size target for `level` (1-based depth below L0).
    fn level_target(&self, level: usize) -> u64 {
        let mut target = self.cfg.level_base_bytes;
        for _ in 1..level {
            target = target.saturating_mul(self.cfg.level_multiplier);
        }
        target
    }

    fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|l| l.iter().map(|s| s.data_bytes).sum())
            .unwrap_or(0)
    }

    /// Runs compactions until every level is within its target. Returns
    /// the completion instant.
    pub fn maybe_compact(&mut self, now: Nanos) -> Result<Nanos> {
        let mut t = now;
        // Bounded: each iteration strictly reduces upper-level debt.
        for _ in 0..64 {
            if self.levels[0].len() > self.cfg.l0_files {
                t = self.compact_level(0, t)?;
                continue;
            }
            let mut compacted = false;
            for level in 1..self.levels.len() {
                if self.level_bytes(level) > self.level_target(level) {
                    t = self.compact_level(level, t)?;
                    compacted = true;
                    break;
                }
            }
            if !compacted {
                return Ok(t);
            }
        }
        Ok(t)
    }

    /// Compacts `level` into `level + 1`.
    fn compact_level(&mut self, level: usize, now: Nanos) -> Result<Nanos> {
        if self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        // Inputs: all of L0 (overlapping), or the oldest-range file of a
        // deeper level.
        let upper: Vec<Sst> = if level == 0 {
            std::mem::take(&mut self.levels[0])
        } else {
            // Rotate through the level by taking the file with the
            // smallest key (simple deterministic pick).
            vec![self.levels[level].remove(0)]
        };
        let smallest = upper
            .iter()
            .map(|s| s.smallest.as_slice())
            .min()
            .expect("inputs");
        let largest = upper
            .iter()
            .map(|s| s.largest.as_slice())
            .max()
            .expect("inputs");
        // Overlapping files in the level below.
        let lower_level = &mut self.levels[level + 1];
        let mut lower = Vec::new();
        let mut i = 0;
        while i < lower_level.len() {
            if lower_level[i].overlaps(smallest, largest) {
                lower.push(lower_level.remove(i));
            } else {
                i += 1;
            }
        }

        // Read every input block before the first output is created:
        // the device sees all compaction reads, then all writes, and the
        // virtual instants chained through `t` depend on that order.
        let (runs, mut t) = read_runs(&mut self.backend, &lower, &upper, now)?;
        // Drop tombstones when compacting into the bottom of the tree —
        // nothing below can resurrect the key.
        let is_bottom =
            self.levels.len() == level + 2 || self.levels[level + 2..].iter().all(Vec::is_empty);

        // Merge: newest version of each key wins (sequence numbers
        // decide; the lower level comes first, so it keeps a tie).
        // Outputs are cut at sst_bytes.
        let out_level = (level + 1) as u32;
        let mut outputs: Vec<Sst> = Vec::new();
        let (backend, cfg) = (&mut self.backend, &self.cfg);
        let mut builder: Option<SstBuilder> = None;
        merge_runs(&runs, is_bottom, |e| {
            let b =
                builder.get_or_insert_with(|| SstBuilder::new(backend, out_level, cfg.block_bytes));
            t = b.add(backend, e, t)?;
            if b.data_bytes() >= cfg.sst_bytes {
                let (sst, done) = builder.take().expect("just used").finish(backend, t)?;
                t = done;
                outputs.push(sst);
            }
            Ok(())
        })?;
        if let Some(b) = builder {
            let (sst, done) = b.finish(backend, t)?;
            t = done;
            outputs.push(sst);
        }
        for sst in &outputs {
            self.stats.sst_bytes_written += sst.data_bytes;
            self.stats.compaction_bytes += sst.data_bytes;
        }

        // Install outputs sorted by key; delete inputs.
        if self.tracer.enabled() {
            let page = self.backend.page_bytes() as u64;
            let pages_out: u64 = outputs.iter().map(|s| s.data_bytes.div_ceil(page)).sum();
            self.tracer.emit(
                t,
                KvEvent::Compaction {
                    tables_in: (upper.len() + lower.len()) as u32,
                    pages_out,
                },
            );
        }
        let lower_level = &mut self.levels[level + 1];
        lower_level.extend(outputs);
        lower_level.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        for sst in upper.into_iter().chain(lower) {
            t = self.backend.delete(sst.file, t)?;
        }
        t = self.backend.maintenance(t)?;
        self.stats.compactions += 1;
        Ok(t)
    }

    /// Simulates a crash: the memtable and any unsynced WAL tail are
    /// lost; the database state is rebuilt from the durable WAL prefix
    /// and the existing SSTs. Returns the number of recovered mutations.
    pub fn crash_and_recover(&mut self, now: Nanos) -> Result<u64> {
        self.mem = Memtable::new();
        let durable = self.backend.durable_len(self.wal)?;
        let (raw, _t) = self.backend.read_shared(self.wal, 0, durable, now)?;
        let mut recovered = 0;
        let mut at = 0usize;
        while at < raw.len() {
            let before = at;
            match decode_entry(&raw, &mut at) {
                Ok(e) => {
                    self.mem
                        .insert(e.key.to_vec(), e.seq, e.value.map(<[u8]>::to_vec));
                    self.seq = self.seq.max(e.seq);
                    recovered += 1;
                }
                Err(_) => {
                    // Torn tail record: everything before `before` was
                    // intact; drop the tail.
                    let _ = before;
                    break;
                }
            }
        }
        Ok(recovered)
    }
}

/// Reads the data blocks of a compaction's inputs — lower files in level
/// order, then upper files in list order, each file's blocks in index
/// order, `now` chained through every read — and groups them into the
/// sorted runs [`merge_runs`] takes: the disjoint, key-ordered lower
/// files form one run (the first, so the lower level keeps a
/// sequence-number tie), each upper file (overlapping in L0) its own.
fn read_runs(
    backend: &mut dyn StorageBackend,
    lower: &[Sst],
    upper: &[Sst],
    now: Nanos,
) -> Result<(Vec<Run>, Nanos)> {
    let mut t = now;
    let mut runs = vec![Run::new(); 1 + upper.len()];
    for sst in lower {
        t = sst.read_blocks(backend, &mut runs[0], t)?;
    }
    for (sst, run) in upper.iter().zip(&mut runs[1..]) {
        t = sst.read_blocks(backend, run, t)?;
    }
    Ok((runs, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ConvBackend, ZnsBackend};
    use bh_conv::{ConvConfig, ConvSsd};
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::{ZnsConfig, ZnsDevice};

    fn small_cfg() -> DbConfig {
        DbConfig {
            memtable_bytes: 8 << 10,
            l0_files: 2,
            level_base_bytes: 32 << 10,
            level_multiplier: 4,
            sst_bytes: 16 << 10,
            block_bytes: 4096,
            sync_every: 16,
        }
    }

    fn conv_db() -> Db<ConvBackend> {
        let geo = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 40,
            pages_per_block: 32,
            page_bytes: 4096,
        };
        let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.15)).unwrap();
        Db::new(ConvBackend::new(ssd), small_cfg()).unwrap()
    }

    fn zns_db() -> Db<ZnsBackend> {
        let geo = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 40,
            pages_per_block: 32,
            page_bytes: 4096,
        };
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(geo), 8);
        cfg.max_active_zones = 14;
        cfg.max_open_zones = 14;
        Db::new(ZnsBackend::new(ZnsDevice::new(cfg).unwrap()), small_cfg()).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("user{i:010}").into_bytes()
    }

    fn value(i: u64) -> Vec<u8> {
        format!("payload-{i:06}-{}", "x".repeat(50)).into_bytes()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut db = conv_db();
        let t = db.put(key(1), value(1), Nanos::ZERO).unwrap();
        let (v, _) = db.get(&key(1), t).unwrap();
        assert_eq!(v, Some(value(1)));
        let (miss, _) = db.get(&key(2), t).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn overwrites_return_newest() {
        let mut db = conv_db();
        let mut t = Nanos::ZERO;
        // Enough churn to force flushes and compactions.
        for round in 0..6u64 {
            for i in 0..300u64 {
                t = db.put(key(i), value(i * 1000 + round), t).unwrap();
            }
        }
        assert!(db.stats().flushes > 0);
        for i in (0..300u64).step_by(17) {
            let (v, done) = db.get(&key(i), t).unwrap();
            assert_eq!(v, Some(value(i * 1000 + 5)), "key {i}");
            t = done;
        }
    }

    #[test]
    fn deletes_shadow_older_values() {
        let mut db = conv_db();
        let mut t = Nanos::ZERO;
        for i in 0..300u64 {
            t = db.put(key(i), value(i), t).unwrap();
        }
        t = db.flush(t).unwrap();
        for i in (0..300u64).step_by(2) {
            t = db.delete(key(i), t).unwrap();
        }
        t = db.flush(t).unwrap();
        t = db.maybe_compact(t).unwrap();
        let (gone, _) = db.get(&key(0), t).unwrap();
        assert_eq!(gone, None);
        let (kept, _) = db.get(&key(1), t).unwrap();
        assert_eq!(kept, Some(value(1)));
    }

    #[test]
    fn compaction_keeps_levels_bounded() {
        let mut db = conv_db();
        let mut t = Nanos::ZERO;
        for i in 0..3000u64 {
            t = db.put(key(i % 600), value(i), t).unwrap();
        }
        t = db.flush(t).unwrap();
        let _ = db.maybe_compact(t).unwrap();
        let counts = db.level_file_counts();
        assert!(
            counts[0] <= small_cfg().l0_files,
            "L0 over target: {counts:?}"
        );
        assert!(db.stats().compactions > 0);
        // Deeper levels are sorted and non-overlapping.
        for level in db.levels.iter().skip(1) {
            for w in level.windows(2) {
                assert!(w[0].largest < w[1].smallest);
            }
        }
    }

    /// The compaction data path from real files: several disjoint lower
    /// files and overlapping upper files, each cut into many blocks,
    /// through `read_runs` + `merge_runs`, against the `BTreeMap` merge
    /// the store used to run (`merge::tests::reference`: lower files
    /// first, then upper files).
    #[test]
    fn compaction_inputs_merge_like_the_btreemap_reference() {
        use crate::merge::tests::{merged, reference, Owned};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn build(be: &mut ConvBackend, level: u32, entries: &[Owned]) -> Sst {
            let mut b = SstBuilder::new(be, level, 200);
            let mut t = Nanos::ZERO;
            for (key, seq, value) in entries {
                let e = EntryRef {
                    key,
                    seq: *seq,
                    value: value.as_deref(),
                };
                t = b.add(be, e, t).unwrap();
            }
            b.finish(be, t).unwrap().0
        }

        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0_4D50 ^ seed);
            let entries = |rng: &mut SmallRng, keys: std::ops::Range<u64>| -> Vec<Owned> {
                let mut out = Vec::new();
                for k in keys {
                    if rng.gen_range(0u32..3) > 0 {
                        let value = (rng.gen_range(0u32..4) > 0).then(|| value(k));
                        out.push((key(k), rng.gen_range(0u64..8), value));
                    }
                }
                out
            };
            let mut be = conv_db().backend;
            // Lower level: up to three files over disjoint key ranges.
            let lower_inputs: Vec<Vec<Owned>> = (0..rng.gen_range(0u64..4))
                .map(|f| entries(&mut rng, f * 40..f * 40 + 40))
                .filter(|e| !e.is_empty())
                .collect();
            // Upper level: up to four files, each over the whole range.
            let upper_inputs: Vec<Vec<Owned>> = (0..rng.gen_range(0u64..5))
                .map(|_| entries(&mut rng, 0..120))
                .filter(|e| !e.is_empty())
                .collect();
            let lower: Vec<Sst> = lower_inputs.iter().map(|e| build(&mut be, 1, e)).collect();
            let upper: Vec<Sst> = upper_inputs.iter().map(|e| build(&mut be, 0, e)).collect();

            let (runs, _) = read_runs(&mut be, &lower, &upper, Nanos::ZERO).unwrap();
            assert_eq!(runs.len(), 1 + upper.len(), "seed {seed}");
            // The reference takes the lower level as the one run it is.
            let mut inputs = vec![lower_inputs.concat()];
            inputs.extend(upper_inputs);
            for is_bottom in [false, true] {
                assert_eq!(
                    merged(&runs, is_bottom),
                    reference(&inputs, is_bottom),
                    "seed {seed} is_bottom {is_bottom}"
                );
            }
        }
    }

    #[test]
    fn flushes_and_compactions_are_traced() {
        use bh_trace::{Event, KvEvent, Tracer};
        let mut db = conv_db();
        db.set_tracer(Tracer::ring(1 << 20));
        let mut t = Nanos::ZERO;
        for i in 0..3000u64 {
            t = db.put(key(i % 600), value(i), t).unwrap();
        }
        let events = db.tracer().events();
        let flushes = events
            .iter()
            .filter(|e| matches!(e.event, Event::Kv(KvEvent::Flush { .. })))
            .count() as u64;
        let compactions = events
            .iter()
            .filter(|e| matches!(e.event, Event::Kv(KvEvent::Compaction { .. })))
            .count() as u64;
        assert_eq!(flushes, db.stats().flushes);
        assert_eq!(compactions, db.stats().compactions);
        assert!(flushes > 0 && compactions > 0);
        // The cascade reaches the device: flash ops land in the same ring.
        assert!(events.iter().any(|e| matches!(e.event, Event::Flash(_))));
    }

    #[test]
    fn same_workload_runs_on_both_backends() {
        let mut conv = conv_db();
        let mut zns = zns_db();
        let mut tc = Nanos::ZERO;
        let mut tz = Nanos::ZERO;
        for i in 0..1500u64 {
            let (k, v) = (key(i % 400), value(i));
            tc = conv.put(k.clone(), v.clone(), tc).unwrap();
            tz = zns.put(k, v, tz).unwrap();
        }
        for i in (0..400u64).step_by(13) {
            let (vc, dc) = conv.get(&key(i), tc).unwrap();
            let (vz, dz) = zns.get(&key(i), tz).unwrap();
            assert_eq!(vc, vz, "backends disagree on key {i}");
            tc = dc;
            tz = dz;
        }
    }

    #[test]
    fn crash_recovery_replays_synced_writes() {
        let mut db = conv_db();
        let mut t = Nanos::ZERO;
        // sync_every=16: write 40 entries so 32 are synced, 8 are not.
        for i in 0..40u64 {
            t = db.put(key(i), value(i), t).unwrap();
        }
        assert!(db.stats().flushes == 0, "keep everything in the memtable");
        let recovered = db.crash_and_recover(t).unwrap();
        assert!(
            (32..40).contains(&recovered),
            "expected the synced prefix, got {recovered}"
        );
        // Synced keys are back.
        let (v, _) = db.get(&key(0), t).unwrap();
        assert_eq!(v, Some(value(0)));
        // Unsynced tail is lost.
        let (v, _) = db.get(&key(39), t).unwrap();
        assert_eq!(v, None);
    }

    #[test]
    fn app_write_amplification_exceeds_one_under_churn() {
        let mut db = conv_db();
        let mut t = Nanos::ZERO;
        for i in 0..4000u64 {
            t = db.put(key(i % 500), value(i), t).unwrap();
        }
        let wa = db.stats().app_write_amplification();
        assert!(wa > 1.0, "LSM app WA should exceed 1, got {wa}");
    }

    #[test]
    fn zns_backend_device_wa_stays_low() {
        let mut db = zns_db();
        let mut t = Nanos::ZERO;
        for i in 0..4000u64 {
            t = db.put(key(i % 500), value(i), t).unwrap();
        }
        let wa = db.backend().device_write_amplification();
        assert!(wa < 1.5, "ZNS device WA should stay near 1, got {wa}");
    }
}
