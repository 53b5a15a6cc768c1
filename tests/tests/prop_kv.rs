//! Property tests: the LSM store behaves like a `BTreeMap` on both
//! backends, through flushes, compactions, and crashes.
//!
//! Implemented as seeded-loop property tests (the offline build vendors
//! no proptest); each case prints its seed on failure for replay. The
//! seeds are fixed unless `BH_PROP_SEED` sets the master seed, so CI can
//! probe fresh cases (the workflow prints the value, so a red run
//! replays exactly).

use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, Geometry};
use bh_kv::{ConvBackend, Db, DbConfig, ZnsBackend};
use bh_metrics::Nanos;
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The master seed: `BH_PROP_SEED` when set, `0x4B00_0000` otherwise.
fn master() -> u64 {
    std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x4B00_0000)
}

/// The private stream of `case` of the property numbered `property`.
fn case_rng(property: u64, case: u64) -> SmallRng {
    SmallRng::seed_from_u64(master() ^ (property << 12) ^ case)
}

#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, Vec<u8>),
    Delete(u8),
    Get(u8),
    Flush,
}

fn gen_value(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

/// A random op whose put values are up to `max_len` bytes long.
fn gen_op(rng: &mut SmallRng, max_len: usize) -> KvOp {
    let k = rng.gen_range(0u32..256) as u8;
    // Weights mirror the original proptest strategy: 5/2/3/1.
    match rng.gen_range(0u32..11) {
        0..=4 => KvOp::Put(k, gen_value(rng, max_len)),
        5..=6 => KvOp::Delete(k),
        7..=9 => KvOp::Get(k),
        _ => KvOp::Flush,
    }
}

fn geometry() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 48,
        pages_per_block: 32,
        page_bytes: 4096,
    }
}

fn tiny_cfg() -> DbConfig {
    DbConfig {
        memtable_bytes: 4 << 10,
        l0_files: 2,
        level_base_bytes: 16 << 10,
        level_multiplier: 4,
        sst_bytes: 8 << 10,
        block_bytes: 4096,
        sync_every: 8,
    }
}

fn key(k: u8) -> Vec<u8> {
    format!("key{k:03}").into_bytes()
}

fn check_model<B: bh_kv::StorageBackend>(db: &mut Db<B>, ops: &[KvOp], case: u64) {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut t = Nanos::ZERO;
    for op in ops {
        match op {
            KvOp::Put(k, v) => {
                t = db.put(key(*k), v.clone(), t).unwrap();
                model.insert(key(*k), v.clone());
            }
            KvOp::Delete(k) => {
                t = db.delete(key(*k), t).unwrap();
                model.remove(&key(*k));
            }
            KvOp::Get(k) => {
                let (got, done) = db.get(&key(*k), t).unwrap();
                assert_eq!(got, model.get(&key(*k)).cloned(), "case {case} key {k}");
                t = done;
            }
            KvOp::Flush => {
                t = db.flush(t).unwrap();
                t = db.maybe_compact(t).unwrap();
            }
        }
    }
    // Full sweep at the end.
    for k in 0..=255u8 {
        let (got, done) = db.get(&key(k), t).unwrap();
        assert_eq!(
            got,
            model.get(&key(k)).cloned(),
            "case {case} final key {k}"
        );
        t = done;
    }
}

#[test]
fn conv_backend_matches_btreemap() {
    for case in 0u64..24 {
        let mut rng = case_rng(0, case);
        let n_ops = rng.gen_range(1usize..250);
        let ops: Vec<KvOp> = (0..n_ops).map(|_| gen_op(&mut rng, 63)).collect();
        let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geometry()), 0.15)).unwrap();
        let mut db = Db::new(ConvBackend::new(ssd), tiny_cfg()).unwrap();
        check_model(&mut db, &ops, case);
    }
}

#[test]
fn zns_backend_matches_btreemap() {
    for case in 0u64..24 {
        let mut rng = case_rng(1, case);
        let n_ops = rng.gen_range(1usize..250);
        let ops: Vec<KvOp> = (0..n_ops).map(|_| gen_op(&mut rng, 63)).collect();
        let cfg = ZnsConfig::new(FlashConfig::tlc(geometry()), 4).with_zone_limits(14);
        let mut db = Db::new(ZnsBackend::new(ZnsDevice::new(cfg).unwrap()), tiny_cfg()).unwrap();
        check_model(&mut db, &ops, case);
    }
}

/// On a device of 16 zones of 64 pages, values of up to 12 000 bytes
/// fill it many times over, so the backend must clean: relocate the
/// survivors of part-dead zones, synced WAL tails included, without
/// losing a byte. A backend that reclaims only once no zone is free
/// stops in the first case with "no empty zone available".
#[test]
fn zns_backend_that_must_clean_matches_btreemap() {
    let geo = Geometry {
        blocks_per_plane: 16,
        pages_per_block: 16,
        ..geometry()
    };
    let mut relocated = 0;
    for case in 0u64..8 {
        let mut rng = case_rng(3, case);
        let n_ops = rng.gen_range(2_000usize..4_000);
        let ops: Vec<KvOp> = (0..n_ops).map(|_| gen_op(&mut rng, 12_000)).collect();
        let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 4).with_zone_limits(12);
        let mut db = Db::new(ZnsBackend::new(ZnsDevice::new(cfg).unwrap()), tiny_cfg()).unwrap();
        check_model(&mut db, &ops, case);
        relocated += db.backend().relocated_pages();
    }
    assert!(relocated > 0, "no case cleaned a part-dead zone");
}

/// Crash recovery never resurrects deleted keys or loses flushed data:
/// after a crash, every key's value is either the model value or (for
/// keys whose last write was unsynced) the previous state.
#[test]
fn crash_recovery_is_prefix_consistent() {
    for case in 0u64..24 {
        let mut rng = case_rng(2, case);
        let n_before = rng.gen_range(1usize..120);
        let before: Vec<KvOp> = (0..n_before).map(|_| gen_op(&mut rng, 63)).collect();
        let n_tail = rng.gen_range(0usize..20);
        let tail_puts: Vec<(u8, Vec<u8>)> = (0..n_tail)
            .map(|_| (rng.gen_range(0u32..256) as u8, gen_value(&mut rng, 31)))
            .collect();
        let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geometry()), 0.15)).unwrap();
        let mut db = Db::new(ConvBackend::new(ssd), tiny_cfg()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut t = Nanos::ZERO;
        for op in &before {
            match op {
                KvOp::Put(k, v) => {
                    t = db.put(key(*k), v.clone(), t).unwrap();
                    model.insert(key(*k), v.clone());
                }
                KvOp::Delete(k) => {
                    t = db.delete(key(*k), t).unwrap();
                    model.remove(&key(*k));
                }
                KvOp::Get(_) | KvOp::Flush => {}
            }
        }
        // Make `model` fully durable, then write an unsynced tail.
        t = db.flush(t).unwrap();
        let mut touched = Vec::new();
        for (k, v) in &tail_puts {
            t = db.put(key(*k), v.clone(), t).unwrap();
            touched.push(*k);
        }
        db.crash_and_recover(t).unwrap();
        for k in 0..=255u8 {
            let (got, done) = db.get(&key(k), t).unwrap();
            t = done;
            if touched.contains(&k) {
                // Tail keys may hold either the old or the new value
                // depending on sync/flush boundaries; both must decode.
                continue;
            }
            assert_eq!(
                got,
                model.get(&key(k)).cloned(),
                "case {case} stable key {k}"
            );
        }
    }
}
