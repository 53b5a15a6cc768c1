//! The whole host-side stack runs unmodified on either zoned substrate.
//!
//! The backend seam is one trait (`bh_zns::backend::ZonedDevice`) with
//! two implementations: the in-memory simulator and bh-zbd's durable
//! emulator. These tests instantiate each layer that sits on that seam
//! — `BlockEmu` behind the typed `BlockInterface`, the bh-kv LSM store,
//! and the bh-cache segment store — over a `ZbdDevice` and exercise its
//! normal workload, proving the genericization is real (no layer
//! secretly depends on the simulator's concrete type).

use bh_core::{BlockInterface, WriteReq};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_kv::{Db, DbConfig, StorageBackend, ZnsBackend};
use bh_metrics::Nanos;
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::{ZnsConfig, ZnsDevice};

fn zns_config() -> ZnsConfig {
    ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8)
}

/// Memory-backed zbd device: same durable log format and state
/// machine, no file on disk — ideal for substrate-matrix tests.
fn zbd_device() -> ZbdDevice {
    ZbdDevice::new(ZbdConfig::mirror(&zns_config())).unwrap()
}

/// One `BlockInterface` workload, applied identically to a stack built
/// on each substrate.
fn exercise_block_interface(dev: &mut dyn BlockInterface) {
    let cap = dev.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = dev.write(WriteReq::new(lba), t).unwrap();
    }
    let mut x = 7u64;
    for i in 0..2 * cap {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lba = x % cap;
        if x.is_multiple_of(3) {
            t = dev.read(lba, t).unwrap();
        } else {
            t = dev.write(WriteReq::new(lba), t).unwrap();
        }
        if i.is_multiple_of(64) {
            t = dev.maintenance(t).unwrap();
        }
    }
    assert!(dev.write_amplification() >= 1.0);
    assert!(dev.flash_stats().host_programs >= 3 * cap / 2);
}

#[test]
fn block_interface_runs_on_every_backend() {
    let sim = BlockEmu::new(
        ZnsDevice::new(zns_config()).unwrap(),
        3,
        ReclaimPolicy::Immediate,
    );
    let zbd = BlockEmu::new(zbd_device(), 3, ReclaimPolicy::Immediate);
    let stacks: [(&str, Box<dyn BlockInterface>); 2] = [
        ("zns+blockemu", Box::new(sim)),
        ("zbd+blockemu", Box::new(zbd)),
    ];
    for (label, mut dev) in stacks {
        assert_eq!(dev.label(), label);
        exercise_block_interface(dev.as_mut());
    }
}

#[test]
fn kv_store_runs_on_zbd() {
    let cfg = DbConfig {
        memtable_bytes: 32 << 10,
        l0_files: 4,
        level_base_bytes: 256 << 10,
        level_multiplier: 8,
        sst_bytes: 64 << 10,
        block_bytes: 4096,
        sync_every: 16,
    };
    let mut db = Db::new(ZnsBackend::new(zbd_device()), cfg).unwrap();
    let mut t = Nanos::ZERO;
    for i in 0..400u64 {
        t = db
            .put(format!("user{i:06}").into_bytes(), vec![i as u8; 200], t)
            .unwrap();
    }
    // Overwrites force flushes and compaction onto zbd zones.
    for i in 0..400u64 {
        t = db
            .put(
                format!("user{:06}", i % 97).into_bytes(),
                vec![!(i as u8); 200],
                t,
            )
            .unwrap();
    }
    let (hit, _) = db.get(b"user000042", t).unwrap();
    assert!(
        hit.is_some(),
        "key written before overwrites must be readable"
    );
    assert!(db.backend().device_write_amplification() >= 1.0);
}

#[test]
fn cache_segment_store_runs_on_zbd() {
    use bh_cache::SegmentStore;
    let mut store = bh_cache::ZnsSegmentStore::new(zbd_device());
    assert!(!store.requires_coalescing());
    let mut t = Nanos::ZERO;
    for i in 0..store.pages_per_segment() {
        t = store.write_page(0, i, t).unwrap();
    }
    t = store.read_page(0, 3, t).unwrap();
    t = store.erase_segment(0, t).unwrap();
    store.write_page(0, 0, t).unwrap();
}
