//! Failure injection across the stacks: wear-out, offline zones,
//! read-only zones, and crashes.

use bh_conv::{ConvConfig, ConvError, ConvSsd};
use bh_faults::FaultConfig;
use bh_flash::{CellKind, FlashConfig, Geometry};
use bh_host::{BlockEmu, HintMode, ReclaimPolicy, ZonedLfs};
use bh_kv::{ConvBackend, Db, DbConfig};
use bh_metrics::Nanos;
use bh_trace::{replay, Tracer, ZoneStateTag};
use bh_zns::{ZnsConfig, ZnsDevice, ZnsError, ZoneId, ZoneState, ZonedDevice};

fn worn_flash(endurance: u32) -> FlashConfig {
    FlashConfig {
        geometry: Geometry::small_test(),
        cell: CellKind::Tlc,
        endurance_override: Some(endurance),
    }
}

/// A conventional device driven past its endurance fails into read-only
/// mode — and stays readable.
#[test]
fn conv_wears_out_gracefully() {
    let mut ssd = ConvSsd::new(ConvConfig::new(worn_flash(8), 0.15)).unwrap();
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    let mut last_written = 0;
    'outer: for round in 0..400u64 {
        for lba in 0..cap {
            match ssd.write((lba + round) % cap, t) {
                Ok(w) => {
                    t = w.done;
                    last_written = (lba + round) % cap;
                }
                Err(ConvError::ReadOnly) => break 'outer,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
    assert!(ssd.is_read_only(), "device should have worn out");
    assert!(ssd.device().bad_blocks() > 0);
    // Reads still work after end-of-life.
    let (stamp, _) = ssd.read(last_written, t).unwrap();
    assert!(stamp > 0);
    // Writes keep failing deterministically.
    assert_eq!(ssd.write(0, t).unwrap_err(), ConvError::ReadOnly);
}

/// Wearing a traced device to death must not corrupt the event stream:
/// GC episode pairing stays consistent through block retirements and
/// the transition to read-only mode.
#[test]
fn conv_wearout_keeps_trace_consistent() {
    let mut ssd = ConvSsd::new(ConvConfig::new(worn_flash(8), 0.15)).unwrap();
    let tracer = Tracer::ring(1 << 20);
    ssd.set_tracer(tracer.clone());
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    'outer: for round in 0..400u64 {
        for lba in 0..cap {
            match ssd.write((lba + round) % cap, t) {
                Ok(w) => t = w.done,
                Err(ConvError::ReadOnly) => break 'outer,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
    assert!(ssd.is_read_only(), "device should have worn out");
    let episodes =
        replay::gc_episodes(&tracer.events()).expect("wear-out must not break begin/end pairing");
    assert!(!episodes.is_empty(), "wearing out involves GC");
    // Episodes that retired their victim are still well-formed spans.
    for ep in episodes.iter().filter(|e| e.end.is_some()) {
        assert!(ep.end.unwrap() >= ep.begin);
    }
}

/// A ZNS zone whose blocks all retire goes offline; its neighbours are
/// unaffected.
#[test]
fn zns_zone_goes_offline_without_collateral() {
    let cfg = ZnsConfig::new(worn_flash(3), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let mut t = Nanos::ZERO;
    // Hammer zone 0 with write/reset cycles until it dies.
    loop {
        match dev.write(ZoneId(0), 0, 1, t) {
            Ok(done) => t = done,
            Err(ZnsError::ZoneOffline(_)) => break,
            Err(e) => panic!("unexpected {e}"),
        }
        match dev.reset(ZoneId(0), t) {
            Ok(done) => t = done,
            Err(ZnsError::ZoneOffline(_)) => break,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(dev.zone(ZoneId(0)).unwrap().state(), ZoneState::Offline);
    // Zone 1 still works.
    t = dev.write(ZoneId(1), 0, 42, t).unwrap();
    let (stamp, _) = dev.read(ZoneId(1), 0, t).unwrap();
    assert_eq!(stamp, 42);
}

/// The death of a zone is visible in the trace: the recorded
/// transitions replay to the offline state the device reports.
#[test]
fn zns_offline_transition_is_traced() {
    let cfg = ZnsConfig::new(worn_flash(3), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let tracer = Tracer::ring(1 << 20);
    dev.set_tracer(tracer.clone());
    let mut t = Nanos::ZERO;
    loop {
        match dev.write(ZoneId(0), 0, 1, t) {
            Ok(done) => t = done,
            Err(ZnsError::ZoneOffline(_)) => break,
            Err(e) => panic!("unexpected {e}"),
        }
        match dev.reset(ZoneId(0), t) {
            Ok(done) => t = done,
            Err(ZnsError::ZoneOffline(_)) => break,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(dev.zone(ZoneId(0)).unwrap().state(), ZoneState::Offline);
    let replayed = replay::zone_states(&tracer.events());
    assert_eq!(replayed.get(&0), Some(&ZoneStateTag::Offline));
}

/// A read-only zone keeps serving reads while rejecting writes; the
/// block emulation above it keeps running by writing elsewhere.
#[test]
fn read_only_zone_keeps_data_available() {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let t = dev.write(ZoneId(2), 0, 77, Nanos::ZERO).unwrap();
    dev.inject_read_only(ZoneId(2)).unwrap();
    assert_eq!(
        dev.write(ZoneId(2), 1, 0, t),
        Err(ZnsError::ZoneReadOnly(ZoneId(2)))
    );
    let (stamp, _) = dev.read(ZoneId(2), 0, t).unwrap();
    assert_eq!(stamp, 77);
}

/// Crashing the KV store repeatedly at arbitrary points never corrupts
/// previously flushed data.
#[test]
fn kv_survives_repeated_crashes() {
    let geo = Geometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 48,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.15)).unwrap();
    let mut db = Db::new(
        ConvBackend::new(ssd),
        DbConfig {
            memtable_bytes: 4 << 10,
            sync_every: 8,
            ..DbConfig::default()
        },
    )
    .unwrap();
    let mut t = Nanos::ZERO;
    for round in 0..6u64 {
        for i in 0..60u64 {
            let k = format!("stable{i:03}").into_bytes();
            let v = format!("round-{round}").into_bytes();
            t = db.put(k, v, t).unwrap();
        }
        // Flush makes this round durable, then crash mid-next-round.
        t = db.flush(t).unwrap();
        for i in 0..10u64 {
            t = db
                .put(format!("tail{i}").into_bytes(), vec![round as u8], t)
                .unwrap();
        }
        db.crash_and_recover(t).unwrap();
        // Flushed keys always reflect the completed round.
        let (v, done) = db.get(b"stable000", t).unwrap();
        assert_eq!(v, Some(format!("round-{round}").into_bytes()));
        t = done;
    }
}

/// The block emulation keeps its data intact while zones wear out under
/// it, until space genuinely runs out.
#[test]
fn blockemu_tolerates_wearing_device() {
    let cfg = ZnsConfig::new(worn_flash(40), 4).with_zone_limits(8);
    let mut emu = BlockEmu::new(ZnsDevice::new(cfg).unwrap(), 2, ReclaimPolicy::Immediate);
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).unwrap();
    }
    let mut x = 3u64;
    let mut writes = 0u64;
    loop {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        match emu.write(x % cap, t) {
            Ok(done) => {
                t = done;
                writes += 1;
                if writes > 20_000 {
                    break; // Endurance 40 outlasted the test budget: fine.
                }
            }
            Err(_) => break, // Wear-out: acceptable terminal state.
        }
        if writes.is_multiple_of(64) {
            t = emu.maybe_reclaim(t).unwrap().1;
        }
    }
    // Whatever happened, reads of recently written data must still work.
    let (stamp, _) = emu.read(x % cap, t).unwrap();
    assert!(stamp > 0);
}

/// Mid-life grown bad blocks: erase faults during GC retire blocks long
/// before wear-out, and the FTL absorbs them — no data loss, no
/// premature read-only transition, GC trace still balanced.
#[test]
fn conv_grows_bad_blocks_mid_life_without_losing_data() {
    let mut ssd = ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap();
    let tracer = Tracer::ring(1 << 20);
    ssd.set_tracer(tracer.clone());
    // Small device, small spare pool: the rate is tuned so a handful of
    // blocks retire without exhausting the overprovisioning headroom.
    ssd.install_faults(FaultConfig::new(0xBAD).with_erase_fail_ppm(8_000));
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).unwrap().done;
    }
    // Overwrites force GC; every GC erase rolls the fault dice.
    let mut x = 7u64;
    for _ in 0..5 * cap {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        t = ssd.write(x % cap, t).unwrap().done;
    }
    assert!(
        ssd.device().bad_blocks() > 0,
        "erase faults should have retired blocks mid-life"
    );
    assert!(
        !ssd.is_read_only(),
        "a few grown bad blocks must not end the device's life"
    );
    for lba in 0..cap {
        let (stamp, done) = ssd.read(lba, t).unwrap();
        assert!(stamp > 0, "lba {lba} lost to a grown bad block");
        t = done;
    }
    let episodes = replay::gc_episodes(&tracer.events())
        .expect("grown bad blocks must not break GC begin/end pairing");
    assert!(!episodes.is_empty(), "overwrite pressure involves GC");
}

/// A cleaning pass that hits program failures while relocating
/// survivors: the LFS re-drives the burned appends and no file page is
/// lost. Faults go on the zoned device *before* the file system wraps
/// it — the LFS itself has no fault hooks, by design.
#[test]
fn lfs_cleaning_pass_survives_program_failures() {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let tracer = Tracer::ring(1 << 20);
    dev.set_tracer(tracer.clone());
    dev.install_faults(FaultConfig::new(0xF5).with_program_fail_ppm(30_000));
    let mut lfs = ZonedLfs::new(dev, HintMode::None);
    let stable = lfs.create("stable", 1).unwrap();
    let churn = lfs.create("churn", 1).unwrap();
    let pages = 48u64;
    let t = Nanos::ZERO;
    // Interleave a stable file with a churning one, then overwrite only
    // the churning file: victim zones end up mixed live/garbage, so
    // cleaning must relocate survivors through the faulty append path.
    for i in 0..pages {
        lfs.write(stable, i, 100 + i, t).unwrap();
        lfs.write(churn, i, 7000 + i, t).unwrap();
    }
    let rounds = 8u64;
    for round in 0..rounds {
        for i in 0..pages {
            lfs.write(churn, i, round * 100 + i, t).unwrap();
        }
    }
    let t = lfs.clean(t, 5).unwrap();
    assert!(
        lfs.stats().cleaned > 0,
        "cleaning should have relocated live pages"
    );
    for i in 0..pages {
        let (stamp, _) = lfs.read(stable, i, t).unwrap();
        assert_eq!(stamp, (100 + i) & 0xFFFF, "stable page {i} corrupted");
        let (stamp, _) = lfs.read(churn, i, t).unwrap();
        assert_eq!(
            stamp,
            ((rounds - 1) * 100 + i) & 0xFFFF,
            "churn page {i} corrupted"
        );
    }
    // The zone-state transitions recorded through burns, finishes, and
    // resets replay to exactly what the device reports.
    let replayed = replay::zone_states(&tracer.events());
    assert!(!replayed.is_empty(), "cleaning must leave zone transitions");
    assert!(
        !replayed.values().any(|s| *s == ZoneStateTag::Offline),
        "program failures alone must never take a zone offline"
    );
}

/// Power loss between filling a zone and finishing it: per the ZNS spec
/// zone state and write pointers are durable, open zones come back
/// Closed, and the interrupted finish can simply be re-driven.
#[test]
fn power_loss_during_zone_finish_recovers_cleanly() {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let tracer = Tracer::ring(1 << 20);
    dev.set_tracer(tracer.clone());
    let mut t = Nanos::ZERO;
    t = dev.write(ZoneId(0), 0, 11, t).unwrap();
    t = dev.write(ZoneId(1), 0, 22, t).unwrap();
    // Lights out just before the host issues the finish.
    t = dev.power_cycle(t);
    assert_eq!(dev.zone(ZoneId(0)).unwrap().state(), ZoneState::Closed);
    assert_eq!(dev.zone(ZoneId(1)).unwrap().state(), ZoneState::Closed);
    // Restart: the host re-drives the finish against the Closed zone.
    dev.finish(ZoneId(0)).unwrap();
    assert_eq!(dev.zone(ZoneId(0)).unwrap().state(), ZoneState::Full);
    // Data below the write pointer survived the loss.
    let (stamp, _) = dev.read(ZoneId(0), 0, t).unwrap();
    assert_eq!(stamp, 11);
    let (stamp, _) = dev.read(ZoneId(1), 0, t).unwrap();
    assert_eq!(stamp, 22);
    // The trace shows the same story: a balanced transition history
    // ending Full for the finished zone, Closed for the other.
    let replayed = replay::zone_states(&tracer.events());
    assert_eq!(replayed.get(&0), Some(&ZoneStateTag::Full));
    assert_eq!(replayed.get(&1), Some(&ZoneStateTag::Closed));
}
