//! Crash-safety property tests for the file-backed zoned emulator.
//!
//! bh-zbd's claim is stronger than the simulator's: `power_cycle` is a
//! genuine reopen-from-disk, so what survives a crash is exactly what
//! the append-ordered log holds. These tests drive random op/crash
//! schedules (the same LCG/crash-index harness as `prop_faults`) over
//! the full host stack on a zbd substrate and lock in two invariants
//! after *every* power cycle:
//!
//! 1. **Acked durability**: every write whose call returned reads back
//!    with the stamp it was acked with — under a noisy fault plan, so
//!    burned slots and read retries are in the schedule too.
//! 2. **Metadata honesty**: the live device's zone table (state, write
//!    pointer, resets) is byte-identical to what an independent cold
//!    [`ZbdDevice::open_file`] of the backing file reconstructs — the
//!    in-memory view never claims more than the durable log.
//!
//! A torn final record — the canonical crash artifact of any
//! append-ordered log — must truncate cleanly and leave the device
//! writable, never corrupt acked state.

use bh_faults::FaultConfig;
use bh_flash::{decode_oob, FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_tests::Digest;
use bh_zbd::media::{Record, HEADER_LEN, RECORD_LEN};
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsConfig, ZoneState};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Base seed, overridable via `BH_PROP_SEED` so CI can probe fresh
/// seeds (the workflow prints the value, so a red run replays exactly).
fn base_seed(default: u64) -> u64 {
    std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Fault mix matching `prop_faults::noisy`: frequent enough that short
/// runs hit burned slots and retries, mild enough to stay writable.
fn noisy(seed: u64) -> FaultConfig {
    FaultConfig::new(seed)
        .with_program_fail_ppm(15_000)
        .with_erase_fail_ppm(10_000)
        .with_read_retry_ppm(20_000)
}

/// A process-unique backing file, removed on drop even when the test
/// panics.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        TempFile(
            std::env::temp_dir().join(format!("bh-prop-zbd-{}-{tag}-{n}.zbd", std::process::id())),
        )
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn zns_config() -> ZnsConfig {
    ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8)
}

fn zbd_emu(path: &Path, faults: Option<FaultConfig>) -> BlockEmu<ZbdDevice> {
    let dev = ZbdDevice::create_file(ZbdConfig::mirror(&zns_config()), path).unwrap();
    let mut e = BlockEmu::new(dev, 3, ReclaimPolicy::Immediate);
    if let Some(f) = faults {
        e.install_faults(f);
    }
    e
}

/// The metadata-honesty half of the property: a cold reopen of the
/// backing file must reconstruct exactly the zone table the live
/// (just-power-cycled) device reports.
fn assert_durable_metadata_matches(emu: &BlockEmu<ZbdDevice>, path: &Path) {
    let cold = ZbdDevice::open_file(path).expect("cold reopen of backing file");
    let live = emu.device();
    assert_eq!(cold.num_zones(), live.num_zones());
    for (c, l) in cold.zone_report().iter().zip(live.zone_report()) {
        assert_eq!(
            (c.state(), c.write_pointer(), c.resets()),
            (l.state(), l.write_pointer(), l.resets()),
            "zone {} durable metadata diverges from the live device",
            l.id().0
        );
    }
}

/// Drives `crash_at` random acked writes under a noisy fault plan,
/// power cycles, and checks both invariants.
fn crash_preserves_acked_state(crash_at: u64, seed: u64) {
    let file = TempFile::new("crash");
    let mut emu = zbd_emu(&file.0, Some(noisy(base_seed(0x2BD))));
    let cap = emu.capacity_pages();
    let mut written = std::collections::BTreeSet::new();
    let mut t = Nanos::ZERO;
    let mut x = seed | 1;
    for _ in 0..crash_at {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lba = x % cap;
        t = emu.write(lba, t).unwrap();
        written.insert(lba);
    }
    let before: Vec<(u64, u64)> = written
        .iter()
        .map(|&lba| {
            let (stamp, done) = emu.read(lba, t).unwrap();
            t = done;
            (lba, stamp)
        })
        .collect();
    let (done, _scanned) = emu.power_cycle(t).unwrap();
    for &(lba, stamp) in &before {
        let (s, _) = emu.read(lba, done).unwrap();
        assert_eq!(
            s, stamp,
            "lba {lba} lost or changed across power loss at op {crash_at}"
        );
        let (_seq, tagged) = decode_oob(s);
        assert_eq!(tagged, lba, "recovered stamp belongs to a different lba");
    }
    assert_durable_metadata_matches(&emu, &file.0);
}

/// A spread of crash indices — zero work, first op, mid-zone, zone
/// boundaries, several times the logical capacity (forcing reclaim
/// under faults before the loss).
fn crash_points(cap: u64) -> Vec<u64> {
    vec![0, 1, 2, 7, 33, cap / 2, cap, cap + 13, 2 * cap, 3 * cap]
}

#[test]
fn zbd_crash_at_sampled_indices_preserves_acked_writes() {
    let probe = TempFile::new("probe");
    let cap = zbd_emu(&probe.0, None).capacity_pages();
    drop(probe);
    for k in crash_points(cap) {
        crash_preserves_acked_state(k, base_seed(0x5EED) + k);
    }
}

/// The exhaustive sweep — every crash index over a full device
/// lifetime — runs nightly (`cargo test -- --include-ignored`).
#[test]
#[ignore = "exhaustive sweep; run via --include-ignored"]
fn zbd_survives_crash_at_every_index() {
    let probe = TempFile::new("probe");
    let cap = zbd_emu(&probe.0, None).capacity_pages();
    drop(probe);
    for k in 0..=2 * cap {
        crash_preserves_acked_state(k, base_seed(0x5EED) + k);
    }
}

/// One long random schedule with *repeated* power losses: the metadata
/// invariant must hold after every cycle, and writes must keep
/// succeeding on the recovered state (the log keeps appending past
/// every recovery truncation).
#[test]
fn zbd_repeated_crashes_keep_log_and_metadata_consistent() {
    let file = TempFile::new("multi");
    let mut emu = zbd_emu(&file.0, Some(noisy(base_seed(0x2BD1))));
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    let mut x = base_seed(0xCAFE) | 1;
    for round in 0..5u64 {
        let mut acked = Vec::new();
        for _ in 0..cap / 2 + 11 * round {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = x % cap;
            t = emu.write(lba, t).unwrap();
            acked.push(lba);
        }
        let snapshot: Vec<(u64, u64)> = acked
            .iter()
            .map(|&lba| {
                let (stamp, done) = emu.read(lba, t).unwrap();
                t = done;
                (lba, stamp)
            })
            .collect();
        let (done, _) = emu.power_cycle(t).unwrap();
        t = done;
        for &(lba, stamp) in &snapshot {
            let (s, done) = emu.read(lba, t).unwrap();
            t = done;
            assert_eq!(s, stamp, "round {round}: lba {lba} diverged after recovery");
        }
        assert_durable_metadata_matches(&emu, &file.0);
    }
}

/// A torn final record (the crash landed mid-`write(2)`) truncates
/// cleanly on reopen: the valid prefix survives byte-for-byte and the
/// device keeps appending.
#[test]
fn zbd_torn_tail_truncates_to_acked_prefix() {
    use std::io::Write;
    let file = TempFile::new("torn");
    let cfg = ZbdConfig::mirror(&zns_config());
    let mut dev = ZbdDevice::create_file(cfg, &file.0).unwrap();
    let mut t = Nanos::ZERO;
    for i in 0..10u64 {
        let (_, done) = dev.append(bh_zns::ZoneId(0), 0xA000 + i, t).unwrap();
        t = done;
    }
    drop(dev);
    // Tear the log: half a record of garbage at the end.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&file.0)
        .unwrap();
    f.write_all(&[0xEE; 11]).unwrap();
    drop(f);
    let mut dev = ZbdDevice::open_file(&file.0).unwrap();
    let z = dev.zone(bh_zns::ZoneId(0)).unwrap();
    assert_eq!(z.write_pointer(), 10, "acked prefix must survive the tear");
    for i in 0..10u64 {
        let (stamp, _) = dev.read(bh_zns::ZoneId(0), i, t).unwrap();
        assert_eq!(stamp, 0xA000 + i);
    }
    // The log continues past the truncation.
    let (off, _) = dev.append(bh_zns::ZoneId(0), 0xB000, t).unwrap();
    assert_eq!(off, 10);
}

/// Decodes whole records (a clean log past its header, or a tail of
/// one).
fn decode_records(bytes: &[u8]) -> Vec<Record> {
    assert_eq!(bytes.len() % RECORD_LEN, 0);
    bytes
        .chunks_exact(RECORD_LEN)
        .map(|rec| Record::decode(rec.try_into().unwrap()).expect("a clean log decodes"))
        .collect()
}

/// The next uniform LBA below `cap` from the LCG state `x`.
fn next_lba(x: &mut u64, cap: u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*x >> 33) % cap
}

/// A crash *inside* a multi-record command. A `simple_copy` hands its
/// whole batch — every `Copy`, and every `Burn` it redrove past — to
/// the OS in one write, so a power loss can leave any byte prefix of
/// the batch on disk. A scout run drives `BlockEmu<ZbdDevice>` until a
/// host write triggers a reclaim whose copy batch is at least 64 pages
/// (and, with `faults`, has a burn in the middle); a second, identical
/// stack stops one write short of it. Then, for every cut length from
/// the batch's first byte to its last:
///
/// - a cold `open_file` of a copy cut there keeps the valid prefix byte
///   for byte, drops the torn record, re-truncates the file to a record
///   boundary, and takes the next multi-record command contiguously;
/// - the stopped stack, power-cycled over its own file extended by that
///   much of the batch, still reads every acknowledged LBA with its
///   stamp.
///
/// The stopped stack only reads between cuts, so what persists in host
/// memory across its power cycles (the summaries of Full zones) is the
/// same for every cut.
fn crash_inside_copy_batch_at_every_byte(faults: Option<FaultConfig>) {
    let stack = |path: &Path| {
        let dev = ZbdDevice::create_file(ZbdConfig::new(8, 128), path).unwrap();
        let mut emu = BlockEmu::new(dev, 3, ReclaimPolicy::Immediate);
        if let Some(f) = faults {
            emu.install_faults(f);
        }
        emu
    };
    // Fill, then uniform overwrites.
    let schedule = |cap: u64| {
        let mut x = base_seed(0xBA7C) | 1;
        (0..20 * cap).map(move |i| if i < cap { i } else { next_lba(&mut x, cap) })
    };
    let at = |records: usize| HEADER_LEN + records * RECORD_LEN;

    // Scout: which write crashes, and what its batch looks like on disk.
    let scout_file = TempFile::new("torn-batch-scout");
    let mut scout = stack(&scout_file.0);
    let cap = scout.capacity_pages();
    let mut t = Nanos::ZERO;
    let mut found = None;
    let mut before = 0;
    for (k, lba) in schedule(cap).enumerate() {
        t = scout.write(lba, t).unwrap();
        let log = std::fs::read(&scout_file.0).unwrap();
        let grown = decode_records(&log[at(before)..]);
        let is_copy = |r: &Record| matches!(r, Record::Copy { .. });
        // One command's records: copies and burns into one destination
        // (a copy cut short is redone into a fresh zone).
        let into = |r: &Record| match *r {
            Record::Copy { zone, .. } | Record::Burn { zone } => Some(zone),
            _ => None,
        };
        let n = grown
            .iter()
            .take_while(|r| into(r).is_some() && into(r) == into(&grown[0]))
            .count();
        let redriven = grown[..n]
            .windows(2)
            .any(|w| matches!(w, [Record::Burn { .. }, Record::Copy { .. }]));
        if grown[..n].iter().filter(|r| is_copy(r)).count() >= 64
            && is_copy(&grown[0])
            && redriven == faults.is_some()
        {
            found = Some((k, before, before + n, into(&grown[0]), log));
            break;
        }
        before = (log.len() - HEADER_LEN) / RECORD_LEN;
    }
    let (crashed_write, first, last, dst, bytes) =
        found.expect("a reclaim with a 64-page copy batch");
    let dst = bh_zns::ZoneId(dst.expect("the batch starts with a copy"));
    drop(scout);

    // The stack the power fails under: every write before the crashed
    // one acknowledged, and read back.
    let file = TempFile::new("torn-batch");
    let mut emu = stack(&file.0);
    let mut t = Nanos::ZERO;
    for lba in schedule(cap).take(crashed_write) {
        t = emu.write(lba, t).unwrap();
    }
    assert_eq!(std::fs::read(&file.0).unwrap(), &bytes[..at(first)]);
    let acked: Vec<u64> = (0..cap).map(|lba| emu.read(lba, t).unwrap().0).collect();
    let wp0 = emu.device().zone(dst).unwrap().write_pointer();

    let copy = TempFile::new("torn-batch-copy");
    let mut continued = 0;
    for cut in at(first)..=at(last) {
        let kept = (cut - HEADER_LEN) / RECORD_LEN;
        let wp = wp0 + (kept - first) as u64;
        // Cold: a copy of the file, cut mid-command.
        std::fs::write(&copy.0, &bytes[..cut]).unwrap();
        let mut cold = ZbdDevice::open_file(&copy.0).unwrap();
        assert_eq!(
            std::fs::read(&copy.0).unwrap(),
            &bytes[..at(kept)],
            "cut {cut}: valid prefix kept, torn record dropped"
        );
        let z = cold.zone(dst).unwrap();
        assert_eq!(z.write_pointer(), wp, "cut {cut}");
        // The next command's batch continues the prefix.
        if z.remaining() >= 3 && z.state() != ZoneState::ReadOnly {
            let src = cold
                .zone_report()
                .iter()
                .find(|z| z.state() == ZoneState::Full);
            let src = src.expect("the reclaim victim is still Full").id();
            let sources: Vec<_> = (0..128)
                .filter(|&off| cold.read(src, off, t).is_ok())
                .map(|off| (src, off))
                .take(3)
                .collect();
            let (placed, _) = cold.simple_copy(&sources, dst, t).unwrap();
            assert_eq!(placed.len(), 3);
            continued += 1;
            drop(cold);
            let after = std::fs::read(&copy.0).unwrap();
            assert_eq!(after.len(), at(kept + placed.len()), "cut {cut}");
            assert_eq!(&after[..at(kept)], &bytes[..at(kept)], "cut {cut}");
            let reopened = ZbdDevice::open_file(&copy.0).unwrap();
            assert_eq!(
                reopened.zone(dst).unwrap().write_pointer(),
                wp + placed.len() as u64,
                "cut {cut}: cold reopen sees the next batch"
            );
        }
        // Live: the power goes while the crashed write's batch is
        // `cut` bytes into the file.
        std::fs::write(&file.0, &bytes[..cut]).unwrap();
        let (done, _) = emu.power_cycle(t).unwrap();
        for (lba, stamp) in acked.iter().enumerate() {
            let (s, _) = emu.read(lba as u64, done).unwrap();
            assert_eq!(s, *stamp, "cut {cut}: lba {lba} lost inside the batch");
        }
    }
    assert!(
        continued >= 60 * RECORD_LEN,
        "only {continued} cuts left the destination room for a next batch"
    );
}

#[test]
fn zbd_crash_inside_a_copy_batch_keeps_the_acked_prefix() {
    crash_inside_copy_batch_at_every_byte(None);
}

#[test]
fn zbd_crash_inside_a_burn_redriven_copy_batch_keeps_the_acked_prefix() {
    let faults = FaultConfig::new(base_seed(0x2BD2)).with_program_fail_ppm(30_000);
    crash_inside_copy_batch_at_every_byte(Some(faults));
}

/// The on-disk format, pinned: FNV-1a of the log file itself (and its
/// length) after one fixed-seed schedule through `BlockEmu<ZbdDevice>`
/// — fill, three capacities of uniform overwrites under `Immediate`
/// reclaim (so `simple_copy` batches dominate the log) with 6 % program
/// faults (burns, burn-redriven copies), one `finish`, one
/// `inject_read_only`, a mid-run power cycle, then as much again.
/// Captured on the per-record `seek` + `write` media layer; any media
/// or replay rewrite must leave the file byte-for-byte what that one
/// wrote. Re-pinned once, when reclaim stopped counting burned slots
/// as garbage: the host then resets other zones. Deliberately not keyed
/// to `BH_PROP_SEED`.
#[test]
fn zbd_log_file_bytes_are_pinned() {
    const PINNED_LEN: u64 = 8_635_480;
    const PINNED_FNV: u64 = 0xb94d_012d_9b3f_ac83;
    let file = TempFile::new("pinned");
    let dev = ZbdDevice::create_file(ZbdConfig::new(24, 128).with_burns_to_readonly(40), &file.0)
        .unwrap();
    let mut emu = BlockEmu::new(dev, 6, ReclaimPolicy::Immediate);
    emu.install_faults(FaultConfig::new(0x10C).with_program_fail_ppm(60_000));
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).unwrap();
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut overwrite = |emu: &mut BlockEmu<ZbdDevice>, t: &mut Nanos| {
        for _ in 0..3 * cap {
            *t = emu.write(next_lba(&mut x, cap), *t).unwrap();
        }
    };
    overwrite(&mut emu, &mut t);
    // `BlockEmu` lends out no mutable device, so the two management
    // commands go through a second handle on the same file; the power
    // cycle below re-reads the file, and the host rebuilds around a
    // frontier that came back Full and a free zone that came back
    // ReadOnly.
    {
        let mut side = ZbdDevice::open_file(&file.0).unwrap();
        let first_in = |side: &ZbdDevice, state| {
            let z = side.zone_report().iter().find(|z| z.state() == state);
            z.expect("a zone in that state").id()
        };
        let frontier = first_in(&side, ZoneState::Closed);
        side.finish(frontier).unwrap();
        let free = first_in(&side, ZoneState::Empty);
        side.inject_read_only(free).unwrap();
    }
    t = emu.power_cycle(t).unwrap().0;
    overwrite(&mut emu, &mut t);
    drop(emu);

    let bytes = std::fs::read(&file.0).unwrap();
    // The schedule still exercises what it was written to exercise.
    let records = decode_records(&bytes[HEADER_LEN..]);
    let count = |is: fn(&Record) -> bool| records.iter().filter(|r| is(r)).count();
    let copies = count(|r| matches!(r, Record::Copy { .. }));
    assert!(copies > count(|r| matches!(r, Record::Append { .. })));
    assert!(count(|r| matches!(r, Record::Burn { .. })) > 0);
    assert!(count(|r| matches!(r, Record::Reset { .. })) > 0);
    assert!(count(|r| matches!(r, Record::Finish { .. })) > 0);
    assert!(count(|r| matches!(r, Record::SetState { .. })) > 0);
    let mut d = Digest::new();
    d.bytes(&bytes);
    assert_eq!(
        (bytes.len() as u64, d.0),
        (PINNED_LEN, PINNED_FNV),
        "log file bytes moved (len, fnv = {}, {:#018x})",
        bytes.len(),
        d.0
    );
}

/// What `ZbdDevice` *emits*, pinned: FNV-1a over the complete
/// `ZnsEvent`/`FaultEvent` stream (sequence number, virtual instant and
/// every field, as `Debug` prints them) of a ring-traced memory device
/// with limits 3/2 under a 4 % program-fail plan, driven by one
/// fixed-seed schedule of every zoned command, then the final zone
/// report, `ZnsStats`, `FlashStats` and the three tallies. The schedule
/// must reach every transition cause and both limit stalls. Captured on
/// the commit before the zone state machine moved into
/// `bh_zns::ZoneTable`; deliberately not keyed to `BH_PROP_SEED`.
#[test]
fn zbd_event_stream_is_pinned() {
    use bh_trace::{Event, Tracer, ZnsEvent, ZoneStateTag};
    use bh_zns::ZoneId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    const PINNED_EVENTS: usize = 3229;
    const PINNED_FNV: u64 = 0x5006_6ff8_d6d6_6581;

    let cfg = ZbdConfig::new(32, 8)
        .with_limits(3, 2)
        .with_burns_to_readonly(2);
    let mut dev = ZbdDevice::new(cfg).unwrap();
    dev.install_faults(
        FaultConfig::new(0xE7E27)
            .with_program_fail_ppm(40_000)
            .with_read_retry_ppm(20_000),
    );
    // The device owns its tracer; a clone shares the ring.
    let tracer = Tracer::ring(1 << 17);
    dev.set_tracer(tracer.clone());
    let mut rng = SmallRng::seed_from_u64(0x2BD_E7E27);
    let mut t = Nanos::ZERO;
    let zones = dev.num_zones();
    let mut z = ZoneId(0);
    for step in 0..12_000u64 {
        // Half the commands stay on the previous zone, so zones fill.
        if rng.gen_bool(0.5) {
            z = ZoneId(rng.gen_range(0..zones));
        }
        let wp = dev.zone(z).unwrap().write_pointer();
        match rng.gen_range(0u32..40) {
            0..=11 => t = dev.write(z, wp, step, t).unwrap_or(t),
            12..=20 => t = dev.append(z, step, t).map_or(t, |r| r.1),
            21..=24 => t = dev.read(z, rng.gen_range(0..8), t).map_or(t, |r| r.1),
            25..=27 => drop(dev.open(z)),
            28..=29 => drop(dev.close(z)),
            30..=32 => drop(dev.finish(z)),
            33..=35 => t = dev.reset(z, t).unwrap_or(t),
            36..=37 => {
                let src = ZoneId(rng.gen_range(0..zones));
                let n = dev.zone(src).unwrap().write_pointer().min(3);
                let sources: Vec<_> = (0..n).map(|off| (src, off)).collect();
                t = dev.simple_copy(&sources, z, t).map_or(t, |r| r.1);
            }
            38 if step % 7 == 0 => dev.inject_read_only(z).unwrap(),
            _ if step % 5 == 0 => t = dev.power_cycle(t),
            _ => {}
        }
    }

    let events = tracer.events();
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole stream");
    let transition = |cause: &str, from: Option<ZoneStateTag>| {
        events.iter().any(|e| match e.event {
            Event::Zns(ZnsEvent::Transition {
                cause: c, from: f, ..
            }) => c == cause && from.is_none_or(|from| from == f),
            _ => false,
        })
    };
    for cause in [
        "write",
        "open",
        "promote",
        "implicit-close",
        "close",
        "write-full",
        "program-fail",
        "inject",
        "reset",
        "power-loss",
    ] {
        assert!(transition(cause, None), "no {cause:?} transition");
    }
    for from in [
        ZoneStateTag::Empty,
        ZoneStateTag::ImplicitlyOpened,
        ZoneStateTag::ExplicitlyOpened,
        ZoneStateTag::Closed,
    ] {
        assert!(transition("finish", Some(from)), "no finish from {from:?}");
    }
    for kind in ["active", "open"] {
        let stalled = |e: &bh_trace::TracedEvent| matches!(e.event, Event::Zns(ZnsEvent::LimitStall { kind: k, .. }) if k == kind);
        assert!(events.iter().any(stalled), "no {kind:?} limit stall");
    }
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::Zns(ZnsEvent::Append { .. }))));
    assert!(events.iter().any(|e| matches!(e.event, Event::Fault(_))));

    let mut d = Digest::new();
    for e in &events {
        d.bytes(format!("{e:?}").as_bytes());
    }
    for z in dev.zone_report() {
        d.bytes(format!("{z:?}").as_bytes());
    }
    d.bytes(format!("{:?}{:?}", dev.zone_stats(), dev.flash_stats()).as_bytes());
    for tally in [dev.active_zones(), dev.open_zones(), dev.empty_zones()] {
        d.u64(tally as u64);
    }
    assert_eq!(
        (events.len(), d.0),
        (PINNED_EVENTS, PINNED_FNV),
        "zbd event stream moved (events, fnv = {}, {:#018x})",
        events.len(),
        d.0
    );
}
