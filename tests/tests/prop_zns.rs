//! Property tests for the zoned devices: the zone state machine never
//! enters an illegal configuration and the namespace-wide accounting
//! (active/open/empty counts) always matches the per-zone states, under
//! arbitrary command sequences — on the flash-timed `ZnsDevice` and on
//! the log-backed `ZbdDevice`, which share one `ZoneTable`.
//!
//! And a differential test of run-granular simple copy: one n-source
//! command leaves the device exactly where n one-source commands at the
//! same instant do.
//!
//! Implemented as seeded-loop property tests (the offline build vendors
//! no proptest); each case prints its seed on failure for replay.

use bh_faults::FaultConfig;
use bh_flash::{CellKind, FlashConfig, Geometry, PlaneId};
use bh_metrics::Nanos;
use bh_trace::Tracer;
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::{ZnsConfig, ZnsDevice, ZnsError, ZoneId, ZoneState, ZonedDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum ZnsCmd {
    Write(u8),
    Append(u8),
    Read(u8, u8),
    Open(u8),
    Close(u8),
    Finish(u8),
    Reset(u8),
    PowerCycle,
    InjectReadOnly(u8),
}

fn gen_cmd(rng: &mut SmallRng) -> ZnsCmd {
    let z = rng.gen_range(0u32..256) as u8;
    // The original proptest strategy's 4/3/2/1/1/1/2, doubled, plus a
    // power cycle per ~15 commands and a rarer injected degradation.
    match rng.gen_range(0u32..31) {
        0..=7 => ZnsCmd::Write(z),
        8..=13 => ZnsCmd::Append(z),
        14..=17 => ZnsCmd::Read(z, rng.gen_range(0u32..256) as u8),
        18..=19 => ZnsCmd::Open(z),
        20..=21 => ZnsCmd::Close(z),
        22..=23 => ZnsCmd::Finish(z),
        24..=27 => ZnsCmd::Reset(z),
        28..=29 => ZnsCmd::PowerCycle,
        _ => ZnsCmd::InjectReadOnly(z),
    }
}

fn config(mar: u32, mor: u32) -> ZnsConfig {
    ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4)
        .with_active_zones(mar)
        .with_open_zones(mor)
}

fn device(mar: u32, mor: u32) -> ZnsDevice {
    ZnsDevice::new(config(mar, mor)).unwrap()
}

/// Recomputes the active/open/empty counts from zone states.
fn recount(dev: &impl ZonedDevice) -> (u32, u32, u32) {
    let count = |is: fn(ZoneState) -> bool| {
        let zones = dev.zone_report().iter();
        zones.filter(|z| is(z.state())).count() as u32
    };
    (
        count(ZoneState::is_active),
        count(ZoneState::is_open),
        count(|s| s == ZoneState::Empty),
    )
}

/// Whatever command sequence arrives (most of it invalid), the device
/// never violates: wp <= capacity, limit accounting matches the states,
/// limits are respected, and data below the write pointer reads back.
fn state_machine_holds_invariants<D: ZonedDevice>(label: &str, mk: impl Fn(u32, u32) -> D) {
    for case in 0u64..64 {
        let mut rng = SmallRng::seed_from_u64(0x25A0_0000 ^ case);
        let case = format!("{label} case {case}");
        let n_cmds = rng.gen_range(1usize..300);
        let mar = rng.gen_range(2u32..8);
        let mor = mar.max(2) - 1;
        let mut dev = mk(mar, mor);
        let zones = dev.num_zones();
        let mut t = Nanos::ZERO;
        // Model: per zone, the stamps written since last reset.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); zones as usize];
        let mut stamp = 0u64;
        for _ in 0..n_cmds {
            match gen_cmd(&mut rng) {
                ZnsCmd::Write(z) => {
                    let z = z as u32 % zones;
                    let wp = dev.zone(ZoneId(z)).unwrap().write_pointer();
                    stamp += 1;
                    if let Ok(done) = dev.write(ZoneId(z), wp, stamp, t) {
                        model[z as usize].push(stamp);
                        t = done;
                    }
                }
                ZnsCmd::Append(z) => {
                    let z = z as u32 % zones;
                    stamp += 1;
                    if let Ok((off, done)) = dev.append(ZoneId(z), stamp, t) {
                        assert_eq!(off as usize, model[z as usize].len(), "{case}");
                        model[z as usize].push(stamp);
                        t = done;
                    }
                }
                ZnsCmd::Read(z, o) => {
                    let z = z as u32 % zones;
                    let written = model[z as usize].len() as u64;
                    match dev.read(ZoneId(z), o as u64, t) {
                        Ok((got, done)) => {
                            assert!((o as u64) < written, "{case}: read past model wp succeeded");
                            assert_eq!(got, model[z as usize][o as usize], "{case}");
                            t = done;
                        }
                        Err(_) => {
                            // Either beyond wp or zone offline; both fine.
                        }
                    }
                }
                ZnsCmd::Open(z) => {
                    let _ = dev.open(ZoneId(z as u32 % zones));
                }
                ZnsCmd::Close(z) => {
                    let _ = dev.close(ZoneId(z as u32 % zones));
                }
                ZnsCmd::Finish(z) => {
                    let _ = dev.finish(ZoneId(z as u32 % zones));
                }
                ZnsCmd::Reset(z) => {
                    let z = z as u32 % zones;
                    if let Ok(done) = dev.reset(ZoneId(z), t) {
                        model[z as usize].clear();
                        t = done;
                    }
                }
                ZnsCmd::PowerCycle => {
                    t = dev.power_cycle(t);
                    assert_eq!(dev.open_zones(), 0, "{case}: open state is volatile");
                }
                ZnsCmd::InjectReadOnly(z) => {
                    let z = ZoneId(z as u32 % zones);
                    dev.inject_read_only(z).unwrap();
                    assert_eq!(dev.zone(z).unwrap().state(), ZoneState::ReadOnly);
                }
            }
            // Invariants after every command.
            let (active, open, empty) = recount(&dev);
            assert_eq!(
                active,
                dev.active_zones(),
                "{case}: active accounting drifted"
            );
            assert_eq!(open, dev.open_zones(), "{case}: open accounting drifted");
            assert_eq!(empty, dev.empty_zones(), "{case}: empty accounting drifted");
            assert!(active <= mar, "{case}: MAR violated: {active} > {mar}");
            assert!(open <= mor, "{case}: MOR violated: {open} > {mor}");
            for (z, written) in dev.zone_report().iter().zip(&model) {
                assert!(z.write_pointer() <= z.capacity(), "{case}");
                assert_eq!(z.write_pointer(), written.len() as u64, "{case}");
                if z.state() == ZoneState::Empty {
                    assert_eq!(z.write_pointer(), 0, "{case}");
                }
            }
        }
        // Final sweep: every modeled byte reads back.
        for z in 0..zones {
            for (o, &expect) in model[z as usize].iter().enumerate() {
                if dev.zone(ZoneId(z)).unwrap().state() == ZoneState::Offline {
                    continue;
                }
                let (got, done) = dev.read(ZoneId(z), o as u64, t).unwrap();
                assert_eq!(got, expect, "{case}");
                t = done;
            }
        }
    }
}

#[test]
fn zone_state_machine_holds_invariants() {
    state_machine_holds_invariants("zns", device);
    state_machine_holds_invariants("zbd", |mar, mor| {
        ZbdDevice::new(ZbdConfig::mirror(&config(mar, mor))).unwrap()
    });
}

/// Flash-level conservation under the ZNS model: total programs equal
/// the appends that succeeded, and the zoned interface never amplifies
/// writes by itself.
#[test]
fn zns_program_accounting_is_conserved() {
    for case in 0u64..64 {
        let mut rng = SmallRng::seed_from_u64(0x25A0_1000 ^ case);
        let n_writes = rng.gen_range(1usize..200);
        let mut dev = device(8, 8);
        let zones = dev.num_zones();
        let mut t = Nanos::ZERO;
        let mut programs = 0u64;
        for _ in 0..n_writes {
            let z = rng.gen_range(0u32..256) % zones;
            let reset = rng.gen_bool(0.5);
            if reset {
                // Destroys content; programs counter unaffected.
                let _ = dev.reset(ZoneId(z), t);
            } else if let Ok((_, done)) = dev.append(ZoneId(z), 1, t) {
                programs += 1;
                t = done;
            }
        }
        assert_eq!(dev.flash_stats().host_programs, programs, "case {case}");
        // The zoned interface never amplifies writes by itself.
        assert!(
            (dev.flash_stats().write_amplification() - 1.0).abs() < 1e-12,
            "case {case}"
        );
    }
}

/// 16 zones of 4 blocks × 8 pages, no two of a zone's blocks on one plane.
fn copy_geometry() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_bytes: 4096,
    }
}

/// A device with a seed's worth of history: zones written to random
/// depths and some finished, and — `worn` — resets under a 20 %
/// erase-failure plan until some zone has lost exactly one block, so its
/// stripe is three wide. Returns that zone too. Deterministic, so two
/// calls build twins.
fn copy_history(seed: u64, worn: bool, traced: bool) -> (ZnsDevice, Option<ZoneId>) {
    let flash = FlashConfig {
        geometry: copy_geometry(),
        cell: CellKind::Tlc,
        endurance_override: None,
    };
    let cfg = ZnsConfig::new(flash, 4)
        .with_zone_limits(16)
        .with_burns_to_readonly(3);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    if traced {
        dev.set_tracer(Tracer::ring(1 << 16));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = Nanos::ZERO;
    let mut three_wide = None;
    if worn {
        dev.install_faults(FaultConfig::new(seed).with_erase_fail_ppm(200_000));
        for z in (0..dev.num_zones()).map(ZoneId) {
            while dev.zone(z).unwrap().blocks().len() == 4 {
                t = dev.reset(z, t).unwrap();
            }
            if dev.zone(z).unwrap().blocks().len() == 3 {
                three_wide = Some(z);
                break;
            }
        }
        assert!(
            three_wide.is_some(),
            "seed {seed:#x}: no zone wore to 3 blocks"
        );
    }
    let mut stamp = 0;
    for z in (0..dev.num_zones()).map(ZoneId) {
        let capacity = dev.zone(z).unwrap().capacity();
        if capacity == 0 {
            continue;
        }
        // A third stay empty, a third fill, the rest land in between.
        let depth = match rng.gen_range(0..3) {
            0 => 0,
            1 => capacity,
            _ => rng.gen_range(1..capacity),
        };
        for _ in 0..depth {
            stamp += 1;
            t = dev.append(z, stamp, t).unwrap().1;
        }
        if depth > 0 && rng.gen_bool(0.2) {
            dev.finish(z).unwrap();
        }
    }
    (dev, three_wide)
}

/// The command as its contract words it, through the public API: the
/// all-or-nothing admission, then one one-source command per page at the
/// same instant — what `ZnsDevice::simple_copy` was before it copied in
/// runs.
fn copy_page_by_page(
    dev: &mut ZnsDevice,
    sources: &[(ZoneId, u64)],
    dst: ZoneId,
    now: Nanos,
) -> Result<(Vec<u64>, Nanos), ZnsError> {
    for &(id, got) in sources {
        let zone = dev.zone(id)?;
        let wp = zone.write_pointer();
        if zone.state() == ZoneState::Offline {
            return Err(ZnsError::ZoneOffline(id));
        }
        if got >= wp {
            return Err(ZnsError::ReadBeyondWritePointer { zone: id, wp, got });
        }
    }
    if dev.zone(dst)?.remaining() < sources.len() as u64 {
        return Err(ZnsError::ZoneFull(dst));
    }
    let mut placed = Vec::new();
    let mut done = now;
    for &source in sources {
        let (at, d) = dev.simple_copy(&[source], dst, now)?;
        placed.extend(at);
        done = done.max(d);
    }
    Ok((placed, done))
}

/// Everything a simple copy can move, in one comparable value. Reads
/// every written page back last (that moves the clocks, identically on
/// twins).
fn copy_fingerprint(dev: &mut ZnsDevice, t: Nanos) -> String {
    let mut out = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n",
        dev.zone_report(),
        dev.stats(),
        dev.flash_stats(),
        dev.device().fault_counters()
    );
    for p in (0..copy_geometry().total_planes()).map(PlaneId) {
        let sched = dev.device().scheduler();
        out += &format!(
            "{:?} {:?}\n",
            sched.plane_free_at(p),
            sched.plane_busy_time(p)
        );
    }
    for z in (0..dev.num_zones()).map(ZoneId) {
        for o in 0..dev.zone(z).unwrap().write_pointer() {
            out += &format!("{:?}\n", dev.read(z, o, t));
        }
    }
    out += &format!("{:?}", dev.tracer().events());
    out
}

/// What one differential case exercised, for the coverage assertions.
#[derive(Default)]
struct CopyCoverage {
    burned_and_completed: u32,
    cut_short_by_a_burn: u32,
    filled_before_the_end: u32,
    refused_whole: u32,
    three_wide_source: u32,
    three_wide_destination: u32,
    multi_zone: u32,
}

#[test]
fn one_n_source_copy_equals_n_one_source_copies() {
    let mut seen = CopyCoverage::default();
    for case in 0u64..160 {
        let seed = 0x25A0_2000 ^ case;
        let worn = case % 4 == 1;
        let faults = case % 2 == 0;
        let traced = case % 8 >= 4;
        let ctx = format!("seed {seed:#x} (worn {worn}, faults {faults}, traced {traced})");
        let (mut batch, three_wide) = copy_history(seed, worn, traced);
        let (mut paged, _) = copy_history(seed, worn, traced);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0B1);

        // Destination: a zone with room, the worn one every other time
        // there is one. Sources: any written page but the destination's,
        // from several zones, unsorted and repeated.
        let writable = |dev: &ZnsDevice, z: ZoneId| {
            let zone = dev.zone(z).unwrap();
            zone.remaining() > 0
                && matches!(
                    zone.state(),
                    ZoneState::Empty | ZoneState::Closed | ZoneState::ImplicitlyOpened
                )
        };
        let candidates: Vec<ZoneId> = (0..batch.num_zones())
            .map(ZoneId)
            .filter(|&z| writable(&batch, z))
            .collect();
        let dst = match three_wide {
            Some(z) if case % 8 == 1 && writable(&batch, z) => z,
            _ => candidates[rng.gen_range(0..candidates.len())],
        };
        let pool: Vec<(ZoneId, u64)> = batch
            .zone_report()
            .iter()
            .filter(|z| z.id() != dst)
            .flat_map(|z| (0..z.write_pointer()).map(|o| (z.id(), o)))
            .collect();
        let room = batch.zone(dst).unwrap().remaining() as usize;
        // Exactly the room, one more than the room, or anything below.
        let n = match case % 5 {
            0 => room,
            1 => room + 1,
            _ => rng.gen_range(1..=room),
        };
        let mut sources: Vec<(ZoneId, u64)> =
            (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        if case % 3 == 0 {
            // A run of consecutive offsets too, as reclaim issues them.
            sources.sort_unstable();
        }

        if faults {
            for dev in [&mut batch, &mut paged] {
                dev.install_faults(FaultConfig::new(seed).with_program_fail_ppm(40_000));
            }
        }
        let now = Nanos::from_millis(500);
        let got = batch.simple_copy(&sources, dst, now);
        let want = copy_page_by_page(&mut paged, &sources, dst, now);
        assert_eq!(
            got, want,
            "{ctx}: {n} sources into {dst:?} with room {room}"
        );
        assert_eq!(
            copy_fingerprint(&mut batch, now),
            copy_fingerprint(&mut paged, now),
            "{ctx}: {n} sources into {dst:?} with room {room}"
        );

        let burns = batch
            .device()
            .fault_counters()
            .map_or(0, |c| c.program_failures);
        match &got {
            Ok((placed, _)) => {
                assert_eq!(placed.len(), n, "{ctx}");
                seen.burned_and_completed += (burns > 0) as u32;
            }
            Err(ZnsError::ProgramFailure { .. }) => seen.cut_short_by_a_burn += 1,
            Err(ZnsError::ZoneFull(_)) if n > room => {
                assert_eq!(batch.stats().simple_copy_pages, 0, "{ctx}: all or nothing");
                seen.refused_whole += 1;
            }
            Err(ZnsError::ZoneFull(_)) => seen.filled_before_the_end += 1,
            Err(e) => panic!("{ctx}: unexpected {e:?}"),
        }
        let zones: std::collections::BTreeSet<_> = sources.iter().map(|s| s.0).collect();
        seen.multi_zone += (zones.len() > 2) as u32;
        seen.three_wide_destination += (Some(dst) == three_wide) as u32;
        seen.three_wide_source += three_wide.is_some_and(|z| zones.contains(&z)) as u32;
    }
    // The cases the equivalence is most likely to break on all occurred.
    for (what, count) in [
        ("burn mid-run, command completed", seen.burned_and_completed),
        (
            "burn filled or degraded the destination",
            seen.cut_short_by_a_burn,
        ),
        (
            "burns used up the room before the last source",
            seen.filled_before_the_end,
        ),
        ("one source more than the room", seen.refused_whole),
        ("three-block stripe as source", seen.three_wide_source),
        (
            "three-block stripe as destination",
            seen.three_wide_destination,
        ),
        ("sources from three or more zones", seen.multi_zone),
    ] {
        println!("{count:3} cases of: {what}");
        assert!(count >= 2, "only {count} cases of: {what}");
    }
}
