//! Property tests for the zoned devices: the zone state machine never
//! enters an illegal configuration and the namespace-wide accounting
//! (active/open/empty counts) always matches the per-zone states, under
//! arbitrary command sequences — on the flash-timed `ZnsDevice` and on
//! the log-backed `ZbdDevice`, which share one `ZoneTable`.
//!
//! Implemented as seeded-loop property tests (the offline build vendors
//! no proptest); each case prints its seed on failure for replay.

use bh_flash::{FlashConfig, Geometry};
use bh_metrics::Nanos;
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZoneState, ZonedDevice};
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
