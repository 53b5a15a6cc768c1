//! The timed read is the stamp read minus the stamp load, at every layer.
//!
//! Block-interface callers only need a read's completion instant, so
//! `FlashDevice::sense`, `ZnsDevice::read_timed`, `ConvSsd::read_timed`
//! and `BlockEmu::read_timed` skip loading the page's stamp. Everything
//! else must be the read's: the checks and the error each one returns,
//! the fault-plan draw, the schedule, the stats, the obs counters
//! projected from them and the trace events. Each test drives two identical devices, one through
//! the stamp read and one through the timed read, over a clean run and a
//! run under a fault plan, probing every address class the layer can
//! refuse, and asserts the twins agree on all of it.

use bh_conv::{ConvConfig, ConvError, ConvSsd};
use bh_faults::FaultConfig;
use bh_flash::{BlockId, FlashConfig, FlashDevice, FlashError, Geometry, OpOrigin, Ppa};
use bh_host::{BlockEmu, HostError, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::Tracer;
use bh_zns::{ZnsConfig, ZnsDevice, ZnsError, ZoneId, ZoneState};
use std::fmt::Debug;

/// Program failures to burn slots and ECC retries to stretch reads.
fn noisy() -> FaultConfig {
    FaultConfig {
        program_fail_ppm: 100_000,
        read_retry_ppm: 300_000,
        ..FaultConfig::new(11)
    }
}

/// One device with its own trace ring.
struct Twin<D> {
    dev: D,
    tracer: Tracer,
}

/// Two identical devices, each observed by its own tracer.
fn twins<D>(make: impl Fn() -> D, attach: impl Fn(&mut D, Tracer)) -> (Twin<D>, Twin<D>) {
    let twin = || {
        let mut dev = make();
        let tracer = Tracer::ring(1 << 16);
        attach(&mut dev, tracer.clone());
        Twin { dev, tracer }
    };
    (twin(), twin())
}

/// The obs snapshot `obs_into` projects from a device.
fn project<D>(dev: &D, obs_into: impl Fn(&D, &mut ObsSnapshot)) -> ObsSnapshot {
    let mut snap = ObsSnapshot::default();
    obs_into(dev, &mut snap);
    snap
}

/// Reads every probe on `a` through `read` and on `b` through `timed`,
/// issued at the same instants, and asserts the same completion or the
/// same error each time. Returns the outcomes in probe order.
fn probe<D, P: Copy + Debug, S, E: PartialEq + Debug>(
    a: &mut Twin<D>,
    b: &mut Twin<D>,
    probes: &[P],
    read: impl Fn(&mut D, P, Nanos) -> Result<(S, Nanos), E>,
    timed: impl Fn(&mut D, P, Nanos) -> Result<Nanos, E>,
) -> Vec<Result<Nanos, E>> {
    probes
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            // Close enough together that reads queue behind each other.
            let now = Nanos::from_micros(10_000 + 7 * i as u64);
            let full = read(&mut a.dev, p, now).map(|(_, done)| done);
            let fast = timed(&mut b.dev, p, now);
            assert_eq!(full, fast, "probe {p:?} at {now:?}");
            fast
        })
        .collect()
}

/// The twins' stats (rendered by `stats`), obs counters (projected by
/// `obs_into`) and trace events are identical, and the reads were really
/// observed.
fn assert_same_state<D>(
    a: &Twin<D>,
    b: &Twin<D>,
    stats: impl Fn(&D) -> String,
    obs_into: impl Fn(&D, &mut ObsSnapshot) + Copy,
) {
    assert_eq!(stats(&a.dev), stats(&b.dev), "stats");
    let obs = project(&a.dev, obs_into);
    assert_eq!(obs, project(&b.dev, obs_into), "obs counters");
    assert!(obs.counter(Ctr::FlashHostReads) > 0, "reads were counted");
    let (ea, eb) = (a.tracer.events(), b.tracer.events());
    assert!(!ea.is_empty(), "reads were traced");
    assert_eq!(ea, eb, "trace events");
}

fn has_err<E>(outcomes: &[Result<Nanos, E>], want: impl Fn(&E) -> bool) -> bool {
    outcomes.iter().any(|r| r.as_ref().is_err_and(&want))
}

#[test]
fn flash_sense_is_read_without_the_stamp() {
    for faults in [None, Some(noisy())] {
        let (mut a, mut b) = twins(
            || {
                // Endurance 1: the one erase below retires its block.
                let cfg = FlashConfig {
                    endurance_override: Some(1),
                    ..FlashConfig::tlc(Geometry::small_test())
                };
                FlashDevice::new(cfg).unwrap()
            },
            |d, tracer| {
                d.set_tracer(tracer);
                if let Some(cfg) = faults {
                    d.install_faults(cfg);
                }
            },
        );
        for t in [&mut a, &mut b] {
            let d = &mut t.dev;
            for block in 0..3 {
                // Block 2 stays half programmed.
                for page in 0..16 - 8 * (block / 2) {
                    let stamp = 100 * block as u64 + page as u64;
                    let _ = d.program_next(BlockId(block), stamp, Nanos::ZERO, OpOrigin::Host);
                }
            }
            for page in [1, 5, 9] {
                d.invalidate(Ppa::new(BlockId(1), page)).unwrap();
            }
            d.program_next(BlockId(3), 7, Nanos::ZERO, OpOrigin::Host)
                .unwrap();
            assert!(d.erase(BlockId(3), Nanos::ZERO).unwrap().retired);
        }
        let mut probes: Vec<Ppa> = (0..3)
            .flat_map(|b| (0..16).map(move |p| Ppa::new(BlockId(b), p)))
            .collect();
        probes.extend([
            Ppa::new(BlockId(3), 0),
            Ppa::new(BlockId(99), 0),
            Ppa::new(BlockId(0), 16),
        ]);
        let out = probe(
            &mut a,
            &mut b,
            &probes,
            |d, p, now| d.read(p, now, OpOrigin::Host),
            |d, p, now| d.sense(p, now, OpOrigin::Host).map(|(_, done)| done),
        );
        // Validity agrees too: a valid page reads its stamp, an invalid
        // one `None`. Both twins read each page once more.
        let mut invalid = 0;
        for &p in &probes {
            let full = a.dev.read(p, Nanos::ZERO, OpOrigin::Host);
            let sensed = b.dev.sense(p, Nanos::ZERO, OpOrigin::Host);
            assert_eq!(
                full.map(|(stamp, done)| (stamp.is_some(), done)),
                sensed,
                "{p:?}"
            );
            invalid += matches!(sensed, Ok((false, _))) as u32;
        }
        // Burned pages sense invalid as well.
        assert!(invalid >= 3, "the invalidated pages sense invalid");
        for want in [
            |e: &FlashError| matches!(e, FlashError::ReadUnwritten(_)),
            |e: &FlashError| matches!(e, FlashError::BadBlock(_)),
            |e: &FlashError| matches!(e, FlashError::OutOfRange(_)),
        ] {
            assert!(has_err(&out, want), "{faults:?}: {out:?}");
        }
        if faults.is_some() {
            assert!(
                project(&a.dev, FlashDevice::obs_into).counter(Ctr::FlashEccRetries) > 0,
                "the plan fired retries"
            );
        }
        assert_same_state(
            &a,
            &b,
            |d| format!("{:?}", d.stats()),
            FlashDevice::obs_into,
        );
    }
}

#[test]
fn zns_timed_read_is_read_without_the_stamp() {
    for faults in [None, Some(noisy())] {
        let (mut a, mut b) = twins(
            || {
                let flash = FlashConfig {
                    endurance_override: Some(1),
                    ..FlashConfig::tlc(Geometry::small_test())
                };
                ZnsDevice::new(ZnsConfig::new(flash, 4).with_zone_limits(8)).unwrap()
            },
            |d, tracer| {
                d.set_tracer(tracer);
                if let Some(cfg) = faults {
                    d.install_faults(cfg);
                }
            },
        );
        for t in [&mut a, &mut b] {
            let d = &mut t.dev;
            // Zone 0 filled, zone 1 partly: a burn is an `Err` here and a
            // burned slot below the pointer afterwards.
            for (zone, pages) in [(0, 64), (1, 24)] {
                for stamp in 1..=pages {
                    if d.zone(ZoneId(zone)).unwrap().state() == ZoneState::Full {
                        break;
                    }
                    let _ = d.append(ZoneId(zone), stamp, Nanos::ZERO);
                }
            }
            // Endurance 1: resetting zone 7 retires every block, and the
            // zone goes Offline.
            let _ = d.append(ZoneId(7), 1, Nanos::ZERO);
            let _ = d.reset(ZoneId(7), Nanos::ZERO);
            assert_eq!(d.zone(ZoneId(7)).unwrap().state(), ZoneState::Offline);
        }
        let mut probes: Vec<(u32, u64)> = (0..2)
            .flat_map(|z| (0..64).map(move |off| (z, off)))
            .collect();
        probes.extend([(2, 0), (7, 0), (99, 0)]);
        let out = probe(
            &mut a,
            &mut b,
            &probes,
            |d, (z, off), now| d.read(ZoneId(z), off, now),
            |d, (z, off), now| d.read_timed(ZoneId(z), off, now),
        );
        for want in [
            |e: &ZnsError| matches!(e, ZnsError::ReadBeyondWritePointer { .. }),
            |e: &ZnsError| matches!(e, ZnsError::ZoneOffline(_)),
            |e: &ZnsError| matches!(e, ZnsError::ZoneOutOfRange(_)),
        ] {
            assert!(has_err(&out, want), "{faults:?}: {out:?}");
        }
        assert_eq!(
            has_err(&out, |e| matches!(e, ZnsError::MediaError { .. })),
            faults.is_some(),
            "burned slots read as MediaError exactly when the plan burns"
        );
        assert_same_state(
            &a,
            &b,
            |d| format!("{:?} {:?}", d.stats(), d.flash_stats()),
            ZnsDevice::obs_into,
        );
    }
}

#[test]
fn conv_timed_read_is_read_without_the_stamp() {
    for faults in [None, Some(noisy())] {
        let (mut a, mut b) = twins(
            || {
                ConvSsd::new(ConvConfig::new(
                    FlashConfig::tlc(Geometry::small_test()),
                    0.25,
                ))
                .unwrap()
            },
            |d, tracer| {
                d.set_tracer(tracer);
                if let Some(cfg) = faults {
                    d.install_faults(cfg);
                }
            },
        );
        let cap = a.dev.capacity_pages();
        for t in [&mut a, &mut b] {
            // Half the space, then overwrites of it, so reads land on
            // pages GC has moved.
            let mut now = Nanos::ZERO;
            for i in 0..3 * cap / 2 {
                now = t.dev.write(i % (cap / 2), now).unwrap().done;
            }
        }
        let probes: Vec<u64> = (0..cap + 2).collect();
        let out = probe(
            &mut a,
            &mut b,
            &probes,
            |d, lba, now| d.read(lba, now),
            |d, lba, now| d.read_timed(lba, now),
        );
        assert!(has_err(&out, |e| matches!(e, ConvError::Unmapped(_))));
        assert!(has_err(&out, |e| matches!(
            e,
            ConvError::LbaOutOfRange { .. }
        )));
        assert!(a.dev.ftl_stats().gc_runs > 0, "reads follow GC moves");
        assert_same_state(
            &a,
            &b,
            |d| format!("{:?} {:?}", d.ftl_stats(), d.flash_stats()),
            ConvSsd::obs_into,
        );
    }
}

#[test]
fn blockemu_timed_read_is_read_without_the_stamp() {
    for faults in [None, Some(noisy())] {
        let (mut a, mut b) = twins(
            || {
                let cfg =
                    ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
                BlockEmu::new(ZnsDevice::new(cfg).unwrap(), 2, ReclaimPolicy::Immediate)
            },
            |d, tracer| {
                d.set_tracer(tracer);
                if let Some(cfg) = faults {
                    d.install_faults(cfg);
                }
            },
        );
        let cap = a.dev.capacity_pages();
        for t in [&mut a, &mut b] {
            let mut now = Nanos::ZERO;
            // Half the space, then a quarter of it again: enough to
            // relocate, not so much that burns exhaust the zones.
            for i in 0..3 * cap / 4 {
                now = t.dev.write(i % (cap / 2), now).unwrap();
                now = t.dev.maybe_reclaim(now).unwrap().1;
            }
        }
        let probes: Vec<u64> = (0..cap + 2).collect();
        let out = probe(
            &mut a,
            &mut b,
            &probes,
            |d, lba, now| d.read(lba, now),
            |d, lba, now| d.read_timed(lba, now),
        );
        assert!(has_err(&out, |e| matches!(e, HostError::Unmapped(_))));
        assert!(has_err(&out, |e| matches!(
            e,
            HostError::LbaOutOfRange { .. }
        )));
        assert_same_state(
            &a,
            &b,
            |d| {
                let zns = d.device();
                format!("{:?} {:?} {:?}", d.stats(), zns.stats(), zns.flash_stats())
            },
            BlockEmu::obs_into,
        );
    }
}
