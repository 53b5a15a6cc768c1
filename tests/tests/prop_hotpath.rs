//! Property tests for GC victim selection on both stacks, after every
//! operation of random op/fault sequences. `ConvSsd` keeps an
//! incrementally-maintained victim index, which must agree with a naive
//! full-scan oracle derived from device state and reproduce the old
//! linear scan's pick exactly (including tie-break order). `BlockEmu`
//! picks by scanning its zone table, and that pick must equal an oracle
//! rebuilt from the zone report: Full zones ordered by `(garbage, zone)`
//! and walked from the top. Both FTLs' maps must also stay a bijection
//! with the live pages whose stamps name them — the stamp is the only
//! reverse map GC has.
//!
//! Seeded-loop style (the offline build vendors no proptest); each case
//! prints its seed on failure for replay. `BH_PROP_SEED` pins one seed.

use bh_conv::{ConvConfig, ConvError, ConvSsd, GcPolicy};
use bh_faults::FaultConfig;
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, HostError, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn seeds(base: u64, cases: u64) -> Vec<u64> {
    match std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => (0..cases).map(|c| base ^ c).collect(),
    }
}

fn small_geo() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 24,
        pages_per_block: 8,
        page_bytes: 4096,
    }
}

/// Runs one seeded conv schedule, checking the oracles after every op,
/// and returns how many of its ops ran before the device went read-only
/// (the oracles cover only those) and how many were scheduled. Without
/// `power_cycles` the op that would cut the power writes instead.
fn conv_case(seed: u64, policy: GcPolicy, faults: bool, power_cycles: bool) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cfg = ConvConfig::new(FlashConfig::tlc(small_geo()), 0.12);
    cfg.gc_policy = policy;
    // Odd seeds also migrate whole blocks for static wear leveling, the
    // other path that relocates by stamp.
    if seed % 2 == 1 {
        cfg.wear_level_gap = Some(2);
    }
    let mut ssd = ConvSsd::new(cfg).unwrap();
    if faults {
        ssd.install_faults(
            FaultConfig::new(seed)
                .with_program_fail_ppm(10_000)
                .with_erase_fail_ppm(20_000),
        );
    }
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).unwrap().done;
    }
    let ops = rng.gen_range(200..1200);
    let mut ran = 0;
    for i in 0..ops {
        match rng.gen_range(0u32..10) {
            9 if power_cycles => {
                let (done, _) = ssd.power_cycle(t).unwrap();
                t = done;
            }
            0..=6 | 9 => match ssd.write(rng.gen_range(0..cap), t) {
                Ok(w) => t = w.done,
                // Judged by the caller.
                Err(ConvError::ReadOnly) => break,
                Err(e) => panic!("seed {seed:#x} op {i}: {e}"),
            },
            7 => {
                ssd.trim(rng.gen_range(0..cap)).unwrap();
            }
            _ => match ssd.maintenance(t, t + Nanos::from_millis(2)) {
                Ok(_) => {}
                // A wear-leveling migration can find no destination.
                Err(ConvError::ReadOnly) => break,
                Err(e) => panic!("seed {seed:#x} op {i}: {e}"),
            },
        }
        if let Err(e) = ssd.verify_hotpath_invariants(t) {
            panic!("seed {seed:#x} policy {policy:?} faults {faults} op {i}: {e}");
        }
        ran += 1;
    }
    (ran, ops)
}

/// Runs a conv schedule that must last to its end, so its oracles see
/// every op.
fn conv_whole_case(seed: u64, policy: GcPolicy, faults: bool, power_cycles: bool) {
    let (ran, ops) = conv_case(seed, policy, faults, power_cycles);
    assert_eq!(
        ran, ops,
        "seed {seed:#x} {policy:?} faults {faults} power cycles {power_cycles}: \
         the device went read-only"
    );
}

/// Clean schedules with power cycles run to the end: GC reclaims the
/// unprogrammed tail of every block a power cycle seals.
#[test]
fn conv_index_matches_full_scan_oracle_greedy() {
    for seed in seeds(0x407_0100, 12) {
        conv_whole_case(seed, GcPolicy::Greedy, false, true);
    }
}

/// The cases above without power cycles, clean or faulted: the map/stamp
/// bijection and the index oracles are checked after every op's
/// relocation runs on eight-page blocks.
#[test]
fn conv_index_matches_full_scan_oracle_for_a_whole_schedule() {
    for seed in seeds(0x407_0100, 12) {
        for faults in [false, true] {
            conv_whole_case(seed, GcPolicy::Greedy, faults, false);
        }
    }
}

#[test]
fn conv_index_matches_full_scan_oracle_cost_benefit() {
    for seed in seeds(0x407_0200, 12) {
        conv_whole_case(seed, GcPolicy::CostBenefit, false, true);
    }
}

#[test]
fn conv_index_matches_full_scan_oracle_fifo() {
    for seed in seeds(0x407_0300, 12) {
        conv_whole_case(seed, GcPolicy::Fifo, false, true);
    }
}

/// Faulted schedules with power cycles that go read-only early, and
/// the op they stop at. Each power cycle seals every open frontier
/// part-written, so GC erases part-empty blocks, and at 2 % erase
/// failures these seeds retire blocks until the good ones no longer
/// hold the logical capacity plus a host and a GC frontier per plane
/// (ROADMAP item 2: resuming frontiers after a clean shutdown would
/// spare those erases). Every other seed runs its whole schedule.
const WORN_OUT_BY_POWER_CYCLES: [(u64, u64); 4] = [
    (0x407_0402, 891),
    (0x407_0404, 819),
    (0x407_0408, 794),
    (0x407_040a, 411),
];

#[test]
fn conv_index_survives_fault_retirement() {
    for seed in seeds(0x407_0400, 12) {
        let (ran, ops) = conv_case(seed, GcPolicy::Greedy, true, true);
        let stop = WORN_OUT_BY_POWER_CYCLES
            .iter()
            .find(|&&(s, _)| s == seed)
            .map_or(ops, |&(_, stop)| stop);
        assert_eq!(
            ran, stop,
            "seed {seed:#x} of {ops} ops: read-only after {ran}, pinned {stop}"
        );
    }
}

fn emu_case(seed: u64, policy: ReclaimPolicy, faults: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Even seeds: 24 zones of 32 pages, half a bitmap word each. Odd
    // seeds: 8 zones of 100 pages, so a zone's live bits end mid-word.
    let mut geo = small_geo();
    if seed % 2 == 1 {
        geo.blocks_per_plane = 8;
        geo.pages_per_block = 25;
    }
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    if faults {
        dev.install_faults(
            FaultConfig::new(seed)
                .with_program_fail_ppm(10_000)
                .with_erase_fail_ppm(20_000),
        );
    }
    let mut emu = BlockEmu::new(dev, 2, policy);
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    let ops = rng.gen_range(200..1200);
    for i in 0..ops {
        match rng.gen_range(0u32..10) {
            0..=6 => match emu.write(rng.gen_range(0..cap), t) {
                Ok(done) => t = done,
                Err(HostError::NoFreeZone) => {
                    t = emu.maybe_reclaim(t).unwrap().1;
                }
                Err(e) => panic!("seed {seed:#x} op {i}: {e:?}"),
            },
            7 => {
                emu.trim(rng.gen_range(0..cap)).unwrap();
            }
            8 => {
                t = emu.maybe_reclaim(t).unwrap().1;
            }
            _ => {
                t = emu.power_cycle(t).unwrap().0;
            }
        }
        emu.verify_hotpath_invariants();
    }
}

#[test]
fn emu_index_matches_full_scan_oracle() {
    for policy in [
        ReclaimPolicy::Immediate,
        ReclaimPolicy::Watermark {
            low_zones: 2,
            high_zones: 4,
        },
    ] {
        for seed in seeds(0x407_0500, 8) {
            emu_case(seed, policy, false);
        }
    }
}

#[test]
fn emu_index_survives_fault_retirement() {
    for seed in seeds(0x407_0600, 8) {
        emu_case(seed, ReclaimPolicy::Immediate, true);
    }
}
