//! E20 — backend equivalence (`expt_backend`)
//!
//! The host stack (`BlockEmu`, zone allocation, reclaim, crash
//! recovery) is generic over [`bh_zns::backend::ZonedDevice`], so the
//! same experiment runs on two substrates:
//!
//! - **sim** (`bh-zns::ZnsDevice`): the in-memory timing simulator with
//!   full flash geometry and plane-level scheduling;
//! - **zbd** (`bh-zbd::ZbdDevice`): the file-backed durable emulator,
//!   whose `power_cycle` is a genuine reopen-from-disk.
//!
//! This experiment replays one shared op schedule — fill, uniform
//! overwrite, interleaved reads, policy reclaim, and a mid-run power
//! cycle — on both substrates and asserts that every *logical* outcome
//! is identical: per-LBA read-back stamps byte-for-byte, zone reports
//! (state, write pointer, reset count), ZNS command counters, and both
//! write-amplification figures (host and flash — WA is a ratio of
//! program counts, which the timing model does not touch). It then
//! shows where the substrates *legitimately* diverge: erase granularity
//! (the simulator erases per block, the emulator logs one reset per
//! zone), flash busy time, and the virtual clock — timing-model
//! territory by design.
//!
//! Finally the zbd stack proves its durability twice over: a second
//! full power cycle must recover every acked write from the on-disk
//! log, and an independent cold [`ZbdDevice::open_file`] of the backing
//! file must reproduce the live device's zone table exactly.

use bh_bench::{stack_geometry, ExptResult};
use bh_core::{ClaimSet, Report};
use bh_flash::{FlashConfig, FlashStats};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{Nanos, Table};
use bh_workloads::{Op, OpMix, OpStream};
use bh_zbd::ZbdDevice;
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsConfig, ZnsDevice, ZnsStats};

const SEED: u64 = 0x20BD;
const NAME: &str = "expt_backend";

fn zns_config() -> ZnsConfig {
    ZnsConfig::new(FlashConfig::tlc(stack_geometry()), 4).with_zone_limits(8)
}

/// Everything E20 compares between the two substrates.
struct Outcome {
    /// Read-back stamp per LBA at end of run.
    stamps: Vec<u64>,
    /// Per-zone (state, write pointer, resets).
    zones: Vec<(String, u64, u64)>,
    zns: ZnsStats,
    flash: FlashStats,
    host_wa: f64,
    /// Pages scanned by the mid-run crash recovery.
    scanned: u64,
    /// Virtual-clock instant the schedule finished at.
    clock: Nanos,
}

fn zone_table<D: ZonedDevice>(dev: &D) -> Vec<(String, u64, u64)> {
    dev.zone_report()
        .iter()
        .map(|z| (format!("{:?}", z.state()), z.write_pointer(), z.resets()))
        .collect()
}

/// Replays the shared schedule on one substrate. The schedule is a
/// function of (capacity, SEED) only — never of time — so both
/// substrates make identical logical decisions.
fn drive<D: ZonedDevice>(dev: D, overwrites_per_page: u64) -> ExptResult<(Outcome, BlockEmu<D>)> {
    let reserve = (dev.num_zones() / 8).max(4);
    let mut emu = BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate);
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t)?;
    }
    let ops = cap * overwrites_per_page;
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), SEED);
    let mut scanned = 0;
    for i in 0..ops {
        if let Op::Write(lba) = stream.next_op() {
            t = emu.write(lba, t)?;
        }
        if i % 16 == 7 {
            // Deterministic read mixed into the stream; every LBA is
            // mapped after the fill, so this never misses.
            let lba = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % cap;
            t = emu.read_timed(lba, t)?;
        }
        if i % 32 == 31 {
            t = emu.maybe_reclaim(t)?.1;
        }
        if i == ops / 2 {
            // Power loss mid-run: volatile host state is gone; the
            // stack rebuilds from what the substrate kept. On zbd that
            // is a genuine reopen of the backing file.
            let (done, pages) = emu.power_cycle(t)?;
            t = done;
            scanned = pages;
        }
    }
    let mut stamps = Vec::with_capacity(cap as usize);
    for lba in 0..cap {
        let (stamp, done) = emu.read(lba, t)?;
        t = done;
        stamps.push(stamp);
    }
    let outcome = Outcome {
        stamps,
        zones: zone_table(emu.device()),
        zns: emu.device().zone_stats(),
        flash: emu.device().flash_stats(),
        host_wa: emu.write_amplification(),
        scanned,
        clock: t,
    };
    Ok((outcome, emu))
}

fn zns_fields(s: &ZnsStats) -> [u64; 6] {
    [
        s.writes,
        s.appends,
        s.reads,
        s.resets,
        s.simple_copy_pages,
        s.implicit_closes,
    ]
}

pub fn run() -> ExptResult {
    let report = compare();
    // Remove the backing file whether or not the comparison finished.
    bh_bench::zbd_cleanup(NAME);
    report
}

fn compare() -> ExptResult {
    let overwrites = bh_bench::scaled(3, 2);
    let cfg = zns_config();

    let (sim, _sim_emu) = drive(ZnsDevice::new(cfg)?, overwrites)?;
    let (zbd, mut zbd_emu) = drive(bh_bench::zbd_device_mirroring(&cfg, NAME)?, overwrites)?;

    // Durability, stack level: one more full power cycle recovers every
    // acked write from the on-disk log alone.
    let (mut t, _) = zbd_emu.power_cycle(zbd.clock)?;
    let mut recovered = true;
    for (lba, &expect) in zbd.stamps.iter().enumerate() {
        let (stamp, done) = zbd_emu.read(lba as u64, t)?;
        t = done;
        recovered &= stamp == expect;
    }

    // Durability, device level: an independent cold open of the backing
    // file reproduces the live zone table. (After the power cycle no
    // zone is open, so no volatile state can differ.)
    let cold = ZbdDevice::open_file(&bh_bench::zbd_path(NAME))?;
    let cold_matches = zone_table(&cold) == zone_table(zbd_emu.device());

    let mut report = Report::new(
        "E20 / backend equivalence",
        "One op schedule, two substrates: identical logical state, divergence only in timing",
    );

    let mut eq = Table::new(["logical outcome", "sim", "zbd", "equal"]);
    let readback_eq = sim.stamps == zbd.stamps;
    eq.row([
        "per-LBA read-back stamps".to_string(),
        format!("{} pages", sim.stamps.len()),
        format!("{} pages", zbd.stamps.len()),
        readback_eq.to_string(),
    ]);
    let zones_eq = sim.zones == zbd.zones;
    eq.row([
        "zone report (state, wp, resets)".to_string(),
        format!("{} zones", sim.zones.len()),
        format!("{} zones", zbd.zones.len()),
        zones_eq.to_string(),
    ]);
    let zns_eq = zns_fields(&sim.zns) == zns_fields(&zbd.zns);
    eq.row([
        "zns command counters".to_string(),
        format!("{:?}", zns_fields(&sim.zns)),
        format!("{:?}", zns_fields(&zbd.zns)),
        zns_eq.to_string(),
    ]);
    let host_wa_eq = sim.host_wa.to_bits() == zbd.host_wa.to_bits();
    eq.row([
        "host write amplification".to_string(),
        format!("{:.4}", sim.host_wa),
        format!("{:.4}", zbd.host_wa),
        host_wa_eq.to_string(),
    ]);
    let flash_wa_eq =
        sim.flash.write_amplification().to_bits() == zbd.flash.write_amplification().to_bits();
    eq.row([
        "flash write amplification".to_string(),
        format!("{:.4}", sim.flash.write_amplification()),
        format!("{:.4}", zbd.flash.write_amplification()),
        flash_wa_eq.to_string(),
    ]);
    let programs_eq = (
        sim.flash.host_programs,
        sim.flash.copies,
        sim.flash.internal_programs,
    ) == (
        zbd.flash.host_programs,
        zbd.flash.copies,
        zbd.flash.internal_programs,
    );
    eq.row([
        "flash programs (host, copy, internal)".to_string(),
        format!(
            "{}/{}/{}",
            sim.flash.host_programs, sim.flash.copies, sim.flash.internal_programs
        ),
        format!(
            "{}/{}/{}",
            zbd.flash.host_programs, zbd.flash.copies, zbd.flash.internal_programs
        ),
        programs_eq.to_string(),
    ]);
    let scan_eq = sim.scanned == zbd.scanned;
    eq.row([
        "recovery pages scanned".to_string(),
        sim.scanned.to_string(),
        zbd.scanned.to_string(),
        scan_eq.to_string(),
    ]);
    report.table("logical equivalence", eq);

    // Where the substrates legitimately differ: the simulator models
    // flash timing and block-granular erases; the emulator charges flat
    // latency constants and logs one reset per zone.
    let mut div = Table::new(["timing-model outcome", "sim", "zbd"]);
    div.row([
        "erase operations".to_string(),
        format!("{} (per block)", sim.flash.erases),
        format!("{} (per zone reset)", zbd.flash.erases),
    ]);
    div.row([
        "flash busy".to_string(),
        format!("{} ns", sim.flash.busy.as_nanos()),
        format!("{} ns", zbd.flash.busy.as_nanos()),
    ]);
    div.row([
        "virtual clock at end".to_string(),
        format!("{} ns", sim.clock.as_nanos()),
        format!("{} ns", zbd.clock.as_nanos()),
    ]);
    report.table("expected divergence", div);

    let mut durability = Table::new(["zbd durability check", "result"]);
    durability.row([
        "all acked writes readable after second power cycle".to_string(),
        recovered.to_string(),
    ]);
    durability.row([
        "cold open_file zone table matches live device".to_string(),
        cold_matches.to_string(),
    ]);
    report.table("durability", durability);

    let mut claims = ClaimSet::new();
    claims.check_bool(
        "E20.readback",
        "per-LBA read-back stamps are byte-identical across substrates",
        readback_eq,
    );
    claims.check_bool(
        "E20.zone-report",
        "zone state, write pointers, and reset counts match across substrates",
        zones_eq,
    );
    claims.check_bool(
        "E20.zns-counters",
        "zns command counters match across substrates",
        zns_eq,
    );
    claims.check_bool(
        "E20.wa",
        "host and flash write amplification match bit-for-bit",
        host_wa_eq && flash_wa_eq && programs_eq,
    );
    claims.check_bool(
        "E20.recovery-scan",
        "mid-run crash recovery scans the same pages on both substrates",
        scan_eq,
    );
    claims.check_bool(
        "E20.durable",
        "zbd recovers every acked write from disk after a second power cycle",
        recovered,
    );
    claims.check_bool(
        "E20.cold-reopen",
        "independent cold open of the backing file reproduces the zone table",
        cold_matches,
    );
    report.claims(claims);

    Ok(report)
}
