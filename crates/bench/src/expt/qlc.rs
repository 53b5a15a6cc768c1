//! Ablation — §2.5's QLC motivation: "ZNS SSDs are a crucial building
//! block for deploying QLC flash and realizing significant cost savings."
//!
//! Why: QLC programs ~3× slower and erases ~2.5× slower than TLC, and
//! endures ~3× fewer cycles — so the GC traffic a conventional FTL
//! generates is disproportionately painful on QLC, both in interference
//! and in lifetime. ZNS removes device GC entirely. This ablation sweeps
//! the cell technology and reports (a) steady-state write throughput on
//! the conventional device, and (b) the erase count a fixed workload
//! costs each interface — erases are lifetime.

use bh_bench::ExptResult;
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{BlockInterface, ClaimSet, Report, RunConfig, Runner};
use bh_flash::{CellKind, FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{Nanos, Table};
use bh_workloads::{AddressDist, OpMix, OpSource, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};

fn flash(cell: CellKind) -> FlashConfig {
    FlashConfig {
        geometry: Geometry::experiment(32),
        cell,
        endurance_override: None,
    }
}

/// Fills `dev`, then runs `runner` over `stream`; returns (pages/s,
/// erases per host page — the lifetime cost) of the measured run.
fn measure(
    dev: &mut dyn BlockInterface,
    stream: &mut dyn OpSource,
    runner: Runner,
) -> ExptResult<(f64, f64)> {
    let filled = Runner::fill(dev, Nanos::ZERO)?;
    let warm_stats = dev.flash_stats();
    let res = runner.run(dev, stream, filled)?;
    let d = dev.flash_stats().delta_since(&warm_stats);
    Ok((res.ops_per_sec(), d.erases as f64 / d.host_programs as f64))
}

/// Fixed uniform-overwrite workload.
fn conventional(cell: CellKind, multiples: u64) -> ExptResult<(f64, f64)> {
    let mut ssd = ConvSsd::new(ConvConfig::new(flash(cell), 0.10))?;
    let cap = ssd.capacity_pages();
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), 0x91C);
    measure(&mut ssd, &mut stream, Runner::new(RunConfig::new(multiples * cap)))
}

fn zns(cell: CellKind, multiples: u64) -> ExptResult<(f64, f64)> {
    let cfg = ZnsConfig::new(flash(cell), 8).with_zone_limits(14);
    let dev = ZnsDevice::new(cfg)?;
    let reserve = dev.num_zones() / 8;
    // FIFO-log usage (the zone-native application pattern): sequential
    // circular overwrite, zones reset wholesale.
    let mut emu = BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate);
    let cap = emu.capacity_pages();
    let mut stream = OpStream::new(cap, AddressDist::Sequential, OpMix::write_only(), 0x91C);
    let runner = Runner::new(RunConfig::new(multiples * cap).with_maintenance_every(1024));
    measure(&mut emu, &mut stream, runner)
}

pub fn run() -> ExptResult {
    let multiples = bh_bench::scaled(2, 1);
    let mut report = Report::new(
        "Ablation / QLC deployment (§2.5)",
        "Cell-technology sweep: conventional random overwrite vs ZNS log usage",
    );
    let mut table = Table::new([
        "cell",
        "conv pages/s",
        "conv erases/page",
        "zns pages/s",
        "zns erases/page",
    ]);
    let mut results = std::collections::HashMap::new();
    for (name, cell) in [("TLC", CellKind::Tlc), ("QLC", CellKind::Qlc)] {
        let (ct, ce) = conventional(cell, multiples)?;
        let (zt, ze) = zns(cell, multiples)?;
        table.row([
            name.to_string(),
            format!("{ct:.0}"),
            format!("{ce:.5}"),
            format!("{zt:.0}"),
            format!("{ze:.5}"),
        ]);
        results.insert(name, (ct, ce, zt, ze));
    }
    report.table("cell sweep", table);

    let (tlc_ct, tlc_ce, tlc_zt, tlc_ze) = results["TLC"];
    let (qlc_ct, qlc_ce, qlc_zt, qlc_ze) = results["QLC"];

    let mut claims = ClaimSet::new();
    claims.check(
        "QLC.conv-penalty",
        "QLC loses more conventional throughput than its raw program slowdown alone (GC compounds it): TLC/QLC conv throughput ratio",
        tlc_ct / qlc_ct,
        (2.0, 20.0),
    );
    claims.check(
        "QLC.zns-erase-savings",
        "ZNS spends fewer erases per host page than the conventional FTL on QLC (lifetime, where QLC has 3x less to give)",
        qlc_ce / qlc_ze,
        (1.5, 50.0),
    );
    claims.check(
        "QLC.interface-helps-both",
        "the erase savings hold on TLC too (sanity)",
        tlc_ce / tlc_ze,
        (1.5, 50.0),
    );
    claims.check(
        "QLC.zns-absorbs-density",
        "on ZNS, QLC pays only its intrinsic program cost: TLC/QLC zns throughput ratio stays near the raw 2000/660 = 3.0x slowdown",
        tlc_zt / qlc_zt,
        (2.2, 4.2),
    );
    report.claims(claims);
    Ok(report)
}
