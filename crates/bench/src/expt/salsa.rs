//! E7 — §2.4's IBM/Radian case study [39]: "22× lower tail latencies and
//! 65% higher application throughput" for SALSA, a host-side translation
//! layer, against a conventional device.
//!
//! Reproduced as: a raw block workload (zipfian overwrites + paced reads
//! in bursts) on (a) a conventional SSD and (b) `BlockEmu` — our
//! SALSA/dm-zoned analogue — over ZNS with idle-window reclaim. Same
//! flash underneath.

use bh_bench::ExptResult;
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{BlockInterface, ClaimSet, Pacing, Report, RunConfig, Runner, WriteReq};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{ops_per_sec, Histogram, Nanos, Table};
use bh_workloads::{OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};

fn geometry() -> Geometry {
    Geometry::experiment(64)
}

fn conv_device() -> ExptResult<ConvSsd> {
    Ok(ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geometry()), 0.07))?)
}

fn zns_emu() -> ExptResult<BlockEmu> {
    let cfg = ZnsConfig::new(FlashConfig::tlc(geometry()), 8).with_zone_limits(14);
    let dev = ZnsDevice::new(cfg)?;
    let reserve = (dev.num_zones() * 3 / 20).max(4); // ~15% like SALSA.
    Ok(BlockEmu::new(
        dev,
        reserve,
        ReclaimPolicy::IdleOnly {
            min_idle: Nanos::from_millis(2),
        },
    )
    .with_hot_cold(2))
}

/// Bursty mixed load; returns (read latencies, achieved ops/s).
fn drive(dev: &mut dyn BlockInterface, bursts: u64, burst_ops: u64) -> ExptResult<(Histogram, f64)> {
    let cap = dev.capacity_pages();
    let mut t = Runner::fill(dev, Nanos::ZERO)?;
    // Churn into GC steady state before measuring (closed loop).
    let mut warm = OpStream::zipfian(cap, OpMix::write_only(), 0x7A);
    for i in 0..cap * 3 / 2 {
        let lba = warm.next_op().lba();
        t = dev
            .write(WriteReq::new(lba), t)
            .map_err(|e| format!("warmup write of LBA {lba}: {e}"))?;
        if i % 4096 == 0 {
            t = dev.maintenance(t)?;
        }
    }
    // A real idle window before measurement so idle-gated reclaim can
    // clean ahead.
    t += Nanos::from_millis(50);
    t = dev.maintenance(t)?;
    let mut stream = OpStream::zipfian(cap, OpMix { read_pct: 50 }, 0xE7);
    let gap = Nanos::from_micros(80);
    let pacing = Pacing::Open { interarrival: gap };
    let burst = Runner::new(RunConfig::new(burst_ops).with_pacing(pacing));
    let mut reads = Histogram::new();
    let run_start = t + Nanos::from_millis(1);
    let (mut arrival, mut last_done) = (run_start, run_start);
    for _ in 0..bursts {
        let run = bh_bench::every_read_served(burst.run(dev, &mut stream, arrival)?)?;
        reads.merge(&run.reads);
        last_done = arrival + run.elapsed;
        // Idle window: the host layer reclaims; the conventional FTL is
        // on its own schedule.
        let idle_start = last_done.max(arrival + gap * burst_ops) + Nanos::from_millis(5);
        let done = dev.maintenance(idle_start)?;
        arrival = done.max(idle_start) + Nanos::from_millis(45);
    }
    Ok((
        reads,
        ops_per_sec(bursts * burst_ops, last_done.saturating_sub(run_start)),
    ))
}

pub fn run() -> ExptResult {
    let bursts = bh_bench::scaled(40, 10);
    let burst_ops = bh_bench::scaled(3_000, 800);

    let mut conv = conv_device()?;
    let (conv_reads, conv_tput) = drive(&mut conv, bursts, burst_ops)?;
    let mut emu = zns_emu()?;
    let (zns_reads, zns_tput) = drive(&mut emu, bursts, burst_ops)?;

    let cs = conv_reads.summary();
    let zs = zns_reads.summary();

    let mut report = Report::new(
        "E7 / §2.4 IBM SALSA case study",
        "Host block-translation over ZNS vs conventional SSD: zipfian 50/50 bursts",
    );
    let mut t1 = Table::new(["stack", "ops/s", "read p50", "read p99", "read p99.9", "WA"]);
    t1.row([
        "conventional".into(),
        format!("{conv_tput:.0}"),
        cs.p50.to_string(),
        cs.p99.to_string(),
        cs.p999.to_string(),
        bh_bench::fmt_wa(conv.write_amplification()),
    ]);
    t1.row([
        "zns+salsa-like".into(),
        format!("{zns_tput:.0}"),
        zs.p50.to_string(),
        zs.p99.to_string(),
        zs.p999.to_string(),
        format!("{:.2}", BlockInterface::write_amplification(&emu)),
    ]);
    report.table("results", t1);

    let mut claims = ClaimSet::new();
    claims.check(
        "E7.tail-ratio",
        "22x lower tail latencies (IBM, [39]) -> conv p99.9 / zns p99.9 well above 1",
        cs.p999.as_nanos() as f64 / zs.p999.as_nanos() as f64,
        (2.0, 100_000.0),
    );
    claims.check(
        "E7.throughput",
        "65% higher application throughput (IBM, [39]) -> zns/conv >= 1.2",
        zns_tput / conv_tput,
        (1.0, 10.0),
    );
    report.claims(claims);
    Ok(report)
}
