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
use bh_core::{BlockInterface, ClaimSet, Report, WriteReq};
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
    let mut t = bh_core::Runner::fill(dev, Nanos::ZERO)?;
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
    let mut reads = Histogram::new();
    let gap = Nanos::from_micros(80);
    let mut arrival = t + Nanos::from_millis(1);
    let run_start = arrival;
    let mut done_ops = 0u64;
    let mut last_done = arrival;
    for _ in 0..bursts {
        let mut burst_end = arrival;
        for _ in 0..burst_ops {
            match stream.next_op() {
                bh_workloads::Op::Read(lba) => {
                    let done = dev.read(lba, arrival)?;
                    reads.record(done.saturating_sub(arrival));
                    burst_end = burst_end.max(done);
                }
                bh_workloads::Op::Write(lba) => {
                    let done = dev
                        .write(WriteReq::new(lba), arrival)
                        .map_err(|e| format!("write of LBA {lba}: {e}"))?;
                    burst_end = burst_end.max(done);
                }
                bh_workloads::Op::Trim(lba) => dev.trim(lba)?,
            }
            done_ops += 1;
            arrival += gap;
            last_done = last_done.max(burst_end);
        }
        // Idle window: the host layer reclaims; the conventional FTL is
        // on its own schedule.
        let idle_start = burst_end.max(arrival) + Nanos::from_millis(5);
        let done = dev.maintenance(idle_start)?;
        arrival = done.max(idle_start) + Nanos::from_millis(45);
    }
    Ok((
        reads,
        ops_per_sec(done_ops, last_done.saturating_sub(run_start)),
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
        "Host block-translation over ZNS vs conventional SSD: zipfian 70/30 bursts",
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
