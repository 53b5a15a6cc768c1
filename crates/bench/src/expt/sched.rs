//! E12 — §4.1's scheduling question: "the host is in full control and
//! can precisely schedule zone erasures and maintenance operations …
//! policies to prioritize one goal over the other, e.g., read latency
//! over write latency and write amplification."
//!
//! One ZNS block-emulation stack, one bursty zipfian workload, three
//! reclaim policies. Immediate reclaim interferes with foreground reads;
//! idle-window reclaim protects them. The watermark row measures
//! hysteresis as `BlockEmu::maybe_reclaim` implements it: once free zones
//! fall to the low mark, one call reclaims up to `high_zones` zones at a
//! single instant, so the whole batch of copies and resets lands in front
//! of the reads that follow. That makes it the worst read tail of the
//! three, not a point between the other two.
//!
//! `--quick` runs the same scale: a shorter run never reclaims under any
//! policy, so its three rows would be identical and measure nothing.

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Pacing, Report, RunConfig, Runner};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{Histogram, Nanos, Table};
use bh_workloads::{OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};

const BURSTS: u64 = 30;
const BURST_OPS: u64 = 4_000;

fn emu(policy: ReclaimPolicy) -> ExptResult<BlockEmu> {
    let geo = Geometry::experiment(32);
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 8).with_zone_limits(14);
    let dev = ZnsDevice::new(cfg)?;
    let reserve = (dev.num_zones() / 8).max(4);
    Ok(BlockEmu::new(dev, reserve, policy))
}

/// Fills the stack, then runs the bursty zipfian mix: bursts of
/// [`BURST_OPS`] 100 µs apart, each followed by a 5 ms idle window
/// that ends in the maintenance hook. The policy hook also runs
/// before every op (Immediate reclaims there; IdleOnly refuses until
/// the window). Returns the read latencies and the device WA.
fn drive(dev: &mut BlockEmu) -> ExptResult<(Histogram, f64)> {
    let start = Runner::fill(dev, Nanos::ZERO)? + Nanos::from_millis(1);
    let mut stream = OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), 0xE12);
    let pacing = Pacing::Bursty {
        burst_ops: BURST_OPS,
        interarrival: Nanos::from_micros(100),
        idle: Nanos::from_millis(5),
    };
    let cfg = RunConfig::new(BURSTS * BURST_OPS)
        .with_pacing(pacing)
        .with_maintenance_every(1);
    let res = Runner::new(cfg).run(dev, &mut stream, start)?;
    Ok((res.reads, res.device_wa))
}

pub fn run() -> ExptResult {
    let mut report = Report::new(
        "E12 / §4.1 host reclaim scheduling",
        "Same stack and workload, three reclaim policies: read tail vs policy",
    );
    let mut table = Table::new(["policy", "read mean", "p99", "p99.9", "WA"]);
    let mut results = Vec::new();
    for (name, policy) in [
        ("immediate", ReclaimPolicy::Immediate),
        (
            "watermark 4..8",
            ReclaimPolicy::Watermark {
                low_zones: 4,
                high_zones: 8,
            },
        ),
        (
            "idle-only",
            ReclaimPolicy::IdleOnly {
                min_idle: Nanos::from_millis(2),
            },
        ),
    ] {
        let (reads, wa) = drive(&mut emu(policy)?)?;
        let s = reads.summary();
        table.row([
            name.to_string(),
            s.mean.to_string(),
            s.p99.to_string(),
            s.p999.to_string(),
            bh_bench::fmt_wa(wa),
        ]);
        results.push((name, s));
    }
    report.table("reclaim policy sweep", table);

    let immediate_tail = results[0].1.p999.as_nanos() as f64;
    let idle_tail = results[2].1.p999.as_nanos() as f64;

    let mut claims = ClaimSet::new();
    claims.check(
        "E12.scheduling-pays",
        "scheduling reclaim around I/O reduces read tail latency (immediate p99.9 / idle p99.9)",
        immediate_tail / idle_tail.max(1.0),
        (1.0, 1e6),
    );
    claims.check(
        "E12.idle-tail-clean",
        "idle-window reclaim keeps the read p99.9 within a few ms",
        idle_tail / 1e6,
        (0.0, 3.0),
    );
    report.claims(claims);
    Ok(report)
}
