//! E12 — §4.1's scheduling question: "the host is in full control and
//! can precisely schedule zone erasures and maintenance operations …
//! policies to prioritize one goal over the other, e.g., read latency
//! over write latency and write amplification."
//!
//! One ZNS block-emulation stack, one bursty zipfian workload, three
//! reclaim policies. Immediate reclaim interferes with foreground reads;
//! idle-window reclaim protects them; watermark hysteresis sits between.

use bh_core::{BlockInterface, ClaimSet, Report};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{Histogram, Nanos, Table};
use bh_workloads::{Op, OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};

fn emu(policy: ReclaimPolicy) -> BlockEmu {
    let geo = Geometry::experiment(32);
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 8).with_zone_limits(14);
    let dev = ZnsDevice::new(cfg).unwrap();
    let reserve = (dev.num_zones() / 8).max(4);
    BlockEmu::new(dev, reserve, policy)
}

fn drive(dev: &mut BlockEmu, bursts: u64, burst_ops: u64) -> (Histogram, f64) {
    let cap = dev.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = dev.write(lba, t).unwrap();
    }
    let mut stream = OpStream::zipfian(cap, OpMix::read_heavy(), 0xE12);
    let mut reads = Histogram::new();
    let gap = Nanos::from_micros(100);
    let mut arrival = t + Nanos::from_millis(1);
    for _ in 0..bursts {
        let mut burst_end = arrival;
        for _ in 0..burst_ops {
            match stream.next_op() {
                Op::Read(lba) => {
                    let done = BlockEmu::read_timed(dev, lba, arrival).unwrap();
                    reads.record(done.saturating_sub(arrival));
                    burst_end = burst_end.max(done);
                }
                Op::Write(lba) => {
                    let done = BlockEmu::write(dev, lba, arrival).unwrap();
                    burst_end = burst_end.max(done);
                }
                Op::Trim(lba) => BlockEmu::trim(dev, lba).unwrap(),
            }
            // Policy hook runs with the I/O stream (Immediate reclaims
            // here; IdleOnly refuses until the gap).
            let _ = dev.maybe_reclaim(arrival).unwrap();
            arrival += gap;
        }
        let idle_start = burst_end.max(arrival) + Nanos::from_millis(5);
        let done = dev.maybe_reclaim(idle_start).unwrap().1;
        arrival = done.max(idle_start) + Nanos::from_millis(45);
    }
    (reads, BlockInterface::write_amplification(dev))
}

pub fn run() -> Report {
    let bursts = bh_bench::scaled(30, 8);
    let burst_ops = bh_bench::scaled(4_000, 1_000);

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
        let mut dev = emu(policy);
        let (reads, wa) = drive(&mut dev, bursts, burst_ops);
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
    report
}
