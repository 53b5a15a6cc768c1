//! E16 — transient faults and who cleans up: the same seeded fault plan
//! (program failures, mid-life grown bad blocks, read-disturb ECC
//! retries, scheduled power losses) is driven into both stacks, and the
//! recovery work surfaces the interface difference the paper argues for.
//!
//! The conventional FTL hides faults behind the block interface: it
//! re-drives burned programs into its spare pool and, after a power
//! loss, rebuilds its page map by scanning the out-of-band stamps of
//! every written page. The ZNS emulation recovers in the host, where
//! append-only zones make recovery metadata cheap: a full zone's summary
//! is durable (the LFS segment-summary technique), so replay reads one
//! page per full zone and only scans the few partially-written zones.
//!
//! Four runs — {conventional, zns+blockemu} × {clean, faulty} — over
//! identical op streams. Measured: WA inflation (faulty/clean), read
//! p99.9 inflation, and recovery work (pages scanned per power loss).

use bh_bench::{conv_stack, zns_stack, ExptResult};
use bh_core::{ClaimSet, Report, RunConfig, Runner, StackAdmin};
use bh_faults::FaultConfig;
use bh_metrics::{Histogram, Nanos, Series, Table};
use bh_workloads::{OpMix, OpStream};

/// Seed for both the op stream and the fault plan; printed in the report
/// so a failing run can be replayed exactly.
const SEED: u64 = 0xE16;

struct Outcome {
    reads: Histogram,
    wa: f64,
    /// Pages read to rebuild translation state, per power loss.
    scans: Vec<(u64, u64)>,
    /// Virtual time spent in recovery.
    recovery: Nanos,
}

impl Outcome {
    fn scanned(&self) -> u64 {
        self.scans.iter().map(|&(_, pages)| pages).sum()
    }
}

/// Fills the device, then drives `ops` zipfian operations in closed
/// loop with maintenance every 64, power-cycling at the plan's scheduled
/// op indices: one [`Runner`] segment between losses. Clean runs
/// (`faults: None`) see the exact same op stream and no fault layer at
/// all.
fn drive(
    mut dev: Box<dyn StackAdmin>,
    faults: Option<FaultConfig>,
    ops: u64,
) -> ExptResult<Outcome> {
    if let Some(f) = faults {
        f.validate()?;
        dev.install_faults(f);
    }
    let losses = faults
        .map(|f| f.power_loss_indices(ops, 3))
        .unwrap_or_default();
    let cap = dev.capacity_pages();
    let mut t = Runner::fill(dev.as_mut(), Nanos::ZERO)?;
    let mut stream = OpStream::zipfian(cap, OpMix::read_heavy(), SEED);
    let mut reads = Histogram::new();
    let mut scans = Vec::new();
    let mut recovery = Nanos::ZERO;
    let mut done_ops = 0;
    for end in losses.iter().copied().chain([ops]) {
        let segment = RunConfig::new(end - done_ops).with_maintenance_every(64);
        let run = Runner::new(segment).run(dev.as_mut(), &mut stream, t)?;
        let run = bh_bench::every_read_served(run)?;
        reads.merge(&run.reads);
        t += run.elapsed;
        done_ops = end;
        if end < ops {
            let (done, pages) = dev
                .power_cycle(t)
                .map_err(|e| format!("power cycle at op {end}: {e}"))?;
            scans.push((end, pages));
            recovery += done.saturating_sub(t);
            t = done;
        }
    }
    Ok(Outcome {
        reads,
        wa: dev.write_amplification(),
        scans,
        recovery,
    })
}

pub fn run() -> ExptResult {
    let ops = bh_bench::scaled(60_000, 8_000);
    let faults = FaultConfig::mid_life(SEED);

    let mut report = Report::new(
        "E16 / transient faults and recovery work",
        "Identical seeded fault plans on both stacks: WA and read-tail inflation, \
         pages scanned to recover from power loss",
    );

    let mut table = Table::new([
        "stack",
        "plan",
        "WA",
        "read p99.9",
        "power losses",
        "pages scanned",
        "recovery time",
    ]);
    let mut outcomes = Vec::new();
    for (label, build) in [
        ("conventional", conv_stack as fn() -> ExptResult<Box<dyn StackAdmin>>),
        ("zns+blockemu", zns_stack),
    ] {
        for plan in [None, Some(faults)] {
            let o = drive(build()?, plan, ops)?;
            table.row([
                label.to_string(),
                if plan.is_some() { "mid-life" } else { "clean" }.to_string(),
                bh_bench::fmt_wa(o.wa),
                o.reads.summary().p999.to_string(),
                o.scans.len().to_string(),
                o.scanned().to_string(),
                o.recovery.to_string(),
            ]);
            outcomes.push(o);
        }
    }
    report.table(
        format!("fault sweep (seed {SEED:#x}, rates: {faults:?})"),
        table,
    );

    // In loop order: each stack clean, then faulty.
    let [conv_clean, conv_faulty, zns_clean, zns_faulty] = [0, 1, 2, 3].map(|i| &outcomes[i]);

    // Per-loss recovery-work series, for the figure.
    for (label, o) in [("conventional", conv_faulty), ("zns+blockemu", zns_faulty)] {
        let mut s = Series::new(format!("{label}: pages scanned per power loss"));
        for &(op_index, pages) in &o.scans {
            s.push(op_index as f64, pages as f64);
        }
        report.series(s);
    }

    let tail_ns = |o: &Outcome| o.reads.summary().p999.as_nanos() as f64;
    let zns_tail_inflation = tail_ns(zns_faulty) / tail_ns(zns_clean).max(1.0);

    let mut claims = ClaimSet::new();
    claims.check(
        "E16.recovery-zns-cheap",
        "explicit zone state makes recovery cheap: conv rebuilds its map by scanning \
         every written page, ZNS replays durable zone summaries (pages scanned ratio)",
        conv_faulty.scanned() as f64 / (zns_faulty.scanned() as f64).max(1.0),
        (4.0, 1e6),
    );
    claims.check(
        "E16.read-tail-under-faults",
        "under the same fault plan the ZNS read tail stays far below the conventional \
         one (faulty p99.9 ratio conv/zns)",
        tail_ns(conv_faulty) / tail_ns(zns_faulty).max(1.0),
        (5.0, 1e6),
    );
    claims.check(
        "E16.zns-tail-inflation-bounded",
        "host-driven recovery keeps the fault penalty on the ZNS read tail to a small \
         constant factor (faulty p99.9 / clean p99.9)",
        zns_tail_inflation,
        (1.0, 10.0),
    );
    claims.check(
        "E16.wa-inflation-conv",
        "faults add device work, never remove it (conv faulty WA / clean WA)",
        conv_faulty.wa / conv_clean.wa,
        (0.98, 10.0),
    );
    claims.check(
        "E16.wa-inflation-zns",
        "faults add host work, never remove it (zns faulty WA / clean WA)",
        zns_faulty.wa / zns_clean.wa,
        (0.98, 10.0),
    );
    // Determinism is part of the claim surface: the same seed must
    // reproduce the same faulty run bit-for-bit.
    let again = drive(zns_stack()?, Some(faults), ops)?;
    let identical = again.scans == zns_faulty.scans
        && again.wa == zns_faulty.wa
        && again.recovery == zns_faulty.recovery
        && again.reads.summary() == zns_faulty.reads.summary();
    claims.check_bool(
        "E16.deterministic",
        "the same seed reproduces the same faulty run exactly",
        identical,
    );
    report.claims(claims);
    Ok(report)
}
