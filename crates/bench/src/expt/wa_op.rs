//! E2 — the §2.2 lab experiment: steady-state write amplification vs.
//! overprovisioning under uniform random writes on the conventional SSD.
//!
//! Paper: "the write amplification … improves from 15× with no
//! overprovisioning to about 2.5× with ~25% overprovisioning."
//!
//! Procedure: for each OP point, build a conventional SSD on the shared
//! flash substrate, fill it, warm it with random overwrites into steady
//! state, then measure WA over a further multiple of the capacity.

use bh_bench::ExptResult;
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{ClaimSet, Report, RunConfig, Runner};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::{Nanos, Series, Table};
use bh_obs::{Ctr, ObsSnapshot};
use bh_workloads::{Op, OpSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// E2's stream: one uniform LBA draw per write. (`OpStream::uniform`
/// would also draw the read/write mix per op, a different sequence.)
struct UniformWrites {
    cap: u64,
    rng: SmallRng,
}

impl OpSource for UniformWrites {
    fn next_op(&mut self) -> Op {
        Op::Write(self.rng.gen_range(0..self.cap))
    }
}

/// Returns the steady-state WA, the spare fraction, and the device's
/// counters over the whole run.
fn steady_state_wa(geo: Geometry, op: f64, multiples: u64) -> ExptResult<(f64, f64, ObsSnapshot)> {
    let cfg = ConvConfig::new(FlashConfig::tlc(geo), op);
    let mut ssd = ConvSsd::new(cfg)?;
    let cap = ssd.capacity_pages();
    let mut stream = UniformWrites {
        cap,
        rng: SmallRng::seed_from_u64(0xE2),
    };
    let runner = Runner::new(RunConfig::new(multiples * cap));
    let filled = Runner::fill(&mut ssd, Nanos::ZERO)?;
    // Warm into steady state.
    let t = filled + runner.run(&mut ssd, &mut stream, filled)?.elapsed;
    let warm = *ssd.flash_stats();
    runner.run(&mut ssd, &mut stream, t)?;
    let d = ssd.flash_stats().delta_since(&warm);
    let wa = (d.host_programs + d.internal_programs + d.copies) as f64 / d.host_programs as f64;
    let counters = ObsSnapshot::project(|s| ssd.obs_into(s));
    Ok((wa, cfg.spare_fraction(), counters))
}

pub fn run() -> ExptResult {
    let quick = bh_bench::quick_mode();
    // 8 GiB of TLC at full scale; the WA curve depends on ratios, not
    // absolute capacity, so quick mode shrinks the plane count.
    let geo = Geometry::experiment(if quick { 64 } else { 256 });
    let multiples = bh_bench::scaled(2, 1);

    let ops = [0.0, 0.05, 0.07, 0.10, 0.15, 0.20, 0.25, 0.28];
    let mut counters = ObsSnapshot::default();
    let mut series = Series::new("write-amplification vs overprovisioning");
    let mut table = Table::new(["OP ratio", "spare fraction", "steady-state WA"]);
    let mut wa_at = std::collections::BTreeMap::new();
    for &op in &ops {
        let (wa, spare, c) = steady_state_wa(geo, op, multiples)?;
        counters.merge(&c);
        series.push(op, wa);
        table.row([
            format!("{op:.2}"),
            format!("{spare:.3}"),
            bh_bench::fmt_wa(wa),
        ]);
        wa_at.insert((op * 100.0) as u32, wa);
    }

    let mut report = Report::new(
        "E2 / §2.2 lab experiment",
        "Write amplification vs overprovisioning, uniform random writes, greedy GC",
    );
    report.table("WA sweep", table);
    let monotone = series.is_monotone_decreasing();
    report.series(series);

    let mut claims = ClaimSet::new();
    claims.check_bool(
        "E2.monotone",
        "WA improves (decreases) as overprovisioning grows",
        monotone,
    );
    claims.check(
        "E2.wa-at-0-op",
        "about 15x write amplification with no overprovisioning",
        wa_at[&0],
        // The quick geometry's floor spare (few blocks per plane) leaves
        // greedy almost no victim choice at 0% OP, so WA lands far above
        // the full-scale value; the band only guards against regression.
        if quick { (40.0, 110.0) } else { (10.0, 25.0) },
    );
    claims.check(
        "E2.wa-at-25-op",
        "about 2.5x with ~25% overprovisioning",
        wa_at[&25],
        if quick { (1.5, 5.0) } else { (2.0, 3.2) },
    );
    claims.check(
        "E2.improvement-factor",
        "a ~6x improvement across the sweep (15/2.5)",
        wa_at[&0] / wa_at[&25],
        if quick { (3.0, 40.0) } else { (3.0, 12.0) },
    );
    report.claims(claims);
    // Stderr only: the report on stdout carries no counters.
    eprintln!(
        "obs: {} host programs, {} GC-migrated pages, {} erases across the sweep",
        counters.counter(Ctr::FlashHostPrograms),
        counters.counter(Ctr::ConvGcPagesMigrated),
        counters.counter(Ctr::FlashErases),
    );
    Ok(report)
}
