//! E14 — §4.1's first research question, answered for a filesystem:
//! "How much can filesystem knowledge (owners, creators, timestamps)
//! reduce write amplification? … current Linux kernel filesystems for
//! ZNS SSDs (e.g., F2FS) do not yet use this information."
//!
//! `ZonedLfs` (a mini-F2FS over ZNS) runs the same multi-owner workload
//! twice: once placing all data in one stream (today's zoned
//! filesystems) and once routing each owner to its own zone stream. The
//! workload interleaves a slowly growing stable dataset with temp-file
//! churn — the mix §4.1 describes ("intermediate files in analytics
//! workloads" dying together while other data persists).

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Report};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{HintMode, ZonedLfs};
use bh_metrics::{Nanos, Table};
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn filesystem(hint: HintMode) -> ExptResult<ZonedLfs> {
    // Quick mode shrinks the device so the reduced workload still fills
    // it (cleaning only happens under space pressure).
    let geo = Geometry::experiment(if bh_bench::quick_mode() { 4 } else { 8 });
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 4).with_zone_limits(14);
    Ok(ZonedLfs::new(ZnsDevice::new(cfg)?, hint))
}

/// Multi-owner filesystem workload; returns (WA, cleaning copies, resets).
fn drive(hint: HintMode, generations: u64) -> ExptResult<(f64, u64, u64)> {
    let mut fs = filesystem(hint)?;
    let mut rng = SmallRng::seed_from_u64(0xE14);
    let mut t = Nanos::ZERO;
    // Owner 1: stable dataset, grown throughout, occasionally updated.
    let stable = fs.create("dataset", 1)?;
    let mut stable_pages = 0u64;
    // Owner 2: a slowly-rolling log (append, truncate via unlink+create).
    let mut log_gen = 0u64;
    let mut log = fs.create("log0", 2)?;
    let mut log_pages = 0u64;
    // Owner 0: temp files with a 6-generation lifetime.
    for gen in 0..generations {
        // Stable growth + sparse in-place updates.
        fs.write(stable, stable_pages, gen & 0xFF, t)?;
        stable_pages += 1;
        t += Nanos::from_micros(20);
        if stable_pages > 16 {
            let idx = rng.gen_range(0..stable_pages);
            fs.write(stable, idx, gen & 0xFF, t)?;
            t += Nanos::from_micros(20);
        }
        // Log appends; rotate every 512 pages.
        for _ in 0..4 {
            fs.write(log, log_pages, 0x10, t)?;
            log_pages += 1;
            t += Nanos::from_micros(20);
        }
        if log_pages >= 512 {
            fs.unlink(&format!("log{log_gen}"))?;
            log_gen += 1;
            log = fs.create(&format!("log{log_gen}"), 2)?;
            log_pages = 0;
        }
        // Temp churn.
        let ino = fs.create(&format!("tmp{gen}"), 0)?;
        for i in 0..16u64 {
            fs.write(ino, i, i, t)?;
            t += Nanos::from_micros(20);
        }
        if gen >= 6 {
            fs.unlink(&format!("tmp{}", gen - 6))?;
        }
    }
    // Stable data still readable after all the cleaning (its exact value
    // depends on the random in-place updates, so just require success).
    fs.read(stable, 3, t)?;
    Ok((
        fs.write_amplification(),
        fs.stats().cleaned,
        fs.stats().resets,
    ))
}

pub fn run() -> ExptResult {
    let generations = bh_bench::scaled(12_000, 4_000);
    let mut report = Report::new(
        "E14 / §4.1 filesystem knowledge",
        "Mini-F2FS over ZNS: one data stream (today) vs per-owner streams (the paper's proposal)",
    );
    let mut table = Table::new([
        "placement",
        "write amplification",
        "cleaned pages",
        "zone resets",
    ]);
    let (blind_wa, blind_cleaned, blind_resets) = drive(HintMode::None, generations)?;
    table.row([
        "single stream (today's F2FS)".into(),
        format!("{blind_wa:.3}"),
        blind_cleaned.to_string(),
        blind_resets.to_string(),
    ]);
    let (hint_wa, hint_cleaned, hint_resets) = drive(HintMode::ByOwner { streams: 4 }, generations)?;
    table.row([
        "per-owner streams".into(),
        format!("{hint_wa:.3}"),
        hint_cleaned.to_string(),
        hint_resets.to_string(),
    ]);
    report.table("placement comparison", table);

    let mut claims = ClaimSet::new();
    claims.check(
        "E14.blind-pays-cleaning",
        "without owner knowledge, mixed lifetimes force cleaning copies (WA > 1)",
        blind_wa,
        (1.02, 10.0),
    );
    claims.check(
        "E14.hints-cut-wa",
        "owner knowledge reduces filesystem cleaning WA",
        blind_wa / hint_wa,
        (1.02, 20.0),
    );
    claims.check(
        "E14.hinted-near-one",
        "with owner streams, zones die wholesale (WA near 1)",
        hint_wa,
        (1.0, 1.15),
    );
    report.claims(claims);
    Ok(report)
}
