//! E13 — §4.1's DRAM-buffer claim: flash caches on conventional SSDs
//! "use DRAM as a buffer to coalesce many writes into one very large
//! write. With ZNS SSDs, these buffers are no longer necessary … How can
//! we identify and modify these applications at scale to reclaim the
//! wasted DRAM?"
//!
//! The same FIFO object cache runs over both devices. The conventional
//! path must stage a full erase-sized segment in DRAM; the ZNS path
//! appends directly. We report the DRAM each needed and show hit ratio
//! and device WA stay equivalent.

use bh_bench::ExptResult;
use bh_cache::{ConvSegmentStore, FlashCache, SegmentStore, ZnsSegmentStore};
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{ClaimSet, Report};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::{Nanos, Table};
use bh_workloads::Zipf;
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn geometry() -> Geometry {
    Geometry::experiment(16)
}

fn conv_cache() -> ExptResult<FlashCache<ConvSegmentStore>> {
    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geometry()), 0.07))?;
    // Segment = one erasure block's worth of pages.
    let seg = geometry().pages_per_block as u64;
    Ok(FlashCache::new(ConvSegmentStore::new(ssd, seg)))
}

fn zns_cache() -> ExptResult<FlashCache<ZnsSegmentStore>> {
    let cfg = ZnsConfig::new(FlashConfig::tlc(geometry()), 1).with_zone_limits(14);
    Ok(FlashCache::new(ZnsSegmentStore::new(ZnsDevice::new(cfg)?)))
}

/// Zipfian get-then-fill traffic; returns (hit ratio, device WA, peak DRAM).
fn drive<S: SegmentStore>(cache: &mut FlashCache<S>, ops: u64) -> ExptResult<(f64, f64, u64)> {
    let universe = 4 * cache.store().num_segments() as u64 * cache.store().pages_per_segment() / 2; // Object space ~2x cache capacity (objects are 2 pages).
    let zipf = Zipf::new(universe, 0.9);
    let mut rng = SmallRng::seed_from_u64(0xE13);
    let mut t = Nanos::ZERO;
    for _ in 0..ops {
        let key = zipf.sample(&mut rng);
        let (hit, done) = cache.get(key, t)?;
        t = done;
        if !hit {
            t = cache.put(key, 2, t)?;
        }
    }
    Ok((
        cache.stats().hit_ratio(),
        cache.store().device_write_amplification(),
        cache.peak_dram_bytes(),
    ))
}

pub fn run() -> ExptResult {
    let ops = bh_bench::scaled(400_000, 60_000);

    let (conv_hit, conv_wa, conv_dram) = drive(&mut conv_cache()?, ops)?;
    let (zns_hit, zns_wa, zns_dram) = drive(&mut zns_cache()?, ops)?;

    let mut report = Report::new(
        "E13 / §4.1 cache DRAM buffers",
        "FIFO flash cache, zipfian traffic: coalesced (conventional) vs direct (ZNS) write paths",
    );
    let mut table = Table::new(["path", "hit ratio", "device WA", "peak write DRAM"]);
    table.row([
        "conventional (coalesced)".into(),
        format!("{conv_hit:.3}"),
        bh_bench::fmt_wa(conv_wa),
        format!("{} KiB", conv_dram >> 10),
    ]);
    table.row([
        "zns (direct)".into(),
        format!("{zns_hit:.3}"),
        bh_bench::fmt_wa(zns_wa),
        format!("{} KiB", zns_dram >> 10),
    ]);
    report.table("write-path comparison", table);

    let mut claims = ClaimSet::new();
    claims.check(
        "E13.dram-reclaimed",
        "ZNS makes the coalescing buffer unnecessary: DRAM ratio conv/zns",
        conv_dram as f64 / zns_dram as f64,
        (16.0, 1e6),
    );
    claims.check(
        "E13.hit-parity",
        "cache effectiveness is unchanged (|hit delta| small)",
        (conv_hit - zns_hit).abs(),
        (0.0, 0.05),
    );
    claims.check(
        "E13.wa-parity",
        "both paths keep device WA near 1 (segment == erase unit)",
        conv_wa.max(zns_wa),
        (1.0, 1.6),
    );
    report.claims(claims);
    Ok(report)
}
