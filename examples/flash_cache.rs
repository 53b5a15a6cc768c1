//! A flash object cache on both device kinds (the CacheLib/RIPQ
//! scenario of §4.1).
//!
//! Shows the write-path difference: the conventional path stages a whole
//! erase-block-sized segment in DRAM, the ZNS path appends object by
//! object — and the DRAM the ZNS path gives back. Run with:
//!
//! ```text
//! cargo run -p bh-examples --bin flash_cache
//! ```

use bh_cache::{ConvSegmentStore, FlashCache, SegmentStore, ZnsSegmentStore};
use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::Nanos;
use bh_workloads::Zipf;
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn drive<S: SegmentStore>(cache: &mut FlashCache<S>, label: &str) {
    let objects = 4 * cache.store().num_segments() as u64 * cache.store().pages_per_segment() / 2;
    let zipf = Zipf::new(objects, 0.9);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut t = Nanos::ZERO;
    for _ in 0..120_000 {
        let key = zipf.sample(&mut rng);
        let (hit, done) = cache.get(key, t).unwrap();
        t = done;
        if !hit {
            t = cache.put(key, 2, t).unwrap();
        }
    }
    println!(
        "{label}: path {:?}, hit ratio {:.3}, device WA {:.2}, peak write DRAM {} KiB, evicted {} readmitted {}",
        cache.write_path(),
        cache.stats().hit_ratio(),
        cache.store().device_write_amplification(),
        cache.peak_dram_bytes() >> 10,
        cache.stats().evicted,
        cache.stats().readmitted,
    );
}

fn main() {
    let geo = Geometry::experiment(8);

    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.07)).unwrap();
    let seg = geo.pages_per_block as u64;
    let mut conv = FlashCache::new(ConvSegmentStore::new(ssd, seg));
    drive(&mut conv, "conventional");

    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 1).with_zone_limits(14);
    let mut zns = FlashCache::new(ZnsSegmentStore::new(ZnsDevice::new(cfg).unwrap()));
    drive(&mut zns, "zns         ");

    println!("\nSame cache, same traffic; the ZNS path needs one page of DRAM.");
}
