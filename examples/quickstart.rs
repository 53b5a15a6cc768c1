//! Quickstart: the two SSD models side by side.
//!
//! Builds a conventional and a ZNS device over identical flash, performs
//! the interface-defining operations on each, and prints what the devices
//! had to do internally. Run with:
//!
//! ```text
//! cargo run -p bh-examples --bin quickstart
//! ```

use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::Nanos;
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZonedDevice};

fn main() {
    let geo = Geometry::experiment(16); // 512 MiB of simulated TLC.
    println!(
        "flash: {} MiB, {} planes, {} blocks of {} pages\n",
        geo.capacity_bytes() >> 20,
        geo.total_planes(),
        geo.total_blocks(),
        geo.pages_per_block
    );

    // --- Conventional: random writes anywhere; the FTL hides the mess.
    let mut conv = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.10)).unwrap();
    let cap = conv.capacity_pages();
    println!("conventional: {cap} logical pages exported (10% OP)");
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = conv.write(lba, t).unwrap().done;
    }
    // Random overwrites force garbage collection.
    let mut x = 1u64;
    for _ in 0..cap {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        t = conv.write(x % cap, t).unwrap().done;
    }
    let (stamp, done) = conv.read(42, t).unwrap();
    println!(
        "  read LBA 42 -> stamp {stamp} at {done}, device WA {:.2}, {} GC erases, mapping DRAM {} KiB",
        conv.write_amplification(),
        conv.ftl_stats().gc_erases,
        conv.device_dram_bytes() >> 10,
    );

    // --- ZNS: sequential-only zones, explicit resets, thin FTL.
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 16).with_zone_limits(14);
    let mut zns = ZnsDevice::new(cfg).unwrap();
    println!(
        "\nzns: {} zones of {} pages, MAR {}",
        zns.num_zones(),
        zns.config().zone_capacity(),
        zns.config().max_active_zones
    );
    let mut t = Nanos::ZERO;
    let zone = ZoneId(0);
    for i in 0..zns.config().zone_capacity() {
        t = zns.write(zone, i, 0xBEEF + i, t).unwrap();
    }
    println!(
        "  zone 0 is {:?} after {} sequential writes",
        zns.zone(zone).unwrap().state(),
        zns.zone(zone).unwrap().write_pointer()
    );
    // Writes must be at the write pointer; anything else is rejected.
    let err = zns.write(zone, 0, 0, t).unwrap_err();
    println!("  overwrite attempt: {err}");
    // Reset erases the whole zone at once.
    t = zns.reset(zone, t).unwrap();
    let (off, _t2) = zns.append(zone, 7, t).unwrap();
    println!(
        "  after reset: append landed at offset {off}; device WA {:.2}, mapping DRAM {} KiB",
        zns.flash_stats().write_amplification(),
        zns.device_dram_bytes() >> 10,
    );
    println!("\nSame flash; the interface made the difference.");
}
