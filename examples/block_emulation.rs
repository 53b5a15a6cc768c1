//! The block interface, rebuilt on the host (§2.3 / dm-zoned / SALSA).
//!
//! Runs random overwrites through `BlockEmu` over a ZNS device and shows
//! host-scheduled reclaim at work: garbage accumulates during load and is
//! collected in an idle window, on the host's terms. Run with:
//!
//! ```text
//! cargo run -p bh-examples --bin block_emulation
//! ```

use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_workloads::{Op, OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};

fn main() {
    let geo = Geometry::experiment(8);
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 8).with_zone_limits(14);
    let dev = ZnsDevice::new(cfg).unwrap();
    let reserve = dev.num_zones() / 8;
    let mut emu = BlockEmu::new(
        dev,
        reserve,
        ReclaimPolicy::IdleOnly {
            min_idle: Nanos::from_millis(1),
        },
    )
    .with_hot_cold(2);

    let cap = emu.capacity_pages();
    println!(
        "emulated block device: {cap} pages over {} zones ({} reserved)",
        emu.device().num_zones(),
        reserve
    );

    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).unwrap();
    }
    println!("filled; free zones = {}", emu.free_zones());

    // A burst of zipfian overwrites builds up garbage.
    let mut stream = OpStream::zipfian(cap, OpMix::write_only(), 3);
    for _ in 0..cap / 2 {
        if let Op::Write(lba) = stream.next_op() {
            t = emu.write(lba, t).unwrap();
        }
    }
    println!(
        "after burst: free zones = {}, WA {:.2}, resets {}",
        emu.free_zones(),
        emu.write_amplification(),
        emu.stats().resets
    );

    // An idle window: the host reclaims on its schedule.
    let idle = t + Nanos::from_millis(10);
    let (reclaimed, done) = emu.maybe_reclaim(idle).unwrap();
    println!(
        "idle reclaim: {reclaimed} zones reclaimed in {}, free zones = {}, relocated {} pages total",
        done.saturating_sub(idle),
        emu.free_zones(),
        emu.stats().relocated
    );

    // Data integrity held throughout.
    let (stamp, _) = emu.read(0, done).unwrap();
    println!("LBA 0 still readable (stamp {stamp}).");
}
