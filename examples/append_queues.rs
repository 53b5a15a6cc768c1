//! Multi-writer persistent queues on one zone (§4.2's contention case).
//!
//! Eight producers share one log zone. With write-at-write-pointer they
//! serialize behind a host lock; with zone append the device assigns
//! offsets and the writers pipeline. Run with:
//!
//! ```text
//! cargo run -p bh-examples --bin append_queues
//! ```

use bh_flash::{FlashConfig, Geometry};
use bh_metrics::{ops_per_sec, Nanos};
use bh_workloads::MultiWriterQueues;
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZonedDevice};

fn main() {
    let geo = Geometry::experiment(64);
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 32).with_zone_limits(14);

    let mut schedule = MultiWriterQueues::new(8, 6_000, 42);
    let events = schedule.schedule(500);
    println!("8 writers, {} records, shared zone\n", events.len());

    // Locked writes: wp coordination through a host mutex.
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let zone = ZoneId(0);
    let mut lock_free = Nanos::ZERO;
    let mut last = Nanos::ZERO;
    for e in &events {
        let arrival = Nanos::from_nanos(e.at_ns);
        let issue = arrival.max(lock_free);
        let wp = dev.zone(zone).unwrap().write_pointer();
        let done = dev.write(zone, wp, e.seq, issue).unwrap();
        lock_free = done;
        last = last.max(done);
    }
    let locked = ops_per_sec(events.len() as u64, last);
    println!("write-at-wp + host lock : {locked:>8.0} records/s");

    // Zone append: fire and forget; the device serializes.
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let mut last = Nanos::ZERO;
    for e in &events {
        let arrival = Nanos::from_nanos(e.at_ns);
        let (_offset, done) = dev.append(zone, e.seq, arrival).unwrap();
        last = last.max(done);
    }
    let append = ops_per_sec(events.len() as u64, last);
    println!("zone append             : {append:>8.0} records/s");
    println!(
        "\nspeedup: {:.1}x — the spec's append command at work.",
        append / locked
    );
}
