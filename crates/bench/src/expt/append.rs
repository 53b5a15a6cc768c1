//! E8 — §4.2's write-pointer contention: "a zone's write pointer can
//! suffer from lock contention … The append command … allows the device
//! to serialize concurrent writes to the same zone."
//!
//! N producers append records to one shared log zone. With plain writes,
//! the host must serialize: each writer holds a lock from issuing its
//! write at the current write pointer until completion (a failed
//! optimistic write would have to retry — same serialization, more
//! traffic). With zone append, every record is issued the moment it
//! arrives and the device picks the offset.

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Report};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::{ops_per_sec, Nanos, Series, Table};
use bh_workloads::MultiWriterQueues;
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZoneState, ZonedDevice};

fn device() -> ExptResult<ZnsDevice> {
    // One big zone striped over many planes: the device has plenty of
    // internal parallelism for appends to exploit.
    let geo = Geometry::experiment(64);
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 32).with_zone_limits(14);
    Ok(ZnsDevice::new(cfg)?)
}

fn fresh_zone(dev: &mut ZnsDevice, zone: u32, now: Nanos) -> bh_zns::Result<Nanos> {
    let z = ZoneId(zone);
    if dev.zone(z)?.state() != ZoneState::Empty {
        dev.reset(z, now)
    } else {
        Ok(now)
    }
}

/// Records/second with host-locked writes at the write pointer.
fn run_locked_writes(
    dev: &mut ZnsDevice,
    zone: u32,
    events: &[bh_workloads::AppendEvent],
) -> bh_zns::Result<f64> {
    let t0 = fresh_zone(dev, zone, Nanos::ZERO)?;
    let z = ZoneId(zone);
    let mut lock_free_at = t0;
    let mut last_done = t0;
    let start = t0 + Nanos::from_nanos(events[0].at_ns);
    for e in events {
        let arrival = t0 + Nanos::from_nanos(e.at_ns);
        // Acquire the lock, read the write pointer, write, release on
        // completion.
        let issue = arrival.max(lock_free_at);
        let wp = dev.zone(z)?.write_pointer();
        let done = dev.write(z, wp, e.seq, issue)?;
        lock_free_at = done;
        last_done = last_done.max(done);
    }
    Ok(ops_per_sec(events.len() as u64, last_done.saturating_sub(start)))
}

/// Records/second with zone append: no lock, device assigns offsets.
fn run_appends(
    dev: &mut ZnsDevice,
    zone: u32,
    events: &[bh_workloads::AppendEvent],
) -> bh_zns::Result<f64> {
    let t0 = fresh_zone(dev, zone, Nanos::ZERO)?;
    let z = ZoneId(zone);
    let mut last_done = t0;
    let start = t0 + Nanos::from_nanos(events[0].at_ns);
    for e in events {
        let arrival = t0 + Nanos::from_nanos(e.at_ns);
        let (_offset, done) = dev.append(z, e.seq, arrival)?;
        last_done = last_done.max(done);
    }
    Ok(ops_per_sec(events.len() as u64, last_done.saturating_sub(start)))
}

pub fn run() -> ExptResult {
    // Capped so 16 writers x per_writer records fit one 8192-page zone.
    let per_writer = bh_bench::scaled(500, 400);
    let mut report = Report::new(
        "E8 / §4.2 write-pointer contention",
        "N writers, one shared zone: host-locked writes vs zone append",
    );
    let mut table = Table::new([
        "writers",
        "locked writes rec/s",
        "zone append rec/s",
        "speedup",
    ]);
    let mut series = Series::new("append speedup vs writers");
    let mut speedups = Vec::new();
    let mut locked_rates = Vec::new();
    for writers in [1u32, 2, 4, 8, 16] {
        // Dense arrivals so the log is the bottleneck, not think time.
        let mut q = MultiWriterQueues::new(writers, 50_000 / writers as u64, 0xE8);
        let events = q.schedule(per_writer);
        // Fresh devices per measurement: virtual-clock backlogs must not
        // leak between configurations.
        let locked = run_locked_writes(&mut device()?, 0, &events)?;
        let append = run_appends(&mut device()?, 0, &events)?;
        let speedup = append / locked;
        table.row([
            writers.to_string(),
            format!("{locked:.0}"),
            format!("{append:.0}"),
            format!("{speedup:.2}x"),
        ]);
        series.push(writers as f64, speedup);
        speedups.push(speedup);
        locked_rates.push(locked);
    }
    report.table("throughput by writer count", table);
    let monotone_gain = speedups.windows(2).all(|w| w[1] >= w[0] * 0.8);
    report.series(series);

    let mut claims = ClaimSet::new();
    claims.check(
        "E8.locked-is-capped",
        "write-pointer locking caps throughput at one outstanding write, no matter how many writers (16-writer rate / 1-writer rate)",
        locked_rates.last().unwrap() / locked_rates[0],
        (0.8, 1.2),
    );
    claims.check(
        "E8.multi-writer-speedup",
        "the append command resolves the contention problem (16 writers)",
        *speedups.last().unwrap(),
        (2.0, 64.0),
    );
    claims.check_bool(
        "E8.gain-grows-with-writers",
        "contention relief grows with writer count (monotone within noise)",
        monotone_gain,
    );
    report.claims(claims);
    Ok(report)
}
