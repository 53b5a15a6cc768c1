//! E19 — observability identity (`expt_obs`)
//!
//! bh-obs claims its registry *observes*: every counter mirrors an
//! existing stats bump, so values re-derived from counters must equal
//! the report's numbers bit-for-bit, and switching the registry on must
//! not move a byte of any report. This experiment checks both
//! directions on every layer that bumps a counter:
//!
//! - conventional and ZNS write amplification re-derived purely from
//!   flash counters (`ObsSnapshot::derived_wa`) equals the device's own
//!   `FlashStats::write_amplification` exactly (same `u64` inputs, same
//!   conventions, compared on the f64 bit pattern);
//! - the queue conservation law holds: arrivals == retirements == ops,
//!   at depth 8 through the real queue engine;
//! - ZNS zone-state gauges equal the device's own accessors at the end
//!   of the run;
//! - KV WAL bytes counted by obs equal `DbStats::wal_bytes`;
//! - a bit-identical conventional workload run with the registry off
//!   produces a bit-identical device fingerprint (the transparency
//!   property, checked in-process here and across processes by
//!   `report_lockstep`).
//!
//! Artifacts: `expt_obs.prom` (Prometheus text exposition of the merged
//! registry) and `expt_obs.obs.json` (the JSON snapshot, the queued
//! run's full-resolution write-latency histogram buckets, and the run
//! manifest).

use bh_bench::stack_geometry;
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{ClaimSet, Pacing, Report, RunConfig, Runner, StackAdmin};
use bh_flash::FlashConfig;
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_kv::{ConvBackend, Db, DbConfig};
use bh_metrics::{Histogram, Nanos, Table};
use bh_obs::{hist_to_json, Ctr, Gauge, Obs, ObsSnapshot};
use bh_workloads::{Op, OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CONV_SEED: u64 = 0x19C0;
const QUEUE_SEED: u64 = 0x19AD;
const KV_SEED: u64 = 0x19DB;

/// True exactly when `a` and `b` are the same f64 bit pattern — the
/// identity E19 claims is *exact*, not approximate, because both sides
/// derive from the same integer bumps.
fn bit_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Fill + uniform overwrite on the conventional FTL. Returns the
/// device's WA, the registry snapshot, and a fingerprint of everything
/// the device reports — byte-compared between the obs-on and obs-off
/// passes to prove the registry observed without perturbing.
fn conv_pass(obs: Obs) -> (f64, ObsSnapshot, String) {
    let mut ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(stack_geometry()), 0.10)).unwrap();
    ssd.set_obs(obs.clone());
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).expect("fill").done;
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), CONV_SEED);
    for _ in 0..cap {
        if let Op::Write(lba) = stream.next_op() {
            t = ssd.write(lba, t).expect("overwrite").done;
        }
    }
    let s = ssd.flash_stats();
    let fingerprint = format!(
        "wa={:016x} host_p={} int_p={} copies={} host_r={} int_r={} erases={} busy={} t={}",
        s.write_amplification().to_bits(),
        s.host_programs,
        s.internal_programs,
        s.copies,
        s.host_reads,
        s.internal_reads,
        s.erases,
        s.busy.as_nanos(),
        t.as_nanos(),
    );
    (s.write_amplification(), obs.snapshot(), fingerprint)
}

/// ZNS behind the block emulation layer: fill + overwrite drives zone
/// transitions, allocations, and reclaim. Returns the inner device's
/// WA, its end-of-run zone-state accessor values, and the snapshot.
fn zns_pass(obs: Obs) -> (f64, [u64; 3], ObsSnapshot) {
    let cfg = ZnsConfig::new(FlashConfig::tlc(stack_geometry()), 4).with_zone_limits(8);
    let dev = ZnsDevice::new(cfg).unwrap();
    let reserve = (dev.num_zones() / 8).max(4);
    let mut emu = BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate);
    emu.set_obs(obs.clone());
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).expect("fill");
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), CONV_SEED);
    for _ in 0..cap {
        if let Op::Write(lba) = stream.next_op() {
            t = emu.write(lba, t).expect("overwrite");
        }
    }
    let dev = emu.device();
    let accessors = [
        dev.active_zones() as u64,
        dev.open_zones() as u64,
        dev.empty_zones() as u64,
    ];
    (
        dev.flash_stats().write_amplification(),
        accessors,
        obs.snapshot(),
    )
}

/// A zipfian closed loop at queue depth 8 through the real queue
/// engine. Returns (expected queue arrivals, snapshot, write-latency
/// histogram). On the queued path every host op AND every maintenance
/// command is a queue arrival, so the expected count is
/// `ops + floor((ops - 1) / maintenance_every)` — the identity is
/// exact, not a lower bound.
fn queue_pass(obs: Obs) -> (u64, ObsSnapshot, Histogram) {
    let mut dev: Box<dyn StackAdmin> =
        Box::new(ConvSsd::new(ConvConfig::new(FlashConfig::tlc(stack_geometry()), 0.15)).unwrap());
    dev.set_obs(obs.clone());
    let ops = bh_bench::scaled(200_000, 40_000);
    let cap = dev.capacity_pages();
    let t = Runner::fill(dev.as_mut(), Nanos::ZERO).expect("fill");
    let mut stream = OpStream::zipfian(cap, OpMix::read_heavy(), QUEUE_SEED);
    let runner = Runner::new(
        RunConfig::new(ops)
            .with_pacing(Pacing::Closed)
            .with_maintenance_every(64)
            .with_queue_depth(8),
    )
    .with_obs(obs.clone());
    let res = runner
        .run(dev.as_mut(), &mut stream, t)
        .expect("queued run");
    let expected = ops + (ops.saturating_sub(1)) / 64;
    (expected, obs.snapshot(), res.writes)
}

/// Sequential puts into the LSM store on a conventional backend.
/// Returns (DbStats wal_bytes, snapshot).
fn kv_pass(obs: Obs) -> (u64, ObsSnapshot) {
    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(stack_geometry()), 0.10)).unwrap();
    let db_cfg = DbConfig {
        memtable_bytes: 64 << 10,
        l0_files: 4,
        level_base_bytes: 512 << 10,
        level_multiplier: 8,
        sst_bytes: 128 << 10,
        block_bytes: 4096,
        sync_every: 64,
    };
    let mut db = Db::new(ConvBackend::new(ssd), db_cfg).unwrap();
    db.set_obs(obs.clone());
    let mut rng = SmallRng::seed_from_u64(KV_SEED);
    let keys = bh_bench::scaled(20_000, 4_000);
    let mut t = Nanos::ZERO;
    for i in 0..keys {
        let mut v = vec![0u8; 256];
        rng.fill(&mut v[..]);
        t = db
            .put(format!("user{i:012}").into_bytes(), v, t)
            .expect("put");
    }
    (db.stats().wal_bytes, obs.snapshot())
}

pub fn run() -> Report {
    let (conv_wa, conv_snap, fp_on) = conv_pass(Obs::enabled());
    let (_, off_snap, fp_off) = conv_pass(Obs::disabled());
    let (zns_wa, zone_accessors, zns_snap) = zns_pass(Obs::enabled());
    let (expected_arrivals, queue_snap, write_hist) = queue_pass(Obs::enabled());
    let (wal_bytes, kv_snap) = kv_pass(Obs::enabled());

    let mut merged = conv_snap.clone();
    merged.merge(&zns_snap);
    merged.merge(&queue_snap);
    merged.merge(&kv_snap);

    let mut report = Report::new(
        "E19 / observability identity",
        "Live counters re-derive report numbers exactly and never perturb them",
    );

    let mut identities = Table::new(["identity", "from counters", "from report", "exact"]);
    identities.row([
        "conv WA".to_string(),
        format!("{:.6}", conv_snap.derived_wa()),
        format!("{conv_wa:.6}"),
        bit_eq(conv_snap.derived_wa(), conv_wa).to_string(),
    ]);
    identities.row([
        "zns WA".to_string(),
        format!("{:.6}", zns_snap.derived_wa()),
        format!("{zns_wa:.6}"),
        bit_eq(zns_snap.derived_wa(), zns_wa).to_string(),
    ]);
    identities.row([
        "queue arrivals/retirements".to_string(),
        format!(
            "{}/{}",
            queue_snap.counter(Ctr::QueueArrivals),
            queue_snap.counter(Ctr::QueueRetirements)
        ),
        expected_arrivals.to_string(),
        (queue_snap.counter(Ctr::QueueArrivals) == expected_arrivals
            && queue_snap.counter(Ctr::QueueRetirements) == expected_arrivals)
            .to_string(),
    ]);
    identities.row([
        "kv WAL bytes".to_string(),
        kv_snap.counter(Ctr::KvWalBytes).to_string(),
        wal_bytes.to_string(),
        (kv_snap.counter(Ctr::KvWalBytes) == wal_bytes).to_string(),
    ]);
    report.table("counter identities", identities);

    let mut zones = Table::new(["gauge", "value", "peak", "device accessor"]);
    for (g, accessor) in [
        (Gauge::ZnsActiveZones, zone_accessors[0]),
        (Gauge::ZnsOpenZones, zone_accessors[1]),
        (Gauge::ZnsEmptyZones, zone_accessors[2]),
    ] {
        let gv = zns_snap.gauge(g);
        zones.row([
            g.name().to_string(),
            gv.value.to_string(),
            gv.peak.to_string(),
            accessor.to_string(),
        ]);
    }
    report.table("zone-state gauges", zones);

    let mut claims = ClaimSet::new();
    claims.check_bool(
        "E19.conv-wa-identity",
        "conv WA re-derived from flash counters equals the report bit-for-bit",
        bit_eq(conv_snap.derived_wa(), conv_wa),
    );
    claims.check_bool(
        "E19.zns-wa-identity",
        "zns WA re-derived from flash counters equals the report bit-for-bit",
        bit_eq(zns_snap.derived_wa(), zns_wa),
    );
    claims.check_bool(
        "E19.queue-conservation",
        "queue arrivals == retirements == ops + maintenance at depth 8",
        queue_snap.counter(Ctr::QueueArrivals) == expected_arrivals
            && queue_snap.counter(Ctr::QueueRetirements) == expected_arrivals,
    );
    claims.check_bool(
        "E19.zone-gauges",
        "zone-state gauges equal the device's accessors at end of run",
        [
            Gauge::ZnsActiveZones,
            Gauge::ZnsOpenZones,
            Gauge::ZnsEmptyZones,
        ]
        .iter()
        .zip(zone_accessors)
        .all(|(&g, accessor)| zns_snap.gauge(g).value == accessor),
    );
    claims.check_bool(
        "E19.kv-wal-identity",
        "obs kv_wal_bytes equals DbStats::wal_bytes exactly",
        kv_snap.counter(Ctr::KvWalBytes) == wal_bytes,
    );
    claims.check_bool(
        "E19.transparent",
        "obs-off rerun produces a bit-identical device fingerprint",
        fp_on == fp_off && off_snap.is_zero(),
    );
    report.claims(claims);

    bh_bench::archive_named("expt_obs.prom", &merged.to_prometheus("bh_"));
    let mut doc = merged.to_json();
    doc.set("write_latency_hist", hist_to_json(&write_hist));
    doc.set(
        "manifest",
        bh_bench::manifest("expt_obs")
            .with_seed("conv", CONV_SEED)
            .with_seed("queue", QUEUE_SEED)
            .with_seed("kv", KV_SEED)
            .with_schema("bh-obs/1")
            .to_json(),
    );
    bh_bench::archive_named("expt_obs.obs.json", &doc.pretty());

    report
}
