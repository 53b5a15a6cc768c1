//! E19 — observability exports (`expt_obs`)
//!
//! Every layer projects its obs slots from the stats it already keeps,
//! so what remains to check is the export path: the Prometheus text and
//! the JSON document, parsed back, must carry exactly the projected
//! values — every counter, gauge value and peak, merged over four
//! passes that touch every layer owning a slot: fill + overwrite on the
//! conventional FTL and on `BlockEmu` over ZNS, a zipfian closed loop
//! at queue depth 8, and sequential LSM puts.
//!
//! Artifacts: `expt_obs.prom` and `expt_obs.obs.json` (the JSON
//! snapshot, the queued run's write-latency histogram buckets, and the
//! run manifest).

use bh_bench::stack_geometry;
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{ClaimSet, Pacing, Report, RunConfig, Runner, StackAdmin};
use bh_flash::FlashConfig;
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_kv::{ConvBackend, Db, DbConfig};
use bh_metrics::{Histogram, Nanos, Table};
use bh_json::Json;
use bh_obs::registry::{ALL_CTRS, ALL_GAUGES};
use bh_obs::{hist_to_json, ObsSnapshot};
use bh_workloads::{Op, OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const CONV_SEED: u64 = 0x19C0;
const QUEUE_SEED: u64 = 0x19AD;
const KV_SEED: u64 = 0x19DB;

/// Fill + uniform overwrite on the conventional FTL.
fn conv_pass() -> ObsSnapshot {
    let mut ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(stack_geometry()), 0.10)).unwrap();
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
    ObsSnapshot::project(|s| ssd.obs_into(s))
}

/// ZNS behind the block emulation layer: fill + overwrite drives zone
/// transitions, allocations, and reclaim.
fn zns_pass() -> ObsSnapshot {
    let cfg = ZnsConfig::new(FlashConfig::tlc(stack_geometry()), 4).with_zone_limits(8);
    let dev = ZnsDevice::new(cfg).unwrap();
    let reserve = (dev.num_zones() / 8).max(4);
    let mut emu = BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate);
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
    ObsSnapshot::project(|s| emu.obs_into(s))
}

/// A zipfian closed loop at queue depth 8 through the real queue
/// engine. Returns the snapshot and the write-latency histogram.
fn queue_pass() -> (ObsSnapshot, Histogram) {
    let mut dev: Box<dyn StackAdmin> =
        Box::new(ConvSsd::new(ConvConfig::new(FlashConfig::tlc(stack_geometry()), 0.15)).unwrap());
    let ops = bh_bench::scaled(200_000, 40_000);
    let cap = dev.capacity_pages();
    let t = Runner::fill(dev.as_mut(), Nanos::ZERO).expect("fill");
    let mut stream = OpStream::zipfian(cap, OpMix::read_heavy(), QUEUE_SEED);
    let runner = Runner::new(
        RunConfig::new(ops)
            .with_pacing(Pacing::Closed)
            .with_maintenance_every(64)
            .with_queue_depth(8),
    );
    let res = runner
        .run(dev.as_mut(), &mut stream, t)
        .expect("queued run");
    let mut snap = dev.obs_snapshot();
    res.obs_into(&mut snap);
    (snap, res.writes)
}

/// Sequential puts into the LSM store on a conventional backend.
fn kv_pass() -> ObsSnapshot {
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
    ObsSnapshot::project(|s| db.obs_into(s))
}

/// Rebuilds a snapshot from an export: `counter(name)` and
/// `gauge(name, "value" | "peak")` read one metric back, `None` (read as
/// zero) when the export lacks it.
fn read_back(
    counter: impl Fn(&str) -> Option<u64>,
    gauge: impl Fn(&str, &str) -> Option<u64>,
) -> ObsSnapshot {
    let mut snap = ObsSnapshot::default();
    for c in ALL_CTRS {
        snap.set(c, counter(c.name()).unwrap_or(0));
    }
    for g in ALL_GAUGES {
        let [value, peak] = ["value", "peak"].map(|f| gauge(g.name(), f).unwrap_or(0));
        snap.set_gauge(g, value, peak);
    }
    snap
}

pub fn run() -> Report {
    let (queue_snap, write_hist) = queue_pass();
    let merged = ObsSnapshot::merged(&[conv_pass(), zns_pass(), queue_snap, kv_pass()]);

    let prom = merged.to_prometheus("bh_");
    let mut doc = merged.to_json();
    let prom_values: HashMap<&str, u64> = prom
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, v)| Some((name, v.parse().ok()?)))
        .collect();
    let prom_read = |name: String| prom_values.get(name.as_str()).copied();
    let from_prom = read_back(
        |c| prom_read(format!("bh_{c}_total")),
        |g, field| prom_read(format!("bh_{g}{}", if field == "peak" { "_peak" } else { "" })),
    );
    let json = bh_json::parse(&doc.pretty()).unwrap_or(Json::Null);
    let from_json = read_back(
        |c| json.get("counters")?.get(c)?.as_u64(),
        |g, field| json.get("gauges")?.get(g)?.get(field)?.as_u64(),
    );

    let mut report = Report::new(
        "E19 / observability exports",
        "Exported counters and gauges, parsed back, equal the stats they project from",
    );
    let mut table = Table::new(["metric", "projected", "prometheus", "json"]);
    for c in ALL_CTRS {
        table.row([
            c.name().to_string(),
            merged.counter(c).to_string(),
            from_prom.counter(c).to_string(),
            from_json.counter(c).to_string(),
        ]);
    }
    for g in ALL_GAUGES {
        let show = |s: &ObsSnapshot| format!("{}/{}", s.gauge(g).value, s.gauge(g).peak);
        table.row([
            format!("{} (value/peak)", g.name()),
            show(&merged),
            show(&from_prom),
            show(&from_json),
        ]);
    }
    report.table("merged snapshot, four passes", table);

    let mut claims = ClaimSet::new();
    claims.check_bool(
        "E19.exports-round-trip",
        "Prometheus and JSON exports parse back to the projected snapshot",
        from_prom == merged && from_json == merged && merged != ObsSnapshot::default(),
    );
    report.claims(claims);

    bh_bench::archive_named("expt_obs.prom", &prom);
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
