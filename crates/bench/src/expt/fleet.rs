//! E15 — the paper's claims at *fleet* scale.
//!
//! §2.4's tail-latency complaint ("requests may be scheduled behind a
//! device-initiated operation, causing high tail latency") and §4.2's
//! active-zone budgeting question are operator problems: many tenants
//! multiplexed over many devices. This experiment shards a Zipf-weighted
//! tenant population across mixed fleets of conventional and ZNS+host
//! devices and regenerates both claims from the merged fleet view:
//!
//! - **Scaling phase**: fleets of 4/16(/64) devices, half conventional
//!   and half ZNS with per-tenant hinted streams; per-stack merged
//!   latency digests, throughput, and WA at each scale.
//! - **Determinism phase**: the 16-device quick-geometry fleet run with
//!   1, 4, and 8 worker threads must produce a byte-identical
//!   `FleetReport` JSON (the archived artifact), and the 8-thread run
//!   must not be slower than the band allows on multi-core hosts.
//! - **Active-zone phase**: §4.2's bursty admission replay, one schedule
//!   per shard, wait histograms merged fleet-wide per strategy.
//!
//! With `--trace`, every shard records an event trace and the fleet
//! exports one Chrome trace with shard-tagged pids.

use bh_bench::{timed, ExptResult};
use bh_core::{ClaimSet, Pacing, Report};
use bh_flash::Geometry;
use bh_fleet::{
    admission_waits, default_jobs, FleetConfig, FleetReport, FleetSession, Placement, StackKind,
};
use bh_host::{AzStrategy, ReclaimPolicy};
use bh_metrics::{Histogram, Nanos, Table};
use bh_workloads::{split_seed, BurstyTenants};

const SEED: u64 = 0xF133;
const MAR: u32 = 14;
const AZ_TENANTS: u32 = 7;

/// A mixed fleet whose ZNS stacks are proportioned to the geometry:
/// zones sized so the device has a few dozen of them, reserve ~= the
/// conventional stack's overprovisioning, and a modest stream count —
/// the same proportions expt_latency uses for its single-device pair.
fn fleet(devices: usize, geo: Geometry, ops: u64, trace: bool) -> FleetConfig {
    let mut cfg = FleetConfig::mixed(devices, geo, devices as u32 * 4, SEED);
    let blocks = geo.total_blocks();
    let bpz = (blocks / 32).max(1);
    let zones = blocks / bpz;
    for spec in &mut cfg.devices {
        if let StackKind::ZnsEmu {
            blocks_per_zone,
            reserve_zones,
            hinted_streams,
            reclaim,
            ..
        } = &mut spec.stack
        {
            *blocks_per_zone = bpz;
            // Must clear the emulator's free-zone target (2) by a wide
            // margin: the slack between reserve and that target is the
            // only room garbage has to accumulate before reclaim fires.
            *reserve_zones = (zones / 6).max(4);
            *hinted_streams = 2;
            // The host's §4.1 freedom: reclaim waits for the bursts'
            // idle windows instead of running inside foreground I/O.
            // min_idle sits between the intra-burst gap (5ms) and the
            // inter-burst window (20ms), so reclaim never starts in a
            // gap it would overrun.
            *reclaim = ReclaimPolicy::IdleOnly {
                min_idle: Nanos::from_millis(8),
            };
        }
    }
    cfg.ops_per_shard = ops;
    // Bursty arrivals with idle windows between bursts — the fleet-scale
    // shape of expt_latency's phases. The conventional device's
    // maintenance hook is a no-op (its GC runs on the device's own
    // schedule, inside the data path), so only the ZNS shards can use
    // the windows.
    cfg.pacing = Pacing::Bursty {
        burst_ops: 32,
        interarrival: Nanos::from_millis(5),
        idle: Nanos::from_millis(20),
    };
    cfg.sample_every = (ops / 8).max(1);
    cfg.placement = Placement::LoadAware;
    cfg.trace = trace;
    cfg
}

pub fn run() -> ExptResult {
    let trace = bh_bench::trace_enabled();
    // Same laptop-scale geometry in both modes (the reserve fraction and
    // zone count shape WA); fleet size and op counts are the scale axes.
    // Per-shard ops must overwrite the device several times so the
    // post-fill transient (every victim nearly all-live) washes out.
    let geo = Geometry::small_test();
    let sizes: &[usize] = if bh_bench::quick_mode() {
        &[4, 16]
    } else {
        &[4, 16, 64]
    };
    let ops = bh_bench::scaled(40_000, 8_000);

    let mut report = Report::new(
        "E15 / fleet-scale §2.4 + §4.2",
        "Zipf tenant population sharded over mixed conv/ZNS fleets; deterministic parallel simulation",
    );

    // ---- Scaling phase -------------------------------------------------
    let mut scale_table = Table::new([
        "devices",
        "stack",
        "ops/s",
        "mean WA",
        "read p50",
        "read p99",
        "read p99.9",
        "write p99.9",
    ]);
    let mut largest: Option<FleetReport> = None;
    for &n in sizes {
        let cfg = fleet(n, geo, ops, trace && n == *sizes.last().unwrap());
        let run = FleetSession::new(&cfg).with_jobs(default_jobs()).run()?;
        for s in &run.report.stacks {
            let r = s.reads.summary();
            let w = s.writes.summary();
            scale_table.row([
                n.to_string(),
                s.label.to_string(),
                format!("{:.0}", s.total_ops_per_sec),
                format!("{:.2}", s.mean_wa),
                r.p50.to_string(),
                r.p99.to_string(),
                r.p999.to_string(),
                w.p999.to_string(),
            ]);
        }
        if !run.traces.is_empty() {
            bh_bench::archive_named(
                "expt_fleet.trace.json",
                &bh_trace::to_chrome_trace_sharded(&run.traces),
            );
            if run.trace_dropped > 0 {
                eprintln!(
                    "fleet trace rings dropped {} events; raise trace_cap to keep them",
                    run.trace_dropped
                );
            }
        }
        largest = Some(run.report);
    }
    report.table("scaling (per stack, merged over shards)", scale_table);
    let largest = largest.expect("at least one fleet size");

    // ---- Determinism + speedup phase ----------------------------------
    // Always quick geometry: the claim is about the engine, not the load.
    let det_cfg = fleet(16, Geometry::small_test(), 2000, false);
    let (r1, t1) = timed(&det_cfg, 1)?;
    let (r4, _) = timed(&det_cfg, 4)?;
    let (r8, t8) = timed(&det_cfg, 8)?;
    let j1 = r1.to_json();
    let identical = j1 == r4.to_json() && j1 == r8.to_json();
    bh_bench::archive_named("expt_fleet.fleet.json", &j1);

    let verdict = |same: bool| if same { "identical" } else { "DIFFERS" }.to_string();
    let mut det_table = Table::new(["jobs", "wall clock", "report"]);
    det_table.row([
        "1".to_string(),
        format!("{t1:.3}s"),
        "canonical".to_string(),
    ]);
    det_table.row([
        "4".to_string(),
        "-".to_string(),
        verdict(j1 == r4.to_json()),
    ]);
    det_table.row([
        "8".to_string(),
        format!("{t8:.3}s"),
        verdict(j1 == r8.to_json()),
    ]);
    report.table(
        "determinism across worker threads (16 shards, quick geometry)",
        det_table,
    );

    // ---- Active-zone phase (§4.2, one schedule per shard) --------------
    let az_shards = *sizes.last().unwrap() as u64;
    let bursts = bh_bench::scaled(120, 40) as u32;
    let mut az_table = Table::new(["strategy", "waits", "mean wait", "p99 wait", "max wait"]);
    let mut az_means = Vec::new();
    for (name, strategy) in [
        ("static partition", AzStrategy::StaticPartition),
        ("dynamic demand", AzStrategy::DynamicDemand),
        ("lending w/ guarantees", AzStrategy::Lending),
    ] {
        let mut merged = Histogram::new();
        for shard in 0..az_shards {
            let mut gen = BurstyTenants::new(
                AZ_TENANTS,
                6,
                20_000_000,
                5_000_000,
                split_seed(SEED, 0xA2 + shard),
            );
            let events = gen.schedule(bursts);
            merged.merge(&admission_waits(strategy, MAR, AZ_TENANTS, &events));
        }
        let s = merged.summary();
        az_table.row([
            name.to_string(),
            s.count.to_string(),
            s.mean.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
        az_means.push(s.mean.as_nanos() as f64);
    }
    report.table(
        "fleet-merged admission waits (one bursty schedule per shard)",
        az_table,
    );

    // ---- Claims --------------------------------------------------------
    let conv = largest.stack("conventional").ok_or("no conventional shard")?;
    let zns = largest.stack("zns+blockemu").ok_or("no zns shard")?;
    let conv_r999 = conv.reads.summary().p999.as_nanos() as f64;
    let zns_r999 = zns.reads.summary().p999.as_nanos() as f64;

    let mut claims = ClaimSet::new();
    claims.check_bool(
        "E15.determinism",
        "fleet results are independent of worker-thread count (byte-identical reports)",
        identical,
    );
    let cores = default_jobs();
    claims.check(
        "E15.parallel-speedup",
        "8 worker threads vs 1 on the 16-shard fleet (>=2x where >=4 cores exist; wide band on smaller hosts where the pool can only pipeline)",
        t1 / t8.max(1e-9),
        if cores >= 4 { (2.0, 1e6) } else { (0.5, 1e6) },
    );
    claims.check(
        "E15.fleet-tail",
        "reads scheduled behind device-initiated GC inflate conventional read tails; host-scheduled reclaim keeps ZNS tails flat, fleet-wide (read p99.9 ratio)",
        conv_r999 / zns_r999.max(1.0),
        (1.5, 1e6),
    );
    claims.check(
        "E15.fleet-wa",
        "hinted per-tenant placement keeps fleet WA below the conventional FTL's",
        conv.mean_wa / zns.mean_wa,
        (1.05, 100.0),
    );
    claims.check(
        "E15.az-static-does-not-scale",
        "fixed active-zone budgets do not multiplex bursty demand, at fleet scale either",
        az_means[0] / az_means[1].max(1.0),
        (1.5, 1e6),
    );
    report.claims(claims);
    Ok(report)
}
