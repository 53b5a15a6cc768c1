//! E22 — the streaming fleet engine at 1k–4k shard scale.
//!
//! E15 validates the paper's §2.4/§4.2 claims on fleets the batch
//! engine could hold in memory at once. This experiment exercises the
//! *engine redesign*: [`bh_fleet::FleetSession`] streams shard results
//! through an incremental merge sink, so fleet size is bounded by the
//! admission window, not by the shard count. Phases:
//!
//! - **Oracle phase**: the streaming session (parallel workers, a
//!   deliberately tiny admission window) must produce a byte-identical
//!   `FleetReport` JSON to the serial plan-then-`from_shards` batch
//!   path — the old API is the correctness oracle for the new one.
//! - **Scale sweep**: fleets of 64/256(/1024/4096) devices at Zipf
//!   theta 0.9; per-stack WA and read/write tails at each scale, with
//!   the process peak RSS recorded after each run (the constant-memory
//!   claim is *gated* in `perf_gate`'s `fleet_1k` probe; here it is
//!   reported across the full sweep).
//! - **Checkpoint phase**: at 256 shards, a run stepped through
//!   `run_to` + `into_checkpoint` + `resume` on 1 worker must match the
//!   one-shot many-worker run byte for byte.
//! - **Theta sweep**: tenant-skew sensitivity of fleet WA and tails at
//!   fixed fleet size.
//! - **Migration phase**: a Hash-placed fleet re-places its population
//!   `LoadAware` mid-run ([`FleetConfig::with_migration`]) — the §4.2
//!   operator story of rebalancing a live fleet. Claims: the planned
//!   re-placement tightens the per-shard traffic-weight spread, and the
//!   migrated run stays deterministic across worker counts.
//! - **Trace-spill phase**: a traced session with
//!   [`bh_fleet::FleetSession::with_trace_spill`] writes one JSONL file
//!   per shard and keeps nothing in memory.

use bh_bench::{timed, ExptResult};
use bh_core::{ClaimSet, Report};
use bh_flash::Geometry;
use bh_fleet::{
    default_jobs, plan_fleet, FleetConfig, FleetReport, FleetSession, Placement, ShardPlan,
    StackKind,
};
use bh_metrics::Table;

const SEED: u64 = 0xE22;

/// A mixed conv/ZNS fleet on the quick geometry; per-device cost is
/// kept small so shard *count* is the scale axis.
fn fleet(shards: usize, theta: f64, ops: u64) -> FleetConfig {
    let geo = Geometry::small_test();
    let mut cfg = FleetConfig::mixed(shards, geo, shards as u32 * 3, SEED)
        .with_theta(theta)
        .with_ops_per_shard(ops);
    // Proportion the ZNS stacks to the geometry (the E15 shaping): a few
    // dozen zones, reserve ~= the conventional stack's overprovisioning,
    // streams per tenant group. The `mixed` defaults starve the emulator
    // on the quick geometry and drown the comparison in reclaim WA.
    let blocks = geo.total_blocks();
    let bpz = (blocks / 32).max(1);
    let zones = blocks / bpz;
    for spec in &mut cfg.devices {
        if let StackKind::ZnsEmu {
            blocks_per_zone,
            reserve_zones,
            hinted_streams,
            ..
        } = &mut spec.stack
        {
            *blocks_per_zone = bpz;
            *reserve_zones = (zones / 6).max(4);
            *hinted_streams = 2;
        }
    }
    cfg.sample_every = (ops / 8).max(1);
    cfg
}

/// Max/min per-shard traffic weight over a planned placement.
fn weight_spread<'a>(shards: impl Iterator<Item = &'a [bh_workloads::TenantSpec]>) -> (f64, f64) {
    let (mut max, mut min) = (f64::MIN, f64::MAX);
    for tenants in shards {
        let w: f64 = tenants.iter().map(|t| t.weight).sum();
        max = max.max(w);
        min = min.min(w);
    }
    (max, min)
}

pub fn run() -> ExptResult {
    let mut report = Report::new(
        "E22 / streaming fleet engine at scale",
        "incremental shard scheduler + constant-memory merge; WA and tails vs shard count and Zipf skew",
    );
    let mut claims = ClaimSet::new();

    // ---- Oracle phase --------------------------------------------------
    // The batch path (serial plan-and-run, then one from_shards merge) is
    // the ground truth the streaming session must reproduce byte for
    // byte, even with parallel workers and a window too small to hold
    // the fleet.
    let oracle_cfg = fleet(64, 0.9, bh_bench::scaled(2000, 500));
    let batch: Vec<_> = plan_fleet(&oracle_cfg)
        .into_iter()
        .map(|p: ShardPlan| p.run())
        .collect::<Result<_, _>>()?;
    let batch_json = FleetReport::from_shards(&batch).to_json();
    let stream_json = FleetSession::new(&oracle_cfg)
        .with_jobs(default_jobs().max(2))
        .with_window(4)
        .run()?
        .report
        .to_json();
    bh_bench::archive_named("expt_fleet_scale.fleet.json", &batch_json);
    claims.check_bool(
        "E22.streaming-oracle",
        "streaming session (parallel, window=4) is byte-identical to the serial batch merge",
        stream_json == batch_json,
    );

    // ---- Scale sweep ---------------------------------------------------
    let sizes: &[usize] = if bh_bench::quick_mode() {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let ops = bh_bench::scaled(1200, 400);
    let mut scale_table = Table::new([
        "shards",
        "stack",
        "ops/s",
        "mean WA",
        "read p99.9",
        "write p99.9",
    ]);
    let mut mem_table = Table::new(["shards", "wall clock", "peak RSS"]);
    let mut largest: Option<FleetReport> = None;
    for &n in sizes {
        let cfg = fleet(n, 0.9, ops);
        let (rep, wall) = timed(&cfg, default_jobs())?;
        for s in &rep.stacks {
            scale_table.row([
                n.to_string(),
                s.label.to_string(),
                format!("{:.0}", s.total_ops_per_sec),
                format!("{:.2}", s.mean_wa),
                s.reads.summary().p999.to_string(),
                s.writes.summary().p999.to_string(),
            ]);
        }
        mem_table.row([
            n.to_string(),
            format!("{wall:.3}s"),
            bh_bench::peak_rss_kb()
                .map(|kb| format!("{kb} KB"))
                .unwrap_or_else(|| "n/a".to_string()),
        ]);
        largest = Some(rep);
    }
    report.table(
        "scale sweep (theta 0.9, per stack, merged over shards)",
        scale_table,
    );
    report.table(
        "scale sweep memory (process high-water after each run)",
        mem_table,
    );
    let largest = largest.expect("at least one fleet size");

    // ---- Checkpoint phase ----------------------------------------------
    // 256 shards: run half, checkpoint, resume on a single worker; must
    // match the one-shot parallel run — the determinism constraint holds
    // through serialization points, not just thread counts.
    let det_cfg = fleet(256, 0.9, bh_bench::scaled(800, 300));
    let (one_shot, _) = timed(&det_cfg, default_jobs().max(4))?;
    let mut half = FleetSession::new(&det_cfg).with_jobs(2);
    half.run_to(128)?;
    let resumed = FleetSession::resume(&det_cfg, half.into_checkpoint())
        .with_jobs(1)
        .run()?;
    claims.check_bool(
        "E22.checkpoint-determinism",
        "checkpoint/resume across worker counts reproduces the one-shot report byte for byte (256 shards)",
        resumed.report.to_json() == one_shot.to_json(),
    );

    // ---- Theta sweep ---------------------------------------------------
    let mut theta_table = Table::new(["theta", "stack", "mean WA", "read p99.9", "write p99.9"]);
    for &theta in &[0.6, 0.9, 1.2] {
        let (rep, _) = timed(&fleet(64, theta, ops), default_jobs())?;
        for s in &rep.stacks {
            theta_table.row([
                format!("{theta:.1}"),
                s.label.to_string(),
                format!("{:.2}", s.mean_wa),
                s.reads.summary().p999.to_string(),
                s.writes.summary().p999.to_string(),
            ]);
        }
    }
    report.table("tenant-skew sweep (64 shards, per stack)", theta_table);

    // ---- Migration phase -----------------------------------------------
    // Hash placement scatters a heavy-tailed (theta 1.2) population
    // unevenly; re-placing LoadAware mid-run should tighten the
    // per-shard weight spread, and the run must stay deterministic.
    let mig_ops = bh_bench::scaled(1600, 600);
    let mut mig_cfg = fleet(16, 1.2, mig_ops).with_migration(mig_ops / 2, Placement::LoadAware);
    mig_cfg.tenants = 64;
    let plans = plan_fleet(&mig_cfg);
    let (before_max, before_min) = weight_spread(plans.iter().map(|p| p.tenants.as_slice()));
    let (after_max, after_min) = weight_spread(plans.iter().map(|p| {
        p.migrate
            .as_ref()
            .expect("planned migration")
            .tenants
            .as_slice()
    }));
    let spread_before = before_max / before_min.max(f64::MIN_POSITIVE);
    let spread_after = after_max / after_min.max(f64::MIN_POSITIVE);
    let mut mig_table = Table::new([
        "placement",
        "max shard weight",
        "min shard weight",
        "spread",
    ]);
    mig_table.row([
        "hash (before)".to_string(),
        format!("{before_max:.3}"),
        format!("{before_min:.3}"),
        format!("{spread_before:.2}x"),
    ]);
    mig_table.row([
        "load-aware (after)".to_string(),
        format!("{after_max:.3}"),
        format!("{after_min:.3}"),
        format!("{spread_after:.2}x"),
    ]);
    report.table(
        "mid-run migration (16 shards, 64 tenants, theta 1.2, hash -> load-aware at ops/2)",
        mig_table,
    );
    claims.check(
        "E22.migration-rebalance",
        "load-aware re-placement tightens the per-shard traffic-weight spread vs hash",
        spread_before / spread_after,
        (1.2, 1e6),
    );
    let (m1, _) = timed(&mig_cfg, 1)?;
    let (m4, _) = timed(&mig_cfg, 4)?;
    claims.check_bool(
        "E22.migration-determinism",
        "the migrated run is byte-identical across worker counts",
        m1.to_json() == m4.to_json(),
    );

    // ---- Trace-spill phase ---------------------------------------------
    let spill_dir = std::env::temp_dir().join(format!("e22_spill_{}", std::process::id()));
    let spill_cfg = fleet(8, 0.9, 400).with_tracing(512);
    let run = FleetSession::new(&spill_cfg)
        .with_trace_spill(&spill_dir)
        .run()?;
    let all_on_disk = run.spilled.len() == 8
        && run.traces.is_empty()
        && run
            .spilled
            .iter()
            .all(|(_, p)| p.metadata().map(|m| m.len() > 0).unwrap_or(false));
    let _ = std::fs::remove_dir_all(&spill_dir);
    claims.check_bool(
        "E22.trace-spill",
        "a traced session spills one non-empty JSONL per shard and keeps no events in memory",
        all_on_disk,
    );

    // ---- Fleet-WA claim at the largest scale ---------------------------
    let conv = largest.stack("conventional").ok_or("no conventional shard")?;
    let zns = largest.stack("zns+blockemu").ok_or("no zns shard")?;
    claims.check(
        "E22.fleet-wa",
        "hinted per-tenant placement keeps fleet WA at or below the conventional FTL's at the largest scale",
        conv.mean_wa / zns.mean_wa,
        (1.05, 100.0),
    );

    report.claims(claims);
    Ok(report)
}
