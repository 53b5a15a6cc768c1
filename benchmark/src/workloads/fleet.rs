//! `fleet_mixed_64` — a 64-shard mixed conv/ZNS fleet through
//! `FleetSession` on two worker threads.
//!
//! bh-fleet scheduling and merge, `TenantStream` op generation and many
//! small devices near their reclaim threshold: the ROADMAP's `reclaim`
//! and 40× `op_gen` suspects dominate here and nowhere else. The only
//! multi-threaded workload (2 threads, never more).
//!
//! Every round is one whole session over the same config — device fill
//! included, because `FleetSession::run` does the fill — so every round
//! must produce the same report, byte for byte.

use super::{Checks, Counts, Fp, RoundStats, Session, Snapshot, Spec, StackLayer, ZonedLayer};
use crate::trace::{span, Span};
use bh_flash::Geometry;
use bh_fleet::{plan_fleet, FleetConfig, FleetReport, FleetSession};
use std::path::Path;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "fleet_mixed_64",
    why: "64 small mixed conv/ZNS shards, 256 tenants, 2 worker threads: bh-fleet scheduling + merge, TenantStream op generation and reclaim-bound small devices dominate only here",
    fixed_rounds: 1,
    stack_spans: StackLayer::None,
    zoned_spans: ZonedLayer::None,
    build,
};

pub const SHARDS: usize = 64;
pub const TENANTS: u32 = 256;
/// `Geometry::experiment(8)`: 64 zones of 1024 pages per ZNS shard.
pub const BLOCKS_PER_PLANE: u32 = 8;
const OPS_PER_SHARD: u64 = 12_000;
/// Warm-up session length, as a share of a timed one.
const WARMUP_DIVISOR: u64 = 4;
const QUEUE_DEPTH: usize = 4;
pub const JOBS: usize = 2;

pub fn config(seed: u64, ops_per_shard: u64) -> FleetConfig {
    FleetConfig::mixed(
        SHARDS,
        Geometry::experiment(BLOCKS_PER_PLANE),
        TENANTS,
        seed,
    )
    .with_ops_per_shard(ops_per_shard)
    .with_queue_depth(QUEUE_DEPTH)
}

/// One whole session: plan, fill, run, merge.
pub fn run_session(cfg: &FleetConfig, jobs: usize) -> (FleetReport, Duration) {
    let start = Instant::now();
    let run = {
        let _round = span(Span::Round);
        let _run = span(Span::FleetRun);
        FleetSession::new(cfg).with_jobs(jobs).run()
    };
    let wall = start.elapsed();
    (run.expect("fleet session").report, wall)
}

struct Fleet {
    cfg: FleetConfig,
    first: Option<String>,
    report: Option<FleetReport>,
    checks: Checks,
}

fn build(seed: u64, _traced: bool, _dir: &Path) -> Box<dyn Session> {
    let cfg = config(seed, OPS_PER_SHARD);
    // `FleetSession::run` fills its devices itself, so there is no
    // device state to precondition. What set-up there is: plan the
    // fleet, and run a short session so that the worker threads, the
    // allocator's arenas and the page cache are warm before the clock
    // starts.
    let warm = config(seed, OPS_PER_SHARD / WARMUP_DIVISOR);
    FleetSession::new(&warm)
        .with_jobs(JOBS)
        .run()
        .expect("fleet warm-up session");
    Box::new(Fleet {
        cfg,
        first: None,
        report: None,
        checks: Checks::default(),
    })
}

fn totals(report: &FleetReport) -> (u64, u64) {
    report.shards.iter().fold((0, 0), |(ops, errors), s| {
        (ops + s.reads + s.writes + s.errors, errors + s.errors)
    })
}

impl Session for Fleet {
    fn round(&mut self) -> RoundStats {
        let (report, wall) = run_session(&self.cfg, JOBS);
        let (ops, failed) = totals(&report);
        let want = SHARDS as u64 * OPS_PER_SHARD;
        self.checks.expect(ops == want, || {
            format!("{want} ops planned but the report accounts for {ops}")
        });
        let json = report.to_json();
        match &self.first {
            None => self.first = Some(json),
            Some(first) => self.checks.expect(*first == json, || {
                "a repeated session over the same config produced a different report".into()
            }),
        }
        self.report = Some(report);
        RoundStats { ops, failed, wall }
    }

    fn snapshot(&self) -> Snapshot {
        let report = self.report.as_ref().expect("snapshot after a round");
        let virt = report
            .shards
            .iter()
            .map(|s| s.elapsed_ns)
            .max()
            .unwrap_or(0);
        let mut counts = Counts::new();
        counts.insert("sim.virt_s", virt as f64 / 1e9);
        counts.insert(
            "sim.read_p999_virt_ns",
            report.fleet_reads.quantile(0.999).as_nanos() as f64,
        );
        counts.insert(
            "sim.write_p999_virt_ns",
            report.fleet_writes.quantile(0.999).as_nanos() as f64,
        );
        let json = self.first.as_ref().expect("snapshot after a round");
        Snapshot {
            fingerprint: Fp::new().bytes(json.as_bytes()).finish(),
            counts,
        }
    }

    fn checks(&mut self) -> Checks {
        std::mem::take(&mut self.checks)
    }

    /// The worker-count sweep: the same fleet at one job and at two.
    fn extra_metrics(&mut self, out: &mut Counts) -> Checks {
        let start = Instant::now();
        std::hint::black_box(plan_fleet(&self.cfg));
        out.insert("fleet.plan_ms", start.elapsed().as_secs_f64() * 1e3);
        let (one, t1) = run_session(&self.cfg, 1);
        let (two, t2) = run_session(&self.cfg, JOBS);
        out.insert("fleet.wall_s_1job", t1.as_secs_f64());
        out.insert(
            "fleet.scaling_efficiency_2job",
            t1.as_secs_f64() / t2.as_secs_f64() / JOBS as f64,
        );
        let identical = one.to_json() == two.to_json();
        out.insert(
            "fleet.report_identical_across_jobs",
            f64::from(u8::from(identical)),
        );
        let mut checks = Checks::default();
        checks.expect(identical, || {
            "the fleet report differs between 1 and 2 jobs".into()
        });
        checks
    }
}
