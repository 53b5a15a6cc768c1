//! Fleet planning: derive shard plans from a config. The streaming
//! [`crate::FleetSession`] runs them and merges in shard order.

use bh_obs::ObsSnapshot;
use bh_trace::TracedEvent;
use bh_workloads::{split_seed, TenantPopulation};

use crate::config::FleetConfig;
use crate::placement::place;
use crate::report::FleetReport;
use crate::shard::{ShardMigration, ShardPlan};

/// Salt mixed into the fleet seed to derive shard seeds, so a shard's
/// workload stream and a tenant's address stream never collide.
const SHARD_SALT: u64 = 0x5AAD;

/// Salt mixed into the fleet seed to derive per-shard *fault* seeds —
/// a separate domain from `SHARD_SALT` so a shard's fault schedule and
/// its workload stream are independent.
const FAULT_SALT: u64 = 0xFA17;

/// Mixes a salt domain with a shard index into one `split_seed` salt.
///
/// The original scheme was plain `domain + k`, which put both domains
/// in one additive namespace: `SHARD_SALT + k1 == FAULT_SALT + k2`
/// whenever `k1 - k2 == FAULT_SALT - SHARD_SALT` (= 40810), so at large
/// shard counts one shard's workload stream would equal another shard's
/// fault stream. Shards 0–63 keep the legacy additive salts so every
/// existing report is preserved bit-for-bit (a regression test pins
/// them); from shard 64 up the domain moves to the high 32 bits, where
/// the two domains — and the legacy range, which sits below 2³² — can
/// never meet.
fn domain_salt(domain: u64, k: u64) -> u64 {
    if k < 64 {
        domain + k
    } else {
        (domain << 32) | k
    }
}

/// A completed fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// The merged report.
    pub report: FleetReport,
    /// Per-shard trace event streams (shard id, events), empty when
    /// tracing was off or spilled to disk — feed to
    /// [`bh_trace::export::to_chrome_trace_sharded`].
    pub traces: Vec<(u32, Vec<TracedEvent>)>,
    /// Trace events dropped across all shards' rings.
    pub trace_dropped: u64,
    /// Fleet-wide counter snapshot: shard projections merged in
    /// shard-id order.
    pub obs: ObsSnapshot,
    /// Per-shard JSONL trace files written by a session configured with
    /// [`crate::FleetSession::with_trace_spill`], in shard-id order
    /// (empty otherwise).
    pub spilled: Vec<(u32, std::path::PathBuf)>,
}

/// Derives the per-shard plans from a fleet config. Exposed so callers
/// can inspect or tweak plans before running.
pub fn plan_fleet(cfg: &FleetConfig) -> Vec<ShardPlan> {
    let pop = TenantPopulation::zipf(cfg.tenants, cfg.theta, cfg.seed);
    let placed = place(cfg.placement, &pop, cfg.shards());
    // A planned migration re-places the same population under the
    // migration policy; each shard's plan carries its post-migration
    // tenant set so the switch happens on the worker, mid-run.
    let placed_after: Vec<Vec<bh_workloads::TenantSpec>> = match &cfg.migration {
        Some(m) => place(m.policy, &pop, cfg.shards()),
        None => Vec::new(),
    };
    cfg.devices
        .iter()
        .zip(placed)
        .enumerate()
        .map(|(k, (spec, tenants))| ShardPlan {
            shard: k as u32,
            spec: *spec,
            tenants,
            mix: cfg.mix,
            ops: cfg.ops_per_shard,
            pacing: cfg.pacing,
            queue_depth: cfg.queue_depth,
            maintenance_every: cfg.maintenance_every,
            seed: split_seed(cfg.seed, domain_salt(SHARD_SALT, k as u64)),
            faults: cfg.faults.map(|f| bh_faults::FaultConfig {
                seed: split_seed(cfg.seed, domain_salt(FAULT_SALT, k as u64)),
                ..f
            }),
            sample_every: cfg.sample_every,
            trace: cfg.trace,
            trace_cap: cfg.trace_cap,
            migrate: cfg.migration.as_ref().map(|m| ShardMigration {
                at_op: m.at_op,
                tenants: placed_after[k].clone(),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FleetSession;
    use bh_flash::Geometry;

    fn run(cfg: &FleetConfig, jobs: usize) -> FleetRun {
        FleetSession::new(cfg).with_jobs(jobs).run().unwrap()
    }

    fn quick_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::mixed(4, Geometry::small_test(), 12, 0xF1EE);
        cfg.ops_per_shard = 400;
        cfg.sample_every = 100;
        cfg
    }

    #[test]
    fn fleet_report_is_identical_across_thread_counts() {
        let cfg = quick_cfg();
        let a = run(&cfg, 1).report.to_json();
        let b = run(&cfg, 4).report.to_json();
        assert_eq!(a, b, "jobs=1 and jobs=4 reports differ");
    }

    #[test]
    fn mixed_fleet_produces_both_stack_aggregates() {
        let run = run(&quick_cfg(), 2);
        assert_eq!(run.report.shards.len(), 4);
        assert!(run.report.stack("conventional").is_some());
        assert!(run.report.stack("zns+blockemu").is_some());
        assert!(run.report.total_ops_per_sec() > 0.0);
        assert!(run.traces.is_empty(), "tracing off by default");
    }

    #[test]
    fn traced_fleet_collects_per_shard_streams() {
        let mut cfg = quick_cfg();
        cfg.trace = true;
        cfg.trace_cap = 1 << 14;
        let run = run(&cfg, 2);
        assert_eq!(run.traces.len(), 4);
        assert!(run.traces.iter().all(|(_, ev)| !ev.is_empty()));
        // Shard ids ascend, matching the pid blocks in the export.
        let ids: Vec<u32> = run.traces.iter().map(|&(s, _)| s).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn faulty_fleet_derives_distinct_fault_seeds_and_stays_deterministic() {
        let mut cfg = quick_cfg();
        cfg.faults = Some(
            bh_faults::FaultConfig::new(0)
                .with_program_fail_ppm(2_000)
                .with_read_retry_ppm(20_000),
        );
        let plans = plan_fleet(&cfg);
        let mut seeds: Vec<u64> = plans
            .iter()
            .map(|p| p.faults.expect("template installed").seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "each shard needs its own fault stream");
        // Fault seeds live in a different salt domain than workload seeds.
        for p in &plans {
            assert_ne!(p.seed, p.faults.unwrap().seed);
        }
        let a = run(&cfg, 1).report.to_json();
        let b = run(&cfg, 4).report.to_json();
        assert_eq!(a, b, "faults must not break thread-count determinism");
    }

    #[test]
    fn obs_snapshots_merge_across_shards_without_touching_the_report() {
        use bh_obs::{Ctr, ObsSnapshot};
        let cfg = quick_cfg();
        let fleet = run(&cfg, 2);
        let shards: Vec<ObsSnapshot> = plan_fleet(&cfg)
            .iter()
            .map(|p| p.run().unwrap().obs)
            .collect();
        assert_eq!(fleet.obs, ObsSnapshot::merged(shards.iter()));
        assert!(fleet.obs.counter(Ctr::FlashHostPrograms) > 0);
        assert_eq!(
            fleet.obs.counter(Ctr::QueueArrivals),
            fleet.obs.counter(Ctr::QueueRetirements),
            "every submitted op retires"
        );
        assert_eq!(
            fleet.obs.counter(Ctr::QueueArrivals),
            cfg.ops_per_shard * cfg.devices.len() as u64,
            "the serial loop counts each op once"
        );
        assert_eq!(
            fleet.report.to_json(),
            run(&cfg, 4).report.to_json(),
            "the report does not depend on the merge"
        );
    }

    #[test]
    fn shard_seeds_differ_between_shards() {
        let plans = plan_fleet(&quick_cfg());
        let mut seeds: Vec<u64> = plans.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn first_64_shard_seeds_are_pinned_to_the_legacy_salts() {
        // The domain fix must not move any existing report: shards 0–63
        // keep the exact additive salts the engine has always used.
        let mut cfg = FleetConfig::mixed(64, Geometry::small_test(), 128, 0xD00D);
        cfg.faults = Some(bh_faults::FaultConfig::new(0).with_read_retry_ppm(1_000));
        for (k, p) in plan_fleet(&cfg).iter().enumerate() {
            assert_eq!(p.seed, split_seed(cfg.seed, 0x5AAD + k as u64));
            assert_eq!(
                p.faults.expect("template installed").seed,
                split_seed(cfg.seed, 0xFA17 + k as u64),
            );
        }
    }

    #[test]
    fn salt_domains_never_collide() {
        // The additive scheme collided at k1 - k2 = FAULT_SALT -
        // SHARD_SALT = 40810; the domain-in-high-bits scheme must not.
        assert_eq!(SHARD_SALT + (FAULT_SALT - SHARD_SALT), FAULT_SALT);
        assert_ne!(
            domain_salt(SHARD_SALT, FAULT_SALT - SHARD_SALT),
            domain_salt(FAULT_SALT, 0),
        );
        let mut seen = std::collections::HashSet::new();
        for k in 0..100_000u64 {
            assert!(seen.insert(domain_salt(SHARD_SALT, k)), "workload salt {k}");
            assert!(seen.insert(domain_salt(FAULT_SALT, k)), "fault salt {k}");
        }
    }

    #[test]
    fn planned_migration_reaches_every_shard() {
        use crate::config::MigrationSpec;
        use crate::placement::Placement;
        let mut cfg = quick_cfg();
        cfg.migration = Some(MigrationSpec {
            at_op: 200,
            policy: Placement::LoadAware,
        });
        let plans = plan_fleet(&cfg);
        let total: usize = plans
            .iter()
            .map(|p| p.migrate.as_ref().expect("migration planned").tenants.len())
            .sum();
        assert_eq!(total, 12, "re-placement must cover the whole population");
        assert!(plans
            .iter()
            .all(|p| p.migrate.as_ref().unwrap().at_op == 200));
        // And the run stays worker-count deterministic.
        let a = run(&cfg, 1).report.to_json();
        let b = run(&cfg, 4).report.to_json();
        assert_eq!(a, b);
    }
}
