//! Property test for the streaming fleet engine: the incremental
//! session must be byte-identical to the serial batch merge — the old
//! `plan_fleet` + `FleetReport::from_shards` path — no matter how the
//! scheduler is shaped. Each case draws a random fleet (shard count,
//! tenant skew, ops, placement, fault template, optional mid-run
//! migration) and a random scheduler shape (worker count, admission
//! window, checkpoint cut), all from one master seed, so every failure
//! replays exactly. The seed is fixed unless `BH_PROP_SEED` sets it, so
//! CI can probe fresh fleets (the workflow prints the value, so a red
//! run replays exactly).

use bh_faults::FaultConfig;
use bh_flash::Geometry;
use bh_fleet::{plan_fleet, FleetConfig, FleetReport, FleetSession, Placement};
use bh_workloads::split_seed;

const CASES: u64 = 16;

/// The master seed: `BH_PROP_SEED` when set, `0x57E4` otherwise.
fn master() -> u64 {
    std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x57E4)
}

/// Uniform draw in `0..bound` from the case's private stream.
fn draw(case: u64, salt: u64, bound: u64) -> u64 {
    split_seed(master(), case * 1000 + salt) % bound
}

/// A random but fully seed-determined fleet config.
fn random_cfg(case: u64) -> FleetConfig {
    let shards = 2 + draw(case, 1, 10) as usize;
    let tenants = shards as u32 * (2 + draw(case, 2, 3) as u32);
    let ops = 200 + draw(case, 3, 600);
    let mut cfg = FleetConfig::mixed(shards, Geometry::small_test(), tenants, master() ^ case)
        .with_theta([0.6, 0.9, 1.2][draw(case, 4, 3) as usize])
        .with_ops_per_shard(ops)
        .with_placement(
            [Placement::Hash, Placement::RoundRobin, Placement::LoadAware]
                [draw(case, 5, 3) as usize],
        );
    cfg.sample_every = 50 + draw(case, 6, 200);
    if draw(case, 7, 2) == 0 {
        // Mild template: retries and redrives fire, runs still complete.
        cfg.faults = Some(
            FaultConfig::new(0) // template seed is ignored; shards derive their own
                .with_read_retry_ppm(20_000)
                .with_program_fail_ppm(5_000),
        );
    }
    if draw(case, 8, 2) == 0 {
        cfg = cfg.with_migration(draw(case, 9, ops + 1), Placement::LoadAware);
    }
    cfg
}

/// The batch oracle: serial plan-and-run, one monolithic merge.
fn batch_json(cfg: &FleetConfig) -> String {
    let results: Vec<_> = plan_fleet(cfg)
        .iter()
        .map(|p| p.run().expect("oracle shard run"))
        .collect();
    FleetReport::from_shards(&results).to_json()
}

#[test]
fn streaming_session_matches_the_batch_oracle_on_random_fleets() {
    for case in 0..CASES {
        let cfg = random_cfg(case);
        let jobs = 1 + draw(case, 10, 4) as usize;
        let window = 1 + draw(case, 11, 8) as u32;
        let oracle = batch_json(&cfg);
        let streamed = FleetSession::new(&cfg)
            .with_jobs(jobs)
            .with_window(window)
            .run()
            .expect("streaming run")
            .report
            .to_json();
        assert_eq!(
            streamed,
            oracle,
            "case {case}: streaming (jobs={jobs}, window={window}) diverged from batch \
             on {} shards",
            cfg.shards()
        );
    }
}

#[test]
fn checkpoint_resume_matches_one_shot_at_any_cut() {
    for case in 0..CASES {
        let cfg = random_cfg(case + 500);
        let shards = cfg.shards() as u32;
        let cut = draw(case, 20, shards as u64 + 1) as u32;
        let jobs_a = 1 + draw(case, 21, 4) as usize;
        let jobs_b = 1 + draw(case, 22, 4) as usize;
        let oracle = batch_json(&cfg);

        let mut first = FleetSession::new(&cfg).with_jobs(jobs_a);
        first.run_to(cut).expect("first half");
        assert_eq!(first.shards_done(), cut);
        let resumed = FleetSession::resume(&cfg, first.into_checkpoint())
            .with_jobs(jobs_b)
            .run()
            .expect("resumed run")
            .report
            .to_json();
        assert_eq!(
            resumed, oracle,
            "case {case}: checkpoint at {cut}/{shards} (jobs {jobs_a}->{jobs_b}) \
             diverged from the one-shot report"
        );
    }
}
