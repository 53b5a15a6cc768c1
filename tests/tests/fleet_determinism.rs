//! The fleet engine's headline guarantee, checked end to end: a fleet
//! run's archived report is a pure function of its config — the worker
//! thread count, which only changes how shards interleave on the OS,
//! must never leak into a single byte of the output.

use bh_core::Pacing;
use bh_faults::FaultConfig;
use bh_flash::Geometry;
use bh_fleet::{FleetConfig, FleetRun, FleetSession, Placement, ShardFailure, StackKind};
use bh_host::ReclaimPolicy;
use bh_metrics::Nanos;

fn cfg(devices: usize, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::mixed(devices, Geometry::small_test(), devices as u32 * 3, seed);
    cfg.ops_per_shard = 800;
    cfg.sample_every = 200;
    cfg
}

fn run(cfg: &FleetConfig, jobs: usize) -> FleetRun {
    FleetSession::new(cfg).with_jobs(jobs).run().unwrap()
}

#[test]
fn fleet_report_identical_for_1_and_8_jobs() {
    let cfg = cfg(6, 0xD57);
    let sequential = run(&cfg, 1).report.to_json();
    let parallel = run(&cfg, 8).report.to_json();
    assert_eq!(
        sequential, parallel,
        "thread count leaked into the fleet report"
    );
}

#[test]
fn fleet_traces_identical_for_1_and_4_jobs() {
    let mut cfg = cfg(4, 0xD58);
    cfg.trace = true;
    let a = run(&cfg, 1);
    let b = run(&cfg, 4);
    assert_eq!(
        bh_trace::to_chrome_trace_sharded(&a.traces),
        bh_trace::to_chrome_trace_sharded(&b.traces),
        "thread count leaked into the exported trace"
    );
}

#[test]
fn fleet_report_depends_on_seed() {
    let a = run(&cfg(4, 1), 2).report.to_json();
    let b = run(&cfg(4, 2), 2).report.to_json();
    assert_ne!(a, b, "different seeds must drive different fleets");
}

#[test]
fn fleet_report_independent_of_placement_iteration_order() {
    // Same fleet, three placement policies: all must cover every tenant
    // (shard tenant counts sum to the population) and stay deterministic.
    for placement in [Placement::Hash, Placement::RoundRobin, Placement::LoadAware] {
        let mut c = cfg(4, 0xD59);
        c.placement = placement;
        let r1 = run(&c, 1).report;
        let r3 = run(&c, 3).report;
        assert_eq!(r1.to_json(), r3.to_json());
        let total: u32 = r1.shards.iter().map(|s| s.tenants).sum();
        assert_eq!(total, c.tenants, "placement {placement:?} lost tenants");
    }
}

#[test]
fn bursty_pacing_and_idle_reclaim_stay_deterministic() {
    // The expt_fleet configuration in miniature: bursty arrivals,
    // idle-window reclaim on the ZNS shards.
    let mut c = cfg(4, 0xD5A);
    c.pacing = Pacing::Bursty {
        burst_ops: 16,
        interarrival: Nanos::from_millis(5),
        idle: Nanos::from_millis(20),
    };
    for spec in &mut c.devices {
        if let StackKind::ZnsEmu { reclaim, .. } = &mut spec.stack {
            *reclaim = ReclaimPolicy::IdleOnly {
                min_idle: Nanos::from_millis(8),
            };
        }
    }
    let a = run(&c, 1).report.to_json();
    let b = run(&c, 4).report.to_json();
    assert_eq!(a, b);
}

#[test]
fn quiet_fault_template_matches_fleet_without_fault_layer() {
    // Differential: a template with every rate at zero must produce the
    // same bytes as not wiring the fault layer in at all. Guards against
    // the fault path perturbing timing or RNG state while silent.
    let without = run(&cfg(4, 0xD5B), 2).report.to_json();
    let mut c = cfg(4, 0xD5B);
    c.faults = Some(FaultConfig::new(0));
    let quiet = run(&c, 2).report.to_json();
    assert_eq!(
        quiet, without,
        "a quiet fault plan changed the fleet report"
    );
}

#[test]
fn faulty_fleet_report_identical_for_1_and_8_jobs() {
    // The determinism headline must survive the fault layer: per-shard
    // fault seeds are derived from the fleet seed, never from scheduling.
    let mut c = cfg(6, 0xD5C);
    c.faults = Some(
        FaultConfig::new(0)
            .with_program_fail_ppm(3_000)
            .with_read_retry_ppm(25_000),
    );
    let sequential = run(&c, 1).report.to_json();
    let parallel = run(&c, 8).report.to_json();
    assert_eq!(
        sequential, parallel,
        "thread count leaked into the faulty fleet report"
    );
    // And the faults must actually be felt: same config minus the
    // template diverges.
    let clean = run(&cfg(6, 0xD5C), 2).report.to_json();
    assert_ne!(sequential, clean, "fault template had no effect");
}

#[test]
fn a_geometry_the_stacks_do_not_fit_is_an_error_not_a_worker_panic() {
    // Four blocks per plane cannot hold the conventional FTL's reserve.
    // The geometry is input: the session must refuse it when it plans —
    // on the caller's thread, with no device built — whether it is run
    // whole, stepped, or with an out-of-range fault template instead.
    let tight = FleetConfig::mixed(2, Geometry::experiment(4), 8, 7).with_ops_per_shard(500);
    for jobs in [1, 4] {
        let e = FleetSession::new(&tight).with_jobs(jobs).run().unwrap_err();
        assert_eq!(
            e.shard, 0,
            "the conventional shard is the one that does not fit"
        );
        assert_eq!(
            e.to_string(),
            "shard 0: invalid device spec: reserve exceeds blocks per plane"
        );
        assert!(matches!(e.source, ShardFailure::InvalidPlan(_)));
    }
    let mut stepped = FleetSession::new(&tight).with_jobs(1);
    let first = stepped.run_to(1).unwrap_err();
    assert_eq!(stepped.run_to(2).unwrap_err(), first);
    assert_eq!(stepped.shards_done(), 0, "nothing ran");

    let mut noisy = cfg(3, 0xD5D);
    noisy.faults = Some(FaultConfig::new(0).with_program_fail_ppm(2_000_000));
    let e = FleetSession::new(&noisy).with_jobs(2).run().unwrap_err();
    assert_eq!(e.shard, 0);
    assert!(e.to_string().contains("invalid fault template"), "{e}");
}
