//! The event-driven core's contract: bit-for-bit lockstep with the
//! preserved polling reference.
//!
//! The queued dispatch path runs on a next-event calendar, and that is
//! the only queued loop in `bh_core::Runner`. The original per-op loop
//! lives on here, test-side, as [`run_polling_reference`] over
//! [`bh_tests::PollingEngine`]. These
//! tests run the *identical* workload through the production loop and
//! the reference — every stack, queue depth, pacing mode,
//! maintenance cadence, and seed in the quick-experiment envelope — and
//! require byte-identical everything: histogram buckets, virtual-time
//! stamps, error counts, WA bit patterns, flash counters, sampler
//! `Series` points, live-counter snapshots, and the full trace event
//! stream (span ids included).
//!
//! The `#[ignore]`d sweep at the bottom is the nightly exhaustive leg:
//! hundreds of randomized configurations, seeded from
//! `BH_PROP_SEED` so a red nightly is reproducible locally.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{
    exec_request, IoError, IoKind, IoRequest, Pacing, RunConfig, RunResult, Runner, Sampler,
    StackAdmin,
};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{Histogram, Nanos};
use bh_tests::PollingEngine;
use bh_trace::Tracer;
use bh_workloads::{Op, OpMix, OpSource, OpStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn conv() -> Box<dyn StackAdmin> {
    Box::new(
        ConvSsd::new(ConvConfig::new(
            FlashConfig::tlc(Geometry::small_test()),
            0.15,
        ))
        .unwrap(),
    )
}

fn emu() -> Box<dyn StackAdmin> {
    let cfg =
        bh_zns::ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    Box::new(BlockEmu::new(
        bh_zns::ZnsDevice::new(cfg).unwrap(),
        2,
        ReclaimPolicy::Immediate,
    ))
}

/// One run configuration in the differential matrix.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    conv_stack: bool,
    seed: u64,
    ops: u64,
    qd: usize,
    pacing: Pacing,
    maintenance_every: u64,
    sample_every: u64,
}

/// Everything observable about a run, rendered to a string so a
/// mismatch prints both sides: the result fingerprint, the flash
/// counters, every sampler sample, the obs snapshot, and the complete
/// trace stream.
fn full_fingerprint(
    dev: &dyn StackAdmin,
    res: &RunResult,
    sampler: &Sampler,
    tracer: &Tracer,
) -> String {
    let s = dev.flash_stats();
    let mut obs = dev.obs_snapshot();
    res.obs_into(&mut obs);
    let mut out = format!(
        "reads={:?} writes={:?} elapsed={} errors={} wa={:016x} peak={}\n\
         host_p={} int_p={} copies={} host_r={} int_r={} erases={} busy={}\n\
         obs={:?}\n",
        res.reads.buckets().collect::<Vec<_>>(),
        res.writes.buckets().collect::<Vec<_>>(),
        res.elapsed.as_nanos(),
        res.errors,
        res.device_wa.to_bits(),
        res.peak_in_flight,
        s.host_programs,
        s.internal_programs,
        s.copies,
        s.host_reads,
        s.internal_reads,
        s.erases,
        s.busy.as_nanos(),
        obs,
    );
    for smp in sampler.samples() {
        out.push_str(&format!(
            "sample at={} ops={} iwa={:016x} cwa={:016x} qd={} if={}\n",
            smp.at.as_nanos(),
            smp.ops_done,
            smp.interval_wa.to_bits(),
            smp.cumulative_wa.to_bits(),
            smp.queue_depth,
            smp.in_flight,
        ));
    }
    out.push_str(&format!(
        "trace dropped={} events={:?}\n",
        tracer.dropped(),
        tracer.events(),
    ));
    out
}

/// The queued run loop `bh_core::Runner` shipped before the event core
/// replaced it: every operation is buffered, pumped and reaped per
/// iteration over the [`PollingEngine`]. Relocated from the library,
/// where it was a selectable production path, to its only remaining
/// consumer; rebuilt from public pieces, with device failures as panics
/// (no scenario here produces one).
fn run_polling_reference(
    cfg: RunConfig,
    dev: &mut dyn StackAdmin,
    stream: &mut dyn OpSource,
    start: Nanos,
    sampler: &mut Sampler,
) -> RunResult {
    sampler.prime(dev);
    let mut engine: PollingEngine<IoError> = PollingEngine::new(cfg.queue_depth);
    let (mut reads, mut writes, mut errors) = (Histogram::new(), Histogram::new(), 0u64);
    let mut reap = |engine: &mut PollingEngine<IoError>| {
        while let Some(c) = engine.reap() {
            match (c.req.kind(), &c.result) {
                (IoKind::Read, Ok(())) => reads.record(c.latency()),
                (IoKind::Read, Err(_)) => errors += 1,
                (IoKind::Write, Ok(())) => writes.record(c.latency()),
                (_, Ok(())) => {}
                (kind, Err(e)) => panic!("reference run: {} failed: {e}", kind.name()),
            }
        }
    };
    let mut arrival = start;
    for i in 0..cfg.ops {
        if cfg.maintenance_every > 0 && i > 0 && i % cfg.maintenance_every == 0 {
            engine.submit(IoRequest::Maintenance, arrival);
        }
        let (op, hint) = stream.next_hinted();
        let req = match op {
            Op::Read(lba) => IoRequest::Read { lba },
            Op::Write(lba) => IoRequest::Write {
                lba,
                hint: Some(hint),
            },
            Op::Trim(lba) => IoRequest::Trim { lba },
        };
        engine.submit(req, arrival);
        engine.pump(|req, t| exec_request(dev, req, t));
        arrival = match cfg.pacing {
            Pacing::Open { interarrival } => arrival + interarrival,
            // The next op arrives when a window slot frees — the
            // closed loop generalized to depth QD.
            Pacing::Closed => start.max(engine.slot_free_at()),
            Pacing::Bursty {
                burst_ops,
                interarrival,
                idle,
            } => {
                if burst_ops > 0 && (i + 1).is_multiple_of(burst_ops) {
                    // Quiesce, then give the host its idle window to
                    // schedule reclaim.
                    engine.flush();
                    let window = engine.last_done().max(arrival + interarrival) + idle;
                    engine.submit(IoRequest::Maintenance, window);
                    engine.pump(|req, t| exec_request(dev, req, t));
                    engine.flush();
                    engine.last_done().max(window)
                } else {
                    arrival + interarrival
                }
            }
        };
        if (i + 1) % sampler.every() == 0 {
            sampler.sample(dev, i + 1, arrival, engine.in_flight_at(arrival));
        }
        reap(&mut engine);
    }
    engine.flush();
    reap(&mut engine);
    RunResult {
        reads,
        writes,
        elapsed: engine.last_done().saturating_sub(start),
        errors,
        device_wa: dev.write_amplification(),
        peak_in_flight: engine.peak_in_flight(),
        queue: engine.obs_snapshot(),
    }
}

/// Which loop drives a scenario.
#[derive(Debug, Clone, Copy)]
enum Loop {
    /// `bh_core::Runner` — the production event loop.
    Event,
    /// [`run_polling_reference`].
    Polling,
}

/// Runs `sc` under the given loop with full instrumentation (sampler,
/// trace) and fingerprints every observable, obs snapshot included.
fn run_core(sc: Scenario, which: Loop) -> String {
    let mut dev = if sc.conv_stack { conv() } else { emu() };
    let tracer = Tracer::ring(1 << 16);
    dev.set_tracer(tracer.clone());
    let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
    let mut stream = OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), sc.seed);
    let cfg = RunConfig::new(sc.ops)
        .with_pacing(sc.pacing)
        .with_maintenance_every(sc.maintenance_every)
        .with_queue_depth(sc.qd);
    let mut sampler = Sampler::new(tracer.clone(), sc.sample_every);
    let res = match which {
        Loop::Event => Runner::new(cfg)
            .run_traced(dev.as_mut(), &mut stream, t, &mut sampler)
            .unwrap(),
        Loop::Polling => run_polling_reference(cfg, dev.as_mut(), &mut stream, t, &mut sampler),
    };
    full_fingerprint(dev.as_ref(), &res, &sampler, &tracer)
}

fn assert_lockstep(sc: Scenario) {
    let event = run_core(sc, Loop::Event);
    let polling = run_core(sc, Loop::Polling);
    assert_eq!(
        event, polling,
        "event loop diverged from the polling reference: {sc:?}"
    );
}

const PACINGS: [Pacing; 3] = [
    Pacing::Closed,
    Pacing::Open {
        interarrival: Nanos::from_nanos(900),
    },
    Pacing::Bursty {
        burst_ops: 64,
        interarrival: Nanos::from_nanos(400),
        idle: Nanos::from_micros(30),
    },
];

/// The quick-experiment envelope: both stacks × the E17 depth sweep ×
/// every pacing mode × maintenance on/off, at two seeds. Runs both
/// cores through each and requires bit-identical observables.
#[test]
fn event_core_matches_polling_reference_across_quick_matrix() {
    for conv_stack in [true, false] {
        for qd in [2usize, 4, 16] {
            for pacing in PACINGS {
                for maintenance_every in [0u64, 64] {
                    for seed in [0xE8u64, 0x0B5] {
                        assert_lockstep(Scenario {
                            conv_stack,
                            seed,
                            ops: 1200,
                            qd,
                            pacing,
                            maintenance_every,
                            sample_every: 250,
                        });
                    }
                }
            }
        }
    }
}

/// The latent sampler/idle-skip interaction the issue calls out: when
/// the clock skips a Bursty idle window, the interval-WA and
/// queue-depth `Series` points the polling loop produced must still be
/// emitted, at the same instants. Pins the E15/E17-shaped sample count
/// (`ops / sample_every`) on both cores so a time-skip that swallows a
/// sampler tick fails loudly, not silently.
#[test]
fn bursty_time_skip_preserves_sampler_series() {
    for conv_stack in [true, false] {
        for qd in [4usize, 16] {
            let sc = Scenario {
                conv_stack,
                seed: 0xE15,
                ops: 1000,
                qd,
                // Sampler period coprime-ish with the burst length so
                // ticks land both inside bursts and at idle boundaries.
                pacing: Pacing::Bursty {
                    burst_ops: 150,
                    interarrival: Nanos::from_nanos(500),
                    idle: Nanos::from_micros(100),
                },
                maintenance_every: 64,
                sample_every: 250,
            };
            let event = run_core(sc, Loop::Event);
            let polling = run_core(sc, Loop::Polling);
            assert_eq!(event, polling, "sampler series diverged: {sc:?}");
            let expected = sc.ops / sc.sample_every;
            let got = event.matches("sample at=").count() as u64;
            assert_eq!(
                got, expected,
                "time-skip swallowed sampler ticks: {sc:?} expected {expected} samples"
            );
        }
    }
}

/// QD sweep throughput sanity on the event core: deeper closed-loop
/// windows must never take longer in virtual time than shallower ones
/// (the paper's §2.4 scaling argument, which E17 plots).
#[test]
fn event_core_closed_loop_virtual_time_shrinks_with_depth() {
    for conv_stack in [true, false] {
        let elapsed: Vec<u64> = [1usize, 4, 16]
            .iter()
            .map(|&qd| {
                let mut dev = if conv_stack { conv() } else { emu() };
                let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
                let mut stream =
                    OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), 0xE17);
                let runner = Runner::new(RunConfig::new(1500).with_queue_depth(qd));
                let res = runner.run(dev.as_mut(), &mut stream, t).unwrap();
                res.elapsed.as_nanos()
            })
            .collect();
        assert!(
            elapsed[1] <= elapsed[0] && elapsed[2] <= elapsed[1],
            "virtual elapsed must not grow with depth: {elapsed:?}"
        );
    }
}

/// Nightly exhaustive leg: randomized scenarios across the whole
/// configuration space. Runs under `--include-ignored`; seed the sweep
/// with `BH_PROP_SEED` to reproduce a failure.
#[test]
#[ignore = "nightly: exhaustive randomized lockstep sweep"]
fn nightly_randomized_lockstep_sweep() {
    let sweep_seed = std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0xB10C_4EAD);
    let mut rng = SmallRng::seed_from_u64(sweep_seed);
    for round in 0..60 {
        let pacing = match rng.gen_range(0..3u8) {
            0 => Pacing::Closed,
            1 => Pacing::Open {
                interarrival: Nanos::from_nanos(rng.gen_range(50..3_000)),
            },
            _ => Pacing::Bursty {
                burst_ops: rng.gen_range(8..200),
                interarrival: Nanos::from_nanos(rng.gen_range(50..2_000)),
                idle: Nanos::from_micros(rng.gen_range(1..200)),
            },
        };
        let sc = Scenario {
            conv_stack: rng.gen_bool(0.5),
            seed: rng.gen(),
            ops: rng.gen_range(200..2_500),
            qd: rng.gen_range(2..48),
            pacing,
            maintenance_every: [0u64, 16, 64, 251][rng.gen_range(0..4usize)],
            sample_every: rng.gen_range(50..500),
        };
        eprintln!("round {round}: {sc:?} (sweep seed {sweep_seed:#x})");
        assert_lockstep(sc);
    }
}
