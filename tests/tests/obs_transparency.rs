//! The observability transparency property: enabling the bh-obs
//! registry must not change a single bit of
//! any run's outcome — not a histogram bucket, not a virtual-time
//! stamp, not a write-amplification figure.
//!
//! Both stacks, both runner paths (serial and queued), several seeds.
//! The fingerprint deliberately covers everything a report can render:
//! latency histogram buckets, virtual elapsed time, error counts, the
//! f64 bit pattern of device WA, and the raw flash counters.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{BlockInterface, Pacing, RunConfig, RunResult, Runner, StackAdmin};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_obs::Obs;
use bh_trace::Tracer;
use bh_workloads::{OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice};

fn conv() -> ConvSsd {
    ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap()
}

fn emu() -> BlockEmu {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    BlockEmu::new(ZnsDevice::new(cfg).unwrap(), 2, ReclaimPolicy::Immediate)
}

/// Everything a report could derive from this run, rendered to a
/// string so a mismatch prints both sides.
fn fingerprint(dev: &dyn BlockInterface, res: &RunResult) -> String {
    let s = dev.flash_stats();
    format!(
        "reads={:?} writes={:?} elapsed={} errors={} wa={:016x} peak={} \
         host_p={} int_p={} copies={} host_r={} int_r={} erases={} busy={}",
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
    )
}

fn run_once(dev: &mut dyn BlockInterface, seed: u64, qd: usize, obs: Obs) -> String {
    let t = Runner::fill(dev, Nanos::ZERO).unwrap();
    let mut stream = OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), seed);
    let runner = Runner::new(
        RunConfig::new(2_000)
            .with_pacing(Pacing::Closed)
            .with_maintenance_every(64)
            .with_queue_depth(qd),
    )
    .with_obs(obs);
    let res = runner.run(dev, &mut stream, t).unwrap();
    fingerprint(dev, &res)
}

/// The same transparency property on the queued loop, widened to the
/// event tracer: a fully instrumented run (obs registry + a live trace
/// ring) must be bit-identical to a bare one at queue depth > 1.
#[test]
fn instrumentation_never_moves_a_bit_on_the_queued_loop() {
    for conv_stack in [true, false] {
        for qd in [4usize, 16] {
            let run = |instrumented: bool| -> String {
                let mut dev: Box<dyn StackAdmin> = if conv_stack {
                    Box::new(conv())
                } else {
                    Box::new(emu())
                };
                let obs = if instrumented {
                    Obs::enabled()
                } else {
                    Obs::disabled()
                };
                if instrumented {
                    dev.set_obs(obs.clone());
                    dev.set_tracer(Tracer::ring(1 << 14));
                }
                let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
                let mut stream =
                    OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), 0xB17);
                let runner = Runner::new(
                    RunConfig::new(1_500)
                        .with_maintenance_every(64)
                        .with_queue_depth(qd),
                )
                .with_obs(obs);
                let res = runner.run(dev.as_mut(), &mut stream, t).unwrap();
                fingerprint(dev.as_ref(), &res)
            };
            let bare = run(false);
            let full = run(true);
            assert_eq!(
                bare,
                full,
                "instrumentation perturbed the run: stack={} qd={qd}",
                if conv_stack { "conv" } else { "zns+emu" }
            );
        }
    }
}

/// Run the identical workload with the registry off and on, on both
/// stacks and both runner paths. Every fingerprint must match
/// bit-for-bit.
#[test]
fn obs_never_moves_a_bit_of_any_run() {
    for seed in [7u64, 0x0B5, 0xDEAD] {
        for qd in [1usize, 8] {
            for conv_stack in [true, false] {
                let mut plain: Box<dyn BlockInterface> = if conv_stack {
                    Box::new(conv())
                } else {
                    Box::new(emu())
                };
                let off = run_once(plain.as_mut(), seed, qd, Obs::disabled());

                // Install through the concrete types (BlockInterface has
                // no admin plane; StackAdmin covers that path in
                // bh-core's own tests).
                let obs = Obs::enabled();
                let mut instrumented: Box<dyn BlockInterface> = if conv_stack {
                    let mut d = conv();
                    d.set_obs(obs.clone());
                    Box::new(d)
                } else {
                    let mut d = emu();
                    d.set_obs(obs.clone());
                    Box::new(d)
                };
                let on = run_once(instrumented.as_mut(), seed, qd, obs.clone());

                assert_eq!(
                    off,
                    on,
                    "obs perturbed the run: stack={} seed={seed:#x} qd={qd}",
                    if conv_stack { "conv" } else { "zns+emu" }
                );
                assert!(
                    !obs.snapshot().is_zero(),
                    "instrumented run must actually have observed something"
                );
            }
        }
    }
}
