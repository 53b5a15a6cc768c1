//! The observability transparency property: attaching an event tracer
//! must not change a single bit of any run's outcome — not a histogram
//! bucket, not a virtual-time stamp, not a write-amplification figure.
//! (Counters need no such test: they are projected from the stats after
//! the run, so there is nothing to attach.)
//!
//! Both stacks, queued runner path, two depths. The fingerprint
//! deliberately covers everything a report can render: latency
//! histogram buckets, virtual elapsed time, error counts, the f64 bit
//! pattern of device WA, and the raw flash counters.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{BlockInterface, RunConfig, RunResult, Runner, StackAdmin};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
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

/// A run with a live trace ring must be bit-identical to a bare one at
/// queue depth > 1.
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
                if instrumented {
                    dev.set_tracer(Tracer::ring(1 << 14));
                }
                let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
                let mut stream =
                    OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), 0xB17);
                let runner = Runner::new(
                    RunConfig::new(1_500)
                        .with_maintenance_every(64)
                        .with_queue_depth(qd),
                );
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
