//! `conv_randwrite` — the paper's §2.2 random-overwrite workload on the
//! conventional FTL, driven through `ConvSsd::write` directly.
//!
//! Full-scale `run_all` spends 80% of its wall time in exactly this
//! loop (E2/E4), so this is the workload most users wait for. bh-conv's
//! garbage collector and bh-flash do all the work: there is no op
//! generator, runner, queue, host stack or ZNS device in the timed
//! loop, only a pre-generated LBA schedule.

use super::{
    page_ops, recomputed_wa, Checks, Counts, Fp, RoundStats, Session, Snapshot, Spec, StackLayer,
    ZonedLayer,
};
use crate::trace::{note_gc_write, span, Span};
use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, FlashStats, Geometry};
use bh_metrics::{Histogram, Nanos};
use bh_workloads::{OpMix, OpStream};
use std::path::Path;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "conv_randwrite",
    why: "uniform overwrites on the 7%-OP conventional FTL: bh-conv GC + bh-flash do all the work, as in E2/E4 (80% of run_all wall)",
    fixed_rounds: FIXED_ROUNDS,
    stack_spans: StackLayer::None,
    zoned_spans: ZonedLayer::None,
    build,
};

/// `Geometry::experiment(128)`: 4 GiB of flash, 941k exported pages —
/// large enough that the mapping tables miss the host's caches as they
/// do at E2's scale, small enough to precondition in two seconds.
const BLOCKS_PER_PLANE: u32 = 128;
const OP_RATIO: f64 = 0.07;
/// Uniform overwrites before the timed phase, in device capacities.
const PRECONDITION_CAPACITIES: u64 = 1;
const ROUND_OPS: usize = 50_000;
const FIXED_ROUNDS: usize = 32;

struct ConvRandWrite {
    ssd: ConvSsd,
    stream: OpStream,
    traced: bool,
    now: Nanos,
    writes: Histogram,
    /// Flash counters and virtual clock when the timed phase began.
    base: (FlashStats, Nanos),
    issued: u64,
}

fn build(seed: u64, traced: bool, _dir: &Path) -> Box<dyn Session> {
    let geo = Geometry::experiment(BLOCKS_PER_PLANE);
    let mut ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), OP_RATIO))
        .expect("conv_randwrite device config");
    let cap = ssd.capacity_pages();
    let mut now = Nanos::ZERO;
    for lba in 0..cap {
        now = ssd.write(lba, now).expect("sequential fill").done;
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), seed);
    for _ in 0..PRECONDITION_CAPACITIES * cap {
        now = ssd
            .write(stream.next_op().lba(), now)
            .expect("preconditioning overwrite")
            .done;
    }
    let base = (*ssd.flash_stats(), now);
    Box::new(ConvRandWrite {
        ssd,
        stream,
        traced,
        now,
        writes: Histogram::new(),
        base,
        issued: 0,
    })
}

impl Session for ConvRandWrite {
    fn round(&mut self) -> RoundStats {
        // The schedule is made from the seed before the clock starts;
        // the timed loop passes only generated inputs.
        let schedule: Vec<u64> = (0..ROUND_OPS)
            .map(|_| self.stream.next_op().lba())
            .collect();
        let mut now = self.now;
        let mut failed = 0;
        let start = Instant::now();
        if self.traced {
            let _round = span(Span::Round);
            for &lba in &schedule {
                let erases = self.ssd.flash_stats().erases;
                let s = span(Span::ConvWrite);
                let out = self.ssd.write(lba, now);
                let ns = s.finish();
                if self.ssd.flash_stats().erases != erases {
                    note_gc_write(ns);
                }
                match out {
                    Ok(o) => {
                        self.writes.record(o.done.saturating_sub(now));
                        now = o.done;
                    }
                    Err(_) => failed += 1,
                }
            }
        } else {
            for &lba in &schedule {
                match self.ssd.write(lba, now) {
                    Ok(o) => {
                        self.writes.record(o.done.saturating_sub(now));
                        now = o.done;
                    }
                    Err(_) => failed += 1,
                }
            }
        }
        let wall = start.elapsed();
        self.now = now;
        self.issued += ROUND_OPS as u64;
        RoundStats {
            ops: ROUND_OPS as u64,
            failed,
            wall,
        }
    }

    fn snapshot(&self) -> Snapshot {
        let stats = self.ssd.flash_stats();
        let timed = stats.delta_since(&self.base.0);
        let virt = self.now.saturating_sub(self.base.1);
        let mut counts = Counts::new();
        counts.insert("conv.device_wa", self.ssd.write_amplification());
        counts.insert("flash.page_ops", page_ops(&timed) as f64);
        counts.insert("sim.virt_s", virt.as_secs_f64());
        counts.insert(
            "sim.write_p999_virt_ns",
            self.writes.quantile(0.999).as_nanos() as f64,
        );
        let fingerprint = Fp::new()
            .hist(&self.writes)
            .flash(stats)
            .u64(self.now.as_nanos())
            .f64(self.ssd.write_amplification())
            .finish();
        Snapshot {
            fingerprint,
            counts,
        }
    }

    fn checks(&mut self) -> Checks {
        let mut c = Checks::default();
        let recorded = self.writes.count();
        let issued = self.issued;
        c.expect(recorded == issued, || {
            format!("{issued} writes issued but {recorded} completions recorded")
        });
        let stats = *self.ssd.flash_stats();
        let (wa, again) = (self.ssd.write_amplification(), recomputed_wa(&stats));
        c.expect(wa == again, || {
            format!("conv.device_wa {wa} but programs/host programs = {again}")
        });
        let host = stats.host_programs - self.base.0.host_programs;
        c.expect(host == issued, || {
            format!("{issued} writes issued but {host} host programs in the timed phase")
        });
        c
    }
}
