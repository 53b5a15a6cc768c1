//! The three workloads that drive a block stack through `Runner`:
//! `conv_mixed_qd16`, `zns_mixed_qd16` and `zbd_emu_file`.
//!
//! The first two run the *identical* zipfian 70/30 schedule at queue
//! depth 16 on the two sides of the paper's comparison. Paired, they
//! separate "the runner, queue or op generator got faster" (both move)
//! from "one stack got faster" (one moves). The third runs the same
//! host code (`BlockEmu`) on the durable file-backed substrate, so a
//! blockemu gain moves it together with `zns_mixed_qd16` and a bh-zbd
//! change moves it alone.

use super::{
    page_ops, recomputed_wa, Checks, Counts, Fp, Inspect, RoundStats, Session, Snapshot, Spec,
    StackLayer, ZonedLayer,
};
use crate::recorders::{TracedSource, TracedStack, TracedZoned};
use crate::trace::{span, suspended, Span};
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{Pacing, RunConfig, Runner};
use bh_flash::{FlashConfig, FlashStats, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::{Histogram, Nanos};
use bh_workloads::{split_seed, OpMix, OpSource, OpStream};
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const CONV_MIXED: Spec = Spec {
    name: "conv_mixed_qd16",
    why: "zipfian 70/30 closed loop at QD 16 on the 15%-OP conventional FTL: reads beside writes, light GC; runner + queue + op generation carry half the per-op cost",
    fixed_rounds: MIXED_FIXED_ROUNDS,
    stack_spans: StackLayer::Conv,
    zoned_spans: ZonedLayer::None,
    build: build_conv_mixed,
};

pub const ZNS_MIXED: Spec = Spec {
    name: "zns_mixed_qd16",
    why: "the identical schedule on BlockEmu<ZnsDevice>: bh-host reclaim + bh-zns do the device work, bh-conv none; paired with conv_mixed_qd16 it tells shared-path gains from one-stack gains",
    fixed_rounds: MIXED_FIXED_ROUNDS,
    stack_spans: StackLayer::Host,
    zoned_spans: ZonedLayer::ZnsFlash,
    build: build_zns_mixed,
};

pub const ZBD_FILE: Spec = Spec {
    name: "zbd_emu_file",
    why: "the same BlockEmu host code on the file-backed ZbdDevice: real write syscalls, CRC framing and a log-replaying power cycle; bh-zns and bh-flash do nothing",
    fixed_rounds: 1,
    stack_spans: StackLayer::Host,
    zoned_spans: ZonedLayer::Zbd,
    build: build_zbd_file,
};

/// `Geometry::experiment(64)`: 2 GiB of flash.
const MIXED_BLOCKS_PER_PLANE: u32 = 64;
const MIXED_ROUND_OPS: u64 = 250_000;
const MIXED_FIXED_ROUNDS: usize = 24;
const MIXED_QUEUE_DEPTH: usize = 16;

const ZBD_BLOCKS_PER_PLANE: u32 = 8;
const ZBD_ROUND_OPS: u64 = 200_000;
/// Operations run on a fresh device before the clock starts. A bare fill
/// is mostly first-touch page faults, whose cost on a shared host varies
/// fourfold from one build to the next; with a warm-up the simulator's
/// own work dominates `setup_s`, and timing starts from a device that
/// is already garbage-collecting.
const MIXED_WARMUP_OPS: u64 = 500_000;
const ZBD_WARMUP_OPS: u64 = 50_000;
/// LBAs whose stamps must survive the power cycle.
const ZBD_READBACK: usize = 4096;

const BLOCKS_PER_ZONE: u32 = 4;
const ZONE_LIMITS: u32 = 8;
const MAINTENANCE_EVERY: u64 = 64;

/// A filled stack, its op source and the virtual instant the fill ended.
type Built<S, O> = (S, O, Nanos);

/// What happens at the end of a round besides the runner's ops.
enum Epilogue {
    /// The device lives on; the next round continues on it.
    Continue,
    /// A timed power cycle with a stamp read-back around it, then the
    /// device is dropped: every round starts from a fresh fill, so all
    /// rounds do identical work on a log of identical length.
    PowerCycleAndRebuild {
        /// The device's backing file.
        log: PathBuf,
        /// Seeds the sample of LBAs read back around the power cycle.
        readback_seed: u64,
    },
}

struct BlockSession<S, O> {
    make: Box<dyn Fn() -> Built<S, O>>,
    live: Option<Built<S, O>>,
    runner: Runner,
    round_ops: u64,
    epilogue: Epilogue,
    /// Flash counters after the fill, before any timed op.
    base: FlashStats,
    reads: Histogram,
    writes: Histogram,
    errors: u64,
    issued: u64,
    virt: Nanos,
    peak_in_flight: usize,
    /// Counts and layer fingerprint as of the end of the latest round
    /// (a rebuilt device is gone by the time the harness asks).
    latest: (Counts, u64),
    first_round: Option<u64>,
    checks: Checks,
}

fn runner(ops: u64, queue_depth: usize) -> Runner {
    Runner::new(
        RunConfig::new(ops)
            .with_pacing(Pacing::Closed)
            .with_maintenance_every(MAINTENANCE_EVERY)
            .with_queue_depth(queue_depth),
    )
}

fn session<S: Inspect + 'static, O: OpSource + 'static>(
    make: impl Fn() -> Built<S, O> + 'static,
    queue_depth: usize,
    round_ops: u64,
    epilogue: Epilogue,
) -> Box<dyn Session> {
    let live = make();
    let base = live.0.flash_stats();
    let runner = runner(round_ops, queue_depth);
    Box::new(BlockSession {
        make: Box::new(make),
        live: Some(live),
        runner,
        round_ops,
        epilogue,
        base,
        reads: Histogram::new(),
        writes: Histogram::new(),
        errors: 0,
        issued: 0,
        virt: Nanos::ZERO,
        peak_in_flight: 0,
        latest: (Counts::new(), 0),
        first_round: None,
        checks: Checks::default(),
    })
}

impl<S: Inspect, O: OpSource> BlockSession<S, O> {
    fn power_cycle(&mut self, stack: &mut S, now: Nanos, log: &Path, seed: u64) -> Duration {
        let cap = stack.capacity_pages();
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample: Vec<u64> = (0..ZBD_READBACK).map(|_| rng.gen_range(0..cap)).collect();
        let read_back = |stack: &mut S, at| -> Vec<Option<u64>> {
            suspended(|| sample.iter().map(|&l| stack.read_stamp(l, at)).collect())
        };
        let before = read_back(stack, now);
        let log_bytes = std::fs::metadata(log).map(|m| m.len()).unwrap_or(0);

        let start = Instant::now();
        let cycled = {
            let _round = span(Span::Round);
            stack.power_cycle(now)
        };
        let wall = start.elapsed();

        self.checks.expect(cycled.is_ok(), || {
            format!("power cycle failed: {:?}", cycled.as_ref().err())
        });
        let after = read_back(stack, cycled.map_or(now, |(t, _)| t));
        for ((lba, before), after) in sample.iter().zip(before).zip(after) {
            self.checks.expect(before.is_some() && after == before, || {
                format!("lba {lba}: stamp {before:?} before the power cycle, {after:?} after")
            });
        }
        self.latest.0.insert("zbd.log_bytes", log_bytes as f64);
        wall
    }
}

impl<S: Inspect, O: OpSource> Session for BlockSession<S, O> {
    fn round(&mut self) -> RoundStats {
        let (mut stack, mut source, now) = self
            .live
            .take()
            .unwrap_or_else(|| suspended(|| (self.make)()));
        let start = Instant::now();
        let result = {
            let _round = span(Span::Round);
            let _run = span(Span::RunnerRun);
            self.runner.run(&mut stack, &mut source, now)
        };
        let mut wall = start.elapsed();
        let (ops, failed, now) = match result {
            Ok(r) => {
                self.reads.merge(&r.reads);
                self.writes.merge(&r.writes);
                self.errors += r.errors;
                self.virt += r.elapsed;
                self.peak_in_flight = self.peak_in_flight.max(r.peak_in_flight);
                (self.round_ops, r.errors, now + r.elapsed)
            }
            // The runner aborts on the first failed write: the rest of
            // the round was never attempted.
            Err(_) => (self.round_ops, self.round_ops, now),
        };
        self.issued += ops;

        self.latest.0.clear();
        if let Epilogue::PowerCycleAndRebuild { log, readback_seed } = &self.epilogue {
            let (log, seed) = (log.clone(), *readback_seed);
            wall += self.power_cycle(&mut stack, now, &log, seed);
        }
        stack.layer_counts(&mut self.latest.0);
        self.latest.1 = stack.fingerprint(Fp::new()).finish();
        let stats = stack.flash_stats();
        let (wa, again) = (stack.write_amplification(), recomputed_wa(&stats));
        self.checks.expect(wa == again, || {
            format!("device WA {wa} but programs/host programs = {again}")
        });
        self.latest.0.insert(
            "flash.page_ops",
            page_ops(&stats.delta_since(&self.base)) as f64,
        );

        match self.epilogue {
            Epilogue::Continue => self.live = Some((stack, source, now)),
            Epilogue::PowerCycleAndRebuild { .. } => {
                // Identical rounds: each must reproduce the first.
                let fp = Fp::new()
                    .u64(self.latest.1)
                    .u64(now.as_nanos())
                    .flash(&stats)
                    .finish();
                let first = *self.first_round.get_or_insert(fp);
                self.checks.expect(fp == first, || {
                    format!(
                        "round fingerprint {fp:016x} differs from the first round's {first:016x}"
                    )
                });
            }
        }
        RoundStats { ops, failed, wall }
    }

    fn snapshot(&self) -> Snapshot {
        let mut counts = self.latest.0.clone();
        counts.insert("queue.peak_in_flight", self.peak_in_flight as f64);
        counts.insert("sim.virt_s", self.virt.as_secs_f64());
        counts.insert(
            "sim.read_p999_virt_ns",
            self.reads.quantile(0.999).as_nanos() as f64,
        );
        counts.insert(
            "sim.write_p999_virt_ns",
            self.writes.quantile(0.999).as_nanos() as f64,
        );
        let fingerprint = Fp::new()
            .hist(&self.reads)
            .hist(&self.writes)
            .u64(self.errors)
            .u64(self.virt.as_nanos())
            .u64(self.peak_in_flight as u64)
            .u64(self.latest.1)
            .finish();
        Snapshot {
            fingerprint,
            counts,
        }
    }

    fn checks(&mut self) -> Checks {
        let mut c = std::mem::take(&mut self.checks);
        let (reads, writes, errors, issued) = (
            self.reads.count(),
            self.writes.count(),
            self.errors,
            self.issued,
        );
        c.expect(reads + writes + errors == issued, || {
            format!("{issued} ops issued but {reads} reads + {writes} writes + {errors} errors")
        });
        c
    }
}

/// Fills a fresh stack, pairs it with an op source over its capacity
/// and warms both up with the first `warmup_ops` of the schedule.
fn preconditioned<S: Inspect, O: OpSource>(
    mut stack: S,
    source: impl FnOnce(u64) -> O,
    warmup_ops: u64,
    queue_depth: usize,
) -> Built<S, O> {
    let t = Runner::fill(&mut stack, Nanos::ZERO).expect("fill");
    let mut source = source(stack.capacity_pages());
    let warm = runner(warmup_ops, queue_depth)
        .run(&mut stack, &mut source, t)
        .expect("warm-up");
    (stack, source, t + warm.elapsed)
}

fn zns_config(blocks_per_plane: u32) -> ZnsConfig {
    ZnsConfig::new(
        FlashConfig::tlc(Geometry::experiment(blocks_per_plane)),
        BLOCKS_PER_ZONE,
    )
    .with_zone_limits(ZONE_LIMITS)
}

fn emu<D: ZonedDevice>(dev: D) -> BlockEmu<D> {
    let reserve = (dev.num_zones() / 8).max(4);
    BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate)
}

/// The schedule both `*_mixed_qd16` workloads run.
fn mixed_source(cap: u64, seed: u64) -> OpStream {
    OpStream::zipfian(cap, OpMix::read_heavy(), seed)
}

fn mixed<S: Inspect + 'static, O: OpSource + 'static>(
    stack: impl Fn() -> S + 'static,
    source: impl Fn(u64) -> O + 'static,
) -> Box<dyn Session> {
    session(
        move || preconditioned(stack(), &source, MIXED_WARMUP_OPS, MIXED_QUEUE_DEPTH),
        MIXED_QUEUE_DEPTH,
        MIXED_ROUND_OPS,
        Epilogue::Continue,
    )
}

fn build_conv_mixed(seed: u64, traced: bool, _dir: &Path) -> Box<dyn Session> {
    let device = || {
        let geo = Geometry::experiment(MIXED_BLOCKS_PER_PLANE);
        ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.15)).expect("conv_mixed config")
    };
    if traced {
        mixed(
            move || TracedStack(device()),
            move |cap| TracedSource(mixed_source(cap, seed)),
        )
    } else {
        mixed(device, move |cap| mixed_source(cap, seed))
    }
}

fn build_zns_mixed(seed: u64, traced: bool, _dir: &Path) -> Box<dyn Session> {
    let device = || ZnsDevice::new(zns_config(MIXED_BLOCKS_PER_PLANE)).expect("zns_mixed config");
    if traced {
        mixed(
            move || TracedStack(emu(TracedZoned(device()))),
            move |cap| TracedSource(mixed_source(cap, seed)),
        )
    } else {
        mixed(move || emu(device()), move |cap| mixed_source(cap, seed))
    }
}

fn build_zbd_file(seed: u64, traced: bool, dir: &Path) -> Box<dyn Session> {
    let log = dir.join("zbd_emu_file.log");
    let epilogue = Epilogue::PowerCycleAndRebuild {
        log: log.clone(),
        readback_seed: split_seed(seed, 0x5EAD),
    };
    let device = move || {
        let cfg = ZbdConfig::mirror(&zns_config(ZBD_BLOCKS_PER_PLANE));
        // `create_file` truncates, so a rebuilt device starts an empty log.
        ZbdDevice::create_file(cfg, &log).expect("zbd backing file")
    };
    let source = move |cap| OpStream::uniform(cap, OpMix { read_pct: 30 }, seed);
    if traced {
        session(
            move || {
                preconditioned(
                    TracedStack(emu(TracedZoned(device()))),
                    |cap| TracedSource(source(cap)),
                    ZBD_WARMUP_OPS,
                    1,
                )
            },
            1,
            ZBD_ROUND_OPS,
            epilogue,
        )
    } else {
        session(
            move || preconditioned(emu(device()), source, ZBD_WARMUP_OPS, 1),
            1,
            ZBD_ROUND_OPS,
            epilogue,
        )
    }
}
