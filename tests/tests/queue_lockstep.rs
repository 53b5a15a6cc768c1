//! What the runner's serial loop (queue depth ≤ 1) is equivalent to —
//! and what it is not. `Runner` keeps two dispatch loops because they
//! are two semantics, and this file pins where they coincide:
//!
//! 1. **Closed pacing, instantaneous maintenance**: serial ≡
//!    `QueueEngine::new(1)` driven with `slot_free_at` pacing.
//! 2. **Open / bursty pacing**: serial issues every op at its arrival,
//!    so it ≡ an engine with an *unbounded* window, and under overload
//!    it does **not** match `QueueEngine::new(1)`, which queues.
//! 3. **Maintenance that does real work**: serial runs it out of band
//!    (the next op issues without waiting for it); the engine queues it
//!    as a command that holds the slot.
//!
//! Equivalence here is call-for-call: both sides drive a [`Recorder`]
//! around identical devices, and the logs of every device call — kind,
//! issue instant, completion instant — must be equal, along with the
//! virtual elapsed time and the device end state.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{
    exec_request, BlockInterface, IoCompletion, IoError, IoKind, IoRequest, Pacing, QueueEngine,
    RunConfig, Runner, Sampler, StackAdmin, WriteReq,
};
use bh_flash::{FlashConfig, FlashStats, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_trace::Tracer;
use bh_workloads::{Op, OpMix, OpSource, OpStream, TenantPopulation, TenantStream};
use bh_zns::{ZnsConfig, ZnsDevice};

const SEED: u64 = 0x10C5;
const OPS: u64 = 2_000;

/// Arrivals far faster than either stack serves them.
const OPEN_OVERLOAD: Pacing = Pacing::Open {
    interarrival: Nanos::from_nanos(900),
};
const BURSTY_OVERLOAD: Pacing = Pacing::Bursty {
    burst_ops: 64,
    interarrival: Nanos::from_nanos(400),
    idle: Nanos::from_micros(30),
};

fn conv_stack() -> Box<dyn StackAdmin> {
    let dev = ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap();
    Box::new(dev)
}

fn zns_stack() -> Box<dyn StackAdmin> {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let dev = ZnsDevice::new(cfg).unwrap();
    Box::new(BlockEmu::new(dev, 2, ReclaimPolicy::Immediate))
}

/// The fleet's hinted ZNS stack: four placement streams, so periodic
/// maintenance finds reclaim work to do.
fn hinted_zns_stack() -> Box<dyn StackAdmin> {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(14);
    let dev = ZnsDevice::new(cfg).unwrap();
    Box::new(BlockEmu::new(dev, 4, ReclaimPolicy::Immediate).with_hinted_streams(4))
}

fn zipfian(cap: u64) -> Box<dyn OpSource> {
    Box::new(OpStream::zipfian(cap, OpMix::read_heavy(), SEED))
}

/// Eight tenants hinting four streams, as a fleet shard sees them.
fn tenants(cap: u64) -> Box<dyn OpSource> {
    let pop = TenantPopulation::zipf(8, 0.9, SEED);
    let mix = OpMix::read_heavy();
    Box::new(TenantStream::new(cap, pop.specs(), mix, SEED, 4))
}

/// One device call: what was asked, at which instant, and when it
/// completed (`at` again for failures; trims carry no instants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Call {
    kind: IoKind,
    at: Nanos,
    done: Nanos,
}

/// A device wrapper that logs every command it forwards.
struct Recorder {
    dev: Box<dyn StackAdmin>,
    calls: Vec<Call>,
}

impl Recorder {
    fn log(
        &mut self,
        kind: IoKind,
        at: Nanos,
        r: Result<Nanos, IoError>,
    ) -> Result<Nanos, IoError> {
        let done = *r.as_ref().unwrap_or(&at);
        self.calls.push(Call { kind, at, done });
        r
    }
}

impl BlockInterface for Recorder {
    fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }
    fn read(&mut self, lba: u64, now: Nanos) -> Result<Nanos, IoError> {
        let r = self.dev.read(lba, now);
        self.log(IoKind::Read, now, r)
    }
    fn write(&mut self, req: WriteReq, now: Nanos) -> Result<Nanos, IoError> {
        let r = self.dev.write(req, now);
        self.log(IoKind::Write, now, r)
    }
    fn trim(&mut self, lba: u64) -> Result<(), IoError> {
        let r = self.dev.trim(lba).map(|()| Nanos::ZERO);
        self.log(IoKind::Trim, Nanos::ZERO, r).map(|_| ())
    }
    fn maintenance(&mut self, now: Nanos) -> Result<Nanos, IoError> {
        let r = self.dev.maintenance(now);
        self.log(IoKind::Maintenance, now, r)
    }
    fn write_amplification(&self) -> f64 {
        self.dev.write_amplification()
    }
    fn flash_stats(&self) -> FlashStats {
        self.dev.flash_stats()
    }
    fn queue_depth(&self, now: Nanos) -> u32 {
        self.dev.queue_depth(now)
    }
    fn label(&self) -> &'static str {
        self.dev.label()
    }
}

/// Everything one side of a comparison observed.
struct Side {
    calls: Vec<Call>,
    elapsed: Nanos,
    wa_bits: u64,
    /// Engine side only: the completions, in retirement order.
    completions: Vec<IoCompletion<IoError>>,
}

type Stack = fn() -> Box<dyn StackAdmin>;
type Stream = fn(u64) -> Box<dyn OpSource>;

fn filled(mk: Stack) -> (Recorder, Nanos) {
    let mut dev = mk();
    let start = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
    let calls = Vec::new();
    (Recorder { dev, calls }, start)
}

/// The production serial loop: `Runner` at queue depth 1.
fn serial_side(mk: Stack, stream: Stream, cfg: RunConfig) -> Side {
    let (mut rec, start) = filled(mk);
    let mut stream = stream(rec.capacity_pages());
    let res = Runner::new(cfg.with_queue_depth(1))
        .run(&mut rec, stream.as_mut(), start)
        .unwrap();
    assert_eq!(res.peak_in_flight, 1, "depth 1 is the serial loop");
    Side {
        wa_bits: rec.write_amplification().to_bits(),
        calls: rec.calls,
        elapsed: res.elapsed,
        completions: Vec::new(),
    }
}

/// The same schedule through a [`QueueEngine`] holding `window` ops,
/// paced exactly as the runner's queued loop paces it.
fn engine_side(mk: Stack, stream: Stream, cfg: RunConfig, window: usize) -> Side {
    let (mut rec, start) = filled(mk);
    let mut stream = stream(rec.capacity_pages());
    let mut engine: QueueEngine<IoError> = QueueEngine::new(window);
    let mut completions = Vec::new();
    let mut exec = |req: &IoRequest, t| exec_request(&mut rec, req, t);
    let mut sink = |c| completions.push(c);
    let mut arrival = start;
    for i in 0..cfg.ops {
        if cfg.maintenance_every > 0 && i > 0 && i % cfg.maintenance_every == 0 {
            engine.dispatch(IoRequest::Maintenance, arrival, &mut exec, &mut sink);
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
        engine.dispatch(req, arrival, &mut exec, &mut sink);
        arrival = match cfg.pacing {
            Pacing::Open { interarrival } => arrival + interarrival,
            Pacing::Closed => start.max(engine.slot_free_at()),
            Pacing::Bursty {
                burst_ops,
                interarrival,
                idle,
            } => {
                if (i + 1).is_multiple_of(burst_ops) {
                    engine.flush_into(&mut sink);
                    let at = engine.last_done().max(arrival + interarrival) + idle;
                    engine.dispatch(IoRequest::Maintenance, at, &mut exec, &mut sink);
                    engine.flush_into(&mut sink);
                    engine.last_done().max(at)
                } else {
                    arrival + interarrival
                }
            }
        };
    }
    engine.flush_into(&mut sink);
    Side {
        wa_bits: rec.write_amplification().to_bits(),
        calls: rec.calls,
        elapsed: engine.last_done().saturating_sub(start),
        completions,
    }
}

fn cfg(pacing: Pacing, maintenance_every: u64) -> RunConfig {
    RunConfig::new(OPS)
        .with_pacing(pacing)
        .with_maintenance_every(maintenance_every)
}

/// The serial loop and an engine with `window` slots make the identical
/// sequence of device calls — same kinds, issue instants and completion
/// instants — and end in the same state. The engine never queued an op
/// (`issued == submitted`), which is what "equivalent to the serial
/// loop" means for an arbiter.
fn assert_lockstep(mk: Stack, pacing: Pacing, maintenance_every: u64, window: usize) {
    let what = format!("{pacing:?}, maintenance every {maintenance_every}, window {window}");
    let cfg = cfg(pacing, maintenance_every);
    let serial = serial_side(mk, zipfian, cfg);
    let engine = engine_side(mk, zipfian, cfg, window);
    assert_eq!(serial.calls.len(), engine.calls.len(), "{what}");
    for (k, (s, e)) in serial.calls.iter().zip(&engine.calls).enumerate() {
        assert_eq!(s, e, "device call {k} differs ({what})");
    }
    assert_eq!(serial.elapsed, engine.elapsed, "elapsed ({what})");
    assert_eq!(
        serial.wa_bits, engine.wa_bits,
        "write amplification ({what})"
    );
    assert_eq!(engine.completions.len(), engine.calls.len(), "{what}");
    for c in &engine.completions {
        assert_eq!(c.issued, c.submitted, "op {} queued ({what})", c.cid);
    }
}

/// Under overload a one-slot window queues arrivals the serial loop
/// issues on schedule: the call logs part ways and the engine reports
/// queue wait.
fn assert_depth_one_engine_diverges(mk: Stack, pacing: Pacing) {
    let cfg = cfg(pacing, 0);
    let serial = serial_side(mk, zipfian, cfg);
    let engine = engine_side(mk, zipfian, cfg, 1);
    assert_ne!(serial.calls, engine.calls, "{pacing:?}");
    assert!(
        engine.completions.iter().any(|c| c.issued > c.submitted),
        "{pacing:?}: a depth-1 window under overload must queue"
    );
}

#[test]
fn closed_serial_matches_engine_depth_one() {
    for mk in [conv_stack as Stack, zns_stack] {
        for maintenance_every in [0, 64] {
            assert_lockstep(mk, Pacing::Closed, maintenance_every, 1);
        }
    }
}

#[test]
fn open_and_bursty_serial_match_an_unbounded_window_not_depth_one() {
    for mk in [conv_stack as Stack, zns_stack] {
        for pacing in [OPEN_OVERLOAD, BURSTY_OVERLOAD] {
            for maintenance_every in [0, 64] {
                assert_lockstep(mk, pacing, maintenance_every, usize::MAX);
            }
            assert_depth_one_engine_diverges(mk, pacing);
        }
    }
}

/// Periodic maintenance with real reclaim work, closed pacing: the
/// serial loop issues the next op at the instant it called maintenance,
/// while the reclaim is still running; the depth-1 engine holds the
/// slot until it completes, so the same schedule takes longer.
#[test]
fn working_maintenance_is_out_of_band_in_the_serial_loop() {
    let cfg = cfg(Pacing::Closed, 64);
    let serial = serial_side(hinted_zns_stack, tenants, cfg);
    let engine = engine_side(hinted_zns_stack, tenants, cfg, 1);
    // Each maintenance call that did work, with the call after it.
    let working = |calls: &[Call]| -> Vec<(Call, Call)> {
        calls
            .windows(2)
            .filter(|w| w[0].kind == IoKind::Maintenance && w[0].done > w[0].at)
            .map(|w| (w[0], w[1]))
            .collect()
    };
    let out_of_band = working(&serial.calls);
    assert!(
        !out_of_band.is_empty(),
        "no maintenance call did any work; the case tests nothing"
    );
    for (m, next) in out_of_band {
        assert_eq!(next.at, m.at, "serial: next op waited for {m:?}");
    }
    let queued = working(&engine.calls);
    assert!(!queued.is_empty());
    for (m, next) in queued {
        assert!(next.at >= m.done, "engine: {next:?} overtook {m:?}");
    }
    assert!(serial.elapsed < engine.elapsed);
}

/// The runner's own dispatch routing: queue depth 0 and 1 are the same
/// serial path, so their results are identical field for field.
#[test]
fn runner_depth_zero_and_one_are_the_same_path() {
    let run_at = |qd: usize| {
        let mut dev = conv_stack();
        let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
        let mut stream = OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), SEED);
        let runner = Runner::new(
            RunConfig::new(1_500)
                .with_pacing(Pacing::Closed)
                .with_maintenance_every(64)
                .with_queue_depth(qd),
        );
        runner.run(dev.as_mut(), &mut stream, t).unwrap()
    };
    let r0 = run_at(0);
    let r1 = run_at(1);
    assert_eq!(r0.reads.summary(), r1.reads.summary());
    assert_eq!(r0.writes.summary(), r1.writes.summary());
    assert_eq!(r0.elapsed, r1.elapsed);
    assert_eq!(r0.errors, r1.errors);
    assert_eq!(r0.device_wa.to_bits(), r1.device_wa.to_bits());
    assert_eq!(r0.peak_in_flight, r1.peak_in_flight);
}

/// The queued runner path is deterministic at every depth: running the
/// same config twice gives identical results.
#[test]
fn queued_runner_is_deterministic_at_depth() {
    for qd in [4usize, 16] {
        let run_once = || {
            let mut dev = zns_stack();
            let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
            let mut stream = OpStream::zipfian(dev.capacity_pages(), OpMix::read_heavy(), SEED);
            let runner = Runner::new(
                RunConfig::new(1_500)
                    .with_pacing(Pacing::Closed)
                    .with_maintenance_every(64)
                    .with_queue_depth(qd),
            );
            runner.run(dev.as_mut(), &mut stream, t).unwrap()
        };
        let r1 = run_once();
        let r2 = run_once();
        assert_eq!(r1.reads.summary(), r2.reads.summary(), "qd {qd}");
        assert_eq!(r1.writes.summary(), r2.writes.summary(), "qd {qd}");
        assert_eq!(r1.elapsed, r2.elapsed, "qd {qd}");
        assert_eq!(r1.device_wa.to_bits(), r2.device_wa.to_bits(), "qd {qd}");
        assert_eq!(r1.peak_in_flight, r2.peak_in_flight, "qd {qd}");
        assert_eq!(r1.peak_in_flight, qd, "closed loop fills the window");
    }
}

/// The zipfian stream, except that op `k` writes the first LBA past the
/// end of the device.
struct FailAt {
    ops: OpStream,
    k: u64,
    next: u64,
}

impl OpSource for FailAt {
    fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let op = self.ops.next_op();
        if i == self.k {
            Op::Write(self.ops.capacity())
        } else {
            op
        }
    }
}

/// A write the device refuses aborts `Runner::run` with the write's
/// kind, LBA, issue instant and error, and every call before the refused
/// one is the clean schedule's. Where the run stops differs by loop. The
/// serial loop (depth 1) returns at the refused op, before its sampler
/// tick. The queued loop (depth 4) learns of it when the engine retires
/// it and checks after each sampler tick: under open overload the
/// refused write queues behind the backlog, so the run issues all its
/// ops first; bursty pacing retires it at the burst's flush (op 127).
#[test]
fn a_refused_write_aborts_the_run_with_its_lba_and_instant() {
    const K: u64 = 100;
    // (pacing, depth, ops issued, samples taken) when the run stops.
    let rows = [
        (OPEN_OVERLOAD, 1, K + 1, K),
        (OPEN_OVERLOAD, 4, OPS, OPS),
        (BURSTY_OVERLOAD, 1, K + 1, K),
        (BURSTY_OVERLOAD, 4, 128, 128),
    ];
    for (pacing, depth, issued, samples) in rows {
        let what = format!("{pacing:?}, depth {depth}");
        let (mut rec, start) = filled(zns_stack);
        let cap = rec.capacity_pages();
        let ops = OpStream::zipfian(cap, OpMix::read_heavy(), SEED);
        let mut source = FailAt { ops, k: K, next: 0 };
        let mut sampler = Sampler::new(Tracer::disabled(), 1);
        let f = Runner::new(cfg(pacing, 0).with_queue_depth(depth))
            .run_traced(&mut rec, &mut source, start, &mut sampler)
            .unwrap_err();
        assert_eq!(f.kind, IoKind::Write, "{what}");
        assert_eq!(f.lba, Some(cap), "{what}");
        let refusal = IoError::OutOfRange {
            lba: cap,
            capacity: cap,
        };
        assert_eq!(f.error, refusal, "{what}");
        // The refused call is the one write that took no time.
        let refused: Vec<usize> = (0..rec.calls.len())
            .filter(|&n| rec.calls[n].kind == IoKind::Write && rec.calls[n].done == rec.calls[n].at)
            .collect();
        assert_eq!(refused.len(), 1, "{what}");
        let n = refused[0];
        assert_eq!(rec.calls[n].at, f.at, "{what}");
        if depth == 1 && matches!(pacing, Pacing::Open { .. }) {
            assert_eq!(f.at, start + Nanos::from_nanos(900) * K, "{what}");
        }
        let clean = {
            let (mut rec, start) = filled(zns_stack);
            let mut ops = OpStream::zipfian(cap, OpMix::read_heavy(), SEED);
            let clean_cfg = RunConfig::new(K)
                .with_pacing(pacing)
                .with_queue_depth(depth);
            Runner::new(clean_cfg)
                .run(&mut rec, &mut ops, start)
                .unwrap();
            rec.calls
        };
        assert_eq!(rec.calls[..n], clean[..], "{what}");
        let ops_issued = rec.calls.iter().filter(|c| c.kind != IoKind::Maintenance);
        assert_eq!(ops_issued.count() as u64, issued, "{what}");
        assert_eq!(sampler.samples().len() as u64, samples, "{what}");
    }
}
