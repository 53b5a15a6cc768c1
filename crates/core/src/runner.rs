//! Load generation over a [`BlockInterface`].
//!
//! The runner drives an operation stream against a device on the virtual
//! clock, in either of the two classic modes:
//!
//! - **open loop**: operations arrive on a fixed schedule regardless of
//!   completions, so queueing delay (e.g. reads stuck behind GC erases)
//!   shows up as latency — this is how the §2.4 tail-latency claims are
//!   measured;
//! - **closed loop**: the next operation issues when the previous
//!   completes, measuring sustainable throughput.
//!
//! [`RunConfig::queue_depth`] selects a *semantics*, and each semantics
//! has exactly one dispatch loop:
//!
//! - depth ≤ 1 — the serial loop: every operation is issued at its
//!   arrival instant directly against the device, and periodic
//!   maintenance runs out of band (its cost lands on the device's
//!   resources, not on the run's clock);
//! - depth > 1 — the event-driven loop over [`QueueEngine::dispatch`]:
//!   up to QD operations are in flight, retired in deterministic
//!   `(completion instant, command id)` order. Closed-loop pacing means
//!   "submit when a window slot frees"; open-loop arrivals stay on
//!   schedule and wait in the submission queue when the window is full;
//!   maintenance is a queued command that holds a slot.
//!
//! The serial loop is *not* "the engine at depth 1". Measured contract:
//!
//! | input                                    | serial loop equals             |
//! |------------------------------------------|--------------------------------|
//! | closed pacing, instantaneous maintenance | `QueueEngine::new(1)`          |
//! | open / bursty pacing                     | an *unbounded* window          |
//! | maintenance that does real work          | neither: out of band vs queued |
//!
//! `tests/queue_lockstep.rs` pins all three rows; `tests/event_lockstep.rs`
//! holds the event loop bit-for-bit to the polling reference it replaced.
//!
//! A maintenance hook fires between operations so host-scheduled reclaim
//! (the ZNS stack's prerogative) can run on its policy.

use crate::error::IoError;
use crate::iface::{BlockInterface, WriteReq};
use bh_flash::FlashStats;
use bh_metrics::{Histogram, Nanos, Series};
use bh_obs::{Ctr, Gauge, ObsSnapshot};
use bh_queue::{IoCompletion, IoKind, IoRequest, QueueEngine};
use bh_trace::{RunnerEvent, Tracer};
use bh_workloads::{Op, OpSource};

/// How the runner paces operations.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Fixed inter-arrival gap (open loop).
    Open {
        /// Gap between arrivals.
        interarrival: Nanos,
    },
    /// Issue on completion (closed loop). At queue depth > 1 this
    /// becomes "issue when a window slot frees": QD requests are kept
    /// in flight.
    Closed,
    /// Open-loop bursts separated by idle windows. After every
    /// `burst_ops` operations the runner lets the device quiesce for
    /// `idle`, then invokes the maintenance hook — the window where a
    /// ZNS host schedules reclaim (§4.1); the conventional device's
    /// hook is a no-op, so its GC debt stays in the data path (§2.4).
    Bursty {
        /// Operations per burst.
        burst_ops: u64,
        /// Gap between arrivals within a burst.
        interarrival: Nanos,
        /// Quiet period between a burst's last completion and the
        /// maintenance hook.
        idle: Nanos,
    },
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of operations to issue.
    pub ops: u64,
    /// Arrival pacing.
    pub pacing: Pacing,
    /// Invoke the device's maintenance hook every N operations (0 =
    /// never).
    pub maintenance_every: u64,
    /// Operations kept in flight at once. ≤ 1 runs the serial loop
    /// (issue at arrival, maintenance out of band); deeper values run
    /// the event-driven queue engine with that window. The two are
    /// different semantics, not two implementations of one — see the
    /// module docs for where they coincide.
    pub queue_depth: usize,
}

impl RunConfig {
    /// `ops` operations, closed-loop, no maintenance, queue depth 1.
    pub fn new(ops: u64) -> Self {
        RunConfig {
            ops,
            pacing: Pacing::Closed,
            maintenance_every: 0,
            queue_depth: 1,
        }
    }

    /// Sets the arrival pacing.
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Runs the maintenance hook every `every` operations.
    pub fn with_maintenance_every(mut self, every: u64) -> Self {
        self.maintenance_every = every;
        self
    }

    /// Keeps up to `depth` operations in flight.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }
}

/// A run aborted: which operation failed, where, when, and why.
///
/// Failed reads of unmapped pages do *not* produce this (they are
/// counted in [`RunResult::errors`]); everything else carries the full
/// context so an experiment log names the failing LBA instead of
/// swallowing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpFailure {
    /// What kind of operation failed.
    pub kind: IoKind,
    /// The logical address involved, when the operation names one.
    pub lba: Option<u64>,
    /// Virtual instant the operation was issued.
    pub at: Nanos,
    /// The typed device error.
    pub error: IoError,
}

impl OpFailure {
    fn new(kind: IoKind, lba: Option<u64>, at: Nanos, error: IoError) -> Self {
        OpFailure {
            kind,
            lba,
            at,
            error,
        }
    }
}

impl std::fmt::Display for OpFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ", self.kind.name())?;
        if let Some(lba) = self.lba {
            write!(f, "of LBA {lba} ")?;
        }
        write!(f, "at {}ns failed: {}", self.at.as_nanos(), self.error)
    }
}

impl std::error::Error for OpFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Collected results of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Read latencies (arrival to completion).
    pub reads: Histogram,
    /// Write latencies (arrival to completion).
    pub writes: Histogram,
    /// Virtual time from first arrival to last completion.
    pub elapsed: Nanos,
    /// Operations that failed (e.g. reads of never-written pages).
    pub errors: u64,
    /// Device write amplification at the end of the run.
    pub device_wa: f64,
    /// Deepest the in-flight window got (1 on the serial path).
    pub peak_in_flight: usize,
    /// The run's queue slots: commands accepted and retired (each op
    /// once on the serial path, ops and queued maintenance commands on
    /// the queued one) and the queue engine's in-flight gauge (zero on
    /// the serial path, which has no engine).
    pub queue: ObsSnapshot,
}

impl RunResult {
    /// Adds this run's queue activity to `snap`, a snapshot of the stack
    /// it ran on: arrivals and retirements add, and the in-flight gauge
    /// takes the run's closing value and the higher of the two peaks.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        for ctr in [Ctr::QueueArrivals, Ctr::QueueRetirements] {
            snap.set(ctr, snap.counter(ctr) + self.queue.counter(ctr));
        }
        let run = self.queue.gauge(Gauge::QueueInFlight);
        let peak = snap.gauge(Gauge::QueueInFlight).peak.max(run.peak);
        snap.set_gauge(Gauge::QueueInFlight, run.value, peak);
    }

    /// Overall operation throughput in ops/second of virtual time.
    pub fn ops_per_sec(&self) -> f64 {
        bh_metrics::ops_per_sec(self.reads.count() + self.writes.count(), self.elapsed)
    }
}

/// One interval sample taken by the [`Sampler`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Virtual instant of the sample.
    pub at: Nanos,
    /// Operations issued so far.
    pub ops_done: u64,
    /// Write amplification over the interval since the previous sample.
    pub interval_wa: f64,
    /// Write amplification since the start of the run.
    pub cumulative_wa: f64,
    /// Planes still busy past the sample instant.
    pub queue_depth: u32,
    /// Host-side operations in flight at the sample instant (0 on the
    /// serial path, up to QD on the queued path).
    pub in_flight: u32,
}

/// Interval write amplification of `samples` over virtual time
/// (milliseconds on the x-axis). Infinite intervals (pure internal work)
/// are clamped to the largest finite sample so the figure stays
/// plottable.
pub fn interval_wa_series(name: impl Into<String>, samples: &[Sample]) -> Series {
    let cap = samples
        .iter()
        .map(|s| s.interval_wa)
        .filter(|w| w.is_finite())
        .fold(1.0f64, f64::max);
    let mut s = Series::with_capacity(name, samples.len());
    for sample in samples {
        let wa = if sample.interval_wa.is_finite() {
            sample.interval_wa
        } else {
            cap
        };
        s.push(sample.at.as_millis_f64(), wa);
    }
    s
}

/// Periodically samples `FlashStats` deltas and queue depth during a run,
/// emitting each sample as a [`RunnerEvent::Snapshot`] trace event and
/// retaining them for [`Sampler::interval_wa_series`]-style figures.
#[derive(Debug)]
pub struct Sampler {
    tracer: Tracer,
    every: u64,
    base: Option<FlashStats>,
    last: FlashStats,
    samples: Vec<Sample>,
}

impl Sampler {
    /// Samples every `every` operations (min 1), emitting snapshots into
    /// `tracer` when it is enabled.
    pub fn new(tracer: Tracer, every: u64) -> Self {
        Sampler {
            tracer,
            every: every.max(1),
            base: None,
            last: FlashStats::default(),
            samples: Vec::new(),
        }
    }

    /// The sampling period in operations.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Samples taken so far, in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Resets the interval baseline to the device's current counters.
    /// Call at run start so the first interval excludes pre-run fill
    /// traffic; [`Runner::run_traced`] does this for a sampler that has
    /// no baseline yet.
    pub fn prime<D: BlockInterface + ?Sized>(&mut self, dev: &D) {
        let stats = dev.flash_stats();
        self.base = Some(stats);
        self.last = stats;
    }

    /// Takes one sample at `now` after `ops_done` operations, with
    /// `in_flight` host-side operations outstanding.
    pub fn sample<D: BlockInterface + ?Sized>(
        &mut self,
        dev: &D,
        ops_done: u64,
        now: Nanos,
        in_flight: u32,
    ) {
        let stats = dev.flash_stats();
        let base = *self.base.get_or_insert_with(FlashStats::default);
        let interval = stats.delta_since(&self.last);
        let run_total = stats.delta_since(&base);
        let queue_depth = dev.queue_depth(now);
        let sample = Sample {
            at: now,
            ops_done,
            interval_wa: interval.write_amplification(),
            cumulative_wa: run_total.write_amplification(),
            queue_depth,
            in_flight,
        };
        self.samples.push(sample);
        if self.tracer.enabled() {
            self.tracer.emit(
                now,
                RunnerEvent::Snapshot {
                    ops_done,
                    interval_wa: sample.interval_wa,
                    cumulative_wa: sample.cumulative_wa,
                    queue_depth,
                    in_flight,
                    host_programs: interval.host_programs,
                    internal_programs: interval.internal_programs + interval.copies,
                    erases: interval.erases,
                },
            );
        }
        self.last = stats;
    }

    /// Interval write amplification over virtual time: see
    /// [`interval_wa_series`].
    pub fn interval_wa_series(&self, name: impl Into<String>) -> Series {
        interval_wa_series(name, &self.samples)
    }

    /// Queue depth over virtual time (milliseconds on the x-axis).
    pub fn queue_depth_series(&self, name: impl Into<String>) -> Series {
        let mut s = Series::with_capacity(name, self.samples.len());
        for sample in &self.samples {
            s.push(sample.at.as_millis_f64(), sample.queue_depth as f64);
        }
        s
    }
}

/// Drives operation streams against a device.
#[derive(Debug)]
pub struct Runner {
    cfg: RunConfig,
}

impl Runner {
    /// Creates a runner.
    pub fn new(cfg: RunConfig) -> Self {
        Runner { cfg }
    }

    /// Pre-writes every page so subsequent reads hit mapped data, and
    /// brings the device to a full, steady state. Returns the instant the
    /// fill completes.
    ///
    /// # Errors
    ///
    /// Returns an [`OpFailure`] naming the LBA whose write failed.
    pub fn fill<D: BlockInterface + ?Sized>(dev: &mut D, now: Nanos) -> Result<Nanos, OpFailure> {
        let mut t = now;
        for lba in 0..dev.capacity_pages() {
            t = dev
                .write(WriteReq::new(lba), t)
                .map_err(|e| OpFailure::new(IoKind::Write, Some(lba), t, e))?;
        }
        Ok(t)
    }

    /// Runs the configured number of operations from `stream` against
    /// `dev`, starting at `start`.
    ///
    /// # Errors
    ///
    /// Propagates device errors other than failed reads (those are
    /// counted in [`RunResult::errors`] — a workload may legitimately
    /// read a page it never wrote), with the operation kind, LBA, and
    /// instant attached.
    pub fn run<D: BlockInterface + ?Sized>(
        &self,
        dev: &mut D,
        stream: &mut dyn OpSource,
        start: Nanos,
    ) -> Result<RunResult, OpFailure> {
        self.dispatch(dev, stream, start, None)
    }

    /// Like [`Runner::run`], but takes periodic interval samples through
    /// `sampler` (which also emits them as trace snapshots). A sampler
    /// with no interval baseline yet is primed at `start`, so its
    /// intervals cover only this run; one that already has a baseline
    /// keeps it, so a run split into back-to-back segments (a fleet
    /// shard's tenant migration) accounts cumulative WA over the whole
    /// window.
    ///
    /// # Errors
    ///
    /// As for [`Runner::run`].
    pub fn run_traced<D: BlockInterface + ?Sized>(
        &self,
        dev: &mut D,
        stream: &mut dyn OpSource,
        start: Nanos,
        sampler: &mut Sampler,
    ) -> Result<RunResult, OpFailure> {
        if sampler.base.is_none() {
            sampler.prime(dev);
        }
        self.dispatch(dev, stream, start, Some(sampler))
    }

    fn dispatch<D: BlockInterface + ?Sized>(
        &self,
        dev: &mut D,
        stream: &mut dyn OpSource,
        start: Nanos,
        sampler: Option<&mut Sampler>,
    ) -> Result<RunResult, OpFailure> {
        if self.cfg.queue_depth <= 1 {
            self.run_serial(dev, stream, start, sampler)
        } else {
            self.run_queued(dev, stream, start, sampler)
        }
    }

    /// Arrival instant of operation `i + 1`, given operation `i` arrived
    /// at `arrival` and completed at `completion` (equal to `arrival` for
    /// failed reads). Burst boundaries run the idle-window maintenance
    /// hook, which may push the next burst out past the reclaim work.
    fn next_arrival<D: BlockInterface + ?Sized>(
        &self,
        dev: &mut D,
        i: u64,
        arrival: Nanos,
        completion: Nanos,
        last_done: Nanos,
    ) -> Result<Nanos, OpFailure> {
        Ok(match self.cfg.pacing {
            Pacing::Open { interarrival } => arrival + interarrival,
            Pacing::Closed => completion,
            Pacing::Bursty {
                burst_ops,
                interarrival,
                idle,
            } => {
                if burst_ops > 0 && (i + 1).is_multiple_of(burst_ops) {
                    let window = last_done.max(arrival + interarrival) + idle;
                    let done = dev
                        .maintenance(window)
                        .map_err(|e| OpFailure::new(IoKind::Maintenance, None, window, e))?;
                    done.max(window)
                } else {
                    arrival + interarrival
                }
            }
        })
    }

    /// The one-op-at-a-time loop, the only path for depth ≤ 1: each op
    /// issues at its arrival instant, whatever is still in flight, and
    /// periodic maintenance runs out of band.
    fn run_serial<D: BlockInterface + ?Sized>(
        &self,
        dev: &mut D,
        stream: &mut dyn OpSource,
        start: Nanos,
        mut sampler: Option<&mut Sampler>,
    ) -> Result<RunResult, OpFailure> {
        let mut reads = Histogram::new();
        let mut writes = Histogram::new();
        let mut errors = 0u64;
        let mut arrival = start;
        let mut last_done = start;
        for i in 0..self.cfg.ops {
            if self.cfg.maintenance_every > 0 && i > 0 && i % self.cfg.maintenance_every == 0 {
                // Maintenance is issued at the current arrival horizon; it
                // occupies device resources from then on.
                dev.maintenance(arrival)
                    .map_err(|e| OpFailure::new(IoKind::Maintenance, None, arrival, e))?;
            }
            let (op, hint) = stream.next_hinted();
            let outcome = match op {
                Op::Read(lba) => dev.read(lba, arrival),
                Op::Write(lba) => dev.write(WriteReq::hinted(lba, hint), arrival),
                Op::Trim(lba) => dev.trim(lba).map(|()| arrival),
            };
            match outcome {
                Ok(done) => {
                    let latency = done.saturating_sub(arrival);
                    match op {
                        Op::Read(_) => reads.record(latency),
                        Op::Write(_) => writes.record(latency),
                        Op::Trim(_) => {}
                    }
                    last_done = last_done.max(done);
                    arrival = self.next_arrival(dev, i, arrival, done, last_done)?;
                }
                Err(e) => {
                    if matches!(op, Op::Read(_)) {
                        // Unmapped reads are workload artifacts; count and
                        // move on.
                        errors += 1;
                        arrival = self.next_arrival(dev, i, arrival, arrival, last_done)?;
                    } else {
                        let (kind, lba) = match op {
                            Op::Write(lba) => (IoKind::Write, lba),
                            Op::Trim(lba) => (IoKind::Trim, lba),
                            Op::Read(_) => unreachable!(),
                        };
                        return Err(OpFailure::new(kind, Some(lba), arrival, e));
                    }
                }
            }
            if let Some(s) = sampler.as_deref_mut() {
                if (i + 1) % s.every() == 0 {
                    // Sample at the arrival horizon: planes busy past this
                    // instant are backlog the next op will queue behind.
                    s.sample(dev, i + 1, arrival, 0);
                }
            }
        }
        let mut queue = ObsSnapshot::default();
        queue.set(Ctr::QueueArrivals, self.cfg.ops);
        queue.set(Ctr::QueueRetirements, self.cfg.ops);
        Ok(RunResult {
            reads,
            writes,
            elapsed: last_done.saturating_sub(start),
            errors,
            device_wa: dev.write_amplification(),
            peak_in_flight: if self.cfg.ops > 0 { 1 } else { 0 },
            queue,
        })
    }

    /// The event-driven queued loop: every operation goes straight
    /// through [`QueueEngine::dispatch`], which advances the calendar to
    /// the next event and hands retirements to the [`Reaper`] sink with
    /// no deque round-trips. Completion order — and therefore every
    /// histogram and trace — is decided solely by the device's
    /// completion instants with command ids breaking ties, so runs are
    /// byte-reproducible at any depth (`tests/event_lockstep.rs` holds
    /// this loop bit-for-bit to the polling reference it replaced).
    fn run_queued<D: BlockInterface + ?Sized>(
        &self,
        dev: &mut D,
        stream: &mut dyn OpSource,
        start: Nanos,
        mut sampler: Option<&mut Sampler>,
    ) -> Result<RunResult, OpFailure> {
        let mut engine: QueueEngine<IoError> = QueueEngine::new(self.cfg.queue_depth.max(1));
        let mut reaper = Reaper::new();
        let mut arrival = start;
        // Maintenance goes ahead of ops `every`, `2 * every`, …: a
        // countdown instead of a division per op.
        let every = self.cfg.maintenance_every;
        let mut next_maintenance = if every > 0 { every } else { u64::MAX };
        for i in 0..self.cfg.ops {
            if i == next_maintenance {
                next_maintenance = next_maintenance.saturating_add(every);
                engine.dispatch(
                    IoRequest::Maintenance,
                    arrival,
                    |req, t| exec_request(dev, req, t),
                    &mut |c| reaper.accept(c),
                );
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
            engine.dispatch(req, arrival, |req, t| exec_request(dev, req, t), &mut |c| {
                reaper.accept(c)
            });
            arrival = match self.cfg.pacing {
                Pacing::Open { interarrival } => arrival + interarrival,
                // The next op arrives when a window slot frees — the
                // closed loop generalized to depth QD. The calendar
                // hands back the exact instant, so the clock skips
                // straight there: no stepping, no polling.
                Pacing::Closed => start.max(engine.slot_free_at()),
                Pacing::Bursty {
                    burst_ops,
                    interarrival,
                    idle,
                } => {
                    if burst_ops > 0 && (i + 1).is_multiple_of(burst_ops) {
                        // Quiesce, then skip the clock across the idle
                        // window to the maintenance instant — the
                        // window itself costs nothing to simulate.
                        engine.flush_into(&mut |c| reaper.accept(c));
                        let window = engine.last_done().max(arrival + interarrival) + idle;
                        engine.dispatch(
                            IoRequest::Maintenance,
                            window,
                            |req, t| exec_request(dev, req, t),
                            &mut |c| reaper.accept(c),
                        );
                        engine.flush_into(&mut |c| reaper.accept(c));
                        engine.last_done().max(window)
                    } else {
                        arrival + interarrival
                    }
                }
            };
            if let Some(s) = sampler.as_deref_mut() {
                if (i + 1) % s.every() == 0 {
                    s.sample(dev, i + 1, arrival, engine.in_flight_at(arrival));
                }
            }
            // A failed write/trim/maintenance aborts the run here: once
            // per iteration, after the sampler tick.
            reaper.check()?;
        }
        engine.flush_into(&mut |c| reaper.accept(c));
        reaper.check()?;
        let queue = ObsSnapshot::project(|s| engine.obs_into(s));
        Ok(RunResult {
            reads: reaper.reads,
            writes: reaper.writes,
            elapsed: engine.last_done().saturating_sub(start),
            errors: reaper.errors,
            device_wa: dev.write_amplification(),
            peak_in_flight: engine.peak_in_flight(),
            queue,
        })
    }

    fn failure(c: &IoCompletion<IoError>, error: IoError) -> OpFailure {
        OpFailure::new(c.req.kind(), c.req.lba(), c.issued, error)
    }
}

/// The device side of a queue engine: executes one typed request
/// against a [`BlockInterface`] at the issue instant the arbiter chose,
/// returning `(completion instant, result)` — the closure shape
/// [`QueueEngine::dispatch`] takes. Failures and trims
/// complete at `now`.
pub fn exec_request<D: BlockInterface + ?Sized>(
    dev: &mut D,
    req: &IoRequest,
    now: Nanos,
) -> (Nanos, Result<(), IoError>) {
    let done = match *req {
        IoRequest::Read { lba } => dev.read(lba, now),
        IoRequest::Write { lba, hint } => dev.write(WriteReq { lba, hint }, now),
        IoRequest::Trim { lba } => dev.trim(lba).map(|()| now),
        IoRequest::Maintenance => dev.maintenance(now),
    };
    match done {
        Ok(done) => (done, Ok(())),
        Err(e) => (now, Err(e)),
    }
}

/// The completion sink of the queued loop: records retired
/// completions into the latency histograms as they arrive, in
/// retirement order. `latency()` is arrival to completion, the same
/// quantity the serial loop records.
///
/// A failed write/trim/maintenance stashes the *first* failure (in
/// retirement order) and stops recording; the loop surfaces it once
/// per iteration, after the sampler tick.
#[derive(Debug)]
struct Reaper {
    reads: Histogram,
    writes: Histogram,
    errors: u64,
    failed: Option<OpFailure>,
}

impl Reaper {
    fn new() -> Self {
        Reaper {
            reads: Histogram::new(),
            writes: Histogram::new(),
            errors: 0,
            failed: None,
        }
    }

    fn accept(&mut self, c: IoCompletion<IoError>) {
        if self.failed.is_some() {
            return;
        }
        match c.req.kind() {
            IoKind::Read => match c.result {
                Ok(()) => self.reads.record(c.latency()),
                // Unmapped reads are workload artifacts; count and
                // move on.
                Err(_) => self.errors += 1,
            },
            IoKind::Write => match c.result {
                Ok(()) => self.writes.record(c.latency()),
                Err(ref e) => self.failed = Some(Runner::failure(&c, e.clone())),
            },
            IoKind::Trim | IoKind::Maintenance => {
                if let Err(ref e) = c.result {
                    self.failed = Some(Runner::failure(&c, e.clone()));
                }
            }
        }
    }

    /// Surfaces the stashed failure, if any. Tests before taking, so the
    /// per-op call does not move the (large) `Option` out and back.
    #[inline]
    fn check(&mut self) -> Result<(), OpFailure> {
        if self.failed.is_none() {
            return Ok(());
        }
        self.failed.take().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_conv::{ConvConfig, ConvSsd};
    use bh_flash::{FlashConfig, Geometry};
    use bh_workloads::{OpMix, OpStream};

    fn device() -> ConvSsd {
        ConvSsd::new(ConvConfig::new(
            FlashConfig::tlc(Geometry::small_test()),
            0.20,
        ))
        .unwrap()
    }

    #[test]
    fn fill_then_mixed_run_collects_latencies() {
        let mut dev = device();
        let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
        let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::read_heavy(), 1);
        let runner = Runner::new(RunConfig::new(2000));
        let r = runner.run(&mut dev, &mut stream, t).unwrap();
        assert_eq!(r.errors, 0, "all pages were filled");
        assert!(r.reads.count() > 1000);
        assert!(r.writes.count() > 300);
        assert!(r.elapsed > Nanos::ZERO);
        assert!(r.ops_per_sec() > 0.0);
        assert!(r.device_wa >= 1.0);
        assert_eq!(r.peak_in_flight, 1);
    }

    #[test]
    fn open_loop_latency_grows_under_overload() {
        // Arrivals far faster than the device can serve: queueing delay
        // must accumulate.
        let mut dev = device();
        let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
        let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::write_only(), 2);
        let fast = Runner::new(RunConfig::new(500).with_pacing(Pacing::Open {
            interarrival: Nanos::from_nanos(100),
        }));
        let r = fast.run(&mut dev, &mut stream, t).unwrap();
        assert!(
            r.writes.quantile(0.99) > r.writes.quantile(0.10) * 2,
            "overload should spread the latency distribution"
        );
    }

    #[test]
    fn traced_run_samples_intervals_and_snapshots() {
        use bh_trace::{Event, RunnerEvent, Tracer};
        let mut dev = device();
        let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
        let tracer = Tracer::ring(1 << 16);
        dev.set_tracer(tracer.clone());
        let mut stream =
            OpStream::uniform(BlockInterface::capacity_pages(&dev), OpMix::write_only(), 7);
        let runner = Runner::new(RunConfig::new(1000));
        let mut sampler = Sampler::new(tracer.clone(), 100);
        let r = runner
            .run_traced(&mut dev, &mut stream, t, &mut sampler)
            .unwrap();
        assert!(r.device_wa >= 1.0);
        assert_eq!(sampler.samples().len(), 10);
        // Samples are monotone in time and cover the run only (priming
        // excluded the fill traffic from the first interval).
        for w in sampler.samples().windows(2) {
            assert!(w[1].at >= w[0].at);
            assert!(w[1].ops_done > w[0].ops_done);
        }
        let first = sampler.samples()[0];
        assert!(first.interval_wa >= 1.0);
        assert!(first.interval_wa.is_finite(), "writes ran in the interval");
        // Snapshots landed in the same ring as the device's flash ops.
        let events = tracer.events();
        let snaps = events
            .iter()
            .filter(|e| matches!(e.event, Event::Runner(RunnerEvent::Snapshot { .. })))
            .count();
        assert_eq!(snaps, 10);
        assert!(events.iter().any(|e| matches!(e.event, Event::Flash(_))));
        // Series render with millisecond x-axes and one point per sample.
        assert_eq!(sampler.interval_wa_series("wa").points().len(), 10);
        assert_eq!(sampler.queue_depth_series("qd").points().len(), 10);
    }

    #[test]
    fn unmapped_reads_count_as_errors() {
        let mut dev = device();
        let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::read_heavy(), 3);
        let runner = Runner::new(RunConfig::new(100));
        // No fill: most reads hit unmapped pages.
        let r = runner.run(&mut dev, &mut stream, Nanos::ZERO).unwrap();
        assert!(r.errors > 0);
    }

    #[test]
    fn fill_failure_names_the_lba() {
        let mut dev = device();
        let cap = BlockInterface::capacity_pages(&dev);
        // A device the workload overruns: writing one-past-capacity
        // fails with the offending LBA attached.
        let e = BlockInterface::write(&mut dev, WriteReq::new(cap), Nanos::ZERO).unwrap_err();
        let f = OpFailure::new(IoKind::Write, Some(cap), Nanos::ZERO, e);
        assert!(f.to_string().contains(&format!("LBA {cap}")));
        assert!(std::error::Error::source(&f).is_some());
    }

    #[test]
    fn queued_closed_loop_loses_no_op_and_is_deterministic() {
        // The queued path at QD 2+ must complete every op exactly once
        // and stay deterministic.
        let run = |qd: usize| {
            let mut dev = device();
            let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
            let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::read_heavy(), 11);
            let runner = Runner::new(RunConfig::new(1500).with_queue_depth(qd));
            runner.run(&mut dev, &mut stream, t).unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.reads.count(), b.reads.count());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(
            a.reads.quantile(0.999),
            b.reads.quantile(0.999),
            "queued runs are reproducible"
        );
        let serial = run(1);
        assert_eq!(
            serial.reads.count() + serial.writes.count(),
            a.reads.count() + a.writes.count(),
            "no op lost or duplicated at depth"
        );
        assert!(a.peak_in_flight > 1, "depth was actually used");
        assert!(
            a.elapsed <= serial.elapsed,
            "a deeper closed loop never takes longer than serial"
        );
    }

    #[test]
    fn queued_open_loop_bounds_in_flight_ops() {
        let mut dev = device();
        let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
        let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::write_only(), 5);
        let runner = Runner::new(
            RunConfig::new(400)
                .with_pacing(Pacing::Open {
                    interarrival: Nanos::from_nanos(50),
                })
                .with_queue_depth(8),
        );
        let mut sampler = Sampler::new(Tracer::disabled(), 50);
        let r = runner
            .run_traced(&mut dev, &mut stream, t, &mut sampler)
            .unwrap();
        assert!(r.peak_in_flight <= 8, "admission respects the depth");
        assert!(
            sampler.samples().iter().all(|s| s.in_flight <= 8),
            "sampled in-flight never exceeds QD"
        );
        assert!(
            sampler.samples().iter().any(|s| s.in_flight > 0),
            "overload keeps the window occupied"
        );
    }

    #[test]
    fn queued_bursty_runs_maintenance_in_idle_windows() {
        let mut dev = device();
        let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
        let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::write_only(), 9);
        let runner = Runner::new(
            RunConfig::new(300)
                .with_pacing(Pacing::Bursty {
                    burst_ops: 50,
                    interarrival: Nanos::from_nanos(200),
                    idle: Nanos::from_micros(50),
                })
                .with_queue_depth(4),
        );
        let r = runner.run(&mut dev, &mut stream, t).unwrap();
        assert_eq!(r.writes.count(), 300);
        // Six bursts with 50 µs idles: elapsed must include the windows.
        assert!(r.elapsed >= Nanos::from_micros(250));
    }
}
