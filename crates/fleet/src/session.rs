//! The streaming fleet engine: a [`FleetSession`] drives a
//! work-stealing shard scheduler and folds each completed shard into the
//! incremental merge sink the moment the merge frontier reaches it.
//!
//! This is the redesign that takes the fleet from "run everything, then
//! merge" to 1k–10k shards:
//!
//! - **Work-stealing scheduler.** Shards are dealt round-robin over
//!   per-worker deques ([`crate::pool::StealQueues`]); idle workers
//!   steal from the fullest queue. An *admission window* keeps starts
//!   within `window` shards of the merge frontier, which bounds the
//!   reorder buffer — at most `window` completed-but-unmerged shards
//!   ever exist, no matter how many shards the fleet has.
//! - **Constant memory per in-flight shard.** The caller thread absorbs
//!   results in strict shard-id order into a [`FleetReportSink`]:
//!   histograms merge exactly, obs snapshots fold immediately, and
//!   traces either spill to per-shard JSONL files
//!   ([`FleetSession::with_trace_spill`]) or accumulate as before. A
//!   retired shard leaves behind one report row and one small WA curve.
//! - **Determinism.** Absorption order is shard-id order regardless of
//!   which worker ran what, so the finished report is byte-identical to
//!   the batch [`crate::FleetReport::from_shards`] path for any worker
//!   count — the property suite (`tests/prop_fleet_stream.rs`) holds
//!   the two in lockstep.
//! - **Checkpointing.** [`FleetSession::run_to`] stops the scheduler at
//!   a shard boundary; [`FleetSession::into_checkpoint`] captures the
//!   merge state and [`FleetSession::resume`] continues it later —
//!   useful when a 10k-shard sweep shares a machine with other work.
//! - **Failure semantics.** The session reports the lowest failing
//!   shard as a typed [`FleetError`], exactly as the batch path's
//!   first-error-in-shard-order did. On a failure the scheduler stops
//!   admitting higher shard ids (they cannot change the answer) but
//!   still finishes everything below the failure, so the reported error
//!   is deterministic.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

use bh_core::OpFailure;
use bh_obs::ObsSnapshot;
use bh_trace::TracedEvent;

use crate::config::FleetConfig;
use crate::engine::{plan_fleet, FleetRun};
use crate::pool::{default_jobs, Pick, StealQueues};
use crate::report::{FleetReportSink, ShardRow};
use crate::shard::{ShardPlan, ShardResult};

/// Per-shard progress callback, fired in shard-id order as rows are
/// absorbed (see [`FleetSession::with_observer`]).
type Observer = Box<dyn FnMut(&ShardRow)>;

/// A shard failed. Carries the shard id and the typed failure;
/// [`std::fmt::Display`] renders the same `shard N: ...` text the
/// engine's stringly errors used to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    /// The failing shard (always the lowest-id failure of the run).
    pub shard: u32,
    /// What went wrong on that shard.
    pub source: ShardFailure,
}

/// Why a shard failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailure {
    /// The shard's plan cannot run: its device spec does not fit its
    /// geometry, or its fault template is out of range (the text says
    /// which). Found when the session plans, before any device is built
    /// or any shard runs.
    InvalidPlan(String),
    /// An operation failed on the shard's device.
    Op(OpFailure),
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailure::InvalidPlan(why) => f.write_str(why),
            ShardFailure::Op(e) => e.fmt(f),
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.source)
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.source {
            ShardFailure::InvalidPlan(_) => None,
            ShardFailure::Op(e) => Some(e),
        }
    }
}

/// The merge-side state a session accumulates as shards retire. Also
/// the payload of a [`FleetCheckpoint`].
#[derive(Debug)]
struct SessionState {
    sink: FleetReportSink,
    obs: ObsSnapshot,
    trace_dropped: u64,
    traces: Vec<(u32, Vec<TracedEvent>)>,
    spilled: Vec<(u32, PathBuf)>,
}

impl SessionState {
    fn empty() -> Self {
        SessionState {
            sink: FleetReportSink::new(),
            obs: ObsSnapshot::default(),
            trace_dropped: 0,
            traces: Vec::new(),
            spilled: Vec::new(),
        }
    }
}

/// A stopped session's merge state, produced by
/// [`FleetSession::into_checkpoint`] and consumed by
/// [`FleetSession::resume`]. Checkpoints are shard-granular: every
/// shard below [`FleetCheckpoint::shards_done`] is fully merged, every
/// shard at or above it has not started.
#[derive(Debug)]
pub struct FleetCheckpoint {
    next: u32,
    state: SessionState,
}

impl FleetCheckpoint {
    /// Shards fully merged into this checkpoint (= the id the resumed
    /// session starts at).
    pub fn shards_done(&self) -> u32 {
        self.next
    }
}

/// Scheduler state shared between the worker threads and the absorbing
/// caller thread, behind one mutex.
struct Sched {
    queues: StealQueues,
    /// Completed shards the frontier has not reached yet, keyed by id.
    /// Bounded by the admission window.
    buffer: BTreeMap<u32, ShardResult>,
    /// Next shard id to absorb.
    frontier: u32,
    /// Lowest-id failure observed so far.
    failed: Option<FleetError>,
    /// A shard run panicked on a worker: the payload, for the caller
    /// thread to re-raise (the shard's result will never arrive).
    panicked: Option<Box<dyn Any + Send>>,
    /// The run is over (success, failure or panic): workers must exit.
    done: bool,
}

/// The streaming fleet engine. Build one from a [`FleetConfig`], then
/// either [`FleetSession::run`] it to completion or step it with
/// [`FleetSession::run_to`] and checkpoint in between.
///
/// ```no_run
/// use bh_fleet::{FleetConfig, FleetSession};
/// use bh_flash::Geometry;
///
/// let cfg = FleetConfig::mixed(1024, Geometry::small_test(), 4096, 7);
/// let run = FleetSession::new(&cfg).with_jobs(8).run().unwrap();
/// assert_eq!(run.report.shards.len(), 1024);
/// ```
pub struct FleetSession {
    plans: Vec<ShardPlan>,
    trace: bool,
    jobs: usize,
    window: u32,
    spill_dir: Option<PathBuf>,
    observer: Option<Observer>,
    next: u32,
    failed: Option<FleetError>,
    state: SessionState,
}

impl FleetSession {
    /// A session over `cfg`'s shard plans, with [`default_jobs`] workers
    /// and the default admission window (`4 × jobs`, floored at 16).
    ///
    /// Every plan is validated here, without building a device. A
    /// session whose config does not fit its geometry is a failed
    /// session from the start: [`FleetSession::run_to`] and
    /// [`FleetSession::run`] return the lowest invalid shard's error and
    /// run nothing.
    pub fn new(cfg: &FleetConfig) -> Self {
        let jobs = default_jobs();
        let plans = plan_fleet(cfg);
        let failed = plans.iter().find_map(|p| {
            let why = p.validate().err()?;
            Some(FleetError {
                shard: p.shard,
                source: ShardFailure::InvalidPlan(why),
            })
        });
        FleetSession {
            plans,
            trace: cfg.trace,
            jobs,
            window: (jobs as u32 * 4).max(16),
            spill_dir: None,
            observer: None,
            next: 0,
            failed,
            state: SessionState::empty(),
        }
    }

    /// Continues a session from a checkpoint taken against the same
    /// config. The caller owns that sameness — the checkpoint stores
    /// merge state, not the config.
    pub fn resume(cfg: &FleetConfig, checkpoint: FleetCheckpoint) -> Self {
        let mut s = FleetSession::new(cfg);
        assert!(
            checkpoint.next as usize <= s.plans.len(),
            "checkpoint covers {} shards but the config plans only {}",
            checkpoint.next,
            s.plans.len(),
        );
        s.next = checkpoint.next;
        s.state = checkpoint.state;
        s
    }

    /// Sets the worker-thread count (clamped to at least 1; the report
    /// does not depend on it).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self.window = self.window.max(self.jobs as u32 * 4);
        self
    }

    /// Sets the admission window: how far past the merge frontier a
    /// shard may start. Larger windows tolerate more shard-duration
    /// skew before workers idle; the reorder buffer holds at most this
    /// many completed shards.
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window.max(1);
        self
    }

    /// Spills each traced shard's events to `dir/shardNNNNN.jsonl` as it
    /// retires (creating `dir` on first run) instead of accumulating
    /// them in memory. The written paths come back in
    /// [`FleetRun::spilled`]; [`FleetRun::traces`] stays empty.
    pub fn with_trace_spill(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Registers a callback invoked on the caller thread with each
    /// shard's report row, in shard-id order, as the merge frontier
    /// passes it — the streaming progress view.
    pub fn with_observer(mut self, f: impl FnMut(&ShardRow) + 'static) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    /// Total shards this session's config plans.
    pub fn shards_total(&self) -> u32 {
        self.plans.len() as u32
    }

    /// Shards fully merged so far.
    pub fn shards_done(&self) -> u32 {
        self.next
    }

    /// Report rows of the shards merged so far, in shard-id order.
    pub fn rows(&self) -> &[ShardRow] {
        self.state.sink.rows()
    }

    /// Fleet-wide counter snapshot over the shards merged so far.
    pub fn obs_so_far(&self) -> &ObsSnapshot {
        &self.state.obs
    }

    /// Runs shards until `limit` of them (clamped to the total) are
    /// merged, then stops at the shard boundary. Calling again with a
    /// larger limit continues; [`FleetSession::into_checkpoint`]
    /// captures the state in between.
    ///
    /// # Errors
    ///
    /// The lowest failing shard's [`FleetError`]. Everything below a
    /// shard whose run failed has been merged when this returns; a
    /// config with an invalid plan fails before anything runs. A failed
    /// session returns the same error from any further call.
    ///
    /// # Panics
    ///
    /// Propagates worker panics (the payload is re-raised on this
    /// thread once the pool has stopped), and panics when a trace spill
    /// directory cannot be created or written. A panic on this thread
    /// while merging (the spill, or the observer callback) stops the
    /// pool before it propagates.
    pub fn run_to(&mut self, limit: u32) -> Result<(), FleetError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let limit = limit.min(self.plans.len() as u32);
        if limit <= self.next {
            return Ok(());
        }
        if let Some(dir) = &self.spill_dir {
            if self.trace {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    panic!("cannot create trace spill dir {}: {e}", dir.display())
                });
            }
        }
        let jobs = self.jobs.clamp(1, (limit - self.next) as usize);
        let window = self.window;
        let sched = Mutex::new(Sched {
            queues: StealQueues::round_robin(self.next..limit, jobs),
            buffer: BTreeMap::new(),
            frontier: self.next,
            failed: None,
            panicked: None,
            done: false,
        });
        let cv = Condvar::new();
        // Disjoint borrows: workers read the plans, the caller thread
        // owns the merge state.
        let plans = &self.plans;
        let keep_traces = self.trace;
        let spill_dir = self.spill_dir.as_deref();
        let state = &mut self.state;
        let observer = &mut self.observer;
        let outcome: Result<(), FleetError> = std::thread::scope(|scope| {
            for w in 0..jobs {
                let sched = &sched;
                let cv = &cv;
                scope.spawn(move || worker_loop(w, window, plans, sched, cv));
            }
            let _stop = StopPoolOnUnwind {
                sched: &sched,
                cv: &cv,
            };
            loop {
                let mut guard = sched.lock().expect("scheduler lock poisoned");
                let next = loop {
                    if let Some(payload) = guard.panicked.take() {
                        drop(guard);
                        resume_unwind(payload);
                    }
                    if guard.frontier == limit {
                        guard.done = true;
                        cv.notify_all();
                        return Ok(());
                    }
                    let frontier = guard.frontier;
                    if let Some(r) = guard.buffer.remove(&frontier) {
                        guard.frontier += 1;
                        cv.notify_all();
                        break r;
                    }
                    if let Some(f) = guard.failed.clone() {
                        if f.shard == guard.frontier {
                            guard.done = true;
                            cv.notify_all();
                            return Err(f);
                        }
                    }
                    guard = cv.wait(guard).expect("scheduler lock poisoned");
                };
                // Merge outside the lock so absorption cost (and trace
                // spill I/O) never blocks the pickers.
                drop(guard);
                absorb(state, next, keep_traces, spill_dir, observer);
            }
        });
        match outcome {
            Ok(()) => {
                self.next = limit;
                Ok(())
            }
            Err(e) => {
                // Shards below the failure were merged; record where we
                // stopped so accessors stay truthful.
                self.next = e.shard;
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Runs every shard and assembles the [`FleetRun`].
    ///
    /// # Errors
    ///
    /// As for [`FleetSession::run_to`].
    pub fn run(mut self) -> Result<FleetRun, FleetError> {
        self.run_to(self.shards_total())?;
        Ok(FleetRun {
            report: self.state.sink.finish(),
            traces: self.state.traces,
            trace_dropped: self.state.trace_dropped,
            obs: self.state.obs,
            spilled: self.state.spilled,
        })
    }

    /// Captures the merge state at the current shard boundary. Feed it
    /// to [`FleetSession::resume`] with the same config to continue.
    pub fn into_checkpoint(self) -> FleetCheckpoint {
        FleetCheckpoint {
            next: self.next,
            state: self.state,
        }
    }
}

/// Held by the caller thread across the merge loop. If that thread
/// unwinds — `absorb` panics on a failed trace spill or inside an
/// observer callback — nobody would ever set `done`: the workers stay
/// parked on the condvar, and `std::thread::scope` waits for them before
/// it lets the panic out. Dropping this during the unwind stops the
/// pool first. It does nothing on a normal return.
struct StopPoolOnUnwind<'a> {
    sched: &'a Mutex<Sched>,
    cv: &'a Condvar,
}

impl Drop for StopPoolOnUnwind<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // A poisoned lock still guards a valid `Sched` (every update
        // under it is a single field store or map insert), and setting
        // a flag cannot make it less so.
        let mut guard = self
            .sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.done = true;
        drop(guard);
        self.cv.notify_all();
    }
}

/// Merges one retired shard on the caller thread: sink row, obs
/// snapshot, and the trace stream (spilled or kept).
fn absorb(
    state: &mut SessionState,
    r: ShardResult,
    keep_traces: bool,
    spill_dir: Option<&Path>,
    observer: &mut Option<Observer>,
) {
    state.sink.absorb(&r);
    state.obs.merge(&r.obs);
    state.trace_dropped += r.trace_dropped;
    if keep_traces {
        if let Some(dir) = spill_dir {
            let path = dir.join(format!("shard{:05}.jsonl", r.shard));
            bh_trace::export::write_jsonl(&path, &r.events).unwrap_or_else(|e| {
                panic!(
                    "shard {}: trace spill to {} failed: {e}",
                    r.shard,
                    path.display()
                )
            });
            state.spilled.push((r.shard, path));
        } else {
            state.traces.push((r.shard, r.events));
        }
    }
    if let Some(f) = observer {
        f(state.sink.rows().last().expect("row just absorbed"));
    }
}

/// One worker: pick an admissible shard, run it unlocked, hand the
/// result (or lowest failure) back, repeat until drained or told to
/// stop.
fn worker_loop(
    worker: usize,
    window: u32,
    plans: &[ShardPlan],
    sched: &Mutex<Sched>,
    cv: &Condvar,
) {
    let mut guard = sched.lock().expect("scheduler lock poisoned");
    loop {
        if guard.done {
            return;
        }
        let frontier = guard.frontier;
        let bound = guard.failed.as_ref().map(|f| f.shard);
        let pick = guard.queues.pick(worker, |k| {
            (k as u64) < frontier as u64 + window as u64 && bound.is_none_or(|b| k < b)
        });
        match pick {
            Pick::Run(k) => {
                drop(guard);
                // The plan is only read, and a panicking run's private
                // state dies with it.
                let outcome = catch_unwind(AssertUnwindSafe(|| plans[k as usize].run()));
                guard = sched.lock().expect("scheduler lock poisoned");
                match outcome {
                    Ok(Ok(r)) => {
                        guard.buffer.insert(k, r);
                    }
                    Ok(Err(source)) => {
                        // Keep only the lowest failure and stop
                        // admitting anything at or above it — it can
                        // no longer change the reported error.
                        if guard.failed.as_ref().is_none_or(|f| k < f.shard) {
                            guard.failed = Some(FleetError {
                                shard: k,
                                source: ShardFailure::Op(source),
                            });
                        }
                        let b = guard.failed.as_ref().expect("just set").shard;
                        guard.queues.retain_below(b);
                    }
                    Err(payload) => {
                        // The merge loop would wait forever for this
                        // shard: stop the pool and let the caller
                        // thread re-raise.
                        guard.panicked.get_or_insert(payload);
                        guard.done = true;
                        cv.notify_all();
                        return;
                    }
                }
                cv.notify_all();
            }
            Pick::Wait => {
                guard = cv.wait(guard).expect("scheduler lock poisoned");
            }
            Pick::Empty => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FleetReport;
    use bh_core::{IoError, IoKind};
    use bh_flash::Geometry;
    use bh_metrics::Nanos;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn quick_cfg(shards: usize) -> FleetConfig {
        let mut cfg = FleetConfig::mixed(shards, Geometry::small_test(), 3 * shards as u32, 0xBEE5);
        cfg.ops_per_shard = 300;
        cfg.sample_every = 100;
        cfg
    }

    /// The batch oracle: plan serially, run serially, merge in one shot.
    fn batch_report(cfg: &FleetConfig) -> String {
        let results: Vec<_> = plan_fleet(cfg).iter().map(|p| p.run().unwrap()).collect();
        FleetReport::from_shards(&results).to_json()
    }

    #[test]
    fn session_report_is_byte_identical_to_the_batch_oracle() {
        let cfg = quick_cfg(6);
        let oracle = batch_report(&cfg);
        for jobs in [1, 4] {
            let run = FleetSession::new(&cfg).with_jobs(jobs).run().unwrap();
            assert_eq!(run.report.to_json(), oracle, "jobs={jobs} diverged");
        }
        // A tiny window serializes the schedule; the report must not care.
        let tight = FleetSession::new(&cfg)
            .with_jobs(4)
            .with_window(1)
            .run()
            .unwrap();
        assert_eq!(tight.report.to_json(), oracle, "window=1 diverged");
    }

    #[test]
    fn checkpoint_resume_matches_one_shot_run() {
        let cfg = quick_cfg(5);
        let one_shot = FleetSession::new(&cfg).with_jobs(2).run().unwrap();
        let oracle = one_shot.report.to_json();
        let mut s = FleetSession::new(&cfg).with_jobs(2);
        s.run_to(2).unwrap();
        assert_eq!(s.shards_done(), 2);
        assert_eq!(s.rows().len(), 2);
        let ckpt = s.into_checkpoint();
        assert_eq!(ckpt.shards_done(), 2);
        let resumed = FleetSession::resume(&cfg, ckpt).with_jobs(3);
        let run = resumed.run().unwrap();
        assert_eq!(run.report.to_json(), oracle);
    }

    #[test]
    fn observer_sees_rows_in_shard_order() {
        let cfg = quick_cfg(4);
        let seen = Arc::new(AtomicU32::new(0));
        let seen2 = seen.clone();
        let run = FleetSession::new(&cfg)
            .with_jobs(4)
            .with_observer(move |row| {
                assert_eq!(row.shard, seen2.fetch_add(1, Ordering::SeqCst));
            })
            .run()
            .unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 4);
        assert_eq!(run.report.shards.len(), 4);
    }

    #[test]
    fn trace_spill_writes_per_shard_jsonl_and_keeps_memory_empty() {
        let mut cfg = quick_cfg(3);
        cfg.trace = true;
        cfg.trace_cap = 1 << 14;
        let dir = std::env::temp_dir().join(format!("bh-fleet-spill-{}", std::process::id()));
        let run = FleetSession::new(&cfg)
            .with_jobs(2)
            .with_trace_spill(&dir)
            .run()
            .unwrap();
        assert!(run.traces.is_empty(), "spilled traces must not accumulate");
        assert_eq!(run.spilled.len(), 3);
        // Spilled files hold exactly what the in-memory path would have.
        let in_mem = FleetSession::new(&cfg).with_jobs(2).run().unwrap();
        for ((shard, path), (mshard, events)) in run.spilled.iter().zip(&in_mem.traces) {
            assert_eq!(shard, mshard);
            let on_disk = std::fs::read_to_string(path).unwrap();
            assert_eq!(on_disk, bh_trace::export::to_jsonl(events));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A shard that panics (here: a plan corrupted after the session
    /// validated it, so the worker's own check fires) must surface as a
    /// panic on the caller, not strand the merge loop waiting for a
    /// result that never arrives.
    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        // On a helper thread, so a hang fails the test instead of it.
        let helper = std::thread::spawn(move || {
            let mut session = FleetSession::new(&quick_cfg(4)).with_jobs(2);
            session.plans[2].spec.geometry = Geometry::experiment(4);
            let outcome = catch_unwind(AssertUnwindSafe(|| session.run().is_ok()));
            tx.send(outcome).ok();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_to hung on a panicking worker");
        helper.join().expect("helper caught the panic");
        let payload = outcome.expect_err("a worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("shard 2: invalid device spec"), "{msg}");
    }

    /// The same geometry as input is refused when the session plans:
    /// a typed error from the caller's thread, and nothing runs.
    #[test]
    fn invalid_plan_fails_the_session_before_any_shard_runs() {
        let cfg = FleetConfig::mixed(4, Geometry::experiment(4), 8, 1);
        let mut s = FleetSession::new(&cfg).with_jobs(2);
        let e = s.run_to(4).unwrap_err();
        assert_eq!(e.shard, 0);
        assert_eq!(
            e.source,
            ShardFailure::InvalidPlan(
                "invalid device spec: reserve exceeds blocks per plane".into()
            )
        );
        assert!(std::error::Error::source(&e).is_none());
        assert_eq!((s.shards_done(), s.rows().len()), (0, 0));
        assert_eq!(s.run().unwrap_err(), e);
    }

    /// A panic on the merging thread (here: the observer callback, on
    /// its second row) must stop the pool. The window of 1 is what makes
    /// the workers park: with shards left to run but none admissible,
    /// they wait on the condvar for a frontier that will never move.
    #[test]
    fn merge_thread_panic_propagates_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let cfg = quick_cfg(8);
            let mut rows = 0;
            let session = FleetSession::new(&cfg)
                .with_jobs(2)
                .with_window(1)
                .with_observer(move |_| {
                    rows += 1;
                    assert!(rows < 2, "observer gives up on row {rows}");
                });
            let outcome = catch_unwind(AssertUnwindSafe(|| session.run().is_ok()));
            tx.send(outcome).ok();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_to hung on a panicking observer");
        helper.join().expect("helper caught the panic");
        let payload = outcome.expect_err("the observer's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("observer gives up on row 2"), "{msg}");
    }

    #[test]
    fn fleet_error_display_matches_the_old_string_format() {
        let source = OpFailure {
            kind: IoKind::Write,
            lba: Some(42),
            at: Nanos::from_nanos(1000),
            error: IoError::OutOfRange {
                lba: 42,
                capacity: 10,
            },
        };
        let e = FleetError {
            shard: 3,
            source: ShardFailure::Op(source.clone()),
        };
        // Exactly the text the pre-session engine produced via
        // `format!("shard {}: {e}", plan.shard)`.
        assert_eq!(e.to_string(), format!("shard 3: {source}"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn run_to_is_idempotent_at_the_boundary() {
        let cfg = quick_cfg(3);
        let mut s = FleetSession::new(&cfg);
        s.run_to(2).unwrap();
        s.run_to(1).unwrap(); // smaller limit: no-op
        assert_eq!(s.shards_done(), 2);
        s.run_to(99).unwrap(); // clamped to the total
        assert_eq!(s.shards_done(), 3);
        let one_shot = FleetSession::new(&cfg).run().unwrap();
        assert_eq!(s.obs_so_far(), &one_shot.obs);
    }
}
