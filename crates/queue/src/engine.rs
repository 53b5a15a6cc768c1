//! The paired queues and the deterministic event-driven arbiter
//! between them.
//!
//! In-flight completions live in an [`EventCalendar`] — a descending
//! array of completion instants — so the clock advances straight from
//! one event to the next. Retirement pops the calendar's last entry, the
//! closed-loop window arithmetic ([`QueueEngine::slot_free_at`]) is an
//! O(1) read of the k-th instant, and the hot path
//! ([`QueueEngine::dispatch`]) hands retired completions to a caller
//! sink without round-tripping them through the completion queue. The
//! per-op polling arbiter this replaced lives on in the integration
//! tests (`bh_tests::PollingEngine`), the reference the differential
//! suites hold this engine to, bit for bit.

use crate::calendar::EventCalendar;
use crate::req::{IoCompletion, IoRequest};
use bh_metrics::Nanos;
use bh_obs::{Ctr, Gauge, Obs};
use bh_trace::{RunnerEvent, Tracer};

/// One submitted-but-not-yet-dispatched entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Submission {
    cid: u64,
    req: IoRequest,
    /// Earliest instant the op may issue (its arrival).
    arrival: Nanos,
}

/// Accepts typed [`IoRequest`]s in submission order and hands each a
/// monotonically increasing command id — the tie-breaker that keeps
/// completion order total and runs byte-reproducible.
#[derive(Debug, Default)]
pub struct SubmissionQueue {
    entries: std::collections::VecDeque<Submission>,
    next_cid: u64,
    last_arrival: Nanos,
}

impl SubmissionQueue {
    /// An empty queue whose first command id is 0.
    pub fn new() -> Self {
        SubmissionQueue::default()
    }

    /// Enqueues `req`, arriving at `arrival`. Returns the command id.
    ///
    /// Arrivals are a timeline and must not run backwards; an earlier
    /// instant is clamped to the latest arrival seen. This monotonicity
    /// is what lets the arbiter retire completions globally in
    /// `(completed, cid)` order.
    pub fn submit(&mut self, req: IoRequest, arrival: Nanos) -> u64 {
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        let cid = self.next_cid;
        self.next_cid += 1;
        self.entries.push_back(Submission { cid, req, arrival });
        cid
    }

    /// Assigns the next command id and clamped arrival *without*
    /// buffering an entry — the immediate-dispatch path, which skips the
    /// deque round-trip the buffered path pays.
    fn issue_direct(&mut self, arrival: Nanos) -> (u64, Nanos) {
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        let cid = self.next_cid;
        self.next_cid += 1;
        (cid, arrival)
    }

    /// Entries submitted so far (the next command id).
    pub fn submitted(&self) -> u64 {
        self.next_cid
    }

    /// Entries waiting for dispatch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing awaits dispatch.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Retired operations, in completion order: ascending `(completed,
/// cid)`, exactly the order a host reaps NVMe completions.
#[derive(Debug)]
pub struct CompletionQueue<E> {
    retired: std::collections::VecDeque<IoCompletion<E>>,
}

impl<E> Default for CompletionQueue<E> {
    fn default() -> Self {
        CompletionQueue {
            retired: std::collections::VecDeque::new(),
        }
    }
}

impl<E> CompletionQueue<E> {
    /// Pops the oldest retired completion.
    pub fn pop(&mut self) -> Option<IoCompletion<E>> {
        self.retired.pop_front()
    }

    /// Removes and returns every retired completion, oldest first.
    pub fn drain(&mut self) -> Vec<IoCompletion<E>> {
        self.retired.drain(..).collect()
    }

    /// Completions awaiting the host.
    pub fn len(&self) -> usize {
        self.retired.len()
    }

    /// True when no completion awaits the host.
    pub fn is_empty(&self) -> bool {
        self.retired.is_empty()
    }
}

/// What a power loss finds in the engine: everything the device had
/// acknowledged stays acked (it was moved to the completion queue);
/// everything else is returned here so crash tests can check the
/// acked/unacked boundary.
#[derive(Debug)]
pub struct PowerCut<E> {
    /// Ops in flight whose completion instant lay *after* the cut —
    /// never acknowledged; the stack may or may not have persisted
    /// them.
    pub unacked: Vec<IoCompletion<E>>,
    /// Ops still waiting in the submission queue — never reached the
    /// device at all.
    pub unsubmitted: Vec<IoRequest>,
}

/// The engine: a [`SubmissionQueue`], a [`CompletionQueue`], and a
/// deterministic event-driven arbiter holding up to `depth` ops in
/// flight on a next-event calendar.
///
/// The arbiter dispatches in submission order. Op `i` issues at
/// `max(arrival_i, instant a window slot frees)`; its completion
/// instant comes back from the device model (ultimately the flash
/// `ResourceModel`'s per-plane free times) and is scheduled on the
/// calendar. In-flight ops retire in ascending `(completed, cid)` order
/// as the *arrival frontier* passes them — safe because arrivals never
/// run backwards, so no future op can issue (let alone complete) before
/// a retired op's completion instant. The completion stream is
/// therefore globally ordered by `(completed, cid)` over the engine's
/// lifetime.
///
/// Two dispatch surfaces share one arbiter:
///
/// - [`QueueEngine::dispatch`] + [`QueueEngine::flush_into`]: the
///   event-driven hot path; each call dispatches one op and hands
///   retirements straight to a caller-supplied sink, skipping both
///   deques.
/// - [`QueueEngine::submit`] + [`QueueEngine::pump`]: buffered NVMe
///   style — the same sink core with the [`CompletionQueue`] as the
///   sink, for the host to reap.
///
/// Both produce the identical event sequence — the differential suites
/// pin them to the preserved polling original.
#[derive(Debug)]
pub struct QueueEngine<E> {
    depth: usize,
    sq: SubmissionQueue,
    cq: CompletionQueue<E>,
    /// The next-event calendar: in-flight ops in retirement order, the
    /// next one last. Ops are scheduled in cid order, so equal
    /// completion instants retire by cid.
    cal: EventCalendar<IoCompletion<E>>,
    tracer: Tracer,
    /// Live counter registry: arrivals, retirements, in-flight gauge.
    obs: Obs,
    last_done: Nanos,
    peak_inflight: usize,
}

impl<E> QueueEngine<E> {
    /// An engine holding at most `depth` ops in flight (min 1).
    pub fn new(depth: usize) -> Self {
        QueueEngine {
            depth: depth.max(1),
            sq: SubmissionQueue::new(),
            cq: CompletionQueue::default(),
            cal: EventCalendar::default(),
            tracer: Tracer::disabled(),
            obs: Obs::disabled(),
            last_done: Nanos::ZERO,
            peak_inflight: 0,
        }
    }

    /// Attaches a tracer: every dispatched op gets a span id and a
    /// [`RunnerEvent::QueuedOp`] event at its completion instant.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a live counter registry: arrivals and retirements are
    /// counted, and the in-flight window drives a gauge (with peak).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The configured queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submits `req` arriving at `arrival`; returns its command id.
    /// Dispatch happens on the next [`QueueEngine::pump`].
    pub fn submit(&mut self, req: IoRequest, arrival: Nanos) -> u64 {
        self.obs.inc(Ctr::QueueArrivals);
        self.sq.submit(req, arrival)
    }

    /// Commands submitted over the engine's lifetime.
    pub fn submitted(&self) -> u64 {
        self.sq.submitted()
    }

    /// Ops currently in flight (dispatched, not yet retired).
    pub fn in_flight(&self) -> usize {
        self.cal.len()
    }

    /// The deepest the in-flight window ever got.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_inflight
    }

    /// Ops genuinely occupying the device at instant `t`: issued by
    /// then, completing after it.
    pub fn in_flight_at(&self, t: Nanos) -> u32 {
        self.cal
            .iter()
            .filter(|c| c.issued <= t && c.completed > t)
            .count() as u32
    }

    /// Latest completion instant the device has produced.
    pub fn last_done(&self) -> Nanos {
        self.last_done
    }

    /// The completion side of the pair.
    pub fn completions(&mut self) -> &mut CompletionQueue<E> {
        &mut self.cq
    }

    /// Pops the oldest retired completion.
    pub fn pop_completion(&mut self) -> Option<IoCompletion<E>> {
        self.cq.pop()
    }

    /// Retires calendar events at or before `horizon` into the
    /// completion queue: [`QueueEngine::retire_into`] with the queue as
    /// the sink (moved out for the call, since the sink and the engine
    /// are borrowed together).
    fn retire_to_cq(&mut self, horizon: Nanos) {
        let mut cq = std::mem::take(&mut self.cq);
        self.retire_into(horizon, &mut |c| cq.retired.push_back(c));
        self.cq = cq;
    }

    /// Retires calendar events at or before `horizon` into `sink`, in
    /// `(completed, cid)` order.
    #[inline]
    fn retire_into(&mut self, horizon: Nanos, sink: &mut impl FnMut(IoCompletion<E>)) {
        while let Some(c) = self.cal.pop_through(horizon) {
            self.obs.inc(Ctr::QueueRetirements);
            sink(c);
        }
        self.obs
            .gauge_set(Gauge::QueueInFlight, self.cal.len() as u64);
    }

    /// Completes one dispatched submission: normalizes the completion
    /// instant, emits the trace span, accounts temporal concurrency,
    /// and schedules the retirement event on the calendar.
    #[inline]
    fn finish(&mut self, sub: Submission, issued: Nanos, done: Nanos, result: Result<(), E>) {
        let completed = if result.is_ok() {
            done.max(issued)
        } else {
            issued
        };
        self.last_done = self.last_done.max(completed);
        let span = self.tracer.begin_span();
        let completion = IoCompletion {
            cid: sub.cid,
            req: sub.req,
            submitted: sub.arrival,
            issued,
            completed,
            result,
            span,
        };
        if self.tracer.enabled() {
            self.tracer.emit_span(
                completed,
                span,
                RunnerEvent::QueuedOp {
                    cid: completion.cid,
                    queue_wait_ns: completion.queue_wait().as_nanos(),
                    service_ns: completion.service().as_nanos(),
                    ok: completion.ok(),
                },
            );
        }
        // Peak concurrency is temporal, not bookkeeping: ops whose
        // completion instant has passed the issue instant no longer
        // occupy the device, even if the arrival frontier has not
        // caught up to retire them yet. The count is at most `len + 1`,
        // so it is only taken when it could raise the peak or an
        // attached registry records it.
        if self.cal.len() + 1 > self.peak_inflight || self.obs.enabled_handle() {
            let concurrent = self.cal.count_after(issued) + 1;
            self.peak_inflight = self.peak_inflight.max(concurrent);
            self.obs.gauge_set(Gauge::QueueInFlight, concurrent as u64);
        }
        // The calendar breaks ties by scheduling order; that is cid
        // order only because every finish happens in submission order.
        debug_assert!(
            self.cal.iter().all(|c| c.cid < completion.cid),
            "cid {} scheduled behind a later command",
            completion.cid
        );
        self.cal.schedule(completed, completion);
    }

    /// Dispatches every buffered submission, in submission order,
    /// handing retirements crossed by each arrival to `sink`.
    #[inline]
    fn drain_sq(
        &mut self,
        exec: &mut impl FnMut(&IoRequest, Nanos) -> (Nanos, Result<(), E>),
        sink: &mut impl FnMut(IoCompletion<E>),
    ) {
        while let Some(sub) = self.sq.entries.pop_front() {
            let issued = sub.arrival.max(self.slot_free_at());
            // Retire through the arrival frontier, not the issue
            // instant: arrivals are monotone, so everything retired here
            // completes no later than any future completion — the global
            // `(completed, cid)` order of the completion stream.
            self.retire_into(sub.arrival, sink);
            let (done, result) = exec(&sub.req, issued);
            self.finish(sub, issued, done, result);
        }
    }

    /// Dispatches every pending submission against the device;
    /// retirements land in the completion queue.
    ///
    /// `exec` is the device: called once per request with the issue
    /// instant, it returns the completion instant and the typed result.
    /// Failed ops are normalized to complete at their issue instant.
    pub fn pump(&mut self, mut exec: impl FnMut(&IoRequest, Nanos) -> (Nanos, Result<(), E>)) {
        let mut cq = std::mem::take(&mut self.cq);
        self.drain_sq(&mut exec, &mut |c| cq.retired.push_back(c));
        self.cq = cq;
    }

    /// Dispatches `req` immediately — the event-driven hot path.
    ///
    /// Equivalent to `submit(req, arrival)` followed by `pump(exec)`,
    /// except that retirements crossed by the arrival frontier go to
    /// `sink` instead of the completion queue, and the submission never
    /// touches the deque. Any entries still buffered from
    /// [`QueueEngine::submit`] are dispatched first (their retirements
    /// also reach `sink`), preserving submission order. Returns the
    /// command id.
    #[inline]
    pub fn dispatch(
        &mut self,
        req: IoRequest,
        arrival: Nanos,
        mut exec: impl FnMut(&IoRequest, Nanos) -> (Nanos, Result<(), E>),
        sink: &mut impl FnMut(IoCompletion<E>),
    ) -> u64 {
        self.obs.inc(Ctr::QueueArrivals);
        if !self.sq.is_empty() {
            self.drain_sq(&mut exec, sink);
        }
        let (cid, arrival) = self.sq.issue_direct(arrival);
        let sub = Submission { cid, req, arrival };
        let issued = arrival.max(self.slot_free_at());
        self.retire_into(arrival, sink);
        let (done, result) = exec(&sub.req, issued);
        self.finish(sub, issued, done, result);
        cid
    }

    /// Quiesces: retires everything in flight, in completion order.
    /// Call at the end of a run (or at a burst boundary) before reaping
    /// the completion queue.
    pub fn flush(&mut self) {
        self.retire_to_cq(Nanos::MAX);
    }

    /// Quiesces like [`QueueEngine::flush`], but hands the retirements
    /// to `sink` — the event-driven counterpart for drains and burst
    /// boundaries.
    pub fn flush_into(&mut self, sink: &mut impl FnMut(IoCompletion<E>)) {
        self.retire_into(Nanos::MAX, sink);
    }

    /// Models the queue side of a power loss at `at`: ops completed by
    /// then stay acked in the completion queue, the rest — in flight,
    /// retired ahead of the clock, or never dispatched — come back in
    /// the [`PowerCut`].
    pub fn cut(&mut self, at: Nanos) -> PowerCut<E> {
        self.retire_to_cq(at);
        let mut unacked: Vec<IoCompletion<E>> = self.cal.drain_ordered();
        // The bookkeeping may have retired completions whose instant
        // lies past the cut (the arrival frontier ran ahead of `at`);
        // the host never saw those either.
        let retired = std::mem::take(&mut self.cq.retired);
        for c in retired {
            if c.completed <= at {
                self.cq.retired.push_back(c);
            } else {
                unacked.push(c);
            }
        }
        unacked.sort_by_key(|c| (c.completed, c.cid));
        let unsubmitted = self.sq.entries.drain(..).map(|s| s.req).collect();
        PowerCut {
            unacked,
            unsubmitted,
        }
    }

    /// Earliest instant a newly submitted op could issue: [`Nanos::ZERO`]
    /// while the window has room, otherwise the instant the window
    /// drains below depth. The calendar may hold ops that have already
    /// completed (retirement trails the arrival frontier), so the window
    /// occupancy at `t` is the count of ops completing *after* `t`: the
    /// slot frees at the `(len - depth)`-th smallest completion instant.
    /// A closed-loop pacer uses this as the next arrival — "submit when
    /// a slot frees" — which generalizes QD-1 closed-loop pacing to any
    /// depth.
    pub fn slot_free_at(&self) -> Nanos {
        let len = self.cal.len();
        if len < self.depth {
            return Nanos::ZERO;
        }
        // The `(len - depth)`-th smallest completion instant, read
        // straight off the sorted calendar.
        self.cal.kth_instant(len - self.depth)
    }

    /// True when dispatching a full window would stall past `horizon`.
    /// Lets a pacing loop decide whether a new arrival would queue.
    pub fn would_wait(&self, horizon: Nanos) -> bool {
        self.slot_free_at() > horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake device: every op takes `service` ns on one of `planes`
    /// round-robin "planes", each serving one op at a time — a
    /// miniature of the flash resource model.
    struct FakeDev {
        plane_free: Vec<Nanos>,
        service: Nanos,
        next: usize,
        calls: Vec<(IoRequest, Nanos)>,
    }

    impl FakeDev {
        fn new(planes: usize, service_ns: u64) -> Self {
            FakeDev {
                plane_free: vec![Nanos::ZERO; planes],
                service: Nanos::from_nanos(service_ns),
                next: 0,
                calls: Vec::new(),
            }
        }

        fn exec(&mut self, req: &IoRequest, now: Nanos) -> (Nanos, Result<(), String>) {
            self.calls.push((*req, now));
            let p = self.next;
            self.next = (self.next + 1) % self.plane_free.len();
            let start = now.max(self.plane_free[p]);
            let done = start + self.service;
            self.plane_free[p] = done;
            (done, Ok(()))
        }
    }

    fn read(lba: u64) -> IoRequest {
        IoRequest::Read { lba }
    }

    #[test]
    fn qd1_serializes_like_a_closed_loop() {
        let mut dev = FakeDev::new(4, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(1);
        for i in 0..4 {
            eng.submit(read(i), Nanos::ZERO);
        }
        eng.pump(|r, t| dev.exec(r, t));
        eng.flush();
        let done: Vec<_> = eng.completions().drain();
        assert_eq!(done.len(), 4);
        // Each op issues when the previous completes.
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.issued, Nanos::from_nanos(100 * i as u64));
            assert_eq!(c.completed, Nanos::from_nanos(100 * (i + 1) as u64));
        }
    }

    #[test]
    fn higher_depth_exploits_plane_parallelism() {
        // 4 planes, QD 4: all four ops run concurrently.
        let mut dev = FakeDev::new(4, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(4);
        for i in 0..4 {
            eng.submit(read(i), Nanos::ZERO);
        }
        eng.pump(|r, t| dev.exec(r, t));
        assert_eq!(eng.in_flight(), 4);
        assert_eq!(eng.in_flight_at(Nanos::from_nanos(50)), 4);
        assert_eq!(eng.in_flight_at(Nanos::from_nanos(100)), 0);
        eng.flush();
        let done = eng.completions().drain();
        assert!(done.iter().all(|c| c.completed == Nanos::from_nanos(100)));
        assert_eq!(eng.peak_in_flight(), 4);
    }

    #[test]
    fn completion_order_is_completed_then_cid() {
        // 2 planes with different backlogs: op 0 lands on the busy
        // plane and finishes *after* op 1. Retirement must follow
        // completion instants, not submission order.
        let mut dev = FakeDev::new(2, 100);
        dev.plane_free[0] = Nanos::from_nanos(500);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        eng.submit(read(0), Nanos::ZERO);
        eng.submit(read(1), Nanos::ZERO);
        eng.pump(|r, t| dev.exec(r, t));
        eng.flush();
        let done = eng.completions().drain();
        assert_eq!(done[0].cid, 1, "earlier completion retires first");
        assert_eq!(done[1].cid, 0);
        assert!(done[0].completed < done[1].completed);
    }

    #[test]
    fn full_window_delays_issue_and_accounts_queue_wait() {
        let mut dev = FakeDev::new(1, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        for i in 0..3 {
            eng.submit(read(i), Nanos::ZERO);
        }
        eng.pump(|r, t| dev.exec(r, t));
        eng.flush();
        let done = eng.completions().drain();
        // One plane: service is fully serial; the third op waited for
        // a queue slot (freed when op 0 completed at 100).
        let third = done.iter().find(|c| c.cid == 2).unwrap();
        assert_eq!(third.issued, Nanos::from_nanos(100));
        assert_eq!(third.queue_wait(), Nanos::from_nanos(100));
        assert_eq!(third.completed, Nanos::from_nanos(300));
    }

    #[test]
    fn errors_complete_at_issue_and_carry_the_result() {
        let mut eng: QueueEngine<&'static str> = QueueEngine::new(2);
        eng.submit(read(7), Nanos::from_nanos(40));
        eng.pump(|_, t| (t, Err("unmapped")));
        eng.flush();
        let c = eng.pop_completion().unwrap();
        assert_eq!(c.result, Err("unmapped"));
        assert_eq!(c.completed, c.issued);
        assert_eq!(c.service(), Nanos::ZERO);
    }

    #[test]
    fn cut_splits_acked_from_unacked_and_unsubmitted() {
        let mut dev = FakeDev::new(2, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        for i in 0..2 {
            eng.submit(read(i), Nanos::ZERO);
        }
        eng.pump(|r, t| dev.exec(r, t));
        eng.submit(read(2), Nanos::ZERO); // never dispatched
                                          // Power loss at t=100: both in-flight ops completed exactly at
                                          // 100, so both are acked; the pending one never ran.
        let cut = eng.cut(Nanos::from_nanos(100));
        assert!(cut.unacked.is_empty());
        assert_eq!(cut.unsubmitted, vec![read(2)]);
        assert_eq!(eng.completions().len(), 2);

        // Again, but cut mid-flight: nothing acked.
        let mut dev = FakeDev::new(2, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        eng.submit(read(0), Nanos::ZERO);
        eng.pump(|r, t| dev.exec(r, t));
        let cut = eng.cut(Nanos::from_nanos(50));
        assert_eq!(cut.unacked.len(), 1);
        assert_eq!(cut.unacked[0].cid, 0);
        assert!(eng.completions().is_empty());
    }

    #[test]
    fn determinism_same_submissions_same_completions() {
        let run = || {
            let mut dev = FakeDev::new(3, 70);
            let mut eng: QueueEngine<String> = QueueEngine::new(8);
            for i in 0..64 {
                eng.submit(read(i % 5), Nanos::from_nanos(i * 13));
            }
            eng.pump(|r, t| dev.exec(r, t));
            eng.flush();
            eng.completions()
                .drain()
                .iter()
                .map(|c| (c.cid, c.issued, c.completed))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn completions_are_a_permutation_of_submissions() {
        let mut dev = FakeDev::new(2, 90);
        let mut eng: QueueEngine<String> = QueueEngine::new(4);
        let n = 50u64;
        for i in 0..n {
            eng.submit(read(i), Nanos::from_nanos(i * 31));
        }
        eng.pump(|r, t| dev.exec(r, t));
        eng.flush();
        let mut cids: Vec<u64> = eng.completions().drain().iter().map(|c| c.cid).collect();
        cids.sort_unstable();
        assert_eq!(cids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_sink_matches_submit_pump_reap() {
        // The hot path must be observationally identical to the
        // buffered path: same issue/completion instants, same
        // retirement order, just delivered through the sink.
        let drive_buffered = || {
            let mut dev = FakeDev::new(3, 80);
            let mut eng: QueueEngine<String> = QueueEngine::new(4);
            for i in 0..40u64 {
                eng.submit(read(i % 7), Nanos::from_nanos(i * 23));
                eng.pump(|r, t| dev.exec(r, t));
            }
            eng.flush();
            eng.completions()
                .drain()
                .iter()
                .map(|c| (c.cid, c.issued, c.completed))
                .collect::<Vec<_>>()
        };
        let drive_sink = || {
            let mut dev = FakeDev::new(3, 80);
            let mut eng: QueueEngine<String> = QueueEngine::new(4);
            let mut out = Vec::new();
            let mut sink = |c: IoCompletion<String>| out.push((c.cid, c.issued, c.completed));
            for i in 0..40u64 {
                eng.dispatch(
                    read(i % 7),
                    Nanos::from_nanos(i * 23),
                    |r, t| dev.exec(r, t),
                    &mut sink,
                );
            }
            eng.flush_into(&mut sink);
            out
        };
        assert_eq!(drive_buffered(), drive_sink());
    }

    #[test]
    fn dispatch_drains_buffered_submissions_first() {
        let mut dev = FakeDev::new(2, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        eng.submit(read(0), Nanos::ZERO);
        eng.submit(read(1), Nanos::ZERO);
        let mut out = Vec::new();
        let cid = eng.dispatch(
            read(2),
            Nanos::from_nanos(500),
            |r, t| dev.exec(r, t),
            &mut |c: IoCompletion<String>| out.push(c.cid),
        );
        assert_eq!(cid, 2, "buffered entries keep earlier command ids");
        // The frontier at 500 passed both earlier completions (t=100).
        assert_eq!(out, vec![0, 1]);
        eng.flush_into(&mut |c| out.push(c.cid));
        assert_eq!(out, vec![0, 1, 2]);
    }
}
