//! The deterministic event-driven arbiter between the host and the
//! device model.
//!
//! In-flight completions live in an [`EventCalendar`] — a descending
//! array of completion instants — so the clock advances straight from
//! one event to the next. Retirement pops the calendar's last entry, the
//! closed-loop window arithmetic ([`QueueEngine::slot_free_at`]) is an
//! O(1) read of the k-th instant, and [`QueueEngine::dispatch`] hands
//! retired completions straight to a caller sink. The per-op polling
//! arbiter this replaced lives on in the integration tests
//! (`bh_tests::PollingEngine`), the reference the differential suites
//! hold this engine to, bit for bit.

use crate::calendar::EventCalendar;
use crate::req::{IoCompletion, IoRequest};
use bh_metrics::Nanos;
use bh_obs::{Ctr, Gauge, Obs};

/// A deterministic event-driven arbiter holding up to `depth` ops in
/// flight on a next-event calendar.
///
/// Ops issue in dispatch order, each under a monotonically increasing
/// command id — the tie-breaker that keeps completion order total and
/// runs byte-reproducible. Op `i` issues at `max(arrival_i, instant a
/// window slot frees)`; its completion instant comes back from the
/// device model (ultimately the flash `ResourceModel`'s per-plane free
/// times) and is scheduled on the calendar. In-flight ops retire in
/// ascending `(completed, cid)` order as the *arrival frontier* passes
/// them — safe because arrivals never run backwards, so no future op can
/// issue (let alone complete) before a retired op's completion instant.
/// The completion stream is therefore globally ordered by `(completed,
/// cid)` over the engine's lifetime.
///
/// [`QueueEngine::dispatch`] issues one op and hands the retirements its
/// arrival crosses to a caller-supplied sink; [`QueueEngine::flush_into`]
/// quiesces and [`QueueEngine::cut`] models a power loss.
#[derive(Debug)]
pub struct QueueEngine<E> {
    depth: usize,
    /// The next-event calendar: in-flight ops in retirement order, the
    /// next one last. Ops are scheduled in cid order, so equal
    /// completion instants retire by cid.
    cal: EventCalendar<IoCompletion<E>>,
    /// Live counter registry: arrivals, retirements, in-flight gauge.
    obs: Obs,
    next_cid: u64,
    last_arrival: Nanos,
    last_done: Nanos,
    peak_inflight: usize,
}

impl<E> QueueEngine<E> {
    /// An engine holding at most `depth` ops in flight (min 1).
    pub fn new(depth: usize) -> Self {
        QueueEngine {
            depth: depth.max(1),
            cal: EventCalendar::default(),
            obs: Obs::disabled(),
            next_cid: 0,
            last_arrival: Nanos::ZERO,
            last_done: Nanos::ZERO,
            peak_inflight: 0,
        }
    }

    /// Attaches a live counter registry: arrivals and retirements are
    /// counted, and the in-flight window drives a gauge (with peak).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
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

    /// Dispatches `req`, arriving at `arrival`, and returns its command
    /// id.
    ///
    /// Arrivals are a timeline and must not run backwards; an earlier
    /// instant is clamped to the latest arrival seen. Completions the
    /// arrival frontier passes go to `sink` first, in `(completed, cid)`
    /// order. `exec` is the device: called with the request and its
    /// issue instant, it returns the completion instant and the typed
    /// result. Failed ops are normalized to complete at their issue
    /// instant.
    #[inline]
    pub fn dispatch(
        &mut self,
        req: IoRequest,
        arrival: Nanos,
        exec: impl FnOnce(&IoRequest, Nanos) -> (Nanos, Result<(), E>),
        sink: &mut impl FnMut(IoCompletion<E>),
    ) -> u64 {
        self.obs.inc(Ctr::QueueArrivals);
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        let cid = self.next_cid;
        self.next_cid += 1;
        let issued = arrival.max(self.slot_free_at());
        // Retire through the arrival frontier, not the issue instant:
        // arrivals are monotone, so everything retired here completes no
        // later than any future completion — the global `(completed,
        // cid)` order of the completion stream.
        self.retire_into(arrival, sink);
        let (done, result) = exec(&req, issued);
        let completed = if result.is_ok() {
            done.max(issued)
        } else {
            issued
        };
        self.last_done = self.last_done.max(completed);
        // Peak concurrency is temporal, not bookkeeping: ops whose
        // completion instant has passed the issue instant no longer
        // occupy the device, even if the arrival frontier has not caught
        // up to retire them yet. The count is at most `len + 1`, so it is
        // only taken when it could raise the peak or an attached registry
        // records it.
        if self.cal.len() + 1 > self.peak_inflight || self.obs.enabled_handle() {
            let concurrent = self.cal.count_after(issued) + 1;
            self.peak_inflight = self.peak_inflight.max(concurrent);
            self.obs.gauge_set(Gauge::QueueInFlight, concurrent as u64);
        }
        // The calendar breaks ties by scheduling order; that is cid order
        // only because every op is scheduled in dispatch order.
        debug_assert!(
            self.cal.iter().all(|c| c.cid < cid),
            "cid {cid} scheduled behind a later command"
        );
        let completion = IoCompletion {
            cid,
            req,
            submitted: arrival,
            issued,
            completed,
            result,
        };
        self.cal.schedule(completed, completion);
        cid
    }

    /// Quiesces: hands everything in flight to `sink`, in completion
    /// order. Call at the end of a run or at a burst boundary.
    pub fn flush_into(&mut self, sink: &mut impl FnMut(IoCompletion<E>)) {
        self.retire_into(Nanos::MAX, sink);
    }

    /// Models the queue side of a power loss at `at`: in-flight ops that
    /// completed by then reach `sink` (acknowledged), the rest come back
    /// unacknowledged, in `(completed, cid)` order. A completion the
    /// arrival frontier already delivered past `at` is the host's to
    /// count as unacknowledged.
    pub fn cut(
        &mut self,
        at: Nanos,
        sink: &mut impl FnMut(IoCompletion<E>),
    ) -> Vec<IoCompletion<E>> {
        self.retire_into(at, sink);
        self.cal.drain_ordered()
    }

    /// Earliest instant a newly dispatched op could issue: [`Nanos::ZERO`]
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
        self.cal.kth_instant(len - self.depth)
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
    }

    impl FakeDev {
        fn new(planes: usize, service_ns: u64) -> Self {
            FakeDev {
                plane_free: vec![Nanos::ZERO; planes],
                service: Nanos::from_nanos(service_ns),
                next: 0,
            }
        }

        fn exec(&mut self, _req: &IoRequest, now: Nanos) -> (Nanos, Result<(), String>) {
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

    /// Dispatches `reqs` (request, arrival) against `dev` at depth `qd`,
    /// then flushes; returns every completion in delivery order.
    fn drive(
        dev: &mut FakeDev,
        qd: usize,
        reqs: impl IntoIterator<Item = (IoRequest, Nanos)>,
    ) -> (QueueEngine<String>, Vec<IoCompletion<String>>) {
        let mut eng = QueueEngine::new(qd);
        let mut out = Vec::new();
        for (req, at) in reqs {
            eng.dispatch(req, at, |r, t| dev.exec(r, t), &mut |c| out.push(c));
        }
        eng.flush_into(&mut |c| out.push(c));
        (eng, out)
    }

    #[test]
    fn qd1_serializes_like_a_closed_loop() {
        let mut dev = FakeDev::new(4, 100);
        let (_, done) = drive(&mut dev, 1, (0..4).map(|i| (read(i), Nanos::ZERO)));
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
        let mut done = Vec::new();
        for i in 0..4 {
            eng.dispatch(read(i), Nanos::ZERO, |r, t| dev.exec(r, t), &mut |c| {
                done.push(c)
            });
        }
        assert_eq!(eng.in_flight(), 4);
        assert_eq!(eng.in_flight_at(Nanos::from_nanos(50)), 4);
        assert_eq!(eng.in_flight_at(Nanos::from_nanos(100)), 0);
        eng.flush_into(&mut |c| done.push(c));
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.completed == Nanos::from_nanos(100)));
        assert_eq!(eng.peak_in_flight(), 4);
    }

    #[test]
    fn completion_order_is_completed_then_cid() {
        // 2 planes with different backlogs: op 0 lands on the busy
        // plane and finishes *after* op 1. Retirement must follow
        // completion instants, not dispatch order.
        let mut dev = FakeDev::new(2, 100);
        dev.plane_free[0] = Nanos::from_nanos(500);
        let (_, done) = drive(&mut dev, 2, (0..2).map(|i| (read(i), Nanos::ZERO)));
        assert_eq!(done[0].cid, 1, "earlier completion retires first");
        assert_eq!(done[1].cid, 0);
        assert!(done[0].completed < done[1].completed);
    }

    #[test]
    fn full_window_delays_issue_and_accounts_queue_wait() {
        let mut dev = FakeDev::new(1, 100);
        let (_, done) = drive(&mut dev, 2, (0..3).map(|i| (read(i), Nanos::ZERO)));
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
        let mut done = Vec::new();
        eng.dispatch(
            read(7),
            Nanos::from_nanos(40),
            |_, t| (t, Err("unmapped")),
            &mut |c| done.push(c),
        );
        eng.flush_into(&mut |c| done.push(c));
        let c = &done[0];
        assert_eq!(c.result, Err("unmapped"));
        assert_eq!(c.completed, c.issued);
        assert_eq!(c.service(), Nanos::ZERO);
    }

    #[test]
    fn cut_splits_acked_from_unacked() {
        let mut dev = FakeDev::new(2, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        let mut acked = Vec::new();
        for i in 0..2 {
            eng.dispatch(read(i), Nanos::ZERO, |r, t| dev.exec(r, t), &mut |c| {
                acked.push(c)
            });
        }
        // Power loss at t=100: both in-flight ops completed exactly at
        // 100, so both are acked.
        let unacked = eng.cut(Nanos::from_nanos(100), &mut |c| acked.push(c));
        assert!(unacked.is_empty());
        assert_eq!(acked.len(), 2);
        assert_eq!(eng.in_flight(), 0);

        // Again, but cut mid-flight: nothing acked.
        let mut dev = FakeDev::new(2, 100);
        let mut eng: QueueEngine<String> = QueueEngine::new(2);
        let mut acked = Vec::new();
        eng.dispatch(read(0), Nanos::ZERO, |r, t| dev.exec(r, t), &mut |c| {
            acked.push(c)
        });
        let unacked = eng.cut(Nanos::from_nanos(50), &mut |c| acked.push(c));
        assert_eq!(unacked.len(), 1);
        assert_eq!(unacked[0].cid, 0);
        assert!(acked.is_empty());
    }

    #[test]
    fn cut_acks_completions_at_its_instant_and_not_one_ns_later() {
        let mut eng: QueueEngine<String> = QueueEngine::new(4);
        let mut acked = Vec::new();
        for (lba, done) in [(0, 100), (1, 101), (2, 99)] {
            eng.dispatch(
                read(lba),
                Nanos::ZERO,
                |_, _| (Nanos::from_nanos(done), Ok(())),
                &mut |c| acked.push(c),
            );
        }
        let unacked = eng.cut(Nanos::from_nanos(100), &mut |c| acked.push(c));
        let cids = |cs: &[IoCompletion<String>]| cs.iter().map(|c| c.cid).collect::<Vec<_>>();
        assert_eq!(cids(&acked), [2, 0], "done by the cut instant: acked");
        assert_eq!(cids(&unacked), [1], "1 ns past it: unacknowledged");
        assert_eq!(unacked[0].completed, Nanos::from_nanos(101));
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn determinism_same_submissions_same_completions() {
        let run = || {
            let mut dev = FakeDev::new(3, 70);
            let reqs = (0..64).map(|i| (read(i % 5), Nanos::from_nanos(i * 13)));
            let (_, done) = drive(&mut dev, 8, reqs);
            done.iter()
                .map(|c| (c.cid, c.issued, c.completed))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn completions_are_a_permutation_of_submissions() {
        let mut dev = FakeDev::new(2, 90);
        let n = 50u64;
        let reqs = (0..n).map(|i| (read(i), Nanos::from_nanos(i * 31)));
        let (_, done) = drive(&mut dev, 4, reqs);
        let mut cids: Vec<u64> = done.iter().map(|c| c.cid).collect();
        cids.sort_unstable();
        assert_eq!(cids, (0..n).collect::<Vec<_>>());
    }
}
