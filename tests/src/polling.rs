//! The original per-op polling arbiter, preserved verbatim as the
//! oracle for the event-driven [`bh_queue::QueueEngine`].
//!
//! Every observable the rewritten engine produces — completion order,
//! issue instants, counter increments, gauge sequences, power-cut
//! boundaries — is defined as "whatever this implementation does". The
//! differential suites (`event_lockstep`, `prop_event`) drive both
//! engines over the same submission streams and assert bit-for-bit
//! agreement.
//!
//! It lives test-side because nothing in the library uses it. Unlike
//! the library engine it buffers: submissions wait in a deque until the
//! next pump, and retirements wait in another until the host reaps them.
//! Arrivals clamp to the latest one seen and command ids count up from
//! 0, as in the library engine.
//!
//! Keep this file boring: it should only change when the *semantics*
//! of the queue engine change, never for speed.

use bh_metrics::Nanos;
use bh_obs::{Ctr, Gauge, Obs};
use bh_queue::{IoCompletion, IoRequest};
use std::collections::VecDeque;

/// The reference arbiter: a `BTreeMap`-backed in-flight window stepped
/// once per submission, driven the buffered NVMe way (submit, pump, reap,
/// flush, cut).
#[derive(Debug)]
pub struct PollingEngine<E> {
    depth: usize,
    /// Submitted, not yet dispatched: `(cid, request, arrival)`.
    sq: VecDeque<(u64, IoRequest, Nanos)>,
    next_cid: u64,
    last_arrival: Nanos,
    /// Retired, not yet reaped.
    cq: VecDeque<IoCompletion<E>>,
    /// In-flight ops keyed by `(completed, cid)` — the retirement order
    /// itself. Keys are unique because command ids are.
    inflight: std::collections::BTreeMap<(Nanos, u64), IoCompletion<E>>,
    obs: Obs,
    last_done: Nanos,
    peak_inflight: usize,
}

impl<E> PollingEngine<E> {
    /// An engine holding at most `depth` ops in flight (min 1).
    pub fn new(depth: usize) -> Self {
        PollingEngine {
            depth: depth.max(1),
            sq: VecDeque::new(),
            next_cid: 0,
            last_arrival: Nanos::ZERO,
            cq: VecDeque::new(),
            inflight: std::collections::BTreeMap::new(),
            obs: Obs::disabled(),
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

    /// Submits `req` arriving at `arrival`; returns its command id.
    /// Dispatch happens on the next [`PollingEngine::pump`].
    pub fn submit(&mut self, req: IoRequest, arrival: Nanos) -> u64 {
        self.obs.inc(Ctr::QueueArrivals);
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        let cid = self.next_cid;
        self.next_cid += 1;
        self.sq.push_back((cid, req, arrival));
        cid
    }

    /// The deepest the in-flight window ever got.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_inflight
    }

    /// Ops genuinely occupying the device at instant `t`: issued by
    /// then, completing after it.
    pub fn in_flight_at(&self, t: Nanos) -> u32 {
        self.inflight
            .values()
            .filter(|c| c.issued <= t && c.completed > t)
            .count() as u32
    }

    /// Latest completion instant the device has produced.
    pub fn last_done(&self) -> Nanos {
        self.last_done
    }

    /// Pops the oldest retired completion.
    pub fn reap(&mut self) -> Option<IoCompletion<E>> {
        self.cq.pop_front()
    }

    /// Retires every in-flight op whose completion instant is at or
    /// before `horizon`, in `(completed, cid)` order — the key order, so
    /// each retirement is a first-entry pop.
    fn retire_through(&mut self, horizon: Nanos) {
        while self
            .inflight
            .first_key_value()
            .is_some_and(|(&(completed, _), _)| completed <= horizon)
        {
            let (_, c) = self.inflight.pop_first().expect("checked non-empty");
            self.obs.inc(Ctr::QueueRetirements);
            self.cq.push_back(c);
        }
        self.obs
            .gauge_set(Gauge::QueueInFlight, self.inflight.len() as u64);
    }

    /// Dispatches every pending submission against the device.
    ///
    /// `exec` is the device: called once per request with the issue
    /// instant, it returns the completion instant and the typed result.
    /// Failed ops are normalized to complete at their issue instant.
    pub fn pump(&mut self, mut exec: impl FnMut(&IoRequest, Nanos) -> (Nanos, Result<(), E>)) {
        while let Some((cid, req, arrival)) = self.sq.pop_front() {
            let issued = arrival.max(self.slot_free_at());
            // Retire through the arrival frontier, not the issue
            // instant: arrivals are monotone, so everything retired here
            // completes no later than any future completion — the global
            // `(completed, cid)` order of the completion stream.
            self.retire_through(arrival);
            let (done, result) = exec(&req, issued);
            let completed = if result.is_ok() {
                done.max(issued)
            } else {
                issued
            };
            self.last_done = self.last_done.max(completed);
            let completion = IoCompletion {
                cid,
                req,
                submitted: arrival,
                issued,
                completed,
                result,
            };
            // Peak concurrency is temporal, not bookkeeping: ops whose
            // completion instant has passed the issue instant no longer
            // occupy the device, even if the arrival frontier has not
            // caught up to retire them yet. Keys past `(issued, MAX)`
            // are exactly the ops with `completed > issued`.
            let concurrent = self
                .inflight
                .range((
                    std::ops::Bound::Excluded((issued, u64::MAX)),
                    std::ops::Bound::Unbounded,
                ))
                .count()
                + 1;
            self.peak_inflight = self.peak_inflight.max(concurrent);
            self.obs.gauge_set(Gauge::QueueInFlight, concurrent as u64);
            self.inflight
                .insert((completed, completion.cid), completion);
        }
    }

    /// Quiesces: retires everything in flight, in completion order.
    pub fn flush(&mut self) {
        self.retire_through(Nanos::MAX);
    }

    /// Models the queue side of a power loss at `at`: ops completed by
    /// then stay acked in the completion queue; the rest — in flight or
    /// retired ahead of the clock — come back unacked, in `(completed,
    /// cid)` order. Submissions never pumped are dropped: they never
    /// reached the device.
    pub fn cut(&mut self, at: Nanos) -> Vec<IoCompletion<E>> {
        self.retire_through(at);
        let mut unacked: Vec<IoCompletion<E>> =
            std::mem::take(&mut self.inflight).into_values().collect();
        // The bookkeeping may have retired completions whose instant
        // lies past the cut (the arrival frontier ran ahead of `at`);
        // the host never saw those either.
        let retired = std::mem::take(&mut self.cq);
        for c in retired {
            if c.completed <= at {
                self.cq.push_back(c);
            } else {
                unacked.push(c);
            }
        }
        unacked.sort_by_key(|c| (c.completed, c.cid));
        self.sq.clear();
        unacked
    }

    /// Earliest instant a newly submitted op could issue: [`Nanos::ZERO`]
    /// while the window has room, otherwise the instant the window
    /// drains below depth.
    pub fn slot_free_at(&self) -> Nanos {
        if self.inflight.len() < self.depth {
            return Nanos::ZERO;
        }
        // The `(len - depth)`-th smallest completion instant is the
        // `depth`-th largest key — a short walk from the sorted map's
        // tail, with no scratch vector and no sort.
        self.inflight
            .keys()
            .rev()
            .nth(self.depth - 1)
            .expect("len >= depth")
            .0
    }
}
