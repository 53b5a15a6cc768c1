//! Property tests for the event-driven queue core, driven directly
//! through [`QueueEngine`]'s sink API against synthetic devices whose
//! latency we control exactly — so the properties can force the awkward
//! cases (completion-instant ties, deep windows, arrival bursts) that
//! real stacks only hit by luck.
//!
//! Four invariants, matching the calendar's contract:
//!
//! 1. **No early firing**: a completion is only ever delivered once the
//!    arrival clock has reached its completion instant.
//! 2. **Deterministic ties**: ops completing at the same instant retire
//!    in cid order, identically across runs.
//! 3. **Total order**: the retirement stream is strictly increasing in
//!    `(completed, cid)` under random depths and bursts.
//! 4. **Crash prefix**: `cut(at, sink)` acknowledges exactly the prefix
//!    the preserved polling oracle acknowledges. The engine's host counts
//!    a completion it received later than the cut instant as unacked.
//!
//! The calendar keys on the completion instant alone and relies on
//! cid-ordered scheduling for ties, so the last test stacks ties on
//! purpose: a 100 ns latency grid under open-loop overload, where the
//! calendar holds more events than the depth and the window arithmetic
//! reads past its first instant.

use bh_core::{IoCompletion, IoRequest, QueueEngine};
use bh_metrics::Nanos;
use bh_obs::ObsSnapshot;
use bh_tests::PollingEngine;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A synthetic device: latency is a pure function of the request and
/// the issue instant, so both engines see bit-identical service times
/// without any real stack in the loop.
fn synth_exec(req: &IoRequest, t: Nanos) -> (Nanos, Result<(), String>) {
    let lba = match *req {
        IoRequest::Read { lba } | IoRequest::Write { lba, .. } | IoRequest::Trim { lba } => lba,
        IoRequest::Maintenance => 7,
    };
    // Mix the lba and issue time into a latency in [100ns, 12.8µs);
    // occasionally fail so result plumbing is exercised too.
    let h = lba
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t.as_nanos())
        .rotate_left(17);
    let lat = 100 + (h % 12_700);
    if h % 97 == 0 {
        (t, Err(format!("synthetic fault on lba {lba}")))
    } else {
        (t + Nanos::from_nanos(lat), Ok(()))
    }
}

/// Quantized latency: many distinct ops land on the *same* completion
/// instant, forcing the calendar's cid tie-break constantly.
fn tie_exec(req: &IoRequest, t: Nanos) -> (Nanos, Result<(), String>) {
    let lba = match *req {
        IoRequest::Read { lba } | IoRequest::Write { lba, .. } | IoRequest::Trim { lba } => lba,
        IoRequest::Maintenance => 0,
    };
    // Round the completion up to a coarse 4µs grid.
    let done = (t.as_nanos() + 1 + (lba % 3)).div_ceil(4_000) * 4_000;
    (Nanos::from_nanos(done), Ok(()))
}

fn random_req(rng: &mut SmallRng) -> IoRequest {
    let lba = rng.gen_range(0..4096);
    match rng.gen_range(0..10) {
        0..=5 => IoRequest::Read { lba },
        6..=8 => IoRequest::Write { lba, hint: None },
        _ => IoRequest::Trim { lba },
    }
}

/// Bursty arrival clock: tight intra-burst spacing, occasional long
/// idle gaps — the pattern that makes the event core skip time.
fn advance(rng: &mut SmallRng, arrival: Nanos) -> Nanos {
    if rng.gen_bool(0.07) {
        arrival + Nanos::from_nanos(rng.gen_range(50_000..400_000))
    } else {
        arrival + Nanos::from_nanos(rng.gen_range(0..800))
    }
}

/// Property 1 + 3: under random depths and bursty arrivals, the sink
/// never sees a completion before the clock reaches it, and the stream
/// is strictly increasing in `(completed, cid)`.
#[test]
fn events_never_fire_early_and_retire_in_order() {
    let mut rng = SmallRng::seed_from_u64(0xE4E2);
    for round in 0..8 {
        let qd = rng.gen_range(1..=64);
        let mut engine: QueueEngine<String> = QueueEngine::new(qd);
        let mut arrival = Nanos::ZERO;
        let mut prev: Option<(Nanos, u64)> = None;
        let mut delivered = 0u64;
        let ops = 600u64;
        for _ in 0..ops {
            let req = random_req(&mut rng);
            let frontier = arrival;
            engine.dispatch(req, arrival, synth_exec, &mut |c: IoCompletion<String>| {
                assert!(
                    c.completed <= frontier,
                    "round {round} (qd {qd}): event fired before the clock reached it"
                );
                let key = (c.completed, c.cid);
                assert!(
                    prev.is_none_or(|p| p < key),
                    "round {round} (qd {qd}): retirement broke (completed, cid) order"
                );
                prev = Some(key);
                delivered += 1;
            });
            arrival = advance(&mut rng, arrival);
        }
        engine.flush_into(&mut |c: IoCompletion<String>| {
            let key = (c.completed, c.cid);
            assert!(
                prev.is_none_or(|p| p < key),
                "round {round} (qd {qd}): flush broke (completed, cid) order"
            );
            prev = Some(key);
            delivered += 1;
        });
        assert_eq!(delivered, ops, "round {round}: lost or grew completions");
        assert!(engine.peak_in_flight() <= qd);
    }
}

/// Property 2: ops completing at the same instant retire in ascending
/// cid order, and two identical runs produce the identical stream.
#[test]
fn completion_instant_ties_break_by_cid_deterministically() {
    let run = |seed: u64| -> Vec<IoCompletion<String>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut engine: QueueEngine<String> = QueueEngine::new(32);
        let mut out = Vec::new();
        let mut arrival = Nanos::ZERO;
        for _ in 0..500 {
            let req = random_req(&mut rng);
            engine.dispatch(req, arrival, tie_exec, &mut |c| out.push(c));
            // Near-zero spacing keeps the window full so the 4µs grid
            // stacks many ops on each completion instant.
            arrival += Nanos::from_nanos(rng.gen_range(0..120));
        }
        engine.flush_into(&mut |c| out.push(c));
        out
    };
    let a = run(0x71E5);
    let b = run(0x71E5);
    assert_eq!(a, b, "identical runs must retire identically");
    let mut tied = 0usize;
    for w in a.windows(2) {
        if w[0].completed == w[1].completed {
            tied += 1;
            assert!(
                w[0].cid < w[1].cid,
                "tie at {} retired out of cid order",
                w[0].completed
            );
        }
    }
    assert!(
        tied > 50,
        "grid too coarse to force ties (got {tied}); property untested"
    );
}

/// Differential: the event engine's full completion stream — every
/// field of every completion — equals the polling oracle's, under
/// random depths, request mixes, and bursty arrivals.
#[test]
fn event_engine_matches_polling_oracle_completion_stream() {
    for seed in [0xD1FF_u64, 0xE8, 0xB57] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let qd = rng.gen_range(2..=48);
        let mut script: Vec<(IoRequest, Nanos)> = Vec::new();
        let mut arrival = Nanos::ZERO;
        for _ in 0..700 {
            script.push((random_req(&mut rng), arrival));
            arrival = advance(&mut rng, arrival);
        }

        let mut event: QueueEngine<String> = QueueEngine::new(qd);
        let mut ev_out = Vec::new();
        for &(req, at) in &script {
            event.dispatch(req, at, synth_exec, &mut |c| ev_out.push(c));
        }
        event.flush_into(&mut |c| ev_out.push(c));

        let mut polling: PollingEngine<String> = PollingEngine::new(qd);
        for &(req, at) in &script {
            polling.submit(req, at);
            polling.pump(synth_exec);
        }
        polling.flush();
        let mut po_out = Vec::new();
        while let Some(c) = polling.reap() {
            po_out.push(c);
        }

        assert_eq!(ev_out, po_out, "seed {seed:#x} qd {qd}: streams diverged");
        assert_eq!(event.last_done(), polling.last_done());
        assert_eq!(event.peak_in_flight(), polling.peak_in_flight());
    }
}

/// Property 4: power fails at a random instant mid-window; both engines
/// must acknowledge exactly the same completion prefix and strand the
/// same unacked tail.
#[test]
fn cut_acks_the_same_prefix_as_the_polling_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xC07);
    for round in 0..6 {
        let qd = rng.gen_range(2..=48);
        let ops = rng.gen_range(100..600);
        let mut script: Vec<(IoRequest, Nanos)> = Vec::new();
        let mut arrival = Nanos::ZERO;
        for _ in 0..ops {
            script.push((random_req(&mut rng), arrival));
            arrival = advance(&mut rng, arrival);
        }

        // The event core's host receives completions eagerly through
        // the dispatch sink; the oracle keeps them in its CQ, so its own
        // `cut` decides which ones the host never saw.
        let mut event: QueueEngine<String> = QueueEngine::new(qd);
        let mut received = Vec::new();
        for &(req, at) in &script {
            event.dispatch(req, at, synth_exec, &mut |c| received.push(c));
        }
        let mut polling: PollingEngine<String> = PollingEngine::new(qd);
        for &(req, at) in &script {
            polling.submit(req, at);
            polling.pump(synth_exec);
        }

        // Cut somewhere inside the span both engines have reached.
        let at = Nanos::from_nanos(rng.gen_range(0..=event.last_done().as_nanos()));
        let stranded = event.cut(at, &mut |c| {
            assert!(
                c.completed <= at,
                "round {round}: cut acked a later completion"
            );
            received.push(c)
        });
        let (ev_acked, ev_unacked) = split_at_cut(received, stranded, at);
        let po_unacked = polling.cut(at);
        let po_acked: Vec<_> = std::iter::from_fn(|| polling.reap()).collect();

        assert_eq!(
            ev_acked, po_acked,
            "round {round} qd {qd}: acked prefixes diverged"
        );
        assert_eq!(
            ev_unacked, po_unacked,
            "round {round} qd {qd}: stranded tails diverged"
        );
    }
}

/// The host's view of a power cut at `at`: of the completions it
/// `received` (in delivery order), those completed by `at` stay acked;
/// the rest join the engine's `stranded` ops as unacked. The delivery
/// stream is `(completed, cid)`-ordered and every stranded op completes
/// after it, so both halves come out in that order.
fn split_at_cut(
    mut received: Vec<IoCompletion<String>>,
    stranded: Vec<IoCompletion<String>>,
    at: Nanos,
) -> (Vec<IoCompletion<String>>, Vec<IoCompletion<String>>) {
    assert!(
        stranded.iter().all(|c| c.completed > at),
        "cut stranded an op completed by the cut"
    );
    let mut unacked = received.split_off(received.partition_point(|c| c.completed <= at));
    unacked.extend(stranded);
    (received, unacked)
}

/// Latency on a 100 ns grid. With arrivals on the same grid, every issue
/// and completion instant is a multiple of 100 ns, so completion-instant
/// ties are the rule rather than the exception.
fn grid_exec(req: &IoRequest, t: Nanos) -> (Nanos, Result<(), String>) {
    let lba = match *req {
        IoRequest::Read { lba } | IoRequest::Write { lba, .. } | IoRequest::Trim { lba } => lba,
        IoRequest::Maintenance => 3,
    };
    let h = lba
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t.as_nanos())
        .rotate_left(29);
    if h % 89 == 0 {
        (t, Err(format!("synthetic fault on lba {lba}")))
    } else {
        (t + Nanos::from_nanos(100 * (1 + h % 24)), Ok(()))
    }
}

/// Tie-heavy differential: open-loop overload on a 100 ns grid, then a
/// power cut inside the in-flight window. Completions, peak, both
/// halves of the cut, and the queue counters before and after it must
/// match the oracle.
#[test]
fn tie_heavy_open_loop_matches_the_oracle_through_a_mid_flight_cut() {
    let mut rng = SmallRng::seed_from_u64(0x71E_C07);
    let (mut past_depth, mut ties, mut stranded) = (0usize, 0usize, 0usize);
    for round in 0..12 {
        let qd = rng.gen_range(2..=24);
        let ops = rng.gen_range(200..800);
        let mut script: Vec<(IoRequest, Nanos)> = Vec::new();
        let mut arrival = Nanos::ZERO;
        for _ in 0..ops {
            script.push((random_req(&mut rng), arrival));
            // Open pacing well inside the device's service time: the
            // issue clock runs ahead of the arrival frontier, so ops
            // complete before anything retires them.
            arrival += Nanos::from_nanos(100 * rng.gen_range(0..3));
        }
        let mut event: QueueEngine<String> = QueueEngine::new(qd);
        let mut ev_acked = Vec::new();
        for &(req, at) in &script {
            event.dispatch(req, at, grid_exec, &mut |c| ev_acked.push(c));
            past_depth = past_depth.max(event.in_flight().saturating_sub(qd));
        }
        let mut polling: PollingEngine<String> = PollingEngine::new(qd);
        for &(req, at) in &script {
            polling.submit(req, at);
            polling.pump(grid_exec);
        }
        assert_eq!(
            event.peak_in_flight(),
            polling.peak_in_flight(),
            "round {round} qd {qd}"
        );
        assert_eq!(
            event.last_done(),
            polling.last_done(),
            "round {round} qd {qd}"
        );
        let counters = |event: &QueueEngine<String>| {
            let mut snap = ObsSnapshot::default();
            event.obs_into(&mut snap);
            snap
        };
        assert_eq!(
            counters(&event),
            polling.obs_snapshot(),
            "round {round} qd {qd}: counters diverged in flight"
        );

        let at =
            Nanos::from_nanos(rng.gen_range(arrival.as_nanos()..=event.last_done().as_nanos()));
        let ev_stranded = event.cut(at, &mut |c| {
            assert!(
                c.completed <= at,
                "round {round}: cut acked a later completion"
            );
            ev_acked.push(c)
        });
        let (ev_acked, ev_unacked) = split_at_cut(ev_acked, ev_stranded, at);
        let po_unacked = polling.cut(at);
        let po_acked: Vec<_> = std::iter::from_fn(|| polling.reap()).collect();
        ties += ev_acked
            .windows(2)
            .filter(|w| w[0].completed == w[1].completed)
            .count();
        stranded += ev_unacked.len();
        assert_eq!(
            ev_acked, po_acked,
            "round {round} qd {qd}: acked streams diverged"
        );
        assert_eq!(
            ev_unacked, po_unacked,
            "round {round} qd {qd}: stranded tails diverged"
        );
        assert_eq!(
            counters(&event),
            polling.obs_snapshot(),
            "round {round} qd {qd}: counters diverged"
        );
    }
    assert!(
        past_depth > 0,
        "the calendar never held more than the depth; kth_instant(k > 0) untested"
    );
    assert!(
        ties > 500,
        "only {ties} completion-instant ties; the grid is too fine"
    );
    assert!(stranded > 0, "no cut landed mid-flight");
}
