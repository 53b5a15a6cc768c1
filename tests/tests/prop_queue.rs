//! Property tests for the queue engine against real device stacks:
//! completions are always a permutation of submissions, retired in the
//! deterministic `(completed, cid)` order, and an acknowledged write is
//! never lost across a power cycle.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{exec_request, IoError, IoRequest, QueueEngine, Runner, StackAdmin};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// At any queue depth, the completion stream is a permutation of the
/// submission stream: every cid exactly once, retired in `(completed,
/// cid)` order, with sane per-op instants.
#[test]
fn completions_are_a_permutation_of_submissions_at_any_depth() {
    let mut rng = SmallRng::seed_from_u64(0x9E12);
    for round in 0..6 {
        let qd = rng.gen_range(1..=64);
        let mut dev = conv_stack();
        let start = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
        let cap = dev.capacity_pages();

        let mut engine: QueueEngine<IoError> = QueueEngine::new(qd);
        let ops = 400u64;
        let mut arrival = start;
        let mut done = Vec::new();
        for _ in 0..ops {
            let lba = rng.gen_range(0..cap);
            let req = match rng.gen_range(0..10) {
                0..=5 => IoRequest::Read { lba },
                6..=8 => IoRequest::Write { lba, hint: None },
                _ => IoRequest::Trim { lba },
            };
            engine.dispatch(
                req,
                arrival,
                |req, t| exec_request(dev.as_mut(), req, t),
                &mut |c| done.push(c),
            );
            arrival += Nanos::from_nanos(rng.gen_range(0..50_000));
        }
        engine.flush_into(&mut |c| done.push(c));

        let mut seen = vec![false; ops as usize];
        let mut prev: Option<(Nanos, u64)> = None;
        let mut drained = 0u64;
        for c in done {
            drained += 1;
            let i = c.cid as usize;
            assert!(i < ops as usize, "round {round}: cid out of range");
            assert!(!seen[i], "round {round}: cid {i} completed twice");
            seen[i] = true;
            assert!(
                c.issued >= c.submitted,
                "round {round}: issued before arrival"
            );
            assert!(
                c.completed >= c.issued,
                "round {round}: completed before issue"
            );
            let key = (c.completed, c.cid);
            if let Some(p) = prev {
                assert!(
                    p < key,
                    "round {round}: retirement order broke (completed, cid)"
                );
            }
            prev = Some(key);
        }
        assert_eq!(
            drained, ops,
            "round {round} (qd {qd}): lost or grew completions"
        );
        assert!(
            seen.iter().all(|&s| s),
            "round {round}: some cid never completed"
        );
        assert!(
            engine.peak_in_flight() <= qd,
            "round {round}: window overflowed its depth"
        );
    }
}

/// An acknowledged write — delivered to the host with a completion
/// instant at or before the power loss — is still readable after the
/// stack recovers. Unacked writes (still in flight, or delivered with a
/// later completion instant) may or may not survive; that is the
/// crash-consistency boundary the engine's `cut` models.
#[test]
fn no_acked_write_is_lost_across_power_cycle() {
    for (label, mk) in [
        ("conventional", conv_stack as fn() -> Box<dyn StackAdmin>),
        ("zns+blockemu", zns_stack as fn() -> Box<dyn StackAdmin>),
    ] {
        let mut rng = SmallRng::seed_from_u64(0xACDC);
        for qd in [2usize, 8, 32] {
            let mut dev = mk();
            let start = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
            let cap = dev.capacity_pages();

            let mut engine: QueueEngine<IoError> = QueueEngine::new(qd);
            let mut arrival = start;
            let mut received = Vec::new();
            for _ in 0..300 {
                let lba = rng.gen_range(0..cap);
                engine.dispatch(
                    IoRequest::Write { lba, hint: None },
                    arrival,
                    |req, t| exec_request(dev.as_mut(), req, t),
                    &mut |c| received.push(c),
                );
                arrival += Nanos::from_nanos(2_000);
            }

            // Power fails midway through the in-flight window: half the
            // virtual span since the run started is gone.
            let at =
                start + Nanos::from_nanos(engine.last_done().saturating_sub(start).as_nanos() / 2);
            let stranded = engine.cut(at, &mut |c| {
                assert!(
                    c.completed <= at,
                    "{label} qd {qd}: cut acked a completion after the cut"
                );
                received.push(c);
            });

            let mut acked = Vec::new();
            for c in received.iter().filter(|c| c.completed <= at) {
                if c.ok() {
                    if let IoRequest::Write { lba, .. } = c.req {
                        acked.push(lba);
                    }
                }
            }
            assert!(
                !acked.is_empty(),
                "{label} qd {qd}: cut too early to test anything"
            );
            for c in &stranded {
                assert!(
                    c.completed > at,
                    "{label} qd {qd}: unacked op had completed before the cut"
                );
            }

            let (recovered_at, _scanned) = dev.power_cycle(at).unwrap();
            for &lba in &acked {
                dev.read(lba, recovered_at).unwrap_or_else(|e| {
                    panic!("{label} qd {qd}: acked write of LBA {lba} lost after power cycle: {e}")
                });
            }
        }
    }
}
