//! Cross-layer trace consistency: the instrumentation must agree with
//! the devices it observes.
//!
//! Three properties anchor the tracing subsystem:
//!
//! 1. GC episodes recorded by the conventional FTL pair up (every begin
//!    has its end) and carry monotone virtual timestamps.
//! 2. Replaying the recorded ZNS zone transitions reproduces exactly the
//!    zone states the device itself reports at the end of the run.
//! 3. Disabled tracing records nothing, and the bounded ring degrades by
//!    dropping its oldest events — never by panicking or growing.

use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::Nanos;
use bh_trace::replay;
use bh_trace::{CacheEvent, Event, Tracer, ZoneStateTag};
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZoneState, ZonedDevice};

fn churn_conv(tracer: Tracer) -> ConvSsd {
    let mut ssd = ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap();
    ssd.set_tracer(tracer);
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).unwrap().done;
    }
    // Overwrite enough to force garbage collection.
    let mut x = 7u64;
    for _ in 0..3 * cap {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        t = ssd.write(x % cap, t).unwrap().done;
    }
    ssd
}

/// (a) Every GC begin has a matching end, and timestamps are monotone.
#[test]
fn gc_spans_are_balanced_with_monotone_time() {
    let tracer = Tracer::ring(1 << 20);
    let ssd = churn_conv(tracer.clone());
    let events = tracer.events();
    let episodes = replay::gc_episodes(&events).expect("consistent begin/end pairing");
    assert!(!episodes.is_empty(), "churn must have triggered GC");
    let mut last_begin = Nanos::ZERO;
    let mut closed = 0u64;
    for ep in &episodes {
        // GC is paced, so at most one victim per plane is still in
        // flight when the run stops; every other episode is closed.
        if let Some(end) = ep.end {
            assert!(end >= ep.begin, "episode ends after it begins");
            // Host writes during a paced episode can invalidate pages
            // the begin event promised, never add to them.
            assert!(ep.pages_copied <= ep.valid, "GC copies at most `valid`");
            closed += 1;
        }
        assert!(ep.begin >= last_begin, "episodes begin in time order");
        last_begin = ep.begin;
    }
    // Closed episodes end by erasing their victim; the device's own
    // erase counter must agree exactly.
    assert_eq!(closed, ssd.ftl_stats().gc_erases);
    assert!(
        episodes.len() as u64 - closed <= 4,
        "one open victim per plane"
    );
}

/// (b) Replaying recorded zone transitions reproduces the device state.
#[test]
fn zns_transitions_replay_to_reported_zone_states() {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let mut dev = ZnsDevice::new(cfg).unwrap();
    let tracer = Tracer::ring(1 << 20);
    dev.set_tracer(tracer.clone());
    let zone_pages = dev.zone(ZoneId(0)).unwrap().capacity();
    let mut t = Nanos::ZERO;
    // Exercise the state machine: fill two zones, partially write one,
    // explicitly open one, close it, and reset a full one.
    for z in [0u32, 1] {
        for p in 0..zone_pages {
            t = dev.write(ZoneId(z), p, 1, t).unwrap();
        }
    }
    for p in 0..zone_pages / 2 {
        t = dev.write(ZoneId(2), p, 2, t).unwrap();
    }
    dev.open(ZoneId(3)).unwrap();
    dev.close(ZoneId(3)).unwrap();
    t = dev.reset(ZoneId(1), t).unwrap();
    let _ = t;

    let replayed = replay::zone_states(&tracer.events());
    for z in dev.zones() {
        let reported = match z.state() {
            ZoneState::Empty => ZoneStateTag::Empty,
            ZoneState::ImplicitlyOpened => ZoneStateTag::ImplicitlyOpened,
            ZoneState::ExplicitlyOpened => ZoneStateTag::ExplicitlyOpened,
            ZoneState::Closed => ZoneStateTag::Closed,
            ZoneState::Full => ZoneStateTag::Full,
            ZoneState::ReadOnly => ZoneStateTag::ReadOnly,
            ZoneState::Offline => ZoneStateTag::Offline,
        };
        // Untouched zones never transitioned and stay out of the replay.
        let replayed_state = replayed
            .get(&z.id().0)
            .copied()
            .unwrap_or(ZoneStateTag::Empty);
        assert_eq!(replayed_state, reported, "zone {}", z.id().0);
    }
    // The run above touched zones 0..=3 and must have recorded them.
    assert!(replayed.len() >= 4);
}

/// (c) The null sink records nothing; the ring drops oldest, no panic.
#[test]
fn null_sink_records_nothing_and_ring_drops_oldest() {
    // Disabled tracer through a full device run: zero events, no cost.
    let tracer = Tracer::disabled();
    let _ssd = churn_conv(tracer.clone());
    assert!(!tracer.enabled());
    assert_eq!(tracer.len(), 0);
    assert_eq!(tracer.dropped(), 0);
    assert!(tracer.events().is_empty());

    // A tiny ring under the same churn keeps only the newest window.
    let small = Tracer::ring(64);
    let _ssd = churn_conv(small.clone());
    assert_eq!(small.len(), 64);
    assert!(small.dropped() > 0, "churn overflows a 64-slot ring");
    let events = small.events();
    assert_eq!(events.len(), 64);
    // Retained events are the most recent: sequence numbers are the tail
    // of the full stream and strictly increasing.
    let total = small.dropped() + 64;
    assert_eq!(events.last().unwrap().seq, total - 1, "seq starts at zero");
    for w in events.windows(2) {
        assert!(w[1].seq > w[0].seq);
    }

    // Overflow keeps accepting writes of every event family.
    for i in 0..200u64 {
        small.emit(Nanos::from_nanos(i), CacheEvent::Evict { pages: i });
    }
    assert_eq!(small.len(), 64);
    assert!(matches!(
        small.events().last().unwrap().event,
        Event::Cache(CacheEvent::Evict { pages: 199 })
    ));
}
