//! The deterministic next-event calendar backing the event-driven
//! engine.
//!
//! The calendar holds every in-flight completion — and through them the
//! slot-free instants a closed-loop pacer asks for — as two parallel
//! vectors sorted by completion instant, **descending**: the instants
//! themselves and the slab slot of each payload. The next event is the
//! last entry, so:
//!
//! - firing is a `pop`;
//! - the k-th smallest instant (`slot_free_at`) is `at[len - 1 - k]`;
//! - "how many events lie past t" (temporal concurrency) and the
//!   insertion point are branchless counts over the pending instants,
//!   of which there are at most the queue depth plus the few the arrival
//!   frontier has not yet retired.
//!
//! **Contract: equal instants fire first-scheduled first.** The key is
//! the instant alone; a new event goes *before* every pending event at
//! its instant, i.e. nearer the front, so it fires after them. The
//! engine schedules in submission order, so ties fire in command-id
//! order — the `(completed, cid)` order of the completion stream —
//! without the command id being part of the key (the engine
//! `debug_assert!`s the precondition).
//!
//! Payloads live in a slab, so an insertion moves 12 bytes per pending
//! entry, never the (much larger) completion records.

use bh_metrics::Nanos;

/// A time-ordered calendar of pending events with slab-stored payloads.
#[derive(Debug)]
pub(crate) struct EventCalendar<T> {
    /// Pending completion instants, descending.
    at: Vec<Nanos>,
    /// The slab slot of each entry of `at`, in the same order.
    slot: Vec<u32>,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        EventCalendar {
            at: Vec::new(),
            slot: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> EventCalendar<T> {
    /// Pending events.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.at.len()
    }

    /// Schedules `value` to fire at `at`, after every pending event at
    /// the same instant.
    #[inline]
    pub(crate) fn schedule(&mut self, at: Nanos, value: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(value);
                s
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        };
        let pos = self.count_after(at);
        self.at.insert(pos, at);
        self.slot.insert(pos, slot);
    }

    /// Fires the next event if it is due at or before `horizon`,
    /// returning its payload.
    #[inline]
    pub(crate) fn pop_through(&mut self, horizon: Nanos) -> Option<T> {
        if *self.at.last()? > horizon {
            return None;
        }
        self.at.pop();
        let slot = self.slot.pop()?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// The `k`-th smallest pending instant (0-based).
    ///
    /// # Panics
    ///
    /// Panics when fewer than `k + 1` events are pending.
    #[inline]
    pub(crate) fn kth_instant(&self, k: usize) -> Nanos {
        self.at[self.at.len() - 1 - k]
    }

    /// Pending events firing strictly after `t`.
    #[inline]
    pub(crate) fn count_after(&self, t: Nanos) -> usize {
        self.at.iter().map(|&a| (a > t) as usize).sum()
    }

    /// Iterates pending payloads in firing order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slot
            .iter()
            .rev()
            .filter_map(|&s| self.slots[s as usize].as_ref())
    }

    /// Removes every pending event, returning payloads in firing order.
    pub(crate) fn drain_ordered(&mut self) -> Vec<T> {
        std::iter::from_fn(|| self.pop_through(Nanos::MAX)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Nanos {
        Nanos::from_nanos(n)
    }

    #[test]
    fn fires_in_timestamp_then_cid_order() {
        // Scheduled in cid order, as the engine does: every tie fires
        // lowest cid first, whatever was scheduled around it.
        let mut cal: EventCalendar<(u64, u64)> = EventCalendar::default();
        let schedule = [30u64, 10, 20, 10, 20, 10];
        for (cid, &at) in schedule.iter().enumerate() {
            cal.schedule(ns(at), (at, cid as u64));
        }
        assert_eq!(cal.len(), 6);
        assert_eq!(cal.kth_instant(0), ns(10));
        let order: Vec<_> = cal.iter().copied().collect();
        assert_eq!(cal.drain_ordered(), order, "iter walks firing order");
        assert_eq!(
            order,
            vec![(10, 1), (10, 3), (10, 5), (20, 2), (20, 4), (30, 0)]
        );
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn pop_through_stops_at_the_horizon() {
        let mut cal: EventCalendar<u64> = EventCalendar::default();
        for at in [40u64, 10, 30, 20] {
            cal.schedule(ns(at), at);
        }
        assert_eq!(cal.pop_through(ns(9)), None);
        assert_eq!(cal.pop_through(ns(20)), Some(10));
        assert_eq!(cal.pop_through(ns(20)), Some(20));
        assert_eq!(cal.pop_through(ns(20)), None);
        assert_eq!(cal.len(), 2);
    }

    #[test]
    fn kth_instant_and_count_after_read_the_sorted_keys() {
        let mut cal: EventCalendar<u64> = EventCalendar::default();
        for at in [50u64, 10, 40, 20, 30] {
            cal.schedule(ns(at), at);
        }
        assert_eq!(cal.kth_instant(0), ns(10));
        assert_eq!(cal.kth_instant(2), ns(30));
        assert_eq!(cal.kth_instant(4), ns(50));
        assert_eq!(cal.count_after(ns(0)), 5);
        assert_eq!(cal.count_after(ns(30)), 2);
        assert_eq!(cal.count_after(ns(50)), 0);
    }

    #[test]
    fn slots_are_recycled_across_fire_schedule_cycles() {
        let mut cal: EventCalendar<u64> = EventCalendar::default();
        for round in 0..2000u64 {
            cal.schedule(ns(round * 10), round);
            if round % 2 == 1 {
                let a = cal.pop_through(Nanos::MAX).unwrap();
                let b = cal.pop_through(Nanos::MAX).unwrap();
                assert_eq!((a, b), (round - 1, round));
            }
        }
        assert_eq!(cal.len(), 0);
        assert!(
            cal.slots.len() <= 4,
            "slab should recycle slots, holds {}",
            cal.slots.len()
        );
    }

    #[test]
    fn interleaved_schedule_and_fire_preserves_global_order() {
        let mut cal: EventCalendar<(u64, u64)> = EventCalendar::default();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        // A deterministic pseudo-random walk: schedule bursts on a
        // coarse grid (so instants tie often), fire some.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut horizon = 0u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let burst = (state >> 60) as usize + 1;
            for _ in 0..burst {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let at = horizon + (state >> 58) * 16;
                cal.schedule(ns(at), (at, seq));
                seq += 1;
            }
            horizon += (state >> 58) + 1;
            while let Some(e) = cal.pop_through(ns(horizon)) {
                fired.push(e);
            }
        }
        fired.extend(cal.drain_ordered());
        assert_eq!(fired.len() as u64, seq);
        assert!(
            fired.windows(2).any(|w| w[0].0 == w[1].0),
            "grid too coarse to force ties"
        );
        for w in fired.windows(2) {
            assert!(w[0] < w[1], "events fired out of (at, seq) order: {w:?}");
        }
    }
}
