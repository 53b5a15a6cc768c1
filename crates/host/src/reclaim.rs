//! The host reclaim core (§4.1: with ZNS, garbage collection is the
//! host's job). `ZonedLfs`, `ObjectStore` and bh-kv's `ZnsBackend`
//! relocate by entry through a [`ZoneLedger`]; `BlockEmu` relocates by
//! bitmap, moving its map and live bits chunk by chunk, so it takes only
//! [`garbage`] and [`pick`].

use crate::error::HostError;
use crate::zalloc::{LifetimeClass, ZoneAllocator, ZonedLocation};
use crate::Result;
use bh_metrics::Nanos;
use bh_zns::backend::ZonedDevice;
use bh_zns::{Zone, ZoneId, ZoneState};

/// Which of several equal-garbage victims [`pick`] takes. Each stack
/// keeps the tie it was built with: the reports built on it depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tie {
    /// The last in zone-id order.
    HighestId,
    /// The first in zone-id order.
    LowestId,
}

/// Garbage pages of Full zone `z`: everything below the write pointer
/// that is neither among its `live` pages nor burned. A burned slot
/// never held data, so a zone whose only dead slots are burns has no
/// garbage and is no victim.
#[inline]
pub fn garbage(z: &Zone, live: u64) -> u64 {
    z.write_pointer() - live - u64::from(z.burned())
}

/// The Full zone with the most [`garbage`], at least `min_garbage`,
/// that `eligible` admits and whose `live` pages (by zone id) fit in
/// `room`; of equals, the one `tie` names. One pass, the cheap garbage
/// test first: a device with no free zone can pick on most writes.
#[inline]
pub fn pick(
    zones: &[Zone],
    live: &[u64],
    room: u64,
    min_garbage: u64,
    tie: Tie,
    eligible: impl Fn(ZoneId) -> bool,
) -> Option<ZoneId> {
    let mut best: Option<(u64, ZoneId)> = None;
    for z in zones {
        if z.state() != ZoneState::Full {
            continue;
        }
        let (id, live) = (z.id(), live[z.id().0 as usize]);
        let garbage = garbage(z, live);
        let beaten = |(most, _)| garbage < most || (garbage == most && tie == Tie::LowestId);
        if garbage < min_garbage || best.is_some_and(beaten) {
            continue;
        }
        if eligible(id) && live <= room {
            best = Some((garbage, id));
        }
    }
    best.map(|(_, id)| id)
}

/// A live entry: its owner's record of the page's location (the ledger
/// updates it), and the class, stamp and instant to re-append it with.
pub type Survivor<'a> = (&'a mut ZonedLocation, LifetimeClass, u64, Nanos);

/// How a stack that relocates by entry judges one registry entry.
pub trait Relocate<D> {
    /// The owner of an entry: an inode, object or file.
    type Key: Copy;

    /// The [`Survivor`] if page `index` of `key` still lives at `at`. A
    /// stack that reads the page back charges that read from `now`.
    fn survivor(
        &mut self,
        dev: &mut D,
        key: Self::Key,
        index: u64,
        at: ZonedLocation,
        now: Nanos,
    ) -> Result<Option<Survivor<'_>>>;
}

/// A zoned device and the host's ledger of it: live pages per zone and,
/// per zone, the `(key, index, offset)` of every recorded write. An entry
/// is live iff its owner still maps that page there ([`Relocate`]).
#[derive(Debug)]
pub struct ZoneLedger<D, K> {
    /// The device. Zone commands that change space go through the ledger.
    pub dev: D,
    /// The allocator every page goes through.
    pub alloc: ZoneAllocator,
    tie: Tie,
    live: Vec<u64>,
    registry: Vec<Vec<(K, u64, u64)>>,
    /// Pages relocated so far.
    pub relocated: u64,
    /// Zones reset so far.
    pub resets: u64,
}

impl<D: ZonedDevice, K: Copy> ZoneLedger<D, K> {
    /// An empty ledger of `dev` whose picks break ties by `tie`.
    pub fn new(dev: D, tie: Tie) -> Self {
        let zones = dev.num_zones() as usize;
        ZoneLedger {
            dev,
            alloc: ZoneAllocator::new(),
            tie,
            live: vec![0; zones],
            registry: vec![Vec::new(); zones],
            relocated: 0,
            resets: 0,
        }
    }

    /// Live pages in `zone`.
    #[inline]
    pub fn live(&self, zone: ZoneId) -> u64 {
        self.live[zone.0 as usize]
    }

    /// Records page `index` of `key` as live at `at`.
    #[inline]
    fn record(&mut self, key: K, index: u64, at: ZonedLocation) {
        self.live[at.zone.0 as usize] += 1;
        self.registry[at.zone.0 as usize].push((key, index, at.offset));
    }

    /// Uncounts a page of `zone` that died.
    #[inline]
    pub fn discard(&mut self, zone: ZoneId) {
        self.live[zone.0 as usize] -= 1;
    }

    /// Appends one page for `class` to the device, unrecorded; errors as
    /// [`ZoneAllocator::append`].
    #[inline]
    fn append(
        &mut self,
        class: LifetimeClass,
        stamp: u64,
        now: Nanos,
    ) -> Result<(ZonedLocation, Nanos)> {
        self.alloc.append(&mut self.dev, class, stamp, now)
    }

    /// Cleans to two empty zones once at most one is left, so relocation
    /// always has somewhere to land. Every stack calls it ahead of its
    /// writes, at its own granularity. Returns the completion instant,
    /// `now` when nothing was due or nothing could be reclaimed; other
    /// errors are [`ZoneLedger::clean`]'s.
    pub fn make_room<R: Relocate<D, Key = K>>(&mut self, r: &mut R, now: Nanos) -> Result<Nanos> {
        if self.dev.empty_zones() > 1 {
            return Ok(now);
        }
        match self.clean(r, 2, now) {
            Err(HostError::NoFreeZone) => Ok(now),
            done => done,
        }
    }

    /// Appends and records page `index` of `key`. With no zone free it
    /// first cleans to two; when the device refuses another active zone
    /// it finishes the other classes' open zones, which rolling classes
    /// leave behind. Errors as [`ZoneLedger::clean`] and
    /// [`ZoneAllocator::append`].
    pub fn write<R: Relocate<D, Key = K>>(
        &mut self,
        r: &mut R,
        (key, index): (K, u64),
        class: LifetimeClass,
        stamp: u64,
        now: Nanos,
    ) -> Result<(ZonedLocation, Nanos)> {
        let (at, done) = match self.append(class, stamp, now) {
            Ok(ok) => ok,
            Err(HostError::NoFreeZone) => {
                let t = self.clean(r, 2, now)?;
                self.append(class, stamp, t)?
            }
            Err(HostError::Zns(_)) => {
                self.alloc.finish_stale(&mut self.dev, class)?;
                self.append(class, stamp, now)?
            }
            Err(e) => return Err(e),
        };
        self.record(key, index, at);
        Ok((at, done))
    }

    /// The [`pick`] with this ledger's tie and at least one garbage page.
    #[inline]
    fn victim(&self, room: u64) -> Option<ZoneId> {
        let zones = self.dev.zone_report();
        pick(zones, &self.live, room, 1, self.tie, |_| true)
    }

    /// Relocates victims whose live pages fit in the empty zones until
    /// `target_free` zones are empty; with no victim, finishes every
    /// active zone that holds garbage and tries once more. Returns the
    /// completion instant, or [`HostError::NoFreeZone`] when nothing more
    /// can be reclaimed.
    pub fn clean<R>(&mut self, r: &mut R, target_free: u32, now: Nanos) -> Result<Nanos>
    where
        R: Relocate<D, Key = K>,
    {
        let room = |dev: &D| dev.empty_zones() as u64 * dev.zone_capacity();
        let mut t = now;
        while self.dev.empty_zones() < target_free {
            let victim = match self.victim(room(&self.dev)) {
                Some(v) => v,
                None => {
                    let zones = self.dev.zone_report().iter();
                    let sealable: Vec<ZoneId> = zones
                        .filter(|z| z.state().is_active() && garbage(z, self.live(z.id())) > 0)
                        .map(|z| z.id())
                        .collect();
                    if sealable.is_empty() {
                        return Err(HostError::NoFreeZone);
                    }
                    for z in sealable {
                        self.dev.finish(z)?;
                        self.alloc.release(z);
                    }
                    self.victim(room(&self.dev)).ok_or(HostError::NoFreeZone)?
                }
            };
            t = self.relocate(r, victim, t)?;
            debug_assert_eq!(self.live(victim), 0);
        }
        Ok(t)
    }

    /// Re-appends the live entries of `victim`'s registry, then resets
    /// it. Returns the completion instant; errors are the survivor
    /// check's, the allocator's and the device's.
    fn relocate<R>(&mut self, r: &mut R, victim: ZoneId, now: Nanos) -> Result<Nanos>
    where
        R: Relocate<D, Key = K>,
    {
        let mut t = now;
        for (key, index, offset) in std::mem::take(&mut self.registry[victim.0 as usize]) {
            let at = ZonedLocation {
                zone: victim,
                offset,
            };
            let Some((slot, class, stamp, ready)) = r.survivor(&mut self.dev, key, index, at, t)?
            else {
                continue;
            };
            (*slot, t) = self.append(class, stamp, ready)?;
            self.discard(victim);
            self.record(key, index, *slot);
            self.relocated += 1;
        }
        self.reset(victim, t)
    }

    /// Resets `zone` and hands it back to the allocator. Its registry is
    /// forgotten, its live count kept. Returns the completion instant;
    /// errors are the device's.
    pub fn reset(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos> {
        let done = self.dev.reset(zone, now)?;
        self.registry[zone.0 as usize].clear();
        self.alloc.release(zone);
        self.resets += 1;
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zones of 8 pages written to the given pointers, all Full except
    /// where the pointer is short of 8 and `open` is set.
    fn zones(wps: &[u64], open: bool) -> Vec<Zone> {
        let zone = |(i, &wp): (usize, &u64)| {
            let mut z = Zone::with_capacity(ZoneId(i as u32), 8, 8);
            z.advance_wp(wp);
            let full = wp == 8 || !open;
            z.set_state(if full {
                ZoneState::Full
            } else {
                ZoneState::ImplicitlyOpened
            });
            z
        };
        wps.iter().enumerate().map(zone).collect()
    }

    fn all(_: ZoneId) -> bool {
        true
    }

    #[test]
    fn equal_garbage_goes_by_the_tie() {
        let (z, live) = (zones(&[8; 4], false), [5, 2, 6, 2]);
        let best = |tie| pick(&z, &live, u64::MAX, 1, tie, all);
        assert_eq!(best(Tie::HighestId), Some(ZoneId(3)));
        assert_eq!(best(Tie::LowestId), Some(ZoneId(1)));
    }

    #[test]
    fn a_zone_whose_live_pages_exceed_the_room_is_skipped() {
        // Zone 0 has the most garbage (5) but 3 live pages; zone 1 has 3
        // garbage pages and 1 live.
        let (z, live) = (zones(&[8, 4], false), [3, 1]);
        for tie in [Tie::HighestId, Tie::LowestId] {
            assert_eq!(pick(&z, &live, 3, 1, tie, all), Some(ZoneId(0)));
            assert_eq!(pick(&z, &live, 2, 1, tie, all), Some(ZoneId(1)));
            assert_eq!(pick(&z, &live, 0, 1, tie, all), None);
        }
    }

    #[test]
    fn min_garbage_is_respected() {
        let (z, live) = (zones(&[8, 8], false), [5, 6]);
        assert_eq!(
            pick(&z, &live, u64::MAX, 3, Tie::HighestId, all),
            Some(ZoneId(0))
        );
        assert_eq!(pick(&z, &live, u64::MAX, 4, Tie::HighestId, all), None);
    }

    #[test]
    fn rejected_and_unsealed_zones_are_never_picked() {
        // Zone 0, the most garbage, is a frontier the predicate rejects;
        // zone 2 holds more garbage than zone 1 but is still open.
        let (z, live) = (zones(&[8, 8, 6], true), [0, 4, 0]);
        for tie in [Tie::HighestId, Tie::LowestId] {
            let not_frontier = |id| id != ZoneId(0);
            assert_eq!(
                pick(&z, &live, u64::MAX, 1, tie, not_frontier),
                Some(ZoneId(1))
            );
            assert_eq!(pick(&z, &live, u64::MAX, 1, tie, |_| false), None);
        }
        assert_eq!(garbage(&z[2], 0), 6, "the open zone did hold garbage");
    }
}
