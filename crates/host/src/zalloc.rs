//! Lifetime-class zone allocation.
//!
//! §4.1: "Garbage collection overheads are minimal if most of the data
//! that is written to an erasure block expires at the same time." The
//! allocator implements the mechanism: callers tag each write with a
//! [`LifetimeClass`] (an expected-lifetime bucket — filesystem hints, LSM
//! level, owner, whatever the application knows) and the allocator keeps
//! one open zone per class, so co-expiring data shares zones and whole
//! zones die together.

use crate::error::HostError;
use crate::Result;
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::{FaultEvent, HostEvent, Tracer};
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsError, Zone, ZoneId, ZoneState};
use std::collections::HashMap;

/// An expected-lifetime bucket for written data.
///
/// The meaning of a class is up to the caller: LSM level, file owner,
/// creation-time bucket, tenant. The allocator only guarantees that
/// different classes never share an open zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LifetimeClass(pub u32);

/// Where a page landed: zone and zone-relative offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZonedLocation {
    /// The zone written.
    pub zone: ZoneId,
    /// Page offset within the zone.
    pub offset: u64,
}

/// True when `zone` can take another append: it has room and is Empty or
/// active.
#[inline]
pub(crate) fn writable(zone: &Zone) -> bool {
    zone.remaining() > 0 && (zone.state() == ZoneState::Empty || zone.state().is_active())
}

/// Allocates zones to lifetime classes and appends pages on their behalf.
///
/// The allocator does not own the device — callers thread `&mut D`
/// (any [`ZonedDevice`]) through each operation — so several host
/// components can cooperate on one device, on either substrate.
#[derive(Debug, Default)]
pub struct ZoneAllocator {
    /// Open zone per class.
    open: HashMap<LifetimeClass, ZoneId>,
    /// Zones this allocator has handed out and not yet seen released,
    /// as a bitmap indexed by zone id, so the empty-zone search costs
    /// O(zones) instead of O(zones × owned).
    owned_mask: Vec<bool>,
    /// Records class→zone allocation events; disabled by default.
    tracer: Tracer,
    /// Fresh zones opened for a class so far.
    zone_allocs: u64,
}

impl ZoneAllocator {
    /// Creates an allocator with no zones.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a tracer. The allocator does not own the device, so this
    /// does not cascade; give the device the same tracer handle for one
    /// merged stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Writes the allocator's slot of `snap`: fresh zones opened. The
    /// allocator does not own the device; project that separately.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        snap.set(Ctr::ZallocZoneAllocs, self.zone_allocs);
    }

    /// Finds an empty zone on the device that this allocator does not
    /// already own.
    fn find_empty<D: ZonedDevice>(&self, dev: &D) -> Result<ZoneId> {
        let owned = |z: &Zone| self.owned_mask.get(z.id().0 as usize) == Some(&true);
        dev.zone_report()
            .iter()
            .find(|z| z.state() == ZoneState::Empty && !owned(z))
            .map(|z| z.id())
            .ok_or(HostError::NoFreeZone)
    }

    /// Appends one page tagged with `class`, opening a fresh zone for the
    /// class when needed. Returns where the page landed and the completion
    /// instant.
    ///
    /// Transient program failures are absorbed here: a burned slot is
    /// retried at the advanced write pointer, and a zone the device
    /// degrades mid-append rolls over to a fresh zone for the class.
    ///
    /// # Errors
    ///
    /// - [`HostError::NoFreeZone`] when the device has no empty zone left;
    ///   callers reclaim (reset dead zones) and retry.
    /// - Propagated ZNS errors (e.g. active-zone limits) — the caller owns
    ///   the open-zone budget policy.
    pub fn append<D: ZonedDevice>(
        &mut self,
        dev: &mut D,
        class: LifetimeClass,
        stamp: u64,
        now: Nanos,
    ) -> Result<(ZonedLocation, Nanos)> {
        let mut attempts = 0u32;
        loop {
            let zone = match self.open.get(&class) {
                Some(&z) if writable(dev.zone(z)?) => z,
                _ => {
                    let z = self.find_empty(dev)?;
                    self.zone_allocs += 1;
                    self.open.insert(class, z);
                    if self.owned_mask.len() <= z.0 as usize {
                        self.owned_mask.resize(z.0 as usize + 1, false);
                    }
                    self.owned_mask[z.0 as usize] = true;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            now,
                            HostEvent::ZoneAlloc {
                                class: class.0,
                                zone: z.0,
                            },
                        );
                    }
                    z
                }
            };
            match dev.append(zone, stamp, now) {
                Ok((offset, done)) => {
                    if dev.zone(zone)?.state() == ZoneState::Full {
                        self.open.remove(&class);
                    }
                    if attempts > 0 && self.tracer.enabled() {
                        self.tracer.emit(
                            done,
                            FaultEvent::Redrive {
                                layer: "zalloc",
                                attempts,
                            },
                        );
                    }
                    return Ok((ZonedLocation { zone, offset }, done));
                }
                Err(ZnsError::ProgramFailure { .. }) => {
                    // The slot burned but the pointer advanced; retry in
                    // place. If the burn filled or degraded the zone, the
                    // writable() gate above rotates to a fresh zone.
                    attempts += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Finishes every open zone except `keep`'s, freeing their
    /// active-zone slots. Needed by rolling classification schemes
    /// (expiry buckets advance with time, so old classes never see
    /// another write and would otherwise pin active zones forever).
    ///
    /// # Errors
    ///
    /// Propagates device errors from the finish commands.
    pub fn finish_stale<D: ZonedDevice>(&mut self, dev: &mut D, keep: LifetimeClass) -> Result<()> {
        let stale: Vec<(LifetimeClass, ZoneId)> = self
            .open
            .iter()
            .filter(|&(&c, _)| c != keep)
            .map(|(&c, &z)| (c, z))
            .collect();
        for (class, zone) in stale {
            if dev.zone(zone)?.state().is_active() {
                dev.finish(zone)?;
            }
            self.open.remove(&class);
        }
        Ok(())
    }

    /// Releases a zone back to the device's pool (after the caller reset
    /// it). The allocator will consider it for future allocation.
    pub fn release(&mut self, zone: ZoneId) {
        if let Some(bit) = self.owned_mask.get_mut(zone.0 as usize) {
            *bit = false;
        }
        self.open.retain(|_, &mut z| z != zone);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::{ZnsConfig, ZnsDevice};

    fn dev() -> ZnsDevice {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        ZnsDevice::new(cfg).unwrap()
    }

    #[test]
    fn classes_get_distinct_zones() {
        let mut d = dev();
        let mut a = ZoneAllocator::new();
        let (l1, _) = a.append(&mut d, LifetimeClass(0), 1, Nanos::ZERO).unwrap();
        let (l2, _) = a.append(&mut d, LifetimeClass(1), 2, Nanos::ZERO).unwrap();
        assert_ne!(l1.zone, l2.zone);
    }

    #[test]
    fn same_class_appends_sequentially() {
        let mut d = dev();
        let mut a = ZoneAllocator::new();
        let mut t = Nanos::ZERO;
        for i in 0..5u64 {
            let (loc, done) = a.append(&mut d, LifetimeClass(7), i, t).unwrap();
            assert_eq!(loc.offset, i);
            t = done;
        }
    }

    #[test]
    fn full_zone_rolls_to_fresh_zone() {
        let mut d = dev();
        let mut a = ZoneAllocator::new();
        let mut t = Nanos::ZERO;
        let mut zones_seen = std::collections::HashSet::new();
        // Zone capacity is 64; write 100 pages.
        for i in 0..100u64 {
            let (loc, done) = a.append(&mut d, LifetimeClass(0), i, t).unwrap();
            zones_seen.insert(loc.zone);
            t = done;
        }
        assert_eq!(zones_seen.len(), 2);
    }

    #[test]
    fn exhaustion_reports_no_free_zone() {
        let mut d = dev();
        let mut a = ZoneAllocator::new();
        let mut t = Nanos::ZERO;
        // 8 zones x 64 pages = 512 pages total.
        for i in 0..512u64 {
            t = a.append(&mut d, LifetimeClass(0), i, t).unwrap().1;
        }
        assert_eq!(
            a.append(&mut d, LifetimeClass(0), 0, t).unwrap_err(),
            HostError::NoFreeZone
        );
    }

    #[test]
    fn release_returns_zone_to_pool() {
        let mut d = dev();
        let mut a = ZoneAllocator::new();
        let (first, mut t) = a.append(&mut d, LifetimeClass(0), 0, Nanos::ZERO).unwrap();
        for i in 1..512u64 {
            t = a.append(&mut d, LifetimeClass(0), i, t).unwrap().1;
        }
        // Reset one zone and release it; allocation works again.
        let z = first.zone;
        t = d.reset(z, t).unwrap();
        a.release(z);
        let (loc, _) = a.append(&mut d, LifetimeClass(0), 1, t).unwrap();
        assert_eq!(loc.zone, z);
    }
}
