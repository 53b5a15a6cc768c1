//! Lifetime-aware data placement: the §4.1 research question, made
//! runnable.
//!
//! > "How much can filesystem knowledge (owners, creators, timestamps)
//! > reduce write amplification? Beyond the filesystem, how much does
//! > application-specific information further reduce overheads?"
//!
//! [`ObjectStore`] stores expiry-tagged objects on a ZNS device under a
//! pluggable [`PlacementPolicy`]. Every policy uses the *same* mechanism
//! (the lifetime-class zone allocator); they differ only in what
//! knowledge feeds the class:
//!
//! - [`PlacementPolicy::Scatter`] — no knowledge; objects spread across
//!   streams by id hash, mixing lifetimes (the conventional-SSD baseline
//!   behaviour an FTL is stuck with).
//! - [`PlacementPolicy::Temporal`] — creation-time order only (one
//!   stream), the knowledge any log gets for free.
//! - [`PlacementPolicy::ByOwner`] — filesystem-level knowledge: files of
//!   one owner/application/VM expire together.
//! - [`PlacementPolicy::ByExpiry`] — application-level knowledge: an
//!   explicit (possibly noisy) expiry estimate buckets objects by
//!   predicted death time. With exact estimates this is the oracle.

use crate::error::HostError;
use crate::reclaim::{Relocate, Survivor, Tie, ZoneLedger};
use crate::zalloc::{LifetimeClass, ZonedLocation};
use crate::Result;
use bh_metrics::Nanos;
use bh_zns::{ZnsDevice, ZonedDevice};
use std::collections::HashMap;

/// How the store maps an object to a lifetime class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Id-hash across `streams` classes: destroys lifetime locality.
    Scatter {
        /// Number of write streams to spread across.
        streams: u32,
    },
    /// Single stream: pure arrival order.
    Temporal,
    /// One class per owner (mod `streams` to bound open zones).
    ByOwner {
        /// Maximum concurrent owner classes.
        streams: u32,
    },
    /// Bucket by the caller-supplied expiry estimate.
    ByExpiry {
        /// Width of one expiry bucket.
        bucket: Nanos,
    },
}

impl PlacementPolicy {
    fn class_for(&self, id: u64, owner: u32, expiry_estimate: Nanos) -> LifetimeClass {
        match *self {
            PlacementPolicy::Scatter { streams } => {
                // Fibonacci hash, taking the *high* bits — the low bits of
                // an odd-multiplier product preserve parity, which would
                // accidentally segregate alternating-lifetime workloads.
                let h = id.wrapping_mul(0x9E3779B97F4A7C15) >> 33;
                LifetimeClass((h % streams as u64) as u32)
            }
            PlacementPolicy::Temporal => LifetimeClass(0),
            PlacementPolicy::ByOwner { streams } => LifetimeClass(owner % streams),
            PlacementPolicy::ByExpiry { bucket } => {
                LifetimeClass((expiry_estimate.as_nanos() / bucket.as_nanos().max(1)) as u32)
            }
        }
    }
}

#[derive(Debug)]
struct ObjectMeta {
    /// The class the policy gave the object; survivors keep it.
    class: LifetimeClass,
    locations: Vec<ZonedLocation>,
}

/// A survivor is re-placed under its class with its original stamp.
impl Relocate<ZnsDevice> for HashMap<u64, ObjectMeta> {
    type Key = u64;

    fn survivor(
        &mut self,
        _: &mut ZnsDevice,
        id: u64,
        page: u64,
        at: ZonedLocation,
        now: Nanos,
    ) -> Result<Option<Survivor<'_>>> {
        let Some(meta) = self.get_mut(&id) else {
            return Ok(None);
        };
        let (class, stamp) = (meta.class, (id << 8) | page);
        let slot = meta.locations.get_mut(page as usize).filter(|l| **l == at);
        Ok(slot.map(|slot| (slot, class, stamp, now)))
    }
}

/// Store-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Pages written on behalf of callers.
    pub host_pages: u64,
    /// Live pages relocated during reclaim.
    pub relocated: u64,
    /// Zones reset.
    pub resets: u64,
}

/// An expiry-tagged object store over a ZNS device.
pub struct ObjectStore {
    /// Of equal-garbage victims, reclaim takes the lowest zone id.
    ledger: ZoneLedger<ZnsDevice, u64>,
    policy: PlacementPolicy,
    objects: HashMap<u64, ObjectMeta>,
    host_pages: u64,
}

impl ObjectStore {
    /// Creates a store over `dev` with the given placement policy.
    pub fn new(dev: ZnsDevice, policy: PlacementPolicy) -> Self {
        ObjectStore {
            ledger: ZoneLedger::new(dev, Tie::LowestId),
            policy,
            objects: HashMap::new(),
            host_pages: 0,
        }
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            host_pages: self.host_pages,
            relocated: self.ledger.relocated,
            resets: self.ledger.resets,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &ZnsDevice {
        &self.ledger.dev
    }

    /// Write amplification incurred so far: `(host + relocated) / host`.
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages == 0 {
            return 1.0;
        }
        (self.host_pages + self.ledger.relocated) as f64 / self.host_pages as f64
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Stores an object of `pages` pages, owned by `owner`, with the
    /// caller's expiry estimate (feeds [`PlacementPolicy::ByExpiry`]).
    /// Reclaims space automatically when the zone pool is exhausted.
    ///
    /// # Errors
    ///
    /// - [`HostError::DuplicateObject`] if `id` is already stored.
    /// - [`HostError::NoFreeZone`] if reclaim cannot make space.
    pub fn put(
        &mut self,
        id: u64,
        pages: u32,
        owner: u32,
        expiry_estimate: Nanos,
        now: Nanos,
    ) -> Result<Nanos> {
        if self.objects.contains_key(&id) {
            return Err(HostError::DuplicateObject(id));
        }
        let class = self.policy.class_for(id, owner, expiry_estimate);
        let mut t = self.ledger.make_room(&mut self.objects, now)?;
        let mut locations = Vec::with_capacity(pages as usize);
        for page in 0..pages {
            let stamp = (id << 8) | page as u64;
            let (loc, done) =
                self.ledger
                    .write(&mut self.objects, (id, page.into()), class, stamp, t)?;
            locations.push(loc);
            t = done;
            self.host_pages += 1;
        }
        self.objects.insert(id, ObjectMeta { class, locations });
        Ok(t)
    }

    /// Deletes an object (it expired). Metadata-only; space returns via
    /// reclaim.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::NoSuchObject`] for unknown ids.
    pub fn delete(&mut self, id: u64, _now: Nanos) -> Result<()> {
        let meta = self
            .objects
            .remove(&id)
            .ok_or(HostError::NoSuchObject(id))?;
        for loc in &meta.locations {
            self.ledger.discard(loc.zone);
        }
        Ok(())
    }

    /// Reads back one page of an object, verifying it exists.
    pub fn read(&mut self, id: u64, page: u32, now: Nanos) -> Result<(u64, Nanos)> {
        let loc = self
            .objects
            .get(&id)
            .and_then(|m| m.locations.get(page as usize))
            .copied()
            .ok_or(HostError::NoSuchObject(id))?;
        Ok(self.ledger.dev.read(loc.zone, loc.offset, now)?)
    }

    /// Reclaims until `target_free` zones are empty, as
    /// [`ZoneLedger::clean`] does: survivors keep their class. Returns
    /// the completion instant.
    pub fn reclaim(&mut self, now: Nanos, target_free: u32) -> Result<Nanos> {
        self.ledger.clean(&mut self.objects, target_free, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::{ZnsConfig, ZoneId};

    fn dev() -> ZnsDevice {
        // 8 zones x 64 pages.
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        ZnsDevice::new(cfg).unwrap()
    }

    #[test]
    fn put_read_roundtrip() {
        let mut s = ObjectStore::new(dev(), PlacementPolicy::Temporal);
        let t = s.put(1, 3, 0, Nanos::from_secs(10), Nanos::ZERO).unwrap();
        for page in 0..3 {
            let (stamp, _) = s.read(1, page, t).unwrap();
            assert_eq!(stamp, (1 << 8) | page as u64);
        }
        assert!(matches!(s.read(1, 3, t), Err(HostError::NoSuchObject(1))));
        assert!(matches!(
            s.put(1, 1, 0, Nanos::ZERO, t),
            Err(HostError::DuplicateObject(1))
        ));
    }

    #[test]
    fn delete_then_reclaim_resets_dead_zone() {
        let mut s = ObjectStore::new(dev(), PlacementPolicy::Temporal);
        let mut t = Nanos::ZERO;
        // Fill exactly one zone (64 pages) with 8 objects of 8 pages.
        for id in 0..8u64 {
            t = s.put(id, 8, 0, Nanos::from_secs(1), t).unwrap();
        }
        for id in 0..8u64 {
            s.delete(id, t).unwrap();
        }
        let before = s.stats().relocated;
        s.reclaim(t, 8).unwrap();
        assert_eq!(s.stats().relocated, before, "dead zone needed no copies");
        assert!(s.stats().resets >= 1);
    }

    #[test]
    fn mixed_lifetimes_force_relocation_under_scatter() {
        let mut s = ObjectStore::new(dev(), PlacementPolicy::Scatter { streams: 2 });
        let mut t = Nanos::ZERO;
        // Interleave short-lived (even) and long-lived (odd) objects.
        for id in 0..32u64 {
            t = s
                .put(id, 4, (id % 2) as u32, Nanos::from_secs(1), t)
                .unwrap();
        }
        for id in (0..32u64).step_by(2) {
            s.delete(id, t).unwrap();
        }
        // Seal the open zones so they become reclaim candidates, then
        // force reclamation: scattered survivors must move.
        for z in 0..s.ledger.dev.num_zones() {
            let zid = ZoneId(z);
            if s.ledger.dev.zone(zid).unwrap().state().is_active() {
                s.ledger.dev.finish(zid).unwrap();
            }
        }
        t = s.reclaim(t, 6).unwrap();
        assert!(s.stats().relocated > 0);
        // Survivors still readable.
        let (stamp, _) = s.read(1, 0, t).unwrap();
        assert_eq!(stamp, 1 << 8);
    }

    #[test]
    fn owner_placement_segregates_lifetimes() {
        // Two owners with opposite lifetimes; ByOwner gives each its own
        // zone so expiry kills whole zones.
        let mut s = ObjectStore::new(dev(), PlacementPolicy::ByOwner { streams: 4 });
        let mut t = Nanos::ZERO;
        for id in 0..16u64 {
            t = s
                .put(id, 4, (id % 2) as u32, Nanos::from_secs(1), t)
                .unwrap();
        }
        for id in (0..16u64).step_by(2) {
            s.delete(id, t).unwrap();
        }
        // Owner 0's data (8 objects x 4 pages) lives alone in its zone and
        // is now entirely dead. Finish the open zones so they become
        // reclaim candidates; reclaiming then frees owner 0's zone with
        // ZERO relocation — the payoff of lifetime segregation.
        for z in 0..s.ledger.dev.num_zones() {
            let zid = ZoneId(z);
            if s.ledger.dev.zone(zid).unwrap().state().is_active() {
                s.ledger.dev.finish(zid).unwrap();
            }
        }
        s.reclaim(t, 7).unwrap();
        assert_eq!(
            s.stats().relocated,
            0,
            "segregated dead zone needs no copies"
        );
        assert!(s.stats().resets >= 1);
        // Owner 1's survivors are untouched and readable.
        let (stamp, _) = s.read(1, 0, t).unwrap();
        assert_eq!(stamp, 1 << 8);
    }

    #[test]
    fn expiry_policy_classes_by_bucket() {
        let p = PlacementPolicy::ByExpiry {
            bucket: Nanos::from_secs(10),
        };
        assert_eq!(
            p.class_for(1, 0, Nanos::from_secs(5)),
            p.class_for(2, 9, Nanos::from_secs(9))
        );
        assert_ne!(
            p.class_for(1, 0, Nanos::from_secs(5)),
            p.class_for(1, 0, Nanos::from_secs(15))
        );
    }

    #[test]
    fn continuous_churn_survives() {
        // Streaming workload: objects arrive, live a fixed time, die.
        let mut s = ObjectStore::new(dev(), PlacementPolicy::Temporal);
        let mut t = Nanos::ZERO;
        let mut alive = std::collections::VecDeque::new();
        for next_id in 0u64..200 {
            t = s.put(next_id, 2, 0, Nanos::ZERO, t).unwrap();
            alive.push_back(next_id);
            if alive.len() > 40 {
                let dead = alive.pop_front().unwrap();
                s.delete(dead, t).unwrap();
            }
        }
        // FIFO lifetimes + temporal placement: relocation stays tiny.
        let wa = s.write_amplification();
        assert!(wa < 1.2, "temporal placement of FIFO data had WA {wa}");
    }
}
