//! Segment stores: the cache's view of the two device interfaces.
//!
//! A *segment* is the cache's eviction unit — an erase-block-sized run of
//! pages that is written once and later dropped wholesale. On the
//! conventional device a segment is a contiguous LBA range (trimmed on
//! eviction, so the FTL can erase without copying — the "trick" flash
//! caches play); on ZNS a segment simply *is* a zone.

use crate::Result;
use bh_conv::ConvSsd;
use bh_metrics::Nanos;
use bh_obs::ObsSnapshot;
use bh_trace::Tracer;
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsDevice, ZoneId};

/// Page-granular storage organized in erase-sized segments.
pub trait SegmentStore {
    /// Number of segments on the device.
    fn num_segments(&self) -> u32;

    /// Pages per segment.
    fn pages_per_segment(&self) -> u64;

    /// Page size in bytes.
    fn page_bytes(&self) -> u32;

    /// Writes page `index` of `segment`. Pages of a segment are written
    /// in order, possibly as one large batch (conventional) or one at a
    /// time (ZNS). Returns the completion instant.
    fn write_page(&mut self, segment: u32, index: u64, now: Nanos) -> Result<Nanos>;

    /// Reads page `index` of `segment`.
    fn read_page(&mut self, segment: u32, index: u64, now: Nanos) -> Result<Nanos>;

    /// Erases/invalidates the whole segment so it can be rewritten.
    fn erase_segment(&mut self, segment: u32, now: Nanos) -> Result<Nanos>;

    /// Device-level write amplification so far.
    fn device_write_amplification(&self) -> f64;

    /// True when this interface requires whole-segment coalescing in host
    /// DRAM before writing (the conventional-device constraint of §4.1).
    fn requires_coalescing(&self) -> bool;

    /// Installs a tracer on the underlying device. Stores without
    /// instrumentation may ignore it.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Writes the device slots of `snap` from the stats the underlying
    /// device keeps. The default writes nothing, for stores without a
    /// device model.
    fn obs_into(&self, snap: &mut ObsSnapshot) {
        let _ = snap;
    }
}

/// Segments as contiguous LBA ranges on a conventional SSD.
pub struct ConvSegmentStore {
    ssd: ConvSsd,
    pages_per_segment: u64,
    num_segments: u32,
}

impl ConvSegmentStore {
    /// Carves `ssd`'s logical space into segments of `pages_per_segment`
    /// pages.
    pub fn new(ssd: ConvSsd, pages_per_segment: u64) -> Self {
        let num_segments = (ssd.capacity_pages() / pages_per_segment) as u32;
        ConvSegmentStore {
            ssd,
            pages_per_segment,
            num_segments,
        }
    }

    /// The underlying SSD.
    pub fn ssd(&self) -> &ConvSsd {
        &self.ssd
    }

    fn lba(&self, segment: u32, index: u64) -> u64 {
        segment as u64 * self.pages_per_segment + index
    }
}

impl SegmentStore for ConvSegmentStore {
    fn num_segments(&self) -> u32 {
        self.num_segments
    }

    fn pages_per_segment(&self) -> u64 {
        self.pages_per_segment
    }

    fn page_bytes(&self) -> u32 {
        self.ssd.page_bytes()
    }

    fn write_page(&mut self, segment: u32, index: u64, now: Nanos) -> Result<Nanos> {
        let lba = self.lba(segment, index);
        self.ssd
            .write(lba, now)
            .map(|o| o.done)
            .map_err(|e| e.to_string())
    }

    fn read_page(&mut self, segment: u32, index: u64, now: Nanos) -> Result<Nanos> {
        let lba = self.lba(segment, index);
        self.ssd.read_timed(lba, now).map_err(|e| e.to_string())
    }

    fn erase_segment(&mut self, segment: u32, now: Nanos) -> Result<Nanos> {
        // TRIM the whole range; the FTL reclaims the dead blocks without
        // copying.
        for index in 0..self.pages_per_segment {
            let lba = self.lba(segment, index);
            self.ssd.trim(lba).map_err(|e| e.to_string())?;
        }
        Ok(now)
    }

    fn device_write_amplification(&self) -> f64 {
        self.ssd.write_amplification()
    }

    fn requires_coalescing(&self) -> bool {
        true
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.ssd.set_tracer(tracer);
    }

    fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.ssd.obs_into(snap);
    }
}

/// Segments as zones on a zoned device ([`ZnsDevice`] by default;
/// bh-zbd's durable emulator works identically).
pub struct ZnsSegmentStore<D: ZonedDevice = ZnsDevice> {
    dev: D,
}

impl<D: ZonedDevice> ZnsSegmentStore<D> {
    /// Uses each zone of `dev` as one segment.
    pub fn new(dev: D) -> Self {
        ZnsSegmentStore { dev }
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }
}

impl<D: ZonedDevice> SegmentStore for ZnsSegmentStore<D> {
    fn num_segments(&self) -> u32 {
        self.dev.num_zones()
    }

    fn pages_per_segment(&self) -> u64 {
        self.dev.zone_capacity()
    }

    fn page_bytes(&self) -> u32 {
        self.dev.page_bytes()
    }

    fn write_page(&mut self, segment: u32, index: u64, now: Nanos) -> Result<Nanos> {
        self.dev
            .write(ZoneId(segment), index, index + 1, now)
            .map_err(|e| e.to_string())
    }

    fn read_page(&mut self, segment: u32, index: u64, now: Nanos) -> Result<Nanos> {
        self.dev
            .read_timed(ZoneId(segment), index, now)
            .map_err(|e| e.to_string())
    }

    fn erase_segment(&mut self, segment: u32, now: Nanos) -> Result<Nanos> {
        self.dev
            .reset(ZoneId(segment), now)
            .map_err(|e| e.to_string())
    }

    fn device_write_amplification(&self) -> f64 {
        self.dev.flash_stats().write_amplification()
    }

    fn requires_coalescing(&self) -> bool {
        false
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.dev.set_tracer(tracer);
    }

    fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.dev.obs_into(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_conv::ConvConfig;
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::ZnsConfig;

    pub(crate) fn conv_store() -> ConvSegmentStore {
        let ssd = ConvSsd::new(ConvConfig::new(
            FlashConfig::tlc(Geometry::small_test()),
            0.15,
        ))
        .unwrap();
        ConvSegmentStore::new(ssd, 16)
    }

    pub(crate) fn zns_store() -> ZnsSegmentStore {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        ZnsSegmentStore::new(ZnsDevice::new(cfg).unwrap())
    }

    fn exercise(store: &mut dyn SegmentStore) {
        let mut t = Nanos::ZERO;
        for i in 0..store.pages_per_segment() {
            t = store.write_page(0, i, t).unwrap();
        }
        t = store.read_page(0, 3, t).unwrap();
        t = store.erase_segment(0, t).unwrap();
        // Rewrite after erase must succeed.
        store.write_page(0, 0, t).unwrap();
    }

    #[test]
    fn conv_store_cycles_segments() {
        exercise(&mut conv_store());
    }

    #[test]
    fn zns_store_cycles_segments() {
        exercise(&mut zns_store());
    }

    #[test]
    fn coalescing_requirement_differs() {
        assert!(conv_store().requires_coalescing());
        assert!(!zns_store().requires_coalescing());
    }

    #[test]
    fn geometry_agreement() {
        let c = conv_store();
        let z = zns_store();
        assert_eq!(c.pages_per_segment(), 16);
        assert_eq!(z.pages_per_segment(), 64);
        assert!(c.num_segments() > 0);
        assert_eq!(z.num_segments(), 8);
    }
}
