//! The cache proper: a FIFO ring of segments with readmission.
//!
//! Objects are inserted into the *current fill segment*; when the device
//! is full, the oldest segment is recycled FIFO (RIPQ/CacheLib-style) and
//! its still-referenced objects are dropped — or readmitted if they were
//! hit while resident.
//!
//! The front-end write path depends on the device:
//! [`WritePath::Coalesced`] stages a full segment of objects in DRAM and
//! writes it at once (conventional); [`WritePath::Direct`] writes each
//! object's pages straight to the open zone (ZNS). The cache reports the
//! peak DRAM each path needed — the §4.1 "reclaim the wasted DRAM"
//! number.

use crate::store::SegmentStore;
use crate::Result;
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::{CacheEvent, Tracer};
use std::collections::HashMap;

/// How inserted objects reach the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePath {
    /// Buffer a whole segment in DRAM, then write it as one batch.
    Coalesced,
    /// Write pages as objects arrive; only the in-flight page is
    /// buffered.
    Direct,
}

/// Cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups served.
    pub lookups: u64,
    /// Lookups that found the object (on flash or staged in DRAM).
    pub hits: u64,
    /// Objects inserted by callers.
    pub inserts: u64,
    /// Objects dropped at segment recycle.
    pub evicted: u64,
    /// Objects re-inserted at recycle because they were hit.
    pub readmitted: u64,
    /// Pages written to the device.
    pub pages_written: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObjPlace {
    /// Staged in the DRAM coalescing buffer.
    Staged,
    /// On flash in (segment, first page).
    Flash { segment: u32, page: u64 },
}

#[derive(Debug, Clone, Copy)]
struct ObjEntry {
    place: ObjPlace,
    pages: u32,
    hit: bool,
}

/// A FIFO flash cache over a [`SegmentStore`].
pub struct FlashCache<S: SegmentStore> {
    store: S,
    path: WritePath,
    index: HashMap<u64, ObjEntry>,
    /// Keys written to each segment (may contain superseded entries).
    segment_keys: Vec<Vec<u64>>,
    /// Ring cursor: the segment currently being filled.
    current: u32,
    /// Next page to write in the current segment.
    cursor: u64,
    /// True once the ring has wrapped (recycling needed before filling).
    wrapped: bool,
    /// Staged objects (coalesced path): key order = write order.
    staging: Vec<u64>,
    staged_pages: u64,
    peak_staged_pages: u64,
    stats: CacheStats,
    tracer: Tracer,
}

impl<S: SegmentStore> FlashCache<S> {
    /// Creates a cache over `store` with the write path the device
    /// requires.
    pub fn new(store: S) -> Self {
        let path = if store.requires_coalescing() {
            WritePath::Coalesced
        } else {
            WritePath::Direct
        };
        let segs = store.num_segments() as usize;
        FlashCache {
            store,
            path,
            index: HashMap::new(),
            segment_keys: vec![Vec::new(); segs],
            current: 0,
            cursor: 0,
            wrapped: false,
            staging: Vec::new(),
            staged_pages: 0,
            peak_staged_pages: 0,
            stats: CacheStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer, cascading it into the segment store so cache
    /// evictions and device events share one ordered stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.store.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The tracer currently installed (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Writes the store's device slots of `snap` and the cache's hits
    /// and misses, from the stats each layer keeps.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.store.obs_into(snap);
        snap.set(Ctr::CacheHits, self.stats.hits);
        snap.set(Ctr::CacheMisses, self.stats.lookups - self.stats.hits);
    }

    /// The active write path.
    pub fn write_path(&self) -> WritePath {
        self.path
    }

    /// Cache counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The segment store, for device statistics.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Peak DRAM the write path required, in bytes.
    pub fn peak_dram_bytes(&self) -> u64 {
        match self.path {
            WritePath::Coalesced => self.peak_staged_pages * self.store.page_bytes() as u64,
            // Only the page being assembled is ever buffered.
            WritePath::Direct => self.store.page_bytes() as u64,
        }
    }

    /// Looks up `key`. Returns whether it hit and the completion instant
    /// (reads of staged objects cost no device time).
    pub fn get(&mut self, key: u64, now: Nanos) -> Result<(bool, Nanos)> {
        self.stats.lookups += 1;
        let entry = match self.index.get_mut(&key) {
            Some(e) => e,
            None => return Ok((false, now)),
        };
        entry.hit = true;
        self.stats.hits += 1;
        match entry.place {
            ObjPlace::Staged => Ok((true, now)),
            ObjPlace::Flash { segment, page } => {
                let done = self.store.read_page(segment, page, now)?;
                Ok((true, done))
            }
        }
    }

    /// Inserts an object of `pages` pages. Re-inserting an existing key
    /// refreshes it (writes a new copy; the old becomes dead weight until
    /// its segment recycles).
    pub fn put(&mut self, key: u64, pages: u32, now: Nanos) -> Result<Nanos> {
        assert!(
            (pages as u64) <= self.store.pages_per_segment(),
            "object larger than a segment"
        );
        self.stats.inserts += 1;
        match self.path {
            WritePath::Coalesced => self.put_staged(key, pages, now),
            WritePath::Direct => self.put_direct(key, pages, now),
        }
    }

    fn put_staged(&mut self, key: u64, pages: u32, now: Nanos) -> Result<Nanos> {
        self.staging.push(key);
        self.staged_pages += pages as u64;
        self.index.insert(
            key,
            ObjEntry {
                place: ObjPlace::Staged,
                pages,
                hit: false,
            },
        );
        self.peak_staged_pages = self.peak_staged_pages.max(self.staged_pages);
        if self.staged_pages >= self.store.pages_per_segment() {
            return self.flush_staging(now);
        }
        Ok(now)
    }

    /// Writes the staged objects into the next ring segment as one batch.
    fn flush_staging(&mut self, now: Nanos) -> Result<Nanos> {
        let mut t = self.open_segment_for_fill(now)?;
        let staged = std::mem::take(&mut self.staging);
        self.staged_pages = 0;
        for key in staged {
            // Objects superseded while staged are skipped.
            let entry = match self.index.get(&key) {
                Some(e) if e.place == ObjPlace::Staged => *e,
                _ => continue,
            };
            // A segment boundary can split the batch (readmissions can
            // overfill): roll to the next segment.
            if self.cursor + entry.pages as u64 > self.store.pages_per_segment() {
                t = self.open_segment_for_fill(t)?;
            }
            t = self.write_object(key, entry.pages, t)?;
        }
        Ok(t)
    }

    fn put_direct(&mut self, key: u64, pages: u32, now: Nanos) -> Result<Nanos> {
        let mut t = now;
        // Readmissions can fill the fresh segment: roll on until the
        // object fits. They land un-hit, so once the ring has gone round
        // a recycle evicts them and the loop ends.
        while self.cursor + pages as u64 > self.store.pages_per_segment() {
            t = self.open_segment_for_fill(t)?;
        }
        if self.cursor == 0 && !self.segment_started() {
            t = self.open_segment_for_fill(t)?;
        }
        self.write_object(key, pages, t)
    }

    /// True once the current segment has been prepared for filling.
    fn segment_started(&self) -> bool {
        // The fill cursor is only 0 before the first open; opening resets
        // bookkeeping and recycles as needed.
        !self.segment_keys[self.current as usize].is_empty() || self.wrapped || self.cursor > 0
    }

    /// Advances the ring to a fresh segment: recycles the oldest (FIFO)
    /// when wrapping, collecting readmissions.
    fn open_segment_for_fill(&mut self, now: Nanos) -> Result<Nanos> {
        let next = if self.segment_started() {
            (self.current + 1) % self.store.num_segments()
        } else {
            self.current
        };
        if next <= self.current && self.segment_started() {
            self.wrapped = true;
        }
        let mut t = now;
        let mut readmits: Vec<(u64, u32)> = Vec::new();
        let mut evicted_pages = 0u64;
        // Drop (or collect for readmission) objects still living in the
        // segment about to be recycled.
        let keys = std::mem::take(&mut self.segment_keys[next as usize]);
        for key in keys {
            let live_here = matches!(
                self.index.get(&key),
                Some(ObjEntry { place: ObjPlace::Flash { segment, .. }, .. }) if *segment == next
            );
            if !live_here {
                continue;
            }
            let entry = self.index.remove(&key).expect("checked above");
            self.stats.evicted += 1;
            evicted_pages += entry.pages as u64;
            if entry.hit {
                readmits.push((key, entry.pages));
            }
        }
        if evicted_pages > 0 && self.tracer.enabled() {
            self.tracer.emit(
                t,
                CacheEvent::Evict {
                    pages: evicted_pages,
                },
            );
        }
        t = self.store.erase_segment(next, t)?;
        self.current = next;
        self.cursor = 0;
        // Readmitted objects go back through the insert path (they will
        // land in this or a later segment).
        for (key, pages) in readmits {
            self.stats.readmitted += 1;
            match self.path {
                WritePath::Coalesced => {
                    self.staging.push(key);
                    self.staged_pages += pages as u64;
                    self.index.insert(
                        key,
                        ObjEntry {
                            place: ObjPlace::Staged,
                            pages,
                            hit: false,
                        },
                    );
                    self.peak_staged_pages = self.peak_staged_pages.max(self.staged_pages);
                }
                WritePath::Direct => {
                    t = self.write_object(key, pages, t)?;
                }
            }
        }
        Ok(t)
    }

    /// Writes an object's pages at the cursor and indexes it.
    fn write_object(&mut self, key: u64, pages: u32, now: Nanos) -> Result<Nanos> {
        let mut t = now;
        let first = self.cursor;
        for i in 0..pages as u64 {
            t = self.store.write_page(self.current, first + i, t)?;
            self.stats.pages_written += 1;
        }
        self.cursor += pages as u64;
        self.index.insert(
            key,
            ObjEntry {
                place: ObjPlace::Flash {
                    segment: self.current,
                    page: first,
                },
                pages,
                hit: false,
            },
        );
        self.segment_keys[self.current as usize].push(key);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ConvSegmentStore, ZnsSegmentStore};
    use bh_conv::{ConvConfig, ConvSsd};
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::{ZnsConfig, ZnsDevice};

    fn conv_cache() -> FlashCache<ConvSegmentStore> {
        let ssd = ConvSsd::new(ConvConfig::new(
            FlashConfig::tlc(Geometry::small_test()),
            0.15,
        ))
        .unwrap();
        FlashCache::new(ConvSegmentStore::new(ssd, 16))
    }

    fn zns_cache() -> FlashCache<ZnsSegmentStore> {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        FlashCache::new(ZnsSegmentStore::new(ZnsDevice::new(cfg).unwrap()))
    }

    #[test]
    fn write_paths_match_device_kind() {
        assert_eq!(conv_cache().write_path(), WritePath::Coalesced);
        assert_eq!(zns_cache().write_path(), WritePath::Direct);
    }

    #[test]
    fn staged_objects_hit_from_dram() {
        let mut c = conv_cache();
        let t = c.put(1, 1, Nanos::ZERO).unwrap();
        let (hit, done) = c.get(1, t).unwrap();
        assert!(hit);
        assert_eq!(done, t, "staged hit must not touch the device");
    }

    #[test]
    fn direct_objects_hit_from_flash() {
        let mut c = zns_cache();
        let t = c.put(1, 1, Nanos::ZERO).unwrap();
        let (hit, done) = c.get(1, t).unwrap();
        assert!(hit);
        assert!(done > t, "flash hit pays a device read");
    }

    #[test]
    fn misses_are_reported() {
        let mut c = zns_cache();
        let (hit, _) = c.get(99, Nanos::ZERO).unwrap();
        assert!(!hit);
        assert_eq!(c.stats().hit_ratio(), 0.0);
    }

    fn churn<S: SegmentStore>(c: &mut FlashCache<S>, inserts: u64) -> Nanos {
        let mut t = Nanos::ZERO;
        for k in 0..inserts {
            t = c.put(k, 2, t).unwrap();
            // Re-touch a sliding window of recent keys.
            if k >= 4 {
                t = c.get(k - 4, t).unwrap().1;
            }
        }
        t
    }

    #[test]
    fn fifo_eviction_recycles_segments() {
        let mut c = zns_cache();
        // 8 segments x 64 pages = 512 pages; insert 600 two-page objects.
        churn(&mut c, 600);
        assert!(c.stats().evicted > 0, "ring never recycled");
        // Oldest objects are gone, newest present.
        let (hit_old, _) = c.get(0, Nanos::ZERO).unwrap();
        let (hit_new, _) = c.get(599, Nanos::ZERO).unwrap();
        assert!(!hit_old);
        assert!(hit_new);
    }

    #[test]
    fn readmission_retains_hot_objects() {
        let mut c = zns_cache();
        let mut t = Nanos::ZERO;
        for k in 0..600u64 {
            t = c.put(k, 2, t).unwrap();
            // Keep key 0 hot.
            t = c.get(0, t).unwrap().1;
        }
        assert!(c.stats().readmitted > 0);
        let (hot_kept, _) = c.get(0, t).unwrap();
        assert!(hot_kept, "readmission must keep the hot key");
    }

    #[test]
    fn dram_gap_between_paths() {
        let mut conv = conv_cache();
        let mut zns = zns_cache();
        churn(&mut conv, 300);
        churn(&mut zns, 300);
        // Conventional path needs a whole segment of DRAM; ZNS one page.
        assert!(conv.peak_dram_bytes() >= 16 * 4096);
        assert_eq!(zns.peak_dram_bytes(), 4096);
        assert!(conv.peak_dram_bytes() >= 16 * zns.peak_dram_bytes());
    }

    #[test]
    fn device_wa_stays_near_one_on_both() {
        let mut conv = conv_cache();
        let mut zns = zns_cache();
        churn(&mut conv, 2000);
        churn(&mut zns, 2000);
        let conv_wa = conv.store().device_write_amplification();
        let zns_wa = zns.store().device_write_amplification();
        // Conventional pays residual WA even for segment-aligned TRIMs:
        // the FTL cannot align the cache's logical segments to physical
        // erasure blocks (no hints through the block interface), so block
        // deaths stagger. The ZNS segment *is* the erase unit.
        assert!(conv_wa < 2.6, "conv cache WA {conv_wa}");
        assert!(zns_wa < 1.1, "zns cache WA {zns_wa}");
        assert!(conv_wa > zns_wa, "alignment gap vanished");
    }

    #[test]
    #[should_panic(expected = "object larger than a segment")]
    fn oversized_object_is_rejected() {
        let mut c = zns_cache();
        let _ = c.put(1, 65, Nanos::ZERO);
    }
}
