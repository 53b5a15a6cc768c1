//! The ZNS device: zone management commands over the flash substrate.

use crate::backend::ZonedDevice;
use crate::config::ZnsConfig;
use crate::error::ZnsError;
use crate::table::ZoneTable;
use crate::zone::{Zone, ZoneId, ZoneState};
use crate::Result;
use bh_flash::{FlashDevice, FlashError, FlashStats, OpOrigin, PlaneId, Ppa, Stamp};
use bh_metrics::Nanos;
use bh_obs::ObsSnapshot;
use bh_trace::Tracer;

/// Operation counters specific to the zoned interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZnsStats {
    /// Write commands completed (at the write pointer).
    pub writes: u64,
    /// Zone-append commands completed.
    pub appends: u64,
    /// Read commands completed.
    pub reads: u64,
    /// Zone resets completed.
    pub resets: u64,
    /// Pages moved by simple-copy.
    pub simple_copy_pages: u64,
    /// Implicitly opened zones the controller closed to admit another
    /// open.
    pub implicit_closes: u64,
}

/// A Zoned Namespaces SSD: the zone state machine of [`ZoneTable`] over
/// a timed flash device. This type is the media half of each command —
/// where a page lands in the zone's block stripe, the flash program,
/// erase or copy and its completion instant, and retiring the blocks an
/// erase wore out.
///
/// # Examples
///
/// ```
/// use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZonedDevice};
/// use bh_flash::{FlashConfig, Geometry};
/// use bh_metrics::Nanos;
///
/// let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
/// let mut dev = ZnsDevice::new(cfg).unwrap();
/// let done = dev.write(ZoneId(0), 0, 0xBEEF, Nanos::ZERO).unwrap();
/// let (stamp, _)= dev.read(ZoneId(0), 0, done).unwrap();
/// assert_eq!(stamp, 0xBEEF);
/// ```
pub struct ZnsDevice {
    dev: FlashDevice,
    cfg: ZnsConfig,
    table: ZoneTable,
}

impl ZnsDevice {
    /// Builds a ZNS device from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration or geometry is invalid.
    pub fn new(cfg: ZnsConfig) -> std::result::Result<Self, String> {
        cfg.validate()?;
        let dev = FlashDevice::new(cfg.flash)?;
        let geo = dev.geometry();
        let planes = geo.total_planes();
        let bpz = cfg.blocks_per_zone;
        let zones = (0..cfg.num_zones())
            .map(|z| {
                // Zone z takes global block slots [z*bpz, (z+1)*bpz);
                // slot g lives on plane g % P at in-plane index g / P, so
                // consecutive slots stripe across planes.
                let blocks = (0..bpz)
                    .map(|i| {
                        let g = z * bpz + i;
                        geo.block_in_plane(PlaneId(g % planes), g / planes)
                    })
                    .collect();
                Zone::new(
                    ZoneId(z),
                    blocks,
                    geo.pages_per_block as u64,
                    cfg.zone_capacity(),
                )
            })
            .collect();
        let table = ZoneTable::new(
            zones,
            cfg.max_active_zones,
            cfg.max_open_zones,
            cfg.burns_to_readonly,
        );
        Ok(ZnsDevice { dev, cfg, table })
    }

    /// The tracer in use (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.table.tracer()
    }

    /// The device configuration.
    pub fn config(&self) -> &ZnsConfig {
        &self.cfg
    }

    /// Zoned-interface operation counters.
    pub fn stats(&self) -> &ZnsStats {
        self.table.stats()
    }

    /// Underlying flash statistics (programs, erases, copies, WA).
    pub fn flash_stats(&self) -> &FlashStats {
        self.dev.stats()
    }

    /// Direct access to the flash device, for inspection.
    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    /// Iterates over all zone descriptors, in id order.
    pub fn zones(&self) -> impl Iterator<Item = &Zone> {
        self.table.zones().iter()
    }

    /// On-board DRAM a real device would need for the zone→block map:
    /// 4 bytes per erasure block (§2.2's "coarser-grained address
    /// translation"; ~256 KB for a 1 TB drive with 16 MB blocks).
    pub fn device_dram_bytes(&self) -> u64 {
        self.dev.geometry().total_blocks() as u64 * 4
    }

    /// Programs `stamp` at the admitted write pointer `wp` and commits
    /// the write or the burn. The block's next page must be `wp`'s page
    /// (the §2.1 sequential-program rule).
    fn program(&mut self, id: ZoneId, wp: u64, stamp: Stamp, now: Nanos) -> Result<Nanos> {
        let (block, page) = self.table.zone(id)?.locate(wp);
        match self.dev.program_next(block, stamp, now, OpOrigin::Host) {
            Ok((programmed, _)) if programmed != page => Err(FlashError::NonSequentialProgram {
                ppa: Ppa::new(block, page),
                expected: programmed,
            }
            .into()),
            Ok((_, done)) => {
                self.table.commit_write(id);
                Ok(done)
            }
            Err(FlashError::ProgramFailed(_)) => Err(self.table.commit_burn(id)),
            Err(e) => Err(e.into()),
        }
    }

    /// The timed half of a read: returns the page sensed and the
    /// completion instant.
    #[inline]
    fn sense(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<(Ppa, Nanos)> {
        self.table.tick(now);
        let (block, page) = self.table.readable(id, offset)?.locate(offset);
        let ppa = Ppa::new(block, page);
        let (valid, done) = self.dev.sense(ppa, now, OpOrigin::Host)?;
        // Zones hold no invalidated pages (no in-place overwrite), so an
        // invalid page below the write pointer is a burned slot left by
        // a transient program failure.
        if !valid {
            return Err(ZnsError::MediaError { zone: id, offset });
        }
        self.table.stats_mut().reads += 1;
        Ok((ppa, done))
    }
}

// No LTO in this workspace, and host allocators poll the report accessors
// before every write from another crate: the ones that only forward to
// the table are `#[inline]`.
impl ZonedDevice for ZnsDevice {
    fn num_zones(&self) -> u32 {
        self.table.zones().len() as u32
    }

    fn zone_capacity(&self) -> u64 {
        self.cfg.zone_capacity()
    }

    fn page_bytes(&self) -> u32 {
        self.cfg.flash.geometry.page_bytes
    }

    #[inline]
    fn zone(&self, id: ZoneId) -> Result<&Zone> {
        self.table.zone(id)
    }

    #[inline]
    fn zone_report(&self) -> &[Zone] {
        self.table.zones()
    }

    #[inline]
    fn active_zones(&self) -> u32 {
        self.table.active_zones()
    }

    #[inline]
    fn open_zones(&self) -> u32 {
        self.table.open_zones()
    }

    #[inline]
    fn empty_zones(&self) -> u32 {
        self.table.empty_zones()
    }

    fn open(&mut self, id: ZoneId) -> Result<()> {
        self.table.open(id)
    }

    fn close(&mut self, id: ZoneId) -> Result<()> {
        self.table.close(id)
    }

    /// Further writes are rejected until reset; finishing a Full zone is
    /// a no-op.
    fn finish(&mut self, id: ZoneId) -> Result<()> {
        self.table.finish(id).map(|_| ())
    }

    /// Erases the zone's blocks in parallel across its planes, so the
    /// completion instant is close to a single block-erase time. Blocks
    /// that exhaust their endurance during the reset are retired,
    /// shrinking the zone (§2.1); a zone with no usable blocks left goes
    /// offline.
    fn reset(&mut self, id: ZoneId, now: Nanos) -> Result<Nanos> {
        self.table.tick(now);
        self.table.resettable(id)?;
        let mut done = now;
        // Allocates only when a block wears out.
        let mut retired = Vec::new();
        for &b in self.table.zone(id)?.blocks() {
            let outcome = self.dev.erase(b, now)?;
            done = done.max(outcome.done);
            if outcome.retired {
                retired.push(b);
            }
        }
        self.table.tick(done);
        let pages_per_block = self.dev.geometry().pages_per_block as u64;
        self.table.rewind(id, &retired, pages_per_block);
        Ok(done)
    }

    /// The offset check is the spec's Zone Invalid Write — the §4.2
    /// contention hazard.
    fn write(&mut self, id: ZoneId, offset: u64, stamp: Stamp, now: Nanos) -> Result<Nanos> {
        self.table.tick(now);
        let wp = self.table.prepare_write(id, Some(offset))?;
        let done = self.program(id, wp, stamp, now)?;
        self.table.stats_mut().writes += 1;
        Ok(done)
    }

    fn append(&mut self, id: ZoneId, stamp: Stamp, now: Nanos) -> Result<(u64, Nanos)> {
        self.table.tick(now);
        let wp = self.table.prepare_write(id, None)?;
        let done = self.program(id, wp, stamp, now)?;
        self.table.stats_mut().appends += 1;
        Ok((wp, done))
    }

    /// The timed read plus one stamp load.
    fn read(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<(Stamp, Nanos)> {
        let (ppa, done) = self.sense(id, offset, now)?;
        Ok((self.dev.stamp(ppa), done))
    }

    /// Skips the stamp load.
    fn read_timed(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<Nanos> {
        self.sense(id, offset, now).map(|(_, done)| done)
    }

    /// Controller-managed movement (§2.3). The offsets are contiguous
    /// unless transient program failures burned slots along the way.
    fn simple_copy(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> Result<(Vec<u64>, Nanos)> {
        self.table.tick(now);
        // Validate sources up front so the copy is all-or-nothing.
        self.table.readable_all(sources)?;
        if self.table.zone(dst)?.remaining() < sources.len() as u64 {
            return Err(ZnsError::ZoneFull(dst));
        }
        // Traced, a run is one page, so each copy's flash event is
        // followed by its own append event as it always was.
        let longest = if self.table.tracer().enabled() {
            1
        } else {
            usize::MAX
        };
        let mut placed = Vec::with_capacity(sources.len());
        let mut done = now;
        let mut rest = sources;
        while !rest.is_empty() {
            let wp = self.table.prepare_write(dst, None)?;
            let zones = self.table.zones();
            let dst_zone = &zones[dst.0 as usize];
            let run = &rest[..rest.len().min(dst_zone.remaining() as usize).min(longest)];
            let pairs = run.iter().zip(wp..).map(|(&(src, offset), to)| {
                let (block, page) = zones[src.0 as usize].locate(offset);
                (Ppa::new(block, page), dst_zone.locate(to).0)
            });
            let copy = self.dev.copy_run(pairs, now);
            let copied = copy.copied as u64;
            done = done.max(copy.done);
            self.table.commit_writes(dst, copied);
            self.table.stats_mut().simple_copy_pages += copied;
            placed.extend(wp..wp + copied);
            rest = &rest[copy.copied as usize..];
            match copy.stopped {
                None => {}
                Some(FlashError::ProgramFailed(_)) => {
                    // Burned destination slot: consume it and carry on
                    // with this source at the advanced pointer. If the
                    // burn filled or retired the zone, surface that —
                    // already-copied pages become garbage the host
                    // reclaims with the rest of the source zone.
                    let e = self.table.commit_burn(dst);
                    match self.table.zone(dst)?.state() {
                        ZoneState::Full | ZoneState::ReadOnly => return Err(e),
                        _ => {}
                    }
                }
                Some(e) => return Err(e.into()),
            }
        }
        Ok((placed, done))
    }

    fn inject_read_only(&mut self, id: ZoneId) -> Result<()> {
        self.table.force_read_only(id)
    }

    fn zone_stats(&self) -> ZnsStats {
        *self.table.stats()
    }

    fn flash_stats(&self) -> FlashStats {
        *self.dev.stats()
    }

    fn busy_planes(&self, now: Nanos) -> u32 {
        self.dev.scheduler().busy_planes(now)
    }

    /// The plan goes to the underlying flash device.
    fn install_faults(&mut self, cfg: bh_faults::FaultConfig) {
        self.dev.install_faults(cfg);
    }

    /// Zone state and write pointers are durable per the ZNS spec, so
    /// recovery is trivial: open zones lose their transient open
    /// resources and come back Closed (or Empty if unwritten). No media
    /// scan is needed — the contrast with the conventional FTL's full
    /// out-of-band scan is the point — and recovery completes
    /// immediately.
    fn power_cycle(&mut self, now: Nanos) -> Nanos {
        self.table.tick(now);
        self.table.power_loss();
        self.table.clock()
    }

    /// The tracer goes on the zoned layer and the flash device beneath
    /// it.
    fn set_tracer(&mut self, tracer: Tracer) {
        self.dev.set_tracer(tracer.clone());
        self.table.set_tracer(tracer);
    }

    /// Projects the flash device's and the zone table's stats.
    fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.dev.obs_into(snap);
        self.table.obs_into(snap);
    }

    fn backend_label(&self) -> &'static str {
        "zns"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::state_tag;
    use bh_flash::{CellKind, FlashConfig, Geometry};
    use bh_trace::{ZnsEvent, ZoneStateTag};

    fn dev() -> ZnsDevice {
        // small_test: 32 blocks, 4 per zone -> 8 zones of 64 pages.
        ZnsDevice::new(ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4)).unwrap()
    }

    fn dev_with_limits(max_active: u32, max_open: u32) -> ZnsDevice {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = max_active;
        cfg.max_open_zones = max_open;
        ZnsDevice::new(cfg).unwrap()
    }

    #[test]
    fn conforms_to_shared_zone_state_machine() {
        crate::conformance::check_state_machine(dev);
    }

    #[test]
    fn rejects_geometry_past_32_bit_addresses() {
        // The zone-size check divides `total_blocks`, which overflows u32
        // for this geometry: the geometry must be validated first.
        let mut geo = Geometry::small_test();
        geo.channels = 1 << 16;
        geo.dies_per_channel = 1 << 16;
        let err = ZnsDevice::new(ZnsConfig::new(FlashConfig::tlc(geo), 4))
            .err()
            .unwrap();
        assert!(err.contains("32-bit page addresses"), "{err}");
    }

    #[test]
    fn geometry_derives_zones() {
        let d = dev();
        assert_eq!(d.num_zones(), 8);
        assert_eq!(d.zone(ZoneId(0)).unwrap().capacity(), 64);
        // Zone blocks land on distinct planes (4 blocks, 4 planes).
        let z = d.zone(ZoneId(0)).unwrap();
        let geo = d.device().geometry();
        let planes: std::collections::HashSet<_> =
            z.blocks().iter().map(|&b| geo.plane_of(b)).collect();
        assert_eq!(planes.len(), 4);
    }

    #[test]
    fn sequential_write_and_read_roundtrip() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            t = d.write(ZoneId(0), i, 1000 + i, t).unwrap();
        }
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Full);
        for i in 0..64u64 {
            let (stamp, _) = d.read(ZoneId(0), i, t).unwrap();
            assert_eq!(stamp, 1000 + i);
        }
    }

    #[test]
    fn write_off_pointer_is_rejected() {
        let mut d = dev();
        d.write(ZoneId(0), 0, 1, Nanos::ZERO).unwrap();
        let err = d.write(ZoneId(0), 2, 2, Nanos::ZERO).unwrap_err();
        assert_eq!(
            err,
            ZnsError::NotAtWritePointer {
                zone: ZoneId(0),
                wp: 1,
                got: 2
            }
        );
        // Rewriting offset 0 (already written) is equally invalid.
        assert!(matches!(
            d.write(ZoneId(0), 0, 3, Nanos::ZERO),
            Err(ZnsError::NotAtWritePointer { .. })
        ));
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        // A page programmed behind the zone table's back puts the block's
        // cursor past the write pointer's page: the append is refused
        // with the §2.1 error instead of committing the wrong page.
        let mut d = dev();
        let (block, page) = d.table.zone(ZoneId(0)).unwrap().locate(0);
        d.dev
            .program_next(block, 1, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let err = d.append(ZoneId(0), 2, Nanos::ZERO).unwrap_err();
        assert!(
            matches!(
                err,
                ZnsError::Flash(FlashError::NonSequentialProgram { ppa, expected })
                    if ppa == Ppa::new(block, page) && expected == page + 1
            ),
            "{err:?}"
        );
        assert_eq!(d.zone(ZoneId(0)).unwrap().write_pointer(), 0);
    }

    #[test]
    fn append_assigns_sequential_offsets() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for expected in 0..10u64 {
            let (off, done) = d.append(ZoneId(3), 50 + expected, t).unwrap();
            assert_eq!(off, expected);
            t = done;
        }
        assert_eq!(d.stats().appends, 10);
    }

    #[test]
    fn read_beyond_wp_is_rejected() {
        let mut d = dev();
        d.write(ZoneId(0), 0, 1, Nanos::ZERO).unwrap();
        assert!(matches!(
            d.read(ZoneId(0), 1, Nanos::ZERO),
            Err(ZnsError::ReadBeyondWritePointer { .. })
        ));
    }

    #[test]
    fn full_zone_rejects_writes_until_reset() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            t = d.write(ZoneId(0), i, i, t).unwrap();
        }
        assert_eq!(
            d.write(ZoneId(0), 64, 0, t),
            Err(ZnsError::ZoneFull(ZoneId(0)))
        );
        let done = d.reset(ZoneId(0), t).unwrap();
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Empty);
        assert_eq!(d.zone(ZoneId(0)).unwrap().write_pointer(), 0);
        d.write(ZoneId(0), 0, 9, done).unwrap();
    }

    #[test]
    fn reset_erases_in_parallel_across_planes() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            t = d.write(ZoneId(0), i, i, t).unwrap();
        }
        let start = t;
        let done = d.reset(ZoneId(0), start).unwrap();
        let erase = d.device().timing().erase;
        // 4 blocks on 4 planes: the whole reset costs ~one erase, not 4.
        assert!(done.saturating_sub(start) < erase * 2);
    }

    #[test]
    fn active_and_open_limits_enforced() {
        let mut d = dev_with_limits(3, 2);
        // Two implicit opens via writes.
        d.write(ZoneId(0), 0, 1, Nanos::ZERO).unwrap();
        d.write(ZoneId(1), 0, 1, Nanos::ZERO).unwrap();
        assert_eq!(d.open_zones(), 2);
        // Third write: controller closes an implicitly opened zone.
        d.write(ZoneId(2), 0, 1, Nanos::ZERO).unwrap();
        assert_eq!(d.open_zones(), 2);
        assert_eq!(d.active_zones(), 3);
        assert_eq!(d.stats().implicit_closes, 1);
        // Fourth zone would exceed MAR (closed zones still count).
        assert_eq!(
            d.write(ZoneId(3), 0, 1, Nanos::ZERO),
            Err(ZnsError::TooManyActiveZones { limit: 3 })
        );
        // Resetting one active zone frees budget.
        d.reset(ZoneId(0), Nanos::ZERO).unwrap();
        d.write(ZoneId(3), 0, 1, Nanos::ZERO).unwrap();
    }

    #[test]
    fn explicit_opens_are_not_evicted() {
        let mut d = dev_with_limits(4, 2);
        d.open(ZoneId(0)).unwrap();
        d.open(ZoneId(1)).unwrap();
        // Implicit open must fail: both open slots hold explicit zones.
        assert_eq!(
            d.write(ZoneId(2), 0, 1, Nanos::ZERO),
            Err(ZnsError::TooManyOpenZones { limit: 2 })
        );
        // Explicit open also fails.
        assert_eq!(
            d.open(ZoneId(2)),
            Err(ZnsError::TooManyOpenZones { limit: 2 })
        );
        // Closing one makes room.
        d.close(ZoneId(0)).unwrap();
        d.open(ZoneId(2)).unwrap();
    }

    #[test]
    fn close_of_unwritten_zone_returns_to_empty() {
        let mut d = dev();
        d.open(ZoneId(0)).unwrap();
        assert_eq!(d.active_zones(), 1);
        d.close(ZoneId(0)).unwrap();
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Empty);
        assert_eq!(d.active_zones(), 0);
        // Closing a non-open zone is an error.
        assert!(matches!(
            d.close(ZoneId(0)),
            Err(ZnsError::WrongState { op: "close", .. })
        ));
    }

    #[test]
    fn finish_moves_to_full_and_releases_resources() {
        let mut d = dev();
        d.write(ZoneId(0), 0, 1, Nanos::ZERO).unwrap();
        assert_eq!(d.active_zones(), 1);
        d.finish(ZoneId(0)).unwrap();
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Full);
        assert_eq!(d.active_zones(), 0);
        // Data below wp still readable; beyond still rejected.
        assert!(d.read(ZoneId(0), 0, Nanos::ZERO).is_ok());
        assert!(d.read(ZoneId(0), 1, Nanos::ZERO).is_err());
        // Finish is idempotent on Full.
        d.finish(ZoneId(0)).unwrap();
    }

    #[test]
    fn simple_copy_moves_data_without_host_reads() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for i in 0..8u64 {
            t = d.write(ZoneId(0), i, 100 + i, t).unwrap();
        }
        let host_reads_before = d.flash_stats().host_reads;
        let sources: Vec<_> = (0..8u64).map(|i| (ZoneId(0), i)).collect();
        let (placed, done) = d.simple_copy(&sources, ZoneId(1), t).unwrap();
        assert_eq!(placed, (0..8).collect::<Vec<_>>());
        assert_eq!(d.flash_stats().host_reads, host_reads_before);
        assert_eq!(d.stats().simple_copy_pages, 8);
        for i in 0..8u64 {
            let (stamp, _) = d.read(ZoneId(1), i, done).unwrap();
            assert_eq!(stamp, 100 + i);
        }
    }

    #[test]
    fn simple_copy_validates_before_moving() {
        let mut d = dev();
        d.write(ZoneId(0), 0, 1, Nanos::ZERO).unwrap();
        // Source beyond wp: nothing is copied.
        let err = d
            .simple_copy(&[(ZoneId(0), 0), (ZoneId(0), 5)], ZoneId(1), Nanos::ZERO)
            .unwrap_err();
        assert!(matches!(err, ZnsError::ReadBeyondWritePointer { .. }));
        assert_eq!(d.zone(ZoneId(1)).unwrap().write_pointer(), 0);
    }

    #[test]
    fn wear_out_shrinks_then_offlines_zone() {
        let mut cfg = ZnsConfig::new(
            FlashConfig {
                geometry: Geometry::small_test(),
                cell: CellKind::Tlc,
                endurance_override: Some(3),
            },
            4,
        );
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        let mut d = ZnsDevice::new(cfg).unwrap();
        let mut t = Nanos::ZERO;
        let mut capacities = Vec::new();
        for _ in 0..4 {
            // Write a little, then reset; endurance 3 retires all blocks
            // on the 3rd erase.
            match d.write(ZoneId(0), 0, 1, t) {
                Ok(done) => t = done,
                Err(ZnsError::ZoneOffline(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            match d.reset(ZoneId(0), t) {
                Ok(done) => {
                    t = done;
                    capacities.push(d.zone(ZoneId(0)).unwrap().capacity());
                }
                Err(ZnsError::ZoneOffline(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Offline);
        assert!(d.read(ZoneId(0), 0, t).is_err());
        assert!(d.reset(ZoneId(0), t).is_err());
        // Capacity history is non-increasing.
        for w in capacities.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn read_only_injection_blocks_writes_allows_reads() {
        let mut d = dev();
        let t = d.write(ZoneId(0), 0, 7, Nanos::ZERO).unwrap();
        d.inject_read_only(ZoneId(0)).unwrap();
        assert_eq!(
            d.write(ZoneId(0), 1, 8, t),
            Err(ZnsError::ZoneReadOnly(ZoneId(0)))
        );
        assert_eq!(
            d.reset(ZoneId(0), t),
            Err(ZnsError::ZoneReadOnly(ZoneId(0)))
        );
        let (stamp, _) = d.read(ZoneId(0), 0, t).unwrap();
        assert_eq!(stamp, 7);
        assert_eq!(d.active_zones(), 0);
    }

    #[test]
    fn striped_writes_exploit_plane_parallelism() {
        let mut d = dev();
        // Issue 4 writes at the same instant: they stripe across 4 planes
        // and only serialize on the (2) channel buses.
        let mut dones = Vec::new();
        for i in 0..4u64 {
            dones.push(d.write(ZoneId(0), i, i, Nanos::ZERO).unwrap());
        }
        let t = d.device().timing();
        let serial = (t.transfer(4096) + t.program) * 4;
        assert!(
            *dones.iter().max().unwrap() < serial,
            "striped writes should beat serial completion"
        );
    }

    #[test]
    fn transitions_replay_to_device_state() {
        let mut d = dev_with_limits(3, 2);
        d.set_tracer(Tracer::ring(1 << 12));
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            t = d.write(ZoneId(0), i, i, t).unwrap();
        }
        d.open(ZoneId(1)).unwrap();
        d.write(ZoneId(1), 0, 1, t).unwrap();
        d.close(ZoneId(1)).unwrap();
        t = d.reset(ZoneId(0), t).unwrap();
        // Trip the MAR: zones 1 (closed) + a write each to 2 and 3.
        d.write(ZoneId(2), 0, 1, t).unwrap();
        d.write(ZoneId(3), 0, 1, t).unwrap();
        assert!(d.write(ZoneId(4), 0, 1, t).is_err());
        let events = d.tracer().events();
        let replayed = bh_trace::replay::zone_states(&events);
        for z in d.zones() {
            let got = replayed
                .get(&z.id().0)
                .copied()
                .unwrap_or(bh_trace::ZoneStateTag::Empty);
            assert_eq!(got, state_tag(z.state()), "zone {:?}", z.id());
        }
        // The refused open left a limit-stall marker.
        assert!(events.iter().any(|e| matches!(
            e.event,
            bh_trace::Event::Zns(ZnsEvent::LimitStall { kind: "active", .. })
        )));
    }

    #[test]
    fn dram_accounting_is_coarse() {
        let d = dev();
        // 4 bytes per block, far below the conventional 4 bytes per page.
        assert_eq!(d.device_dram_bytes(), 32 * 4);
        let per_page = d.device().geometry().total_pages() * 4;
        assert!(d.device_dram_bytes() < per_page);
    }

    #[test]
    fn burned_write_advances_wp_and_redrive_succeeds() {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.burns_to_readonly = 1000; // Never degrade in this test.
        let mut d = ZnsDevice::new(cfg).unwrap();
        d.install_faults(bh_faults::FaultConfig::new(42).with_program_fail_ppm(500_000));
        let mut t = Nanos::ZERO;
        let mut burned = Vec::new();
        let mut written = Vec::new();
        for stamp in 0..16u64 {
            loop {
                let wp = d.zone(ZoneId(0)).unwrap().write_pointer();
                match d.write(ZoneId(0), wp, 1000 + stamp, t) {
                    Ok(done) => {
                        t = done;
                        written.push((wp, 1000 + stamp));
                        break;
                    }
                    Err(ZnsError::ProgramFailure { zone, offset }) => {
                        assert_eq!(zone, ZoneId(0));
                        assert_eq!(offset, wp);
                        // The slot is consumed: wp moved past the hole.
                        assert_eq!(d.zone(ZoneId(0)).unwrap().write_pointer(), wp + 1);
                        burned.push(wp);
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        assert!(!burned.is_empty(), "50% fail rate must burn at least once");
        assert_eq!(d.zone(ZoneId(0)).unwrap().burned() as usize, burned.len());
        let counters = d.device().fault_counters().unwrap();
        assert_eq!(counters.program_failures as usize, burned.len());
        // Every acknowledged write reads back; every burned hole reports a
        // media error rather than stale or unwritten data.
        for (off, stamp) in written {
            let (got, _) = d.read(ZoneId(0), off, t).unwrap();
            assert_eq!(got, stamp);
        }
        for off in burned {
            assert_eq!(
                d.read(ZoneId(0), off, t),
                Err(ZnsError::MediaError {
                    zone: ZoneId(0),
                    offset: off
                })
            );
        }
    }

    #[test]
    fn repeated_burns_degrade_zone_to_read_only() {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.burns_to_readonly = 3;
        let mut d = ZnsDevice::new(cfg).unwrap();
        d.set_tracer(Tracer::ring(1 << 10));
        // Two good writes, then every program fails.
        let mut t = d.write(ZoneId(0), 0, 70, Nanos::ZERO).unwrap();
        t = d.write(ZoneId(0), 1, 71, t).unwrap();
        d.install_faults(bh_faults::FaultConfig::new(7).with_program_fail_ppm(1_000_000));
        for burn in 0..3u64 {
            let wp = d.zone(ZoneId(0)).unwrap().write_pointer();
            assert_eq!(wp, 2 + burn);
            assert!(matches!(
                d.write(ZoneId(0), wp, 99, t),
                Err(ZnsError::ProgramFailure { .. })
            ));
        }
        let zone = d.zone(ZoneId(0)).unwrap();
        assert_eq!(zone.state(), ZoneState::ReadOnly);
        assert_eq!(zone.burned(), 3);
        assert_eq!(d.open_zones(), 0);
        assert_eq!(d.active_zones(), 0);
        // Data written before degradation stays readable; writes and
        // resets are refused.
        let (stamp, _) = d.read(ZoneId(0), 0, t).unwrap();
        assert_eq!(stamp, 70);
        assert_eq!(
            d.write(ZoneId(0), 5, 0, t),
            Err(ZnsError::ZoneReadOnly(ZoneId(0)))
        );
        assert_eq!(
            d.reset(ZoneId(0), t),
            Err(ZnsError::ZoneReadOnly(ZoneId(0)))
        );
        // The degradation shows in the trace with its cause.
        let events = d.tracer().events();
        assert!(events.iter().any(|e| matches!(
            e.event,
            bh_trace::Event::Zns(ZnsEvent::Transition {
                to: ZoneStateTag::ReadOnly,
                cause: "program-fail",
                ..
            })
        )));
    }

    #[test]
    fn reset_clears_burn_count() {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.burns_to_readonly = 1000;
        let mut d = ZnsDevice::new(cfg).unwrap();
        d.install_faults(bh_faults::FaultConfig::new(9).with_program_fail_ppm(1_000_000));
        assert!(d.write(ZoneId(0), 0, 1, Nanos::ZERO).is_err());
        assert_eq!(d.zone(ZoneId(0)).unwrap().burned(), 1);
        d.install_faults(bh_faults::FaultConfig::new(9)); // quiet
        let t = d.reset(ZoneId(0), Nanos::ZERO).unwrap();
        assert_eq!(d.zone(ZoneId(0)).unwrap().burned(), 0);
        // The erased zone accepts writes again from offset 0.
        d.write(ZoneId(0), 0, 5, t).unwrap();
    }

    #[test]
    fn simple_copy_redrives_around_burned_slots() {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.burns_to_readonly = 1000;
        let mut d = ZnsDevice::new(cfg).unwrap();
        let mut t = Nanos::ZERO;
        for i in 0..8u64 {
            t = d.write(ZoneId(0), i, 100 + i, t).unwrap();
        }
        d.install_faults(bh_faults::FaultConfig::new(11).with_program_fail_ppm(400_000));
        let sources: Vec<_> = (0..8u64).map(|i| (ZoneId(0), i)).collect();
        let (placed, done) = d.simple_copy(&sources, ZoneId(1), t).unwrap();
        assert_eq!(d.stats().simple_copy_pages, 8);
        // Each source landed at its reported offset; burned slots in
        // between read as holes.
        for (i, &off) in placed.iter().enumerate() {
            let (stamp, _) = d.read(ZoneId(1), off, done).unwrap();
            assert_eq!(stamp, 100 + i as u64);
        }
        let wp = d.zone(ZoneId(1)).unwrap().write_pointer();
        assert!(wp >= 8, "burns must only lengthen the destination");
        let mut got = Vec::new();
        for off in 0..wp {
            match d.read(ZoneId(1), off, done) {
                Ok((stamp, _)) => got.push(stamp),
                Err(ZnsError::MediaError { .. }) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got, (100..108).collect::<Vec<_>>());
        let burns = d.zone(ZoneId(1)).unwrap().burned() as u64;
        assert_eq!(wp, 8 + burns);
    }

    #[test]
    fn power_cycle_closes_open_zones_without_media_work() {
        let mut d = dev();
        d.set_tracer(Tracer::ring(1 << 10));
        let mut t = d.write(ZoneId(0), 0, 1, Nanos::ZERO).unwrap();
        t = d.write(ZoneId(1), 0, 2, t).unwrap();
        d.open(ZoneId(2)).unwrap(); // Explicitly open, unwritten.
        assert_eq!(d.open_zones(), 3);
        let reads_before = d.flash_stats().internal_reads;
        let done = d.power_cycle(t);
        // Recovery is free: zone metadata is durable, no scan happens.
        assert_eq!(done, t);
        assert_eq!(d.flash_stats().internal_reads, reads_before);
        assert_eq!(d.open_zones(), 0);
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Closed);
        assert_eq!(d.zone(ZoneId(1)).unwrap().state(), ZoneState::Closed);
        assert_eq!(d.zone(ZoneId(2)).unwrap().state(), ZoneState::Empty);
        // Write pointers and data survive the cycle.
        assert_eq!(d.zone(ZoneId(0)).unwrap().write_pointer(), 1);
        let (stamp, _) = d.read(ZoneId(0), 0, done).unwrap();
        assert_eq!(stamp, 1);
        // Writes resume at the preserved pointer.
        d.write(ZoneId(0), 1, 3, done).unwrap();
        let events = d.tracer().events();
        let power_closes = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    bh_trace::Event::Zns(ZnsEvent::Transition {
                        cause: "power-loss",
                        ..
                    })
                )
            })
            .count();
        assert_eq!(power_closes, 3);
    }

    #[test]
    fn empty_zone_count_tracks_every_transition() {
        let scan =
            |d: &ZnsDevice| d.zones().filter(|z| z.state() == ZoneState::Empty).count() as u32;
        let mut d = dev();
        assert_eq!(d.empty_zones(), scan(&d));
        let mut t = Nanos::ZERO;
        // Open/write/full/finish/reset/close/inject across several zones.
        t = d.write(ZoneId(0), 0, 1, t).unwrap();
        assert_eq!(d.empty_zones(), scan(&d));
        for i in 1..64 {
            t = d.write(ZoneId(0), i, 1, t).unwrap();
        }
        assert_eq!(d.empty_zones(), scan(&d));
        d.open(ZoneId(1)).unwrap();
        d.close(ZoneId(1)).unwrap(); // wp == 0: back to Empty
        assert_eq!(d.empty_zones(), scan(&d));
        d.finish(ZoneId(2)).unwrap(); // Empty -> Full directly
        assert_eq!(d.empty_zones(), scan(&d));
        t = d.reset(ZoneId(0), t).unwrap();
        assert_eq!(d.empty_zones(), scan(&d));
        d.inject_read_only(ZoneId(3)).unwrap();
        assert_eq!(d.empty_zones(), scan(&d));
        t = d.append(ZoneId(4), 9, t).unwrap().1;
        d.power_cycle(t);
        assert_eq!(d.empty_zones(), scan(&d));
    }
}
