//! Block-interface emulation over a ZNS SSD.
//!
//! §2.3: "it was straightforward to implement the block interface on the
//! host using ZNS SSDs … aided by the *simple copy* command". [`BlockEmu`]
//! is that layer — a log-structured translation layer in the mold of
//! Linux's dm-zoned and IBM's SALSA (the system behind the paper's "22×
//! lower tail latencies" citation [39]):
//!
//! - Writes append to a current data zone; an LBA map tracks locations.
//! - Overwrites make garbage; **host-side GC** relocates live pages with
//!   simple-copy (no host bus traffic) and resets dead zones.
//! - Crucially, *when* GC runs is governed by a [`ReclaimPolicy`] chosen
//!   by the host — the control conventional FTLs never expose. Running it
//!   in idle windows is what produces SALSA-like tail-latency wins (E7).

use crate::error::HostError;
use crate::reclaim::{self, Tie};
use crate::sched::ReclaimPolicy;
use crate::zalloc::{writable, ZonedLocation};
use crate::Result;
use bh_flash::{decode_oob, encode_oob};
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::{FaultEvent, HostEvent, Tracer};
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsDevice, ZnsError, ZoneId, ZoneState};
use std::collections::BTreeSet;

/// `map` entry of an LBA with no location.
const UNMAPPED: u32 = u32::MAX;

/// The free-zone pool, ordered for host-side wear leveling without a
/// per-allocation scan.
///
/// Replays the historical `min_by_key(resets)` + `swap_remove` selection
/// exactly: `by_reset` keys are `(resets, position)`, so the first
/// element names the first pool position holding the minimum reset
/// count, and `pop_least_reset` re-keys the element `swap_remove` moves
/// into the vacated position.
#[derive(Debug, Default)]
struct ZoneFreeList {
    /// Pool contents with each zone's reset count at insertion. A pooled
    /// zone is Empty and is never reset again while pooled, so the
    /// recorded key stays correct.
    slots: Vec<(ZoneId, u64)>,
    /// `(resets, position)` for every slot.
    by_reset: BTreeSet<(u64, u32)>,
}

impl ZoneFreeList {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.by_reset.clear();
    }

    fn push(&mut self, zone: ZoneId, resets: u64) {
        self.by_reset.insert((resets, self.slots.len() as u32));
        self.slots.push((zone, resets));
    }

    fn pop_least_reset(&mut self) -> Option<ZoneId> {
        let &(resets, pos) = self.by_reset.first()?;
        self.by_reset.remove(&(resets, pos));
        let (zone, _) = self.slots.swap_remove(pos as usize);
        if (pos as usize) < self.slots.len() {
            let (_, moved) = self.slots[pos as usize];
            self.by_reset.remove(&(moved, self.slots.len() as u32));
            self.by_reset.insert((moved, pos));
        }
        Some(zone)
    }

    /// Validates the index against its own slots and against the device,
    /// and that the indexed pick equals the linear scan's.
    fn check<D: ZonedDevice>(&self, dev: &D) {
        assert_eq!(self.slots.len(), self.by_reset.len(), "free index size");
        for (pos, &(zone, resets)) in self.slots.iter().enumerate() {
            assert!(
                self.by_reset.contains(&(resets, pos as u32)),
                "free slot {pos} (zone {zone:?}) missing from index"
            );
            assert_eq!(
                dev.zone(zone).map(|z| z.resets()).unwrap_or(u64::MAX),
                resets,
                "recorded resets stale for pooled zone {zone:?}"
            );
        }
        let linear = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(_, resets))| resets)
            .map(|(pos, _)| pos as u32);
        let indexed = self.by_reset.first().map(|&(_, pos)| pos);
        assert_eq!(linear, indexed, "indexed pick diverges from scan");
    }
}

/// Counters for the emulation layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmuStats {
    /// Host page writes accepted.
    pub host_writes: u64,
    /// Host page reads served.
    pub host_reads: u64,
    /// Live pages relocated by host GC.
    pub relocated: u64,
    /// Zones reset by host GC.
    pub resets: u64,
    /// Reclaim passes executed.
    pub reclaim_runs: u64,
    /// Appends re-driven after transient program failures.
    pub program_redrives: u64,
    /// Power-loss replays completed.
    pub replays: u64,
    /// Pages scanned (read) across all replays to rebuild the map.
    pub replay_pages_scanned: u64,
    /// Reclaim steps forced by free-zone exhaustion rather than policy.
    pub emergency_reclaims: u64,
}

/// How host writes are assigned to zone streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamMap {
    /// One stream: pure log order.
    Single,
    /// Two streams split by per-LBA write frequency.
    HotCold {
        /// Heat at which an LBA is routed to the hot stream.
        threshold: u8,
    },
    /// The caller supplies the stream per write (application hints, like
    /// NVMe write streams but host-enforced).
    Hinted {
        /// Number of streams.
        streams: u32,
    },
}

/// A block device emulated on top of a zoned device.
///
/// Generic over the substrate: the flash-timed simulator
/// ([`ZnsDevice`], the default) or bh-zbd's durable file-backed
/// emulator — anything implementing [`ZonedDevice`]. The emulation
/// logic is identical on every substrate, which is what lets
/// `expt_backend` check the two against each other.
///
/// # Examples
///
/// ```
/// use bh_host::{BlockEmu, ReclaimPolicy};
/// use bh_zns::{ZnsConfig, ZnsDevice};
/// use bh_flash::{FlashConfig, Geometry};
/// use bh_metrics::Nanos;
///
/// let dev = ZnsDevice::new(ZnsConfig::new(
///     FlashConfig::tlc(Geometry::small_test()), 4)).unwrap();
/// let mut emu = BlockEmu::new(dev, 2, ReclaimPolicy::Immediate);
/// let (stamp, done) = {
///     let done = emu.write(3, Nanos::ZERO).unwrap();
///     emu.read(3, done).unwrap()
/// };
/// assert!(stamp > 0);
/// # let _ = done;
/// ```
pub struct BlockEmu<D: ZonedDevice = ZnsDevice> {
    dev: D,
    /// Slots per zone: the pristine zone capacity, which no zone's
    /// capacity ever exceeds. A *slot* is the flat index `zone × stride +
    /// offset` of one physical page; 32 bits address all of them
    /// (checked by [`BlockEmu::new`]).
    stride: u64,
    /// LBA → slot, [`UNMAPPED`] for none: 4 bytes per logical page, the
    /// figure §2.2 of the paper prices a page map at.
    map: Vec<u32>,
    /// Per slot, the stamp `encode_oob(seq, lba)` committed there — byte
    /// for byte what the device holds out of band — or 0 where nothing
    /// was committed since the zone's last reset (`seq` starts at 1, so
    /// no stamp is 0; burned slots stay 0). A zone's stretch of this
    /// array *is* the zone summary the host writes out when the zone
    /// fills (the LFS segment-summary technique append-only zones make
    /// possible): the words of *Full* zones model durable metadata and
    /// survive power loss; partial zones have no summary on media yet and
    /// must be scanned.
    summary_log: Vec<u64>,
    /// One bit per slot, `words_per_zone` words per zone: set while the
    /// slot holds the current version of an LBA. This is the reverse map
    /// — the owning LBA is not stored, it is the low 32 bits of the
    /// slot's `summary_log` word. Invariant, kept by every site that
    /// sets a bit (`write`, `reclaim_step`, `power_cycle`) and checked by
    /// [`BlockEmu::verify_hotpath_invariants`]: bit set ⇔ `map[lba]` of
    /// that word's LBA is this slot; never set at or past the zone's
    /// write pointer.
    live_bits: Vec<u64>,
    /// Bitmap words per zone: ⌈stride / 64⌉.
    words_per_zone: usize,
    /// Live page count per zone (the popcount of its `live_bits` words).
    live: Vec<u64>,
    /// Current data frontiers, one per write stream. A single stream by
    /// default; hot/cold separation uses two; hinted placement uses one
    /// per stream.
    frontiers: Vec<Option<ZoneId>>,
    /// How writes are mapped to streams.
    streams: StreamMap,
    /// Per-LBA saturating write counters for hot/cold classification;
    /// empty unless hot/cold mode is on.
    heat: Vec<u8>,
    /// Host writes since the last heat decay.
    writes_since_decay: u64,
    /// Reclaim stops once this many zones are free (except the Watermark
    /// policy, which uses its own high mark). Prevents pathological
    /// reclaim of nearly-full-live zones, which would burn erase cycles.
    free_target: u32,
    /// Zones held back from the exported capacity; the IdleOnly policy
    /// cleans ahead up to this many free zones during quiet periods.
    reserve_zones: u32,
    /// Current relocation frontier.
    gc_zone: Option<ZoneId>,
    /// Empty zones available for allocation, ordered for wear leveling.
    free: ZoneFreeList,
    /// Reusable scratch for [`BlockEmu::reclaim_step`]: the victim's
    /// survivors in offset order, as the simple-copy source list.
    reloc_sources: Vec<(ZoneId, u64)>,
    policy: ReclaimPolicy,
    /// Instant of the most recent host I/O, for idle detection.
    last_io: Nanos,
    stamp_counter: u64,
    stats: EmuStats,
    tracer: Tracer,
}

impl<D: ZonedDevice> BlockEmu<D> {
    /// Builds an emulated block device over `dev`, holding back
    /// `reserve_zones` zones of the namespace as relocation headroom
    /// (they are not part of the exported capacity).
    ///
    /// # Panics
    ///
    /// Panics if `reserve_zones` leaves no exported capacity, or if the
    /// device holds 2³² − 1 pages or more: slots and the LBA field of a
    /// stamp are 32 bits wide. Both are checked before anything is
    /// allocated.
    pub fn new(dev: D, reserve_zones: u32, policy: ReclaimPolicy) -> Self {
        let zones = dev.num_zones();
        assert!(
            reserve_zones < zones,
            "reserve {reserve_zones} must leave exported zones"
        );
        let stride = dev.zone_capacity();
        let slots = (zones as u64)
            .checked_mul(stride)
            .filter(|&n| n < UNMAPPED as u64);
        let Some(slots) = slots else {
            panic!(
                "{zones} zones of {stride} pages exceed the 32-bit page addresses BlockEmu uses \
                 (at most {} pages)",
                UNMAPPED - 1
            );
        };
        let logical = (zones - reserve_zones) as u64 * stride;
        let mut free = ZoneFreeList::default();
        for z in dev.zone_report() {
            assert!(
                z.capacity() <= stride,
                "zone {:?} holds {} pages, above the device's zone capacity {stride}",
                z.id(),
                z.capacity()
            );
            free.push(z.id(), z.resets());
        }
        let words_per_zone = stride.div_ceil(64) as usize;
        BlockEmu {
            dev,
            stride,
            map: vec![UNMAPPED; logical as usize],
            summary_log: vec![0; slots as usize],
            live_bits: vec![0; zones as usize * words_per_zone],
            words_per_zone,
            live: vec![0; zones as usize],
            frontiers: vec![None],
            streams: StreamMap::Single,
            heat: Vec::new(),
            writes_since_decay: 0,
            // Lazy by default: reclaim only replenishes a small handful
            // of free zones, letting garbage accumulate so victims are
            // mostly dead. Eager space-keeping is expressed with the
            // Watermark policy's high mark instead.
            free_target: 2,
            reserve_zones,
            gc_zone: None,
            free,
            reloc_sources: Vec::new(),
            policy,
            last_io: Nanos::ZERO,
            stamp_counter: 0,
            stats: EmuStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer, cascading it into the underlying ZNS device so
    /// one ring receives host reclaim events and device events in order.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dev.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The tracer currently installed (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Writes the device's slots of `snap` and the host's emergency
    /// reclaims, from the stats each layer keeps.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.dev.obs_into(snap);
        snap.set(Ctr::HostEmergencyReclaims, self.stats.emergency_reclaims);
    }

    /// Installs a transient-fault plan on the flash under the ZNS device.
    pub fn install_faults(&mut self, cfg: bh_faults::FaultConfig) {
        self.dev.install_faults(cfg);
    }

    /// True when the zone can accept another append right now.
    fn zone_writable(&self, z: ZoneId) -> bool {
        self.dev.zone(z).is_ok_and(writable)
    }

    /// Stops writing to `z` as the GC frontier or a data frontier.
    fn retire_frontier(&mut self, z: ZoneId) {
        for f in self.frontiers.iter_mut().chain([&mut self.gc_zone]) {
            if *f == Some(z) {
                *f = None;
            }
        }
    }

    /// Enables hot/cold stream separation (§4.1's application-aware
    /// placement, applied at the block layer): LBAs overwritten at least
    /// `threshold` times since the last decay are routed to a dedicated
    /// hot zone stream, so frequently dying data shares zones and whole
    /// zones expire together. Returns `self` for builder-style use.
    pub fn with_hot_cold(mut self, threshold: u8) -> Self {
        assert!(threshold > 0, "threshold 0 means disabled; use new()");
        self.streams = StreamMap::HotCold { threshold };
        self.frontiers = vec![None, None];
        self.heat = vec![0; self.map.len()];
        self
    }

    /// Enables caller-hinted stream separation: writes carry an explicit
    /// stream id (see [`BlockEmu::write_hinted`]) — the application-
    /// knowledge placement of §4.1, with no inference involved.
    pub fn with_hinted_streams(mut self, streams: u32) -> Self {
        assert!(streams > 0, "need at least one stream");
        self.streams = StreamMap::Hinted { streams };
        self.frontiers = vec![None; streams as usize];
        self
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.map.len() as u64
    }

    /// Number of configured write streams (data frontiers).
    pub fn streams(&self) -> u32 {
        self.frontiers.len() as u32
    }

    /// True when the emulator is in caller-hinted stream mode (writes may
    /// carry explicit stream ids; see [`BlockEmu::write_hinted`]).
    pub fn is_hinted(&self) -> bool {
        matches!(self.streams, StreamMap::Hinted { .. })
    }

    /// Layer counters.
    pub fn stats(&self) -> &EmuStats {
        &self.stats
    }

    /// The underlying zoned device (for substrate-level statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Host-level write amplification: `(host writes + relocations) /
    /// host writes`. Equals the flash-level WA because zones are only
    /// erased when fully dead.
    ///
    /// Returns `1.0` when nothing was written at all and `f64::INFINITY`
    /// when relocation work happened without a single host write (the same
    /// convention as `FlashStats::write_amplification`).
    pub fn write_amplification(&self) -> f64 {
        if self.stats.host_writes == 0 {
            return if self.stats.relocated == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        (self.stats.host_writes + self.stats.relocated) as f64 / self.stats.host_writes as f64
    }

    /// Free (empty, unallocated) zones remaining.
    pub fn free_zones(&self) -> u32 {
        self.free.len() as u32
    }

    fn check_lba(&self, lba: u64) -> Result<()> {
        if lba < self.capacity_pages() {
            Ok(())
        } else {
            Err(HostError::LbaOutOfRange {
                lba,
                capacity: self.capacity_pages(),
            })
        }
    }

    /// The slot of zone `zone`'s page `offset`.
    #[inline]
    fn slot(&self, zone: ZoneId, offset: u64) -> u32 {
        // Offsets come back from the device; one past the stride would
        // alias the next zone's slot.
        assert!(offset < self.stride, "offset {offset} past the zone stride");
        (zone.0 as u64 * self.stride + offset) as u32
    }

    /// Inverse of [`BlockEmu::slot`].
    #[inline]
    fn location(&self, slot: u32) -> ZonedLocation {
        ZonedLocation {
            zone: ZoneId((slot as u64 / self.stride) as u32),
            offset: slot as u64 % self.stride,
        }
    }

    /// Word index and mask of a location's bit in `live_bits`.
    #[inline]
    fn live_bit(&self, zone: ZoneId, offset: u64) -> (usize, u64) {
        (
            zone.0 as usize * self.words_per_zone + (offset / 64) as usize,
            1 << (offset % 64),
        )
    }

    /// Zone `z`'s words of `live_bits`.
    fn zone_bits(&self, z: ZoneId) -> &[u64] {
        let first = z.0 as usize * self.words_per_zone;
        &self.live_bits[first..first + self.words_per_zone]
    }

    /// Forgets everything committed to zone `z` (it was reset, or found
    /// Empty/Offline after a restart).
    fn clear_summary(&mut self, z: ZoneId) {
        let first = z.0 as usize * self.stride as usize;
        self.summary_log[first..first + self.stride as usize].fill(0);
    }

    fn alloc_zone(&mut self) -> Result<ZoneId> {
        // Host-side zone wear leveling: hand out the least-reset zone.
        // (On ZNS, balancing erases across zones is host responsibility.)
        self.free.pop_least_reset().ok_or(HostError::NoFreeZone)
    }

    /// Reads logical page `lba`, issued at `now`.
    pub fn read(&mut self, lba: u64, now: Nanos) -> Result<(u64, Nanos)> {
        let loc = self.mapped(lba)?;
        let read = self.dev.read(loc.zone, loc.offset, now)?;
        self.note_read(now);
        Ok(read)
    }

    /// [`BlockEmu::read`] without the stamp: the same checks, device time
    /// and counters. Returns the completion instant.
    pub fn read_timed(&mut self, lba: u64, now: Nanos) -> Result<Nanos> {
        let loc = self.mapped(lba)?;
        let done = self.dev.read_timed(loc.zone, loc.offset, now)?;
        self.note_read(now);
        Ok(done)
    }

    /// Where `lba` lives on the device.
    #[inline]
    fn mapped(&self, lba: u64) -> Result<ZonedLocation> {
        self.check_lba(lba)?;
        let slot = self.map[lba as usize];
        if slot == UNMAPPED {
            return Err(HostError::Unmapped(lba));
        }
        Ok(self.location(slot))
    }

    /// Accounts one completed host read issued at `now`.
    #[inline]
    fn note_read(&mut self, now: Nanos) {
        self.last_io = now;
        self.stats.host_reads += 1;
    }

    /// Writes logical page `lba` with an explicit stream hint (only
    /// meaningful in [`BlockEmu::with_hinted_streams`] mode, where it
    /// overrides the default stream).
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range for the configured stream
    /// count.
    pub fn write_hinted(&mut self, lba: u64, stream: u32, now: Nanos) -> Result<Nanos> {
        assert!(
            (stream as usize) < self.frontiers.len(),
            "stream {stream} out of range"
        );
        self.write_to(lba, Some(stream as usize), now)
    }

    /// Writes logical page `lba`, issued at `now`. May trigger emergency
    /// reclaim when the zone pool is exhausted; policy-driven reclaim is
    /// the caller's job via [`BlockEmu::maybe_reclaim`].
    pub fn write(&mut self, lba: u64, now: Nanos) -> Result<Nanos> {
        self.write_to(lba, None, now)
    }

    /// [`BlockEmu::write`] into stream `hint` if given, else into the
    /// stream the [`StreamMap`] routes `lba` to.
    fn write_to(&mut self, lba: u64, hint: Option<usize>, now: Nanos) -> Result<Nanos> {
        self.check_lba(lba)?;
        // Emergency: the data path itself must not strand. Keep a free
        // zone in hand whenever reclaim can produce one. "No victim" is
        // not an error here — with space left, the write still proceeds.
        if self.free.len() <= 1 {
            self.stats.emergency_reclaims += 1;
            match self.reclaim_step(now, 1) {
                Ok(_) | Err(HostError::NoFreeZone) => {}
                Err(e) => return Err(e),
            }
        }
        // Route the write to its stream: data that dies together shares
        // zones.
        let stream = if let Some(h) = hint {
            h
        } else {
            match self.streams {
                StreamMap::Single => 0,
                StreamMap::HotCold { threshold } => {
                    let h = &mut self.heat[lba as usize];
                    *h = h.saturating_add(1);
                    self.writes_since_decay += 1;
                    if self.writes_since_decay >= self.map.len() as u64 {
                        // Periodic decay keeps the classification adaptive.
                        for v in &mut self.heat {
                            *v /= 2;
                        }
                        self.writes_since_decay = 0;
                    }
                    usize::from(self.heat[lba as usize] >= threshold)
                }
                // Unhinted writes into hinted mode default to stream 0.
                StreamMap::Hinted { .. } => 0,
            }
        };
        self.stamp_counter += 1;
        let stamp = encode_oob(self.stamp_counter, lba);
        let mut redrives = 0u32;
        let (zone, offset, done) = loop {
            let zone = match self.frontiers[stream] {
                Some(z) if self.zone_writable(z) => z,
                _ => {
                    let z = match self.alloc_zone() {
                        Ok(z) => z,
                        // The emergency step above can itself be cut short
                        // by burns (its destination degraded mid-copy after
                        // taking the last free zone). A partially relocated
                        // victim is still a victim: reclaim again now and
                        // retry the allocation.
                        Err(HostError::NoFreeZone) => {
                            self.stats.emergency_reclaims += 1;
                            self.reclaim_step(now, 1)?.ok_or(HostError::NoFreeZone)?;
                            self.alloc_zone()?
                        }
                        Err(e) => return Err(e),
                    };
                    self.frontiers[stream] = Some(z);
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            now,
                            HostEvent::ZoneAlloc {
                                class: stream as u32,
                                zone: z.0,
                            },
                        );
                    }
                    z
                }
            };
            match self.dev.append(zone, stamp, now) {
                Ok((offset, done)) => break (zone, offset, done),
                // A burned slot: retry at the advanced pointer. If the
                // burn filled or degraded the zone, the writable() gate
                // rotates the frontier on the next pass.
                Err(ZnsError::ProgramFailure { .. }) => redrives += 1,
                Err(e) => return Err(e.into()),
            }
        };
        if redrives > 0 {
            self.stats.program_redrives += u64::from(redrives);
            if self.tracer.enabled() {
                self.tracer.emit(
                    done,
                    FaultEvent::Redrive {
                        layer: "blockemu",
                        attempts: redrives,
                    },
                );
            }
        }
        let slot = self.slot(zone, offset);
        let old = std::mem::replace(&mut self.map[lba as usize], slot);
        if old != UNMAPPED {
            self.unbind_reverse(old);
        }
        self.summary_log[slot as usize] = stamp;
        let (word, bit) = self.live_bit(zone, offset);
        self.live_bits[word] |= bit;
        self.live[zone.0 as usize] += 1;
        if self.dev.zone(zone)?.state() == ZoneState::Full {
            self.frontiers[stream] = None;
        }
        self.last_io = now;
        self.stats.host_writes += 1;
        Ok(done)
    }

    /// Deallocates logical page `lba` (TRIM). Metadata-only.
    pub fn trim(&mut self, lba: u64) -> Result<()> {
        self.check_lba(lba)?;
        let old = std::mem::replace(&mut self.map[lba as usize], UNMAPPED);
        if old != UNMAPPED {
            self.unbind_reverse(old);
        }
        Ok(())
    }

    /// Marks `slot` dead: its LBA moved on or was trimmed. The stamp word
    /// stays — the page is still on media until the zone is reset.
    fn unbind_reverse(&mut self, slot: u32) {
        let loc = self.location(slot);
        let (word, bit) = self.live_bit(loc.zone, loc.offset);
        debug_assert!(self.live_bits[word] & bit != 0, "slot {slot} was not live");
        self.live_bits[word] &= !bit;
        self.live[loc.zone.0 as usize] -= 1;
    }

    /// Writable space remaining across the data frontiers.
    fn current_remaining(&self) -> u64 {
        self.frontiers
            .iter()
            .flatten()
            .filter_map(|&z| self.dev.zone(z).ok())
            .map(|z| z.remaining())
            .sum()
    }

    /// Runs policy-driven reclaim at `now`. Call between I/Os (or from an
    /// idle loop); returns the number of zones reclaimed and the instant
    /// the last reclaim operation completes (`now` if none ran).
    ///
    /// Each policy has its own trigger and stop level:
    /// - `Immediate` keeps a small free pool topped up, whenever needed.
    /// - `IdleOnly` waits for a quiet period, then cleans ahead up to the
    ///   full reserve so bursts run without reclaim in their way.
    /// - `Watermark` uses its low/high hysteresis band.
    pub fn maybe_reclaim(&mut self, now: Nanos) -> Result<(u32, Nanos)> {
        let free = self.free.len() as u32;
        let emergency = free <= 1;
        let (gate, target) = match self.policy {
            ReclaimPolicy::Immediate => (free < self.free_target, self.free_target),
            ReclaimPolicy::IdleOnly { min_idle } => (
                now.saturating_sub(self.last_io) >= min_idle,
                self.reserve_zones.max(self.free_target),
            ),
            ReclaimPolicy::Watermark {
                low_zones,
                high_zones,
            } => (free <= low_zones, high_zones),
        };
        if self.tracer.enabled() {
            self.tracer.emit(
                now,
                HostEvent::ReclaimGate {
                    policy: self.policy.name(),
                    free_zones: free,
                    ran: gate || emergency,
                },
            );
        }
        if !gate && !emergency {
            return Ok((0, now));
        }
        if emergency && !gate {
            // The policy did not want to run; free-zone exhaustion forced
            // it anyway.
            self.stats.emergency_reclaims += 1;
        }
        self.stats.reclaim_runs += 1;
        let min_garbage = self.policy_min_garbage();
        let mut reclaimed = 0;
        let mut t = now;
        while (self.free.len() as u32) < target {
            match self.reclaim_step(t, min_garbage) {
                Ok(Some(done)) => {
                    reclaimed += 1;
                    t = done;
                }
                Ok(None) | Err(HostError::NoFreeZone) => break,
                Err(e) => return Err(e),
            }
        }
        Ok((reclaimed, t))
    }

    /// Cross-checks the incremental hot-path state (live counts, the
    /// free-zone index) against from-scratch scans of device state, the
    /// victim pick against an independently formulated one, and the map /
    /// live-bitmap / summary-word bijection. Test/diagnostic hook for the
    /// oracle property tests; O(pages), so keep it off hot paths.
    ///
    /// # Panics
    ///
    /// Panics on any divergence.
    pub fn verify_hotpath_invariants(&self) {
        let mut by_garbage = BTreeSet::new();
        for z in self.dev.zone_report() {
            let id = z.id();
            let live = self.live[id.0 as usize];
            let bits = self.zone_bits(id);
            let set: u64 = bits.iter().map(|w| w.count_ones() as u64).sum();
            assert_eq!(live, set, "live count for zone {id:?}");
            let first = self.slot(id, 0) as usize;
            let words = &self.summary_log[first..first + self.stride as usize];
            if matches!(z.state(), ZoneState::Empty | ZoneState::Offline) {
                assert_eq!(set, 0, "live bits in {:?} zone {id:?}", z.state());
                assert!(
                    words.iter().all(|&w| w == 0),
                    "summary words in {:?} zone {id:?}",
                    z.state()
                );
            }
            // Every bit position of every word: the tail past `stride`
            // must be clear too.
            for off in 0..bits.len() as u64 * 64 {
                if bits[(off / 64) as usize] & (1 << (off % 64)) == 0 {
                    continue;
                }
                assert!(
                    off < z.write_pointer(),
                    "zone {id:?}: live bit {off} at or past the write pointer {}",
                    z.write_pointer()
                );
                let lba = decode_oob(words[off as usize]).1;
                assert_eq!(
                    self.map.get(lba as usize),
                    Some(&self.slot(id, off)),
                    "zone {id:?} offset {off} is live for LBA {lba}, which maps elsewhere"
                );
            }
            if z.state() == ZoneState::Full {
                by_garbage.insert((reclaim::garbage(z, live), id.0));
            }
        }
        for (lba, &slot) in self.map.iter().enumerate() {
            if slot == UNMAPPED {
                continue;
            }
            let loc = self.location(slot);
            let (word, bit) = self.live_bit(loc.zone, loc.offset);
            assert!(
                self.live_bits[word] & bit != 0,
                "LBA {lba} maps to {loc:?}, whose live bit is clear"
            );
            assert_eq!(
                decode_oob(self.summary_log[slot as usize]).1,
                lba as u64,
                "LBA {lba} maps to {loc:?}, stamped for another LBA"
            );
        }
        self.free.check(&self.dev);
        // The pick must equal an independent formulation of it, for both
        // the policy threshold and the emergency threshold: Full zones
        // keyed `(garbage, zone)`, walked from the top, the first feasible
        // one taken. Descending order meets the last of equal maxima in
        // zone-id order first, which is the one the scan keeps.
        let room = self.relocation_room() + self.current_remaining();
        for min_garbage in [self.policy_min_garbage(), 1] {
            let walk = by_garbage
                .iter()
                .rev()
                .take_while(|&&(garbage, _)| garbage >= min_garbage)
                .map(|&(_, id)| ZoneId(id))
                .find(|&z| {
                    !self.frontiers.contains(&Some(z))
                        && Some(z) != self.gc_zone
                        && self.live[z.0 as usize] <= room
                });
            assert_eq!(
                walk,
                self.victim(min_garbage),
                "victim pick diverged from the ordered walk at min_garbage {min_garbage}"
            );
        }
    }

    /// Minimum garbage for non-emergency reclaim: an eighth of a zone.
    /// Compacting nearly-full-live zones burns erase cycles and copies
    /// for almost no space, so the policy path refuses them.
    fn policy_min_garbage(&self) -> u64 {
        (self.dev.zone_capacity() / 8).max(1)
    }

    /// Pages writable for relocation without consuming the data frontier:
    /// the GC frontier's remainder plus whole free zones.
    fn relocation_room(&self) -> u64 {
        let gc_room = self
            .gc_zone
            .and_then(|z| self.dev.zone(z).ok())
            .map(|z| z.remaining())
            .unwrap_or(0);
        gc_room + self.free.len() as u64 * self.dev.zone_capacity()
    }

    /// The best *feasible* victim: a Full zone other than a frontier with
    /// the most garbage whose survivors fit in the relocation room (or,
    /// in a pinch, the data frontiers' remainder); of equals, the last in
    /// zone-id order.
    fn victim(&self, min_garbage: u64) -> Option<ZoneId> {
        let room = self.relocation_room() + self.current_remaining();
        let idle = |id| !self.frontiers.contains(&Some(id)) && Some(id) != self.gc_zone;
        let zones = self.dev.zone_report();
        reclaim::pick(zones, &self.live, room, min_garbage, Tie::HighestId, idle)
    }

    /// Reclaims one victim zone: simple-copies its live pages to the GC
    /// frontier, resets it. Returns the completion instant, or `None`
    /// when no victim has `min_garbage`.
    fn reclaim_step(&mut self, now: Nanos, min_garbage: u64) -> Result<Option<Nanos>> {
        let Some(victim) = self.victim(min_garbage) else {
            return Ok(None);
        };
        // List the survivors in offset order by walking the set bits of
        // the victim's bitmap words, reusing the scratch buffer so
        // steady-state reclaim allocates nothing. (Early error returns
        // drop it; the next call re-takes an empty one.)
        let mut sources = std::mem::take(&mut self.reloc_sources);
        sources.clear();
        for (w, &word) in self.zone_bits(victim).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                sources.push((victim, w as u64 * 64 + bits.trailing_zeros() as u64));
                bits &= bits - 1;
            }
        }
        let span = self.tracer.begin_span();
        if self.tracer.enabled() {
            self.tracer.emit_span(
                now,
                span,
                HostEvent::ReclaimBegin {
                    victim: victim.0,
                    live: sources.len() as u64,
                },
            );
        }
        let mut t = now;
        // Relocate in chunks that fit the GC frontier.
        let mut idx = 0;
        while idx < sources.len() {
            let gc = match self.gc_zone {
                Some(z) if self.zone_writable(z) => z,
                _ => match self.alloc_zone() {
                    Ok(z) => {
                        self.gc_zone = Some(z);
                        z
                    }
                    // Last resort: overflow survivors into the data
                    // frontier (mixing GC and host data costs placement
                    // quality, not correctness).
                    Err(HostError::NoFreeZone) => {
                        let fallback = self
                            .frontiers
                            .iter()
                            .flatten()
                            .copied()
                            .find(|&c| self.zone_writable(c));
                        match fallback {
                            Some(c) => c,
                            None => return Err(HostError::NoFreeZone),
                        }
                    }
                    Err(e) => return Err(e),
                },
            };
            let room = self.dev.zone(gc)?.remaining() as usize;
            let chunk = &sources[idx..(idx + room).min(sources.len())];
            let (placed, done) = match self.dev.simple_copy(chunk, gc, t) {
                Ok(r) => r,
                // Burns consumed the destination mid-copy. Pages already
                // copied stay unreferenced (the map still points at the
                // victim) and die as garbage in the destination. Rotate
                // to a fresh destination and redo the chunk.
                Err(ZnsError::ProgramFailure { .. }) | Err(ZnsError::ZoneFull(_)) => {
                    self.retire_frontier(gc);
                    self.stats.program_redrives += 1;
                    if self.tracer.enabled() {
                        self.tracer.emit(
                            t,
                            FaultEvent::Redrive {
                                layer: "blockemu-gc",
                                attempts: 1,
                            },
                        );
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            t = done;
            debug_assert_eq!(placed.len(), chunk.len());
            // Both zones' slot and bitmap-word bases, once per chunk.
            let stride = self.stride;
            let (from_base, to_base) = (victim.0 as u64 * stride, gc.0 as u64 * stride);
            let from_words = victim.0 as usize * self.words_per_zone;
            let to_words = gc.0 as usize * self.words_per_zone;
            // An offset one past the stride would alias the next zone's
            // slot. The survivors were listed in ascending order; what
            // the device placed is checked as it is used.
            assert!(
                chunk.last().is_none_or(|&(_, off)| off < stride),
                "survivor past the zone stride"
            );
            for (&(_, off), &new_off) in chunk.iter().zip(&placed) {
                assert!(new_off < stride, "offset {new_off} past the zone stride");
                let from = (from_base + off) as usize;
                let to = (to_base + new_off) as usize;
                // The relocated page keeps its stamp: simple-copy moves
                // it as-is, so replay must see the same (seq, lba) word
                // at the new location.
                let stamp = self.summary_log[from];
                let lba = decode_oob(stamp).1;
                // The old location dies with the victim reset; update maps
                // chunk by chunk so an interrupted reclaim never leaves a
                // stale live bit behind.
                debug_assert_eq!(
                    self.map[lba as usize], from as u32,
                    "relocated page must have lived in the victim"
                );
                self.map[lba as usize] = to as u32;
                self.summary_log[to] = stamp;
                self.live_bits[from_words + (off / 64) as usize] &= !(1 << (off % 64));
                self.live_bits[to_words + (new_off / 64) as usize] |= 1 << (new_off % 64);
            }
            self.live[gc.0 as usize] += chunk.len() as u64;
            self.live[victim.0 as usize] -= chunk.len() as u64;
            if self.dev.zone(gc)?.state() == ZoneState::Full {
                self.retire_frontier(gc);
            }
            idx += chunk.len();
            self.stats.relocated += chunk.len() as u64;
        }
        debug_assert_eq!(self.live[victim.0 as usize], 0);
        let done = self.dev.reset(victim, t)?;
        self.clear_summary(victim);
        // A reset that retires the zone's last blocks leaves it Offline;
        // only a zone that came back Empty returns to the pool.
        let resets = self.dev.zone(victim)?.resets();
        if self.dev.zone(victim)?.state() == ZoneState::Empty {
            self.free.push(victim, resets);
        }
        self.stats.resets += 1;
        if self.tracer.enabled() {
            self.tracer.emit_span(
                done,
                span,
                HostEvent::ReclaimEnd {
                    victim: victim.0,
                    relocated: sources.len() as u64,
                },
            );
        }
        self.reloc_sources = sources;
        Ok(Some(done))
    }

    /// Models a power loss and host restart: all volatile host state (the
    /// LBA map, frontiers, heat counters) is gone and gets rebuilt from
    /// what is durable.
    ///
    /// Zone state and write pointers survive on a ZNS device, and the
    /// host's append-only placement makes zone summaries possible: when a
    /// zone fills, its final append carries a listing of every `(lba,
    /// seq)` committed to the zone, so recovering a Full zone costs one
    /// page read instead of a scan. Only zones that were still partially
    /// written at the loss must be scanned below their write pointer
    /// (burned slots are skipped). The conventional FTL can do neither:
    /// with in-place-overwrite semantics there is no final write to hang
    /// a summary on, so it scans every written page (compare
    /// `ConvSsd::power_cycle`).
    ///
    /// Returns the instant recovery completes and the number of pages
    /// scanned.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the recovery reads.
    pub fn power_cycle(&mut self, now: Nanos) -> Result<(Nanos, u64)> {
        let start = self.dev.power_cycle(now);
        self.map.fill(UNMAPPED);
        self.live_bits.fill(0);
        self.live.fill(0);
        self.frontiers = vec![None; self.frontiers.len()];
        self.heat.fill(0);
        self.writes_since_decay = 0;
        self.gc_zone = None;
        self.free.clear();
        // Newest version wins, resolved straight into `map`: a candidate
        // slot replaces the LBA's current one only if its `seq` is
        // strictly greater, so of two copies with equal `seq` (a page
        // relocated but its victim not yet reset) the one met first, in
        // zone-id then offset order, stays.
        fn consider(map: &mut [u32], summary_log: &[u64], slot: u32) -> u64 {
            let (seq, lba) = decode_oob(summary_log[slot as usize]);
            let current = &mut map[lba as usize];
            if *current == UNMAPPED || seq > decode_oob(summary_log[*current as usize]).0 {
                *current = slot;
            }
            seq
        }
        let mut done = start;
        let mut scanned = 0u64;
        let mut max_seq = 0u64;
        let zone_ids: Vec<ZoneId> = self.dev.zone_report().iter().map(|z| z.id()).collect();
        for id in zone_ids {
            let (state, wp, resets) = {
                let z = self.dev.zone(id)?;
                (z.state(), z.write_pointer(), z.resets())
            };
            match state {
                ZoneState::Empty => {
                    self.clear_summary(id);
                    self.free.push(id, resets);
                }
                ZoneState::Offline => self.clear_summary(id),
                ZoneState::Full => {
                    // Durable zone summary: one read recovers the listing.
                    for off in 0..wp {
                        match self.dev.read_timed(id, off, start) {
                            Ok(d) => {
                                done = done.max(d);
                                break;
                            }
                            Err(ZnsError::MediaError { .. }) => continue,
                            Err(e) => return Err(e.into()),
                        }
                    }
                    scanned += 1;
                    for off in 0..self.stride {
                        let slot = self.slot(id, off);
                        if self.summary_log[slot as usize] != 0 {
                            let seq = consider(&mut self.map, &self.summary_log, slot);
                            max_seq = max_seq.max(seq);
                        }
                    }
                }
                // Closed or ReadOnly: partially written, no summary on
                // media yet — scan everything below the write pointer.
                // (Open states cannot appear: the device closed them.)
                _ => {
                    self.clear_summary(id);
                    for off in 0..wp {
                        scanned += 1;
                        match self.dev.read(id, off, start) {
                            Ok((stamp, d)) => {
                                done = done.max(d);
                                let slot = self.slot(id, off);
                                self.summary_log[slot as usize] = stamp;
                                let seq = consider(&mut self.map, &self.summary_log, slot);
                                max_seq = max_seq.max(seq);
                            }
                            // A burned slot left by a program failure.
                            Err(ZnsError::MediaError { .. }) => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
            }
        }
        let mut recovered = 0u64;
        for lba in 0..self.map.len() {
            let slot = self.map[lba];
            if slot != UNMAPPED {
                let loc = self.location(slot);
                let (word, bit) = self.live_bit(loc.zone, loc.offset);
                self.live_bits[word] |= bit;
                self.live[loc.zone.0 as usize] += 1;
                recovered += 1;
            }
        }
        self.stamp_counter = max_seq;
        // Re-adopt partial zones as write frontiers; finish the surplus so
        // their garbage stays reclaimable by victim selection.
        let closed: Vec<ZoneId> = self
            .dev
            .zone_report()
            .iter()
            .filter(|z| z.state() == ZoneState::Closed)
            .map(|z| z.id())
            .collect();
        let mut closed = closed.into_iter();
        for (f, z) in self.frontiers.iter_mut().zip(&mut closed) {
            *f = Some(z);
        }
        for z in closed {
            self.dev.finish(z)?;
        }
        self.last_io = done;
        self.stats.replays += 1;
        self.stats.replay_pages_scanned += scanned;
        if self.tracer.enabled() {
            self.tracer.emit(
                done,
                FaultEvent::Replay {
                    layer: "blockemu",
                    scanned,
                    recovered,
                },
            );
        }
        Ok((done, scanned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::ZnsConfig;

    fn emu(policy: ReclaimPolicy) -> BlockEmu {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        let dev = ZnsDevice::new(cfg).unwrap();
        BlockEmu::new(dev, 2, policy)
    }

    #[test]
    fn capacity_excludes_reserve() {
        let e = emu(ReclaimPolicy::Immediate);
        // 8 zones x 64 pages, 2 reserved: 384 exported.
        assert_eq!(e.capacity_pages(), 384);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut e = emu(ReclaimPolicy::Immediate);
        let done = e.write(42, Nanos::ZERO).unwrap();
        let (stamp, _) = e.read(42, done).unwrap();
        // Stamps carry (seq, lba) out-of-band metadata for replay.
        assert_eq!(decode_oob(stamp), (1, 42));
        assert_eq!(e.read(43, done).unwrap_err(), HostError::Unmapped(43));
    }

    #[test]
    fn overwrites_survive_reclaim() {
        let mut e = emu(ReclaimPolicy::Immediate);
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        let mut expect = vec![0u64; cap as usize];
        for lba in 0..cap {
            t = e.write(lba, t).unwrap();
        }
        let mut x = 5u64;
        for i in 0..3 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = x % cap;
            t = e.write(lba, t).unwrap();
            if i % 64 == 0 {
                t = e.maybe_reclaim(t).unwrap().1;
            }
        }
        // Find current stamps by reading everything.
        for lba in 0..cap {
            let (stamp, done) = e.read(lba, t).unwrap();
            expect[lba as usize] = stamp;
            t = done;
        }
        // One more reclaim pass, then verify stability.
        t = e.maybe_reclaim(t).unwrap().1;
        for lba in 0..cap {
            let (stamp, done) = e.read(lba, t).unwrap();
            assert_eq!(stamp, expect[lba as usize], "LBA {lba}");
            t = done;
        }
        assert!(e.stats().resets > 0, "reclaim never reset a zone");
        assert!(e.write_amplification() >= 1.0);
    }

    #[test]
    fn trim_makes_whole_zone_garbage() {
        // Watermark with a high mark at the zone count: reclaim tops the
        // pool back up as soon as the low mark is crossed.
        let mut e = emu(ReclaimPolicy::Watermark {
            low_zones: 7,
            high_zones: 8,
        });
        let mut t = Nanos::ZERO;
        // Fill one full zone's worth (64 pages).
        for lba in 0..64 {
            t = e.write(lba, t).unwrap();
        }
        for lba in 0..64 {
            e.trim(lba).unwrap();
        }
        // Trimmed pages are dead but still on media: bits clear, stamps
        // kept until the reset.
        assert!(e.live_bits.iter().all(|&w| w == 0));
        assert_eq!(e.summary_log.iter().filter(|&&w| w != 0).count(), 64);
        let (reclaimed, _) = e.maybe_reclaim(t).unwrap();
        assert!(reclaimed >= 1);
        // Pure-garbage reclaim relocates nothing, and the reset forgets
        // the zone's summary.
        assert_eq!(e.stats().relocated, 0);
        assert!(e.summary_log.iter().all(|&w| w == 0));
        assert!(e.live_bits.iter().all(|&w| w == 0));
        e.verify_hotpath_invariants();
    }

    #[test]
    fn idle_policy_defers_reclaim_under_load() {
        // Reserve 3 zones so the idle clean-ahead target is visible.
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        let mut e = BlockEmu::new(
            ZnsDevice::new(cfg).unwrap(),
            3,
            ReclaimPolicy::IdleOnly {
                min_idle: Nanos::from_millis(5),
            },
        );
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = e.write(lba, t).unwrap();
        }
        // Overwrite one zone's worth: garbage exists, free pool shrinks.
        for lba in 0..64 {
            t = e.write(lba, t).unwrap();
        }
        // Immediately after I/O: not idle, no reclaim.
        let (n, _) = e.maybe_reclaim(t).unwrap();
        assert_eq!(n, 0);
        // After a quiet period: reclaim cleans ahead.
        let (n, _) = e.maybe_reclaim(t + Nanos::from_millis(10)).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn lba_bounds_enforced() {
        let mut e = emu(ReclaimPolicy::Immediate);
        let cap = e.capacity_pages();
        assert!(matches!(
            e.write(cap, Nanos::ZERO),
            Err(HostError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn hot_cold_separation_cuts_wa_under_skew() {
        // Hotspot traffic: 80% of writes hit 10% of the space. With
        // separation, hot zones die wholesale; without, survivors must be
        // copied.
        let run = |hot_cold: bool| -> f64 {
            let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::experiment(8)), 4);
            cfg.max_active_zones = 14;
            cfg.max_open_zones = 14;
            let dev = ZnsDevice::new(cfg).unwrap();
            // 64 zones of 1024 pages, 12.5% reserve: enough slack that
            // garbage can age, which is what placement exploits.
            let mut e = BlockEmu::new(dev, 8, ReclaimPolicy::Immediate);
            if hot_cold {
                e = e.with_hot_cold(2);
            }
            let cap = e.capacity_pages();
            let mut t = Nanos::ZERO;
            for lba in 0..cap {
                t = e.write(lba, t).unwrap();
            }
            let mut x = 77u64;
            for _ in 0..6 * cap {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let lba = if x % 10 < 9 { x % (cap / 20) } else { x % cap };
                t = e.write(lba, t).unwrap();
                t = e.maybe_reclaim(t).unwrap().1;
            }
            e.write_amplification()
        };
        let blind = run(false);
        let separated = run(true);
        // Frequency-based detection is the weakest placement signal
        // (§4.1 ranks explicit knowledge above inference); expect a
        // modest but real improvement.
        assert!(
            separated < blind,
            "hot/cold separation should not hurt WA: blind {blind:.2}, separated {separated:.2}"
        );
    }

    #[test]
    fn reclaim_traces_gates_and_balanced_spans() {
        use bh_trace::{Event, HostEvent, Tracer};
        let mut e = emu(ReclaimPolicy::Immediate);
        e.set_tracer(Tracer::ring(1 << 16));
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        for i in 0..4 * cap {
            t = e.write(i % cap, t).unwrap();
            if i % 32 == 0 {
                t = e.maybe_reclaim(t).unwrap().1;
            }
        }
        let events = e.tracer().events();
        let mut gates = 0;
        let mut begins = std::collections::HashMap::new();
        let mut ends = 0u64;
        for ev in &events {
            match ev.event {
                Event::Host(HostEvent::ReclaimGate { policy, .. }) => {
                    assert_eq!(policy, "immediate");
                    gates += 1;
                }
                Event::Host(HostEvent::ReclaimBegin { victim, live }) => {
                    assert!(ev.span.is_some());
                    begins.insert(ev.span, (victim, live, ev.at));
                }
                Event::Host(HostEvent::ReclaimEnd { victim, relocated }) => {
                    let (bv, live, begun) =
                        begins.remove(&ev.span).expect("end without matching begin");
                    assert_eq!(bv, victim);
                    assert_eq!(relocated, live);
                    assert!(ev.at >= begun);
                    ends += 1;
                }
                _ => {}
            }
        }
        assert!(gates > 0, "gate decisions should be traced");
        assert!(ends > 0, "reclaim episodes should be traced");
        assert!(
            begins.is_empty(),
            "every reclaim begin should have an end: {begins:?}"
        );
        assert_eq!(ends, e.stats().resets);
    }

    #[test]
    fn wa_is_infinite_for_pure_relocation() {
        let mut e = emu(ReclaimPolicy::Immediate);
        assert_eq!(e.write_amplification(), 1.0);
        e.stats.relocated = 5;
        assert!(e.write_amplification().is_infinite());
    }

    #[test]
    fn power_loss_replay_restores_acknowledged_writes() {
        let mut e = emu(ReclaimPolicy::Immediate);
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = e.write(lba, t).unwrap();
        }
        // Churn so zones fill, garbage forms, and reclaim relocates.
        let mut x = 13u64;
        for i in 0..2 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = e.write(x % cap, t).unwrap();
            if i % 64 == 0 {
                t = e.maybe_reclaim(t).unwrap().1;
            }
        }
        let mut expect = Vec::new();
        for lba in 0..cap {
            let (stamp, done) = e.read(lba, t).unwrap();
            expect.push(stamp);
            t = done;
        }
        let (done, scanned) = e.power_cycle(t).unwrap();
        assert!(scanned > 0, "partial zones must be scanned");
        assert_eq!(e.stats().replays, 1);
        // Every mapping survives with the same content.
        for lba in 0..cap {
            let (stamp, d) = e.read(lba, done).unwrap();
            assert_eq!(stamp, expect[lba as usize], "LBA {lba}");
            let _ = d;
        }
        // The device keeps accepting writes and reclaiming afterwards.
        let mut t = done;
        for i in 0..2 * cap {
            t = e.write(i % cap, t).unwrap();
            if i % 64 == 0 {
                t = e.maybe_reclaim(t).unwrap().1;
            }
        }
    }

    #[test]
    fn full_zone_summaries_make_replay_cheaper_than_a_scan() {
        let mut e = emu(ReclaimPolicy::Immediate);
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        // Sequential fill: most zones end Full (summary on media), only
        // the last frontier stays partial.
        for lba in 0..cap {
            t = e.write(lba, t).unwrap();
        }
        let (_, scanned) = e.power_cycle(t).unwrap();
        // Full zones cost one summary read each; a raw scan would cost
        // `cap` page reads.
        assert!(
            scanned < cap / 2,
            "summaries should beat a full scan: {scanned} vs {cap} pages written"
        );
    }

    #[test]
    fn faulty_appends_redrive_and_data_survives() {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        let dev = ZnsDevice::new(cfg).unwrap();
        // A 3-zone reserve: burned slots consume physical headroom, so a
        // faulty device needs more slack than a clean one.
        let mut e = BlockEmu::new(dev, 3, ReclaimPolicy::Immediate);
        // 4%: high enough to exercise redrives constantly, low enough
        // that zones rarely reach the 8-burn ReadOnly threshold.
        e.install_faults(bh_faults::FaultConfig::new(3).with_program_fail_ppm(40_000));
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = e.write(lba, t).unwrap();
        }
        let mut x = 99u64;
        for i in 0..2 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = e.write(x % cap, t).unwrap();
            if i % 32 == 0 {
                t = e.maybe_reclaim(t).unwrap().1;
            }
        }
        assert!(
            e.stats().program_redrives > 0,
            "a 4% program-fail rate must hit the write path"
        );
        // Acknowledged data still reads back (stamps decode to their LBA).
        for lba in 0..cap {
            let (stamp, done) = e.read(lba, t).unwrap();
            assert_eq!(decode_oob(stamp).1, lba, "stamp must belong to LBA {lba}");
            t = done;
        }
        // And the stack still survives a power loss under the same plan.
        let (done, _) = e.power_cycle(t).unwrap();
        for lba in 0..cap {
            let (stamp, _) = e.read(lba, done).unwrap();
            assert_eq!(decode_oob(stamp).1, lba);
        }
    }

    #[test]
    fn sustained_overwrite_without_explicit_reclaim_survives() {
        // The emergency path alone must keep the data path alive.
        let mut e = emu(ReclaimPolicy::IdleOnly {
            min_idle: Nanos::from_secs(3600),
        });
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        for i in 0..4 * cap {
            t = e.write(i % cap, t).unwrap();
        }
        assert!(e.stats().resets > 0);
    }

    #[test]
    fn map_entries_are_four_bytes() {
        let e = emu(ReclaimPolicy::Immediate);
        assert_eq!(std::mem::size_of_val(&e.map[0]), 4);
        assert_eq!(e.map[0], UNMAPPED);
    }

    /// Eight zones of four `pages_per_block`-page blocks each, behind a
    /// two-zone reserve.
    fn emu_with_zones_of(pages_per_block: u32) -> BlockEmu {
        let geometry = Geometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            blocks_per_plane: 8,
            pages_per_block,
            page_bytes: 4096,
        };
        let cfg = ZnsConfig::new(FlashConfig::tlc(geometry), 4).with_zone_limits(8);
        BlockEmu::new(ZnsDevice::new(cfg).unwrap(), 2, ReclaimPolicy::Immediate)
    }

    #[test]
    fn word_edges_and_tail_word_survive_reclaim() {
        // 64-page zones are exactly one bitmap word, 400-page zones end a
        // quarter into their seventh, 1 024-page zones fill sixteen.
        let cases: [(u32, usize, &[u64]); 3] = [
            (16, 1, &[0, 63]),
            (100, 7, &[0, 63, 64, 127, 383, 384, 399]),
            (256, 16, &[0, 63, 64, 127, 959, 960, 1023]),
        ];
        for (pages_per_block, words, keep) in cases {
            let mut e = emu_with_zones_of(pages_per_block);
            let zone_cap = e.stride;
            assert_eq!(e.words_per_zone, words, "{zone_cap}-page zones");
            // A sequential single-stream fill puts LBA k of the first
            // zone's worth at offset k of the first allocated zone.
            let mut t = Nanos::ZERO;
            for lba in 0..zone_cap {
                t = e.write(lba, t).unwrap();
            }
            let zone = e.location(e.map[0]).zone;
            assert_eq!(e.live[zone.0 as usize], zone_cap);
            let bitmap_of = |offsets: &mut dyn Iterator<Item = u64>| {
                let mut bits = vec![0u64; words];
                for off in offsets {
                    bits[(off / 64) as usize] |= 1 << (off % 64);
                }
                bits
            };
            // Every page live, and nothing set past the last one.
            assert_eq!(e.zone_bits(zone), bitmap_of(&mut (0..zone_cap)));
            // Keep only the pages on word edges and the zone's last.
            let mut stamps = Vec::new();
            for lba in 0..zone_cap {
                if keep.contains(&lba) {
                    let (stamp, done) = e.read(lba, t).unwrap();
                    stamps.push(stamp);
                    t = done;
                } else {
                    e.trim(lba).unwrap();
                }
            }
            assert_eq!(
                e.zone_bits(zone),
                bitmap_of(&mut keep.iter().copied()),
                "{zone_cap}-page zones"
            );
            e.verify_hotpath_invariants();
            // Reclaim lists exactly the kept offsets, in order, and moves
            // each stamp word as-is.
            assert_eq!(e.victim(1), Some(zone));
            assert!(e.reclaim_step(t, 1).unwrap().is_some());
            assert_eq!(e.stats().relocated, keep.len() as u64);
            let listed: Vec<u64> = e.reloc_sources.iter().map(|&(_, off)| off).collect();
            assert_eq!(listed, *keep, "{zone_cap}-page zones");
            assert!(e.zone_bits(zone).iter().all(|&w| w == 0));
            for (&lba, &stamp) in keep.iter().zip(&stamps) {
                assert_eq!(e.summary_log[e.map[lba as usize] as usize], stamp);
                assert_eq!(e.read(lba, t).unwrap().0, stamp);
            }
            e.verify_hotpath_invariants();
        }
    }

    /// A small device behind a three-zone reserve under a 4 % program
    /// fault plan, with a trace ring to tell the re-drive layers apart.
    fn faulty_emu(seed: u64) -> BlockEmu {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        let mut e = BlockEmu::new(ZnsDevice::new(cfg).unwrap(), 3, ReclaimPolicy::Immediate);
        e.install_faults(bh_faults::FaultConfig::new(seed).with_program_fail_ppm(40_000));
        e.set_tracer(Tracer::ring(1 << 16));
        e
    }

    #[test]
    fn burned_slots_hold_no_stamp_and_replay_skips_them() {
        let mut e = faulty_emu(3);
        let cap = e.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = e.write(lba, t).unwrap();
        }
        assert!(e.stats().program_redrives > 0);
        for round in 0..2 {
            let mut burned = 0;
            let zones: Vec<(ZoneId, u64)> = e
                .dev
                .zone_report()
                .iter()
                .map(|z| (z.id(), z.write_pointer()))
                .collect();
            for (id, wp) in zones {
                for off in 0..wp {
                    let slot = e.slot(id, off);
                    let (word, bit) = e.live_bit(id, off);
                    match e.dev.read(id, off, t) {
                        Ok((stamp, _)) => assert_eq!(e.summary_log[slot as usize], stamp),
                        Err(ZnsError::MediaError { .. }) => {
                            burned += 1;
                            assert_eq!(e.summary_log[slot as usize], 0, "burned slot stamped");
                            assert_eq!(e.live_bits[word] & bit, 0, "burned slot live");
                        }
                        Err(other) => panic!("{other}"),
                    }
                }
            }
            assert!(
                burned > 0,
                "round {round}: no burned slot below a write pointer"
            );
            e.verify_hotpath_invariants();
            // Second round: the same must hold for a map rebuilt by replay.
            t = e.power_cycle(t).unwrap().0;
        }
    }

    #[test]
    fn reclaim_cut_short_by_destination_burns_stays_consistent() {
        use bh_trace::Event;
        let mut gc_redrives = 0;
        let mut cut_short = 0;
        for seed in 0..8 {
            let mut e = faulty_emu(seed);
            let cap = e.capacity_pages();
            let mut t = Nanos::ZERO;
            let mut x = seed;
            for i in 0..6 * cap {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let lba = if i < cap { i } else { (x >> 33) % cap };
                match e.write(lba, t) {
                    Ok(done) => t = done,
                    // Degraded zones can leave the device without room.
                    Err(HostError::NoFreeZone) => break,
                    Err(other) => panic!("seed {seed} op {i}: {other}"),
                }
                if i % 16 == 0 {
                    let before = *e.stats();
                    match e.reclaim_step(t, 1) {
                        Ok(Some(done)) => t = done,
                        Ok(None) => {}
                        // Burns ate the destination and no zone is left to
                        // rotate to: pages moved so far stay moved, the
                        // victim keeps the rest and is not reset.
                        Err(HostError::NoFreeZone) => {
                            assert_eq!(e.stats().resets, before.resets);
                            if e.stats().relocated > before.relocated {
                                cut_short += 1;
                            }
                        }
                        Err(other) => panic!("seed {seed} op {i}: {other}"),
                    }
                }
                e.verify_hotpath_invariants();
            }
            gc_redrives += e
                .tracer()
                .events()
                .iter()
                .filter(|ev| {
                    matches!(
                        ev.event,
                        Event::Fault(FaultEvent::Redrive {
                            layer: "blockemu-gc",
                            ..
                        })
                    )
                })
                .count();
            // A replay over whatever the cut-short reclaims left behind —
            // pages present in both victim and destination — restores
            // every mapping.
            let mut expect = Vec::new();
            for lba in 0..cap {
                expect.push(e.read(lba, t).map(|(stamp, _)| stamp));
            }
            t = e.power_cycle(t).unwrap().0;
            e.verify_hotpath_invariants();
            for lba in 0..cap {
                assert_eq!(
                    e.read(lba, t).map(|(stamp, _)| stamp),
                    expect[lba as usize],
                    "seed {seed} LBA {lba}"
                );
            }
        }
        assert!(
            gc_redrives > 0,
            "no simple-copy was ever cut short by a burn"
        );
        assert!(cut_short > 0, "no reclaim step ended between chunks");
    }

    /// Under a flat 4 % program-fail plan, no emergency pick is a zone
    /// whose only dead slots are burns: relocating one would move its
    /// live pages and reclaim no garbage. The burn-only test is written
    /// out here rather than through [`reclaim::garbage`], so a garbage
    /// expression that counts burns again fails it (it did: 583 of
    /// 12 530 picks were burn-only). Prints the pick count and how many
    /// zones ended Offline; this schedule wears none Offline, so it says
    /// nothing about wear.
    #[test]
    fn no_emergency_pick_is_burn_only() {
        let mut e = emu_with_zones_of(256);
        assert_eq!(e.stride, 1024);
        e.install_faults(bh_faults::FaultConfig::new(5).with_program_fail_ppm(40_000));
        let cap = e.capacity_pages();
        let (mut picks, mut burn_only) = (0u64, 0u64);
        let mut t = Nanos::ZERO;
        let mut x = 5u64;
        for i in 0..3 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = if i < cap { i } else { (x >> 33) % cap };
            if e.free.len() <= 1 {
                if let Some(v) = e.victim(1) {
                    let z = e.dev.zone(v).unwrap();
                    picks += 1;
                    let dead = z.write_pointer() - e.live[v.0 as usize];
                    burn_only += u64::from(dead == u64::from(z.burned()));
                }
            }
            match e.write(lba, t) {
                Ok(done) => t = done,
                // Zones worn Offline can leave no room at all.
                Err(HostError::NoFreeZone) => break,
                Err(other) => panic!("write {i}: {other}"),
            }
        }
        let offline = e
            .dev
            .zone_report()
            .iter()
            .filter(|z| z.state() == ZoneState::Offline)
            .count();
        println!(
            "{burn_only} of {picks} emergency picks burn-only; {offline} of {} zones Offline",
            e.dev.num_zones()
        );
        assert!(picks > 1000, "only {picks} emergency picks");
        assert_eq!(
            burn_only, 0,
            "{burn_only} of {picks} emergency picks were burn-only"
        );
    }

    /// Reports dimensions and nothing else: whatever `BlockEmu::new`
    /// checks about them, it must check before touching the device or
    /// allocating for it.
    struct DimensionsOnly {
        zones: u32,
        zone_capacity: u64,
    }

    impl ZonedDevice for DimensionsOnly {
        fn num_zones(&self) -> u32 {
            self.zones
        }
        fn zone_capacity(&self) -> u64 {
            self.zone_capacity
        }
        fn page_bytes(&self) -> u32 {
            4096
        }
        fn zone(&self, _: ZoneId) -> bh_zns::Result<&bh_zns::Zone> {
            unimplemented!()
        }
        fn zone_report(&self) -> &[bh_zns::Zone] {
            unimplemented!()
        }
        fn active_zones(&self) -> u32 {
            unimplemented!()
        }
        fn open_zones(&self) -> u32 {
            unimplemented!()
        }
        fn empty_zones(&self) -> u32 {
            unimplemented!()
        }
        fn open(&mut self, _: ZoneId) -> bh_zns::Result<()> {
            unimplemented!()
        }
        fn close(&mut self, _: ZoneId) -> bh_zns::Result<()> {
            unimplemented!()
        }
        fn finish(&mut self, _: ZoneId) -> bh_zns::Result<()> {
            unimplemented!()
        }
        fn reset(&mut self, _: ZoneId, _: Nanos) -> bh_zns::Result<Nanos> {
            unimplemented!()
        }
        fn write(&mut self, _: ZoneId, _: u64, _: u64, _: Nanos) -> bh_zns::Result<Nanos> {
            unimplemented!()
        }
        fn append(&mut self, _: ZoneId, _: u64, _: Nanos) -> bh_zns::Result<(u64, Nanos)> {
            unimplemented!()
        }
        fn read(&mut self, _: ZoneId, _: u64, _: Nanos) -> bh_zns::Result<(u64, Nanos)> {
            unimplemented!()
        }
        fn simple_copy(
            &mut self,
            _: &[(ZoneId, u64)],
            _: ZoneId,
            _: Nanos,
        ) -> bh_zns::Result<(Vec<u64>, Nanos)> {
            unimplemented!()
        }
        fn inject_read_only(&mut self, _: ZoneId) -> bh_zns::Result<()> {
            unimplemented!()
        }
        fn zone_stats(&self) -> bh_zns::ZnsStats {
            unimplemented!()
        }
        fn flash_stats(&self) -> bh_flash::FlashStats {
            unimplemented!()
        }
        fn busy_planes(&self, _: Nanos) -> u32 {
            unimplemented!()
        }
        fn install_faults(&mut self, _: bh_faults::FaultConfig) {
            unimplemented!()
        }
        fn power_cycle(&mut self, _: Nanos) -> Nanos {
            unimplemented!()
        }
        fn set_tracer(&mut self, _: Tracer) {
            unimplemented!()
        }
        fn backend_label(&self) -> &'static str {
            "dimensions-only"
        }
    }

    #[test]
    #[should_panic(expected = "exceed the 32-bit page addresses")]
    fn four_gibi_pages_are_refused_before_any_allocation() {
        // 65 536 zones of 65 536 pages: one page more than 32 bits hold.
        let dev = DimensionsOnly {
            zones: 1 << 16,
            zone_capacity: 1 << 16,
        };
        BlockEmu::new(dev, 8, ReclaimPolicy::Immediate);
    }

    #[test]
    #[should_panic(expected = "exceed the 32-bit page addresses")]
    fn a_zone_count_times_capacity_past_u64_is_refused_too() {
        let dev = DimensionsOnly {
            zones: u32::MAX,
            zone_capacity: u64::MAX,
        };
        BlockEmu::new(dev, 8, ReclaimPolicy::Immediate);
    }
}
