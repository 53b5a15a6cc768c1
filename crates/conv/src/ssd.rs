//! The conventional SSD: block interface over a page-mapped FTL.
//!
//! [`ConvSsd`] exports a flat, randomly writable logical page space (the
//! "block interface" of §2). Every behaviour the paper attributes to
//! conventional SSDs emerges here:
//!
//! - Random overwrites invalidate pages in place-less flash, so space is
//!   reclaimed by **foreground garbage collection** inside the write path.
//! - GC programs/erases occupy planes, so concurrent host reads queue
//!   behind them (**tail-latency interference**, §2.4).
//! - More **overprovisioning** means emptier victims and less copying
//!   (**write amplification vs. OP**, the §2.2 lab experiment).

use crate::config::ConvConfig;
use crate::error::ConvError;
use crate::hotpath::{FreeList, SealedEntry, VictimIndex};
use crate::mapping::MappingTable;
#[cfg(test)]
use crate::policy::GcPolicy;
use crate::wear::WearLeveler;
use crate::Result;
use bh_flash::{
    decode_oob, encode_oob, Block, BlockId, BlockStatus, FlashDevice, FlashError, FlashStats,
    OpOrigin, PageState, PlaneId, Ppa, Stamp,
};
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::{ConvEvent, FaultEvent, SpanId, Tracer};

/// Upper bound on re-drives of a single host write or GC copy before the
/// FTL gives up and surfaces the program failure; transient-failure rates
/// that exceed this are device end-of-life, not a fault to paper over.
const MAX_REDRIVES: u32 = 8;

/// Per-plane allocation state.
#[derive(Debug)]
struct PlaneState {
    /// Erased blocks, ordered by wear so allocation implements dynamic
    /// wear leveling without scanning.
    free: FreeList,
    /// Block currently receiving host writes.
    host_frontier: Option<BlockId>,
    /// Block currently receiving GC relocations.
    gc_frontier: Option<BlockId>,
    /// Sealed blocks (GC victim candidates), indexed for the configured
    /// policy's selection order plus the plane garbage total.
    victims: VictimIndex,
    /// Victim currently being relocated incrementally, if any.
    gc_victim: Option<BlockId>,
    /// Resume point for the in-flight victim's valid-page scan. Pages
    /// never return to valid while a block is a victim, so the scan is
    /// monotone and each page is visited once per episode instead of
    /// rescanning from page 0 on every copy.
    gc_scan: u32,
    /// Trace span covering the in-flight GC episode.
    gc_span: SpanId,
    /// Valid pages copied out of the in-flight victim so far.
    gc_copied: u32,
}

/// Counters for FTL-internal activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Foreground GC invocations (write path had to reclaim space).
    pub gc_runs: u64,
    /// Valid pages copied forward by GC.
    pub gc_pages_copied: u64,
    /// Victim blocks GC selected.
    pub gc_victims: u64,
    /// Blocks erased by GC.
    pub gc_erases: u64,
    /// Static wear-leveling migrations.
    pub wl_migrations: u64,
    /// Programs re-driven after a transient program failure burned a page.
    pub program_redrives: u64,
    /// Power-loss recovery passes completed.
    pub replays: u64,
    /// Pages read back during power-loss recovery scans.
    pub replay_pages_scanned: u64,
    /// Host writes that replaced a live mapping (logical overwrites).
    pub remaps: u64,
}

/// A conventional block-interface SSD.
///
/// # Examples
///
/// ```
/// use bh_conv::{ConvConfig, ConvSsd};
/// use bh_flash::{FlashConfig, Geometry};
/// use bh_metrics::Nanos;
///
/// let cfg = ConvConfig::new(FlashConfig::tlc(Geometry::small_test()), 0.25);
/// let mut ssd = ConvSsd::new(cfg).unwrap();
/// let w = ssd.write(7, Nanos::ZERO).unwrap();
/// let (stamp, _done) = ssd.read(7, w.done).unwrap();
/// assert_eq!(stamp, w.stamp);
/// ```
pub struct ConvSsd {
    dev: FlashDevice,
    cfg: ConvConfig,
    map: MappingTable,
    planes: Vec<PlaneState>,
    leveler: Option<WearLeveler>,
    stats: FtlStats,
    stamp_counter: Stamp,
    next_plane: u32,
    /// Rotating cursor for GC relocation destinations.
    gc_next_plane: u32,
    /// The relocation run being planned, kept to reuse its buffer.
    gc_run: Vec<RunPair>,
    /// Monotone counter driving plane-allocation dither.
    dither: u32,
    /// Monotone seal counter; per-plane ordering of sealed blocks (the
    /// old candidate-list order) is the order of these values.
    seal_seq: u64,
    read_only: bool,
    tracer: Tracer,
}

/// Captures the victim-index entry for a block being sealed.
fn sealed_entry(blk: Block<'_>, seq: u64) -> SealedEntry {
    SealedEntry {
        seq,
        valid: blk.valid_pages(),
        invalid: blk.invalid_pages(),
        wear: blk.wear(),
        erased_at: blk.erased_at_ns(),
    }
}

/// Result of a host write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Completion instant, including any foreground GC the write waited
    /// behind.
    pub done: Nanos,
    /// Stamp stored for the page; reads return it, so callers can verify
    /// integrity end to end.
    pub stamp: Stamp,
}

impl ConvSsd {
    /// Builds a conventional SSD from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration or geometry is invalid.
    pub fn new(cfg: ConvConfig) -> std::result::Result<Self, String> {
        cfg.validate()?;
        let dev = FlashDevice::new(cfg.flash)?;
        let geo = *dev.geometry();
        let map = MappingTable::new(cfg.logical_pages(), geo);
        let planes = (0..geo.total_planes())
            .map(|p| {
                // All blocks start erased with wear 0; order is arbitrary.
                let mut free = FreeList::new();
                for i in 0..geo.blocks_per_plane {
                    free.push(geo.block_in_plane(PlaneId(p), i), 0);
                }
                PlaneState {
                    free,
                    host_frontier: None,
                    gc_frontier: None,
                    victims: VictimIndex::new(
                        geo.block_in_plane(PlaneId(p), 0).0,
                        geo.blocks_per_plane,
                        cfg.gc_policy,
                    ),
                    gc_victim: None,
                    gc_scan: 0,
                    gc_span: SpanId::NONE,
                    gc_copied: 0,
                }
            })
            .collect();
        Ok(ConvSsd {
            dev,
            cfg,
            map,
            planes,
            leveler: cfg.wear_level_gap.map(WearLeveler::new),
            stats: FtlStats::default(),
            stamp_counter: 0,
            next_plane: 0,
            gc_next_plane: 0,
            gc_run: Vec::new(),
            dither: 0,
            seal_seq: 0,
            read_only: false,
            tracer: Tracer::disabled(),
        })
    }

    /// Installs a tracer on the FTL and the flash device beneath it. GC
    /// episodes appear as begin/end span pairs; flash operations carry
    /// their physical coordinates and origin.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dev.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The tracer in use (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Writes the flash, fault and FTL slots of `snap` from the stats
    /// the FTL and its flash device keep.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.dev.obs_into(snap);
        snap.set(Ctr::ConvRemaps, self.stats.remaps);
        snap.set(Ctr::ConvGcVictims, self.stats.gc_victims);
        snap.set(Ctr::ConvGcPagesMigrated, self.stats.gc_pages_copied);
        snap.set(Ctr::ConvRedrives, self.stats.program_redrives);
    }

    /// Installs a transient-fault plan on the underlying flash device.
    pub fn install_faults(&mut self, cfg: bh_faults::FaultConfig) {
        self.dev.install_faults(cfg);
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.map.logical_pages()
    }

    /// Logical page size in bytes.
    pub fn page_bytes(&self) -> u32 {
        self.dev.geometry().page_bytes
    }

    /// Underlying flash statistics (programs, erases, copies, WA).
    pub fn flash_stats(&self) -> &FlashStats {
        self.dev.stats()
    }

    /// FTL-internal activity counters.
    pub fn ftl_stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Current write amplification factor.
    pub fn write_amplification(&self) -> f64 {
        self.dev.stats().write_amplification()
    }

    /// On-board DRAM a real device would need for this FTL's mapping
    /// table (§2.2 math).
    pub fn device_dram_bytes(&self) -> u64 {
        self.map.device_dram_bytes()
    }

    /// True once the device has retired into read-only end-of-life.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Direct access to the wear-leveler state, if enabled.
    pub fn wear_leveler(&self) -> Option<&WearLeveler> {
        self.leveler.as_ref()
    }

    /// Direct access to the flash device, for inspection in tests and
    /// experiments.
    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    /// Total blocks currently tracked as sealed GC candidates, for
    /// invariant checks: every full block must be sealed or a frontier.
    pub fn sealed_blocks(&self) -> usize {
        self.planes.iter().map(|p| p.victims.len()).sum()
    }

    /// Per-plane snapshot `(free, sealed, valid_pages)` for diagnostics.
    pub fn plane_summary(&self) -> Vec<(usize, usize, u64)> {
        self.planes
            .iter()
            .enumerate()
            .map(|(p, st)| {
                let valid: u64 = (0..self.dev.geometry().blocks_per_plane)
                    .map(|i| {
                        let b = self.dev.geometry().block_in_plane(PlaneId(p as u32), i);
                        self.dev
                            .block(b)
                            .map(|blk| blk.valid_pages() as u64)
                            .unwrap_or(0)
                    })
                    .sum();
                (st.free.len(), st.victims.len(), valid)
            })
            .collect()
    }

    fn check_lba(&self, lba: u64) -> Result<()> {
        if lba < self.capacity_pages() {
            Ok(())
        } else {
            Err(ConvError::LbaOutOfRange {
                lba,
                capacity: self.capacity_pages(),
            })
        }
    }

    /// Reads logical page `lba`, issued at `now`. Returns the stored
    /// stamp and the completion instant (after any queueing behind GC
    /// work on the same plane): the timed read plus one stamp load.
    pub fn read(&mut self, lba: u64, now: Nanos) -> Result<(Stamp, Nanos)> {
        let (ppa, done) = self.sense(lba, now)?;
        Ok((self.dev.stamp(ppa), done))
    }

    /// [`ConvSsd::read`] without the stamp: the same checks, device time
    /// and counters. Returns the completion instant.
    pub fn read_timed(&mut self, lba: u64, now: Nanos) -> Result<Nanos> {
        self.sense(lba, now).map(|(_, done)| done)
    }

    /// The timed half of a read: returns the page sensed and the
    /// completion instant.
    #[inline]
    fn sense(&mut self, lba: u64, now: Nanos) -> Result<(Ppa, Nanos)> {
        self.check_lba(lba)?;
        let ppa = self.map.lookup(lba).ok_or(ConvError::Unmapped(lba))?;
        let (valid, done) = self.dev.sense(ppa, now, OpOrigin::Host)?;
        // A mapped page is valid by the FTL invariant; an invalid one
        // here means the maps and flash state disagree.
        if !valid {
            panic!("mapped page must be valid");
        }
        Ok((ppa, done))
    }

    /// Writes logical page `lba`, issued at `now`. Runs foreground GC
    /// first when the target plane is low on space; the returned
    /// completion reflects that queueing.
    pub fn write(&mut self, lba: u64, now: Nanos) -> Result<WriteOutcome> {
        self.check_lba(lba)?;
        if self.read_only {
            return Err(ConvError::ReadOnly);
        }
        let plane = self.pick_plane();
        // If the plane has no writable frontier, space must be made
        // before the program; otherwise GC runs after it, so the host
        // write does not wait behind its own collection traffic (real
        // FTLs run GC at lower priority than host I/O). An open frontier
        // is never full: `seal_if_full` closes it the moment the last
        // page programs.
        let st = &self.planes[plane.0 as usize];
        let frontier_ready = st.host_frontier.is_some() || !st.free.is_empty();
        if !frontier_ready {
            self.ensure_space(plane, now)?;
        }
        self.stamp_counter += 1;
        let stamp = encode_oob(self.stamp_counter, lba);
        let (ppa, done) = self.program_host(plane, stamp, now)?;
        if let Some(old) = self.map.bind(lba, ppa) {
            self.stats.remaps += 1;
            self.invalidate_page(old)?;
        }
        if frontier_ready {
            self.ensure_space(plane, now)?;
        }
        Ok(WriteOutcome { done, stamp })
    }

    /// Programs `stamp` at `plane`'s host frontier, re-driving onto the
    /// next page (or a fresh frontier block) when a transient program
    /// failure burns the page. The stamp is reused on every attempt: it is
    /// the same write, just landing elsewhere.
    fn program_host(&mut self, plane: PlaneId, stamp: Stamp, now: Nanos) -> Result<(Ppa, Nanos)> {
        let mut attempts = 0u32;
        loop {
            let frontier = self.host_frontier(plane)?;
            match self.dev.program_next(frontier, stamp, now, OpOrigin::Host) {
                Ok((page, done)) => {
                    self.seal_if_full(plane, frontier, FrontierKind::Host);
                    if attempts > 0 {
                        self.stats.program_redrives += attempts as u64;
                        self.tracer.emit(
                            done,
                            FaultEvent::Redrive {
                                layer: "conv",
                                attempts,
                            },
                        );
                    }
                    return Ok((Ppa::new(frontier, page), done));
                }
                Err(e @ FlashError::ProgramFailed(_)) => {
                    attempts += 1;
                    // The burned page advanced the cursor; seal the block
                    // if that consumed its last page.
                    self.seal_if_full(plane, frontier, FrontierKind::Host);
                    if attempts > MAX_REDRIVES {
                        return Err(e.into());
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Deallocates logical page `lba` (TRIM). Metadata-only.
    pub fn trim(&mut self, lba: u64) -> Result<()> {
        self.check_lba(lba)?;
        if let Some(old) = self.map.unbind(lba) {
            self.invalidate_page(old)?;
        }
        Ok(())
    }

    /// Marks `ppa` invalid on flash and propagates the transition into
    /// the owning plane's victim index (a no-op for blocks that are not
    /// sealed: open frontiers and in-flight GC victims).
    fn invalidate_page(&mut self, ppa: Ppa) -> Result<()> {
        self.dev.invalidate(ppa)?;
        let plane = self.dev.geometry().plane_of(ppa.block);
        self.planes[plane.0 as usize]
            .victims
            .on_invalidate(ppa.block);
        Ok(())
    }

    /// Runs maintenance (background GC and static wear leveling) until
    /// `deadline`, starting at `now`. Returns the number of blocks
    /// reclaimed. Real conventional FTLs do this opportunistically and
    /// opaquely; experiments call it to model idle-time cleaning.
    pub fn maintenance(&mut self, now: Nanos, deadline: Nanos) -> Result<u32> {
        let mut reclaimed = 0;
        let mut t = now;
        // Round-robin planes, reclaiming the cheapest victims first, while
        // time remains and there is garbage to collect.
        'outer: loop {
            let mut progressed = false;
            for plane in 0..self.planes.len() as u32 {
                if t >= deadline {
                    break 'outer;
                }
                if self.plane_garbage_pages(PlaneId(plane)) == 0 {
                    continue;
                }
                // Only reclaim proactively while free space is below 3/4
                // of the plane; beyond that, background GC wastes erases.
                let free = self.planes[plane as usize].free.len() as u32;
                if free * 4 >= 3 * self.dev.geometry().blocks_per_plane {
                    continue;
                }
                let erases_before = self.stats.gc_erases;
                let (progress, end) =
                    self.incremental_gc(PlaneId(plane), t, self.dev.geometry().pages_per_block)?;
                if progress > 0 {
                    reclaimed += (self.stats.gc_erases - erases_before) as u32;
                    progressed = true;
                    t = end;
                }
            }
            if !progressed {
                break;
            }
        }
        self.maybe_wear_level(t)?;
        Ok(reclaimed)
    }

    /// Total invalid (garbage) pages in sealed blocks of `plane`,
    /// maintained incrementally by the victim index.
    fn plane_garbage_pages(&self, plane: PlaneId) -> u64 {
        self.planes[plane.0 as usize].victims.garbage()
    }

    /// Chooses the plane for the next host write: strict round-robin, so
    /// every plane receives the same write flow and therefore holds the
    /// same share of live data in expectation.
    ///
    /// Strict striping matters for write amplification: selecting planes
    /// by available space looks tempting but is unstable — GC equalizes
    /// the free-block count across planes regardless of their live-data
    /// load, so a plane drifting toward fullness keeps receiving writes
    /// and its GC victims approach 100% valid. Round-robin keeps planes
    /// statistically identical. If the round-robin choice is truly
    /// unwritable (worn-out blocks), fall back to any plane with space.
    fn pick_plane(&mut self) -> PlaneId {
        let n = self.planes.len() as u32;
        let start = self.next_plane % n;
        // Dither: occasionally (~1/7 of writes, at hashed positions)
        // skip one extra plane. Pure round-robin resonates with
        // workloads whose period divides the plane count (e.g. K tenants
        // writing fixed-size objects), binding each tenant to a fixed
        // plane subset and wedging planes whose tenant never deletes.
        // Real devices decorrelate through queueing; the hashed dither is
        // its deterministic stand-in. Hashing (rather than a fixed
        // modulus) keeps the skipped position itself from resonating.
        self.dither = self.dither.wrapping_add(1);
        let skip = self.dither.wrapping_mul(2654435761).is_multiple_of(7);
        let step = 1 + u32::from(skip);
        self.next_plane = (self.next_plane + step) % n;
        for off in 0..n {
            let p = (start + off) % n;
            let st = &self.planes[p as usize];
            // Open frontiers are never full (see `host_frontier`).
            let frontier_open = st.host_frontier.is_some();
            let has_garbage = st.victims.garbage() > 0;
            if frontier_open || !st.free.is_empty() || has_garbage {
                return PlaneId(p);
            }
        }
        PlaneId(start)
    }

    /// Pops the least-worn free block of `plane` (dynamic wear
    /// leveling), straight off the wear-ordered free list.
    fn alloc_block(&mut self, plane: PlaneId) -> Option<BlockId> {
        self.planes[plane.0 as usize].free.pop_least_worn()
    }

    fn host_frontier(&mut self, plane: PlaneId) -> Result<BlockId> {
        // An open frontier is never full (`seal_if_full` closes it as
        // soon as its last page programs), so no flash lookup is needed.
        if let Some(b) = self.planes[plane.0 as usize].host_frontier {
            return Ok(b);
        }
        let b = match self.alloc_block(plane) {
            Some(b) => b,
            None => {
                self.read_only = true;
                return Err(ConvError::ReadOnly);
            }
        };
        self.planes[plane.0 as usize].host_frontier = Some(b);
        Ok(b)
    }

    /// The plane's GC frontier, or `None` when the plane has neither an
    /// open frontier nor a free block. Does not flag the device
    /// read-only: GC falls back to other planes.
    fn gc_frontier(&mut self, plane: PlaneId) -> Result<Option<BlockId>> {
        // Same invariant as `host_frontier`: open implies not full.
        if let Some(b) = self.planes[plane.0 as usize].gc_frontier {
            return Ok(Some(b));
        }
        let b = match self.alloc_block(plane) {
            Some(b) => b,
            None => return Ok(None),
        };
        self.planes[plane.0 as usize].gc_frontier = Some(b);
        Ok(Some(b))
    }

    fn seal_if_full(&mut self, plane: PlaneId, block: BlockId, kind: FrontierKind) {
        let Some(entry) = self
            .dev
            .block(block)
            .ok()
            .filter(|b| b.is_full())
            .map(|b| sealed_entry(b, self.seal_seq + 1))
        else {
            return;
        };
        self.seal_seq += 1;
        let st = &mut self.planes[plane.0 as usize];
        match kind {
            FrontierKind::Host => st.host_frontier = None,
            FrontierKind::Gc => st.gc_frontier = None,
        }
        st.victims.insert(block, entry);
    }

    /// Runs foreground GC for `plane` as real FTLs do: *paced*. At or
    /// below the soft watermark (2× the hard one) each write relocates a
    /// small budget of pages, amortizing GC smoothly instead of stalling
    /// one victim's worth of copies on a single write — un-paced GC
    /// produces device-wide latency avalanches when symmetric traffic
    /// drives every plane to its watermark simultaneously. At or below
    /// the hard watermark the loop runs until space recovers (bounded).
    ///
    /// A plane legitimately sits at a low free count while its space is
    /// simply full of valid data (e.g. during the initial fill); in that
    /// case the write proceeds into the remaining free blocks and GC
    /// waits for garbage. True exhaustion — no free block when a frontier
    /// is needed — is detected at allocation time and turns the device
    /// read-only.
    fn ensure_space(&mut self, plane: PlaneId, now: Nanos) -> Result<()> {
        let hard = self.cfg.gc_watermark as usize;
        let soft = 2 * hard;
        // Gentle pacing: a few pages per write keeps up with steady-state
        // GC demand (a victim frees `invalid` pages for `valid` copies,
        // so ~2-4 copies per host write suffice) while keeping the soft
        // band narrow — free blocks parked above the watermark subtract
        // from the spare space that keeps victims empty.
        let pace = (self.dev.geometry().pages_per_block / 64).max(4);
        if self.planes[plane.0 as usize].free.len() <= soft {
            self.stats.gc_runs += 1;
            let _ = self.incremental_gc(plane, now, pace)?;
        }
        // Emergency: restore the hard watermark before writing, still in
        // bounded slices so one write never absorbs a whole victim's
        // relocation storm.
        for _ in 0..(4 * self.dev.geometry().blocks_per_plane) {
            if self.planes[plane.0 as usize].free.len() > hard {
                return Ok(());
            }
            self.stats.gc_runs += 1;
            if self.incremental_gc(plane, now, 8 * pace)?.0 == 0 {
                // No reclaimable garbage yet: let the write consume free
                // blocks until some accumulates.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Advances `plane`'s garbage collection by up to `budget` relocated
    /// pages (continuing any in-progress victim), erasing the victim once
    /// empty. Returns `(progress, done)`: the number of pages moved plus
    /// blocks freed (zero means no progress was possible) and the
    /// completion instant of the last operation issued (`now` if none).
    ///
    /// The slice's relocations reach the map here, as one run after the
    /// slice, whichever way the slice ended (see
    /// [`MappingTable::relocate_deferred`]); nothing inside a slice reads
    /// the map — GC takes each page's LBA from its stamp.
    fn incremental_gc(&mut self, plane: PlaneId, now: Nanos, budget: u32) -> Result<(u32, Nanos)> {
        let out = self.gc_slice(plane, now, budget);
        self.map.flush_relocations();
        out
    }

    fn gc_slice(&mut self, plane: PlaneId, now: Nanos, budget: u32) -> Result<(u32, Nanos)> {
        let mut done = now;
        let mut progress = 0u32;
        let mut moved = 0u32;
        while moved < budget {
            let victim = match self.planes[plane.0 as usize].gc_victim {
                Some(v) => v,
                None => match self.select_victim(plane, now) {
                    Some(v) => {
                        self.stats.gc_victims += 1;
                        let st = &mut self.planes[plane.0 as usize];
                        st.gc_victim = Some(v);
                        st.gc_copied = 0;
                        st.gc_scan = 0;
                        if self.tracer.enabled() {
                            let span = self.tracer.begin_span();
                            self.planes[plane.0 as usize].gc_span = span;
                            let blk = self.dev.block(v)?;
                            let (valid, invalid) = (blk.valid_pages(), blk.invalid_pages());
                            self.tracer.emit_span(
                                now,
                                span,
                                ConvEvent::GcBegin {
                                    plane: plane.0,
                                    victim: v.0,
                                    valid,
                                    invalid,
                                },
                            );
                        }
                        v
                    }
                    None => return Ok((progress, done)),
                },
            };
            // Relocate a run of the victim's next valid pages, if any.
            // The scan resumes from the last position handled: earlier
            // pages can only have left the valid state (copied out or
            // overwritten by the host), never re-entered it, so skipping
            // them is exact. A burned copy leaves the cursor on its
            // source, which the re-drive finds again.
            let mut scan = self.planes[plane.0 as usize].gc_scan;
            let run = self.relocate_run(victim, &mut scan, budget - moved, now)?;
            self.planes[plane.0 as usize].gc_scan = scan;
            match run {
                RunEnd::Ran {
                    copied,
                    done: copy_done,
                    burned,
                } => {
                    done = done.max(copy_done);
                    self.stats.gc_pages_copied += u64::from(copied);
                    self.planes[plane.0 as usize].gc_copied += copied;
                    moved += copied;
                    progress += copied;
                    if burned.is_some() {
                        // The source is intact: charge the attempt
                        // against the pace budget and re-drive it on the
                        // next turn.
                        self.stats.program_redrives += 1;
                        self.tracer.emit(
                            now,
                            FaultEvent::Redrive {
                                layer: "conv",
                                attempts: 1,
                            },
                        );
                        moved += 1;
                    }
                }
                RunEnd::NoDestination => return Ok((progress, done)),
                RunEnd::VictimEmpty => {
                    // Victim fully relocated: erase and recycle it.
                    let outcome = self.dev.erase(victim, now)?;
                    done = done.max(outcome.done);
                    if !outcome.retired {
                        let wear = self.dev.block(victim)?.wear();
                        self.planes[plane.0 as usize].free.push(victim, wear);
                    }
                    let st = &mut self.planes[plane.0 as usize];
                    st.gc_victim = None;
                    let (span, copied) = (st.gc_span, st.gc_copied);
                    st.gc_span = SpanId::NONE;
                    st.gc_copied = 0;
                    if self.tracer.enabled() {
                        self.tracer.emit_span(
                            outcome.done,
                            span,
                            ConvEvent::GcEnd {
                                plane: plane.0,
                                pages_copied: copied,
                                retired: outcome.retired,
                            },
                        );
                    }
                    self.stats.gc_erases += 1;
                    progress += 1;
                }
            }
        }
        Ok((progress, done))
    }

    /// Relocates one run of `victim`'s valid pages, from `*scan` on and
    /// at most `max` of them, with one [`FlashDevice::copy_run`], and
    /// leaves `*scan` where the next run starts.
    ///
    /// Each page goes where [`ConvSsd::pick_gc_destination`]'s rotation
    /// would send it one page at a time. Only the run's first pick may
    /// open a frontier, so the run ends before a pick that would need a
    /// block, before a pick that would come back to a plane already in
    /// the run, and after a copy that fills its frontier. The picks are
    /// then the ones a page-at-a-time loop makes, and none but the first
    /// changes any state. A burned copy ends the run early: the rotation
    /// rewinds to just past its plane, because the picks planned after it
    /// never happened, and its source stays valid for the re-drive.
    ///
    /// Book-keeping is per run. Each copied page's rebinding is queued
    /// and its source invalidated; the victim is in no victim index, so
    /// no index moves. Only the last frontier written can have filled,
    /// so only it is sealed.
    fn relocate_run(
        &mut self,
        victim: BlockId,
        scan: &mut u32,
        max: u32,
        now: Nanos,
    ) -> Result<RunEnd> {
        let Some((page, stamp)) = self.dev.block(victim)?.first_valid_from(*scan) else {
            return Ok(RunEnd::VictimEmpty);
        };
        *scan = page;
        let Some((first, block)) = self.pick_gc_destination()? else {
            return Ok(RunEnd::NoDestination);
        };
        // Plan.
        let planes = self.planes.len() as u32;
        let pages_per_block = self.dev.geometry().pages_per_block;
        let src = self.dev.block(victim)?;
        let (mut page, mut stamp, mut dst_plane, mut block) = (page, stamp, first, block);
        let mut off = 0;
        self.gc_run.clear();
        loop {
            let cursor = self.dev.block(block)?.cursor();
            self.gc_run.push(RunPair {
                src: Ppa::new(victim, page),
                lba: decode_oob(stamp).1,
                dst_plane,
                dst: Ppa::new(block, cursor),
            });
            if cursor + 1 == pages_per_block || self.gc_run.len() as u32 == max {
                break;
            }
            let Some(next) = src.first_valid_from(page + 1) else {
                break;
            };
            // The next pick, scanning on from this one's plane.
            let pick = loop {
                off += 1;
                if off == planes {
                    break None; // Back at the run's first plane.
                }
                let cand = first.0 + off;
                let cand = if cand >= planes { cand - planes } else { cand };
                let st = &self.planes[cand as usize];
                match st.gc_frontier {
                    Some(b) => break Some((PlaneId(cand), b)),
                    None if st.free.is_empty() => {} // The pick skips it too.
                    None => break None,              // It would open a frontier.
                }
            };
            let Some(pick) = pick else {
                break;
            };
            ((page, stamp), (dst_plane, block)) = (next, pick);
        }
        // Copy.
        let pairs = self.gc_run.iter().map(|r| (r.src, r.dst.block));
        let copy = self.dev.copy_run(pairs, now);
        // Book-keep.
        let copied = copy.copied as usize;
        for r in &self.gc_run[..copied] {
            self.map.relocate_deferred(r.lba, r.src, r.dst);
            self.dev.invalidate(r.src)?;
        }
        let burned = match copy.stopped {
            None => None,
            Some(e @ FlashError::ProgramFailed(_)) => Some(e),
            Some(e) => return Err(e.into()),
        };
        let last = self.gc_run[copied + usize::from(burned.is_some()) - 1];
        *scan = last.src.page + u32::from(burned.is_none());
        self.gc_next_plane = (last.dst_plane.0 + 1) % planes;
        self.seal_if_full(last.dst_plane, last.dst.block, FrontierKind::Gc);
        Ok(RunEnd::Ran {
            copied: copy.copied,
            done: copy.done,
            burned,
        })
    }

    /// The next GC relocation destination: rotates across planes so GC
    /// programs parallelize. Returns `None` when no plane can take a
    /// page.
    fn pick_gc_destination(&mut self) -> Result<Option<(PlaneId, BlockId)>> {
        let planes = self.planes.len() as u32;
        for off in 0..planes {
            let cand = PlaneId((self.gc_next_plane + off) % planes);
            if let Some(b) = self.gc_frontier(cand)? {
                self.gc_next_plane = (cand.0 + 1) % planes;
                return Ok(Some((cand, b)));
            }
        }
        Ok(None)
    }

    /// Picks and removes a GC victim from `plane`'s sealed list.
    ///
    /// Declines victims with no invalid pages — erasing those moves data
    /// without reclaiming anything, so GC could not make progress.
    fn select_victim(&mut self, plane: PlaneId, now: Nanos) -> Option<BlockId> {
        let pages_per_block = self.dev.geometry().pages_per_block;
        let victims = &mut self.planes[plane.0 as usize].victims;
        let victim = Self::peek_victim(victims, now, pages_per_block)?;
        victims.remove(victim);
        Some(victim)
    }

    /// The block [`select_victim`](Self::select_victim) would take,
    /// without removing it from the index.
    fn peek_victim(victims: &mut VictimIndex, now: Nanos, pages_per_block: u32) -> Option<BlockId> {
        let victim = victims.peek_policy(now, pages_per_block)?;
        if victims.invalid_of(victim) == 0 {
            // The policy's best choice still reclaims nothing; for greedy
            // this means *no* victim reclaims anything. For FIFO and
            // cost-benefit, fall back to the greediest victim before
            // giving up.
            let (greedy_victim, invalid) = victims.peek_max_invalid()?;
            if invalid == 0 {
                return None;
            }
            return Some(greedy_victim);
        }
        Some(victim)
    }

    /// Copies `victim`'s valid pages forward and erases it — the whole
    /// block in one go, for static wear leveling; GC proper relocates in
    /// paced slices. Destinations rotate across planes exactly as GC's do.
    /// Returns the erase completion instant.
    fn relocate_and_erase(&mut self, plane: PlaneId, victim: BlockId, now: Nanos) -> Result<Nanos> {
        let out = self.relocate_all(victim, now);
        self.map.flush_relocations();
        out?;
        let outcome = self.dev.erase(victim, now)?;
        // A retired block is gone and capacity shrinks; losing too many
        // blocks in a plane eventually surfaces as ReadOnly from
        // `host_frontier`.
        if !outcome.retired {
            let wear = self.dev.block(victim)?.wear();
            self.planes[plane.0 as usize].free.push(victim, wear);
        }
        Ok(outcome.done)
    }

    /// Relocates every valid page of `victim`. Unlike a GC slice, running
    /// out of destinations turns the device read-only, and a copy is
    /// re-driven in place up to [`MAX_REDRIVES`] times.
    fn relocate_all(&mut self, victim: BlockId, now: Nanos) -> Result<()> {
        // Nothing else touches the victim meanwhile, so resuming the scan
        // past each copied page visits exactly the pages valid on entry.
        let mut scan = 0;
        // Burns of the source at the head of the scan.
        let mut attempts = 0u32;
        loop {
            match self.relocate_run(victim, &mut scan, u32::MAX, now)? {
                RunEnd::VictimEmpty => return Ok(()),
                RunEnd::NoDestination => {
                    self.read_only = true;
                    return Err(ConvError::ReadOnly);
                }
                RunEnd::Ran { copied, burned, .. } => {
                    if copied > 0 {
                        attempts = 0;
                    }
                    if let Some(e) = burned {
                        attempts += 1;
                        self.stats.program_redrives += 1;
                        if attempts > MAX_REDRIVES {
                            return Err(e.into());
                        }
                    }
                }
            }
        }
    }

    /// Runs one static wear-leveling migration if the spread warrants it.
    fn maybe_wear_level(&mut self, now: Nanos) -> Result<()> {
        let Some(leveler) = self.leveler else {
            return Ok(());
        };
        let (min, max, _) = self.dev.wear_spread();
        if !leveler.should_level(min, max) {
            return Ok(());
        }
        // Migrate the coldest sealed block (minimal wear): its data has
        // sat still while other blocks cycled, so freeing it puts a
        // low-wear block back into rotation.
        let mut coldest: Option<(PlaneId, BlockId, u32)> = None;
        for (p, st) in self.planes.iter().enumerate() {
            if let Some((b, wear)) = st.victims.peek_min_wear() {
                if coldest.map(|(_, _, w)| wear < w).unwrap_or(true) {
                    coldest = Some((PlaneId(p as u32), b, wear));
                }
            }
        }
        if let Some((plane, block, _)) = coldest {
            self.planes[plane.0 as usize].victims.remove(block);
            let pages = self.dev.block(block)?.valid_pages() as u64;
            self.relocate_and_erase(plane, block, now)?;
            self.stats.wl_migrations += 1;
            self.tracer.emit(
                now,
                ConvEvent::WearLevel {
                    block: block.0,
                    pages_moved: pages as u32,
                },
            );
            if let Some(l) = self.leveler.as_mut() {
                l.note_migration(pages);
            }
        }
        Ok(())
    }

    /// Simulates a power loss at `now` followed by the recovery scan.
    ///
    /// All volatile FTL state — mapping table, frontiers, free lists,
    /// in-flight GC — is discarded, then rebuilt the only way a
    /// page-mapped FTL without a durable journal can: by reading the OOB
    /// metadata of *every* programmed page in the device. The block
    /// interface exposes nothing about which blocks matter, so the scan
    /// cost is proportional to physical occupancy (including garbage GC
    /// has not yet erased), not to live data. Returns the scan completion
    /// instant and the number of pages read.
    pub fn power_cycle(&mut self, now: Nanos) -> Result<(Nanos, u64)> {
        // Close any in-flight GC episode so trace replay stays balanced:
        // the episode died with the power, copying nothing further.
        for p in 0..self.planes.len() {
            let st = &mut self.planes[p];
            if st.gc_victim.take().is_some() {
                let (span, copied) = (st.gc_span, st.gc_copied);
                st.gc_span = SpanId::NONE;
                st.gc_copied = 0;
                if self.tracer.enabled() && span != SpanId::NONE {
                    self.tracer.emit_span(
                        now,
                        span,
                        ConvEvent::GcEnd {
                            plane: p as u32,
                            pages_copied: copied,
                            retired: false,
                        },
                    );
                }
            }
        }
        let geo = *self.dev.geometry();
        self.map = MappingTable::new(self.cfg.logical_pages(), geo);
        let logical = self.cfg.logical_pages();
        let mut scanned = 0u64;
        let mut done = now;
        let mut max_seq = 0u64;
        for block in geo.blocks() {
            let (status, cursor) = {
                let blk = self.dev.block(block)?;
                (blk.status(), blk.cursor())
            };
            if status == BlockStatus::Bad {
                continue;
            }
            for page in 0..cursor {
                let ppa = Ppa::new(block, page);
                // All reads issue at `now`: planes scan in parallel while
                // pages within a plane queue — the same resource model as
                // any other work.
                let (stamp, t) = self.dev.read(ppa, now, OpOrigin::Internal)?;
                done = done.max(t);
                scanned += 1;
                let Some(stamp) = stamp else { continue };
                let (seq, lba) = decode_oob(stamp);
                max_seq = max_seq.max(seq);
                if lba >= logical {
                    continue;
                }
                // Newest version wins, resolved straight into the map: the
                // mapped page's stamp is an untimed look, and stamps of one
                // LBA order by `seq`. Of two equal ones the first met stays.
                let stale = match self.map.lookup(lba) {
                    Some(cur) if self.dev.block(cur.block)?.read(cur.page)? >= Some(stamp) => {
                        Some(ppa)
                    }
                    _ => self.map.bind(lba, ppa),
                };
                // The loser is marked dead so GC reclaims it.
                if let Some(stale) = stale {
                    self.dev.invalidate(stale)?;
                }
            }
        }
        // Rebuild the allocator: empty good blocks are free, every
        // non-empty block is sealed — the FTL does not resume a mid-block
        // frontier after an unclean shutdown. Re-sealing in ascending
        // block order reproduces the candidate order the pre-index
        // rebuild produced.
        for st in &mut self.planes {
            st.free.clear();
            st.victims.clear();
            st.host_frontier = None;
            st.gc_frontier = None;
        }
        for block in geo.blocks() {
            let blk = self.dev.block(block)?;
            if blk.status() == BlockStatus::Bad {
                continue;
            }
            let plane = geo.plane_of(block);
            if blk.is_empty() {
                let wear = blk.wear();
                self.planes[plane.0 as usize].free.push(block, wear);
            } else {
                let entry = sealed_entry(blk, self.seal_seq + 1);
                self.seal_seq += 1;
                self.planes[plane.0 as usize].victims.insert(block, entry);
            }
        }
        self.stamp_counter = max_seq;
        self.read_only = false;
        self.stats.replays += 1;
        self.stats.replay_pages_scanned += scanned;
        self.tracer.emit(
            done,
            FaultEvent::Replay {
                layer: "conv",
                scanned,
                recovered: self.map.mapped_pages(),
            },
        );
        Ok((done, scanned))
    }

    /// Cross-checks the incremental hot-path indexes against the flash
    /// state they mirror: entry counters, set/heap memberships, garbage
    /// totals, free-list wear ordering, that every open frontier holds a
    /// page (one is opened only for the program or copy that lands on
    /// it), that indexed victim selection
    /// agrees with a naive full scan over the seal-order candidate list
    /// (including the invalid-page fallback), and the map ↔ valid page ↔
    /// stamp bijection GC relies on for its LBAs. Takes `&mut` because
    /// peeking settles lazily-deleted heap keys. Test-support API.
    #[doc(hidden)]
    pub fn verify_hotpath_invariants(&mut self, now: Nanos) -> std::result::Result<(), String> {
        let block = |b: BlockId| self.dev.block(b).map_err(|e| e.to_string());
        let mut valid = 0u64;
        for b in self.dev.geometry().blocks() {
            for (page, stamp) in block(b)?.valid_entries() {
                let (ppa, lba) = (Ppa::new(b, page), decode_oob(stamp).1);
                if self.map.lookup(lba) != Some(ppa) {
                    return Err(format!(
                        "{ppa:?} is valid for LBA {lba}, which maps elsewhere"
                    ));
                }
                valid += 1;
            }
        }
        for lba in 0..self.capacity_pages() {
            let Some(ppa) = self.map.lookup(lba) else {
                continue;
            };
            match block(ppa.block)?.page(ppa.page) {
                PageState::Valid(stamp) if decode_oob(stamp).1 == lba => {}
                state => return Err(format!("LBA {lba} maps to {ppa:?}, which is {state:?}")),
            }
        }
        let mapped = self.map.mapped_pages();
        if valid != mapped {
            return Err(format!("{valid} valid pages but {mapped} mapped LBAs"));
        }
        let pages_per_block = self.dev.geometry().pages_per_block;
        let dev = &self.dev;
        for (p, st) in self.planes.iter_mut().enumerate() {
            // A frontier leaves the free list only for the program or
            // copy that lands on it, so an open one is never empty.
            for f in [st.host_frontier, st.gc_frontier].into_iter().flatten() {
                if block(f)?.is_empty() {
                    return Err(format!("plane {p}: open frontier {f:?} holds no page"));
                }
            }
            st.victims
                .check(|b| {
                    let blk = dev.block(b).expect("tracked block exists");
                    (
                        blk.valid_pages(),
                        blk.invalid_pages(),
                        blk.wear(),
                        blk.erased_at_ns(),
                    )
                })
                .map_err(|e| format!("plane {p} victim index: {e}"))?;
            st.free
                .check(|b| dev.block(b).map(|blk| blk.wear()).unwrap_or(u32::MAX))
                .map_err(|e| format!("plane {p} free list: {e}"))?;
            let fast = Self::peek_victim(&mut st.victims, now, pages_per_block);
            let oracle = st.victims.oracle_select(now, pages_per_block);
            if fast != oracle {
                return Err(format!(
                    "plane {p}: indexed victim {fast:?} != oracle {oracle:?}"
                ));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum FrontierKind {
    Host,
    Gc,
}

/// One page of a relocation run.
#[derive(Debug, Clone, Copy)]
struct RunPair {
    src: Ppa,
    /// The source page's LBA, from its stamp.
    lba: u64,
    dst_plane: PlaneId,
    /// The page the copy lands on: its frontier's cursor when planned,
    /// since a run writes each frontier at most once.
    dst: Ppa,
}

/// How a [`ConvSsd::relocate_run`] ended.
enum RunEnd {
    /// The victim has no valid page left at or past the scan.
    VictimEmpty,
    /// No plane has a GC frontier or a free block to open one.
    NoDestination,
    /// Copies were attempted: `copied` of them landed, the last by
    /// `done` (the issue instant if none), and `burned` is the program
    /// failure that burned the page after them, if one ended the run.
    Ran {
        copied: u32,
        done: Nanos,
        burned: Option<FlashError>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::{CellKind, FlashConfig, Geometry};

    fn ssd(op: f64) -> ConvSsd {
        ConvSsd::new(ConvConfig::new(
            FlashConfig::tlc(Geometry::small_test()),
            op,
        ))
        .unwrap()
    }

    #[test]
    fn write_then_read_returns_stamp() {
        let mut s = ssd(0.25);
        let w = s.write(3, Nanos::ZERO).unwrap();
        let (stamp, done) = s.read(3, w.done).unwrap();
        assert_eq!(stamp, w.stamp);
        assert!(done > w.done);
    }

    #[test]
    fn overwrite_returns_latest_stamp() {
        let mut s = ssd(0.25);
        let w1 = s.write(3, Nanos::ZERO).unwrap();
        let w2 = s.write(3, w1.done).unwrap();
        assert_ne!(w1.stamp, w2.stamp);
        let (stamp, _) = s.read(3, w2.done).unwrap();
        assert_eq!(stamp, w2.stamp);
    }

    #[test]
    fn read_of_unwritten_lba_fails() {
        let mut s = ssd(0.25);
        assert_eq!(s.read(0, Nanos::ZERO), Err(ConvError::Unmapped(0)));
    }

    #[test]
    fn lba_bounds_are_enforced() {
        let mut s = ssd(0.25);
        let cap = s.capacity_pages();
        assert!(matches!(
            s.write(cap, Nanos::ZERO),
            Err(ConvError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            s.read(cap, Nanos::ZERO),
            Err(ConvError::LbaOutOfRange { .. })
        ));
    }

    /// A device with 2^32 pages or more would alias LBAs in the 32-bit
    /// OOB field and overflow the 4-byte map entries. It is refused with
    /// an error before anything is allocated (this geometry's tables
    /// would be a quarter of a terabyte), not built wrong.
    #[test]
    fn over_large_device_is_an_error_not_an_aliased_map() {
        let mut geo = Geometry::small_test();
        geo.blocks_per_plane = 1 << 16;
        geo.pages_per_block = 1 << 16;
        assert_eq!(geo.total_pages(), 1 << 34);
        let err = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.07))
            .err()
            .expect("2^34 pages must be refused");
        assert!(err.contains("32-bit page addresses"), "{err}");
        // The §2.2 DRAM math for devices of that size needs no table.
        assert_eq!(crate::mapping::device_dram_bytes_for(1 << 34), 1 << 36);
    }

    #[test]
    fn trim_unmaps() {
        let mut s = ssd(0.25);
        s.write(3, Nanos::ZERO).unwrap();
        s.trim(3).unwrap();
        assert_eq!(s.read(3, Nanos::ZERO), Err(ConvError::Unmapped(3)));
        // Trimming an unmapped LBA is fine.
        s.trim(3).unwrap();
    }

    /// Fill the device completely, then overwrite at random: GC must kick
    /// in and all data must survive relocation.
    #[test]
    fn steady_state_overwrites_preserve_data() {
        let mut s = ssd(0.25);
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        let mut expect: Vec<Stamp> = vec![0; cap as usize];
        for lba in 0..cap {
            let w = s.write(lba, t).unwrap();
            expect[lba as usize] = w.stamp;
            t = w.done;
        }
        // Overwrite 4x capacity in a fixed pseudo-random pattern.
        let mut x = 12345u64;
        for _ in 0..4 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = x % cap;
            let w = s.write(lba, t).unwrap();
            expect[lba as usize] = w.stamp;
            t = w.done;
        }
        assert!(s.ftl_stats().gc_runs > 0, "GC never ran");
        for lba in 0..cap {
            let (stamp, done) = s.read(lba, t).unwrap();
            assert_eq!(stamp, expect[lba as usize], "LBA {lba} corrupted");
            t = done;
        }
        // Conservation: mapped pages equals capacity.
        assert_eq!(s.map.mapped_pages(), cap);
    }

    #[test]
    fn lower_op_means_higher_write_amplification() {
        // A geometry large enough that the implicit reserve is a small
        // fraction of capacity, so the OP sweep dominates the spare space.
        let geo = Geometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            blocks_per_plane: 40,
            pages_per_block: 32,
            page_bytes: 4096,
        };
        let mut results = Vec::new();
        for op in [0.0, 0.28] {
            let mut s = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), op)).unwrap();
            let cap = s.capacity_pages();
            let mut t = Nanos::ZERO;
            for lba in 0..cap {
                t = s.write(lba, t).unwrap().done;
            }
            let mut x = 7u64;
            for _ in 0..6 * cap {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t = s.write(x % cap, t).unwrap().done;
            }
            results.push(s.write_amplification());
        }
        assert!(
            results[0] > results[1] * 1.5,
            "WA at 0% OP ({}) should far exceed WA at 28% OP ({})",
            results[0],
            results[1]
        );
        assert!(results[1] >= 1.0);
    }

    #[test]
    fn maintenance_reclaims_garbage_in_idle_time() {
        let mut s = ssd(0.10);
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = s.write(lba, t).unwrap().done;
        }
        // Trim half the space: the fill blocks are sealed, so this creates
        // garbage squarely in GC's victim set.
        for lba in 0..cap / 2 {
            s.trim(lba).unwrap();
        }
        let reclaimed = s.maintenance(t, t + Nanos::from_secs(10)).unwrap();
        assert!(reclaimed > 0, "idle maintenance reclaimed nothing");
        // Untrimmed data still intact afterwards.
        let (stamp, _) = s.read(cap - 1, t + Nanos::from_secs(10)).unwrap();
        assert!(stamp > 0);
    }

    #[test]
    fn wear_out_drives_device_read_only() {
        let mut cfg = ConvConfig::new(
            FlashConfig {
                geometry: Geometry::small_test(),
                cell: CellKind::Tlc,
                endurance_override: Some(6),
            },
            0.10,
        );
        cfg.gc_policy = GcPolicy::Greedy;
        let mut s = ConvSsd::new(cfg).unwrap();
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        let mut died = false;
        'outer: for round in 0..200 {
            for lba in 0..cap {
                match s.write((lba * 7 + round) % cap, t) {
                    Ok(w) => t = w.done,
                    Err(ConvError::ReadOnly) => {
                        died = true;
                        break 'outer;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
        assert!(died, "device with endurance 6 should wear out");
        assert!(s.is_read_only());
        assert!(s.device().bad_blocks() > 0);
    }

    #[test]
    fn wear_leveling_bounds_spread() {
        let mut cfg = ConvConfig::new(FlashConfig::tlc(Geometry::small_test()), 0.10);
        cfg.wear_level_gap = Some(4);
        let mut s = ConvSsd::new(cfg).unwrap();
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = s.write(lba, t).unwrap().done;
        }
        // Hammer a small hot range: without static WL, cold blocks would
        // never cycle.
        for i in 0..20 * cap {
            t = s.write(i % (cap / 8), t).unwrap().done;
            if i % cap == 0 {
                s.maintenance(t, t + Nanos::from_millis(50)).unwrap();
            }
        }
        assert!(
            s.ftl_stats().wl_migrations > 0,
            "static wear leveling never triggered"
        );
    }

    #[test]
    fn gc_policies_all_survive_steady_state() {
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Fifo] {
            let mut cfg = ConvConfig::new(FlashConfig::tlc(Geometry::small_test()), 0.15);
            cfg.gc_policy = policy;
            let mut s = ConvSsd::new(cfg).unwrap();
            let cap = s.capacity_pages();
            let mut t = Nanos::ZERO;
            for lba in 0..cap {
                t = s.write(lba, t).unwrap().done;
            }
            let mut x = 99u64;
            for _ in 0..4 * cap {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t = s.write(x % cap, t).unwrap().done;
            }
            assert!(s.write_amplification() > 1.0, "{policy:?}");
            // Spot-check integrity.
            let (stamp, _) = s.read(0, t).unwrap();
            assert!(stamp > 0, "{policy:?}");
        }
    }

    #[test]
    fn gc_episodes_trace_as_balanced_spans() {
        let mut s = ssd(0.10);
        s.set_tracer(Tracer::ring(1 << 16));
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = s.write(lba, t).unwrap().done;
        }
        let mut x = 5u64;
        for _ in 0..3 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = s.write(x % cap, t).unwrap().done;
        }
        let events = s.tracer().events();
        let episodes = bh_trace::replay::gc_episodes(&events).unwrap();
        let closed = episodes.iter().filter(|e| e.end.is_some()).count();
        assert!(closed > 0, "no GC episode completed");
        for ep in &episodes {
            if let Some(end) = ep.end {
                assert!(end >= ep.begin);
                // Pages can be invalidated by host overwrites mid-episode,
                // so the migrated count never exceeds the initial valid set.
                assert!(ep.pages_copied <= ep.valid);
            }
        }
    }

    #[test]
    fn writes_survive_program_faults() {
        let mut s = ssd(0.25);
        s.install_faults(bh_faults::FaultConfig::new(0xFA).with_program_fail_ppm(60_000));
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        let mut expect: Vec<Stamp> = vec![0; cap as usize];
        for round in 0..3u64 {
            for lba in 0..cap {
                let w = s.write((lba + round) % cap, t).unwrap();
                expect[((lba + round) % cap) as usize] = w.stamp;
                t = w.done;
            }
        }
        assert!(
            s.ftl_stats().program_redrives > 0,
            "6% program-failure rate never forced a re-drive"
        );
        for lba in 0..cap {
            let (stamp, done) = s.read(lba, t).unwrap();
            assert_eq!(stamp, expect[lba as usize], "LBA {lba} corrupted");
            t = done;
        }
    }

    #[test]
    fn power_cycle_rebuilds_mapping_from_oob() {
        let mut s = ssd(0.25);
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        let mut expect: Vec<Stamp> = vec![0; cap as usize];
        for lba in 0..cap {
            let w = s.write(lba, t).unwrap();
            expect[lba as usize] = w.stamp;
            t = w.done;
        }
        // Overwrite a subset so stale versions exist in sealed blocks.
        let mut x = 11u64;
        for _ in 0..cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = x % cap;
            let w = s.write(lba, t).unwrap();
            expect[lba as usize] = w.stamp;
            t = w.done;
        }
        let (done, scanned) = s.power_cycle(t).unwrap();
        assert!(done > t, "recovery scan must consume device time");
        assert!(scanned >= cap, "scan covers at least the live data");
        assert_eq!(s.ftl_stats().replays, 1);
        for lba in 0..cap {
            let (stamp, d) = s.read(lba, t).unwrap();
            assert_eq!(stamp, expect[lba as usize], "LBA {lba} lost in replay");
            t = d;
        }
        // The device keeps working after recovery.
        let w = s.write(0, t).unwrap();
        assert!(w.stamp > expect[0]);
    }

    /// Unprogrammed pages of sealed blocks, and those blocks, with wear.
    fn stranded(s: &ConvSsd) -> (u32, Vec<(BlockId, u32)>) {
        let open: Vec<BlockId> = s
            .planes
            .iter()
            .flat_map(|p| [p.host_frontier, p.gc_frontier, p.gc_victim])
            .flatten()
            .collect();
        let mut pages = 0;
        let mut blocks = Vec::new();
        for b in s.dev.geometry().blocks() {
            let blk = s.dev.block(b).unwrap();
            let partial = !blk.is_empty() && !blk.is_full();
            if partial && blk.status() == BlockStatus::Good && !open.contains(&b) {
                pages += blk.free_pages();
                blocks.push((b, blk.wear()));
            }
        }
        (pages, blocks)
    }

    /// Fills a device on `geo` at `op`, then runs up to `cycles` rounds of
    /// `writes(capacity)` uniform overwrites, each followed by a power
    /// cycle. Returns, per completed cycle, the unprogrammed pages in
    /// sealed blocks and how many of the blocks the first cycle stranded
    /// are still stranded and unerased; then whether the device went
    /// read-only and the free blocks it was left with.
    fn strand_history(
        geo: Geometry,
        op: f64,
        writes: fn(u64) -> u64,
        cycles: u32,
    ) -> (Vec<(u32, usize)>, bool, usize) {
        let mut s = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), op)).unwrap();
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = s.write(lba, t).unwrap().done;
        }
        let mut x = 3u64;
        let mut history = Vec::new();
        let mut first = Vec::new();
        let mut died = false;
        'cycles: for cycle in 0..cycles {
            for _ in 0..writes(cap) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match s.write((x >> 33) % cap, t) {
                    Ok(w) => t = w.done,
                    Err(ConvError::ReadOnly) => {
                        died = true;
                        break 'cycles;
                    }
                    Err(e) => panic!("cycle {cycle}: {e}"),
                }
            }
            t = s.power_cycle(t).unwrap().0;
            let (pages, blocks) = stranded(&s);
            if cycle == 0 {
                first = blocks.clone();
            }
            let kept = first.iter().filter(|b| blocks.contains(b)).count();
            history.push((pages, kept));
        }
        let free = s.planes.iter().map(|p| p.free.len()).sum();
        (history, died, free)
    }

    /// The power-cycle stranding mechanism (first step of the fix): the
    /// replay seals every open frontier, and a sealed block none of whose
    /// pages has died is never a GC victim, so its unprogrammed tail is
    /// out of reach. With a handful of writes between cycles the tails
    /// pile up until the free pool is empty and the device turns
    /// read-only with a third or more of its pages never programmed. With
    /// a quarter of capacity written between cycles, pages in the
    /// stranded blocks die, GC takes them, and nothing piles up.
    #[test]
    fn power_cycles_strand_sealed_frontiers() {
        // small_test: 4 planes × 8 blocks × 16 pages = 512 pages.
        let (history, died, free) = strand_history(Geometry::small_test(), 0.25, |_| 4, 20);
        assert_eq!(history, [(92, 8), (162, 7), (259, 7), (307, 7)]);
        assert!(died, "read-only in the fifth cycle's writes");
        assert_eq!(free, 0, "with the free pool empty");

        let geo = Geometry {
            blocks_per_plane: 32,
            pages_per_block: 32,
            ..Geometry::small_test()
        };
        let (history, died, _) = strand_history(geo, 0.25, |cap| cap / 4, 20);
        assert!(!died);
        assert_eq!(history.len(), 20);
        assert!(
            history[1..].iter().all(|&(_, kept)| kept == 0),
            "each cycle's stranded blocks are reclaimed by the next: {history:?}"
        );
    }

    /// The FTL never leaves two valid copies of an LBA behind, so the
    /// replay's duplicate resolution is exercised by planting copies on
    /// flash directly, before and after the originals in scan order:
    /// the newest `seq` wins, and of two equal ones the first met.
    #[test]
    fn power_cycle_keeps_the_newest_copy_and_the_first_met_of_a_tie() {
        let mut s = ssd(0.25);
        let mut t = Nanos::ZERO;
        let mut orig = Vec::new();
        for lba in 5..11 {
            t = s.write(lba, t).unwrap().done;
            orig.push(s.map.lookup(lba).unwrap());
        }
        let empty: Vec<BlockId> = s
            .dev
            .geometry()
            .blocks()
            .filter(|&b| s.dev.block(b).unwrap().is_empty())
            .collect();
        let (lo, hi) = (empty[0], *empty.last().unwrap());
        // Per LBA 5..11: where the planted copy goes and its seq minus the
        // original's (0: the same stamp). The originals sit in B0, B8,
        // B16, B24, B0, B8.
        let plants = [(hi, 100), (lo, 100), (lo, -1), (hi, -1), (hi, 0), (lo, 0)];
        let mut expect = Vec::new();
        let mut newest = 0;
        for (i, &(block, delta)) in plants.iter().enumerate() {
            let lba = 5 + i as u64;
            assert_eq!(block == lo, block < orig[i].block, "LBA {lba}: {orig:?}");
            let seq = decode_oob(s.read(lba, t).unwrap().0).0;
            let seq = seq.checked_add_signed(delta).unwrap();
            newest = newest.max(seq);
            let stamp = encode_oob(seq, lba);
            let (page, _) = s.dev.program_next(block, stamp, t, OpOrigin::Host).unwrap();
            let copy_wins = delta > 0 || (delta == 0 && block == lo);
            expect.push(if copy_wins {
                Ppa::new(block, page)
            } else {
                orig[i]
            });
        }
        let (done, _) = s.power_cycle(t).unwrap();
        for (i, &survivor) in expect.iter().enumerate() {
            assert_eq!(s.map.lookup(5 + i as u64), Some(survivor), "LBA {}", 5 + i);
        }
        // Every loser was invalidated and nothing else.
        s.verify_hotpath_invariants(done).unwrap();
        assert_eq!(s.map.mapped_pages(), 6);
        // The stamp sequence continues past the newest planted seq.
        let next = s.write(0, done).unwrap().stamp;
        assert_eq!(decode_oob(next).0, newest + 1);
    }

    #[test]
    fn power_cycle_closes_inflight_gc_span() {
        let mut s = ssd(0.0);
        s.set_tracer(Tracer::ring(1 << 16));
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            t = s.write(lba, t).unwrap().done;
        }
        let mut x = 5u64;
        for _ in 0..2 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = s.write(x % cap, t).unwrap().done;
        }
        s.power_cycle(t).unwrap();
        // Replay checker must not report a dangling begin-without-end.
        let events = s.tracer().events();
        let episodes = bh_trace::replay::gc_episodes(&events).unwrap();
        for ep in &episodes {
            assert!(ep.end.is_some(), "GC episode left open across power loss");
        }
    }

    /// The trap in deferring relocation bookkeeping: at 0 % OP a GC
    /// frontier that fills mid-slice is sealed with a few pages already
    /// dead, which makes it the greediest victim on its plane — so the
    /// same slice goes on to relocate pages it has itself just written.
    /// GC finds their LBAs in the stamps the copies carried (the map
    /// moves only at the end of the slice), and the forward run must
    /// apply both hops of such a page in order.
    #[test]
    fn gc_frontier_sealed_and_revictimised_within_one_slice() {
        use bh_trace::{Event, FlashEvent, FlashOpKind};
        let mut s = ssd(0.0);
        s.set_tracer(Tracer::ring(1 << 12));
        let geo = *s.device().geometry();
        let last_page = geo.pages_per_block - 1;
        let cap = s.capacity_pages();
        let mut expect: Vec<Stamp> = vec![0; cap as usize];
        let mut t = Nanos::ZERO;
        for lba in 0..cap {
            let w = s.write(lba, t).unwrap();
            expect[lba as usize] = w.stamp;
            t = w.done;
        }
        let mut x = 0x7EA9u64;
        let mut trapped = 0;
        for i in 0..6 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lba = (x >> 33) % cap;
            let w = s.write(lba, t).unwrap();
            expect[lba as usize] = w.stamp;
            t = w.done;
            // One slice, bracketed by fresh trace rings so that every
            // event seen below belongs to it.
            s.set_tracer(Tracer::ring(1 << 12));
            let plane = PlaneId(i as u32 % geo.total_planes());
            s.incremental_gc(plane, t, 2 * geo.pages_per_block).unwrap();
            s.verify_hotpath_invariants(t).unwrap();
            let mut sealed = Vec::new();
            let mut victim = None;
            for e in s.tracer().events() {
                match e.event {
                    Event::Flash(FlashEvent::Op {
                        kind: FlashOpKind::Copy,
                        block,
                        page,
                        ..
                    }) => {
                        if victim.is_some_and(|v| sealed.contains(&v)) {
                            // A page left a block this slice filled.
                            trapped += 1;
                            victim = None;
                        }
                        if page == last_page {
                            sealed.push(block);
                        }
                    }
                    Event::Conv(ConvEvent::GcBegin { victim: v, .. }) => victim = Some(v),
                    _ => {}
                }
            }
        }
        assert!(
            trapped > 0,
            "no slice relocated out of a frontier it had just sealed"
        );
        for lba in 0..cap {
            let (stamp, done) = s.read(lba, t).unwrap();
            assert_eq!(stamp, expect[lba as usize], "LBA {lba} corrupted");
            t = done;
        }
        assert_eq!(s.map.mapped_pages(), cap);
    }

    /// Only a run's first pick may open a frontier: a run whose first
    /// copy burns has planned nothing past it, so no other plane's GC
    /// frontier is open afterwards and the rotation resumes just past the
    /// burned page's plane. (A run that opened frontiers ahead would end
    /// up with the same blocks in every schedule, because the re-drive
    /// reaches those planes in the same slice; only the state between two
    /// runs tells.)
    #[test]
    fn a_burned_run_opens_no_frontier_past_the_burn() {
        let mut s = ssd(0.25);
        let mut t = Nanos::ZERO;
        for lba in 0..8 * 16 {
            t = s.write(lba, t).unwrap().done;
        }
        let victim = s
            .dev
            .geometry()
            .blocks()
            .find(|&b| s.dev.block(b).unwrap().is_full())
            .unwrap();
        assert!(s.planes.iter().all(|st| st.gc_frontier.is_none()));
        s.install_faults(bh_faults::FaultConfig::new(1).with_program_fail_ppm(1_000_000));
        let mut scan = 0;
        let RunEnd::Ran { copied, burned, .. } = s.relocate_run(victim, &mut scan, 4, t).unwrap()
        else {
            panic!("the victim has valid pages and every plane free blocks");
        };
        assert_eq!((copied, burned.is_some()), (0, true));
        assert_eq!(scan, 0, "the burned source is found again");
        let open: Vec<bool> = s.planes.iter().map(|st| st.gc_frontier.is_some()).collect();
        assert_eq!(open, [true, false, false, false]);
        assert_eq!(s.gc_next_plane, 1);
        s.verify_hotpath_invariants(t).unwrap();
    }

    #[test]
    fn foreground_gc_delays_the_triggering_write() {
        let mut s = ssd(0.0);
        let cap = s.capacity_pages();
        let mut t = Nanos::ZERO;
        let mut max_latency = Nanos::ZERO;
        for lba in 0..cap {
            let w = s.write(lba, t).unwrap();
            max_latency = max_latency.max(w.done.saturating_sub(t));
            t = w.done;
        }
        let baseline = max_latency;
        let mut x = 3u64;
        let mut max_overwrite_latency = Nanos::ZERO;
        for _ in 0..2 * cap {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = s.write(x % cap, t).unwrap();
            max_overwrite_latency = max_overwrite_latency.max(w.done.saturating_sub(t));
            t = w.done;
        }
        assert!(
            max_overwrite_latency > baseline,
            "GC-laden writes ({max_overwrite_latency}) should exceed fill writes ({baseline})"
        );
    }
}
