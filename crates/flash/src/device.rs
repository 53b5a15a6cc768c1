//! The flash device: geometry + blocks + timing, behind a read/program/
//! erase/copy interface.
//!
//! [`FlashDevice`] is the single substrate both SSD models share. It owns
//! all block state, enforces the physical constraints (§2.1), attributes
//! operations to an [`OpOrigin`] for write-amplification accounting
//! (§2.2), and computes completion instants through the
//! [`crate::ResourceModel`] so plane/channel contention emerges naturally.

use crate::block::{Block, BlockStatus, BlockStore};
use crate::cell::{CellKind, TimingSpec};
use crate::error::FlashError;
use crate::geometry::{BlockId, Geometry, PlaneId, Ppa};
use crate::sched::ResourceModel;
use crate::stats::FlashStats;
use crate::Result;
use bh_faults::{FaultConfig, FaultCounters, FaultPlan};
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};
use bh_trace::{FaultEvent, FlashEvent, FlashOpKind, Tracer};

/// Opaque per-page payload identifier.
///
/// Stamps stand in for page contents: a writer records a stamp, a reader
/// gets the same stamp back, and integrity tests verify the round trip.
pub type Stamp = u64;

/// Packs `(seq << 32) | lba` into a stamp — the out-of-band metadata real
/// devices store beside each page. Recovery scans decode it to rebuild
/// logical mappings (`lba`) and order duplicate versions (`seq`) after
/// power loss.
#[inline]
pub fn encode_oob(seq: u64, lba: u64) -> Stamp {
    debug_assert!(lba < (1 << 32), "lba {lba} exceeds OOB field");
    (seq << 32) | lba
}

/// Inverse of [`encode_oob`]: returns `(seq, lba)`.
pub fn decode_oob(stamp: Stamp) -> (u64, u64) {
    (stamp >> 32, stamp & 0xFFFF_FFFF)
}

/// Who initiated an operation, for write-amplification attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOrigin {
    /// The host (or the application running on it).
    Host,
    /// Device- or FTL-internal machinery: garbage collection, wear
    /// leveling, data relocation.
    Internal,
}

/// Construction parameters for a [`FlashDevice`].
#[derive(Debug, Clone, Copy)]
pub struct FlashConfig {
    /// Physical layout.
    pub geometry: Geometry,
    /// Cell technology, which fixes timing and endurance.
    pub cell: CellKind,
    /// Overrides the cell's rated endurance (program/erase cycles per
    /// block); useful for wear-out experiments that should not need
    /// thousands of cycles.
    pub endurance_override: Option<u32>,
}

impl FlashConfig {
    /// A TLC device with the given geometry and rated endurance.
    pub fn tlc(geometry: Geometry) -> Self {
        FlashConfig {
            geometry,
            cell: CellKind::Tlc,
            endurance_override: None,
        }
    }
}

/// Outcome of an erase operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraseOutcome {
    /// Completion instant.
    pub done: Nanos,
    /// True when this erase exhausted the block's endurance and retired
    /// it; the erase itself still completed.
    pub retired: bool,
}

/// Outcome of a [`FlashDevice::copy_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyRun {
    /// Pages copied before the run ended.
    pub copied: u32,
    /// The latest completion instant among the copied pages; the issue
    /// instant when there are none.
    pub done: Nanos,
    /// The error that stopped the run before its last pair, if one did.
    pub stopped: Option<FlashError>,
}

/// A simulated NAND flash device.
///
/// # Examples
///
/// ```
/// use bh_flash::{FlashConfig, FlashDevice, Geometry, BlockId, OpOrigin};
/// use bh_metrics::Nanos;
///
/// let mut dev = FlashDevice::new(FlashConfig::tlc(Geometry::small_test())).unwrap();
/// let (page, _done) = dev
///     .program_next(BlockId(0), 0xCAFE, Nanos::ZERO, OpOrigin::Host)
///     .unwrap();
/// let (stamp, _done) = dev
///     .read(bh_flash::Ppa::new(BlockId(0), page), Nanos::ZERO, OpOrigin::Host)
///     .unwrap();
/// assert_eq!(stamp, Some(0xCAFE));
/// ```
pub struct FlashDevice {
    geo: Geometry,
    timing: TimingSpec,
    endurance: u32,
    blocks: BlockStore,
    sched: ResourceModel,
    /// The plane holding each block and the bus time of one page,
    /// tabulated at construction: every read, program, erase and copy
    /// needs them, and `Geometry::plane_of` / `TimingSpec::transfer`
    /// divide to find them.
    plane_of: Vec<PlaneId>,
    page_transfer: Nanos,
    stats: FlashStats,
    tracer: Tracer,
    /// Transient-fault decision stream; `None` (the default) is the
    /// exact pre-fault code path.
    faults: Option<FaultPlan>,
    /// Erase failures the plan drew for erases that wore their block out
    /// anyway: counted by the plan, but no fault event.
    worn_erase_faults: u64,
}

impl FlashDevice {
    /// Builds an erased device from `config`.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if the geometry is degenerate
    /// (any zero dimension) or too large for 32-bit page addresses; both
    /// are found before anything is allocated.
    pub fn new(config: FlashConfig) -> std::result::Result<Self, String> {
        config.geometry.validate()?;
        let geo = config.geometry;
        let blocks = BlockStore::new(geo.total_blocks(), geo.pages_per_block);
        let timing = config.cell.timing();
        Ok(FlashDevice {
            geo,
            timing,
            endurance: config
                .endurance_override
                .unwrap_or_else(|| config.cell.endurance_cycles()),
            blocks,
            sched: ResourceModel::new(&geo),
            plane_of: geo.blocks().map(|b| geo.plane_of(b)).collect(),
            page_transfer: timing.transfer(geo.page_bytes as u64),
            stats: FlashStats::default(),
            tracer: Tracer::disabled(),
            faults: None,
            worn_erase_faults: 0,
        })
    }

    /// Installs a transient-fault plan. Every subsequent program, erase,
    /// and read consults the plan's deterministic decision stream. A
    /// quiet plan (all rates zero) is behaviourally identical to no plan.
    pub fn install_faults(&mut self, cfg: FaultConfig) {
        self.faults = Some(FaultPlan::new(cfg));
    }

    /// What the installed fault plan has injected so far (`None` when no
    /// plan is installed).
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(|p| p.counters())
    }

    fn trace_fault(&mut self, at: Nanos, ev: FaultEvent) {
        if self.tracer.enabled() {
            self.tracer.emit(at, ev);
        }
    }

    /// Consumes the next program-fault decision. Called only after the
    /// operation has passed validation, so a plan advances identically
    /// whether or not callers probe with invalid addresses.
    #[inline]
    fn program_fault_fires(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|p| p.next_program_fails())
    }

    fn erase_fault_fires(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|p| p.next_erase_fails())
    }

    fn read_retries(&mut self) -> u32 {
        self.faults.as_mut().map_or(0, |p| p.next_read_retries())
    }

    /// The burned-program path: the pulse ran, consumed the page and
    /// plane time, but the data did not take. Always attributed as
    /// internal work — a failed program delivers no host data, so it
    /// inflates write amplification no matter who issued it.
    fn burn_program(&mut self, block: BlockId, now: Nanos, origin: OpOrigin) -> FlashError {
        let page = match self.blocks.burn_next(block) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let plane = self.plane_of[block.0 as usize];
        let done = self.schedule_program(plane, now);
        self.stats.internal_programs += 1;
        if self.tracer.enabled() {
            self.trace_op(
                FlashOpKind::Program,
                OpOrigin::Internal,
                plane,
                block,
                page,
                now,
                done,
            );
        }
        let issuer = match origin {
            OpOrigin::Host => bh_trace::Origin::Host,
            OpOrigin::Internal => bh_trace::Origin::Internal,
        };
        self.trace_fault(
            done,
            FaultEvent::ProgramFail {
                block: block.0,
                page,
                origin: issuer,
            },
        );
        FlashError::ProgramFailed(Ppa::new(block, page))
    }

    /// Installs a tracer; flash operations emit [`FlashEvent`]s into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Writes the flash and fault slots of `snap`: the counters from
    /// [`FlashStats`], the ECC retries and fault events from what the
    /// fault plan injected.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.stats.obs_into(snap);
        crate::stats::fault_obs_into(self.fault_counters(), snap);
        let events = snap.counter(Ctr::FaultEvents);
        snap.set(Ctr::FaultEvents, events - self.worn_erase_faults);
    }

    /// The tracer in use (disabled by default). Cloning it yields a handle
    /// onto the same event stream, which is how upper layers share one
    /// trace across the stack.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Emits the [`FlashEvent`] of one operation. Callers test
    /// [`Tracer::enabled`] first, so an untraced run does not pay for
    /// marshalling seven arguments into a call that returns at once.
    #[allow(clippy::too_many_arguments)] // Private helper mirroring the event's fields.
    fn trace_op(
        &mut self,
        kind: FlashOpKind,
        origin: OpOrigin,
        plane: PlaneId,
        block: BlockId,
        page: u32,
        start: Nanos,
        done: Nanos,
    ) {
        self.tracer.emit(
            start,
            FlashEvent::Op {
                kind,
                origin: match origin {
                    OpOrigin::Host => bh_trace::Origin::Host,
                    OpOrigin::Internal => bh_trace::Origin::Internal,
                },
                channel: self.geo.channel_of(plane),
                die: self.geo.die_of(plane),
                plane: plane.0,
                block: block.0,
                page,
                start,
                done,
            },
        );
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The active timing specification.
    pub fn timing(&self) -> &TimingSpec {
        &self.timing
    }

    /// The per-block endurance rating in effect.
    pub fn endurance(&self) -> u32 {
        self.endurance
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Read-only access to a block's state.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BlockOutOfRange`] for unknown identifiers.
    #[inline]
    pub fn block(&self, id: BlockId) -> Result<Block<'_>> {
        self.blocks.get(id).ok_or(FlashError::BlockOutOfRange(id))
    }

    #[inline]
    fn check_ppa(&self, ppa: Ppa) -> Result<()> {
        if self.geo.contains(ppa) {
            Ok(())
        } else {
            Err(FlashError::OutOfRange(ppa))
        }
    }

    /// Occupies `plane` and its channel for one page read issued at
    /// `now` and charges the busy time.
    #[inline]
    fn schedule_read(&mut self, plane: PlaneId, now: Nanos) -> Nanos {
        self.stats.busy += self.timing.read + self.page_transfer;
        self.sched
            .read_page(plane, self.timing.read, self.page_transfer, now)
    }

    /// Occupies `plane` and its channel for one page program issued at
    /// `now` and charges the busy time.
    #[inline]
    fn schedule_program(&mut self, plane: PlaneId, now: Nanos) -> Nanos {
        self.stats.busy += self.timing.program + self.page_transfer;
        self.sched
            .program_page(plane, self.timing.program, self.page_transfer, now)
    }

    /// Reads the page at `ppa`, issued at `now`.
    ///
    /// Returns the page's stamp (`None` if the page is programmed but
    /// invalid) and the completion instant: the timed [`FlashDevice::sense`]
    /// plus one stamp load.
    ///
    /// # Errors
    ///
    /// Propagates block-level errors; see [`Block::read`].
    pub fn read(
        &mut self,
        ppa: Ppa,
        now: Nanos,
        origin: OpOrigin,
    ) -> Result<(Option<Stamp>, Nanos)> {
        let (valid, done) = self.sense(ppa, now, origin)?;
        Ok((valid.then(|| self.stamp(ppa)), done))
    }

    /// The stamp last programmed at `ppa`, untimed. Meaningful only while
    /// the page is valid: [`FlashDevice::sense`] says so.
    ///
    /// # Panics
    ///
    /// Panics if `ppa` lies outside the geometry.
    #[inline]
    pub fn stamp(&self, ppa: Ppa) -> Stamp {
        self.blocks.stamp(ppa.block, ppa.page)
    }

    /// Senses the page at `ppa`, issued at `now`: everything
    /// [`FlashDevice::read`] does — the checks, the fault-plan draw, the
    /// schedule, the stats, counters and trace events — except loading
    /// the stamp. Returns whether the page is valid and the completion
    /// instant, for callers that only need the instant.
    ///
    /// # Errors
    ///
    /// Propagates block-level errors; see [`Block::read`].
    pub fn sense(&mut self, ppa: Ppa, now: Nanos, origin: OpOrigin) -> Result<(bool, Nanos)> {
        self.check_ppa(ppa)?;
        let valid = self.block(ppa.block)?.sense(ppa.page)?;
        // Consumed only after the media read succeeded, so probing bad
        // addresses never perturbs the decision stream.
        let retries = self.read_retries();
        let plane = self.plane_of[ppa.block.0 as usize];
        let mut done = self.schedule_read(plane, now);
        match origin {
            OpOrigin::Host => self.stats.host_reads += 1,
            OpOrigin::Internal => self.stats.internal_reads += 1,
        }
        for _ in 0..retries {
            // Each ECC retry re-senses the page: it queues behind the
            // previous attempt on the same plane, so tail latency
            // inflates through the resource model rather than a fudge
            // factor.
            done = self.schedule_read(plane, now);
            self.stats.internal_reads += 1;
        }
        if self.tracer.enabled() {
            self.trace_op(
                FlashOpKind::Read,
                origin,
                plane,
                ppa.block,
                ppa.page,
                now,
                done,
            );
        }
        if retries > 0 {
            self.trace_fault(
                done,
                FaultEvent::ReadRetry {
                    block: ppa.block.0,
                    page: ppa.page,
                    retries,
                },
            );
        }
        Ok((valid, done))
    }

    /// Programs the next sequential page of `block` with `stamp`, issued
    /// at `now`. Returns the page offset used and the completion instant.
    ///
    /// # Errors
    ///
    /// See [`Block::program_next`].
    pub fn program_next(
        &mut self,
        block: BlockId,
        stamp: Stamp,
        now: Nanos,
        origin: OpOrigin,
    ) -> Result<(u32, Nanos)> {
        {
            let b = self.block(block)?;
            if b.status() == BlockStatus::Bad {
                return Err(FlashError::BadBlock(block));
            }
            if b.is_full() {
                return Err(FlashError::BlockFull(block));
            }
        }
        if self.program_fault_fires() {
            return Err(self.burn_program(block, now, origin));
        }
        let page = self.blocks.program_next(block, stamp)?;
        let plane = self.plane_of[block.0 as usize];
        let done = self.schedule_program(plane, now);
        match origin {
            OpOrigin::Host => self.stats.host_programs += 1,
            OpOrigin::Internal => self.stats.internal_programs += 1,
        }
        if self.tracer.enabled() {
            self.trace_op(FlashOpKind::Program, origin, plane, block, page, now, done);
        }
        Ok((page, done))
    }

    /// Marks the page at `ppa` invalid. Metadata-only: consumes no device
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfRange`] for bad addresses.
    ///
    /// # Panics
    ///
    /// Panics if the page is free; see [`Block::invalidate`].
    #[inline]
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<()> {
        self.check_ppa(ppa)?;
        self.blocks.invalidate(ppa.block, ppa.page);
        Ok(())
    }

    /// Erases `block`, issued at `now`.
    ///
    /// The erase always completes and consumes erase time; if it exhausts
    /// the block's endurance, [`EraseOutcome::retired`] is set and the
    /// block refuses all further operations.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BadBlock`] if the block was already retired.
    pub fn erase(&mut self, block: BlockId, now: Nanos) -> Result<EraseOutcome> {
        if self.block(block)?.status() == BlockStatus::Bad {
            return Err(FlashError::BadBlock(block));
        }
        // Decision consumed only for erases that will actually run.
        let erase_fault = self.erase_fault_fires();
        let endurance = self.endurance;
        let now_ns = now.as_nanos();
        let mut retired = match self.blocks.erase(block, endurance, now_ns) {
            Ok(()) => false,
            Err(FlashError::BlockWornOut(_)) => true,
            Err(e) => return Err(e),
        };
        let plane = self.plane_of[block.0 as usize];
        let done = self.sched.erase(plane, &self.timing, now);
        self.stats.erases += 1;
        self.stats.busy += self.timing.erase;
        if self.tracer.enabled() {
            self.trace_op(
                FlashOpKind::Erase,
                OpOrigin::Internal,
                plane,
                block,
                0,
                now,
                done,
            );
        }
        if erase_fault && retired {
            self.worn_erase_faults += 1;
        } else if erase_fault {
            // The erase pulse failed verification: the block becomes a
            // mid-life grown bad block, indistinguishable to callers from
            // a worn-out retirement.
            let wear = self.block(block)?.wear();
            self.blocks.retire(block);
            retired = true;
            self.trace_fault(
                done,
                FaultEvent::EraseFail {
                    block: block.0,
                    wear,
                },
            );
        }
        Ok(EraseOutcome { done, retired })
    }

    /// Copies a run of pages, each `(source page, destination block)`
    /// pair as one simple copy issued at `now` — the NVMe *simple copy*
    /// command of §2.3: the valid page at the source lands in the
    /// destination block's next sequential page, on the array alone (no
    /// channel or PCIe time). Pairs are taken in order and the run stops
    /// at the first one that fails; pages copied before it stay copied.
    ///
    /// Every page is admitted, decided on by the fault plan and
    /// scheduled on its own, in order — what a loop of one-page runs
    /// would do — so plane occupancy, fault decisions and traced events
    /// do not depend on how a caller cuts its pages into runs. Only the
    /// counters move once per run.
    ///
    /// A pair fails if its source is out of range, on a retired block
    /// ([`FlashError::BadBlock`]), or unwritten or invalid
    /// ([`FlashError::ReadUnwritten`] — copying dead data forward is an
    /// FTL bug), or if its destination cannot be programmed. A
    /// destination page burned by an injected program fault stops the
    /// run with [`FlashError::ProgramFailed`]; the burn itself is charged
    /// as an internal program.
    pub fn copy_run(&mut self, pairs: impl Iterator<Item = (Ppa, BlockId)>, now: Nanos) -> CopyRun {
        let mut run = CopyRun {
            copied: 0,
            done: now,
            stopped: None,
        };
        for (src, dst_block) in pairs {
            match self.copy_one(src, dst_block, now) {
                Ok(done) => {
                    run.copied += 1;
                    run.done = run.done.max(done);
                }
                Err(e) => {
                    run.stopped = Some(e);
                    break;
                }
            }
        }
        let copied = run.copied as u64;
        self.stats.copies += copied;
        self.stats.busy += (self.timing.read + self.timing.program) * copied;
        run
    }

    /// One page of a [`FlashDevice::copy_run`], counters aside.
    #[inline]
    fn copy_one(&mut self, src: Ppa, dst_block: BlockId, now: Nanos) -> Result<Nanos> {
        let stamp = match self.blocks.get(src.block) {
            Some(b) if src.page < b.num_pages() => b.read(src.page)?,
            _ => return Err(FlashError::OutOfRange(src)),
        };
        let Some(stamp) = stamp else {
            return Err(FlashError::ReadUnwritten(src));
        };
        {
            let b = self.block(dst_block)?;
            if b.status() == BlockStatus::Bad {
                return Err(FlashError::BadBlock(dst_block));
            }
            if b.is_full() {
                return Err(FlashError::BlockFull(dst_block));
            }
        }
        if self.program_fault_fires() {
            return Err(self.burn_program(dst_block, now, OpOrigin::Internal));
        }
        let dst_page = self.blocks.program_next(dst_block, stamp)?;
        let src_plane = self.plane_of[src.block.0 as usize];
        let dst_plane = self.plane_of[dst_block.0 as usize];
        let done = self.sched.copy(src_plane, dst_plane, &self.timing, now);
        if self.tracer.enabled() {
            self.trace_op(
                FlashOpKind::Copy,
                OpOrigin::Internal,
                dst_plane,
                dst_block,
                dst_page,
                now,
                done,
            );
        }
        Ok(done)
    }

    /// Returns `(min, max, mean)` wear across all non-retired blocks, for
    /// wear-leveling verification.
    pub fn wear_spread(&self) -> (u32, u32, f64) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut n = 0u64;
        for b in self.blocks.iter() {
            if b.status() == BlockStatus::Bad {
                continue;
            }
            min = min.min(b.wear());
            max = max.max(b.wear());
            sum += b.wear() as u64;
            n += 1;
        }
        if n == 0 {
            (0, 0, 0.0)
        } else {
            (min, max, sum as f64 / n as f64)
        }
    }

    /// Counts blocks that have been retired as bad.
    pub fn bad_blocks(&self) -> u32 {
        self.blocks
            .iter()
            .filter(|b| b.status() == BlockStatus::Bad)
            .count() as u32
    }

    /// Direct access to the scheduler, for utilization reporting.
    pub fn scheduler(&self) -> &ResourceModel {
        &self.sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(FlashConfig::tlc(Geometry::small_test())).unwrap()
    }

    #[test]
    fn rejects_degenerate_geometry() {
        let mut geo = Geometry::small_test();
        geo.channels = 0;
        assert!(FlashDevice::new(FlashConfig::tlc(geo)).is_err());
    }

    #[test]
    fn rejects_geometry_past_32_bit_addresses_without_sizing_from_it() {
        // `total_blocks` of this geometry overflows u32; an unvalidated
        // constructor would panic (debug) or build a device of the
        // wrapped size (release).
        let mut geo = Geometry::small_test();
        geo.channels = 1 << 16;
        geo.dies_per_channel = 1 << 16;
        let err = FlashDevice::new(FlashConfig::tlc(geo)).err().unwrap();
        assert!(err.contains("32-bit page addresses"), "{err}");
    }

    #[test]
    fn tabulated_planes_and_transfer_time_match_the_divisions() {
        for geometry in [
            Geometry::small_test(),
            Geometry::experiment(8),
            Geometry::no_power_of_two(),
        ] {
            for cell in [CellKind::Tlc, CellKind::Qlc] {
                let d = FlashDevice::new(FlashConfig {
                    geometry,
                    cell,
                    endurance_override: None,
                })
                .unwrap();
                assert_eq!(d.plane_of.len(), geometry.total_blocks() as usize);
                for b in geometry.blocks() {
                    assert_eq!(d.plane_of[b.0 as usize], geometry.plane_of(b), "{b:?}");
                }
                assert_eq!(
                    d.page_transfer,
                    cell.timing().transfer(geometry.page_bytes as u64)
                );
            }
        }
    }

    #[test]
    fn a_copy_run_is_its_pages_one_at_a_time() {
        // Two devices, one copying eight pages as a run and one as eight
        // runs of one: same pages, same planes, same counters.
        let mut whole = dev();
        let mut paged = dev();
        let pairs: Vec<(Ppa, BlockId)> = (0..8u32)
            .map(|i| (Ppa::new(BlockId(i % 2), i / 2), BlockId(8 + i % 3)))
            .collect();
        for d in [&mut whole, &mut paged] {
            for i in 0..8u64 {
                d.program_next(BlockId(i as u32 % 2), 100 + i, Nanos::ZERO, OpOrigin::Host)
                    .unwrap();
            }
        }
        let now = Nanos::from_micros(7);
        let run = whole.copy_run(pairs.iter().copied(), now);
        let mut done = now;
        for &pair in &pairs {
            let one = paged.copy_run(std::iter::once(pair), now);
            assert_eq!((one.copied, one.stopped), (1, None));
            done = done.max(one.done);
        }
        assert_eq!(
            run,
            CopyRun {
                copied: 8,
                done,
                stopped: None
            }
        );
        assert_eq!(whole.stats(), paged.stats());
        for p in (0..4).map(PlaneId) {
            let (a, b) = (whole.scheduler(), paged.scheduler());
            assert_eq!(a.plane_free_at(p), b.plane_free_at(p));
            assert_eq!(a.plane_busy_time(p), b.plane_busy_time(p));
        }
        // A run stops at the first pair that fails and keeps what it
        // copied; an empty run completes at its issue instant.
        let bad = Ppa::new(BlockId(0), 9);
        let cut = whole.copy_run([pairs[0], (bad, BlockId(9)), pairs[1]].into_iter(), now);
        assert_eq!(
            (cut.copied, cut.stopped),
            (1, Some(FlashError::ReadUnwritten(bad)))
        );
        assert_eq!(whole.stats().copies, 9);
        let none = whole.copy_run(std::iter::empty(), now);
        assert_eq!((none.copied, none.done, none.stopped), (0, now, None));
    }

    #[test]
    fn program_read_roundtrip() {
        let mut d = dev();
        let (page, _) = d
            .program_next(BlockId(3), 77, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let (stamp, _) = d
            .read(Ppa::new(BlockId(3), page), Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        assert_eq!(stamp, Some(77));
        assert_eq!(d.stats().host_programs, 1);
        assert_eq!(d.stats().host_reads, 1);
    }

    #[test]
    fn out_of_range_is_caught() {
        let mut d = dev();
        let bad = Ppa::new(BlockId(999), 0);
        assert_eq!(
            d.read(bad, Nanos::ZERO, OpOrigin::Host),
            Err(FlashError::OutOfRange(bad))
        );
        assert!(matches!(
            d.program_next(BlockId(999), 0, Nanos::ZERO, OpOrigin::Host),
            Err(FlashError::BlockOutOfRange(_))
        ));
    }

    #[test]
    fn invalidate_then_read_returns_none() {
        let mut d = dev();
        let (page, _) = d
            .program_next(BlockId(0), 5, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let ppa = Ppa::new(BlockId(0), page);
        d.invalidate(ppa).unwrap();
        let (stamp, _) = d.read(ppa, Nanos::ZERO, OpOrigin::Host).unwrap();
        assert_eq!(stamp, None);
    }

    #[test]
    fn erase_recycles_block() {
        let mut d = dev();
        for _ in 0..d.geometry().pages_per_block {
            d.program_next(BlockId(0), 1, Nanos::ZERO, OpOrigin::Host)
                .unwrap();
        }
        assert!(d.block(BlockId(0)).unwrap().is_full());
        let out = d.erase(BlockId(0), Nanos::ZERO).unwrap();
        assert!(!out.retired);
        assert!(d.block(BlockId(0)).unwrap().is_empty());
        assert_eq!(d.stats().erases, 1);
    }

    #[test]
    fn erase_and_retirement_leave_no_page_of_the_previous_life_visible() {
        use crate::block::PageState;
        let mut d = dev();
        let pages = d.geometry().pages_per_block;
        for b in [BlockId(0), BlockId(1), BlockId(2)] {
            for p in 0..pages {
                d.program_next(b, 100 + p as u64, Nanos::ZERO, OpOrigin::Host)
                    .unwrap();
            }
        }
        d.erase(BlockId(1), Nanos::ZERO).unwrap();
        d.program_next(BlockId(1), 7, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let b = d.block(BlockId(1)).unwrap();
        assert_eq!(b.valid_entries().collect::<Vec<_>>(), vec![(0, 7)]);
        assert_eq!(b.first_valid_from(1), None);
        for p in 1..pages {
            assert_eq!(b.page(p), PageState::Free, "page {p}");
        }
        // A grown bad block (failed erase) is emptied the same way.
        d.install_faults(bh_faults::FaultConfig::new(7).with_erase_fail_ppm(1_000_000));
        assert!(d.erase(BlockId(1), Nanos::ZERO).unwrap().retired);
        let b = d.block(BlockId(1)).unwrap();
        assert_eq!((b.cursor(), b.valid_pages()), (0, 0));
        assert_eq!(b.first_valid_from(0), None);
        // The neighbours share the same arrays and did not move.
        for n in [BlockId(0), BlockId(2)] {
            let b = d.block(n).unwrap();
            assert_eq!(b.valid_pages(), pages);
            assert_eq!(b.page(pages - 1), PageState::Valid(100 + pages as u64 - 1));
        }
    }

    #[test]
    #[should_panic(expected = "invalidate of free page")]
    fn invalidate_of_a_free_page_panics() {
        let mut d = dev();
        d.program_next(BlockId(0), 1, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let _ = d.invalidate(Ppa::new(BlockId(0), 1));
    }

    #[test]
    fn wear_out_retires_and_is_reported() {
        let geo = Geometry::small_test();
        let mut d = FlashDevice::new(FlashConfig {
            geometry: geo,
            cell: CellKind::Tlc,
            endurance_override: Some(2),
        })
        .unwrap();
        assert!(!d.erase(BlockId(0), Nanos::ZERO).unwrap().retired);
        assert!(d.erase(BlockId(0), Nanos::ZERO).unwrap().retired);
        assert_eq!(d.bad_blocks(), 1);
        assert_eq!(
            d.erase(BlockId(0), Nanos::ZERO),
            Err(FlashError::BadBlock(BlockId(0)))
        );
    }

    #[test]
    fn copy_moves_stamp_and_counts() {
        let mut d = dev();
        let (page, _) = d
            .program_next(BlockId(0), 42, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let src = Ppa::new(BlockId(0), page);
        let run = d.copy_run(std::iter::once((src, BlockId(8))), Nanos::ZERO);
        assert_eq!((run.copied, run.stopped), (1, None));
        assert_eq!(d.block(BlockId(8)).unwrap().cursor(), 1);
        let (read_back, _) = d
            .read(Ppa::new(BlockId(8), 0), Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        assert_eq!(read_back, Some(42));
        assert_eq!(d.stats().copies, 1);
        // WA counts copies as physical programs.
        assert!(d.stats().write_amplification() > 1.0);
    }

    #[test]
    fn copy_of_invalid_page_is_rejected() {
        let mut d = dev();
        let (page, _) = d
            .program_next(BlockId(0), 9, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let src = Ppa::new(BlockId(0), page);
        d.invalidate(src).unwrap();
        let run = d.copy_run(std::iter::once((src, BlockId(8))), Nanos::ZERO);
        assert_eq!(
            (run.copied, run.stopped),
            (0, Some(FlashError::ReadUnwritten(src)))
        );
    }

    #[test]
    fn internal_ops_attributed_separately() {
        let mut d = dev();
        d.program_next(BlockId(0), 1, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        d.program_next(BlockId(0), 2, Nanos::ZERO, OpOrigin::Internal)
            .unwrap();
        assert_eq!(d.stats().host_programs, 1);
        assert_eq!(d.stats().internal_programs, 1);
        assert!((d.stats().write_amplification() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_sees_every_op_with_coordinates() {
        let mut d = dev();
        d.set_tracer(Tracer::ring(64));
        d.program_next(BlockId(9), 1, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        d.read(Ppa::new(BlockId(9), 0), Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        d.erase(BlockId(0), Nanos::ZERO).unwrap();
        let events = d.tracer().events();
        assert_eq!(events.len(), 3);
        match &events[0].event {
            bh_trace::Event::Flash(FlashEvent::Op {
                kind,
                plane,
                block,
                done,
                start,
                ..
            }) => {
                assert_eq!(*kind, FlashOpKind::Program);
                // Block 9 lives in plane 1 under small_test geometry.
                assert_eq!(*plane, 1);
                assert_eq!(*block, 9);
                assert!(done > start);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn read_of_retired_block_reports_bad_block() {
        // Lock-in: reads of a retired block must surface BadBlock, not
        // ReadUnwritten — retirement destroying the data is information
        // upper layers need.
        let mut d = FlashDevice::new(FlashConfig {
            geometry: Geometry::small_test(),
            cell: CellKind::Tlc,
            endurance_override: Some(1),
        })
        .unwrap();
        let (page, _) = d
            .program_next(BlockId(0), 7, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        assert!(d.erase(BlockId(0), Nanos::ZERO).unwrap().retired);
        assert_eq!(
            d.read(Ppa::new(BlockId(0), page), Nanos::ZERO, OpOrigin::Host),
            Err(FlashError::BadBlock(BlockId(0)))
        );
        let src = Ppa::new(BlockId(0), page);
        let run = d.copy_run(std::iter::once((src, BlockId(8))), Nanos::ZERO);
        assert_eq!(run.stopped, Some(FlashError::BadBlock(BlockId(0))));
    }

    #[test]
    fn quiet_fault_plan_is_invisible() {
        // A quiet plan must leave behavior byte-identical to no plan.
        let mut clean = dev();
        let mut quiet = dev();
        quiet.install_faults(bh_faults::FaultConfig::new(0x51E7));
        for d in [&mut clean, &mut quiet] {
            for i in 0..8u64 {
                d.program_next(BlockId(0), i, Nanos::ZERO, OpOrigin::Host)
                    .unwrap();
            }
            for i in 0..8u32 {
                d.read(Ppa::new(BlockId(0), i), Nanos::ZERO, OpOrigin::Host)
                    .unwrap();
            }
            d.erase(BlockId(0), Nanos::ZERO).unwrap();
        }
        assert_eq!(clean.stats(), quiet.stats());
        assert_eq!(
            quiet.fault_counters(),
            Some(bh_faults::FaultCounters::default())
        );
    }

    #[test]
    fn injected_program_failure_burns_page() {
        let mut d = dev();
        d.install_faults(bh_faults::FaultConfig::new(7).with_program_fail_ppm(1_000_000));
        let err = d
            .program_next(BlockId(0), 5, Nanos::ZERO, OpOrigin::Host)
            .unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(Ppa::new(BlockId(0), 0)));
        // The page is consumed (cursor advanced, contents invalid) and the
        // work is charged as internal: no host data was delivered.
        let b = d.block(BlockId(0)).unwrap();
        assert_eq!(b.cursor(), 1);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(d.stats().host_programs, 0);
        assert_eq!(d.stats().internal_programs, 1);
        assert_eq!(d.fault_counters().unwrap().program_failures, 1);
        // Reading the burned page succeeds but yields no stamp.
        let (stamp, _) = d
            .read(Ppa::new(BlockId(0), 0), Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        assert_eq!(stamp, None);
    }

    #[test]
    fn injected_copy_failure_burns_destination() {
        let mut d = dev();
        let (page, _) = d
            .program_next(BlockId(0), 42, Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        d.install_faults(bh_faults::FaultConfig::new(7).with_program_fail_ppm(1_000_000));
        let src = Ppa::new(BlockId(0), page);
        let run = d.copy_run(std::iter::once((src, BlockId(8))), Nanos::ZERO);
        assert_eq!(
            (run.copied, run.stopped),
            (0, Some(FlashError::ProgramFailed(Ppa::new(BlockId(8), 0))))
        );
        // Source is untouched and still copyable once the fault clears.
        assert_eq!(d.block(BlockId(0)).unwrap().valid_pages(), 1);
        assert_eq!(d.block(BlockId(8)).unwrap().cursor(), 1);
    }

    #[test]
    fn injected_erase_failure_grows_bad_block() {
        let mut d = dev();
        d.install_faults(bh_faults::FaultConfig::new(7).with_erase_fail_ppm(1_000_000));
        let out = d.erase(BlockId(3), Nanos::ZERO).unwrap();
        assert!(out.retired);
        assert_eq!(d.bad_blocks(), 1);
        assert_eq!(d.fault_counters().unwrap().erase_failures, 1);
        assert_eq!(
            d.erase(BlockId(3), Nanos::ZERO),
            Err(FlashError::BadBlock(BlockId(3)))
        );
    }

    #[test]
    fn injected_read_retries_inflate_latency() {
        let mut clean = dev();
        let mut noisy = dev();
        noisy.install_faults(bh_faults::FaultConfig::new(7).with_read_retry_ppm(1_000_000));
        for d in [&mut clean, &mut noisy] {
            d.program_next(BlockId(0), 1, Nanos::ZERO, OpOrigin::Host)
                .unwrap();
        }
        let (_, t_clean) = clean
            .read(Ppa::new(BlockId(0), 0), Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        let (stamp, t_noisy) = noisy
            .read(Ppa::new(BlockId(0), 0), Nanos::ZERO, OpOrigin::Host)
            .unwrap();
        // Data still comes back; the retries only cost time and plane
        // occupancy.
        assert_eq!(stamp, Some(1));
        assert!(t_noisy > t_clean);
        assert!(noisy.stats().internal_reads > clean.stats().internal_reads);
        assert!(noisy.fault_counters().unwrap().disturbed_reads == 1);
    }

    #[test]
    fn fault_events_are_traced() {
        let mut d = dev();
        d.set_tracer(Tracer::ring(64));
        d.install_faults(
            bh_faults::FaultConfig::new(7)
                .with_program_fail_ppm(1_000_000)
                .with_erase_fail_ppm(1_000_000),
        );
        let _ = d.program_next(BlockId(0), 5, Nanos::ZERO, OpOrigin::Host);
        let _ = d.erase(BlockId(1), Nanos::ZERO);
        let events = d.tracer().events();
        assert!(events.iter().any(|e| matches!(
            &e.event,
            bh_trace::Event::Fault(bh_trace::FaultEvent::ProgramFail { block: 0, .. })
        )));
        assert!(events.iter().any(|e| matches!(
            &e.event,
            bh_trace::Event::Fault(bh_trace::FaultEvent::EraseFail { block: 1, .. })
        )));
    }

    /// `FaultEvents` projects one event per traced fault: an erase
    /// failure the plan draws for an erase that wears its block out
    /// anyway is counted by the plan but emits no event.
    #[test]
    fn fault_events_project_the_traced_faults() {
        let mut d = FlashDevice::new(FlashConfig {
            endurance_override: Some(2),
            ..FlashConfig::tlc(Geometry::small_test())
        })
        .unwrap();
        d.set_tracer(Tracer::ring(256));
        d.install_faults(
            bh_faults::FaultConfig::new(7)
                .with_program_fail_ppm(300_000)
                .with_erase_fail_ppm(500_000)
                .with_read_retry_ppm(500_000),
        );
        for b in 0..8 {
            for _ in 0..4 {
                if let Ok((page, _)) = d.program_next(BlockId(b), 1, Nanos::ZERO, OpOrigin::Host) {
                    let _ = d.read(Ppa::new(BlockId(b), page), Nanos::ZERO, OpOrigin::Host);
                }
            }
            // Two erases reach the endurance of 2: the second wears the
            // block out whether or not its erase fault fires.
            let _ = d.erase(BlockId(b), Nanos::ZERO);
            let _ = d.erase(BlockId(b), Nanos::ZERO);
        }
        let faults = d.fault_counters().unwrap();
        let traced = d
            .tracer()
            .events()
            .iter()
            .filter(|e| matches!(e.event, bh_trace::Event::Fault(_)))
            .count() as u64;
        let mut snap = ObsSnapshot::default();
        d.obs_into(&mut snap);
        assert!(
            d.worn_erase_faults > 0,
            "no erase fault met a worn-out block"
        );
        assert_eq!(snap.counter(Ctr::FaultEvents), traced);
        assert_eq!(snap.counter(Ctr::FlashEccRetries), faults.retry_reads);
        assert_eq!(snap.counter(Ctr::FlashErases), d.stats().erases);
    }

    #[test]
    fn wear_spread_tracks_erases() {
        let mut d = dev();
        d.erase(BlockId(0), Nanos::ZERO).unwrap();
        d.erase(BlockId(0), Nanos::ZERO).unwrap();
        d.erase(BlockId(1), Nanos::ZERO).unwrap();
        let (min, max, mean) = d.wear_spread();
        assert_eq!(min, 0);
        assert_eq!(max, 2);
        assert!(mean > 0.0 && mean < 1.0);
    }
}
