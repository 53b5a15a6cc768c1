//! The zone state machine, once.
//!
//! [`ZoneTable`] is the *state half* of every zoned command: the seven
//! zone states, the MAR/MOR accounting with implicit-open eviction, the
//! write pointer, Full at capacity, burn → ReadOnly degradation, and the
//! `ZnsEvent`s and zone gauges that report all of it. A device model
//! holds one table and adds only its *media half* — `ZnsDevice` the flash
//! programs, erases and wear-out retirement; bh-zbd's `ZbdDevice` the
//! durable log, the payload vectors and fixed latencies. Table methods
//! return what happened (the admitted write pointer, whether `finish`
//! moved the zone) so the media half knows what to program or log.
//!
//! Only the table may move a [`Zone`]: every transition adjusts the
//! namespace-wide active/open/empty tallies in the same call, so they
//! cannot drift from the per-zone states.

use crate::device::ZnsStats;
use crate::error::ZnsError;
use crate::zone::{Zone, ZoneId, ZoneState};
use crate::Result;
use bh_flash::BlockId;
use bh_metrics::Nanos;
use bh_obs::{Ctr, Gauge, ObsSnapshot};
use bh_trace::{Tracer, ZnsEvent, ZoneStateTag};

/// Maps the zone state onto the dependency-free trace tag.
pub(crate) fn state_tag(state: ZoneState) -> ZoneStateTag {
    match state {
        ZoneState::Empty => ZoneStateTag::Empty,
        ZoneState::ImplicitlyOpened => ZoneStateTag::ImplicitlyOpened,
        ZoneState::ExplicitlyOpened => ZoneStateTag::ExplicitlyOpened,
        ZoneState::Closed => ZoneStateTag::Closed,
        ZoneState::Full => ZoneStateTag::Full,
        ZoneState::ReadOnly => ZoneStateTag::ReadOnly,
        ZoneState::Offline => ZoneStateTag::Offline,
    }
}

/// The zone slots of an obs snapshot, kept beside the tallies they
/// describe: transitions by target state (in [`INTO`] order) and the
/// highest active, open and empty counts.
#[derive(Debug, Clone, Copy)]
struct ZoneTally {
    into: [u64; 5],
    peak: [u32; 3],
}

/// The transition counters, by target: opened, Closed, Full, Empty,
/// ReadOnly or Offline.
const INTO: [Ctr; 5] = [
    Ctr::ZnsToOpen,
    Ctr::ZnsToClosed,
    Ctr::ZnsToFull,
    Ctr::ZnsToEmpty,
    Ctr::ZnsDegraded,
];

/// Every zone of a namespace, the limits they share, and the observers
/// their transitions report to.
pub struct ZoneTable {
    zones: Vec<Zone>,
    active: u32,
    open: u32,
    /// Zones currently Empty, so host allocators can poll free headroom
    /// in O(1) per write.
    empty: u32,
    max_active: u32,
    max_open: u32,
    burns_to_readonly: u32,
    /// The table counts what it does itself (`resets`,
    /// `implicit_closes`); the device counts its commands into the rest.
    stats: ZnsStats,
    tally: ZoneTally,
    tracer: Tracer,
    /// Latest instant the device reported; stamps the transitions of
    /// untimed commands (open/close/finish take no `now`).
    clock: Nanos,
}

/// What [`ZoneTable::begin_rebuild`] set aside for
/// [`ZoneTable::end_rebuild`].
pub struct Rebuild {
    before: Vec<ZoneState>,
    implicit_closes: u64,
    tally: ZoneTally,
    tracer: Tracer,
}

impl ZoneTable {
    /// A table over `zones`, all Empty, with the MAR/MOR limits and the
    /// per-lifetime burn budget that degrades a zone to ReadOnly.
    pub fn new(zones: Vec<Zone>, max_active: u32, max_open: u32, burns_to_readonly: u32) -> Self {
        debug_assert!(zones.iter().all(|z| z.state() == ZoneState::Empty));
        let empty = zones.len() as u32;
        ZoneTable {
            empty,
            zones,
            active: 0,
            open: 0,
            max_active,
            max_open,
            burns_to_readonly,
            stats: ZnsStats::default(),
            tally: ZoneTally {
                into: [0; 5],
                peak: [0, 0, empty],
            },
            tracer: Tracer::disabled(),
            clock: Nanos::ZERO,
        }
    }

    /// Installs the tracer zone transitions, write-pointer advances and
    /// MAR/MOR stalls are emitted to.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer in use (disabled by default).
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Writes the zone slots of `snap`: transitions by target state,
    /// and the active/open/empty tallies with their peaks.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        for (ctr, n) in INTO.into_iter().zip(self.tally.into) {
            snap.set(ctr, n);
        }
        let gauges = [
            Gauge::ZnsActiveZones,
            Gauge::ZnsOpenZones,
            Gauge::ZnsEmptyZones,
        ];
        let values = [self.active, self.open, self.empty];
        for ((gauge, value), peak) in gauges.into_iter().zip(values).zip(self.tally.peak) {
            snap.set_gauge(gauge, value.into(), peak.into());
        }
    }

    /// Advances the clock to `now` if it is later.
    #[inline]
    pub fn tick(&mut self, now: Nanos) {
        self.clock = self.clock.max(now);
    }

    /// The latest instant seen.
    #[inline]
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// All zone descriptors, in id order.
    #[inline]
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// A zone descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::ZoneOutOfRange`] for unknown identifiers.
    #[inline]
    pub fn zone(&self, id: ZoneId) -> Result<&Zone> {
        self.zones
            .get(id.0 as usize)
            .ok_or(ZnsError::ZoneOutOfRange(id))
    }

    /// Zones currently counting against the active limit.
    #[inline]
    pub fn active_zones(&self) -> u32 {
        self.active
    }

    /// Zones currently counting against the open limit.
    #[inline]
    pub fn open_zones(&self) -> u32 {
        self.open
    }

    /// Zones currently Empty.
    #[inline]
    pub fn empty_zones(&self) -> u32 {
        self.empty
    }

    /// Zoned-interface operation counters.
    #[inline]
    pub fn stats(&self) -> &ZnsStats {
        &self.stats
    }

    /// The counters, for the device to count its commands into.
    #[inline]
    pub fn stats_mut(&mut self) -> &mut ZnsStats {
        &mut self.stats
    }

    /// Raises the occupancy peaks to the current tallies.
    fn raise_peaks(&mut self) {
        let now = [self.active, self.open, self.empty];
        for (peak, now) in self.tally.peak.iter_mut().zip(now) {
            *peak = (*peak).max(now);
        }
    }

    /// Reports a zone state transition. Every caller adjusts the tallies
    /// first, so the peaks raised here are already consistent.
    fn trace_transition(
        &mut self,
        id: ZoneId,
        from: ZoneState,
        to: ZoneState,
        cause: &'static str,
    ) {
        if from == to {
            return;
        }
        self.tally.into[match to {
            ZoneState::ImplicitlyOpened | ZoneState::ExplicitlyOpened => 0,
            ZoneState::Closed => 1,
            ZoneState::Full => 2,
            ZoneState::Empty => 3,
            ZoneState::ReadOnly | ZoneState::Offline => 4,
        }] += 1;
        self.raise_peaks();
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.emit(
            self.clock,
            ZnsEvent::Transition {
                zone: id.0,
                from: state_tag(from),
                to: state_tag(to),
                cause,
            },
        );
    }

    /// Reports a MAR/MOR refusal.
    fn trace_stall(&mut self, id: ZoneId, kind: &'static str, limit: u32) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.emit(
            self.clock,
            ZnsEvent::LimitStall {
                zone: id.0,
                active: self.active,
                open: self.open,
                kind,
                limit,
            },
        );
    }

    /// Sets the state of a zone the caller has already looked up,
    /// keeping the empty-zone count in sync.
    fn set_state_counted(&mut self, id: ZoneId, target: ZoneState) {
        let zone = &mut self.zones[id.0 as usize];
        let was_empty = zone.state() == ZoneState::Empty;
        zone.set_state(target);
        match (was_empty, target == ZoneState::Empty) {
            (true, false) => self.empty -= 1,
            (false, true) => self.empty += 1,
            _ => {}
        }
    }

    /// Gives back the open and active resources a zone in `state` holds.
    fn release(&mut self, state: ZoneState) {
        if state.is_open() {
            self.open -= 1;
        }
        if state.is_active() {
            self.active -= 1;
        }
    }

    /// Moves a zone out of `state` into `target`, a state that holds no
    /// open or active resources.
    fn settle(&mut self, id: ZoneId, state: ZoneState, target: ZoneState, cause: &'static str) {
        self.release(state);
        self.set_state_counted(id, target);
        self.trace_transition(id, state, target, cause);
    }

    /// Transitions `id` into an opened state, enforcing MAR/MOR. With
    /// `explicit` false this is the implicit open a write performs.
    fn open_internal(&mut self, id: ZoneId, explicit: bool) -> Result<()> {
        let state = self.zone(id)?.state();
        let target = if explicit {
            ZoneState::ExplicitlyOpened
        } else {
            ZoneState::ImplicitlyOpened
        };
        match state {
            ZoneState::Empty | ZoneState::Closed => {}
            ZoneState::ImplicitlyOpened if explicit => {
                // Promote implicit -> explicit; open count unchanged.
                self.set_state_counted(id, target);
                self.trace_transition(id, state, target, "promote");
                return Ok(());
            }
            ZoneState::ImplicitlyOpened | ZoneState::ExplicitlyOpened => return Ok(()),
            ZoneState::Full => return Err(ZnsError::ZoneFull(id)),
            ZoneState::ReadOnly => return Err(ZnsError::ZoneReadOnly(id)),
            ZoneState::Offline => return Err(ZnsError::ZoneOffline(id)),
        }
        let becomes_active = !state.is_active();
        if becomes_active && self.active >= self.max_active {
            self.trace_stall(id, "active", self.max_active);
            return Err(ZnsError::TooManyActiveZones {
                limit: self.max_active,
            });
        }
        if self.open >= self.max_open {
            // The controller may close an implicitly opened zone to make
            // room (the spec's implicit-open replacement behaviour).
            let victim = self
                .zones
                .iter()
                .find(|z| z.state() == ZoneState::ImplicitlyOpened && z.id() != id)
                .map(Zone::id);
            match victim {
                Some(v) => {
                    self.close_to_state(v, "implicit-close");
                    self.stats.implicit_closes += 1;
                }
                None => {
                    self.trace_stall(id, "open", self.max_open);
                    return Err(ZnsError::TooManyOpenZones {
                        limit: self.max_open,
                    });
                }
            }
        }
        if becomes_active {
            self.active += 1;
        }
        self.open += 1;
        self.set_state_counted(id, target);
        self.trace_transition(id, state, target, if explicit { "open" } else { "write" });
        Ok(())
    }

    /// Moves an opened zone to Closed (wp > 0) or back to Empty (wp == 0),
    /// adjusting the open/active accounting.
    fn close_to_state(&mut self, id: ZoneId, cause: &'static str) {
        let zone = &self.zones[id.0 as usize];
        let state = zone.state();
        debug_assert!(state.is_open());
        self.open -= 1;
        let target = if zone.write_pointer() == 0 {
            self.active -= 1;
            ZoneState::Empty
        } else {
            ZoneState::Closed
        };
        self.set_state_counted(id, target);
        self.trace_transition(id, state, target, cause);
    }

    /// Explicitly opens a zone (Zone Management Send: Open).
    ///
    /// # Errors
    ///
    /// Fails when the zone cannot open in its current state or when the
    /// active/open limits are exhausted and no implicitly opened zone can
    /// be closed to make room.
    pub fn open(&mut self, id: ZoneId) -> Result<()> {
        self.open_internal(id, true)
    }

    /// Closes an opened zone (Zone Management Send: Close).
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::WrongState`] unless the zone is opened.
    pub fn close(&mut self, id: ZoneId) -> Result<()> {
        let state = self.zone(id)?.state();
        if !state.is_open() {
            return Err(ZnsError::WrongState {
                zone: id,
                state,
                op: "close",
            });
        }
        self.close_to_state(id, "close");
        Ok(())
    }

    /// Finishes a zone (Zone Management Send: Finish): moves it to Full,
    /// releasing its active/open resources. Returns whether the state
    /// changed — finishing a Full zone is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::WrongState`] for read-only/offline zones.
    pub fn finish(&mut self, id: ZoneId) -> Result<bool> {
        let state = self.zone(id)?.state();
        match state {
            ZoneState::Full => Ok(false),
            ZoneState::ReadOnly | ZoneState::Offline => Err(ZnsError::WrongState {
                zone: id,
                state,
                op: "finish",
            }),
            _ => {
                self.settle(id, state, ZoneState::Full, "finish");
                Ok(true)
            }
        }
    }

    /// Whether `id` may be reset; the media half erases between this
    /// check and [`ZoneTable::rewind`].
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::ZoneReadOnly`] / [`ZnsError::ZoneOffline`] for
    /// unresettable zones.
    pub fn resettable(&self, id: ZoneId) -> Result<()> {
        match self.zone(id)?.state() {
            ZoneState::ReadOnly => Err(ZnsError::ZoneReadOnly(id)),
            ZoneState::Offline => Err(ZnsError::ZoneOffline(id)),
            _ => Ok(()),
        }
    }

    /// Completes a reset of a [`resettable`](ZoneTable::resettable)
    /// zone: rewinds the write pointer and returns the zone to Empty.
    /// `retired` are the backing blocks the erase wore out (none on
    /// media without blocks): they leave the stripe, shrinking the zone
    /// (§2.1), and a zone with no usable block left goes Offline.
    pub fn rewind(&mut self, id: ZoneId, retired: &[BlockId], pages_per_block: u64) {
        let zone = &mut self.zones[id.0 as usize];
        let state = zone.state();
        debug_assert!(!matches!(state, ZoneState::ReadOnly | ZoneState::Offline));
        zone.note_reset();
        for &b in retired {
            zone.retire_block(b, pages_per_block);
        }
        let offlined = !retired.is_empty() && zone.blocks().is_empty();
        self.release(state);
        // note_reset left the zone Empty.
        if state != ZoneState::Empty {
            self.empty += 1;
        }
        if offlined {
            self.set_state_counted(id, ZoneState::Offline);
        }
        self.trace_transition(id, state, ZoneState::Empty, "reset");
        if offlined {
            self.trace_transition(id, ZoneState::Empty, ZoneState::Offline, "wear-out");
        }
        self.stats.resets += 1;
    }

    /// Admits a read of `offset` in `id`.
    ///
    /// # Errors
    ///
    /// Fails for an Offline zone or an offset at or beyond the write
    /// pointer.
    #[inline]
    pub fn readable(&self, id: ZoneId, offset: u64) -> Result<&Zone> {
        let zone = self.zone(id)?;
        if zone.state() == ZoneState::Offline {
            return Err(ZnsError::ZoneOffline(id));
        }
        let wp = zone.write_pointer();
        if offset >= wp {
            return Err(ZnsError::ReadBeyondWritePointer {
                zone: id,
                wp,
                got: offset,
            });
        }
        Ok(zone)
    }

    /// Admits a read of every `(zone, offset)` in `sources`, failing as
    /// [`ZoneTable::readable`] would on the first it refuses. A zone is
    /// looked up once per run of consecutive sources below its pointer.
    pub fn readable_all(&self, sources: &[(ZoneId, u64)]) -> Result<()> {
        let mut run = None;
        for &(id, offset) in sources {
            if !matches!(run, Some((zone, wp)) if zone == id && offset < wp) {
                run = Some((id, self.readable(id, offset)?.write_pointer()));
            }
        }
        Ok(())
    }

    /// Ensures `id` is writable at `offset` (`None` for an append, which
    /// lands wherever the pointer is), implicitly opening it if needed.
    /// Returns the write pointer.
    #[inline]
    pub fn prepare_write(&mut self, id: ZoneId, offset: Option<u64>) -> Result<u64> {
        let zone = self.zone(id)?;
        match zone.state() {
            ZoneState::Full => return Err(ZnsError::ZoneFull(id)),
            ZoneState::ReadOnly => return Err(ZnsError::ZoneReadOnly(id)),
            ZoneState::Offline => return Err(ZnsError::ZoneOffline(id)),
            _ => {}
        }
        let wp = zone.write_pointer();
        if let Some(got) = offset {
            if got != wp {
                return Err(ZnsError::NotAtWritePointer { zone: id, wp, got });
            }
        }
        if !zone.state().is_open() {
            self.open_internal(id, false)?;
        }
        Ok(wp)
    }

    /// Completes a [prepared](ZoneTable::prepare_write) write: advances
    /// the pointer and moves the zone to Full at capacity.
    #[inline]
    pub fn commit_write(&mut self, id: ZoneId) {
        self.commit_writes(id, 1);
    }

    /// Completes `pages` writes at the prepared pointer in one step: one
    /// pointer advance, one check for Full, and — traced — the
    /// [`ZnsEvent::Append`] of every page.
    #[inline]
    pub fn commit_writes(&mut self, id: ZoneId, pages: u64) {
        let zone = &mut self.zones[id.0 as usize];
        let before = zone.write_pointer();
        zone.advance_wp(pages);
        let wp = zone.write_pointer();
        let (full, state) = (wp == zone.capacity(), zone.state());
        if self.tracer.enabled() {
            for wp in before + 1..=wp {
                self.tracer
                    .emit(self.clock, ZnsEvent::Append { zone: id.0, wp });
            }
        }
        if full {
            self.settle(id, state, ZoneState::Full, "write-full");
        }
    }

    /// Completes a prepared write whose program failed: the slot at the
    /// pointer is consumed, the pointer advances over the burned hole,
    /// and a zone that burned too many slots since its last reset stops
    /// accepting writes (ReadOnly). Returns the error the command
    /// surfaces; the host re-drives at the new pointer or elsewhere.
    pub fn commit_burn(&mut self, id: ZoneId) -> ZnsError {
        let zone = &mut self.zones[id.0 as usize];
        let offset = zone.write_pointer();
        zone.note_burn();
        self.commit_write(id);
        let zone = &self.zones[id.0 as usize];
        let (burned, state) = (zone.burned(), zone.state());
        if burned >= self.burns_to_readonly
            && !matches!(
                state,
                ZoneState::Full | ZoneState::ReadOnly | ZoneState::Offline
            )
        {
            self.settle(id, state, ZoneState::ReadOnly, "program-fail");
        }
        ZnsError::ProgramFailure { zone: id, offset }
    }

    /// Forces a zone ReadOnly (failure injection), as a real device does
    /// when it can still serve reads but no longer trusts the zone for
    /// writes.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::ZoneOutOfRange`] for unknown identifiers.
    pub fn force_read_only(&mut self, id: ZoneId) -> Result<()> {
        let state = self.zone(id)?.state();
        self.settle(id, state, ZoneState::ReadOnly, "inject");
        Ok(())
    }

    /// A power loss on a device whose zone metadata is durable: open
    /// zones lose their transient open resources and come back Closed
    /// (or Empty if unwritten); nothing else moves.
    pub fn power_loss(&mut self) {
        for i in 0..self.zones.len() {
            if self.zones[i].state().is_open() {
                self.close_to_state(ZoneId(i as u32), "power-loss");
            }
        }
    }

    /// A power loss on a device that rebuilds its zones from durable
    /// media: every zone is forgotten (Empty, pointer and counts zero)
    /// and the observers are set aside, because the commands the device
    /// now replays through the table are history, not transitions — and
    /// the implicit closes, transitions and peaks among them are the
    /// replay's, not the host's.
    pub fn begin_rebuild(&mut self) -> Rebuild {
        let before = self.zones.iter().map(Zone::state).collect();
        for z in &mut self.zones {
            z.forget();
        }
        self.active = 0;
        self.open = 0;
        self.empty = self.zones.len() as u32;
        Rebuild {
            before,
            implicit_closes: self.stats.implicit_closes,
            tally: self.tally,
            tracer: std::mem::replace(&mut self.tracer, Tracer::disabled()),
        }
    }

    /// Ends a rebuild: closes whatever the replay left open (open state
    /// is volatile), reinstates the observers, and reports every zone
    /// the outage moved as one `"power-loss"` transition.
    pub fn end_rebuild(&mut self, rebuild: Rebuild) {
        self.power_loss();
        self.stats.implicit_closes = rebuild.implicit_closes;
        self.tally = rebuild.tally;
        self.tracer = rebuild.tracer;
        for (i, &was) in rebuild.before.iter().enumerate() {
            let is = self.zones[i].state();
            self.trace_transition(ZoneId(i as u32), was, is, "power-loss");
        }
        self.raise_peaks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eight blockless zones of 16 pages.
    fn table(max_active: u32, max_open: u32) -> ZoneTable {
        let zones = (0..8).map(|z| Zone::with_capacity(ZoneId(z), 16, 16));
        ZoneTable::new(zones.collect(), max_active, max_open, 8)
    }

    fn write(t: &mut ZoneTable, z: u32) -> Result<u64> {
        let wp = t.prepare_write(ZoneId(z), None)?;
        t.commit_write(ZoneId(z));
        Ok(wp)
    }

    #[test]
    fn limits_are_enforced() {
        let mut t = table(3, 2);
        write(&mut t, 0).unwrap();
        write(&mut t, 1).unwrap();
        // Third implicit open evicts an implicit victim (MOR 2).
        write(&mut t, 2).unwrap();
        assert_eq!(t.open_zones(), 2);
        assert_eq!(t.active_zones(), 3);
        assert_eq!(t.stats().implicit_closes, 1);
        // MAR 3 exhausted: a fourth active zone is refused.
        assert_eq!(
            write(&mut t, 3),
            Err(ZnsError::TooManyActiveZones { limit: 3 })
        );
        // Explicit opens cannot evict explicit zones.
        let mut t = table(4, 2);
        t.open(ZoneId(0)).unwrap();
        t.open(ZoneId(1)).unwrap();
        assert_eq!(
            t.open(ZoneId(2)),
            Err(ZnsError::TooManyOpenZones { limit: 2 })
        );
    }

    #[test]
    fn commit_writes_is_that_many_commit_writes() {
        let (mut run, mut paged) = (table(8, 8), table(8, 8));
        run.set_tracer(Tracer::ring(256));
        paged.set_tracer(Tracer::ring(256));
        // Part of a zone, the rest of it (Full on the last page), a
        // whole zone at once, and nothing at all.
        for (z, pages) in [(0, 5), (0, 11), (1, 16), (2, 0), (2, 1)] {
            let id = ZoneId(z);
            assert_eq!(
                run.prepare_write(id, None).unwrap(),
                paged.prepare_write(id, None).unwrap()
            );
            run.commit_writes(id, pages);
            for _ in 0..pages {
                paged.commit_write(id);
            }
            assert_eq!(format!("{:?}", run.zones()), format!("{:?}", paged.zones()));
            assert_eq!(
                (run.active_zones(), run.open_zones(), run.empty_zones()),
                (
                    paged.active_zones(),
                    paged.open_zones(),
                    paged.empty_zones()
                )
            );
        }
        assert_eq!(run.zones()[1].state(), ZoneState::Full);
        assert_eq!(run.tracer().events(), paged.tracer().events());
    }

    #[test]
    fn readable_all_refuses_what_readable_refuses() {
        let mut t = table(8, 8);
        for _ in 0..4 {
            write(&mut t, 0).unwrap();
            write(&mut t, 3).unwrap();
        }
        t.force_read_only(ZoneId(3)).unwrap();
        let z = ZoneId;
        assert_eq!(
            t.readable_all(&[(z(0), 3), (z(0), 0), (z(3), 2), (z(0), 1), (z(0), 1)]),
            Ok(())
        );
        assert_eq!(t.readable_all(&[]), Ok(()));
        // The first refusal wins, with `readable`'s own error — after a
        // run of good sources in the same zone too.
        for bad in [(z(0), 4), (z(1), 0), (z(8), 0)] {
            let want = t.readable(bad.0, bad.1).map(|_| ()).unwrap_err();
            assert_eq!(
                t.readable_all(&[(z(0), 2), (z(0), 3), bad, (z(9), 0)]),
                Err(want)
            );
        }
    }

    #[test]
    fn rebuild_replays_quietly_then_reports_what_moved() {
        let mut t = table(3, 2);
        t.set_tracer(Tracer::ring(64));
        write(&mut t, 0).unwrap();
        t.open(ZoneId(1)).unwrap();
        t.finish(ZoneId(2)).unwrap();
        write(&mut t, 3).unwrap();
        write(&mut t, 3).unwrap();
        // The fourth open evicted zone 0, which is Closed already.
        let (closes, before) = (t.stats().implicit_closes, t.tracer().len());
        assert_eq!(closes, 1);
        // The durable half of that history: one page in zone 0, the
        // finish; zone 3 lost its second page. Replayed past MOR, so the
        // replay evicts.
        let rebuild = t.begin_rebuild();
        assert_eq!((t.active_zones(), t.empty_zones()), (0, 8));
        for z in [0, 3, 4] {
            write(&mut t, z).unwrap();
        }
        t.finish(ZoneId(2)).unwrap();
        t.finish(ZoneId(4)).unwrap();
        t.end_rebuild(rebuild);
        assert_eq!(t.stats().implicit_closes, closes);
        assert_eq!(
            (t.active_zones(), t.open_zones(), t.empty_zones()),
            (2, 0, 4)
        );
        assert_eq!(t.zones()[3].write_pointer(), 1);
        let moved: Vec<_> = t.tracer().events()[before..]
            .iter()
            .map(|e| match e.event {
                bh_trace::Event::Zns(ZnsEvent::Transition {
                    zone,
                    to,
                    cause: "power-loss",
                    ..
                }) => (zone, to),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            moved,
            [
                (1, ZoneStateTag::Empty),
                (3, ZoneStateTag::Closed),
                (4, ZoneStateTag::Full)
            ]
        );
    }
}
