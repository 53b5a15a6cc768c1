//! The file-backed zoned device: the ZNS state machine over a durable
//! log.

use crate::config::ZbdConfig;
use crate::media::{read_header, Media, Record, HEADER_LEN, RECORD_LEN, REPLAY_CHUNK_RECORDS};
use bh_faults::{FaultConfig, FaultPlan};
use bh_flash::{FlashStats, Stamp};
use bh_metrics::Nanos;
use bh_obs::ObsSnapshot;
use bh_trace::{FaultEvent, Tracer};
use bh_zns::{Result, ZnsError, ZnsStats, Zone, ZoneId, ZoneState, ZoneTable};
use std::io::Read;
use std::path::Path;

/// A file-/memory-backed zoned block device emulator.
///
/// The zone state machine is the same [`ZoneTable`] that
/// [`bh_zns::ZnsDevice`] drives; this type is the media half of each
/// command. The media is an append-ordered durable log rather than a
/// timed flash model: every acknowledged state-changing command is one
/// or more checksummed records, all of them handed to the media in a
/// single write before the command returns, and
/// [`ZbdDevice::power_cycle`] recovers by streaming the log back from
/// the backing store and replaying the valid prefix through the table —
/// a genuine reopen-from-disk when file-backed.
///
/// Op counters ([`ZnsStats`], synthesized [`FlashStats`]) are harness
/// diagnostics, not device state: like `ZnsDevice`'s, they survive
/// `power_cycle` so write-amplification series stay continuous across a
/// crash.
///
/// # Examples
///
/// ```
/// use bh_zbd::{ZbdConfig, ZbdDevice};
/// use bh_zns::ZoneId;
/// use bh_metrics::Nanos;
///
/// let mut dev = ZbdDevice::new(ZbdConfig::new(4, 16)).unwrap();
/// let (off, done) = dev.append(ZoneId(0), 0xBEEF, Nanos::ZERO).unwrap();
/// assert_eq!(off, 0);
/// dev.power_cycle(done); // replay from the in-memory log
/// let (stamp, _) = dev.read(ZoneId(0), 0, done).unwrap();
/// assert_eq!(stamp, 0xBEEF);
/// ```
pub struct ZbdDevice {
    cfg: ZbdConfig,
    media: Media,
    /// Encoded records of the command in flight. Empty between
    /// commands: every logging command ends in [`ZbdDevice::acked`],
    /// which gives them to the media before the command returns.
    records: Vec<u8>,
    /// The state half of every command. Volatile: rebuilt from the log
    /// on every power cycle.
    table: ZoneTable,
    /// Per-zone payload in write-pointer order; `None` is a burned slot.
    /// Volatile: rebuilt from the log on every power cycle.
    data: Vec<Vec<Option<Stamp>>>,
    /// Synthesized media statistics, so WA reporting works like the
    /// flash-backed substrate's.
    flash: FlashStats,
    faults: Option<FaultPlan>,
}

impl ZbdDevice {
    /// Builds a memory-backed device: the log lives in a buffer, and
    /// `power_cycle` replays it through the same recovery path as the
    /// file-backed form.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration is invalid.
    pub fn new(cfg: ZbdConfig) -> std::result::Result<Self, String> {
        cfg.validate()?;
        Self::fresh(cfg, Media::memory(&cfg))
    }

    /// Creates (truncating) a file-backed device at `path`.
    ///
    /// # Errors
    ///
    /// Returns a description on invalid configuration or file I/O
    /// failure.
    pub fn create_file(cfg: ZbdConfig, path: &Path) -> std::result::Result<Self, String> {
        cfg.validate()?;
        let media = Media::create_file(&cfg, path).map_err(|e| format!("create {path:?}: {e}"))?;
        Self::fresh(cfg, media)
    }

    /// Reopens a device from an existing backing file: the header
    /// supplies the geometry and the log's valid prefix rebuilds every
    /// zone — the cold-start form of crash recovery.
    ///
    /// # Errors
    ///
    /// Returns a description on I/O failure or a corrupt header. The
    /// header is decoded and validated before anything else is read or
    /// sized from it.
    pub fn open_file(path: &Path) -> std::result::Result<Self, String> {
        let cfg = read_header(path)?;
        let media = Media::open_file(path).map_err(|e| format!("open {path:?}: {e}"))?;
        let mut dev = Self::fresh(cfg, media)?;
        dev.replay().map_err(|e| format!("read {path:?}: {e}"))?;
        Ok(dev)
    }

    /// A device with every zone Empty. The zone table is the one
    /// allocation sized by `num_zones` — a header field, for
    /// `open_file` — so it is reserved fallibly.
    fn fresh(cfg: ZbdConfig, media: Media) -> std::result::Result<Self, String> {
        let n = cfg.num_zones as usize;
        let mut zones = Vec::new();
        let mut data = Vec::new();
        zones
            .try_reserve_exact(n)
            .and_then(|()| data.try_reserve_exact(n))
            .map_err(|e| format!("zone table for {n} zones: {e}"))?;
        for z in 0..cfg.num_zones {
            zones.push(Zone::with_capacity(
                ZoneId(z),
                cfg.zone_capacity_pages,
                cfg.zone_size_pages,
            ));
        }
        data.resize_with(n, Vec::new);
        Ok(ZbdDevice {
            table: ZoneTable::new(
                zones,
                cfg.max_active_zones,
                cfg.max_open_zones,
                cfg.burns_to_readonly,
            ),
            cfg,
            media,
            records: Vec::new(),
            data,
            flash: FlashStats::default(),
            faults: None,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &ZbdConfig {
        &self.cfg
    }

    /// The backing file path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.media.path()
    }

    /// Number of zones in the namespace.
    pub fn num_zones(&self) -> u32 {
        self.table.zones().len() as u32
    }

    /// Zones currently counting against the active limit.
    pub fn active_zones(&self) -> u32 {
        self.table.active_zones()
    }

    /// Zones currently counting against the open limit.
    pub fn open_zones(&self) -> u32 {
        self.table.open_zones()
    }

    /// Zones currently Empty, in O(1).
    pub fn empty_zones(&self) -> u32 {
        self.table.empty_zones()
    }

    /// Zoned-interface operation counters.
    pub fn stats(&self) -> &ZnsStats {
        self.table.stats()
    }

    /// Synthesized media statistics (programs, erases, copies, WA).
    pub fn flash_stats(&self) -> &FlashStats {
        &self.flash
    }

    /// A zone descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::ZoneOutOfRange`] for unknown identifiers.
    pub fn zone(&self, id: ZoneId) -> Result<&Zone> {
        self.table.zone(id)
    }

    /// Iterates over all zone descriptors, in id order.
    pub fn zones(&self) -> impl Iterator<Item = &Zone> {
        self.table.zones().iter()
    }

    /// Installs a tracer: zone transitions, appends, limit stalls, and
    /// injected faults are emitted exactly like the simulator's.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.table.set_tracer(tracer);
    }

    /// Writes the flash, fault and zone slots of `snap` from the
    /// synthesized media statistics, the fault plan and the zone table.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.flash.obs_into(snap);
        bh_flash::fault_obs_into(self.fault_counters(), snap);
        self.table.obs_into(snap);
    }

    /// Installs a transient-fault plan: program failures burn slots and
    /// read disturbs add retry latency, from the same deterministic
    /// decision stream the flash substrate uses. Erase failures are
    /// accepted but never fire — file media has no blocks to retire.
    pub fn install_faults(&mut self, cfg: FaultConfig) {
        self.faults = Some(FaultPlan::new(cfg));
    }

    /// What the installed fault plan has injected so far.
    pub fn fault_counters(&self) -> Option<bh_faults::FaultCounters> {
        self.faults.as_ref().map(|p| p.counters())
    }

    /// Adds one record to the command in flight.
    fn log(&mut self, rec: Record) {
        self.records.extend_from_slice(&rec.encode());
    }

    /// Runs one state-changing command and, on every exit path, hands
    /// the records it logged to the media in a single write before
    /// returning — the commit point: a command that has returned has
    /// given the OS all of its records, an `Err` after burns included.
    /// Media failure is a harness environment error (disk gone), not a
    /// modelled fault: panic rather than mis-ack.
    fn acked<T>(&mut self, command: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        debug_assert!(self.records.is_empty(), "records held across an ack");
        let result = command(self);
        if !self.records.is_empty() {
            self.media
                .append(&self.records)
                .expect("zbd: backing media unwritable");
            self.records.clear();
        }
        result
    }

    fn trace_fault(&mut self, ev: FaultEvent) {
        if self.table.tracer().enabled() {
            self.table.tracer().emit(self.table.clock(), ev);
        }
    }

    /// Explicitly opens a zone (Zone Management Send: Open). Open state
    /// is volatile, so nothing is logged.
    ///
    /// # Errors
    ///
    /// Fails when the zone cannot open in its current state or when the
    /// limits are exhausted with no implicit victim.
    pub fn open(&mut self, id: ZoneId) -> Result<()> {
        self.table.open(id)
    }

    /// Closes an opened zone (Zone Management Send: Close).
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::WrongState`] unless the zone is opened.
    pub fn close(&mut self, id: ZoneId) -> Result<()> {
        self.table.close(id)
    }

    /// Finishes a zone: moves it to Full and logs the transition (Full
    /// is durable state). A zone already Full is acknowledged without a
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::WrongState`] for read-only/offline zones.
    pub fn finish(&mut self, id: ZoneId) -> Result<()> {
        self.acked(|dev| {
            if dev.table.finish(id)? {
                dev.log(Record::Finish { zone: id.0 });
            }
            Ok(())
        })
    }

    /// Resets a zone: logs the reset, clears its payload, and rewinds
    /// the write pointer. File media never wears out, so unlike the
    /// simulator a zbd zone cannot shrink or go offline through resets.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::ZoneReadOnly`] / [`ZnsError::ZoneOffline`]
    /// for unresettable zones.
    pub fn reset(&mut self, id: ZoneId, now: Nanos) -> Result<Nanos> {
        self.acked(|dev| {
            dev.table.tick(now);
            dev.table.resettable(id)?;
            dev.log(Record::Reset { zone: id.0 });
            dev.data[id.0 as usize].clear();
            let cost = Nanos::from_nanos(dev.cfg.reset_ns);
            dev.flash.erases += 1;
            dev.flash.busy += cost;
            let done = now + cost;
            dev.table.tick(done);
            dev.table.rewind(id, &[], 0);
            Ok(done)
        })
    }

    /// Burns the slot at `wp`: logs the burn, consumes the slot, and
    /// lets the table degrade the zone past its burn budget. Returns the
    /// error the caller surfaces.
    fn burn_slot(&mut self, id: ZoneId, wp: u64, now: Nanos) -> ZnsError {
        self.log(Record::Burn { zone: id.0 });
        self.data[id.0 as usize].push(None);
        // Mirror the flash substrate: a burned program is internal work.
        self.flash.internal_programs += 1;
        self.flash.busy += Nanos::from_nanos(self.cfg.write_ns);
        self.table.tick(now + Nanos::from_nanos(self.cfg.write_ns));
        self.trace_fault(FaultEvent::ProgramFail {
            block: id.0,
            page: wp as u32,
            origin: bh_trace::Origin::Host,
        });
        self.table.commit_burn(id)
    }

    fn program_fires(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|p| p.next_program_fails())
    }

    /// Stores one page at the admitted pointer `wp`: logs the record,
    /// keeps the payload, commits the write. Shared by write/append.
    fn program(
        &mut self,
        id: ZoneId,
        wp: u64,
        stamp: Stamp,
        rec: Record,
        now: Nanos,
    ) -> Result<Nanos> {
        if self.program_fires() {
            return Err(self.burn_slot(id, wp, now));
        }
        self.log(rec);
        self.data[id.0 as usize].push(Some(stamp));
        self.table.commit_write(id);
        self.flash.host_programs += 1;
        let cost = Nanos::from_nanos(self.cfg.write_ns);
        self.flash.busy += cost;
        let done = now + cost;
        self.table.tick(done);
        Ok(done)
    }

    /// Writes one page at `offset`, which must equal the write pointer.
    /// Returns the completion instant.
    ///
    /// # Errors
    ///
    /// See [`bh_zns::backend::ZonedDevice::write`].
    pub fn write(&mut self, id: ZoneId, offset: u64, stamp: Stamp, now: Nanos) -> Result<Nanos> {
        self.acked(|dev| {
            dev.table.tick(now);
            let wp = dev.table.prepare_write(id, Some(offset))?;
            let done = dev.program(id, wp, stamp, Record::Write { zone: id.0, stamp }, now)?;
            dev.table.stats_mut().writes += 1;
            Ok(done)
        })
    }

    /// Appends one page, the device picking the offset. Returns the
    /// assigned offset and the completion instant.
    ///
    /// # Errors
    ///
    /// See [`bh_zns::backend::ZonedDevice::append`].
    pub fn append(&mut self, id: ZoneId, stamp: Stamp, now: Nanos) -> Result<(u64, Nanos)> {
        self.acked(|dev| {
            dev.table.tick(now);
            let wp = dev.table.prepare_write(id, None)?;
            let done = dev.program(id, wp, stamp, Record::Append { zone: id.0, stamp }, now)?;
            dev.table.stats_mut().appends += 1;
            Ok((wp, done))
        })
    }

    /// Reads one page below the write pointer. Returns the stored stamp
    /// and the completion instant.
    ///
    /// # Errors
    ///
    /// See [`bh_zns::backend::ZonedDevice::read`].
    pub fn read(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<(Stamp, Nanos)> {
        self.table.tick(now);
        self.table.readable(id, offset)?;
        let retries = self.faults.as_mut().map_or(0, |p| p.next_read_retries());
        let unit = Nanos::from_nanos(self.cfg.read_ns);
        self.flash.host_reads += 1;
        self.flash.busy += unit;
        let mut done = now + unit;
        if retries > 0 {
            for _ in 0..retries {
                self.flash.internal_reads += 1;
                self.flash.busy += unit;
                done += unit;
            }
            self.trace_fault(FaultEvent::ReadRetry {
                block: id.0,
                page: offset as u32,
                retries,
            });
        }
        self.table.tick(done);
        let stamp = self.data[id.0 as usize][offset as usize]
            .ok_or(ZnsError::MediaError { zone: id, offset })?;
        self.table.stats_mut().reads += 1;
        Ok((stamp, done))
    }

    /// Copies pages into `dst` at its write pointer without crossing the
    /// host bus. Returns each source's destination offset and the
    /// completion instant. All-or-nothing validation, burn-redrive on
    /// destination program failures — the simulator's semantics. The
    /// whole batch — copies and burns, also when a destination that went
    /// Full or ReadOnly cuts it short — is one media write.
    ///
    /// # Errors
    ///
    /// See [`bh_zns::backend::ZonedDevice::simple_copy`].
    pub fn simple_copy(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> Result<(Vec<u64>, Nanos)> {
        self.acked(|dev| dev.simple_copy_internal(sources, dst, now))
    }

    fn simple_copy_internal(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> Result<(Vec<u64>, Nanos)> {
        self.table.tick(now);
        for &(src_zone, offset) in sources {
            self.table.readable(src_zone, offset)?;
        }
        if self.table.zone(dst)?.remaining() < sources.len() as u64 {
            return Err(ZnsError::ZoneFull(dst));
        }
        let cost = Nanos::from_nanos(self.cfg.read_ns + self.cfg.write_ns);
        let mut placed = Vec::with_capacity(sources.len());
        let mut done = now;
        for &(src_zone, offset) in sources {
            loop {
                let wp = self.table.prepare_write(dst, None)?;
                let stamp = self.data[src_zone.0 as usize][offset as usize].ok_or(
                    ZnsError::MediaError {
                        zone: src_zone,
                        offset,
                    },
                )?;
                if self.program_fires() {
                    let e = self.burn_slot(dst, wp, now);
                    match self.table.zone(dst)?.state() {
                        ZoneState::Full | ZoneState::ReadOnly => return Err(e),
                        _ => continue,
                    }
                }
                self.log(Record::Copy { zone: dst.0, stamp });
                self.data[dst.0 as usize].push(Some(stamp));
                self.table.commit_write(dst);
                self.table.stats_mut().simple_copy_pages += 1;
                self.flash.copies += 1;
                self.flash.busy += cost;
                done = done.max(now + cost);
                placed.push(wp);
                break;
            }
        }
        self.table.tick(done);
        Ok((placed, done))
    }

    /// Failure injection: forces a zone ReadOnly, durably (the
    /// transition is logged).
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::ZoneOutOfRange`] for unknown identifiers.
    pub fn inject_read_only(&mut self, id: ZoneId) -> Result<()> {
        self.acked(|dev| {
            dev.table.force_read_only(id)?;
            dev.log(Record::SetState {
                zone: id.0,
                code: ZoneState::ReadOnly.to_code(),
            });
            Ok(())
        })
    }

    /// Models a power loss and restart: every volatile structure (zone
    /// table, payload index) is dropped and rebuilt by streaming the
    /// durable log back from the backing store — for file media, a fresh
    /// read of what is actually on disk. A torn or corrupt tail is
    /// truncated; zones that were open come back Closed (wp > 0) or
    /// Empty, per the spec. Op counters and the fault plan survive, as
    /// they do on the simulator.
    ///
    /// Returns the instant recovery completes.
    pub fn power_cycle(&mut self, now: Nanos) -> Nanos {
        self.table.tick(now);
        let stats = *self.table.stats();
        let flash = self.flash;
        self.replay()
            .expect("zbd: cannot recover from the backing media");
        *self.table.stats_mut() = stats;
        self.flash = flash;
        self.table.clock()
    }

    /// Rebuilds all volatile state from the media's log, truncating it
    /// to the valid prefix. Counters are recomputed; callers that
    /// preserve them across a power cycle snapshot and restore around
    /// this.
    fn replay(&mut self) -> std::io::Result<()> {
        let rebuild = self.table.begin_rebuild();
        for d in &mut self.data {
            d.clear();
        }
        *self.table.stats_mut() = ZnsStats::default();
        self.flash = FlashStats::default();
        // The media is out of `self` while `replay_records` rebuilds the
        // rest of it.
        let mut media = std::mem::replace(&mut self.media, Media::Memory(Vec::new()));
        let recovered = media.recover(|log| self.replay_records(log));
        self.media = media;
        self.table.end_rebuild(rebuild);
        recovered
    }

    /// Applies the records of `log` (positioned at the header) through
    /// one fixed-size chunk buffer and returns the byte length of the
    /// valid prefix: it ends at the first short, undecodable or
    /// semantically invalid record.
    fn replay_records(&mut self, log: &mut dyn Read) -> std::io::Result<u64> {
        // A device that exists has a header: `open_file` validated it,
        // the other constructors wrote it.
        log.read_exact(&mut [0u8; HEADER_LEN])?;
        let mut chunk = vec![0u8; REPLAY_CHUNK_RECORDS * RECORD_LEN];
        // Bytes of a record split across two reads, carried to the front.
        let mut held = 0;
        let mut applied = 0u64;
        'log: loop {
            let n = match log.read(&mut chunk[held..]) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            held += n;
            let whole = held - held % RECORD_LEN;
            for buf in chunk[..whole].chunks_exact(RECORD_LEN) {
                let buf: &[u8; RECORD_LEN] = buf.try_into().expect("chunks of RECORD_LEN");
                let Some(rec) = Record::decode(buf) else {
                    break 'log;
                };
                if self.apply_replay(rec).is_none() {
                    break 'log;
                }
                applied += 1;
            }
            chunk.copy_within(whole..held, 0);
            held -= whole;
        }
        Ok(HEADER_LEN as u64 + applied * RECORD_LEN as u64)
    }

    /// Applies one replayed record: the state half of the command that
    /// logged it, through the same table, and its payload. `None` means
    /// the table refuses it where the live device would have — the
    /// record is semantically invalid (corruption that checksummed
    /// clean), ending the valid prefix. The device only ever forces
    /// `ReadOnly`, so a `SetState` to anything else is invalid too.
    fn apply_replay(&mut self, rec: Record) -> Option<()> {
        match rec {
            Record::Append { zone, stamp }
            | Record::Write { zone, stamp }
            | Record::Copy { zone, stamp } => {
                self.table.prepare_write(ZoneId(zone), None).ok()?;
                self.data[zone as usize].push(Some(stamp));
                self.table.commit_write(ZoneId(zone));
                let stats = self.table.stats_mut();
                match rec {
                    Record::Append { .. } => {
                        stats.appends += 1;
                        self.flash.host_programs += 1;
                    }
                    Record::Write { .. } => {
                        stats.writes += 1;
                        self.flash.host_programs += 1;
                    }
                    _ => {
                        stats.simple_copy_pages += 1;
                        self.flash.copies += 1;
                    }
                }
            }
            Record::Burn { zone } => {
                self.table.prepare_write(ZoneId(zone), None).ok()?;
                self.data[zone as usize].push(None);
                self.table.commit_burn(ZoneId(zone));
                self.flash.internal_programs += 1;
            }
            Record::Reset { zone } => {
                self.table.resettable(ZoneId(zone)).ok()?;
                self.table.rewind(ZoneId(zone), &[], 0);
                self.data[zone as usize].clear();
                self.flash.erases += 1;
            }
            Record::Finish { zone } => {
                self.table.finish(ZoneId(zone)).ok()?;
            }
            Record::SetState { zone, code } => {
                if code != ZoneState::ReadOnly.to_code() {
                    return None;
                }
                self.table.force_read_only(ZoneId(zone)).ok()?;
            }
        }
        Some(())
    }
}

// No LTO in this workspace, and host allocators poll the report accessors
// before every write from another crate: the ones that only forward to
// the table are `#[inline]`.
impl bh_zns::backend::ZonedDevice for ZbdDevice {
    fn num_zones(&self) -> u32 {
        ZbdDevice::num_zones(self)
    }

    fn zone_capacity(&self) -> u64 {
        self.cfg.zone_capacity_pages
    }

    fn page_bytes(&self) -> u32 {
        self.cfg.page_bytes
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
        ZbdDevice::open(self, id)
    }

    fn close(&mut self, id: ZoneId) -> Result<()> {
        ZbdDevice::close(self, id)
    }

    fn finish(&mut self, id: ZoneId) -> Result<()> {
        ZbdDevice::finish(self, id)
    }

    fn reset(&mut self, id: ZoneId, now: Nanos) -> Result<Nanos> {
        ZbdDevice::reset(self, id, now)
    }

    fn write(&mut self, id: ZoneId, offset: u64, stamp: Stamp, now: Nanos) -> Result<Nanos> {
        ZbdDevice::write(self, id, offset, stamp, now)
    }

    fn append(&mut self, id: ZoneId, stamp: Stamp, now: Nanos) -> Result<(u64, Nanos)> {
        ZbdDevice::append(self, id, stamp, now)
    }

    fn read(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<(Stamp, Nanos)> {
        ZbdDevice::read(self, id, offset, now)
    }

    fn simple_copy(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> Result<(Vec<u64>, Nanos)> {
        ZbdDevice::simple_copy(self, sources, dst, now)
    }

    fn inject_read_only(&mut self, id: ZoneId) -> Result<()> {
        ZbdDevice::inject_read_only(self, id)
    }

    fn zone_stats(&self) -> ZnsStats {
        *self.table.stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.flash
    }

    fn busy_planes(&self, _now: Nanos) -> u32 {
        // No plane/queue model: commands complete at a fixed cost, so
        // nothing is ever reported in flight.
        0
    }

    fn install_faults(&mut self, cfg: FaultConfig) {
        ZbdDevice::install_faults(self, cfg)
    }

    fn power_cycle(&mut self, now: Nanos) -> Nanos {
        ZbdDevice::power_cycle(self, now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        ZbdDevice::set_tracer(self, tracer)
    }

    fn obs_into(&self, snap: &mut ObsSnapshot) {
        ZbdDevice::obs_into(self, snap)
    }

    fn backend_label(&self) -> &'static str {
        "zbd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn dev() -> ZbdDevice {
        ZbdDevice::new(ZbdConfig::new(8, 16)).unwrap()
    }

    /// A unique temp path per call (pid + counter; no wall clock so the
    /// suite stays deterministic).
    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bh-zbd-test-{}-{tag}-{n}.zbd", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn conforms_to_shared_zone_state_machine() {
        bh_zns::conformance::check_state_machine(dev);
    }

    #[test]
    fn memory_device_round_trips_appends() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for i in 0..10u64 {
            let (off, done) = d.append(ZoneId(2), 1000 + i, t).unwrap();
            assert_eq!(off, i);
            t = done;
        }
        for i in 0..10u64 {
            let (stamp, _) = d.read(ZoneId(2), i, t).unwrap();
            assert_eq!(stamp, 1000 + i);
        }
        assert_eq!(d.stats().appends, 10);
        assert_eq!(d.flash_stats().host_programs, 10);
        assert_eq!(d.zone(ZoneId(2)).unwrap().write_pointer(), 10);
    }

    #[test]
    fn power_cycle_closes_open_zones_and_keeps_acked_data() {
        let mut d = dev();
        d.open(ZoneId(0)).unwrap();
        let (_, t) = d.append(ZoneId(0), 7, Nanos::ZERO).unwrap();
        d.open(ZoneId(1)).unwrap(); // explicitly open, never written
        let t = d.power_cycle(t);
        // Open state is volatile: written zone comes back Closed, the
        // empty one Empty.
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Closed);
        assert_eq!(d.zone(ZoneId(1)).unwrap().state(), ZoneState::Empty);
        assert_eq!(d.open_zones(), 0);
        assert_eq!(d.active_zones(), 1);
        assert_eq!(d.empty_zones(), 7);
        let (stamp, _) = d.read(ZoneId(0), 0, t).unwrap();
        assert_eq!(stamp, 7);
        // Counters survive the cycle (harness diagnostics).
        assert_eq!(d.stats().appends, 1);
        assert_eq!(d.flash_stats().host_programs, 1);
    }

    #[test]
    fn file_device_survives_drop_and_reopen() {
        let path = TempFile(temp_path("reopen"));
        let mut t = Nanos::ZERO;
        {
            let mut d = ZbdDevice::create_file(ZbdConfig::new(4, 8), &path.0).unwrap();
            for i in 0..8u64 {
                let (_, done) = d.append(ZoneId(0), i, t).unwrap();
                t = done;
            }
            assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::Full);
            t = d.write(ZoneId(1), 0, 99, t).unwrap();
            d.finish(ZoneId(2)).unwrap();
            t = d.reset(ZoneId(0), t).unwrap();
            t = d.append(ZoneId(0), 42, t).map(|r| r.1).unwrap();
            d.inject_read_only(ZoneId(3)).unwrap();
        } // device dropped: only the file remains
        let mut d = ZbdDevice::open_file(&path.0).unwrap();
        assert_eq!(d.num_zones(), 4);
        assert_eq!(d.config().zone_size_pages, 8);
        let z0 = d.zone(ZoneId(0)).unwrap();
        assert_eq!(z0.state(), ZoneState::Closed);
        assert_eq!(z0.write_pointer(), 1);
        assert_eq!(z0.resets(), 1);
        assert_eq!(d.zone(ZoneId(1)).unwrap().state(), ZoneState::Closed);
        assert_eq!(d.zone(ZoneId(2)).unwrap().state(), ZoneState::Full);
        assert_eq!(d.zone(ZoneId(3)).unwrap().state(), ZoneState::ReadOnly);
        let (stamp, _) = d.read(ZoneId(0), 0, t).unwrap();
        assert_eq!(stamp, 42);
        let (stamp, _) = d.read(ZoneId(1), 0, t).unwrap();
        assert_eq!(stamp, 99);
        // Cold-start counters recomputed from the log.
        assert_eq!(d.stats().appends, 9);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().resets, 1);
        assert_eq!(d.flash_stats().host_programs, 10);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_continues() {
        use std::io::{Seek, SeekFrom, Write};
        let path = TempFile(temp_path("torn"));
        let mut d = ZbdDevice::create_file(ZbdConfig::new(4, 8), &path.0).unwrap();
        let mut t = Nanos::ZERO;
        for i in 0..3u64 {
            t = d.append(ZoneId(0), i, t).map(|r| r.1).unwrap();
        }
        drop(d);
        // Tear the last record mid-write and append garbage half a
        // record long.
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path.0)
            .unwrap();
        let torn = (HEADER_LEN + 2 * RECORD_LEN + 11) as u64;
        f.set_len(torn).unwrap();
        f.seek(SeekFrom::End(0)).unwrap();
        f.write_all(&[0xAB; 5]).unwrap();
        drop(f);
        let mut d = ZbdDevice::open_file(&path.0).unwrap();
        let z0 = d.zone(ZoneId(0)).unwrap();
        assert_eq!(z0.write_pointer(), 2, "torn third append discarded");
        assert_eq!(
            std::fs::metadata(&path.0).unwrap().len(),
            (HEADER_LEN + 2 * RECORD_LEN) as u64
        );
        // The log keeps working past the truncation point.
        let (off, _) = d.append(ZoneId(0), 77, t).unwrap();
        assert_eq!(off, 2);
        let d2 = ZbdDevice::open_file(&path.0).unwrap();
        assert_eq!(d2.zone(ZoneId(0)).unwrap().write_pointer(), 3);
    }

    #[test]
    fn open_file_rejects_garbage() {
        let path = TempFile(temp_path("garbage"));
        std::fs::write(&path.0, b"not a zbd file at all, sorry").unwrap();
        assert!(ZbdDevice::open_file(&path.0).is_err());
    }

    /// Writes a file of `header` plus a torn 11-byte tail and expects
    /// `open_file` to refuse it on the header alone: had recovery got as
    /// far as the log, it would have cut the tail off.
    fn assert_header_refused(tag: &str, header: &[u8], expect: &str) {
        let path = TempFile(temp_path(tag));
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&[0xEE; 11]);
        std::fs::write(&path.0, &bytes).unwrap();
        let err = ZbdDevice::open_file(&path.0).err().expect("hostile header");
        assert!(err.contains(expect), "{tag}: {err}");
        assert_eq!(std::fs::read(&path.0).unwrap(), bytes, "{tag}: log touched");
    }

    #[test]
    fn open_file_refuses_hostile_headers_before_the_log() {
        use crate::media::encode_header;
        let good = ZbdConfig::new(8, 64);
        assert_header_refused("short", &encode_header(&good)[..40], "too short");
        let mut magic = encode_header(&good);
        magic[..8].copy_from_slice(b"BHZBDxxx");
        assert_header_refused("magic", &magic, "magic mismatch");
        // 4.29 G zones: sizing anything from this header would abort.
        let huge = ZbdConfig {
            num_zones: u32::MAX,
            ..good
        };
        assert_header_refused("huge", &encode_header(&huge), "32-bit page addresses");
        let wide = ZbdConfig {
            num_zones: 1 << 20,
            ..ZbdConfig::new(0, 1 << 20)
        };
        assert_header_refused("wide", &encode_header(&wide), "32-bit page addresses");
    }

    /// 2^32 - 3 one-page zones fit the page-address bound, but not
    /// memory: the zone table's reservation fails and every constructor
    /// says so instead of aborting.
    #[test]
    fn unallocatable_zone_table_is_an_error() {
        use crate::media::encode_header;
        // With overcommit set to "always" the kernel refuses nothing, so
        // there is no failure to observe (and the table must not be
        // touched).
        if std::fs::read_to_string("/proc/sys/vm/overcommit_memory").is_ok_and(|m| m.trim() == "1")
        {
            return;
        }
        let cfg = ZbdConfig::new(u32::MAX - 2, 1);
        assert!(cfg.validate().is_ok());
        let err = ZbdDevice::new(cfg).err().expect("300 GB zone table");
        assert!(err.contains("zone table"), "{err}");
        let path = TempFile(temp_path("many-zones"));
        let err = ZbdDevice::create_file(cfg, &path.0).err().unwrap();
        assert!(err.contains("zone table"), "{err}");
        assert_header_refused("many-zones-open", &encode_header(&cfg), "zone table");
    }

    /// Replay must not care how the reader slices the log: records that
    /// straddle two reads are carried over, and the valid prefix ends at
    /// the same record.
    #[test]
    fn replay_carries_records_split_across_reads() {
        struct Dribble<'a>(&'a [u8], usize);
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.1.min(buf.len()).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut d = dev();
        let t = Nanos::ZERO;
        for i in 0..40u64 {
            d.append(ZoneId((i % 3) as u32), i, t).unwrap();
        }
        d.reset(ZoneId(1), t).unwrap();
        d.simple_copy(&[(ZoneId(0), 2), (ZoneId(2), 5)], ZoneId(4), t)
            .unwrap();
        let Media::Memory(log) = &d.media else {
            panic!("memory device")
        };
        let torn = &log[..log.len() - 5];
        for step in [1, 7, RECORD_LEN, RECORD_LEN + 1, 1000] {
            let mut replayed = dev();
            let valid = replayed.replay_records(&mut Dribble(torn, step)).unwrap();
            assert_eq!(valid as usize, log.len() - RECORD_LEN, "step {step}");
            for (a, b) in replayed.zones().zip(d.zones()) {
                let copied_last = u64::from(b.id() == ZoneId(4));
                assert_eq!(a.write_pointer(), b.write_pointer() - copied_last);
                assert_eq!(a.resets(), b.resets());
            }
            assert_eq!(replayed.data[4], vec![Some(6)]);
        }
    }

    /// Media writes the current thread issued while `command` ran.
    fn media_writes<T>(command: impl FnOnce() -> T) -> (T, usize) {
        use crate::media::MEDIA_WRITES;
        let before = MEDIA_WRITES.with(|w| w.get());
        let out = command();
        (out, MEDIA_WRITES.with(|w| w.get()) - before)
    }

    fn log_records(path: &Path) -> u64 {
        let len = std::fs::metadata(path).unwrap().len() as usize;
        assert_eq!((len - HEADER_LEN) % RECORD_LEN, 0);
        ((len - HEADER_LEN) / RECORD_LEN) as u64
    }

    #[test]
    fn every_command_reaches_the_media_in_one_write() {
        let path = TempFile(temp_path("one-write"));
        let mut d = ZbdDevice::create_file(ZbdConfig::new(4, 128), &path.0).unwrap();
        let t = Nanos::ZERO;
        let (_, writes) = media_writes(|| d.append(ZoneId(0), 100, t).unwrap());
        assert_eq!((writes, log_records(&path.0)), (1, 1));
        let (_, writes) = media_writes(|| d.write(ZoneId(0), 1, 101, t).unwrap());
        assert_eq!((writes, log_records(&path.0)), (1, 2));
        for i in 2..64u64 {
            d.append(ZoneId(0), 100 + i, t).unwrap();
        }
        let sources: Vec<_> = (0..64).map(|off| (ZoneId(0), off)).collect();
        let ((placed, _), writes) = media_writes(|| d.simple_copy(&sources, ZoneId(1), t).unwrap());
        assert_eq!(placed.len(), 64);
        assert_eq!((writes, log_records(&path.0)), (1, 128));
        let (_, writes) = media_writes(|| d.finish(ZoneId(2)).unwrap());
        assert_eq!((writes, log_records(&path.0)), (1, 129));
        let (_, writes) = media_writes(|| d.reset(ZoneId(1), t).unwrap());
        assert_eq!((writes, log_records(&path.0)), (1, 130));
        let (_, writes) = media_writes(|| d.inject_read_only(ZoneId(3)).unwrap());
        assert_eq!((writes, log_records(&path.0)), (1, 131));

        // Refused in validation: nothing logged, nothing written.
        let (r, writes) = media_writes(|| d.append(ZoneId(2), 7, t));
        assert_eq!((r, writes), (Err(ZnsError::ZoneFull(ZoneId(2))), 0));
        let (r, writes) = media_writes(|| d.write(ZoneId(0), 9, 7, t));
        assert!(matches!(r, Err(ZnsError::NotAtWritePointer { .. })));
        assert_eq!(writes, 0);
        let (r, writes) = media_writes(|| d.simple_copy(&[(ZoneId(0), 64)], ZoneId(1), t));
        assert!(matches!(r, Err(ZnsError::ReadBeyondWritePointer { .. })));
        assert_eq!(writes, 0);
        let (r, writes) = media_writes(|| d.reset(ZoneId(3), t));
        assert_eq!((r, writes), (Err(ZnsError::ZoneReadOnly(ZoneId(3))), 0));
        // Already Full: acknowledged without a record.
        let (_, writes) = media_writes(|| d.finish(ZoneId(2)).unwrap());
        assert_eq!((writes, log_records(&path.0)), (0, 131));
    }

    #[test]
    fn copy_cut_short_by_burns_still_commits_in_one_write() {
        let path = TempFile(temp_path("burnt-copy"));
        let cfg = ZbdConfig::new(4, 128).with_burns_to_readonly(3);
        let mut d = ZbdDevice::create_file(cfg, &path.0).unwrap();
        let t = Nanos::ZERO;
        for i in 0..64u64 {
            d.append(ZoneId(0), i, t).unwrap();
        }
        d.install_faults(FaultConfig {
            program_fail_ppm: 1_000_000, // every program burns
            ..FaultConfig::new(7)
        });
        let sources: Vec<_> = (0..64).map(|off| (ZoneId(0), off)).collect();
        let (r, writes) = media_writes(|| d.simple_copy(&sources, ZoneId(1), t));
        assert!(matches!(r, Err(ZnsError::ProgramFailure { .. })));
        // Three burns degraded the destination; the command returned
        // `Err`, and its burn trail was already with the OS.
        assert_eq!((writes, log_records(&path.0)), (1, 64 + 3));
        let cold = ZbdDevice::open_file(&path.0).unwrap();
        let z = cold.zone(ZoneId(1)).unwrap();
        assert_eq!(
            (z.state(), z.write_pointer(), z.burned()),
            (ZoneState::ReadOnly, 3, 3)
        );
    }

    /// Records that checksum clean but that no command of this device
    /// could have logged end the valid prefix, instead of installing a
    /// state the tallies do not know about: replay once took a
    /// `SetState` to `ExplicitlyOpened` at its word, left `open == 0`,
    /// and the next `close` underflowed it.
    #[test]
    fn replay_refuses_records_the_device_never_writes() {
        use std::io::Write;
        let open_code = ZoneState::ExplicitlyOpened.to_code();
        let hostile: [&[Record]; 4] = [
            // The reported reproduction.
            &[Record::SetState {
                zone: 1,
                code: open_code,
            }],
            // Finish of a ReadOnly zone.
            &[
                Record::SetState {
                    zone: 1,
                    code: ZoneState::ReadOnly.to_code(),
                },
                Record::Finish { zone: 1 },
            ],
            // A write into a finished zone, and a reset of a ReadOnly one.
            &[
                Record::Finish { zone: 1 },
                Record::Append { zone: 1, stamp: 9 },
            ],
            &[
                Record::SetState {
                    zone: 0,
                    code: ZoneState::ReadOnly.to_code(),
                },
                Record::Reset { zone: 0 },
            ],
        ];
        for (case, tail) in hostile.iter().enumerate() {
            let path = TempFile(temp_path("hostile"));
            let mut d = ZbdDevice::create_file(ZbdConfig::new(4, 8), &path.0).unwrap();
            d.append(ZoneId(0), 1, Nanos::ZERO).unwrap();
            drop(d);
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path.0)
                .unwrap();
            for rec in *tail {
                f.write_all(&rec.encode()).unwrap();
            }
            // A well-formed record after the hostile one is cut with it.
            f.write_all(&Record::Append { zone: 2, stamp: 3 }.encode())
                .unwrap();
            drop(f);
            let mut d = ZbdDevice::open_file(&path.0).expect("hostile log opens");
            assert_eq!(
                log_records(&path.0),
                tail.len() as u64,
                "case {case}: log cut before the hostile record"
            );
            let count = |is: fn(ZoneState) -> bool| d.zones().filter(|z| is(z.state())).count();
            assert_eq!(
                (d.active_zones(), d.open_zones(), d.empty_zones()),
                (
                    count(ZoneState::is_active) as u32,
                    count(ZoneState::is_open) as u32,
                    count(|s| s == ZoneState::Empty) as u32
                ),
                "case {case}: tallies equal a recount"
            );
            assert_eq!(d.open_zones(), 0, "case {case}");
            assert_eq!(d.zone(ZoneId(2)).unwrap().write_pointer(), 0);
            // The commands that used to underflow the open count.
            let _ = d.close(ZoneId(1));
            let _ = d.finish(ZoneId(1));
            let _ = d.reset(ZoneId(1), Nanos::ZERO);
            assert_eq!(d.open_zones(), 0, "case {case}");
        }
    }

    #[test]
    fn burns_degrade_to_read_only_durably() {
        let path = TempFile(temp_path("burns"));
        let mut d =
            ZbdDevice::create_file(ZbdConfig::new(4, 64).with_burns_to_readonly(3), &path.0)
                .unwrap();
        d.install_faults(FaultConfig {
            program_fail_ppm: 1_000_000, // every program burns
            ..FaultConfig::new(7)
        });
        let t = Nanos::ZERO;
        for _ in 0..3 {
            let err = d.append(ZoneId(0), 5, t).unwrap_err();
            assert!(matches!(err, ZnsError::ProgramFailure { .. }));
        }
        assert_eq!(d.zone(ZoneId(0)).unwrap().state(), ZoneState::ReadOnly);
        assert_eq!(d.flash_stats().internal_programs, 3);
        // Burned slots below the pointer read back as media errors.
        assert_eq!(
            d.read(ZoneId(0), 0, t),
            Err(ZnsError::MediaError {
                zone: ZoneId(0),
                offset: 0
            })
        );
        drop(d);
        // The burn trail is durable: reopen sees the degraded zone.
        let d = ZbdDevice::open_file(&path.0).unwrap();
        let z = d.zone(ZoneId(0)).unwrap();
        assert_eq!(z.state(), ZoneState::ReadOnly);
        assert_eq!(z.write_pointer(), 3);
        assert_eq!(z.burned(), 3);
    }

    #[test]
    fn simple_copy_moves_stamps_and_counts_wa() {
        let mut d = dev();
        let mut t = Nanos::ZERO;
        for i in 0..4u64 {
            t = d.append(ZoneId(0), 100 + i, t).map(|r| r.1).unwrap();
        }
        let (placed, t) = d
            .simple_copy(&[(ZoneId(0), 1), (ZoneId(0), 3)], ZoneId(5), t)
            .unwrap();
        assert_eq!(placed, vec![0, 1]);
        let (s, _) = d.read(ZoneId(5), 0, t).unwrap();
        assert_eq!(s, 101);
        let (s, _) = d.read(ZoneId(5), 1, t).unwrap();
        assert_eq!(s, 103);
        assert_eq!(d.flash_stats().copies, 2);
        assert_eq!(d.stats().simple_copy_pages, 2);
        let wa = d.flash_stats().write_amplification();
        assert!(wa > 1.0 && wa < 2.0, "copy-inflated WA, got {wa}");
    }

    #[test]
    fn read_retries_add_latency_and_counters() {
        let mut d = dev();
        d.install_faults(FaultConfig {
            read_retry_ppm: 1_000_000,
            max_read_retries: 2,
            ..FaultConfig::new(3)
        });
        let (_, t0) = d.append(ZoneId(0), 9, Nanos::ZERO).unwrap();
        let (_, done) = d.read(ZoneId(0), 0, t0).unwrap();
        let unit = Nanos::from_nanos(d.config().read_ns);
        assert!(done > t0 + unit, "retries must add latency");
        assert!(d.flash_stats().internal_reads > 0);
    }

    #[test]
    fn trait_object_surface_matches_inherent() {
        let mut d: Box<dyn bh_zns::backend::ZonedDevice> = Box::new(dev());
        assert_eq!(d.backend_label(), "zbd");
        assert_eq!(d.num_zones(), 8);
        assert_eq!(d.zone_capacity(), 16);
        assert_eq!(d.page_bytes(), 4096);
        let (off, _) = d.append(ZoneId(1), 11, Nanos::ZERO).unwrap();
        assert_eq!(off, 0);
        assert_eq!(d.zone_report()[1].write_pointer(), 1);
        assert_eq!(d.busy_planes(Nanos::ZERO), 0);
        d.power_cycle(Nanos::from_micros(5));
        assert_eq!(d.zone_stats().appends, 1);
    }
}
