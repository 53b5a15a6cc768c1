//! Storage backends: the same file API over either SSD interface.
//!
//! The store writes immutable files (SSTs) and an append-only log (WAL)
//! through [`StorageBackend`]. The two implementations differ exactly
//! where the paper says the interfaces differ:
//!
//! - [`ConvBackend`] places file pages at logical block addresses of a
//!   conventional SSD. The LBA allocator recycles freed addresses
//!   (LIFO), so flash blocks underneath accumulate a mixture of WAL
//!   pages, hot L0 files, and cold bottom-level files — lifetimes the
//!   device FTL cannot separate (§2.4: "information about applications is
//!   the key bottleneck"). Device GC then copies the long-lived pages
//!   around, producing the ~5× device WA the paper cites for RocksDB.
//! - [`ZnsBackend`] appends file pages into zones selected by a lifetime
//!   class derived from the file's role (WAL, SST level) — the ZenFS
//!   design. Compaction deletes whole files, whole zones die together,
//!   and resets reclaim them without copying: device WA ≈ 1.2×.
//!
//! Both backends buffer the partial tail page in memory (as real engines
//! do) and expose `sync` for durability points; on the conventional
//! device a tail sync rewrites the same LBA, on ZNS it must burn a fresh
//! zone slot — an honest asymmetry of the interfaces.
//!
//! Each file's bytes live in one reference-counted buffer.
//! [`StorageBackend::read_shared`] charges exactly the device reads
//! [`StorageBackend::read`] charges, at the same instants, and returns a
//! [`FileView`] of that buffer instead of a copy; `append` copies on
//! write, so a view never sees bytes appended after it was taken.

use crate::error::KvError;
use crate::Result;
use bh_conv::ConvSsd;
use bh_host::{LifetimeClass, Relocate, Survivor, Tie, ZoneLedger, ZonedLocation};
use bh_metrics::Nanos;
use bh_obs::{Obs, ObsSnapshot};
use bh_trace::Tracer;
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsDevice, ZoneId, ZoneState};
use std::collections::HashMap;
use std::fmt::Display;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Identifier for a backend file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// What role a file plays — the lifetime knowledge ZNS placement uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileHint {
    /// Write-ahead log: hottest, dies at the next flush.
    Wal,
    /// Sorted-run file at an LSM level; higher levels live longer.
    Sst {
        /// The LSM level the file belongs to.
        level: u32,
    },
}

impl FileHint {
    /// The lifetime class used for zone placement.
    fn class(self) -> LifetimeClass {
        match self {
            FileHint::Wal => LifetimeClass(0),
            FileHint::Sst { level } => LifetimeClass(1 + level),
        }
    }
}

/// Bytes read from a backend file, shared instead of copied: a
/// reference-counted buffer and a range of it. Dereferences to the bytes.
///
/// A view is a snapshot. Backends append copy-on-write, so a view held
/// across an append to its file keeps the bytes it was read with.
#[derive(Debug, Clone)]
pub struct FileView {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Deref for FileView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl From<Vec<u8>> for FileView {
    fn from(bytes: Vec<u8>) -> Self {
        FileView {
            start: 0,
            end: bytes.len(),
            buf: Arc::new(bytes),
        }
    }
}

/// Byte-oriented file storage over a simulated SSD.
///
/// Files are append-only; reads may come from the in-memory tail buffer
/// (no device I/O) or from flushed pages (device reads). All methods
/// return virtual completion instants.
pub trait StorageBackend {
    /// Creates an empty file with a lifetime hint.
    fn create(&mut self, hint: FileHint) -> FileId;

    /// Appends bytes; complete pages are written to the device.
    fn append(&mut self, f: FileId, data: &[u8], now: Nanos) -> Result<Nanos>;

    /// Forces the partial tail page (if any) to the device — a
    /// durability point.
    fn sync(&mut self, f: FileId, now: Nanos) -> Result<Nanos>;

    /// Reads `len` bytes at `offset`.
    fn read(&mut self, f: FileId, offset: u64, len: u64, now: Nanos) -> Result<(Vec<u8>, Nanos)>;

    /// Reads `len` bytes at `offset` as a view that shares the file's
    /// bytes instead of copying them.
    ///
    /// The contract is [`read`](Self::read)'s: the same device reads at
    /// the same instants, the same completion instant, the same bytes and
    /// the same errors. Only the copy is gone. The default wraps what
    /// `read` returns, so a backend or wrapper that implements only the
    /// required methods behaves identically.
    fn read_shared(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> Result<(FileView, Nanos)> {
        let (bytes, done) = self.read(f, offset, len, now)?;
        Ok((FileView::from(bytes), done))
    }

    /// Current file length in bytes.
    fn len(&self, f: FileId) -> Result<u64>;

    /// Deletes the file, releasing its device space.
    fn delete(&mut self, f: FileId, now: Nanos) -> Result<Nanos>;

    /// Opportunity for background space maintenance (zone reclaim).
    /// Returns the completion instant (`now` if nothing ran).
    fn maintenance(&mut self, now: Nanos) -> Result<Nanos>;

    /// Bytes of the file guaranteed to survive a crash: flushed complete
    /// pages plus any synced tail prefix.
    fn durable_len(&self, f: FileId) -> Result<u64>;

    /// Device page size in bytes.
    fn page_bytes(&self) -> u32;

    /// Device-level write amplification observed so far.
    fn device_write_amplification(&self) -> f64;

    /// Total pages the host asked the device to write (for app-level WA).
    fn host_pages_written(&self) -> u64;

    /// Installs a tracer on the underlying device(s). Backends without
    /// instrumentation may ignore it.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Writes the device slots of `snap` from the stats the backend's
    /// device(s) keep. The default writes nothing, for backends without
    /// a device model.
    fn obs_into(&self, snap: &mut ObsSnapshot) {
        let _ = snap;
    }

    /// Does nothing: counters are projected by
    /// [`StorageBackend::obs_into`]. Kept so code written against the
    /// registry handle still compiles.
    fn set_obs(&mut self, obs: Obs) {
        let _ = obs;
    }
}

/// A device failure, as the store reports it.
fn device(e: impl Display) -> KvError {
    KvError::Device(e.to_string())
}

/// Hashes a [`FileId`] with one multiply. The backend hands ids out in
/// sequence, so no caller can choose colliding keys and SipHash's
/// defence against them buys nothing; every backend call pays for a
/// hash.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }
}

/// A backend's files: ids, lookups, and how big a new file's buffer
/// starts.
struct Files<Loc> {
    table: HashMap<FileId, FileBuf<Loc>, BuildHasherDefault<IdHasher>>,
    next_id: u64,
    /// Per lifetime class, the longest a deleted file of the class grew.
    /// A new file's buffer starts at that capacity: a buffer grown by
    /// doubling copies about its final size again, and every file of a
    /// class has about the same size (one memtable, one `sst_bytes`).
    capacity: Vec<usize>,
}

impl<Loc> Files<Loc> {
    fn new() -> Self {
        Files {
            table: HashMap::default(),
            next_id: 0,
            capacity: Vec::new(),
        }
    }

    fn create(&mut self, hint: FileHint) -> FileId {
        let id = FileId(self.next_id);
        self.next_id += 1;
        let capacity = self.capacity.get(hint.class().0 as usize);
        let fb = FileBuf::new(hint, capacity.copied().unwrap_or(0));
        self.table.insert(id, fb);
        id
    }

    fn get(&self, f: FileId) -> Result<&FileBuf<Loc>> {
        self.table.get(&f).ok_or(KvError::NoSuchFile(f.0))
    }

    fn get_mut(&mut self, f: FileId) -> Result<&mut FileBuf<Loc>> {
        self.table.get_mut(&f).ok_or(KvError::NoSuchFile(f.0))
    }

    fn remove(&mut self, f: FileId) -> Result<FileBuf<Loc>> {
        let fb = self.table.remove(&f).ok_or(KvError::NoSuchFile(f.0))?;
        let class = fb.hint.class().0 as usize;
        if self.capacity.len() <= class {
            self.capacity.resize(class + 1, 0);
        }
        self.capacity[class] = self.capacity[class].max(fb.content.len());
        Ok(fb)
    }
}

/// In-memory file body plus flush bookkeeping shared by both backends.
#[derive(Debug)]
struct FileBuf<Loc> {
    hint: FileHint,
    /// The file's bytes, shared with every [`FileView`] read from them.
    content: Arc<Vec<u8>>,
    /// Device locations of flushed complete pages, in page order.
    pages: Vec<Loc>,
    /// Bytes of the tail that were force-synced (devalued on growth).
    synced_tail: Option<Loc>,
    /// Bytes guaranteed on the device: complete flushed pages plus any
    /// synced tail prefix. Data past this point dies in a crash.
    durable: u64,
}

impl<Loc> FileBuf<Loc> {
    fn new(hint: FileHint, capacity: usize) -> Self {
        FileBuf {
            hint,
            content: Arc::new(Vec::with_capacity(capacity)),
            pages: Vec::new(),
            synced_tail: None,
            durable: 0,
        }
    }

    /// Appends to the content, copying it first if a view still shares it.
    fn append(&mut self, data: &[u8]) {
        Arc::make_mut(&mut self.content).extend_from_slice(data);
    }

    fn len(&self) -> u64 {
        self.content.len() as u64
    }

    /// True while a complete page of content has no device location.
    fn has_unflushed_page(&self, page: u64) -> bool {
        (self.pages.len() as u64) < self.len() / page
    }

    /// Records the next complete page as written at `loc`.
    fn push_page(&mut self, loc: Loc, page: u64) {
        self.pages.push(loc);
        self.durable = self.durable.max(self.pages.len() as u64 * page);
    }

    /// A view of `[offset, offset + len)` and the device locations of the
    /// flushed pages that range touches — pages still in the tail buffer
    /// cost no device read. `offset` and `len` may come straight from
    /// file bytes (an SST footer), so the sum is checked.
    fn view(&self, f: FileId, offset: u64, len: u64, page: u64) -> Result<(FileView, &[Loc])> {
        let file_len = self.len();
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= file_len)
            .ok_or(KvError::ShortRead {
                file: f.0,
                offset,
                len,
                file_len,
            })?;
        let first = (offset / page) as usize;
        let last = ((offset + len.max(1) - 1) / page) as usize;
        let flushed = self.pages.len().min(last + 1);
        let view = FileView {
            buf: Arc::clone(&self.content),
            start: offset as usize,
            end: end as usize,
        };
        Ok((view, self.pages.get(first..flushed).unwrap_or(&[])))
    }
}

// ---------------------------------------------------------------------------
// Conventional backend
// ---------------------------------------------------------------------------

/// File storage over a conventional block-interface SSD.
pub struct ConvBackend {
    ssd: ConvSsd,
    files: Files<u64>,
    lbas: LbaPool,
    host_pages: u64,
    /// Issue TRIM for deleted files' pages. Defaults to true (the
    /// device's best case). Many production filesystems run without
    /// online discard (mount-option defaults, performance regressions,
    /// passthrough layers that drop it), leaving dead data mapped until
    /// the LBA is rewritten — the regime behind the paper's cited 5x
    /// RocksDB device WA. `without_trim()` models that.
    trim_on_delete: bool,
}

/// The conventional backend's logical addresses.
#[derive(Default)]
struct LbaPool {
    /// Freed LBAs, reused LIFO — the address churn that defeats any
    /// lifetime inference by the device.
    free: Vec<u64>,
    next: u64,
    /// Counter driving hashed free-LBA reuse in no-discard mode.
    reuse_counter: u64,
}

impl LbaPool {
    /// The last freed address (a hashed pick among the freed ones when
    /// `hashed`), else the next never-used one below `capacity`.
    fn alloc(&mut self, hashed: bool, capacity: u64) -> Result<u64> {
        if hashed && !self.free.is_empty() {
            // Without discard the allocator has aged free space of mixed
            // provenance; model the resulting decorrelated reuse by
            // picking a hashed position instead of strict LIFO.
            self.reuse_counter = self.reuse_counter.wrapping_add(1);
            let idx = (self.reuse_counter.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as usize
                % self.free.len();
            return Ok(self.free.swap_remove(idx));
        }
        if let Some(lba) = self.free.pop() {
            return Ok(lba);
        }
        if self.next < capacity {
            self.next += 1;
            return Ok(self.next - 1);
        }
        Err(device("conventional SSD out of logical space"))
    }
}

impl ConvBackend {
    /// Creates a backend over `ssd`.
    pub fn new(ssd: ConvSsd) -> Self {
        ConvBackend {
            ssd,
            files: Files::new(),
            lbas: LbaPool::default(),
            host_pages: 0,
            trim_on_delete: true,
        }
    }

    /// Disables TRIM on file delete (no-online-discard deployments); see
    /// the field documentation for why this is a realistic configuration.
    pub fn without_trim(mut self) -> Self {
        self.trim_on_delete = false;
        self
    }

    /// The underlying SSD, for statistics.
    pub fn ssd(&self) -> &ConvSsd {
        &self.ssd
    }

    /// Writes one host page at `lba`. Takes the fields it needs rather
    /// than `self`, so callers can hold a file entry across it.
    fn write_page(ssd: &mut ConvSsd, host_pages: &mut u64, lba: u64, now: Nanos) -> Result<Nanos> {
        let out = ssd.write(lba, now).map_err(device)?;
        *host_pages += 1;
        Ok(out.done)
    }
}

impl StorageBackend for ConvBackend {
    fn create(&mut self, hint: FileHint) -> FileId {
        self.files.create(hint)
    }

    fn append(&mut self, f: FileId, data: &[u8], now: Nanos) -> Result<Nanos> {
        let page = self.page_bytes() as u64;
        let fb = self.files.get_mut(f)?;
        fb.append(data);
        let mut t = now;
        while fb.has_unflushed_page(page) {
            // A previously synced tail page is now complete: rewrite it in
            // place (the conventional interface allows that).
            let lba = match fb.synced_tail.take() {
                Some(lba) => lba,
                None => self
                    .lbas
                    .alloc(!self.trim_on_delete, self.ssd.capacity_pages())?,
            };
            t = Self::write_page(&mut self.ssd, &mut self.host_pages, lba, t)?;
            fb.push_page(lba, page);
        }
        Ok(t)
    }

    fn sync(&mut self, f: FileId, now: Nanos) -> Result<Nanos> {
        let page = self.page_bytes() as u64;
        let fb = self.files.get_mut(f)?;
        if fb.len().is_multiple_of(page) {
            return Ok(now);
        }
        // Rewrite the tail at its existing LBA, or allocate one.
        let lba = match fb.synced_tail {
            Some(lba) => lba,
            None => {
                let lba = self
                    .lbas
                    .alloc(!self.trim_on_delete, self.ssd.capacity_pages())?;
                fb.synced_tail = Some(lba);
                lba
            }
        };
        let done = Self::write_page(&mut self.ssd, &mut self.host_pages, lba, now)?;
        fb.durable = fb.len();
        Ok(done)
    }

    fn read(&mut self, f: FileId, offset: u64, len: u64, now: Nanos) -> Result<(Vec<u8>, Nanos)> {
        let (view, done) = self.read_shared(f, offset, len, now)?;
        Ok((view.to_vec(), done))
    }

    fn read_shared(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> Result<(FileView, Nanos)> {
        let page = self.page_bytes() as u64;
        let fb = self.files.get(f)?;
        let (view, lbas) = fb.view(f, offset, len, page)?;
        let mut t = now;
        for &lba in lbas {
            let done = self.ssd.read_timed(lba, now).map_err(device)?;
            t = t.max(done);
        }
        Ok((view, t))
    }

    fn len(&self, f: FileId) -> Result<u64> {
        Ok(self.files.get(f)?.len())
    }

    fn delete(&mut self, f: FileId, now: Nanos) -> Result<Nanos> {
        let fb = self.files.remove(f)?;
        for lba in fb.pages.into_iter().chain(fb.synced_tail) {
            if self.trim_on_delete {
                self.ssd.trim(lba).map_err(device)?;
            }
            self.lbas.free.push(lba);
        }
        Ok(now)
    }

    fn maintenance(&mut self, _now: Nanos) -> Result<Nanos> {
        // The conventional device garbage-collects internally, on its own
        // opaque schedule; there is nothing for the host to do — which is
        // the paper's point.
        Ok(_now)
    }

    fn durable_len(&self, f: FileId) -> Result<u64> {
        Ok(self.files.get(f)?.durable)
    }

    fn page_bytes(&self) -> u32 {
        self.ssd.page_bytes()
    }

    fn device_write_amplification(&self) -> f64 {
        self.ssd.write_amplification()
    }

    fn host_pages_written(&self) -> u64 {
        self.host_pages
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.ssd.set_tracer(tracer);
    }

    fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.ssd.obs_into(snap);
    }
}

// ---------------------------------------------------------------------------
// ZNS backend (ZenFS-like)
// ---------------------------------------------------------------------------

/// File storage over a zoned device with lifetime-class zone placement.
///
/// Generic over the substrate ([`ZnsDevice`] by default; bh-zbd's
/// durable emulator works identically).
pub struct ZnsBackend<D: ZonedDevice = ZnsDevice> {
    /// Every flushed page and synced tail is recorded for relocation. Of
    /// equal-garbage victims, reclaim takes the highest zone id.
    ledger: ZoneLedger<D, FileId>,
    files: Files<ZonedLocation>,
    /// Host pages written, relocations not included.
    host_pages: u64,
    stamp: u64,
}

/// The files reclaim relocates and the stamp sequence their pages take.
struct Survivors<'a>(&'a mut Files<ZonedLocation>, &'a mut u64);

/// The page index a file's synced tail is recorded under.
const TAIL: u64 = u64::MAX;

impl<D> Relocate<D> for Survivors<'_> {
    type Key = FileId;

    fn survivor(
        &mut self,
        _: &mut D,
        file: FileId,
        index: u64,
        at: ZonedLocation,
        now: Nanos,
    ) -> bh_host::Result<Option<Survivor<'_>>> {
        let Ok(fb) = self.0.get_mut(file) else {
            return Ok(None);
        };
        let class = fb.hint.class();
        let slot = match index {
            TAIL => fb.synced_tail.as_mut(),
            _ => fb.pages.get_mut(index as usize),
        };
        let Some(slot) = slot.filter(|l| **l == at) else {
            return Ok(None);
        };
        *self.1 += 1;
        Ok(Some((slot, class, *self.1, now)))
    }
}

impl<D: ZonedDevice> ZnsBackend<D> {
    /// Creates a backend over `dev`.
    pub fn new(dev: D) -> Self {
        ZnsBackend {
            ledger: ZoneLedger::new(dev, Tie::HighestId),
            files: Files::new(),
            host_pages: 0,
            stamp: 0,
        }
    }

    /// The underlying zoned device, for statistics.
    pub fn device(&self) -> &D {
        &self.ledger.dev
    }

    /// Pages relocated by host reclaim so far.
    pub fn relocated_pages(&self) -> u64 {
        self.ledger.relocated
    }

    /// Writes page `index` of `f` (its synced tail at [`TAIL`]) as a
    /// host page of `class` under the next stamp, cleaning first as
    /// [`ZoneLedger::make_room`] does. Cleaning may move any file's
    /// pages, so a caller looks its file up again.
    fn append_page(
        &mut self,
        (f, index): (FileId, u64),
        class: LifetimeClass,
        now: Nanos,
    ) -> Result<(ZonedLocation, Nanos)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut survivors = Survivors(&mut self.files, &mut self.stamp);
        let t = self.ledger.make_room(&mut survivors, now).map_err(device)?;
        let placed = self
            .ledger
            .write(&mut survivors, (f, index), class, stamp, t)
            .map_err(device)?;
        self.host_pages += 1;
        Ok(placed)
    }

    /// Resets every Full zone with no live page. Returns the completion
    /// instant, `now` when there was none.
    fn reset_dead(&mut self, now: Nanos) -> Result<Nanos> {
        let zones = self.ledger.dev.zone_report().iter();
        let dead: Vec<ZoneId> = zones
            .filter(|z| z.state() == ZoneState::Full && self.ledger.live(z.id()) == 0)
            .map(|z| z.id())
            .collect();
        let mut t = now;
        for z in dead {
            t = self.ledger.reset(z, t).map_err(device)?;
        }
        Ok(t)
    }
}

impl<D: ZonedDevice> StorageBackend for ZnsBackend<D> {
    fn create(&mut self, hint: FileHint) -> FileId {
        self.files.create(hint)
    }

    fn append(&mut self, f: FileId, data: &[u8], now: Nanos) -> Result<Nanos> {
        let page = self.page_bytes() as u64;
        let mut fb = self.files.get_mut(f)?;
        fb.append(data);
        let class = fb.hint.class();
        let mut t = now;
        while fb.has_unflushed_page(page) {
            // A synced partial tail cannot be extended in place on ZNS:
            // the completed page goes to a fresh slot and the synced copy
            // becomes garbage.
            if let Some(old) = fb.synced_tail.take() {
                self.ledger.discard(old.zone);
            }
            let index = fb.pages.len() as u64;
            let (loc, done) = self.append_page((f, index), class, t)?;
            fb = self.files.get_mut(f)?;
            t = done;
            fb.push_page(loc, page);
        }
        Ok(t)
    }

    fn sync(&mut self, f: FileId, now: Nanos) -> Result<Nanos> {
        let page = self.page_bytes() as u64;
        let fb = self.files.get_mut(f)?;
        if fb.len().is_multiple_of(page) {
            return Ok(now);
        }
        // Each tail sync burns a fresh slot; the previous synced copy (if
        // any) becomes garbage. This is the ZNS WAL-sync cost.
        if let Some(old) = fb.synced_tail.take() {
            self.ledger.discard(old.zone);
        }
        let class = fb.hint.class();
        let (loc, done) = self.append_page((f, TAIL), class, now)?;
        let fb = self.files.get_mut(f)?;
        fb.synced_tail = Some(loc);
        fb.durable = fb.len();
        Ok(done)
    }

    fn read(&mut self, f: FileId, offset: u64, len: u64, now: Nanos) -> Result<(Vec<u8>, Nanos)> {
        let (view, done) = self.read_shared(f, offset, len, now)?;
        Ok((view.to_vec(), done))
    }

    fn read_shared(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> Result<(FileView, Nanos)> {
        let page = self.page_bytes() as u64;
        let fb = self.files.get(f)?;
        let (view, locs) = fb.view(f, offset, len, page)?;
        let mut t = now;
        for loc in locs {
            let done = self
                .ledger
                .dev
                .read_timed(loc.zone, loc.offset, now)
                .map_err(device)?;
            t = t.max(done);
        }
        Ok((view, t))
    }

    fn len(&self, f: FileId) -> Result<u64> {
        Ok(self.files.get(f)?.len())
    }

    fn delete(&mut self, f: FileId, now: Nanos) -> Result<Nanos> {
        let fb = self.files.remove(f)?;
        for loc in fb.pages.into_iter().chain(fb.synced_tail) {
            self.ledger.discard(loc.zone);
        }
        Ok(now)
    }

    fn maintenance(&mut self, now: Nanos) -> Result<Nanos> {
        // Reset any fully dead zones; cheap and host-scheduled.
        self.reset_dead(now)
    }

    fn durable_len(&self, f: FileId) -> Result<u64> {
        Ok(self.files.get(f)?.durable)
    }

    fn page_bytes(&self) -> u32 {
        self.ledger.dev.page_bytes()
    }

    fn device_write_amplification(&self) -> f64 {
        self.ledger.dev.flash_stats().write_amplification()
    }

    fn host_pages_written(&self) -> u64 {
        // Relocation is host-issued I/O here.
        self.host_pages + self.ledger.relocated
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.ledger.alloc.set_tracer(tracer.clone());
        self.ledger.dev.set_tracer(tracer);
    }

    fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.ledger.dev.obs_into(snap);
        self.ledger.alloc.obs_into(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_conv::ConvConfig;
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::ZnsConfig;

    fn conv() -> ConvBackend {
        let geo = Geometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            blocks_per_plane: 16,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        ConvBackend::new(ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.15)).unwrap())
    }

    fn zns() -> ZnsBackend {
        let geo = Geometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            blocks_per_plane: 16,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(geo), 4);
        cfg.max_active_zones = 12;
        cfg.max_open_zones = 12;
        ZnsBackend::new(ZnsDevice::new(cfg).unwrap())
    }

    fn roundtrip(backend: &mut dyn StorageBackend) {
        let f = backend.create(FileHint::Sst { level: 0 });
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let t = backend.append(f, &payload, Nanos::ZERO).unwrap();
        assert_eq!(backend.len(f).unwrap(), 10_000);
        let (back, done) = backend.read(f, 100, 5_000, t).unwrap();
        assert_eq!(&back[..], &payload[100..5_100]);
        assert!(done >= t);
    }

    #[test]
    fn conv_roundtrip() {
        roundtrip(&mut conv());
    }

    #[test]
    fn zns_roundtrip() {
        roundtrip(&mut zns());
    }

    fn sync_then_grow(backend: &mut dyn StorageBackend) -> u64 {
        let f = backend.create(FileHint::Wal);
        let mut t = Nanos::ZERO;
        // 100 bytes, sync, 100 bytes, sync, then grow past a page.
        t = backend.append(f, &[1u8; 100], t).unwrap();
        t = backend.sync(f, t).unwrap();
        t = backend.append(f, &[2u8; 100], t).unwrap();
        t = backend.sync(f, t).unwrap();
        t = backend.append(f, &vec![3u8; 8192], t).unwrap();
        let (data, _) = backend.read(f, 0, 200, t).unwrap();
        assert_eq!(data[0], 1);
        assert_eq!(data[150], 2);
        backend.host_pages_written()
    }

    #[test]
    fn conv_sync_rewrites_in_place() {
        let mut b = conv();
        let pages = sync_then_grow(&mut b);
        // 2 tail syncs + rewrite-on-completion + 2 complete pages: the
        // LBA count stays small because rewrites reuse the address.
        assert!(pages >= 4, "pages {pages}");
    }

    #[test]
    fn zns_sync_burns_fresh_slots() {
        let mut b = zns();
        let pages = sync_then_grow(&mut b);
        assert!(pages >= 4, "pages {pages}");
        // The superseded synced tails are garbage now, visible as
        // live < written in the WAL zone.
        let total_live: u64 = (0..b.device().num_zones())
            .map(|z| b.ledger.live(ZoneId(z)))
            .sum();
        assert!(total_live < pages);
    }

    /// Every recorded location of `b`'s files — flushed pages and synced
    /// tails — is written on the device, no two share a slot, and each
    /// zone's live count is exactly the locations in it. A clean that
    /// reset a zone under a live page breaks the first or the last.
    fn assert_locations_hold<D: ZonedDevice>(b: &ZnsBackend<D>) {
        let mut live = vec![0u64; b.device().num_zones() as usize];
        let mut seen = std::collections::HashSet::new();
        for fb in b.files.table.values() {
            for &loc in fb.pages.iter().chain(&fb.synced_tail) {
                let zone = &b.device().zone_report()[loc.zone.0 as usize];
                assert!(loc.offset < zone.write_pointer(), "{loc:?} unwritten");
                assert!(seen.insert(loc), "{loc:?} held twice");
                live[loc.zone.0 as usize] += 1;
            }
        }
        for (z, &n) in live.iter().enumerate() {
            assert_eq!(b.ledger.live(ZoneId(z as u32)), n, "zone {z}");
        }
    }

    /// With one zone left empty, the next write cleans to two: the Full
    /// zones with the most garbage go first, their survivors move to the
    /// WAL's open zone, and every byte stays readable. Of equal-garbage
    /// zones the highest id goes.
    #[test]
    fn zns_reclaim_relocates_the_last_of_equal_garbage_zones() {
        let mut b = zns();
        let page = vec![0u8; 4096];
        let mut t = Nanos::ZERO;
        // Zones 0–4 each end up half dead, and the WAL's open zone 5
        // has room for one zone's survivors.
        let (keep, gone) = (b.create(FileHint::Wal), b.create(FileHint::Wal));
        for _ in 0..165 {
            for f in [keep, gone] {
                t = b.append(f, &page, t).unwrap();
            }
        }
        b.delete(gone, t).unwrap();
        // Zones 6–15 fill with live SST pages; the write that leaves one
        // zone empty cleans.
        let sst = b.create(FileHint::Sst { level: 0 });
        for _ in 0..641 {
            t = b.append(sst, &page, t).unwrap();
        }
        assert_eq!(b.relocated_pages(), 96);
        let resets: Vec<u64> = b
            .device()
            .zone_report()
            .iter()
            .map(|z| z.resets())
            .collect();
        assert_eq!(resets, [0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_locations_hold(&b);
        for f in [keep, sst] {
            let len = b.len(f).unwrap();
            let (data, _) = b.read(f, 0, len, t).unwrap();
            assert!(data.iter().all(|&x| x == 0));
        }
    }

    /// Two interleaved WAL files over half the device, one deleted, leave
    /// every Full zone half garbage; the kept file's synced tail is the
    /// last slot of zone 7. A third file then writes more than the free
    /// space: cleaning must start while one zone is still empty, move
    /// the survivors (the tail included) and keep every durable byte.
    #[test]
    fn zns_cleans_half_dead_zones_before_the_last_one_fills() {
        let mut b = zns();
        let mut t = Nanos::ZERO;
        let (keep, gone) = (b.create(FileHint::Wal), b.create(FileHint::Wal));
        let bytes = |f: FileId, i: u64| vec![(f.0 * 7 + i) as u8; 4096];
        for i in 0..255 {
            for f in [keep, gone] {
                t = b.append(f, &bytes(f, i), t).unwrap();
            }
        }
        t = b.append(gone, &bytes(gone, 255), t).unwrap();
        t = b.append(keep, &[0xA5; 100], t).unwrap();
        t = b.sync(keep, t).unwrap();
        let tail = b.files.get(keep).unwrap().synced_tail;
        assert_eq!(tail.map(|l| (l.zone, l.offset)), Some((ZoneId(7), 63)));
        t = b.delete(gone, t).unwrap();
        let third = b.create(FileHint::Wal);
        for i in 0..600 {
            t = b.append(third, &bytes(third, i), t).unwrap();
        }
        assert_eq!(b.relocated_pages(), 224);
        assert_ne!(
            b.files.get(keep).unwrap().synced_tail,
            tail,
            "the tail moved"
        );
        assert_locations_hold(&b);
        let durable = 255 * 4096 + 100;
        assert_eq!(b.durable_len(keep).unwrap(), durable);
        let (data, _) = b.read(keep, 0, durable, t).unwrap();
        for (i, chunk) in data.chunks(4096).enumerate() {
            let want = if i < 255 {
                bytes(keep, i as u64)
            } else {
                vec![0xA5; 100]
            };
            assert_eq!(chunk, &want[..], "page {i}");
        }
        let (data, _) = b.read(third, 0, 600 * 4096, t).unwrap();
        for (i, chunk) in data.chunks(4096).enumerate() {
            assert_eq!(chunk, &bytes(third, i as u64)[..], "page {i}");
        }
    }

    fn delete_frees_space(backend: &mut dyn StorageBackend) {
        let mut t = Nanos::ZERO;
        // Churn files until well past the device's raw capacity; deletes
        // must keep space available.
        for round in 0..40 {
            let f = backend.create(FileHint::Sst { level: 0 });
            t = backend.append(f, &vec![round as u8; 16 * 4096], t).unwrap();
            t = backend.delete(f, t).unwrap();
            t = backend.maintenance(t).unwrap();
        }
    }

    #[test]
    fn conv_delete_frees_space() {
        delete_frees_space(&mut conv());
    }

    #[test]
    fn zns_delete_frees_space() {
        delete_frees_space(&mut zns());
    }

    #[test]
    fn zns_levels_get_distinct_zones() {
        let mut b = zns();
        let f0 = b.create(FileHint::Sst { level: 0 });
        let f1 = b.create(FileHint::Sst { level: 3 });
        b.append(f0, &[0u8; 4096], Nanos::ZERO).unwrap();
        b.append(f1, &[1u8; 4096], Nanos::ZERO).unwrap();
        let z0 = b.files.get(f0).unwrap().pages[0].zone;
        let z1 = b.files.get(f1).unwrap().pages[0].zone;
        assert_ne!(z0, z1, "levels must not share zones");
    }

    #[test]
    fn short_read_is_detected() {
        let mut b = conv();
        let f = b.create(FileHint::Wal);
        b.append(f, &[0u8; 10], Nanos::ZERO).unwrap();
        assert!(matches!(
            b.read(f, 5, 10, Nanos::ZERO),
            Err(KvError::ShortRead { .. })
        ));
        assert!(matches!(
            b.read(FileId(99), 0, 1, Nanos::ZERO),
            Err(KvError::NoSuchFile(99))
        ));
        // A range whose end overflows u64 is a short read, not a panic.
        for (offset, len) in [(u64::MAX, 2), (2, u64::MAX), (u64::MAX, u64::MAX)] {
            assert!(matches!(
                b.read(f, offset, len, Nanos::ZERO),
                Err(KvError::ShortRead { .. })
            ));
        }
    }

    /// Two backends built alike and driven by the same calls, one reading
    /// with `read` and one with `read_shared`. Both must agree on every
    /// result: bytes, instants and errors. Every later instant depends on
    /// the device reads each read charged, so they must agree on those
    /// too.
    struct Twin<B> {
        copied: B,
        shared: B,
    }

    impl<B: StorageBackend> Twin<B> {
        fn append(&mut self, f: FileId, data: &[u8], now: Nanos) -> Nanos {
            let t = self.copied.append(f, data, now).unwrap();
            assert_eq!(self.shared.append(f, data, now).unwrap(), t);
            t
        }

        fn sync(&mut self, f: FileId, now: Nanos) -> Nanos {
            let t = self.copied.sync(f, now).unwrap();
            assert_eq!(self.shared.sync(f, now).unwrap(), t);
            t
        }

        fn read(
            &mut self,
            f: FileId,
            offset: u64,
            len: u64,
            now: Nanos,
        ) -> Result<(Vec<u8>, Nanos)> {
            let copied = self.copied.read(f, offset, len, now);
            let shared = self
                .shared
                .read_shared(f, offset, len, now)
                .map(|(view, done)| (view.to_vec(), done));
            assert_eq!(copied, shared, "[{offset}, +{len}) at {now:?}");
            copied
        }

        /// Reads a spread of ranges of `f`, whose bytes are `content`:
        /// whole, empty, page-straddling, short and overflowing. Returns
        /// the last completion instant.
        fn read_ranges(&mut self, f: FileId, content: &[u8], now: Nanos) -> Nanos {
            let page = self.copied.page_bytes() as u64;
            let len = content.len() as u64;
            let ranges = [
                (0, len),
                (0, 0),
                (len, 0),
                (1, len - 1),
                (page - 10, 20),
                (2 * page - 1, 2),
                (3 * page, 50),
                (0, len + 1),
                (len + 1, 0),
                (u64::MAX, 2),
                (2, u64::MAX),
                (u64::MAX, u64::MAX),
            ];
            let mut t = now;
            for (offset, n) in ranges {
                match self.read(f, offset, n, t) {
                    Ok((bytes, done)) => {
                        assert_eq!(bytes, content[offset as usize..][..n as usize]);
                        assert!(done >= t);
                        t = done;
                    }
                    Err(e) => assert!(
                        matches!(e, KvError::ShortRead { .. })
                            && offset.checked_add(n).is_none_or(|end| end > len),
                        "[{offset}, +{n}) of {len}: {e}"
                    ),
                }
            }
            t
        }
    }

    fn shared_reads_match_copied_reads<B: StorageBackend>(make: fn() -> B) {
        let mut twin = Twin {
            copied: make(),
            shared: make(),
        };
        let page = twin.copied.page_bytes() as usize;
        let f = twin.copied.create(FileHint::Wal);
        assert_eq!(twin.shared.create(FileHint::Wal), f);
        let payload: Vec<u8> = (0..3 * page + 100).map(|i| (i % 251) as u8).collect();
        // Tail buffer only, then a synced tail, then flushed pages after
        // the synced tail completed, then a synced tail behind flushed
        // pages, then more flushed pages.
        let mut t = twin.append(f, &payload[..100], Nanos::ZERO);
        t = twin.read_ranges(f, &payload[..100], t);
        t = twin.sync(f, t);
        t = twin.read_ranges(f, &payload[..100], t);
        t = twin.append(f, &payload[100..2 * page + 50], t);
        t = twin.read_ranges(f, &payload[..2 * page + 50], t);
        t = twin.sync(f, t);
        t = twin.read_ranges(f, &payload[..2 * page + 50], t);
        t = twin.append(f, &payload[2 * page + 50..], t);
        t = twin.read_ranges(f, &payload, t);
        assert!(matches!(
            twin.read(FileId(99), 0, 1, t),
            Err(KvError::NoSuchFile(99))
        ));
    }

    #[test]
    fn conv_shared_reads_match_copied_reads() {
        shared_reads_match_copied_reads(conv);
    }

    #[test]
    fn zns_shared_reads_match_copied_reads() {
        shared_reads_match_copied_reads(zns);
    }

    fn a_view_keeps_its_bytes_across_an_append(backend: &mut dyn StorageBackend) {
        let f = backend.create(FileHint::Wal);
        let t = backend.append(f, &[1; 100], Nanos::ZERO).unwrap();
        let (view, _) = backend.read_shared(f, 0, 100, t).unwrap();
        // Grows the buffer and flushes pages while the view shares it.
        let t = backend.append(f, &[2; 2 * 4096], t).unwrap();
        assert_eq!(&view[..], &[1; 100]);
        let (after, _) = backend.read_shared(f, 50, 100, t).unwrap();
        assert_eq!(&after[..50], &[1; 50]);
        assert_eq!(&after[50..], &[2; 50]);
    }

    #[test]
    fn conv_view_keeps_its_bytes_across_an_append() {
        a_view_keeps_its_bytes_across_an_append(&mut conv());
    }

    #[test]
    fn zns_view_keeps_its_bytes_across_an_append() {
        a_view_keeps_its_bytes_across_an_append(&mut zns());
    }

    #[test]
    fn zns_reclaim_relocates_survivors_when_needed() {
        let mut b = zns();
        let mut t = Nanos::ZERO;
        // One long-lived file interleaved with short-lived churn in the
        // SAME class so zones end up partially live.
        let keeper = b.create(FileHint::Sst { level: 0 });
        let mut dead_files = Vec::new();
        for i in 0..30 {
            t = b.append(keeper, &vec![9u8; 4096], t).unwrap();
            let f = b.create(FileHint::Sst { level: 0 });
            t = b.append(f, &vec![i as u8; 2 * 4096], t).unwrap();
            dead_files.push(f);
        }
        for f in dead_files {
            t = b.delete(f, t).unwrap();
        }
        // Keep writing: reclaim must relocate the keeper's pages.
        for _ in 0..40 {
            let f = b.create(FileHint::Sst { level: 0 });
            t = b.append(f, &vec![7u8; 2 * 4096], t).unwrap();
            t = b.delete(f, t).unwrap();
        }
        let (data, _) = b.read(keeper, 0, 30 * 4096, t).unwrap();
        assert!(data.iter().all(|&x| x == 9));
    }
}
