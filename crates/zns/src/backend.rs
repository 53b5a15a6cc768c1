//! The zoned-device substrate seam.
//!
//! Everything above the device — blockemu's FTL emulation, the zone
//! allocator, bh-kv, bh-cache — drives a zoned namespace through this
//! trait rather than `ZnsDevice` directly, so a second substrate
//! (bh-zbd's file-backed emulator, or later a vroom-style userspace
//! NVMe driver) can slot in without touching host code. The methods are
//! exactly the zoned command set the host stacks use: zone report,
//! open/close/finish/reset, write-at-pointer, zone append, read, simple
//! copy, plus the admin plane (faults, power cycling, trace/obs
//! installation).
//!
//! All implementations share [`ZnsError`] and the [`Zone`] descriptor,
//! so host-side error handling and zone-report consumers are
//! substrate-agnostic by construction.

use crate::device::ZnsStats;
use crate::zone::{Zone, ZoneId};
use crate::Result;
use bh_faults::FaultConfig;
use bh_flash::{FlashStats, Stamp};
use bh_metrics::Nanos;
use bh_obs::Obs;
use bh_trace::Tracer;

/// A zoned block device: the command surface host stacks are written
/// against.
///
/// Implementations must enforce the ZNS zone state machine —
/// write-pointer discipline, MAR/MOR limits, implicit open/close — with
/// the semantics [`crate::ZoneTable`] defines (both in-tree devices hold
/// one and add only their media); the conformance matrix in
/// [`crate::conformance`] checks any implementation against one
/// transition table.
pub trait ZonedDevice {
    /// Number of zones in the namespace.
    fn num_zones(&self) -> u32;

    /// Writable capacity of a pristine zone, in pages.
    fn zone_capacity(&self) -> u64;

    /// Bytes per page (the namespace LBA size).
    fn page_bytes(&self) -> u32;

    /// A zone descriptor (the Zone Management Receive view).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ZnsError::ZoneOutOfRange`] for unknown ids.
    fn zone(&self, id: ZoneId) -> Result<&Zone>;

    /// All zone descriptors in id order — the full zone report.
    fn zone_report(&self) -> &[Zone];

    /// Zones currently counting against the active limit.
    fn active_zones(&self) -> u32;

    /// Zones currently counting against the open limit.
    fn open_zones(&self) -> u32;

    /// Zones currently Empty. Must be O(1): host allocators poll this
    /// before every write.
    fn empty_zones(&self) -> u32;

    /// Explicitly opens a zone (Zone Management Send: Open).
    ///
    /// # Errors
    ///
    /// Fails when the zone cannot open in its current state or the
    /// active/open limits are exhausted with no implicit victim.
    fn open(&mut self, id: ZoneId) -> Result<()>;

    /// Closes an opened zone (Zone Management Send: Close).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ZnsError::WrongState`] unless the zone is opened.
    fn close(&mut self, id: ZoneId) -> Result<()>;

    /// Finishes a zone: moves it to Full, releasing active/open
    /// resources.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ZnsError::WrongState`] for read-only/offline
    /// zones.
    fn finish(&mut self, id: ZoneId) -> Result<()>;

    /// Resets a zone, rewinding its write pointer. Returns the completion
    /// instant.
    ///
    /// # Errors
    ///
    /// Fails for read-only/offline zones.
    fn reset(&mut self, id: ZoneId, now: Nanos) -> Result<Nanos>;

    /// Writes one page at `offset`, which must equal the write pointer.
    /// Returns the completion instant.
    ///
    /// # Errors
    ///
    /// Fails off-pointer, on full/read-only/offline zones, or when a
    /// transient program failure burns the slot.
    fn write(&mut self, id: ZoneId, offset: u64, stamp: Stamp, now: Nanos) -> Result<Nanos>;

    /// Appends one page, letting the device pick the offset (NVMe Zone
    /// Append). Returns the assigned offset and the completion instant.
    ///
    /// # Errors
    ///
    /// Fails on full/read-only/offline zones or burned slots.
    fn append(&mut self, id: ZoneId, stamp: Stamp, now: Nanos) -> Result<(u64, Nanos)>;

    /// Reads one page below the write pointer. Returns the stored stamp
    /// and the completion instant.
    ///
    /// # Errors
    ///
    /// Fails beyond the pointer, on offline zones, or on burned slots.
    fn read(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<(Stamp, Nanos)>;

    /// [`ZonedDevice::read`] for a caller that only needs the completion
    /// instant: the same checks, errors, device time and counters. The
    /// default drops the stamp; a substrate that can skip loading it
    /// overrides this.
    ///
    /// # Errors
    ///
    /// As [`ZonedDevice::read`].
    fn read_timed(&mut self, id: ZoneId, offset: u64, now: Nanos) -> Result<Nanos> {
        self.read(id, offset, now).map(|(_, done)| done)
    }

    /// Copies pages into `dst` at its write pointer without crossing the
    /// host bus (NVMe Simple Copy). Returns each source's destination
    /// offset and the completion instant.
    ///
    /// # Errors
    ///
    /// Fails if any source is unreadable or `dst` lacks room.
    fn simple_copy(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> Result<(Vec<u64>, Nanos)>;

    /// Failure injection for tests: forces a zone ReadOnly.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ZnsError::ZoneOutOfRange`] for unknown ids.
    fn inject_read_only(&mut self, id: ZoneId) -> Result<()>;

    /// Zoned-interface operation counters.
    fn zone_stats(&self) -> ZnsStats;

    /// Media-level statistics (programs, erases, copies, WA). Returned by
    /// value: substrates without a flash model synthesize them from their
    /// own counters.
    fn flash_stats(&self) -> FlashStats;

    /// Device work in flight at `now` — the queue-depth proxy reported
    /// through `BlockInterface::queue_depth`.
    fn busy_planes(&self, now: Nanos) -> u32;

    /// Installs a transient-fault plan.
    fn install_faults(&mut self, cfg: FaultConfig);

    /// Models a power loss and restart: volatile state is dropped and the
    /// zone map recovered from durable state. Returns the instant
    /// recovery completes.
    fn power_cycle(&mut self, now: Nanos) -> Nanos;

    /// Installs a tracer on the device.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Installs a live counter registry on the device.
    fn set_obs(&mut self, obs: Obs);

    /// Short substrate name (`"zns"`, `"zbd"`), for labels and reports.
    fn backend_label(&self) -> &'static str;
}
