//! Integration-test package: the tests live in `tests/tests/`, spanning
//! every crate in the workspace. This library holds only what several of
//! them share.

use bh_faults::FaultConfig;
use bh_flash::{FlashStats, Stamp};
use bh_metrics::Nanos;
use bh_obs::ObsSnapshot;
use bh_trace::Tracer;
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsError, ZnsStats, Zone, ZoneId};

mod polling;
mod scan;

pub use polling::PollingEngine;
pub use scan::{library_code, non_test_code, rust_files};

/// 64-bit FNV-1a over a call or event stream: the digest the lockstep
/// suites (`kv_lockstep.rs`, `conv_lockstep.rs`, `blockemu_lockstep.rs`)
/// pin.
pub struct Digest(pub u64);

impl Digest {
    /// The FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Folds one value, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A [`ZonedDevice`] that folds every mutating or timed call made
/// through it — the command, its arguments and everything it returns —
/// into one [`Digest`], then delegates to `inner`. A host stack driven
/// over it leaves the transcript of its device traffic in
/// [`RecordingZoned::digest`]; two host implementations with the same
/// digest issued the same commands at the same virtual instants and got
/// the same answers.
///
/// Read-only queries (zone reports, counters, limits) are not recorded:
/// how often a host *looks* is an implementation detail, what it *does*
/// is the contract.
pub struct RecordingZoned<D> {
    inner: D,
    /// The transcript so far.
    pub digest: Digest,
    /// Recorded calls so far.
    pub calls: u64,
}

impl<D: ZonedDevice> RecordingZoned<D> {
    /// Wraps `inner` with an empty transcript.
    pub fn new(inner: D) -> Self {
        RecordingZoned {
            inner,
            digest: Digest::new(),
            calls: 0,
        }
    }

    fn call(&mut self, tag: u8, zone: ZoneId, args: &[u64]) {
        self.calls += 1;
        self.digest.bytes(&[tag]);
        self.digest.u64(zone.0 as u64);
        for &a in args {
            self.digest.u64(a);
        }
    }

    /// Folds what a call returned: a marker, then the values or the
    /// error with every field of it.
    fn outcome<T>(&mut self, r: &Result<T, ZnsError>, values: impl FnOnce(&T, &mut Digest)) {
        match r {
            Ok(v) => {
                self.digest.bytes(b"+");
                values(v, &mut self.digest);
            }
            Err(e) => {
                self.digest.bytes(b"-");
                self.digest.bytes(format!("{e:?}").as_bytes());
            }
        }
    }
}

impl<D: ZonedDevice> ZonedDevice for RecordingZoned<D> {
    fn num_zones(&self) -> u32 {
        self.inner.num_zones()
    }

    fn zone_capacity(&self) -> u64 {
        self.inner.zone_capacity()
    }

    fn page_bytes(&self) -> u32 {
        self.inner.page_bytes()
    }

    fn zone(&self, id: ZoneId) -> bh_zns::Result<&Zone> {
        self.inner.zone(id)
    }

    fn zone_report(&self) -> &[Zone] {
        self.inner.zone_report()
    }

    fn active_zones(&self) -> u32 {
        self.inner.active_zones()
    }

    fn open_zones(&self) -> u32 {
        self.inner.open_zones()
    }

    fn empty_zones(&self) -> u32 {
        self.inner.empty_zones()
    }

    fn open(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        self.call(b'o', id, &[]);
        let r = self.inner.open(id);
        self.outcome(&r, |_, _| {});
        r
    }

    fn close(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        self.call(b'c', id, &[]);
        let r = self.inner.close(id);
        self.outcome(&r, |_, _| {});
        r
    }

    fn finish(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        self.call(b'f', id, &[]);
        let r = self.inner.finish(id);
        self.outcome(&r, |_, _| {});
        r
    }

    fn reset(&mut self, id: ZoneId, now: Nanos) -> bh_zns::Result<Nanos> {
        self.call(b'R', id, &[now.as_nanos()]);
        let r = self.inner.reset(id, now);
        self.outcome(&r, |done, d| d.u64(done.as_nanos()));
        r
    }

    fn write(
        &mut self,
        id: ZoneId,
        offset: u64,
        stamp: Stamp,
        now: Nanos,
    ) -> bh_zns::Result<Nanos> {
        self.call(b'w', id, &[offset, stamp, now.as_nanos()]);
        let r = self.inner.write(id, offset, stamp, now);
        self.outcome(&r, |done, d| d.u64(done.as_nanos()));
        r
    }

    fn append(&mut self, id: ZoneId, stamp: Stamp, now: Nanos) -> bh_zns::Result<(u64, Nanos)> {
        self.call(b'a', id, &[stamp, now.as_nanos()]);
        let r = self.inner.append(id, stamp, now);
        self.outcome(&r, |(offset, done), d| {
            d.u64(*offset);
            d.u64(done.as_nanos());
        });
        r
    }

    fn read(&mut self, id: ZoneId, offset: u64, now: Nanos) -> bh_zns::Result<(Stamp, Nanos)> {
        self.call(b'r', id, &[offset, now.as_nanos()]);
        let r = self.inner.read(id, offset, now);
        self.outcome(&r, |(stamp, done), d| {
            d.u64(*stamp);
            d.u64(done.as_nanos());
        });
        r
    }

    fn simple_copy(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> bh_zns::Result<(Vec<u64>, Nanos)> {
        self.call(b's', dst, &[now.as_nanos(), sources.len() as u64]);
        for &(zone, offset) in sources {
            self.digest.u64(zone.0 as u64);
            self.digest.u64(offset);
        }
        let r = self.inner.simple_copy(sources, dst, now);
        self.outcome(&r, |(placed, done), d| {
            d.u64(placed.len() as u64);
            for &offset in placed {
                d.u64(offset);
            }
            d.u64(done.as_nanos());
        });
        r
    }

    fn inject_read_only(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        self.call(b'i', id, &[]);
        let r = self.inner.inject_read_only(id);
        self.outcome(&r, |_, _| {});
        r
    }

    fn zone_stats(&self) -> ZnsStats {
        self.inner.zone_stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.inner.flash_stats()
    }

    fn busy_planes(&self, now: Nanos) -> u32 {
        self.inner.busy_planes(now)
    }

    fn install_faults(&mut self, cfg: FaultConfig) {
        self.inner.install_faults(cfg);
    }

    fn power_cycle(&mut self, now: Nanos) -> Nanos {
        self.call(b'P', ZoneId(u32::MAX), &[now.as_nanos()]);
        let done = self.inner.power_cycle(now);
        self.digest.u64(done.as_nanos());
        done
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn obs_into(&self, snap: &mut ObsSnapshot) {
        self.inner.obs_into(snap);
    }

    fn backend_label(&self) -> &'static str {
        self.inner.backend_label()
    }
}
