//! Zones as files, mirroring kernel zonefs semantics.
//!
//! §4.1 places zonefs at the raw end of the interface spectrum: "ZoneFS
//! treats zones as files with the same restrictions as zones themselves."
//! [`ZoneFs`] exposes exactly that: one file per zone, append-only writes,
//! reads below the file size, and truncation to zero as the only way to
//! delete data (a zone reset). There is no metadata layer, no GC, no
//! translation — the cheapest possible mapping of the API onto the
//! hardware.

use crate::error::HostError;
use crate::Result;
use bh_metrics::Nanos;
use bh_zns::{ZnsDevice, ZoneId, ZoneState, ZonedDevice};

/// A zonefs-like filesystem view of a ZNS device.
///
/// File `i` is zone `i`; file size is the zone's write pointer ×
/// page size; files can only grow by appending and shrink to zero.
pub struct ZoneFs {
    dev: ZnsDevice,
}

impl ZoneFs {
    /// Mounts the filesystem over `dev`.
    pub fn new(dev: ZnsDevice) -> Self {
        ZoneFs { dev }
    }

    /// Number of files (= zones).
    pub fn num_files(&self) -> u32 {
        self.dev.num_zones()
    }

    /// The underlying device.
    pub fn device(&self) -> &ZnsDevice {
        &self.dev
    }

    fn check_file(&self, file: u32) -> Result<ZoneId> {
        if file < self.dev.num_zones() {
            Ok(ZoneId(file))
        } else {
            Err(HostError::NoSuchFile(file))
        }
    }

    /// File size in pages (the zone's write pointer).
    pub fn size_pages(&self, file: u32) -> Result<u64> {
        let z = self.check_file(file)?;
        Ok(self.dev.zone(z)?.write_pointer())
    }

    /// Maximum file size in pages (the zone capacity).
    pub fn max_size_pages(&self, file: u32) -> Result<u64> {
        let z = self.check_file(file)?;
        Ok(self.dev.zone(z)?.capacity())
    }

    /// Appends one page to the file, returning its offset and the
    /// completion instant.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::FileFull`] when the file is at its maximum
    /// size.
    pub fn append(&mut self, file: u32, stamp: u64, now: Nanos) -> Result<(u64, Nanos)> {
        let z = self.check_file(file)?;
        if self.dev.zone(z)?.state() == ZoneState::Full {
            return Err(HostError::FileFull(file));
        }
        Ok(self.dev.append(z, stamp, now)?)
    }

    /// Reads the page at `offset`, which must be below the file size.
    pub fn read(&mut self, file: u32, offset: u64, now: Nanos) -> Result<(u64, Nanos)> {
        let z = self.check_file(file)?;
        Ok(self.dev.read(z, offset, now)?)
    }

    /// Truncates the file to zero length (resets the zone) — the only
    /// size-reducing operation zonefs allows. Returns the completion
    /// instant.
    pub fn truncate(&mut self, file: u32, now: Nanos) -> Result<Nanos> {
        let z = self.check_file(file)?;
        Ok(self.dev.reset(z, now)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::{FlashConfig, Geometry};
    use bh_zns::ZnsConfig;

    fn fs() -> ZoneFs {
        let mut cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4);
        cfg.max_active_zones = 8;
        cfg.max_open_zones = 8;
        ZoneFs::new(ZnsDevice::new(cfg).unwrap())
    }

    #[test]
    fn files_mirror_zones() {
        let f = fs();
        assert_eq!(f.num_files(), 8);
        assert_eq!(f.size_pages(0).unwrap(), 0);
        assert_eq!(f.max_size_pages(0).unwrap(), 64);
        assert!(matches!(f.size_pages(99), Err(HostError::NoSuchFile(99))));
    }

    #[test]
    fn append_grows_file() {
        let mut f = fs();
        let mut t = Nanos::ZERO;
        for i in 0..10u64 {
            let (off, done) = f.append(3, 100 + i, t).unwrap();
            assert_eq!(off, i);
            t = done;
        }
        assert_eq!(f.size_pages(3).unwrap(), 10);
        let (stamp, _) = f.read(3, 4, t).unwrap();
        assert_eq!(stamp, 104);
    }

    #[test]
    fn full_file_rejects_append() {
        let mut f = fs();
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            t = f.append(0, i, t).unwrap().1;
        }
        assert_eq!(f.append(0, 0, t).unwrap_err(), HostError::FileFull(0));
    }

    #[test]
    fn truncate_resets() {
        let mut f = fs();
        let mut t = Nanos::ZERO;
        for i in 0..5u64 {
            t = f.append(0, i, t).unwrap().1;
        }
        t = f.truncate(0, t).unwrap();
        assert_eq!(f.size_pages(0).unwrap(), 0);
        // Old data is gone; reads past size fail.
        assert!(f.read(0, 0, t).is_err());
        // Appending starts over at offset 0.
        let (off, _) = f.append(0, 9, t).unwrap();
        assert_eq!(off, 0);
    }
}
