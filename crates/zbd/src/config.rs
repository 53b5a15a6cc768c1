//! Geometry and timing for the file-backed zoned emulator.

use bh_zns::ZnsConfig;

/// Configuration for a [`crate::ZbdDevice`].
///
/// Unlike [`ZnsConfig`] there is no flash substrate underneath — the
/// media is a file (or memory buffer) — so the geometry is stated
/// directly in zones and pages, and timing is a fixed per-op cost
/// rather than a plane-scheduled model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZbdConfig {
    /// Zones in the namespace.
    pub num_zones: u32,
    /// Addressable pages per zone.
    pub zone_size_pages: u64,
    /// Writable pages per zone (≤ size).
    pub zone_capacity_pages: u64,
    /// Maximum zones in an active state (MAR).
    pub max_active_zones: u32,
    /// Maximum zones in an open state (MOR).
    pub max_open_zones: u32,
    /// Bytes per page (the namespace LBA size).
    pub page_bytes: u32,
    /// Burned slots since the last reset that force a zone ReadOnly.
    pub burns_to_readonly: u32,
    /// Fixed cost of a page read, in nanoseconds.
    pub read_ns: u64,
    /// Fixed cost of a page write, in nanoseconds.
    pub write_ns: u64,
    /// Fixed cost of a zone reset, in nanoseconds.
    pub reset_ns: u64,
}

impl ZbdConfig {
    /// A device of `num_zones` zones holding `zone_pages` pages each
    /// (capacity == size), with spec-typical limits and TLC-flavoured
    /// fixed latencies.
    pub fn new(num_zones: u32, zone_pages: u64) -> Self {
        ZbdConfig {
            num_zones,
            zone_size_pages: zone_pages,
            zone_capacity_pages: zone_pages,
            max_active_zones: 14,
            max_open_zones: 14,
            page_bytes: 4096,
            burns_to_readonly: ((zone_pages / 8) as u32).clamp(8, u32::MAX),
            read_ns: 50_000,
            write_ns: 700_000,
            reset_ns: 3_500_000,
        }
    }

    /// A zbd geometry mirroring `cfg`: same zone count, capacity, page
    /// size, MAR/MOR limits, and burn budget, so the two substrates are
    /// logically interchangeable under one op schedule.
    pub fn mirror(cfg: &ZnsConfig) -> Self {
        ZbdConfig {
            num_zones: cfg.num_zones(),
            zone_size_pages: cfg.zone_size_pages(),
            zone_capacity_pages: cfg.zone_capacity(),
            max_active_zones: cfg.max_active_zones,
            max_open_zones: cfg.max_open_zones,
            page_bytes: cfg.flash.geometry.page_bytes,
            burns_to_readonly: cfg.burns_to_readonly,
            ..ZbdConfig::new(0, 0)
        }
    }

    /// Sets both zone limits to `n`.
    pub fn with_zone_limits(mut self, n: u32) -> Self {
        self.max_active_zones = n;
        self.max_open_zones = n;
        self
    }

    /// Sets the active (MAR) and open (MOR) limits separately.
    pub fn with_limits(mut self, max_active: u32, max_open: u32) -> Self {
        self.max_active_zones = max_active;
        self.max_open_zones = max_open;
        self
    }

    /// Sets the writable capacity below the zone size.
    pub fn with_zone_capacity(mut self, pages: u64) -> Self {
        self.zone_capacity_pages = pages;
        self
    }

    /// Sets the burn budget that forces a zone ReadOnly.
    pub fn with_burns_to_readonly(mut self, burns: u32) -> Self {
        self.burns_to_readonly = burns;
        self
    }

    /// Validates the configuration, including that the device fits the
    /// 32-bit page addresses the host layers use (the bound
    /// `bh_flash::Geometry::validate` and `BlockEmu::new` enforce).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_zones == 0 {
            return Err("num_zones must be positive".into());
        }
        if self.zone_size_pages == 0 {
            return Err("zone_size_pages must be positive".into());
        }
        let pages = (self.num_zones as u64).checked_mul(self.zone_size_pages);
        if pages.is_none_or(|pages| pages >= u32::MAX as u64) {
            return Err(format!(
                "{} zones of {} pages do not fit 32-bit page addresses (at most {} pages)",
                self.num_zones,
                self.zone_size_pages,
                u32::MAX - 1
            ));
        }
        if self.zone_capacity_pages == 0 || self.zone_capacity_pages > self.zone_size_pages {
            return Err(format!(
                "zone_capacity_pages {} must be in 1..={}",
                self.zone_capacity_pages, self.zone_size_pages
            ));
        }
        if self.max_active_zones == 0 || self.max_open_zones == 0 {
            return Err("zone limits must be positive".into());
        }
        if self.max_open_zones > self.max_active_zones {
            return Err(format!(
                "max_open_zones {} exceeds max_active_zones {}",
                self.max_open_zones, self.max_active_zones
            ));
        }
        if self.page_bytes == 0 {
            return Err("page_bytes must be positive".into());
        }
        if self.burns_to_readonly == 0 {
            return Err("burns_to_readonly must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::{FlashConfig, Geometry};

    #[test]
    fn defaults_validate() {
        assert!(ZbdConfig::new(8, 64).validate().is_ok());
    }

    #[test]
    fn mirror_copies_zns_geometry() {
        let zns = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(3);
        let zbd = ZbdConfig::mirror(&zns);
        assert_eq!(zbd.num_zones, zns.num_zones());
        assert_eq!(zbd.zone_size_pages, zns.zone_size_pages());
        assert_eq!(zbd.zone_capacity_pages, zns.zone_capacity());
        assert_eq!(zbd.max_active_zones, zns.max_active_zones);
        assert_eq!(zbd.max_open_zones, zns.max_open_zones);
        assert_eq!(zbd.page_bytes, zns.flash.geometry.page_bytes);
        assert_eq!(zbd.burns_to_readonly, zns.burns_to_readonly);
        assert!(zbd.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        assert!(ZbdConfig::new(0, 64).validate().is_err());
        assert!(ZbdConfig::new(8, 0).validate().is_err());
        assert!(ZbdConfig::new(8, 64)
            .with_zone_capacity(65)
            .validate()
            .is_err());
        assert!(ZbdConfig::new(8, 64).with_limits(2, 4).validate().is_err());
    }

    #[test]
    fn validate_rejects_devices_past_32_bit_page_addresses() {
        for (zones, pages) in [
            (u32::MAX, 1),
            (u32::MAX, u64::MAX), // the product overflows u64
            (1 << 16, 1 << 16),
            (1, u32::MAX as u64),
        ] {
            let err = ZbdConfig::new(zones, pages).validate().unwrap_err();
            assert!(err.contains("32-bit page addresses"), "{err}");
        }
        // The largest device that fits: 2^32 - 2 pages.
        assert!(ZbdConfig::new(2, (1 << 31) - 1).validate().is_ok());
    }
}
