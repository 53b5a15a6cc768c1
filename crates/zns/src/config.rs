//! Configuration for the ZNS device.

use bh_flash::FlashConfig;

/// Construction parameters for a [`crate::ZnsDevice`].
#[derive(Debug, Clone, Copy)]
pub struct ZnsConfig {
    /// The underlying flash device.
    pub flash: FlashConfig,
    /// Erasure blocks per zone. Zones stripe their pages across these
    /// blocks, which the device places on distinct planes for intra-zone
    /// parallelism. §2.1: "zones are at least as large as erasure blocks";
    /// the device evaluated in [10] uses 1 GB zones over much smaller
    /// blocks.
    pub blocks_per_zone: u32,
    /// Maximum active zones (MAR): implicitly opened + explicitly opened +
    /// closed. The device in [10] supports 14.
    pub max_active_zones: u32,
    /// Maximum open zones (MOR): implicitly + explicitly opened.
    /// Must be ≤ `max_active_zones`.
    pub max_open_zones: u32,
    /// Optional zone capacity in pages, if smaller than the zone's flash
    /// size (the spec allows `zone capacity ≤ zone size`). `None` means
    /// the full flash size is writable.
    pub zone_capacity_pages: Option<u64>,
    /// Transient program failures a zone tolerates between resets before
    /// the device stops trusting it for writes and transitions it to
    /// ReadOnly (the spec's zone-degradation path short of Offline).
    pub burns_to_readonly: u32,
}

impl ZnsConfig {
    /// A configuration with the paper's reference limits (14 active
    /// zones, [10]) for the given flash device.
    pub fn new(flash: FlashConfig, blocks_per_zone: u32) -> Self {
        // Degradation tolerance scales with zone size: the threshold
        // models "too many program failures in one zone lifetime", and a
        // 1024-page zone sees proportionally more program attempts per
        // lifetime than a 64-page test zone. An eighth of the zone keeps
        // spurious degradation vanishingly rare at realistic fault rates
        // while still letting bursts of burns retire a genuinely bad
        // zone.
        let zone_pages = blocks_per_zone as u64 * flash.geometry.pages_per_block as u64;
        ZnsConfig {
            flash,
            blocks_per_zone,
            max_active_zones: 14,
            max_open_zones: 14,
            zone_capacity_pages: None,
            burns_to_readonly: (zone_pages / 8).clamp(8, u32::MAX as u64) as u32,
        }
    }

    /// Sets the maximum active zones (MAR). Callers raising MAR above
    /// the current MOR usually want both; pair with
    /// [`with_open_zones`](Self::with_open_zones).
    pub fn with_active_zones(mut self, max_active: u32) -> Self {
        self.max_active_zones = max_active;
        self
    }

    /// Sets the maximum open zones (MOR). Must end up ≤ the active-zone
    /// limit to pass [`validate`](Self::validate).
    pub fn with_open_zones(mut self, max_open: u32) -> Self {
        self.max_open_zones = max_open;
        self
    }

    /// Sets both zone limits (MAR = MOR = `limit`) — the common case in
    /// experiments that sweep "how many zones may be live at once".
    pub fn with_zone_limits(mut self, limit: u32) -> Self {
        self.max_active_zones = limit;
        self.max_open_zones = limit;
        self
    }

    /// Sets a zone capacity smaller than the zone's flash size.
    pub fn with_zone_capacity(mut self, pages: u64) -> Self {
        self.zone_capacity_pages = Some(pages);
        self
    }

    /// Sets the program-failure tolerance before a zone degrades to
    /// read-only.
    pub fn with_burns_to_readonly(mut self, burns: u32) -> Self {
        self.burns_to_readonly = burns;
        self
    }

    /// Validates the geometry, then parameter ranges against it.
    pub fn validate(&self) -> Result<(), String> {
        let geo = &self.flash.geometry;
        // First: `total_blocks` below multiplies in `u32`, which only a
        // validated geometry is known to fit.
        geo.validate()?;
        if self.blocks_per_zone == 0 {
            return Err("blocks_per_zone must be non-zero".into());
        }
        if !geo.total_blocks().is_multiple_of(self.blocks_per_zone) {
            return Err(format!(
                "blocks_per_zone {} does not divide total blocks {}",
                self.blocks_per_zone,
                geo.total_blocks()
            ));
        }
        if self.max_active_zones == 0 {
            return Err("max_active_zones must be non-zero".into());
        }
        if self.max_open_zones == 0 || self.max_open_zones > self.max_active_zones {
            return Err(format!(
                "max_open_zones {} must be in 1..={}",
                self.max_open_zones, self.max_active_zones
            ));
        }
        let zone_size = self.zone_size_pages();
        if let Some(cap) = self.zone_capacity_pages {
            if cap == 0 || cap > zone_size {
                return Err(format!("zone capacity {cap} must be in 1..={zone_size}"));
            }
        }
        if self.burns_to_readonly == 0 {
            return Err("burns_to_readonly must be non-zero".into());
        }
        Ok(())
    }

    /// Zone size in pages (flash pages backing one zone).
    pub fn zone_size_pages(&self) -> u64 {
        self.blocks_per_zone as u64 * self.flash.geometry.pages_per_block as u64
    }

    /// Number of zones in the namespace.
    pub fn num_zones(&self) -> u32 {
        self.flash.geometry.total_blocks() / self.blocks_per_zone
    }

    /// Writable capacity per zone in pages.
    pub fn zone_capacity(&self) -> u64 {
        self.zone_capacity_pages
            .unwrap_or_else(|| self.zone_size_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::Geometry;

    fn cfg(bpz: u32) -> ZnsConfig {
        ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), bpz)
    }

    #[test]
    fn defaults_validate() {
        assert!(cfg(4).validate().is_ok());
        assert_eq!(cfg(4).num_zones(), 8);
        assert_eq!(cfg(4).zone_size_pages(), 64);
    }

    #[test]
    fn rejects_nondividing_zone_size() {
        assert!(cfg(5).validate().is_err());
        assert!(cfg(0).validate().is_err());
    }

    #[test]
    fn rejects_bad_limits() {
        let mut c = cfg(4);
        c.max_open_zones = 20;
        assert!(c.validate().is_err());
        c.max_open_zones = 0;
        assert!(c.validate().is_err());
        c.max_open_zones = 14;
        c.max_active_zones = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = cfg(4)
            .with_zone_limits(6)
            .with_zone_capacity(60)
            .with_burns_to_readonly(3);
        assert!(c.validate().is_ok());
        assert_eq!((c.max_active_zones, c.max_open_zones), (6, 6));
        assert_eq!(c.zone_capacity(), 60);
        assert_eq!(c.burns_to_readonly, 3);
        let c = cfg(4).with_active_zones(10).with_open_zones(4);
        assert_eq!((c.max_active_zones, c.max_open_zones), (10, 4));
    }

    #[test]
    fn zone_capacity_bounds() {
        let mut c = cfg(4);
        c.zone_capacity_pages = Some(60);
        assert!(c.validate().is_ok());
        assert_eq!(c.zone_capacity(), 60);
        c.zone_capacity_pages = Some(65);
        assert!(c.validate().is_err());
        c.zone_capacity_pages = Some(0);
        assert!(c.validate().is_err());
    }
}
