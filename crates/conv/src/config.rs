//! Configuration for the conventional SSD.

use crate::policy::GcPolicy;
use bh_flash::FlashConfig;

/// Foreground GC runs while a plane's free-block count is at or below
/// this watermark: one block for the host frontier, one for the GC
/// frontier.
pub(crate) const GC_WATERMARK: u32 = 2;

/// Construction parameters for a [`crate::ConvSsd`].
#[derive(Debug, Clone, Copy)]
pub struct ConvConfig {
    /// The underlying flash device.
    pub flash: FlashConfig,
    /// Overprovisioning ratio, defined as spare/logical capacity — the
    /// industry convention the paper uses ("7–28% of the usable
    /// capacity", §2.2). `0.07` means 7% extra physical space.
    ///
    /// Even at `0.0` the device functions: it always holds back
    /// [`ConvConfig::reserve_blocks_per_plane`] blocks per plane as
    /// working space, which is why the paper's "no overprovisioning"
    /// measurement yields a large-but-finite 15× write amplification.
    pub op_ratio: f64,
    /// Victim-selection policy for garbage collection.
    pub gc_policy: GcPolicy,
    /// Blocks per plane excluded from the exported logical capacity as
    /// minimal FTL working space. Must be at least the GC watermark (2).
    pub reserve_blocks_per_plane: u32,
    /// When `Some(gap)`, static wear leveling migrates cold blocks once
    /// the wear spread (max − min erase count) exceeds `gap`.
    pub wear_level_gap: Option<u32>,
}

impl ConvConfig {
    /// A configuration with sensible defaults for the given flash device
    /// and overprovisioning ratio.
    ///
    /// The implicit reserve is sized as the two frontier blocks (host and
    /// GC write points) plus `max(2, blocks_per_plane/32)` blocks of GC
    /// headroom. On large planes this asymptotically hides ~3% of
    /// capacity — which is why a nominally "0% OP" device measures a
    /// large-but-finite write amplification (the paper's 15× point)
    /// instead of diverging.
    pub fn new(flash: FlashConfig, op_ratio: f64) -> Self {
        let headroom = (flash.geometry.blocks_per_plane / 32).max(2);
        ConvConfig {
            flash,
            op_ratio,
            gc_policy: GcPolicy::Greedy,
            reserve_blocks_per_plane: GC_WATERMARK + headroom,
            wear_level_gap: None,
        }
    }

    /// Sets the garbage-collection victim-selection policy.
    pub fn with_gc_policy(mut self, policy: GcPolicy) -> Self {
        self.gc_policy = policy;
        self
    }

    /// Enables static wear leveling at the given erase-count spread.
    pub fn with_wear_level_gap(mut self, gap: u32) -> Self {
        self.wear_level_gap = Some(gap);
        self
    }

    /// Validates parameter ranges, and that the device is small enough
    /// for the FTL's 4-byte map entries and the 32-bit LBA field of the
    /// per-page OOB stamp: a larger one would alias logical addresses, so
    /// it is refused here, before anything is sized from the geometry.
    pub fn validate(&self) -> Result<(), String> {
        // The logical page count is below the physical one, so the
        // geometry's own bound covers both.
        self.flash.geometry.validate()?;
        if !(0.0..=4.0).contains(&self.op_ratio) || !self.op_ratio.is_finite() {
            return Err(format!("op_ratio {} out of range [0, 4]", self.op_ratio));
        }
        if self.reserve_blocks_per_plane < GC_WATERMARK {
            return Err(format!(
                "reserve_blocks_per_plane {} must be >= the GC watermark {GC_WATERMARK}",
                self.reserve_blocks_per_plane
            ));
        }
        if self.reserve_blocks_per_plane >= self.flash.geometry.blocks_per_plane {
            return Err("reserve exceeds blocks per plane".to_string());
        }
        Ok(())
    }

    /// Logical capacity in pages exported to the host for this
    /// configuration: `(physical − reserve) / (1 + op_ratio)`.
    pub fn logical_pages(&self) -> u64 {
        let geo = &self.flash.geometry;
        let reserve = self.reserve_blocks_per_plane as u64
            * geo.total_planes() as u64
            * geo.pages_per_block as u64;
        let usable = geo.total_pages().saturating_sub(reserve);
        (usable as f64 / (1.0 + self.op_ratio)).floor() as u64
    }

    /// The spare fraction of physical capacity this configuration yields:
    /// `(physical − logical) / physical`. Useful for relating measured
    /// write amplification to analytic models.
    pub fn spare_fraction(&self) -> f64 {
        let total = self.flash.geometry.total_pages() as f64;
        (total - self.logical_pages() as f64) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::Geometry;

    fn cfg(op: f64) -> ConvConfig {
        ConvConfig::new(FlashConfig::tlc(Geometry::small_test()), op)
    }

    #[test]
    fn defaults_validate() {
        assert!(cfg(0.0).validate().is_ok());
        assert!(cfg(0.25).validate().is_ok());
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(cfg(-0.1).validate().is_err());
        assert!(cfg(f64::NAN).validate().is_err());
        let mut c = cfg(0.1);
        c.reserve_blocks_per_plane = c.flash.geometry.blocks_per_plane;
        assert!(c.validate().is_err());
    }

    #[test]
    fn device_too_large_for_32_bit_page_addresses_is_refused() {
        // 2^16 blocks/plane x 2^16 pages/block on 4 planes: 2^34 pages,
        // whose LBAs would collide in the 32-bit OOB field.
        let mut geo = Geometry::small_test();
        geo.blocks_per_plane = 1 << 16;
        geo.pages_per_block = 1 << 16;
        let err = ConvConfig::new(FlashConfig::tlc(geo), 0.07)
            .validate()
            .unwrap_err();
        assert!(err.contains("32-bit page addresses"), "{err}");
        // Exactly u32::MAX pages is the first size refused (the map's
        // "none" sentinel), one block fewer the last accepted.
        let mut geo = Geometry::small_test(); // 4 planes
        geo.pages_per_block = 3 * 5 * 17;
        geo.blocks_per_plane = 257 * 65537 / 4;
        assert!(geo.total_pages() < u32::MAX as u64);
        assert!(ConvConfig::new(FlashConfig::tlc(geo), 0.07)
            .validate()
            .is_ok());
        geo.channels = 1;
        geo.planes_per_die = 1;
        geo.blocks_per_plane = 257 * 65537;
        assert_eq!(geo.total_pages(), u32::MAX as u64);
        assert!(ConvConfig::new(FlashConfig::tlc(geo), 0.07)
            .validate()
            .is_err());
        // Dimensions whose product overflows even u64 are an error too,
        // not a panic.
        let huge = Geometry {
            channels: u32::MAX,
            dies_per_channel: u32::MAX,
            planes_per_die: u32::MAX,
            blocks_per_plane: u32::MAX,
            pages_per_block: u32::MAX,
            page_bytes: 4096,
        };
        let mut cfg = cfg(0.07);
        cfg.flash.geometry = huge;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = cfg(0.1)
            .with_gc_policy(GcPolicy::CostBenefit)
            .with_wear_level_gap(16);
        assert!(c.validate().is_ok());
        assert!(matches!(c.gc_policy, GcPolicy::CostBenefit));
        assert_eq!(c.wear_level_gap, Some(16));
    }

    #[test]
    fn logical_capacity_shrinks_with_op() {
        let c0 = cfg(0.0);
        let zero = c0.logical_pages();
        let quarter = cfg(0.25).logical_pages();
        assert!(quarter < zero);
        let geo = c0.flash.geometry;
        let reserved = c0.reserve_blocks_per_plane as u64
            * geo.total_planes() as u64
            * geo.pages_per_block as u64;
        assert_eq!(zero, geo.total_pages() - reserved);
        assert_eq!(quarter, (zero as f64 / 1.25).floor() as u64);
    }

    #[test]
    fn spare_fraction_reflects_op() {
        assert!(cfg(0.0).spare_fraction() > 0.0); // Implicit reserve.
        assert!(cfg(0.25).spare_fraction() > cfg(0.0).spare_fraction());
        // The tiny test geometry has a proportionally huge implicit
        // reserve; just bound it away from "everything is spare".
        assert!(cfg(0.25).spare_fraction() < 0.7);
    }
}
