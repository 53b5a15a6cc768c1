//! Device geometry: the channel → die → plane → block → page hierarchy.
//!
//! Addressing is flattened into global identifiers: [`PlaneId`] and
//! [`BlockId`] number planes and erasure blocks across the whole device,
//! and a [`Ppa`] (physical page address) is a block plus a page offset.
//! Flat identifiers keep FTL mapping tables compact (one `u32`/`u64` per
//! entry — the paper's §2.2 DRAM math assumes exactly this).

use std::fmt;

/// Physical layout of a flash device.
///
/// # Examples
///
/// ```
/// use bh_flash::Geometry;
/// let geo = Geometry::small_test();
/// assert_eq!(geo.total_blocks(), geo.total_planes() * geo.blocks_per_plane);
/// assert!(geo.capacity_bytes() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Independent channels (buses).
    pub channels: u32,
    /// Dies attached to each channel.
    pub dies_per_channel: u32,
    /// Planes per die; planes are the unit of array-operation parallelism.
    pub planes_per_die: u32,
    /// Erasure blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per erasure block.
    pub pages_per_block: u32,
    /// Page size in bytes (the read/program granularity, typically 4 KiB).
    pub page_bytes: u32,
}

impl Geometry {
    /// A small geometry for unit tests: 2 channels × 1 die × 2 planes ×
    /// 8 blocks × 16 pages × 4 KiB = 4 MiB.
    pub fn small_test() -> Self {
        Geometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 2,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_bytes: 4096,
        }
    }

    /// 3 channels × 5 dies × 3 planes × 7 blocks × 9 pages of 4 000
    /// bytes: no dimension a power of two, for tests of arithmetic that
    /// is shifts and masks when one is.
    #[cfg(test)]
    pub(crate) fn no_power_of_two() -> Self {
        Geometry {
            channels: 3,
            dies_per_channel: 5,
            planes_per_die: 3,
            blocks_per_plane: 7,
            pages_per_block: 9,
            page_bytes: 4000,
        }
    }

    /// A laptop-scale experiment geometry: 8 channels × 2 dies × 2 planes
    /// × `blocks_per_plane` blocks × 256 pages × 4 KiB. With the default
    /// 64 blocks per plane this is 2 GiB of flash; experiments scale
    /// `blocks_per_plane` to set capacity.
    pub fn experiment(blocks_per_plane: u32) -> Self {
        Geometry {
            channels: 8,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane,
            pages_per_block: 256,
            page_bytes: 4096,
        }
    }

    /// Validates that every dimension is non-zero and that the device
    /// fits the 32-bit block and page addresses bh-flash and the layers
    /// above it use (4-byte map entries, the 32-bit LBA field of the
    /// per-page OOB stamp).
    ///
    /// Zero-sized dimensions would make address arithmetic divide by
    /// zero, and `total_planes`/`total_blocks` multiply in `u32`: an
    /// over-large geometry would overflow there — a panic in debug
    /// builds, a silently wrong-sized device in release builds — so the
    /// products are checked here in `u64`. [`crate::FlashDevice::new`]
    /// rejects such geometries up front, before sizing anything from
    /// them.
    pub fn validate(&self) -> Result<(), String> {
        let dims = [
            ("channels", self.channels),
            ("dies_per_channel", self.dies_per_channel),
            ("planes_per_die", self.planes_per_die),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_bytes", self.page_bytes),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(format!("geometry dimension `{name}` must be non-zero"));
            }
        }
        // All but `page_bytes`. Every block holds at least one page, so
        // the page bound covers the block and plane counts too.
        let pages = dims[..5]
            .iter()
            .try_fold(1u64, |pages, &(_, dim)| pages.checked_mul(dim as u64));
        if pages.is_none_or(|pages| pages >= u32::MAX as u64) {
            return Err(format!(
                "geometry {}x{}x{}x{}x{} pages does not fit 32-bit page addresses \
                 (at most {} pages)",
                self.channels,
                self.dies_per_channel,
                self.planes_per_die,
                self.blocks_per_plane,
                self.pages_per_block,
                u32::MAX - 1
            ));
        }
        Ok(())
    }

    /// Total planes in the device.
    pub fn total_planes(&self) -> u32 {
        self.channels * self.dies_per_channel * self.planes_per_die
    }

    /// Total erasure blocks in the device.
    pub fn total_blocks(&self) -> u32 {
        self.total_planes() * self.blocks_per_plane
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() as u64 * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Erasure block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_bytes as u64
    }

    /// The plane containing a block.
    #[inline]
    pub fn plane_of(&self, block: BlockId) -> PlaneId {
        PlaneId(block.0 / self.blocks_per_plane)
    }

    /// The channel a plane hangs off.
    pub fn channel_of(&self, plane: PlaneId) -> u32 {
        plane.0 / (self.dies_per_channel * self.planes_per_die)
    }

    /// The die containing a plane, numbered globally across the device.
    pub fn die_of(&self, plane: PlaneId) -> u32 {
        plane.0 / self.planes_per_die
    }

    /// The `index`-th block within `plane`.
    ///
    /// # Panics
    ///
    /// Panics if `plane` or `index` is out of range.
    pub fn block_in_plane(&self, plane: PlaneId, index: u32) -> BlockId {
        assert!(
            plane.0 < self.total_planes(),
            "plane {plane:?} out of range"
        );
        assert!(
            index < self.blocks_per_plane,
            "block index {index} out of range"
        );
        BlockId(plane.0 * self.blocks_per_plane + index)
    }

    /// Iterates over every block identifier in the device.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> {
        (0..self.total_blocks()).map(BlockId)
    }

    /// Converts a physical page address to a flat page index.
    #[inline]
    pub fn page_index(&self, ppa: Ppa) -> u64 {
        ppa.block.0 as u64 * self.pages_per_block as u64 + ppa.page as u64
    }

    /// Converts a flat page index back to a physical page address.
    #[inline]
    pub fn ppa_of_index(&self, index: u64) -> Ppa {
        Ppa {
            block: BlockId((index / self.pages_per_block as u64) as u32),
            page: (index % self.pages_per_block as u64) as u32,
        }
    }

    /// Returns true if `ppa` addresses a page inside the device.
    #[inline]
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.block.0 < self.total_blocks() && ppa.page < self.pages_per_block
    }
}

/// Identifier for a plane, global across the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaneId(pub u32);

/// Identifier for an erasure block, global across the device.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Physical page address: an erasure block plus a page offset within it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppa {
    /// The erasure block.
    pub block: BlockId,
    /// Page offset within the block.
    pub page: u32,
}

impl Ppa {
    /// Creates a physical page address.
    pub fn new(block: BlockId, page: u32) -> Self {
        Ppa { block, page }
    }
}

impl fmt::Debug for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}.P{}", self.block.0, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_are_consistent() {
        let g = Geometry::small_test();
        assert_eq!(g.total_planes(), 4);
        assert_eq!(g.total_blocks(), 32);
        assert_eq!(g.total_pages(), 512);
        assert_eq!(g.capacity_bytes(), 512 * 4096);
        assert_eq!(g.block_bytes(), 16 * 4096);
    }

    #[test]
    fn validation_rejects_zero_dimensions() {
        let mut g = Geometry::small_test();
        assert!(g.validate().is_ok());
        g.pages_per_block = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validation_rejects_geometries_past_32_bit_addresses() {
        // 2^16 channels of 2^16 dies: `total_planes` would overflow u32
        // (a panic in debug builds, a wrapped count in release builds).
        let mut g = Geometry::small_test();
        g.channels = 1 << 16;
        g.dies_per_channel = 1 << 16;
        let err = g.validate().unwrap_err();
        assert!(err.contains("32-bit page addresses"), "{err}");
        // A product past u64 is refused the same way.
        let g = Geometry {
            channels: u32::MAX,
            dies_per_channel: u32::MAX,
            planes_per_die: u32::MAX,
            blocks_per_plane: u32::MAX,
            pages_per_block: u32::MAX,
            page_bytes: 4096,
        };
        assert!(g.validate().is_err());
        // u32::MAX pages (the maps' "none" sentinel) is the first size
        // refused: 3·5·17·257·65537 = 2^32 − 1 exactly.
        let mut g = Geometry::small_test();
        (g.channels, g.dies_per_channel, g.planes_per_die) = (3, 5, 17);
        (g.blocks_per_plane, g.pages_per_block) = (257, 65537);
        assert!(g.validate().is_err());
        g.blocks_per_plane = 256;
        assert!(g.validate().is_ok());
        assert!(g.total_pages() < u32::MAX as u64);
    }

    #[test]
    fn plane_and_channel_mapping() {
        let g = Geometry::small_test();
        // Blocks 0..8 are plane 0, 8..16 plane 1, etc.
        assert_eq!(g.plane_of(BlockId(0)), PlaneId(0));
        assert_eq!(g.plane_of(BlockId(7)), PlaneId(0));
        assert_eq!(g.plane_of(BlockId(8)), PlaneId(1));
        assert_eq!(g.plane_of(BlockId(31)), PlaneId(3));
        // 2 planes per channel (1 die × 2 planes).
        assert_eq!(g.channel_of(PlaneId(0)), 0);
        assert_eq!(g.channel_of(PlaneId(1)), 0);
        assert_eq!(g.channel_of(PlaneId(2)), 1);
    }

    #[test]
    fn block_in_plane_roundtrip() {
        let g = Geometry::small_test();
        for p in 0..g.total_planes() {
            for i in 0..g.blocks_per_plane {
                let b = g.block_in_plane(PlaneId(p), i);
                assert_eq!(g.plane_of(b), PlaneId(p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_in_plane_rejects_bad_index() {
        let g = Geometry::small_test();
        g.block_in_plane(PlaneId(0), g.blocks_per_plane);
    }

    #[test]
    fn page_index_roundtrip() {
        let g = Geometry::small_test();
        for idx in [0u64, 1, 15, 16, 511] {
            assert_eq!(g.page_index(g.ppa_of_index(idx)), idx);
        }
    }

    #[test]
    fn contains_checks_bounds() {
        let g = Geometry::small_test();
        assert!(g.contains(Ppa::new(BlockId(0), 0)));
        assert!(g.contains(Ppa::new(BlockId(31), 15)));
        assert!(!g.contains(Ppa::new(BlockId(32), 0)));
        assert!(!g.contains(Ppa::new(BlockId(0), 16)));
    }

    #[test]
    fn blocks_iterator_covers_device() {
        let g = Geometry::small_test();
        assert_eq!(g.blocks().count() as u32, g.total_blocks());
    }
}
