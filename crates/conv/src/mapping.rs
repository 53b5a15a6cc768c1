//! Logical-to-physical address translation.
//!
//! The mapping table is the conventional FTL's defining data structure:
//! §2.2 of the paper prices it at "about 4 bytes per page … around 1 GB of
//! on-board DRAM per TB of flash". [`MappingTable`] maintains the forward
//! map (LBA → PPA), the reverse map GC needs (physical page → LBA), and
//! reports the DRAM an equivalent on-board table would occupy.

use bh_flash::{BlockId, Geometry, Ppa};

/// Bytes per forward-map entry on a real device (§2.2's assumption).
pub const BYTES_PER_ENTRY: u64 = 4;

/// "No entry" in either map. Flat page indices and LBAs are both kept
/// strictly below it; [`crate::ConvConfig::validate`] rejects devices
/// that would not fit.
const NONE: u32 = u32::MAX;

/// Page-granularity forward and reverse address maps.
///
/// Both maps hold 4-byte entries — the simulator's table is the
/// 4 B/entry table §2.2 prices, not a wider stand-in for it.
#[derive(Debug, Clone)]
pub struct MappingTable {
    /// LBA (page number) → flat physical page index, [`NONE`] when
    /// unmapped.
    l2p: Vec<u32>,
    /// Flat physical page index → LBA, [`NONE`] when the page holds no
    /// live data. Only meaningful for pages in the `Valid` flash state.
    p2l: Vec<u32>,
    /// Forward-map halves of relocations not yet applied, in order:
    /// `(lba, from, to)`. See [`MappingTable::relocate_deferred`].
    pending: Vec<(u32, u32, u32)>,
    geo: Geometry,
    mapped: u64,
}

impl MappingTable {
    /// Creates an empty table for `logical_pages` of exported capacity
    /// over geometry `geo`.
    ///
    /// # Panics
    ///
    /// Panics if either page count does not fit a 4-byte entry;
    /// [`crate::ConvSsd::new`] returns an error for such devices before
    /// getting here.
    pub fn new(logical_pages: u64, geo: Geometry) -> Self {
        assert!(
            logical_pages < NONE as u64 && geo.total_pages() < NONE as u64,
            "{logical_pages} logical / {} physical pages exceed 4-byte map entries",
            geo.total_pages()
        );
        MappingTable {
            l2p: vec![NONE; logical_pages as usize],
            p2l: vec![NONE; geo.total_pages() as usize],
            pending: Vec::new(),
            geo,
            mapped: 0,
        }
    }

    /// Exported logical capacity in pages.
    #[inline]
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    #[inline]
    fn index_of(&self, ppa: Ppa) -> u32 {
        self.geo.page_index(ppa) as u32
    }

    /// The page at flat `index`, by 32-bit division: every lookup and
    /// every overwrite pays it.
    #[inline]
    fn ppa_at(&self, index: u32) -> Option<Ppa> {
        let pages = self.geo.pages_per_block;
        (index != NONE).then(|| Ppa::new(BlockId(index / pages), index % pages))
    }

    /// Looks up the physical location of `lba`, if mapped.
    #[inline]
    pub fn lookup(&self, lba: u64) -> Option<Ppa> {
        debug_assert!(self.pending.is_empty(), "lookup between defer and flush");
        self.ppa_at(*self.l2p.get(lba as usize)?)
    }

    /// Returns the LBA stored at physical page `ppa`, if it is live.
    #[inline]
    pub fn reverse(&self, ppa: Ppa) -> Option<u64> {
        let lba = self.p2l[self.index_of(ppa) as usize];
        (lba != NONE).then_some(lba as u64)
    }

    /// Binds `lba` to `ppa`, returning the previous physical location (the
    /// page the caller must invalidate), if any.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range; [`crate::ConvSsd`] validates
    /// addresses at its boundary.
    #[inline]
    pub fn bind(&mut self, lba: u64, ppa: Ppa) -> Option<Ppa> {
        debug_assert!(self.pending.is_empty(), "bind between defer and flush");
        let new = self.index_of(ppa);
        let old = std::mem::replace(&mut self.l2p[lba as usize], new);
        if old != NONE {
            self.p2l[old as usize] = NONE;
        } else {
            self.mapped += 1;
        }
        self.p2l[new as usize] = lba as u32;
        self.ppa_at(old)
    }

    /// Unbinds `lba` (trim/deallocate), returning the physical page that
    /// held it, if any.
    pub fn unbind(&mut self, lba: u64) -> Option<Ppa> {
        debug_assert!(self.pending.is_empty(), "unbind between defer and flush");
        let old = std::mem::replace(&mut self.l2p[lba as usize], NONE);
        if old != NONE {
            self.p2l[old as usize] = NONE;
            self.mapped -= 1;
        }
        self.ppa_at(old)
    }

    /// Rebinds `lba` from one physical page to another during GC
    /// relocation, in two halves. The **reverse map moves now** — a
    /// relocation's destination can itself become a relocation source
    /// before the run is flushed (a GC frontier that fills is sealed and
    /// may be picked as the next victim at once), and
    /// [`MappingTable::reverse`] must already answer for it. The
    /// **forward map moves at [`MappingTable::flush_relocations`]**, which
    /// the caller runs once per batch: the forward entries of a batch are
    /// scattered over the whole table, and applying them back to back
    /// lets their cache misses overlap instead of each one stalling the
    /// relocation it belongs to.
    ///
    /// Between this call and the flush the forward map is stale:
    /// [`MappingTable::lookup`], [`MappingTable::bind`] and
    /// [`MappingTable::unbind`] must not be called.
    #[inline]
    pub fn relocate_deferred(&mut self, lba: u64, from: Ppa, to: Ppa) {
        let (from, to) = (self.index_of(from), self.index_of(to));
        self.p2l[from as usize] = NONE;
        self.p2l[to as usize] = lba as u32;
        self.pending.push((lba as u32, from, to));
    }

    /// Applies, in order, the forward-map half of every relocation
    /// deferred since the last flush. Unlike [`MappingTable::bind`], each
    /// one asserts that the mapping currently points at its source —
    /// relocating a stale page is a GC bug.
    ///
    /// # Panics
    ///
    /// Panics if a relocated LBA is not mapped to the page it was
    /// relocated from.
    pub fn flush_relocations(&mut self) {
        for &(lba, from, to) in &self.pending {
            let slot = &mut self.l2p[lba as usize];
            assert_eq!(*slot, from, "relocate of stale mapping for LBA {lba}");
            *slot = to;
        }
        self.pending.clear();
    }

    /// DRAM an on-board table of this size would occupy on a real device
    /// (§2.2: 4 bytes per logical page).
    pub fn device_dram_bytes(&self) -> u64 {
        device_dram_bytes_for(self.logical_pages())
    }
}

/// DRAM an on-board page-mapping table for `logical_pages` would occupy on
/// a real device (§2.2: 4 bytes per logical page), without materializing
/// the table. Used by the E3 cost experiment for terabyte-scale devices.
pub const fn device_dram_bytes_for(logical_pages: u64) -> u64 {
    logical_pages * BYTES_PER_ENTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MappingTable {
        MappingTable::new(64, Geometry::small_test())
    }

    fn ppa(b: u32, p: u32) -> Ppa {
        Ppa::new(BlockId(b), p)
    }

    #[test]
    fn bind_lookup_roundtrip() {
        let mut t = table();
        assert_eq!(t.lookup(5), None);
        assert_eq!(t.bind(5, ppa(1, 2)), None);
        assert_eq!(t.lookup(5), Some(ppa(1, 2)));
        assert_eq!(t.reverse(ppa(1, 2)), Some(5));
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn rebind_returns_old_location_and_clears_reverse() {
        let mut t = table();
        t.bind(5, ppa(1, 2));
        assert_eq!(t.bind(5, ppa(3, 4)), Some(ppa(1, 2)));
        assert_eq!(t.reverse(ppa(1, 2)), None);
        assert_eq!(t.reverse(ppa(3, 4)), Some(5));
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn unbind_trims() {
        let mut t = table();
        t.bind(7, ppa(0, 0));
        assert_eq!(t.unbind(7), Some(ppa(0, 0)));
        assert_eq!(t.lookup(7), None);
        assert_eq!(t.reverse(ppa(0, 0)), None);
        assert_eq!(t.mapped_pages(), 0);
        assert_eq!(t.unbind(7), None);
    }

    #[test]
    fn relocate_moves_reverse_map_at_once_and_forward_map_at_flush() {
        let mut t = table();
        t.bind(9, ppa(2, 3));
        t.relocate_deferred(9, ppa(2, 3), ppa(4, 0));
        assert_eq!(t.reverse(ppa(2, 3)), None);
        assert_eq!(t.reverse(ppa(4, 0)), Some(9));
        t.flush_relocations();
        assert_eq!(t.lookup(9), Some(ppa(4, 0)));
        assert_eq!(t.mapped_pages(), 1);
        // An empty flush is a no-op.
        t.flush_relocations();
        assert_eq!(t.lookup(9), Some(ppa(4, 0)));
    }

    #[test]
    #[should_panic(expected = "stale mapping")]
    fn relocate_of_stale_mapping_panics() {
        let mut t = table();
        t.bind(9, ppa(2, 3));
        t.relocate_deferred(9, ppa(1, 1), ppa(4, 0));
        t.flush_relocations();
    }

    #[test]
    #[should_panic(expected = "stale mapping")]
    fn relocate_of_unmapped_lba_panics() {
        let mut t = table();
        t.relocate_deferred(9, ppa(1, 1), ppa(4, 0));
        t.flush_relocations();
    }

    /// One batch moves the same LBA twice — its first destination was
    /// itself relocated before the flush — beside an unrelated move.
    #[test]
    fn one_batch_relocating_an_lba_twice_ends_at_the_last_destination() {
        let mut t = table();
        t.bind(9, ppa(2, 3));
        t.bind(10, ppa(2, 4));
        t.relocate_deferred(9, ppa(2, 3), ppa(4, 0));
        t.relocate_deferred(10, ppa(2, 4), ppa(4, 1));
        // The second hop finds LBA 9 through the reverse map, which has
        // already moved.
        assert_eq!(t.reverse(ppa(4, 0)), Some(9));
        t.relocate_deferred(9, ppa(4, 0), ppa(6, 7));
        t.flush_relocations();
        assert_eq!(t.lookup(9), Some(ppa(6, 7)));
        assert_eq!(t.lookup(10), Some(ppa(4, 1)));
        assert_eq!(t.reverse(ppa(2, 3)), None);
        assert_eq!(t.reverse(ppa(4, 0)), None);
        assert_eq!(t.reverse(ppa(6, 7)), Some(9));
        assert_eq!(t.mapped_pages(), 2);
    }

    #[test]
    fn entries_are_four_bytes_and_the_sentinel_round_trips() {
        let t = table();
        assert_eq!(std::mem::size_of_val(&t.l2p[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.p2l[0]), 4);
        assert_eq!(BYTES_PER_ENTRY, 4);
        // Every entry starts as "none", on both sides.
        let geo = Geometry::small_test();
        for lba in 0..64 {
            assert_eq!(t.lookup(lba), None);
        }
        for idx in 0..geo.total_pages() {
            assert_eq!(t.reverse(geo.ppa_of_index(idx)), None);
        }
        // Out-of-range lookups stay `None` instead of panicking.
        assert_eq!(t.lookup(64), None);
        // The extreme addresses survive the trip through 4-byte entries:
        // LBA 0 at the last physical page, the last LBA at page 0.
        let mut t = table();
        let last = geo.ppa_of_index(geo.total_pages() - 1);
        t.bind(0, last);
        t.bind(63, ppa(0, 0));
        assert_eq!(t.lookup(0), Some(last));
        assert_eq!(t.reverse(last), Some(0));
        assert_eq!(t.lookup(63), Some(ppa(0, 0)));
        assert_eq!(t.reverse(ppa(0, 0)), Some(63));
        assert_eq!(t.unbind(0), Some(last));
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.reverse(last), None);
    }

    #[test]
    #[should_panic(expected = "exceed 4-byte map entries")]
    fn table_too_large_for_four_byte_entries_is_refused_before_allocating() {
        let mut geo = Geometry::small_test();
        geo.blocks_per_plane = u32::MAX / 4;
        MappingTable::new(64, geo);
    }

    #[test]
    fn dram_accounting_matches_paper_math() {
        // §2.2: 4 KB pages at 4 B/entry is ~1 GB DRAM per TB of flash.
        let one_tb_pages = (1_u64 << 40) >> 12; // 2^28 pages.
        assert_eq!(device_dram_bytes_for(one_tb_pages), 1 << 30); // 1 GiB.
                                                                  // The method agrees with the free function.
        let t = table();
        assert_eq!(t.device_dram_bytes(), 64 * BYTES_PER_ENTRY);
    }
}
