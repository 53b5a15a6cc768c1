//! Zone state: the spec's state machine, write pointer, and block stripe.

use bh_flash::BlockId;
use std::fmt;

/// Identifier for a zone within a namespace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u32);

impl fmt::Debug for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z{}", self.0)
    }
}

/// The NVMe ZNS zone states (§2.1 lists six; the spec splits "open" into
/// implicit and explicit, which matters for the open-limit bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneState {
    /// Erased; write pointer at zone start.
    Empty,
    /// Opened by a write rather than an Open command; the controller may
    /// close it on its own to make room for other opens.
    ImplicitlyOpened,
    /// Opened by an explicit Open command; only the host closes it.
    ExplicitlyOpened,
    /// Partially written, resources released; still counts against the
    /// active limit but not the open limit.
    Closed,
    /// Write pointer reached the zone capacity; no further writes.
    Full,
    /// Readable but never writable again (end-of-life).
    ReadOnly,
    /// Neither readable nor writable.
    Offline,
}

impl ZoneState {
    /// A stable one-byte encoding, used by durable zone-metadata formats
    /// (bh-zbd's log records). The codes are part of the on-disk format:
    /// never renumber them.
    pub fn to_code(self) -> u8 {
        match self {
            ZoneState::Empty => 0,
            ZoneState::ImplicitlyOpened => 1,
            ZoneState::ExplicitlyOpened => 2,
            ZoneState::Closed => 3,
            ZoneState::Full => 4,
            ZoneState::ReadOnly => 5,
            ZoneState::Offline => 6,
        }
    }

    /// Decodes [`ZoneState::to_code`]; `None` for unknown bytes (a
    /// corrupt record, not a panic).
    pub fn from_code(code: u8) -> Option<ZoneState> {
        Some(match code {
            0 => ZoneState::Empty,
            1 => ZoneState::ImplicitlyOpened,
            2 => ZoneState::ExplicitlyOpened,
            3 => ZoneState::Closed,
            4 => ZoneState::Full,
            5 => ZoneState::ReadOnly,
            6 => ZoneState::Offline,
            _ => return None,
        })
    }

    /// Every zone state, in `to_code` order.
    pub const ALL: [ZoneState; 7] = [
        ZoneState::Empty,
        ZoneState::ImplicitlyOpened,
        ZoneState::ExplicitlyOpened,
        ZoneState::Closed,
        ZoneState::Full,
        ZoneState::ReadOnly,
        ZoneState::Offline,
    ];

    /// True for states that count against the **active** zone limit (MAR):
    /// implicitly/explicitly opened and closed zones hold device
    /// resources.
    pub fn is_active(self) -> bool {
        matches!(
            self,
            ZoneState::ImplicitlyOpened | ZoneState::ExplicitlyOpened | ZoneState::Closed
        )
    }

    /// True for states that count against the **open** zone limit (MOR).
    pub fn is_open(self) -> bool {
        matches!(
            self,
            ZoneState::ImplicitlyOpened | ZoneState::ExplicitlyOpened
        )
    }
}

/// One zone: state machine, write pointer, and the erasure blocks backing
/// it.
///
/// Zone pages are striped across the backing blocks (page `k` lives in
/// block `k % stripe` at block-internal offset `k / stripe`), so
/// sequential zone writes exploit plane parallelism — §2.1's observation
/// that the key FTL performance strategies remain available to ZNS
/// devices.
#[derive(Debug, Clone)]
pub struct Zone {
    id: ZoneId,
    state: ZoneState,
    /// Write pointer: pages written since the zone was last reset.
    wp: u64,
    /// Writable capacity in pages (≤ size). Shrinks when backing blocks
    /// retire (§2.1: "decreasing the length of a zone after a reset").
    capacity: u64,
    /// Total addressable size in pages (fixed by the namespace format).
    size: u64,
    /// Backing erasure blocks, in stripe order. Retired blocks are
    /// removed.
    blocks: Vec<BlockId>,
    /// Completed resets.
    resets: u64,
    /// Pages burned by transient program failures since the last reset.
    burned: u32,
}

impl Zone {
    /// Creates an empty zone backed by `blocks`, each holding
    /// `pages_per_block` pages, with addressable `size` pages.
    pub fn new(id: ZoneId, blocks: Vec<BlockId>, pages_per_block: u64, size: u64) -> Self {
        let capacity = (blocks.len() as u64 * pages_per_block).min(size);
        Zone {
            id,
            state: ZoneState::Empty,
            wp: 0,
            capacity,
            size,
            blocks,
            resets: 0,
            burned: 0,
        }
    }

    /// Creates an empty zone with `capacity` writable pages and no
    /// backing blocks — for device models (bh-zbd) whose media is a file
    /// rather than a flash stripe. `locate` must not be called on such a
    /// zone.
    pub fn with_capacity(id: ZoneId, capacity: u64, size: u64) -> Self {
        Zone {
            id,
            state: ZoneState::Empty,
            wp: 0,
            capacity: capacity.min(size),
            size,
            blocks: Vec::new(),
            resets: 0,
            burned: 0,
        }
    }

    /// The zone identifier.
    pub fn id(&self) -> ZoneId {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> ZoneState {
        self.state
    }

    /// Current write pointer (pages written since last reset).
    pub fn write_pointer(&self) -> u64 {
        self.wp
    }

    /// Writable capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Addressable size in pages.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Remaining writable pages.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.wp
    }

    /// Completed resets.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Pages burned by transient program failures since the last reset.
    pub fn burned(&self) -> u32 {
        self.burned
    }

    /// The backing blocks, in stripe order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Maps a zone-relative page offset to its backing block and
    /// block-internal page index.
    ///
    /// # Panics
    ///
    /// Panics if the zone has no blocks (offline zones are rejected before
    /// translation).
    #[inline]
    pub fn locate(&self, offset: u64) -> (BlockId, u32) {
        let stripe = self.blocks.len() as u64;
        // The stripe is a power of two until a block retires: shift and
        // mask then, divide only across a shrunken stripe.
        let (lane, page) = if stripe.is_power_of_two() {
            (offset & (stripe - 1), offset >> stripe.trailing_zeros())
        } else {
            (offset % stripe, offset / stripe)
        };
        (self.blocks[lane as usize], page as u32)
    }

    // State transitions belong to [`crate::ZoneTable`]: every one of
    // them interacts with the namespace-wide active/open/empty
    // accounting the table keeps. Hosts see zones read-only through
    // [`crate::backend::ZonedDevice`].

    /// Sets the state without any accounting — [`crate::ZoneTable`]
    /// only.
    pub fn set_state(&mut self, state: ZoneState) {
        self.state = state;
    }

    /// Advances the write pointer by `pages` — [`crate::ZoneTable`]
    /// only.
    pub fn advance_wp(&mut self, pages: u64) {
        debug_assert!(
            self.wp + pages <= self.capacity,
            "write pointer past capacity"
        );
        self.wp += pages;
    }

    /// Rewinds the write pointer and counts a completed reset —
    /// [`crate::ZoneTable`] only.
    pub fn note_reset(&mut self) {
        self.wp = 0;
        self.resets += 1;
        self.burned = 0;
        self.state = ZoneState::Empty;
    }

    /// Records a transient program failure: the slot at the write pointer
    /// is consumed but holds no data. The wp still advances (flash pages
    /// cannot be re-programmed before erase), so the burned slot becomes a
    /// hole readers must tolerate.
    pub fn note_burn(&mut self) {
        self.burned += 1;
    }

    /// Back to the state the zone was created in, reset count included:
    /// a device rebuilding from durable media starts every zone here.
    pub(crate) fn forget(&mut self) {
        self.note_reset();
        self.resets = 0;
    }

    /// Removes a retired block from the stripe and shrinks capacity.
    /// Returns the new capacity. Must only be called on an empty zone
    /// (blocks retire during reset).
    pub(crate) fn retire_block(&mut self, block: BlockId, pages_per_block: u64) -> u64 {
        debug_assert_eq!(self.wp, 0, "retire with data present");
        self.blocks.retain(|&b| b != block);
        self.capacity = (self.blocks.len() as u64 * pages_per_block).min(self.size);
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> Zone {
        Zone::new(ZoneId(0), vec![BlockId(0), BlockId(1), BlockId(2)], 16, 48)
    }

    #[test]
    fn fresh_zone_is_empty_with_full_capacity() {
        let z = zone();
        assert_eq!(z.state(), ZoneState::Empty);
        assert_eq!(z.write_pointer(), 0);
        assert_eq!(z.capacity(), 48);
        assert_eq!(z.remaining(), 48);
    }

    #[test]
    fn capacity_clamped_by_size() {
        let z = Zone::new(ZoneId(1), vec![BlockId(0), BlockId(1)], 16, 24);
        assert_eq!(z.capacity(), 24); // 32 pages of flash, 24 addressable.
    }

    #[test]
    fn locate_stripes_round_robin() {
        let z = zone();
        assert_eq!(z.locate(0), (BlockId(0), 0));
        assert_eq!(z.locate(1), (BlockId(1), 0));
        assert_eq!(z.locate(2), (BlockId(2), 0));
        assert_eq!(z.locate(3), (BlockId(0), 1));
        assert_eq!(z.locate(47), (BlockId(2), 15));
    }

    #[test]
    fn locate_matches_division_for_every_stripe_and_offset() {
        // Built at each width, and worn down to it one block at a time.
        let mut worn = Zone::new(ZoneId(0), (0..8).map(BlockId).collect(), 16, 128);
        for stripe in (1..=8u64).rev() {
            let built = Zone::new(
                ZoneId(1),
                (0..stripe as u32).map(BlockId).collect(),
                16,
                128,
            );
            for z in [&built, &worn] {
                assert_eq!(z.blocks().len() as u64, stripe);
                assert_eq!(z.capacity(), stripe * 16);
                for o in 0..z.capacity() {
                    let want = (z.blocks()[(o % stripe) as usize], (o / stripe) as u32);
                    assert_eq!(z.locate(o), want, "stripe {stripe}, offset {o}");
                }
            }
            // Retire from the middle so the survivors are not 0..stripe.
            worn.retire_block(worn.blocks()[worn.blocks().len() / 2], 16);
        }
    }

    #[test]
    #[should_panic(expected = "divisor of zero")]
    fn locate_in_a_zone_without_blocks_panics() {
        Zone::with_capacity(ZoneId(0), 16, 16).locate(0);
    }

    #[test]
    fn state_activity_classification() {
        assert!(!ZoneState::Empty.is_active());
        assert!(ZoneState::ImplicitlyOpened.is_active());
        assert!(ZoneState::ExplicitlyOpened.is_active());
        assert!(ZoneState::Closed.is_active());
        assert!(!ZoneState::Full.is_active());
        assert!(ZoneState::ImplicitlyOpened.is_open());
        assert!(!ZoneState::Closed.is_open());
    }

    #[test]
    fn state_codes_round_trip_and_reject_garbage() {
        for state in ZoneState::ALL {
            assert_eq!(ZoneState::from_code(state.to_code()), Some(state));
        }
        // Codes are distinct (the encoding is injective).
        let codes: std::collections::HashSet<_> =
            ZoneState::ALL.iter().map(|s| s.to_code()).collect();
        assert_eq!(codes.len(), ZoneState::ALL.len());
        assert_eq!(ZoneState::from_code(7), None);
        assert_eq!(ZoneState::from_code(255), None);
    }

    #[test]
    fn with_capacity_builds_blockless_zone() {
        let z = Zone::with_capacity(ZoneId(3), 60, 64);
        assert_eq!(z.state(), ZoneState::Empty);
        assert_eq!(z.capacity(), 60);
        assert_eq!(z.size(), 64);
        assert!(z.blocks().is_empty());
    }

    #[test]
    fn retire_block_shrinks_capacity() {
        let mut z = zone();
        z.retire_block(BlockId(1), 16);
        assert_eq!(z.capacity(), 32);
        assert_eq!(z.blocks(), &[BlockId(0), BlockId(2)]);
        // Striping re-densifies over the remaining blocks.
        assert_eq!(z.locate(1), (BlockId(2), 0));
    }

    #[test]
    fn reset_rewinds_and_counts() {
        let mut z = zone();
        z.set_state(ZoneState::Full);
        z.advance_wp(1);
        z.note_reset();
        assert_eq!(z.write_pointer(), 0);
        assert_eq!(z.resets(), 1);
        assert_eq!(z.state(), ZoneState::Empty);
    }
}
