//! Per-erasure-block state: page validity, stamps, write cursor, wear.
//!
//! A block enforces the two §2.1 invariants locally — erase before
//! program, and strictly sequential programming — and tracks the
//! valid/invalid page accounting that garbage collection policies consume.
//!
//! State for every block of a device lives in one [`BlockStore`]: a small
//! header per block, one stamp per page in a single device-wide array and
//! **one validity bit per page** in a single device-wide bitmap (each
//! block owns ⌈pages/64⌉ whole words of it). A page's [`PageState`] is not
//! stored; it is derived — `Free` at or past the block's cursor, otherwise
//! `Valid` or `Invalid` by its bit — so invalidating a page touches the
//! header and one word, scans for valid pages are `trailing_zeros` over a
//! few words, and an erase clears those words instead of rewriting every
//! page slot. Bits at or past the cursor are always clear. [`Block`] is
//! the borrowed read-only view of one block that
//! [`crate::FlashDevice::block`] hands out.

use crate::error::FlashError;
use crate::geometry::{BlockId, Ppa};

/// The state of one page within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and never programmed since.
    Free,
    /// Programmed and still logically live; carries the writer's stamp.
    Valid(u64),
    /// Programmed but since logically overwritten or deleted.
    Invalid,
}

/// Lifecycle status of the whole block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStatus {
    /// Usable: erased or partially/fully programmed.
    Good,
    /// Retired after exceeding its endurance rating.
    Bad,
}

/// Everything about a block that is not per page.
#[derive(Debug, Clone, Copy)]
struct BlockHead {
    /// Next page that may be programmed; equals the page count when full.
    cursor: u32,
    /// Completed program/erase cycles.
    wear: u32,
    /// Live (valid) page count, maintained incrementally.
    valid: u32,
    status: BlockStatus,
    /// Virtual timestamp of the last erase, for age-based GC policies.
    erased_at_ns: u64,
}

/// Page and block state for a whole device.
#[derive(Debug, Clone)]
pub(crate) struct BlockStore {
    heads: Vec<BlockHead>,
    /// Stamp of every page, block-major; meaningful only while the
    /// page's validity bit is set.
    stamps: Vec<u64>,
    /// One bit per page, `words_per_block` words per block.
    valid: Vec<u64>,
    pages_per_block: u32,
    words_per_block: u32,
}

impl BlockStore {
    /// Creates `blocks` erased blocks of `pages_per_block` free pages.
    pub(crate) fn new(blocks: u32, pages_per_block: u32) -> Self {
        let words_per_block = pages_per_block.div_ceil(64);
        BlockStore {
            heads: vec![
                BlockHead {
                    cursor: 0,
                    wear: 0,
                    valid: 0,
                    status: BlockStatus::Good,
                    erased_at_ns: 0,
                };
                blocks as usize
            ],
            stamps: vec![0; blocks as usize * pages_per_block as usize],
            valid: vec![0; blocks as usize * words_per_block as usize],
            pages_per_block,
            words_per_block,
        }
    }

    /// The read-only view of block `id`, or `None` for unknown
    /// identifiers.
    #[inline]
    pub(crate) fn get(&self, id: BlockId) -> Option<Block<'_>> {
        let head = self.heads.get(id.0 as usize)?;
        Some(Block {
            id,
            head,
            store: self,
        })
    }

    /// Views of every block, in identifier order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Block<'_>> {
        self.heads.iter().enumerate().map(|(i, head)| Block {
            id: BlockId(i as u32),
            head,
            store: self,
        })
    }

    #[inline]
    fn stamp_index(&self, id: BlockId, page: u32) -> usize {
        id.0 as usize * self.pages_per_block as usize + page as usize
    }

    /// The stamp last programmed at `page` of block `id`; meaningful only
    /// while the page's validity bit is set.
    #[inline]
    pub(crate) fn stamp(&self, id: BlockId, page: u32) -> u64 {
        self.stamps[self.stamp_index(id, page)]
    }

    /// Index of the validity word holding `page`'s bit, and the bit's mask.
    #[inline]
    fn bit_of(&self, id: BlockId, page: u32) -> (usize, u64) {
        (
            id.0 as usize * self.words_per_block as usize + (page / 64) as usize,
            1 << (page % 64),
        )
    }

    fn words_mut(&mut self, id: BlockId) -> &mut [u64] {
        let w = self.words_per_block as usize;
        &mut self.valid[id.0 as usize * w..][..w]
    }

    /// The offset of the next page that may be programmed.
    fn next_programmable(&self, id: BlockId) -> Result<u32, FlashError> {
        let head = &self.heads[id.0 as usize];
        if head.status == BlockStatus::Bad {
            return Err(FlashError::BadBlock(id));
        }
        if head.cursor == self.pages_per_block {
            return Err(FlashError::BlockFull(id));
        }
        Ok(head.cursor)
    }

    /// Consumes the next sequential page.
    fn take_next(&mut self, id: BlockId) -> Result<u32, FlashError> {
        let page = self.next_programmable(id)?;
        self.heads[id.0 as usize].cursor += 1;
        Ok(page)
    }

    /// Programs the next sequential page with `stamp`, returning its
    /// offset.
    ///
    /// # Errors
    ///
    /// - [`FlashError::BadBlock`] if the block is retired.
    /// - [`FlashError::BlockFull`] if no free pages remain.
    #[inline]
    pub(crate) fn program_next(&mut self, id: BlockId, stamp: u64) -> Result<u32, FlashError> {
        let page = self.take_next(id)?;
        self.heads[id.0 as usize].valid += 1;
        let at = self.stamp_index(id, page);
        self.stamps[at] = stamp;
        let (word, mask) = self.bit_of(id, page);
        self.valid[word] |= mask;
        Ok(page)
    }

    /// Burns the next sequential page: the program pulse ran and consumed
    /// the page, but the data did not take. The page lands `Invalid` (its
    /// bit stays clear) and the cursor advances — exactly what a failed
    /// program leaves behind on real NAND (the page can never be
    /// re-programmed before an erase). Returns the burned page offset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockStore::program_next`].
    pub(crate) fn burn_next(&mut self, id: BlockId) -> Result<u32, FlashError> {
        self.take_next(id)
    }

    /// Retires the block immediately (a grown bad block: an erase failed
    /// mid-life). Contents are destroyed, like a worn-out retirement.
    pub(crate) fn retire(&mut self, id: BlockId) {
        self.words_mut(id).fill(0);
        let head = &mut self.heads[id.0 as usize];
        head.cursor = 0;
        head.valid = 0;
        head.status = BlockStatus::Bad;
    }

    /// Marks a programmed page invalid (logically overwritten/deleted).
    ///
    /// Idempotent for already-invalid pages.
    ///
    /// # Panics
    ///
    /// Panics if the page is still free — invalidating data that was never
    /// written is always an FTL accounting bug worth failing loudly on.
    #[inline]
    pub(crate) fn invalidate(&mut self, id: BlockId, page: u32) {
        let (word, mask) = self.bit_of(id, page);
        let head = &mut self.heads[id.0 as usize];
        if page >= head.cursor {
            panic!("invalidate of free page {:?}", Ppa::new(id, page));
        }
        let bits = &mut self.valid[word];
        if *bits & mask != 0 {
            *bits &= !mask;
            head.valid -= 1;
        }
    }

    /// Erases the block, incrementing wear; retires it (returning
    /// [`FlashError::BlockWornOut`]) once wear exceeds `endurance`.
    ///
    /// `now_ns` is recorded for age-based GC policies.
    ///
    /// # Errors
    ///
    /// - [`FlashError::BadBlock`] if already retired.
    /// - [`FlashError::BlockWornOut`] when this erase exhausts endurance;
    ///   the block is retired and its contents destroyed.
    pub(crate) fn erase(
        &mut self,
        id: BlockId,
        endurance: u32,
        now_ns: u64,
    ) -> Result<(), FlashError> {
        if self.heads[id.0 as usize].status == BlockStatus::Bad {
            return Err(FlashError::BadBlock(id));
        }
        self.words_mut(id).fill(0);
        let head = &mut self.heads[id.0 as usize];
        head.cursor = 0;
        head.valid = 0;
        head.wear += 1;
        head.erased_at_ns = now_ns;
        if head.wear >= endurance {
            head.status = BlockStatus::Bad;
            return Err(FlashError::BlockWornOut(id));
        }
        Ok(())
    }
}

/// One erasure block, as a read-only view into its device's state.
#[derive(Clone, Copy)]
pub struct Block<'a> {
    id: BlockId,
    head: &'a BlockHead,
    store: &'a BlockStore,
}

impl std::fmt::Debug for Block<'_> {
    /// The block's own header; the device-wide arrays behind the view
    /// are not its to print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} {:?}", self.id, self.head)
    }
}

impl<'a> Block<'a> {
    /// The block's identifier.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Number of pages in the block.
    #[inline]
    pub fn num_pages(&self) -> u32 {
        self.store.pages_per_block
    }

    /// Next programmable page offset; equals [`Block::num_pages`] when the
    /// block is full.
    #[inline]
    pub fn cursor(&self) -> u32 {
        self.head.cursor
    }

    /// Free (erased, unprogrammed) pages remaining.
    #[inline]
    pub fn free_pages(&self) -> u32 {
        self.num_pages() - self.head.cursor
    }

    /// Live page count.
    #[inline]
    pub fn valid_pages(&self) -> u32 {
        self.head.valid
    }

    /// Programmed-but-dead page count.
    #[inline]
    pub fn invalid_pages(&self) -> u32 {
        self.head.cursor - self.head.valid
    }

    /// Completed program/erase cycles.
    #[inline]
    pub fn wear(&self) -> u32 {
        self.head.wear
    }

    /// Whether the block is usable or retired.
    #[inline]
    pub fn status(&self) -> BlockStatus {
        self.head.status
    }

    /// Virtual timestamp (ns) of the last erase.
    #[inline]
    pub fn erased_at_ns(&self) -> u64 {
        self.head.erased_at_ns
    }

    /// True when every page has been programmed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.head.cursor == self.num_pages()
    }

    /// True when the block is erased and empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.cursor == 0
    }

    /// The block's validity words and stamps.
    #[inline]
    fn pages(&self) -> (&'a [u64], &'a [u64]) {
        let w = self.store.words_per_block as usize;
        let p = self.store.pages_per_block as usize;
        let b = self.id.0 as usize;
        (
            &self.store.valid[b * w..][..w],
            &self.store.stamps[b * p..][..p],
        )
    }

    /// Returns the state of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range; callers validate against the
    /// geometry first.
    #[inline]
    pub fn page(&self, page: u32) -> PageState {
        assert!(page < self.num_pages(), "page {page} out of range");
        if page >= self.head.cursor {
            return PageState::Free;
        }
        let (word, mask) = self.store.bit_of(self.id, page);
        if self.store.valid[word] & mask != 0 {
            PageState::Valid(self.store.stamp(self.id, page))
        } else {
            PageState::Invalid
        }
    }

    /// Reads the stamp at `page`.
    ///
    /// # Errors
    ///
    /// - [`FlashError::BadBlock`] if the block has been retired — a
    ///   retired block's pages are gone, and reporting them as merely
    ///   "unwritten" would hide the retirement from upper layers.
    /// - [`FlashError::ReadUnwritten`] for free pages. Reading an
    ///   *invalid* page succeeds (the charge persists until erase) but
    ///   returns `None`, mirroring how real firmware can still sense
    ///   logically dead data.
    #[inline]
    pub fn read(&self, page: u32) -> Result<Option<u64>, FlashError> {
        Ok(self.sense(page)?.then(|| self.store.stamp(self.id, page)))
    }

    /// [`Block::read`] without the stamp: whether `page` is valid, from
    /// its validity bit alone.
    ///
    /// # Errors
    ///
    /// As [`Block::read`].
    #[inline]
    pub(crate) fn sense(&self, page: u32) -> Result<bool, FlashError> {
        if self.head.status == BlockStatus::Bad {
            return Err(FlashError::BadBlock(self.id));
        }
        assert!(page < self.num_pages(), "page {page} out of range");
        if page >= self.head.cursor {
            return Err(FlashError::ReadUnwritten(Ppa::new(self.id, page)));
        }
        let (word, mask) = self.store.bit_of(self.id, page);
        Ok(self.store.valid[word] & mask != 0)
    }

    /// Iterates over `(page, stamp)` for all currently valid pages.
    pub fn valid_entries(&self) -> impl Iterator<Item = (u32, u64)> + 'a {
        let (words, stamps) = self.pages();
        words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let page = w as u32 * 64 + rest.trailing_zeros();
                rest &= rest - 1;
                Some((page, stamps[page as usize]))
            })
        })
    }

    /// The first valid page at or after `start`, with its stamp. Lets
    /// incremental GC resume a valid-page scan where it left off instead
    /// of rescanning the block front on every copy.
    #[inline]
    pub fn first_valid_from(&self, start: u32) -> Option<(u32, u64)> {
        let (words, stamps) = self.pages();
        let mut w = (start / 64) as usize;
        let mut word = *words.get(w)? & (u64::MAX << (start % 64));
        while word == 0 {
            w += 1;
            word = *words.get(w)?;
        }
        let page = w as u32 * 64 + word.trailing_zeros();
        Some((page, stamps[page as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockId = BlockId(0);

    /// One 4-page block.
    fn store() -> BlockStore {
        BlockStore::new(1, 4)
    }

    fn block(s: &BlockStore) -> Block<'_> {
        s.get(B).unwrap()
    }

    #[test]
    fn fresh_block_is_empty_and_good() {
        let s = store();
        let b = block(&s);
        assert!(b.is_empty());
        assert!(!b.is_full());
        assert_eq!(b.free_pages(), 4);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.status(), BlockStatus::Good);
        assert!(s.get(BlockId(1)).is_none());
    }

    #[test]
    fn sequential_program_fills_block() {
        let mut s = store();
        for i in 0..4 {
            assert_eq!(s.program_next(B, 100 + i as u64).unwrap(), i);
        }
        assert!(block(&s).is_full());
        assert_eq!(s.program_next(B, 0), Err(FlashError::BlockFull(B)));
    }

    #[test]
    fn read_semantics() {
        let mut s = store();
        assert_eq!(
            block(&s).read(0),
            Err(FlashError::ReadUnwritten(Ppa::new(B, 0)))
        );
        s.program_next(B, 42).unwrap();
        assert_eq!(block(&s).read(0), Ok(Some(42)));
        s.invalidate(B, 0);
        assert_eq!(block(&s).read(0), Ok(None));
    }

    #[test]
    fn invalidate_updates_counts_and_is_idempotent() {
        let mut s = store();
        s.program_next(B, 1).unwrap();
        s.program_next(B, 2).unwrap();
        assert_eq!(block(&s).valid_pages(), 2);
        s.invalidate(B, 0);
        assert_eq!(block(&s).valid_pages(), 1);
        assert_eq!(block(&s).invalid_pages(), 1);
        s.invalidate(B, 0);
        assert_eq!(block(&s).valid_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "invalidate of free page")]
    fn invalidate_free_page_panics() {
        let mut s = store();
        s.invalidate(B, 0);
    }

    #[test]
    #[should_panic(expected = "invalidate of free page")]
    fn invalidate_past_the_cursor_panics_even_with_a_stale_stamp() {
        // The page held data before the erase; only the cursor says it
        // is free now.
        let mut s = store();
        s.program_next(B, 1).unwrap();
        s.program_next(B, 2).unwrap();
        s.erase(B, 1000, 0).unwrap();
        s.program_next(B, 3).unwrap();
        s.invalidate(B, 1);
    }

    #[test]
    fn erase_resets_and_wears() {
        let mut s = store();
        s.program_next(B, 1).unwrap();
        s.erase(B, 1000, 99).unwrap();
        let b = block(&s);
        assert!(b.is_empty());
        assert_eq!(b.wear(), 1);
        assert_eq!(b.erased_at_ns(), 99);
        assert_eq!(b.read(0), Err(FlashError::ReadUnwritten(Ppa::new(B, 0))));
    }

    #[test]
    fn wear_out_retires_block() {
        let mut s = store();
        s.erase(B, 2, 0).unwrap(); // Wear 1 of 2.
        let err = s.erase(B, 2, 0).unwrap_err(); // Wear 2 == endurance: retired.
        assert_eq!(err, FlashError::BlockWornOut(B));
        assert_eq!(block(&s).status(), BlockStatus::Bad);
        assert_eq!(s.program_next(B, 0), Err(FlashError::BadBlock(B)));
        assert_eq!(s.burn_next(B), Err(FlashError::BadBlock(B)));
        assert_eq!(s.erase(B, 2, 0), Err(FlashError::BadBlock(B)));
    }

    #[test]
    fn valid_entries_lists_live_pages_only() {
        let mut s = store();
        s.program_next(B, 10).unwrap();
        s.program_next(B, 11).unwrap();
        s.program_next(B, 12).unwrap();
        s.invalidate(B, 1);
        let entries: Vec<_> = block(&s).valid_entries().collect();
        assert_eq!(entries, vec![(0, 10), (2, 12)]);
    }

    /// Checks every read accessor of `b` against the page states the
    /// caller expects: `page`, `read`, the counts, `valid_entries`, and
    /// `first_valid_from` for every start up to past the end.
    fn assert_block_is(b: Block<'_>, want: &[PageState]) {
        let pages = want.len() as u32;
        assert_eq!(b.num_pages(), pages);
        let live: Vec<(u32, u64)> = (0..pages)
            .filter_map(|p| match want[p as usize] {
                PageState::Valid(s) => Some((p, s)),
                _ => None,
            })
            .collect();
        let cursor = want
            .iter()
            .position(|s| *s == PageState::Free)
            .unwrap_or(want.len()) as u32;
        assert_eq!(b.cursor(), cursor);
        assert_eq!(b.free_pages(), pages - cursor);
        assert_eq!(b.valid_pages(), live.len() as u32);
        assert_eq!(b.invalid_pages(), cursor - live.len() as u32);
        for p in 0..pages {
            assert_eq!(b.page(p), want[p as usize], "page {p}");
            let read = match want[p as usize] {
                PageState::Free => Err(FlashError::ReadUnwritten(Ppa::new(b.id(), p))),
                PageState::Valid(s) => Ok(Some(s)),
                PageState::Invalid => Ok(None),
            };
            assert_eq!(b.read(p), read, "read {p}");
        }
        assert_eq!(b.valid_entries().collect::<Vec<_>>(), live);
        for start in 0..pages + 70 {
            let first = live.iter().copied().find(|&(p, _)| p >= start);
            assert_eq!(b.first_valid_from(start), first, "scan from {start}");
        }
    }

    /// Drives the middle block of three through programs, burns,
    /// invalidations and an erase, comparing every accessor with a plain
    /// `Vec<PageState>` after each step; the neighbours must not move.
    fn exercise(pages: u32) {
        let mid = BlockId(1);
        let mut s = BlockStore::new(3, pages);
        for side in [BlockId(0), BlockId(2)] {
            for p in 0..pages {
                s.program_next(side, 7_000 + p as u64).unwrap();
            }
        }
        let sides: Vec<PageState> = (0..pages)
            .map(|p| PageState::Valid(7_000 + p as u64))
            .collect();
        let mut want = vec![PageState::Free; pages as usize];
        let check = |s: &BlockStore, want: &[PageState]| {
            assert_block_is(s.get(mid).unwrap(), want);
            assert_block_is(s.get(BlockId(0)).unwrap(), &sides);
            assert_block_is(s.get(BlockId(2)).unwrap(), &sides);
        };
        check(&s, &want);
        for p in 0..pages {
            // Every fifth page burns: consumed, never valid.
            if p % 5 == 4 {
                assert_eq!(s.burn_next(mid).unwrap(), p);
                want[p as usize] = PageState::Invalid;
            } else {
                assert_eq!(s.program_next(mid, 100 + p as u64).unwrap(), p);
                want[p as usize] = PageState::Valid(100 + p as u64);
            }
            if p % 7 == 0 || p + 1 == pages {
                check(&s, &want);
            }
        }
        assert_eq!(s.burn_next(mid), Err(FlashError::BlockFull(mid)));
        // Word edges first, then every third page.
        let edges = [0, 62, 63, 64, 65, 127, 128, pages - 1];
        for p in edges.into_iter().filter(|&p| p < pages) {
            s.invalidate(mid, p);
            want[p as usize] = PageState::Invalid;
            check(&s, &want);
        }
        for p in (0..pages).step_by(3) {
            s.invalidate(mid, p);
            want[p as usize] = PageState::Invalid;
        }
        check(&s, &want);
        // Erase, then refill only the first pages: bits of the previous
        // life beyond the new cursor must be gone.
        s.erase(mid, 1000, 5).unwrap();
        want.fill(PageState::Free);
        check(&s, &want);
        for p in 0..3 {
            s.program_next(mid, 900 + p as u64).unwrap();
            want[p as usize] = PageState::Valid(900 + p as u64);
        }
        check(&s, &want);
        // Retirement destroys the contents the same way.
        s.retire(mid);
        let b = s.get(mid).unwrap();
        assert_eq!(b.status(), BlockStatus::Bad);
        assert_eq!((b.cursor(), b.valid_pages()), (0, 0));
        assert_eq!(b.read(0), Err(FlashError::BadBlock(mid)));
        assert_eq!(b.valid_entries().count(), 0);
        for start in 0..pages {
            assert_eq!(b.first_valid_from(start), None);
            assert_eq!(b.page(start), PageState::Free);
        }
        assert_block_is(s.get(BlockId(0)).unwrap(), &sides);
        assert_block_is(s.get(BlockId(2)).unwrap(), &sides);
    }

    #[test]
    fn accessors_match_a_page_state_model_on_16_page_blocks() {
        exercise(16);
    }

    #[test]
    fn accessors_match_a_page_state_model_on_100_page_blocks() {
        exercise(100);
    }

    #[test]
    fn accessors_match_a_page_state_model_on_256_page_blocks() {
        exercise(256);
    }

    #[test]
    fn burned_page_reads_invalid_and_is_never_listed() {
        let mut s = store();
        s.program_next(B, 1).unwrap();
        assert_eq!(s.burn_next(B).unwrap(), 1);
        let b = block(&s);
        assert_eq!(b.page(1), PageState::Invalid);
        assert_eq!(b.read(1), Ok(None));
        assert_eq!((b.cursor(), b.valid_pages(), b.invalid_pages()), (2, 1, 1));
        assert_eq!(b.first_valid_from(1), None);
        // Invalidating it is the idempotent no-op it is for any dead page.
        s.invalidate(B, 1);
        assert_eq!(block(&s).valid_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_out_of_range_panics() {
        let s = store();
        block(&s).page(4);
    }
}
