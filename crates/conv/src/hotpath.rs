//! Incrementally-maintained victim and free-block indexes for the FTL
//! hot path.
//!
//! The original allocator answered every per-write question by scanning:
//! victim selection walked the whole sealed list (`min_by_key`), the
//! free-list allocator walked every free block for the least-worn one,
//! and `pick_plane` re-counted garbage on each write. Fine at unit-test
//! geometries, dominant at realistic ones (thousands of blocks per
//! plane). The structures here replace those scans with indexes that are
//! maintained on every state transition — program, invalidate, seal,
//! erase, fault retirement, power-loss replay.
//!
//! The index is specialized to the configured GC policy, because the
//! maintenance cost lands on every page invalidation and a GC-heavy
//! workload invalidates on every host write:
//!
//! - **Greedy** keeps a lazy-deletion min-heap keyed `(valid, seq,
//!   block)`. Invalidation pushes the block's updated key and leaves the
//!   stale one in place; peeks discard keys that no longer match the
//!   block's current state. A block's fresh key always sorts before its
//!   stale keys (valid only decreases while sealed), so the first fresh
//!   key at the top is the true minimum. The heap is rebuilt from live
//!   entries when stale keys outnumber live blocks 4:1, keeping memory
//!   and push depth bounded.
//! - **Fifo** uses the same heap keyed `(0, seq, block)`; seal order
//!   never changes, so invalidation costs nothing at all.
//! - **Cost-benefit** keeps two ordered sets, `(valid, seq, block)` and
//!   `(valid, erased_at, seq, block)`, and selects by walking
//!   valid-count buckets (see `peek_cost_benefit`).
//!
//! **Determinism contract**: every peek reproduces the *exact* element
//! the replaced linear scan would have chosen, including tie-breaks:
//!
//! - `min_by_key`/strict-`<` scans keep the **first** minimum in
//!   iteration order; iteration order was seal order, so keys carry the
//!   monotone seal sequence and the minimum key is the scan's answer.
//! - `max_by_key` keeps the **last** maximum, so the reclaimable-page
//!   fallback wants the maximum `(reclaimable, seq)` — a total order, which
//!   an unordered scan over the entry table computes exactly. That path
//!   only runs when the policy's pick has nothing to reclaim, so it
//!   stays off the hot path (likewise the wear-level cold scan).
//! - The free list replays `Vec::swap_remove` position shuffling, since
//!   the first-minimum wear scan was position-order dependent.
//! - Cost-benefit resolves equal-score ties — including f64 rounding
//!   collapses — to the earliest sealed block, exactly as the linear
//!   first-maximum scan did.
//!
//! The experiment suite's byte-identical reports before/after this
//! module are the enforcement mechanism (see `tests/report_lockstep.rs`
//! in `bh-bench`), backed by the oracle property test in `bh-tests` —
//! [`VictimIndex::oracle_select`] *is* the original scan.

use crate::policy::{cost_benefit_score, BlockSnapshot, GcPolicy};
use bh_flash::BlockId;
use bh_metrics::Nanos;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Per-block facts the victim index tracks while a block is sealed.
/// All fields are immutable for the lifetime of the entry except
/// `valid`/`reclaimable`, which move in lockstep on page invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SealedEntry {
    /// Monotone seal sequence; within a plane this reproduces the seal
    /// order of the old candidate list.
    pub seq: u64,
    /// Valid (live) pages.
    pub valid: u32,
    /// Pages an erase frees, `pages_per_block - valid`: the invalid
    /// (garbage) pages of a fully programmed block, plus the
    /// unprogrammed tail of a block a power cycle sealed part-written.
    pub reclaimable: u32,
    /// Erase count at seal time (constant while sealed).
    pub wear: u32,
    /// Last-erase instant in nanoseconds (constant while sealed).
    pub erased_at: u64,
}

/// Heap keys: `(valid, seq, block)` for greedy, `(0, seq, block)` for
/// FIFO, wrapped in `Reverse` to turn the max-heap into a min-heap.
type HeapKey = Reverse<(u32, u64, u32)>;

/// Index over one plane's sealed blocks, specialized to the configured
/// GC policy.
#[derive(Debug)]
pub(crate) struct VictimIndex {
    /// First block id of the plane; `entries` is dense from it.
    base: u32,
    policy: GcPolicy,
    entries: Vec<Option<SealedEntry>>,
    /// Tracked (sealed) block count.
    live: usize,
    /// Total reclaimable pages across tracked blocks (the old
    /// `plane_garbage_pages` sum, maintained instead of recomputed).
    garbage: u64,
    /// Greedy/FIFO lazy-deletion min-heap.
    heap: BinaryHeap<HeapKey>,
    /// Cost-benefit only: `(valid, seq, block)`.
    by_valid: BTreeSet<(u32, u64, u32)>,
    /// Cost-benefit only: `(valid, erased_at, seq, block)`.
    by_cb: BTreeSet<(u32, u64, u64, u32)>,
}

impl VictimIndex {
    /// An empty index for a plane whose blocks are
    /// `base .. base + blocks`, serving `policy`.
    pub fn new(base: u32, blocks: u32, policy: GcPolicy) -> Self {
        VictimIndex {
            base,
            policy,
            entries: vec![None; blocks as usize],
            live: 0,
            garbage: 0,
            heap: BinaryHeap::new(),
            by_valid: BTreeSet::new(),
            by_cb: BTreeSet::new(),
        }
    }

    fn slot(&self, block: BlockId) -> usize {
        (block.0 - self.base) as usize
    }

    /// Total reclaimable pages across sealed blocks.
    pub fn garbage(&self) -> u64 {
        self.garbage
    }

    fn heap_key(policy: GcPolicy, entry: &SealedEntry, block: u32) -> HeapKey {
        match policy {
            GcPolicy::Greedy => Reverse((entry.valid, entry.seq, block)),
            GcPolicy::Fifo => Reverse((0, entry.seq, block)),
            GcPolicy::CostBenefit => unreachable!("cost-benefit uses ordered sets"),
        }
    }

    /// True when a heap key reflects its block's current state.
    fn key_fresh(&self, key: &HeapKey) -> bool {
        let Reverse((v, seq, block)) = *key;
        match self.entries[(block - self.base) as usize] {
            Some(e) => match self.policy {
                GcPolicy::Greedy => e.seq == seq && e.valid == v,
                GcPolicy::Fifo => e.seq == seq,
                GcPolicy::CostBenefit => unreachable!(),
            },
            None => false,
        }
    }

    /// Discards stale keys so the heap top (if any) is fresh.
    fn settle_heap(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.key_fresh(top) {
                return;
            }
            self.heap.pop();
        }
    }

    /// Rebuilds the heap from live entries once stale keys dominate,
    /// bounding memory and push depth. Amortized O(1) per mutation.
    fn maybe_compact(&mut self) {
        if self.heap.len() > 64 && self.heap.len() > 4 * self.live {
            let policy = self.policy;
            let base = self.base;
            self.heap = self
                .entries
                .iter()
                .enumerate()
                .filter_map(|(slot, e)| {
                    e.as_ref()
                        .map(|e| Self::heap_key(policy, e, base + slot as u32))
                })
                .collect();
        }
    }

    /// Tracks a newly sealed block.
    pub fn insert(&mut self, block: BlockId, entry: SealedEntry) {
        let slot = self.slot(block);
        debug_assert!(self.entries[slot].is_none(), "block sealed twice");
        // Record the entry before touching the heap: compaction rebuilds
        // from `entries`, so the new block must already be there.
        self.garbage += entry.reclaimable as u64;
        self.live += 1;
        self.entries[slot] = Some(entry);
        match self.policy {
            GcPolicy::Greedy | GcPolicy::Fifo => {
                self.heap.push(Self::heap_key(self.policy, &entry, block.0));
                self.maybe_compact();
            }
            GcPolicy::CostBenefit => {
                self.by_valid.insert((entry.valid, entry.seq, block.0));
                self.by_cb
                    .insert((entry.valid, entry.erased_at, entry.seq, block.0));
            }
        }
    }

    /// Stops tracking `block` (chosen as a GC or wear-leveling victim).
    /// Heap keys are discarded lazily at the next peek.
    pub fn remove(&mut self, block: BlockId) {
        let slot = self.slot(block);
        let Some(e) = self.entries[slot].take() else {
            return;
        };
        if self.policy == GcPolicy::CostBenefit {
            self.by_valid.remove(&(e.valid, e.seq, block.0));
            self.by_cb.remove(&(e.valid, e.erased_at, e.seq, block.0));
        }
        self.garbage -= e.reclaimable as u64;
        self.live -= 1;
    }

    /// Forgets everything (power-loss replay rebuilds from flash state).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.live = 0;
        self.garbage = 0;
        self.heap.clear();
        self.by_valid.clear();
        self.by_cb.clear();
    }

    /// One page of `block` went from valid to invalid. No-op for
    /// untracked blocks (open frontiers, in-flight victims).
    pub fn on_invalidate(&mut self, block: BlockId) {
        let slot = self.slot(block);
        let Some(e) = self.entries[slot].as_mut() else {
            return;
        };
        let (old_valid, seq, erased_at) = (e.valid, e.seq, e.erased_at);
        e.valid -= 1;
        e.reclaimable += 1;
        let valid = e.valid;
        self.garbage += 1;
        match self.policy {
            GcPolicy::Greedy => {
                self.heap.push(Reverse((valid, seq, block.0)));
                self.maybe_compact();
            }
            GcPolicy::Fifo => {}
            GcPolicy::CostBenefit => {
                self.by_valid.remove(&(old_valid, seq, block.0));
                self.by_valid.insert((valid, seq, block.0));
                self.by_cb.remove(&(old_valid, erased_at, seq, block.0));
                self.by_cb.insert((valid, erased_at, seq, block.0));
            }
        }
    }

    fn entry(&self, block: BlockId) -> &SealedEntry {
        self.entries[self.slot(block)]
            .as_ref()
            .expect("indexed block must be tracked")
    }

    /// The configured policy's primary choice, without removing it —
    /// exactly the block `GcPolicy::select` over the seal-order
    /// candidate list would return. `&mut` only to drop stale heap keys.
    pub fn peek_policy(&mut self, now: Nanos, total_pages: u32) -> Option<BlockId> {
        match self.policy {
            // Greedy's min_by_key keeps the first minimum in seal
            // order — the minimum (valid, seq). FIFO takes candidate 0,
            // the minimum (0, seq). Both are the settled heap top.
            GcPolicy::Greedy | GcPolicy::Fifo => {
                self.settle_heap();
                self.heap.peek().map(|&Reverse((_, _, b))| BlockId(b))
            }
            GcPolicy::CostBenefit => self.peek_cost_benefit(now, total_pages),
        }
    }

    /// The fallback the old code ran when the policy's choice had
    /// nothing to reclaim: `max_by_key(reclaimable)` keeps the *last*
    /// maximum in seal order, i.e. the maximum `(reclaimable, seq)`.
    pub fn peek_max_reclaimable(&self) -> Option<(BlockId, u32)> {
        let mut best: Option<(u32, u64, u32)> = None;
        for (slot, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            if best
                .map(|(r, s, _)| (e.reclaimable, e.seq) > (r, s))
                .unwrap_or(true)
            {
                best = Some((e.reclaimable, e.seq, self.base + slot as u32));
            }
        }
        best.map(|(r, _, b)| (BlockId(b), r))
    }

    /// Reclaimable-page count of a tracked block.
    pub fn reclaimable_of(&self, block: BlockId) -> u32 {
        self.entry(block).reclaimable
    }

    /// The plane's coldest sealed block `(block, wear)` — the first
    /// strict minimum of the old seal-order wear scan, i.e. the minimum
    /// `(wear, seq)`.
    pub fn peek_min_wear(&self) -> Option<(BlockId, u32)> {
        let mut best: Option<(u32, u64, u32)> = None;
        for (slot, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            if best
                .map(|(w, s, _)| (e.wear, e.seq) < (w, s))
                .unwrap_or(true)
            {
                best = Some((e.wear, e.seq, self.base + slot as u32));
            }
        }
        best.map(|(w, _, b)| (BlockId(b), w))
    }

    /// First-maximum cost-benefit choice, replicated bucket-by-bucket.
    ///
    /// Within one valid-count bucket the score `age·(1−u)/2u` is a
    /// non-increasing function of `erased_at` (monotone in f64 too:
    /// u64→f64 conversion, adding a constant, and scaling by a positive
    /// constant all preserve order), so the bucket's best lives at the
    /// head of the `(valid, erased_at, ...)` range — then the walk
    /// continues while scores stay *equal* (f64 rounding can collapse
    /// distinct ages) to find the earliest seal among the tied, which
    /// is what the linear first-maximum scan kept. Buckets at u = 0
    /// (all +inf) and u = 1 (all zero) score identically for every
    /// member, so their earliest seal wins outright.
    fn peek_cost_benefit(&self, now: Nanos, total_pages: u32) -> Option<BlockId> {
        let score_of = |valid: u32, erased_at: u64| {
            let snap = BlockSnapshot {
                valid_pages: valid,
                total_pages,
                erased_at_ns: erased_at,
            };
            cost_benefit_score(&snap, now)
        };
        // (score, seq, block) of the best candidate so far; the linear
        // scan replaces its best only on a strictly greater score, so
        // ties keep the smaller seq.
        let mut best: Option<(f64, u64, u32)> = None;
        let mut bucket: Option<u32> = None;
        loop {
            let from = match bucket {
                None => (0u32, 0u64, 0u64, 0u32),
                Some(v) => match v.checked_add(1) {
                    Some(next) => (next, 0, 0, 0),
                    None => break,
                },
            };
            let Some(&(v, head_erased, head_seq, head_block)) = self.by_cb.range(from..).next()
            else {
                break;
            };
            bucket = Some(v);
            let (score, seq, block) = if v == 0 || v >= total_pages {
                // Score is constant across the bucket (+inf or 0): the
                // earliest seal wins. `by_valid` orders the bucket by
                // seq directly.
                let &(_, seq, block) = self
                    .by_valid
                    .range((v, 0, 0)..)
                    .next()
                    .expect("bucket exists in both sets");
                (score_of(v, 0), seq, block)
            } else {
                let head_score = score_of(v, head_erased);
                let mut seq = head_seq;
                let mut block = head_block;
                for &(bv, e, s, b) in self.by_cb.range((v, head_erased, head_seq, head_block)..) {
                    if bv != v {
                        break;
                    }
                    let sc = score_of(v, e);
                    if sc < head_score {
                        // Scores are non-increasing along the bucket;
                        // past the tied prefix nothing can win.
                        break;
                    }
                    if s < seq {
                        seq = s;
                        block = b;
                    }
                }
                (head_score, seq, block)
            };
            match best {
                Some((bs, bq, _)) if bs > score || (bs == score && bq <= seq) => {}
                _ => best = Some((score, seq, block)),
            }
        }
        best.map(|(_, _, b)| BlockId(b))
    }

    /// Full-scan re-selection over a reconstructed seal-order candidate
    /// list — byte-for-byte the logic this index replaced, including
    /// the invalid-page fallback. The property tests drive random
    /// traffic and assert the indexed selection agrees with this at
    /// every step.
    pub fn oracle_select(&self, now: Nanos, total_pages: u32) -> Option<BlockId> {
        let mut by_seq: Vec<(u64, BlockId)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| {
                e.as_ref()
                    .map(|e| (e.seq, BlockId(self.base + slot as u32)))
            })
            .collect();
        by_seq.sort_unstable();
        let candidates: Vec<BlockId> = by_seq.into_iter().map(|(_, b)| b).collect();
        let snapshot = |id: BlockId| {
            let e = self.entry(id);
            BlockSnapshot {
                valid_pages: e.valid,
                total_pages,
                erased_at_ns: e.erased_at,
            }
        };
        let idx = self.policy.select(&candidates, snapshot, now)?;
        let victim = candidates[idx];
        if self.entry(victim).reclaimable == 0 {
            let (gi, _) = candidates
                .iter()
                .enumerate()
                .max_by_key(|(_, &b)| self.entry(b).reclaimable)?;
            let greedy_victim = candidates[gi];
            if self.entry(greedy_victim).reclaimable == 0 {
                return None;
            }
            return Some(greedy_victim);
        }
        Some(victim)
    }

    /// Checks internal consistency; returns a description of the first
    /// violation. `truth` maps a tracked block to its flash-state
    /// `(valid, reclaimable, wear, erased_at)`.
    pub fn check(
        &self,
        mut truth: impl FnMut(BlockId) -> (u32, u32, u32, u64),
    ) -> Result<(), String> {
        let tracked = self.entries.iter().flatten().count();
        if tracked != self.live {
            return Err(format!("live count {} != tracked {tracked}", self.live));
        }
        if self.policy == GcPolicy::CostBenefit
            && (self.by_valid.len() != tracked || self.by_cb.len() != tracked)
        {
            return Err("cost-benefit set sizes disagree with entries".into());
        }
        let mut garbage = 0u64;
        for (slot, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            let b = self.base + slot as u32;
            let (valid, reclaimable, wear, erased_at) = truth(BlockId(b));
            if (e.valid, e.reclaimable, e.wear, e.erased_at)
                != (valid, reclaimable, wear, erased_at)
            {
                return Err(format!(
                    "block {b}: entry {e:?} != flash ({valid}, {reclaimable}, {wear}, {erased_at})"
                ));
            }
            match self.policy {
                GcPolicy::Greedy | GcPolicy::Fifo => {
                    let key = Self::heap_key(self.policy, e, b);
                    if !self.heap.iter().any(|k| *k == key) {
                        return Err(format!("block {b}: fresh key missing from heap"));
                    }
                }
                GcPolicy::CostBenefit => {
                    if !self.by_valid.contains(&(e.valid, e.seq, b))
                        || !self.by_cb.contains(&(e.valid, e.erased_at, e.seq, b))
                    {
                        return Err(format!("block {b}: missing from cost-benefit sets"));
                    }
                }
            }
            garbage += e.reclaimable as u64;
        }
        if garbage != self.garbage {
            return Err(format!(
                "garbage counter {} != recomputed {garbage}",
                self.garbage
            ));
        }
        Ok(())
    }
}

/// The erased-block pool of one plane, replacing a `Vec<BlockId>` that
/// was scanned with `min_by_key(wear)` and compacted with
/// `swap_remove`.
///
/// Allocation order is position-dependent under `swap_remove` (the last
/// element moves into the popped hole), so byte-identical behaviour
/// requires keeping the *positions* live: `slots` mirrors the original
/// `Vec` exactly, and `by_wear` keys `(wear, position)` so `.first()`
/// is the first minimum the scan kept. Wear is constant while a block
/// sits in the pool (only erases change it), so keys never go stale.
#[derive(Debug)]
pub(crate) struct FreeList {
    slots: Vec<(BlockId, u32)>,
    by_wear: BTreeSet<(u32, u32)>,
}

impl FreeList {
    pub fn new() -> Self {
        FreeList {
            slots: Vec::new(),
            by_wear: BTreeSet::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn clear(&mut self) {
        self.slots.clear();
        self.by_wear.clear();
    }

    /// Appends a block with its current wear, as `Vec::push` did.
    pub fn push(&mut self, block: BlockId, wear: u32) {
        self.slots.push((block, wear));
        self.by_wear.insert((wear, self.slots.len() as u32 - 1));
    }

    /// Pops the least-worn block — the first minimum in slot order —
    /// and replays the `swap_remove` shuffle on the vacated position.
    pub fn pop_least_worn(&mut self) -> Option<BlockId> {
        let &(wear, pos) = self.by_wear.first()?;
        self.by_wear.remove(&(wear, pos));
        let last = self.slots.len() - 1;
        if (pos as usize) < last {
            let (_, moved_wear) = self.slots[last];
            self.by_wear.remove(&(moved_wear, last as u32));
            self.by_wear.insert((moved_wear, pos));
        }
        Some(self.slots.swap_remove(pos as usize).0)
    }

    /// Checks internal consistency; `truth` returns a block's wear.
    pub fn check(&self, mut truth: impl FnMut(BlockId) -> u32) -> Result<(), String> {
        if self.by_wear.len() != self.slots.len() {
            return Err("free-list set size disagrees with slots".into());
        }
        for (i, &(b, w)) in self.slots.iter().enumerate() {
            if truth(b) != w {
                return Err(format!("free block {}: stored wear {w} is stale", b.0));
            }
            if !self.by_wear.contains(&(w, i as u32)) {
                return Err(format!("free block {} missing from by_wear", b.0));
            }
        }
        // The pop the index would take must equal the linear scan's.
        let linear = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(_, w))| w)
            .map(|(i, _)| i as u32);
        let indexed = self.by_wear.first().map(|&(_, pos)| pos);
        if linear != indexed {
            return Err(format!(
                "free-list pop disagrees: linear {linear:?} vs indexed {indexed:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, valid: u32, reclaimable: u32, wear: u32, erased_at: u64) -> SealedEntry {
        SealedEntry {
            seq,
            valid,
            reclaimable,
            wear,
            erased_at,
        }
    }

    #[test]
    fn greedy_pop_is_first_minimum_in_seal_order() {
        let mut idx = VictimIndex::new(0, 8, GcPolicy::Greedy);
        idx.insert(BlockId(3), entry(1, 5, 3, 0, 0));
        idx.insert(BlockId(1), entry(2, 2, 6, 0, 0));
        idx.insert(BlockId(4), entry(3, 2, 6, 0, 0));
        // Two blocks tie at valid=2; the earlier seal (block 1) wins.
        assert_eq!(idx.peek_policy(Nanos::ZERO, 8), Some(BlockId(1)));
        assert_eq!(idx.oracle_select(Nanos::ZERO, 8), Some(BlockId(1)));
    }

    #[test]
    fn greedy_heap_skips_stale_keys() {
        let mut idx = VictimIndex::new(0, 8, GcPolicy::Greedy);
        idx.insert(BlockId(0), entry(1, 4, 0, 0, 0));
        idx.insert(BlockId(1), entry(2, 6, 0, 0, 0));
        // Drain block 1 below block 0: stale (6, ...) and (5, ...) keys
        // linger in the heap but the fresh (3, ...) key must win.
        for _ in 0..3 {
            idx.on_invalidate(BlockId(1));
        }
        assert_eq!(idx.peek_policy(Nanos::ZERO, 8), Some(BlockId(1)));
        assert_eq!(idx.oracle_select(Nanos::ZERO, 8), Some(BlockId(1)));
        // Removing the winner exposes the other block.
        idx.remove(BlockId(1));
        assert_eq!(idx.peek_policy(Nanos::ZERO, 8), Some(BlockId(0)));
    }

    #[test]
    fn fifo_peeks_in_seal_order_regardless_of_contents() {
        let mut idx = VictimIndex::new(0, 8, GcPolicy::Fifo);
        idx.insert(BlockId(5), entry(1, 1, 7, 0, 0));
        idx.insert(BlockId(2), entry(2, 0, 8, 0, 0));
        idx.on_invalidate(BlockId(5));
        assert_eq!(idx.peek_policy(Nanos::ZERO, 8), Some(BlockId(5)));
        idx.remove(BlockId(5));
        assert_eq!(idx.peek_policy(Nanos::ZERO, 8), Some(BlockId(2)));
    }

    #[test]
    fn fallback_is_last_maximum_in_seal_order() {
        let mut idx = VictimIndex::new(0, 8, GcPolicy::Greedy);
        idx.insert(BlockId(2), entry(1, 4, 4, 0, 0));
        idx.insert(BlockId(5), entry(2, 4, 4, 0, 0));
        // max_by_key keeps the last maximum: the later seal (block 5).
        assert_eq!(idx.peek_max_reclaimable(), Some((BlockId(5), 4)));
    }

    #[test]
    fn cost_benefit_matches_oracle_across_buckets() {
        let mut idx = VictimIndex::new(0, 16, GcPolicy::CostBenefit);
        let now = Nanos::from_micros(50);
        idx.insert(BlockId(0), entry(1, 8, 8, 0, 10_000));
        idx.insert(BlockId(1), entry(2, 8, 8, 0, 10));
        idx.insert(BlockId(2), entry(3, 2, 14, 0, 40_000));
        idx.insert(BlockId(3), entry(4, 8, 8, 0, 10));
        assert_eq!(idx.peek_cost_benefit(now, 16), idx.oracle_select(now, 16),);
        assert_eq!(idx.peek_cost_benefit(now, 16), Some(BlockId(2)));
    }

    #[test]
    fn cost_benefit_constant_score_buckets_take_earliest_seal() {
        let mut idx = VictimIndex::new(0, 16, GcPolicy::CostBenefit);
        let now = Nanos::from_micros(50);
        // valid == total scores 0 for every age; valid == 0 scores +inf.
        idx.insert(BlockId(4), entry(1, 8, 0, 0, 7));
        idx.insert(BlockId(6), entry(2, 8, 0, 0, 3));
        assert_eq!(idx.peek_cost_benefit(now, 8), Some(BlockId(4)));
        idx.insert(BlockId(7), entry(3, 0, 8, 0, 9));
        idx.insert(BlockId(5), entry(4, 0, 8, 0, 2));
        assert_eq!(idx.peek_cost_benefit(now, 8), Some(BlockId(7)));
        assert_eq!(idx.oracle_select(now, 8), Some(BlockId(7)));
    }

    #[test]
    fn invalidate_moves_entries_between_buckets() {
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Fifo] {
            let mut idx = VictimIndex::new(8, 8, policy);
            idx.insert(BlockId(9), entry(1, 4, 0, 2, 100));
            idx.on_invalidate(BlockId(9));
            idx.on_invalidate(BlockId(9));
            assert_eq!(idx.garbage(), 2);
            assert_eq!(idx.reclaimable_of(BlockId(9)), 2);
            idx.check(|_| (2, 2, 2, 100)).unwrap();
            idx.remove(BlockId(9));
            assert_eq!(idx.garbage(), 0);
            assert_eq!(idx.live, 0);
        }
    }

    #[test]
    fn heap_compaction_keeps_memory_bounded() {
        let mut idx = VictimIndex::new(0, 4, GcPolicy::Greedy);
        idx.insert(BlockId(0), entry(1, 1000, 0, 0, 0));
        idx.insert(BlockId(1), entry(2, 1000, 0, 0, 0));
        for _ in 0..500 {
            idx.on_invalidate(BlockId(0));
        }
        // 500 pushes against 2 live blocks: compaction must have kicked
        // in well below the push count.
        assert!(idx.heap.len() <= 66, "heap grew to {}", idx.heap.len());
        assert_eq!(idx.peek_policy(Nanos::ZERO, 2000), Some(BlockId(0)));
        idx.check(|b| {
            if b.0 == 0 {
                (500, 500, 0, 0)
            } else {
                (1000, 0, 0, 0)
            }
        })
        .unwrap();
    }

    #[test]
    fn free_list_replays_swap_remove_order() {
        // All equal wear: the original Vec scan pops position 0, then
        // swap_remove moves the last block into the hole — so the pop
        // order is 0, 3, 2, 1, not sorted block order.
        let mut f = FreeList::new();
        for b in 0..4 {
            f.push(BlockId(b), 0);
        }
        f.check(|_| 0).unwrap();
        let mut popped = Vec::new();
        while let Some(b) = f.pop_least_worn() {
            popped.push(b.0);
        }
        assert_eq!(popped, vec![0, 3, 2, 1]);
    }

    #[test]
    fn free_list_prefers_least_worn() {
        let mut f = FreeList::new();
        f.push(BlockId(0), 5);
        f.push(BlockId(1), 1);
        f.push(BlockId(2), 3);
        assert_eq!(f.pop_least_worn(), Some(BlockId(1)));
        f.check(|b| [5, 1, 3][b.0 as usize]).unwrap();
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn min_wear_ties_break_to_earliest_seal() {
        let mut idx = VictimIndex::new(0, 8, GcPolicy::Greedy);
        idx.insert(BlockId(6), entry(1, 1, 1, 3, 0));
        idx.insert(BlockId(2), entry(2, 1, 1, 3, 0));
        assert_eq!(idx.peek_min_wear(), Some((BlockId(6), 3)));
    }
}
