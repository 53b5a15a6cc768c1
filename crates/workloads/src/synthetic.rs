//! Block-level operation streams: the E2/E4 workloads.

use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One block-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the page at this LBA.
    Read(u64),
    /// Write the page at this LBA.
    Write(u64),
    /// Deallocate the page at this LBA.
    Trim(u64),
}

impl Op {
    /// The LBA the operation touches.
    pub fn lba(&self) -> u64 {
        match *self {
            Op::Read(l) | Op::Write(l) | Op::Trim(l) => l,
        }
    }
}

/// How addresses are chosen.
#[derive(Debug, Clone, Copy)]
pub enum AddressDist {
    /// Uniformly random over the capacity (the §2.2 lab workload).
    Uniform,
    /// Zipf-skewed with this exponent; hot pages cluster at low ranks,
    /// scattered over the LBA space by a fixed permutation multiplier.
    Zipfian(f64),
    /// Sequential with wraparound.
    Sequential,
    /// All accesses within the first `1/denominator` of the space.
    Hotspot(u64),
}

/// Mix of reads and writes, in percent.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Percent of operations that are reads (0–100).
    pub read_pct: u32,
}

impl OpMix {
    /// A write-only mix.
    pub fn write_only() -> Self {
        OpMix { read_pct: 0 }
    }

    /// The paper-style 70/30 read/write mix.
    pub fn read_heavy() -> Self {
        OpMix { read_pct: 70 }
    }
}

/// Anything that produces a deterministic sequence of block operations.
///
/// The load runner drives a `dyn OpSource`, so single-stream workloads
/// ([`OpStream`]) and multiplexed ones (`TenantStream`, which interleaves
/// a whole tenant population) share one code path. Writes may carry a
/// *stream hint* — the §4.1 application-knowledge placement signal that
/// hinted ZNS stacks route to per-stream zones and block devices ignore.
pub trait OpSource {
    /// Produces the next operation.
    fn next_op(&mut self) -> Op;

    /// Produces the next operation plus its placement stream hint.
    /// Sources without placement knowledge hint stream `0`.
    fn next_hinted(&mut self) -> (Op, u32) {
        (self.next_op(), 0)
    }
}

impl OpSource for OpStream {
    fn next_op(&mut self) -> Op {
        OpStream::next_op(self)
    }
}

/// A deterministic stream of block operations.
///
/// # Examples
///
/// ```
/// use bh_workloads::{Op, OpMix, OpStream};
/// let mut s = OpStream::uniform(1024, OpMix::write_only(), 42);
/// let op = s.next_op();
/// assert!(matches!(op, Op::Write(lba) if lba < 1024));
/// ```
#[derive(Debug)]
pub struct OpStream {
    capacity: u64,
    dist: AddressDist,
    mix: OpMix,
    rng: SmallRng,
    zipf: Option<Zipf>,
    sequential_next: u64,
    /// Look-ahead: ops drawn but not yet handed out, the next one last.
    /// Drawing in batches keeps the generator's code and state hot
    /// instead of interleaving one draw with every device call.
    ahead: Vec<Op>,
}

/// Ops drawn per look-ahead refill.
const BATCH: usize = 64;

impl OpStream {
    /// Creates a stream over `capacity` pages.
    pub fn new(capacity: u64, dist: AddressDist, mix: OpMix, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        let zipf = match dist {
            AddressDist::Zipfian(theta) => Some(Zipf::new(capacity, theta)),
            _ => None,
        };
        OpStream {
            capacity,
            dist,
            mix,
            rng: SmallRng::seed_from_u64(seed),
            zipf,
            sequential_next: 0,
            ahead: Vec::new(),
        }
    }

    /// Uniform-random stream (the §2.2 workload shape).
    pub fn uniform(capacity: u64, mix: OpMix, seed: u64) -> Self {
        Self::new(capacity, AddressDist::Uniform, mix, seed)
    }

    /// Zipfian stream at YCSB-like skew.
    pub fn zipfian(capacity: u64, mix: OpMix, seed: u64) -> Self {
        Self::new(capacity, AddressDist::Zipfian(0.99), mix, seed)
    }

    /// The stream's capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn next_lba(&mut self) -> u64 {
        match self.dist {
            AddressDist::Uniform => self.rng.gen_range(0..self.capacity),
            AddressDist::Zipfian(_) => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("built in new")
                    .sample(&mut self.rng);
                // Spread ranks over the space so hot pages are not
                // physically adjacent.
                rank.wrapping_mul(0x9E3779B97F4A7C15) % self.capacity
            }
            AddressDist::Sequential => {
                let l = self.sequential_next;
                self.sequential_next = (self.sequential_next + 1) % self.capacity;
                l
            }
            AddressDist::Hotspot(denom) => {
                let span = (self.capacity / denom).max(1);
                self.rng.gen_range(0..span)
            }
        }
    }

    /// Produces the next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.ahead.pop() {
            Some(op) => op,
            None => self.refill(),
        }
    }

    /// Draws the next batch into the look-ahead and hands out its first
    /// op.
    #[inline(never)]
    fn refill(&mut self) -> Op {
        let first = self.draw();
        for _ in 1..BATCH {
            let op = self.draw();
            self.ahead.push(op);
        }
        self.ahead.reverse();
        first
    }

    /// Draws one operation from the generator, bypassing the look-ahead.
    /// For a stream that only ever draws this way the sequence is
    /// [`OpStream::next_op`]'s; a tenant slice, which may be used only a
    /// handful of times, draws here so it never draws a batch ahead.
    pub(crate) fn draw(&mut self) -> Op {
        let lba = self.next_lba();
        if self.rng.gen_range(0..100) < self.mix.read_pct {
            Op::Read(lba)
        } else {
            Op::Write(lba)
        }
    }

    /// Produces a batch of `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_only_never_reads() {
        let mut s = OpStream::uniform(100, OpMix::write_only(), 1);
        assert!(s.take_ops(1000).iter().all(|op| matches!(op, Op::Write(_))));
    }

    #[test]
    fn read_heavy_mix_is_roughly_70_30() {
        let mut s = OpStream::uniform(100, OpMix::read_heavy(), 1);
        let reads = s
            .take_ops(10_000)
            .iter()
            .filter(|op| matches!(op, Op::Read(_)))
            .count();
        assert!((6_500..7_500).contains(&reads), "reads {reads}");
    }

    #[test]
    fn addresses_stay_in_range() {
        for dist in [
            AddressDist::Uniform,
            AddressDist::Zipfian(0.99),
            AddressDist::Sequential,
            AddressDist::Hotspot(10),
        ] {
            let mut s = OpStream::new(777, dist, OpMix::write_only(), 3);
            for op in s.take_ops(5000) {
                assert!(op.lba() < 777, "{dist:?} out of range");
            }
        }
    }

    #[test]
    fn sequential_wraps() {
        let mut s = OpStream::new(4, AddressDist::Sequential, OpMix::write_only(), 0);
        let lbas: Vec<u64> = s.take_ops(6).iter().map(Op::lba).collect();
        assert_eq!(lbas, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn hotspot_confines_accesses() {
        let mut s = OpStream::new(1000, AddressDist::Hotspot(10), OpMix::write_only(), 5);
        assert!(s.take_ops(1000).iter().all(|op| op.lba() < 100));
    }

    const DISTS: [AddressDist; 4] = [
        AddressDist::Uniform,
        AddressDist::Zipfian(0.99),
        AddressDist::Sequential,
        AddressDist::Hotspot(10),
    ];

    #[test]
    fn look_ahead_hands_out_the_per_op_draws_in_order() {
        for dist in DISTS {
            let mut batched = OpStream::new(10_007, dist, OpMix::read_heavy(), 21);
            let mut single = OpStream::new(10_007, dist, OpMix::read_heavy(), 21);
            // Crosses many refills.
            for i in 0..20 * BATCH {
                assert_eq!(batched.next_op(), single.draw(), "{dist:?} op {i}");
            }
            assert!(batched.ahead.len() < BATCH);
        }
    }

    #[test]
    fn take_ops_and_single_draws_interleave_without_gap_or_repeat() {
        for dist in DISTS {
            let mut mixed = OpStream::new(5_003, dist, OpMix::read_heavy(), 8);
            let mut single = OpStream::new(5_003, dist, OpMix::read_heavy(), 8);
            let mut got = Vec::new();
            for n in [3, 1, 100, 7, 0, 250, 64, 65] {
                got.extend(mixed.take_ops(n));
                got.push(mixed.next_op());
            }
            let want: Vec<Op> = (0..got.len()).map(|_| single.draw()).collect();
            assert_eq!(got, want, "{dist:?}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = OpStream::zipfian(1000, OpMix::read_heavy(), 9);
        let mut b = OpStream::zipfian(1000, OpMix::read_heavy(), 9);
        assert_eq!(a.take_ops(100), b.take_ops(100));
    }
}
