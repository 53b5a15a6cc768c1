//! Block-level operation streams: the E2/E4 workloads.

use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use std::{io, mem, panic};

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
/// Ops come out of a look-ahead buffer that is refilled in batches.
/// A uniform or sequential stream refills it inline, 64 ops at a time.
/// A Zipfian stream, whose draws cost several times more, hands its
/// generator to a helper thread at its first refill. That thread
/// fills 4 096-op batches ahead of the consumer while the consumer runs
/// the device, so the draws leave the consumer's critical path; on a
/// single core the stream draws inline. The stream is still the single
/// generator's sequence: one producer fills each batch in draw order
/// and the batches arrive in FIFO order. A stream that is never drawn
/// starts no thread; dropping the stream stops and joins it.
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
    source: Source,
    /// Look-ahead: ops drawn but not yet handed out, the next one last.
    /// Drawing in batches keeps the generator's code and state hot
    /// instead of interleaving one draw with every device call.
    ahead: Vec<Op>,
}

/// Ops drawn per inline look-ahead refill.
const BATCH: usize = 64;

/// Ops per batch a helper thread draws.
const FEED_BATCH: usize = 4096;

/// Buffers of [`FEED_BATCH`] ops a fed stream cycles: the one being
/// handed out and the one the helper thread fills or has filled.
const FEED_BUFFERS: usize = 2;

/// How long the helper thread waits for a spent buffer by yielding
/// before it blocks. A thread woken from a block is often placed on the
/// consumer's core, where it preempts the consumer instead of running
/// beside it; one that stays runnable keeps its own core. 2 ms covers
/// the consumer's time per batch down to about 2 M ops/s.
const FEED_SPIN: Duration = Duration::from_millis(2);

/// Where a stream's ops come from.
#[derive(Debug)]
enum Source {
    /// Drawn on the caller's thread, [`BATCH`] at a time. A Zipfian
    /// generator is here only on a single core or if its helper thread
    /// could not be spawned.
    Inline(Generator),
    /// A Zipfian generator not drawn yet: its first refill hands it to a
    /// helper thread.
    Unfed(Generator),
    /// Batches from a generator on a helper thread.
    Fed(Feed),
}

/// The state every op of one stream is drawn from.
#[derive(Debug, Clone)]
pub(crate) struct Generator {
    capacity: u64,
    addresses: Addresses,
    mix: OpMix,
    rng: SmallRng,
}

/// [`AddressDist`] with the state each distribution draws from.
#[derive(Debug, Clone)]
enum Addresses {
    Uniform,
    Zipfian(Zipf),
    /// The next LBA.
    Sequential(u64),
}

impl Generator {
    /// A generator over `capacity` pages.
    pub(crate) fn new(capacity: u64, dist: AddressDist, mix: OpMix, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        let addresses = match dist {
            AddressDist::Uniform => Addresses::Uniform,
            AddressDist::Zipfian(theta) => Addresses::Zipfian(Zipf::new(capacity, theta)),
            AddressDist::Sequential => Addresses::Sequential(0),
        };
        Generator {
            capacity,
            addresses,
            mix,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn next_lba(&mut self) -> u64 {
        match &mut self.addresses {
            Addresses::Uniform => self.rng.gen_range(0..self.capacity),
            Addresses::Zipfian(zipf) => {
                // Spread ranks over the space so hot pages are not
                // physically adjacent.
                zipf.sample(&mut self.rng).wrapping_mul(0x9E3779B97F4A7C15) % self.capacity
            }
            Addresses::Sequential(next) => {
                let l = *next;
                *next = (l + 1) % self.capacity;
                l
            }
        }
    }

    /// Draws the next operation.
    pub(crate) fn draw(&mut self) -> Op {
        let lba = self.next_lba();
        if self.rng.gen_range(0..100) < self.mix.read_pct {
            Op::Read(lba)
        } else {
            Op::Write(lba)
        }
    }
}

/// A generator on a helper thread and the two channels its batches
/// travel on: filled ones to the stream, spent ones back for refilling.
/// Every buffer is allocated by the stream, so the thread allocates no
/// buffer, and each channel holds all [`FEED_BUFFERS`] buffers, so no
/// send blocks.
///
/// Fields drop in declaration order: the channels disconnect first,
/// which ends the thread's loop, and then `thread` joins it.
#[derive(Debug)]
struct Feed {
    full: Receiver<Vec<Op>>,
    spent: SyncSender<Vec<Op>>,
    thread: Joiner,
}

impl Feed {
    /// Starts a helper thread drawing from `gen`, with `FEED_BUFFERS - 1`
    /// buffers to fill; the stream holds the last one.
    fn spawn(gen: Generator) -> io::Result<Feed> {
        let (spent, to_fill) = mpsc::sync_channel(FEED_BUFFERS);
        let (filled, full) = mpsc::sync_channel(FEED_BUFFERS);
        for _ in 1..FEED_BUFFERS {
            // Cannot fail: the receiver is alive and the channel has room.
            let _ = spent.send(Vec::with_capacity(FEED_BATCH));
        }
        let thread = thread::Builder::new()
            .name("op-feed".into())
            .spawn(move || feed(gen, to_fill, filled))?;
        Ok(Feed {
            full,
            spent,
            thread: Joiner(Some(thread)),
        })
    }
}

/// The helper thread's loop: fills each spent buffer with the next
/// [`FEED_BATCH`] draws, last draw first so the stream pops them in
/// order, until the stream drops its channels.
fn feed(mut gen: Generator, to_fill: Receiver<Vec<Op>>, filled: SyncSender<Vec<Op>>) {
    while let Some(mut batch) = next_spent(&to_fill) {
        batch.clear();
        batch.extend((0..FEED_BATCH).map(|_| gen.draw()));
        batch.reverse();
        if filled.send(batch).is_err() {
            break;
        }
    }
}

/// The next spent buffer: yields for up to [`FEED_SPIN`] while none is
/// back, then blocks. `None` once the stream has dropped its channels.
fn next_spent(to_fill: &Receiver<Vec<Op>>) -> Option<Vec<Op>> {
    let start = Instant::now();
    loop {
        match to_fill.try_recv() {
            Ok(batch) => return Some(batch),
            Err(TryRecvError::Empty) if start.elapsed() < FEED_SPIN => thread::yield_now(),
            Err(TryRecvError::Empty) => return to_fill.recv().ok(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
}

/// Joins the helper thread when dropped.
#[derive(Debug)]
struct Joiner(Option<JoinHandle<()>>);

impl Joiner {
    /// Waits for the thread to end and resumes its panic, if it
    /// panicked, on this one.
    fn join(&mut self) {
        if let Some(Err(panic)) = self.0.take().map(JoinHandle::join) {
            panic::resume_unwind(panic);
        }
    }
}

impl Drop for Joiner {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            // A panic on the thread was reported where it happened;
            // resuming it inside a drop could abort the process.
            let _ = thread.join();
        }
    }
}

impl OpStream {
    /// Creates a stream over `capacity` pages.
    pub fn new(capacity: u64, dist: AddressDist, mix: OpMix, seed: u64) -> Self {
        let gen = Generator::new(capacity, dist, mix, seed);
        let source = match gen.addresses {
            Addresses::Zipfian(_) => Source::Unfed(gen),
            _ => Source::Inline(gen),
        };
        OpStream {
            capacity,
            source,
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

    /// Produces the next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.ahead.pop() {
            Some(op) => op,
            None => self.refill(),
        }
    }

    /// Refills the empty look-ahead and hands out its first op.
    #[inline(never)]
    fn refill(&mut self) -> Op {
        loop {
            match &mut self.source {
                Source::Inline(gen) => {
                    let first = gen.draw();
                    self.ahead.extend((1..BATCH).map(|_| gen.draw()));
                    self.ahead.reverse();
                    return first;
                }
                Source::Unfed(gen) => {
                    // A second core is what the thread buys. It draws
                    // from a copy, so a failed spawn leaves this
                    // generator where it was.
                    let feed = match thread::available_parallelism() {
                        Ok(cores) if cores.get() > 1 => Feed::spawn(gen.clone()).ok(),
                        _ => None,
                    };
                    self.source = match feed {
                        Some(feed) => {
                            self.ahead = Vec::with_capacity(FEED_BATCH);
                            Source::Fed(feed)
                        }
                        None => Source::Inline(gen.clone()),
                    };
                }
                Source::Fed(feed) => match feed.full.recv() {
                    Ok(batch) => {
                        let spent = mem::replace(&mut self.ahead, batch);
                        // Fails only once the thread has ended, which the
                        // next `recv` reports.
                        let _ = feed.spent.send(spent);
                        if let Some(op) = self.ahead.pop() {
                            return op;
                        }
                    }
                    // The thread ends before the stream drops its
                    // channels only by panicking, which `join` resumes
                    // here.
                    Err(_) => feed.thread.join(),
                },
            }
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

    const DISTS: [AddressDist; 3] = [
        AddressDist::Uniform,
        AddressDist::Zipfian(0.99),
        AddressDist::Sequential,
    ];

    #[test]
    fn look_ahead_hands_out_the_per_op_draws_in_order() {
        for dist in DISTS {
            let mut batched = OpStream::new(10_007, dist, OpMix::read_heavy(), 21);
            let mut single = Generator::new(10_007, dist, OpMix::read_heavy(), 21);
            // Crosses many inline refills, and a fed stream's first batch.
            for i in 0..20 * BATCH {
                assert_eq!(batched.next_op(), single.draw(), "{dist:?} op {i}");
            }
        }
    }

    #[test]
    fn take_ops_and_single_draws_interleave_without_gap_or_repeat() {
        for dist in DISTS {
            let mut mixed = OpStream::new(5_003, dist, OpMix::read_heavy(), 8);
            let mut single = Generator::new(5_003, dist, OpMix::read_heavy(), 8);
            let mut got = Vec::new();
            for n in [3, 1, 100, 7, 0, 250, 64, 65] {
                got.extend(mixed.take_ops(n));
                got.push(mixed.next_op());
            }
            let want: Vec<Op> = (0..got.len()).map(|_| single.draw()).collect();
            assert_eq!(got, want, "{dist:?}");
        }
    }

    /// Whether this machine feeds Zipfian streams from a helper thread.
    fn feeds() -> bool {
        thread::available_parallelism().is_ok_and(|n| n.get() > 1)
    }

    #[test]
    fn fed_streams_hand_out_the_inline_sequence_across_batches() {
        for theta in [0.2, 0.5, 0.9, 0.99, 1.2] {
            let dist = AddressDist::Zipfian(theta);
            let mut fed = OpStream::new(1 << 20, dist, OpMix::read_heavy(), 5);
            let mut single = Generator::new(1 << 20, dist, OpMix::read_heavy(), 5);
            // Chunk sizes that straddle batch boundaries at varying
            // offsets; 21 passes cross more than 20 of them.
            let mut drawn = 0;
            while drawn < 21 * FEED_BATCH {
                for n in [1, FEED_BATCH - 1, 3, FEED_BATCH + 5, 0, 700] {
                    for (i, op) in fed.take_ops(n).into_iter().enumerate() {
                        assert_eq!(op, single.draw(), "theta {theta}, op {}", drawn + i);
                    }
                    assert_eq!(fed.next_op(), single.draw(), "theta {theta}");
                    drawn += n + 1;
                }
            }
            assert_eq!(
                matches!(fed.source, Source::Fed(_)),
                feeds(),
                "theta {theta}"
            );
        }
    }

    #[test]
    fn a_stream_never_drawn_spawns_nothing() {
        let unfed = OpStream::zipfian(1000, OpMix::read_heavy(), 1);
        assert!(matches!(unfed.source, Source::Unfed(_)));
        assert_eq!(unfed.ahead.capacity(), 0);
        let mut fed = OpStream::zipfian(1000, OpMix::read_heavy(), 1);
        fed.next_op();
        assert_eq!(matches!(fed.source, Source::Fed(_)), feeds());
        let mut inline = OpStream::uniform(1000, OpMix::read_heavy(), 1);
        inline.next_op();
        assert!(matches!(inline.source, Source::Inline(_)));
    }

    #[test]
    fn dropping_a_stream_mid_batch_stops_and_joins_its_thread() {
        // Dropped while the thread draws its first batches, and while it
        // waits for a spent buffer: either way the drop returns.
        let mut s = OpStream::zipfian(1 << 16, OpMix::read_heavy(), 3);
        s.next_op();
        drop(s);
        let mut s = OpStream::zipfian(1 << 16, OpMix::read_heavy(), 3);
        s.take_ops(FEED_BATCH + 10);
        drop(s);

        // Disconnecting the channels alone ends the thread.
        if !feeds() {
            return;
        }
        let mut s = OpStream::zipfian(1 << 16, OpMix::read_heavy(), 3);
        s.take_ops(10);
        let Source::Fed(feed) = &mut s.source else {
            panic!("a drawn Zipfian stream is fed");
        };
        let thread = feed.thread.0.take().expect("not joined yet");
        drop(s);
        assert!(thread.join().is_ok(), "the generator does not panic");
    }

    #[test]
    fn a_panic_on_the_helper_thread_resumes_on_the_stream() {
        let thread = thread::spawn(|| panic!("generator failed"));
        let mut joiner = Joiner(Some(thread));
        let resumed = panic::catch_unwind(panic::AssertUnwindSafe(|| joiner.join()))
            .expect_err("join resumes the panic");
        assert_eq!(resumed.downcast_ref::<&str>(), Some(&"generator failed"));
        assert!(joiner.0.is_none());
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = OpStream::zipfian(1000, OpMix::read_heavy(), 9);
        let mut b = OpStream::zipfian(1000, OpMix::read_heavy(), 9);
        assert_eq!(a.take_ops(100), b.take_ops(100));
    }
}
