//! The six workloads, and what they have in common.
//!
//! A workload is set up once (device construction + preconditioning,
//! reported as `setup_s`) and then driven in *rounds* of a fixed number
//! of operations until the requested measuring time has passed. Each
//! round times itself, so untimed work between timed segments — making
//! the next round's input schedule from the seed, reading back stamps
//! for an output check — never lands in a throughput figure.
//!
//! Simulated results (counts, virtual time, the fingerprint) are taken
//! after the first [`Spec::fixed_rounds`] rounds: a fixed number of
//! operations from a fixed seed, so they repeat bit for bit however
//! fast the host is and however many further rounds fit in the time.

pub mod block;
pub mod conv_randwrite;
pub mod fleet;
pub mod kv;

use bh_conv::ConvSsd;
use bh_core::StackAdmin;
use bh_flash::FlashStats;
use bh_host::BlockEmu;
use bh_metrics::{Histogram, Nanos};
use bh_zns::ZonedDevice;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use crate::recorders::TracedStack;

/// One timed round, as the session measured it.
pub struct RoundStats {
    /// Top-level operations issued (block read/write, KV put/get).
    pub ops: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Wall time of the round's timed segments.
    pub wall: Duration,
}

/// Exact per-layer values by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// The simulated results after the fixed rounds.
pub struct Snapshot {
    pub fingerprint: u64,
    pub counts: Counts,
}

/// Output checks: how many ran, how many failed, and why.
#[derive(Default)]
pub struct Checks {
    pub run: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// Books `n` failures of checks already counted in `run`.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        self.messages.push(what);
    }
}

/// A workload after set-up.
pub trait Session {
    /// Runs one more round.
    fn round(&mut self) -> RoundStats;

    /// Simulated results so far. The harness calls this once, after
    /// the fixed rounds.
    fn snapshot(&self) -> Snapshot;

    /// Output checks over everything run so far.
    fn checks(&mut self) -> Checks;

    /// Per-layer metrics that need runs of their own (traced run only),
    /// and the checks made on the way.
    fn extra_metrics(&mut self, _out: &mut Counts) -> Checks {
        Checks::default()
    }
}

/// Which layer a workload's `stack.*` spans measure.
#[derive(Clone, Copy, PartialEq)]
pub enum StackLayer {
    None,
    Conv,
    Host,
}

/// Which layer a workload's `zoned.*` spans measure.
#[derive(Clone, Copy, PartialEq)]
pub enum ZonedLayer {
    None,
    ZnsFlash,
    Zbd,
}

/// Static description of a workload.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Rounds whose simulated results are reported and fingerprinted.
    pub fixed_rounds: usize,
    pub stack_spans: StackLayer,
    pub zoned_spans: ZonedLayer,
    /// Set-up: builds the devices and preconditions them. `traced`
    /// selects the recorder-wrapped types; `dir` is a scratch directory
    /// the benchmark owns.
    pub build: fn(seed: u64, traced: bool, dir: &Path) -> Box<dyn Session>,
}

pub const SPECS: [Spec; 6] = [
    conv_randwrite::SPEC,
    block::CONV_MIXED,
    block::ZNS_MIXED,
    kv::SPEC,
    fleet::SPEC,
    block::ZBD_FILE,
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// FNV-1a over 64-bit words: the fingerprint of a run's simulated
/// results.
#[derive(Clone, Copy)]
pub struct Fp(u64);

impl Fp {
    pub fn new() -> Self {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn hist(mut self, h: &Histogram) -> Self {
        self = self.u64(h.count());
        for (top, n) in h.buckets() {
            self = self.u64(top).u64(n);
        }
        self
    }

    pub fn flash(self, s: &FlashStats) -> Self {
        self.u64(s.host_reads)
            .u64(s.host_programs)
            .u64(s.internal_reads)
            .u64(s.internal_programs)
            .u64(s.erases)
            .u64(s.copies)
            .u64(s.busy.as_nanos())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Simulated flash events: the denominator of
/// `flash.wall_ns_per_page_op`.
pub fn page_ops(s: &FlashStats) -> u64 {
    s.host_reads + s.internal_reads + s.total_programs() + s.erases
}

/// What the benchmark reads from a block stack beyond `StackAdmin`:
/// the layers' public counters, and the stamp a read returns (the
/// trait's `read` drops it).
pub trait Inspect: StackAdmin {
    /// Adds this stack's exact per-layer counts.
    fn layer_counts(&self, c: &mut Counts);

    /// Folds every layer counter into the fingerprint.
    fn fingerprint(&self, fp: Fp) -> Fp;

    /// Reads `lba` and returns the stored stamp.
    fn read_stamp(&mut self, lba: u64, now: Nanos) -> Option<u64>;
}

impl Inspect for ConvSsd {
    fn layer_counts(&self, c: &mut Counts) {
        c.insert("conv.device_wa", self.write_amplification());
    }

    fn fingerprint(&self, fp: Fp) -> Fp {
        fp.flash(self.flash_stats())
    }

    fn read_stamp(&mut self, lba: u64, now: Nanos) -> Option<u64> {
        ConvSsd::read(self, lba, now).ok().map(|(stamp, _)| stamp)
    }
}

impl<D: ZonedDevice> Inspect for BlockEmu<D> {
    fn layer_counts(&self, c: &mut Counts) {
        let emu = self.stats();
        c.insert("host.relocated_pages", emu.relocated as f64);
        c.insert("host.resets", emu.resets as f64);
        c.insert("host.reclaim_runs", emu.reclaim_runs as f64);
        let zns = self.device().zone_stats();
        c.insert("zns.appends", zns.appends as f64);
        c.insert("zns.reads", zns.reads as f64);
        c.insert("zns.resets", zns.resets as f64);
        c.insert(
            "zns.device_wa",
            self.device().flash_stats().write_amplification(),
        );
        // Zero on the simulator, where no workload cycles the power.
        c.insert("zbd.replay_pages_scanned", emu.replay_pages_scanned as f64);
    }

    fn fingerprint(&self, fp: Fp) -> Fp {
        let emu = self.stats();
        let zns = self.device().zone_stats();
        fp.flash(&self.device().flash_stats())
            .u64(emu.host_writes)
            .u64(emu.host_reads)
            .u64(emu.relocated)
            .u64(emu.resets)
            .u64(emu.reclaim_runs)
            .u64(emu.replay_pages_scanned)
            .u64(zns.writes)
            .u64(zns.appends)
            .u64(zns.reads)
            .u64(zns.resets)
            .u64(zns.simple_copy_pages)
            .u64(zns.implicit_closes)
    }

    fn read_stamp(&mut self, lba: u64, now: Nanos) -> Option<u64> {
        BlockEmu::read(self, lba, now).ok().map(|(stamp, _)| stamp)
    }
}

impl<S: Inspect> Inspect for TracedStack<S> {
    fn layer_counts(&self, c: &mut Counts) {
        self.0.layer_counts(c);
    }

    fn fingerprint(&self, fp: Fp) -> Fp {
        self.0.fingerprint(fp)
    }

    fn read_stamp(&mut self, lba: u64, now: Nanos) -> Option<u64> {
        self.0.read_stamp(lba, now)
    }
}

/// Device WA recomputed from raw program counts — the output check
/// against what the layer reports.
pub fn recomputed_wa(s: &FlashStats) -> f64 {
    s.total_programs() as f64 / s.host_programs as f64
}
