//! Deterministic transient-fault injection plans.
//!
//! Real NAND throws faults all through its life, not just at the end:
//! program operations fail and must be re-driven elsewhere, erases fail
//! and grow the bad-block list, reads need ECC retries that occupy the
//! plane, and power disappears mid-workload. The papers this repository
//! reproduces argue the *interface* determines who cleans up — the FTL
//! silently (conventional) or the host explicitly (ZNS) — so the fault
//! model must hit both stacks identically for the comparison to mean
//! anything.
//!
//! [`FaultPlan`] makes that possible: every decision is a pure function
//! of a seed and an operation counter, using the same SplitMix64
//! construction `bh-fleet` uses for per-shard seeds. Two devices driven
//! with the same seed see byte-identical fault schedules regardless of
//! wall-clock timing, thread count, or what the other device is doing.
//!
//! Design constraints:
//!
//! - **Plain data.** [`FaultConfig`] is `Copy + Send` so fleet shards can
//!   carry it across worker threads; the stateful [`FaultPlan`] is built
//!   on the owning thread, like the tracer.
//! - **Quiet means invisible.** A plan with all rates zero advances its
//!   counters but never fires; a device holding a quiet plan must behave
//!   byte-identically to one with no plan installed (locked in by the
//!   differential tests).
//! - **Power loss is a run-level event.** Flash-level faults fire inside
//!   device operations; power loss is scheduled by op index and driven by
//!   the harness via the stacks' `power_cycle` entry points, because only
//!   the harness knows where op boundaries are.

/// SplitMix64 mixing of a seed and a salt — the same construction
/// `bh-workloads` uses to derive per-shard and per-tenant streams.
/// Duplicated here (like `Origin` in `bh-trace`) so the lowest-level
/// crates can depend on `bh-faults` without pulling in the workload
/// stack.
pub fn split_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt domain separating program-failure decisions.
const SALT_PROGRAM: u64 = 0xFA01;
/// Salt domain separating erase-failure decisions.
const SALT_ERASE: u64 = 0xFA02;
/// Salt domain separating read-retry decisions.
const SALT_READ: u64 = 0xFA03;
/// Salt domain separating power-loss scheduling.
const SALT_POWER: u64 = 0xFA04;

/// Per-million scale for fault rates: a rate of 1_000_000 fires on every
/// opportunity.
pub const PPM: u64 = 1_000_000;

/// A seed-derived fault model. Plain `Copy + Send` data; build a
/// [`FaultPlan`] from it on the thread that owns the device.
///
/// # Examples
///
/// ```
/// use bh_faults::{FaultConfig, FaultPlan};
///
/// let cfg = FaultConfig::new(0xF16).with_program_fail_ppm(50_000);
/// let mut a = FaultPlan::new(cfg);
/// let mut b = FaultPlan::new(cfg);
/// let schedule_a: Vec<bool> = (0..100).map(|_| a.next_program_fails()).collect();
/// let schedule_b: Vec<bool> = (0..100).map(|_| b.next_program_fails()).collect();
/// assert_eq!(schedule_a, schedule_b);
/// assert!(schedule_a.iter().any(|&f| f));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability (parts per million) that a program operation fails,
    /// burning the page.
    pub program_fail_ppm: u32,
    /// Probability (parts per million) that an erase fails, retiring the
    /// block early — a mid-life grown bad block.
    pub erase_fail_ppm: u32,
    /// Probability (parts per million) that a read needs ECC retries.
    pub read_retry_ppm: u32,
    /// Retries a disturbed read performs (each occupies the plane for one
    /// extra read time).
    pub max_read_retries: u32,
}

impl FaultConfig {
    /// A quiet plan for `seed`: counters advance, nothing ever fires.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            program_fail_ppm: 0,
            erase_fail_ppm: 0,
            read_retry_ppm: 0,
            max_read_retries: 3,
        }
    }

    /// The default mid-life fault mix used by the E16 experiment: rare
    /// program and erase failures, more frequent read disturbs.
    pub fn mid_life(seed: u64) -> Self {
        FaultConfig {
            seed,
            program_fail_ppm: 8_000,
            erase_fail_ppm: 20_000,
            read_retry_ppm: 30_000,
            max_read_retries: 3,
        }
    }

    /// Sets the program-failure rate.
    pub fn with_program_fail_ppm(mut self, ppm: u32) -> Self {
        self.program_fail_ppm = ppm;
        self
    }

    /// Sets the erase-failure rate.
    pub fn with_erase_fail_ppm(mut self, ppm: u32) -> Self {
        self.erase_fail_ppm = ppm;
        self
    }

    /// Sets the read-retry rate.
    pub fn with_read_retry_ppm(mut self, ppm: u32) -> Self {
        self.read_retry_ppm = ppm;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (name, ppm) in [
            ("program_fail_ppm", self.program_fail_ppm),
            ("erase_fail_ppm", self.erase_fail_ppm),
            ("read_retry_ppm", self.read_retry_ppm),
        ] {
            if ppm as u64 > PPM {
                return Err(format!("{name} {ppm} exceeds {PPM}"));
            }
        }
        Ok(())
    }

    /// The op indices (0-based, over a run of `total_ops` operations) at
    /// which a scheduled power loss strikes. Derived from the seed alone:
    /// deterministic, sorted, distinct, and never at index 0 (a loss
    /// before any work is a no-op).
    pub fn power_loss_indices(&self, total_ops: u64, losses: u32) -> Vec<u64> {
        if total_ops < 2 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut n = 0u64;
        while out.len() < losses as usize && n < losses as u64 * 16 {
            let idx = 1 + split_seed(self.seed, SALT_POWER ^ n) % (total_ops - 1);
            if !out.contains(&idx) {
                out.push(idx);
            }
            n += 1;
        }
        out.sort_unstable();
        out
    }
}

/// Counters of what a plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Program operations failed (pages burned).
    pub program_failures: u64,
    /// Erase operations failed (blocks retired mid-life).
    pub erase_failures: u64,
    /// Reads that needed ECC retries.
    pub disturbed_reads: u64,
    /// Total extra read occupations injected.
    pub retry_reads: u64,
}

/// The stateful decision stream a device consults: one counter per fault
/// domain, each decision a pure function of `(seed, domain, counter)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    programs_seen: u64,
    erases_seen: u64,
    reads_seen: u64,
    counters: FaultCounters,
}

impl FaultPlan {
    /// Builds the decision stream for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            programs_seen: 0,
            erases_seen: 0,
            reads_seen: 0,
            counters: FaultCounters::default(),
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// What has been injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn fires(&self, salt: u64, n: u64, ppm: u32) -> bool {
        ppm > 0
            && split_seed(self.cfg.seed, salt ^ n.wrapping_mul(0x0001_0000_0001)) % PPM < ppm as u64
    }

    /// Consumes the next program-operation decision. True = the program
    /// fails and the page is burned.
    pub fn next_program_fails(&mut self) -> bool {
        let fail = self.fires(SALT_PROGRAM, self.programs_seen, self.cfg.program_fail_ppm);
        self.programs_seen += 1;
        if fail {
            self.counters.program_failures += 1;
        }
        fail
    }

    /// Consumes the next erase-operation decision. True = the erase fails
    /// and the block retires early.
    pub fn next_erase_fails(&mut self) -> bool {
        let fail = self.fires(SALT_ERASE, self.erases_seen, self.cfg.erase_fail_ppm);
        self.erases_seen += 1;
        if fail {
            self.counters.erase_failures += 1;
        }
        fail
    }

    /// Consumes the next read-operation decision: the number of extra
    /// ECC-retry reads to perform (0 = clean read).
    pub fn next_read_retries(&mut self) -> u32 {
        let disturbed = self.fires(SALT_READ, self.reads_seen, self.cfg.read_retry_ppm);
        let retries = if disturbed {
            // Scale 1..=max from a second derivation so retry depth
            // varies deterministically.
            1 + (split_seed(self.cfg.seed, SALT_READ ^ self.reads_seen.rotate_left(17))
                % self.cfg.max_read_retries.max(1) as u64) as u32
        } else {
            0
        };
        self.reads_seen += 1;
        if disturbed {
            self.counters.disturbed_reads += 1;
            self.counters.retry_reads += retries as u64;
        }
        retries
    }

    /// The full decision schedule for the first `n` opportunities of each
    /// domain, without consuming this plan's counters. Byte-identical
    /// across runs and thread counts for the same config — the property
    /// tests serialize this to lock determinism in.
    pub fn preview_schedule(cfg: FaultConfig, n: u64) -> Vec<u8> {
        let mut probe = FaultPlan::new(cfg);
        let mut out = Vec::with_capacity(3 * n as usize);
        for _ in 0..n {
            out.push(probe.next_program_fails() as u8);
        }
        for _ in 0..n {
            out.push(probe.next_erase_fails() as u8);
        }
        for _ in 0..n {
            out.push(probe.next_read_retries() as u8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_matches_reference_vectors() {
        // Must stay in lockstep with bh-workloads::split_seed: same
        // SplitMix64 constants, same combination.
        assert_ne!(split_seed(1, 2), split_seed(1, 3));
        assert_ne!(split_seed(1, 2), split_seed(2, 2));
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
    }

    #[test]
    fn quiet_plan_never_fires() {
        let mut p = FaultPlan::new(FaultConfig::new(0xDEAD));
        for _ in 0..10_000 {
            assert!(!p.next_program_fails());
            assert!(!p.next_erase_fails());
            assert_eq!(p.next_read_retries(), 0);
        }
        assert_eq!(p.counters(), FaultCounters::default());
    }

    #[test]
    fn rates_are_respected_within_tolerance() {
        let cfg = FaultConfig::new(0xBEEF)
            .with_program_fail_ppm(100_000)
            .with_erase_fail_ppm(100_000)
            .with_read_retry_ppm(100_000);
        let mut p = FaultPlan::new(cfg);
        let n = 50_000u64;
        for _ in 0..n {
            p.next_program_fails();
            p.next_erase_fails();
            p.next_read_retries();
        }
        let c = p.counters();
        // 10% nominal; accept 8–12%.
        for count in [c.program_failures, c.erase_failures, c.disturbed_reads] {
            assert!((n / 13..n / 8).contains(&count), "rate off: {count}/{n}");
        }
        assert!(c.retry_reads >= c.disturbed_reads);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::mid_life(0x5EED);
        assert_eq!(
            FaultPlan::preview_schedule(cfg, 4096),
            FaultPlan::preview_schedule(cfg, 4096)
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            FaultPlan::preview_schedule(FaultConfig::mid_life(1), 4096),
            FaultPlan::preview_schedule(FaultConfig::mid_life(2), 4096)
        );
    }

    #[test]
    fn domains_are_independent() {
        // Consuming reads must not perturb the program stream.
        let cfg = FaultConfig::mid_life(0xABC);
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..1000 {
            b.next_read_retries();
            b.next_erase_fails();
        }
        let sa: Vec<bool> = (0..1000).map(|_| a.next_program_fails()).collect();
        let sb: Vec<bool> = (0..1000).map(|_| b.next_program_fails()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn power_loss_schedule_is_sorted_distinct_and_in_range() {
        let cfg = FaultConfig::new(0x10AD);
        let idx = cfg.power_loss_indices(1000, 4);
        assert_eq!(idx.len(), 4);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| (1..1000).contains(&i)));
        assert_eq!(idx, cfg.power_loss_indices(1000, 4));
        assert!(cfg.power_loss_indices(1, 4).is_empty());
    }

    #[test]
    fn validate_rejects_over_unit_rates() {
        assert!(FaultConfig::new(0).validate().is_ok());
        assert!(FaultConfig::new(0)
            .with_program_fail_ppm(1_000_001)
            .validate()
            .is_err());
    }
}
