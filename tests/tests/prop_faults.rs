//! Property and differential tests for the deterministic fault layer.
//!
//! Three guarantees are locked in here:
//!
//! 1. **Crash safety**: power loss at *any* operation index, on either
//!    stack, recovers exactly the acknowledged state — every acked write
//!    reads back with the same stamp it had before the loss.
//! 2. **Determinism**: the same fault seed produces a byte-identical
//!    fault schedule, on any thread, any number of times.
//! 3. **Quiet-plan transparency**: installing an all-zero-rate plan is
//!    byte-identical to installing no fault layer at all — the fault
//!    path costs nothing when silent.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{BlockInterface, WriteReq};
use bh_faults::{FaultConfig, FaultPlan};
use bh_flash::{decode_oob, FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_zns::{ZnsConfig, ZnsDevice};

/// Base seed for the crash sweeps: fixed by default, overridable via
/// `BH_PROP_SEED` so CI can probe fresh seeds (the value is printed by
/// the workflow, so a red run replays exactly).
fn base_seed(default: u64) -> u64 {
    std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Fault mix for the crash sweeps: frequent enough that short runs hit
/// redrives and retries, mild enough that devices stay writable.
fn noisy(seed: u64) -> FaultConfig {
    FaultConfig::new(seed)
        .with_program_fail_ppm(15_000)
        .with_erase_fail_ppm(10_000)
        .with_read_retry_ppm(20_000)
}

/// The concrete per-stack surface the crash property needs: stamped
/// reads (the block-interface trait only returns instants).
trait Stack {
    fn cap(&self) -> u64;
    fn write(&mut self, lba: u64, now: Nanos) -> Nanos;
    fn read(&mut self, lba: u64, now: Nanos) -> (u64, Nanos);
    fn power_cycle(&mut self, now: Nanos) -> (Nanos, u64);
}

impl Stack for ConvSsd {
    fn cap(&self) -> u64 {
        self.capacity_pages()
    }
    fn write(&mut self, lba: u64, now: Nanos) -> Nanos {
        ConvSsd::write(self, lba, now).unwrap().done
    }
    fn read(&mut self, lba: u64, now: Nanos) -> (u64, Nanos) {
        ConvSsd::read(self, lba, now).unwrap()
    }
    fn power_cycle(&mut self, now: Nanos) -> (Nanos, u64) {
        ConvSsd::power_cycle(self, now).unwrap()
    }
}

impl Stack for BlockEmu {
    fn cap(&self) -> u64 {
        self.capacity_pages()
    }
    fn write(&mut self, lba: u64, now: Nanos) -> Nanos {
        BlockEmu::write(self, lba, now).unwrap()
    }
    fn read(&mut self, lba: u64, now: Nanos) -> (u64, Nanos) {
        BlockEmu::read(self, lba, now).unwrap()
    }
    fn power_cycle(&mut self, now: Nanos) -> (Nanos, u64) {
        BlockEmu::power_cycle(self, now).unwrap()
    }
}

fn conv(faults: Option<FaultConfig>) -> ConvSsd {
    let mut ssd = ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap();
    if let Some(f) = faults {
        ssd.install_faults(f);
    }
    ssd
}

fn emu(faults: Option<FaultConfig>) -> BlockEmu {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let mut e = BlockEmu::new(ZnsDevice::new(cfg).unwrap(), 3, ReclaimPolicy::Immediate);
    if let Some(f) = faults {
        e.install_faults(f);
    }
    e
}

/// Drives `crash_at` random acked writes under a noisy fault plan, power
/// cycles, and checks that recovery reproduces the acked state exactly.
fn crash_preserves_acked_state<S: Stack>(mut dev: S, crash_at: u64, seed: u64) {
    let cap = dev.cap();
    let mut written = std::collections::BTreeSet::new();
    let mut t = Nanos::ZERO;
    let mut x = seed | 1;
    for _ in 0..crash_at {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lba = x % cap;
        t = dev.write(lba, t);
        written.insert(lba);
    }
    // Snapshot the acked state: the write path returned, so every one of
    // these pages is durable.
    let before: Vec<(u64, u64)> = written
        .iter()
        .map(|&lba| {
            let (stamp, done) = dev.read(lba, t);
            t = done;
            (lba, stamp)
        })
        .collect();
    let (done, _scanned) = dev.power_cycle(t);
    for &(lba, stamp) in &before {
        let (s, _) = dev.read(lba, done);
        assert_eq!(
            s, stamp,
            "lba {lba} lost or changed across power loss at op {crash_at}"
        );
        let (_seq, tagged) = decode_oob(s);
        assert_eq!(tagged, lba, "recovered stamp belongs to a different lba");
    }
}

/// A spread of crash indices — zero work, first op, mid-zone, zone
/// boundaries, several times the logical capacity (forcing GC/reclaim
/// under faults before the loss).
fn crash_points(cap: u64) -> Vec<u64> {
    vec![0, 1, 2, 7, 33, cap / 2, cap, cap + 13, 2 * cap, 3 * cap]
}

#[test]
fn conv_crash_at_sampled_indices_preserves_acked_writes() {
    let cap = conv(None).cap();
    for k in crash_points(cap) {
        crash_preserves_acked_state(conv(Some(noisy(base_seed(0xC0)))), k, base_seed(0x5EED) + k);
    }
}

#[test]
fn zns_crash_at_sampled_indices_preserves_acked_writes() {
    let cap = emu(None).cap();
    for k in crash_points(cap) {
        crash_preserves_acked_state(emu(Some(noisy(base_seed(0x21)))), k, base_seed(0x5EED) + k);
    }
}

/// The exhaustive sweep — every crash index over a full device
/// lifetime — runs nightly (`cargo test -- --include-ignored`).
#[test]
#[ignore = "exhaustive sweep; run via --include-ignored"]
fn both_stacks_survive_crash_at_every_index() {
    let cap = emu(None).cap().min(conv(None).cap());
    for k in 0..=2 * cap {
        crash_preserves_acked_state(conv(Some(noisy(base_seed(0xC0)))), k, base_seed(0x5EED) + k);
        crash_preserves_acked_state(emu(Some(noisy(base_seed(0x21)))), k, base_seed(0x5EED) + k);
    }
}

#[test]
fn fault_schedule_is_byte_identical_across_runs_and_threads() {
    let cfg = FaultConfig::mid_life(0xFA);
    let base = FaultPlan::preview_schedule(cfg, 8192);
    assert_eq!(base, FaultPlan::preview_schedule(cfg, 8192));
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || FaultPlan::preview_schedule(cfg, 8192)))
        .collect();
    for h in handles {
        assert_eq!(
            h.join().unwrap(),
            base,
            "fault schedule depends on the thread that derives it"
        );
    }
}

/// Lockstep differential: every completion instant, the final write
/// amplification, and the flash counters must match between a device
/// with a quiet plan installed and one with no fault layer at all.
fn quiet_plan_is_invisible(
    mut with_quiet: Box<dyn BlockInterface>,
    mut without: Box<dyn BlockInterface>,
) {
    let cap = with_quiet.capacity_pages();
    assert_eq!(cap, without.capacity_pages());
    let mut ta = Nanos::ZERO;
    let mut tb = Nanos::ZERO;
    for lba in 0..cap {
        ta = with_quiet.write(WriteReq::new(lba), ta).unwrap();
        tb = without.write(WriteReq::new(lba), tb).unwrap();
        assert_eq!(ta, tb, "fill diverged at lba {lba}");
    }
    let mut x = 9u64;
    for i in 0..2 * cap {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (lba, is_read) = (x % cap, x.is_multiple_of(3));
        if is_read {
            ta = with_quiet.read(lba, ta).unwrap();
            tb = without.read(lba, tb).unwrap();
        } else {
            ta = with_quiet.write(WriteReq::new(lba), ta).unwrap();
            tb = without.write(WriteReq::new(lba), tb).unwrap();
        }
        assert_eq!(ta, tb, "op {i} diverged");
        if i.is_multiple_of(32) {
            ta = with_quiet.maintenance(ta).unwrap();
            tb = without.maintenance(tb).unwrap();
        }
    }
    assert_eq!(
        with_quiet.write_amplification(),
        without.write_amplification()
    );
    assert_eq!(with_quiet.flash_stats(), without.flash_stats());
}

#[test]
fn quiet_plan_is_invisible_on_conv() {
    quiet_plan_is_invisible(
        Box::new(conv(Some(FaultConfig::new(0x9999)))),
        Box::new(conv(None)),
    );
}

#[test]
fn quiet_plan_is_invisible_on_zns() {
    quiet_plan_is_invisible(
        Box::new(emu(Some(FaultConfig::new(0x9999)))),
        Box::new(emu(None)),
    );
}
