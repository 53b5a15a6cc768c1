//! The `ZonedDevice` command transcript of fixed block-emulation
//! schedules, pinned.
//!
//! `BlockEmu` talks to its device only through `ZonedDevice`, and every
//! simulated number the ZNS side of E4/E7/E12/E15 reports (relocated
//! pages, resets, device WA, virtual time, the tails) is a function of
//! the commands it issues there: which zone, which offset, which stamp,
//! which simple-copy source list, at which virtual instant, in which
//! order. `bh_tests::RecordingZoned` folds every such command and
//! everything it returns into one digest; each row below drives
//! `BlockEmu<RecordingZoned<_>>` through a fixed-seed schedule — fill,
//! 4× capacity (2× on the largest geometry) of zipfian + uniform
//! overwrites with reads and trims, policy reclaim every 32/64 ops, one
//! mid-run power cycle, as much again —
//! and appends every host-visible result, the final `EmuStats`, the
//! virtual clock, the free-zone count and a read-back of every LBA. The
//! digests were captured on the commit *before* the cache-compact
//! `BlockEmu` state landed (15a0b5a), so that change — and every later
//! speed-up of bh-host — is proven to leave device traffic and virtual
//! time untouched. A digest that moves means simulated results moved:
//! that is a model change, not an optimisation, and needs its own
//! justification. One such change re-pinned every fault row (the zbd
//! row included): reclaim stopped counting burned slots as garbage.

use bh_faults::FaultConfig;
use bh_flash::{decode_oob, FlashConfig, Geometry};
use bh_fleet::{plan_fleet, FleetConfig};
use bh_host::{BlockEmu, HostError, ReclaimPolicy};
use bh_metrics::Nanos;
use bh_tests::{Digest, RecordingZoned};
use bh_workloads::{Op, OpSource, TenantStream, Zipf};
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xB10C_E3B0;

/// Folds one record: a tag byte and its fields.
fn tagged(d: &mut Digest, tag: u8, fields: &[u64]) {
    d.bytes(&[tag]);
    for &f in fields {
        d.u64(f);
    }
}

/// Folds a host-level error, every field of it.
fn fold_err(d: &mut Digest, tag: u8, e: &HostError) {
    d.bytes(&[tag, b'!']);
    d.bytes(format!("{e:?}").as_bytes());
}

#[derive(Clone, Copy, Debug)]
enum Streams {
    Single,
    HotCold,
    Hinted,
}

const STREAMS: [Streams; 3] = [Streams::Single, Streams::HotCold, Streams::Hinted];

/// The three reclaim policies for a device holding back `reserve` zones.
fn policies(reserve: u32) -> [ReclaimPolicy; 3] {
    [
        ReclaimPolicy::Immediate,
        ReclaimPolicy::IdleOnly {
            min_idle: Nanos::from_millis(5),
        },
        ReclaimPolicy::Watermark {
            low_zones: 2,
            high_zones: reserve,
        },
    ]
}

/// What a row's schedule did, for the "still exercises" assertions.
struct Summary {
    digest: u64,
    device_calls: u64,
    relocated: u64,
    resets: u64,
    redrives: u64,
    replays: u64,
    failed_writes: u64,
}

/// One row in flight: the stack under test, the digest of everything
/// it has returned so far, and the virtual clock.
struct Schedule<D: ZonedDevice> {
    emu: BlockEmu<RecordingZoned<D>>,
    d: Digest,
    t: Nanos,
    rng: SmallRng,
    zipf: Zipf,
    failed_writes: u64,
}

impl<D: ZonedDevice> Schedule<D> {
    fn write(&mut self, lba: u64) {
        let r = if self.emu.is_hinted() {
            self.emu.write_hinted(lba, (lba % 4) as u32, self.t)
        } else {
            self.emu.write(lba, self.t)
        };
        match r {
            Ok(done) => {
                tagged(&mut self.d, b'W', &[lba, done.as_nanos()]);
                self.t = done;
            }
            // A faulted device that degraded too many zones refuses
            // writes; the refusal is part of the transcript.
            Err(e) => {
                self.failed_writes += 1;
                fold_err(&mut self.d, b'W', &e);
            }
        }
    }

    /// One mixed phase: `ops` operations, policy reclaim every `period`.
    fn phase(&mut self, ops: u64, period: u64) {
        let cap = self.emu.capacity_pages();
        for i in 0..ops {
            if i % period == 0 {
                // Every fourth maintenance call follows a quiet gap, so
                // the idle-gated policy gets to run ahead as well as in
                // emergencies.
                if i / period % 4 == 3 {
                    self.t += Nanos::from_millis(10);
                }
                match self.emu.maybe_reclaim(self.t) {
                    Ok((reclaimed, done)) => {
                        tagged(&mut self.d, b'M', &[reclaimed as u64, done.as_nanos()]);
                        self.t = done;
                    }
                    Err(e) => fold_err(&mut self.d, b'M', &e),
                }
            }
            let lba = if i % 2 == 0 {
                self.zipf.sample(&mut self.rng)
            } else {
                self.rng.gen_range(0..cap)
            };
            match self.rng.gen_range(0u32..32) {
                0 => {
                    self.emu.trim(lba).expect("trim of an in-range LBA");
                    tagged(&mut self.d, b'T', &[lba]);
                }
                1..=8 => match self.emu.read(lba, self.t) {
                    Ok((stamp, done)) => {
                        tagged(&mut self.d, b'r', &[lba, stamp, done.as_nanos()]);
                        self.t = done;
                    }
                    Err(e) => fold_err(&mut self.d, b'r', &e),
                },
                _ => self.write(lba),
            }
        }
    }
}

fn transcript<D: ZonedDevice>(
    dev: D,
    rounds: u64,
    reserve: u32,
    policy: ReclaimPolicy,
    streams: Streams,
    faults: bool,
) -> Summary {
    let period = if dev.zone_capacity() <= 64 { 32 } else { 64 };
    let mut emu = BlockEmu::new(RecordingZoned::new(dev), reserve, policy);
    emu = match streams {
        Streams::Single => emu,
        Streams::HotCold => emu.with_hot_cold(2),
        Streams::Hinted => emu.with_hinted_streams(4),
    };
    if faults {
        // 4 % on 64-page zones, scaled so every geometry burns the same
        // ~2.5 slots per zone fill: at a flat 4 % a 1 024-page zone loses
        // 41 slots per fill, zero-gain emergency reclaim of those "garbage"
        // slots wears zones out within one capacity of writes, and the
        // rest of the row is refusals.
        let ppm = (40_000 * 64 / emu.device().zone_capacity()) as u32;
        emu.install_faults(FaultConfig::new(SEED).with_program_fail_ppm(ppm));
    }
    let cap = emu.capacity_pages();
    let mut run = Schedule {
        emu,
        d: Digest::new(),
        t: Nanos::ZERO,
        rng: SmallRng::seed_from_u64(SEED),
        zipf: Zipf::new(cap, 0.99),
        failed_writes: 0,
    };
    for lba in 0..cap {
        // The fill goes to the default stream in every mode.
        match run.emu.write(lba, run.t) {
            Ok(done) => {
                tagged(&mut run.d, b'W', &[lba, done.as_nanos()]);
                run.t = done;
            }
            Err(e) => {
                run.failed_writes += 1;
                fold_err(&mut run.d, b'W', &e);
            }
        }
    }
    run.emu.verify_hotpath_invariants();
    run.phase(rounds * cap, period);
    run.emu.verify_hotpath_invariants();
    match run.emu.power_cycle(run.t) {
        Ok((done, scanned)) => {
            tagged(&mut run.d, b'C', &[done.as_nanos(), scanned]);
            run.t = done;
        }
        Err(e) => fold_err(&mut run.d, b'C', &e),
    }
    run.emu.verify_hotpath_invariants();
    run.phase(rounds * cap, period);
    run.emu.verify_hotpath_invariants();
    let Schedule {
        mut emu,
        mut d,
        mut t,
        failed_writes,
        ..
    } = run;

    d.u64(emu.device().digest.0);
    d.u64(emu.device().calls);
    let s = *emu.stats();
    tagged(
        &mut d,
        b'S',
        &[
            s.host_writes,
            s.host_reads,
            s.relocated,
            s.resets,
            s.reclaim_runs,
            s.program_redrives,
            s.replays,
            s.replay_pages_scanned,
        ],
    );
    d.u64(t.as_nanos());
    d.u64(emu.free_zones() as u64);
    for lba in 0..cap {
        match emu.read(lba, t) {
            Ok((stamp, done)) => {
                assert_eq!(decode_oob(stamp).1, lba, "stamp must belong to LBA {lba}");
                tagged(&mut d, b'r', &[stamp, done.as_nanos()]);
                t = done;
            }
            Err(e) => fold_err(&mut d, b'r', &e),
        }
    }
    d.u64(emu.device().digest.0);
    Summary {
        digest: d.0,
        device_calls: emu.device().calls,
        relocated: s.relocated,
        resets: s.resets,
        redrives: s.program_redrives,
        replays: s.replays,
        failed_writes,
    }
}

/// Checks one row's summary against its pin; a moved digest is returned,
/// not panicked on, so the caller can report every row of its matrix.
fn check(name: &str, s: &Summary, faults: bool, want: u64) -> Option<String> {
    println!(
        "{name}: digest {:#018x} over {} device calls, {} relocated, {} resets, {} re-drives, {} refused writes",
        s.digest, s.device_calls, s.relocated, s.resets, s.redrives, s.failed_writes
    );
    assert!(
        s.resets > 4 && s.relocated > 0 && s.replays == 1,
        "{name}: schedule no longer exercises reclaim and replay"
    );
    assert_eq!(
        s.redrives > 0,
        faults,
        "{name}: re-drives {} with faults {faults}",
        s.redrives
    );
    (s.digest != want).then(|| format!("{name}: got {:#018x}, pinned {want:#018x}", s.digest))
}

/// 2 channels × 1 die × 2 planes × 24 blocks × 100 pages: 24 zones of
/// 400 pages, six and a quarter bitmap words each.
fn geometry_100() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 24,
        pages_per_block: 100,
        page_bytes: 4096,
    }
}

/// Policy-major, then stream mode, then `[clean, program faults]`.
type Pins = [[[u64; 2]; 3]; 3];

/// Runs all 18 rows of one geometry before failing, so one run prints
/// every digest that moved.
///
/// `reserves` is `[clean, program faults]`: burned slots consume
/// physical headroom, so a faulty device needs more slack than a clean
/// one to stay writable through the whole schedule.
fn check_matrix(
    geo_name: &str,
    geometry: Geometry,
    limits: u32,
    rounds: u64,
    reserves: [u32; 2],
    want: &Pins,
) {
    let mut moved = Vec::new();
    let mut got: Pins = [[[0; 2]; 3]; 3];
    for (f, faults) in [false, true].into_iter().enumerate() {
        let reserve = reserves[f];
        for (p, policy) in policies(reserve).into_iter().enumerate() {
            for (s, streams) in STREAMS.into_iter().enumerate() {
                let cfg = ZnsConfig::new(FlashConfig::tlc(geometry), 4).with_zone_limits(limits);
                let dev = ZnsDevice::new(cfg).unwrap();
                let name = format!(
                    "{geo_name}/{}/{streams:?}/{}",
                    policy.name(),
                    if faults { "faults" } else { "clean" }
                );
                let summary = transcript(dev, rounds, reserve, policy, streams, faults);
                got[p][s][f] = summary.digest;
                moved.extend(check(&name, &summary, faults, want[p][s][f]));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "the zoned-device transcript changed:\n{}\nall of {geo_name}, for a deliberate re-pin: {got:#018x?}",
        moved.join("\n")
    );
}

/// Captured on the parent commit (see the module docs).
const SMALL: Pins = [
    [
        [0x8a2e_45ad_30cf_30e5, 0x39fa_7077_57fe_9fa8],
        [0xe71c_a8b6_29c7_a778, 0xda6f_4122_4904_ed60],
        [0xf998_3d19_c2a7_6b5a, 0xdd64_186b_ca31_3adc],
    ],
    [
        [0x0f3f_e851_5af9_f533, 0x01fa_6a5c_431e_c39a],
        [0x63f9_ad87_3207_4ace, 0x76f5_c5a1_f948_d849],
        [0xf998_3d19_c2a7_6b5a, 0xdd64_186b_ca31_3adc],
    ],
    [
        [0xba7b_3f16_5828_7591, 0xc164_44f1_2762_4091],
        [0x5a64_4862_7db2_2387, 0xe598_87e1_ac54_5fcf],
        [0xf998_3d19_c2a7_6b5a, 0xdd64_186b_ca31_3adc],
    ],
];
const PPB_100: Pins = [
    [
        [0x77dd_e830_dd6a_4b4a, 0x559a_fbee_ffd1_2231],
        [0x5c76_bc9f_56f2_4e69, 0x5364_9723_bd31_fcb5],
        [0x9c2b_df1f_4512_237e, 0x7d9e_2652_be39_5166],
    ],
    [
        [0x9ba2_0268_9b3e_9c51, 0x7659_c0f5_9d17_1ea8],
        [0x59c7_a0ab_63c8_8c11, 0xb498_ce6c_e542_faae],
        [0x309a_1a8f_c0e0_b14d, 0x9851_86ae_299a_bf67],
    ],
    [
        [0x69ea_8c47_4eae_4ab4, 0x4bd5_2ccb_13e1_785b],
        [0xba09_e14b_8eb6_783c, 0x9d6a_14df_8847_eab1],
        [0xef0b_d540_4d26_ddf6, 0xe74b_9d86_b64a_ee62],
    ],
];
const EXPERIMENT_8: Pins = [
    [
        [0xdb26_0ceb_1db5_55a6, 0xd827_372c_f061_846a],
        [0x667f_33b3_a615_8efc, 0x8d86_d26a_824b_5225],
        [0xee85_67f6_cc3a_0cf6, 0xd22b_d78a_33b4_ab82],
    ],
    [
        [0x8160_1cf1_e6a2_cbb8, 0x130b_e766_cf68_a59e],
        [0x47f5_442f_4f5b_cb76, 0xebac_7624_b723_56d5],
        [0x5cd8_8343_cf22_0199, 0x9be3_f911_ea7f_cfe4],
    ],
    [
        [0x4ad8_5f4b_73da_8bc8, 0x171c_dd81_8700_0128],
        [0xf073_bac7_fb59_6f5a, 0x3344_1a65_19a6_3ad2],
        [0x80a3_b27e_8877_0c02, 0xdeed_475d_ee57_6111],
    ],
];
const ZBD: u64 = 0xec49_fe2e_837e_2866;

/// 8 zones of 64 pages: exactly one bitmap word per zone.
#[test]
fn small_test_transcripts_are_pinned() {
    check_matrix("small", Geometry::small_test(), 8, 4, [3, 4], &SMALL);
}

/// 24 zones of 400 pages: not a multiple of 64.
#[test]
fn hundred_page_block_transcripts_are_pinned() {
    check_matrix("ppb100", geometry_100(), 8, 4, [4, 6], &PPB_100);
}

/// 64 zones of 1 024 pages, the benchmark's zone shape; 2× capacity per
/// phase keeps the 18 rows affordable in a debug build.
#[test]
fn experiment_8_transcripts_are_pinned() {
    check_matrix(
        "experiment8",
        Geometry::experiment(8),
        14,
        2,
        [8, 10],
        &EXPERIMENT_8,
    );
}

/// A backing file removed on drop, even when the row panics.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The same host code over the file-backed substrate, whose power cycle
/// is a real reopen and log replay.
#[test]
fn zbd_transcript_is_pinned() {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8);
    let file = TempFile(
        std::env::temp_dir().join(format!("bh-blockemu-lockstep-{}.zbd", std::process::id())),
    );
    let dev = ZbdDevice::create_file(ZbdConfig::mirror(&cfg), &file.0).unwrap();
    let summary = transcript(dev, 4, 4, ReclaimPolicy::Immediate, Streams::HotCold, true);
    let moved = check("zbd/immediate/HotCold/faults", &summary, true, ZBD);
    assert_eq!(moved, None, "the zoned-device transcript changed");
}

/// Captured on ca2f86c, the commit before simple-copy became
/// run-granular.
const FLEET_SHARD: u64 = 0xc816_9e96_cef4_0619;

/// The emergency-reclaim regime none of the 55 rows above reaches (their
/// highest relocated ÷ host writes is 85): a ZNS shard of blockhead-bench's
/// `fleet_mixed_64` — 64 zones of 1 024 pages, MAR 14, four hinted
/// streams and a GC frontier over a 4-zone reserve, so after the fill
/// `BlockEmu::write` reclaims a victim holding a page or two of garbage
/// on most writes and nearly all device traffic is thousand-page
/// simple-copy commands. Fill, then the first 12 000 ops of shard 3's
/// tenant stream, issued serially with maintenance every 64.
#[test]
fn fleet_shard_emergency_reclaim_transcript_is_pinned() {
    let fleet = FleetConfig::mixed(64, Geometry::experiment(8), 256, 7).with_ops_per_shard(12_000);
    let plan = &plan_fleet(&fleet)[3];
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::experiment(8)), 4).with_zone_limits(14);
    let dev = RecordingZoned::new(ZnsDevice::new(cfg).unwrap());
    let mut emu = BlockEmu::new(dev, 4, ReclaimPolicy::Immediate).with_hinted_streams(4);
    let cap = emu.capacity_pages();
    let mut d = Digest::new();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).unwrap();
    }
    tagged(&mut d, b'F', &[t.as_nanos()]);
    let mut stream = TenantStream::new(cap, &plan.tenants, plan.mix, plan.seed, 4);
    for i in 0..plan.ops {
        if i % fleet.maintenance_every == 0 {
            let (reclaimed, done) = emu.maybe_reclaim(t).unwrap();
            tagged(&mut d, b'M', &[reclaimed as u64, done.as_nanos()]);
            t = done;
        }
        match stream.next_hinted() {
            (Op::Read(lba), _) => {
                let (stamp, done) = emu.read(lba, t).unwrap();
                tagged(&mut d, b'r', &[lba, stamp, done.as_nanos()]);
                t = done;
            }
            (Op::Write(lba), hint) => {
                t = emu.write_hinted(lba, hint, t).unwrap();
                tagged(&mut d, b'W', &[lba, t.as_nanos()]);
            }
            (Op::Trim(lba), _) => {
                emu.trim(lba).unwrap();
                tagged(&mut d, b'T', &[lba]);
            }
        }
    }
    emu.verify_hotpath_invariants();
    d.u64(emu.device().digest.0);
    d.u64(emu.device().calls);
    let s = *emu.stats();
    tagged(
        &mut d,
        b'S',
        &[
            s.host_writes,
            s.host_reads,
            s.relocated,
            s.resets,
            s.reclaim_runs,
            s.program_redrives,
        ],
    );
    let z = emu.device().zone_stats();
    tagged(
        &mut d,
        b'Z',
        &[
            z.writes,
            z.appends,
            z.reads,
            z.resets,
            z.simple_copy_pages,
            z.implicit_closes,
        ],
    );
    let f = emu.device().flash_stats();
    tagged(
        &mut d,
        b'L',
        &[
            f.host_reads,
            f.host_programs,
            f.internal_reads,
            f.internal_programs,
            f.erases,
            f.copies,
            f.busy.as_nanos(),
        ],
    );
    let run_writes = s.host_writes - cap;
    println!(
        "fleet shard 3: digest {:#018x} over {} device calls, {} relocated by {run_writes} run-window writes, {} resets",
        d.0,
        emu.device().calls,
        s.relocated,
        s.resets
    );
    assert!(
        s.relocated > 100 * run_writes,
        "the row left the emergency-reclaim regime"
    );
    assert_eq!(
        d.0, FLEET_SHARD,
        "the zoned-device transcript changed: got {:#018x}",
        d.0
    );
}
