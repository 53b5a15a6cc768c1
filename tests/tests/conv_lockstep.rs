//! The flash-operation transcript of a fixed conventional-FTL schedule,
//! pinned.
//!
//! Every simulated number E2/E4 report (write amplification, GC erase
//! counts, virtual time, the tails) is a function of the flash
//! operations `ConvSsd` issues: which block and page, for whom, at which
//! virtual instant, in which order. bh-trace already emits a typed
//! `FlashEvent::Op` for each of them and `ConvEvent` / `FaultEvent`
//! around them, so the whole event stream of a fixed-seed schedule —
//! fill, 4× capacity of overwrites with trims, maintenance calls and one
//! mid-run power cycle — is folded into one digest per row, followed by
//! the final `FlashStats`, `FtlStats`, the virtual clock and a read-back
//! of every LBA. A digest that moves means simulated results moved:
//! that is a model change, not an optimisation, and needs its own
//! justification.
//!
//! The first digests were captured on the commit *before* the
//! cache-compact FTL state landed (86d9de2), the eight-page rows before
//! GC copied in runs (c211d4b), and every one held unchanged through
//! 8009fa0, so those changes and every speed-up of bh-conv or bh-flash
//! up to there left flash traffic and virtual time untouched. The
//! commit after 8009fa0 is a model change: GC reclaims the unprogrammed
//! tail of a block the mid-run power cycle sealed, so the second half
//! of each row moved, and 24 of the 26 digests were re-taken on it. Only
//! `ppb-100 greedy+faults` and `experiment(8) fifo+faults` kept their
//! old digests. With the power cycle taken out of the schedule, the
//! digests the suite printed were the same on 8009fa0 and on that
//! commit, so nothing else moved.

use bh_conv::{ConvConfig, ConvError, ConvSsd, GcPolicy};
use bh_faults::FaultConfig;
use bh_flash::{FlashConfig, Geometry, Stamp};
use bh_metrics::Nanos;
use bh_tests::Digest;
use bh_trace::{ConvEvent, Event, FaultEvent, FlashEvent, FlashOpKind, Origin, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xC0_4F71;

/// Folds one record: a tag byte and its fields.
fn tagged(d: &mut Digest, tag: u8, fields: &[u64]) {
    d.bytes(&[tag]);
    for &f in fields {
        d.u64(f);
    }
}

/// Folds one trace event, every field of it.
fn fold_event(d: &mut Digest, ev: &Event) {
    let origin = |o: &Origin| matches!(o, Origin::Internal) as u64;
    match ev {
        Event::Flash(FlashEvent::Op {
            kind,
            origin: who,
            channel,
            die,
            plane,
            block,
            page,
            start,
            done,
        }) => {
            let kind = match kind {
                FlashOpKind::Read => 0,
                FlashOpKind::Program => 1,
                FlashOpKind::Erase => 2,
                FlashOpKind::Copy => 3,
            };
            tagged(
                d,
                b'f',
                &[
                    kind,
                    origin(who),
                    *channel as u64,
                    *die as u64,
                    *plane as u64,
                    *block as u64,
                    *page as u64,
                    start.as_nanos(),
                    done.as_nanos(),
                ],
            );
        }
        Event::Conv(ConvEvent::GcBegin {
            plane,
            victim,
            valid,
            invalid,
        }) => tagged(
            d,
            b'b',
            &[
                *plane as u64,
                *victim as u64,
                *valid as u64,
                *invalid as u64,
            ],
        ),
        Event::Conv(ConvEvent::GcEnd {
            plane,
            pages_copied,
            retired,
        }) => tagged(
            d,
            b'e',
            &[*plane as u64, *pages_copied as u64, *retired as u64],
        ),
        Event::Conv(ConvEvent::WearLevel { block, pages_moved }) => {
            tagged(d, b'w', &[*block as u64, *pages_moved as u64])
        }
        Event::Fault(FaultEvent::ProgramFail {
            block,
            page,
            origin: who,
        }) => tagged(d, b'P', &[*block as u64, *page as u64, origin(who)]),
        Event::Fault(FaultEvent::EraseFail { block, wear }) => {
            tagged(d, b'E', &[*block as u64, *wear as u64])
        }
        Event::Fault(FaultEvent::ReadRetry {
            block,
            page,
            retries,
        }) => tagged(d, b'R', &[*block as u64, *page as u64, *retries as u64]),
        Event::Fault(FaultEvent::PowerLoss { op_index }) => tagged(d, b'L', &[*op_index]),
        Event::Fault(FaultEvent::Redrive { layer, attempts }) => {
            tagged(d, b'D', &[*attempts as u64]);
            d.bytes(layer.as_bytes());
        }
        Event::Fault(FaultEvent::Replay {
            layer,
            scanned,
            recovered,
        }) => {
            tagged(d, b'Y', &[*scanned, *recovered]);
            d.bytes(layer.as_bytes());
        }
        other => panic!("a conventional SSD emitted {other:?}"),
    }
}

/// 2 channels × 1 die × 2 planes × 12 blocks × 100 pages: a block is one
/// and a half validity words, so word-boundary handling is on the path.
fn geometry_100() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 12,
        pages_per_block: 100,
        page_bytes: 4096,
    }
}

#[derive(Clone, Copy)]
struct Row {
    name: &'static str,
    geometry: Geometry,
    policy: GcPolicy,
    program_faults: bool,
    wear_level_gap: Option<u32>,
    /// Overwrites draw from the first `capacity / hot_div` LBAs; 1 is
    /// uniform over the whole device.
    hot_div: u64,
    /// Overrides `reserve_blocks_per_plane`; `None` keeps the
    /// `ConvConfig::new` reserve.
    reserve: Option<u32>,
    want: u64,
}

/// What a row's schedule did, for the "still exercises" assertions.
struct Summary {
    digest: u64,
    events: usize,
    gc_erases: u64,
    gc_pages_copied: u64,
    redrives: u64,
    wl_migrations: u64,
    wa: f64,
}

/// Host operations between two drains of the trace ring, and the ring's
/// size: the 0 % OP rows emit ~20 events per host write, millions per
/// row, so the stream is folded in slices instead of held whole.
const DRAIN_EVERY: u64 = 4096;
const RING: usize = 1 << 19;

/// Folds every event recorded since the last drain into `d` and starts
/// a fresh ring (sequence numbers and span ids restart with it, at the
/// same fixed points of the schedule every run). Returns the count.
fn drain_events(ssd: &mut ConvSsd, d: &mut Digest, name: &str) -> usize {
    assert_eq!(ssd.tracer().dropped(), 0, "{name}: trace ring too small");
    let events = ssd.tracer().events();
    for e in &events {
        d.u64(e.seq);
        d.u64(e.at.as_nanos());
        d.u64(e.span.0);
        fold_event(d, &e.event);
    }
    ssd.set_tracer(Tracer::ring(RING));
    events.len()
}

fn transcript(row: &Row) -> Summary {
    // Faulted rows get more spare space: every burned page is capacity
    // the FTL has to make up.
    let op = if row.program_faults { 0.15 } else { 0.0 };
    let mut cfg = ConvConfig::new(FlashConfig::tlc(row.geometry), op).with_gc_policy(row.policy);
    if let Some(gap) = row.wear_level_gap {
        cfg = cfg.with_wear_level_gap(gap);
    }
    if let Some(reserve) = row.reserve {
        cfg.reserve_blocks_per_plane = reserve;
    }
    let mut ssd = ConvSsd::new(cfg).unwrap();
    if row.program_faults {
        ssd.install_faults(FaultConfig::new(SEED).with_program_fail_ppm(60_000));
    }
    ssd.set_tracer(Tracer::ring(RING));
    let mut events = 0usize;

    let cap = ssd.capacity_pages();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut expect: Vec<Option<Stamp>> = vec![None; cap as usize];
    let mut d = Digest::new();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        let w = ssd.write(lba, t).expect("fill write");
        expect[lba as usize] = Some(w.stamp);
        tagged(&mut d, b'W', &[lba, w.stamp, w.done.as_nanos()]);
        t = w.done;
    }
    let ops = 4 * cap;
    for i in 0..ops {
        if i % DRAIN_EVERY == 0 {
            events += drain_events(&mut ssd, &mut d, row.name);
        }
        if i == ops / 2 {
            let (done, scanned) = ssd.power_cycle(t).expect("power cycle");
            tagged(&mut d, b'C', &[done.as_nanos(), scanned]);
            t = done;
        }
        if i % cap == cap / 2 {
            let reclaimed = ssd
                .maintenance(t, t + Nanos::from_millis(50))
                .expect("maintenance");
            tagged(&mut d, b'M', &[reclaimed as u64]);
        }
        let lba = rng.gen_range(0..cap / row.hot_div);
        if rng.gen_range(0u32..32) == 0 {
            ssd.trim(lba).expect("trim");
            expect[lba as usize] = None;
            tagged(&mut d, b'T', &[lba]);
        } else {
            let w = ssd
                .write(lba, t)
                .unwrap_or_else(|e| panic!("{}: write {i} of LBA {lba}: {e}", row.name));
            expect[lba as usize] = Some(w.stamp);
            tagged(&mut d, b'W', &[lba, w.stamp, w.done.as_nanos()]);
            t = w.done;
        }
    }

    events += drain_events(&mut ssd, &mut d, row.name);
    let fs = *ssd.flash_stats();
    tagged(
        &mut d,
        b'S',
        &[
            fs.host_reads,
            fs.host_programs,
            fs.internal_reads,
            fs.internal_programs,
            fs.erases,
            fs.copies,
            fs.busy.as_nanos(),
        ],
    );
    let ftl = *ssd.ftl_stats();
    tagged(
        &mut d,
        b'F',
        &[
            ftl.gc_runs,
            ftl.gc_pages_copied,
            ftl.gc_erases,
            ftl.wl_migrations,
            ftl.program_redrives,
            ftl.replays,
            ftl.replay_pages_scanned,
        ],
    );
    d.u64(t.as_nanos());
    for lba in 0..cap {
        match ssd.read(lba, t) {
            Ok((stamp, done)) => {
                assert_eq!(Some(stamp), expect[lba as usize], "{}: LBA {lba}", row.name);
                tagged(&mut d, b'r', &[stamp, done.as_nanos()]);
                t = done;
            }
            Err(ConvError::Unmapped(_)) => {
                assert_eq!(None, expect[lba as usize], "{}: LBA {lba}", row.name);
                tagged(&mut d, b'u', &[lba]);
            }
            Err(e) => panic!("{}: read-back of LBA {lba}: {e}", row.name),
        }
    }
    Summary {
        digest: d.0,
        events,
        gc_erases: ftl.gc_erases,
        gc_pages_copied: ftl.gc_pages_copied,
        redrives: ftl.program_redrives,
        wl_migrations: ftl.wl_migrations,
        wa: ssd.write_amplification(),
    }
}

/// Checks one row; a moved digest is returned, not panicked on, so the
/// caller can report every row of its matrix.
fn check(row: &Row) -> Option<String> {
    let s = transcript(row);
    println!(
        "{}: digest {:#018x} over {} events, {} GC erases, {} GC copies, {} re-drives, {} WL migrations, WA {:.3}",
        row.name, s.digest, s.events, s.gc_erases, s.gc_pages_copied, s.redrives, s.wl_migrations, s.wa
    );
    assert!(
        s.gc_erases > 10 && s.gc_pages_copied > 0,
        "{}: schedule no longer exercises GC",
        row.name
    );
    assert_eq!(
        s.redrives > 0,
        row.program_faults,
        "{}: re-drives {} with faults {}",
        row.name,
        s.redrives,
        row.program_faults
    );
    assert_eq!(
        s.wl_migrations > 0,
        row.wear_level_gap.is_some(),
        "{}: {} wear-leveling migrations",
        row.name,
        s.wl_migrations
    );
    (s.digest != row.want).then(|| {
        format!(
            "{}: got {:#018x}, pinned {:#018x}",
            row.name, s.digest, row.want
        )
    })
}

/// Re-taken with GC reclaiming power-cycle tails (see the module docs):
/// policy-major, `[clean, program faults]` per policy.
const SMALL: [[u64; 2]; 3] = [
    [0xdc50_a3a6_f66e_d1b8, 0xa4c5_0ae3_bf00_6cf1],
    [0x0b61_985d_2a5b_bc35, 0x2061_7861_58a0_a12c],
    [0x5b06_c9d0_87b0_70c9, 0x31a8_cb66_e600_35ef],
];
const PPB_100: [[u64; 2]; 3] = [
    [0xa950_e52d_14c6_a1bc, 0x4282_3608_b890_8c85],
    [0x051d_5851_c76a_4819, 0x813c_ed39_5f3a_66ad],
    [0xf9fb_be60_1254_b4ea, 0xa1dd_4a4f_14c4_8394],
];
const EXPERIMENT_8: [[u64; 2]; 3] = [
    [0xda73_5e6f_e4fe_b85c, 0xd421_831a_d01a_7423],
    [0x5eec_c885_ba79_a5f9, 0x434c_e52d_d6b6_64fa],
    [0x0cbd_453a_b53b_67a0, 0xa6db_cf7d_90fc_93d8],
];
const WEAR_LEVELED: u64 = 0xd3c3_6fa9_d825_344c;

const POLICIES: [(GcPolicy, [&str; 2]); 3] = [
    (GcPolicy::Greedy, ["greedy", "greedy+faults"]),
    (
        GcPolicy::CostBenefit,
        ["cost-benefit", "cost-benefit+faults"],
    ),
    (GcPolicy::Fifo, ["fifo", "fifo+faults"]),
];

/// Runs all six rows of one geometry before failing, so one run prints
/// every digest that moved. `reserve` is `[clean, program faults]`.
fn check_matrix(geometry: Geometry, reserve: [Option<u32>; 2], want: &[[u64; 2]; 3]) {
    let mut moved = Vec::new();
    for (p, &(policy, names)) in POLICIES.iter().enumerate() {
        for (f, program_faults) in [false, true].into_iter().enumerate() {
            moved.extend(check(&Row {
                name: names[f],
                geometry,
                policy,
                program_faults,
                wear_level_gap: None,
                hot_div: 1,
                reserve: reserve[f],
                want: want[p][f],
            }));
        }
    }
    assert!(
        moved.is_empty(),
        "the flash-operation transcript changed:\n{}",
        moved.join("\n")
    );
}

#[test]
fn small_test_transcripts_are_pinned() {
    check_matrix(Geometry::small_test(), [None; 2], &SMALL);
}

#[test]
fn hundred_page_block_transcripts_are_pinned() {
    check_matrix(geometry_100(), [None; 2], &PPB_100);
}

#[test]
fn experiment_8_transcripts_are_pinned() {
    check_matrix(Geometry::experiment(8), [None; 2], &EXPERIMENT_8);
}

/// Static wear leveling only moves when a cold majority sits still, so
/// this row hammers an eighth of the device.
#[test]
fn wear_leveled_transcript_is_pinned() {
    let moved = check(&Row {
        name: "greedy+wear-leveling",
        geometry: geometry_100(),
        policy: GcPolicy::Greedy,
        program_faults: false,
        wear_level_gap: Some(4),
        hot_div: 8,
        reserve: None,
        want: WEAR_LEVELED,
    });
    assert_eq!(moved, None, "the flash-operation transcript changed");
}

/// 4 channels × 1 die × 2 planes × 16 blocks × `pages_per_block`: eight
/// planes, so GC relocates in runs of up to eight pages, one per plane.
fn eight_planes(pages_per_block: u32) -> Geometry {
    Geometry {
        channels: 4,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 16,
        pages_per_block,
        page_bytes: 4096,
    }
}

/// The rows below were first captured on the commit before GC copied in
/// runs (c211d4b), were checked unchanged through 8009fa0, and were
/// re-taken with GC reclaiming power-cycle tails (see the module docs).
/// They pin where a run has to end: eight-page blocks make GC
/// frontiers fill inside a run; a reserve at the watermark (one block
/// above it under faults, which would otherwise go read-only in the
/// fill) keeps planes in the 32-page emergency slices; 6 % program
/// faults stop runs part-way on burned pages.
const EIGHT_PAGE_TIGHT: [[u64; 2]; 3] = [
    [0xfe11_37b8_3ddd_51ba, 0x7844_2f44_fb32_80b4],
    [0xa686_24cc_c51a_1514, 0x7ff7_9328_ed85_76fb],
    [0xf03b_9018_f167_5d64, 0xddf5_3e07_80e9_c425],
];
/// Whole-block migrations at a wear gap of 2 under the same faults, on
/// 32-page blocks so a migration burns a page or two: `relocate_all`'s
/// re-drives.
const EIGHT_PLANE_WEAR_LEVELED: u64 = 0x85cf_fe26_08e4_0f43;

#[test]
fn eight_page_tight_reserve_transcripts_are_pinned() {
    check_matrix(eight_planes(8), [Some(2), Some(3)], &EIGHT_PAGE_TIGHT);
}

#[test]
fn eight_plane_wear_leveled_faulted_transcript_is_pinned() {
    let moved = check(&Row {
        name: "greedy+wear-leveling+faults",
        geometry: eight_planes(32),
        policy: GcPolicy::Greedy,
        program_faults: true,
        wear_level_gap: Some(2),
        hot_div: 8,
        reserve: None,
        want: EIGHT_PLANE_WEAR_LEVELED,
    });
    assert_eq!(moved, None, "the flash-operation transcript changed");
}
