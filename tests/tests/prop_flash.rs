//! Property tests for the flash substrate: the §2.1 physical constraints
//! hold under arbitrary operation sequences, and page-state accounting
//! is conserved.
//!
//! Implemented as seeded-loop property tests (the offline build vendors
//! no proptest): each case derives a fresh deterministic RNG, generates a
//! random operation sequence, and checks the device against a reference
//! model after every step. Failures print the case seed for replay;
//! `BH_PROP_SEED` pins one seed.

use bh_flash::{
    BlockId, CellKind, FlashConfig, FlashDevice, FlashError, Geometry, OpOrigin, PageState, Ppa,
};
use bh_metrics::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum FlashOp {
    Program(u8),
    ProgramAt(u8, u8),
    Read(u8, u8),
    Invalidate(u8, u8),
    Erase(u8),
    Copy(u8, u8, u8),
}

fn gen_op(rng: &mut SmallRng) -> FlashOp {
    // Weights mirror the original proptest strategy: 4/1/3/2/2/1.
    match rng.gen_range(0u32..13) {
        0..=3 => FlashOp::Program(rng.gen_range(0u32..256) as u8),
        4 => FlashOp::ProgramAt(
            rng.gen_range(0u32..256) as u8,
            rng.gen_range(0u32..256) as u8,
        ),
        5..=7 => FlashOp::Read(
            rng.gen_range(0u32..256) as u8,
            rng.gen_range(0u32..256) as u8,
        ),
        8..=9 => FlashOp::Invalidate(
            rng.gen_range(0u32..256) as u8,
            rng.gen_range(0u32..256) as u8,
        ),
        10..=11 => FlashOp::Erase(rng.gen_range(0u32..256) as u8),
        _ => FlashOp::Copy(
            rng.gen_range(0u32..256) as u8,
            rng.gen_range(0u32..256) as u8,
            rng.gen_range(0u32..256) as u8,
        ),
    }
}

fn seeds(base: u64, cases: u64) -> Vec<u64> {
    match std::env::var("BH_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => (0..cases).map(|c| base ^ c).collect(),
    }
}

/// A model of per-block page states stays in lockstep with the device
/// through arbitrary (mostly invalid) operation sequences: after every
/// operation every page of every block reports exactly the model's
/// state, through every read accessor.
#[test]
fn flash_matches_page_state_model() {
    for case in seeds(0xF1A5_0000, 64) {
        let mut rng = SmallRng::seed_from_u64(case);
        let n_ops = rng.gen_range(1usize..400);
        // Odd seeds run 100-page blocks: one and a half validity words,
        // so scans and erases cross a word boundary and stop mid-word.
        let mut geo = Geometry::small_test();
        if case % 2 == 1 {
            geo.blocks_per_plane = 2;
            geo.pages_per_block = 100;
        }
        let mut dev = FlashDevice::new(FlashConfig::tlc(geo)).unwrap();
        let blocks = geo.total_blocks();
        let ppb = geo.pages_per_block;
        // Model: per block, Vec<Option<stamp>> for programmed pages (None
        // = programmed-but-invalidated), plus cursor.
        let mut model: Vec<Vec<Option<u64>>> = vec![Vec::new(); blocks as usize];
        let mut stamp = 0u64;
        let t = Nanos::ZERO;
        for _ in 0..n_ops {
            match gen_op(&mut rng) {
                FlashOp::Program(b) => {
                    let b = b as u32 % blocks;
                    stamp += 1;
                    match dev.program_next(BlockId(b), stamp, t, OpOrigin::Host) {
                        Ok((page, _)) => {
                            assert_eq!(page as usize, model[b as usize].len(), "case {case}");
                            model[b as usize].push(Some(stamp));
                        }
                        Err(FlashError::BlockFull(_)) => {
                            assert_eq!(model[b as usize].len() as u32, ppb, "case {case}");
                        }
                        Err(e) => panic!("case {case}: {e}"),
                    }
                }
                FlashOp::ProgramAt(b, p) => {
                    // The device programs only at the cursor: page `p` is
                    // programmed, through `program_next`, only when it is
                    // the cursor, and any other page is skipped. The draws
                    // stay the same, so the other ops' sequences do too.
                    let b = b as u32 % blocks;
                    let p = p as u32 % ppb;
                    stamp += 1;
                    if p == model[b as usize].len() as u32 {
                        let (page, _) = dev
                            .program_next(BlockId(b), stamp, t, OpOrigin::Host)
                            .unwrap_or_else(|e| panic!("case {case}: {e}"));
                        assert_eq!(page, p, "case {case}");
                        model[b as usize].push(Some(stamp));
                    }
                }
                FlashOp::Read(b, p) => {
                    let b = b as u32 % blocks;
                    let p = p as u32 % ppb;
                    let expect = model[b as usize].get(p as usize);
                    match dev.read(Ppa::new(BlockId(b), p), t, OpOrigin::Host) {
                        Ok((got, _)) => {
                            assert_eq!(Some(&got), expect, "case {case}: read state mismatch");
                        }
                        Err(FlashError::ReadUnwritten(_)) => {
                            assert!(
                                expect.is_none(),
                                "case {case}: unwritten error on written page"
                            );
                        }
                        Err(e) => panic!("case {case}: {e}"),
                    }
                }
                FlashOp::Invalidate(b, p) => {
                    let b = b as u32 % blocks;
                    let p = p as u32 % ppb;
                    // Invalidating a free page panics by contract; only
                    // exercise the legal transition.
                    if (p as usize) < model[b as usize].len() {
                        dev.invalidate(Ppa::new(BlockId(b), p)).unwrap();
                        model[b as usize][p as usize] = None;
                    }
                }
                FlashOp::Erase(b) => {
                    let b = b as u32 % blocks;
                    let out = dev.erase(BlockId(b), t).unwrap();
                    assert!(!out.retired, "case {case}: default endurance exhausted");
                    model[b as usize].clear();
                }
                FlashOp::Copy(b, p, d) => {
                    let b = b as u32 % blocks;
                    let p = p as u32 % ppb;
                    let d = d as u32 % blocks;
                    let src_live = model[b as usize].get(p as usize).copied().flatten();
                    let dst_full = model[d as usize].len() as u32 == ppb;
                    let pair = (Ppa::new(BlockId(b), p), BlockId(d));
                    let run = dev.copy_run(std::iter::once(pair), t);
                    assert_eq!(run.copied, u32::from(run.stopped.is_none()), "case {case}");
                    match run.stopped {
                        None => {
                            // The page after the model's is the copy, and
                            // the per-block check below compares stamps.
                            assert!(src_live.is_some(), "case {case}");
                            model[d as usize].push(src_live);
                        }
                        Some(FlashError::ReadUnwritten(_)) => {
                            assert!(src_live.is_none(), "case {case}");
                        }
                        Some(FlashError::BlockFull(_)) => {
                            assert!(dst_full, "case {case}");
                        }
                        Some(e) => panic!("case {case}: {e}"),
                    }
                }
            }
            // Per-block counts and the exact state of every page agree
            // with the model.
            for b in 0..blocks {
                let blk = dev.block(BlockId(b)).unwrap();
                let m = &model[b as usize];
                assert_eq!(blk.cursor() as usize, m.len(), "case {case}");
                let live: Vec<(u32, u64)> = m
                    .iter()
                    .enumerate()
                    .filter_map(|(p, s)| s.map(|s| (p as u32, s)))
                    .collect();
                assert_eq!(blk.valid_pages() as usize, live.len(), "case {case}");
                assert_eq!(
                    blk.invalid_pages() as usize,
                    m.len() - live.len(),
                    "case {case}"
                );
                assert_eq!(
                    blk.valid_entries().collect::<Vec<_>>(),
                    live,
                    "case {case} block {b}"
                );
                for p in 0..ppb {
                    let want = match m.get(p as usize) {
                        None => PageState::Free,
                        Some(Some(s)) => PageState::Valid(*s),
                        Some(None) => PageState::Invalid,
                    };
                    assert_eq!(blk.page(p), want, "case {case} block {b} page {p}");
                    assert_eq!(
                        blk.first_valid_from(p),
                        live.iter().copied().find(|&(q, _)| q >= p),
                        "case {case} block {b} scan from {p}"
                    );
                }
            }
        }
    }
}

/// Endurance retirement is permanent: after the rated cycle count a
/// block reports `BadBlock` forever.
#[test]
fn wear_retirement_is_permanent() {
    for case in 0u64..11 {
        let cycles = 1 + case as u32; // 1..=11 rated cycles
        let mut dev = FlashDevice::new(FlashConfig {
            geometry: Geometry::small_test(),
            cell: CellKind::Tlc,
            endurance_override: Some(cycles),
        })
        .unwrap();
        let t = Nanos::ZERO;
        let mut retired = false;
        for _ in 0..cycles + 3 {
            match dev.erase(BlockId(0), t) {
                Ok(out) => {
                    assert!(
                        !retired,
                        "case {case}: operation succeeded after retirement"
                    );
                    retired = out.retired;
                }
                Err(FlashError::BadBlock(_)) => {
                    assert!(retired, "case {case}: BadBlock before retirement");
                }
                Err(e) => panic!("case {case}: {e}"),
            }
        }
        assert!(retired, "case {case}");
        assert_eq!(dev.bad_blocks(), 1, "case {case}");
    }
}
