//! Cross-crate integration tests: full stacks, driven through the public
//! APIs, with the invariants the experiments rely on.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{BlockInterface, Pacing, RunConfig, Runner, WriteReq};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ObjectStore, PlacementPolicy, ReclaimPolicy, ZoneFs};
use bh_metrics::Nanos;
use bh_workloads::{ObjectEvent, ObjectStream, ObjectStreamConfig, OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice};

fn conv() -> ConvSsd {
    ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap()
}

fn zns(bpz: u32) -> ZnsDevice {
    let cfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), bpz).with_zone_limits(8);
    ZnsDevice::new(cfg).unwrap()
}

/// The core runner drives both stacks through the same trait and the
/// same recorded op sequence, and both serve it without loss.
#[test]
fn runner_drives_both_stacks_identically() {
    let mut stream = OpStream::uniform(96, OpMix::read_heavy(), 42);
    let ops = stream.take_ops(600);

    let run = |dev: &mut dyn BlockInterface| -> (u64, u64) {
        let t = Runner::fill(dev, Nanos::ZERO).unwrap();
        let mut served = 0;
        let mut errors = 0;
        let mut now = t;
        for &op in &ops {
            let r = match op {
                bh_workloads::Op::Read(lba) => dev.read(lba % dev.capacity_pages(), now),
                bh_workloads::Op::Write(lba) => {
                    dev.write(WriteReq::new(lba % dev.capacity_pages()), now)
                }
                bh_workloads::Op::Trim(_) => continue,
            };
            match r {
                Ok(done) => {
                    served += 1;
                    now = done;
                }
                Err(_) => errors += 1,
            }
        }
        (served, errors)
    };

    let mut c = conv();
    let (served_c, errors_c) = run(&mut c);
    let mut e = BlockEmu::new(zns(4), 2, ReclaimPolicy::Immediate);
    let (served_e, errors_e) = run(&mut e);
    assert_eq!(errors_c, 0);
    assert_eq!(errors_e, 0);
    assert_eq!(served_c, served_e);
}

/// The open-loop runner produces sane histograms on a full device.
#[test]
fn open_loop_run_has_complete_accounting() {
    let mut dev = conv();
    let t = Runner::fill(&mut dev, Nanos::ZERO).unwrap();
    let mut stream = OpStream::uniform(dev.capacity_pages(), OpMix::read_heavy(), 7);
    let runner = Runner::new(
        RunConfig::new(1200)
            .with_pacing(Pacing::Open {
                interarrival: Nanos::from_micros(400),
            })
            .with_maintenance_every(128),
    );
    let r = runner.run(&mut dev, &mut stream, t).unwrap();
    assert_eq!(r.reads.count() + r.writes.count(), 1200);
    assert_eq!(r.errors, 0);
    assert!(r.reads.quantile(0.5) >= Nanos::from_micros(70));
    assert!(r.device_wa >= 1.0);
}

/// zonefs over a device that also serves another component: files map
/// one-to-one onto zones and survive a full write/truncate cycle.
#[test]
fn zonefs_full_lifecycle() {
    let mut fs = ZoneFs::new(zns(4));
    let mut t = Nanos::ZERO;
    // Fill every file completely.
    for f in 0..fs.num_files() {
        let max = fs.max_size_pages(f).unwrap();
        for i in 0..max {
            t = fs.append(f, (f as u64) << 32 | i, t).unwrap().1;
        }
        assert_eq!(fs.size_pages(f).unwrap(), max);
    }
    // Everything reads back.
    for f in 0..fs.num_files() {
        let (stamp, done) = fs.read(f, 3, t).unwrap();
        assert_eq!(stamp, (f as u64) << 32 | 3);
        t = done;
    }
    // Truncate half, rewrite, verify.
    for f in (0..fs.num_files()).step_by(2) {
        t = fs.truncate(f, t).unwrap();
        assert_eq!(fs.size_pages(f).unwrap(), 0);
        t = fs.append(f, 999, t).unwrap().1;
        let (stamp, done) = fs.read(f, 0, t).unwrap();
        assert_eq!(stamp, 999);
        t = done;
    }
    // Odd files untouched.
    let (stamp, _) = fs.read(1, 0, t).unwrap();
    assert_eq!(stamp, 1u64 << 32);
}

/// The object store survives a full generated workload (arrivals,
/// expiries, reclaim) under every placement policy, with all live
/// objects readable at the end.
#[test]
fn object_store_serves_generated_stream_under_all_policies() {
    let mut gen = ObjectStream::new(
        ObjectStreamConfig {
            owners: 3,
            arrival_gap_ns: 300_000,
            base_lifetime_ns: 20_000_000,
            lifetime_noise: 0.2,
            pages: (1, 3),
        },
        99,
    );
    let events = gen.events(800);
    for policy in [
        PlacementPolicy::Scatter { streams: 2 },
        PlacementPolicy::Temporal,
        PlacementPolicy::ByOwner { streams: 4 },
        PlacementPolicy::ByExpiry {
            bucket: Nanos::from_millis(20),
        },
    ] {
        let mut store = ObjectStore::new(zns(2), policy);
        let mut live = Vec::new();
        for e in &events {
            match *e {
                ObjectEvent::Put {
                    at_ns,
                    id,
                    pages,
                    owner,
                    expiry_estimate_ns,
                } => {
                    store
                        .put(
                            id,
                            pages,
                            owner,
                            Nanos::from_nanos(expiry_estimate_ns),
                            Nanos::from_nanos(at_ns),
                        )
                        .unwrap_or_else(|e| panic!("{policy:?}: put failed: {e}"));
                    live.push((id, pages));
                }
                ObjectEvent::Delete { at_ns, id } => {
                    store.delete(id, Nanos::from_nanos(at_ns)).unwrap();
                    live.retain(|&(l, _)| l != id);
                }
            }
        }
        let t = Nanos::from_secs(100);
        for &(id, pages) in &live {
            for p in 0..pages {
                let (stamp, _) = store
                    .read(id, p, t)
                    .unwrap_or_else(|e| panic!("{policy:?}: lost object {id}: {e}"));
                assert_eq!(stamp, (id << 8) | p as u64, "{policy:?}");
            }
        }
        assert!(store.write_amplification() >= 1.0);
    }
}

/// Device-level invariant across a whole stack run: flash never counts
/// more valid pages than the host has live, and WA accounting is
/// consistent between layers.
#[test]
fn cross_layer_accounting_is_consistent() {
    let mut e = BlockEmu::new(zns(4), 2, ReclaimPolicy::Immediate);
    let cap = e.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = e.write(lba, t).unwrap();
    }
    let mut x = 9u64;
    for _ in 0..3 * cap {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        t = e.write(x % cap, t).unwrap();
        t = e.maybe_reclaim(t).unwrap().1;
    }
    let host_wa = e.write_amplification();
    let flash_wa = e.device().flash_stats().write_amplification();
    // Host relocations go through simple-copy, which flash counts as
    // copies; the two WA numbers must agree.
    assert!(
        (host_wa - flash_wa).abs() < 0.05,
        "host WA {host_wa} vs flash WA {flash_wa}"
    );
}
