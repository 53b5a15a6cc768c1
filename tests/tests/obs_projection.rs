//! Every obs snapshot is a projection of the stats each layer already
//! keeps. The constants below are what the live counter registry these
//! projections replaced reported for the very same runs, captured on the
//! commit before it went: every counter, and every gauge's value and
//! peak, in slot order. A projection that moves means a layer's stats
//! and the counters it exports no longer agree — or that the simulation
//! itself moved, which the lockstep suites would show too. The
//! conventional stack's pin (`stack0`) was re-taken when GC started to
//! reclaim the unprogrammed tails of blocks a power cycle seals, a
//! simulation change.
//!
//! The runs cover every layer that owns a slot: the conventional FTL and
//! both `BlockEmu` substrates under program failures and read retries
//! with power cycles between queued and serial runs (open-loop overload
//! included, where the in-flight gauge peaks at the calendar backlog),
//! bare zoned devices through explicit zone commands and power cycles,
//! KV over both backends, the cache over both stores, a fleet at 1 and
//! 4 workers, and E19's four quick-scale passes.

use bh_cache::{ConvSegmentStore, FlashCache, SegmentStore, ZnsSegmentStore};
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{Pacing, RunConfig, Runner, StackAdmin};
use bh_faults::FaultConfig;
use bh_flash::{FlashConfig, Geometry};
use bh_fleet::{FleetConfig, FleetSession, Placement};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_kv::{ConvBackend, Db, DbConfig, StorageBackend, ZnsBackend};
use bh_metrics::Nanos;
use bh_obs::registry::{ALL_CTRS, ALL_GAUGES};
use bh_obs::ObsSnapshot;
use bh_workloads::{Op, OpMix, OpStream};
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::backend::ZonedDevice;
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// (run, counters in `ALL_CTRS` order, (value, peak) in `ALL_GAUGES`
/// order), as the registry reported them.
type Pin = (&'static str, [u64; 25], [(u64, u64); 4]);

const PINS: [Pin; 15] = [
    (
        "stack0",
        [
            6375, 2847, 1245, 444, 19147, 1392, 715, 2625, 1400, 19147, 444, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 9186, 9186, 805,
        ],
        [(0, 0), (0, 0), (0, 0), (0, 3089)],
    ),
    (
        "stack1",
        [
            6447, 3044, 673, 539, 23844, 1692, 673, 0, 0, 0, 0, 431, 3, 427, 423, 0, 369, 0, 0, 0,
            0, 0, 9186, 9186, 879,
        ],
        [(2, 2), (2, 2), (2, 8), (0, 3082)],
    ),
    (
        "stack2",
        [
            6447, 3044, 673, 539, 23844, 423, 673, 0, 0, 0, 0, 431, 3, 427, 423, 0, 369, 0, 0, 0,
            0, 0, 9186, 9186, 879,
        ],
        [(2, 2), (2, 2), (2, 8), (0, 3076)],
    ),
    (
        "zoned_zns",
        [
            72, 418, 7, 11, 0, 16, 7, 0, 0, 0, 0, 13, 9, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 14,
        ],
        [(2, 5), (0, 4), (2, 8), (0, 0)],
    ),
    (
        "zoned_zbd",
        [
            72, 418, 7, 11, 0, 4, 7, 0, 0, 0, 0, 13, 9, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 14,
        ],
        [(2, 5), (0, 4), (2, 8), (0, 0)],
    ),
    (
        "kv_conv",
        [
            1486, 747, 0, 0, 193, 49, 0, 103, 53, 193, 0, 0, 0, 0, 0, 0, 0, 0, 544800, 1350877, 0,
            0, 0, 0, 0,
        ],
        [(0, 0), (0, 0), (0, 0), (0, 0)],
    ),
    (
        "kv_zns",
        [
            1486, 755, 0, 0, 0, 40, 0, 0, 0, 0, 0, 14, 0, 10, 10, 0, 0, 14, 544800, 1350877, 0, 0,
            0, 0, 0,
        ],
        [(4, 4), (4, 4), (4, 8), (0, 0)],
    ),
    (
        "cache_conv",
        [
            123, 7860, 0, 0, 3733, 716, 0, 0, 716, 3733, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 149, 3851,
            0, 0, 0,
        ],
        [(0, 0), (0, 0), (0, 0), (0, 0)],
    ),
    (
        "cache_zns",
        [
            453, 7870, 0, 0, 0, 528, 0, 0, 0, 0, 0, 125, 0, 67, 117, 0, 0, 0, 0, 0, 453, 3547, 0,
            0, 0,
        ],
        [(6, 7), (6, 7), (0, 8), (0, 0)],
    ),
    (
        "fleet_q0",
        [
            1104, 1452, 0, 0, 5128, 336, 0, 249, 119, 1642, 0, 69, 0, 63, 56, 0, 121, 0, 0, 0, 0,
            0, 1600, 1600, 0,
        ],
        [(6, 6), (6, 6), (3, 16), (0, 0)],
    ),
    (
        "fleet_q1",
        [
            1110, 1446, 105, 228, 8769, 586, 105, 251, 141, 1911, 50, 127, 0, 118, 113, 0, 161, 0,
            0, 0, 0, 0, 1624, 1624, 281,
        ],
        [(9, 9), (9, 9), (2, 16), (0, 807)],
    ),
    (
        "e19_zns",
        [
            0, 114688, 0, 0, 252927, 1188, 0, 0, 0, 0, 0, 359, 0, 358, 297, 0, 297, 0, 0, 0, 0, 0,
            0, 0, 0,
        ],
        [(1, 2), (1, 2), (2, 64), (0, 0)],
    ),
    (
        "e19_queue",
        [
            28016, 40477, 0, 0, 79004, 320, 0, 11984, 352, 79004, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 40624, 40624, 0,
        ],
        [(0, 0), (0, 0), (0, 0), (0, 8)],
    ),
    (
        "e19_kv",
        [
            648, 951, 0, 0, 0, 0, 0, 36, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1152000, 1410048, 0, 0, 0,
            0, 0,
        ],
        [(0, 0), (0, 0), (0, 0), (0, 0)],
    ),
    (
        "e19_conv",
        [
            0, 59578, 0, 0, 261928, 1120, 0, 29789, 1152, 261928, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0,
        ],
        [(0, 0), (0, 0), (0, 0), (0, 0)],
    ),
];

fn pinned(run: &str) -> ObsSnapshot {
    let (_, counters, gauges) = PINS
        .iter()
        .find(|(name, ..)| *name == run)
        .unwrap_or_else(|| panic!("no pin for {run}"));
    let mut snap = ObsSnapshot::default();
    for (&c, &v) in ALL_CTRS.iter().zip(counters) {
        snap.set(c, v);
    }
    for (&g, &(value, peak)) in ALL_GAUGES.iter().zip(gauges) {
        snap.set_gauge(g, value, peak);
    }
    snap
}

fn assert_pinned(run: &str, got: &ObsSnapshot) {
    assert_eq!(got, &pinned(run), "{run}: projection moved from the pin");
}

fn faults() -> FaultConfig {
    FaultConfig::new(0x0B5)
        .with_program_fail_ppm(20_000)
        .with_read_retry_ppm(50_000)
}

fn zcfg() -> ZnsConfig {
    ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8)
}

fn conv() -> ConvSsd {
    ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap()
}

fn stack(kind: &str) -> Box<dyn StackAdmin> {
    match kind {
        "stack0" => Box::new(conv()),
        "stack1" => Box::new(BlockEmu::new(
            ZnsDevice::new(zcfg()).unwrap(),
            3,
            ReclaimPolicy::Immediate,
        )),
        _ => Box::new(BlockEmu::new(
            ZbdDevice::new(ZbdConfig::mirror(&zcfg())).unwrap(),
            3,
            ReclaimPolicy::Immediate,
        )),
    }
}

/// Fill, an overloaded open-loop queued run, a power cycle, a serial
/// run, another power cycle, a closed queued run; the device's
/// projection plus the runs' queue activity.
fn stack_scenario(kind: &str) -> ObsSnapshot {
    let mut dev = stack(kind);
    dev.install_faults(faults());
    let mut t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
    let cap = dev.capacity_pages();
    let runs = [
        (
            4usize,
            Pacing::Open {
                interarrival: Nanos::from_nanos(300),
            },
        ),
        (1, Pacing::Closed),
        (8, Pacing::Closed),
    ];
    let mut queue = ObsSnapshot::default();
    for (i, (qd, pacing)) in runs.into_iter().enumerate() {
        let mut stream = OpStream::zipfian(cap, OpMix::read_heavy(), 0x5EED + i as u64);
        let res = Runner::new(
            RunConfig::new(3_000)
                .with_pacing(pacing)
                .with_maintenance_every(32)
                .with_queue_depth(qd),
        )
        .run(dev.as_mut(), &mut stream, t)
        .unwrap();
        res.obs_into(&mut queue);
        t += res.elapsed;
        if i < 2 {
            t = dev.power_cycle(t).unwrap().0;
        }
    }
    let mut snap = dev.obs_snapshot();
    snap.merge(&queue);
    snap
}

/// Zone commands straight on a zoned device, with faults and power
/// cycles.
fn zoned_scenario<D: ZonedDevice>(mut dev: D) -> ObsSnapshot {
    dev.install_faults(faults());
    let mut t = Nanos::ZERO;
    let cap = dev.zone_capacity();
    for round in 0..3u32 {
        for z in 0..6u32 {
            let id = ZoneId(z);
            if round > 0 && z % 3 == 0 {
                let _ = dev.reset(id, t);
            }
            if z == 5 {
                let _ = dev.open(id);
            }
            for p in 0..(cap / 2 + z as u64) {
                if let Ok((_, done)) = dev.append(id, (round * 1000 + p as u32) as u64, t) {
                    t = done;
                }
            }
            if z == 4 {
                let _ = dev.finish(id);
            }
            if z == 2 {
                let _ = dev.close(id);
            }
            for off in 0..4 {
                if let Ok((_, done)) = dev.read(id, off, t) {
                    t = done;
                }
            }
        }
        t = dev.power_cycle(t);
    }
    let mut snap = ObsSnapshot::default();
    dev.obs_into(&mut snap);
    snap
}

/// Random puts (most keys rewritten several times, so compactions run)
/// with a get every fifth op.
fn kv_scenario<B: StorageBackend>(backend: B) -> ObsSnapshot {
    let cfg = DbConfig {
        memtable_bytes: 16 << 10,
        l0_files: 2,
        level_base_bytes: 64 << 10,
        level_multiplier: 4,
        sst_bytes: 32 << 10,
        block_bytes: 4096,
        sync_every: 16,
    };
    let mut db = Db::new(backend, cfg).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x4B7);
    let mut t = Nanos::ZERO;
    for i in 0..3_000u64 {
        let k = rng.gen_range(0..600u64);
        let key = format!("key{k:08}").into_bytes();
        if i % 5 == 4 {
            t = db.get(&key, t).unwrap().1;
        } else {
            let mut v = vec![0u8; 200];
            rng.fill(&mut v[..]);
            t = db.put(key, v, t).unwrap();
        }
    }
    let mut snap = ObsSnapshot::default();
    db.obs_into(&mut snap);
    snap
}

/// Lookups over a key space twice the cache's reach, inserting on miss.
fn cache_scenario<S: SegmentStore>(store: S) -> ObsSnapshot {
    let mut cache = FlashCache::new(store);
    let mut rng = SmallRng::seed_from_u64(0xCAC4E);
    let mut t = Nanos::ZERO;
    for _ in 0..4_000 {
        let key = rng.gen_range(0..2_000u64);
        let (hit, done) = cache.get(key, t).unwrap();
        t = done;
        if !hit {
            t = cache.put(key, 1 + (key % 3) as u32, t).unwrap();
        }
    }
    let mut snap = ObsSnapshot::default();
    cache.obs_into(&mut snap);
    snap
}

fn fleet_cfg(queued: bool) -> FleetConfig {
    let mut cfg = FleetConfig::mixed(4, Geometry::small_test(), 12, 0xF1EE);
    cfg.ops_per_shard = 400;
    cfg.sample_every = 100;
    if queued {
        cfg = cfg
            .with_queue_depth(4)
            .with_pacing(Pacing::Open {
                interarrival: Nanos::from_nanos(500),
            })
            .with_faults(faults())
            .with_migration(200, Placement::RoundRobin);
    }
    cfg
}

#[test]
fn stacks_under_faults_and_power_cycles_project_the_pinned_counters() {
    for kind in ["stack0", "stack1", "stack2"] {
        assert_pinned(kind, &stack_scenario(kind));
    }
    assert_pinned(
        "zoned_zns",
        &zoned_scenario(ZnsDevice::new(zcfg()).unwrap()),
    );
    assert_pinned(
        "zoned_zbd",
        &zoned_scenario(ZbdDevice::new(ZbdConfig::mirror(&zcfg())).unwrap()),
    );
}

#[test]
fn kv_and_cache_project_the_pinned_counters() {
    assert_pinned("kv_conv", &kv_scenario(ConvBackend::new(conv())));
    assert_pinned(
        "kv_zns",
        &kv_scenario(ZnsBackend::new(ZnsDevice::new(zcfg()).unwrap())),
    );
    assert_pinned(
        "cache_conv",
        &cache_scenario(ConvSegmentStore::new(conv(), 64)),
    );
    assert_pinned(
        "cache_zns",
        &cache_scenario(ZnsSegmentStore::new(ZnsDevice::new(zcfg()).unwrap())),
    );
}

#[test]
fn fleet_projection_is_pinned_and_identical_across_job_counts() {
    for queued in [false, true] {
        let runs: Vec<ObsSnapshot> = [1, 4]
            .into_iter()
            .map(|jobs| {
                FleetSession::new(&fleet_cfg(queued))
                    .with_jobs(jobs)
                    .run()
                    .unwrap()
                    .obs
            })
            .collect();
        assert_eq!(runs[0], runs[1], "queued={queued}: obs depends on jobs");
        assert_pinned(&format!("fleet_q{}", queued as u8), &runs[0]);
    }
}

// E19's four passes at quick scale (`Geometry::experiment(8)`).

const CONV_SEED: u64 = 0x19C0;
const QUEUE_SEED: u64 = 0x19AD;
const KV_SEED: u64 = 0x19DB;

fn e19_geo() -> Geometry {
    Geometry::experiment(8)
}

fn e19_conv() -> ObsSnapshot {
    let mut ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(e19_geo()), 0.10)).unwrap();
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).unwrap().done;
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), CONV_SEED);
    for _ in 0..cap {
        if let Op::Write(lba) = stream.next_op() {
            t = ssd.write(lba, t).unwrap().done;
        }
    }
    let mut snap = ObsSnapshot::default();
    ssd.obs_into(&mut snap);
    snap
}

fn e19_zns() -> ObsSnapshot {
    let cfg = ZnsConfig::new(FlashConfig::tlc(e19_geo()), 4).with_zone_limits(8);
    let dev = ZnsDevice::new(cfg).unwrap();
    let reserve = (dev.num_zones() / 8).max(4);
    let mut emu = BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate);
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).unwrap();
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), CONV_SEED);
    for _ in 0..cap {
        if let Op::Write(lba) = stream.next_op() {
            t = emu.write(lba, t).unwrap();
        }
    }
    let mut snap = ObsSnapshot::default();
    emu.obs_into(&mut snap);
    snap
}

fn e19_queue() -> ObsSnapshot {
    let mut dev: Box<dyn StackAdmin> =
        Box::new(ConvSsd::new(ConvConfig::new(FlashConfig::tlc(e19_geo()), 0.15)).unwrap());
    let cap = dev.capacity_pages();
    let t = Runner::fill(dev.as_mut(), Nanos::ZERO).unwrap();
    let mut stream = OpStream::zipfian(cap, OpMix::read_heavy(), QUEUE_SEED);
    let res = Runner::new(
        RunConfig::new(40_000)
            .with_pacing(Pacing::Closed)
            .with_maintenance_every(64)
            .with_queue_depth(8),
    )
    .run(dev.as_mut(), &mut stream, t)
    .unwrap();
    let mut snap = dev.obs_snapshot();
    res.obs_into(&mut snap);
    snap
}

fn e19_kv() -> ObsSnapshot {
    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(e19_geo()), 0.10)).unwrap();
    let cfg = DbConfig {
        memtable_bytes: 64 << 10,
        l0_files: 4,
        level_base_bytes: 512 << 10,
        level_multiplier: 8,
        sst_bytes: 128 << 10,
        block_bytes: 4096,
        sync_every: 64,
    };
    let mut db = Db::new(ConvBackend::new(ssd), cfg).unwrap();
    let mut rng = SmallRng::seed_from_u64(KV_SEED);
    let mut t = Nanos::ZERO;
    for i in 0..4_000u64 {
        let mut v = vec![0u8; 256];
        rng.fill(&mut v[..]);
        t = db.put(format!("user{i:012}").into_bytes(), v, t).unwrap();
    }
    let mut snap = ObsSnapshot::default();
    db.obs_into(&mut snap);
    snap
}

#[test]
fn e19_passes_project_the_pinned_counters() {
    assert_pinned("e19_conv", &e19_conv());
    assert_pinned("e19_zns", &e19_zns());
    assert_pinned("e19_queue", &e19_queue());
    assert_pinned("e19_kv", &e19_kv());
}
