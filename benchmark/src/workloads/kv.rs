//! `kv_overwrite_get` — the paper's §2.4 LSM runs (E5/E6, 17% of
//! `run_all` wall): the same put/get schedule on `Db<ConvBackend>` and
//! `Db<ZnsBackend>`.
//!
//! bh-kv (memtable, WAL, SST build, compaction, bloom filters) costs
//! ~18 µs per operation, 40× any block operation, so block-layer
//! changes barely move this workload and KV changes move nothing else.

use super::{
    page_ops, Checks, Counts, Fp, RoundStats, Session, Snapshot, Spec, StackLayer, ZonedLayer,
};
use crate::recorders::{TracedBackend, TracedZoned};
use crate::trace::{span, Span};
use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, FlashStats, Geometry};
use bh_kv::{ConvBackend, Db, DbConfig, StorageBackend, ZnsBackend};
use bh_metrics::Nanos;
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "kv_overwrite_get",
    why: "alternating put/get on the LSM store over both backends, as in E5/E6 (17% of run_all wall): bh-kv costs 40x any block op, so only KV changes move it",
    fixed_rounds: FIXED_ROUNDS,
    stack_spans: StackLayer::None,
    // The ZNS store's device sits behind a recorder; the conv store's
    // `ConvSsd` has no trait seam below `StorageBackend`.
    zoned_spans: ZonedLayer::ZnsFlash,
    build,
};

/// E5's device at its quick scale, so that fill + overwrite on both
/// backends stays near a second.
const BLOCKS_PER_PLANE: u32 = 16;
const KEYS: usize = 30_000;
const VALUE_BYTES: usize = 400;
/// Distinct values the schedule draws from.
const VALUE_POOL: usize = 2048;
/// Operations per backend per round.
const ROUND_OPS: usize = 32_000;
const FIXED_ROUNDS: usize = 4;

fn geometry() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: BLOCKS_PER_PLANE,
        pages_per_block: 64,
        page_bytes: 4096,
    }
}

/// E5's `DbConfig`.
fn db_config() -> DbConfig {
    DbConfig {
        memtable_bytes: 128 << 10,
        l0_files: 4,
        level_base_bytes: 1 << 20,
        level_multiplier: 8,
        sst_bytes: 256 << 10,
        block_bytes: 4096,
        sync_every: 64,
    }
}

fn conv_backend() -> ConvBackend {
    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geometry()), 0.07))
        .expect("kv conv device config");
    ConvBackend::new(ssd).without_trim()
}

fn zns_device() -> ZnsDevice {
    let cfg = ZnsConfig::new(FlashConfig::tlc(geometry()), 4).with_zone_limits(14);
    ZnsDevice::new(cfg).expect("kv zns device config")
}

/// One store, the model of what it must return, and its virtual clock.
struct Store<B: StorageBackend> {
    db: Db<B>,
    /// Per key: index into the value pool of the last value put.
    last: Vec<u32>,
    now: Nanos,
}

#[derive(Clone, Copy)]
struct KvOp {
    put: bool,
    key: u32,
    value: u32,
}

struct Inputs {
    keys: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
}

impl<B: StorageBackend> Store<B> {
    fn new(backend: B) -> Self {
        Store {
            db: Db::new(backend, db_config()).expect("kv store"),
            last: vec![0; KEYS],
            now: Nanos::ZERO,
        }
    }

    fn put(&mut self, inputs: &Inputs, key: u32, value: u32) -> bool {
        let (k, v) = (
            inputs.keys[key as usize].clone(),
            inputs.values[value as usize].clone(),
        );
        let done = {
            let _s = span(Span::KvPut);
            self.db.put(k, v, self.now)
        };
        self.last[key as usize] = value;
        done.map(|t| self.now = t).is_ok()
    }

    /// `Some(true)` when the store returned the last value put.
    fn get(&mut self, inputs: &Inputs, key: u32) -> Option<bool> {
        let got = {
            let _s = span(Span::KvGet);
            self.db.get(&inputs.keys[key as usize], self.now)
        };
        let (value, done) = got.ok()?;
        self.now = done;
        let want = &inputs.values[self.last[key as usize] as usize];
        Some(value.as_deref() == Some(want.as_slice()))
    }

    /// Runs the schedule; returns (failed ops, wrong gets).
    fn run(&mut self, inputs: &Inputs, schedule: &[KvOp]) -> (u64, u64) {
        let (mut failed, mut wrong) = (0, 0);
        for op in schedule {
            if op.put {
                failed += u64::from(!self.put(inputs, op.key, op.value));
            } else {
                match self.get(inputs, op.key) {
                    Some(true) => {}
                    Some(false) => wrong += 1,
                    None => failed += 1,
                }
            }
        }
        (failed, wrong)
    }
}

struct KvSession<C: StorageBackend, Z: StorageBackend> {
    inputs: Inputs,
    rng: SmallRng,
    conv: Store<C>,
    zns: Store<Z>,
    conv_flash: fn(&C) -> FlashStats,
    zns_flash: fn(&Z) -> FlashStats,
    /// Flash page operations of both devices when the timed phase began.
    base_page_ops: u64,
    gets: u64,
    wrong_gets: u64,
}

impl<C: StorageBackend, Z: StorageBackend> KvSession<C, Z> {
    fn new(
        seed: u64,
        conv: C,
        zns: Z,
        conv_flash: fn(&C) -> FlashStats,
        zns_flash: fn(&Z) -> FlashStats,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let keys = (0..KEYS)
            .map(|i| format!("user{i:012}").into_bytes())
            .collect();
        let values = (0..VALUE_POOL)
            .map(|_| {
                let mut v = vec![0u8; VALUE_BYTES];
                rng.fill(&mut v[..]);
                v
            })
            .collect();
        let inputs = Inputs { keys, values };
        // fillrandom, then one overwrite per key into steady state.
        let mut precondition: Vec<KvOp> = (0..KEYS as u32)
            .map(|key| KvOp {
                put: true,
                key,
                value: rng.gen_range(0..VALUE_POOL as u32),
            })
            .collect();
        precondition.extend((0..KEYS).map(|_| KvOp {
            put: true,
            key: rng.gen_range(0..KEYS as u32),
            value: rng.gen_range(0..VALUE_POOL as u32),
        }));
        let mut s = KvSession {
            inputs,
            rng: SmallRng::seed_from_u64(bh_workloads::split_seed(seed, 0x7157)),
            conv: Store::new(conv),
            zns: Store::new(zns),
            conv_flash,
            zns_flash,
            base_page_ops: 0,
            gets: 0,
            wrong_gets: 0,
        };
        let (failed, _) = s.conv.run(&s.inputs, &precondition);
        assert_eq!(failed, 0, "kv preconditioning failed on the conv backend");
        let (failed, _) = s.zns.run(&s.inputs, &precondition);
        assert_eq!(failed, 0, "kv preconditioning failed on the zns backend");
        s.base_page_ops = s.page_ops_now();
        s
    }

    fn page_ops_now(&self) -> u64 {
        page_ops(&(self.conv_flash)(self.conv.db.backend()))
            + page_ops(&(self.zns_flash)(self.zns.db.backend()))
    }
}

impl<C: StorageBackend, Z: StorageBackend> Session for KvSession<C, Z> {
    fn round(&mut self) -> RoundStats {
        let schedule: Vec<KvOp> = (0..ROUND_OPS)
            .map(|i| KvOp {
                put: i % 2 == 0,
                key: self.rng.gen_range(0..KEYS as u32),
                value: self.rng.gen_range(0..VALUE_POOL as u32),
            })
            .collect();
        let start = Instant::now();
        let ((failed_c, wrong_c), (failed_z, wrong_z)) = {
            let _round = span(Span::Round);
            (
                self.conv.run(&self.inputs, &schedule),
                self.zns.run(&self.inputs, &schedule),
            )
        };
        let wall = start.elapsed();
        self.gets += ROUND_OPS as u64; // half of 2 × ROUND_OPS
        self.wrong_gets += wrong_c + wrong_z;
        RoundStats {
            ops: 2 * ROUND_OPS as u64,
            failed: failed_c + failed_z,
            wall,
        }
    }

    fn snapshot(&self) -> Snapshot {
        let (c, z) = (self.conv.db.stats(), self.zns.db.stats());
        let conv_wa = self.conv.db.backend().device_write_amplification();
        let zns_wa = self.zns.db.backend().device_write_amplification();
        let virt = self.conv.now.as_nanos() + self.zns.now.as_nanos();
        let mut counts = Counts::new();
        counts.insert("kv.flushes", (c.flushes + z.flushes) as f64);
        counts.insert("kv.compactions", (c.compactions + z.compactions) as f64);
        counts.insert("kv.app_wa", c.app_write_amplification());
        counts.insert("kv.device_wa_conv", conv_wa);
        counts.insert("kv.device_wa_zns", zns_wa);
        counts.insert(
            "flash.page_ops",
            (self.page_ops_now() - self.base_page_ops) as f64,
        );
        counts.insert("sim.virt_s", virt as f64 / 1e9);
        let mut fp = Fp::new();
        for s in [c, z] {
            fp = fp
                .u64(s.writes)
                .u64(s.reads)
                .u64(s.flushes)
                .u64(s.compactions)
                .u64(s.app_bytes)
                .u64(s.wal_bytes)
                .u64(s.sst_bytes_written);
        }
        let fingerprint = fp
            .flash(&(self.conv_flash)(self.conv.db.backend()))
            .flash(&(self.zns_flash)(self.zns.db.backend()))
            .u64(self.conv.now.as_nanos())
            .u64(self.zns.now.as_nanos())
            .f64(conv_wa)
            .f64(zns_wa)
            .finish();
        Snapshot {
            fingerprint,
            counts,
        }
    }

    fn checks(&mut self) -> Checks {
        // One check per get: it returned the last value put.
        let mut c = Checks {
            run: self.gets,
            ..Checks::default()
        };
        if self.wrong_gets > 0 {
            let wrong = self.wrong_gets;
            c.fail(
                wrong,
                format!("{wrong} gets returned something other than the last value put"),
            );
        }
        let (cs, zs) = (*self.conv.db.stats(), *self.zns.db.stats());
        c.expect(
            (cs.writes, cs.reads, cs.flushes) == (zs.writes, zs.reads, zs.flushes),
            || format!("the two stores saw different traffic: {cs:?} vs {zs:?}"),
        );
        c
    }
}

fn conv_flash(b: &ConvBackend) -> FlashStats {
    *b.ssd().flash_stats()
}

fn build(seed: u64, traced: bool, _dir: &Path) -> Box<dyn Session> {
    if traced {
        Box::new(KvSession::new(
            seed,
            TracedBackend(conv_backend()),
            TracedBackend(ZnsBackend::new(TracedZoned(zns_device()))),
            |b| conv_flash(&b.0),
            |b| b.0.device().flash_stats(),
        ))
    } else {
        Box::new(KvSession::new(
            seed,
            conv_backend(),
            ZnsBackend::new(zns_device()),
            conv_flash,
            |b| *b.device().flash_stats(),
        ))
    }
}
