//! The `StorageBackend` call transcript of a fixed KV schedule, pinned.
//!
//! `Db` talks to its device only through `StorageBackend`, and every
//! simulated number E5/E6 report (device WA, read tails, virtual time)
//! is a function of the calls it makes there: which file, which bytes,
//! at which virtual instant, in which order. A recording wrapper folds
//! every call and every returned instant into one digest per backend;
//! the digests below were captured on the commit *before* the zero-copy
//! data path landed (66cb252), so that change — and every later KV
//! speed-up — is proven to leave device traffic and virtual time
//! untouched. A digest that moves means simulated results moved: that is
//! a model change, not an optimisation, and needs its own justification.
//!
//! `Db` reads through `StorageBackend::read_shared`, so the recorder
//! overrides it and folds exactly what it folds for `read`: the pinned
//! digests hold through the shared path, not through the copying default.

use bh_conv::{ConvConfig, ConvSsd};
use bh_flash::{FlashConfig, Geometry};
use bh_kv::{
    ConvBackend, Db, DbConfig, FileHint, FileId, FileView, KvError, StorageBackend, ZnsBackend,
};
use bh_metrics::Nanos;
use bh_tests::Digest;
use bh_zns::{ZnsConfig, ZnsDevice};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Captured on the parent commit (see the module docs).
const CONV_DIGEST: u64 = 0x87e5_6e96_ac89_714a;
const ZNS_DIGEST: u64 = 0x18b1_9ead_6d1e_a0fa;

const SEED: u64 = 0x4B5F_10C5;
const KEYS: u32 = 1500;
const OPS: usize = 24_000;

/// Folds a returned instant, or a marker for an error.
fn fold_instant(d: &mut Digest, r: &Result<Nanos, KvError>) {
    match r {
        Ok(t) => d.u64(t.as_nanos()),
        Err(_) => d.u64(u64::MAX),
    }
}

/// Hashes every mutating or timed call made through it, then delegates.
struct Recorder<B> {
    inner: B,
    digest: Digest,
    calls: u64,
    /// Reads through `read`, then through `read_shared`.
    reads: [u64; 2],
}

impl<B> Recorder<B> {
    fn new(inner: B) -> Self {
        Recorder {
            inner,
            digest: Digest::new(),
            calls: 0,
            reads: [0; 2],
        }
    }

    fn call(&mut self, tag: u8, f: FileId, now: Nanos) {
        self.calls += 1;
        self.digest.bytes(&[tag]);
        self.digest.u64(f.0);
        self.digest.u64(now.as_nanos());
    }

    /// One read, copied or shared: the same bytes go into the digest.
    fn read_with<T>(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
        read: impl FnOnce(&mut B) -> bh_kv::Result<(T, Nanos)>,
    ) -> bh_kv::Result<(T, Nanos)> {
        self.call(b'r', f, now);
        self.digest.u64(offset);
        self.digest.u64(len);
        let r = read(&mut self.inner);
        fold_instant(
            &mut self.digest,
            &r.as_ref().map(|(_, t)| *t).map_err(Clone::clone),
        );
        r
    }
}

impl<B: StorageBackend> StorageBackend for Recorder<B> {
    fn create(&mut self, hint: FileHint) -> FileId {
        let id = self.inner.create(hint);
        self.calls += 1;
        self.digest.bytes(b"c");
        self.digest.u64(match hint {
            FileHint::Wal => u64::MAX,
            FileHint::Sst { level } => level as u64,
        });
        self.digest.u64(id.0);
        id
    }

    fn append(&mut self, f: FileId, data: &[u8], now: Nanos) -> bh_kv::Result<Nanos> {
        self.call(b'a', f, now);
        self.digest.u64(data.len() as u64);
        self.digest.bytes(data);
        let r = self.inner.append(f, data, now);
        fold_instant(&mut self.digest, &r);
        r
    }

    fn sync(&mut self, f: FileId, now: Nanos) -> bh_kv::Result<Nanos> {
        self.call(b's', f, now);
        let r = self.inner.sync(f, now);
        fold_instant(&mut self.digest, &r);
        r
    }

    fn read(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> bh_kv::Result<(Vec<u8>, Nanos)> {
        self.reads[0] += 1;
        self.read_with(f, offset, len, now, |b| b.read(f, offset, len, now))
    }

    fn read_shared(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> bh_kv::Result<(FileView, Nanos)> {
        self.reads[1] += 1;
        self.read_with(f, offset, len, now, |b| b.read_shared(f, offset, len, now))
    }

    fn len(&self, f: FileId) -> bh_kv::Result<u64> {
        self.inner.len(f)
    }

    fn delete(&mut self, f: FileId, now: Nanos) -> bh_kv::Result<Nanos> {
        self.call(b'd', f, now);
        let r = self.inner.delete(f, now);
        fold_instant(&mut self.digest, &r);
        r
    }

    fn maintenance(&mut self, now: Nanos) -> bh_kv::Result<Nanos> {
        self.call(b'm', FileId(0), now);
        let r = self.inner.maintenance(now);
        fold_instant(&mut self.digest, &r);
        r
    }

    fn durable_len(&self, f: FileId) -> bh_kv::Result<u64> {
        self.inner.durable_len(f)
    }

    fn page_bytes(&self) -> u32 {
        self.inner.page_bytes()
    }

    fn device_write_amplification(&self) -> f64 {
        self.inner.device_write_amplification()
    }

    fn host_pages_written(&self) -> u64 {
        self.inner.host_pages_written()
    }
}

fn geometry() -> Geometry {
    Geometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: 24,
        pages_per_block: 32,
        page_bytes: 4096,
    }
}

/// Small enough that the schedule flushes hundreds of times, compacts
/// through three levels and cuts multi-block, multi-file outputs.
fn db_config() -> DbConfig {
    DbConfig {
        memtable_bytes: 16 << 10,
        l0_files: 3,
        level_base_bytes: 64 << 10,
        level_multiplier: 4,
        sst_bytes: 32 << 10,
        block_bytes: 4096,
        sync_every: 16,
    }
}

fn key(k: u32) -> Vec<u8> {
    format!("user{k:08}").into_bytes()
}

/// Runs the fixed put/get/delete schedule, checking every get against a
/// model and that every read `Db` made was shared, and returns `(digest,
/// backend calls, flushes, compactions)`.
fn transcript<B: StorageBackend>(backend: B) -> (u64, u64, u64, u64) {
    let mut db = Db::new(Recorder::new(backend), db_config()).unwrap();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut model: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    let mut t = Nanos::ZERO;
    for i in 0..OPS {
        let k = rng.gen_range(0..KEYS);
        match rng.gen_range(0u32..10) {
            0..=5 => {
                let len = rng.gen_range(16usize..240);
                let v: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
                t = db.put(key(k), v.clone(), t).unwrap();
                model.insert(k, v);
            }
            6 => {
                t = db.delete(key(k), t).unwrap();
                model.remove(&k);
            }
            _ => {
                let (got, done) = db.get(&key(k), t).unwrap();
                assert_eq!(got.as_ref(), model.get(&k), "op {i} key {k}");
                t = done;
            }
        }
    }
    let stats = *db.stats();
    let rec = db.backend();
    assert!(
        rec.reads[0] == 0 && rec.reads[1] > 0,
        "Db must read only through read_shared: {:?} (copied, shared)",
        rec.reads
    );
    let mut d = Digest(rec.digest.0);
    d.u64(t.as_nanos());
    (d.0, rec.calls, stats.flushes, stats.compactions)
}

fn check(name: &str, got: (u64, u64, u64, u64), want: u64) {
    let (digest, calls, flushes, compactions) = got;
    println!(
        "{name}: digest {digest:#018x} over {calls} backend calls, {flushes} flushes, {compactions} compactions"
    );
    assert!(
        flushes > 100 && compactions > 50,
        "schedule no longer exercises flush/compaction: {flushes}/{compactions}"
    );
    assert_eq!(
        digest, want,
        "{name}: the StorageBackend transcript changed (got {digest:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn conv_backend_transcript_is_pinned() {
    let ssd = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geometry()), 0.15)).unwrap();
    check(
        "conv",
        transcript(ConvBackend::new(ssd).without_trim()),
        CONV_DIGEST,
    );
}

#[test]
fn zns_backend_transcript_is_pinned() {
    let cfg = ZnsConfig::new(FlashConfig::tlc(geometry()), 4).with_zone_limits(14);
    check(
        "zns",
        transcript(ZnsBackend::new(ZnsDevice::new(cfg).unwrap())),
        ZNS_DIGEST,
    );
}
