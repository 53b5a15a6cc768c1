//! Isolated layer probes: the layers that have no public seam in situ.
//!
//! bh-flash sits under bh-conv and bh-zns with nothing between them the
//! benchmark can wrap, bh-queue is private to the runner, and the
//! fleet's `TenantStream`s live inside worker threads. Each probe
//! drives one of them alone, through its public API, at a fixed size.
//! They run in every traced run, whatever the workload.

use crate::workloads::fleet;
use bh_core::{IoError, IoRequest, QueueEngine};
use bh_flash::{FlashConfig, FlashDevice, Geometry, OpOrigin, Ppa};
use bh_metrics::Nanos;
use bh_workloads::{OpMix, OpSource, TenantPopulation, TenantStream};
use std::hint::black_box;
use std::time::Instant;

pub struct ProbeResults {
    pub flash_program_ns: f64,
    pub flash_read_ns: f64,
    pub flash_erase_ns: f64,
    pub queue_dispatch_ns: f64,
    pub tenant_next_op_ns: f64,
}

fn per_op(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// One plane-striped pass over a `FlashDevice`: program every page
/// (page-major, so consecutive programs land on different planes, as an
/// FTL stripes them), read every page back, erase every block.
fn flash() -> (f64, f64, f64) {
    let geo = Geometry::experiment(32);
    let mut dev = FlashDevice::new(FlashConfig::tlc(geo)).expect("flash probe geometry");
    let blocks: Vec<_> = geo.blocks().collect();
    let pages = geo.total_pages();
    let mut t = Nanos::ZERO;

    let start = Instant::now();
    for page in 0..geo.pages_per_block {
        for &block in &blocks {
            let stamp = block.0 as u64 * geo.pages_per_block as u64 + page as u64;
            t = dev
                .program_next(block, stamp, t, OpOrigin::Host)
                .expect("probe program")
                .1;
        }
    }
    let program = per_op(start, pages);

    let start = Instant::now();
    for page in 0..geo.pages_per_block {
        for &block in &blocks {
            let (stamp, done) = dev
                .read(Ppa { block, page }, t, OpOrigin::Host)
                .expect("probe read");
            black_box(stamp);
            t = done;
        }
    }
    let read = per_op(start, pages);

    let start = Instant::now();
    for &block in &blocks {
        t = dev.erase(block, t).expect("probe erase").done;
    }
    let erase = per_op(start, blocks.len() as u64);
    (program, read, erase)
}

/// `QueueEngine::dispatch` at depth 16 with an arithmetic exec: the
/// calendar machinery alone, no device model or sampler in the loop.
fn queue() -> f64 {
    const OPS: u64 = 4_000_000;
    let mut engine: QueueEngine<IoError> = QueueEngine::new(16);
    let mut retired = 0u64;
    let mut arrival = Nanos::ZERO;
    let start = Instant::now();
    for i in 0..OPS {
        let lat = 700 + (i.wrapping_mul(0x9E37_79B9) & 0x1FF);
        engine.dispatch(
            IoRequest::Read { lba: i & 0xFFFF },
            arrival,
            |_req, t| (t + Nanos::from_nanos(lat), Ok(())),
            &mut |_c| retired += 1,
        );
        arrival = engine.slot_free_at();
    }
    engine.flush_into(&mut |_c| retired += 1);
    let ns = per_op(start, OPS);
    assert_eq!(retired, OPS, "queue probe lost completions");
    ns
}

/// `TenantStream::next_hinted` over the fleet workload's whole tenant
/// population on one shard-sized address space.
fn tenants(seed: u64) -> f64 {
    const OPS: u64 = 1_000_000;
    let pop = TenantPopulation::zipf(fleet::TENANTS, 0.9, seed);
    let cap = Geometry::experiment(fleet::BLOCKS_PER_PLANE).total_pages();
    let mut stream = TenantStream::new(cap, pop.specs(), OpMix::read_heavy(), seed, 4);
    let start = Instant::now();
    for _ in 0..OPS {
        black_box(stream.next_hinted());
    }
    per_op(start, OPS)
}

pub fn run(seed: u64) -> ProbeResults {
    let (flash_program_ns, flash_read_ns, flash_erase_ns) = flash();
    ProbeResults {
        flash_program_ns,
        flash_read_ns,
        flash_erase_ns,
        queue_dispatch_ns: queue(),
        tenant_next_op_ns: tenants(seed),
    }
}
