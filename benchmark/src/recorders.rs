//! Delegating recorders over the simulator's public trait seams.
//!
//! Each wrapper forwards every method of its trait to the wrapped value
//! and opens a span around the calls that do work. They are built only
//! for the traced pass — the untraced passes run the bare library types
//! — and they are transparent: the same schedule with and without them
//! yields the same simulated results (checked by fingerprint on every
//! traced run and by the tests in `tests.rs`).
//!
//! Cheap accessors (`capacity_pages`, `empty_zones`, `flash_stats`, …)
//! are forwarded without a span: a clock read costs more than they do,
//! so their time stays in the caller's self time.

use crate::trace::{note_gc_write, span, Span};
use bh_core::{BlockInterface, IoError, StackAdmin, WriteReq};
use bh_faults::FaultConfig;
use bh_flash::{FlashStats, Stamp};
use bh_kv::{FileHint, FileId, StorageBackend};
use bh_metrics::Nanos;
use bh_obs::Obs;
use bh_trace::Tracer;
use bh_workloads::{Op, OpSource};
use bh_zns::{ZnsStats, Zone, ZoneId, ZonedDevice};

/// `OpSource` seam: op generation.
pub struct TracedSource<S>(pub S);

impl<S: OpSource> OpSource for TracedSource<S> {
    fn next_op(&mut self) -> Op {
        let _s = span(Span::NextOp);
        self.0.next_op()
    }

    fn next_hinted(&mut self) -> (Op, u32) {
        let _s = span(Span::NextOp);
        self.0.next_hinted()
    }
}

/// `BlockInterface`/`StackAdmin` seam: the stack boundary the runner
/// calls.
pub struct TracedStack<D>(pub D);

impl<D: BlockInterface> BlockInterface for TracedStack<D> {
    fn capacity_pages(&self) -> u64 {
        self.0.capacity_pages()
    }

    fn read(&mut self, lba: u64, now: Nanos) -> Result<Nanos, IoError> {
        let _s = span(Span::StackRead);
        self.0.read(lba, now)
    }

    fn write(&mut self, req: WriteReq, now: Nanos) -> Result<Nanos, IoError> {
        let erases = self.0.flash_stats().erases;
        let s = span(Span::StackWrite);
        let r = self.0.write(req, now);
        let ns = s.finish();
        if self.0.flash_stats().erases != erases {
            note_gc_write(ns);
        }
        r
    }

    fn trim(&mut self, lba: u64) -> Result<(), IoError> {
        let _s = span(Span::StackTrim);
        self.0.trim(lba)
    }

    fn maintenance(&mut self, now: Nanos) -> Result<Nanos, IoError> {
        let _s = span(Span::StackMaintenance);
        self.0.maintenance(now)
    }

    fn write_amplification(&self) -> f64 {
        self.0.write_amplification()
    }

    fn flash_stats(&self) -> FlashStats {
        self.0.flash_stats()
    }

    fn queue_depth(&self, now: Nanos) -> u32 {
        self.0.queue_depth(now)
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }
}

impl<D: StackAdmin> StackAdmin for TracedStack<D> {
    fn install_faults(&mut self, cfg: FaultConfig) {
        self.0.install_faults(cfg);
    }

    fn power_cycle(&mut self, now: Nanos) -> Result<(Nanos, u64), IoError> {
        let _s = span(Span::StackPowerCycle);
        self.0.power_cycle(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn set_obs(&mut self, obs: Obs) {
        self.0.set_obs(obs);
    }
}

/// `ZonedDevice` seam: below `BlockEmu`, over `ZnsDevice` or
/// `ZbdDevice`.
pub struct TracedZoned<D>(pub D);

impl<D: ZonedDevice> ZonedDevice for TracedZoned<D> {
    fn num_zones(&self) -> u32 {
        self.0.num_zones()
    }

    fn zone_capacity(&self) -> u64 {
        self.0.zone_capacity()
    }

    fn page_bytes(&self) -> u32 {
        self.0.page_bytes()
    }

    fn zone(&self, id: ZoneId) -> bh_zns::Result<&Zone> {
        self.0.zone(id)
    }

    fn zone_report(&self) -> &[Zone] {
        self.0.zone_report()
    }

    fn active_zones(&self) -> u32 {
        self.0.active_zones()
    }

    fn open_zones(&self) -> u32 {
        self.0.open_zones()
    }

    fn empty_zones(&self) -> u32 {
        self.0.empty_zones()
    }

    fn open(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        let _s = span(Span::ZonedOpen);
        self.0.open(id)
    }

    fn close(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        let _s = span(Span::ZonedClose);
        self.0.close(id)
    }

    fn finish(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        let _s = span(Span::ZonedFinish);
        self.0.finish(id)
    }

    fn reset(&mut self, id: ZoneId, now: Nanos) -> bh_zns::Result<Nanos> {
        let _s = span(Span::ZonedReset);
        self.0.reset(id, now)
    }

    fn write(
        &mut self,
        id: ZoneId,
        offset: u64,
        stamp: Stamp,
        now: Nanos,
    ) -> bh_zns::Result<Nanos> {
        let _s = span(Span::ZonedWrite);
        self.0.write(id, offset, stamp, now)
    }

    fn append(&mut self, id: ZoneId, stamp: Stamp, now: Nanos) -> bh_zns::Result<(u64, Nanos)> {
        let _s = span(Span::ZonedAppend);
        self.0.append(id, stamp, now)
    }

    fn read(&mut self, id: ZoneId, offset: u64, now: Nanos) -> bh_zns::Result<(Stamp, Nanos)> {
        let _s = span(Span::ZonedRead);
        self.0.read(id, offset, now)
    }

    fn simple_copy(
        &mut self,
        sources: &[(ZoneId, u64)],
        dst: ZoneId,
        now: Nanos,
    ) -> bh_zns::Result<(Vec<u64>, Nanos)> {
        let _s = span(Span::ZonedSimpleCopy);
        self.0.simple_copy(sources, dst, now)
    }

    fn inject_read_only(&mut self, id: ZoneId) -> bh_zns::Result<()> {
        self.0.inject_read_only(id)
    }

    fn zone_stats(&self) -> ZnsStats {
        self.0.zone_stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.0.flash_stats()
    }

    fn busy_planes(&self, now: Nanos) -> u32 {
        self.0.busy_planes(now)
    }

    fn install_faults(&mut self, cfg: FaultConfig) {
        self.0.install_faults(cfg);
    }

    fn power_cycle(&mut self, now: Nanos) -> Nanos {
        let _s = span(Span::ZonedPowerCycle);
        self.0.power_cycle(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn set_obs(&mut self, obs: Obs) {
        self.0.set_obs(obs);
    }

    fn backend_label(&self) -> &'static str {
        self.0.backend_label()
    }
}

/// `StorageBackend` seam: below `Db`.
pub struct TracedBackend<B>(pub B);

impl<B: StorageBackend> StorageBackend for TracedBackend<B> {
    fn create(&mut self, hint: FileHint) -> FileId {
        let _s = span(Span::BackendCreate);
        self.0.create(hint)
    }

    fn append(&mut self, f: FileId, data: &[u8], now: Nanos) -> bh_kv::Result<Nanos> {
        let _s = span(Span::BackendAppend);
        self.0.append(f, data, now)
    }

    fn sync(&mut self, f: FileId, now: Nanos) -> bh_kv::Result<Nanos> {
        let _s = span(Span::BackendSync);
        self.0.sync(f, now)
    }

    fn read(
        &mut self,
        f: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> bh_kv::Result<(Vec<u8>, Nanos)> {
        let _s = span(Span::BackendRead);
        self.0.read(f, offset, len, now)
    }

    fn len(&self, f: FileId) -> bh_kv::Result<u64> {
        self.0.len(f)
    }

    fn delete(&mut self, f: FileId, now: Nanos) -> bh_kv::Result<Nanos> {
        let _s = span(Span::BackendDelete);
        self.0.delete(f, now)
    }

    fn maintenance(&mut self, now: Nanos) -> bh_kv::Result<Nanos> {
        let _s = span(Span::BackendMaintenance);
        self.0.maintenance(now)
    }

    fn durable_len(&self, f: FileId) -> bh_kv::Result<u64> {
        self.0.durable_len(f)
    }

    fn page_bytes(&self) -> u32 {
        self.0.page_bytes()
    }

    fn device_write_amplification(&self) -> f64 {
        self.0.device_write_amplification()
    }

    fn host_pages_written(&self) -> u64 {
        self.0.host_pages_written()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn set_obs(&mut self, obs: Obs) {
        self.0.set_obs(obs);
    }
}
