//! One block interface over both device stacks.
//!
//! Experiments E4/E7/E12 compare "a block device that is a conventional
//! SSD" against "a block device emulated on a ZNS SSD by host software".
//! [`BlockInterface`] is the common surface; both implementations return
//! virtual completion instants from the same flash substrate, so measured
//! differences are attributable to the interface and its software.
//!
//! The surface is deliberately split in two:
//!
//! - [`BlockInterface`] is the hot path — the five commands a submission
//!   queue dispatches (read/write/trim/maintenance) plus the counters the
//!   sampler polls. Errors are typed ([`IoError`]), so callers match on
//!   kind instead of grepping message strings.
//! - [`StackAdmin`] is the control plane — fault installation, power
//!   cycling, tracer attachment — kept off the per-op trait object.

use crate::error::IoError;
use bh_conv::ConvSsd;
use bh_flash::FlashStats;
use bh_host::BlockEmu;
use bh_metrics::Nanos;
use bh_obs::Obs;
use bh_trace::Tracer;
use bh_zns::backend::ZonedDevice;

/// One page write, with the placement hint folded into the request
/// instead of a parallel `write_hinted` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReq {
    /// Logical page address.
    pub lba: u64,
    /// Placement stream hint. Stacks that can act on application
    /// knowledge (§4.1) route the write to the hinted stream's zones;
    /// block devices have nowhere to put the hint and ignore it — which
    /// is the paper's point.
    pub hint: Option<u32>,
}

impl WriteReq {
    /// A plain, unhinted write.
    pub fn new(lba: u64) -> Self {
        WriteReq { lba, hint: None }
    }

    /// A write carrying a placement stream hint.
    pub fn hinted(lba: u64, hint: u32) -> Self {
        WriteReq {
            lba,
            hint: Some(hint),
        }
    }
}

/// A page-granular block device with explicit virtual time.
pub trait BlockInterface {
    /// Exported capacity in pages.
    fn capacity_pages(&self) -> u64;

    /// Reads a page; returns the completion instant.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoError`] on device errors.
    fn read(&mut self, lba: u64, now: Nanos) -> Result<Nanos, IoError>;

    /// Writes a page; returns the completion instant.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoError`] on device errors.
    fn write(&mut self, req: WriteReq, now: Nanos) -> Result<Nanos, IoError>;

    /// Deallocates a page.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoError`] on device errors.
    fn trim(&mut self, lba: u64) -> Result<(), IoError>;

    /// Runs host-visible maintenance at `now` (no-op where the device
    /// handles it internally). Returns the completion instant.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoError`] on device errors.
    fn maintenance(&mut self, now: Nanos) -> Result<Nanos, IoError>;

    /// Device-level write amplification observed so far.
    fn write_amplification(&self) -> f64;

    /// Cumulative flash-level operation counters, for interval sampling.
    fn flash_stats(&self) -> FlashStats;

    /// Planes still occupied at `now` — an instantaneous queue-depth
    /// proxy for the flash array.
    fn queue_depth(&self, now: Nanos) -> u32;

    /// Short label for reports.
    fn label(&self) -> &'static str;
}

/// Stack administration: everything an operator (or a fault harness)
/// does to a device that is not an I/O command. Split from
/// [`BlockInterface`] so the hot-path trait object stays minimal.
pub trait StackAdmin: BlockInterface {
    /// Installs a deterministic transient-fault plan on the flash
    /// beneath the stack. The default ignores it, for stacks without
    /// fault support.
    fn install_faults(&mut self, cfg: bh_faults::FaultConfig) {
        let _ = cfg;
    }

    /// Models a power loss at `now` followed by recovery. Returns the
    /// instant recovery completes and the number of pages scanned to
    /// rebuild translation state — the recovery-work metric E16 compares
    /// across stacks. The default has nothing to recover.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoError`] on device errors.
    fn power_cycle(&mut self, now: Nanos) -> Result<(Nanos, u64), IoError> {
        Ok((now, 0))
    }

    /// Installs a tracer on the whole device stack.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Installs a live counter registry on the whole device stack. The
    /// default ignores it, for stacks without instrumentation.
    fn set_obs(&mut self, obs: Obs) {
        let _ = obs;
    }
}

impl BlockInterface for ConvSsd {
    fn capacity_pages(&self) -> u64 {
        self.capacity_pages()
    }

    fn read(&mut self, lba: u64, now: Nanos) -> Result<Nanos, IoError> {
        ConvSsd::read_timed(self, lba, now).map_err(IoError::from)
    }

    fn write(&mut self, req: WriteReq, now: Nanos) -> Result<Nanos, IoError> {
        // The block interface has nowhere to put the hint; it is
        // dropped here, exactly as a real block device drops it.
        ConvSsd::write(self, req.lba, now)
            .map(|o| o.done)
            .map_err(IoError::from)
    }

    fn trim(&mut self, lba: u64) -> Result<(), IoError> {
        ConvSsd::trim(self, lba).map_err(IoError::from)
    }

    fn maintenance(&mut self, now: Nanos) -> Result<Nanos, IoError> {
        // The conventional FTL garbage-collects inside the write path on
        // its own schedule; the host cannot help it. (§2.4: the timing of
        // GC "was known neither to the OS nor applications".)
        Ok(now)
    }

    fn write_amplification(&self) -> f64 {
        ConvSsd::write_amplification(self)
    }

    fn flash_stats(&self) -> FlashStats {
        *ConvSsd::flash_stats(self)
    }

    fn queue_depth(&self, now: Nanos) -> u32 {
        self.device().scheduler().busy_planes(now)
    }

    fn label(&self) -> &'static str {
        "conventional"
    }
}

impl StackAdmin for ConvSsd {
    fn install_faults(&mut self, cfg: bh_faults::FaultConfig) {
        ConvSsd::install_faults(self, cfg);
    }

    fn power_cycle(&mut self, now: Nanos) -> Result<(Nanos, u64), IoError> {
        ConvSsd::power_cycle(self, now).map_err(IoError::from)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        ConvSsd::set_tracer(self, tracer);
    }

    fn set_obs(&mut self, obs: Obs) {
        ConvSsd::set_obs(self, obs);
    }
}

impl<D: ZonedDevice> BlockInterface for BlockEmu<D> {
    fn capacity_pages(&self) -> u64 {
        self.capacity_pages()
    }

    fn read(&mut self, lba: u64, now: Nanos) -> Result<Nanos, IoError> {
        BlockEmu::read_timed(self, lba, now).map_err(IoError::from)
    }

    fn write(&mut self, req: WriteReq, now: Nanos) -> Result<Nanos, IoError> {
        match req.hint {
            // Hot/cold and region maps classify writes themselves; an
            // external hint would override their placement. Unhinted
            // emulators take the plain path too.
            Some(hint) if self.is_hinted() => {
                // Fold fleet-wide tenant hints onto this device's stream
                // count so any population maps onto any stack
                // configuration.
                let stream = hint % self.streams();
                BlockEmu::write_hinted(self, req.lba, stream, now).map_err(IoError::from)
            }
            _ => BlockEmu::write(self, req.lba, now).map_err(IoError::from),
        }
    }

    fn trim(&mut self, lba: u64) -> Result<(), IoError> {
        BlockEmu::trim(self, lba).map_err(IoError::from)
    }

    fn maintenance(&mut self, now: Nanos) -> Result<Nanos, IoError> {
        BlockEmu::maybe_reclaim(self, now)
            .map(|(_, done)| done)
            .map_err(IoError::from)
    }

    fn write_amplification(&self) -> f64 {
        BlockEmu::write_amplification(self)
    }

    fn flash_stats(&self) -> FlashStats {
        self.device().flash_stats()
    }

    fn queue_depth(&self, now: Nanos) -> u32 {
        self.device().busy_planes(now)
    }

    fn label(&self) -> &'static str {
        match self.device().backend_label() {
            "zbd" => "zbd+blockemu",
            _ => "zns+blockemu",
        }
    }
}

impl<D: ZonedDevice> StackAdmin for BlockEmu<D> {
    fn install_faults(&mut self, cfg: bh_faults::FaultConfig) {
        BlockEmu::install_faults(self, cfg);
    }

    fn power_cycle(&mut self, now: Nanos) -> Result<(Nanos, u64), IoError> {
        BlockEmu::power_cycle(self, now).map_err(IoError::from)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        BlockEmu::set_tracer(self, tracer);
    }

    fn set_obs(&mut self, obs: Obs) {
        BlockEmu::set_obs(self, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_conv::ConvConfig;
    use bh_flash::{FlashConfig, Geometry};
    use bh_host::ReclaimPolicy;
    use bh_zns::{ZnsConfig, ZnsDevice};

    fn devices() -> (Box<dyn StackAdmin>, Box<dyn StackAdmin>) {
        let conv = ConvSsd::new(ConvConfig::new(
            FlashConfig::tlc(Geometry::small_test()),
            0.15,
        ))
        .unwrap();
        let zcfg = ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4)
            .with_active_zones(8)
            .with_open_zones(8);
        let emu = BlockEmu::new(ZnsDevice::new(zcfg).unwrap(), 2, ReclaimPolicy::Immediate);
        (Box::new(conv), Box::new(emu))
    }

    #[test]
    fn both_devices_serve_the_same_ops() {
        let (mut conv, mut emu) = devices();
        for dev in [conv.as_mut(), emu.as_mut()] {
            let cap = dev.capacity_pages();
            assert!(cap > 0);
            let mut t = Nanos::ZERO;
            for lba in 0..cap.min(64) {
                t = dev.write(WriteReq::new(lba), t).unwrap();
            }
            for lba in 0..cap.min(64) {
                t = dev.read(lba, t).unwrap();
            }
            dev.trim(0).unwrap();
            t = dev.maintenance(t).unwrap();
            assert!(dev.write_amplification() >= 1.0);
            assert!(!dev.label().is_empty());
            let _ = t;
        }
    }

    #[test]
    fn errors_are_typed_not_strings() {
        let (mut conv, mut emu) = devices();
        for dev in [conv.as_mut(), emu.as_mut()] {
            let cap = dev.capacity_pages();
            assert_eq!(
                dev.write(WriteReq::new(cap), Nanos::ZERO),
                Err(IoError::OutOfRange {
                    lba: cap,
                    capacity: cap
                }),
                "{}: out-of-range writes classify structurally",
                dev.label()
            );
            assert_eq!(
                dev.read(0, Nanos::ZERO),
                Err(IoError::Unmapped(0)),
                "{}: unmapped reads classify structurally",
                dev.label()
            );
        }
    }

    #[test]
    fn hints_route_through_the_unified_write() {
        let (_, mut emu) = devices();
        // The default emulator is unhinted: hinted requests take the
        // plain path rather than erroring.
        let t = emu
            .write(WriteReq::hinted(0, 3), Nanos::ZERO)
            .expect("hint on an unhinted stack is dropped, not fatal");
        assert!(t > Nanos::ZERO);
    }

    #[test]
    fn obs_installs_through_the_admin_plane() {
        let (mut conv, mut emu) = devices();
        for dev in [conv.as_mut(), emu.as_mut()] {
            let obs = Obs::enabled();
            dev.set_obs(obs.clone());
            let mut t = Nanos::ZERO;
            for lba in 0..8 {
                t = dev.write(WriteReq::new(lba), t).unwrap();
            }
            assert!(
                obs.get(bh_obs::Ctr::FlashHostPrograms) >= 8,
                "{}: host programs flow into the shared registry",
                dev.label()
            );
        }
    }
}
