//! Flash operation counters, split by origin.
//!
//! Write amplification — the paper's central quantitative lens (§2.2) — is
//! a ratio of *physical* page programs to *host-intended* page writes. The
//! stats here therefore attribute every operation to an
//! [`crate::OpOrigin`], so FTLs and host stacks can report WA without any
//! bookkeeping of their own.

use bh_faults::FaultCounters;
use bh_metrics::Nanos;
use bh_obs::{Ctr, ObsSnapshot};

/// Cumulative operation counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Pages read on behalf of the host.
    pub host_reads: u64,
    /// Pages programmed on behalf of the host.
    pub host_programs: u64,
    /// Pages read by internal machinery (GC, wear leveling, copies).
    pub internal_reads: u64,
    /// Pages programmed by internal machinery.
    pub internal_programs: u64,
    /// Blocks erased (any origin).
    pub erases: u64,
    /// Device-internal page copies (simple-copy style).
    pub copies: u64,
    /// Sum of all array+bus time consumed, a coarse device-work proxy.
    pub busy: Nanos,
}

impl FlashStats {
    /// Writes the six flash counters of `snap` from these stats.
    pub fn obs_into(&self, snap: &mut ObsSnapshot) {
        snap.set(Ctr::FlashHostReads, self.host_reads);
        snap.set(Ctr::FlashHostPrograms, self.host_programs);
        snap.set(Ctr::FlashInternalReads, self.internal_reads);
        snap.set(Ctr::FlashInternalPrograms, self.internal_programs);
        snap.set(Ctr::FlashCopies, self.copies);
        snap.set(Ctr::FlashErases, self.erases);
    }

    /// Total page programs from any origin.
    pub fn total_programs(&self) -> u64 {
        self.host_programs + self.internal_programs + self.copies
    }

    /// Write amplification factor: physical programs per host program.
    ///
    /// Returns `1.0` when the device is idle (no programs from any
    /// origin), and `f64::INFINITY` when internal work happened without a
    /// single host program — previously this case was misreported as
    /// `1.0`, hiding pure-overhead intervals from interval-WA series.
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            return if self.internal_programs + self.copies == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.total_programs() as f64 / self.host_programs as f64
    }

    /// Returns the difference `self - earlier`, for interval reporting.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counters (counters
    /// are monotone).
    pub fn delta_since(&self, earlier: &FlashStats) -> FlashStats {
        FlashStats {
            host_reads: self.host_reads - earlier.host_reads,
            host_programs: self.host_programs - earlier.host_programs,
            internal_reads: self.internal_reads - earlier.internal_reads,
            internal_programs: self.internal_programs - earlier.internal_programs,
            erases: self.erases - earlier.erases,
            copies: self.copies - earlier.copies,
            busy: self.busy - earlier.busy,
        }
    }
}

/// Writes the fault slots of `snap` from what a fault plan injected:
/// the ECC retry reads, and one fault event per burned program, failed
/// erase and disturbed read. No plan leaves both at zero.
pub fn fault_obs_into(faults: Option<FaultCounters>, snap: &mut ObsSnapshot) {
    let c = faults.unwrap_or_default();
    snap.set(Ctr::FlashEccRetries, c.retry_reads);
    snap.set(
        Ctr::FaultEvents,
        c.program_failures + c.erase_failures + c.disturbed_reads,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_is_one_when_idle() {
        assert_eq!(FlashStats::default().write_amplification(), 1.0);
    }

    #[test]
    fn wa_is_infinite_for_pure_internal_work() {
        let s = FlashStats {
            internal_programs: 4,
            ..FlashStats::default()
        };
        assert!(s.write_amplification().is_infinite());
        let c = FlashStats {
            copies: 1,
            ..FlashStats::default()
        };
        assert!(c.write_amplification().is_infinite());
    }

    #[test]
    fn wa_counts_internal_and_copies() {
        let s = FlashStats {
            host_programs: 100,
            internal_programs: 30,
            copies: 20,
            ..FlashStats::default()
        };
        assert!((s.write_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = FlashStats {
            host_reads: 10,
            host_programs: 5,
            erases: 2,
            ..FlashStats::default()
        };
        let b = FlashStats {
            host_reads: 25,
            host_programs: 9,
            erases: 3,
            ..FlashStats::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.host_reads, 15);
        assert_eq!(d.host_programs, 4);
        assert_eq!(d.erases, 1);
    }
}
