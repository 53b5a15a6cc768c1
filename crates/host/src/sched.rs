//! Reclaim scheduling: *when* the host runs zone maintenance.
//!
//! §4.1: "the host is in full control and can precisely schedule zone
//! erasures and maintenance operations … these policies can differ across
//! sets of zones." On a conventional SSD the FTL decides opaquely; on ZNS
//! the host picks a [`ReclaimPolicy`], which is the knob experiment E12
//! sweeps. This module only names the policies: the decision — whether
//! a reclaim burst runs, how far it goes, and the emergency override
//! when free zones run out — is made in `BlockEmu::maybe_reclaim`.

use bh_metrics::Nanos;

/// When host-side reclaim (relocation + zone resets) is allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPolicy {
    /// Run reclaim whenever space runs low, even in the middle of
    /// foreground I/O — the closest analogue of an FTL's foreground GC.
    Immediate,
    /// Run reclaim only when the device has been idle for at least this
    /// long, plus under low-space emergency. Trades reclaim debt for
    /// read-tail latency.
    IdleOnly {
        /// Minimum observed idle gap before reclaim may start.
        min_idle: Nanos,
    },
    /// Run reclaim when free-space drops below a low watermark, stopping
    /// at a high watermark — bounded bursts, amortized interference.
    Watermark {
        /// Start reclaiming at or below this many free zones.
        low_zones: u32,
        /// Stop reclaiming at this many free zones.
        high_zones: u32,
    },
}

impl ReclaimPolicy {
    /// Stable short name for reports and trace events.
    pub fn name(&self) -> &'static str {
        match self {
            ReclaimPolicy::Immediate => "immediate",
            ReclaimPolicy::IdleOnly { .. } => "idle-only",
            ReclaimPolicy::Watermark { .. } => "watermark",
        }
    }
}
