//! Typed I/O errors for the unified block interface.
//!
//! [`BlockInterface`](crate::BlockInterface) used to return
//! `Result<_, String>`, which forced the queue engine and the fault
//! tests to substring-grep messages to tell "read of an unmapped page"
//! (a workload artifact) from "the device burned a program" (a fault
//! worth counting). [`IoError`] classifies every failure by what the
//! *host* can do about it, while [`DeviceError`] keeps the stack's own
//! error as the source chain for diagnosis.

use bh_conv::ConvError;
use bh_host::HostError;
use bh_zns::ZnsError;

/// The stack-specific error underneath an [`IoError`], preserved
/// verbatim for diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// From the conventional SSD's FTL.
    Conv(ConvError),
    /// From the ZNS device proper.
    Zns(ZnsError),
    /// From the host software over ZNS.
    Host(HostError),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Conv(e) => write!(f, "conv: {e}"),
            DeviceError::Zns(e) => write!(f, "zns: {e}"),
            DeviceError::Host(e) => write!(f, "host: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Conv(e) => Some(e),
            DeviceError::Zns(e) => Some(e),
            DeviceError::Host(e) => Some(e),
        }
    }
}

/// Why an I/O failed, classified by what the host can do about it.
///
/// - [`IoError::OutOfRange`] and [`IoError::Unmapped`] are *host*
///   mistakes (or deliberate workload artifacts: a stream may read a
///   page it never wrote);
/// - [`IoError::Faulted`] means injected transient faults or media
///   degradation surfaced through the stack — the failures E16-style
///   experiments count;
/// - [`IoError::Device`] is everything else the stack rejected, with
///   the stack's own error preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Logical address beyond the exported capacity.
    OutOfRange {
        /// The offending logical address.
        lba: u64,
        /// Exported capacity in pages.
        capacity: u64,
    },
    /// Read of a logical address that has never been written (or was
    /// trimmed).
    Unmapped(u64),
    /// A fault-injection or media-degradation failure: burned program
    /// slots, unreadable pages, zones or devices gone read-only or
    /// offline.
    Faulted(DeviceError),
    /// Any other stack-level rejection, carrying the stack's error.
    Device(DeviceError),
}

impl IoError {
    /// The logical address involved, when the error names one.
    pub fn lba(&self) -> Option<u64> {
        match *self {
            IoError::OutOfRange { lba, .. } | IoError::Unmapped(lba) => Some(lba),
            IoError::Faulted(_) | IoError::Device(_) => None,
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::OutOfRange { lba, capacity } => {
                write!(f, "LBA {lba} out of range (capacity {capacity} pages)")
            }
            IoError::Unmapped(lba) => write!(f, "read of unmapped LBA {lba}"),
            IoError::Faulted(e) => write!(f, "device fault: {e}"),
            IoError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Faulted(e) | IoError::Device(e) => Some(e),
            _ => None,
        }
    }
}

/// True for ZNS errors produced by burned slots, degraded zones, or
/// retired media — the fault-induced class.
fn zns_is_faulted(e: &ZnsError) -> bool {
    matches!(
        e,
        ZnsError::ProgramFailure { .. }
            | ZnsError::MediaError { .. }
            | ZnsError::ZoneOffline(_)
            | ZnsError::ZoneReadOnly(_)
    )
}

impl From<ConvError> for IoError {
    fn from(e: ConvError) -> Self {
        match e {
            ConvError::LbaOutOfRange { lba, capacity } => IoError::OutOfRange { lba, capacity },
            ConvError::Unmapped(lba) => IoError::Unmapped(lba),
            // End-of-life read-only comes from fault-retired blocks.
            ConvError::ReadOnly => IoError::Faulted(DeviceError::Conv(e)),
            ConvError::Flash(_) => IoError::Device(DeviceError::Conv(e)),
        }
    }
}

impl From<ZnsError> for IoError {
    fn from(e: ZnsError) -> Self {
        if zns_is_faulted(&e) {
            IoError::Faulted(DeviceError::Zns(e))
        } else {
            IoError::Device(DeviceError::Zns(e))
        }
    }
}

impl From<HostError> for IoError {
    fn from(e: HostError) -> Self {
        match e {
            HostError::LbaOutOfRange { lba, capacity } => IoError::OutOfRange { lba, capacity },
            HostError::Unmapped(lba) => IoError::Unmapped(lba),
            HostError::Zns(z) if zns_is_faulted(&z) => {
                IoError::Faulted(DeviceError::Host(z.into()))
            }
            _ => IoError::Device(DeviceError::Host(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_zns::ZoneId;

    #[test]
    fn range_and_unmapped_map_structurally() {
        let e: IoError = ConvError::LbaOutOfRange {
            lba: 10,
            capacity: 4,
        }
        .into();
        assert_eq!(
            e,
            IoError::OutOfRange {
                lba: 10,
                capacity: 4
            }
        );
        assert_eq!(e.lba(), Some(10));
        let e: IoError = HostError::Unmapped(7).into();
        assert!(matches!(e, IoError::Unmapped(7)));
        assert_eq!(e.lba(), Some(7));
    }

    #[test]
    fn fault_induced_errors_classify_as_faulted() {
        let e: IoError = ConvError::ReadOnly.into();
        assert!(matches!(e, IoError::Faulted(_)));
        let e: IoError = ZnsError::ProgramFailure {
            zone: ZoneId(2),
            offset: 5,
        }
        .into();
        assert!(matches!(e, IoError::Faulted(_)));
        let e: IoError = HostError::Zns(ZnsError::ZoneOffline(ZoneId(1))).into();
        assert!(
            matches!(e, IoError::Faulted(_)),
            "fault class survives the host wrapper"
        );
    }

    #[test]
    fn other_errors_keep_the_stack_source() {
        let e: IoError = HostError::NoFreeZone.into();
        assert!(matches!(e, IoError::Device(DeviceError::Host(_))));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("no empty zone"));
        let e: IoError = ZnsError::ZoneFull(ZoneId(3)).into();
        assert!(matches!(e, IoError::Device(DeviceError::Zns(_))));
        assert!(!matches!(e, IoError::Faulted(_)));
    }
}
