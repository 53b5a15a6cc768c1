//! Typed I/O requests and their completions.

use bh_metrics::Nanos;

/// One typed I/O command, the unit [`crate::QueueEngine::dispatch`]
/// accepts.
///
/// Writes carry an optional placement-stream hint; stacks that can act
/// on application knowledge (§4.1) route the write to the hinted
/// stream's zones, block devices drop the hint on the floor — which is
/// the paper's point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoRequest {
    /// Read one page.
    Read {
        /// Logical page address.
        lba: u64,
    },
    /// Write one page, optionally carrying a placement stream hint.
    Write {
        /// Logical page address.
        lba: u64,
        /// Placement stream hint, if the submitter has one.
        hint: Option<u32>,
    },
    /// Deallocate one page.
    Trim {
        /// Logical page address.
        lba: u64,
    },
    /// Host-visible maintenance (reclaim on the ZNS stack; a no-op on
    /// the conventional device, whose GC is its own business).
    Maintenance,
}

impl IoRequest {
    /// The request's kind, for bucketing completions.
    pub fn kind(&self) -> IoKind {
        match self {
            IoRequest::Read { .. } => IoKind::Read,
            IoRequest::Write { .. } => IoKind::Write,
            IoRequest::Trim { .. } => IoKind::Trim,
            IoRequest::Maintenance => IoKind::Maintenance,
        }
    }

    /// The logical address the request targets, if it targets one.
    pub fn lba(&self) -> Option<u64> {
        match *self {
            IoRequest::Read { lba } | IoRequest::Write { lba, .. } | IoRequest::Trim { lba } => {
                Some(lba)
            }
            IoRequest::Maintenance => None,
        }
    }
}

/// Request kinds, for histogram bucketing without matching payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Page read.
    Read,
    /// Page write (hinted or not).
    Write,
    /// Page deallocation.
    Trim,
    /// Host-scheduled maintenance.
    Maintenance,
}

impl IoKind {
    /// Stable lowercase name for reports and errors.
    pub fn name(self) -> &'static str {
        match self {
            IoKind::Read => "read",
            IoKind::Write => "write",
            IoKind::Trim => "trim",
            IoKind::Maintenance => "maintenance",
        }
    }
}

/// One retired operation, as [`crate::QueueEngine`] hands it to a sink.
///
/// The three instants decompose end-to-end latency into the share spent
/// waiting for a queue slot and the share the device spent serving:
/// `submitted ≤ issued ≤ completed`, with [`IoCompletion::queue_wait`]
/// and [`IoCompletion::service`] the two differences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCompletion<E> {
    /// Command id: the submission index, unique per engine.
    pub cid: u64,
    /// The request this completes.
    pub req: IoRequest,
    /// When the submitter handed the request in (its arrival instant).
    pub submitted: Nanos,
    /// When the arbiter dispatched it to the device.
    pub issued: Nanos,
    /// When the device completed it (equal to `issued` for failed ops
    /// and instantaneous trims).
    pub completed: Nanos,
    /// The device's verdict; the error type is the stack's.
    pub result: Result<(), E>,
}

impl<E> IoCompletion<E> {
    /// End-to-end latency: arrival to completion.
    pub fn latency(&self) -> Nanos {
        self.completed.saturating_sub(self.submitted)
    }

    /// Time spent waiting for a free queue slot.
    pub fn queue_wait(&self) -> Nanos {
        self.issued.saturating_sub(self.submitted)
    }

    /// Time the device spent serving the op.
    pub fn service(&self) -> Nanos {
        self.completed.saturating_sub(self.issued)
    }

    /// True when the op completed without error.
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_decomposes_into_wait_plus_service() {
        let c: IoCompletion<String> = IoCompletion {
            cid: 3,
            req: IoRequest::Write {
                lba: 9,
                hint: Some(1),
            },
            submitted: Nanos::from_nanos(10),
            issued: Nanos::from_nanos(25),
            completed: Nanos::from_nanos(100),
            result: Ok(()),
        };
        assert_eq!(c.latency(), c.queue_wait() + c.service());
        assert_eq!(c.queue_wait(), Nanos::from_nanos(15));
        assert_eq!(c.service(), Nanos::from_nanos(75));
        assert!(c.ok());
        assert_eq!(c.req.kind().name(), "write");
        assert_eq!(c.req.lba(), Some(9));
        assert_eq!(IoRequest::Maintenance.lba(), None);
    }
}
