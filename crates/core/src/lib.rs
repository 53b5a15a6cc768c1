//! The blockhead comparison framework — the paper's argument, runnable.
//!
//! The paper's thesis is comparative: *the same workload, on the same
//! flash, behaves better behind the zoned interface than behind the block
//! interface*. This crate supplies the apparatus for making that
//! comparison fairly and repeatably:
//!
//! - [`iface`]: one [`BlockInterface`] trait over both stacks — the
//!   conventional SSD (`bh-conv`) and the host block-emulation over ZNS
//!   (`bh-host`) — so experiments drive a single code path.
//! - [`runner`]: open- and closed-loop load generation over a
//!   [`BlockInterface`], collecting latency histograms and throughput on
//!   the virtual clock, with hooks for host-scheduled maintenance. At
//!   queue depth > 1 the runner drives the device through `bh-queue`'s
//!   NVMe-style queue engine.
//! - [`error`]: typed I/O errors ([`IoError`]) shared by every stack, so
//!   experiments classify failures structurally instead of grepping
//!   message strings.
//! - [`claims`]: the paper's quantitative claims as checkable bands —
//!   each experiment records "paper said X, we measured Y, the shape
//!   holds/doesn't".
//! - [`report`]: uniform experiment output: aligned tables, gnuplot-style
//!   series, and JSON for archival.

pub mod claims;
pub mod error;
pub mod iface;
pub mod report;
pub mod runner;

pub use bh_queue::{IoCompletion, IoKind, IoRequest, QueueEngine};
pub use claims::{Claim, ClaimSet};
pub use error::{DeviceError, IoError};
pub use iface::{BlockInterface, StackAdmin, WriteReq};
pub use report::Report;
pub use runner::{
    exec_request, interval_wa_series, OpFailure, Pacing, RunConfig, RunResult, Runner, Sample,
    Sampler,
};
