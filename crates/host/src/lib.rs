//! Host-side software stack for ZNS SSDs.
//!
//! The paper's central trade (§2.3): ZNS moves the FTL's responsibilities
//! — space reclamation, data placement, I/O scheduling — up to the host,
//! where application knowledge lives. This crate is that host software:
//!
//! - [`zalloc`]: a lifetime-class zone allocator — callers tag writes with
//!   an expected-lifetime hint and data with similar lifetimes shares
//!   zones (§4.1's application-aware placement).
//! - [`sched`]: reclaim-scheduling policies — *when* to run zone resets
//!   and data relocation relative to foreground I/O (§4.1's I/O-scheduling
//!   question; the knob conventional FTLs hide).
//! - [`blockemu`]: a log-structured block-interface emulation over ZNS,
//!   in the mold of dm-zoned and IBM's SALSA (§2.3: "it was
//!   straightforward to implement the block interface on the host") —
//!   host-side GC built on simple-copy.
//! - [`zonefs`]: zones-as-files, mirroring kernel zonefs semantics
//!   (§4.1's interface-spectrum discussion).
//! - [`lfs`]: a zoned log-structured filesystem (mini-F2FS) with
//!   optional owner-hint placement — the filesystem knowledge §4.1 says
//!   zoned filesystems do not yet use.
//! - [`placement`]: an expiry-tagged object store with pluggable
//!   placement policies, for quantifying how much lifetime knowledge cuts
//!   write amplification (§4.1).
//! - [`reclaim`]: the reclaim core the stacks above share.
//! - [`azlimit`]: active-zone budget strategies for multi-tenant hosts
//!   (§4.2's "how should hosts manage active zone limits?").

pub mod azlimit;
pub mod blockemu;
pub mod error;
pub mod lfs;
pub mod placement;
pub mod reclaim;
pub mod sched;
pub mod zalloc;
pub mod zonefs;

pub use azlimit::{ActiveZoneManager, AzGrant, AzStrategy};
pub use blockemu::{BlockEmu, EmuStats};
pub use error::HostError;
pub use lfs::{HintMode, LfsStats, ZonedLfs};
pub use placement::{ObjectStore, PlacementPolicy, StoreStats};
pub use reclaim::{Relocate, Survivor, Tie, ZoneLedger};
pub use sched::ReclaimPolicy;
pub use zalloc::{LifetimeClass, ZoneAllocator, ZonedLocation};
pub use zonefs::ZoneFs;

/// Convenience result alias for host-stack operations.
pub type Result<T> = std::result::Result<T, HostError>;
