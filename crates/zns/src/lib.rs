//! Zoned Namespaces (ZNS) SSD model.
//!
//! This crate implements the device the paper argues *for*: an NVMe ZNS
//! namespace (§2.1) over the same `bh-flash` substrate the conventional
//! SSD uses. The interface follows the spec behaviours the paper leans on:
//!
//! - The address space is partitioned into **zones**; writes within a zone
//!   must be strictly sequential at the **write pointer**.
//! - Zones move through the spec's state machine: empty, implicitly/
//!   explicitly opened, closed, full, read-only, offline.
//! - Only a limited number of zones may be **active**/**open** at once
//!   (the MAR/MOR limits of §4.2), since each consumes device resources
//!   such as write buffers.
//! - **Zone append** (§4.2, NVMe TP 4053 addition) lets concurrent
//!   writers target one zone without serializing on the write pointer:
//!   the device assigns the offset.
//! - **Simple copy** (§2.3, TP 4065a) performs controller-managed data
//!   movement that consumes no host/PCIe bandwidth — the primitive
//!   host-side garbage collection builds on.
//! - The FTL is **thin**: it maps zones to erasure blocks (coarse, ~4 B
//!   per block — §2.2's ~256 KB of DRAM) and never garbage-collects;
//!   resetting a zone erases exactly its own blocks.
//! - Flash wear is handled as §2.1 describes: a zone whose block retires
//!   during reset shrinks its capacity, or goes offline when no usable
//!   blocks remain.
//!
//! Because both device models share one flash substrate, every
//! performance difference measured between them is attributable to the
//! interface — which is precisely the paper's claim.

pub mod backend;
pub mod config;
pub mod conformance;
pub mod device;
pub mod error;
pub mod table;
pub mod zone;

pub use backend::ZonedDevice;
pub use config::ZnsConfig;
pub use device::{ZnsDevice, ZnsStats};
pub use error::ZnsError;
pub use table::ZoneTable;
pub use zone::{Zone, ZoneId, ZoneState};

/// Convenience result alias for ZNS operations.
pub type Result<T> = std::result::Result<T, ZnsError>;
