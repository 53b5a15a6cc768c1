//! NAND flash substrate simulator.
//!
//! This crate models the flash device described in the paper's §2.1 primer:
//! a hierarchy of channels → dies → planes → erasure blocks → pages, with
//! the physical constraints that drive everything else in the paper:
//!
//! - **Erase-before-program**: a page can only be programmed after its
//!   containing erasure block has been erased.
//! - **Sequential program**: pages within an erasure block must be
//!   programmed strictly in order.
//! - **Asymmetric latency**: erase takes several times longer than program
//!   (≈6× for TLC), program several times longer than read.
//! - **Endurance**: each erase wears a block; worn-out blocks are retired.
//! - **Parallelism**: planes operate concurrently; a channel's bus is a
//!   shared transfer resource.
//!
//! Both SSD models in this repository — the conventional, page-mapped FTL
//! in `bh-conv`, and the zoned device in `bh-zns` — are built directly on
//! [`FlashDevice`]; neither touches flash state except through its
//! read/program/erase/copy operations, so every behaviour the paper
//! attributes to the interface difference emerges from the same substrate.
//!
//! Pages carry an opaque [`Stamp`] rather than byte payloads: the simulator
//! verifies data integrity end-to-end through stamps while keeping memory
//! proportional to device metadata, not device capacity (application-level
//! byte content lives in host-side models; see `bh-kv`).

pub mod block;
pub mod cell;
pub mod device;
pub mod error;
pub mod geometry;
pub mod sched;
pub mod stats;

pub use block::{Block, BlockStatus, PageState};
pub use cell::{CellKind, TimingSpec};
pub use device::{
    decode_oob, encode_oob, CopyRun, EraseOutcome, FlashConfig, FlashDevice, OpOrigin, Stamp,
};
pub use error::FlashError;
pub use geometry::{BlockId, Geometry, PlaneId, Ppa};
pub use sched::ResourceModel;
pub use stats::FlashStats;

/// Convenience result alias for flash operations.
pub type Result<T> = std::result::Result<T, FlashError>;
