//! An LSM-tree key-value store with pluggable SSD backends.
//!
//! The paper's most concrete §2.4 performance evidence is about RocksDB:
//! write amplification dropping from 5× to 1.2× on ZNS [3], and 2–4×
//! lower read tail latency with 2× the write throughput [10]. Reproducing
//! those claims requires an actual LSM engine whose I/O can meet either
//! device interface, so this crate implements one from scratch:
//!
//! - a write-ahead log and sorted memtable ([`memtable`]; the WAL lives in
//!   [`db`]),
//! - immutable sorted-run files with block indexes and bloom filters
//!   ([`sst`], [`bloom`]),
//! - leveled compaction with size-tiered level targets ([`db`]), merging
//!   its inputs in place over views that share the backend's file bytes
//!   (`merge`),
//! - and two [`backend`]s over the shared flash substrate:
//!   - **conventional**: files live at logical block addresses of a
//!     `bh-conv` SSD; deletes TRIM, and the device FTL mixes the levels'
//!     lifetimes on flash — device-level WA follows;
//!   - **ZNS**: files append into zones chosen by a lifetime class
//!     derived from the LSM level (ZenFS's design), so compaction deletes
//!     kill whole zones and device WA stays near 1.
//!
//! Both backends present the same byte-oriented file API; the store never
//! knows which device it runs on — differences in the measured numbers
//! come from the interface, as the paper argues.

pub mod backend;
pub mod bloom;
pub mod db;
pub mod error;
pub mod memtable;
mod merge;
pub mod sst;

pub use backend::{ConvBackend, FileHint, FileId, FileView, StorageBackend, ZnsBackend};
pub use bloom::BloomFilter;
pub use db::{Db, DbConfig, DbStats};
pub use error::KvError;
pub use memtable::Memtable;
pub use sst::{EntryRef, Sst, SstBuilder};

/// Convenience result alias for KV operations.
pub type Result<T> = std::result::Result<T, KvError>;
