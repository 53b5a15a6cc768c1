//! A log-structured flash object cache (CacheLib/RIPQ stand-in).
//!
//! §4.1, "How can we best exploit transparent data placement?": large
//! flash caches "maintain several buckets of objects, where each bucket
//! should be written to the same erasure block … Applications have
//! evolved to use DRAM as a buffer to coalesce many writes into one very
//! large write. With ZNS SSDs, these buffers are no longer necessary."
//!
//! [`FlashCache`] implements the cache once, generically over a
//! [`SegmentStore`]; the two stores differ exactly as the paper says:
//!
//! - [`ConvSegmentStore`] must receive a segment as one large write, so
//!   the cache front-end coalesces a full erase-block-sized segment in
//!   DRAM before writing ([`WritePath::Coalesced`]).
//! - [`ZnsSegmentStore`] maps segments to zones and accepts page-by-page
//!   appends, so the cache buffers at most one page
//!   ([`WritePath::Direct`]).
//!
//! Experiment E13 reports the peak DRAM each path requires while showing
//! hit ratios and device write amplification stay equivalent.

pub mod cache;
pub mod store;

pub use cache::{CacheStats, FlashCache, WritePath};
pub use store::{ConvSegmentStore, SegmentStore, ZnsSegmentStore};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, String>;
