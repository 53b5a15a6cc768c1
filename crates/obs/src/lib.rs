//! Live observability for the blockhead simulator.
//!
//! bh-trace answers "what happened, in virtual time, after the fact";
//! this crate answers the operator's questions *during* a run: how much
//! device-internal work is happening right now (counters) and what
//! state the zones are in (gauges). The design constraints, in order:
//!
//! 1. **Observation-only.** Enabling obs must not change a single byte
//!    of any experiment report. Counters mirror existing stats bumps;
//!    nothing reads them on the sim path.
//! 2. **Allocation-free and cheap.** The registry is a fixed array of
//!    `Cell<u64>`s ([`registry`]); a disabled handle costs one branch.
//! 3. **Mergeable.** Fleet shards snapshot their registries into plain
//!    data ([`ObsSnapshot`]) that merges exactly like `FleetReport`
//!    shard tables.
//!
//! [`export`] adds Prometheus/JSON exposition and [`RunManifest`], the
//! provenance block stamped into every archived result.

pub mod export;
pub mod registry;

pub use export::{digest64, hist_to_json, RunManifest};
pub use registry::{Ctr, Gauge, GaugeVal, Obs, ObsSnapshot};
