//! Live observability for the blockhead simulator.
//!
//! bh-trace answers "what happened, in virtual time, after the fact";
//! this crate answers the operator's questions *during* a run: how much
//! device-internal work is happening right now (counters) and what
//! state the zones are in (gauges). The design constraints, in order:
//!
//! 1. **One ledger.** A counter is a projection of a stat some layer
//!    already keeps, never a second tally beside it: each layer's
//!    `obs_into` writes its own [`ObsSnapshot`] slots when a snapshot is
//!    asked for, so the numbers cannot disagree with the report's and
//!    the hot path pays nothing for them.
//! 2. **Named and fixed.** [`registry`] lists every counter and gauge
//!    with the stable name the exporters use.
//! 3. **Mergeable.** Fleet shards project their snapshots into plain
//!    data that merges exactly like `FleetReport` shard tables.
//!
//! [`export`] adds Prometheus/JSON exposition and [`RunManifest`], the
//! provenance block stamped into every archived result.

pub mod export;
pub mod registry;

pub use export::{digest64, hist_to_json, RunManifest};
pub use registry::{Ctr, Gauge, GaugeVal, Obs, ObsSnapshot};
