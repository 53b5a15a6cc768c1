//! Live observability for the blockhead simulator.
//!
//! bh-trace answers "what happened, in virtual time, after the fact";
//! this crate answers the operator's questions *during* a run: how much
//! device-internal work is happening right now (counters), what state
//! the zones are in (gauges), and where the *wall-clock* time goes
//! (phase profiler). The design constraints, in order:
//!
//! 1. **Observation-only.** Enabling obs must not change a single byte
//!    of any experiment report. Counters mirror existing stats bumps;
//!    nothing reads them on the sim path.
//! 2. **Allocation-free and cheap.** The registry is a fixed array of
//!    `Cell<u64>`s ([`registry`]); a disabled handle costs one branch.
//!    Profiler scopes ([`profiler`]) read the clock twice each, so they
//!    wrap coarse work only, never a single simulated op.
//! 3. **Mergeable.** Fleet shards snapshot their registries into plain
//!    data ([`ObsSnapshot`]) and phase tables ([`PhaseReport`]) that
//!    merge exactly like `FleetReport` shard tables.
//!
//! [`export`] adds Prometheus/JSON exposition and [`RunManifest`], the
//! provenance block stamped into every archived result.

pub mod export;
pub mod phase;
pub mod registry;

/// The profiler lives under its conventional name: [`PhaseGuard`]
/// scopes record into `obs::profiler::take()`.
pub use phase as profiler;

pub use export::{digest64, hist_to_json, RunManifest};
pub use phase::{PhaseGuard, PhaseReport, PhaseStat};
pub use registry::{Ctr, Gauge, GaugeVal, Obs, ObsSnapshot};
