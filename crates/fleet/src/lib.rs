//! Sharded multi-device fleet simulation.
//!
//! The paper's argument is a *fleet* argument: §2.4's tail-latency
//! complaint and §4.2's active-zone budgeting both come from operators
//! running many tenants over many devices, not one benchmark over one
//! drive. This crate scales the single-device apparatus (`bh-core`'s
//! runner over either stack) to a population of tenants sharded across
//! a mixed fleet of simulated devices.
//!
//! The engine is a *streaming* session ([`FleetSession`]): an ordered
//! worker pool ([`pool::run_ordered`]) feeds each completed shard into an
//! incremental merge sink ([`FleetReportSink`]) in deterministic
//! shard-id order, so a 10k-shard sweep needs memory proportional to
//! the admission window, not the fleet.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism regardless of parallelism.** Every shard owns an
//!    independent virtual clock and a seeded RNG stream derived from the
//!    fleet seed by [`bh_workloads::split_seed`]; shards never share
//!    mutable state, and results are merged in shard-id order. The same
//!    [`FleetConfig`] therefore produces a byte-identical
//!    [`FleetReport`] whether it runs on 1 worker thread or 8, with any
//!    admission window, stepped through any checkpoint/resume sequence.
//! 2. **Real parallelism, bounded memory.** Shards run on scoped worker
//!    threads, each taking the lowest shard id not yet started;
//!    devices and tracers are constructed *on* the worker (they are
//!    deliberately not `Send`), and only plain-data results cross back.
//!    The admission window keeps at most a constant number of results
//!    in flight; the merge sink reduces each one the moment the
//!    frontier reaches it, and traces can spill to per-shard JSONL
//!    ([`FleetSession::with_trace_spill`]) instead of accumulating.
//! 3. **One merged view.** Per-shard latency histograms merge exactly
//!    ([`bh_metrics::Histogram::merge`]), per-shard WA curves align onto
//!    a common grid ([`bh_metrics::Series::mean_aligned`]), and per-shard
//!    traces export into a single Chrome trace with shard-tagged pids
//!    ([`bh_trace::export::to_chrome_trace_sharded`]).
//! 4. **Live fleets.** A config can plan a mid-run tenant migration
//!    ([`MigrationSpec`]): every shard switches to a re-placed tenant
//!    set at a fixed operation index, devices keeping all their state —
//!    the §4.2 operator story of rebalancing under load.

pub mod az;
pub mod config;
pub mod engine;
pub mod placement;
pub mod pool;
pub mod report;
pub mod session;
pub mod shard;

pub use az::admission_waits;
pub use config::{DeviceSpec, FleetConfig, MigrationSpec, StackKind};
pub use engine::{plan_fleet, FleetRun};
pub use placement::{place, Placement};
pub use pool::{default_jobs, run_ordered};
pub use report::{FleetReport, FleetReportSink, ShardRow, StackAgg};
pub use session::{FleetCheckpoint, FleetError, FleetSession, ShardFailure};
pub use shard::{ShardMigration, ShardPlan, ShardResult};
