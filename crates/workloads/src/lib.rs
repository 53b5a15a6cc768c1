//! Workload generators for the blockhead experiments.
//!
//! The paper's claims are about workload *shapes* — uniform random
//! overwrites (§2.2's lab experiment), skewed key popularity (the
//! RocksDB benchmarks), multi-writer append streams (§4.2's write-pointer
//! contention), bursty tenants (§4.2's active-zone question), and
//! expiry-correlated object streams (§4.1's placement question). This
//! crate generates all of them deterministically from a seed, so the
//! same seed re-runs a measured sequence bit-for-bit.

pub mod objects;
pub mod population;
pub mod queues;
pub mod synthetic;
pub mod tenants;
pub mod zipf;

pub use objects::{ObjectEvent, ObjectStream, ObjectStreamConfig};
pub use population::{split_seed, TenantPopulation, TenantSpec, TenantStream};
pub use queues::{AppendEvent, MultiWriterQueues};
pub use synthetic::{AddressDist, Op, OpMix, OpSource, OpStream};
pub use tenants::{BurstyTenants, TenantEvent};
pub use zipf::Zipf;
