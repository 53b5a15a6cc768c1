//! bh-zbd: a file-/memory-backed zoned block device emulator.
//!
//! The flash-backed simulator ([`bh_zns::ZnsDevice`]) answers timing
//! questions; this crate answers durability questions. [`ZbdDevice`]
//! implements the same zone state machine and command set — checked
//! against the same [`bh_zns::conformance`] transition table — but
//! stores every acknowledged state-changing command in an
//! append-ordered durable log ([`media`]). Power cycles recover by
//! streaming the log back from the backing store and replaying its
//! valid prefix, so crash consistency is real, not simulated: a torn
//! tail is truncated, acknowledged appends survive, and open zones come
//! back Closed or Empty exactly as the ZNS spec prescribes.
//!
//! **Ack contract.** All records of a command — one for an append, a
//! whole batch of copies and burns for a `simple_copy` — reach the OS
//! in one write before the command returns, on every exit path; no
//! record is buffered across an acknowledgement. Nothing is fsynced
//! (ROADMAP item 3: that one write per command is where a sync policy
//! attaches), and a crash may leave any byte prefix of an
//! unacknowledged command on disk, which replay already tolerates.
//! Replay memory is one fixed chunk of records, whatever the log's
//! length.
//!
//! Both devices implement [`bh_zns::backend::ZonedDevice`], so the host
//! stack (`BlockEmu`, the zone allocator, bh-kv, bh-cache) runs
//! unmodified on either substrate; `expt_backend` replays one op
//! schedule on both and asserts the logical states are identical.

#![warn(missing_docs)]

mod config;
mod device;
pub mod media;

pub use config::ZbdConfig;
pub use device::ZbdDevice;
