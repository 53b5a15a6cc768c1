//! bh-zbd: a file-/memory-backed zoned block device emulator.
//!
//! The flash-backed simulator ([`bh_zns::ZnsDevice`]) answers timing
//! questions; this crate answers durability questions. Both hold one
//! [`bh_zns::ZoneTable`] — the *state half* of every zoned command:
//! states, MAR/MOR tallies, write pointers, events — and differ only in
//! their *media half*. [`ZbdDevice`]'s is an append-ordered durable log
//! ([`media`]) of every acknowledged state-changing command, the
//! payload it holds, and three fixed latencies. Power cycles recover by
//! streaming the log back from the backing store and replaying its
//! valid prefix through the table, so crash consistency is real, not
//! simulated: a torn tail is truncated, acknowledged appends survive,
//! and open zones come back Closed or Empty exactly as the ZNS spec
//! prescribes.
//!
//! **Replay rule.** Each record is replayed as the state half of the
//! command that logged it, on the table the live device uses. A record
//! the table refuses (a write into a Full or ReadOnly zone, a finish or
//! reset of a ReadOnly one, one more active zone than MAR allows), and a
//! `SetState` to anything but `ReadOnly` — the only state the device
//! ever forces — is semantically invalid and ends the valid prefix just
//! like a bad checksum, so no file can leave the tallies disagreeing
//! with the zone states.
//!
//! **Ack contract.** All records of a command — one for an append, a
//! whole batch of copies and burns for a `simple_copy` — reach the OS
//! in one write before the command returns, on every exit path; no
//! record is buffered across an acknowledgement. Nothing is fsynced
//! (an open ROADMAP item: that one write per command is where a sync
//! policy attaches), and a crash may leave any byte prefix of an
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
