//! The append-ordered durable layout behind [`crate::ZbdDevice`].
//!
//! The file is a 64-byte header (magic + geometry) followed by
//! fixed-size 24-byte records — one per page or zone transition an
//! acknowledged command made, so a `simple_copy` logs a batch — in
//! acknowledgement order. Replaying the records rebuilds every zone's
//! write pointer, state, and payload exactly; a torn or corrupt record
//! (detected by a per-record checksum) ends the valid prefix, and
//! recovery truncates the tail — the classic log-structured
//! crash-consistency argument, applied to the device's own metadata.
//!
//! **Ack contract.** All records of a command reach the OS in one
//! [`Media::append`] — one `write(2)` on an `O_APPEND` handle for file
//! media — before the command returns; nothing is held in user space
//! across an acknowledgement. Nothing is fsynced (an open ROADMAP
//! item), and a crash may leave any byte prefix of an unacknowledged
//! command's records on disk, which replay already tolerates: the torn
//! record and everything after it are dropped. Recovery streams the log
//! through a fixed [`REPLAY_CHUNK_RECORDS`]-record buffer, so its
//! memory is O(chunk), not O(log).
//!
//! Payload stamps are the same `u64` stamps the whole stack traffics
//! in, so "byte-identical read-back" between substrates is checked by
//! comparing stamps.

use crate::config::ZbdConfig;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Identifies the on-disk format; bump the trailing digits on layout
/// changes.
pub const MAGIC: &[u8; 8] = b"BHZBD001";
/// Bytes in the file header.
pub const HEADER_LEN: usize = 64;
/// Bytes per log record.
pub const RECORD_LEN: usize = 24;
/// Records recovery holds in memory at once.
pub const REPLAY_CHUNK_RECORDS: usize = 4096;

/// One durable log record. Zone open/close transitions are deliberately
/// absent: per the ZNS spec open state is volatile, and zones with data
/// come back Closed after a power cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A host zone-append stored `stamp` at the write pointer.
    Append {
        /// Zone appended to.
        zone: u32,
        /// Stamp stored.
        stamp: u64,
    },
    /// A host write-at-pointer stored `stamp` (same replay semantics as
    /// append; logged distinctly so cold-start op counters stay honest).
    Write {
        /// Zone written.
        zone: u32,
        /// Stamp stored.
        stamp: u64,
    },
    /// A simple-copy placed `stamp` at the destination write pointer.
    Copy {
        /// Destination zone.
        zone: u32,
        /// Stamp copied in.
        stamp: u64,
    },
    /// A transient program failure consumed the slot at the write
    /// pointer without storing data.
    Burn {
        /// Zone whose slot burned.
        zone: u32,
    },
    /// The zone was reset.
    Reset {
        /// Zone reset.
        zone: u32,
    },
    /// The zone was finished (forced Full).
    Finish {
        /// Zone finished.
        zone: u32,
    },
    /// The zone was forced into the state encoded by
    /// [`bh_zns::ZoneState::to_code`] (fault injection).
    SetState {
        /// Zone affected.
        zone: u32,
        /// Encoded [`bh_zns::ZoneState`].
        code: u8,
    },
}

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Append { .. } => 1,
            Record::Write { .. } => 2,
            Record::Copy { .. } => 3,
            Record::Burn { .. } => 4,
            Record::Reset { .. } => 5,
            Record::Finish { .. } => 6,
            Record::SetState { .. } => 7,
        }
    }

    fn zone(&self) -> u32 {
        match *self {
            Record::Append { zone, .. }
            | Record::Write { zone, .. }
            | Record::Copy { zone, .. }
            | Record::Burn { zone }
            | Record::Reset { zone }
            | Record::Finish { zone }
            | Record::SetState { zone, .. } => zone,
        }
    }

    fn payload(&self) -> u64 {
        match *self {
            Record::Append { stamp, .. }
            | Record::Write { stamp, .. }
            | Record::Copy { stamp, .. } => stamp,
            Record::SetState { code, .. } => code as u64,
            _ => 0,
        }
    }

    /// Encodes to the fixed 24-byte wire form.
    pub fn encode(&self) -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        buf[0] = self.kind();
        buf[4..8].copy_from_slice(&self.zone().to_le_bytes());
        buf[8..16].copy_from_slice(&self.payload().to_le_bytes());
        let sum = checksum(&buf[..16]);
        buf[16..24].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes one record; `None` for a bad checksum, an unknown kind
    /// or a `SetState` payload that is no zone state code (each means
    /// the valid log prefix ends here).
    pub fn decode(buf: &[u8; RECORD_LEN]) -> Option<Record> {
        let sum = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        if sum != checksum(&buf[..16]) {
            return None;
        }
        let zone = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let payload = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        Some(match buf[0] {
            1 => Record::Append {
                zone,
                stamp: payload,
            },
            2 => Record::Write {
                zone,
                stamp: payload,
            },
            3 => Record::Copy {
                zone,
                stamp: payload,
            },
            4 => Record::Burn { zone },
            5 => Record::Reset { zone },
            6 => Record::Finish { zone },
            7 => Record::SetState {
                zone,
                code: u8::try_from(payload)
                    .ok()
                    .filter(|&code| bh_zns::ZoneState::from_code(code).is_some())?,
            },
            _ => return None,
        })
    }
}

/// SplitMix64-style record checksum: detects torn writes and bit rot in
/// the 16 content bytes. Not cryptographic — the threat model is a torn
/// tail, not an adversary.
fn checksum(content: &[u8]) -> u64 {
    debug_assert_eq!(content.len(), 16);
    let w0 = u64::from_le_bytes(content[..8].try_into().unwrap());
    let w1 = u64::from_le_bytes(content[8..16].try_into().unwrap());
    bh_faults::split_seed(w0 ^ 0x5BD0_0001_C4EC_5000, w1)
}

/// Encodes the header: magic, version, and the geometry needed to
/// reopen the device from the file alone.
pub fn encode_header(cfg: &ZbdConfig) -> [u8; HEADER_LEN] {
    let mut buf = [0u8; HEADER_LEN];
    buf[..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&1u32.to_le_bytes()); // version
    buf[12..16].copy_from_slice(&cfg.num_zones.to_le_bytes());
    buf[16..24].copy_from_slice(&cfg.zone_size_pages.to_le_bytes());
    buf[24..32].copy_from_slice(&cfg.zone_capacity_pages.to_le_bytes());
    buf[32..36].copy_from_slice(&cfg.max_active_zones.to_le_bytes());
    buf[36..40].copy_from_slice(&cfg.max_open_zones.to_le_bytes());
    buf[40..44].copy_from_slice(&cfg.page_bytes.to_le_bytes());
    buf[44..48].copy_from_slice(&cfg.burns_to_readonly.to_le_bytes());
    buf
}

/// Decodes a header back into a config (timing fields take defaults —
/// latency is not durable state).
///
/// # Errors
///
/// Returns a description when the magic or geometry is invalid.
pub fn decode_header(buf: &[u8]) -> Result<ZbdConfig, String> {
    if buf.len() < HEADER_LEN {
        return Err("zbd file too short for a header".into());
    }
    if &buf[..8] != MAGIC {
        return Err("zbd magic mismatch (not a bh-zbd file?)".into());
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if version != 1 {
        return Err(format!("unsupported zbd format version {version}"));
    }
    let num_zones = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    let mut cfg = ZbdConfig::new(
        num_zones,
        u64::from_le_bytes(buf[16..24].try_into().unwrap()),
    );
    cfg.zone_capacity_pages = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    cfg.max_active_zones = u32::from_le_bytes(buf[32..36].try_into().unwrap());
    cfg.max_open_zones = u32::from_le_bytes(buf[36..40].try_into().unwrap());
    cfg.page_bytes = u32::from_le_bytes(buf[40..44].try_into().unwrap());
    cfg.burns_to_readonly = u32::from_le_bytes(buf[44..48].try_into().unwrap());
    cfg.validate()?;
    Ok(cfg)
}

/// Reads and validates the header of the backing file at `path` — the
/// first 64 bytes, nothing else.
///
/// # Errors
///
/// Returns a description on I/O failure or an invalid header.
pub fn read_header(path: &Path) -> Result<ZbdConfig, String> {
    let io = |e| format!("read {path:?}: {e}");
    let mut buf = Vec::with_capacity(HEADER_LEN);
    let file = File::open(path).map_err(io)?;
    file.take(HEADER_LEN as u64)
        .read_to_end(&mut buf)
        .map_err(io)?;
    decode_header(&buf)
}

/// Where the log lives: a real file (read back from disk on every power
/// cycle) or an in-memory buffer (same replay path, no filesystem).
pub enum Media {
    /// In-memory log buffer.
    Memory(Vec<u8>),
    /// File-backed log.
    File {
        /// Path of the backing file.
        path: PathBuf,
        /// Append-mode handle: every write lands at the end of the file,
        /// wherever a recovery truncation left it.
        file: File,
    },
}

#[cfg(test)]
thread_local! {
    /// Media writes issued by the current thread, so tests can assert
    /// the one-write-per-command contract.
    pub(crate) static MEDIA_WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Media {
    /// Creates (truncating) a file-backed media with a fresh header.
    pub fn create_file(cfg: &ZbdConfig, path: &Path) -> std::io::Result<Media> {
        // Append mode excludes `truncate(true)`; empty the file by hand.
        let mut file = OpenOptions::new().append(true).create(true).open(path)?;
        file.set_len(0)?;
        file.write_all(&encode_header(cfg))?;
        Ok(Media::File {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Opens an existing file-backed media without touching its
    /// contents.
    pub fn open_file(path: &Path) -> std::io::Result<Media> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Media::File {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Creates an in-memory media with a fresh header.
    pub fn memory(cfg: &ZbdConfig) -> Media {
        Media::Memory(encode_header(cfg).to_vec())
    }

    /// Appends one command's records at the end of the log, in a single
    /// write.
    pub fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        MEDIA_WRITES.with(|w| w.set(w.get() + 1));
        match self {
            Media::Memory(buf) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
            Media::File { file, .. } => file.write_all(bytes),
        }
    }

    /// One recovery pass: `scan` reads the log from byte 0 of the header
    /// and returns the length of its valid prefix; everything past that
    /// — the torn tail — is discarded, so later appends continue the
    /// prefix. File media is read through a fresh handle opened from the
    /// path, so recovery sees what is actually on disk; memory media is
    /// read in place.
    pub fn recover(
        &mut self,
        scan: impl FnOnce(&mut dyn Read) -> std::io::Result<u64>,
    ) -> std::io::Result<()> {
        match self {
            Media::Memory(buf) => {
                let valid = scan(&mut buf.as_slice())?;
                buf.truncate(valid as usize);
                Ok(())
            }
            Media::File { path, file } => {
                let valid = scan(&mut File::open(path)?)?;
                // A clean log has no tail to cut, and a same-length
                // `ftruncate` is not free: it can wait on the
                // filesystem journal for milliseconds.
                if file.metadata()?.len() != valid {
                    file.set_len(valid)?;
                }
                Ok(())
            }
        }
    }

    /// The backing path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        match self {
            Media::Memory(_) => None,
            Media::File { path, .. } => Some(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let records = [
            Record::Append {
                zone: 3,
                stamp: 0xDEAD_BEEF,
            },
            Record::Write { zone: 0, stamp: 7 },
            Record::Copy {
                zone: 9,
                stamp: u64::MAX,
            },
            Record::Burn { zone: 2 },
            Record::Reset { zone: 4 },
            Record::Finish { zone: 5 },
            Record::SetState { zone: 6, code: 5 },
        ];
        for r in records {
            assert_eq!(Record::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Record::Append { zone: 1, stamp: 42 }.encode();
        buf[9] ^= 0x10;
        assert_eq!(Record::decode(&buf), None);
        // Unknown kind with a "valid" checksum of its own bytes still
        // decodes to None.
        let mut odd = [0u8; RECORD_LEN];
        odd[0] = 99;
        let sum = super::checksum(&odd[..16]);
        odd[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(Record::decode(&odd), None);
        // A SetState payload must be a zone state code, all 64 bits of
        // it: 7 is none, and 0x105 would truncate to ReadOnly's 5.
        for payload in [7u64, 0x105] {
            let mut set = Record::SetState { zone: 1, code: 5 }.encode();
            set[8..16].copy_from_slice(&payload.to_le_bytes());
            let sum = super::checksum(&set[..16]);
            set[16..24].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(Record::decode(&set), None, "payload {payload:#x}");
        }
    }

    #[test]
    fn header_round_trips_geometry() {
        let cfg = ZbdConfig::new(12, 128)
            .with_zone_capacity(120)
            .with_limits(6, 4)
            .with_burns_to_readonly(9);
        let decoded = decode_header(&encode_header(&cfg)).unwrap();
        assert_eq!(decoded, cfg);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(decode_header(&[0u8; HEADER_LEN]).is_err());
        assert!(decode_header(&[0u8; 10]).is_err());
        let mut buf = encode_header(&ZbdConfig::new(8, 64));
        buf[12..16].copy_from_slice(&0u32.to_le_bytes()); // zero zones
        assert!(decode_header(&buf).is_err());
    }
}
