//! Typed trace events, one enum per simulator layer, wrapped in a common
//! `(Nanos, span, subsystem)` envelope.
//!
//! The per-layer enums keep each crate's instrumentation honest (a flash
//! device cannot emit a zone transition) while the top-level [`Event`]
//! gives sinks and exporters one uniform stream.

use crate::sink::SpanId;
use bh_metrics::Nanos;

/// Which simulator layer emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// NAND substrate: physical page/block operations.
    Flash,
    /// Conventional SSD FTL: GC and wear-leveling.
    Conv,
    /// Zoned namespace device: zone state machine.
    Zns,
    /// Host software over ZNS: allocation and reclaim.
    Host,
    /// LSM key-value store.
    Kv,
    /// Flash object cache.
    Cache,
    /// Load runner / snapshot sampler.
    Runner,
    /// Fault injection and recovery machinery.
    Faults,
}

impl Subsystem {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Flash => "flash",
            Subsystem::Conv => "conv",
            Subsystem::Zns => "zns",
            Subsystem::Host => "host",
            Subsystem::Kv => "kv",
            Subsystem::Cache => "cache",
            Subsystem::Runner => "runner",
            Subsystem::Faults => "faults",
        }
    }
}

/// Physical flash operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOpKind {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
    /// Device-internal page copy (read + program, no bus).
    Copy,
}

impl FlashOpKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            FlashOpKind::Read => "read",
            FlashOpKind::Program => "program",
            FlashOpKind::Erase => "erase",
            FlashOpKind::Copy => "copy",
        }
    }
}

/// Who asked for a flash operation — mirrors `bh_flash::OpOrigin`
/// (duplicated here so `bh-flash` can depend on this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The host issued it.
    Host,
    /// Internal machinery (GC, wear leveling, reclaim) issued it.
    Internal,
}

impl Origin {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Origin::Host => "host",
            Origin::Internal => "internal",
        }
    }
}

/// Zone states — mirrors `bh_zns::ZoneState` without the dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneStateTag {
    /// No data, write pointer at zero.
    Empty,
    /// Opened by a write.
    ImplicitlyOpened,
    /// Opened by an open command.
    ExplicitlyOpened,
    /// Closed but still active (holds buffered state).
    Closed,
    /// Write pointer at capacity.
    Full,
    /// Data readable, writes rejected.
    ReadOnly,
    /// Dead: neither readable nor writable.
    Offline,
}

impl ZoneStateTag {
    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            ZoneStateTag::Empty => "empty",
            ZoneStateTag::ImplicitlyOpened => "implicitly-opened",
            ZoneStateTag::ExplicitlyOpened => "explicitly-opened",
            ZoneStateTag::Closed => "closed",
            ZoneStateTag::Full => "full",
            ZoneStateTag::ReadOnly => "read-only",
            ZoneStateTag::Offline => "offline",
        }
    }
}

/// Events from the NAND substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlashEvent {
    /// One physical operation with its die/plane/block coordinates and
    /// service interval (issue to completion, queueing included).
    Op {
        /// What ran.
        kind: FlashOpKind,
        /// Who asked.
        origin: Origin,
        /// Channel index.
        channel: u32,
        /// Global die index (unique across channels).
        die: u32,
        /// Global plane index.
        plane: u32,
        /// Block index.
        block: u32,
        /// Page within the block (0 for erases).
        page: u32,
        /// Issue instant.
        start: Nanos,
        /// Completion instant.
        done: Nanos,
    },
}

/// Events from the conventional FTL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvEvent {
    /// A GC episode opened: a victim block was selected on a plane. The
    /// envelope's span ties this to the matching [`ConvEvent::GcEnd`].
    GcBegin {
        /// Plane the victim lives on.
        plane: u32,
        /// Victim block.
        victim: u32,
        /// Valid pages that must migrate.
        valid: u32,
        /// Invalid pages that will be reclaimed.
        invalid: u32,
    },
    /// The episode's victim was erased (or abandoned at device death).
    GcEnd {
        /// Plane the victim lived on.
        plane: u32,
        /// Valid pages migrated during the episode.
        pages_copied: u32,
        /// Whether the erase retired the block.
        retired: bool,
    },
    /// A wear-leveling migration moved a cold block's contents.
    WearLevel {
        /// Source block.
        block: u32,
        /// Pages moved.
        pages_moved: u32,
    },
}

/// Events from the zoned device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZnsEvent {
    /// A zone changed state.
    Transition {
        /// Zone index.
        zone: u32,
        /// State before.
        from: ZoneStateTag,
        /// State after.
        to: ZoneStateTag,
        /// Which command/path caused it.
        cause: &'static str,
    },
    /// The write pointer advanced (a write or append committed).
    Append {
        /// Zone index.
        zone: u32,
        /// Write pointer after the advance.
        wp: u64,
    },
    /// An open was refused by the MAR/MOR accounting.
    LimitStall {
        /// Zone that could not open.
        zone: u32,
        /// Active zones at the stall.
        active: u32,
        /// Open zones at the stall.
        open: u32,
        /// Which limit tripped: `"active"` or `"open"`.
        kind: &'static str,
        /// The configured limit that tripped.
        limit: u32,
    },
}

/// Events from host software over ZNS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostEvent {
    /// Reclaim picked a victim zone; span ties to [`HostEvent::ReclaimEnd`].
    ReclaimBegin {
        /// Victim zone.
        victim: u32,
        /// Live pages that must relocate.
        live: u64,
    },
    /// The victim zone was reset.
    ReclaimEnd {
        /// Victim zone.
        victim: u32,
        /// Pages relocated during the episode.
        relocated: u64,
    },
    /// The reclaim policy gate was consulted.
    ReclaimGate {
        /// Policy name.
        policy: &'static str,
        /// Free zones at the decision.
        free_zones: u32,
        /// Whether reclaim was allowed to run.
        ran: bool,
    },
    /// The lifetime-class allocator opened a fresh zone for a class.
    ZoneAlloc {
        /// Lifetime class.
        class: u32,
        /// Zone handed to it.
        zone: u32,
    },
}

/// Events from the LSM key-value store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvEvent {
    /// A memtable flushed to a new table.
    Flush {
        /// Entries written.
        entries: u64,
        /// Pages written.
        pages: u64,
    },
    /// A compaction merged tables.
    Compaction {
        /// Input tables.
        tables_in: u32,
        /// Pages written out.
        pages_out: u64,
    },
}

/// Events from the flash object cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheEvent {
    /// A region/segment of objects was evicted to admit new writes.
    Evict {
        /// Pages evicted.
        pages: u64,
    },
}

/// Events from the load runner's snapshot sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunnerEvent {
    /// Periodic interval sample: `FlashStats` deltas and queue depth.
    Snapshot {
        /// Operations issued so far.
        ops_done: u64,
        /// WA over the sample interval.
        interval_wa: f64,
        /// WA since the beginning of the run.
        cumulative_wa: f64,
        /// Planes still busy past the sample instant.
        queue_depth: u32,
        /// Host-side ops in flight in the submission window (0 on the
        /// runner's serial loop, up to the configured queue depth on its
        /// queued loop).
        in_flight: u32,
        /// Host programs in the interval.
        host_programs: u64,
        /// Internal programs + copies in the interval.
        internal_programs: u64,
        /// Erases in the interval.
        erases: u64,
    },
}

/// Injected faults and the recovery work they triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A program operation failed; the page is burned (unreadable,
    /// consumed).
    ProgramFail {
        /// Block the burned page lives in.
        block: u32,
        /// Page that burned.
        page: u32,
        /// Who issued the failed program.
        origin: Origin,
    },
    /// An erase failed; the block retired early (grown bad block).
    EraseFail {
        /// The block that retired.
        block: u32,
        /// Erase count at retirement (below endurance: mid-life).
        wear: u32,
    },
    /// A read needed ECC retries; each retry occupied the plane.
    ReadRetry {
        /// Block read.
        block: u32,
        /// Page read.
        page: u32,
        /// Extra read passes injected.
        retries: u32,
    },
    /// A scheduled power loss struck the stack.
    PowerLoss {
        /// Workload op index the loss was scheduled at.
        op_index: u64,
    },
    /// A layer re-drove a failed program somewhere else.
    Redrive {
        /// Which layer recovered: `"conv"`, `"zns-host"`, `"lfs"`.
        layer: &'static str,
        /// Attempts it took to land the data.
        attempts: u32,
    },
    /// A layer finished replaying durable state after a power loss.
    Replay {
        /// Which layer replayed: `"conv"`, `"zns-host"`.
        layer: &'static str,
        /// Pages scanned to rebuild the maps.
        scanned: u64,
        /// Logical pages whose mappings were recovered.
        recovered: u64,
    },
}

/// Any event from any layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// NAND substrate.
    Flash(FlashEvent),
    /// Conventional FTL.
    Conv(ConvEvent),
    /// Zoned device.
    Zns(ZnsEvent),
    /// Host software.
    Host(HostEvent),
    /// Key-value store.
    Kv(KvEvent),
    /// Object cache.
    Cache(CacheEvent),
    /// Load runner.
    Runner(RunnerEvent),
    /// Fault injection / recovery.
    Fault(FaultEvent),
}

impl Event {
    /// The layer that emitted this event.
    pub fn subsystem(&self) -> Subsystem {
        match self {
            Event::Flash(_) => Subsystem::Flash,
            Event::Conv(_) => Subsystem::Conv,
            Event::Zns(_) => Subsystem::Zns,
            Event::Host(_) => Subsystem::Host,
            Event::Kv(_) => Subsystem::Kv,
            Event::Cache(_) => Subsystem::Cache,
            Event::Runner(_) => Subsystem::Runner,
            Event::Fault(_) => Subsystem::Faults,
        }
    }
}

macro_rules! event_from {
    ($($variant:ident($t:ty)),*) => {$(
        impl From<$t> for Event {
            fn from(e: $t) -> Event {
                Event::$variant(e)
            }
        }
    )*};
}
event_from!(
    Flash(FlashEvent),
    Conv(ConvEvent),
    Zns(ZnsEvent),
    Host(HostEvent),
    Kv(KvEvent),
    Cache(CacheEvent),
    Runner(RunnerEvent),
    Fault(FaultEvent)
);

/// One recorded event: the common envelope plus the typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEvent {
    /// Monotone sequence number (global across layers).
    pub seq: u64,
    /// Virtual-clock instant of the event.
    pub at: Nanos,
    /// Episode span this event belongs to ([`SpanId::NONE`] outside
    /// episodes).
    pub span: SpanId,
    /// The typed payload.
    pub event: Event,
}

impl TracedEvent {
    /// The layer that emitted this event.
    pub fn subsystem(&self) -> Subsystem {
        self.event.subsystem()
    }
}
