//! The named counter and gauge slots every exporter walks, and the
//! plain-data [`ObsSnapshot`] that holds their values.
//!
//! Nothing here counts. Each layer writes its own slots from the stats
//! it already keeps (`obs_into` on the device, FTL, host, KV, cache and
//! queue types), so a snapshot is one projection of one ledger, taken
//! when asked for. A fixed array indexed by the [`Ctr`] and [`Gauge`]
//! enums keeps the slots allocation-free.
//!
//! Fleet shards each project a snapshot on the worker thread and ship
//! it back; snapshots merge the same way `FleetReport` merges shard
//! tables (counters add, gauge values sum, peaks sum — a fleet's "peak
//! in flight" is the sum of per-shard peaks because shards are
//! independent devices).

/// Every monotonic counter the stack exposes.
///
/// The discriminant is the snapshot slot, so adding a counter is a
/// one-line change here plus a write in the `obs_into` of the layer
/// whose stats hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Host-initiated flash page reads.
    FlashHostReads,
    /// Host-initiated flash page programs.
    FlashHostPrograms,
    /// Device-internal flash page reads (GC, scrub, replay).
    FlashInternalReads,
    /// Device-internal flash page programs (GC relocation, redrives).
    FlashInternalPrograms,
    /// Page copies through the on-die copyback path.
    FlashCopies,
    /// Block erases.
    FlashErases,
    /// ECC read retries (extra sensing passes beyond the first).
    FlashEccRetries,
    /// Conventional FTL: logical overwrites that replaced a live mapping.
    ConvRemaps,
    /// Conventional FTL: GC victim blocks selected.
    ConvGcVictims,
    /// Conventional FTL: live pages migrated by GC or wear leveling.
    ConvGcPagesMigrated,
    /// Conventional FTL: host programs redriven after a transient failure.
    ConvRedrives,
    /// ZNS: transitions into an open state (implicit or explicit).
    ZnsToOpen,
    /// ZNS: transitions into `Closed`.
    ZnsToClosed,
    /// ZNS: transitions into `Full`.
    ZnsToFull,
    /// ZNS: transitions into `Empty` (resets).
    ZnsToEmpty,
    /// ZNS: transitions into `ReadOnly` or `Offline` (degradations).
    ZnsDegraded,
    /// Host FTL emulation: reclaim passes forced by free-zone exhaustion.
    HostEmergencyReclaims,
    /// Zone allocator: fresh zones opened for a lifetime class.
    ZallocZoneAllocs,
    /// KV store: bytes appended to the write-ahead log.
    KvWalBytes,
    /// KV store: SST bytes written by compactions (not flushes).
    KvCompactionBytes,
    /// Cache hits.
    CacheHits,
    /// Cache misses.
    CacheMisses,
    /// Queue engine: commands accepted into a submission queue.
    QueueArrivals,
    /// Queue engine: completions consumed from a completion queue.
    QueueRetirements,
    /// Injected fault events observed (read retries, erase failures,
    /// program burns).
    FaultEvents,
}

/// Number of counter slots.
pub const CTR_COUNT: usize = Ctr::FaultEvents as usize + 1;

/// All counters, in slot order. Used by exporters.
pub const ALL_CTRS: [Ctr; CTR_COUNT] = [
    Ctr::FlashHostReads,
    Ctr::FlashHostPrograms,
    Ctr::FlashInternalReads,
    Ctr::FlashInternalPrograms,
    Ctr::FlashCopies,
    Ctr::FlashErases,
    Ctr::FlashEccRetries,
    Ctr::ConvRemaps,
    Ctr::ConvGcVictims,
    Ctr::ConvGcPagesMigrated,
    Ctr::ConvRedrives,
    Ctr::ZnsToOpen,
    Ctr::ZnsToClosed,
    Ctr::ZnsToFull,
    Ctr::ZnsToEmpty,
    Ctr::ZnsDegraded,
    Ctr::HostEmergencyReclaims,
    Ctr::ZallocZoneAllocs,
    Ctr::KvWalBytes,
    Ctr::KvCompactionBytes,
    Ctr::CacheHits,
    Ctr::CacheMisses,
    Ctr::QueueArrivals,
    Ctr::QueueRetirements,
    Ctr::FaultEvents,
];

impl Ctr {
    /// Stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::FlashHostReads => "flash_host_reads",
            Ctr::FlashHostPrograms => "flash_host_programs",
            Ctr::FlashInternalReads => "flash_internal_reads",
            Ctr::FlashInternalPrograms => "flash_internal_programs",
            Ctr::FlashCopies => "flash_copies",
            Ctr::FlashErases => "flash_erases",
            Ctr::FlashEccRetries => "flash_ecc_retries",
            Ctr::ConvRemaps => "conv_remaps",
            Ctr::ConvGcVictims => "conv_gc_victims",
            Ctr::ConvGcPagesMigrated => "conv_gc_pages_migrated",
            Ctr::ConvRedrives => "conv_redrives",
            Ctr::ZnsToOpen => "zns_transitions_open",
            Ctr::ZnsToClosed => "zns_transitions_closed",
            Ctr::ZnsToFull => "zns_transitions_full",
            Ctr::ZnsToEmpty => "zns_transitions_empty",
            Ctr::ZnsDegraded => "zns_transitions_degraded",
            Ctr::HostEmergencyReclaims => "host_emergency_reclaims",
            Ctr::ZallocZoneAllocs => "zalloc_zone_allocs",
            Ctr::KvWalBytes => "kv_wal_bytes",
            Ctr::KvCompactionBytes => "kv_compaction_bytes",
            Ctr::CacheHits => "cache_hits",
            Ctr::CacheMisses => "cache_misses",
            Ctr::QueueArrivals => "queue_arrivals",
            Ctr::QueueRetirements => "queue_retirements",
            Ctr::FaultEvents => "fault_events",
        }
    }
}

/// Every instantaneous gauge the stack exposes. Each slot holds the
/// current value and the peak value seen since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// ZNS zones counted against the active-zone limit.
    ZnsActiveZones,
    /// ZNS zones counted against the open-zone limit.
    ZnsOpenZones,
    /// ZNS zones in `Empty`.
    ZnsEmptyZones,
    /// Commands in flight across all queue pairs.
    QueueInFlight,
}

/// Number of gauge slots.
pub const GAUGE_COUNT: usize = Gauge::QueueInFlight as usize + 1;

/// All gauges, in slot order.
pub const ALL_GAUGES: [Gauge; GAUGE_COUNT] = [
    Gauge::ZnsActiveZones,
    Gauge::ZnsOpenZones,
    Gauge::ZnsEmptyZones,
    Gauge::QueueInFlight,
];

impl Gauge {
    /// Stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ZnsActiveZones => "zns_active_zones",
            Gauge::ZnsOpenZones => "zns_open_zones",
            Gauge::ZnsEmptyZones => "zns_empty_zones",
            Gauge::QueueInFlight => "queue_in_flight",
        }
    }
}

/// A handle that records nothing. Snapshots are projected, so there is
/// nothing to install; the type and the no-op `set_obs(&mut self, Obs)`
/// trait methods stay because the frozen benchmark harness names them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs;

impl Obs {
    /// The handle. It records nothing.
    pub fn disabled() -> Self {
        Obs
    }
}

/// A gauge's current value and the peak it has held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeVal {
    /// Current value.
    pub value: u64,
    /// Maximum value held.
    pub peak: u64,
}

/// Every counter and gauge of a stack at one instant: plain data, safe
/// to send across threads and merge across fleet shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    counters: [u64; CTR_COUNT],
    gauges: [GaugeVal; GAUGE_COUNT],
}

impl Default for ObsSnapshot {
    fn default() -> Self {
        ObsSnapshot {
            counters: [0; CTR_COUNT],
            gauges: [GaugeVal::default(); GAUGE_COUNT],
        }
    }
}

impl ObsSnapshot {
    /// The snapshot with the slots `fill` writes and every other slot
    /// zero: `ObsSnapshot::project(|s| ssd.obs_into(s))`.
    pub fn project(fill: impl FnOnce(&mut ObsSnapshot)) -> ObsSnapshot {
        let mut snap = ObsSnapshot::default();
        fill(&mut snap);
        snap
    }

    /// Value of one counter.
    pub fn counter(&self, ctr: Ctr) -> u64 {
        self.counters[ctr as usize]
    }

    /// Value and peak of one gauge.
    pub fn gauge(&self, gauge: Gauge) -> GaugeVal {
        self.gauges[gauge as usize]
    }

    /// Sets one counter.
    pub fn set(&mut self, ctr: Ctr, value: u64) {
        self.counters[ctr as usize] = value;
    }

    /// Sets one gauge's value and peak.
    pub fn set_gauge(&mut self, gauge: Gauge, value: u64, peak: u64) {
        self.gauges[gauge as usize] = GaugeVal { value, peak };
    }

    /// Folds another snapshot in: counters add; gauge values and peaks
    /// sum (shards are independent devices, so fleet-wide occupancy is
    /// the sum of shard occupancies).
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            a.value += b.value;
            a.peak += b.peak;
        }
    }

    /// Folds a stream of snapshots into one — the batch counterpart of
    /// repeated [`ObsSnapshot::merge`] calls, used where a fleet merge
    /// has all shard snapshots in hand at once.
    pub fn merged<'a>(snapshots: impl IntoIterator<Item = &'a ObsSnapshot>) -> ObsSnapshot {
        let mut out = ObsSnapshot::default();
        for s in snapshots {
            out.merge(s);
        }
        out
    }

    /// Write amplification recomputed from the flash counters alone —
    /// for a reader holding only an export — with the conventions of
    /// `FlashStats::write_amplification`: 1.0 before any program,
    /// infinite when only internal programs ran.
    pub fn derived_wa(&self) -> f64 {
        let host = self.counter(Ctr::FlashHostPrograms);
        let internal = self.counter(Ctr::FlashInternalPrograms) + self.counter(Ctr::FlashCopies);
        let total = host + internal;
        if total == 0 {
            return 1.0;
        }
        if host == 0 {
            return f64::INFINITY;
        }
        total as f64 / host as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_merge_counters_and_gauges() {
        let mut merged = ObsSnapshot::default();
        merged.set(Ctr::KvWalBytes, 100);
        merged.set_gauge(Gauge::ZnsOpenZones, 3, 3);
        let mut b = ObsSnapshot::default();
        b.set(Ctr::KvWalBytes, 11);
        b.set_gauge(Gauge::ZnsOpenZones, 2, 5);

        merged.merge(&b);
        assert_eq!(merged.counter(Ctr::KvWalBytes), 111);
        assert_eq!(merged.gauge(Gauge::ZnsOpenZones).value, 5);
        assert_eq!(merged.gauge(Gauge::ZnsOpenZones).peak, 8);
    }

    #[test]
    fn merged_equals_sequential_merge() {
        let mut a = ObsSnapshot::default();
        a.set(Ctr::FlashErases, 7);
        a.set_gauge(Gauge::QueueInFlight, 4, 4);
        let mut b = ObsSnapshot::default();
        b.set(Ctr::FlashErases, 2);
        let snaps = [a, b];
        let mut seq = ObsSnapshot::default();
        for s in &snaps {
            seq.merge(s);
        }
        assert_eq!(ObsSnapshot::merged(snaps.iter()), seq);
        assert_eq!(ObsSnapshot::merged([].iter()), ObsSnapshot::default());
    }

    #[test]
    fn derived_wa_conventions_match_flash_stats() {
        let mut snap = ObsSnapshot::default();
        assert_eq!(snap.derived_wa(), 1.0);
        snap.set(Ctr::FlashInternalPrograms, 5);
        assert!(snap.derived_wa().is_infinite());
        snap.set(Ctr::FlashHostPrograms, 10);
        assert!((snap.derived_wa() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slot_tables_cover_every_variant() {
        for (i, c) in ALL_CTRS.iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert!(!c.name().is_empty());
        }
        for (i, g) in ALL_GAUGES.iter().enumerate() {
            assert_eq!(*g as usize, i);
            assert!(!g.name().is_empty());
        }
    }
}
