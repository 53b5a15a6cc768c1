//! One shard: a device, its tenants, and a full fill+run on its own
//! virtual clock.
//!
//! The tracing layer is deliberately not `Send` (`Tracer` is an `Rc`),
//! and neither are the device stacks holding one. A shard therefore
//! crosses threads as a [`ShardPlan`] — plain data — and the device,
//! tracer, and workload are all constructed *on* the worker thread. Only
//! plain-data [`ShardResult`]s come back.

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{OpFailure, Pacing, RunConfig, Runner, Sample, Sampler, StackAdmin};
use bh_host::BlockEmu;
use bh_metrics::{Histogram, Nanos};
use bh_obs::ObsSnapshot;
use bh_trace::{TracedEvent, Tracer};
use bh_workloads::{split_seed, OpMix, TenantSpec, TenantStream};
use bh_zns::{ZnsConfig, ZnsDevice};

use crate::config::{DeviceSpec, StackKind};

/// Everything a worker needs to run one shard. All fields are plain
/// data (`Send`), derived deterministically from the fleet config.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard id (= device index in the fleet).
    pub shard: u32,
    /// The device to build.
    pub spec: DeviceSpec,
    /// Tenants placed on this shard, in id order.
    pub tenants: Vec<TenantSpec>,
    /// Read/write mix.
    pub mix: OpMix,
    /// Operations to drive after the fill.
    pub ops: u64,
    /// Arrival pacing.
    pub pacing: Pacing,
    /// Operations kept in flight at once (≤ 1 = the serial loop; see
    /// [`RunConfig::queue_depth`]).
    pub queue_depth: usize,
    /// Maintenance period in ops (0 = never).
    pub maintenance_every: u64,
    /// Shard-private seed (derived from the fleet seed).
    pub seed: u64,
    /// Fault plan for this shard's flash, already carrying the
    /// shard-private fault seed. `None` installs no plan at all.
    pub faults: Option<bh_faults::FaultConfig>,
    /// Interval-sample period in ops.
    pub sample_every: u64,
    /// Record an event trace for this shard.
    pub trace: bool,
    /// Trace ring capacity in events.
    pub trace_cap: usize,
    /// Mid-run tenant migration: after `migrate.at_op` operations of the
    /// run window, the shard switches to serving `migrate.tenants` for
    /// the remaining ops (the device keeps all its state — only the
    /// workload's tenant set changes). `None` runs one segment, exactly
    /// as before the streaming redesign.
    pub migrate: Option<ShardMigration>,
}

/// The tenant set a shard serves after a mid-run migration, as computed
/// fleet-wide by re-running a placement policy over the population.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMigration {
    /// Operation index within the run window at which the migration
    /// lands (values `>= ops` mean it never fires).
    pub at_op: u64,
    /// Tenants served from that point on, in id order.
    pub tenants: Vec<TenantSpec>,
}

/// Salt deriving the post-migration tenant stream's seed from the
/// shard seed, so traffic before and after a migration comes from
/// independent deterministic streams.
const MIGRATE_SALT: u64 = 0x317A;

/// Plain-data outcome of one shard run.
#[derive(Debug)]
pub struct ShardResult {
    /// Shard id.
    pub shard: u32,
    /// Stack label (`conventional` / `zns+blockemu`).
    pub label: &'static str,
    /// Tenants served.
    pub tenants: u32,
    /// Read latencies over the run window.
    pub reads: Histogram,
    /// Write latencies over the run window.
    pub writes: Histogram,
    /// Virtual time from first arrival to last completion.
    pub elapsed: Nanos,
    /// Failed operations (unmapped reads).
    pub errors: u64,
    /// Flash write amplification over the run window only (fill traffic
    /// excluded).
    pub run_wa: f64,
    /// Interval samples, in time order.
    pub samples: Vec<Sample>,
    /// Recorded trace events (empty when tracing was off).
    pub events: Vec<TracedEvent>,
    /// Events the trace ring evicted.
    pub trace_dropped: u64,
    /// Counter snapshot projected after the run: the device stack's
    /// stats and the runs' queue activity.
    pub obs: ObsSnapshot,
}

impl ShardResult {
    /// Operation throughput in ops/second of this shard's virtual time.
    pub fn ops_per_sec(&self) -> f64 {
        bh_metrics::ops_per_sec(self.reads.count() + self.writes.count(), self.elapsed)
    }
}

impl ShardPlan {
    /// Builds this shard's device stack.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec does not fit the geometry.
    pub fn build_device(&self) -> Result<Box<dyn StackAdmin>, String> {
        self.spec.validate()?;
        let flash = self.spec.flash();
        match self.spec.stack {
            StackKind::Conv { op_ratio } => {
                let dev = ConvSsd::new(ConvConfig::new(flash, op_ratio))?;
                Ok(Box::new(dev))
            }
            StackKind::ZnsEmu {
                blocks_per_zone,
                mar,
                reserve_zones,
                hinted_streams,
                reclaim,
            } => {
                let cfg = ZnsConfig::new(flash, blocks_per_zone).with_zone_limits(mar);
                let mut emu = BlockEmu::new(ZnsDevice::new(cfg)?, reserve_zones, reclaim);
                if hinted_streams > 0 {
                    emu = emu.with_hinted_streams(hinted_streams);
                }
                Ok(Box::new(emu))
            }
        }
    }

    /// Checks the plan's inputs — the device spec against its geometry,
    /// the fault template's rates — before anything is built.
    ///
    /// # Errors
    ///
    /// A description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.spec
            .validate()
            .map_err(|e| format!("invalid device spec: {e}"))?;
        if let Some(faults) = self.faults {
            faults
                .validate()
                .map_err(|e| format!("invalid fault template: {e}"))?;
        }
        Ok(())
    }

    /// Hint-stream count the workload should spread tenants over.
    fn hint_streams(&self) -> u32 {
        match self.spec.stack {
            StackKind::ZnsEmu { hinted_streams, .. } if hinted_streams > 0 => hinted_streams,
            _ => 1,
        }
    }

    /// The run window's segments: `(ops, tenants, stream seed)` in
    /// execution order. One segment without a migration; two when the
    /// migration lands inside the window.
    fn segments(&self) -> Vec<(u64, &[TenantSpec], u64)> {
        match &self.migrate {
            Some(m) if m.at_op < self.ops => vec![
                (m.at_op, self.tenants.as_slice(), self.seed),
                (
                    self.ops - m.at_op,
                    m.tenants.as_slice(),
                    split_seed(self.seed, MIGRATE_SALT),
                ),
            ],
            _ => vec![(self.ops, self.tenants.as_slice(), self.seed)],
        }
    }

    /// Builds the device, fills it, and drives the tenant workload —
    /// both segments of it when a migration is planned. Everything runs
    /// on this shard's private virtual clock starting at zero; nothing
    /// escapes but plain data.
    ///
    /// # Errors
    ///
    /// Propagates write-path errors as typed [`OpFailure`]s.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, on a plan that does not
    /// [`validate`](ShardPlan::validate). A [`crate::FleetSession`]
    /// validates every plan before it starts a worker and reports the
    /// failure as a typed error instead.
    pub fn run(&self) -> Result<ShardResult, OpFailure> {
        if let Err(e) = self.validate() {
            panic!("shard {}: {e}", self.shard);
        }
        let mut dev = self.build_device().expect("the spec was just validated");
        if let Some(faults) = self.faults {
            dev.install_faults(faults);
        }
        let tracer = if self.trace {
            Tracer::ring(self.trace_cap)
        } else {
            Tracer::disabled()
        };
        if self.trace {
            dev.set_tracer(tracer.clone());
        }
        let filled_at = Runner::fill(dev.as_mut(), Nanos::ZERO)?;
        let cap = dev.capacity_pages();
        let mut sampler = Sampler::new(tracer.clone(), self.sample_every);
        let mut reads = Histogram::new();
        let mut writes = Histogram::new();
        let mut errors = 0;
        let mut queue = ObsSnapshot::default();
        let mut now = filled_at;
        let mut first = true;
        for (ops, tenants, seed) in self.segments() {
            if ops == 0 {
                continue;
            }
            let mut stream = TenantStream::new(cap, tenants, self.mix, seed, self.hint_streams());
            let runner = Runner::new(
                RunConfig::new(ops)
                    .with_pacing(self.pacing)
                    .with_maintenance_every(self.maintenance_every)
                    .with_queue_depth(self.queue_depth),
            );
            // The first segment primes the sampler (intervals exclude
            // the fill); later segments keep the baseline so cumulative
            // WA spans the whole run window across a migration.
            let r = if first {
                runner.run_traced(dev.as_mut(), &mut stream, now, &mut sampler)?
            } else {
                runner.run_continue(dev.as_mut(), &mut stream, now, &mut sampler)?
            };
            reads.merge(&r.reads);
            writes.merge(&r.writes);
            errors += r.errors;
            r.obs_into(&mut queue);
            now += r.elapsed;
            first = false;
        }
        // The device slots and the queue slots are disjoint.
        let mut obs = dev.obs_snapshot();
        obs.merge(&queue);
        Ok(ShardResult {
            shard: self.shard,
            label: dev.label(),
            tenants: self.tenants.len() as u32,
            reads,
            writes,
            elapsed: now.saturating_sub(filled_at),
            errors,
            run_wa: run_window_wa(&sampler),
            samples: sampler.samples().to_vec(),
            events: tracer.events(),
            trace_dropped: tracer.dropped(),
            obs,
        })
    }
}

/// Write amplification over the run window only. The sampler was primed
/// at run start, so its last sample's cumulative WA excludes the fill;
/// shards that never sampled fall back to 1.0 (no observed traffic).
fn run_window_wa(sampler: &Sampler) -> f64 {
    sampler
        .samples()
        .last()
        .map(|s| s.cumulative_wa)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_flash::Geometry;
    use bh_host::ReclaimPolicy;
    use bh_workloads::TenantPopulation;

    fn plan(stack: StackKind) -> ShardPlan {
        let pop = TenantPopulation::zipf(4, 1.0, 7);
        ShardPlan {
            shard: 0,
            spec: DeviceSpec {
                geometry: Geometry::small_test(),
                stack,
            },
            tenants: pop.specs().to_vec(),
            mix: OpMix::read_heavy(),
            ops: 600,
            pacing: Pacing::Closed,
            queue_depth: 1,
            maintenance_every: 32,
            seed: 11,
            faults: None,
            sample_every: 100,
            trace: false,
            trace_cap: 1 << 12,
            migrate: None,
        }
    }

    #[test]
    fn both_stacks_run_and_report() {
        for stack in [
            StackKind::Conv { op_ratio: 0.2 },
            StackKind::ZnsEmu {
                blocks_per_zone: 4,
                mar: 8,
                reserve_zones: 2,
                hinted_streams: 2,
                reclaim: ReclaimPolicy::Immediate,
            },
        ] {
            let r = plan(stack).run().unwrap();
            assert_eq!(r.label, stack.label());
            assert_eq!(r.errors, 0, "device was filled");
            assert!(r.reads.count() > 0 && r.writes.count() > 0);
            assert!(r.run_wa >= 1.0);
            assert!(r.ops_per_sec() > 0.0);
            assert_eq!(r.samples.len(), 6);
            assert!(r.events.is_empty(), "tracing was off");
        }
    }

    #[test]
    fn shard_run_is_deterministic() {
        let p = plan(StackKind::Conv { op_ratio: 0.2 });
        let a = p.run().unwrap();
        let b = p.run().unwrap();
        assert_eq!(a.reads.summary(), b.reads.summary());
        assert_eq!(a.writes.summary(), b.writes.summary());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.run_wa, b.run_wa);
    }

    #[test]
    fn migration_splits_the_window_and_keeps_the_prefix_bit_identical() {
        let base = plan(StackKind::Conv { op_ratio: 0.2 });
        let unmigrated = base.run().unwrap();

        // Hand the shard a different tenant set halfway through.
        let newpop = TenantPopulation::zipf(4, 1.3, 99);
        let mut p = base.clone();
        p.migrate = Some(ShardMigration {
            at_op: 300,
            tenants: newpop.specs().to_vec(),
        });
        let migrated = p.run().unwrap();

        // Total op count is unchanged; the migration is hitless: every
        // sample taken before the migration instant is bit-identical to
        // the unmigrated run's prefix (the first segment replays the
        // same stream against the same device state).
        assert_eq!(
            migrated.reads.count() + migrated.writes.count(),
            unmigrated.reads.count() + unmigrated.writes.count(),
        );
        let prefix = 300 / base.sample_every as usize;
        assert!(prefix >= 2, "test needs at least two pre-migration samples");
        for (a, b) in migrated.samples[..prefix]
            .iter()
            .zip(&unmigrated.samples[..prefix])
        {
            assert_eq!(a.at, b.at, "pre-migration sample instants moved");
            assert_eq!(
                a.interval_wa.to_bits(),
                b.interval_wa.to_bits(),
                "pre-migration interval WA moved"
            );
        }
        // And the tail diverges: a different tenant set drives different
        // traffic, so the runs must not be identical end to end.
        assert_ne!(
            (migrated.elapsed, migrated.run_wa),
            (unmigrated.elapsed, unmigrated.run_wa),
            "migration had no observable effect"
        );
        // A migration at or past the window end never fires.
        let mut noop = base.clone();
        noop.migrate = Some(ShardMigration {
            at_op: base.ops,
            tenants: newpop.specs().to_vec(),
        });
        let r = noop.run().unwrap();
        assert_eq!(r.elapsed, unmigrated.elapsed);
        assert_eq!(r.run_wa, unmigrated.run_wa);
    }

    #[test]
    fn tracing_captures_shard_events() {
        let mut p = plan(StackKind::ZnsEmu {
            blocks_per_zone: 4,
            mar: 8,
            reserve_zones: 2,
            hinted_streams: 2,
            reclaim: ReclaimPolicy::Immediate,
        });
        p.trace = true;
        let r = p.run().unwrap();
        assert!(!r.events.is_empty());
    }
}
