//! Fleet composition: which stacks, how many devices, which tenants.

use bh_conv::ConvConfig;
use bh_core::Pacing;
use bh_faults::FaultConfig;
use bh_flash::{FlashConfig, Geometry};
use bh_host::ReclaimPolicy;
use bh_workloads::OpMix;
use bh_zns::ZnsConfig;

use crate::placement::Placement;

/// Which software/hardware stack a device runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StackKind {
    /// A conventional SSD: FTL with inline GC behind the block interface.
    Conv {
        /// Overprovisioning ratio (spare/logical), e.g. `0.15`.
        op_ratio: f64,
    },
    /// A ZNS device with the host block-emulation layer on top.
    ZnsEmu {
        /// Erasure blocks per zone.
        blocks_per_zone: u32,
        /// Maximum active zones (MAR); also used as the open limit.
        mar: u32,
        /// Zones withheld from the logical capacity as reclaim space.
        reserve_zones: u32,
        /// Caller-hinted placement streams; `0` leaves the emulator in
        /// its single-stream default (hints are then ignored).
        hinted_streams: u32,
        /// When the host runs reclaim (the §4.1 scheduling freedom).
        reclaim: ReclaimPolicy,
    },
}

impl StackKind {
    /// Short label matching [`bh_core::BlockInterface::label`].
    pub fn label(&self) -> &'static str {
        match self {
            StackKind::Conv { .. } => "conventional",
            StackKind::ZnsEmu { .. } => "zns+blockemu",
        }
    }
}

/// One simulated device in the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Flash geometry backing the device.
    pub geometry: Geometry,
    /// The stack in front of the flash.
    pub stack: StackKind,
}

impl DeviceSpec {
    /// The flash every stack in the fleet sits on.
    pub(crate) fn flash(&self) -> FlashConfig {
        FlashConfig::tlc(self.geometry)
    }

    /// Checks that the stack fits the geometry — everything building the
    /// device would check — without building or allocating anything. A
    /// geometry is input: a session validates every spec when it plans.
    ///
    /// # Errors
    ///
    /// A description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self.stack {
            StackKind::Conv { op_ratio } => ConvConfig::new(self.flash(), op_ratio).validate(),
            StackKind::ZnsEmu {
                blocks_per_zone,
                mar,
                reserve_zones,
                ..
            } => {
                let cfg = ZnsConfig::new(self.flash(), blocks_per_zone).with_zone_limits(mar);
                cfg.validate()?;
                if reserve_zones >= cfg.num_zones() {
                    return Err(format!(
                        "reserve_zones {reserve_zones} leaves none of the {} zones exported",
                        cfg.num_zones()
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A planned mid-run tenant migration: after `at_op` operations of each
/// shard's run window, the whole population is re-placed under `policy`
/// and every shard switches to its new tenant set for the remaining
/// ops. Devices keep all their state across the switch — this models an
/// operator rebalancing tenants over a live fleet (e.g. `Hash` →
/// `LoadAware` once traffic weights are known).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationSpec {
    /// Operation index within each shard's run window at which the new
    /// placement takes effect (values ≥ `ops_per_shard` never fire).
    pub at_op: u64,
    /// Placement policy computing the post-migration tenant→shard map.
    pub policy: Placement,
}

/// Full fleet-run parameters. All fields are plain data, so a config can
/// be sent to worker threads and two identical configs always describe
/// bit-identical runs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The devices, in shard-id order (shard k runs `devices[k]`).
    pub devices: Vec<DeviceSpec>,
    /// Fleet-wide tenant count, sharded over the devices by `placement`.
    pub tenants: u32,
    /// Zipf exponent of the tenant traffic weights.
    pub theta: f64,
    /// Read/write mix every tenant issues.
    pub mix: OpMix,
    /// Operations each shard drives after its fill.
    pub ops_per_shard: u64,
    /// Arrival pacing within each shard.
    pub pacing: Pacing,
    /// Operations each shard keeps in flight at once. ≤ 1 is the serial
    /// loop (issue at arrival, maintenance out of band); deeper values
    /// run every shard through the event-driven queue engine, where
    /// maintenance is a queued command. Different semantics, not two
    /// implementations of one: see [`bh_core::RunConfig::queue_depth`].
    pub queue_depth: usize,
    /// Invoke device maintenance every N ops (0 = never).
    pub maintenance_every: u64,
    /// How tenants map to shards.
    pub placement: Placement,
    /// Fleet master seed; every per-shard and per-tenant stream is
    /// derived from it via `split_seed`.
    pub seed: u64,
    /// Fault-rate template installed on every device. The template's
    /// seed is ignored: each shard derives its own fault seed from the
    /// fleet seed, so shards see independent but deterministic fault
    /// streams. `None` (and a quiet template) leave the devices
    /// byte-identical to a fault-free fleet.
    pub faults: Option<FaultConfig>,
    /// Interval-sample period in operations.
    pub sample_every: u64,
    /// Record per-shard event traces (costs memory per shard).
    pub trace: bool,
    /// Per-shard trace ring capacity in events.
    pub trace_cap: usize,
    /// Mid-run tenant migration, if any (see [`MigrationSpec`]).
    pub migration: Option<MigrationSpec>,
}

impl FleetConfig {
    /// A fleet of `n` devices alternating conventional and hinted-ZNS
    /// stacks over the same geometry — the paper's apples-to-apples
    /// split, at fleet scale.
    pub fn mixed(n: usize, geometry: Geometry, tenants: u32, seed: u64) -> Self {
        assert!(n > 0, "a fleet needs at least one device");
        let conv = StackKind::Conv { op_ratio: 0.15 };
        let zns = StackKind::ZnsEmu {
            blocks_per_zone: 4,
            mar: 14,
            reserve_zones: 4,
            hinted_streams: 4,
            reclaim: ReclaimPolicy::Immediate,
        };
        let devices = (0..n)
            .map(|k| DeviceSpec {
                geometry,
                stack: if k % 2 == 0 { conv } else { zns },
            })
            .collect();
        FleetConfig {
            devices,
            tenants,
            theta: 0.9,
            mix: OpMix::read_heavy(),
            ops_per_shard: 2000,
            pacing: Pacing::Closed,
            queue_depth: 1,
            maintenance_every: 64,
            placement: Placement::Hash,
            seed,
            faults: None,
            sample_every: 250,
            trace: false,
            trace_cap: bh_trace::DEFAULT_CAPACITY,
            migration: None,
        }
    }

    /// Sets the per-shard queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Installs a fault-rate template on every device.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the arrival pacing within each shard.
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Sets the operations each shard drives after its fill.
    pub fn with_ops_per_shard(mut self, ops: u64) -> Self {
        self.ops_per_shard = ops;
        self
    }

    /// Enables per-shard event traces with the given ring capacity.
    pub fn with_tracing(mut self, cap: usize) -> Self {
        self.trace = true;
        self.trace_cap = cap;
        self
    }

    /// Sets the initial tenant→shard placement policy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the Zipf exponent of the tenant traffic weights.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Plans a mid-run tenant migration: at `at_op` ops into each
    /// shard's run window, re-place the population under `policy`.
    pub fn with_migration(mut self, at_op: u64, policy: Placement) -> Self {
        self.migration = Some(MigrationSpec { at_op, policy });
        self
    }

    /// Number of shards (= devices).
    pub fn shards(&self) -> usize {
        self.devices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_validated_without_building_a_device() {
        let spec = |geometry, stack| DeviceSpec { geometry, stack };
        let conv = StackKind::Conv { op_ratio: 0.15 };
        let zns = |blocks_per_zone, mar, reserve_zones| StackKind::ZnsEmu {
            blocks_per_zone,
            mar,
            reserve_zones,
            hinted_streams: 4,
            reclaim: ReclaimPolicy::Immediate,
        };
        let small = Geometry::small_test();
        assert_eq!(spec(small, conv).validate(), Ok(()));
        assert_eq!(spec(small, zns(4, 8, 2)).validate(), Ok(()));
        // Four blocks per plane hold no conventional reserve.
        let err = spec(Geometry::experiment(4), conv).validate().unwrap_err();
        assert_eq!(err, "reserve exceeds blocks per plane");
        // 8 zones, all of them held back; a zone size that does not
        // divide the device; no active zones.
        for bad in [zns(4, 8, 8), zns(5, 8, 2), zns(4, 0, 2)] {
            assert!(spec(small, bad).validate().is_err(), "{bad:?}");
        }
        // Nothing is sized from a geometry past 32-bit page addresses.
        let mut huge = small;
        huge.channels = 1 << 16;
        huge.dies_per_channel = 1 << 16;
        for stack in [conv, zns(4, 8, 2)] {
            let err = spec(huge, stack).validate().unwrap_err();
            assert!(err.contains("32-bit page addresses"), "{err}");
        }
    }

    #[test]
    fn mixed_fleet_alternates_stacks() {
        let cfg = FleetConfig::mixed(4, Geometry::small_test(), 16, 1);
        assert_eq!(cfg.shards(), 4);
        assert_eq!(cfg.devices[0].stack.label(), "conventional");
        assert_eq!(cfg.devices[1].stack.label(), "zns+blockemu");
        assert_eq!(cfg.devices[2].stack.label(), "conventional");
    }
}
