//! Resource/timing model: plane and channel occupancy.
//!
//! §2.1: "read and write operations exploit parallelism across thousands
//! of cells … multiple read/write operations are typically scheduled to
//! happen in parallel across multiple planes in each channel." The model
//! here captures exactly the two contended resources that matter for the
//! paper's performance claims:
//!
//! - each **plane** can run one array operation (read/program/erase) at a
//!   time, and
//! - each **channel** bus can move one page of data at a time.
//!
//! Every operation computes its completion instant from the issue instant
//! plus queueing behind whatever occupies those resources. This is what
//! makes garbage collection *interfere* with host reads on the
//! conventional device (§2.4) — GC programs and erases occupy planes that
//! host reads then wait for — without any explicit interference modeling.

use crate::cell::TimingSpec;
use crate::geometry::{Geometry, PlaneId};
use bh_metrics::Nanos;

/// Tracks when each plane and channel becomes free.
#[derive(Debug, Clone)]
pub struct ResourceModel {
    plane_free: Vec<Nanos>,
    channel_free: Vec<Nanos>,
    /// Cumulative busy time per plane, for utilization reporting.
    plane_busy: Vec<Nanos>,
    /// The channel each plane hangs off, tabulated once so no operation
    /// divides to find its bus.
    channel_of: Vec<u32>,
}

impl ResourceModel {
    /// Creates an idle resource model for `geo`.
    pub fn new(geo: &Geometry) -> Self {
        ResourceModel {
            plane_free: vec![Nanos::ZERO; geo.total_planes() as usize],
            channel_free: vec![Nanos::ZERO; geo.channels as usize],
            plane_busy: vec![Nanos::ZERO; geo.total_planes() as usize],
            channel_of: (0..geo.total_planes())
                .map(|p| geo.channel_of(PlaneId(p)))
                .collect(),
        }
    }

    /// Returns the instant `plane` becomes free.
    pub fn plane_free_at(&self, plane: PlaneId) -> Nanos {
        self.plane_free[plane.0 as usize]
    }

    /// Returns the cumulative busy time accrued by `plane`.
    pub fn plane_busy_time(&self, plane: PlaneId) -> Nanos {
        self.plane_busy[plane.0 as usize]
    }

    /// Counts planes still occupied at `now` — an instantaneous queue-depth
    /// proxy for the array, used by the trace sampler.
    pub fn busy_planes(&self, now: Nanos) -> u32 {
        self.plane_free.iter().filter(|&&free| free > now).count() as u32
    }

    #[inline]
    fn occupy_plane(&mut self, plane: PlaneId, from: Nanos, dur: Nanos) -> (Nanos, Nanos) {
        let idx = plane.0 as usize;
        let start = from.max(self.plane_free[idx]);
        let end = start + dur;
        self.plane_free[idx] = end;
        self.plane_busy[idx] += dur;
        (start, end)
    }

    #[inline]
    fn occupy_channel(&mut self, plane: PlaneId, from: Nanos, dur: Nanos) -> (Nanos, Nanos) {
        let idx = self.channel_of[plane.0 as usize] as usize;
        let start = from.max(self.channel_free[idx]);
        let end = start + dur;
        self.channel_free[idx] = end;
        (start, end)
    }

    /// Schedules a page read issued at `now`: array sense on the plane,
    /// then transfer over the channel. Returns the completion instant.
    pub fn read(
        &mut self,
        plane: PlaneId,
        timing: &TimingSpec,
        page_bytes: u32,
        now: Nanos,
    ) -> Nanos {
        self.read_page(plane, timing.read, timing.transfer(page_bytes as u64), now)
    }

    /// [`ResourceModel::read`] with the array and bus times already
    /// worked out — [`crate::FlashDevice`] computes a page's transfer
    /// time once, at construction.
    #[inline]
    pub(crate) fn read_page(
        &mut self,
        plane: PlaneId,
        sense: Nanos,
        transfer: Nanos,
        now: Nanos,
    ) -> Nanos {
        let (_, array_end) = self.occupy_plane(plane, now, sense);
        let (_, bus_end) = self.occupy_channel(plane, array_end, transfer);
        bus_end
    }

    /// Schedules a page program issued at `now`: transfer over the channel,
    /// then array program on the plane. Returns the completion instant.
    pub fn program(
        &mut self,
        plane: PlaneId,
        timing: &TimingSpec,
        page_bytes: u32,
        now: Nanos,
    ) -> Nanos {
        self.program_page(
            plane,
            timing.program,
            timing.transfer(page_bytes as u64),
            now,
        )
    }

    /// [`ResourceModel::program`] with the array and bus times already
    /// worked out.
    #[inline]
    pub(crate) fn program_page(
        &mut self,
        plane: PlaneId,
        program: Nanos,
        transfer: Nanos,
        now: Nanos,
    ) -> Nanos {
        let (_, bus_end) = self.occupy_channel(plane, now, transfer);
        let (_, array_end) = self.occupy_plane(plane, bus_end, program);
        array_end
    }

    /// Schedules a block erase issued at `now`. Returns the completion
    /// instant. Erase uses no channel time.
    pub fn erase(&mut self, plane: PlaneId, timing: &TimingSpec, now: Nanos) -> Nanos {
        let (_, end) = self.occupy_plane(plane, now, timing.erase);
        end
    }

    /// Schedules a device-internal page copy (NVMe *simple copy*, §2.3):
    /// array read on the source plane, array program on the destination
    /// plane, **no channel/PCIe time** — exactly the property the paper
    /// highlights ("does not use any PCIe bandwidth").
    #[inline]
    pub fn copy(
        &mut self,
        src_plane: PlaneId,
        dst_plane: PlaneId,
        timing: &TimingSpec,
        now: Nanos,
    ) -> Nanos {
        let (_, read_end) = self.occupy_plane(src_plane, now, timing.read);
        let (_, prog_end) = self.occupy_plane(dst_plane, read_end, timing.program);
        prog_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::geometry::Geometry;

    fn setup() -> (ResourceModel, TimingSpec) {
        (
            ResourceModel::new(&Geometry::small_test()),
            CellKind::Tlc.timing(),
        )
    }

    #[test]
    fn tabulated_channels_match_the_division() {
        for geo in [
            Geometry::small_test(),
            Geometry::experiment(8),
            Geometry::no_power_of_two(),
        ] {
            let rm = ResourceModel::new(&geo);
            assert_eq!(rm.channel_of.len(), geo.total_planes() as usize);
            for p in (0..geo.total_planes()).map(PlaneId) {
                assert_eq!(rm.channel_of[p.0 as usize], geo.channel_of(p), "{p:?}");
            }
        }
    }

    #[test]
    fn read_takes_array_plus_transfer() {
        let (mut rm, t) = setup();
        let done = rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        assert_eq!(done, t.read + t.transfer(4096));
    }

    #[test]
    fn back_to_back_reads_on_one_plane_serialize() {
        let (mut rm, t) = setup();
        let d1 = rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        let d2 = rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        assert!(d2 > d1);
        // Second read's array phase waits for the first to release the
        // plane, so it completes at least one array time later.
        assert!(d2 >= d1 + t.read);
    }

    #[test]
    fn reads_on_different_channels_run_in_parallel() {
        let (mut rm, t) = setup();
        // small_test has 2 planes per channel: planes 0,1 -> ch0; 2,3 -> ch1.
        let d1 = rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        let d2 = rm.read(PlaneId(2), &t, 4096, Nanos::ZERO);
        assert_eq!(d1, d2);
    }

    #[test]
    fn same_channel_different_plane_shares_only_bus() {
        let (mut rm, t) = setup();
        let d1 = rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        let d2 = rm.read(PlaneId(1), &t, 4096, Nanos::ZERO);
        // Arrays overlap; only transfers serialize.
        assert_eq!(d2, d1 + t.transfer(4096));
    }

    #[test]
    fn erase_blocks_subsequent_read_on_same_plane() {
        let (mut rm, t) = setup();
        let erase_done = rm.erase(PlaneId(0), &t, Nanos::ZERO);
        let read_done = rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        // This is GC interference in miniature: the read waited out the
        // entire erase.
        assert!(read_done >= erase_done + t.read);
    }

    #[test]
    fn copy_uses_no_channel_time() {
        let (mut rm, t) = setup();
        let copy_done = rm.copy(PlaneId(0), PlaneId(1), &t, Nanos::ZERO);
        assert_eq!(copy_done, t.read + t.program);
        // Channel is still free: a read issued now is not delayed on the bus.
        let read_done = rm.read(PlaneId(2), &t, 4096, Nanos::ZERO);
        assert_eq!(read_done, t.read + t.transfer(4096));
    }

    #[test]
    fn busy_time_accumulates() {
        let (mut rm, t) = setup();
        rm.read(PlaneId(0), &t, 4096, Nanos::ZERO);
        rm.erase(PlaneId(0), &t, Nanos::ZERO);
        assert_eq!(rm.plane_busy_time(PlaneId(0)), t.read + t.erase);
        assert_eq!(rm.plane_busy_time(PlaneId(1)), Nanos::ZERO);
    }
}
