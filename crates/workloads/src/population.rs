//! A sharded tenant population: the fleet-scale demand model.
//!
//! The paper's fleet claims (§2.4, §4) are about *many* tenants
//! multiplexed over *many* devices. [`TenantPopulation`] generates a
//! deterministic tenant roster with Zipf-ranked traffic weights (a few
//! heavy tenants, a long tail of light ones — the classic multi-tenant
//! shape), and [`TenantStream`] multiplexes the tenants placed on one
//! device into a single [`OpSource`]: each operation first draws a tenant
//! in proportion to its weight, then draws an address from that tenant's
//! private slice of the device.
//!
//! Every write carries the tenant's stream hint, so zoned stacks with
//! hinted streams group each tenant's pages into their own zones (data
//! that dies together shares zones) while block devices have nowhere to
//! put the hint — which is the paper's point.

use crate::synthetic::{AddressDist, Generator, Op, OpMix, OpSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One tenant's identity and demand share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Fleet-wide tenant id.
    pub id: u32,
    /// Relative traffic weight (not normalized).
    pub weight: f64,
    /// Seed for the tenant's private address stream.
    pub seed: u64,
}

/// SplitMix64: the stream-splitting hash used to derive per-tenant and
/// per-shard seeds from one fleet seed. Public so the fleet engine can
/// derive shard seeds from the same function.
pub fn split_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic roster of tenants with Zipf-ranked weights.
#[derive(Debug, Clone)]
pub struct TenantPopulation {
    specs: Vec<TenantSpec>,
}

impl TenantPopulation {
    /// Creates `tenants` tenants whose weights follow `1/(rank+1)^theta`
    /// (rank = tenant id), seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero or `theta` is negative/non-finite.
    pub fn zipf(tenants: u32, theta: f64, seed: u64) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        assert!(theta.is_finite() && theta >= 0.0, "bad theta {theta}");
        let specs = (0..tenants)
            .map(|id| TenantSpec {
                id,
                weight: 1.0 / ((id + 1) as f64).powf(theta),
                seed: split_seed(seed, id as u64 + 1),
            })
            .collect();
        TenantPopulation { specs }
    }

    /// The tenants in id order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the population is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One tenant's share of a device.
#[derive(Debug)]
struct TenantSlice {
    /// First LBA of the tenant's private range.
    base: u64,
    /// Placement stream hint attached to the tenant's writes.
    hint: u32,
    /// Address stream over the slice (LBAs relative to `base`). A slice
    /// may be drawn only a handful of times, so it draws one op per call,
    /// with no look-ahead and no helper thread.
    stream: Generator,
}

/// Multiplexes the tenants placed on one device into a single
/// deterministic operation source.
///
/// The device's LBA space is partitioned into equal private slices, one
/// per tenant; traffic share follows the tenant weights. With the same
/// tenant list and seed the produced sequence is bit-identical, which is
/// what makes fleet results independent of worker-thread count.
///
/// # Examples
///
/// ```
/// use bh_workloads::{OpSource, TenantPopulation, TenantStream, OpMix};
/// let pop = TenantPopulation::zipf(4, 1.0, 7);
/// let mut s = TenantStream::new(1024, pop.specs(), OpMix::read_heavy(), 3, 2);
/// let (op, hint) = s.next_hinted();
/// assert!(op.lba() < 1024);
/// assert!(hint < 2);
/// ```
#[derive(Debug)]
pub struct TenantStream {
    slices: Vec<TenantSlice>,
    /// Cumulative weights for the tenant draw.
    cum: Vec<f64>,
    total_weight: f64,
    rng: SmallRng,
}

impl TenantStream {
    /// Builds a stream over `capacity` pages for the given tenants.
    /// Writes from tenant k (position in `tenants`) carry hint
    /// `k % hint_streams`. Each tenant's addresses are Zipf-skewed within
    /// its private slice.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, `hint_streams` is zero, or
    /// `capacity` is smaller than the tenant count.
    pub fn new(
        capacity: u64,
        tenants: &[TenantSpec],
        mix: OpMix,
        seed: u64,
        hint_streams: u32,
    ) -> Self {
        assert!(!tenants.is_empty(), "a shard needs at least one tenant");
        assert!(hint_streams > 0, "need at least one hint stream");
        let n = tenants.len() as u64;
        assert!(capacity >= n, "capacity {capacity} below tenant count {n}");
        let span = capacity / n;
        let mut slices = Vec::with_capacity(tenants.len());
        let mut cum = Vec::with_capacity(tenants.len());
        let mut total = 0.0;
        for (k, t) in tenants.iter().enumerate() {
            // The last tenant absorbs the remainder pages.
            let this_span = if k + 1 == tenants.len() {
                capacity - span * (n - 1)
            } else {
                span
            };
            slices.push(TenantSlice {
                base: span * k as u64,
                hint: k as u32 % hint_streams,
                stream: Generator::new(this_span, AddressDist::Zipfian(0.99), mix, t.seed),
            });
            total += t.weight;
            cum.push(total);
        }
        TenantStream {
            slices,
            cum,
            total_weight: total,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Number of tenants multiplexed.
    pub fn tenants(&self) -> usize {
        self.slices.len()
    }

    fn draw_tenant(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..self.total_weight);
        // Cumulative weights are sorted; first bucket covering u wins.
        self.cum
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.slices.len() - 1)
    }
}

impl OpSource for TenantStream {
    fn next_op(&mut self) -> Op {
        self.next_hinted().0
    }

    fn next_hinted(&mut self) -> (Op, u32) {
        let k = self.draw_tenant();
        let slice = &mut self.slices[k];
        let op = match slice.stream.draw() {
            Op::Read(l) => Op::Read(l + slice.base),
            Op::Write(l) => Op::Write(l + slice.base),
            Op::Trim(l) => Op::Trim(l + slice.base),
        };
        (op, slice.hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::OpStream;

    #[test]
    fn zipf_weights_rank_down() {
        let p = TenantPopulation::zipf(8, 1.0, 1);
        assert_eq!(p.len(), 8);
        for w in p.specs().windows(2) {
            assert!(w[0].weight > w[1].weight);
        }
        assert!((p.specs()[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_seeds_differ() {
        let p = TenantPopulation::zipf(16, 0.8, 42);
        let mut seeds: Vec<u64> = p.specs().iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let p = TenantPopulation::zipf(4, 1.0, 9);
        let mut a = TenantStream::new(4096, p.specs(), OpMix::read_heavy(), 5, 4);
        let mut b = TenantStream::new(4096, p.specs(), OpMix::read_heavy(), 5, 4);
        for _ in 0..500 {
            assert_eq!(a.next_hinted(), b.next_hinted());
        }
    }

    #[test]
    fn slices_draw_the_sequence_their_own_streams_would() {
        // A reference multiplexer over independent, look-ahead-buffered
        // per-tenant streams: the unbuffered slices must match it op for
        // op, across many of the buffered streams' refills.
        let p = TenantPopulation::zipf(5, 0.9, 13);
        let (cap, span) = (5 * 997, 997);
        let mut s = TenantStream::new(cap, p.specs(), OpMix::read_heavy(), 6, 3);
        let mut streams: Vec<OpStream> = p
            .specs()
            .iter()
            .map(|t| OpStream::zipfian(span, OpMix::read_heavy(), t.seed))
            .collect();
        let mut rng = SmallRng::seed_from_u64(6);
        let total: f64 = p.specs().iter().map(|t| t.weight).sum();
        for i in 0..5_000 {
            let u: f64 = rng.gen_range(0.0..total);
            let mut acc = 0.0;
            let k = p
                .specs()
                .iter()
                .position(|t| {
                    acc += t.weight;
                    u < acc
                })
                .unwrap_or(4);
            let base = span * k as u64;
            let want = match streams[k].next_op() {
                Op::Read(l) => Op::Read(l + base),
                Op::Write(l) => Op::Write(l + base),
                Op::Trim(l) => Op::Trim(l + base),
            };
            assert_eq!(s.next_hinted(), (want, k as u32 % 3), "op {i}");
        }
    }

    #[test]
    fn addresses_stay_in_tenant_slices() {
        let p = TenantPopulation::zipf(4, 1.0, 3);
        let mut s = TenantStream::new(1000, p.specs(), OpMix::write_only(), 1, 2);
        for _ in 0..2000 {
            let (op, hint) = s.next_hinted();
            assert!(op.lba() < 1000);
            assert!(hint < 2);
        }
    }

    #[test]
    fn heavy_tenants_get_more_traffic() {
        let p = TenantPopulation::zipf(4, 1.2, 11);
        let mut s = TenantStream::new(4000, p.specs(), OpMix::write_only(), 2, 4);
        let mut per_tenant = [0u64; 4];
        for _ in 0..8000 {
            let (op, _) = s.next_hinted();
            per_tenant[(op.lba() / 1000) as usize] += 1;
        }
        assert!(
            per_tenant[0] > 2 * per_tenant[3],
            "tenant 0 should dominate tenant 3: {per_tenant:?}"
        );
    }

    #[test]
    fn remainder_pages_go_to_last_tenant() {
        let p = TenantPopulation::zipf(3, 0.0, 1);
        // 10 / 3 = 3 pages each, tenant 2 gets 4.
        let mut s = TenantStream::new(10, p.specs(), OpMix::write_only(), 1, 3);
        let mut seen_high = false;
        for _ in 0..500 {
            let (op, _) = s.next_hinted();
            assert!(op.lba() < 10);
            if op.lba() == 9 {
                seen_high = true;
            }
        }
        assert!(seen_high, "last tenant's remainder page never addressed");
    }

    #[test]
    fn split_seed_is_stable_and_spread() {
        assert_eq!(split_seed(1, 2), split_seed(1, 2));
        assert_ne!(split_seed(1, 2), split_seed(1, 3));
        assert_ne!(split_seed(1, 2), split_seed(2, 2));
    }
}
