//! Cell technologies and their timing/endurance characteristics.
//!
//! §2.1 of the paper: a NAND cell stores one (SLC) to five (PLC) bits.
//! Higher densities are cheaper per gigabyte but slower to program and far
//! less durable. The two modelled here are the ones the experiments
//! compare (E-QLC); the numbers are representative of datasheets and
//! the literature the paper cites. The paper's only hard constraint —
//! erase ≈ 6× program for TLC [54] — holds for [`CellKind::Tlc`].

use bh_metrics::Nanos;

/// Channel bus bandwidth in bytes per second, the same for every cell.
const CHANNEL_BYTES_PER_SEC: u128 = 1_200_000_000;

/// NAND cell technology, by bits stored per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Triple-level cell: 3 bits (the common datacenter choice).
    Tlc,
    /// Quad-level cell: 4 bits (the density hyperscalers want ZNS for).
    Qlc,
}

impl CellKind {
    /// Rated program/erase cycles before a block wears out.
    pub fn endurance_cycles(self) -> u32 {
        match self {
            CellKind::Tlc => 3_000,
            CellKind::Qlc => 1_000,
        }
    }

    /// Representative operation timings for this cell technology.
    pub fn timing(self) -> TimingSpec {
        match self {
            CellKind::Tlc => TimingSpec {
                // Erase is ~6x program, matching §2.1's citation of [54].
                read: Nanos::from_micros(75),
                program: Nanos::from_micros(660),
                erase: Nanos::from_micros(3_960),
            },
            CellKind::Qlc => TimingSpec {
                read: Nanos::from_micros(140),
                program: Nanos::from_micros(2_000),
                erase: Nanos::from_millis(10),
            },
        }
    }
}

/// Flash array timings for one cell technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSpec {
    /// Array time to sense one page.
    pub read: Nanos,
    /// Array time to program one page.
    pub program: Nanos,
    /// Array time to erase one block.
    pub erase: Nanos,
}

impl TimingSpec {
    /// Time to move `bytes` across the channel bus.
    pub fn transfer(&self, bytes: u64) -> Nanos {
        // Round up so a transfer is never free.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(CHANNEL_BYTES_PER_SEC);
        Nanos::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_ordering() {
        let (tlc, qlc) = (CellKind::Tlc, CellKind::Qlc);
        assert!(tlc.endurance_cycles() > qlc.endurance_cycles());
        assert!(tlc.timing().program < qlc.timing().program);
    }

    #[test]
    fn tlc_erase_is_about_six_times_program() {
        let t = CellKind::Tlc.timing();
        let ratio = t.erase.as_nanos() as f64 / t.program.as_nanos() as f64;
        assert!((5.5..6.5).contains(&ratio), "erase/program ratio {ratio}");
    }

    #[test]
    fn erase_slower_than_program_slower_than_read() {
        for k in [CellKind::Tlc, CellKind::Qlc] {
            let t = k.timing();
            assert!(t.read < t.program, "{k:?}");
            assert!(t.program < t.erase, "{k:?}");
        }
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t = CellKind::Tlc.timing();
        let one = t.transfer(4096);
        let two = t.transfer(8192);
        assert!(one > Nanos::ZERO);
        assert!(two >= one * 2 - Nanos::from_nanos(1));
        assert_eq!(t.transfer(0), Nanos::ZERO);
    }
}
