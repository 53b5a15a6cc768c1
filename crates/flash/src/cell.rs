//! Cell technologies and their timing/endurance characteristics.
//!
//! §2.1 of the paper: a NAND cell stores one (SLC) to five (PLC) bits.
//! Higher densities are cheaper per gigabyte but slower to program and far
//! less durable. The numbers below are representative of datasheets and
//! the literature the paper cites; the paper's only hard constraint —
//! erase ≈ 6× program for TLC [54] — holds for [`CellKind::Tlc`].

use bh_metrics::Nanos;

/// NAND cell technology, by bits stored per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Single-level cell: 1 bit.
    Slc,
    /// Multi-level cell: 2 bits.
    Mlc,
    /// Triple-level cell: 3 bits (the common datacenter choice).
    Tlc,
    /// Quad-level cell: 4 bits (the density hyperscalers want ZNS for).
    Qlc,
    /// Penta-level cell: 5 bits.
    Plc,
}

impl CellKind {
    /// Rated program/erase cycles before a block wears out.
    pub fn endurance_cycles(self) -> u32 {
        match self {
            CellKind::Slc => 100_000,
            CellKind::Mlc => 10_000,
            CellKind::Tlc => 3_000,
            CellKind::Qlc => 1_000,
            CellKind::Plc => 500,
        }
    }

    /// Representative operation timings for this cell technology.
    pub fn timing(self) -> TimingSpec {
        match self {
            CellKind::Slc => TimingSpec {
                read: Nanos::from_micros(25),
                program: Nanos::from_micros(200),
                erase: Nanos::from_millis(2),
                channel_bytes_per_sec: 1_200_000_000,
            },
            CellKind::Mlc => TimingSpec {
                read: Nanos::from_micros(55),
                program: Nanos::from_micros(400),
                erase: Nanos::from_micros(3_000),
                channel_bytes_per_sec: 1_200_000_000,
            },
            CellKind::Tlc => TimingSpec {
                // Erase is ~6x program, matching §2.1's citation of [54].
                read: Nanos::from_micros(75),
                program: Nanos::from_micros(660),
                erase: Nanos::from_micros(3_960),
                channel_bytes_per_sec: 1_200_000_000,
            },
            CellKind::Qlc => TimingSpec {
                read: Nanos::from_micros(140),
                program: Nanos::from_micros(2_000),
                erase: Nanos::from_millis(10),
                channel_bytes_per_sec: 1_200_000_000,
            },
            CellKind::Plc => TimingSpec {
                read: Nanos::from_micros(200),
                program: Nanos::from_micros(5_000),
                erase: Nanos::from_millis(20),
                channel_bytes_per_sec: 1_200_000_000,
            },
        }
    }
}

/// Flash array and bus timings for one cell technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSpec {
    /// Array time to sense one page.
    pub read: Nanos,
    /// Array time to program one page.
    pub program: Nanos,
    /// Array time to erase one block.
    pub erase: Nanos,
    /// Channel bus bandwidth in bytes per second.
    pub channel_bytes_per_sec: u64,
}

impl TimingSpec {
    /// Time to move `bytes` across the channel bus.
    pub fn transfer(&self, bytes: u64) -> Nanos {
        // Round up so a transfer is never free.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.channel_bytes_per_sec as u128);
        Nanos::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_ordering() {
        let kinds = [
            CellKind::Slc,
            CellKind::Mlc,
            CellKind::Tlc,
            CellKind::Qlc,
            CellKind::Plc,
        ];
        for w in kinds.windows(2) {
            assert!(w[0].endurance_cycles() > w[1].endurance_cycles());
            assert!(w[0].timing().program < w[1].timing().program);
        }
    }

    #[test]
    fn tlc_erase_is_about_six_times_program() {
        let t = CellKind::Tlc.timing();
        let ratio = t.erase.as_nanos() as f64 / t.program.as_nanos() as f64;
        assert!((5.5..6.5).contains(&ratio), "erase/program ratio {ratio}");
    }

    #[test]
    fn erase_slower_than_program_slower_than_read() {
        for k in [
            CellKind::Slc,
            CellKind::Mlc,
            CellKind::Tlc,
            CellKind::Qlc,
            CellKind::Plc,
        ] {
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
