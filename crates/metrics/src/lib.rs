//! Measurement primitives shared by every `blockhead` crate.
//!
//! The simulator is fully deterministic: it runs on a *virtual* clock
//! ([`Nanos`]) rather than wall-clock time, and every latency or throughput
//! number reported by the benchmark harness is derived from that clock.
//! This crate provides the building blocks:
//!
//! - [`Nanos`] — virtual time.
//! - [`Histogram`] — a log-bucketed latency histogram with bounded relative
//!   error, in the spirit of HDR histograms, used for tail-latency claims
//!   (paper §2.4).
//! - [`Summary`] — the fixed percentile digest experiments report.
//! - [`Table`] — plain-text table rendering used to regenerate the paper's
//!   Table 1 and the per-experiment result tables.
//! - [`Series`] — named (x, y) series for figure-shaped output.

pub mod hist;
pub mod series;
pub mod table;
pub mod time;

pub use hist::{Histogram, Summary};
pub use series::Series;
pub use table::Table;
pub use time::Nanos;

/// Computes a throughput in operations per second from an operation count
/// and an elapsed virtual duration.
///
/// Returns `0.0` when `elapsed` is zero, so callers never divide by zero
/// when a workload completes instantaneously (e.g. zero-length runs in
/// tests).
///
/// # Examples
///
/// ```
/// use bh_metrics::{ops_per_sec, Nanos};
/// let tput = ops_per_sec(1_000, Nanos::from_millis(500));
/// assert!((tput - 2_000.0).abs() < 1e-9);
/// ```
pub fn ops_per_sec(ops: u64, elapsed: Nanos) -> f64 {
    if elapsed.as_nanos() == 0 {
        return 0.0;
    }
    ops as f64 * 1e9 / elapsed.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_sec_zero_elapsed_is_zero() {
        assert_eq!(ops_per_sec(100, Nanos::ZERO), 0.0);
    }
}
