//! E10 — §4.2's active-zone management question: "A simple strategy is
//! to assign a fixed number of zones to each application together with a
//! fixed active zone budget. However, this approach does not scale for
//! typical bursty workloads as it does not allow multiplexing of this
//! scarce resource."
//!
//! Bursty tenants request active-zone slots from a MAR-14 device under
//! three strategies; we measure how long requests wait for admission.

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Report};
use bh_fleet::admission_waits;
use bh_host::AzStrategy;
use bh_metrics::Table;
use bh_workloads::BurstyTenants;

const MAR: u32 = 14;
const TENANTS: u32 = 7;

pub fn run() -> ExptResult {
    let bursts = bh_bench::scaled(400, 80) as u32;
    let mut gen = BurstyTenants::new(
        TENANTS, 6,          // Burst wants 6 zones at once (vs base share 2).
        20_000_000, // ~20ms mean idle between bursts.
        5_000_000,  // 5ms hold per zone.
        0xE10,
    );
    let events = gen.schedule(bursts);

    let mut report = Report::new(
        "E10 / §4.2 active-zone budgets",
        "Bursty tenants share MAR=14 active zones under three strategies",
    );
    let mut table = Table::new(["strategy", "waits", "mean wait", "p99 wait", "max wait"]);
    let mut results = Vec::new();
    for (name, strategy) in [
        ("static partition", AzStrategy::StaticPartition),
        ("dynamic demand", AzStrategy::DynamicDemand),
        ("lending w/ guarantees", AzStrategy::Lending),
    ] {
        let waits = admission_waits(strategy, MAR, TENANTS, &events);
        let s = waits.summary();
        table.row([
            name.to_string(),
            s.count.to_string(),
            s.mean.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
        results.push((name, s));
    }
    report.table("admission waits", table);

    let static_mean = results[0].1.mean.as_nanos() as f64;
    let dynamic_mean = results[1].1.mean.as_nanos() as f64;
    let lending_mean = results[2].1.mean.as_nanos() as f64;

    let mut claims = ClaimSet::new();
    claims.check(
        "E10.static-does-not-scale",
        "fixed budgets do not multiplex bursty demand: dynamic cuts mean wait",
        static_mean / dynamic_mean.max(1.0),
        (1.5, 1e6),
    );
    claims.check(
        "E10.lending-also-helps",
        "guaranteed-base lending also beats static partition",
        static_mean / lending_mean.max(1.0),
        (1.2, 1e6),
    );
    report.claims(claims);
    Ok(report)
}
