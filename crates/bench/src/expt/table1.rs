//! E1 — regenerates **Table 1** (§3): the impact of ZNS adoption on five
//! years of flash research at FAST/OSDI/SOSP/MSST.
//!
//! The table is produced by aggregating the per-paper survey records in
//! `bh-survey`, and the abstract's headline percentages (23% simplified,
//! 59% affected, 18% orthogonal) are checked as claims.

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Report};
use bh_survey::{papers, venue_publications, Taxonomy};

pub fn run() -> ExptResult {
    let records = papers();
    let taxonomy = Taxonomy::tabulate(&records);

    let mut report = Report::new(
        "E1 / Table 1",
        "Impact of ZNS adoption on existing flash-SSD work (counts by venue and category)",
    );
    report.table("Table 1", taxonomy.render(venue_publications));

    let (simplified, affected, orthogonal) = taxonomy.headline_percentages();
    let mut claims = ClaimSet::new();
    claims.check(
        "E1.total-classified",
        "104 papers where flash SSDs are prominent",
        taxonomy.total() as f64,
        (104.0, 104.0),
    );
    claims.check(
        "E1.simplified-pct",
        "23% of SSD papers focus on problems ZNS simplifies or solves",
        simplified as f64,
        (22.0, 24.0),
    );
    claims.check(
        "E1.affected-pct",
        "59% would need to change approach or revisit results",
        affected as f64,
        (58.0, 61.0),
    );
    claims.check(
        "E1.orthogonal-pct",
        "18% will not be affected",
        orthogonal as f64,
        (16.0, 19.0),
    );
    claims.check(
        "E1.total-pubs",
        "465 papers collected in total",
        bh_survey::Venue::ALL
            .iter()
            .map(|&v| venue_publications(v) as f64)
            .sum(),
        (465.0, 465.0),
    );
    report.claims(claims);
    Ok(report)
}
