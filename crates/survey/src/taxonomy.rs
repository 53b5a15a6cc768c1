//! Survey taxonomy types and aggregation.

use bh_metrics::Table;

/// The four venues the paper surveys (last five years each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Venue {
    /// USENIX Conference on File and Storage Technologies.
    Fast,
    /// USENIX Symposium on Operating Systems Design and Implementation.
    Osdi,
    /// ACM Symposium on Operating Systems Principles.
    Sosp,
    /// International Conference on Massive Storage Systems and Technology.
    Msst,
}

impl Venue {
    /// All venues in the paper's row order.
    pub const ALL: [Venue; 4] = [Venue::Fast, Venue::Osdi, Venue::Sosp, Venue::Msst];

    /// The venue's display name.
    pub fn name(self) -> &'static str {
        match self {
            Venue::Fast => "FAST",
            Venue::Osdi => "OSDI",
            Venue::Sosp => "SOSP",
            Venue::Msst => "MSST",
        }
    }
}

/// The paper's four impact categories (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Impact {
    /// The paper's main problem is simplified or solved by ZNS.
    Simplified,
    /// The paper's approach would change with ZNS.
    Approach,
    /// The paper's results/evaluation would change with ZNS.
    Results,
    /// The problem is orthogonal to ZNS.
    Orthogonal,
}

impl Impact {
    /// All categories in the paper's column order.
    pub const ALL: [Impact; 4] = [
        Impact::Simplified,
        Impact::Approach,
        Impact::Results,
        Impact::Orthogonal,
    ];

    /// The column header used in Table 1.
    pub fn header(self) -> &'static str {
        match self {
            Impact::Simplified => "Simpl",
            Impact::Approach => "Appr",
            Impact::Results => "Res",
            Impact::Orthogonal => "Orth",
        }
    }
}

/// One classified paper.
#[derive(Debug, Clone, Copy)]
pub struct PaperRecord {
    /// Title (or a placeholder label; see `identified`).
    pub title: &'static str,
    /// Publication year.
    pub year: u16,
    /// Publication venue.
    pub venue: Venue,
    /// Impact classification.
    pub impact: Impact,
    /// True when the record corresponds to a concrete paper recoverable
    /// from the survey's citations; false for count-preserving
    /// placeholders.
    pub identified: bool,
}

/// Aggregated per-venue, per-category counts — the content of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taxonomy {
    counts: [[u32; 4]; 4],
}

impl Taxonomy {
    /// Tabulates a set of records.
    pub fn tabulate(records: &[PaperRecord]) -> Self {
        let mut t = Taxonomy::default();
        for r in records {
            let v = Venue::ALL
                .iter()
                .position(|&x| x == r.venue)
                .expect("venue");
            let i = Impact::ALL
                .iter()
                .position(|&x| x == r.impact)
                .expect("impact");
            t.counts[v][i] += 1;
        }
        t
    }

    /// Count for one venue/category cell.
    pub fn count(&self, venue: Venue, impact: Impact) -> u32 {
        let v = Venue::ALL.iter().position(|&x| x == venue).expect("venue");
        let i = Impact::ALL
            .iter()
            .position(|&x| x == impact)
            .expect("impact");
        self.counts[v][i]
    }

    /// Column total: papers in a category across venues.
    pub fn impact_total(&self, impact: Impact) -> u32 {
        Venue::ALL.iter().map(|&v| self.count(v, impact)).sum()
    }

    /// All classified papers.
    pub fn total(&self) -> u32 {
        Impact::ALL.iter().map(|&i| self.impact_total(i)).sum()
    }

    /// Renders Table 1, with the `#Pubs.` column supplied by
    /// `publications` (total venue publications over the window).
    pub fn render(&self, publications: impl Fn(Venue) -> u32) -> Table {
        let mut table = Table::new(["Venue", "#Pubs.", "Simpl", "Appr", "Res", "Orth"]);
        for v in Venue::ALL {
            table.row([
                v.name().to_string(),
                publications(v).to_string(),
                self.count(v, Impact::Simplified).to_string(),
                self.count(v, Impact::Approach).to_string(),
                self.count(v, Impact::Results).to_string(),
                self.count(v, Impact::Orthogonal).to_string(),
            ]);
        }
        let total_pubs: u32 = Venue::ALL.iter().map(|&v| publications(v)).sum();
        table.row([
            "Total".to_string(),
            total_pubs.to_string(),
            self.impact_total(Impact::Simplified).to_string(),
            self.impact_total(Impact::Approach).to_string(),
            self.impact_total(Impact::Results).to_string(),
            self.impact_total(Impact::Orthogonal).to_string(),
        ]);
        table
    }

    /// The headline percentages the abstract quotes: (solved/simplified,
    /// affected = approach+results, orthogonal), as percent of classified
    /// papers rounded to the nearest integer.
    pub fn headline_percentages(&self) -> (u32, u32, u32) {
        let total = self.total() as f64;
        let pct = |n: u32| ((n as f64 / total) * 100.0).round() as u32;
        (
            pct(self.impact_total(Impact::Simplified)),
            pct(self.impact_total(Impact::Approach) + self.impact_total(Impact::Results)),
            pct(self.impact_total(Impact::Orthogonal)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(venue: Venue, impact: Impact) -> PaperRecord {
        PaperRecord {
            title: "t",
            year: 2020,
            venue,
            impact,
            identified: false,
        }
    }

    #[test]
    fn tabulation_counts_cells() {
        let t = Taxonomy::tabulate(&[
            rec(Venue::Fast, Impact::Simplified),
            rec(Venue::Fast, Impact::Simplified),
            rec(Venue::Msst, Impact::Results),
        ]);
        assert_eq!(t.count(Venue::Fast, Impact::Simplified), 2);
        assert_eq!(t.count(Venue::Msst, Impact::Results), 1);
        assert_eq!(t.count(Venue::Osdi, Impact::Results), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.impact_total(Impact::Results), 1);
    }

    #[test]
    fn render_includes_totals_row() {
        let t = Taxonomy::tabulate(&[rec(Venue::Sosp, Impact::Approach)]);
        let rendered = t.render(|_| 10).render();
        assert!(rendered.contains("SOSP"));
        assert!(rendered.contains("Total"));
        assert!(rendered.contains("40")); // 4 venues x 10 pubs.
    }
}
