//! The paper's quantitative claims as checkable bands.
//!
//! The reproduction contract is *shape, not absolute numbers*: who wins,
//! by roughly what factor, where crossovers fall. A [`Claim`] records the
//! paper's stated figure, the measured value, and an acceptance band for
//! the measured value; a [`ClaimSet`] aggregates them into the pass/fail
//! table that EXPERIMENTS.md reproduces.

use bh_json::Json;
use bh_metrics::Table;

/// One paper claim checked against a measurement.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier, e.g. `"E2.wa-at-0-op"`.
    pub id: String,
    /// What the paper says, verbatim enough to find it.
    pub paper: String,
    /// The measured value.
    pub measured: f64,
    /// Inclusive acceptance band for the measured value.
    pub band: (f64, f64),
}

impl Claim {
    /// Creates a checked claim.
    pub fn new(
        id: impl Into<String>,
        paper: impl Into<String>,
        measured: f64,
        band: (f64, f64),
    ) -> Self {
        Claim {
            id: id.into(),
            paper: paper.into(),
            measured,
            band,
        }
    }

    /// True when the measurement lies in the band.
    pub fn holds(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }

    /// JSON form for report archival.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("id", self.id.as_str())
            .set("paper", self.paper.as_str())
            .set("measured", self.measured)
            .set(
                "band",
                Json::Arr(vec![self.band.0.into(), self.band.1.into()]),
            )
            .set("holds", self.holds());
        j
    }
}

/// A collection of claims for one experiment.
#[derive(Debug, Default)]
pub struct ClaimSet {
    claims: Vec<Claim>,
}

impl ClaimSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a claim.
    pub fn push(&mut self, claim: Claim) {
        self.claims.push(claim);
    }

    /// Convenience: add and check in one call.
    pub fn check(
        &mut self,
        id: impl Into<String>,
        paper: impl Into<String>,
        measured: f64,
        band: (f64, f64),
    ) {
        self.push(Claim::new(id, paper, measured, band));
    }

    /// A yes/no claim: measured 1 when `holds`, 0 otherwise, band (1, 1).
    pub fn check_bool(&mut self, id: impl Into<String>, paper: impl Into<String>, holds: bool) {
        self.check(id, paper, if holds { 1.0 } else { 0.0 }, (1.0, 1.0));
    }

    /// The claims in insertion order.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// True when every claim holds.
    pub fn all_hold(&self) -> bool {
        self.claims.iter().all(Claim::holds)
    }

    /// Number of claims that hold.
    pub fn held(&self) -> usize {
        self.claims.iter().filter(|c| c.holds()).count()
    }

    /// JSON form for report archival.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set(
            "claims",
            Json::Arr(self.claims.iter().map(Claim::to_json).collect()),
        );
        j
    }

    /// Renders the pass/fail table.
    pub fn render(&self) -> Table {
        let mut t = Table::new(["claim", "paper", "measured", "band", "holds"]);
        for c in &self.claims {
            t.row([
                c.id.clone(),
                c.paper.clone(),
                format!("{:.3}", c.measured),
                format!("[{:.3}, {:.3}]", c.band.0, c.band.1),
                if c.holds() { "yes" } else { "NO" }.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_checks_are_inclusive() {
        assert!(Claim::new("a", "p", 2.5, (2.5, 3.0)).holds());
        assert!(Claim::new("a", "p", 3.0, (2.5, 3.0)).holds());
        assert!(!Claim::new("a", "p", 3.01, (2.5, 3.0)).holds());
        assert!(!Claim::new("a", "p", 2.49, (2.5, 3.0)).holds());
    }

    #[test]
    fn set_aggregates() {
        let mut s = ClaimSet::new();
        s.check("one", "x", 1.0, (0.5, 1.5));
        s.check("two", "y", 9.0, (0.0, 1.0));
        assert_eq!(s.held(), 1);
        assert!(!s.all_hold());
        let rendered = s.render().render();
        assert!(rendered.contains("NO"));
        assert!(rendered.contains("yes"));
    }
}
