//! Uniform experiment output.
//!
//! Every experiment binary emits one [`Report`]: a header, free-form
//! result tables, figure-shaped series, and the claim checks. `render`
//! produces the human-readable text that EXPERIMENTS.md quotes;
//! `to_json` archives the raw numbers.

use crate::claims::ClaimSet;
use bh_json::Json;
use bh_metrics::{Series, Table};

/// One experiment's full output.
#[derive(Debug, Default)]
pub struct Report {
    name: String,
    description: String,
    tables: Vec<(String, Table)>,
    series: Vec<Series>,
    claims: Option<ClaimSet>,
}

impl Report {
    /// Creates a report for experiment `name`.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            description: description.into(),
            ..Report::default()
        }
    }

    /// Adds a titled table.
    pub fn table(&mut self, title: impl Into<String>, table: Table) {
        self.tables.push((title.into(), table));
    }

    /// Adds a figure-shaped series.
    pub fn series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Attaches the claim checks.
    pub fn claims(&mut self, claims: ClaimSet) {
        self.claims = Some(claims);
    }

    /// True when all attached claims hold (true when none attached).
    pub fn all_claims_hold(&self) -> bool {
        self.claims.as_ref().map(ClaimSet::all_hold).unwrap_or(true)
    }

    /// Renders the full human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("==== {} ====\n{}\n", self.name, self.description));
        for (title, table) in &self.tables {
            out.push_str(&format!("\n-- {title} --\n"));
            out.push_str(&table.render());
        }
        for s in &self.series {
            out.push('\n');
            out.push_str(&s.render());
        }
        if let Some(claims) = &self.claims {
            out.push_str("\n-- claims --\n");
            out.push_str(&claims.render().render());
            out.push_str(&format!(
                "claims held: {}/{}\n",
                claims.held(),
                claims.claims().len()
            ));
        }
        out
    }

    /// Serializes the report to JSON.
    pub fn to_json(&self) -> String {
        let mut j = Json::obj();
        j.set("name", self.name.as_str())
            .set("description", self.description.as_str())
            .set(
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|(t, tab)| Json::Arr(vec![t.as_str().into(), tab.to_csv().into()]))
                        .collect(),
                ),
            )
            .set(
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            let points = s
                                .points()
                                .iter()
                                .map(|&(x, y)| Json::Arr(vec![x.into(), y.into()]))
                                .collect();
                            Json::Arr(vec![s.name().into(), Json::Arr(points)])
                        })
                        .collect(),
                ),
            )
            .set(
                "claims",
                self.claims
                    .as_ref()
                    .map(ClaimSet::to_json)
                    .unwrap_or(Json::Null),
            );
        j.pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::ClaimSet;

    #[test]
    fn render_contains_all_sections() {
        let mut r = Report::new("E0", "a test experiment");
        let mut t = Table::new(["k", "v"]);
        t.row(["x", "1"]);
        r.table("numbers", t);
        let mut s = Series::new("curve");
        s.push(0.0, 1.0);
        r.series(s);
        let mut c = ClaimSet::new();
        c.check("c1", "paper says", 1.0, (0.0, 2.0));
        r.claims(c);
        let text = r.render();
        assert!(text.contains("==== E0 ===="));
        assert!(text.contains("numbers"));
        assert!(text.contains("curve"));
        assert!(text.contains("claims held: 1/1"));
        assert!(r.all_claims_hold());
    }

    #[test]
    fn json_is_valid() {
        let mut r = Report::new("E0", "d");
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        r.series(s);
        let json = r.to_json();
        let parsed = bh_json::parse(&json).unwrap();
        assert_eq!(parsed["name"], "E0");
        assert_eq!(parsed["series"][0][0], "x");
        assert_eq!(parsed["series"][0][1][0][1], 2.0);
        assert!(parsed["claims"].is_null());
    }
}
