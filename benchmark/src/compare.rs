//! `compare a.json b.json`: is `b` worse than `a`?
//!
//! One row per workload × end-to-end metric with both medians, the
//! change, the bound `BENCHMARK.json` fixes, and a verdict:
//!
//! - `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! - `unresolved` — either side's repetitions spread wider than the
//!   bound, so the medians cannot tell;
//! - `ok` — otherwise.
//!
//! Then every exact (simulated) count that differs between the two
//! files. A change that claims only simulator speed must list none.
//! Exits non-zero when any row is `worse`.

use crate::driver::SCHEMA;
use crate::harness::spread;
use bh_json::Json;
use std::process::ExitCode;

pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics and their bounds, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let j = bh_json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    j["end_to_end"]
        .as_arr()
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m["better"].as_str() == Some("higher"),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(worsening: f64, widest_spread: f64, bound: f64) -> Verdict {
    if widest_spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = bh_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if j["schema"].as_str() != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} result file"));
    }
    Ok(j)
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file["workloads"]
        .as_arr()?
        .iter()
        .find(|w| w["name"].as_str() == Some(name))
}

fn values(entry: &Json) -> Vec<f64> {
    entry["values"]
        .as_arr()
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares two parsed result files; returns the report and whether any
/// row was `worse`.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let mut diffs = Vec::new();
    out.push_str(&format!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    ));
    for wa in a["workloads"].as_arr().unwrap_or(&[]) {
        let name = wa["name"].as_str().unwrap_or("?");
        let Some(wb) = workload(b, name) else {
            out.push_str(&format!("{name:<18} missing from b\n"));
            continue;
        };
        for m in bounds {
            let (ea, eb) = (
                &wa["end_to_end"][m.name.as_str()],
                &wb["end_to_end"][m.name.as_str()],
            );
            let (Some(ma), Some(mb)) = (ea["median"].as_f64(), eb["median"].as_f64()) else {
                continue;
            };
            let worse_by = worsening(ma, mb, m.higher_is_better);
            let widest = spread(&values(ea)).max(spread(&values(eb)));
            let v = verdict(worse_by, widest, m.bound);
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "{name:<18} {:<20} {ma:>16.4} {mb:>16.4} {:>+8.2}% {:>6.1}%  {}\n",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                v.label()
            ));
        }
        // Absolute bound of zero: any new failure is worse.
        let (fa, fb) = (
            wa["failed_ops_share"].as_f64().unwrap_or(0.0),
            wb["failed_ops_share"].as_f64().unwrap_or(0.0),
        );
        let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        any_worse |= v == Verdict::Worse;
        out.push_str(&format!(
            "{name:<18} {:<20} {fa:>16.6} {fb:>16.6} {:>9} {:>7}  {}\n",
            "failed_ops_share",
            "",
            "0 abs",
            v.label()
        ));

        if wa["fingerprint"] != wb["fingerprint"] {
            diffs.push(format!(
                "{name}: fingerprint {} -> {}",
                wa["fingerprint"], wb["fingerprint"]
            ));
        }
        for (metric, e) in wa["per_layer"].as_obj().unwrap_or(&[]) {
            let other = &wb["per_layer"][metric.as_str()];
            if e["exact"].as_bool() == Some(true) && e["value"] != other["value"] {
                diffs.push(format!(
                    "{name}: {metric} {} -> {}",
                    e["value"], other["value"]
                ));
            }
        }
    }
    if diffs.is_empty() {
        out.push_str("exact counts: all identical\n");
    } else {
        out.push_str("exact counts that differ:\n");
        for d in diffs {
            out.push_str(&format!("  {d}\n"));
        }
    }
    (out, any_worse)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let bounds = bounds(crate::BENCHMARK_JSON)?;
    let (report, any_worse) = compare(&load(a)?, &load(b)?, &bounds);
    print!("{report}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
