//! `run`: every workload, each repetition in a child process of its
//! own, strictly one after another.
//!
//! A child is this executable in its contract form, so `peak_rss_mb` is
//! one workload's and nothing one workload allocates or warms is there
//! for the next. The untraced repetitions give the end-to-end metrics
//! (median over `--reps`), one traced child gives the per-layer ones,
//! and all of them must agree on the fingerprint of the simulated
//! results.

use crate::harness::{median, spread};
use crate::metrics::{per_layer, END_TO_END};
use crate::workloads::SPECS;
use crate::{hermetic, Args};
use bh_json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub const SCHEMA: &str = "blockhead-bench/1";
const DEFAULT_SEED: u64 = 1;
const DEFAULT_REPS: u64 = 3;

/// bh-zbd has no sync policy to choose: its media layer never calls
/// `fsync`. Stated in every result so that a later durability change
/// (ROADMAP item 3) shows up as a changed label, not only as a slower
/// `zbd_emu_file`.
const ZBD_FLUSH_POLICY: &str = "library default: none (bh-zbd never calls fsync)";

pub fn default_seconds() -> u64 {
    bh_json::parse(crate::BENCHMARK_JSON)
        .ok()
        .and_then(|j| j["run_seconds"].as_u64())
        .unwrap_or(8)
}

fn tool_version(tool: &str, args: &[&str], dir: &Path) -> String {
    Command::new(tool)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What `run` was asked to do.
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    /// Untraced repetitions per workload; 0 under `--traced-only`.
    pub reps: u64,
    pub only: Option<&'static str>,
    pub out: Option<PathBuf>,
}

impl Plan {
    pub fn parse(args: &[String]) -> Result<Plan, String> {
        let args = Args::parse(args, &["--traced-only"])?;
        args.allow(&[
            "--seed",
            "--seconds",
            "--reps",
            "--only",
            "--traced-only",
            "--out",
        ])?;
        let only = match args.get("--only") {
            None => None,
            Some(o) => Some(
                SPECS
                    .iter()
                    .find(|s| s.name == o)
                    .map(|s| s.name)
                    .ok_or_else(|| format!("--only {o}: no such workload (try `list`)"))?,
            ),
        };
        Ok(Plan {
            seed: args.number("--seed")?.unwrap_or(DEFAULT_SEED),
            seconds: args.number("--seconds")?.unwrap_or_else(default_seconds),
            reps: if args.has("--traced-only") {
                0
            } else {
                args.number("--reps")?.unwrap_or(DEFAULT_REPS).max(1)
            },
            only,
            out: args.get("--out").map(PathBuf::from),
        })
    }

    /// The result file before any workload has run: what produced the
    /// numbers, and the claim they support (none).
    pub fn result_header(&self) -> Json {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut env = Json::obj();
        env.set(
            "git_rev",
            tool_version("git", &["rev-parse", "HEAD"], manifest),
        )
        .set("rustc", tool_version("rustc", &["--version"], manifest))
        .set("nproc", nproc)
        .set("seed", self.seed)
        .set("seconds", self.seconds)
        .set("reps", self.reps)
        .set("zbd_flush_policy", ZBD_FLUSH_POLICY);
        let mut result = Json::obj();
        result
            .set("schema", SCHEMA)
            .set("env", env)
            .set("only", self.only.map_or(Json::Null, Json::from));
        result
    }
}

/// One child's parsed output.
struct Child {
    result: Json,
    detail: Json,
}

fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result =
        bh_json::parse(last).map_err(|e| format!("{workload}: child printed no result ({e})"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or_else(|| format!("{workload}: child printed no detail line"))
        .and_then(|d| bh_json::parse(d).map_err(|e| format!("{workload}: bad detail: {e}")))?;
    Ok(Child { result, detail })
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result["metrics"][name]["value"].as_f64().unwrap_or(0.0)
}

/// Runs one workload's children and folds them into its result object.
/// The second value is the number of failures seen.
fn run_workload(
    name: &'static str,
    seed: u64,
    seconds: u64,
    reps: u64,
) -> Result<(Json, u64), String> {
    let mut failures = 0;
    let mut attempted = 0;
    let mut failed = 0;
    let mut fingerprints: Vec<String> = Vec::new();
    let mut absorb = |c: &Child| {
        attempted += c.result["attempted"].as_u64().unwrap_or(0);
        failed += c.result["failed"].as_u64().unwrap_or(0);
        if c.result["correct"].as_bool() != Some(true) {
            failures += 1;
        }
        fingerprints.push(c.detail["fingerprint"].as_str().unwrap_or("").to_string());
    };

    let mut w = Json::obj();
    w.set("name", name);
    let mut rates = Vec::new();
    if reps > 0 {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for rep in 0..reps {
            eprintln!("{name}: untraced rep {}/{reps}", rep + 1);
            let c = child(name, seed, seconds, false)?;
            absorb(&c);
            for (m, v) in END_TO_END.iter().zip(&mut values) {
                v.push(metric_value(&c.result, m.name));
            }
        }
        rates = values[0].clone();
        let mut e2e = Json::obj();
        for (m, v) in END_TO_END.iter().zip(&values) {
            let mut entry = Json::obj();
            entry
                .set("median", median(v))
                .set("unit", m.unit)
                .set("reps", v.len())
                .set(
                    "values",
                    Json::Arr(v.iter().map(|&x| Json::from(x)).collect()),
                );
            println!(
                "{name:<18} {:<36} {:>18.6} {} (median of {})",
                m.name,
                median(v),
                m.unit,
                v.len()
            );
            e2e.set(m.name, entry);
        }
        w.set("end_to_end", e2e);
    }

    eprintln!("{name}: traced pass");
    let c = child(name, seed, seconds, true)?;
    absorb(&c);
    let mut layers = Json::obj();
    if let Some(metrics) = c.result["metrics"].as_obj() {
        for (metric, entry) in metrics {
            let mut value = entry["value"].as_f64().unwrap_or(0.0);
            // Across the repetitions, when there are any to span.
            if metric == "bench.rep_spread_frac" && rates.len() > 1 {
                value = spread(&rates);
            }
            let unit = entry["unit"].as_str().unwrap_or("");
            println!("{name:<18} {metric:<36} {value:>18.6} {unit}");
            let mut e = Json::obj();
            e.set("value", value)
                .set("unit", unit)
                .set("exact", per_layer(metric).is_some_and(|m| m.exact));
            layers.set(metric.as_str(), e);
        }
    }
    w.set("per_layer", layers);
    w.set("spans", c.detail["spans"].clone());

    if fingerprints.windows(2).any(|p| p[0] != p[1]) {
        eprintln!("{name}: simulated results differ between passes: {fingerprints:?}");
        failures += 1;
        failed += 1;
    }
    attempted += 1;
    w.set("fingerprint", fingerprints[0].as_str())
        .set("attempted", attempted)
        .set("failed", failed)
        .set("failed_ops_share", failed as f64 / attempted.max(1) as f64);
    println!(
        "{name:<18} {:<36} {:>18.6} fraction ({failed} of {attempted})",
        "failed_ops_share",
        failed as f64 / attempted.max(1) as f64
    );
    Ok((w, failures))
}

fn default_out(seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("run-seed{seed}.json"))
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let plan = Plan::parse(args)?;
    hermetic()?;
    let mut workloads = Json::arr();
    let mut failures = 0;
    // Strictly one after another: the workloads share two cores.
    for spec in SPECS
        .iter()
        .filter(|s| plan.only.is_none_or(|o| o == s.name))
    {
        let (w, f) = run_workload(spec.name, plan.seed, plan.seconds, plan.reps)?;
        failures += f;
        workloads.push(w);
    }

    let mut result = plan.result_header();
    result
        .set("workloads", workloads)
        // This benchmark defines the ruler; it claims no gain.
        .set("claim", Json::Null);
    let out = plan.out.clone().unwrap_or_else(|| default_out(plan.seed));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    println!("\"claim\": null");
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("blockhead-bench: {failures} failure(s)");
        ExitCode::FAILURE
    })
}
