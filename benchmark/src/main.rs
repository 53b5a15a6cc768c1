//! `blockhead-bench` — the ledger every performance claim about the
//! blockhead simulator is measured with.
//!
//! ```text
//! blockhead-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! blockhead-bench run [--seed <n>] [--seconds <s>] [--reps <n>]
//!                     [--only <workload>] [--traced-only] [--out <file>]
//! blockhead-bench compare <a.json> <b.json>
//! blockhead-bench list
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, the result as one JSON object on the last line of standard
//! output. `run` drives that form once per workload and repetition, each
//! in a child process of its own, one at a time. See `README.md`.

mod compare;
mod driver;
mod harness;
mod metrics;
mod probes;
mod recorders;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `bench.span_coverage` outside this range fails the traced run.
pub const COVERAGE_FLOOR: f64 = 0.90;
pub const COVERAGE_CEIL: f64 = 1.05;

/// The contract this benchmark is written to.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage:
  blockhead-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  blockhead-bench run [--seed <n>] [--seconds <s>] [--reps <n>] [--only <workload>] [--traced-only] [--out <file>]
  blockhead-bench compare <a.json> <b.json>
  blockhead-bench list";

/// `--flag value` pairs and bare flags, in any order.
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String], bare: &[&str]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = if bare.contains(&flag.as_str()) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("`{flag}` needs a value"))?
                        .clone(),
                )
            };
            pairs.push((flag.clone(), value));
        }
        Ok(Args { pairs })
    }

    pub fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("`{flag} {v}`: not a whole number"))
            })
            .transpose()
    }

    fn allow(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag `{f}`")),
            None => Ok(()),
        }
    }
}

/// `BH_*` variables change what the crates do (`BH_QUEUE_CORE`,
/// `BH_OBS`, `BH_TRACE`, `BH_QUICK`, `BH_BACKEND`, `BH_ZBD_DIR`,
/// `BH_JOBS`, …). A measurement taken under one is not a measurement of
/// the library defaults, so the benchmark refuses to start.
pub fn hermetic() -> Result<(), String> {
    refuse_bh_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
}

fn refuse_bh_vars(names: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = names.filter(|k| k.starts_with("BH_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with {} set: unset every BH_* variable",
            set.join(", ")
        ))
    }
}

/// A scratch directory beside the executable (inside the build
/// directory, so inside the checkout), removed on every exit path.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create() -> Result<ScratchDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let parent = exe.parent().ok_or("executable has no directory")?;
        let path = parent.join(format!("blockhead-bench-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes the directory and everything in it, and fails if
    /// anything is left behind.
    pub fn remove(self) -> Result<(), String> {
        let path = self.path.clone();
        drop(self);
        if path.exists() {
            Err(format!("scratch directory {} left behind", path.display()))
        } else {
            Ok(())
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The contract form: one workload, here, now.
fn measure(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &[])?;
    args.allow(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name = args.get("--workload").ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}`; one of: {}", names.join(", "))
    })?;
    let seed = args.number("--seed")?.ok_or("--seed is required")?;
    let seconds = args.number("--seconds")?.ok_or("--seconds is required")?;
    let traced = match args.get("--trace").ok_or("--trace is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: 0 or 1")),
    };
    hermetic()?;

    let scratch = ScratchDir::create()?;
    let mut outcome = if traced {
        harness::measure_traced(spec, seed, seconds, scratch.path())
    } else {
        harness::measure_untraced(spec, seed, seconds, scratch.path())
    };
    if let Err(e) = scratch.remove() {
        outcome.failed += 1;
        outcome.correct = false;
        outcome.messages.push(e);
    }

    for &(name, unit, value) in &outcome.metrics {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    for m in &outcome.messages {
        eprintln!("{}: {m}", outcome.workload);
    }
    println!("detail: {}", outcome.detail().dump());
    println!("{}", outcome.result_line());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() -> ExitCode {
    for s in &workloads::SPECS {
        println!("{:<18} {}", s.name, s.why);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => driver::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some("list") => Ok(list()),
        Some(flag) if flag.starts_with("--") => measure(&args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("blockhead-bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
