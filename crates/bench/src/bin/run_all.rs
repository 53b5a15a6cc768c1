//! The experiment harness's one binary: runs one, several or all of the
//! registered experiments and summarizes pass/fail.
//!
//! ```text
//! cargo run --release -p bh-bench --bin run_all -- [--quick] [--trace] [--jobs N] [expt_… …]
//! ```
//!
//! With exactly one name the experiment runs in this process: its report
//! goes to stdout, its JSON to `$BH_RESULTS_DIR` (default `results/`),
//! and the exit code is 0 iff every claim band holds. An experiment
//! that stops on an error prints `<name>: <error>` to stderr and exits
//! 1.
//!
//! With no names (all experiments) or several, each runs as a child
//! process `run_all [--quick] [--trace] <name>`, so an error or a
//! panic stays one FAILED row and per-experiment peak RSS stays
//! meaningful. `--jobs N` drives up to N at once on the fleet engine's
//! ordered worker pool (`bh_fleet::run_ordered`); the default is the
//! machine's available parallelism. Output is captured per experiment
//! and printed in the order the names were given, each as soon as every
//! one before it has finished, so logs look identical no matter how many
//! jobs ran. Archiving is atomic, so parallel runs never interleave
//! artifacts.

use bh_bench::{Experiment, EXPERIMENTS};
use std::convert::Infallible;
use std::process::Command;

fn main() {
    let (jobs, names) = bh_bench::jobs_and_names(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });
    let selected: Vec<&Experiment> = if names.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| EXPERIMENTS.iter().find(|e| e.name == n).ok_or(n))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|n| {
                eprintln!("unknown experiment {n:?}; expected any of:");
                for e in EXPERIMENTS {
                    eprintln!("  {}", e.name);
                }
                std::process::exit(2);
            })
    };
    if let [one] = selected[..] {
        bh_bench::finish(one.name, (one.run)());
    }

    let jobs = jobs
        .unwrap_or_else(bh_fleet::default_jobs)
        .clamp(1, selected.len());
    let me = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("run_all: cannot locate this executable to spawn experiments: {e}");
        std::process::exit(2);
    });
    eprintln!("running {} experiments with {jobs} job(s)", selected.len());

    // The window spans every experiment: a narrower one would park
    // idle workers behind a long one such as `expt_wa_op`.
    let n = selected.len() as u32;
    let mut failures = Vec::new();
    let Ok(()) = bh_fleet::run_ordered(
        jobs,
        0..n,
        n,
        |k| {
            let e = selected[k as usize];
            let mut cmd = Command::new(&me);
            if bh_bench::quick_mode() {
                cmd.arg("--quick");
            }
            if bh_bench::trace_enabled() {
                cmd.arg("--trace");
            }
            let (ok, stdout, stderr) = match cmd.arg(e.name).output() {
                Ok(out) => (out.status.success(), out.stdout, out.stderr),
                Err(err) => (
                    false,
                    Vec::new(),
                    format!("cannot spawn: {err}\n").into_bytes(),
                ),
            };
            eprintln!("{}: {}", e.name, if ok { "ok" } else { "FAILED" });
            Ok::<_, Infallible>((ok, stdout, stderr))
        },
        |k, (ok, stdout, stderr)| {
            let name = selected[k as usize].name;
            println!("\n################ {name} ################");
            print!("{}", String::from_utf8_lossy(&stdout));
            eprint!("{}", String::from_utf8_lossy(&stderr));
            if !ok {
                failures.push(name);
            }
        },
    );
    println!("\n================ summary ================");
    println!(
        "{} of {} experiments passed all claim bands",
        selected.len() - failures.len(),
        selected.len()
    );
    if failures.is_empty() {
        println!("ALL CLAIMS HOLD");
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
