//! Lockstep determinism gate for the experiment reports the victim-index
//! rewrite must not perturb: run a quick-mode experiment twice and
//! require byte-identical stdout. Any change to GC victim selection
//! order, tie-breaking, or op scheduling shows up here immediately.
//!
//! The same harness also guards the observability transparency
//! property across process boundaries: an experiment run with
//! `BH_OBS=0` and with `BH_OBS=1` must print byte-identical reports,
//! because the live counter registry observes and never steers.
//!
//! Every run goes through `run_all`, the harness's one binary, so these
//! tests also pin how it selects experiments by name.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn results_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_all_quick(names: &[&str], results_dir: &Path, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.arg("--quick")
        .args(names)
        .env("BH_RESULTS_DIR", results_dir)
        .env_remove("BH_OBS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output()
        .unwrap_or_else(|e| panic!("spawn run_all: {e}"))
}

fn quick_stdout_with_env(name: &str, results_dir: &Path, env: &[(&str, &str)]) -> Vec<u8> {
    let out = run_all_quick(&[name], results_dir, env);
    assert!(
        out.status.success(),
        "run_all --quick {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_lockstep(name: &str) {
    let dir = results_dir(name);
    let first = quick_stdout_with_env(name, &dir, &[]);
    let second = quick_stdout_with_env(name, &dir, &[]);
    assert_eq!(
        first, second,
        "{name} quick report is not byte-deterministic across runs"
    );
}

#[test]
fn expt_wa_op_quick_report_is_byte_identical() {
    assert_lockstep("expt_wa_op");
}

#[test]
fn expt_gc_policy_quick_report_is_byte_identical() {
    assert_lockstep("expt_gc_policy");
}

#[test]
fn expt_qd_quick_report_is_byte_identical() {
    assert_lockstep("expt_qd");
}

/// The counters-on and counters-off runs of an instrumented experiment
/// must print the same bytes: obs is observation-only.
#[test]
fn obs_on_and_off_reports_are_byte_identical() {
    for name in ["expt_wa_op", "expt_gc_policy"] {
        let dir = results_dir(&format!("{name}_obs"));
        let off = quick_stdout_with_env(name, &dir, &[("BH_OBS", "0")]);
        let on = quick_stdout_with_env(name, &dir, &[("BH_OBS", "1")]);
        assert_eq!(
            off, on,
            "{name}: BH_OBS=0 and BH_OBS=1 reports differ — obs perturbed the run"
        );
    }
}

/// Several names run as child processes, and the combined stdout is
/// each single-name run's stdout under its header, in the order given,
/// then the summary.
#[test]
fn several_names_print_each_single_run_then_the_summary() {
    let dir = results_dir("several_names");
    let out = run_all_quick(&["expt_cost", "expt_table1"], &dir, &[]);
    assert!(out.status.success());
    let mut expected = Vec::new();
    for name in ["expt_cost", "expt_table1"] {
        expected.extend(format!("\n################ {name} ################\n").bytes());
        expected.extend(quick_stdout_with_env(name, &dir, &[]));
    }
    expected.extend(
        "\n================ summary ================\n\
         2 of 2 experiments passed all claim bands\nALL CLAIMS HOLD\n"
            .bytes(),
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&expected)
    );
}

/// An unknown name is a usage error: exit 2, the registry listed on
/// stderr, and nothing runs — not even the valid name beside it.
#[test]
fn unknown_name_lists_the_registry_and_runs_nothing() {
    let dir = results_dir("unknown_name");
    let out = run_all_quick(&["expt_cost", "expt_nope"], &dir, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(!dir.exists(), "an experiment ran and archived a report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expt_nope"));
    assert_eq!(bh_bench::EXPERIMENTS.len(), 21);
    for e in bh_bench::EXPERIMENTS {
        assert!(stderr.contains(e.name), "stderr does not list {}", e.name);
    }
}
