//! Lockstep gate for the experiment reports: run an experiment twice,
//! require byte-identical stdout, and require it to equal the checked-in
//! `tests/golden/<name>.txt` (quick mode) or `<name>.full.txt` (full
//! scale). Any change to GC victim selection order, tie-breaking, op
//! scheduling or the run loop shows up here immediately, with the first
//! line that moved. The cheap host-reclaim experiments and the cheap
//! experiments that drive `Runner` in segments (E7, E16) are pinned at
//! both scales: a victim tie-break flip can leave a quick report
//! byte-identical and still move the full-scale one.
//!
//! A change that is meant to move a report regenerates its golden with
//! `run_all --quick <name> > crates/bench/tests/golden/<name>.txt` (or
//! `run_all <name> > crates/bench/tests/golden/<name>.full.txt`) and
//! names every moved cell in its change log.
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

fn run_all(quick: bool, names: &[&str], results_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(quick.then_some("--quick"))
        .args(names)
        .env("BH_RESULTS_DIR", results_dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn run_all: {e}"))
}

fn run_all_quick(names: &[&str], results_dir: &Path) -> Output {
    run_all(true, names, results_dir)
}

fn report(quick: bool, name: &str, results_dir: &Path) -> Vec<u8> {
    let out = run_all(quick, &[name], results_dir);
    assert!(
        out.status.success(),
        "run_all {name} (quick: {quick}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_lockstep(name: &str) {
    assert_lockstep_at(true, name);
}

/// [`assert_lockstep`] at full scale, against `<name>.full.txt`.
fn assert_full_lockstep(name: &str) {
    assert_lockstep_at(false, name);
}

fn assert_lockstep_at(quick: bool, name: &str) {
    let (scale, suffix) = if quick {
        ("quick", "")
    } else {
        ("full", ".full")
    };
    let dir = results_dir(&format!("{name}{suffix}"));
    let first = report(quick, name, &dir);
    let second = report(quick, name, &dir);
    assert_eq!(
        first, second,
        "{name} {scale} report is not byte-deterministic across runs"
    );
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}{suffix}.txt"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    let actual = String::from_utf8_lossy(&first);
    if actual != golden {
        let want: Vec<&str> = golden.lines().collect();
        let got: Vec<&str> = actual.lines().collect();
        // Texts that differ only in a trailing newline report the line
        // after the last one.
        let i = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .unwrap_or(want.len());
        panic!(
            "{name} {scale} report differs from {} at line {}:\n  golden: {:?}\n  actual: {:?}",
            golden_path.display(),
            i + 1,
            want.get(i),
            got.get(i),
        );
    }
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

#[test]
fn expt_latency_quick_report_is_byte_identical() {
    assert_lockstep("expt_latency");
}

#[test]
fn expt_obs_quick_report_is_byte_identical() {
    assert_lockstep("expt_obs");
}

#[test]
fn expt_qlc_quick_report_is_byte_identical() {
    assert_lockstep("expt_qlc");
}

#[test]
fn expt_sched_quick_report_is_byte_identical() {
    assert_lockstep("expt_sched");
}

#[test]
fn expt_placement_quick_report_is_byte_identical() {
    assert_lockstep("expt_placement");
}

#[test]
fn expt_placement_full_report_is_byte_identical() {
    assert_full_lockstep("expt_placement");
}

#[test]
fn expt_fs_hints_quick_report_is_byte_identical() {
    assert_lockstep("expt_fs_hints");
}

#[test]
fn expt_fs_hints_full_report_is_byte_identical() {
    assert_full_lockstep("expt_fs_hints");
}

#[test]
fn expt_kv_quick_report_is_byte_identical() {
    assert_lockstep("expt_kv");
}

#[test]
fn expt_salsa_quick_report_is_byte_identical() {
    assert_lockstep("expt_salsa");
}

#[test]
fn expt_salsa_full_report_is_byte_identical() {
    assert_full_lockstep("expt_salsa");
}

#[test]
fn expt_faults_quick_report_is_byte_identical() {
    assert_lockstep("expt_faults");
}

#[test]
fn expt_faults_full_report_is_byte_identical() {
    assert_full_lockstep("expt_faults");
}

/// Several names run as child processes, and the combined stdout is
/// each single-name run's stdout under its header, in the order given,
/// then the summary.
#[test]
fn several_names_print_each_single_run_then_the_summary() {
    let dir = results_dir("several_names");
    let out = run_all_quick(&["expt_cost", "expt_table1"], &dir);
    assert!(out.status.success());
    let mut expected = Vec::new();
    for name in ["expt_cost", "expt_table1"] {
        expected.extend(format!("\n################ {name} ################\n").bytes());
        expected.extend(report(true, name, &dir));
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
    let out = run_all_quick(&["expt_cost", "expt_nope"], &dir);
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
