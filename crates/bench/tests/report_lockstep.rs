//! Lockstep determinism gate for the experiment reports the victim-index
//! rewrite must not perturb: run a quick-mode experiment twice and
//! require byte-identical stdout. Any change to GC victim selection
//! order, tie-breaking, or op scheduling shows up here immediately.
//!
//! The same harness also guards the observability transparency
//! property across process boundaries: an experiment run with
//! `BH_OBS=0` and with `BH_OBS=1` must print byte-identical reports,
//! because the live counter registry observes and never steers.

use std::process::Command;

fn quick_stdout_with_env(bin: &str, results_dir: &str, env: &[(&str, &str)]) -> Vec<u8> {
    let mut cmd = Command::new(bin);
    cmd.arg("--quick")
        .env("BH_RESULTS_DIR", results_dir)
        .env_remove("BH_QUICK")
        .env_remove("BH_TRACE")
        .env_remove("BH_OBS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} --quick failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn quick_stdout(bin: &str, results_dir: &str) -> Vec<u8> {
    quick_stdout_with_env(bin, results_dir, &[])
}

fn assert_lockstep(bin: &str, name: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    let first = quick_stdout(bin, dir);
    let second = quick_stdout(bin, dir);
    assert_eq!(
        first, second,
        "{name} quick report is not byte-deterministic across runs"
    );
}

#[test]
fn expt_wa_op_quick_report_is_byte_identical() {
    assert_lockstep(env!("CARGO_BIN_EXE_expt_wa_op"), "expt_wa_op");
}

#[test]
fn expt_gc_policy_quick_report_is_byte_identical() {
    assert_lockstep(env!("CARGO_BIN_EXE_expt_gc_policy"), "expt_gc_policy");
}

/// The counters-on and counters-off runs of an instrumented experiment
/// must print the same bytes: obs is observation-only.
#[test]
fn obs_on_and_off_reports_are_byte_identical() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_expt_wa_op"), "expt_wa_op_obs"),
        (env!("CARGO_BIN_EXE_expt_gc_policy"), "expt_gc_policy_obs"),
    ] {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let dir = dir.to_str().unwrap();
        let off = quick_stdout_with_env(bin, dir, &[("BH_OBS", "0")]);
        let on = quick_stdout_with_env(bin, dir, &[("BH_OBS", "1")]);
        assert_eq!(
            off, on,
            "{name}: BH_OBS=0 and BH_OBS=1 reports differ — obs perturbed the run"
        );
    }
}
