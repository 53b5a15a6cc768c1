//! Shared scaffolding for the experiment binaries.
//!
//! Each `expt_*` binary regenerates one table/figure/claim of the paper
//! (the mapping lives in DESIGN.md §3 and EXPERIMENTS.md). All binaries:
//!
//! - run at paper scale by default, or reduced scale with `--quick` (or
//!   `BH_QUICK=1`), for CI and smoke tests;
//! - print a [`bh_core::Report`] to stdout;
//! - exit non-zero if any claim band fails, so the whole harness is
//!   scriptable.

use bh_core::{Backend, Report};
use bh_json::Json;
use bh_obs::{Obs, PhaseGuard, RunManifest};
use bh_trace::Tracer;
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::ZnsConfig;
use std::path::PathBuf;

/// True when the binary should run at reduced scale.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("BH_QUICK").is_some()
}

/// True when event tracing was requested, via `--trace` or a non-empty,
/// non-`0` `BH_TRACE`.
pub fn trace_enabled() -> bool {
    std::env::args().any(|a| a == "--trace")
        || std::env::var("BH_TRACE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
}

/// A tracer honoring `--trace` / `BH_TRACE`, with ring capacity from
/// `BH_TRACE_CAP`. Disabled (zero-cost) when tracing was not requested.
pub fn tracer() -> Tracer {
    if !trace_enabled() {
        return Tracer::disabled();
    }
    let cap = std::env::var("BH_TRACE_CAP")
        .ok()
        .and_then(|c| c.parse().ok())
        .unwrap_or(bh_trace::DEFAULT_CAPACITY);
    Tracer::ring(cap)
}

/// True unless live counters were switched off with `BH_OBS=0`.
///
/// Counters default to *on* because they are observation-only (the
/// transparency property test proves every report is byte-identical
/// either way) and cost one branch plus one `u64` add per bump.
pub fn obs_enabled() -> bool {
    std::env::var("BH_OBS").map(|v| v != "0").unwrap_or(true)
}

/// A live counter registry honoring `BH_OBS` (`BH_OBS=0` returns the
/// inert disabled handle). Install it on a device stack with
/// `set_obs` and snapshot it after the run.
pub fn obs() -> Obs {
    if obs_enabled() {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// The zoned-device substrate for this invocation, honoring
/// `--backend sim|zbd` and `BH_BACKEND` (argv wins, default `sim`).
/// An unknown name is a usage error and exits non-zero immediately —
/// better than silently benchmarking the wrong substrate.
pub fn backend() -> Backend {
    match Backend::from_env() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Where zbd backing files land: `$BH_ZBD_DIR`, default the system
/// temp directory. CI points this at a job-scoped tmpdir.
pub fn zbd_dir() -> PathBuf {
    std::env::var_os("BH_ZBD_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// A process-unique backing-file path under [`zbd_dir`] for the tagged
/// device, so parallel experiment runs never collide on one file.
pub fn zbd_path(tag: &str) -> PathBuf {
    zbd_dir().join(format!("{}-{tag}-{}.zbd", exe_stem(), std::process::id()))
}

/// Creates a fresh file-backed [`ZbdDevice`] mirroring `cfg`'s zone
/// geometry and limits, at [`zbd_path`]`(tag)`. Any stale file from a
/// previous run is truncated. Panics on I/O or config errors — for an
/// experiment binary a broken backing file is fatal anyway, and the
/// message beats an unwrap chain at every call site.
pub fn zbd_device_mirroring(cfg: &ZnsConfig, tag: &str) -> ZbdDevice {
    let path = zbd_path(tag);
    ZbdDevice::create_file(ZbdConfig::mirror(cfg), &path)
        .unwrap_or_else(|e| panic!("cannot create zbd device at {}: {e}", path.display()))
}

/// Removes the tagged device's backing file. Best-effort cleanup for
/// the end of an experiment; missing files are fine.
pub fn zbd_cleanup(tag: &str) {
    let _ = std::fs::remove_file(zbd_path(tag));
}

/// The run manifest for this invocation: binary name, scale, a digest
/// of the full argv, crate version, and the git revision when the
/// working directory is a checkout. Experiments add their seeds and
/// schema ids before exporting.
pub fn manifest() -> RunManifest {
    let argv: Vec<String> = std::env::args().collect();
    RunManifest::collect(&exe_stem(), quick_mode(), &argv.join(" "))
}

/// Where experiment artifacts land: `$BH_RESULTS_DIR`, default
/// `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// The experiment's name: the executable's file stem.
fn exe_stem() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "experiment".to_string())
}

/// Writes `contents` to `<results_dir>/<exe-stem><suffix>`, creating the
/// directory. Archival is best-effort: failures are reported, not fatal.
fn archive(suffix: &str, contents: &str) {
    archive_named(&format!("{}{suffix}", exe_stem()), contents);
}

/// Writes `contents` to `<results_dir>/<file>` atomically: the bytes
/// land in a process-unique temp file first and are renamed into place,
/// so experiments running in parallel (`run_all --jobs`) can never
/// interleave or truncate each other's artifacts. Best-effort: failures
/// are reported, not fatal.
pub fn archive_named(file: &str, contents: &str) {
    let dir = results_dir();
    let path = dir.join(file);
    let tmp = dir.join(format!(".{file}.{}.tmp", std::process::id()));
    let write = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&tmp, contents))
        .and_then(|()| std::fs::rename(&tmp, &path));
    match write {
        Ok(()) => eprintln!("archived {}", path.display()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("could not archive {}: {e}", path.display());
        }
    }
}

/// Exports the tracer's retained events as Chrome `trace_event` JSON to
/// `<results_dir>/<exe-stem>.trace.json` (loadable in Perfetto or
/// `chrome://tracing`). No-op when the tracer is disabled.
pub fn export_trace(tracer: &Tracer) {
    if !tracer.enabled() {
        return;
    }
    let _p = PhaseGuard::enter("trace_flush");
    let events = tracer.events();
    if tracer.dropped() > 0 {
        eprintln!(
            "trace ring dropped {} events; raise BH_TRACE_CAP to keep them",
            tracer.dropped()
        );
    }
    archive(".trace.json", &bh_trace::export::to_chrome_trace(&events));
}

/// Attaches this invocation's [`RunManifest`] to a rendered report
/// JSON. The manifest rides only on the *archived* artifact — stdout
/// stays byte-identical across checkouts and argv orderings, which the
/// lockstep tests depend on. Unparseable documents pass through
/// unchanged.
fn with_run_manifest(json_text: &str) -> String {
    match bh_json::parse(json_text) {
        Ok(mut doc) => {
            let mut m = manifest();
            if let Some(schema) = doc.get("schema").and_then(Json::as_str) {
                m = m.with_schema(schema);
            }
            doc.set("manifest", m.to_json());
            doc.pretty()
        }
        Err(_) => json_text.to_string(),
    }
}

/// Prints the report, archives its JSON (with the run manifest
/// attached) to `<results_dir>/<exe-stem>.json`, and exits non-zero
/// when a claim band failed.
pub fn finish(report: Report) -> ! {
    println!("{}", report.render());
    archive(".json", &with_run_manifest(&report.to_json()));
    if report.all_claims_hold() {
        std::process::exit(0);
    }
    eprintln!("one or more claim bands FAILED");
    std::process::exit(1);
}

/// Formats a write-amplification factor for report tables. WA is
/// infinite when the device did internal work with zero host programs
/// (e.g. a pure-relocation interval); render that case explicitly
/// instead of relying on float formatting.
pub fn fmt_wa(wa: f64) -> String {
    if wa.is_finite() {
        format!("{wa:.2}")
    } else {
        "inf (no host writes)".to_string()
    }
}

/// Peak resident set size in KiB, from `/proc/self/status`. Prefers
/// `VmHWM` (the high-water mark); procfs variants that omit it (some
/// hardened containers) fall back to `VmRSS`, a lower bound that is
/// still a real measurement. `None` — rendered as JSON `null` — when
/// neither field is readable; reporting `0` would look like a number.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_kb(&status, "VmHWM:").or_else(|| status_field_kb(&status, "VmRSS:"))
}

/// Parses one `<field>: <n> kB` line out of a `/proc/self/status`
/// document. Factored out of [`peak_rss_kb`] so the parser is testable
/// without a live procfs.
fn status_field_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
}

/// Scale selector: `full` at paper scale, `quick` under `--quick`.
pub fn scaled(full: u64, quick: u64) -> u64 {
    if quick_mode() {
        quick
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_prefers_hwm_and_falls_back() {
        let with_hwm = "VmPeak:\t  999 kB\nVmHWM:\t  1836 kB\nVmRSS:\t  1500 kB\n";
        assert_eq!(
            status_field_kb(with_hwm, "VmHWM:").or_else(|| status_field_kb(with_hwm, "VmRSS:")),
            Some(1836)
        );
        let rss_only = "Name:\tx\nVmRSS:\t  1500 kB\n";
        assert_eq!(
            status_field_kb(rss_only, "VmHWM:").or_else(|| status_field_kb(rss_only, "VmRSS:")),
            Some(1500)
        );
        assert_eq!(status_field_kb("Name:\tx\n", "VmHWM:"), None);
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        // The container runs linux with a full procfs: a null here is
        // exactly the regression this helper exists to prevent.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
        }
    }

    #[test]
    fn scaled_picks_by_mode() {
        // Test processes have no --quick argument and no BH_QUICK.
        if std::env::var_os("BH_QUICK").is_none() {
            assert_eq!(scaled(10, 2), 10);
        }
    }
}
