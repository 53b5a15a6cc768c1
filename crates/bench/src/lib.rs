//! The experiment harness.
//!
//! Each module of [`expt`] regenerates one table/figure/claim of the
//! paper (the mapping lives in DESIGN.md §3 and EXPERIMENTS.md), and
//! [`EXPERIMENTS`] registers them by name for the `run_all` binary. Every
//! experiment:
//!
//! - runs at paper scale by default, or reduced scale with `--quick`, for
//!   CI and smoke tests;
//! - returns a [`bh_core::Report`], which `run_all <name>` prints to
//!   stdout and archives as `<results_dir>/<name>.json`;
//! - makes `run_all` exit non-zero if any claim band fails, so the whole
//!   harness is scriptable.
//!
//! Settable inputs: `--quick`, `--trace` and `--jobs N` on the command
//! line; `BH_RESULTS_DIR`, `BH_ZBD_DIR` and `BH_TRACE_CAP` in the
//! environment.

// The experiment modules call the helpers below as `bh_bench::…`, the
// way they did as separate binaries.
extern crate self as bh_bench;

use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{Report, StackAdmin};
use bh_flash::{FlashConfig, Geometry};
use bh_fleet::{FleetConfig, FleetReport, FleetSession};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_json::Json;
use bh_obs::RunManifest;
use bh_trace::Tracer;
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::{ZnsConfig, ZnsDevice};
use std::path::PathBuf;
use std::time::Instant;

/// One registered experiment. `name` is what `run_all` selects it by
/// and the stem of its archived artifacts.
pub struct Experiment {
    pub name: &'static str,
    pub run: fn() -> Report,
}

/// Declares one `expt::<module>` per experiment and registers each as
/// `expt_<module>`, in `run_all`'s order.
macro_rules! experiments {
    ($($module:ident),* $(,)?) => {
        /// The paper's experiments, one module each.
        pub mod expt {
            $(pub mod $module;)*
        }

        /// Every experiment, in the order `run_all` prints them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: concat!("expt_", stringify!($module)),
            run: expt::$module::run,
        }),*];
    };
}

experiments![
    table1,
    wa_op,
    dram,
    latency,
    kv,
    salsa,
    append,
    placement,
    active_zones,
    cost,
    sched,
    cache_dram,
    fs_hints,
    gc_policy,
    qlc,
    fleet,
    fleet_scale,
    faults,
    qd,
    obs,
    backend,
];

fn flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// True when the experiment should run at reduced scale (`--quick`).
pub fn quick_mode() -> bool {
    flag("--quick")
}

/// True when event tracing was requested (`--trace`).
pub fn trace_enabled() -> bool {
    flag("--trace")
}

/// Splits `args` (the command line without the program name) into the
/// `--jobs N` value and the experiment names: everything that is not
/// `--quick`, `--trace` or `--jobs N`, in order. `--jobs` followed by
/// anything but a number is an error, never a silent default.
pub fn jobs_and_names(
    args: impl IntoIterator<Item = String>,
) -> Result<(Option<usize>, Vec<String>), String> {
    let mut jobs = None;
    let mut names = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "--trace" => {}
            "--jobs" => {
                let n = args.next().unwrap_or_default();
                jobs = Some(
                    n.parse()
                        .map_err(|_| format!("--jobs needs a number, got {n:?}"))?,
                );
            }
            _ => names.push(a),
        }
    }
    Ok((jobs, names))
}

/// A tracer honoring `--trace`, with ring capacity from `BH_TRACE_CAP`.
/// Disabled (zero-cost) when tracing was not requested.
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

/// Where zbd backing files land: `$BH_ZBD_DIR`, default the system
/// temp directory. CI points this at a job-scoped tmpdir.
pub fn zbd_dir() -> PathBuf {
    std::env::var_os("BH_ZBD_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// A process-unique backing-file path under [`zbd_dir`] for the named
/// experiment's device, so parallel experiment runs never collide on
/// one file.
pub fn zbd_path(name: &str) -> PathBuf {
    zbd_dir().join(format!("{name}-{}.zbd", std::process::id()))
}

/// Creates a fresh file-backed [`ZbdDevice`] mirroring `cfg`'s zone
/// geometry and limits, at [`zbd_path`]`(name)`. Any stale file from a
/// previous run is truncated. Panics on I/O or config errors — for an
/// experiment a broken backing file is fatal anyway, and the message
/// beats an unwrap chain at every call site.
pub fn zbd_device_mirroring(cfg: &ZnsConfig, name: &str) -> ZbdDevice {
    let path = zbd_path(name);
    ZbdDevice::create_file(ZbdConfig::mirror(cfg), &path)
        .unwrap_or_else(|e| panic!("cannot create zbd device at {}: {e}", path.display()))
}

/// Removes the named experiment's backing file. Best-effort cleanup for
/// the end of an experiment; missing files are fine.
pub fn zbd_cleanup(name: &str) {
    let _ = std::fs::remove_file(zbd_path(name));
}

/// The run manifest for the named experiment (or `perf_gate`): name,
/// scale, a digest of the full argv, crate version, and the git revision
/// when the working directory is a checkout. Experiments add their seeds
/// and schema ids before exporting.
pub fn manifest(name: &str) -> RunManifest {
    let argv: Vec<String> = std::env::args().collect();
    RunManifest::collect(name, quick_mode(), &argv.join(" "))
}

/// Where experiment artifacts land: `$BH_RESULTS_DIR`, default
/// `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
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
/// `<results_dir>/<name>.trace.json` (loadable in Perfetto or
/// `chrome://tracing`). No-op when the tracer is disabled.
pub fn export_trace(name: &str, tracer: &Tracer) {
    if !tracer.enabled() {
        return;
    }
    let events = tracer.events();
    if tracer.dropped() > 0 {
        eprintln!(
            "trace ring dropped {} events; raise BH_TRACE_CAP to keep them",
            tracer.dropped()
        );
    }
    archive_named(
        &format!("{name}.trace.json"),
        &bh_trace::export::to_chrome_trace(&events),
    );
}

/// Attaches the named experiment's [`RunManifest`] to a rendered report
/// JSON. The manifest rides only on the *archived* artifact — stdout
/// stays byte-identical across checkouts and argv orderings, which the
/// lockstep tests depend on. Unparseable documents pass through
/// unchanged.
fn with_run_manifest(name: &str, json_text: &str) -> String {
    match bh_json::parse(json_text) {
        Ok(mut doc) => {
            let mut m = manifest(name);
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
/// attached) to `<results_dir>/<name>.json`, and exits non-zero when a
/// claim band failed.
pub fn finish(name: &str, report: Report) -> ! {
    println!("{}", report.render());
    archive_named(
        &format!("{name}.json"),
        &with_run_manifest(name, &report.to_json()),
    );
    if report.all_claims_hold() {
        std::process::exit(0);
    }
    eprintln!("one or more claim bands FAILED");
    std::process::exit(1);
}

/// The flash geometry of the E16/E17 stack pair (and `perf_gate`'s
/// `zns_reclaim_heavy` row): 8 blocks per plane under `--quick`, else
/// 16.
pub fn stack_geometry() -> Geometry {
    Geometry::experiment(if quick_mode() { 8 } else { 16 })
}

/// The conventional half of the E16/E17 stack pair: a 15%-OP FTL.
pub fn conv_stack() -> Box<dyn StackAdmin> {
    let dev = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(stack_geometry()), 0.15)).unwrap();
    Box::new(dev)
}

/// The zoned half of the E16/E17 stack pair: `BlockEmu` over 4-block
/// zones with an 8-zone active limit and a 1/8 reserve.
pub fn zns_stack() -> Box<dyn StackAdmin> {
    let cfg = ZnsConfig::new(FlashConfig::tlc(stack_geometry()), 4).with_zone_limits(8);
    let dev = ZnsDevice::new(cfg).unwrap();
    let reserve = (dev.num_zones() / 8).max(4);
    Box::new(BlockEmu::new(dev, reserve, ReclaimPolicy::Immediate))
}

/// Wall-clock seconds for one fleet run at the given worker count.
pub(crate) fn timed(cfg: &FleetConfig, jobs: usize) -> (FleetReport, f64) {
    let start = Instant::now();
    let run = FleetSession::new(cfg)
        .with_jobs(jobs)
        .run()
        .expect("fleet run");
    (run.report, start.elapsed().as_secs_f64())
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
    fn jobs_flag_takes_a_number_or_fails() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            jobs_and_names(argv(&["--quick", "--jobs", "4", "expt_qd", "--trace"])),
            Ok((Some(4), argv(&["expt_qd"])))
        );
        assert_eq!(
            jobs_and_names(argv(&["expt_kv"])),
            Ok((None, argv(&["expt_kv"])))
        );
        // A name after `--jobs` is not swallowed into "run everything".
        assert!(jobs_and_names(argv(&["--jobs", "expt_qd"])).is_err());
        assert!(jobs_and_names(argv(&["--quick", "--jobs"])).is_err());
    }

    #[test]
    fn scaled_picks_by_mode() {
        // Test processes are never started with --quick.
        assert_eq!(scaled(10, 2), 10);
    }
}
