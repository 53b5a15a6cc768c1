//! Wall-clock gate for what blockhead-bench does not measure.
//!
//! Every other binary in this harness measures *virtual* time; this one
//! times three deterministic workloads in *wall-clock* time:
//!
//! - `conv_gc_heavy_0op`: the conventional FTL at 0 % OP, where every
//!   steady-state write runs GC;
//! - `zns_reclaim_heavy`: the host block emulation over ZNS behind a
//!   minimum zone reserve, where reclaim does the work;
//! - `fleet_1k`: 1 024 tiny shards through the streaming session, plus
//!   a probe (the `fleet` object in the JSON) that asserts the report is
//!   byte-identical at 1 and `min(8, cores)` workers, gates per-thread
//!   scaling at ≥ 0.7 on machines with ≥ 4 cores, and gates peak RSS
//!   under a fixed base plus a constant per shard.
//!
//! The two GC rows also report wall nanoseconds per relocated page.
//! Each row runs [`REPS`] times and keeps its best wall time, which
//! `--check` compares against the baseline. Per-layer wall attribution
//! is blockhead-bench's traced ledger.
//!
//! Output lands in `BENCH_perf.json` (working directory, schema
//! `bh-perf/4`: per-row `sim_ops`, `wall_ms`, `sim_ops_per_sec`,
//! `relocated_pages?`, `ns_per_relocated_page?`, then totals, `fleet?`,
//! `peak_rss_kb` and the manifest) and
//! is archived to the results directory. `peak_rss_kb` is `null`, not
//! `0`, where [`bh_bench::peak_rss_kb`] cannot read it, because a zero
//! would read as a real measurement. A full run (no `--only`) also
//! appends `{rev, quick, rows: [{name, sim_ops_per_sec,
//! ns_per_relocated_page?}], peak_rss_kb}` to the tracked
//! `BENCH_history.jsonl`, `rev` being the HEAD the tree was built on.
//!
//! With `--check <baseline.json>` the run fails (exit 1) when any row's
//! sim_ops_per_sec falls more than [`MAX_REGRESS`] below the checked-in
//! baseline; a baseline that cannot be read or parsed exits 2 before
//! anything runs. The tolerance is generous because wall-clock numbers
//! vary across machines and sessions.

use bh_conv::{ConvConfig, ConvSsd, GcPolicy};
use bh_flash::{FlashConfig, Geometry};
use bh_fleet::{FleetConfig, FleetSession};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_json::Json;
use bh_metrics::Nanos;
use bh_workloads::{Op, OpMix, OpStream};
use bh_zns::{ZnsConfig, ZnsDevice};
use std::time::Instant;

/// Repetitions per row; the minimum wall time wins. A single ~200 ms
/// pass can swing ±10 % on a shared machine; the min of several runs is
/// robust to scheduler and cache noise.
const REPS: usize = 5;

/// How far below its baseline a row's sim_ops_per_sec may fall.
const MAX_REGRESS: f64 = 0.25;

/// One timed workload and its best wall time.
struct Measurement {
    name: &'static str,
    sim_ops: u64,
    wall_ms: f64,
    /// Pages the FTL's GC or the host's reclaim copied forward during
    /// the workload (0 where the workload does not report it).
    relocated_pages: u64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.sim_ops as f64 / (self.wall_ms / 1000.0)
        }
    }

    /// Wall nanoseconds per page GC relocated: the cost of the
    /// simulator's GC machinery with the write amplification divided
    /// out, so a model change that moves WA does not read as a speed
    /// change (and a speed-up cannot hide behind one).
    fn ns_per_relocated_page(&self) -> Option<f64> {
        (self.relocated_pages > 0).then(|| self.wall_ms * 1e6 / self.relocated_pages as f64)
    }
}

/// A workload: run once; returns (simulated ops, relocated pages).
type Workload = fn() -> (u64, u64);

/// Every row this gate runs, in order. `perf_baseline.json` names
/// exactly these.
const WORKLOADS: [(&str, Workload); 3] = [
    ("conv_gc_heavy_0op", conv_gc_heavy),
    ("zns_reclaim_heavy", zns_reclaim_heavy),
    ("fleet_1k", fleet_1k),
];

/// Runs one workload [`REPS`] times and keeps its best wall time.
fn timed(name: &'static str, run: Workload) -> Measurement {
    let mut sim_ops = 0;
    let mut relocated_pages = 0;
    let mut wall_ms = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        (sim_ops, relocated_pages) = run();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    let m = Measurement {
        name,
        sim_ops,
        wall_ms,
        relocated_pages,
    };
    let ops = m.ops_per_sec();
    eprintln!("{name}: {sim_ops} ops in {wall_ms:.0} ms ({ops:.0} ops/s, best of {REPS})");
    if let Some(ns) = m.ns_per_relocated_page() {
        eprintln!("{name}: {ns:.1} wall ns per relocated page ({relocated_pages} pages)");
    }
    m
}

/// The conventional FTL with zero overprovisioning: every steady-state
/// write triggers GC, so victim selection and free-list maintenance
/// dominate the simulator's own cost. Many small blocks per plane put
/// the old O(sealed) scans in the worst light a realistic device shape
/// allows (thousands of blocks, small spare pool).
fn conv_gc_heavy() -> (u64, u64) {
    let geo = Geometry {
        channels: 4,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: bh_bench::scaled(1024, 160) as u32,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let mut cfg = ConvConfig::new(FlashConfig::tlc(geo), 0.0);
    cfg.gc_policy = GcPolicy::Greedy;
    let mut ssd = ConvSsd::new(cfg).expect("conv 0%-OP device");
    let cap = ssd.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).expect("fill").done;
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), 0x9E4F);
    let overwrites = 2 * cap;
    for _ in 0..overwrites {
        if let Op::Write(lba) = stream.next_op() {
            t = ssd.write(lba, t).expect("overwrite").done;
        }
    }
    (cap + overwrites, ssd.ftl_stats().gc_pages_copied)
}

/// The host block emulation over ZNS behind the smallest reserve that
/// does not reclaim on every write (a zone each for the data frontier,
/// the relocation frontier and the pool): `conv_gc_heavy`'s counterpart
/// on the other stack. Victims are ~97% live, so `BlockEmu`'s map, live
/// bitmap and summary words do the work, driven directly — no runner or
/// queue in the loop.
fn zns_reclaim_heavy() -> (u64, u64) {
    let cfg = ZnsConfig::new(FlashConfig::tlc(bh_bench::stack_geometry()), 4).with_zone_limits(8);
    let dev = ZnsDevice::new(cfg).expect("zns device");
    let mut emu = BlockEmu::new(dev, 3, ReclaimPolicy::Immediate);
    let cap = emu.capacity_pages();
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = emu.write(lba, t).expect("fill");
    }
    let mut stream = OpStream::uniform(cap, OpMix::write_only(), 0x9E5A);
    let overwrites = 2 * cap;
    for i in 0..overwrites {
        if i % 64 == 0 {
            t = emu.maybe_reclaim(t).expect("reclaim").1;
        }
        if let Op::Write(lba) = stream.next_op() {
            t = emu.write(lba, t).expect("overwrite");
        }
    }
    (cap + overwrites, emu.stats().relocated)
}

/// Shared config of the 1024-shard streaming-session workload and its
/// scaling/RSS probe: many tiny devices, so the scheduler, admission
/// window, and merge sink dominate over any one device model.
fn fleet_1k_cfg() -> FleetConfig {
    let shards = 1024;
    FleetConfig::mixed(shards, Geometry::small_test(), shards as u32 * 2, 0x9F1C)
        .with_ops_per_shard(bh_bench::scaled(400, 150))
}

/// A 1024-shard fleet through the streaming session on the default
/// worker count — the workload the constant-memory merge redesign is
/// for.
fn fleet_1k() -> (u64, u64) {
    let cfg = fleet_1k_cfg();
    FleetSession::new(&cfg).run().expect("fleet_1k run");
    (cfg.shards() as u64 * cfg.ops_per_shard, 0)
}

/// Peak-RSS budget for the whole perf_gate process after the 1k-shard
/// run: a fixed base (device models, mapping tables, and the other
/// workloads' footprints share the high-water mark) plus a small
/// constant per shard. A merge path that held every shard's full result
/// alive — histograms, samples, traces — would blow through the
/// per-shard term at this scale.
const FLEET_RSS_BASE_KB: u64 = 96 * 1024;
const FLEET_RSS_PER_SHARD_KB: u64 = 32;

/// The streaming-engine probe: worker scaling and memory ceiling.
struct FleetProbe {
    shards: usize,
    jobs: usize,
    wall_ms_1job: f64,
    wall_ms_njobs: f64,
    /// Per-thread scaling efficiency: `(t1 / tN) / N`.
    efficiency: f64,
    peak_rss_kb: Option<u64>,
    rss_budget_kb: u64,
}

/// Times the 1k-shard session at 1 worker and at `min(8, cores)`
/// workers, then reads the process peak RSS. The byte-identity of the
/// two runs' reports is asserted here too — it is the redesign's
/// correctness oracle, and this is the largest fleet the harness runs.
fn fleet_probe() -> FleetProbe {
    let cfg = fleet_1k_cfg();
    let jobs = bh_fleet::default_jobs().min(8);
    let timed_run = |j: usize| {
        let start = Instant::now();
        let run = FleetSession::new(&cfg)
            .with_jobs(j)
            .run()
            .expect("fleet probe");
        (start.elapsed().as_secs_f64() * 1000.0, run.report.to_json())
    };
    let (wall_ms_1job, report_1) = timed_run(1);
    let (wall_ms_njobs, report_n) = if jobs > 1 {
        timed_run(jobs)
    } else {
        (wall_ms_1job, report_1.clone())
    };
    assert_eq!(
        report_1, report_n,
        "fleet_1k report depends on the worker count"
    );
    let efficiency = (wall_ms_1job / wall_ms_njobs.max(1e-9)) / jobs as f64;
    eprintln!(
        "fleet_1k probe: 1 job {wall_ms_1job:.0} ms, {jobs} jobs {wall_ms_njobs:.0} ms \
         ({:.2}x speedup, {:.2} per-thread efficiency)",
        wall_ms_1job / wall_ms_njobs.max(1e-9),
        efficiency
    );
    FleetProbe {
        shards: cfg.shards(),
        jobs,
        wall_ms_1job,
        wall_ms_njobs,
        efficiency,
        peak_rss_kb: bh_bench::peak_rss_kb(),
        rss_budget_kb: FLEET_RSS_BASE_KB + cfg.shards() as u64 * FLEET_RSS_PER_SHARD_KB,
    }
}

/// Gates the streaming engine's two scale promises: near-linear worker
/// scaling (only judged when the machine has ≥ 4 cores to scale over —
/// single-core CI runners cannot measure it) and the constant-per-shard
/// peak-RSS ceiling.
fn check_fleet(probe: &FleetProbe) -> Vec<String> {
    let mut failures = Vec::new();
    if probe.jobs >= 4 && probe.efficiency < 0.7 {
        failures.push(format!(
            "fleet_1k: per-thread scaling efficiency {:.2} over {} workers \
             is below the 0.7 floor ({:.0} ms → {:.0} ms)",
            probe.efficiency, probe.jobs, probe.wall_ms_1job, probe.wall_ms_njobs
        ));
    }
    if let Some(rss) = probe.peak_rss_kb {
        if rss > probe.rss_budget_kb {
            failures.push(format!(
                "fleet_1k: peak RSS {rss} KB exceeds the {} KB budget \
                 ({} KB base + {} shards x {} KB)",
                probe.rss_budget_kb, FLEET_RSS_BASE_KB, probe.shards, FLEET_RSS_PER_SHARD_KB
            ));
        } else {
            eprintln!(
                "fleet_1k: peak RSS {rss} KB within the {} KB budget",
                probe.rss_budget_kb
            );
        }
    }
    failures
}

/// `null`, not `0` or an omitted key, for a value this host cannot read.
fn or_null(v: Option<impl Into<Json>>) -> Json {
    v.map_or(Json::Null, Into::into)
}

fn fleet_probe_json(p: &FleetProbe) -> Json {
    let mut j = Json::obj();
    j.set("shards", p.shards as u64)
        .set("jobs", p.jobs as u64)
        .set("wall_ms_1job", p.wall_ms_1job)
        .set("wall_ms_njobs", p.wall_ms_njobs)
        .set("scaling_efficiency", p.efficiency)
        .set("rss_budget_kb", p.rss_budget_kb);
    j.set("peak_rss_kb", or_null(p.peak_rss_kb));
    j
}

fn to_json(measurements: &[Measurement], probe: Option<&FleetProbe>, quick: bool) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", "bh-perf/4");
    doc.set("quick", quick);
    let mut rows = Json::arr();
    let mut total_ops = 0u64;
    let mut total_ms = 0.0;
    for m in measurements {
        let mut row = Json::obj();
        row.set("name", m.name);
        row.set("sim_ops", m.sim_ops);
        row.set("wall_ms", m.wall_ms);
        row.set("sim_ops_per_sec", m.ops_per_sec());
        if let Some(ns) = m.ns_per_relocated_page() {
            row.set("relocated_pages", m.relocated_pages);
            row.set("ns_per_relocated_page", ns);
        }
        rows.push(row);
        total_ops += m.sim_ops;
        total_ms += m.wall_ms;
    }
    doc.set("workloads", rows);
    doc.set("sim_ops", total_ops);
    doc.set("wall_ms", total_ms);
    doc.set(
        "sim_ops_per_sec",
        if total_ms > 0.0 {
            total_ops as f64 / (total_ms / 1000.0)
        } else {
            0.0
        },
    );
    if let Some(p) = probe {
        doc.set("fleet", fleet_probe_json(p));
    }
    doc.set("peak_rss_kb", or_null(bh_bench::peak_rss_kb()));
    doc.set(
        "manifest",
        bh_bench::manifest("perf_gate")
            .with_seed("conv_gc_heavy", 0x9E4F)
            .with_seed("zns_reclaim_heavy", 0x9E5A)
            .with_seed("fleet_1k", 0x9F1C)
            .with_schema("bh-perf/4")
            .to_json(),
    );
    doc
}

/// One baseline row: a workload name and its sim_ops_per_sec.
type BaselineRow = (String, f64);

/// Parses a baseline document (`crates/bench/perf_baseline.json`): a
/// `workloads` array of `{name, sim_ops_per_sec}` rows. A row without a
/// name or a finite, positive rate is an error — a silent zero would be
/// a floor nothing can fall below.
fn parse_baseline(text: &str) -> Result<Vec<BaselineRow>, String> {
    let doc = bh_json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let rows = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no `workloads` array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let name = row.get("name").and_then(Json::as_str);
            let ops = row.get("sim_ops_per_sec").and_then(Json::as_f64);
            match (name, ops) {
                (Some(name), Some(ops)) if ops.is_finite() && ops > 0.0 => {
                    Ok((name.to_string(), ops))
                }
                _ => Err(format!(
                    "workloads[{i}] needs a `name` and a positive `sim_ops_per_sec`"
                )),
            }
        })
        .collect()
}

/// Reads and parses the `--check` baseline at `path`.
fn load_baseline(path: &str) -> Result<Vec<BaselineRow>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    parse_baseline(&text).map_err(|e| format!("baseline {path}: {e}"))
}

/// Compares this run against the baseline rows; returns the failure
/// messages. Under `--only` the other baseline rows were not run, so
/// they are not missing.
fn check(ran: &[Measurement], baseline: &[BaselineRow], only: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base_ops) in baseline {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let Some(cur) = ran.iter().find(|m| m.name == name) else {
            failures.push(format!("workload `{name}` missing from this run"));
            continue;
        };
        let cur_ops = cur.ops_per_sec();
        let floor = base_ops * (1.0 - MAX_REGRESS);
        if cur_ops < floor {
            failures.push(format!(
                "{name}: {cur_ops:.0} ops/s is below the regression floor \
                 {floor:.0} (baseline {base_ops:.0}, tolerance {:.0}%)",
                MAX_REGRESS * 100.0
            ));
        } else {
            eprintln!(
                "{name}: {cur_ops:.0} ops/s vs baseline {base_ops:.0} ({:+.1}%)",
                (cur_ops / base_ops - 1.0) * 100.0
            );
        }
    }
    failures
}

/// One `BENCH_history.jsonl` line for a full run.
fn history_line(measurements: &[Measurement], quick: bool) -> Json {
    let mut rows = Json::arr();
    for m in measurements {
        let mut row = Json::obj();
        row.set("name", m.name);
        row.set("sim_ops_per_sec", m.ops_per_sec());
        if let Some(ns) = m.ns_per_relocated_page() {
            row.set("ns_per_relocated_page", ns);
        }
        rows.push(row);
    }
    let mut line = Json::obj();
    line.set("rev", or_null(bh_bench::manifest("perf_gate").git_rev));
    line.set("quick", quick);
    line.set("rows", rows);
    line.set("peak_rss_kb", or_null(bh_bench::peak_rss_kb()));
    line
}

/// The value flags on the command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    baseline_path: Option<String>,
    only: Option<String>,
}

/// Reads the command line without the program name. `--quick` is the
/// only switch; a value flag given without a value, or any other
/// argument, is an error, never a silent default.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // Never swallow the next flag as this flag's value.
        let mut value = || match it.next().filter(|v| !v.starts_with("--")) {
            Some(v) => Ok(v.clone()),
            None => Err(format!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--quick" => {}
            "--check" => parsed.baseline_path = Some(value()?),
            "--only" => parsed.only = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Prints `msg` and exits 2: the command line or the baseline is unusable.
fn usage_error<T>(msg: String) -> T {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        baseline_path,
        only,
    } = parse_args(&args).unwrap_or_else(usage_error);
    // Read the baseline before spending any time on the workloads.
    let baseline = baseline_path.map(|path| load_baseline(&path).unwrap_or_else(usage_error));
    let quick = bh_bench::quick_mode();

    let measurements: Vec<Measurement> = WORKLOADS
        .into_iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|o| o == *name))
        .map(|(name, run)| timed(name, run))
        .collect();
    // The scaling/RSS probe rides with the fleet_1k workload (and so
    // respects `--only fleet_1k`).
    let probe = measurements
        .iter()
        .any(|m| m.name == "fleet_1k")
        .then(fleet_probe);

    let rendered = to_json(&measurements, probe.as_ref(), quick).pretty();
    println!("{rendered}");
    if let Err(e) = std::fs::write("BENCH_perf.json", &rendered) {
        eprintln!("could not write BENCH_perf.json: {e}");
    }
    bh_bench::archive_named("BENCH_perf.json", &rendered);
    if only.is_none() {
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("BENCH_history.jsonl")
            .and_then(|mut f| writeln!(f, "{}", history_line(&measurements, quick)));
        if let Err(e) = appended {
            eprintln!("could not append to BENCH_history.jsonl: {e}");
        }
    }

    let mut failures = probe.as_ref().map(check_fleet).unwrap_or_default();
    if let Some(baseline) = &baseline {
        failures.extend(check(&measurements, baseline, only.as_deref()));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("perf gate passed ({} workloads)", measurements.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, sim_ops: u64, wall_ms: f64) -> Measurement {
        Measurement {
            name,
            sim_ops,
            wall_ms,
            relocated_pages: 0,
        }
    }

    fn base(rows: &[(&str, f64)]) -> Vec<BaselineRow> {
        rows.iter().map(|&(n, ops)| (n.to_string(), ops)).collect()
    }

    fn probe(jobs: usize, efficiency: f64, peak_rss_kb: Option<u64>) -> FleetProbe {
        FleetProbe {
            shards: 1024,
            jobs,
            wall_ms_1job: 100.0,
            wall_ms_njobs: 100.0 / (efficiency * jobs as f64),
            efficiency,
            peak_rss_kb,
            rss_budget_kb: 1000,
        }
    }

    #[test]
    fn value_flags_parse_or_fail_loudly() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = parse_args(&argv(&["--quick", "--check", "base.json"])).unwrap();
        assert_eq!(
            args,
            Args {
                baseline_path: Some("base.json".into()),
                only: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&["--only", "fleet_1k"])).unwrap().only,
            Some("fleet_1k".into())
        );
        for bad in [
            &["--only", "--quick"][..],
            &["--check"],
            // Gone flags are refused, not silently ignored.
            &["--obs-overhead-max", "0.03"],
            &["--max-regress", "0.25"],
            &["--quikc"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn check_fails_a_row_below_its_floor_and_only_then() {
        // 75 % of a 1000 ops/s baseline is the floor: 750 ops/s.
        let baseline = base(&[("conv_gc_heavy_0op", 1000.0)]);
        let at = |ops: u64| check(&[row("conv_gc_heavy_0op", ops, 1000.0)], &baseline, None);
        assert!(at(750).is_empty());
        assert!(at(2000).is_empty());
        let failures = at(749);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below the regression floor 750"));
    }

    #[test]
    fn check_skips_rows_outside_only_and_names_missing_ones() {
        let baseline = base(&[("conv_gc_heavy_0op", 1000.0), ("fleet_1k", 1000.0)]);
        let ran = [row("fleet_1k", 900, 1000.0)];
        assert!(check(&ran, &baseline, Some("fleet_1k")).is_empty());
        let failures = check(&ran, &baseline, None);
        assert_eq!(
            failures,
            ["workload `conv_gc_heavy_0op` missing from this run"]
        );
    }

    #[test]
    fn a_malformed_baseline_is_an_error_not_a_zero_floor() {
        let ok = r#"{"workloads": [{"name": "fleet_1k", "sim_ops_per_sec": 5.0}]}"#;
        assert_eq!(parse_baseline(ok).unwrap(), base(&[("fleet_1k", 5.0)]));
        for bad in [
            "",
            "{",
            r#"{"rows": []}"#,
            r#"{"workloads": [{"name": "fleet_1k"}]}"#,
            r#"{"workloads": [{"sim_ops_per_sec": 5.0}]}"#,
            r#"{"workloads": [{"name": "fleet_1k", "sim_ops_per_sec": 0}]}"#,
        ] {
            assert!(parse_baseline(bad).is_err(), "{bad:?} parsed");
        }
        assert!(load_baseline("no/such/baseline.json").is_err());
    }

    #[test]
    fn fleet_efficiency_is_judged_at_four_jobs_or_more() {
        assert!(check_fleet(&probe(2, 0.3, None)).is_empty());
        assert!(check_fleet(&probe(4, 0.7, None)).is_empty());
        assert_eq!(check_fleet(&probe(4, 0.69, None)).len(), 1);
        assert_eq!(check_fleet(&probe(8, 0.5, None)).len(), 1);
    }

    #[test]
    fn fleet_rss_over_budget_fails() {
        assert!(check_fleet(&probe(1, 1.0, Some(1000))).is_empty());
        let failures = check_fleet(&probe(1, 1.0, Some(1001)));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("peak RSS 1001 KB exceeds"));
    }

    /// `perf_baseline.json` names exactly the rows this gate runs, in
    /// order: a stale row would fail every `--check` as missing, and an
    /// unlisted one would never be gated.
    #[test]
    fn baseline_names_exactly_the_rows_perf_gate_runs() {
        let baseline = parse_baseline(include_str!("../../perf_baseline.json")).unwrap();
        let names: Vec<&str> = baseline.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, WORKLOADS.map(|(n, _)| n));
    }
}
