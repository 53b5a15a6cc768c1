//! One workload, one process: set up, measure, check, report.
//!
//! `--trace 0` measures the end-to-end metrics on the bare library
//! types. `--trace 1` runs the fixed rounds once untraced (the
//! reference) and then the traced pass on recorder-wrapped types; the
//! two must agree on every simulated result, and the difference in
//! their wall time is the tracing overhead.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::trace::{self, ratio, Ledger, Span};
use crate::workloads::{Counts, Session, Snapshot, Spec, StackLayer, ZonedLayer};
use crate::{COVERAGE_CEIL, COVERAGE_FLOOR};
use bh_json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Independent builds timed per untraced run. Where a build's memory
/// lands (which host pages, which cache sets) sets its speed for as long
/// as it lives, so the measuring time is split over several builds and
/// the run's figure is taken over the rounds of all of them. Each
/// build also repeats the fixed rounds, so a run checks for free that
/// the simulated results do not depend on the build.
pub const BUILDS_TIMED: usize = 3;

/// Set-ups per run: the timed builds, then more while they are cheap —
/// until `SETUP_BUDGET` is spent or `SETUP_REPS_MAX` is reached.
/// `setup_s` is their median; a 30 ms fill needs more repetitions than
/// a 2 s preconditioning to give a steady one.
pub const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value nine tenths of the way up the sorted list (nearest rank):
/// a run's `sim_ops_per_wall_s` over its rounds. Whatever else runs on
/// the host only ever slows a round down, so the fast side of the
/// distribution is the steadier estimate of the simulator's own speed:
/// over four ten-seed sweeps of all six workloads the run-to-run spread
/// of this figure averaged 11%, the upper quartile's 13%, the median's
/// 15%, and it went past 20% in 3 of 22 cases against 6 and 8.
pub fn upper_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(9 * n).div_ceil(10) - 1],
    }
}

/// (max − min) / median.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    ratio(max - min, median(values))
}

/// Everything one pass over a workload produced.
pub struct Pass {
    /// Per-round throughput in ops per wall second.
    pub rates: Vec<f64>,
    /// Wall time of the fixed rounds.
    pub fixed_wall: Duration,
    pub rounds: usize,
    pub ops: u64,
    pub failed_ops: u64,
    pub checks_run: u64,
    pub checks_failed: u64,
    pub messages: Vec<String>,
    pub snapshot: Snapshot,
    pub ledger: Option<Ledger>,
}

/// Drives `session` for the fixed rounds and then until `budget` of
/// timed wall has passed. With a ledger, the pass is traced.
pub fn run_pass(
    session: &mut dyn Session,
    spec: &Spec,
    budget: Duration,
    ledger: Option<Ledger>,
) -> Pass {
    if let Some(l) = ledger {
        trace::install(l);
    }
    let mut rates = Vec::new();
    let mut timed = Duration::ZERO;
    let mut fixed_wall = Duration::ZERO;
    let (mut ops, mut failed_ops) = (0, 0);
    let mut snapshot = None;
    while rates.len() < spec.fixed_rounds || timed < budget {
        let r = session.round();
        timed += r.wall;
        ops += r.ops;
        failed_ops += r.failed;
        rates.push(r.ops as f64 / r.wall.as_secs_f64());
        if rates.len() == spec.fixed_rounds {
            fixed_wall = timed;
            snapshot = Some(session.snapshot());
        }
    }
    let ledger = trace::take();
    let checks = session.checks();
    Pass {
        rounds: rates.len(),
        rates,
        fixed_wall,
        ops,
        failed_ops,
        checks_run: checks.run,
        checks_failed: checks.failed,
        messages: checks.messages,
        snapshot: snapshot.expect("at least one fixed round"),
        ledger,
    }
}

/// Builds the workload and books how long it took.
fn timed_build(spec: &Spec, seed: u64, dir: &Path, times: &mut Vec<f64>) -> Box<dyn Session> {
    let start = Instant::now();
    let session = (spec.build)(seed, false, dir);
    times.push(start.elapsed().as_secs_f64());
    session
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one process reports: the contract's result line, and the detail
/// the `run` driver and `compare` read.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub fingerprint: u64,
    /// Per-round throughput of the reported pass, in ops per wall second.
    pub rates: Vec<f64>,
    /// Wall seconds of each set-up behind `setup_s`; empty in a traced
    /// run, which does not measure set-up.
    pub setups: Vec<f64>,
    pub messages: Vec<String>,
    pub spans: Option<Json>,
}

impl Outcome {
    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for &(name, unit, value) in &self.metrics {
            let mut m = Json::obj();
            m.set("value", value).set("unit", unit);
            metrics.set(name, m);
        }
        let mut j = Json::obj();
        j.set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        j.dump()
    }

    /// Everything else worth keeping, on a line of its own.
    pub fn detail(&self) -> Json {
        let mut j = Json::obj();
        j.set("workload", self.workload)
            .set("seed", self.seed)
            .set("traced", self.traced)
            .set("fingerprint", format!("{:016x}", self.fingerprint))
            .set(
                "round_ops_per_wall_s",
                Json::Arr(self.rates.iter().map(|r| Json::from(r.round())).collect()),
            )
            .set(
                "setup_s",
                Json::Arr(self.setups.iter().map(|&t| Json::from(t)).collect()),
            )
            .set(
                "messages",
                Json::Arr(
                    self.messages
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            );
        if let Some(spans) = &self.spans {
            j.set("spans", spans.clone());
        }
        j
    }
}

fn tally<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut messages = Vec::new();
    for p in passes {
        attempted += p.ops + p.checks_run;
        failed += p.failed_ops + p.checks_failed;
        if p.failed_ops > 0 {
            messages.push(format!("{} operations returned an error", p.failed_ops));
        }
        messages.extend(p.messages.iter().cloned());
    }
    (attempted, failed, messages)
}

/// `--trace 0`: the end-to-end metrics.
pub fn measure_untraced(spec: &'static Spec, seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let budget = Duration::from_secs(seconds).div_f64(BUILDS_TIMED as f64);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..BUILDS_TIMED {
        // One build alive at a time: peak RSS is one device's.
        let mut session = timed_build(spec, seed, dir, &mut setups);
        passes.push(run_pass(session.as_mut(), spec, budget, None));
    }
    while setups.len() < SETUP_REPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() {
        drop(timed_build(spec, seed, dir, &mut setups));
    }

    let (attempted, mut failed, mut messages) = tally(&passes);
    let first = &passes[0].snapshot;
    for p in &passes[1..] {
        if p.snapshot.fingerprint != first.fingerprint || p.snapshot.counts != first.counts {
            failed += 1;
            messages.push(format!(
                "a rebuilt workload gave fingerprint {:016x}, the first build {:016x}",
                p.snapshot.fingerprint, first.fingerprint
            ));
        }
    }
    let rss = peak_rss_mb();
    if rss.is_none() {
        messages.push("VmHWM unreadable: peak_rss_mb needs Linux procfs".into());
    }
    let rates: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.rates.iter().copied())
        .collect();
    let values = [upper_decile(&rates), median(&setups), rss.unwrap_or(0.0)];
    Outcome {
        workload: spec.name,
        seed,
        traced: false,
        attempted: attempted + (BUILDS_TIMED as u64 - 1),
        failed,
        correct: failed == 0 && rss.is_some(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect(),
        fingerprint: first.fingerprint,
        rates,
        setups,
        messages,
        spans: None,
    }
}

/// `--trace 1`: the per-layer metrics.
pub fn measure_traced(spec: &'static Spec, seed: u64, seconds: u64, dir: &Path) -> Outcome {
    // Untraced reference: the fixed rounds on the bare types.
    let mut session = (spec.build)(seed, false, dir);
    let reference = run_pass(session.as_mut(), spec, Duration::ZERO, None);
    drop(session);

    let cost = Ledger::calibrate();
    let mut session = (spec.build)(seed, true, dir);
    let traced = run_pass(
        session.as_mut(),
        spec,
        Duration::from_secs(seconds),
        Some(Ledger::new(cost)),
    );
    let mut values = Counts::new();
    let extra = session.extra_metrics(&mut values);
    drop(session);
    let ledger = traced.ledger.as_ref().expect("traced pass has a ledger");

    let (mut attempted, mut failed, mut messages) = tally([&reference, &traced]);
    attempted += extra.run;
    failed += extra.failed;
    messages.extend(extra.messages);
    let mut check = |ok: bool, what: String| {
        if !ok {
            failed += 1;
            messages.push(what);
        }
    };
    // The recorders are transparent: same simulated results either way.
    check(
        reference.snapshot.fingerprint == traced.snapshot.fingerprint,
        format!(
            "traced fingerprint {:016x} differs from untraced {:016x}",
            traced.snapshot.fingerprint, reference.snapshot.fingerprint
        ),
    );
    check(
        reference.snapshot.counts == traced.snapshot.counts,
        "traced and untraced passes disagree on an exact count".into(),
    );
    let coverage = ledger.coverage();
    check(
        (COVERAGE_FLOOR..=COVERAGE_CEIL).contains(&coverage),
        format!("bench.span_coverage {coverage:.4} outside [{COVERAGE_FLOOR}, {COVERAGE_CEIL}]"),
    );

    values.extend(reference.snapshot.counts.iter().map(|(&k, &v)| (k, v)));
    layer_times(spec, ledger, &traced, &mut values);
    let p = probes::run(seed);
    values.insert("flash.program_ns", p.flash_program_ns);
    values.insert("flash.read_ns", p.flash_read_ns);
    values.insert("flash.erase_ns", p.flash_erase_ns);
    values.insert("queue.dispatch_ns_per_op", p.queue_dispatch_ns);
    values.insert("workloads.tenant_next_op_ns", p.tenant_next_op_ns);
    let fixed_ns = reference.fixed_wall.as_nanos() as f64;
    if let Some(&page_ops) = values.get("flash.page_ops") {
        values.insert("flash.wall_ns_per_page_op", ratio(fixed_ns, page_ops));
    }
    values.insert(
        "bench.trace_overhead_frac",
        traced.fixed_wall.as_secs_f64() / reference.fixed_wall.as_secs_f64() - 1.0,
    );
    values.insert("bench.span_coverage", coverage);
    values.insert("bench.rep_spread_frac", spread(&reference.rates));

    Outcome {
        workload: spec.name,
        seed,
        traced: true,
        attempted: attempted + 3,
        failed,
        correct: failed == 0,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        fingerprint: traced.snapshot.fingerprint,
        rates: traced.rates.clone(),
        setups: Vec::new(),
        messages,
        spans: Some(ledger.to_json()),
    }
}

/// Host-time per-layer metrics out of the span ledger.
fn layer_times(spec: &Spec, ledger: &Ledger, traced: &Pass, out: &mut Counts) {
    let ops = traced.ops as f64;
    let (stack_layer, zoned_layer) = (spec.stack_spans, spec.zoned_spans);
    let get = |s: Span| ledger.get(s);

    out.insert("workloads.next_op_ns", get(Span::NextOp).mean_total_ns());
    out.insert(
        "core_queue.self_ns_per_op",
        ratio(get(Span::RunnerRun).self_ns, ops),
    );

    let stack_spans = [
        Span::StackRead,
        Span::StackWrite,
        Span::StackTrim,
        Span::StackMaintenance,
        Span::StackPowerCycle,
    ];
    match stack_layer {
        StackLayer::Host => {
            let self_ns: f64 = stack_spans.iter().map(|&s| get(s).self_ns).sum();
            out.insert("host.self_ns_per_op", ratio(self_ns, ops));
            let w = get(Span::StackWrite);
            out.insert("host.write_ns_p50", w.self_quantile(0.5) as f64);
            out.insert("host.write_ns_p999", w.self_quantile(0.999) as f64);
            // Scaled to the fixed rounds, so that runs of different
            // length compare.
            let per_round = get(Span::StackMaintenance).self_ns / traced.rounds as f64;
            out.insert(
                "host.maintenance_self_ms",
                per_round * spec.fixed_rounds as f64 / 1e6,
            );
        }
        StackLayer::Conv | StackLayer::None => {}
    }
    let conv_write = if stack_layer == StackLayer::Conv {
        get(Span::StackWrite)
    } else {
        get(Span::ConvWrite)
    };
    if conv_write.count > 0 {
        out.insert("conv_flash.write_ns_per_op", conv_write.mean_total_ns());
        out.insert(
            "conv_flash.write_ns_p50",
            conv_write.self_quantile(0.5) as f64,
        );
        out.insert(
            "conv_flash.write_ns_p999",
            conv_write.self_quantile(0.999) as f64,
        );
        out.insert(
            "conv_flash.gc_write_time_share",
            ratio(ledger.gc_write_ns, conv_write.total_ns),
        );
    }
    if stack_layer == StackLayer::Conv {
        out.insert(
            "conv_flash.read_ns_per_op",
            get(Span::StackRead).mean_total_ns(),
        );
    }

    let zoned = [
        Span::ZonedAppend,
        Span::ZonedWrite,
        Span::ZonedRead,
        Span::ZonedReset,
        Span::ZonedFinish,
        Span::ZonedSimpleCopy,
    ];
    let zoned_total: f64 = zoned.iter().map(|&s| get(s).total_ns).sum();
    let zoned_calls: u64 = zoned.iter().map(|&s| get(s).count).sum();
    let per_call = ratio(zoned_total, zoned_calls as f64);
    match zoned_layer {
        ZonedLayer::ZnsFlash => {
            out.insert("zns_flash.ns_per_call", per_call);
        }
        ZonedLayer::Zbd => {
            out.insert("zbd.ns_per_call", per_call);
            out.insert(
                "zbd.power_cycle_ms",
                get(Span::StackPowerCycle).mean_total_ns() / 1e6,
            );
        }
        ZonedLayer::None => {}
    }

    let (put, got) = (get(Span::KvPut), get(Span::KvGet));
    if put.count + got.count > 0 {
        out.insert("kv.put_self_ns", put.mean_self_ns());
        out.insert("kv.get_self_ns", got.mean_self_ns());
        let backend: f64 = [
            Span::BackendCreate,
            Span::BackendAppend,
            Span::BackendSync,
            Span::BackendRead,
            Span::BackendDelete,
            Span::BackendMaintenance,
        ]
        .iter()
        .map(|&s| get(s).total_ns)
        .sum();
        out.insert(
            "kv.backend_ns_per_op",
            ratio(backend, (put.count + got.count) as f64),
        );
    }
}
