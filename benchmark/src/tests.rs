//! Tests of the benchmark itself: the recorders are transparent, the
//! tables match the contract, the command line round-trips, `compare`
//! says what it should.

use crate::compare::{self, Verdict};
use crate::driver::Plan;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::recorders::{TracedBackend, TracedSource, TracedStack, TracedZoned};
use crate::trace::{self, Ledger, Span, TimerCost};
use crate::workloads::{Fp, Inspect, SPECS};
use crate::{refuse_bh_vars, ScratchDir, BENCHMARK_JSON};
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{Pacing, RunConfig, Runner, WriteReq};
use bh_faults::FaultConfig;
use bh_flash::{FlashConfig, Geometry};
use bh_host::{BlockEmu, ReclaimPolicy};
use bh_json::Json;
use bh_kv::{ConvBackend, FileHint, StorageBackend, ZnsBackend};
use bh_metrics::Nanos;
use bh_obs::Obs;
use bh_trace::Tracer;
use bh_workloads::{OpMix, OpSource, OpStream};
use bh_zbd::{ZbdConfig, ZbdDevice};
use bh_zns::{ZnsConfig, ZnsDevice, ZoneId, ZonedDevice};

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn zns_config() -> ZnsConfig {
    ZnsConfig::new(FlashConfig::tlc(Geometry::small_test()), 4).with_zone_limits(8)
}

fn conv() -> ConvSsd {
    ConvSsd::new(ConvConfig::new(
        FlashConfig::tlc(Geometry::small_test()),
        0.15,
    ))
    .unwrap()
}

fn emu<D: ZonedDevice>(dev: D) -> BlockEmu<D> {
    BlockEmu::new(dev, 2, ReclaimPolicy::Immediate)
}

/// Runs `f` under a fresh ledger and returns it with `f`'s result.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Ledger) {
    trace::install(Ledger::new(TimerCost::default()));
    let out = {
        let _root = trace::span(Span::Round);
        f()
    };
    (out, trace::take().unwrap())
}

/// Every `BlockInterface` and `StackAdmin` method, each result folded
/// into a fingerprint: a wrapper that drops or reorders a call shows.
fn exercise_stack<S: Inspect, O: OpSource>(mut stack: S, mut source: O) -> u64 {
    let cap = stack.capacity_pages();
    let mut fp = Fp::new().u64(cap).bytes(stack.label().as_bytes());
    stack.install_faults(FaultConfig::new(7));
    stack.set_tracer(Tracer::disabled());
    stack.set_obs(Obs::disabled());
    let mut now = Runner::fill(&mut stack, Nanos::ZERO).unwrap();
    for depth in [1, 4] {
        let runner = Runner::new(
            RunConfig::new(3_000)
                .with_pacing(Pacing::Closed)
                .with_maintenance_every(16)
                .with_queue_depth(depth),
        );
        let r = runner.run(&mut stack, &mut source, now).unwrap();
        now += r.elapsed;
        fp = fp
            .hist(&r.reads)
            .hist(&r.writes)
            .u64(r.errors)
            .u64(r.elapsed.as_nanos())
            .u64(r.peak_in_flight as u64)
            .f64(r.device_wa);
    }
    stack.trim(3).unwrap();
    fp = fp.u64(u64::from(stack.read(3, now).is_err()));
    now = stack.write(WriteReq::hinted(3, 1), now).unwrap();
    now = stack.read(3, now).unwrap();
    now = stack.maintenance(now).unwrap();
    fp = fp.u64(stack.queue_depth(now) as u64);
    let (after, scanned) = stack.power_cycle(now).unwrap();
    fp = fp.u64(after.as_nanos()).u64(scanned);
    fp = fp.u64(stack.read_stamp(3, after).unwrap());
    stack
        .fingerprint(fp)
        .f64(stack.write_amplification())
        .flash(&stack.flash_stats())
        .finish()
}

fn source(cap: u64) -> OpStream {
    OpStream::uniform(cap, OpMix::read_heavy(), 11)
}

#[test]
fn stack_and_source_recorders_are_transparent_on_conv() {
    let cap = conv().capacity_pages();
    let bare = exercise_stack(conv(), source(cap));
    let (wrapped, ledger) =
        traced(|| exercise_stack(TracedStack(conv()), TracedSource(source(cap))));
    assert_eq!(bare, wrapped);
    for s in [
        Span::NextOp,
        Span::StackRead,
        Span::StackWrite,
        Span::StackTrim,
        Span::StackMaintenance,
        Span::StackPowerCycle,
    ] {
        assert!(ledger.get(s).count > 0, "no {} span recorded", s.name());
    }
    assert_eq!(ledger.get(Span::NextOp).count, 6_000);
}

#[test]
fn stack_and_zoned_recorders_are_transparent_on_zns() {
    let dev = || ZnsDevice::new(zns_config()).unwrap();
    let cap = emu(dev()).capacity_pages();
    let bare = exercise_stack(emu(dev()), source(cap));
    let (wrapped, ledger) = traced(|| {
        exercise_stack(
            TracedStack(emu(TracedZoned(dev()))),
            TracedSource(source(cap)),
        )
    });
    assert_eq!(bare, wrapped);
    for s in [Span::ZonedRead, Span::ZonedReset, Span::ZonedPowerCycle] {
        assert!(ledger.get(s).count > 0, "no {} span recorded", s.name());
    }
    assert_eq!(ledger.get(Span::ZonedRead).parent, Some(Span::StackRead));
}

#[test]
fn stack_and_zoned_recorders_are_transparent_on_zbd() {
    let scratch = ScratchDir::create().unwrap();
    let path = scratch.path().join("transparent.log");
    let dev = || ZbdDevice::create_file(ZbdConfig::mirror(&zns_config()), &path).unwrap();
    let cap = emu(dev()).capacity_pages();
    let bare = exercise_stack(emu(dev()), source(cap));
    let (wrapped, _) = traced(|| {
        exercise_stack(
            TracedStack(emu(TracedZoned(dev()))),
            TracedSource(source(cap)),
        )
    });
    assert_eq!(bare, wrapped);
    assert!(path.exists(), "the zbd log is a real file");
    let dir = scratch.path().to_path_buf();
    scratch.remove().unwrap();
    assert!(!dir.exists(), "scratch directory removed with its contents");
}

/// Every `ZonedDevice` method, called directly.
fn exercise_zoned<D: ZonedDevice>(mut dev: D) -> u64 {
    let mut fp = Fp::new()
        .u64(dev.num_zones() as u64)
        .u64(dev.zone_capacity())
        .u64(dev.page_bytes() as u64)
        .bytes(dev.backend_label().as_bytes());
    dev.install_faults(FaultConfig::new(3));
    dev.set_tracer(Tracer::disabled());
    dev.set_obs(Obs::disabled());
    let (z0, z1, z2) = (ZoneId(0), ZoneId(1), ZoneId(2));
    let mut now = Nanos::ZERO;
    dev.open(z0).unwrap();
    now = dev.write(z0, 0, 0xA0, now).unwrap();
    let (off, t) = dev.append(z0, 0xA1, now).unwrap();
    now = t;
    fp = fp.u64(off);
    dev.close(z0).unwrap();
    let (stamp, t) = dev.read(z0, 1, now).unwrap();
    now = t;
    fp = fp.u64(stamp);
    let (offs, t) = dev.simple_copy(&[(z0, 0), (z0, 1)], z1, now).unwrap();
    now = t;
    for o in offs {
        fp = fp.u64(o);
    }
    dev.finish(z1).unwrap();
    fp = fp
        .u64(dev.active_zones() as u64)
        .u64(dev.open_zones() as u64)
        .u64(dev.empty_zones() as u64)
        .u64(dev.busy_planes(now) as u64)
        .u64(dev.zone(z1).unwrap().write_pointer());
    now = dev.reset(z0, now).unwrap();
    dev.inject_read_only(z2).unwrap();
    fp = fp.u64(u64::from(dev.append(z2, 1, now).is_err()));
    now = dev.power_cycle(now);
    for z in dev.zone_report() {
        fp = fp.u64(z.write_pointer()).u64(z.resets());
    }
    let s = dev.zone_stats();
    fp.u64(now.as_nanos())
        .u64(s.writes)
        .u64(s.appends)
        .u64(s.reads)
        .u64(s.resets)
        .u64(s.simple_copy_pages)
        .flash(&dev.flash_stats())
        .finish()
}

#[test]
fn zoned_recorder_forwards_every_method() {
    let zns = || ZnsDevice::new(zns_config()).unwrap();
    let zbd = || ZbdDevice::new(ZbdConfig::mirror(&zns_config())).unwrap();
    let (wrapped, ledger) = traced(|| exercise_zoned(TracedZoned(zns())));
    assert_eq!(exercise_zoned(zns()), wrapped);
    let (wrapped, _) = traced(|| exercise_zoned(TracedZoned(zbd())));
    assert_eq!(exercise_zoned(zbd()), wrapped);
    for s in [
        Span::ZonedOpen,
        Span::ZonedClose,
        Span::ZonedFinish,
        Span::ZonedReset,
        Span::ZonedWrite,
        Span::ZonedAppend,
        Span::ZonedRead,
        Span::ZonedSimpleCopy,
        Span::ZonedPowerCycle,
    ] {
        assert!(ledger.get(s).count > 0, "no {} span recorded", s.name());
    }
}

/// Every `StorageBackend` method, called directly.
fn exercise_backend<B: StorageBackend>(mut b: B) -> u64 {
    b.set_tracer(Tracer::disabled());
    b.set_obs(Obs::disabled());
    let page = b.page_bytes() as usize;
    let mut fp = Fp::new().u64(page as u64);
    let wal = b.create(FileHint::Wal);
    let sst = b.create(FileHint::Sst { level: 1 });
    fp = fp.u64(wal.0).u64(sst.0);
    let mut now = Nanos::ZERO;
    let data: Vec<u8> = (0..3 * page + 100).map(|i| i as u8).collect();
    now = b.append(sst, &data, now).unwrap();
    now = b.append(wal, &data[..100], now).unwrap();
    now = b.sync(wal, now).unwrap();
    fp = fp
        .u64(b.len(sst).unwrap())
        .u64(b.durable_len(sst).unwrap())
        .u64(b.durable_len(wal).unwrap());
    let (bytes, t) = b.read(sst, page as u64 - 10, 50, now).unwrap();
    now = t;
    fp = fp.bytes(&bytes);
    now = b.delete(wal, now).unwrap();
    now = b.maintenance(now).unwrap();
    fp.u64(now.as_nanos())
        .u64(b.host_pages_written())
        .f64(b.device_write_amplification())
        .finish()
}

#[test]
fn backend_recorder_forwards_every_method() {
    let conv_backend = || ConvBackend::new(conv());
    let zns_backend = || ZnsBackend::new(ZnsDevice::new(zns_config()).unwrap());
    let (wrapped, ledger) = traced(|| exercise_backend(TracedBackend(conv_backend())));
    assert_eq!(exercise_backend(conv_backend()), wrapped);
    let (wrapped, _) = traced(|| exercise_backend(TracedBackend(zns_backend())));
    assert_eq!(exercise_backend(zns_backend()), wrapped);
    for s in [
        Span::BackendCreate,
        Span::BackendAppend,
        Span::BackendSync,
        Span::BackendRead,
        Span::BackendDelete,
        Span::BackendMaintenance,
    ] {
        assert!(ledger.get(s).count > 0, "no {} span recorded", s.name());
    }
}

/// `BENCHMARK.json` and the tables in `metrics.rs`/`workloads` name the
/// same things with the same units, in the same order.
#[test]
fn benchmark_json_matches_the_tables() {
    let j = bh_json::parse(BENCHMARK_JSON).unwrap();
    let pairs = |key: &str| -> Vec<(String, String)> {
        j[key]
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    };
    let table = |defs: &[crate::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), table(&END_TO_END));
    assert_eq!(pairs("per_layer"), table(&PER_LAYER));
    let workloads: Vec<(String, String)> = j["workloads"]
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| {
            (
                w["name"].as_str().unwrap().to_string(),
                w["why"].as_str().unwrap().to_string(),
            )
        })
        .collect();
    let specs: Vec<(String, String)> = SPECS
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(workloads, specs);
    assert_eq!(j["paths"].as_arr().unwrap().len(), 1);
    assert_eq!(j["paths"][0], "benchmark");
    let setup = &j["end_to_end"][1];
    assert_eq!(setup["name"], "setup_s");
    assert_eq!(setup["better"], "lower");
    for m in j["end_to_end"].as_arr().unwrap() {
        assert!(m["bound"].as_f64().unwrap() <= setup["bound"].as_f64().unwrap());
    }
}

#[test]
fn only_and_seed_round_trip_into_the_result() {
    let plan = Plan::parse(&strings(&[
        "--seed",
        "42",
        "--only",
        "kv_overwrite_get",
        "--reps",
        "5",
    ]))
    .unwrap();
    let text = plan.result_header().pretty();
    let back = bh_json::parse(&text).unwrap();
    assert_eq!(back["env"]["seed"].as_u64(), Some(42));
    assert_eq!(back["env"]["reps"].as_u64(), Some(5));
    assert_eq!(back["only"], "kv_overwrite_get");
    assert_eq!(
        back["env"]["nproc"].as_u64(),
        std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64)
    );
    for key in ["git_rev", "rustc", "zbd_flush_policy"] {
        assert!(back["env"][key].as_str().is_some(), "env.{key} missing");
    }

    let all = Plan::parse(&strings(&["--traced-only"])).unwrap();
    assert_eq!(all.reps, 0);
    assert!(all.result_header()["only"].is_null());
    assert!(Plan::parse(&strings(&["--only", "no_such_workload"])).is_err());
    assert!(Plan::parse(&strings(&["--sed", "1"])).is_err());
    assert!(Plan::parse(&strings(&["--seed"])).is_err());
}

#[test]
fn round_statistics() {
    use crate::harness::{median, spread, upper_decile};
    let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
    assert_eq!(median(&v), 4.5);
    assert_eq!(upper_decile(&v), 8.0);
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(upper_decile(&twenty), 18.0);
    assert_eq!(upper_decile(&[9.0]), 9.0);
    assert_eq!(upper_decile(&[]), 0.0);
    assert_eq!(spread(&v), 7.0 / 4.5);
}

#[test]
fn bh_variables_are_refused() {
    let names = |v: &[&str]| strings(v).into_iter();
    assert!(refuse_bh_vars(names(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
    let err = refuse_bh_vars(names(&["PATH", "BH_QUEUE_CORE", "BH_QUICK"])).unwrap_err();
    assert!(err.contains("BH_QUEUE_CORE") && err.contains("BH_QUICK"));
}

fn result_file(ops_values: &[f64], rss: f64, failed_share: f64, resets: f64) -> Json {
    let entry = |values: &[f64]| {
        let mut e = Json::obj();
        e.set("median", crate::harness::median(values)).set(
            "values",
            Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
        );
        e
    };
    let mut e2e = Json::obj();
    e2e.set("sim_ops_per_wall_s", entry(ops_values))
        .set("setup_s", entry(&[1.0, 1.0, 1.0]))
        .set("peak_rss_mb", entry(&[rss, rss, rss]));
    let mut count = Json::obj();
    count.set("value", resets).set("exact", true);
    let mut time = Json::obj();
    time.set("value", resets * 3.0).set("exact", false);
    let mut layers = Json::obj();
    layers
        .set("host.resets", count)
        .set("host.self_ns_per_op", time);
    let mut w = Json::obj();
    w.set("name", "zns_mixed_qd16")
        .set("end_to_end", e2e)
        .set("per_layer", layers)
        .set("fingerprint", "00")
        .set("failed_ops_share", failed_share);
    let mut file = Json::obj();
    file.set("schema", crate::driver::SCHEMA)
        .set("workloads", Json::Arr(vec![w]));
    file
}

#[test]
fn compare_classifies_rows_and_lists_count_differences() {
    let bounds = compare::bounds(BENCHMARK_JSON).unwrap();
    let ops_bound = bounds[0].bound;
    assert!(bounds[0].higher_is_better && !bounds[1].higher_is_better);
    assert_eq!(
        compare::verdict(0.5 * ops_bound, 0.0, ops_bound),
        Verdict::Ok
    );
    assert_eq!(
        compare::verdict(1.5 * ops_bound, 0.0, ops_bound),
        Verdict::Worse
    );
    assert_eq!(
        compare::verdict(1.5 * ops_bound, 2.0 * ops_bound, ops_bound),
        Verdict::Unresolved
    );
    assert!(compare::worsening(100.0, 90.0, true) > 0.0);
    assert!(compare::worsening(100.0, 90.0, false) < 0.0);

    let base = result_file(&[100.0, 100.5, 99.5], 50.0, 0.0, 7.0);
    let (report, worse) = compare::compare(&base, &base, &bounds);
    assert!(!worse && report.contains("all identical"), "{report}");

    let slow = 100.0 * (1.0 - 2.0 * ops_bound);
    let slower = result_file(&[slow, slow, slow], 50.0, 0.0, 7.0);
    let (report, worse) = compare::compare(&base, &slower, &bounds);
    assert!(worse && report.contains("worse"), "{report}");
    let (_, worse) = compare::compare(&slower, &base, &bounds);
    assert!(!worse, "a speed-up is not a regression");

    let noisy = result_file(&[slow * 0.5, slow, slow * 1.5], 50.0, 0.0, 7.0);
    let (report, worse) = compare::compare(&base, &noisy, &bounds);
    assert!(!worse && report.contains("unresolved"), "{report}");

    let changed = result_file(&[100.0, 100.5, 99.5], 50.0, 0.001, 8.0);
    let (report, worse) = compare::compare(&base, &changed, &bounds);
    assert!(worse, "a new failure is worse whatever the throughput");
    assert!(report.contains("host.resets 7 -> 8"), "{report}");
    assert!(
        !report.contains("host.self_ns_per_op"),
        "wall metrics are not counts"
    );
}
