//! Ablation — §4.1 asks "given the additional information, how does the
//! theoretically optimal garbage collection algorithm change?" Before
//! answering for ZNS, this ablation pins down the baseline: how the
//! classic FTL victim-selection policies compare on the conventional
//! device, under uniform and skewed traffic.
//!
//! Expected shape (FTL literature): greedy ≈ cost-benefit under uniform
//! traffic; cost-benefit wins under skew (it lets hot blocks age);
//! FIFO trails both.
//!
//! With `--trace` the greedy/zipfian configuration is traced: every
//! flash op and GC episode lands in the Chrome trace
//! (`results/expt_gc_policy.trace.json`), and the report gains interval
//! write-amplification and queue-depth series sampled over the
//! measurement phase.

use bh_conv::{ConvConfig, ConvSsd, GcPolicy};
use bh_core::{ClaimSet, Report, Sampler};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::{Nanos, Table};
use bh_trace::Tracer;
use bh_workloads::{AddressDist, Op, OpMix, OpStream};

fn steady_wa(
    policy: GcPolicy,
    dist: AddressDist,
    multiples: u64,
    tracer: Tracer,
    mut sampler: Option<&mut Sampler>,
) -> f64 {
    let geo = Geometry::experiment(64);
    let mut cfg = ConvConfig::new(FlashConfig::tlc(geo), 0.10);
    cfg.gc_policy = policy;
    let mut ssd = ConvSsd::new(cfg).unwrap();
    ssd.set_tracer(tracer);
    let cap = ssd.capacity_pages();
    let mut stream = OpStream::new(cap, dist, OpMix::write_only(), 0x6C);
    let mut t = Nanos::ZERO;
    for lba in 0..cap {
        t = ssd.write(lba, t).unwrap().done;
    }
    for _ in 0..multiples * cap {
        if let Op::Write(lba) = stream.next_op() {
            t = ssd.write(lba, t).unwrap().done;
        }
    }
    if let Some(s) = sampler.as_deref_mut() {
        s.prime(&ssd);
    }
    let warm = *ssd.flash_stats();
    for i in 0..multiples * cap {
        if let Op::Write(lba) = stream.next_op() {
            t = ssd.write(lba, t).unwrap().done;
        }
        if let Some(s) = sampler.as_deref_mut() {
            if (i + 1) % s.every() == 0 {
                s.sample(&ssd, i + 1, t, 0);
            }
        }
    }
    let d = ssd.flash_stats().delta_since(&warm);
    (d.host_programs + d.internal_programs + d.copies) as f64 / d.host_programs as f64
}

pub fn run() -> Report {
    let multiples = bh_bench::scaled(2, 1);
    let tracer = bh_bench::tracer();
    let mut report = Report::new(
        "Ablation / GC victim-selection policies",
        "Steady-state WA of greedy, cost-benefit, and FIFO under uniform and zipfian writes (10% OP)",
    );
    let mut table = Table::new(["policy", "uniform WA", "zipfian WA"]);
    let mut wa = std::collections::HashMap::new();
    // Trace and sample the greedy/zipfian configuration only, so the
    // exported trace is attributable to a single device run.
    let mut sampler = Sampler::new(tracer.clone(), 4096);
    for (name, policy) in [
        ("greedy", GcPolicy::Greedy),
        ("cost-benefit", GcPolicy::CostBenefit),
        ("fifo", GcPolicy::Fifo),
    ] {
        let traced = name == "greedy";
        let uni = steady_wa(
            policy,
            AddressDist::Uniform,
            multiples,
            Tracer::disabled(),
            None,
        );
        let zipf = steady_wa(
            policy,
            AddressDist::Zipfian(0.99),
            multiples,
            if traced {
                tracer.clone()
            } else {
                Tracer::disabled()
            },
            if traced { Some(&mut sampler) } else { None },
        );
        table.row([
            name.to_string(),
            bh_bench::fmt_wa(uni),
            bh_bench::fmt_wa(zipf),
        ]);
        wa.insert((name, "uni"), uni);
        wa.insert((name, "zipf"), zipf);
    }
    report.table("policy x distribution", table);
    if tracer.enabled() {
        report.series(sampler.interval_wa_series("greedy/zipfian interval WA"));
        report.series(sampler.queue_depth_series("greedy/zipfian queue depth"));
    }

    let mut claims = ClaimSet::new();
    claims.check(
        "ABL.greedy-near-cb-uniform",
        "under uniform traffic greedy and cost-benefit are close",
        wa[&("greedy", "uni")] / wa[&("cost-benefit", "uni")],
        (0.75, 1.35),
    );
    claims.check(
        "ABL.cb-wins-under-skew",
        "cost-benefit matches or beats greedy under zipfian skew",
        wa[&("greedy", "zipf")] / wa[&("cost-benefit", "zipf")],
        (0.9, 10.0),
    );
    claims.check(
        "ABL.fifo-trails",
        "FIFO never beats the informed policies by much",
        wa[&("fifo", "uni")] / wa[&("greedy", "uni")],
        (0.9, 10.0),
    );
    report.claims(claims);
    bh_bench::export_trace("expt_gc_policy", &tracer);
    report
}
