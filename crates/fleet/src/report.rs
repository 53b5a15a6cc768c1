//! Fleet-level aggregation: per-shard rows merged into per-stack and
//! fleet-wide views.
//!
//! Everything here is a pure function of the shard results taken in
//! shard-id order, so a report is byte-identical no matter how many
//! worker threads produced the shards. Two paths build a
//! [`FleetReport`]:
//!
//! - [`FleetReport::from_shards`], the original batch merge over a full
//!   slice of results — kept verbatim as the correctness oracle;
//! - [`FleetReportSink`], the streaming merge behind
//!   [`crate::FleetSession`]: results are absorbed one at a time in
//!   shard-id order and immediately reduced, so a retired shard leaves
//!   behind only its report row and a small interval-WA curve instead
//!   of its full histograms, samples, and trace stream.
//!
//! The two must agree to the byte; `tests/prop_fleet_stream.rs` holds
//! them in lockstep across random fleets.

use bh_core::interval_wa_series;
use bh_json::Json;
use bh_metrics::{Histogram, Series, Summary};

use crate::shard::ShardResult;

/// One shard's line in the fleet report.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Shard id.
    pub shard: u32,
    /// Stack label.
    pub label: &'static str,
    /// Tenants served.
    pub tenants: u32,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Failed operations.
    pub errors: u64,
    /// Run length in virtual nanoseconds.
    pub elapsed_ns: u64,
    /// Shard throughput in ops/s of virtual time.
    pub ops_per_sec: f64,
    /// Run-window write amplification.
    pub run_wa: f64,
    /// Read latency digest.
    pub read_summary: Summary,
    /// Write latency digest.
    pub write_summary: Summary,
}

/// All shards of one stack kind, merged.
#[derive(Debug)]
pub struct StackAgg {
    /// Stack label.
    pub label: &'static str,
    /// Shards of this stack.
    pub shards: u32,
    /// Exactly-merged read latencies across the stack's shards.
    pub reads: Histogram,
    /// Exactly-merged write latencies across the stack's shards.
    pub writes: Histogram,
    /// Sum of shard throughputs (shards run concurrently in real time).
    pub total_ops_per_sec: f64,
    /// Mean run-window WA across shards.
    pub mean_wa: f64,
    /// Per-shard interval-WA curves aligned onto a common grid, averaged.
    pub wa_curve: Series,
}

/// The merged outcome of a fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-shard rows in shard-id order.
    pub shards: Vec<ShardRow>,
    /// Per-stack aggregates, conventional first when present.
    pub stacks: Vec<StackAgg>,
    /// All reads fleet-wide.
    pub fleet_reads: Histogram,
    /// All writes fleet-wide.
    pub fleet_writes: Histogram,
}

impl FleetReport {
    /// Builds the report from shard results in shard-id order.
    pub fn from_shards(results: &[ShardResult]) -> Self {
        let mut shards = Vec::with_capacity(results.len());
        let mut fleet_reads = Histogram::new();
        let mut fleet_writes = Histogram::new();
        // First-seen order keeps "conventional" ahead of "zns+blockemu"
        // in the default mixed fleet and is deterministic regardless.
        let mut labels: Vec<&'static str> = Vec::new();
        for r in results {
            if !labels.contains(&r.label) {
                labels.push(r.label);
            }
            fleet_reads.merge(&r.reads);
            fleet_writes.merge(&r.writes);
            shards.push(ShardRow {
                shard: r.shard,
                label: r.label,
                tenants: r.tenants,
                reads: r.reads.count(),
                writes: r.writes.count(),
                errors: r.errors,
                elapsed_ns: r.elapsed.as_nanos(),
                ops_per_sec: r.ops_per_sec(),
                run_wa: r.run_wa,
                read_summary: r.reads.summary(),
                write_summary: r.writes.summary(),
            });
        }
        let stacks = labels
            .into_iter()
            .map(|label| {
                let members: Vec<&ShardResult> =
                    results.iter().filter(|r| r.label == label).collect();
                let mut reads = Histogram::new();
                let mut writes = Histogram::new();
                let mut total_ops = 0.0;
                let mut wa_sum = 0.0;
                let curves: Vec<Series> = members
                    .iter()
                    .map(|r| {
                        reads.merge(&r.reads);
                        writes.merge(&r.writes);
                        total_ops += r.ops_per_sec();
                        wa_sum += r.run_wa;
                        interval_wa_series(format!("shard{}-wa", r.shard), &r.samples)
                    })
                    .collect();
                StackAgg {
                    label,
                    shards: members.len() as u32,
                    reads,
                    writes,
                    total_ops_per_sec: total_ops,
                    mean_wa: wa_sum / members.len() as f64,
                    wa_curve: Series::mean_aligned(format!("{label}-interval-wa"), &curves),
                }
            })
            .collect();
        FleetReport {
            shards,
            stacks,
            fleet_reads,
            fleet_writes,
        }
    }

    /// The aggregate for a stack label, if any shard ran it.
    pub fn stack(&self, label: &str) -> Option<&StackAgg> {
        self.stacks.iter().find(|s| s.label == label)
    }

    /// Fleet throughput: sum of shard throughputs.
    pub fn total_ops_per_sec(&self) -> f64 {
        self.shards.iter().map(|s| s.ops_per_sec).sum()
    }

    /// Serializes the full report as deterministic pretty JSON — the
    /// artifact the determinism tests compare byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut j = Json::obj();
        j.set(
            "shards",
            Json::Arr(self.shards.iter().map(shard_row_json).collect()),
        )
        .set(
            "stacks",
            Json::Arr(self.stacks.iter().map(stack_agg_json).collect()),
        );
        let mut fleet = Json::obj();
        fleet
            .set("reads", summary_json(&self.fleet_reads.summary()))
            .set("writes", summary_json(&self.fleet_writes.summary()))
            .set("total_ops_per_sec", self.total_ops_per_sec());
        j.set("fleet", fleet);
        j.pretty()
    }

    /// Renders the human-readable fleet tables.
    pub fn render(&self) -> String {
        use bh_metrics::Table;
        let mut out = String::new();
        let mut per_shard = Table::new([
            "shard",
            "stack",
            "tenants",
            "reads",
            "writes",
            "errors",
            "ops/s",
            "run WA",
            "read p99",
            "read p99.9",
            "write p99.9",
        ]);
        for s in &self.shards {
            per_shard.row([
                s.shard.to_string(),
                s.label.to_string(),
                s.tenants.to_string(),
                s.reads.to_string(),
                s.writes.to_string(),
                s.errors.to_string(),
                format!("{:.0}", s.ops_per_sec),
                format!("{:.2}", s.run_wa),
                s.read_summary.p99.to_string(),
                s.read_summary.p999.to_string(),
                s.write_summary.p999.to_string(),
            ]);
        }
        out.push_str("-- per shard --\n");
        out.push_str(&per_shard.render());
        let mut per_stack = Table::new([
            "stack",
            "shards",
            "ops/s",
            "mean WA",
            "read p50",
            "read p99",
            "read p99.9",
            "write p99.9",
        ]);
        for s in &self.stacks {
            let r = s.reads.summary();
            let w = s.writes.summary();
            per_stack.row([
                s.label.to_string(),
                s.shards.to_string(),
                format!("{:.0}", s.total_ops_per_sec),
                format!("{:.2}", s.mean_wa),
                r.p50.to_string(),
                r.p99.to_string(),
                r.p999.to_string(),
                w.p999.to_string(),
            ]);
        }
        out.push_str("\n-- per stack --\n");
        out.push_str(&per_stack.render());
        out
    }
}

/// One stack's accumulating aggregate inside [`FleetReportSink`].
///
/// Mirrors the per-label loop of [`FleetReport::from_shards`] exactly:
/// histograms and throughput fold in shard-id order (so the f64 partial
/// sums are bit-identical to the batch path), while each shard leaves
/// one interval-WA curve behind for the final [`Series::mean_aligned`]
/// — the only per-shard state the sink retains, bounded by the
/// configured sample count rather than by anything the shard recorded.
#[derive(Debug, Clone)]
struct StackBuild {
    label: &'static str,
    shards: u32,
    reads: Histogram,
    writes: Histogram,
    total_ops_per_sec: f64,
    wa_sum: f64,
    curves: Vec<Series>,
}

/// Streaming [`FleetReport`] builder: feed it [`ShardResult`]s in
/// shard-id order, take the report at the end.
///
/// The sink is the constant-memory half of the fleet redesign: where
/// [`FleetReport::from_shards`] needs every shard's full result alive
/// at once, the sink reduces each result the moment it arrives and
/// keeps only the report row plus one small WA curve per retired shard.
/// [`FleetReportSink::finish`] then assembles a report byte-identical
/// to the batch path (the property suite compares the two JSON
/// renderings across random fleets).
#[derive(Debug, Clone, Default)]
pub struct FleetReportSink {
    rows: Vec<ShardRow>,
    stacks: Vec<StackBuild>,
    fleet_reads: Histogram,
    fleet_writes: Histogram,
}

impl FleetReportSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows absorbed so far, in shard-id order — the streaming view a
    /// session observer sees mid-run.
    pub fn rows(&self) -> &[ShardRow] {
        &self.rows
    }

    /// Number of shards absorbed so far.
    pub fn absorbed(&self) -> usize {
        self.rows.len()
    }

    /// Absorbs one shard's result. Callers must feed shards in
    /// ascending shard-id order ([`crate::FleetSession`] enforces this
    /// with its merge window); the sink asserts it, because silently
    /// accepting out-of-order results would break the byte-identity
    /// contract with the batch merge.
    pub fn absorb(&mut self, r: &ShardResult) {
        assert!(
            self.rows.last().is_none_or(|last| last.shard < r.shard),
            "shard {} absorbed after shard {}: the merge sink requires shard-id order",
            r.shard,
            self.rows.last().map(|l| l.shard).unwrap_or(0),
        );
        self.fleet_reads.merge(&r.reads);
        self.fleet_writes.merge(&r.writes);
        self.rows.push(ShardRow {
            shard: r.shard,
            label: r.label,
            tenants: r.tenants,
            reads: r.reads.count(),
            writes: r.writes.count(),
            errors: r.errors,
            elapsed_ns: r.elapsed.as_nanos(),
            ops_per_sec: r.ops_per_sec(),
            run_wa: r.run_wa,
            read_summary: r.reads.summary(),
            write_summary: r.writes.summary(),
        });
        let stack = match self.stacks.iter_mut().find(|s| s.label == r.label) {
            Some(s) => s,
            None => {
                // First-seen label order, exactly as the batch path
                // discovers labels while walking results.
                self.stacks.push(StackBuild {
                    label: r.label,
                    shards: 0,
                    reads: Histogram::new(),
                    writes: Histogram::new(),
                    total_ops_per_sec: 0.0,
                    wa_sum: 0.0,
                    curves: Vec::new(),
                });
                self.stacks.last_mut().expect("just pushed")
            }
        };
        stack.shards += 1;
        stack.reads.merge(&r.reads);
        stack.writes.merge(&r.writes);
        stack.total_ops_per_sec += r.ops_per_sec();
        stack.wa_sum += r.run_wa;
        stack.curves.push(interval_wa_series(
            format!("shard{}-wa", r.shard),
            &r.samples,
        ));
    }

    /// Assembles the merged report. Per-stack means and the aligned WA
    /// curves are computed here, from fold state accumulated in the
    /// same order the batch path would have used.
    pub fn finish(self) -> FleetReport {
        let stacks = self
            .stacks
            .into_iter()
            .map(|s| StackAgg {
                label: s.label,
                shards: s.shards,
                reads: s.reads,
                writes: s.writes,
                total_ops_per_sec: s.total_ops_per_sec,
                mean_wa: s.wa_sum / s.shards as f64,
                wa_curve: Series::mean_aligned(format!("{}-interval-wa", s.label), &s.curves),
            })
            .collect();
        FleetReport {
            shards: self.rows,
            stacks,
            fleet_reads: self.fleet_reads,
            fleet_writes: self.fleet_writes,
        }
    }
}

fn summary_json(s: &Summary) -> Json {
    let mut j = Json::obj();
    j.set("count", s.count)
        .set("mean_ns", s.mean.as_nanos())
        .set("min_ns", s.min.as_nanos())
        .set("p50_ns", s.p50.as_nanos())
        .set("p90_ns", s.p90.as_nanos())
        .set("p99_ns", s.p99.as_nanos())
        .set("p999_ns", s.p999.as_nanos())
        .set("p9999_ns", s.p9999.as_nanos())
        .set("max_ns", s.max.as_nanos());
    j
}

fn shard_row_json(s: &ShardRow) -> Json {
    let mut j = Json::obj();
    j.set("shard", s.shard)
        .set("stack", s.label)
        .set("tenants", s.tenants)
        .set("reads", s.reads)
        .set("writes", s.writes)
        .set("errors", s.errors)
        .set("elapsed_ns", s.elapsed_ns)
        .set("ops_per_sec", s.ops_per_sec)
        .set("run_wa", s.run_wa)
        .set("read", summary_json(&s.read_summary))
        .set("write", summary_json(&s.write_summary));
    j
}

fn stack_agg_json(s: &StackAgg) -> Json {
    let points = s
        .wa_curve
        .points()
        .iter()
        .map(|&(x, y)| Json::Arr(vec![x.into(), y.into()]))
        .collect();
    let mut j = Json::obj();
    j.set("stack", s.label)
        .set("shards", s.shards)
        .set("reads", summary_json(&s.reads.summary()))
        .set("writes", summary_json(&s.writes.summary()))
        .set("total_ops_per_sec", s.total_ops_per_sec)
        .set("mean_wa", s.mean_wa)
        .set("wa_curve", Json::Arr(points));
    j
}
