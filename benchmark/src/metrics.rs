//! The metric tables: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root is the contract; these
//! tables are what the code fills in. A test holds the two together.
//!
//! Units say which clock a number uses. `wall_*` is host time — noisy,
//! comparable only on one machine. `virt_*` is simulated time and
//! `count`/`ratio` without a wall prefix are simulated quantities: they
//! are bit-exact for a fixed seed, and a change that claims only
//! simulator speed must leave every one of them identical.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// True for simulated quantities that repeat exactly for a seed.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

pub const END_TO_END: [MetricDef; 3] = [
    wall("sim_ops_per_wall_s", "ops/s"),
    wall("setup_s", "s"),
    wall("peak_rss_mb", "MiB"),
];

pub const PER_LAYER: [MetricDef; 50] = [
    // bh-workloads
    wall("workloads.next_op_ns", "wall_ns"),
    wall("workloads.tenant_next_op_ns", "wall_ns"),
    // bh-core + bh-queue
    wall("core_queue.self_ns_per_op", "wall_ns"),
    wall("queue.dispatch_ns_per_op", "wall_ns"),
    exact("queue.peak_in_flight", "count"),
    // bh-host
    wall("host.self_ns_per_op", "wall_ns"),
    wall("host.write_ns_p50", "wall_ns"),
    wall("host.write_ns_p999", "wall_ns"),
    wall("host.maintenance_self_ms", "wall_ms"),
    exact("host.relocated_pages", "count"),
    exact("host.resets", "count"),
    exact("host.reclaim_runs", "count"),
    // bh-zns (+ bh-flash beneath it)
    wall("zns_flash.ns_per_call", "wall_ns"),
    exact("zns.appends", "count"),
    exact("zns.reads", "count"),
    exact("zns.resets", "count"),
    exact("zns.device_wa", "ratio"),
    // bh-conv (+ bh-flash)
    wall("conv_flash.write_ns_per_op", "wall_ns"),
    wall("conv_flash.write_ns_p50", "wall_ns"),
    wall("conv_flash.write_ns_p999", "wall_ns"),
    wall("conv_flash.read_ns_per_op", "wall_ns"),
    wall("conv_flash.gc_write_time_share", "wall_ratio"),
    exact("conv.device_wa", "ratio"),
    // bh-flash
    wall("flash.program_ns", "wall_ns"),
    wall("flash.read_ns", "wall_ns"),
    wall("flash.erase_ns", "wall_ns"),
    exact("flash.page_ops", "count"),
    wall("flash.wall_ns_per_page_op", "wall_ns"),
    // bh-kv
    wall("kv.put_self_ns", "wall_ns"),
    wall("kv.get_self_ns", "wall_ns"),
    wall("kv.backend_ns_per_op", "wall_ns"),
    exact("kv.flushes", "count"),
    exact("kv.compactions", "count"),
    exact("kv.app_wa", "ratio"),
    exact("kv.device_wa_conv", "ratio"),
    exact("kv.device_wa_zns", "ratio"),
    // bh-fleet
    wall("fleet.plan_ms", "wall_ms"),
    wall("fleet.wall_s_1job", "wall_s"),
    wall("fleet.scaling_efficiency_2job", "wall_ratio"),
    exact("fleet.report_identical_across_jobs", "count"),
    // bh-zbd
    wall("zbd.ns_per_call", "wall_ns"),
    wall("zbd.power_cycle_ms", "wall_ms"),
    exact("zbd.log_bytes", "count"),
    exact("zbd.replay_pages_scanned", "count"),
    // simulated results
    exact("sim.virt_s", "virt_s"),
    exact("sim.read_p999_virt_ns", "virt_ns"),
    exact("sim.write_p999_virt_ns", "virt_ns"),
    // the benchmark itself
    wall("bench.trace_overhead_frac", "wall_ratio"),
    wall("bench.span_coverage", "wall_ratio"),
    wall("bench.rep_spread_frac", "wall_ratio"),
];

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}
