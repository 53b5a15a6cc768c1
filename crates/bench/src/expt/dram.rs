//! E3 — the §2.2 DRAM estimate: on-board mapping-table memory for
//! conventional (4 B per 4 KiB page) vs ZNS (4 B per erasure block)
//! devices, checked both analytically and against the live simulated
//! devices' own accounting.

use bh_bench::ExptResult;
use bh_conv::{ConvConfig, ConvSsd};
use bh_core::{ClaimSet, Report};
use bh_cost::{conv_mapping_dram_bytes, zns_mapping_dram_bytes, DramModel};
use bh_flash::{FlashConfig, Geometry};
use bh_metrics::{Series, Table};
use bh_zns::{ZnsConfig, ZnsDevice};

const GIB: u64 = 1 << 30;
const TIB: u64 = 1 << 40;

pub fn run() -> ExptResult {
    let model = DramModel::default();
    let mut table = Table::new(["capacity", "conventional DRAM", "ZNS DRAM", "reduction"]);
    let mut conv_series = Series::new("conventional mapping DRAM (MiB) vs capacity (GiB)");
    let mut zns_series = Series::new("zns mapping DRAM (MiB) vs capacity (GiB)");
    for gib in [256u64, 512, 1024, 2048, 4096, 8192] {
        let cap = gib * GIB;
        let conv = model.conventional(cap);
        let zns = model.zns(cap);
        table.row([
            format!("{gib} GiB"),
            format!("{:.1} MiB", conv as f64 / (1 << 20) as f64),
            format!("{:.1} KiB", zns as f64 / (1 << 10) as f64),
            format!("{}x", conv / zns),
        ]);
        conv_series.push(gib as f64, conv as f64 / (1 << 20) as f64);
        zns_series.push(gib as f64, zns as f64 / (1 << 20) as f64);
    }

    // Cross-check the formulas against live devices' own accounting.
    let geo = Geometry::experiment(64); // 2 GiB simulated device.
    let conv_dev = ConvSsd::new(ConvConfig::new(FlashConfig::tlc(geo), 0.07))?;
    let zns_dev = ZnsDevice::new(ZnsConfig::new(FlashConfig::tlc(geo), 32))?;
    let mut live = Table::new(["device", "reported DRAM", "formula"]);
    live.row([
        "conventional (2 GiB, 7% OP)".to_string(),
        format!("{} B", conv_dev.device_dram_bytes()),
        format!(
            "{} B",
            conv_mapping_dram_bytes(conv_dev.capacity_pages() * 4096, 4096)
        ),
    ]);
    live.row([
        "zns (2 GiB, 32-block zones)".to_string(),
        format!("{} B", zns_dev.device_dram_bytes()),
        format!(
            "{} B",
            zns_mapping_dram_bytes(geo.capacity_bytes(), geo.block_bytes())
        ),
    ]);

    let mut report = Report::new(
        "E3 / §2.2 DRAM estimate",
        "Mapping-table DRAM: conventional page map vs ZNS zone map",
    );
    report.table("analytic sweep", table);
    report.table("live-device cross-check", live);
    report.series(conv_series);
    report.series(zns_series);

    let mut claims = ClaimSet::new();
    claims.check(
        "E3.conv-1gb-per-tb",
        "around 1 GB of on-board DRAM per TB of flash",
        conv_mapping_dram_bytes(TIB, 4096) as f64 / GIB as f64,
        (1.0, 1.0),
    );
    claims.check(
        "E3.zns-256kb",
        "ZNS requires only ~256 KB of on-board DRAM (1 TB, 16 MB blocks)",
        zns_mapping_dram_bytes(TIB, 16 << 20) as f64 / (1 << 10) as f64,
        (256.0, 256.0),
    );
    claims.check(
        "E3.reduction",
        "coarser translation: block/page = 4096x less DRAM",
        model.reduction_factor() as f64,
        (4096.0, 4096.0),
    );
    claims.check(
        "E3.live-agreement",
        "live devices agree with the formulas (ratio conv/zns DRAM)",
        conv_dev.device_dram_bytes() as f64 / zns_dev.device_dram_bytes() as f64,
        (200.0, 1024.0), // 2 GiB device, 1 MiB blocks: pages/block = 256, minus OP slack.
    );
    report.claims(claims);
    Ok(report)
}
