//! E11 — §2.2/§2.3's cost arithmetic: "ZNS costs less per gigabyte"
//! (overprovisioning + on-board DRAM inflate conventional prices) and
//! footnote 2's DIMM observation.

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Report};
use bh_cost::{dimm_price_per_gb, PriceModel};
use bh_metrics::{Series, Table};

pub fn run() -> ExptResult {
    let model = PriceModel::default();
    let mut report = Report::new(
        "E11 / §2.2-2.3 device cost model",
        "Dollars per usable GiB: conventional (OP + page-map DRAM) vs ZNS",
    );

    let mut table = Table::new([
        "usable",
        "OP",
        "conv $",
        "conv $/GiB",
        "zns $",
        "zns $/GiB",
        "ratio",
    ]);
    let mut series = Series::new("conv/zns cost ratio vs OP (4 TiB)");
    for &op in &[0.07, 0.15, 0.20, 0.28] {
        let conv = model.conventional(4096.0, op);
        let zns = model.zns(4096.0);
        let ratio = conv.usd_per_usable_gib() / zns.usd_per_usable_gib();
        table.row([
            "4 TiB".to_string(),
            format!("{:.0}%", op * 100.0),
            format!("${:.0}", conv.total_usd),
            format!("${:.4}", conv.usd_per_usable_gib()),
            format!("${:.0}", zns.total_usd),
            format!("${:.4}", zns.usd_per_usable_gib()),
            format!("{ratio:.3}"),
        ]);
        series.push(op, ratio);
    }
    report.table("device cost sweep", table);
    let increasing = series.is_monotone_increasing();
    report.series(series);

    let mut dimm = Table::new(["DIMM", "$/GiB"]);
    for &(cap, usd) in bh_cost::DIMM_PRICES {
        dimm.row([format!("{cap} GiB"), format!("${:.2}", usd / cap as f64)]);
    }
    report.table("host DIMM pricing (footnote 2)", dimm);

    let mut claims = ClaimSet::new();
    claims.check(
        "E11.zns-cheaper",
        "ZNS costs less per usable gigabyte (at 28% OP)",
        model.cost_ratio(4096.0, 0.28),
        (1.05, 3.0),
    );
    claims.check_bool(
        "E11.op-drives-gap",
        "the cost gap grows with overprovisioning (monotone ratio)",
        increasing,
    );
    claims.check(
        "E11.dimm-footnote",
        "a 1GB DIMM costs more than twice as much per GB as 16-32GB DIMMs",
        dimm_price_per_gb(1).ok_or("no 1 GB DIMM price")?
            / dimm_price_per_gb(32).ok_or("no 32 GB DIMM price")?,
        (2.0, 20.0),
    );
    report.claims(claims);
    Ok(report)
}
