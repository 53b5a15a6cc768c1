//! Exporters and run manifests.
//!
//! Three output shapes for one registry: Prometheus text exposition
//! (scrape-compatible, for operators), a JSON snapshot (for archived
//! results), and [`RunManifest`] — the provenance block attached to
//! every archived report so a number in EXPERIMENTS.md is reproducible
//! from its artifact alone: which binary, which config digest, which
//! seeds, which crate version and git revision, which schemas.

use crate::registry::{ObsSnapshot, ALL_CTRS, ALL_GAUGES};
use bh_json::Json;
use bh_metrics::Histogram;

impl ObsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    /// Counters get a `_total` suffix per convention; each gauge also
    /// exports its peak as `<name>_peak`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for c in ALL_CTRS {
            out.push_str(&format!(
                "# TYPE {prefix}{name}_total counter\n{prefix}{name}_total {v}\n",
                name = c.name(),
                v = self.counter(c)
            ));
        }
        for g in ALL_GAUGES {
            let gv = self.gauge(g);
            out.push_str(&format!(
                "# TYPE {prefix}{name} gauge\n{prefix}{name} {v}\n\
                 # TYPE {prefix}{name}_peak gauge\n{prefix}{name}_peak {p}\n",
                name = g.name(),
                v = gv.value,
                p = gv.peak
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {..}, "gauges": {name: {"value": v, "peak": p}}}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for c in ALL_CTRS {
            counters.set(c.name(), self.counter(c));
        }
        let mut gauges = Json::obj();
        for g in ALL_GAUGES {
            let gv = self.gauge(g);
            let mut o = Json::obj();
            o.set("value", gv.value);
            o.set("peak", gv.peak);
            gauges.set(g.name(), o);
        }
        let mut root = Json::obj();
        root.set("schema", "bh-obs/1");
        root.set("counters", counters);
        root.set("gauges", gauges);
        root
    }
}

/// Exports a histogram's occupied buckets as JSON:
/// `{"count", "min", "max", "buckets": [[upper_bound, count], ..]}`.
///
/// The fixed percentile `Summary` loses the shape of the tail; this is
/// the full-resolution companion, letting external tooling re-derive
/// any quantile from an archived result.
pub fn hist_to_json(h: &Histogram) -> Json {
    let mut buckets = Json::arr();
    for (upper, count) in h.buckets() {
        let mut pair = Json::arr();
        pair.push(upper);
        pair.push(count);
        buckets.push(pair);
    }
    let mut root = Json::obj();
    root.set("count", h.count());
    root.set("min_ns", h.min().as_nanos());
    root.set("max_ns", h.max().as_nanos());
    root.set("buckets", buckets);
    root
}

/// 64-bit FNV-1a digest, used for config fingerprints. Stable across
/// platforms and runs — deliberately not a `Hasher` so the value can be
/// compared between archived manifests.
pub fn digest64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Provenance for one archived result: enough to reproduce the run
/// from the artifact alone.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Binary (experiment) name.
    pub bin: String,
    /// Whether the run used quick (CI-scaled) parameters.
    pub quick: bool,
    /// FNV-1a digest of the effective configuration (argv + relevant
    /// environment), hex-encoded in the JSON.
    pub config_digest: u64,
    /// Named RNG seeds the run consumed.
    pub seeds: Vec<(String, u64)>,
    /// Workspace crate version (all crates share one version).
    pub version: String,
    /// Git revision of the working tree, when discoverable.
    pub git_rev: Option<String>,
    /// Schema identifiers of the artifacts this manifest accompanies.
    pub schemas: Vec<String>,
}

impl RunManifest {
    /// Builds a manifest for the current process: `bin` and `quick`
    /// from the caller, config digest over `config_text`, version from
    /// this workspace build, git revision read from `.git` if present.
    pub fn collect(bin: &str, quick: bool, config_text: &str) -> Self {
        RunManifest {
            bin: bin.to_string(),
            quick,
            config_digest: digest64(config_text),
            seeds: Vec::new(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            git_rev: git_rev(),
            schemas: Vec::new(),
        }
    }

    /// Records a named seed.
    pub fn with_seed(mut self, name: &str, seed: u64) -> Self {
        self.seeds.push((name.to_string(), seed));
        self
    }

    /// Records an artifact schema id (e.g. `"bh-report/1"`).
    pub fn with_schema(mut self, schema: &str) -> Self {
        self.schemas.push(schema.to_string());
        self
    }

    /// Renders the manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut seeds = Json::obj();
        for (name, seed) in &self.seeds {
            seeds.set(name.as_str(), *seed);
        }
        let mut schemas = Json::arr();
        for s in &self.schemas {
            schemas.push(s.as_str());
        }
        let mut root = Json::obj();
        root.set("bin", self.bin.as_str());
        root.set("quick", self.quick);
        root.set("config_digest", format!("{:016x}", self.config_digest));
        root.set("seeds", seeds);
        root.set("version", self.version.as_str());
        match &self.git_rev {
            Some(rev) => root.set("git_rev", rev.as_str()),
            None => root.set("git_rev", Json::Null),
        };
        root.set("schemas", schemas);
        root
    }
}

/// Resolves the current git revision by walking up from the working
/// directory to a `.git/HEAD` and following one level of `ref:`
/// indirection. Returns `None` outside a repository — the manifest
/// records `null` rather than failing the run.
fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            if let Some(refname) = contents.strip_prefix("ref: ") {
                let target = dir.join(".git").join(refname.trim());
                if let Ok(rev) = std::fs::read_to_string(target) {
                    return Some(rev.trim().to_string());
                }
                // Packed refs: fall back to naming the ref itself.
                return Some(refname.trim().to_string());
            }
            return Some(contents.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Ctr, Gauge, Obs};
    use bh_metrics::Nanos;

    #[test]
    fn prometheus_exposition_names_every_metric() {
        let obs = Obs::enabled();
        obs.add(Ctr::FlashErases, 7);
        obs.gauge_set(Gauge::ZnsOpenZones, 3);
        let text = obs.snapshot().to_prometheus("bh_");
        assert!(text.contains("bh_flash_erases_total 7\n"));
        assert!(text.contains("bh_zns_open_zones 3\n"));
        assert!(text.contains("bh_zns_open_zones_peak 3\n"));
        for c in ALL_CTRS {
            assert!(text.contains(c.name()), "missing counter {}", c.name());
        }
        for g in ALL_GAUGES {
            assert!(text.contains(g.name()), "missing gauge {}", g.name());
        }
    }

    #[test]
    fn json_snapshot_round_trips_values() {
        let obs = Obs::enabled();
        obs.add(Ctr::KvWalBytes, 4096);
        obs.gauge_set(Gauge::QueueInFlight, 16);
        obs.gauge_set(Gauge::QueueInFlight, 2);
        let j = obs.snapshot().to_json();
        let parsed = bh_json::parse(&j.dump()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("kv_wal_bytes"))
                .and_then(Json::as_u64),
            Some(4096)
        );
        let qif = parsed.get("gauges").and_then(|g| g.get("queue_in_flight"));
        assert_eq!(
            qif.and_then(|g| g.get("value")).and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            qif.and_then(|g| g.get("peak")).and_then(Json::as_u64),
            Some(16)
        );
    }

    #[test]
    fn hist_export_is_rederivable() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(Nanos::from_micros(us));
        }
        let j = hist_to_json(&h);
        let buckets = j.get("buckets").and_then(Json::as_arr).unwrap();
        let total: u64 = buckets
            .iter()
            .map(|b| b.at(1).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(total, 100);
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(digest64("abc"), digest64("abc"));
        assert_ne!(digest64("abc"), digest64("abd"));
        // Known FNV-1a vector: empty string hashes to the offset basis.
        assert_eq!(digest64(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn manifest_serializes_all_fields() {
        let m = RunManifest::collect("expt_x", true, "argv --quick")
            .with_seed("workload", 0x9E17)
            .with_schema("bh-report/1");
        let j = m.to_json();
        assert_eq!(j.get("bin").and_then(Json::as_str), Some("expt_x"));
        assert_eq!(j.get("quick").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("config_digest").and_then(Json::as_str).unwrap().len(),
            16
        );
        assert_eq!(
            j.get("seeds")
                .and_then(|s| s.get("workload"))
                .and_then(Json::as_u64),
            Some(0x9E17)
        );
        // This test runs inside the repo, so a revision must resolve.
        assert!(j.get("git_rev").is_some());
    }
}
