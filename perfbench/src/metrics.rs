//! The benchmark's metric catalogue and the sheet that collects values.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test holds the two in step. Every workload reports every metric, so a
//! later change is compared name by name on every workload.

use crate::stats;
use numa_gpu_testkit::json::Json;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warp_ops_per_s", "warp_instr/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.gen_s", "s"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.event_cost_scale_ratio", "ratio"),
    ("core.sim_cycles", "cycles"),
    ("engine.events_popped", "count"),
    ("engine.queue_peak_len", "count"),
    ("engine.window_barriers", "count"),
    ("engine.cross_msgs_merged", "count"),
    ("sm.warp_ops_issued", "count"),
    ("sm.mshr_stall_parks", "count"),
    ("cache.l1_accesses", "count"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_hit_ratio", "ratio"),
    ("mem.dram_bytes", "bytes"),
    ("mem.page_lookups", "count"),
    ("interconnect.noc_requests", "count"),
    ("interconnect.link_bytes", "bytes"),
    ("interconnect.lane_turns", "count"),
    ("interconnect.remote_read_fraction", "ratio"),
    ("exec.serial_run_s", "s"),
    ("exec.thread_speedup", "ratio"),
    ("exec.us_per_window", "us"),
    ("bench.warm_s", "s"),
    ("bench.runs", "count"),
    ("bench.warm_hit_ratio", "ratio"),
    ("bench.store_bytes", "bytes"),
    ("bench.store_save_us.p50", "us"),
    ("bench.store_save_us.p90", "us"),
    ("bench.store_load_us.p50", "us"),
    ("bench.store_load_us.p90", "us"),
    ("bench.codec_encode_us.p50", "us"),
    ("bench.codec_encode_us.p90", "us"),
    ("bench.codec_decode_us.p50", "us"),
    ("bench.codec_decode_us.p90", "us"),
    ("bench.to_json_us.p50", "us"),
    ("bench.to_json_us.p90", "us"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// One recorded value with the number of samples behind it.
#[derive(Debug)]
struct Entry {
    name: String,
    value: f64,
    samples: usize,
}

/// The metrics one invocation produced, in recording order.
#[derive(Debug, Default)]
pub struct Sheet {
    entries: Vec<Entry>,
}

impl Sheet {
    /// Records `name` as the median of `samples`.
    pub fn median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, stats::median(samples), samples.len());
    }

    /// Records `name` as the p50 and p90 of `samples` under
    /// `name.p50` / `name.p90`. A percentile without [`stats::MIN_TAIL`]
    /// samples beyond it is left out, which the completeness check flags.
    pub fn percentiles(&mut self, name: &str, samples: &[f64]) {
        for p in [50, 90] {
            if let Some(v) = stats::percentile(samples, p as f64) {
                self.set(&format!("{name}.p{p}"), v, samples.len());
            }
        }
    }

    /// Records one value (a count, a ratio or a single timing).
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Names from `catalogue` that were not recorded or are not finite.
    pub fn missing(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue
            .iter()
            .filter(|(name, _)| !self.get(name).is_some_and(f64::is_finite))
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// Human-readable table of the `catalogue` metrics: name, value, unit
    /// and sample count.
    pub fn table(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue {
            if let Some(e) = self.entries.iter().find(|e| e.name == *name) {
                out.push_str(&format!(
                    "  {:<36} {:>18.6} {:<13} n={}\n",
                    name, e.value, unit, e.samples
                ));
            }
        }
        out
    }

    /// The `metrics` object of the result line: every `catalogue` metric
    /// that was recorded, as `{"value": .., "unit": ..}`.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> Json {
        Json::Obj(
            catalogue
                .iter()
                .filter_map(|(name, unit)| {
                    let value = self.get(name)?;
                    Some((
                        name.to_string(),
                        Json::obj([
                            ("value", Json::Float(value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    ))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_testkit::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn every_declared_name_and_unit_follows_the_grammar() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(stats::valid_name(name), "bad metric name {name}");
            assert!(stats::valid_unit(unit), "bad unit {unit} on {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn sheet_reports_missing_and_renders_json() {
        let mut sheet = Sheet::default();
        sheet.median("run_s", &[3.0, 1.0, 2.0]);
        sheet.set("setup_s", f64::NAN, 1);
        let cat = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];
        assert_eq!(sheet.missing(&cat), vec!["setup_s", "peak_rss_mb"]);
        assert_eq!(
            sheet.json(&cat[..1]).to_string(),
            r#"{"run_s":{"value":2.0,"unit":"s"}}"#
        );
        assert!(sheet.table(&cat).contains("n=3"));
    }

    #[test]
    fn percentiles_drop_underpopulated_ranks() {
        let mut sheet = Sheet::default();
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        sheet.percentiles("bench.codec_encode_us", &xs);
        assert_eq!(sheet.get("bench.codec_encode_us.p50"), Some(25.0));
        assert_eq!(sheet.get("bench.codec_encode_us.p90"), None);
    }
}
