//! The metric vocabulary and the one-line JSON result.
//!
//! Every name the benchmark can print is declared here with its unit; the
//! same lists are declared in `BENCHMARK.json`, and a test keeps the two
//! identical. Per-layer names carry their layer as a dotted prefix.

use std::collections::BTreeMap;

/// End-to-end metrics, printed on untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("served_frac", "ratio"),
    ("accuracy", "ratio"),
    ("energy_nj_per_inf", "nJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on traced runs (`--trace 1`). A metric whose
/// layer a workload does not exercise reads 0 there (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Set-up, split by the layer that does the work.
    ("ann.train_ms", "ms"),
    ("bitcell.characterize_ms", "ms"),
    ("gen.tenant_ms", "ms"),
    ("array.load_ms", "ms"),
    ("array.load_mwords_per_s", "Mword/s"),
    ("serve.boot_bist_ms", "ms"),
    // Request datapath, probed by direct single-thread calls.
    ("system.classify_us.digits", "us"),
    ("system.classify_us.spectra", "us"),
    ("array.read_row_ns_per_word", "ns/word"),
    ("array.read_row_clean_ns_per_word", "ns/word"),
    ("array.fault_bits_per_kword", "count"),
    ("system.batch_us_per_req", "us"),
    ("system.neuron_ns_per_mac", "ns"),
    // Closed-batch server and its resilience loop.
    ("serve.queue_wait_p50_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.words_per_s", "word/s"),
    ("serve.mean_batch", "req"),
    ("serve.maintain_ms_p50", "ms"),
    ("serve.maintain_share", "ratio"),
    ("serve.corrected_bits", "count"),
    ("serve.uncorrectable_words", "count"),
    ("serve.rows_repaired", "count"),
    ("serve.governor_boosts", "count"),
    ("serve.scrub_fix_ratio", "ratio"),
    // Network tier, from the per-reply server stamps.
    ("net.queue_p50_us", "us"),
    ("net.queue_p99_us", "us"),
    ("net.service_p50_us", "us"),
    ("net.service_p99_us", "us"),
    ("net.residual_p50_us", "us"),
    ("net.residual_p99_us", "us"),
    ("net.residual_share", "ratio"),
    ("net.codec_ns_per_req", "ns"),
    ("net.shed", "count"),
    ("net.errors", "count"),
    ("net.degrade_events", "count"),
    // The load generator itself.
    ("client.late_p99_us", "us"),
    ("client.latency_p90_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.latency_samples", "count"),
    // Traced minus untraced end-to-end figures of the same run.
    ("trace.throughput_overhead_pct", "%"),
    ("trace.latency_p50_overhead_pct", "%"),
];

/// Layer prefixes a per-layer name may carry: the crate layers plus the
/// load generator and the tracing self-measurement.
#[cfg(test)]
pub const LAYERS: &[&str] = &[
    "ann", "bitcell", "gen", "array", "system", "serve", "net", "client", "trace",
];

/// Collected metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records (or overwrites) one metric. The name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in metrics.rs"
        );
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: exactly the metrics of `declared`, each with its
    /// unit. Panics if one is missing or not finite — a benchmark bug.
    pub fn result_line(
        &self,
        declared: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let body: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json. A small
    /// scanner for the file's fixed shape; the crate has no JSON parser.
    fn declared(json: &str, list: &str) -> Vec<(String, String)> {
        let key = format!("\"{list}\"");
        let start = json.find(&key).expect("list present") + key.len();
        let open = start + json[start..].find('[').expect("list opens");
        let close = open + json[open..].find(']').expect("list closes");
        let field = |entry: &str, field: &str| -> String {
            let tag = format!("\"{field}\"");
            let at = entry.find(&tag).expect("field present") + tag.len();
            let rest = &entry[at..];
            let q1 = rest.find('"').expect("value opens") + 1;
            let q2 = q1 + rest[q1..].find('"').expect("value closes");
            rest[q1..q2].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_equal_the_declared_names() {
        let json = benchmark_json();
        let mut e2e = declared(&json, "end_to_end");
        let mut layer = declared(&json, "per_layer");
        let mut ours_e2e = owned(END_TO_END);
        let mut ours_layer = owned(PER_LAYER);
        for v in [&mut e2e, &mut layer, &mut ours_e2e, &mut ours_layer] {
            v.sort();
        }
        assert_eq!(ours_e2e, e2e);
        assert_eq!(ours_layer, layer);
    }

    #[test]
    fn every_per_layer_name_has_a_known_layer_prefix() {
        for (name, _) in PER_LAYER {
            let prefix = name.split('.').next().unwrap_or("");
            assert!(LAYERS.contains(&prefix), "{name} has no known layer prefix");
            assert!(name.len() > prefix.len() + 1, "{name} has no metric part");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.25);
        }
        let line = m.result_line(END_TO_END, true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
