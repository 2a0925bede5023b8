//! The metric names and units the benchmark reports; `BENCHMARK.json`
//! lists the same (checked by a test).

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Resident memory is stored with each result instead: the grid's moved
/// by a quarter between runs of the same inputs (allocator retention
/// after the few candidates that clone ~1000 pods), too much for a bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("substrate.exec.calls", "count"),
    ("substrate.exec.busy_s", "s"),
    ("substrate.exec.p50_us", "us"),
    ("substrate.exec.p99_us", "us"),
    ("substrate.exec.fail_busy_s", "s"),
    // Simulated cluster time, deterministic per input: not a wall time.
    ("substrate.exec.simulated_s", "sim_s"),
    ("llmsim.generate.busy_s", "s"),
    ("llmsim.generate.p50_us", "us"),
    ("llmsim.generate.p99_us", "us"),
    ("llmsim.extract.busy_s", "s"),
    ("yamlkit.parse.busy_s", "s"),
    ("yamlkit.parse.failed", "count"),
    ("cescore.score.busy_s", "s"),
    ("cescore.prepare_ref.busy_s", "s"),
    ("evalcluster.memo.hits", "count"),
    ("evalcluster.memo.misses", "count"),
    ("evalcluster.memo.hit_ratio", "ratio"),
    ("core.pipeline.speedup", "ratio"),
    ("core.pipeline.cpu_utilization", "ratio"),
    ("ceserve.http_parse.busy_s", "s"),
    ("ceserve.handle.busy_s", "s"),
    ("ceserve.handle.p50_us", "us"),
    ("ceserve.handle.p99_us", "us"),
    ("core.score_submission.busy_s", "s"),
    ("ceserve.loop.p50_us", "us"),
    ("ceserve.response_cache.hit_ratio", "ratio"),
    ("cedataset.generate_s", "s"),
    ("llmsim.calibrate_s", "s"),
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-model metric prefix: one `core.evaluate_s.<model>` per simulated
/// model, the wall clock of that model's `harness::evaluate` call.
pub const EVALUATE_PREFIX: &str = "core.evaluate_s.";

/// Every per-layer metric in print order, per-model ones included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    all.extend(
        llmsim::all_models()
            .iter()
            .map(|m| (format!("{EVALUATE_PREFIX}{}", m.name), "s")),
    );
    all
}

/// Values a workload measured, by metric name.
pub type Values = BTreeMap<String, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        // The YAML engine reads JSON flow collections on one line only.
        let one_line: Vec<&str> = text.lines().map(str::trim).collect();
        let json = yamlkit::parse_one(&one_line.join(" "))
            .expect("BENCHMARK.json parses")
            .to_value();
        let declared = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(yamlkit::Yaml::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| {
                            m.get(f)
                                .and_then(yamlkit::Yaml::as_str)
                                .unwrap_or("")
                                .to_owned()
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
    }
}
