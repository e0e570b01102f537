//! Metric names, the run outcome every workload returns, and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order. A layer
/// that is not on a workload's op path reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.mean_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("workloads.prepare_ms", "ms"),
    ("workloads.blocks", "count"),
    ("mem.profile_sim_ms", "ms"),
    ("mem.final_sim_ms", "ms"),
    ("mem.fetches", "count"),
    ("mem.ns_per_fetch", "ns"),
    ("mem.cache_misses", "count"),
    ("solve.ms", "ms"),
    ("solve.nodes", "count"),
    ("solve.ns_per_node", "ns"),
    ("solve.gap_at_100k", "%"),
    ("trace.form_ms", "ms"),
    ("trace.layout_ms", "ms"),
    ("trace.objects", "count"),
    ("conflict.build_ms", "ms"),
    ("conflict.edges", "count"),
    ("ross.alloc_ms", "ms"),
    ("server.handler_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.warm_ratio", "ratio"),
    ("server.rejected", "count"),
    ("server.memo_misses", "count"),
    ("server.reqs_per_cpu_s", "1/s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("http.overhead_hit_ms", "ms"),
    ("http.overhead_miss_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops (requests) attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed; they are not in the latency samples.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// The result line: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn result_json(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.problems.is_empty();
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    correct = false;
                    f64::NAN
                }
            };
            // A non-finite value cannot be written as JSON; it marks
            // the run incorrect instead.
            let v = if v.is_finite() {
                v
            } else {
                correct = false;
                0.0
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names printed are exactly those `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));

        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        for traced in [false, true] {
            let line = serde::json::parse(&o.result_json(traced)).expect("result line parses");
            let printed: Vec<String> = line
                .get("metrics")
                .and_then(|m| m.as_object())
                .unwrap()
                .keys()
                .cloned()
                .collect();
            let mut want: Vec<String> = ours(if traced { PER_LAYER } else { END_TO_END })
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            want.sort();
            assert_eq!(printed, want);
            assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));
        }
    }

    #[test]
    fn missing_end_to_end_metric_is_incorrect() {
        let o = Outcome::default();
        assert!(o.result_json(false).starts_with("{\"correct\": false"));
    }
}
