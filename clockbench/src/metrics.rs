//! The benchmark's metric catalogue (mirrored by `BENCHMARK.json`) and
//! the result line it prints.

use clk_obs::Value;

/// An end-to-end metric: what a user of the flow sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    #[allow(dead_code)] // the tests hold BENCHMARK.json to it
    pub bound: f64,
}

/// A per-layer metric, read from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[allow(dead_code)] // the tests hold BENCHMARK.json to it
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every end-to-end metric is better when lower.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("flow_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.15),
    e2e("variation_ratio", "ratio", 0.02),
    e2e("max_local_skew_ratio", "ratio", 0.02),
    e2e("power_ratio", "ratio", 0.02),
    e2e("cells_ratio", "ratio", 0.02),
];

pub const PER_LAYER: &[PerLayer] = &[
    layer("cts.generate_s", "s", "lower"),
    layer("lut.characterize_s", "s", "lower"),
    layer("predictor.train_s", "s", "lower"),
    layer("predictor.features_s", "s", "lower"),
    layer("predictor.features_per_s", "1/s", "higher"),
    layer("predictor.predict_s", "s", "lower"),
    layer("moves.enumerated", "count", "higher"),
    layer("phase.local_s", "s", "lower"),
    layer("local.predict_s", "s", "lower"),
    layer("local.eval.golden_sta_s", "s", "lower"),
    layer("local.golden_evals", "count", "lower"),
    layer("local.predicted_positive", "count", "higher"),
    layer("local.accept_ratio", "ratio", "higher"),
    layer("phase.global_s", "s", "lower"),
    layer("global.eco_accept_ratio", "ratio", "higher"),
    layer("global.lp_rows_per_solve", "count", "lower"),
    layer("lp.solve_s", "s", "lower"),
    layer("lp.basis_update_s", "s", "lower"),
    layer("lp.pricing_s", "s", "lower"),
    layer("lp.ratio_test_s", "s", "lower"),
    layer("lp.solves", "count", "lower"),
    layer("lp.pivots", "count", "lower"),
    layer("lp.degenerate_ratio", "ratio", "lower"),
    layer("cert.checks", "count", "higher"),
    layer("sta.analyze_all_ms", "ms", "lower"),
    layer("sta.nodes_timed", "count", "lower"),
    layer("flow.faults_absorbed", "count", "lower"),
    layer("phase.coverage", "share", "higher"),
    layer("trace.overhead_s", "s", "lower"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                Value::Obj(vec![
                    ("value".to_string(), Value::Num(value)),
                    ("unit".to_string(), Value::from(unit)),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_obs::json;

    /// Whether `name` is a legal metric name: a letter or digit, then at
    /// most 63 more of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names() -> impl Iterator<Item = &'static str> {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<_> = names().collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn catalogue_sizes_and_bounds_are_within_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER
            .iter()
            .all(|m| matches!(m.better, "lower" | "higher")));
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Value::as_str), Some("lower"));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let per = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer");
        assert_eq!(per.len(), PER_LAYER.len());
        for (j, m) in per.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Value::as_str), Some(m.better));
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("flow_s", "s", 1.25)]);
        let v = json::parse(&line).expect("json");
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("flow_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }
}
