//! Per-layer numbers: read from the spans, profiler scopes and counters
//! a traced flow already emits, and from probes that call the layer
//! kernels directly on each testcase's input tree.

use std::hint::black_box;
use std::time::{Duration, Instant};

use clk_cts::Testcase;
use clk_liberty::CornerId;
use clk_obs::{AttrNode, MetricValue, MetricsSnapshot};
use clk_skewopt::predictor::move_features;
use clk_skewopt::{enumerate_moves, DeltaLatencyModel, MoveConfig};
use clk_sta::Timer;

/// Shortest time over which one STA probe repeats `analyze_all`.
const STA_PROBE_MIN: Duration = Duration::from_millis(200);

/// What a traced flow pass left in its metrics snapshot and profiler.
pub struct Trace<'a> {
    pub snap: &'a MetricsSnapshot,
    pub prof: &'a AttrNode,
}

impl Trace<'_> {
    fn counter(&self, name: &str) -> u64 {
        match self.snap.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Sum of a span's durations over the pass, seconds.
    fn span_s(&self, span: &str) -> f64 {
        match self.snap.get(&format!("span.{span}.ms")) {
            Some(MetricValue::Histogram(h)) => h.sum / 1e3,
            _ => 0.0,
        }
    }

    /// Largest sample of a histogram (0 when it never fired).
    fn hist_max(&self, name: &str) -> f64 {
        match self.snap.get(name) {
            Some(MetricValue::Histogram(h)) => h.max,
            _ => 0.0,
        }
    }

    /// Inclusive time of every profiler scope named `scope`, seconds.
    /// Scopes on worker threads add up, so this can exceed wall time.
    fn scope_s(&self, scope: &str) -> f64 {
        self.prof.total_ns_of(scope) as f64 / 1e9
    }

    /// Every per-layer metric the flow itself reports.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = |n| self.counter(n) as f64;
        let solves = c("lp.solves");
        vec![
            ("phase.local_s", self.span_s("phase.local")),
            ("local.predict_s", self.scope_s("local.predict")),
            ("local.eval.golden_sta_s", self.scope_s("golden_sta")),
            ("local.golden_evals", c("local.golden_evals")),
            ("local.predicted_positive", c("local.predicted_positive")),
            (
                "local.accept_ratio",
                ratio(c("local.accepted"), c("local.golden_evals")),
            ),
            ("phase.global_s", self.span_s("phase.global")),
            (
                "global.eco_accept_ratio",
                ratio(
                    c("global.eco_accepted"),
                    c("global.eco_accepted") + c("global.eco_rollback"),
                ),
            ),
            (
                "global.lp_rows_per_solve",
                ratio(c("global.lp_rows_built"), solves),
            ),
            ("lp.solve_s", self.scope_s("lp.solve")),
            ("lp.basis_update_s", self.scope_s("basis_update")),
            ("lp.pricing_s", self.scope_s("pricing")),
            ("lp.ratio_test_s", self.scope_s("ratio_test")),
            ("lp.solves", solves),
            ("lp.pivots", c("lp.pivots")),
            (
                "lp.degenerate_ratio",
                ratio(c("lp.degenerate_pivots"), c("lp.pivots")),
            ),
            ("cert.checks", c("cert.checks")),
            ("sta.nodes_timed", c("sta.nodes_timed")),
            ("phase.coverage", self.phase_coverage()),
        ]
    }

    /// Share of the flows' wall time the `phase.*` spans cover.
    pub fn phase_coverage(&self) -> f64 {
        let phases: f64 = ["init", "global", "local", "scoring"]
            .iter()
            .map(|p| self.span_s(&format!("phase.{p}")))
            .sum();
        ratio(phases, self.span_s("flow"))
    }

    /// The exactness guard: every LP solve was certified and every
    /// certificate verified. (Acceptance is exact; `cert.max_resid` is
    /// the float residual inside the exact tolerance band, telemetry
    /// only.) Returns the violations.
    pub fn certificate_problems(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let (checks, solves) = (self.counter("cert.checks"), self.counter("lp.solves"));
        if checks != solves {
            bad.push(format!("cert.checks {checks} != lp.solves {solves}"));
        }
        let violations = self.counter("cert.violations");
        if violations > 0 {
            bad.push(format!(
                "{violations} LP certificates failed (max residual {})",
                self.hist_max("cert.max_resid")
            ));
        }
        bad
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Kernel timings of one probe over a workload's input trees.
#[derive(Default)]
pub struct Probe {
    moves: usize,
    move_corners: usize,
    features_s: f64,
    predict_s: f64,
    sta_calls: usize,
    sta_s: f64,
}

impl Probe {
    /// Runs the move-estimator and STA kernels on `tc`'s input tree:
    /// enumerate the moves, build every move × corner feature vector,
    /// score them with `model` (when the workload trains one), and
    /// re-time the tree until the timing is long enough to read.
    pub fn add(&mut self, tc: &Testcase, move_cfg: &MoveConfig, model: Option<&DeltaLatencyModel>) {
        let timer = Timer::golden();
        let timings = timer.analyze_all(&tc.tree, &tc.lib);
        let moves = enumerate_moves(&tc.tree, &tc.lib, move_cfg, None);
        self.moves += moves.len();

        let t0 = Instant::now();
        let mut features = Vec::with_capacity(moves.len() * timings.len());
        for mv in &moves {
            for (k, timing) in timings.iter().enumerate() {
                let f = move_features(&tc.tree, &tc.lib, CornerId(k), timing, mv, move_cfg);
                features.push((CornerId(k), black_box(f)));
            }
        }
        self.features_s += t0.elapsed().as_secs_f64();
        self.move_corners += features.len();

        if let Some(model) = model {
            let t0 = Instant::now();
            let mut sum = 0.0;
            for (corner, f) in &features {
                sum += model.predict(*corner, f);
            }
            black_box(sum);
            self.predict_s += t0.elapsed().as_secs_f64();
        }

        let t0 = Instant::now();
        let mut calls = 0;
        while calls < 3 || t0.elapsed() < STA_PROBE_MIN {
            black_box(timer.analyze_all(black_box(&tc.tree), &tc.lib));
            calls += 1;
        }
        self.sta_s += t0.elapsed().as_secs_f64();
        self.sta_calls += calls;
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("predictor.features_s", self.features_s),
            (
                "predictor.features_per_s",
                ratio(self.move_corners as f64, self.features_s),
            ),
            ("predictor.predict_s", self.predict_s),
            ("moves.enumerated", self.moves as f64),
            (
                "sta.analyze_all_ms",
                ratio(self.sta_s * 1e3, self.sta_calls as f64),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_obs::{Obs, ObsConfig};

    #[test]
    fn trace_readout_takes_spans_scopes_and_counters() {
        let obs = Obs::new(ObsConfig {
            profile: true,
            ..ObsConfig::default()
        });
        obs.count("lp.solves", 2);
        obs.count("lp.pivots", 10);
        obs.count("lp.degenerate_pivots", 4);
        obs.count("cert.checks", 2);
        obs.observe("cert.max_resid", 0.0);
        obs.count("global.eco_accepted", 1);
        obs.count("global.eco_rollback", 3);
        drop(obs.span("phase.global"));
        drop(obs.prof_scope("lp.solve"));
        let snap = obs.metrics_snapshot().expect("enabled");
        let prof = obs.profiler().tree();
        let t = Trace {
            snap: &snap,
            prof: &prof,
        };
        let m: std::collections::BTreeMap<_, _> = t.metrics().into_iter().collect();
        assert_eq!(m["lp.solves"], 2.0);
        assert_eq!(m["lp.degenerate_ratio"], 0.4);
        assert_eq!(m["global.eco_accept_ratio"], 0.25);
        assert_eq!(m["local.accept_ratio"], 0.0);
        assert!(m["phase.global_s"] >= 0.0 && m["lp.solve_s"] >= 0.0);
        assert!(t.certificate_problems().is_empty());

        obs.count("cert.checks", 1);
        obs.count("lp.solves", 1);
        obs.count("cert.violations", 1);
        let snap = obs.metrics_snapshot().expect("enabled");
        let t = Trace {
            snap: &snap,
            prof: &prof,
        };
        assert_eq!(t.certificate_problems().len(), 1);

        obs.count("cert.checks", 1);
        let snap = obs.metrics_snapshot().expect("enabled");
        let t = Trace {
            snap: &snap,
            prof: &prof,
        };
        assert_eq!(t.certificate_problems().len(), 2);
    }
}
