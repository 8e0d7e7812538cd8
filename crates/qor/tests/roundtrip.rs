//! End-to-end schema round trip: populate a snapshot from a real
//! (tiny) flow run with observability enabled, serialize it through
//! `clk_obs::json`, parse it back, and self-diff.

use clk_cts::{Testcase, TestcaseKind};
use clk_obs::{Level, Obs, ObsConfig};
use clk_qor::{diff_snapshots, QorSnapshot, TestcaseQor, TolerancePolicy, SCHEMA_VERSION};
use clk_skewopt::{try_optimize_with, Flow, FlowConfig, GlobalConfig, StageLuts};

fn tiny_global_run() -> (QorSnapshot, TestcaseQor) {
    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    let mut cfg = FlowConfig {
        global: GlobalConfig {
            max_pairs: 20,
            lambdas: vec![0.3],
            rounds: 1,
            ..GlobalConfig::default()
        },
        ..FlowConfig::default()
    };
    cfg.obs = obs.clone();
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, 2015);
    let luts = StageLuts::characterize(&tc.lib);
    let report =
        try_optimize_with(&tc, Flow::Global, &cfg, Some(&luts), None).expect("flow completes");
    let corner_names: Vec<String> = tc.lib.corners().iter().map(|c| c.name.clone()).collect();
    let wl = clk_netlist::TreeStats::compute(&report.tree, &tc.lib).wirelength_um;
    let rec = TestcaseQor::from_report(
        "CLS1v1",
        &corner_names,
        &report,
        obs.metrics_snapshot().as_ref(),
        1234.5,
        wl,
    );
    let mut snap = QorSnapshot::new("test-rev", 2015, "tiny");
    snap.testcases.push(rec.clone());
    (snap, rec)
}

#[test]
fn populated_snapshot_round_trips_and_self_diffs_clean() {
    let (snap, rec) = tiny_global_run();

    // the extraction saw the real run
    assert_eq!(snap.schema_version, SCHEMA_VERSION);
    assert_eq!(rec.flow, "global");
    assert_eq!(rec.corners.len(), 3, "three corners in the synthetic lib");
    assert!(rec.variation_before_ps > 0.0);
    assert!(rec.variation_after_ps <= rec.variation_before_ps + 1e-9);
    assert!(rec.cells_before > 0);
    assert!(rec.wirelength_um > 0.0);
    assert!(rec.lp_rounds >= 1, "one sweep point was attempted");
    assert!(
        rec.phases
            .iter()
            .any(|p| p.name == "phase.global" && p.wall_ms > 0.0),
        "phase wall clock scraped from the metrics registry: {:?}",
        rec.phases
    );
    assert!(
        rec.counters
            .iter()
            .any(|(n, v)| n == "lp.solves" && *v >= 1.0),
        "raw counters captured: {:?}",
        rec.counters
    );

    // serialization rounds floats to 1e-6 once; after that the round
    // trip is a fixed point
    let text = snap.to_json_pretty();
    let back = QorSnapshot::parse_str(&text).expect("schema parses back");
    assert_eq!(
        back.to_json_pretty(),
        text,
        "parse ∘ print is idempotent on its own output"
    );
    assert_eq!(back.testcases.len(), snap.testcases.len());
    assert!(
        (back.testcases[0].variation_after_ps - rec.variation_after_ps).abs() < 1e-5,
        "values survive to write precision"
    );

    // and the parsed copy self-diffs clean under the default gate
    let d = diff_snapshots(&back, &snap, &TolerancePolicy::default_qor());
    assert!(!d.has_regressions(), "{}", d.to_text(true));
}

#[test]
fn parse_rejects_wrong_shapes() {
    assert!(QorSnapshot::parse_str("[]").is_err());
    assert!(QorSnapshot::parse_str("{\"schema_version\":\"one\"}").is_err());
    let (snap, _) = tiny_global_run();
    // corrupt one testcase: drop a required key
    let text = snap
        .to_json_pretty()
        .replace("\"variation_after_ps\"", "\"variation_after_renamed\"");
    let e = QorSnapshot::parse_str(&text).unwrap_err();
    assert!(e.contains("variation_after_ps"), "{e}");
}
