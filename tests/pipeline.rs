//! Cross-crate integration tests: full generate → CTS → optimize
//! pipelines at small scale, checking the paper's end-to-end guarantees.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_cmp)]

use clk_cts::{variation_sum, Testcase, TestcaseKind};
use clk_liberty::CornerId;
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, StageLuts};
use clk_sta::{local_skew_ps, pair_skews, Timer, Violation};
use clockvar_workbench::quick_flow_config;

fn artifacts(tc: &Testcase) -> (StageLuts, DeltaLatencyModel) {
    let cfg = quick_flow_config();
    (
        StageLuts::characterize(&tc.lib),
        DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train),
    )
}

#[test]
fn global_local_beats_or_matches_each_phase_alone() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 77);
    let cfg = quick_flow_config();
    let (luts, model) = artifacts(&tc);
    let g = try_optimize_with(&tc, Flow::Global, &cfg, Some(&luts), None).expect("flow completes");
    let l = try_optimize_with(&tc, Flow::Local, &cfg, None, Some(&model)).expect("flow completes");
    let gl = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))
        .expect("flow completes");
    // none of the flows may degrade the metric
    assert!(g.variation_ratio() <= 1.0 + 1e-9);
    assert!(l.variation_ratio() <= 1.0 + 1e-9);
    assert!(gl.variation_ratio() <= 1.0 + 1e-9);
    // the combined flow is at least as good as the global phase alone
    // (its local phase starts from the global result and only accepts
    // golden-verified improvements)
    assert!(
        gl.variation_after <= g.variation_after + 1e-6,
        "global-local {} vs global {}",
        gl.variation_after,
        g.variation_after
    );
}

#[test]
fn optimized_trees_stay_sane() {
    let tc = Testcase::generate(TestcaseKind::Cls1v2, 40, 78);
    let cfg = quick_flow_config();
    let (luts, model) = artifacts(&tc);
    let report = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))
        .expect("flow completes");
    let tree = &report.tree;
    tree.validate()
        .expect("tree invariants hold after both phases");
    // clock polarity preserved at every sink
    for s in tree.sinks().collect::<Vec<_>>() {
        assert_eq!(tree.inversions_to(s) % 2, 0, "sink {s} polarity flipped");
    }
    // the paper's footnote: no max-cap / max-transition violations added
    let timer = Timer::golden();
    for corner in tc.lib.corner_ids() {
        let before = timer.analyze(&tc.tree, &tc.lib, corner);
        let after = timer.analyze(tree, &tc.lib, corner);
        let count = |v: &[Violation]| v.len();
        assert!(
            count(after.violations()) <= count(before.violations()),
            "corner {corner}: violations grew: {:?}",
            after.violations()
        );
    }
    // local skew must not degrade beyond the configured guard
    for (k, corner) in tc.lib.corner_ids().enumerate() {
        let before = local_skew_ps(&pair_skews(
            &timer.analyze(&tc.tree, &tc.lib, corner),
            tc.tree.sink_pairs(),
        ));
        let after = local_skew_ps(&pair_skews(
            &timer.analyze(tree, &tc.lib, corner),
            tree.sink_pairs(),
        ));
        assert!(
            after <= before * cfg.global.skew_guard_factor + cfg.global.skew_guard_ps,
            "corner {k}: local skew {before} -> {after}"
        );
    }
}

#[test]
fn memory_controller_pipeline_runs() {
    let tc = Testcase::generate(TestcaseKind::Cls2v1, 40, 79);
    assert_eq!(tc.lib.corner_count(), 3);
    // CLS2 uses {c0, c1, c2}: its hold corner is 1.10V FF
    assert!((tc.lib.corner(CornerId(2)).voltage - 1.10).abs() < 1e-9);
    let cfg = quick_flow_config();
    let luts = StageLuts::characterize(&tc.lib);
    let report =
        try_optimize_with(&tc, Flow::Global, &cfg, Some(&luts), None).expect("flow completes");
    report.tree.validate().unwrap();
    assert!(report.variation_ratio() <= 1.0 + 1e-9);
}

#[test]
fn generation_and_optimization_are_deterministic() {
    let a = Testcase::generate(TestcaseKind::Cls1v1, 32, 80);
    let b = Testcase::generate(TestcaseKind::Cls1v1, 32, 80);
    assert_eq!(
        variation_sum(&a.tree, &a.lib),
        variation_sum(&b.tree, &b.lib)
    );
    let cfg = quick_flow_config();
    let luts_a = StageLuts::characterize(&a.lib);
    let luts_b = StageLuts::characterize(&b.lib);
    let ra =
        try_optimize_with(&a, Flow::Global, &cfg, Some(&luts_a), None).expect("flow completes");
    let rb =
        try_optimize_with(&b, Flow::Global, &cfg, Some(&luts_b), None).expect("flow completes");
    assert_eq!(ra.variation_after, rb.variation_after);
    assert_eq!(ra.cells_after, rb.cells_after);
}

#[test]
fn alpha_normalization_tracks_corner_scale() {
    // c1 skews are roughly delay-ratio times c0 skews; alpha_1 must come
    // out near the inverse ratio so normalized variation is comparable
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 81);
    let timer = Timer::golden();
    let skews: Vec<Vec<f64>> = tc
        .lib
        .corner_ids()
        .map(|c| pair_skews(&timer.analyze(&tc.tree, &tc.lib, c), tc.tree.sink_pairs()))
        .collect();
    let alphas = clk_sta::alpha_factors(&skews);
    assert!((alphas[0] - 1.0).abs() < 1e-12);
    assert!(
        alphas[1] > 0.3 && alphas[1] < 0.8,
        "alpha_1 = {}",
        alphas[1]
    );
    assert!(
        alphas[2] > 1.5 && alphas[2] < 5.0,
        "alpha_2 = {}",
        alphas[2]
    );
}
