//! Developer probe: why does the local phase accept / reject moves?

use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::local::Ranker;
use clk_skewopt::{
    local_optimize, DeltaLatencyModel, FaultCtx, LocalConfig, ModelKind, TrainConfig,
};

fn main() {
    let tc = Testcase::generate(TestcaseKind::Cls2v1, 128, 3);
    let train = TrainConfig {
        n_cases: 60,
        moves_per_case: 60,
        ..TrainConfig::default()
    };
    let model = DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &train);
    let mut tree = tc.tree.clone();
    let cfg = LocalConfig {
        max_iterations: 3,
        max_batches: 3,
        ..LocalConfig::default()
    };
    let rep = local_optimize(
        &mut tree,
        &tc.lib,
        &tc.floorplan,
        Ranker::Ml(&model),
        &cfg,
        None,
        &mut FaultCtx::passive(),
    )
    .expect("CTS trees time");
    println!(
        "{:.1} -> {:.1} ({} accepted, {} evals)",
        rep.variation_before,
        rep.variation_after,
        rep.iterations.len(),
        rep.golden_evals
    );
}
