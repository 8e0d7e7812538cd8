//! Memory-controller scenario: the L-shaped CLS2v1 testcase whose ~1 mm
//! controller↔interface datapaths make cross-corner skew variation
//! especially painful (paper §5.1). Runs the global-local flow and then
//! breaks the result down by corner and by pair distance.
//!
//! ```sh
//! cargo run --release --example memory_controller -- [n_sinks]
//! ```

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_cts::{Testcase, TestcaseKind};
use clk_liberty::CornerId;
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, FlowError, StageLuts};
use clk_sta::{alpha_factors, pair_skews, skew_ratios, Timer};
use clockvar_workbench::{quick_flow_config, table5_header, table5_orig_row, table5_row};

fn main() -> Result<(), FlowError> {
    let n_sinks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(80);
    println!(
        "generating {} ({n_sinks} sinks)...",
        TestcaseKind::Cls2v1.name()
    );
    let tc = Testcase::generate(TestcaseKind::Cls2v1, n_sinks, 3);
    let spans: Vec<f64> = tc
        .tree
        .sink_pairs()
        .iter()
        .map(|p| tc.tree.loc(p.a).manhattan_um(tc.tree.loc(p.b)))
        .collect();
    let long = spans.iter().filter(|&&s| s > 800.0).count();
    println!(
        "  {} sink pairs, {} of them >0.8 mm apart (controller <-> interface)",
        spans.len(),
        long
    );

    let cfg = quick_flow_config();
    let luts = StageLuts::characterize(&tc.lib);
    let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);
    let report = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))?;
    let corner_names: Vec<String> = tc.lib.corners().iter().map(|c| c.name.clone()).collect();
    println!();
    println!("{}", table5_header(&corner_names));
    println!("{}", table5_orig_row(&report));
    println!("{}", table5_row("global-local", &report));

    // Fig. 9-style check: spread of per-pair skew ratios (c1 vs c0)
    let timer = Timer::golden();
    for (label, tree) in [("orig", &tc.tree), ("optimized", &report.tree)] {
        let skews: Vec<Vec<f64>> = timer
            .analyze_all(tree, &tc.lib)
            .iter()
            .map(|t| pair_skews(t, tree.sink_pairs()))
            .collect();
        let alphas = alpha_factors(&skews);
        let ratios = skew_ratios(&skews, 1, 0, 1.0);
        if ratios.is_empty() {
            continue;
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let var = ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / ratios.len() as f64;
        println!(
            "  {label:<10} skew ratio {}/{}: mean {mean:.2}, std {:.2}  (alpha_1 = {:.2})",
            tc.lib.corner(CornerId(1)).name,
            tc.lib.corner(CornerId(0)).name,
            var.sqrt(),
            alphas[1]
        );
    }
    println!(
        "\nsum of skew variation: {:.1} -> {:.1} ps ({:.1}% reduction)",
        report.variation_before,
        report.variation_after,
        100.0 * (1.0 - report.variation_ratio())
    );
    Ok(())
}
