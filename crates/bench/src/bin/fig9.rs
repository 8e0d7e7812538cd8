//! Fig. 9: distribution of per-pair skew ratios between corner pairs
//! (c1, c0) and (c3, c0), before vs after optimization of CLS1v1 — the
//! optimized tree's ratio spread should visibly tighten.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_bench::{ascii_histogram, ExpArgs, Stopwatch};
use clk_cts::{Testcase, TestcaseKind};
use clk_netlist::ClockTree;
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, StageLuts};
use clk_sta::{pair_skews, Timer};

/// Per-pair skew ratios over all pairs with |skew_c0| above 1 ps,
/// returned with |skew_c0| as a weight: the histogram shows the raw
/// (paper-style) distribution, while the weighted statistics show what
/// the variation metric actually penalizes.
fn weighted_ratios(tree: &ClockTree, tc: &Testcase, k: usize) -> Vec<(f64, f64)> {
    let timer = Timer::golden();
    let skews: Vec<Vec<f64>> = tc
        .lib
        .corner_ids()
        .map(|c| pair_skews(&timer.analyze(tree, &tc.lib, c), tree.sink_pairs()))
        .collect();
    let floor = 1.0; // ps: only skews below measurement noise are dropped
    skews[0]
        .iter()
        .zip(&skews[k])
        .filter(|(s0, _)| s0.abs() >= floor)
        .map(|(s0, sk)| (sk / s0, s0.abs()))
        .collect()
}

fn stats(v: &[(f64, f64)]) -> (f64, f64, f64, f64) {
    let wsum: f64 = v.iter().map(|&(_, w)| w).sum::<f64>().max(1e-12);
    let mean = v.iter().map(|&(r, w)| r * w).sum::<f64>() / wsum;
    let std = (v
        .iter()
        .map(|&(r, w)| w * (r - mean) * (r - mean))
        .sum::<f64>()
        / wsum)
        .sqrt();
    let lo = v.iter().map(|&(r, _)| r).fold(f64::INFINITY, f64::min);
    let hi = v.iter().map(|&(r, _)| r).fold(f64::NEG_INFINITY, f64::max);
    (mean, std, lo, hi)
}

fn main() {
    let args = ExpArgs::parse();
    let n = args.sinks.unwrap_or(if args.quick { 48 } else { 96 });
    let sw = Stopwatch::start("fig9");
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, args.seed);
    let mut cfg = clockvar_workbench::quick_flow_config();
    if !args.quick {
        cfg.global.max_pairs = 120;
        cfg.global.rounds = 3;
        cfg.local.max_iterations = 12;
        cfg.local.max_batches = 3;
        cfg.train.n_cases = 30;
    }
    let luts = StageLuts::characterize(&tc.lib);
    let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);
    let report = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))
        .expect("flow completes");
    println!(
        "variation: {:.1} -> {:.1} ps ({:.1}%)\n",
        report.variation_before,
        report.variation_after,
        100.0 * (1.0 - report.variation_ratio())
    );

    // CLS1 library corners: index 1 = c1, index 2 = c3
    for (k, label) in [(1usize, "skew(c1)/skew(c0)"), (2usize, "skew(c3)/skew(c0)")] {
        for (name, tree) in [("original", &tc.tree), ("optimized", &report.tree)] {
            let rw = weighted_ratios(tree, &tc, k);
            let (mean, std, lo, hi) = stats(&rw);
            let flat: Vec<f64> = rw.iter().map(|&(r, _)| r).collect();
            println!("--- {label}, {name} ({} weighted pairs) ---", rw.len());
            println!("weighted mean {mean:.3}, weighted std {std:.3}, range [{lo:.2}, {hi:.2}]");
            print!("{}", ascii_histogram(&flat, 9, 36));
            println!();
        }
    }
    println!("paper: the optimized tree shows clearly reduced variation and range of");
    println!("skew ratios for both corner pairs");
    sw.report();
}
