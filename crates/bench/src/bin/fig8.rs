//! Fig. 8: sum of skew variation vs local-optimization iteration, with
//! the move type of each accepted move (the paper colors type I/II/III),
//! the random-move baseline (black dots), and the standalone-local vs
//! local-after-global comparison the paper calls out.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_bench::{ExpArgs, Stopwatch};
use clk_cts::{Testcase, TestcaseKind};
use clk_netlist::ClockTree;
use clk_skewopt::local::Ranker;
use clk_skewopt::{
    global_optimize, local_optimize, DeltaLatencyModel, FaultCtx, GlobalConfig, LocalConfig,
    LocalReport, ModelKind, StageLuts, TrainConfig,
};

fn print_trace(label: &str, rep: &LocalReport) {
    println!(
        "\n{label}: {:.1} -> {:.1} ps ({} golden evals)",
        rep.variation_before, rep.variation_after, rep.golden_evals
    );
    println!("{:>5} {:>10} {:>12}", "iter", "move type", "sum (ps)");
    for (i, it) in rep.iterations.iter().enumerate() {
        println!(
            "{:>5} {:>10} {:>12.1}",
            i + 1,
            format!("type-{}", it.move_type),
            it.variation_sum
        );
    }
    if rep.iterations.is_empty() {
        println!("  (no accepted moves)");
    }
}

fn main() {
    let args = ExpArgs::parse();
    let n = args.sinks.unwrap_or(if args.quick { 40 } else { 96 });
    let sw = Stopwatch::start("fig8");
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, args.seed);
    let luts = StageLuts::characterize(&tc.lib);
    let train = TrainConfig {
        n_cases: if args.quick { 10 } else { 24 },
        ..TrainConfig::default()
    };
    let model = DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &train);
    let gcfg = GlobalConfig {
        max_pairs: if args.quick { 40 } else { 100 },
        rounds: 2,
        ..GlobalConfig::default()
    };
    let lcfg = LocalConfig {
        max_iterations: if args.quick { 8 } else { 20 },
        ..LocalConfig::default()
    };

    let global = || {
        global_optimize(
            &tc.tree,
            &tc.lib,
            &tc.floorplan,
            &luts,
            &gcfg,
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time")
    };
    let local = |tree: &mut ClockTree, ranker, cfg: &LocalConfig| {
        local_optimize(
            tree,
            &tc.lib,
            &tc.floorplan,
            ranker,
            cfg,
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time")
    };

    // local after global (the paper's flow for this figure)
    let (mut after_global, greport) = global();
    println!(
        "global phase: {:.1} -> {:.1} ps ({} arcs)",
        greport.variation_before, greport.variation_after, greport.arcs_changed
    );
    let ml_after_global = local(&mut after_global, Ranker::Ml(&model), &lcfg);
    print_trace(
        "local iterations after global (predictor-ranked)",
        &ml_after_global,
    );

    // standalone local
    let mut standalone = tc.tree.clone();
    let ml_standalone = local(&mut standalone, Ranker::Ml(&model), &lcfg);
    print_trace("standalone local (predictor-ranked)", &ml_standalone);

    // random baseline on the same post-global start point, capped to the
    // same number of golden-timer evaluations the predictor run used
    let (mut rand_tree, _) = global();
    let rand_cfg = LocalConfig {
        max_golden_evals: ml_after_global.golden_evals.max(5),
        ..lcfg.clone()
    };
    let random = local(
        &mut rand_tree,
        Ranker::Random(args.seed ^ 0x5EED),
        &rand_cfg,
    );
    print_trace("random-move baseline (same golden budget)", &random);

    let gain_after_global = ml_after_global.variation_before - ml_after_global.variation_after;
    let gain_standalone = ml_standalone.variation_before - ml_standalone.variation_after;
    let gain_random = random.variation_before - random.variation_after;
    println!("\nlocal reduction after global: {gain_after_global:.1} ps");
    println!("standalone local reduction:   {gain_standalone:.1} ps");
    println!("random baseline reduction:    {gain_random:.1} ps");
    println!("\npaper: type-III (surgery) moves dominate early iterations; the predictor");
    println!("clearly beats random; local helps more after the global phase");
    sw.report();
}
