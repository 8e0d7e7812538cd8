//! Ablation studies of the design choices DESIGN.md calls out, plus two of
//! the paper's future-work items:
//!
//! 1. **Ranker ablation** — the local flow with HSM vs ANN vs SVM vs the
//!    best analytical estimate (how much does the learner matter?).
//! 2. **ECO-robustness ablation** — the global flow with and without the
//!    uncertainty penalty / per-arc fidelity gating that this
//!    reproduction adds on top of Algorithm 1.
//! 3. **Future work (i)** — power/area cost of the achieved variation
//!    reduction.
//! 4. **Future work (iv)** — does a *worse* starting point (unbalanced
//!    CTS) let the optimizer reach a lower final variation?

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_bench::{ExpArgs, Stopwatch};
use clk_cts::{balance_by_detours, variation_sum, BalanceMode, Testcase, TestcaseKind};
use clk_delay::WireModel;
use clk_liberty::CornerId;
use clk_netlist::ClockTree;
use clk_skewopt::local::Ranker;
use clk_skewopt::predictor::Topo;
use clk_skewopt::{
    global_optimize, local_optimize, DeltaLatencyModel, FaultCtx, GlobalConfig, LocalConfig,
    ModelKind, StageLuts, TrainConfig,
};

fn main() {
    let args = ExpArgs::parse();
    let n = args.sinks.unwrap_or(if args.quick { 40 } else { 80 });
    let sw = Stopwatch::start("ablation");
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, args.seed);
    let luts = StageLuts::characterize(&tc.lib);
    let train = TrainConfig {
        n_cases: if args.quick { 10 } else { 60 },
        ..TrainConfig::default()
    };
    let lcfg = LocalConfig {
        max_iterations: if args.quick { 5 } else { 10 },
        ..LocalConfig::default()
    };
    let gcfg = GlobalConfig {
        max_pairs: if args.quick { 40 } else { 100 },
        rounds: 2,
        ..GlobalConfig::default()
    };
    let global = |tree: &ClockTree, cfg: &GlobalConfig| {
        global_optimize(
            tree,
            &tc.lib,
            &tc.floorplan,
            &luts,
            cfg,
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time")
    };
    let local = |tree: &mut ClockTree, ranker| {
        local_optimize(
            tree,
            &tc.lib,
            &tc.floorplan,
            ranker,
            &lcfg,
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time")
    };

    // --- 1. ranker ablation ---
    println!("=== ranker ablation (local flow, {n} sinks) ===");
    let hsm = DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &train);
    let ann = DeltaLatencyModel::train(&tc.lib, ModelKind::Ann, &train);
    let svm = DeltaLatencyModel::train(&tc.lib, ModelKind::Svm, &train);
    let rankers: Vec<(&str, Ranker<'_>)> = vec![
        ("HSM", Ranker::Ml(&hsm)),
        ("ANN", Ranker::Ml(&ann)),
        ("SVM", Ranker::Ml(&svm)),
        (
            "analytic (FLUTE+D2M)",
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
        ),
    ];
    println!(
        "{:<22} {:>10} {:>14} {:>12}",
        "ranker", "reduction", "golden evals", "ps/eval"
    );
    for (name, ranker) in rankers {
        let mut tree = tc.tree.clone();
        let rep = local(&mut tree, ranker);
        let red = rep.variation_before - rep.variation_after;
        println!(
            "{:<22} {:>9.1}ps {:>14} {:>12.3}",
            name,
            red,
            rep.golden_evals,
            red / rep.golden_evals.max(1) as f64
        );
    }

    // --- 2. ECO-robustness ablation ---
    println!("\n=== ECO-robustness ablation (global flow) ===");
    let variants: Vec<(&str, GlobalConfig)> = vec![
        ("full (gate + penalty)", gcfg.clone()),
        (
            "no uncertainty penalty",
            GlobalConfig {
                eco_uncertainty_frac: 0.0,
                ..gcfg.clone()
            },
        ),
        (
            "loose fidelity gate",
            GlobalConfig {
                fidelity_tol_frac: 10.0,
                fidelity_tol_ps: 1_000.0,
                ..gcfg.clone()
            },
        ),
    ];
    println!("{:<24} {:>12} {:>8}", "variant", "variation", "arcs");
    for (name, cfg) in variants {
        let (_, rep) = global(&tc.tree, &cfg);
        println!(
            "{:<24} {:>6.1}->{:<6.1} {:>6}",
            name, rep.variation_before, rep.variation_after, rep.arcs_changed
        );
    }

    // --- 3. power / area cost of the reduction (future work i) ---
    println!("\n=== power/area cost of the global-local reduction ===");
    let (mut full, grep) = global(&tc.tree, &gcfg);
    let lrep = local(&mut full, Ranker::Ml(&hsm));
    let timer = clk_sta::Timer::golden();
    let p0 = clk_sta::clock_power(
        &tc.tree,
        &tc.lib,
        &timer.analyze(&tc.tree, &tc.lib, CornerId(0)),
        1.0,
    );
    let p1 = clk_sta::clock_power(
        &full,
        &tc.lib,
        &timer.analyze(&full, &tc.lib, CornerId(0)),
        1.0,
    );
    let s0 = clk_netlist::TreeStats::compute(&tc.tree, &tc.lib);
    let s1 = clk_netlist::TreeStats::compute(&full, &tc.lib);
    println!(
        "variation {:.1} -> {:.1} ps ({:.1}%)",
        grep.variation_before,
        lrep.variation_after,
        100.0 * (1.0 - lrep.variation_after / grep.variation_before)
    );
    println!(
        "power {:.3} -> {:.3} mW ({:+.2}%), cells {} -> {} ({:+.2}%), area {:.1} -> {:.1} um2",
        p0.total_mw(),
        p1.total_mw(),
        100.0 * (p1.total_mw() / p0.total_mw() - 1.0),
        s0.n_buffers,
        s1.n_buffers,
        100.0 * (s1.n_buffers as f64 / s0.n_buffers as f64 - 1.0),
        s0.buffer_area_um2,
        s1.buffer_area_um2,
    );

    // --- 4. worse starting point (future work iv) ---
    println!("\n=== worse initial start point (future work iv) ===");
    let mut unbalanced = tc.tree.clone();
    // undo most balance detours: re-route sink edges as plain L-shapes
    let sinks: Vec<_> = unbalanced.sinks().collect();
    for s in sinks {
        let p = unbalanced.parent(s).expect("sink driven");
        let straight = clk_route::RoutePath::l_shape(unbalanced.loc(p), unbalanced.loc(s));
        unbalanced.set_route(s, straight).expect("endpoints match");
    }
    // partially re-balance so DRC stays clean but skews stay large
    balance_by_detours(
        &mut unbalanced,
        &tc.lib,
        BalanceMode::SingleCorner(CornerId(0)),
        1,
        40.0,
    );
    let v_bal = variation_sum(&tc.tree, &tc.lib);
    let v_unbal = variation_sum(&unbalanced, &tc.lib);
    let (_, rep_bal) = global(&tc.tree, &gcfg);
    let (_, rep_unbal) = global(&unbalanced, &gcfg);
    println!(
        "balanced start:   {v_bal:.1} -> {:.1} ps",
        rep_bal.variation_after
    );
    println!(
        "unbalanced start: {v_unbal:.1} -> {:.1} ps",
        rep_unbal.variation_after
    );
    println!("(the paper asks whether a worse start can reach a better optimum)");
    sw.report();
}
