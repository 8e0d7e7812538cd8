//! Developer probe: why does the global phase accept / reject sweeps?

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{global_optimize, FaultCtx, GlobalConfig, StageLuts};

fn main() {
    for seed in 1..=2u64 {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 160, seed);
        let luts = StageLuts::characterize(&tc.lib);
        let cfg = GlobalConfig {
            max_pairs: 120,
            lambdas: vec![0.01, 0.05, 0.2, 0.5],
            ..GlobalConfig::default()
        };
        let mut ctx = FaultCtx::passive();
        let (_, rep) = global_optimize(
            &tc.tree,
            &tc.lib,
            &tc.floorplan,
            &luts,
            &cfg,
            None,
            &mut ctx,
        )
        .expect("CTS trees time");
        println!(
            "seed {seed}: {:.1} -> {:.1} ({:.1}%), lambda {:?}, arcs {}, pivots {}",
            rep.variation_before,
            rep.variation_after,
            100.0 * (1.0 - rep.variation_after / rep.variation_before),
            rep.lambda_used,
            rep.arcs_changed,
            rep.lp_iterations
        );
        for p in &rep.sweep {
            println!(
                "   lambda {:.3}: obj {:.1}, |delta| {:.1} ps, arcs {}, after {:?}, accepted {}",
                p.lambda,
                p.lp_objective,
                p.lp_total_delta,
                p.arcs_changed,
                p.variation_after,
                p.accepted
            );
        }
    }
}
