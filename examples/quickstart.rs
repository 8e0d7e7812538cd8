//! Quickstart: generate a small application-processor testcase, run the
//! full global-local skew-variation optimization, print a Table-5-style
//! summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, FlowError, StageLuts};
use clockvar_workbench::{quick_flow_config, table5_header, table5_orig_row, table5_row};

fn main() -> Result<(), FlowError> {
    let n_sinks = 64;
    println!(
        "generating {} ({n_sinks} sinks)...",
        TestcaseKind::Cls1v1.name()
    );
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n_sinks, 1);
    for c in tc.lib.corners() {
        println!("  {c}");
    }

    println!("running the global-local flow (scaled-down configuration)...");
    let cfg = quick_flow_config();
    let luts = StageLuts::characterize(&tc.lib);
    let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);
    let report = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))?;

    let corner_names: Vec<String> = tc.lib.corners().iter().map(|c| c.name.clone()).collect();
    println!();
    println!("{}", table5_header(&corner_names));
    println!("{}", table5_orig_row(&report));
    println!("{}", table5_row("global-local", &report));
    println!();
    println!(
        "sum of skew variation: {:.1} -> {:.1} ps ({:.1}% reduction)",
        report.variation_before,
        report.variation_after,
        100.0 * (1.0 - report.variation_ratio())
    );
    if let Some(g) = &report.global_report {
        println!(
            "  global phase: {} arcs rebuilt (lambda = {:?}, {} LP pivots)",
            g.arcs_changed, g.lambda_used, g.lp_iterations
        );
    }
    if let Some(l) = &report.local_report {
        println!(
            "  local phase: {} accepted moves, {} golden evaluations",
            l.iterations.len(),
            l.golden_evals
        );
    }
    Ok(())
}
