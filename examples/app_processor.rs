//! Application-processor scenario: both CLS1 variants through all three
//! flows (`global`, `local`, `global-local`), reproducing the structure of
//! the paper's Table 5 on the scaled testcases.
//!
//! ```sh
//! cargo run --release --example app_processor -- [n_sinks]
//! ```

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, FlowError, StageLuts};
use clockvar_workbench::{quick_flow_config, table5_header, table5_orig_row, table5_row};

fn main() -> Result<(), FlowError> {
    let n_sinks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(96);
    let cfg = quick_flow_config();

    for (kind, seed) in [(TestcaseKind::Cls1v1, 1), (TestcaseKind::Cls1v2, 2)] {
        println!("=== {} ({n_sinks} sinks, seed {seed}) ===", kind.name());
        let tc = Testcase::generate(kind, n_sinks, seed);
        println!(
            "  {} clock cells, {:.2} mm2, util {:.0}%",
            tc.tree.buffers().count(),
            tc.area_mm2(),
            100.0 * tc.kind.utilization()
        );
        // per-technology artifacts are characterized once and shared
        let luts = StageLuts::characterize(&tc.lib);
        let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);

        let corner_names: Vec<String> = tc.lib.corners().iter().map(|c| c.name.clone()).collect();
        println!("{}", table5_header(&corner_names));
        let mut printed_orig = false;
        for flow in [Flow::Global, Flow::Local, Flow::GlobalLocal] {
            let report = try_optimize_with(&tc, flow, &cfg, Some(&luts), Some(&model))?;
            if !printed_orig {
                println!("{}", table5_orig_row(&report));
                printed_orig = true;
            }
            println!("{}", table5_row(&flow.to_string(), &report));
        }
        println!();
    }
    Ok(())
}
