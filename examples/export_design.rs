//! Tool-interface tour: optimize a testcase, then hand the result to the
//! outside world the way the paper's flow hands data to commercial tools —
//! Liberty for the library, `.ctree`/Verilog/DEF for the design, SPEF for
//! the parasitics of the root net, plus a signoff-style variation report.
//!
//! ```sh
//! cargo run --release --example export_design -- [outdir]
//! ```

use std::fs;
use std::path::PathBuf;

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::{spef::write_spef, RcTree};
use clk_liberty::{text::write_liberty, CornerId};
use clk_netlist::io::{parse_ctree, write_ctree, write_def, write_verilog};
use clk_route::WireTree;
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, StageLuts};
use clk_sta::report::report_variation;
use clockvar_workbench::quick_flow_config;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outdir = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/export_demo".to_string()),
    );
    fs::create_dir_all(&outdir)?;

    let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 1);
    let cfg = quick_flow_config();
    let luts = StageLuts::characterize(&tc.lib);
    let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);
    let report = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))?;
    println!(
        "optimized: variation {:.1} -> {:.1} ps",
        report.variation_before, report.variation_after
    );
    let tree = &report.tree;

    // library, one .lib per corner
    for (k, corner) in tc.lib.corners().iter().enumerate() {
        let path = outdir.join(format!("clockvar_{}.lib", corner.name));
        fs::write(&path, write_liberty(&tc.lib, CornerId(k)))?;
        println!("wrote {}", path.display());
    }
    // the design, three ways
    let ctree = write_ctree(tree, &tc.lib);
    fs::write(outdir.join("clock_tree.ctree"), &ctree)?;
    let restored = parse_ctree(&ctree, &tc.lib)?;
    assert_eq!(restored.len(), tree.len(), "round trip preserved the tree");
    fs::write(
        outdir.join("clock_tree.v"),
        write_verilog(tree, &tc.lib, "clockvar_cls1v1"),
    )?;
    fs::write(
        outdir.join("clock_tree.def"),
        write_def(tree, &tc.lib, "clockvar_cls1v1", tc.floorplan.die),
    )?;
    // parasitics of the root net (driver = source)
    let root = tree.root();
    let mut wt = WireTree::new(tree.loc(root));
    let mut loads = Vec::new();
    for &c in tree.children(root) {
        let route = tree.node(c).route.as_ref().expect("routed");
        let mut prev = WireTree::ROOT;
        for &p in &route.points()[1..] {
            prev = wt.add_child(prev, p);
        }
        loads.push((prev, 1.0));
    }
    let rct = RcTree::extract(&wt, tc.lib.wire_rc(CornerId(0)), &loads, 5.0);
    fs::write(outdir.join("root_net.spef"), write_spef("clk_root", &rct))?;
    // the report a signoff engineer reads
    fs::write(
        outdir.join("variation.rpt"),
        report_variation(tree, &tc.lib, 15),
    )?;
    println!(
        "wrote {}/clock_tree.{{ctree,v,def}}, root_net.spef, variation.rpt",
        outdir.display()
    );
    Ok(())
}
